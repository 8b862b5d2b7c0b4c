#!/usr/bin/env python3
"""Render the run ledger (JSONL, one run report per line) as a static HTML
dashboard.

Stdlib-only, no server: the output is a single self-contained HTML file with
inline SVG charts, suitable for a CI artifact or `python3 -m http.server`.

Sections:
  1. Run index — every ledger entry (newest first) with timestamp, git
     revision, seed, determinism digest, and adaptive stop reason.
  2. Fig. 7 leakage chart — total leakage per S-box style and age with 95%
     CI error bars, taken from the newest bench_fig7_total_leakage entry's
     `statistics.matrix` (the paper's total-leakage figure, with intervals).
  3. Adaptive acquisition — trace savings of convergence-gated acquisition
     per run (bench_adaptive_acquire entries).
  4. Perf trends — every `traces_per_sec*` param across ledger history, one
     line per (report, param), so a throughput step shows at a glance (the
     CI perf gate, tools/bench_compare.py, floors engine ratios instead).

Reads lpa-run-report/4 entries only; other report versions are skipped
with a warning. A running bench is watched with tools/lpa_watch.py.

Usage:
  tools/lpa_dashboard.py ledger.jsonl [more.jsonl ...] --out dashboard.html
"""

import argparse
import datetime
import html
import json
import sys

REPORT_SCHEMA = "lpa-run-report/4"

# Paper ordering of the styles (Fig. 7, most to least leaky) — used for a
# stable x-axis; styles absent from the matrix are simply skipped.
STYLE_ORDER = ["Unprotected", "Boolean-opt", "LUT", "OPT", "TI", "RSM-ROM",
               "RSM", "GLUT", "ISW"]
AGE_COLORS = ["#1f77b4", "#6baed6", "#fd8d3c", "#e6550d", "#a63603"]
LINE_COLORS = ["#1f77b4", "#e6550d", "#2ca02c", "#9467bd", "#8c564b",
               "#d62728", "#7f7f7f"]


def load_ledger(paths):
    """Returns the run reports of all ledger lines, in file order."""
    reports = []
    for path in paths:
        try:
            with open(path) as f:
                lines = f.read().splitlines()
        except OSError as e:
            print(f"warning: {path}: {e}", file=sys.stderr)
            continue
        for ln, line in enumerate(lines, 1):
            if not line.strip():
                continue
            try:
                report = json.loads(line)
            except json.JSONDecodeError as e:
                print(f"warning: {path}:{ln}: bad JSON ({e})", file=sys.stderr)
                continue
            if not isinstance(report, dict):
                print(f"warning: {path}:{ln}: not a run report; skipped",
                      file=sys.stderr)
                continue
            if report.get("schema") != REPORT_SCHEMA:
                print(f"warning: {path}:{ln}: unknown report schema "
                      f"{report.get('schema')!r}; skipped", file=sys.stderr)
                continue
            reports.append(report)
    return reports


def fmt_time(ts):
    if not ts:
        return "-"
    return datetime.datetime.fromtimestamp(
        float(ts), tz=datetime.timezone.utc).strftime("%Y-%m-%d %H:%M:%SZ")


def esc(x):
    return html.escape(str(x))


# ----------------------------------------------------------------- SVG bits

def svg_open(width, height):
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" xmlns="http://www.w3.org/2000/svg" '
            'font-family="sans-serif" font-size="11">')


def y_ticks(vmax):
    """~5 round tick values covering [0, vmax]."""
    if vmax <= 0:
        return [0.0]
    raw = vmax / 4.0
    mag = 10 ** len(str(int(raw))) / 10 if raw >= 1 else 1
    step = max(mag, round(raw / mag) * mag)
    ticks, v = [], 0.0
    while v <= vmax * 1.0001:
        ticks.append(v)
        v += step
    return ticks


def fig7_chart(matrix):
    """Grouped bar chart: styles x ages, CI half-widths as error bars."""
    ages = sorted({c["months"] for c in matrix})
    styles = [s for s in STYLE_ORDER
              if any(c["style"] == s for c in matrix)]
    styles += sorted({c["style"] for c in matrix} - set(styles))
    cell = {(c["style"], c["months"]): c for c in matrix}

    vmax = max((c["total"] + c.get("ci_halfwidth", 0.0)) for c in matrix)
    width, height = max(640, 90 * len(styles) + 120), 340
    left, right, top, bottom = 70, 20, 28, 58
    plot_w, plot_h = width - left - right, height - top - bottom

    def ypix(v):
        return top + plot_h - (v / vmax) * plot_h if vmax else top + plot_h

    group_w = plot_w / max(1, len(styles))
    bar_w = max(4.0, min(16.0, group_w / (len(ages) + 1.5)))

    out = [svg_open(width, height)]
    for t in y_ticks(vmax):
        y = ypix(t)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" '
                   f'y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{t:g}</text>')
    for si, style in enumerate(styles):
        gx = left + si * group_w
        for ai, months in enumerate(ages):
            c = cell.get((style, months))
            if c is None:
                continue
            x = gx + group_w / 2 + (ai - (len(ages) - 1) / 2) * bar_w
            y = ypix(max(0.0, c["total"]))
            color = AGE_COLORS[ai % len(AGE_COLORS)]
            out.append(
                f'<rect x="{x - bar_w / 2 + 0.5:.1f}" y="{y:.1f}" '
                f'width="{bar_w - 1:.1f}" height="{top + plot_h - y:.1f}" '
                f'fill="{color}"><title>{esc(style)} @ {months:g} months: '
                f'{c["total"]:.2f} (n={c.get("traces", "?")})</title></rect>')
            hw = c.get("ci_halfwidth")
            if hw is not None:
                ylo, yhi = ypix(max(0.0, c["total"] - hw)), ypix(c["total"] + hw)
                out.append(f'<line x1="{x:.1f}" y1="{yhi:.1f}" x2="{x:.1f}" '
                           f'y2="{ylo:.1f}" stroke="#222"/>')
                for ye in (yhi, ylo):
                    out.append(f'<line x1="{x - 3:.1f}" y1="{ye:.1f}" '
                               f'x2="{x + 3:.1f}" y2="{ye:.1f}" '
                               'stroke="#222"/>')
        out.append(f'<text x="{gx + group_w / 2:.1f}" y="{height - bottom + 16}" '
                   f'text-anchor="middle">{esc(style)}</text>')
    # Legend: one swatch per age.
    lx = left
    for ai, months in enumerate(ages):
        color = AGE_COLORS[ai % len(AGE_COLORS)]
        out.append(f'<rect x="{lx}" y="{height - 24}" width="10" height="10" '
                   f'fill="{color}"/>')
        label = "fresh" if months == 0 else f"{months / 12:g}y"
        out.append(f'<text x="{lx + 14}" y="{height - 15}">{label}</text>')
        lx += 14 + 10 * len(label) + 16
    out.append(f'<text x="{left}" y="{top - 10}" fill="#444">total leakage '
               '(debiased WHT energy, error bars = 95% jackknife CI)</text>')
    out.append("</svg>")
    return "".join(out)


def line_chart(series, title, unit):
    """One polyline per named series over run index."""
    width, height = 640, 240
    left, right, top, bottom = 70, 160, 28, 34
    plot_w, plot_h = width - left - right, height - top - bottom
    npoints = max(len(pts) for _, pts in series)
    vmax = max(v for _, pts in series for _, v in pts)

    def xpix(i):
        return left + (i / max(1, npoints - 1)) * plot_w

    def ypix(v):
        return top + plot_h - (v / vmax) * plot_h if vmax else top + plot_h

    out = [svg_open(width, height)]
    for t in y_ticks(vmax):
        y = ypix(t)
        out.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" '
                   f'y2="{y:.1f}" stroke="#ddd"/>')
        out.append(f'<text x="{left - 6}" y="{y + 4:.1f}" '
                   f'text-anchor="end">{t:g}</text>')
    for i, (name, pts) in enumerate(series):
        color = LINE_COLORS[i % len(LINE_COLORS)]
        path = " ".join(f"{xpix(x):.1f},{ypix(v):.1f}" for x, v in pts)
        out.append(f'<polyline points="{path}" fill="none" '
                   f'stroke="{color}" stroke-width="2"/>')
        for x, v in pts:
            out.append(f'<circle cx="{xpix(x):.1f}" cy="{ypix(v):.1f}" r="3" '
                       f'fill="{color}"><title>{esc(name)} run {x}: '
                       f'{v:.4g} {unit}</title></circle>')
        ly = top + 14 * i
        out.append(f'<rect x="{width - right + 8}" y="{ly}" width="10" '
                   f'height="10" fill="{color}"/>')
        out.append(f'<text x="{width - right + 22}" y="{ly + 9}">'
                   f'{esc(name)}</text>')
    out.append(f'<text x="{left}" y="{top - 10}" fill="#444">{esc(title)}'
               "</text>")
    out.append(f'<text x="{left}" y="{height - 8}" fill="#888">run index '
               "(ledger order, oldest to newest)</text>")
    out.append("</svg>")
    return "".join(out)


# ----------------------------------------------------------------- sections

def run_index_rows(reports):
    rows = []
    for i, r in enumerate(reversed(reports)):
        st = r.get("statistics", {}) or {}
        stop = st.get("stop_reason", "-")
        traces = st.get("traces_total", "-")
        rows.append(
            "<tr>"
            f"<td>{len(reports) - i}</td>"
            f"<td>{esc(fmt_time(r.get('timestamp_unix')))}</td>"
            f"<td>{esc(r.get('name', '?'))}</td>"
            f"<td><code>{esc(r.get('git', '-'))}</code></td>"
            f"<td><code>{esc(r.get('seed', '-'))}</code></td>"
            f"<td>{esc(traces)}</td>"
            f"<td>{esc(stop)}</td>"
            f"<td><code>{esc(r.get('determinism_digest', '-'))}</code></td>"
            "</tr>")
    return "\n".join(rows)


def latest_fig7(reports):
    for r in reversed(reports):
        if r.get("name") == "bench_fig7_total_leakage":
            matrix = (r.get("statistics", {}) or {}).get("matrix")
            if matrix:
                return r, matrix
    return None, None


def adaptive_section(reports):
    runs = [r for r in reports if r.get("name") == "bench_adaptive_acquire"]
    if not runs:
        return "<p>No <code>bench_adaptive_acquire</code> entries yet.</p>"
    pts = [(i, float(r.get("params", {}).get("adaptive_savings_pct", 0.0)))
           for i, r in enumerate(runs)]
    latest = runs[-1].get("params", {})
    style = latest.get("adaptive_best_style", "?")
    ident = latest.get("adaptive_bit_identical")
    parts = [line_chart([("savings_pct", pts)],
                        "adaptive trace savings vs fixed-count protocol (%)",
                        "%")]
    parts.append(
        f"<p>Latest run: best style <b>{esc(style)}</b>, savings "
        f"<b>{pts[-1][1]:.1f}%</b>, thread-count bit-reproducible: "
        f"<b>{esc(ident)}</b>.</p>")
    return "\n".join(parts)


def perf_section(reports):
    series = {}
    for r in reports:
        name = r.get("name", "?")
        for key, val in (r.get("params", {}) or {}).items():
            if key.startswith("traces_per_sec") and isinstance(
                    val, (int, float)):
                series.setdefault(f"{name}.{key}", [])
    for i, r in enumerate(reports):
        name = r.get("name", "?")
        for key, val in (r.get("params", {}) or {}).items():
            label = f"{name}.{key}"
            if label in series:
                series[label].append((i, float(val)))
    series = [(k, v) for k, v in sorted(series.items()) if v]
    if not series:
        return "<p>No throughput params in the ledger yet.</p>"
    return line_chart(series, "acquisition throughput across runs",
                      "traces/s")


PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>LPA run ledger</title>
<style>
 body {{ font-family: sans-serif; margin: 2em auto; max-width: 980px;
         color: #222; }}
 h1 {{ border-bottom: 2px solid #e6550d; padding-bottom: 0.2em; }}
 table {{ border-collapse: collapse; font-size: 13px; width: 100%; }}
 th, td {{ border: 1px solid #ccc; padding: 3px 8px; text-align: left; }}
 th {{ background: #f4f4f4; }}
 code {{ font-size: 12px; }}
 .meta {{ color: #777; font-size: 13px; }}
</style></head><body>
<h1>Leakage-power-analysis run ledger</h1>
<p class="meta">{nruns} run(s) · generated {now} ·
schema {report_schema} · Bahrami et al., DATE 2022 reproduction</p>
<h2>Fig. 7 — total leakage with confidence intervals</h2>
{fig7}
<h2>Convergence-gated acquisition</h2>
{adaptive}
<h2>Throughput trends</h2>
{perf}
<h2>Run index</h2>
<table>
<tr><th>#</th><th>time (UTC)</th><th>bench</th><th>git</th><th>seed</th>
<th>traces</th><th>stop</th><th>digest</th></tr>
{rows}
</table>
</body></html>
"""


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ledgers", nargs="+", help="ledger JSONL file(s)")
    ap.add_argument("--out", default="dashboard.html",
                    help="output HTML path (default: dashboard.html)")
    args = ap.parse_args()

    reports = load_ledger(args.ledgers)
    if not reports:
        sys.exit("no valid ledger entries found")

    fig7_report, matrix = latest_fig7(reports)
    if matrix:
        meta = (f'<p class="meta">from run of {esc(fmt_time(fig7_report.get("timestamp_unix")))}, '
                f'{esc((fig7_report.get("statistics", {}) or {}).get("traces_per_class", "?"))}'
                " traces/class</p>")
        fig7 = meta + fig7_chart(matrix)
    else:
        fig7 = ("<p>No <code>bench_fig7_total_leakage</code> entry with a "
                "statistics matrix yet.</p>")

    page = PAGE.format(
        nruns=len(reports),
        now=fmt_time(datetime.datetime.now(datetime.timezone.utc).timestamp()),
        report_schema=REPORT_SCHEMA,
        fig7=fig7,
        adaptive=adaptive_section(reports),
        perf=perf_section(reports),
        rows=run_index_rows(reports),
    )
    with open(args.out, "w") as f:
        f.write(page)
    print(f"dashboard: {args.out} ({len(reports)} runs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
