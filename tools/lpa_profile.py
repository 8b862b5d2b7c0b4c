#!/usr/bin/env python3
"""Render a run report's "profile" block as a standalone HTML page.

Stdlib-only, no server: the input is one lpa-run-report/4 JSON file written
by any bench under `--profile` (the "profile" block is the lpa-profile/1
object of obs/profiler.h), the output a single self-contained HTML file
with inline SVG charts, suitable for a CI artifact.

Sections:
  1. Top-K nets — the cost-attribution table (scheduled events are the cost
     proxy, sampled wall-time breaks ties), with a horizontal bar per row.
  2. Lane occupancy — the batch engine's lanes-per-wave histograms (popped
     and committed, the 0-commit bin included), the machine-readable form
     of the PR 6 lane-utilization analysis.
  3. Queue-depth timeline — calendar-queue depth and pop counts by sim-time
     window over the design's combinational horizon.
  4. Wall-time flamegraph — a two-level flame: bench phases (wall_ms) on
     one track, sampled per-net wall time on the other. `--collapsed`
     additionally writes the standard collapsed-stack text form, one
     `phase;frame count` line each, for external flamegraph tooling.
  5. Hardware counters and arena accounting.

Usage:
  tools/lpa_profile.py report.json --out profile.html [--collapsed out.txt]
"""

import argparse
import datetime
import html
import json
import sys

REPORT_SCHEMA = "lpa-run-report/4"
PROFILE_SCHEMA = "lpa-profile/1"


def validate_profile(report):
    """Structural check of a run report's profile block.

    Returns a list of human-readable problem strings (empty = valid).
    Shared by tools/test_profile_tools.py and the CI obs-smoke job,
    so the gate and the renderer agree on what "well-formed" means.
    """
    errors = []
    if report.get("schema") != REPORT_SCHEMA:
        errors.append(f"report schema {report.get('schema')!r} is not "
                      f"{REPORT_SCHEMA}")
    profile = report.get("profile")
    if not isinstance(profile, dict):
        return errors + ["missing or non-object 'profile' block "
                         "(was the bench run with --profile?)"]
    if profile.get("schema") != PROFILE_SCHEMA:
        errors.append(f"profile schema {profile.get('schema')!r} is not "
                      f"{PROFILE_SCHEMA}")
    if not isinstance(profile.get("runs"), (int, float)):
        errors.append("profile.runs missing or non-numeric")

    nets = profile.get("nets")
    if not isinstance(nets, dict) or not isinstance(nets.get("rows"), list):
        errors.append("profile.nets.rows missing or not a list")
    else:
        for i, row in enumerate(nets["rows"]):
            if not isinstance(row, dict):
                errors.append(f"profile.nets.rows[{i}] is not an object")
                continue
            for key in ("net", "scheduled", "committed", "cancelled",
                        "filtered", "pulses", "wall_time_ns"):
                if not isinstance(row.get(key), (int, float)):
                    errors.append(
                        f"profile.nets.rows[{i}].{key} missing or non-numeric")

    occ = profile.get("lane_occupancy")
    if not isinstance(occ, dict):
        errors.append("profile.lane_occupancy missing or not an object")
    else:
        for key in ("waves", "mean_popped", "mean_committed"):
            v = occ.get(key)
            if not isinstance(v, (int, float)) or v < 0:
                errors.append(f"profile.lane_occupancy.{key} missing or "
                              "negative")
        for key in ("popped_hist", "committed_hist"):
            hist = occ.get(key)
            if not isinstance(hist, list):
                errors.append(f"profile.lane_occupancy.{key} missing or "
                              "not a list")
                continue
            for i, b in enumerate(hist):
                if (not isinstance(b, dict)
                        or not isinstance(b.get("lanes"), (int, float))
                        or not isinstance(b.get("count"), (int, float))):
                    errors.append(f"profile.lane_occupancy.{key}[{i}] is not "
                                  "a {{lanes, count}} object")

    tl = profile.get("queue_depth_timeline")
    if not isinstance(tl, dict) or not isinstance(tl.get("windows"), list):
        errors.append("profile.queue_depth_timeline.windows missing or "
                      "not a list")

    if not isinstance(profile.get("hw_counters"), list):
        errors.append("profile.hw_counters missing or not a list")
    return errors


def esc(x):
    return html.escape(str(x))


def fmt_count(v):
    if v >= 1e9:
        return f"{v / 1e9:.2f}G"
    if v >= 1e6:
        return f"{v / 1e6:.2f}M"
    if v >= 1e3:
        return f"{v / 1e3:.1f}k"
    return f"{v:g}"


# ----------------------------------------------------------------- SVG bits

def svg_open(width, height):
    return (f'<svg viewBox="0 0 {width} {height}" width="{width}" '
            f'height="{height}" xmlns="http://www.w3.org/2000/svg" '
            'font-family="sans-serif" font-size="11">')


def topk_table(profile):
    rows = profile["nets"]["rows"]
    if not rows:
        return "<p>No active nets recorded.</p>"
    vmax = max(r["scheduled"] for r in rows) or 1
    out = ["<table><tr><th>net</th><th>cell</th><th>scheduled</th>"
           "<th>committed</th><th>cancelled</th><th>filtered</th>"
           "<th>pulses</th><th>wall (ms)</th><th></th></tr>"]
    for r in rows:
        bar = int(140 * r["scheduled"] / vmax)
        out.append(
            "<tr>"
            f"<td><code>{esc(r['net'])}</code></td>"
            f"<td>{esc(r.get('label') or '-')}</td>"
            f"<td>{fmt_count(r['scheduled'])}</td>"
            f"<td>{fmt_count(r['committed'])}</td>"
            f"<td>{fmt_count(r['cancelled'])}</td>"
            f"<td>{fmt_count(r['filtered'])}</td>"
            f"<td>{fmt_count(r['pulses'])}</td>"
            f"<td>{r['wall_time_ns'] / 1e6:.2f}</td>"
            f'<td><svg width="146" height="12"><rect x="0" y="1" '
            f'width="{bar}" height="10" fill="#e6550d"/></svg></td>'
            "</tr>")
    out.append("</table>")
    totals = profile.get("totals", {})
    if totals:
        out.append(
            f'<p class="meta">totals: {fmt_count(totals.get("scheduled", 0))} '
            f'scheduled · {fmt_count(totals.get("committed", 0))} committed · '
            f'{fmt_count(totals.get("cancelled", 0))} cancelled · '
            f'{fmt_count(totals.get("filtered", 0))} filtered · '
            f'{fmt_count(totals.get("pulses", 0))} pulses over '
            f'{esc(profile.get("runs", "?"))} runs ('
            f'{esc(profile["nets"].get("active_nets", "?"))} of '
            f'{esc(profile["nets"].get("total_nets", "?"))} nets active)</p>')
    return "\n".join(out)


def occupancy_chart(profile):
    """Log-count bar chart of the popped/committed lanes-per-wave bins."""
    import math
    occ = profile.get("lane_occupancy", {})
    hists = [("popped", occ.get("popped_hist", []), "#1f77b4"),
             ("committed", occ.get("committed_hist", []), "#e6550d")]
    width, height = 660, 240
    left, top, bottom = 56, 26, 40
    plot_w, plot_h = width - left - 16, height - top - bottom
    counts = [b["count"] for _, h, _ in hists for b in h]
    if not counts:
        return "<p>No occupancy samples.</p>"
    cmax = math.log10(max(counts) + 1)
    lanes_max = max(b["lanes"] for _, h, _ in hists for b in h)
    nbins = int(lanes_max) + 1
    bin_w = plot_w / max(1, nbins)
    out = [svg_open(width, height)]
    for name, hist, color in hists:
        shift = 0 if name == "popped" else bin_w * 0.45
        for b in hist:
            h = (math.log10(b["count"] + 1) / cmax) * plot_h if cmax else 0
            x = left + b["lanes"] * bin_w + shift
            out.append(
                f'<rect x="{x:.1f}" y="{top + plot_h - h:.1f}" '
                f'width="{bin_w * 0.42:.1f}" height="{h:.1f}" fill="{color}">'
                f'<title>{name}: {b["lanes"]:g} lanes x '
                f'{fmt_count(b["count"])} waves</title></rect>')
    for lanes in range(0, nbins, 8):
        x = left + lanes * bin_w
        out.append(f'<text x="{x:.1f}" y="{height - bottom + 14}" '
                   f'text-anchor="middle">{lanes}</text>')
    out.append(f'<text x="{left}" y="{height - 8}" fill="#888">lanes per '
               "wave (log-count bars)</text>")
    lx = width - 240
    for name, _, color in hists:
        out.append(f'<rect x="{lx}" y="12" width="10" height="10" '
                   f'fill="{color}"/>')
        out.append(f'<text x="{lx + 14}" y="21">{name}</text>')
        lx += 110
    out.append("</svg>")
    # Under a stride > 1 the batch engine profiles every N-th lane group of
    # a call and reports those runs' tallies unscaled: the counts cover the
    # profiled runs only, the means estimate the whole workload.
    coverage = ""
    if "profiled_runs" in profile and "runs" in profile:
        coverage = (f'; counts cover {fmt_count(profile["profiled_runs"])} '
                    f'of {fmt_count(profile["runs"])} runs')
    meta = (f'<p class="meta">{fmt_count(occ.get("waves", 0))} waves · mean '
            f'{occ.get("mean_popped", 0):.2f} popped / '
            f'{occ.get("mean_committed", 0):.2f} committed of 64 lanes'
            + (f' · run sample stride {occ["run_sample_stride"]:g}{coverage}'
               if occ.get("run_sample_stride", 1) > 1 else "") + "</p>")
    return occupancy_chart_svg_join(out, meta)


def occupancy_chart_svg_join(svg_parts, meta):
    return "".join(svg_parts) + meta


def timeline_chart(tl):
    windows = [w for w in tl.get("windows", []) if w.get("pops")]
    if not windows:
        return "<p>No timeline samples.</p>"
    width, height = 660, 220
    left, top, bottom = 64, 26, 40
    plot_w, plot_h = width - left - 16, height - top - bottom
    nwin = max(w["window"] for w in windows) + 1
    dmax = max(w["max_depth"] for w in windows) or 1
    bin_w = plot_w / nwin
    out = [svg_open(width, height)]
    for w in windows:
        x = left + w["window"] * bin_w
        hmax = (w["max_depth"] / dmax) * plot_h
        hmean = (w["mean_depth"] / dmax) * plot_h
        out.append(f'<rect x="{x:.1f}" y="{top + plot_h - hmax:.1f}" '
                   f'width="{bin_w * 0.9:.1f}" height="{hmax:.1f}" '
                   f'fill="#c6dbef"><title>window {w["window"]} '
                   f'(t0 {w["t0_ps"]:.1f} ps): max depth {w["max_depth"]:g}, '
                   f'mean {w["mean_depth"]:.1f}, pops '
                   f'{fmt_count(w["pops"])}</title></rect>')
        out.append(f'<rect x="{x:.1f}" y="{top + plot_h - hmean:.1f}" '
                   f'width="{bin_w * 0.9:.1f}" height="{hmean:.1f}" '
                   f'fill="#1f77b4"/>')
    out.append(f'<text x="{left}" y="{top - 8}" fill="#444">calendar-queue '
               f'depth by sim-time window (dark = mean, light = max; window '
               f'= {tl.get("window_ps", 0):.1f} ps)</text>')
    out.append(f'<text x="{left}" y="{height - 8}" fill="#888">sim time '
               "&#8594;</text>")
    out.append("</svg>")
    return "".join(out)


def flame_stacks(report):
    """(stack, value_ns) rows: bench phases + sampled per-net wall time."""
    stacks = []
    for ph in report.get("phases", []) or []:
        ns = int(float(ph.get("wall_ms", 0.0)) * 1e6)
        if ns > 0:
            stacks.append((f"{report.get('name', 'run')};"
                           f"phase:{ph.get('name', '?')}", ns))
    rows = report["profile"]["nets"]["rows"]
    for r in rows:
        ns = int(r.get("wall_time_ns", 0))
        if ns > 0:
            label = r.get("label") or "net"
            stacks.append((f"{report.get('name', 'run')};sim;"
                           f"{label}:net{r['net']}", ns))
    return stacks


def flamegraph(stacks):
    """Minimal two-level icicle: one track per top-level frame group."""
    if not stacks:
        return ("<p>No wall-time samples (phases empty and no sampled "
                "net time).</p>")
    width = 660
    row_h, gap = 22, 2
    groups = {}
    for stack, ns in stacks:
        frames = stack.split(";")
        groups.setdefault(";".join(frames[1:-1]) or frames[-1].split(":")[0],
                          []).append((frames[-1], ns))
    height = (row_h + gap) * len(groups) + 30
    out = [svg_open(width, height)]
    palette = ["#e6550d", "#fd8d3c", "#fdae6b", "#fdd0a2", "#a63603"]
    y = 22
    for gname, frames in groups.items():
        total = sum(ns for _, ns in frames)
        x = 0.0
        for i, (frame, ns) in enumerate(
                sorted(frames, key=lambda f: -f[1])):
            w = (ns / total) * width if total else 0
            color = palette[i % len(palette)]
            out.append(
                f'<rect x="{x:.1f}" y="{y}" width="{max(w - 1, 1):.1f}" '
                f'height="{row_h}" fill="{color}"><title>{esc(gname)};'
                f'{esc(frame)}: {ns / 1e6:.2f} ms '
                f'({100 * ns / total:.1f}%)</title></rect>')
            if w > 60:
                out.append(f'<text x="{x + 4:.1f}" y="{y + 15}" '
                           f'fill="#fff">{esc(frame[:int(w / 7)])}</text>')
            x += w
        out.append(f'<text x="0" y="{y - 6}" fill="#444">{esc(gname)} '
                   f'({total / 1e6:.1f} ms)</text>')
        y += row_h + gap + 18
    out.append("</svg>")
    return "".join(out)


def hw_table(profile):
    phases = profile.get("hw_counters", [])
    if not phases:
        return "<p>No hardware-counter samples.</p>"
    keys = sorted({k for ph in phases for k in ph
                   if k not in ("phase", "source")})
    out = ["<table><tr><th>phase</th><th>source</th>"
           + "".join(f"<th>{esc(k)}</th>" for k in keys) + "</tr>"]
    for ph in phases:
        out.append(
            f"<tr><td>{esc(ph.get('phase', '?'))}</td>"
            f"<td>{esc(ph.get('source', '?'))}</td>"
            + "".join(f"<td>{fmt_count(ph[k]) if isinstance(ph.get(k), (int, float)) else esc(ph.get(k, '-'))}</td>"
                      for k in keys) + "</tr>")
    out.append("</table>")
    return "\n".join(out)


def arena_table(profile):
    arenas = profile.get("arenas", {})
    if not arenas:
        return "<p>No arena samples.</p>"
    out = ["<table><tr><th>arena</th><th>bytes (peak)</th></tr>"]
    for name, size in sorted(arenas.items()):
        out.append(f"<tr><td>{esc(name)}</td>"
                   f"<td>{fmt_count(size)}B</td></tr>")
    out.append("</table>")
    return "\n".join(out)


PAGE = """<!DOCTYPE html>
<html lang="en"><head><meta charset="utf-8">
<title>LPA profile — {name}</title>
<style>
 body {{ font-family: sans-serif; margin: 2em auto; max-width: 980px;
         color: #222; }}
 h1 {{ border-bottom: 2px solid #e6550d; padding-bottom: 0.2em; }}
 table {{ border-collapse: collapse; font-size: 13px; }}
 th, td {{ border: 1px solid #ccc; padding: 3px 8px; text-align: left; }}
 th {{ background: #f4f4f4; }}
 code {{ font-size: 12px; }}
 .meta {{ color: #777; font-size: 13px; }}
</style></head><body>
<h1>Cost-attribution profile — {name}</h1>
<p class="meta">{schema} · git {git} · seed <code>{seed}</code> ·
generated {now} · Bahrami et al., DATE 2022 reproduction</p>
<h2>Top-{topk} nets by scheduled events</h2>
{topk_table}
<h2>Lane occupancy (batch engine)</h2>
{occupancy}
<h2>Queue-depth timeline</h2>
{timeline}
<h2>Wall time</h2>
{flame}
<h2>Hardware counters</h2>
{hw}
<h2>Arenas</h2>
{arenas}
</body></html>
"""


def render(report):
    profile = report["profile"]
    now = datetime.datetime.now(datetime.timezone.utc)
    return PAGE.format(
        name=esc(report.get("name", "?")),
        schema=esc(profile.get("schema", "?")),
        git=esc(report.get("git", "-")),
        seed=esc(report.get("seed", "-")),
        now=now.strftime("%Y-%m-%d %H:%M:%SZ"),
        topk=esc(profile.get("nets", {}).get("top_k", "?")),
        topk_table=topk_table(profile),
        occupancy=occupancy_chart(profile),
        timeline=timeline_chart(profile.get("queue_depth_timeline", {})),
        flame=flamegraph(flame_stacks(report)),
        hw=hw_table(profile),
        arenas=arena_table(profile),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="run-report JSON written with --profile")
    ap.add_argument("--out", default="profile.html",
                    help="output HTML path (default: profile.html)")
    ap.add_argument("--collapsed", default=None, metavar="PATH",
                    help="also write collapsed-stack text (flamegraph.pl "
                         "input: 'frame;frame value' per line)")
    args = ap.parse_args()

    try:
        with open(args.report) as f:
            report = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"error: {args.report}: {e}")

    errors = validate_profile(report)
    if errors:
        for e in errors:
            print(f"error: {e}", file=sys.stderr)
        sys.exit(1)

    with open(args.out, "w") as f:
        f.write(render(report))
    print(f"profile report: {args.out}")

    if args.collapsed:
        stacks = flame_stacks(report)
        with open(args.collapsed, "w") as f:
            for stack, ns in stacks:
                f.write(f"{stack} {ns}\n")
        print(f"collapsed stacks: {args.collapsed} ({len(stacks)} rows)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
