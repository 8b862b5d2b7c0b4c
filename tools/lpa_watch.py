#!/usr/bin/env python3
"""Terminal watcher for a live run's telemetry server (DESIGN.md §15).

Stdlib-only. Polls a bench started with `--listen` and renders one compact
status block per refresh: the /status heartbeat (phase, progress bar, rate,
ETA, stop reason, resume lineage), a curated selection of /metrics counters,
and the newest /events journal lines.

The Prometheus parser/validator here is also the CI contract: the CI
obs-smoke job and the `telemetry_tools_selftest` tier-1 test feed /metrics
documents through validate_exposition(), so a formatting regression in
src/obs/exposition.cpp fails fast instead of silently breaking scrapers.

Usage:
  tools/lpa_watch.py --url http://127.0.0.1:9187 [--interval 2] [--once]

This is the repository's one live viewer. It recognises heartbeat schema
lpa-heartbeat/2 (the only version the runs write; anything else renders
with a warning) and journal schema lpa-event-journal/1.
"""

import argparse
import json
import sys
import time
import urllib.error
import urllib.request

HEARTBEAT_SCHEMA = "lpa-heartbeat/2"
JOURNAL_SCHEMA = "lpa-event-journal/1"


# ---------------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4) parsing + validation.

def parse_prometheus(text):
    """Parses a text exposition document.

    Returns (samples, types): `samples` maps a sample name (including any
    `{label="..."}` suffix, verbatim) to its float value; `types` maps a
    family name to its declared TYPE. Raises ValueError on a malformed line.
    """
    samples = {}
    types = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] == "TYPE":
                if len(parts) != 4:
                    raise ValueError(f"line {ln}: malformed TYPE comment")
                types[parts[2]] = parts[3]
            continue  # other comments (HELP, free-form) are legal
        # Sample line: name[{labels}] value
        left, _, value = line.rpartition(" ")
        if not left:
            raise ValueError(f"line {ln}: expected '<name> <value>'")
        try:
            num = float(value)
        except ValueError:
            raise ValueError(f"line {ln}: bad sample value {value!r}")
        samples[left] = num
    return samples, types


def _name_valid(name):
    if not name:
        return False
    first = name[0]
    if not (first.isalpha() or first in "_:"):
        return False
    return all(c.isalnum() or c in "_:" for c in name)


def validate_exposition(text):
    """Returns a list of violations ("" problems) for a /metrics document.

    Checks the subset of the exposition format the repo relies on (the
    registry renders counters and gauges only): every family is declared
    as a counter or a gauge under a valid name, every sample has a valid
    name and a TYPE declaration, and no value is NaN. An empty list means
    the document parses and holds the contract.
    """
    problems = []
    try:
        samples, types = parse_prometheus(text)
    except ValueError as e:
        return [str(e)]
    if not samples:
        problems.append("document has no samples")

    for declared, kind in types.items():
        if kind not in ("counter", "gauge"):
            problems.append(f"{declared}: unknown TYPE {kind!r}")
        if not _name_valid(declared):
            problems.append(f"{declared}: invalid family name")

    for sample, value in samples.items():
        bare = sample.split("{", 1)[0]
        if not _name_valid(bare):
            problems.append(f"{sample}: invalid sample name")
        if value != value:  # NaN
            problems.append(f"{sample}: NaN value")
        if bare not in types:
            problems.append(f"{sample}: no TYPE declaration")
    return problems


# ---------------------------------------------------------------------------
# Fetch + render.

def fetch(url, timeout=5.0):
    """GET `url`, returning (status_code, body_text); (0, "") on no-connect."""
    try:
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return resp.status, resp.read().decode("utf-8", "replace")
    except urllib.error.HTTPError as e:
        return e.code, e.read().decode("utf-8", "replace")
    except (urllib.error.URLError, OSError):
        return 0, ""


def progress_bar(done, total, width=32):
    if not total:
        return "[" + "?" * width + "]"
    filled = min(width, int(width * done / total))
    return "[" + "#" * filled + "-" * (width - filled) + "]"


def fmt_eta(eta):
    if eta is None or eta < 0:
        return "--:--"
    eta = int(eta)
    return f"{eta // 60:02d}:{eta % 60:02d}"


def render_status(hb):
    """Renders a heartbeat dict as terminal lines."""
    lines = []
    schema = hb.get("schema", "?")
    if schema != HEARTBEAT_SCHEMA:
        lines.append(f"  (unrecognized heartbeat schema {schema!r})")
    status = hb.get("status", "?")
    done = hb.get("done", 0) or 0
    total = hb.get("total", 0) or 0
    pct = 100.0 * done / total if total else 0.0
    lines.append(f"  run     {hb.get('name', '?')}  pid {hb.get('pid', '?')}"
                 f"  status {status}  phase {hb.get('phase', '?')}")
    lines.append(f"  {progress_bar(done, total)} {done}/{total} ({pct:.1f}%)"
                 f"  {hb.get('rate_per_sec', 0.0):.1f}/s"
                 f"  eta {fmt_eta(hb.get('eta_sec'))}"
                 f"  elapsed {hb.get('elapsed_sec', 0.0):.1f}s")
    if hb.get("stop_reason") and status != "running":
        lines.append(f"  stop    {hb['stop_reason']}")
    if hb.get("lineage_id"):
        lines.append(f"  lineage {hb['lineage_id']}")
    return lines


def render_metrics(samples, limit=8):
    """Picks the most informative counters/gauges for the terminal block."""
    # Prefer acquisition/jobs families: they narrate run progress.
    interesting = sorted(samples.items(), key=lambda kv: (
        not kv[0].startswith(("lpa_acquire", "lpa_jobs", "lpa_sim")), kv[0]))
    lines = []
    for name, value in interesting[:limit]:
        rendered = f"{value:.6g}" if value != int(value) else str(int(value))
        lines.append(f"  {name:<44} {rendered}")
    return lines


def render_events(jsonl, limit=6):
    lines = []
    for raw in jsonl.splitlines()[-limit:]:
        try:
            ev = json.loads(raw)
        except json.JSONDecodeError:
            continue
        if ev.get("schema") != JOURNAL_SCHEMA:
            continue
        fields = ev.get("fields", {})
        detail = " ".join(f"{k}={v}" for k, v in fields.items())
        lines.append(f"  [{ev.get('t_mono_sec', 0.0):9.3f}s]"
                     f" {ev.get('level', '?'):5}"
                     f" {ev.get('kind', '?'):<20} {detail}")
    return lines


def render_once(base, out=sys.stdout):
    """One full poll+render cycle; returns False once the run is gone."""
    code, health = fetch(base + "/healthz")
    if code == 0:
        print(f"{base}: no telemetry server (connection refused)", file=out)
        return False
    print(f"== {base}  {time.strftime('%H:%M:%S')} ==", file=out)

    code, status = fetch(base + "/status")
    if code == 200:
        try:
            for line in render_status(json.loads(status)):
                print(line, file=out)
        except json.JSONDecodeError:
            print("  /status: malformed JSON", file=out)
    else:
        print("  /status: no heartbeat yet", file=out)

    code, metrics = fetch(base + "/metrics")
    if code == 200:
        problems = validate_exposition(metrics)
        if problems:
            print(f"  /metrics: INVALID exposition: {problems[0]}", file=out)
        else:
            samples, _ = parse_prometheus(metrics)
            for line in render_metrics(samples):
                print(line, file=out)

    code, events = fetch(base + "/events?n=16")
    if code == 200 and events.strip():
        print("  -- events --", file=out)
        for line in render_events(events):
            print(line, file=out)
    print("", file=out)
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--url", required=True,
                    help="telemetry base URL, e.g. http://127.0.0.1:9187")
    ap.add_argument("--interval", type=float, default=2.0,
                    help="poll interval in seconds (default: 2)")
    ap.add_argument("--once", action="store_true",
                    help="render a single snapshot and exit")
    args = ap.parse_args()
    base = args.url.rstrip("/")

    if args.once:
        return 0 if render_once(base) else 1
    try:
        while render_once(base):
            time.sleep(max(0.1, args.interval))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
