"""``repro watch``: a live TTY dashboard over runs (pure ANSI).

Two sources, one renderer:

* **Record mode** (default) — ``repro watch [REF]`` loads a run-store
  record (``last`` when omitted) and renders its phase tree, the
  per-output resolution progress, counter sparklines from the
  persisted ``obs.sample`` timeline, and per-phase latency percentiles
  from the stored histogram snapshots.
* **Live mode** — ``repro watch --url http://127.0.0.1:PORT`` polls
  the ``/healthz`` and ``/metrics`` endpoints of a running ``repro eco
  --serve-metrics`` process, parses the payload with the strict
  conformance parser (:func:`~repro.obs.metrics
  .parse_prometheus_text`) and renders the current phase stack,
  progress counter, live counter sparklines (history accumulated
  client side, scrape by scrape) and histogram percentiles, refreshing
  in place until the endpoint goes away (run finished) or Ctrl-C.

No dependencies beyond the standard library and no curses — a frame is
plain text plus an ANSI home-and-clear prefix, so it renders anywhere
a terminal does (``--once`` prints a single frame without ANSI for
scripts and tests).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.obs.metrics import histogram_percentiles, parse_prometheus_text
from repro.obs.store import RunRecord, RunStore

#: eight-level bar characters, lowest to highest
SPARK_CHARS = "▁▂▃▄▅▆▇█"

#: ANSI: clear screen, cursor home
CLEAR = "\x1b[2J\x1b[H"

#: sample-timeline counters worth a sparkline, in display order
SPARK_KEYS = ("sat_conflicts_spent", "bdd_nodes", "sat_validations",
              "plan_evals", "mem_peak_kib")


# ----------------------------------------------------------------------
# pure renderers (unit-testable, no I/O)
# ----------------------------------------------------------------------
def sparkline(values: Sequence[float], width: int = 40) -> str:
    """``values`` as a fixed-width bar string (empty input -> '')."""
    points = [float(v) for v in values]
    if not points:
        return ""
    if len(points) > width:
        step = len(points) / width
        points = [points[int(i * step)] for i in range(width)]
    lo, hi = min(points), max(points)
    if hi <= lo:
        return SPARK_CHARS[0] * len(points)
    span = hi - lo
    return "".join(
        SPARK_CHARS[min(len(SPARK_CHARS) - 1,
                        int((v - lo) / span * len(SPARK_CHARS)))]
        for v in points)


def progress_bar(done: int, total: int, width: int = 24) -> str:
    if total <= 0:
        return "[" + " " * width + "]"
    filled = int(width * min(1.0, done / total))
    return ("[" + "#" * filled + "-" * (width - filled)
            + f"] {done}/{total}")


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def render_phase_rows(phases: Iterable[Dict[str, Any]],
                      limit: int = 14) -> List[str]:
    """Stored per-phase rows as an indented tree with time/call/SAT."""
    rows = list(phases)
    total = max((r.get("seconds", 0.0) for r in rows), default=0.0)
    lines = []
    for row in rows[:limit]:
        path = str(row.get("phase", "?"))
        depth = path.count("/")
        name = path.rsplit("/", 1)[-1]
        seconds = float(row.get("seconds", 0.0))
        pct = (100.0 * seconds / total) if total else 0.0
        lines.append(
            f"  {'  ' * depth}{name:<24.24} "
            f"{_fmt_seconds(seconds):>9}  {pct:5.1f}%  "
            f"x{row.get('calls', 0):<5} "
            f"sat={row.get('sat_conflicts', 0)}")
    if len(rows) > limit:
        lines.append(f"  ... {len(rows) - limit} more phases")
    return lines


def render_sample_sparks(samples: Sequence[Dict[str, Any]],
                        keys: Sequence[str] = SPARK_KEYS) -> List[str]:
    lines = []
    for key in keys:
        series = [s.get(key, 0) for s in samples if isinstance(
            s.get(key, 0), (int, float))]
        if samples and any(series):
            lines.append(f"  {key:<22.22} {sparkline(series)} "
                         f"{series[-1]:g}")
    return lines


def render_histograms(histograms: Dict[str, Dict[str, Any]]) -> List[str]:
    """Stored histogram snapshots as a percentile table."""
    lines = []
    for family in sorted(histograms):
        snap = histograms[family]
        count = snap.get("count", 0)
        if not count:
            continue
        unit = (_fmt_seconds if family.endswith("_seconds")
                else lambda v: f"{v:g}")
        lines.append(
            f"  {family:<30.30} n={count:<6} "
            f"p50={unit(float(snap.get('p50', 0)))} "
            f"p95={unit(float(snap.get('p95', 0)))} "
            f"p99={unit(float(snap.get('p99', 0)))}")
    return lines


def render_record(record: RunRecord) -> str:
    """One full dashboard frame for a persisted run record."""
    out = [f"run {record.run_id}  [{record.kind}] {record.name}  "
           f"outcome={record.outcome}"
           + ("  DEGRADED" if record.degraded else ""),
           f"wall {record.wall_seconds:.3f}s  git {record.git_sha or '?'}"]
    total_outputs = sum(record.resolution.values())
    if total_outputs:
        fixed = sum(n for how, n in record.resolution.items()
                    if how != "unresolved")
        out.append("outputs  " + progress_bar(fixed, total_outputs)
                   + "   " + ", ".join(
                       f"{how}:{n}" for how, n
                       in sorted(record.resolution.items())))
    if record.phases:
        out.append("")
        out.append("phases:")
        out.extend(render_phase_rows(record.phases))
    sparks = render_sample_sparks(record.samples)
    if sparks:
        out.append("")
        out.append(f"timeline ({len(record.samples)} samples):")
        out.extend(sparks)
    hists = render_histograms(record.histograms)
    if hists:
        out.append("")
        out.append("latency percentiles:")
        out.extend(hists)
    return "\n".join(out) + "\n"


def render_live(health: Dict[str, Any],
                families: Dict[str, Dict[str, Any]],
                history: Dict[str, List[float]]) -> str:
    """One dashboard frame from a live scrape.

    ``families`` is the parsed ``/metrics`` payload; ``history`` holds
    the per-counter series accumulated across previous scrapes.
    """
    status = health.get("status", "?")
    out = [f"run {health.get('run', '?')}  status={status}  "
           f"progress={health.get('progress', '?')}"]
    phase = health.get("phase") or []
    out.append("phase    " + (" > ".join(phase) if phase else "(idle)"))
    if health.get("stalled"):
        out.append("*** STALLED: no span progress within the window ***")

    counter_family = families.get("repro_counter_total")
    if counter_family:
        out.append("")
        out.append("counters:")
        for _, labels, value in counter_family["samples"]:
            key = labels.get("counter", "?")
            series = history.setdefault(key, [])
            if not series or series[-1] != value:
                series.append(value)
            out.append(f"  {key:<22.22} {sparkline(series)} {value:g}")

    hist_lines = []
    for family_name in sorted(families):
        family = families[family_name]
        if family["type"] != "histogram":
            continue
        for labels_key, pcts in sorted(
                histogram_percentiles(family).items()):
            if not pcts.get("count"):
                continue
            unit = (_fmt_seconds if family_name.endswith("_seconds")
                    else lambda v: f"{v:g}")
            label = family_name + (
                "{%s}" % ",".join(f"{k}={v}" for k, v in labels_key)
                if labels_key else "")
            hist_lines.append(
                f"  {label:<30.30} n={int(pcts['count']):<6} "
                f"p50={unit(pcts['p50'])} p95={unit(pcts['p95'])} "
                f"p99={unit(pcts['p99'])}")
    if hist_lines:
        out.append("")
        out.append("latency percentiles:")
        out.extend(hist_lines)
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# live scraping
# ----------------------------------------------------------------------
def scrape(url: str, timeout: float = 2.0
           ) -> Tuple[Dict[str, Any], Dict[str, Dict[str, Any]]]:
    """Fetch and parse ``/healthz`` + ``/metrics`` from ``url``."""
    base = url.rstrip("/")
    with urllib.request.urlopen(base + "/healthz",
                                timeout=timeout) as resp:
        health = json.loads(resp.read().decode("utf-8"))
    with urllib.request.urlopen(base + "/metrics",
                                timeout=timeout) as resp:
        families = parse_prometheus_text(resp.read().decode("utf-8"))
    return health, families


def _watch_live(args: argparse.Namespace) -> int:
    history: Dict[str, List[float]] = {}
    use_ansi = sys.stdout.isatty() and not args.once
    while True:
        try:
            health, families = scrape(args.url)
        except (urllib.error.URLError, OSError, ValueError) as exc:
            if not history:
                print(f"error: cannot scrape {args.url}: {exc}",
                      file=sys.stderr)
                return 3
            print("endpoint gone (run finished?); exiting")
            return 0
        frame = render_live(health, families, history)
        if use_ansi:
            sys.stdout.write(CLEAR + frame)
            sys.stdout.flush()
        else:
            print(frame, end="")
        if args.once:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def _watch_record(args: argparse.Namespace) -> int:
    store = RunStore(args.store)
    record = store.resolve(args.ref)
    print(render_record(record), end="")
    return 0


# ----------------------------------------------------------------------
# CLI plumbing
# ----------------------------------------------------------------------
def add_watch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "ref", nargs="?", default="last",
        help="run-store record to render (default: last); ignored "
             "with --url")
    parser.add_argument(
        "--url", metavar="URL", default=None,
        help="live mode: poll the /metrics + /healthz endpoint of a "
             "running 'repro eco --serve-metrics' process")
    parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval in live mode (default: 1.0)")
    parser.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no ANSI clearing)")
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="run-store directory (default: $REPRO_RUN_STORE or "
             ".repro/runs)")


def run_watch(args: argparse.Namespace) -> int:
    if args.url:
        return _watch_live(args)
    return _watch_record(args)
