"""The ``repro runs`` subcommand: inspect the persistent run store.

Five verbs over :class:`~repro.obs.store.RunStore`:

* ``list``    — one line per recorded run (id, kind, name, age, wall
  time, outcome);
* ``show``    — the full record of one run: counters, resolution
  tallies, the phase tree, latency percentiles and event counts
  (``--json`` for the raw payload);
* ``diff``    — metric deltas between two runs;
* ``regress`` — compare a run against a baseline under noise
  thresholds; exits ``1`` when a regression is detected, which makes
  it usable as a CI gate;
* ``recover`` — crash recovery: truncate a torn final record and list
  the interrupted runs ``repro eco --resume`` can continue.

Run references accept ``last`` / ``first``, negative indexes (``-2`` =
second newest) and unique run-id prefixes.  This module is on the
``RI006`` print allowlist — it *is* CLI surface, driven from
:mod:`repro.cli`.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List

from repro.obs.store import (
    MetricDelta,
    RegressionThresholds,
    RunRecord,
    RunStore,
    check_regressions,
    diff_records,
)


# ----------------------------------------------------------------------
# rendering helpers
# ----------------------------------------------------------------------
def _age(entry_started: float, now_s: float) -> str:
    delta = max(0.0, now_s - entry_started)
    if delta < 120:
        return f"{delta:.0f}s ago"
    if delta < 7200:
        return f"{delta / 60:.0f}m ago"
    if delta < 172800:
        return f"{delta / 3600:.1f}h ago"
    return f"{delta / 86400:.1f}d ago"


def _format_list(entries: List[Dict[str, Any]], now_s: float) -> str:
    lines = [f"{'run id':<24} {'kind':<10} {'name':<18} {'age':>9} "
             f"{'wall':>9} outcome"]
    for e in entries:
        outcome = str(e.get("outcome", "?"))
        if e.get("degraded"):
            outcome += " (degraded)"
        lines.append(
            f"{str(e.get('run_id', '?')):<24} "
            f"{str(e.get('kind', '?')):<10} "
            f"{str(e.get('name', '?')):<18} "
            f"{_age(float(e.get('started_at', 0.0)), now_s):>9} "
            f"{float(e.get('wall_seconds', 0.0)):>8.3f}s {outcome}")
    return "\n".join(lines)


def _fmt_latency(value: float) -> str:
    if value >= 1.0:
        return f"{value:.2f}s"
    return f"{value * 1000:.1f}ms"


def _format_show(record: RunRecord) -> str:
    lines = [
        f"run      : {record.run_id}",
        f"kind     : {record.kind}",
        f"name     : {record.name}",
        f"git sha  : {record.git_sha or '?'}",
        f"wall     : {record.wall_seconds:.3f}s",
        f"outcome  : {record.outcome}"
        + (f" (degraded: {record.degrade_reason})" if record.degraded
           else ""),
        f"strict   : {record.strict}",
    ]
    nonzero = {k: v for k, v in sorted(record.counters.items()) if v}
    if nonzero:
        lines.append("counters : " + ", ".join(
            f"{k}={v}" for k, v in nonzero.items()))
    if record.resolution:
        lines.append("resolved : " + ", ".join(
            f"{k}={v}" for k, v in sorted(record.resolution.items())))
    screens = record.counters.get("lint_screens", 0)
    if screens:
        rejects = record.counters.get("lint_rejects", 0)
        lines.append(f"lint     : {screens} screens, {rejects} rejects "
                     f"({100.0 * rejects / screens:.0f}%)")
    if record.phases:
        lines.append(f"{'phase':<42} {'calls':>6} {'time':>9} "
                     f"{'sat-conf':>9} {'bdd-nodes':>10}")
        for row in record.phases:
            depth = row["phase"].count("/")
            name = "  " * depth + row["phase"].rsplit("/", 1)[-1]
            lines.append(
                f"{name:<42} {row['calls']:>6} {row['seconds']:>8.3f}s "
                f"{row['sat_conflicts']:>9} {row['bdd_nodes']:>10}")
    populated = {name: snap for name, snap
                 in sorted(record.histograms.items())
                 if snap.get("count")}
    if populated:
        lines.append(f"{'histogram':<32} {'n':>6} {'p50':>10} "
                     f"{'p95':>10} {'p99':>10}")
        for name, snap in populated.items():
            unit = (_fmt_latency if name.endswith("_seconds")
                    else lambda v: f"{v:g}")
            lines.append(
                f"{name:<32} {snap['count']:>6} "
                f"{unit(float(snap.get('p50', 0))):>10} "
                f"{unit(float(snap.get('p95', 0))):>10} "
                f"{unit(float(snap.get('p99', 0))):>10}")
    if record.events:
        lines.append("events   : " + ", ".join(
            f"{k}={v}" for k, v in sorted(record.events.items())))
    return "\n".join(lines)


def _format_diff(baseline: RunRecord, current: RunRecord,
                 deltas: List[MetricDelta]) -> str:
    lines = [f"diff: {baseline.run_id} (baseline) -> {current.run_id}",
             f"{'metric':<32} {'baseline':>12} {'current':>12} "
             f"{'delta':>12} {'%':>8}"]
    for d in deltas:
        pct = f"{d.pct:+.1f}%" if d.pct is not None else "-"
        lines.append(f"{d.metric:<32} {d.baseline:>12.3f} "
                     f"{d.current:>12.3f} {d.delta:>+12.3f} {pct:>8}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# verbs
# ----------------------------------------------------------------------
def _cmd_list(store: RunStore, args: argparse.Namespace) -> int:
    entries = store.list()
    if args.limit:
        entries = entries[-args.limit:]
    if args.json:
        print(json.dumps(entries, indent=2, sort_keys=True))
        return 0
    if not entries:
        print(f"no runs recorded (store: {store.root})")
        return 0
    from repro.runtime.clock import now
    print(_format_list(entries, now()))
    if store.skipped:
        print(f"warning: skipped {store.skipped} unparsable record "
              "line(s)")
    return 0


def _cmd_show(store: RunStore, args: argparse.Namespace) -> int:
    record = store.resolve(args.ref)
    if args.json:
        print(json.dumps(record.to_json(), indent=2, sort_keys=True))
    else:
        print(_format_show(record))
    return 0


def _cmd_diff(store: RunStore, args: argparse.Namespace) -> int:
    baseline = store.resolve(args.baseline_ref)
    current = store.resolve(args.current_ref)
    deltas = diff_records(baseline, current)
    if args.json:
        print(json.dumps([{
            "metric": d.metric, "baseline": d.baseline,
            "current": d.current, "delta": d.delta, "pct": d.pct,
        } for d in deltas], indent=2, sort_keys=True))
    else:
        print(_format_diff(baseline, current, deltas))
    return 0


def _cmd_regress(store: RunStore, args: argparse.Namespace) -> int:
    baseline = store.resolve(args.baseline)
    current = store.resolve(args.ref)
    thresholds = RegressionThresholds(
        wall_pct=args.wall_pct, wall_floor_s=args.wall_floor,
        sat_pct=args.sat_pct, sat_floor=args.sat_floor,
        bdd_pct=args.bdd_pct, bdd_floor=args.bdd_floor,
        p95_pct=args.p95_pct, p95_floor_s=args.p95_floor)
    regressions = check_regressions(baseline, current, thresholds)
    if args.json:
        print(json.dumps({
            "baseline": baseline.run_id,
            "current": current.run_id,
            "regressions": [{
                "metric": r.metric, "baseline": r.baseline,
                "current": r.current, "message": r.message,
            } for r in regressions],
        }, indent=2, sort_keys=True))
        return 1 if regressions else 0
    print(f"regression check: {current.run_id} vs baseline "
          f"{baseline.run_id}")
    if not regressions:
        print("PASS: no regression beyond noise thresholds")
        return 0
    for r in regressions:
        print(f"REGRESSION [{r.metric}]: {r.message}")
    print(f"FAIL: {len(regressions)} regression(s) detected")
    return 1


def _cmd_recover(store: RunStore, args: argparse.Namespace) -> int:
    report = store.recover()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(f"store    : {store.root}")
    print(f"records  : {report['records']} intact"
          + (f", {report['skipped_lines']} unparsable line(s) skipped"
             if report["skipped_lines"] else ""))
    if report["salvaged_fragment"] is not None:
        print(f"salvaged : dropped torn trailing record "
              f"({len(report['salvaged_fragment'])} bytes)")
    resumable = report["resumable"]
    if not resumable:
        print("resumable: none")
        return 0
    print(f"resumable: {len(resumable)} interrupted run(s)")
    for entry in resumable:
        salvaged = " [journal salvaged]" if entry["salvaged"] else ""
        print(f"  {entry['run_id']}  {entry['impl'] or '?':<18} "
              f"{entry['commits']} commit(s){salvaged}")
        print(f"    resume with: repro eco --resume {entry['run_id']} ...")
    return 0


# ----------------------------------------------------------------------
# argparse surface
# ----------------------------------------------------------------------
def add_runs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--store", metavar="DIR", default=None,
        help="run-store directory (default: $REPRO_RUN_STORE or "
             ".repro/runs)")
    sub = parser.add_subparsers(dest="runs_command", required=True)

    p = sub.add_parser("list", help="list recorded runs")
    p.add_argument("--limit", type=int, default=0, metavar="N",
                   help="show only the N most recent runs")
    p.add_argument("--json", action="store_true",
                   help="machine-readable list entries")
    p.set_defaults(runs_func=_cmd_list)

    p = sub.add_parser("show", help="show one run record")
    p.add_argument("ref", help="run ref: id prefix, 'last', 'first', "
                               "or a negative index")
    p.add_argument("--json", action="store_true",
                   help="dump the raw record")
    p.set_defaults(runs_func=_cmd_show)

    p = sub.add_parser("diff", help="metric deltas between two runs")
    p.add_argument("baseline_ref", help="baseline run ref")
    p.add_argument("current_ref", help="current run ref")
    p.add_argument("--json", action="store_true")
    p.set_defaults(runs_func=_cmd_diff)

    p = sub.add_parser(
        "regress",
        help="check a run against a baseline; exit 1 on regression")
    p.add_argument("ref", nargs="?", default="last",
                   help="run to check (default: last)")
    p.add_argument("--baseline", required=True, metavar="REF",
                   help="baseline run ref")
    p.add_argument("--wall-pct", type=float, default=25.0,
                   help="wall-time noise threshold in percent")
    p.add_argument("--wall-floor", type=float, default=0.1,
                   metavar="SECONDS",
                   help="absolute wall-time noise floor")
    p.add_argument("--sat-pct", type=float, default=10.0,
                   help="SAT-conflict noise threshold in percent")
    p.add_argument("--sat-floor", type=int, default=50,
                   help="absolute SAT-conflict noise floor")
    p.add_argument("--bdd-pct", type=float, default=10.0,
                   help="BDD-node noise threshold in percent")
    p.add_argument("--bdd-floor", type=int, default=1000,
                   help="absolute BDD-node noise floor")
    p.add_argument("--p95-pct", type=float, default=50.0,
                   help="latency-histogram p95 noise threshold in "
                        "percent")
    p.add_argument("--p95-floor", type=float, default=0.05,
                   metavar="SECONDS",
                   help="absolute p95 latency noise floor")
    p.add_argument("--json", action="store_true")
    p.set_defaults(runs_func=_cmd_regress)

    p = sub.add_parser(
        "recover",
        help="salvage the store after a crash and list resumable runs")
    p.add_argument("--json", action="store_true",
                   help="machine-readable recovery report")
    p.set_defaults(runs_func=_cmd_recover)


def run_runs(args: argparse.Namespace) -> int:
    """Entry point delegated to by ``repro runs``."""
    store = RunStore(args.store)
    return args.runs_func(store, args)
