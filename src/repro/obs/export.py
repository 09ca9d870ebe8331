"""Trace exporters and the loader used by ``repro trace``.

Three output formats:

* **JSONL** — one record per line (a ``meta`` header, then spans and
  events in timestamp order); trivially greppable and streamable.
* **Chrome trace-event JSON** — a single object with ``traceEvents``
  (complete ``"X"`` events for spans, instant ``"i"`` events), openable
  directly in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Span ids, tags and counter deltas ride in
  ``args`` so the file round-trips losslessly through
  :func:`read_trace`.
* **Prometheus text** — the run's metrics, each value once: latency
  histograms, per-phase time/call/conflict/node totals, every run
  counter and the run budget's final spend, suitable for a
  textfile-collector scrape.

:func:`read_trace` sniffs the format (JSONL vs. Chrome) and returns
the canonical record list that :mod:`repro.obs.summary` consumes.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Tuple

from repro.obs.atomicio import atomic_write_text
from repro.obs.metrics import Family, LabelPairs, render_prometheus
from repro.obs.summary import summarize


def _records_of(trace_or_records) -> List[Dict[str, Any]]:
    if hasattr(trace_or_records, "records"):
        return trace_or_records.records()
    return list(trace_or_records)


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(trace_or_records, path: str) -> None:
    """One canonical record per line (written atomically)."""
    records = _records_of(trace_or_records)
    lines = [json.dumps(rec, sort_keys=True, default=str)
             for rec in records]
    atomic_write_text(path, "".join(line + "\n" for line in lines))


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------
_PID = 1
_TID = 1


def chrome_payload(trace_or_records) -> Dict[str, Any]:
    """The Chrome trace-event object (before serialization)."""
    records = _records_of(trace_or_records)
    meta: Dict[str, Any] = {}
    events: List[Dict[str, Any]] = []
    for rec in records:
        kind = rec.get("type")
        if kind == "meta":
            meta = {k: v for k, v in rec.items() if k != "type"}
        elif kind == "span":
            events.append({
                "name": rec["name"],
                "cat": "repro",
                "ph": "X",
                "ts": rec["ts"] * 1e6,          # microseconds
                "dur": rec.get("dur", 0.0) * 1e6,
                "pid": _PID,
                "tid": _TID,
                "args": {
                    "id": rec.get("id"),
                    "parent": rec.get("parent"),
                    "tags": rec.get("tags", {}),
                    "counters": rec.get("counters", {}),
                },
            })
        elif kind == "event":
            events.append({
                "name": rec["name"],
                "cat": "repro",
                "ph": "i",
                "s": "t",
                "ts": rec["ts"] * 1e6,
                "pid": _PID,
                "tid": _TID,
                "args": {
                    "span": rec.get("span"),
                    "tags": rec.get("tags", {}),
                },
            })
        else:
            # forward compatibility: a record kind this writer does not
            # know still rides along as a raw instant event and is
            # restored verbatim by read_trace
            events.append({
                "name": str(kind),
                "cat": "repro.raw",
                "ph": "i",
                "s": "t",
                "ts": float(rec.get("ts", 0.0)) * 1e6,
                "pid": _PID,
                "tid": _TID,
                "args": {"record": rec},
            })
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": meta,
    }


def write_chrome(trace_or_records, path: str) -> None:
    """Perfetto / ``chrome://tracing`` compatible JSON (atomic write)."""
    atomic_write_text(
        path, json.dumps(chrome_payload(trace_or_records), default=str))


# ----------------------------------------------------------------------
# Prometheus text snapshot
# ----------------------------------------------------------------------
#: trace-meta keys the engine writes at run end, as the gauge families
#: the exporter renders them to: the run budget's final spend.  On a
#: resumed run they include the dead run's journaled spend, which the
#: ``RunCounters`` of the resuming process do not.
_BUDGET_GAUGES = (
    ("supervised_elapsed_s", "repro_budget_elapsed_seconds",
     "supervised wall time of the run"),
    ("budget_sat_spent", "repro_sat_conflicts_spent",
     "aggregate SAT conflicts charged to the run budget"),
)


def prometheus_text(trace_or_records) -> str:
    """The run's metrics in Prometheus exposition format.

    Every value is derived from one of the run's two stores: latency
    histograms from the live trace's registry (a re-loaded record list
    has none), per-phase time/call/conflict/node totals and the final
    ``RunCounters`` from the trace, and the run budget's final spend
    from the trace meta.  Each value appears once.
    """
    records = _records_of(trace_or_records)
    summary = summarize(records)
    meta = next((r for r in records if r.get("type") == "meta"), {})

    flat: List[Tuple[LabelPairs, Any]] = [
        ((("phase", "/".join(path)),), node)
        for path, node in summary.walk()]

    families: List[Family] = [
        ("repro_run_info", "gauge",
         "constant 1; the run name rides in the label",
         [((("name", summary.name),), 1)]),
        ("repro_phase_seconds_total", "counter",
         "wall seconds spent per phase (children included)",
         [(labels, round(node.seconds, 6)) for labels, node in flat]),
        ("repro_phase_calls_total", "counter",
         "spans recorded per phase",
         [(labels, node.calls) for labels, node in flat]),
        ("repro_phase_sat_conflicts_total", "counter",
         "SAT conflicts attributed per phase",
         [(labels, node.sat_conflicts) for labels, node in flat]),
        ("repro_phase_bdd_nodes_total", "counter",
         "BDD nodes attributed per phase",
         [(labels, node.bdd_nodes) for labels, node in flat]),
        ("repro_run_wall_seconds", "gauge",
         "wall time covered by the trace",
         [((), round(summary.wall_seconds, 6))]),
        ("repro_run_degraded", "gauge",
         "1 when the run degraded to the guaranteed fallback",
         [((), int(summary.degraded))]),
    ]
    if summary.counters:
        families.append((
            "repro_run_counter_total", "counter",
            "final RunCounters values of the run",
            [((("counter", k),), v)
             for k, v in sorted(summary.counters.items())]))
    for key, name, help_ in _BUDGET_GAUGES:
        if meta.get(key) is not None:
            families.append((name, "gauge", help_, [((), meta[key])]))
    return render_prometheus(getattr(trace_or_records, "metrics", None),
                             families)


def write_prometheus(trace_or_records, path: str) -> None:
    atomic_write_text(path, prometheus_text(trace_or_records))


# ----------------------------------------------------------------------
# loading
# ----------------------------------------------------------------------
def read_trace(path: str) -> List[Dict[str, Any]]:
    """Load a saved trace (JSONL or Chrome format) as canonical records."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    if isinstance(payload, dict) and "traceEvents" in payload:
        return _records_from_chrome(payload)
    if isinstance(payload, dict):
        return [payload]  # single-record JSONL file
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line:
            records.append(json.loads(line))
    return records


def _records_from_chrome(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    meta = dict(payload.get("otherData") or {})
    meta["type"] = "meta"
    records: List[Dict[str, Any]] = [meta]
    next_id = 1
    for ev in payload.get("traceEvents", ()):
        args = ev.get("args") or {}
        if ev.get("ph") == "X":
            span_id = args.get("id")
            if span_id is None:
                span_id = f"x{next_id}"
                next_id += 1
            records.append({
                "type": "span",
                "id": span_id,
                "parent": args.get("parent"),
                "name": ev.get("name", "?"),
                "ts": ev.get("ts", 0.0) / 1e6,
                "dur": ev.get("dur", 0.0) / 1e6,
                "tags": args.get("tags", {}),
                "counters": args.get("counters", {}),
            })
        elif ev.get("ph") == "i":
            if ev.get("cat") == "repro.raw" and "record" in args:
                # a record kind unknown to the writer, preserved verbatim
                records.append(args["record"])
                continue
            records.append({
                "type": "event",
                "name": ev.get("name", "?"),
                "ts": ev.get("ts", 0.0) / 1e6,
                "span": args.get("span"),
                "tags": args.get("tags", {}),
            })
    return records
