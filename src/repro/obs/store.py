"""The persistent run store: cross-run history under ``.repro/runs/``.

Every engine, CLI and bench invocation can publish a :class:`RunRecord`
— config, git SHA, final counters, the per-phase span summary, event
counts, latency histograms, degradation state and exit outcome — into
a :class:`RunStore`, whose one file is
``records.jsonl``: append-only, one JSON record per line.  Each publish
is one fsynced in-place append (:mod:`repro.obs.atomicio`), so a killed
run leaves at worst a torn final line, which readers skip and
``recover`` truncates away.  An ``index.json`` or ``.tmp-*`` file left
by an older version is ignored and left in place.

On top of the store sit :func:`diff_records` (field-by-field metric
deltas between two runs) and :func:`check_regressions` (noise-aware
regression detection over wall time, SAT conflicts, BDD nodes and
resolution outcomes) — the machinery behind ``repro runs
list|show|diff|regress``.

The store depends on the standard library only; the wall clock is read
through the sanctioned :func:`repro.runtime.clock.now` seam (imported
lazily to keep ``obs`` at the bottom of the layering).
"""

from __future__ import annotations

import dataclasses
import logging
import os
import subprocess
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ReproError
from repro.obs.atomicio import append_jsonl_line, read_jsonl, salvage_jsonl

logger = logging.getLogger("repro.obs")

RECORD_VERSION = 1

#: default store location, relative to the working directory; the
#: ``REPRO_RUN_STORE`` environment variable overrides it
DEFAULT_STORE_DIR = os.path.join(".repro", "runs")


def resolve_store_root(root: Optional[str] = None) -> str:
    """The run-store directory: ``root``, else ``$REPRO_RUN_STORE``,
    else :data:`DEFAULT_STORE_DIR`.  An empty ``root`` counts as unset,
    so a store and its journals never split across two directories."""
    return root or os.environ.get("REPRO_RUN_STORE") or DEFAULT_STORE_DIR


class RunStoreError(ReproError):
    """A run-store operation failed (unknown ref, ambiguous prefix, ...)."""


# ----------------------------------------------------------------------
# the record
# ----------------------------------------------------------------------
@dataclass
class RunRecord:
    """One run's persisted telemetry.

    Unknown keys found in stored JSON are preserved in ``extra`` and
    written back verbatim — forward compatibility across versions of
    this schema.
    """

    run_id: str
    kind: str                     # "eco" | "bench" | "quickstart" | ...
    name: str                     # design / case label
    started_at: float             # epoch seconds (repro.runtime.clock)
    wall_seconds: float
    outcome: str                  # "ok" | "degraded" | "interrupted" | "failed"
    degraded: bool = False
    degrade_reason: Optional[str] = None
    strict: bool = False
    git_sha: Optional[str] = None
    config: Dict[str, Any] = field(default_factory=dict)
    counters: Dict[str, int] = field(default_factory=dict)
    phases: List[Dict[str, Any]] = field(default_factory=list)
    events: Dict[str, int] = field(default_factory=dict)
    resolution: Dict[str, int] = field(default_factory=dict)
    #: per-family histogram snapshots (count / sum / cumulative buckets
    #: / derived p50-p95-p99) from the run's metrics registry — the
    #: substrate of the tail-latency regression gate
    histograms: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    tags: Dict[str, Any] = field(default_factory=dict)
    version: int = RECORD_VERSION
    extra: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        # a shallow field dict: the payload is only serialized, so the
        # deep copy ``dataclasses.asdict`` makes is not needed
        payload = {f.name: getattr(self, f.name)
                   for f in dataclasses.fields(self)}
        payload.update(payload.pop("extra"))
        return payload

    @classmethod
    def from_json(cls, payload: Dict[str, Any]) -> "RunRecord":
        known = {f.name for f in dataclasses.fields(cls)} - {"extra"}
        kwargs = {k: v for k, v in payload.items() if k in known}
        extra = {k: v for k, v in payload.items() if k not in known}
        kwargs.setdefault("run_id", "?")
        kwargs.setdefault("kind", "?")
        kwargs.setdefault("name", "?")
        kwargs.setdefault("started_at", 0.0)
        kwargs.setdefault("wall_seconds", 0.0)
        kwargs.setdefault("outcome", "?")
        return cls(extra=extra, **kwargs)

    def list_entry(self) -> Dict[str, Any]:
        """The summary ``repro runs list`` shows for this run."""
        return {
            "run_id": self.run_id,
            "kind": self.kind,
            "name": self.name,
            "started_at": self.started_at,
            "wall_seconds": self.wall_seconds,
            "outcome": self.outcome,
            "degraded": self.degraded,
            "git_sha": self.git_sha,
        }


# ----------------------------------------------------------------------
# record construction
# ----------------------------------------------------------------------
_GIT_SHA_CACHE: Dict[str, Optional[str]] = {}


def current_git_sha(cwd: Optional[str] = None) -> Optional[str]:
    """Short SHA of HEAD, or None outside a git checkout."""
    key = cwd or os.getcwd()
    if key not in _GIT_SHA_CACHE:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short=12", "HEAD"],
                cwd=cwd, capture_output=True, text=True, timeout=5)
            sha = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.SubprocessError):
            sha = None
        _GIT_SHA_CACHE[key] = sha or None
    return _GIT_SHA_CACHE[key]


def new_run_id(started_at: float) -> str:
    """Sortable, collision-safe run id: UTC timestamp + random hex."""
    import time as _time
    stamp = _time.strftime("%Y%m%d-%H%M%S", _time.gmtime(started_at))
    return f"{stamp}-{os.urandom(4).hex()}"


def _phase_rows(records: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Flatten the trace summary tree into per-phase rows."""
    from repro.obs.summary import summarize
    return [{
        "phase": "/".join(path),
        "calls": node.calls,
        "seconds": round(node.seconds, 6),
        "sat_conflicts": node.sat_conflicts,
        "bdd_nodes": node.bdd_nodes,
    } for path, node in summarize(records).walk()]


def record_from_result(result, trace=None, kind: str = "eco",
                       name: Optional[str] = None,
                       config: Optional[Any] = None,
                       outcome: Optional[str] = None,
                       tags: Optional[Dict[str, Any]] = None,
                       run_id: Optional[str] = None) -> RunRecord:
    """Build a :class:`RunRecord` from a ``RectificationResult``.

    ``trace`` (when the run was traced) supplies the per-phase summary,
    the event counts and the supervised wall time — the
    supervisor's budget clock observes fault-injected stalls, so the
    recorded wall time is exactly what regression tracking should see.
    ``config`` accepts an ``EcoConfig`` (or any dataclass) or a plain
    dict.  ``run_id`` pins the record to an identity the caller chose
    up front (journaled runs use the journal's id so ``--resume`` and
    the run record agree); omitted, a fresh id is generated.

    A traced run's histogram snapshots are persisted too, so ``repro
    runs diff/regress`` can gate on tail latency.
    """
    from repro.runtime.clock import now  # lazy: obs sits below runtime

    trace = trace if trace is not None else getattr(result, "trace", None)
    records: List[Dict[str, Any]] = []
    meta: Dict[str, Any] = {}
    histograms: Dict[str, Dict[str, Any]] = {}
    if trace is not None and getattr(trace, "enabled", False):
        records = trace.records()
        meta = records[0] if records else {}
        histograms = trace.metrics.histogram_snapshots()

    wall = meta.get("supervised_elapsed_s")
    if wall is None:
        wall = getattr(result, "runtime_seconds", 0.0)

    event_counts: Dict[str, int] = {}
    for rec in records:
        if rec.get("type") == "event":
            evname = str(rec.get("name"))
            event_counts[evname] = event_counts.get(evname, 0) + 1

    if config is not None and dataclasses.is_dataclass(config):
        config_dict = dataclasses.asdict(config)
    else:
        config_dict = dict(config or {})

    counters = result.counters.as_dict()
    per_output = getattr(result, "per_output", {}) or {}
    resolution: Dict[str, int] = {}
    for how in per_output.values():
        resolution[how] = resolution.get(how, 0) + 1

    degraded = bool(getattr(result, "degraded", False))
    if outcome is None:
        outcome = "degraded" if degraded else "ok"

    started_at = now() - float(getattr(result, "runtime_seconds", 0.0))
    return RunRecord(
        run_id=run_id or new_run_id(started_at),
        kind=kind,
        name=name or meta.get("impl") or meta.get("name") or "run",
        started_at=round(started_at, 3),
        wall_seconds=round(float(wall), 6),
        outcome=outcome,
        degraded=degraded,
        degrade_reason=getattr(result, "degrade_reason", None),
        strict=not config_dict.get("degrade_on_budget", True),
        git_sha=current_git_sha(),
        config=config_dict,
        counters=counters,
        phases=_phase_rows(records),
        events=event_counts,
        resolution=resolution,
        histograms=histograms,
        tags=dict(tags or {}),
    )


# ----------------------------------------------------------------------
# the store
# ----------------------------------------------------------------------
class RunStore:
    """Append-only store of run records: ``records.jsonl`` alone."""

    def __init__(self, root: Optional[str] = None):
        self.root = resolve_store_root(root)
        self.records_path = os.path.join(self.root, "records.jsonl")
        #: unparsable record lines skipped by the last load
        self.skipped = 0

    # ------------------------------------------------------------------
    def publish(self, record: RunRecord) -> str:
        """Append ``record`` as one fsynced line; returns the run id.

        Concurrent publishers (several processes sharing one store)
        each land their line whole.
        """
        append_jsonl_line(self.records_path, record.to_json())
        return record.run_id

    def load_all(self) -> List[RunRecord]:
        """Every record, oldest first; corrupt lines are skipped and
        counted in :attr:`skipped`."""
        payloads, self.skipped = read_jsonl(self.records_path)
        return [RunRecord.from_json(p) for p in payloads]

    def list(self) -> List[Dict[str, Any]]:
        """One :meth:`RunRecord.list_entry` per intact record, oldest
        first.  Read-only: a corrupt line is skipped, never rewritten."""
        return [r.list_entry() for r in self.load_all()]

    def resolve(self, ref: str) -> RunRecord:
        """A record by reference.

        ``last`` / ``first`` name the newest / oldest record; a
        negative integer indexes from the end (``-1`` = newest); any
        other string matches a unique ``run_id`` prefix.
        """
        records = self.load_all()
        if not records:
            raise RunStoreError(
                f"run store {self.root!r} is empty (ref {ref!r})")
        if ref in ("last", "latest", "-1"):
            return records[-1]
        if ref in ("first", "oldest"):
            return records[0]
        try:
            index = int(ref)
        except ValueError:
            index = None
        if index is not None and index < 0:
            if -index > len(records):
                raise RunStoreError(
                    f"ref {ref}: store has only {len(records)} run(s)")
            return records[index]
        matches = [r for r in records if r.run_id.startswith(ref)]
        if not matches:
            raise RunStoreError(f"no run matches ref {ref!r}")
        if len(matches) > 1:
            ids = ", ".join(r.run_id for r in matches[:4])
            raise RunStoreError(
                f"ref {ref!r} is ambiguous ({len(matches)} matches: "
                f"{ids}{', ...' if len(matches) > 4 else ''})")
        return matches[0]

    # ------------------------------------------------------------------
    def recover(self) -> Dict[str, Any]:
        """Crash recovery of the store directory.

        Truncates a torn final line a writer killed mid-publish left in
        ``records.jsonl`` and lists the checkpoint journals of runs
        that never finished (the ones ``repro eco --resume`` can
        continue).  Safe to run any time — a healthy store passes
        through untouched.
        """
        # lazy: checkpoint sits above obs in the layering
        from repro.eco.checkpoint import list_resumable

        fragment = salvage_jsonl(self.records_path)
        if fragment is not None:
            logger.warning(
                "run store %s: dropped torn trailing record "
                "(%d bytes)", self.records_path, len(fragment))
        records = self.load_all()
        return {
            "records": len(records),
            "skipped_lines": self.skipped,
            "salvaged_fragment": fragment,
            "resumable": list_resumable(self.root),
        }


# ----------------------------------------------------------------------
# diffing and regression tracking
# ----------------------------------------------------------------------
@dataclass
class MetricDelta:
    """One compared metric between a baseline and a current run."""

    metric: str
    baseline: float
    current: float

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    @property
    def pct(self) -> Optional[float]:
        if self.baseline == 0:
            return None
        return 100.0 * self.delta / self.baseline


def diff_records(baseline: RunRecord,
                 current: RunRecord) -> List[MetricDelta]:
    """Field-by-field metric deltas (wall time, every counter, and the
    p95 of every histogram family present in both records)."""
    deltas = [MetricDelta("wall_seconds", baseline.wall_seconds,
                          current.wall_seconds)]
    keys = sorted(set(baseline.counters) | set(current.counters))
    for key in keys:
        base = baseline.counters.get(key, 0)
        cur = current.counters.get(key, 0)
        if base or cur:
            deltas.append(MetricDelta(f"counters.{key}", base, cur))
    for family in sorted(set(baseline.histograms)
                         & set(current.histograms)):
        base = float(baseline.histograms[family].get("p95", 0.0))
        cur = float(current.histograms[family].get("p95", 0.0))
        if base or cur:
            deltas.append(
                MetricDelta(f"histograms.{family}.p95", base, cur))
    return deltas


@dataclass
class RegressionThresholds:
    """Noise thresholds: a metric regresses only when it exceeds the
    baseline by *both* the relative and the absolute floor."""

    wall_pct: float = 25.0
    wall_floor_s: float = 0.1
    sat_pct: float = 10.0
    sat_floor: int = 50
    bdd_pct: float = 10.0
    bdd_floor: int = 1000
    #: tail-latency gate over persisted histogram p95s (``*_seconds``
    #: families present in both records)
    p95_pct: float = 50.0
    p95_floor_s: float = 0.05


@dataclass
class Regression:
    """One detected regression against the baseline."""

    metric: str
    baseline: float
    current: float
    message: str


def _exceeds(base: float, cur: float, pct: float, floor: float) -> bool:
    return (cur - base) > floor and cur > base * (1.0 + pct / 100.0)


def check_regressions(
        baseline: RunRecord, current: RunRecord,
        thresholds: Optional[RegressionThresholds] = None
) -> List[Regression]:
    """Regressions of ``current`` vs. ``baseline``.

    Checked dimensions: wall time, aggregate SAT conflicts, aggregate
    BDD nodes (each under the noise thresholds) and resolution outcomes
    (any new degradation, failure, or increase in fallback-completed /
    degraded outputs — these have no noise margin: with identical
    configs the search is deterministic).
    """
    t = thresholds or RegressionThresholds()
    found: List[Regression] = []

    base_wall, cur_wall = baseline.wall_seconds, current.wall_seconds
    if _exceeds(base_wall, cur_wall, t.wall_pct, t.wall_floor_s):
        found.append(Regression(
            "wall_seconds", base_wall, cur_wall,
            f"wall time {cur_wall:.3f}s vs baseline {base_wall:.3f}s "
            f"(>{t.wall_pct:.0f}% and >{t.wall_floor_s}s slower)"))

    checks = (
        ("sat_conflicts_spent", t.sat_pct, float(t.sat_floor),
         "SAT conflicts"),
        ("bdd_nodes_spent", t.bdd_pct, float(t.bdd_floor), "BDD nodes"),
    )
    for key, pct, floor, label in checks:
        base = float(baseline.counters.get(key, 0))
        cur = float(current.counters.get(key, 0))
        if _exceeds(base, cur, pct, floor):
            found.append(Regression(
                f"counters.{key}", base, cur,
                f"{label} {cur:.0f} vs baseline {base:.0f} "
                f"(>{pct:.0f}% and >{floor:.0f} more)"))

    for family in sorted(set(baseline.histograms)
                         & set(current.histograms)):
        if not family.endswith("_seconds"):
            continue
        base = float(baseline.histograms[family].get("p95", 0.0))
        cur = float(current.histograms[family].get("p95", 0.0))
        if _exceeds(base, cur, t.p95_pct, t.p95_floor_s):
            found.append(Regression(
                f"histograms.{family}.p95", base, cur,
                f"{family} p95 {cur * 1000:.1f}ms vs baseline "
                f"{base * 1000:.1f}ms (>{t.p95_pct:.0f}% and "
                f">{t.p95_floor_s * 1000:.0f}ms slower)"))

    outcome_rank = {"ok": 0, "degraded": 1, "interrupted": 2, "failed": 2}
    if outcome_rank.get(current.outcome, 2) > \
            outcome_rank.get(baseline.outcome, 2):
        found.append(Regression(
            "outcome", outcome_rank.get(baseline.outcome, 2),
            outcome_rank.get(current.outcome, 2),
            f"outcome worsened: {baseline.outcome!r} -> "
            f"{current.outcome!r}"))
    if current.degraded and not baseline.degraded:
        found.append(Regression(
            "degraded", 0, 1, "run degraded where the baseline did not"))
    for key, label in (("fallbacks", "fallback-completed outputs"),
                       ("degraded_outputs", "degraded outputs")):
        base = baseline.counters.get(key, 0)
        cur = current.counters.get(key, 0)
        if cur > base:
            found.append(Regression(
                f"counters.{key}", base, cur,
                f"{label} rose {base} -> {cur}"))
    return found
