"""Hierarchical span tracing for the rectification engine.

A :class:`Trace` records a tree of named, timed *spans* — one per
phase of a run (per-output rectification, point-set enumeration,
choice search, SAT validation, BDD sessions, ...) — plus instant
*events* (degradation, UNKNOWN SAT queries, node-limit hits).  Each
span carries free-form tags and, when the trace is bound to a
:class:`~repro.runtime.counters.RunCounters` object, the *delta* of
every counter over the span's lifetime, so SAT conflicts and BDD nodes
can be attributed phase by phase.

Spans are context managers::

    with trace.span("eco.output", output="o3") as sp:
        ...
        sp.tag(how="rewire")

or started/finished manually when the boundaries are not lexical
(the supervisor's BDD sessions use this)::

    sp = trace.span("bdd.session")
    ...
    sp.tag(nodes=manager.num_nodes).finish()

Every trace owns a :class:`~repro.obs.metrics.MetricsRegistry` and is
its only writer: each finished span is routed into its latency
histogram family, so counts stay in ``RunCounters``, time stays in the
spans, and the distributions are derived from the spans.

When tracing is off the engine threads :data:`NULL_TRACE` instead — a
singleton whose ``span``/``event`` calls return a shared inert object,
so the instrumented hot paths pay one attribute lookup and one call,
nothing else.

The module depends on nothing but the standard library and
:mod:`repro.obs.metrics`; ``runtime`` and ``eco`` sit above it.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional

from repro.obs.metrics import MetricsRegistry


class Span:
    """One timed, tagged phase of a run.

    Timestamps are seconds relative to the owning trace's epoch
    (monotonic clock).  ``counters`` holds the nonzero deltas of the
    bound counters object between enter and finish.
    """

    __slots__ = ("trace", "span_id", "parent_id", "name", "tags",
                 "t_start", "t_end", "counters", "_snapshot")

    def __init__(self, trace: "Trace", span_id: int,
                 parent_id: Optional[int], name: str,
                 tags: Dict[str, Any], t_start: float,
                 snapshot: Optional[Dict[str, int]]):
        self.trace = trace
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.tags = tags
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.counters: Dict[str, int] = {}
        self._snapshot = snapshot

    # ------------------------------------------------------------------
    def tag(self, **tags: Any) -> "Span":
        """Attach or overwrite tags; returns self for chaining."""
        self.tags.update(tags)
        return self

    def finish(self) -> None:
        if self.t_end is None:
            self.trace._finish(self)

    @property
    def duration(self) -> float:
        if self.t_end is None:
            return 0.0
        return self.t_end - self.t_start

    # ------------------------------------------------------------------
    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None and "error" not in self.tags:
            self.tags["error"] = exc_type.__name__
        self.finish()
        return False

    def __repr__(self) -> str:
        return (f"Span({self.name!r}, id={self.span_id}, "
                f"t={self.t_start:.4f}..{self.t_end}, tags={self.tags})")


class Event:
    """An instant, tagged occurrence attached to the enclosing span."""

    __slots__ = ("name", "t", "span_id", "tags")

    def __init__(self, name: str, t: float, span_id: Optional[int],
                 tags: Dict[str, Any]):
        self.name = name
        self.t = t
        self.span_id = span_id
        self.tags = tags


class Trace:
    """Collects the spans and events of one rectification run.

    Args:
        name: run label (usually the implementation's name).
        clock: monotonic time source (injectable for tests).
        metrics: the :class:`~repro.obs.metrics.MetricsRegistry` this
            trace writes; a fresh one when omitted.  Every finished or
            absorbed span is routed into its latency histogram family
            (``sat.validate`` → ``repro_sat_call_seconds``, ...), so
            ``--metrics`` files and the persisted
            ``RunRecord.histograms`` see the distributions.
    """

    enabled = True

    def __init__(self, name: str = "run",
                 clock: Callable[[], float] = time.monotonic,
                 metrics: Optional[MetricsRegistry] = None):
        self.name = name
        self._clock = clock
        self.epoch = clock()
        #: the histogram families this trace's spans feed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: finished spans, in finish order
        self.spans: List[Span] = []
        self.events: List[Event] = []
        #: run-level metadata (final counters, degradation, ...)
        self.meta: Dict[str, Any] = {"name": name}
        self._stack: List[Span] = []
        self._counters = None
        self._next_id = 1

    # ------------------------------------------------------------------
    def set_counters(self, counters) -> None:
        """Bind a ``RunCounters``-shaped object (needs ``as_dict()``);
        subsequent spans capture its per-span deltas."""
        self._counters = counters

    def span(self, name: str, **tags: Any) -> Span:
        """Open a child span of the currently-open span."""
        parent = self._stack[-1].span_id if self._stack else None
        snapshot = (self._counters.as_dict()
                    if self._counters is not None else None)
        sp = Span(self, self._next_id, parent, name, dict(tags),
                  self._clock() - self.epoch, snapshot)
        self._next_id += 1
        self._stack.append(sp)
        return sp

    def event(self, name: str, **tags: Any) -> None:
        parent = self._stack[-1].span_id if self._stack else None
        self.events.append(
            Event(name, self._clock() - self.epoch, parent, dict(tags)))

    def _finish(self, span: Span) -> None:
        span.t_end = self._clock() - self.epoch
        if span._snapshot is not None and self._counters is not None:
            now = self._counters.as_dict()
            before = span._snapshot
            span.counters = {k: v - before.get(k, 0)
                             for k, v in now.items()
                             if v != before.get(k, 0)}
        try:
            self._stack.remove(span)
        except ValueError:
            pass
        self.spans.append(span)
        self.metrics.observe_span(span.name, span.duration, span.tags)

    # ------------------------------------------------------------------
    def absorb(self, records: List[Dict[str, Any]],
               parent: Optional[int] = None,
               offset_s: float = 0.0) -> None:
        """Graft another trace's :meth:`records` into this trace.

        Parallel workers trace into private :class:`Trace` objects and
        ship the serialized records back; absorbing re-ids every span
        (offset by this trace's id counter, so ids stay unique), hangs
        worker roots under ``parent`` (or under the currently open span
        when ``None``) and shifts timestamps by ``offset_s``.  ``meta``
        records are dropped — the parent run owns the metadata.  Each
        grafted span is routed into this trace's registry, like a span
        finished here; the worker's own registry stays in the worker,
        so this is the one observation the run's registry gets.
        """
        base = self._next_id
        if parent is None and self._stack:
            parent = self._stack[-1].span_id
        max_id = 0
        for rec in records:
            kind = rec.get("type")
            if kind == "span":
                max_id = max(max_id, rec["id"])
                sp = Span(self, base + rec["id"],
                          (parent if rec.get("parent") is None
                           else base + rec["parent"]),
                          rec["name"], dict(rec.get("tags", {})),
                          rec["ts"] + offset_s, None)
                sp.t_end = sp.t_start + rec.get("dur", 0.0)
                sp.counters = dict(rec.get("counters", {}))
                self.spans.append(sp)
                self.metrics.observe_span(sp.name, sp.duration, sp.tags)
            elif kind == "event":
                span_id = rec.get("span")
                self.events.append(Event(
                    rec["name"], rec["ts"] + offset_s,
                    parent if span_id is None else base + span_id,
                    dict(rec.get("tags", {}))))
        self._next_id = base + max_id + 1

    # ------------------------------------------------------------------
    @property
    def wall_seconds(self) -> float:
        """End of the latest finished span (= attributed wall time)."""
        return max((s.t_end for s in self.spans if s.t_end is not None),
                   default=0.0)

    def records(self) -> List[Dict[str, Any]]:
        """The trace as plain serializable records.

        One ``meta`` record, then every finished span (start order) and
        every event, merged in timestamp order.  This is the canonical
        interchange form: the exporters serialize it and the summary
        renderer consumes it (from a live trace or re-loaded file).
        """
        out: List[Dict[str, Any]] = [dict(self.meta, type="meta")]
        items: List[Dict[str, Any]] = []
        for s in self.spans:
            items.append({
                "type": "span",
                "id": s.span_id,
                "parent": s.parent_id,
                "name": s.name,
                "ts": s.t_start,
                "dur": s.duration,
                "tags": dict(s.tags),
                "counters": dict(s.counters),
            })
        for e in self.events:
            items.append({
                "type": "event",
                "name": e.name,
                "ts": e.t,
                "span": e.span_id,
                "tags": dict(e.tags),
            })
        items.sort(key=lambda r: r["ts"])
        out.extend(items)
        return out


class _NullSpan:
    """Inert span: accepts the full :class:`Span` surface, does nothing."""

    __slots__ = ()
    tags: Dict[str, Any] = {}
    counters: Dict[str, int] = {}
    duration = 0.0

    def tag(self, **tags: Any) -> "_NullSpan":
        return self

    def finish(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTrace:
    """No-op trace: the default when observability is not requested.

    ``span``/``event`` cost one attribute lookup and one call; nothing
    is allocated or recorded, so instrumented code needs no ``if
    enabled`` guards.
    """

    enabled = False
    spans: List[Span] = []
    events: List[Event] = []
    wall_seconds = 0.0
    metrics = None

    @property
    def meta(self) -> Dict[str, Any]:
        # a fresh throwaway dict per access: writes vanish silently
        return {}

    def set_counters(self, counters) -> None:
        pass

    def span(self, name: str, **tags: Any) -> _NullSpan:
        return _NULL_SPAN

    def event(self, name: str, **tags: Any) -> None:
        pass

    def absorb(self, records: List[Dict[str, Any]],
               parent: Optional[int] = None,
               offset_s: float = 0.0) -> None:
        pass

    def records(self) -> List[Dict[str, Any]]:
        return []


NULL_TRACE = NullTrace()


def ensure_trace(trace: Optional[Trace]):
    """``trace`` itself, or :data:`NULL_TRACE` for ``None``."""
    return trace if trace is not None else NULL_TRACE
