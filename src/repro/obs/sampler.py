"""In-run telemetry sampling: counter time-series and stall detection.

Span traces attribute *deltas* to phases, but a long phase is a black
box while it runs.  :class:`RunSampler` fixes that: it snapshots the
run's :class:`~repro.runtime.counters.RunCounters`, the live BDD node
count (via a supervisor callback) and — when the caller already runs
``tracemalloc`` — the traced-memory peak, emitting each snapshot as an
``obs.sample`` event on the trace.  The result is a *timeline*:
BDD-node growth, SAT-conflict spend and memory high-water marks over
the run, exported and summarized like any other trace content and
persisted per run by :mod:`repro.obs.store`.

A run has one thread, so the sampler has none.  It takes one snapshot
at :meth:`~RunSampler.start` and one at :meth:`~RunSampler.stop`; in
between, the run supervisor's ``checkpoint()`` and ``node_hook()`` —
the seams that already enforce the deadline — call
:meth:`~RunSampler.tick`, which takes a snapshot once
:data:`TICK_INTERVAL_S` has passed since the last one.  Phases that
reach no checkpoint (diagnosis, patch-input refinement, final
verification) show as gaps in the timeline; the counters a snapshot
records do not move inside them.

Each tick also runs the **stall detector**: the tracer bumps a
monotone ``progress`` counter on every span open / finish; when ticks
keep arriving for :data:`STALL_WINDOW_S` without span progress — a BDD
blowup inside one session, which reaches only ``node_hook`` — the
sampler emits a single ``run.stalled`` event carrying the idle time
and a degradation hint (``--deadline`` / ``--total-sat-budget``), and
re-arms once progress resumes.

Telemetry cannot fail a run: a snapshot that raises is logged once and
ends sampling for that run.  When tracing is disabled the engine never
constructs a sampler at all (the ``NULL_TRACE`` no-op path allocates
nothing).
"""

from __future__ import annotations

import logging
import time
import tracemalloc
from typing import Any, Callable, Dict, Optional

logger = logging.getLogger("repro.obs")

#: event kinds emitted by the sampler
SAMPLE_EVENT = "obs.sample"
STALL_EVENT = "run.stalled"

#: seconds between two tick snapshots
TICK_INTERVAL_S = 0.05

#: span-progress silence, in seconds, that counts as a stall
STALL_WINDOW_S = 30.0

STALL_HINT = ("no span progress; consider --deadline / "
              "--total-sat-budget / --total-bdd-nodes")


class RunSampler:
    """Telemetry snapshots of one run, written to its trace.

    Args:
        trace: the run's :class:`~repro.obs.trace.Trace`.  Callers must
            not construct a sampler for a disabled trace — use
            :func:`maybe_sampler`.
        counters: a ``RunCounters``-shaped object (``as_dict()``);
            every snapshot embeds its nonzero values.
        bdd_stats: zero-argument callable returning a dict of live BDD
            statistics (the run supervisor's ``live_bdd_stats``);
            cumulative, so sampled node counts are non-decreasing.
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, trace, counters=None,
                 bdd_stats: Optional[Callable[[], Dict[str, int]]] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.trace = trace
        self.counters = counters
        self.bdd_stats = bdd_stats
        self._clock = clock
        self._seq = 0
        self._stalled = False
        self._last_progress = -1
        self._last_change = 0.0
        self._next_tick = 0.0
        self._live = False

    # ------------------------------------------------------------------
    def start(self) -> "RunSampler":
        """Take the initial snapshot; ticks sample from now on."""
        now = self._clock()
        self._last_change = now
        self._next_tick = now + TICK_INTERVAL_S
        self._live = True
        self._snapshot()
        return self

    def stop(self) -> None:
        """Take the final snapshot; later ticks do nothing."""
        if self._live:
            self._snapshot()
        self._live = False

    def __enter__(self) -> "RunSampler":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.stop()
        return False

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Snapshot plus stall check, once :data:`TICK_INTERVAL_S` has
        passed since the last snapshot (the supervisor's checkpoints
        call this)."""
        if not self._live:
            return
        now = self._clock()
        if now < self._next_tick:
            return
        self._next_tick = now + TICK_INTERVAL_S
        self._snapshot(now)

    def _snapshot(self, now: Optional[float] = None) -> None:
        """One sample, plus the stall check when ``now`` is given; a
        failure is logged and ends sampling."""
        try:
            self.sample()
            if now is not None:
                self._check_stall(now)
        except Exception:  # telemetry must never take the run down
            self._live = False
            logger.exception("telemetry sampling failed; no further "
                             "samples for this run")

    def sample(self) -> None:
        """Emit one ``obs.sample`` event with the current telemetry."""
        self._seq += 1
        tags: Dict[str, Any] = {"seq": self._seq}
        if self.counters is not None:
            for key, value in self.counters.as_dict().items():
                if value:
                    tags[key] = value
        if self.bdd_stats is not None:
            tags.update(self.bdd_stats())
        if tracemalloc.is_tracing():
            current, peak = tracemalloc.get_traced_memory()
            tags["mem_kib"] = current // 1024
            tags["mem_peak_kib"] = peak // 1024
        self.trace.event(SAMPLE_EVENT, **tags)

    def _check_stall(self, now: float) -> None:
        progress = self.trace.progress
        if progress != self._last_progress:
            self._last_progress = progress
            self._last_change = now
            self._stalled = False  # re-arm once the run moves again
            return
        idle = now - self._last_change
        if idle >= STALL_WINDOW_S and not self._stalled:
            self._stalled = True
            self.trace.event(STALL_EVENT,
                             idle_s=round(idle, 3),
                             window_s=STALL_WINDOW_S,
                             progress=progress,
                             hint=STALL_HINT)


def maybe_sampler(trace, **kwargs) -> Optional[RunSampler]:
    """A sampler for an enabled trace; ``None`` (no allocation) when
    tracing is off."""
    if not getattr(trace, "enabled", False):
        return None
    return RunSampler(trace, **kwargs)
