"""Deterministic fault injection for the run-supervision layer.

Every resource-bounded step of the ECO flow *observes* a named site
before doing its work; a :class:`FaultInjector` armed for the Nth
observation of a site makes that step fail (or, for the clock site,
jump) exactly there.  This turns every degradation branch of the engine
— BDD node-limit hits, SAT budget exhaustion, solver ``UNKNOWN``
streaks, deadline expiry mid-run — into a deterministic, unit-testable
path without monkeypatching engine internals.

Sites observed by the supervisor:

* :data:`SITE_BDD` — once per BDD session the engine opens.  A fault
  raises :class:`~repro.errors.BddNodeLimitError` as if the manager
  blew its node limit immediately.
* :data:`SITE_SAT` — once per supervised SAT query.  Payload
  ``"unknown"`` makes the query ``UNKNOWN`` without solving, as if its
  conflict budget ran out (the engine then treats the output as
  unproven); payload ``"exhaust"`` raises
  :class:`~repro.errors.SatBudgetExceeded` as if the aggregate
  conflict budget were spent.
* :data:`SITE_CLOCK` — once per wall-clock read.  Payload is a number
  of seconds the clock jumps forward (simulating a stall that blows a
  deadline, or a worker result that misses the run deadline).

Process-level sites observed by the fault-tolerant execution layer
(the chaos harness of ``docs/robustness.md``):

* :data:`SITE_WORKER` — once per task the supervised worker pool
  dispatches.  Payload :data:`FAULT_KILL` makes that task's worker die
  (``os._exit`` in a real pool; a simulated
  :class:`~repro.errors.WorkerDiedError` inline), exercising the
  retry/quarantine rule deterministically.
* :data:`SITE_JOURNAL` — once per checkpoint-journal append.  Payload
  :data:`FAULT_CRASH` raises :class:`InjectedCrash` *before* the
  record is written (clean kill between records);
  :data:`FAULT_TORN` writes a torn half-record — bypassing the atomic
  writer, as a legacy writer or dying kernel would — and then raises,
  exercising torn-line salvage on resume.

An injector is stateful (it counts observations); create a fresh one
per run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Union

SITE_BDD = "bdd.open"
SITE_SAT = "sat.call"
SITE_CLOCK = "clock"
SITE_WORKER = "worker.task"
SITE_JOURNAL = "journal.append"

#: payloads understood at :data:`SITE_SAT`
FAULT_UNKNOWN = "unknown"
FAULT_EXHAUST = "exhaust"

#: payload understood at :data:`SITE_WORKER`
FAULT_KILL = "kill"

#: payloads understood at :data:`SITE_JOURNAL`
FAULT_CRASH = "crash"
FAULT_TORN = "torn"


class InjectedCrash(RuntimeError):
    """A deterministic simulated process death.

    Deliberately *not* a :class:`~repro.errors.ReproError`: nothing in
    the library may catch and recover from it — it must unwind the
    whole run exactly like a real ``kill -9`` would end the process.
    """


@dataclass(frozen=True)
class Fault:
    """One armed fault: fire at the ``at_call``-th observation of ``site``."""

    site: str
    at_call: int
    payload: object = None


class FaultInjector:
    """Arms faults at (site, call-ordinal) pairs and reports hits.

    ``observe(site)`` increments the site's call counter and returns the
    :class:`Fault` armed at that ordinal, or ``None``.  Ordinals are
    1-based: ``arm(site, 1)`` fires on the first observation.
    """

    def __init__(self) -> None:
        self._armed: Dict[str, Dict[int, Fault]] = {}
        self._calls: Dict[str, int] = {}
        self._fired: list = []

    def arm(self, site: str, at_calls: Union[int, Iterable[int]],
            payload: object = None) -> "FaultInjector":
        """Arm a fault at one or several call ordinals; returns self."""
        if isinstance(at_calls, int):
            at_calls = (at_calls,)
        slot = self._armed.setdefault(site, {})
        for n in at_calls:
            if n < 1:
                raise ValueError("fault ordinals are 1-based")
            slot[n] = Fault(site, n, payload)
        return self

    def observe(self, site: str) -> Optional[Fault]:
        """Record one call at ``site``; return the fault due now, if any."""
        n = self._calls.get(site, 0) + 1
        self._calls[site] = n
        fault = self._armed.get(site, {}).get(n)
        if fault is not None:
            self._fired.append(fault)
        return fault

    def calls(self, site: str) -> int:
        """How many times ``site`` has been observed so far."""
        return self._calls.get(site, 0)

    @property
    def fired(self) -> tuple:
        """Faults that actually fired, in firing order."""
        return tuple(self._fired)


class MonotonicClock:
    """The default wall-clock source (``time.monotonic``)."""

    def now(self) -> float:
        return time.monotonic()


class InjectedClock:
    """A clock whose reads observe :data:`SITE_CLOCK`.

    A fault's payload (seconds) is added to a persistent offset, so an
    armed jump permanently advances this clock — exactly what a real
    mid-run stall looks like to deadline checks.
    """

    def __init__(self, base: Optional[MonotonicClock] = None,
                 injector: Optional[FaultInjector] = None):
        self._base = base or MonotonicClock()
        self._injector = injector
        self._offset = 0.0

    def now(self) -> float:
        if self._injector is not None:
            fault = self._injector.observe(SITE_CLOCK)
            if fault is not None:
                self._offset += float(fault.payload or 0.0)
        return self._base.now() + self._offset
