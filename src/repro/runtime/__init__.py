"""Run supervision: deadlines, budgets, fault injection.

This package gives every resource-bounded step of the ECO flow a single
run-level contract (see ``docs/architecture.md``, section "Run
supervision & failure handling"):

* :class:`RunBudget` — wall-clock deadline plus an aggregate SAT
  conflict cap for a whole run;
* :class:`RunSupervisor` — bundles the budget, the per-query SAT
  conflict budget (one budgeted solve per query), counters and the
  degradation state the engine consults;
* :class:`FaultInjector` — deterministic fault injection at named call
  sites, making every degradation branch unit-testable;
* :class:`RunCounters` — typed per-run telemetry.

Only :mod:`repro.errors` is depended on; the package sits at the bottom
of the layering next to ``netlist`` / ``bdd`` / ``sat``.
"""

from repro.runtime.budget import RunBudget
from repro.runtime.clock import now
from repro.runtime.counters import RunCounters
from repro.runtime.faultinject import (
    FAULT_CRASH,
    FAULT_EXHAUST,
    FAULT_KILL,
    FAULT_TORN,
    FAULT_UNKNOWN,
    Fault,
    FaultInjector,
    InjectedClock,
    InjectedCrash,
    MonotonicClock,
    SITE_BDD,
    SITE_CLOCK,
    SITE_JOURNAL,
    SITE_SAT,
    SITE_WORKER,
)
from repro.runtime.supervisor import RunSupervisor

__all__ = [
    "RunBudget",
    "now",
    "RunCounters",
    "Fault",
    "FaultInjector",
    "InjectedClock",
    "InjectedCrash",
    "MonotonicClock",
    "RunSupervisor",
    "FAULT_CRASH",
    "FAULT_EXHAUST",
    "FAULT_KILL",
    "FAULT_TORN",
    "FAULT_UNKNOWN",
    "SITE_BDD",
    "SITE_CLOCK",
    "SITE_JOURNAL",
    "SITE_SAT",
    "SITE_WORKER",
]
