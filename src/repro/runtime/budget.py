"""Run budgets: a deadline and an aggregate SAT conflict cap.

A :class:`RunBudget` carries the run-level resource contract of one
``SysEco.rectify`` call: a wall-clock deadline and an aggregate cap on
the SAT conflicts spent across *all* supervised queries of the run
(``SAT_QUERY_BUDGET`` still caps each query).  BDD sessions have no
run-level cap: each is bounded by its own node limit and dropped when
it closes, and the deadline reaches into them through the manager's
node hook.  Checks raise the
:class:`~repro.errors.ResourceBudgetExceeded` subclasses; the
supervisor translates those into graceful degradation or a strict
abort.

Charging is post-paid: a call is granted ``min(requested, remaining)``
up front and charged for what it actually consumed afterwards, so a
completed computation is never thrown away — the budget can overshoot
by at most one call's grant, and the *next* grant request raises.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import DeadlineExceeded, SatBudgetExceeded
from repro.runtime.faultinject import MonotonicClock


class RunBudget:
    """Run-level deadline and aggregate SAT conflict cap.

    Args:
        deadline_s: wall-clock seconds the run may take; ``None``
            disables the deadline.
        total_sat_conflicts: aggregate SAT conflict cap across every
            supervised solver call of the run; ``None`` = unlimited.
        clock: time source (injectable for fault testing); defaults to
            a monotonic wall clock.
    """

    def __init__(self, deadline_s: Optional[float] = None,
                 total_sat_conflicts: Optional[int] = None,
                 clock=None):
        self.clock = clock or MonotonicClock()
        self.deadline_s = deadline_s
        self.total_sat_conflicts = total_sat_conflicts
        self.sat_spent = 0
        self._t0 = self.clock.now()

    # ------------------------------------------------------------------
    # wall clock
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self.clock.now() - self._t0

    def time_left(self) -> Optional[float]:
        if self.deadline_s is None:
            return None
        return self.deadline_s - self.elapsed()

    def check_deadline(self) -> None:
        left = self.time_left()
        if left is not None and left <= 0.0:
            raise DeadlineExceeded(
                f"run deadline of {self.deadline_s:.3f}s passed "
                f"({self.elapsed():.3f}s elapsed)")

    # ------------------------------------------------------------------
    # SAT conflicts
    # ------------------------------------------------------------------
    def sat_remaining(self) -> Optional[int]:
        if self.total_sat_conflicts is None:
            return None
        return self.total_sat_conflicts - self.sat_spent

    def grant_sat(self, requested: Optional[int]) -> Optional[int]:
        """Conflict budget for one solver call, capped by the remainder.

        Raises :class:`SatBudgetExceeded` when the aggregate budget is
        already spent; also enforces the deadline (every grant is a
        natural checkpoint).
        """
        self.check_deadline()
        remaining = self.sat_remaining()
        if remaining is None:
            return requested
        if remaining <= 0:
            raise SatBudgetExceeded(
                f"total SAT conflict budget of {self.total_sat_conflicts} "
                "spent")
        if requested is None:
            return remaining
        return min(requested, remaining)

    def charge_sat(self, conflicts: int) -> None:
        self.sat_spent += max(0, conflicts)
