"""Unit tests for run budgets and the error hierarchy."""

import pytest

from repro.errors import (
    BddError,
    BddNodeLimitError,
    DeadlineExceeded,
    ResourceBudgetExceeded,
    SatBudgetExceeded,
)
from repro.runtime import RunBudget


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def now(self) -> float:
        return self.t


class TestErrorHierarchy:
    def test_budget_errors_share_one_base(self):
        # one except clause catches every budget exhaustion
        for exc in (BddNodeLimitError("x"), SatBudgetExceeded("x"),
                    DeadlineExceeded("x")):
            with pytest.raises(ResourceBudgetExceeded):
                raise exc

    def test_bdd_node_limit_keeps_bdd_parent(self):
        assert issubclass(BddNodeLimitError, BddError)
        assert issubclass(BddNodeLimitError, ResourceBudgetExceeded)

    def test_plain_budget_error_is_not_a_bdd_error(self):
        assert not issubclass(ResourceBudgetExceeded, BddError)


class TestRunBudgetDeadline:
    def test_no_deadline_never_raises(self):
        budget = RunBudget(clock=FakeClock())
        assert budget.time_left() is None
        budget.check_deadline()

    def test_deadline_expiry_raises(self):
        clock = FakeClock()
        budget = RunBudget(deadline_s=10.0, clock=clock)
        budget.check_deadline()
        assert budget.time_left() == pytest.approx(10.0)
        clock.t = 10.5
        with pytest.raises(DeadlineExceeded):
            budget.check_deadline()

    def test_elapsed_tracks_clock(self):
        clock = FakeClock(5.0)
        budget = RunBudget(clock=clock)
        clock.t = 7.5
        assert budget.elapsed() == pytest.approx(2.5)


class TestRunBudgetSat:
    def test_unlimited_passes_request_through(self):
        budget = RunBudget(clock=FakeClock())
        assert budget.grant_sat(123) == 123
        assert budget.grant_sat(None) is None

    def test_grants_capped_by_remainder(self):
        budget = RunBudget(total_sat_conflicts=100, clock=FakeClock())
        assert budget.grant_sat(50) == 50
        budget.charge_sat(60)
        assert budget.grant_sat(50) == 40
        assert budget.grant_sat(None) == 40

    def test_exhaustion_raises(self):
        budget = RunBudget(total_sat_conflicts=100, clock=FakeClock())
        budget.charge_sat(100)
        with pytest.raises(SatBudgetExceeded):
            budget.grant_sat(1)

    def test_grant_checks_deadline_too(self):
        clock = FakeClock()
        budget = RunBudget(deadline_s=1.0, clock=clock)
        clock.t = 2.0
        with pytest.raises(DeadlineExceeded):
            budget.grant_sat(10)
