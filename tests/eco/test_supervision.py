"""Degradation-path tests driven by the fault-injection harness.

Every branch of the run-supervision contract is exercised end to end
through the public API (``rectify(impl, spec, injector=...)``) — no
monkeypatching of engine internals:

* deadline expiry mid-run (simulated wall-clock jump);
* injected SAT ``UNKNOWN`` streaks (unproven outputs, then fallback);
* injected aggregate SAT budget exhaustion;
* injected BDD node-limit hits and aggregate BDD node exhaustion;
* strict mode turning each degradation into a raised
  :class:`ResourceBudgetExceeded`.
"""

import pytest

from repro.cec.equivalence import check_equivalence
from repro.errors import (
    DeadlineExceeded,
    ResourceBudgetExceeded,
    SatBudgetExceeded,
)
from repro.netlist.circuit import Circuit
from repro.runtime import (
    FAULT_EXHAUST,
    FAULT_UNKNOWN,
    FaultInjector,
    RunCounters,
    SITE_BDD,
    SITE_CLOCK,
    SITE_SAT,
)
from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco, rectify
from repro.workloads.figures import example1_circuits


def single_bug_circuits():
    """The quickstart instance: OR instead of AND feeding an XOR."""
    spec = Circuit("spec")
    a, b, c = spec.add_inputs(["a", "b", "c"])
    g1 = spec.and_(a, b, name="g1")
    spec.set_output("o", spec.xor(g1, c, name="g2"))
    impl = Circuit("impl")
    a, b, c = impl.add_inputs(["a", "b", "c"])
    h1 = impl.or_(a, b, name="h1")
    impl.set_output("o", impl.xor(h1, c, name="h2"))
    return impl, spec


def assert_verified(result, spec):
    assert check_equivalence(result.patched, spec).equivalent is True


class TestDeadlineDegradation:
    def test_clock_jump_mid_run_degrades_but_verifies(self):
        impl, spec = example1_circuits(width=2)
        injector = FaultInjector().arm(SITE_CLOCK, 10, payload=1e9)
        result = rectify(impl, spec, EcoConfig(num_samples=8,
                                               deadline_s=3600.0),
                         injector=injector)
        assert result.degraded is True
        assert "deadline" in result.degrade_reason
        assert result.counters.degraded_outputs >= 1
        assert any(how == "fallback-degraded"
                   for how in result.per_output.values())
        assert_verified(result, spec)

    def test_strict_mode_raises_deadline(self):
        impl, spec = example1_circuits(width=2)
        injector = FaultInjector().arm(SITE_CLOCK, 10, payload=1e9)
        with pytest.raises(DeadlineExceeded):
            rectify(impl, spec,
                    EcoConfig(num_samples=8, deadline_s=3600.0,
                              degrade_on_budget=False),
                    injector=injector)

    def test_already_expired_deadline_still_yields_valid_patch(self):
        impl, spec = single_bug_circuits()
        result = rectify(impl, spec,
                         EcoConfig(num_samples=4, deadline_s=1e-9))
        assert result.degraded is True
        assert result.per_output == {"o": "fallback-degraded"}
        assert_verified(result, spec)


class TestSatUnknownEscalation:
    def test_unknown_streak_escalates_then_falls_back(self):
        impl, spec = single_bug_circuits()
        injector = FaultInjector().arm(
            SITE_SAT, range(1, 301), payload=FAULT_UNKNOWN)
        result = rectify(impl, spec, EcoConfig(num_samples=4),
                         injector=injector)
        # every supervised validation stayed UNKNOWN: the engine must
        # have given up on the search and used the fallback
        assert result.counters.sat_unknowns > 0
        assert result.counters.fallbacks >= 1
        assert result.degraded is False  # UNKNOWN is not exhaustion
        assert result.per_output == {"o": "fallback"}
        assert_verified(result, spec)


class TestSatBudgetDegradation:
    def test_injected_exhaustion_degrades_but_verifies(self):
        impl, spec = single_bug_circuits()
        injector = FaultInjector().arm(SITE_SAT, 1, payload=FAULT_EXHAUST)
        result = rectify(impl, spec, EcoConfig(num_samples=4),
                         injector=injector)
        assert result.degraded is True
        assert result.per_output == {"o": "fallback-degraded"}
        assert_verified(result, spec)

    def test_strict_mode_raises_sat_budget(self):
        impl, spec = single_bug_circuits()
        injector = FaultInjector().arm(SITE_SAT, 1, payload=FAULT_EXHAUST)
        with pytest.raises(SatBudgetExceeded):
            rectify(impl, spec,
                    EcoConfig(num_samples=4, degrade_on_budget=False),
                    injector=injector)

    def test_tiny_total_sat_budget_degrades_but_verifies(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, total_sat_budget=1))
        # either the search resolved within one conflict (fine) or the
        # aggregate budget blew and the run degraded; both must verify
        if result.degraded:
            assert result.counters.degraded_outputs >= 1
        assert_verified(result, spec)


class TestBddDegradation:
    def test_injected_node_limit_is_absorbed_by_retry(self):
        # per-session blowups are not run-fatal: the engine shrinks the
        # pin set and retries, ultimately falling back — never degraded
        impl, spec = single_bug_circuits()
        injector = FaultInjector().arm(SITE_BDD, range(1, 11))
        result = rectify(impl, spec, EcoConfig(num_samples=4),
                         injector=injector)
        assert result.degraded is False
        assert result.per_output == {"o": "fallback"}
        assert_verified(result, spec)

    def test_aggregate_node_budget_degrades_but_verifies(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, total_bdd_nodes=1))
        assert result.degraded is True
        assert "BDD node budget" in result.degrade_reason
        assert_verified(result, spec)

    def test_aggregate_node_budget_strict_raises(self):
        impl, spec = example1_circuits(width=2)
        with pytest.raises(ResourceBudgetExceeded):
            rectify(impl, spec,
                    EcoConfig(num_samples=8, total_bdd_nodes=1,
                              degrade_on_budget=False))


class TestRunIsolation:
    def test_counters_are_per_run_not_per_engine(self):
        impl, spec = single_bug_circuits()
        engine = SysEco(EcoConfig(num_samples=4))
        first = engine.rectify(impl, spec)
        second = engine.rectify(impl, spec)
        assert first.counters is not second.counters
        assert isinstance(first.counters, RunCounters)
        assert first.counters.as_dict() == second.counters.as_dict()

    def test_result_counters_record_supervision(self):
        impl, spec = single_bug_circuits()
        result = rectify(impl, spec, EcoConfig(num_samples=4))
        assert result.counters.bdd_sessions >= 1
        assert result.counters.bdd_nodes_spent > 0
        assert result.degraded is False
        assert result.degrade_reason is None


class TestConfigValidation:
    @pytest.mark.parametrize("field", ["num_samples", "max_points", "jobs"])
    def test_positive_int_fields_rejected_at_zero(self, field):
        with pytest.raises(ValueError):
            EcoConfig(**{field: 0})

    @pytest.mark.parametrize("field", [
        "deadline_s", "total_sat_budget", "total_bdd_nodes",
    ])
    def test_optional_budgets_must_be_positive_when_set(self, field):
        with pytest.raises(ValueError):
            EcoConfig(**{field: 0})
        EcoConfig(**{field: 1})  # and fine when positive

    def test_defaults_still_valid(self):
        EcoConfig()
