"""Tests for the pre-rectification diagnostics."""

import pytest

from repro.eco.analysis import (
    diagnose,
    error_rates,
    format_diagnosis,
    structural_similarity,
)
from repro.netlist.circuit import Circuit
from repro.synth import optimize_heavy
from repro.workloads.figures import example1_circuits
from repro.workloads.generators import control_design
from repro.workloads.suite import build_suite
from tests.eco import reference


def xor_vs_or():
    impl = Circuit("i")
    impl.add_inputs(["a", "b"])
    impl.set_output("o", impl.xor("a", "b"))
    spec = Circuit("s")
    spec.add_inputs(["a", "b"])
    spec.set_output("o", spec.or_("a", "b"))
    return impl, spec


class TestErrorRate:
    def test_quarter_rate(self):
        impl, spec = xor_vs_or()
        # xor vs or differ exactly on a=b=1: rate 1/4
        rate = error_rates(impl, spec, ["o"], rounds=32)["o"]
        assert rate == pytest.approx(0.25, abs=0.03)

    def test_zero_rate_for_equal(self):
        impl, _ = xor_vs_or()
        assert error_rates(impl, impl.copy(), ["o"]) == {"o": 0.0}

    @pytest.mark.parametrize("case_id", [1, 3, 7, 9])
    def test_batched_diagnosis_matches_per_port_loop(self, case_id):
        (case,) = build_suite([case_id])
        diagnosis = diagnose(case.impl, case.spec)
        assert diagnosis.per_output
        for port, d in diagnosis.per_output.items():
            assert d.error_rate == reference.error_rate(
                case.impl, case.spec, port)


class TestStructuralSimilarity:
    def test_identical_circuits(self):
        impl, _ = xor_vs_or()
        assert structural_similarity(impl, impl.copy()) == 1.0

    def test_heavy_restructuring_lowers_similarity(self):
        spec = control_design(10, 6, 14, seed=3)
        close = spec.copy()
        remote = optimize_heavy(spec, seed=5)
        assert structural_similarity(remote, spec) < \
            structural_similarity(close, spec)

    def test_empty_spec_gates(self):
        impl, _ = xor_vs_or()
        trivial = Circuit("t")
        trivial.add_input("a")
        trivial.set_output("o", "a")
        assert structural_similarity(impl, trivial) == 1.0


class TestDiagnose:
    def test_full_diagnosis(self):
        impl, spec = example1_circuits(width=2)
        diagnosis = diagnose(impl, spec)
        assert set(diagnosis.failing_outputs) == {"w_0", "w_1"}
        assert diagnosis.total_outputs == 2
        assert diagnosis.failing_fraction == 1.0
        for d in diagnosis.per_output.values():
            assert d.error_rate > 0
            assert d.cone_gates > 0
            assert d.impl_support >= 2

    def test_suggest_config_samples_for_rare_errors(self):
        impl = Circuit("i")
        impl.add_inputs([f"x{i}" for i in range(10)])
        impl.set_output("o", impl.const0())
        spec = Circuit("s")
        spec.add_inputs([f"x{i}" for i in range(10)])
        spec.set_output("o", spec.and_(*[f"x{i}" for i in range(10)]))
        config = diagnose(impl, spec).suggest_config()
        assert config.num_samples == 32

    def test_format_contains_key_lines(self):
        impl, spec = example1_circuits(width=2)
        text = format_diagnosis(diagnose(impl, spec))
        assert "failing outputs" in text
        assert "structural similarity" in text
        assert "w_0" in text
