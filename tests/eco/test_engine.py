"""End-to-end tests of the syseco engine."""

import pytest

from repro.cec.equivalence import check_equivalence
from repro.errors import EcoError
from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco, rectify
from repro.netlist.circuit import Circuit
from repro.lint.netlist_rules import lint_netlist
from repro.synth import optimize_heavy, optimize_light
from repro.workloads.figures import example1_circuits, figure1_circuits
from repro.workloads.generators import alu_design, control_design
from repro.workloads.revisions import apply_revision


def assert_rectified(result, spec):
    assert lint_netlist(result.patched, deep=False).ok
    assert check_equivalence(result.patched, spec).equivalent is True


class TestSmallEcos:
    def test_single_gate_bug(self):
        spec = Circuit("spec")
        spec.add_inputs(["a", "b", "c"])
        g1 = spec.and_("a", "b", name="g1")
        spec.set_output("o", spec.xor(g1, "c"))
        impl = Circuit("impl")
        impl.add_inputs(["a", "b", "c"])
        h1 = impl.or_("a", "b", name="h1")
        impl.set_output("o", impl.xor(h1, "c"))
        result = rectify(impl, spec, EcoConfig(num_samples=4))
        assert_rectified(result, spec)
        assert len(result.patch.ops) >= 1

    def test_already_equivalent_yields_empty_patch(self, tiny_adder):
        result = rectify(tiny_adder, tiny_adder.copy())
        assert_rectified(result, tiny_adder)
        assert len(result.patch.ops) == 0
        assert result.stats().gates == 0

    def test_figure1_scenario(self):
        impl, spec = figure1_circuits(width=3)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert_rectified(result, spec)
        # the protected signal d keeps its original driver
        assert result.patched.outputs["d"] == impl.outputs["d"]

    def test_example1_scenario(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8,
                                               max_points=2))
        assert_rectified(result, spec)

    def test_multi_output_revision(self):
        spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=3)
        impl = optimize_heavy(spec, seed=7)
        revised = spec.copy()
        apply_revision(revised, "word-redefine", seed=5, max_bits=3)
        revised = optimize_light(revised)
        result = rectify(impl, revised)
        assert_rectified(result, revised)

    def test_per_output_records(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert set(result.per_output)  # every fixed port recorded
        for how in result.per_output.values():
            assert how in ("rewire", "fallback", "fixed-by-earlier")


class TestRevisionKinds:
    @pytest.mark.parametrize("kind", ["gate-type", "wrong-input",
                                      "add-condition", "polarity"])
    def test_each_kind_rectifies(self, kind):
        spec = alu_design(width=3)
        impl = optimize_heavy(spec, seed=11)
        revised = spec.copy()
        apply_revision(revised, kind, seed=9)
        revised = optimize_light(revised)
        result = rectify(impl, revised, EcoConfig(num_samples=8))
        assert_rectified(result, revised)


class TestConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            EcoConfig(num_samples=0)
        with pytest.raises(ValueError):
            EcoConfig(max_points=0)
        with pytest.raises(ValueError):
            EcoConfig(use_impl_nets=False, use_spec_nets=False)
        with pytest.raises(ValueError):
            EcoConfig(error_bias=1.5)

    def test_interface_mismatch_rejected(self, tiny_adder):
        other = Circuit("other")
        other.add_input("zzz")
        other.set_output("different", "zzz")
        with pytest.raises(EcoError):
            SysEco().rectify(tiny_adder, other)

    def test_spec_only_sources(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, use_impl_nets=False))
        assert_rectified(result, spec)

    def test_level_aware_mode_works(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, level_aware=True))
        assert_rectified(result, spec)

    def test_tiny_bdd_limit_falls_back_gracefully(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=4, bdd_node_limit=300))
        assert_rectified(result, spec)


class TestRuntimeBookkeeping:
    def test_runtime_recorded(self, tiny_adder):
        result = rectify(tiny_adder, tiny_adder.copy())
        assert result.runtime_seconds >= 0.0

    def test_original_inputs_untouched(self):
        impl, spec = example1_circuits(width=2)
        impl_gates = {k: g.copy() for k, g in impl.gates.items()}
        rectify(impl, spec, EcoConfig(num_samples=8))
        assert impl.gates == impl_gates

    def test_verified_outputs_complete(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec, EcoConfig(num_samples=8))
        assert set(result.verified_outputs) == set(spec.outputs)


class TestExactDomain:
    def test_exact_mode_rectifies(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(exact_domain_max_inputs=8))
        assert_rectified(result, spec)

    def test_exact_mode_skipped_for_wide_support(self):
        impl, spec = example1_circuits(width=2)
        # support is 7 inputs; limit 2 forces the sampled path
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8,
                                   exact_domain_max_inputs=2))
        assert_rectified(result, spec)

    def test_exhaustive_assignments_helper(self):
        from repro.eco.sampling import exhaustive_assignments
        out = exhaustive_assignments(["a", "b"], fixed={"c": False})
        assert len(out) == 4
        assert all(s["c"] is False for s in out)
        assert len({(s["a"], s["b"]) for s in out}) == 4


class TestCegarRefinement:
    def test_cegar_counter_appears_when_rounds_happen(self):
        # tiny domains produce false positives; CEGAR should be able
        # to run without breaking correctness either way
        impl, spec = figure1_circuits(width=3)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=2, cegar_refinement=True))
        assert_rectified(result, spec)

    def test_cegar_disabled_still_correct(self):
        impl, spec = figure1_circuits(width=3)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=2,
                                   cegar_refinement=False))
        assert_rectified(result, spec)
