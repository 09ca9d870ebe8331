"""Tests for the DeltaSyn baseline."""

import pytest

from repro.baselines.deltasyn import DeltaSyn
from repro.cec.equivalence import check_equivalence
from repro.netlist.circuit import Circuit
from repro.lint.netlist_rules import lint_netlist
from repro.synth import optimize_heavy, optimize_light
from repro.workloads.figures import example1_circuits
from repro.workloads.generators import control_design
from repro.workloads.revisions import apply_revision
from repro.workloads.suite import build_suite
from tests.eco import reference


def revised_pair(seed=1, kind="gate-type"):
    spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=seed)
    impl = optimize_heavy(spec, seed=seed + 50)
    revised = spec.copy()
    apply_revision(revised, kind, seed=seed)
    return impl, optimize_light(revised)


class TestMatching:
    def test_inputs_always_match(self):
        impl, spec = revised_pair()
        matches = DeltaSyn().match_signals(impl, spec)
        for n in spec.inputs:
            assert matches.get(n) == n

    def test_equivalent_nets_found(self):
        impl = Circuit("i")
        impl.add_inputs(["a", "b"])
        impl.and_("a", "b", name="x")
        impl.set_output("o", "x")
        spec = Circuit("s")
        spec.add_inputs(["a", "b"])
        spec.and_("b", "a", name="y")
        spec.not_("y", name="z")
        spec.set_output("o", "z")
        matches = DeltaSyn().match_signals(impl, spec)
        assert matches.get("y") == "x"

    def test_changed_nets_unmatched(self):
        impl = Circuit("i")
        impl.add_inputs(["a", "b"])
        impl.and_("a", "b", name="x")
        impl.set_output("o", "x")
        spec = Circuit("s")
        spec.add_inputs(["a", "b"])
        spec.xor("a", "b", name="y")
        spec.set_output("o", "y")
        matches = DeltaSyn().match_signals(impl, spec)
        assert "y" not in matches


    @pytest.mark.parametrize("case_id", range(1, 12))
    def test_batched_matching_matches_per_round_loop(self, case_id):
        (case,) = build_suite([case_id])
        assert DeltaSyn().match_signals(case.impl, case.spec) == \
            reference.match_signals(case.impl, case.spec)


class TestRectify:
    def test_rectifies_and_verifies(self):
        impl, spec = revised_pair()
        result = DeltaSyn().rectify(impl, spec)
        assert lint_netlist(result.patched, deep=False).ok
        assert check_equivalence(result.patched, spec).equivalent

    @pytest.mark.parametrize("kind", ["gate-type", "polarity",
                                      "wrong-input"])
    def test_revision_kinds(self, kind):
        impl, spec = revised_pair(seed=3, kind=kind)
        result = DeltaSyn().rectify(impl, spec)
        assert check_equivalence(result.patched, spec).equivalent

    def test_noop_on_equivalent(self, tiny_adder):
        result = DeltaSyn().rectify(tiny_adder, tiny_adder.copy())
        assert len(result.patch.ops) == 0

    def test_patch_smaller_than_cone_replacement(self):
        from repro.baselines.conemap import ConeMap
        impl, spec = revised_pair(seed=5)
        delta = DeltaSyn().rectify(impl, spec).stats()
        cone = ConeMap().rectify(impl, spec).stats()
        assert delta.gates <= cone.gates

    def test_example1(self):
        impl, spec = example1_circuits(width=2)
        result = DeltaSyn().rectify(impl, spec)
        assert check_equivalence(result.patched, spec).equivalent

    def test_original_untouched(self):
        impl, spec = revised_pair(seed=7)
        gates = {k: g.copy() for k, g in impl.gates.items()}
        DeltaSyn().rectify(impl, spec)
        assert impl.gates == gates
