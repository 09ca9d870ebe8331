"""Tests for the cone-replacement baseline."""

from repro.baselines.conemap import ConeMap
from repro.cec.equivalence import check_equivalence
from repro.lint.netlist_rules import lint_netlist
from repro.workloads.figures import example1_circuits


class TestConeMap:
    def test_rectifies_example1(self):
        impl, spec = example1_circuits(width=2)
        result = ConeMap().rectify(impl, spec)
        assert lint_netlist(result.patched, deep=False).ok
        assert check_equivalence(result.patched, spec).equivalent

    def test_patch_covers_whole_cones(self):
        impl, spec = example1_circuits(width=2)
        result = ConeMap().rectify(impl, spec)
        # each failing output's full spec cone is cloned (shared c_new)
        stats = result.stats()
        assert stats.gates >= 4  # both outputs' cones

    def test_noop_on_equivalent(self, tiny_adder):
        result = ConeMap().rectify(tiny_adder, tiny_adder.copy())
        assert len(result.patch.ops) == 0
        assert result.stats().gates == 0

    def test_clones_shared_between_outputs(self):
        impl, spec = example1_circuits(width=2)
        result = ConeMap().rectify(impl, spec)
        # c_new feeds both failing cones but is cloned only once
        clones = [g for g in result.patch.cloned_gates
                  if "c_new" in g and not g.endswith("2")]
        assert len(clones) == 1

    def test_per_output_labelled(self):
        impl, spec = example1_circuits(width=2)
        result = ConeMap().rectify(impl, spec)
        assert all(v == "cone-replace" for v in result.per_output.values())

    def test_original_untouched(self):
        impl, spec = example1_circuits(width=2)
        before = impl.num_gates
        ConeMap().rectify(impl, spec)
        assert impl.num_gates == before
