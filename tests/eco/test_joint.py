"""Tests for the joint multi-output rectification extension."""

import itertools
import random


from repro.bdd.manager import BddManager
from repro.cec.equivalence import check_equivalence
from repro.eco.choices import enumerate_rewiring_choices_joint
from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco, rectify
from repro.eco.patch import Patch
from repro.eco.points import (
    compute_h_functions,
    feasible_point_sets_joint,
)
from repro.eco.sampling import SamplingDomain
from repro.netlist.circuit import Pin
from repro.workloads.figures import example1_circuits


def full_domain(circuit):
    inputs = list(circuit.inputs)
    samples = [dict(zip(inputs, bits))
               for bits in itertools.product([False, True],
                                             repeat=len(inputs))]
    return SamplingDomain(BddManager(), samples, inputs)


class TestJointPointSets:
    def test_joint_output_ports_always_feasible(self):
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl)
        spec_z = domain.cast_circuit(spec)
        spec_values = {p: spec_z[spec.outputs[p]] for p in ("w_0", "w_1")}
        pins = [Pin.output("w_0"), Pin.output("w_1")]
        sets = feasible_point_sets_joint(impl, spec_values, domain,
                                         pins, num_points=2)
        assert (Pin.output("w_0"), Pin.output("w_1")) in sets

    def test_joint_needs_pins_for_every_output(self):
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl)
        spec_z = domain.cast_circuit(spec)
        spec_values = {p: spec_z[spec.outputs[p]] for p in ("w_0", "w_1")}
        # pins only inside w_0's cone cannot jointly fix w_1
        pins = [Pin.gate("q0", 1), Pin.gate("q2", 1)]
        sets = feasible_point_sets_joint(impl, spec_values, domain,
                                         pins, num_points=2)
        assert sets == []

    def test_joint_shared_select_pins(self):
        """Rewiring the select's own driver pins fixes both outputs."""
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl)
        spec_z = domain.cast_circuit(spec)
        spec_values = {p: spec_z[spec.outputs[p]] for p in ("w_0", "w_1")}
        # the four select sink pins of both outputs plus v1's input:
        # with m=1, rewiring v1's input alone cannot fix both (the
        # positive-select side stays wrong), but the H computation must
        # recognize the infeasibility rather than fail
        pins = [Pin.gate("v1", 0)]
        sets = feasible_point_sets_joint(impl, spec_values, domain,
                                         pins, num_points=1)
        assert sets == []

    def test_compute_h_functions_shares_cone(self):
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl)
        m = domain.manager
        y = [m.add_var()]
        h = compute_h_functions(impl, ["w_0", "w_1"], domain,
                                [Pin.gate("v1", 0)], [m.var(y[0])])
        assert set(h) == {"w_0", "w_1"}
        # both augmented functions depend on the shared free input
        assert y[0] in m.support(h["w_0"])
        assert y[0] in m.support(h["w_1"])


class TestJointChoices:
    def test_joint_choice_fixes_both_outputs(self):
        from repro.eco.rewiring import RewireCandidate
        impl, spec = example1_circuits(width=2)
        domain = full_domain(impl)
        impl_z = domain.cast_circuit(impl)
        spec_z = domain.cast_circuit(spec)
        spec_values = {p: spec_z[spec.outputs[p]] for p in ("w_0", "w_1")}
        pins = (Pin.output("w_0"), Pin.output("w_1"))

        def cand(net, node, trivial=False):
            return RewireCandidate(net=net, from_spec=not trivial,
                                   utility=0.0, z_function=node,
                                   trivial=trivial)

        cands = (
            [cand("vout0", impl_z[impl.outputs["w_0"]], trivial=True),
             cand("vout0", spec_z[spec.outputs["w_0"]])],
            [cand("vout1", impl_z[impl.outputs["w_1"]], trivial=True),
             cand("vout1", spec_z[spec.outputs["w_1"]])],
        )
        choices = enumerate_rewiring_choices_joint(
            impl, spec_values, domain, pins, cands, limit=8)
        assert choices
        # the only valid joint choice replaces both outputs
        assert all(not a.trivial and not b.trivial
                   for a, b in choices)


class TestEngineJointMode:
    def test_joint_config_end_to_end(self):
        impl, spec = example1_circuits(width=2)
        result = rectify(impl, spec,
                         EcoConfig(num_samples=8, joint_outputs=3))
        assert check_equivalence(result.patched, spec).equivalent is True

    def test_joint_grouping(self):
        impl, spec = example1_circuits(width=2)
        engine = SysEco(EcoConfig(joint_outputs=3))
        group = engine._joint_group(impl, ["w_0", "w_1"])
        assert group == ["w_0", "w_1"]  # cones share the select logic

    def test_joint_group_size_capped(self):
        impl, spec = example1_circuits(width=2)
        engine = SysEco(EcoConfig(joint_outputs=1))
        # cap of 1 means no grouping happens in rectify at all; the
        # helper itself respects the cap
        group = engine._joint_group(impl, ["w_0", "w_1"])
        assert group == ["w_0"]

    def test_joint_direct_search_finds_commit(self):
        impl, spec = example1_circuits(width=2)
        engine = SysEco(EcoConfig(num_samples=8, joint_outputs=3))
        engine._counters = {}
        commit = engine._rectify_joint(
            impl.copy(), spec, ["w_0", "w_1"], ["w_0", "w_1"],
            Patch(), random.Random(1))
        # the economy guard may defer to the single-output path; when a
        # commit is returned it must fix the whole group
        if commit is not None:
            assert set(commit.fixed) >= {"w_0", "w_1"}
