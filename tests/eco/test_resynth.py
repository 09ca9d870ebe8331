"""Tests for the rectification-logic resynthesis post-pass."""


from repro.cec.equivalence import check_equivalence
from repro.eco.config import EcoConfig
from repro.eco.engine import rectify
from repro.eco.resynth import resubstitute_patch
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.lint.netlist_rules import lint_netlist
from repro.synth import optimize_heavy, optimize_light
from repro.workloads.generators import control_design
from repro.workloads.revisions import apply_revision


def circuit_with_reexpressible_clone():
    """The clone computes ~(a & b); NAND over existing nets suffices."""
    c = Circuit("c")
    c.add_inputs(["a", "b", "u"])
    c.and_("a", "b", name="g1")
    c.or_("g1", "u", name="g2")
    c.set_output("o", "g2")
    # the patch cloned a two-gate cone: NOT(AND(a, b))
    c.add_gate("eco$h1", GateType.AND, ["a", "b"])
    c.add_gate("eco$h2", GateType.NOT, ["eco$h1"])
    c.set_output("p", "eco$h2")
    return c


class TestResubstitute:
    def test_two_gate_clone_becomes_one_gate(self):
        c = circuit_with_reexpressible_clone()
        reference = c.copy()
        resubs, patch_gates = resubstitute_patch(
            c, {"eco$h1", "eco$h2"})
        assert resubs >= 1
        assert lint_netlist(c, deep=False).ok
        assert check_equivalence(reference, c).equivalent is True
        # the clone pair is gone; one freshly built gate remains
        assert "eco$h2" not in c.gates
        assert len(patch_gates) < 2
        for g in patch_gates:
            assert g in c.gates

    def test_inverter_resubstitution(self):
        c = Circuit("c")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.set_output("o", "g1")
        # clone computing NOR(a,b)... no existing single-net inverse;
        # but a clone equal to ~g1 is one inverter away
        c.add_gate("eco$x", GateType.NAND, ["a", "b"])
        c.set_output("p", "eco$x")
        reference = c.copy()
        resubs, patch_gates = resubstitute_patch(c, {"eco$x"})
        assert resubs == 1
        assert check_equivalence(reference, c).equivalent is True
        # the replacement is a NOT of the existing g1
        p_net = c.outputs["p"]
        assert c.gates[p_net].gtype is GateType.NOT
        assert c.gates[p_net].fanins == ["g1"]

    def test_irreducible_clone_kept(self):
        c = Circuit("c")
        c.add_inputs(["a", "b", "x", "y"])
        c.and_("a", "b", name="g1")
        c.set_output("o", "g1")
        # MUX over nets that exist nowhere as a 2-input combination
        c.add_gate("eco$m", GateType.MUX, ["a", "x", "y"])
        c.set_output("p", "eco$m")
        reference = c.copy()
        resubs, patch_gates = resubstitute_patch(c, {"eco$m"})
        assert resubs == 0
        assert patch_gates == {"eco$m"}
        assert check_equivalence(reference, c).equivalent is True

    def test_no_clones_noop(self, tiny_adder):
        assert resubstitute_patch(tiny_adder, set()) == (0, set())


class TestEngineIntegration:
    def test_resynthesis_config_end_to_end(self):
        spec = control_design(n_inputs=8, n_outputs=5, n_terms=10, seed=21)
        impl = optimize_heavy(spec, seed=33)
        revised = spec.copy()
        apply_revision(revised, "gate-type", seed=5, bias="deep")
        revised = optimize_light(revised)

        plain = rectify(impl, revised, EcoConfig())
        resynth = rectify(impl, revised, EcoConfig(resynthesis=True))
        assert check_equivalence(resynth.patched, revised).equivalent
        assert resynth.stats().gates <= plain.stats().gates
        assert "resubstitutions" in resynth.counters.as_dict()
