"""Tests for patch-input refinement sweeping."""

from repro.cec.equivalence import check_equivalence
from repro.eco.sweep import refine_patch_inputs
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.lint.netlist_rules import lint_netlist


def circuit_with_redundant_clone():
    """The patch cloned AND(a,b) although g1 already computes it."""
    c = Circuit("c")
    c.add_inputs(["a", "b"])
    c.and_("a", "b", name="g1")
    c.or_("g1", "a", name="g2")
    c.add_gate("eco$h1", GateType.AND, ["a", "b"])   # duplicate of g1
    c.add_gate("eco$h2", GateType.NOT, ["eco$h1"])   # genuinely new
    c.set_output("o", "g2")
    c.set_output("p", "eco$h2")
    return c


class TestRefinePatchInputs:
    def test_duplicate_clone_replaced(self):
        c = circuit_with_redundant_clone()
        reference = c.copy()
        replaced, remaining = refine_patch_inputs(
            c, {"eco$h1", "eco$h2"})
        assert replaced == 1
        assert "eco$h1" not in c.gates
        assert remaining == {"eco$h2"}
        assert c.gates["eco$h2"].fanins == ["g1"]
        assert check_equivalence(reference, c).equivalent
        assert lint_netlist(c, deep=False).ok

    def test_no_clones_noop(self, tiny_adder):
        replaced, remaining = refine_patch_inputs(tiny_adder, set())
        assert replaced == 0
        assert remaining == set()

    def test_stale_clone_names_ignored(self, tiny_adder):
        replaced, remaining = refine_patch_inputs(
            tiny_adder, {"never_existed"})
        assert replaced == 0
        assert remaining == set()

    def test_unique_clone_survives(self):
        c = Circuit("c")
        c.add_inputs(["a", "b"])
        c.and_("a", "b", name="g1")
        c.add_gate("eco$h", GateType.XOR, ["a", "b"])  # no equivalent
        c.set_output("o", "g1")
        c.set_output("p", "eco$h")
        replaced, remaining = refine_patch_inputs(c, {"eco$h"})
        assert replaced == 0
        assert remaining == {"eco$h"}

    def test_cycle_risk_avoided(self):
        # the only equivalent net sits downstream of the clone; the
        # sweep must refuse to use it
        c = Circuit("c")
        c.add_inputs(["a", "b"])
        c.add_gate("eco$h", GateType.AND, ["a", "b"])
        c.buf("eco$h", name="g1")  # equivalent but downstream
        c.set_output("o", "g1")
        replaced, remaining = refine_patch_inputs(c, {"eco$h"})
        assert replaced == 0
        assert lint_netlist(c, deep=False).ok
