"""Unit tests for miter construction."""

import pytest

from repro.errors import NetlistError
from repro.cec.miter import build_miter
from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs
from repro.lint.netlist_rules import lint_netlist


def xor_impl() -> Circuit:
    c = Circuit("x1")
    c.add_inputs(["a", "b"])
    c.set_output("o", c.xor("a", "b"))
    return c


def xor_via_muxes() -> Circuit:
    c = Circuit("x2")
    c.add_inputs(["a", "b"])
    nb = c.not_("b")
    c.set_output("o", c.mux("a", "b", nb))
    return c


def or_impl() -> Circuit:
    c = Circuit("x3")
    c.add_inputs(["a", "b"])
    c.set_output("o", c.or_("a", "b"))
    return c


class TestBuildMiter:
    def test_equivalent_circuits_never_differ(self):
        info = build_miter(xor_impl(), xor_via_muxes())
        assert lint_netlist(info.circuit, deep=False).ok
        for a in (False, True):
            for b in (False, True):
                out = evaluate_outputs(info.circuit, {"a": a, "b": b})
                assert out["diff"] is False

    def test_inequivalent_circuits_differ_somewhere(self):
        info = build_miter(xor_impl(), or_impl())
        diffs = [
            evaluate_outputs(info.circuit, {"a": a, "b": b})["diff"]
            for a in (False, True) for b in (False, True)
        ]
        assert any(diffs)
        # xor vs or differ exactly on a=b=1
        assert diffs == [False, False, False, True]

    def test_diff_nets_per_output(self):
        left, right = xor_impl(), or_impl()
        left.set_output("p", "a")
        right.set_output("p", "a")
        info = build_miter(left, right)
        assert set(info.diff_nets) == {"o", "p"}

    def test_output_subset_selection(self):
        left, right = xor_impl(), or_impl()
        left.set_output("p", "a")
        right.set_output("p", "a")
        info = build_miter(left, right, outputs=["p"])
        assert set(info.diff_nets) == {"p"}

    def test_no_shared_outputs(self):
        left = xor_impl()
        right = Circuit("r")
        right.add_input("a")
        right.set_output("zzz", "a")
        with pytest.raises(NetlistError):
            build_miter(left, right)

    def test_missing_output_on_one_side(self):
        with pytest.raises(NetlistError):
            build_miter(xor_impl(), or_impl(), outputs=["nope"])

    def test_right_side_extra_inputs_added(self):
        left = xor_impl()
        right = xor_impl()
        right.add_input("extra")
        info = build_miter(left, right)
        assert "extra" in info.circuit.inputs

    def test_maps_cover_both_sides(self):
        left, right = xor_impl(), xor_via_muxes()
        info = build_miter(left, right)
        for net in left.gates:
            assert net in info.left_map
        for net in right.gates:
            assert net in info.right_map
