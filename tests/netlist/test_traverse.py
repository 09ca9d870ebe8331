"""Unit tests for traversal utilities."""

import pytest

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.traverse import (
    cone_of,
    dependent_outputs,
    input_support,
    levelize,
    output_support,
    support_masks,
    topological_order,
    transitive_fanin,
    transitive_fanout,
)
from tests.conftest import make_random_circuit


@pytest.fixture
def diamond() -> Circuit:
    # a -> g1 -> g3 -> o ; a -> g2 -> g3
    c = Circuit("diamond")
    c.add_inputs(["a", "b"])
    c.not_("a", name="g1")
    c.and_("a", "b", name="g2")
    c.or_("g1", "g2", name="g3")
    c.set_output("o", "g3")
    c.set_output("p", "g2")
    return c


class TestTopologicalOrder:
    def test_fanins_precede_fanouts(self, diamond):
        order = topological_order(diamond)
        pos = {n: i for i, n in enumerate(order)}
        for g in diamond.gates.values():
            for f in g.fanins:
                if f in pos:
                    assert pos[f] < pos[g.name]

    def test_random_circuits_property(self):
        for seed in range(10):
            c = make_random_circuit(seed)
            order = topological_order(c)
            assert sorted(order) == sorted(c.gates)
            pos = {n: i for i, n in enumerate(order)}
            for g in c.gates.values():
                for f in g.fanins:
                    if f in pos:
                        assert pos[f] < pos[g.name]

    def test_roots_restrict_scope(self, diamond):
        order = topological_order(diamond, roots=["g2"])
        assert order == ["g2"]

    def test_cycle_detection(self):
        c = Circuit()
        c.add_input("a")
        c.and_("a", "a", name="g1")
        c.or_("g1", "a", name="g2")
        # manufacture a cycle g1 <- g2
        c.gates["g1"].fanins[1] = "g2"
        with pytest.raises(NetlistError):
            topological_order(c)

    def test_empty_circuit(self):
        c = Circuit()
        c.add_input("a")
        assert topological_order(c) == []


class TestCones:
    def test_transitive_fanin(self, diamond):
        tfi = transitive_fanin(diamond, ["g3"])
        assert tfi == {"g3", "g1", "g2", "a", "b"}

    def test_transitive_fanin_excluding_inputs(self, diamond):
        tfi = transitive_fanin(diamond, ["g1"], include_inputs=False)
        assert tfi == {"g1"}

    def test_transitive_fanout(self, diamond):
        tfo = transitive_fanout(diamond, ["g1"])
        assert tfo == {"g1", "g3"}
        assert transitive_fanout(diamond, ["a"]) == {"a", "g1", "g2", "g3"}

    def test_input_support(self, diamond):
        assert input_support(diamond, "g1") == {"a"}
        assert input_support(diamond, "g3") == {"a", "b"}

    def test_output_support(self, diamond):
        assert output_support(diamond, "p") == {"a", "b"}

    def test_dependent_outputs(self, diamond):
        assert sorted(dependent_outputs(diamond, ["g1"])) == ["o"]
        assert sorted(dependent_outputs(diamond, ["g2"])) == ["o", "p"]

    def test_support_masks_agree_with_input_support(self):
        for seed in range(6):
            c = make_random_circuit(seed)
            idx = {n: i for i, n in enumerate(c.inputs)}
            masks = support_masks(c)
            for net in c.nets():
                expect = input_support(c, net)
                got = {n for n in c.inputs if masks[net] >> idx[n] & 1}
                assert got == expect, net

    def test_support_masks_shared_numbering(self, diamond):
        idx = {"b": 0, "a": 1}
        masks = support_masks(diamond, idx)
        assert masks["g1"] == 0b10
        assert masks["g3"] == 0b11


class TestLevelize:
    def test_levels(self, diamond):
        lv = levelize(diamond)
        assert lv["a"] == 0
        assert lv["g1"] == 1
        assert lv["g2"] == 1
        assert lv["g3"] == 2

    def test_constants_at_level_zero(self):
        c = Circuit()
        c.add_input("a")
        c.const1(name="k")
        c.set_output("o", c.and_("a", "k"))
        assert levelize(c)["k"] == 0


class TestConeOf:
    def test_cone_keeps_names_and_function(self, diamond):
        cone = cone_of(diamond, ["p"])
        assert set(cone.gates) == {"g2"}
        assert cone.inputs == ["a", "b"]
        assert cone.outputs == {"p": "g2"}

    def test_cone_of_missing_port(self, diamond):
        with pytest.raises(NetlistError):
            cone_of(diamond, ["nope"])

    def test_cone_multi_port(self, diamond):
        cone = cone_of(diamond, ["o", "p"])
        assert set(cone.gates) == {"g1", "g2", "g3"}
