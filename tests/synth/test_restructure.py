"""Tests for restructuring passes."""


from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.hashing import structural_hash
from repro.synth.restructure import decompose_two_input, \
    demorgan_restructure
from tests.conftest import exhaustive_equivalent, make_random_circuit


class TestDecompose:
    def test_all_gates_at_most_two_inputs(self):
        for seed in range(6):
            c = make_random_circuit(seed, n_gates=20)
            d = decompose_two_input(c, seed=seed)
            for g in d.gates.values():
                if g.gtype is not GateType.MUX:
                    assert len(g.fanins) <= 2

    def test_preserves_function(self):
        for seed in range(10):
            c = make_random_circuit(seed, n_gates=20)
            d = decompose_two_input(c, seed=seed)
            assert exhaustive_equivalent(c, d), seed

    def test_deterministic_without_seed(self):
        c = make_random_circuit(5)
        d1 = decompose_two_input(c)
        d2 = decompose_two_input(c)
        assert structural_hash(d1) == structural_hash(d2)

    def test_seeds_change_structure(self):
        c = Circuit()
        c.add_inputs(["a", "b", "c", "d", "e"])
        c.set_output("o", c.and_("a", "b", "c", "d", "e"))
        shapes = set()
        for seed in range(6):
            d = decompose_two_input(c, seed=seed)
            order = tuple(tuple(g.fanins) for g in d.gates.values())
            shapes.add(order)
        assert len(shapes) > 1

    def test_inverted_types_become_tree_plus_inverter(self):
        c = Circuit()
        c.add_inputs(["a", "b", "c"])
        c.set_output("o", c.nand("a", "b", "c"))
        d = decompose_two_input(c)
        types = [g.gtype for g in d.gates.values()]
        assert GateType.NOT in types
        assert GateType.NAND not in types
        assert exhaustive_equivalent(c, d)


class TestDeMorgan:
    def test_preserves_function(self):
        for seed in range(10):
            c = make_random_circuit(seed, n_gates=20)
            d = demorgan_restructure(c, seed=seed, probability=0.7)
            assert exhaustive_equivalent(c, d), seed

    def test_probability_zero_is_identity_shape(self):
        c = make_random_circuit(4)
        d = demorgan_restructure(c, probability=0.0)
        assert structural_hash(c) == structural_hash(d)

    def test_probability_one_rewrites_all_and_or(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.set_output("o", c.and_("a", "b"))
        d = demorgan_restructure(c, probability=1.0)
        types = {g.gtype for g in d.gates.values()}
        assert GateType.AND not in types
        assert GateType.NOR in types
