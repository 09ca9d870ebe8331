"""Tests for constant propagation and algebraic simplification."""


from repro.netlist.circuit import Circuit
from repro.netlist.simulate import evaluate_outputs
from repro.synth.simplify import simplify_constants
from tests.conftest import exhaustive_equivalent, make_random_circuit


def out_value(c: Circuit, **inputs) -> bool:
    return evaluate_outputs(c, inputs)[next(iter(c.outputs))]


class TestConstantFolds:
    def test_and_with_zero(self):
        c = Circuit()
        c.add_input("a")
        k = c.const0()
        c.set_output("o", c.and_("a", k))
        s = simplify_constants(c)
        assert s.num_gates <= 1  # only the constant remains
        assert not out_value(s, a=True)

    def test_and_with_one_drops_operand(self):
        c = Circuit()
        c.add_input("a")
        k = c.const1()
        c.set_output("o", c.and_("a", k))
        s = simplify_constants(c)
        assert s.outputs["o"] == "a"

    def test_or_with_one(self):
        c = Circuit()
        c.add_input("a")
        k = c.const1()
        c.set_output("o", c.or_("a", k))
        s = simplify_constants(c)
        assert out_value(s, a=False)

    def test_double_negation(self):
        c = Circuit()
        c.add_input("a")
        n1 = c.not_("a")
        n2 = c.not_(n1)
        c.set_output("o", n2)
        s = simplify_constants(c)
        assert s.outputs["o"] == "a"
        assert s.num_gates == 0

    def test_xor_duplicate_cancels(self):
        c = Circuit()
        c.add_inputs(["a", "b"])
        c.set_output("o", c.xor("a", "a", "b"))
        s = simplify_constants(c)
        assert s.outputs["o"] == "b"

    def test_xor_with_complement_is_one_xor_rest(self):
        c = Circuit()
        c.add_input("a")
        na = c.not_("a")
        c.set_output("o", c.xor("a", na))
        s = simplify_constants(c)
        assert out_value(s, a=False) and out_value(s, a=True)

    def test_and_with_complement_is_zero(self):
        c = Circuit()
        c.add_input("a")
        na = c.not_("a")
        c.set_output("o", c.and_("a", na))
        s = simplify_constants(c)
        assert not out_value(s, a=False) and not out_value(s, a=True)

    def test_or_duplicate_operands(self):
        c = Circuit()
        c.add_input("a")
        c.set_output("o", c.or_("a", "a", "a"))
        s = simplify_constants(c)
        assert s.outputs["o"] == "a"

    def test_mux_constant_select(self):
        c = Circuit()
        c.add_inputs(["x", "y"])
        k = c.const1()
        c.set_output("o", c.mux(k, "x", "y"))
        s = simplify_constants(c)
        assert s.outputs["o"] == "y"

    def test_mux_equal_data(self):
        c = Circuit()
        c.add_inputs(["s", "x"])
        c.set_output("o", c.mux("s", "x", "x"))
        s = simplify_constants(c)
        assert s.outputs["o"] == "x"

    def test_mux_const_data_is_select(self):
        c = Circuit()
        c.add_input("s")
        k0, k1 = c.const0(), c.const1()
        c.set_output("o", c.mux("s", k0, k1))
        s = simplify_constants(c)
        assert s.outputs["o"] == "s"

    def test_nand_of_constant_one(self):
        c = Circuit()
        c.add_input("a")
        k = c.const1()
        c.set_output("o", c.nand("a", k))
        s = simplify_constants(c)
        assert out_value(s, a=False) and not out_value(s, a=True)

    def test_buffer_chain_collapses(self):
        c = Circuit()
        c.add_input("a")
        b1 = c.buf("a")
        b2 = c.buf(b1)
        c.set_output("o", b2)
        s = simplify_constants(c)
        assert s.outputs["o"] == "a"


class TestFunctionPreservation:
    def test_random_circuits(self):
        for seed in range(15):
            c = make_random_circuit(seed, n_inputs=5, n_gates=25)
            s = simplify_constants(c)
            assert exhaustive_equivalent(c, s), seed

    def test_circuits_with_embedded_constants(self):
        for seed in range(8):
            c = make_random_circuit(seed, n_inputs=4, n_gates=10)
            k0 = c.const0()
            k1 = c.const1()
            # splice constants into a couple of gates
            gnames = sorted(c.gates)[:2]
            for g, k in zip(gnames, (k0, k1)):
                if c.gates[g].fanins:
                    c.gates[g].fanins[0] = k
            s = simplify_constants(c)
            assert exhaustive_equivalent(c, s), seed

    def test_never_grows(self):
        for seed in range(8):
            c = make_random_circuit(seed)
            s = simplify_constants(c)
            assert s.num_gates <= c.num_gates + 2  # +2 for const nets
