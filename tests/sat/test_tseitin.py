"""Tests for the Tseitin circuit encoding."""

import itertools

import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.simulate import evaluate_outputs
from repro.sat.solver import SAT, UNSAT, Solver
from repro.sat.tseitin import CircuitEncoder, encode_circuit
from tests.conftest import make_random_circuit


def assert_encoding_matches_simulation(circuit: Circuit):
    """Exhaustively check the CNF encodes exactly the circuit function."""
    s = Solver()
    varmap = encode_circuit(s, circuit)
    n = len(circuit.inputs)
    for bits in itertools.product([False, True], repeat=n):
        assignment = dict(zip(circuit.inputs, bits))
        expected = evaluate_outputs(circuit, assignment)
        assumptions = [
            varmap[name] if value else -varmap[name]
            for name, value in assignment.items()
        ]
        assert s.solve(assumptions=assumptions) == SAT
        for port, net in circuit.outputs.items():
            got = s.model_value(varmap[net])
            assert got == expected[port], (assignment, port)


@pytest.mark.parametrize("gtype,arity", [
    (GateType.AND, 2), (GateType.AND, 3), (GateType.OR, 2),
    (GateType.OR, 4), (GateType.NAND, 2), (GateType.NAND, 3),
    (GateType.NOR, 2), (GateType.XOR, 2), (GateType.XOR, 3),
    (GateType.XNOR, 2), (GateType.NOT, 1), (GateType.BUF, 1),
    (GateType.MUX, 3), (GateType.CONST0, 0), (GateType.CONST1, 0),
])
def test_single_gate_encoding(gtype, arity):
    c = Circuit()
    ins = c.add_inputs([f"x{i}" for i in range(max(arity, 1))])
    c.add_gate("g", gtype, ins[:arity])
    c.set_output("o", "g")
    assert_encoding_matches_simulation(c)


def test_random_circuits_encode_correctly():
    for seed in range(6):
        c = make_random_circuit(seed, n_inputs=4, n_gates=12)
        assert_encoding_matches_simulation(c)


class TestEncoder:
    def test_shared_input_vars(self, tiny_adder):
        s = Solver()
        enc = CircuitEncoder(s)
        m1 = enc.encode(tiny_adder)
        m2 = enc.encode(tiny_adder.copy(),
                        input_vars={n: m1[n] for n in tiny_adder.inputs})
        # identical circuits over shared inputs: outputs must agree
        for net in tiny_adder.outputs.values():
            neq = enc._encode_xor2(m1[net], m2[net])
            assert s.solve(assumptions=[neq]) == UNSAT

    def test_const_var_shared(self):
        s = Solver()
        enc = CircuitEncoder(s)
        assert enc.const_var(True) == enc.const_var(True)
        assert enc.const_var(False) != enc.const_var(True)
        assert s.solve() == SAT
        assert s.model_value(enc.const_var(True)) is True
        assert s.model_value(enc.const_var(False)) is False

    def test_equality_gadget(self):
        s = Solver()
        enc = CircuitEncoder(s)
        a, b = s.new_var(), s.new_var()
        eq = enc.equality(a, b)
        assert s.solve(assumptions=[eq, a, -b]) == UNSAT
        assert s.solve(assumptions=[eq, a, b]) == SAT
        assert s.solve(assumptions=[-eq, a, b]) == UNSAT

    def test_buf_reuses_variable(self):
        c = Circuit()
        c.add_input("a")
        c.buf("a", name="b")
        c.set_output("o", "b")
        s = Solver()
        varmap = encode_circuit(s, c)
        assert varmap["b"] == varmap["a"]
