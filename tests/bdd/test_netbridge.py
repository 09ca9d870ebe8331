"""Tests for the netlist <-> BDD bridge."""

import itertools

import pytest

from repro.errors import BddError
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.netbridge import apply_gate, circuit_to_bdds, net_functions
from repro.netlist.gate import GateType
from repro.netlist.simulate import evaluate_outputs
from tests.conftest import make_random_circuit


class TestApplyGate:
    def test_all_types_against_eval(self):
        m = BddManager(3)
        vars3 = [m.var(i) for i in range(3)]
        from repro.netlist.gate import eval_gate_bool
        cases = [
            (GateType.AND, 2), (GateType.OR, 2), (GateType.XOR, 2),
            (GateType.NAND, 2), (GateType.NOR, 2), (GateType.XNOR, 2),
            (GateType.NOT, 1), (GateType.BUF, 1), (GateType.MUX, 3),
            (GateType.AND, 3), (GateType.XOR, 3),
        ]
        for gtype, arity in cases:
            node = apply_gate(m, gtype, vars3[:arity])
            for bits in itertools.product([False, True], repeat=arity):
                env = dict(enumerate(bits))
                env.update({i: False for i in range(3)})
                env.update(dict(enumerate(bits)))
                assert m.evaluate(node, env) == \
                    eval_gate_bool(gtype, list(bits)), (gtype, bits)

    def test_constants(self):
        m = BddManager(1)
        assert apply_gate(m, GateType.CONST0, []) == FALSE
        assert apply_gate(m, GateType.CONST1, []) == TRUE


class TestCircuitToBdds:
    def test_matches_simulation(self):
        for seed in range(8):
            c = make_random_circuit(seed, n_inputs=5, n_gates=18)
            manager, var_map, outs = circuit_to_bdds(c)
            for bits in itertools.product([False, True], repeat=5):
                assignment = dict(zip(c.inputs, bits))
                sim = evaluate_outputs(c, assignment)
                env = {var_map[n]: v for n, v in assignment.items()}
                for port, node in outs.items():
                    assert manager.evaluate(node, env) == sim[port], seed

    def test_var_order_respected(self, tiny_adder):
        order = ["cin", "b", "a"]
        manager, var_map, outs = circuit_to_bdds(tiny_adder,
                                                 var_order=order)
        assert var_map == {"cin": 0, "b": 1, "a": 2}

    def test_bad_var_order(self, tiny_adder):
        with pytest.raises(BddError):
            circuit_to_bdds(tiny_adder, var_order=["a", "b"])

    def test_existing_manager_extended(self, tiny_adder):
        m = BddManager(2)
        manager, var_map, outs = circuit_to_bdds(tiny_adder, manager=m)
        assert manager is m
        assert min(var_map.values()) == 2


class TestNetFunctions:
    def test_missing_input_function(self, tiny_adder):
        m = BddManager(1)
        with pytest.raises(BddError):
            net_functions(tiny_adder, m, {"a": m.var(0)})

    def test_roots_limit_computation(self, tiny_adder):
        m = BddManager(3)
        fns = {n: m.var(i) for i, n in enumerate(tiny_adder.inputs)}
        values = net_functions(tiny_adder, m, fns, roots=["g"])
        assert "g" in values
        assert "cout" not in values
