"""Shared test helpers: random circuit construction and equivalence."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.simulate import evaluate_outputs


def make_random_circuit(seed: int, n_inputs: int = 5, n_gates: int = 25,
                        n_outputs: int = 3) -> Circuit:
    """Deterministic random DAG used across property tests."""
    rng = random.Random(seed)
    c = Circuit(f"rand{seed}")
    nets = list(c.add_inputs([f"x{i}" for i in range(n_inputs)]))
    types = [GateType.AND, GateType.OR, GateType.XOR, GateType.NAND,
             GateType.NOR, GateType.NOT, GateType.MUX, GateType.XNOR,
             GateType.BUF]
    for _ in range(n_gates):
        gtype = rng.choice(types)
        if gtype in (GateType.NOT, GateType.BUF):
            fanins = [rng.choice(nets)]
        elif gtype is GateType.MUX:
            fanins = [rng.choice(nets) for _ in range(3)]
        else:
            fanins = [rng.choice(nets) for _ in range(rng.randint(2, 4))]
        nets.append(c.add(gtype, fanins))
    pool = nets[n_inputs:] or nets
    for o in range(n_outputs):
        c.set_output(f"y{o}", rng.choice(pool))
    return c


def exhaustive_equivalent(left: Circuit, right: Circuit,
                          max_inputs: int = 10) -> bool:
    """Truth-table equivalence over the union of the two input sets."""
    inputs = sorted(set(left.inputs) | set(right.inputs))
    assert len(inputs) <= max_inputs, "too many inputs for exhaustion"
    shared_ports = [p for p in left.outputs if p in right.outputs]
    assert shared_ports, "no shared outputs"
    for bits in itertools.product([False, True], repeat=len(inputs)):
        assignment = dict(zip(inputs, bits))
        lv = evaluate_outputs(left, {n: assignment[n] for n in left.inputs})
        rv = evaluate_outputs(right, {n: assignment[n] for n in right.inputs})
        for p in shared_ports:
            if lv[p] != rv[p]:
                return False
    return True


@pytest.fixture(autouse=True)
def _isolated_run_store(tmp_path, monkeypatch):
    """Point the persistent run store at a per-test directory so CLI
    and engine tests never write ``.repro/runs`` into the repo."""
    monkeypatch.setenv("REPRO_RUN_STORE", str(tmp_path / "runstore"))


@pytest.fixture
def tiny_adder() -> Circuit:
    """A one-bit full adder with outputs 'sum' and 'carry'."""
    c = Circuit("fa")
    a, b, cin = c.add_inputs(["a", "b", "cin"])
    axb = c.xor(a, b, name="axb")
    c.set_output("sum", c.xor(axb, cin, name="s"))
    g = c.and_(a, b, name="g")
    p = c.and_(axb, cin, name="p")
    c.set_output("carry", c.or_(g, p, name="cout"))
    return c

