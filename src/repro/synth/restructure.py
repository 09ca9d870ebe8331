"""Structural re-expression passes.

These passes keep the function of every output while moving the
implementation away from the source structure — the behaviour of
aggressive logic synthesis that the paper identifies as the reason
structural ECO matching breaks down.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.traverse import topological_order


def _reduce_tree(circuit: Circuit, op: GateType, operands: List[str],
                 rng: Optional[random.Random]) -> str:
    """Combine operands with 2-input gates in a (random) tree shape."""
    work = list(operands)
    if rng is not None:
        rng.shuffle(work)
    while len(work) > 1:
        if rng is not None and len(work) > 2:
            i = rng.randrange(len(work) - 1)
        else:
            i = 0
        a = work.pop(i)
        b = work.pop(i)
        work.insert(i, circuit.add(op, [a, b]))
    return work[0]


def decompose_two_input(circuit: Circuit, seed: Optional[int] = None,
                        name: Optional[str] = None) -> Circuit:
    """Decompose every n-ary gate into 2-input gates.

    With a seed, tree shapes and operand orders are randomized, which is
    the main source of structural divergence between two synthesis runs
    of the same function.  Inverted-output types (NAND/NOR/XNOR) become
    a 2-input tree followed by an inverter.
    """
    rng = random.Random(seed) if seed is not None else None
    out = Circuit(name or circuit.name)
    out.add_inputs(circuit.inputs)
    rep: Dict[str, str] = {n: n for n in circuit.inputs}

    for gname in topological_order(circuit):
        gate = circuit.gates[gname]
        fanins = [rep[f] for f in gate.fanins]
        gtype = gate.gtype
        if gtype in (GateType.CONST0, GateType.CONST1, GateType.BUF,
                     GateType.NOT, GateType.MUX):
            rep[gname] = out.add(gtype, fanins)
            continue
        base = {
            GateType.AND: GateType.AND, GateType.NAND: GateType.AND,
            GateType.OR: GateType.OR, GateType.NOR: GateType.OR,
            GateType.XOR: GateType.XOR, GateType.XNOR: GateType.XOR,
        }[gtype]
        inverted = gtype in (GateType.NAND, GateType.NOR, GateType.XNOR)
        if len(fanins) == 1:
            top = fanins[0]
        else:
            top = _reduce_tree(out, base, fanins, rng)
        rep[gname] = out.not_(top) if inverted else top

    for port, net in circuit.outputs.items():
        out.set_output(port, rep[net])
    return out


def demorgan_restructure(circuit: Circuit, seed: int = 0,
                         probability: float = 0.4,
                         name: Optional[str] = None) -> Circuit:
    """Re-express a fraction of AND/OR gates through De Morgan's laws.

    ``AND(a,b)`` becomes ``NOT(OR(NOT a, NOT b))`` (and dually), chosen
    independently per gate with the given probability.  Pure notation
    change on each gate, so the output functions are untouched, but the
    gate vocabulary and connectivity shift substantially.
    """
    rng = random.Random(seed)
    out = Circuit(name or circuit.name)
    out.add_inputs(circuit.inputs)
    rep: Dict[str, str] = {n: n for n in circuit.inputs}

    dual = {GateType.AND: GateType.NOR, GateType.OR: GateType.NAND,
            GateType.NAND: GateType.OR, GateType.NOR: GateType.AND}

    for gname in topological_order(circuit):
        gate = circuit.gates[gname]
        fanins = [rep[f] for f in gate.fanins]
        gtype = gate.gtype
        if gtype in dual and rng.random() < probability:
            inverted = [out.not_(f) for f in fanins]
            rep[gname] = out.add(dual[gtype], inverted)
        else:
            rep[gname] = out.add(gtype, fanins)

    for port, net in circuit.outputs.items():
        out.set_output(port, rep[net])
    return out
