"""Bridge between netlists and BDDs.

Builds the BDD of every net of a circuit given BDDs for its inputs.
The input functions may be plain variables (exact-domain computation)
or the components of a sampling function ``g(z)`` (sampling-domain
computation, Section 5.1) — the bridge is agnostic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence

from repro.errors import BddError
from repro.bdd.manager import BddManager, FALSE, TRUE
from repro.netlist.circuit import Circuit
from repro.netlist.gate import GateType
from repro.netlist.traverse import topological_order


def apply_gate(manager: BddManager, gtype: GateType,
               operands: Sequence[int]) -> int:
    """Evaluate one gate over BDD operands."""
    if gtype is GateType.CONST0:
        return FALSE
    if gtype is GateType.CONST1:
        return TRUE
    if gtype is GateType.BUF:
        return operands[0]
    if gtype is GateType.NOT:
        return manager.not_(operands[0])
    if gtype is GateType.MUX:
        s, d0, d1 = operands
        return manager.mux(s, d0, d1)
    if gtype is GateType.AND:
        return manager.and_(*operands)
    if gtype is GateType.OR:
        return manager.or_(*operands)
    if gtype is GateType.NAND:
        return manager.not_(manager.and_(*operands))
    if gtype is GateType.NOR:
        return manager.not_(manager.or_(*operands))
    if gtype is GateType.XOR:
        acc = operands[0]
        for w in operands[1:]:
            acc = manager.xor(acc, w)
        return acc
    if gtype is GateType.XNOR:
        acc = operands[0]
        for w in operands[1:]:
            acc = manager.xor(acc, w)
        return manager.not_(acc)
    raise BddError(f"unknown gate type {gtype!r}")


def net_functions(circuit: Circuit, manager: BddManager,
                  input_functions: Mapping[str, int],
                  roots: Optional[Iterable[str]] = None) -> Dict[str, int]:
    """BDD of every net (or of the cones of ``roots`` only).

    Args:
        circuit: the netlist.
        manager: target BDD manager.
        input_functions: BDD node per primary input — variables for an
            exact computation, ``g_i(z)`` components for a sampled one.
        roots: restrict the computation to the transitive fanin of these
            nets (saves work when only some outputs matter).

    Returns:
        Mapping net name -> BDD node.
    """
    values: Dict[str, int] = {}
    for name in circuit.inputs:
        try:
            values[name] = input_functions[name]
        except KeyError:
            raise BddError(f"missing BDD for input {name!r}")
    order = topological_order(circuit, roots=list(roots) if roots else None)
    for name in order:
        gate = circuit.gates[name]
        values[name] = apply_gate(
            manager, gate.gtype, [values[f] for f in gate.fanins])
    return values
