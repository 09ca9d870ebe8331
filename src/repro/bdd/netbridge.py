"""Bridge between netlists and BDDs: one gate over BDD operands.

``H(t)`` (:mod:`repro.eco.points`) evaluates the gates that its ``y``
and ``t`` variables reach with :func:`apply_gate`; every other net's
sampling-domain function is read off its sample word
(:class:`repro.eco.sampling.SamplingDomain`), so no whole netlist is
cast.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import BddError
from repro.bdd.manager import BddManager, FALSE, TRUE
from repro.netlist.gate import GateType


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
