"""Gate types and their Boolean semantics.

Gates model the logic operations of a circuit (Section 3.1).  Every gate
produces a single binary output from its binary inputs.  All types
except ``MUX`` accept an arbitrary positive arity; ``NOT`` and ``BUF``
are unary, constants are nullary, and ``MUX`` is exactly ternary with
operand order ``(select, data0, data1)``.
"""

from __future__ import annotations

import enum
from typing import Sequence

from repro.errors import NetlistError

# All simulation words are this many patterns wide.
WORD_BITS = 64
WORD_MASK = (1 << WORD_BITS) - 1


class GateType(enum.Enum):
    """The logic operation computed by a gate."""

    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    MUX = "mux"

    @property
    def is_constant(self) -> bool:
        return self in (GateType.CONST0, GateType.CONST1)

    def arity_ok(self, n: int) -> bool:
        """Whether the type accepts ``n`` operands."""
        if self.is_constant:
            return n == 0
        if self in (GateType.BUF, GateType.NOT):
            return n == 1
        if self is GateType.MUX:
            return n == 3
        return n >= 1


class Gate:
    """A named logic gate.

    Attributes:
        name: unique identifier; also the name of the net the gate drives.
        gtype: the :class:`GateType`.
        fanins: names of the nets feeding the gate's input pins, in pin
            order.  For ``MUX`` the order is ``(select, data0, data1)``.
    """

    __slots__ = ("name", "gtype", "fanins")

    def __init__(self, name: str, gtype: GateType, fanins: Sequence[str]):
        fanins = list(fanins)
        if not gtype.arity_ok(len(fanins)):
            raise NetlistError(
                f"gate {name!r}: type {gtype.value} does not accept "
                f"{len(fanins)} operand(s)"
            )
        self.name = name
        self.gtype = gtype
        self.fanins = fanins

    def copy(self) -> "Gate":
        return Gate(self.name, self.gtype, list(self.fanins))

    def __repr__(self) -> str:
        return f"Gate({self.name!r}, {self.gtype.value}, {self.fanins!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Gate)
            and self.name == other.name
            and self.gtype == other.gtype
            and self.fanins == other.fanins
        )

    def __hash__(self) -> int:
        return hash((self.name, self.gtype, tuple(self.fanins)))


def eval_gate(gtype: GateType, operands: Sequence[int],
              mask: int = WORD_MASK) -> int:
    """Evaluate a gate on simulation words.

    Each operand packs :data:`WORD_BITS` input patterns (or, with a wider
    ``mask``, a multi-word batch); the result packs the gate output for
    each pattern.  Complement-style operators mask the result back to
    ``mask``.
    """
    if gtype is GateType.CONST0:
        return 0
    if gtype is GateType.CONST1:
        return mask
    if gtype is GateType.BUF:
        return operands[0]
    if gtype is GateType.NOT:
        return ~operands[0] & mask
    if gtype is GateType.MUX:
        s, d0, d1 = operands
        return ((~s & d0) | (s & d1)) & mask
    acc = operands[0]
    if gtype in (GateType.AND, GateType.NAND):
        for w in operands[1:]:
            acc &= w
        return acc if gtype is GateType.AND else ~acc & mask
    if gtype in (GateType.OR, GateType.NOR):
        for w in operands[1:]:
            acc |= w
        return acc if gtype is GateType.OR else ~acc & mask
    if gtype in (GateType.XOR, GateType.XNOR):
        for w in operands[1:]:
            acc ^= w
        return acc if gtype is GateType.XOR else ~acc & mask
    raise NetlistError(f"unknown gate type {gtype!r}")


def eval_gate_bool(gtype: GateType, operands: Sequence[bool]) -> bool:
    """Evaluate a gate on single Boolean values."""
    words = [WORD_MASK if v else 0 for v in operands]
    return bool(eval_gate(gtype, words) & 1)


# Sorting fanins of these types never changes the function; used by
# structural hashing to canonicalize.
SYMMETRIC_TYPES = frozenset(
    {GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
     GateType.XOR, GateType.XNOR}
)
