"""Operator-overloading wrapper over :class:`BddManager` nodes.

``Bdd`` objects make exploratory code and tests read like Boolean
algebra::

    m = BddManager(3)
    a, b, c = (Bdd.variable(m, i) for i in range(3))
    f = (a & b) | ~c

The wrapper is intentionally thin: it holds a manager reference and a
node handle, and every operator delegates to the manager.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from repro.errors import BddError
from repro.bdd.manager import BddManager, FALSE, TRUE


class Bdd:
    """A Boolean function: a node handle bound to its manager."""

    __slots__ = ("manager", "node")

    def __init__(self, manager: BddManager, node: int):
        self.manager = manager
        self.node = node

    # constructors ------------------------------------------------------
    @staticmethod
    def variable(manager: BddManager, index: int) -> "Bdd":
        return Bdd(manager, manager.var(index))

    @staticmethod
    def true(manager: BddManager) -> "Bdd":
        return Bdd(manager, TRUE)

    @staticmethod
    def false(manager: BddManager) -> "Bdd":
        return Bdd(manager, FALSE)

    def _coerce(self, other) -> int:
        if isinstance(other, Bdd):
            if other.manager is not self.manager:
                raise BddError("mixing nodes from different managers")
            return other.node
        if other is True or other == 1:
            return TRUE
        if other is False or other == 0:
            return FALSE
        raise BddError(f"cannot combine Bdd with {other!r}")

    # operators ---------------------------------------------------------
    def __and__(self, other) -> "Bdd":
        return Bdd(self.manager, self.manager.and_(self.node, self._coerce(other)))

    def __or__(self, other) -> "Bdd":
        return Bdd(self.manager, self.manager.or_(self.node, self._coerce(other)))

    def __xor__(self, other) -> "Bdd":
        return Bdd(self.manager, self.manager.xor(self.node, self._coerce(other)))

    def __invert__(self) -> "Bdd":
        return Bdd(self.manager, self.manager.not_(self.node))

    __rand__ = __and__
    __ror__ = __or__
    __rxor__ = __xor__

    def implies(self, other) -> "Bdd":
        return Bdd(self.manager, self.manager.implies(self.node, self._coerce(other)))

    def ite(self, then, else_) -> "Bdd":
        return Bdd(self.manager, self.manager.ite(
            self.node, self._coerce(then), self._coerce(else_)))

    # queries -----------------------------------------------------------
    @property
    def is_true(self) -> bool:
        return self.node == TRUE

    @property
    def is_false(self) -> bool:
        return self.node == FALSE

    def __bool__(self) -> bool:
        raise BddError(
            "Bdd truth value is ambiguous; use .is_true / .is_false or =="
        )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Bdd):
            return self.manager is other.manager and self.node == other.node
        return NotImplemented

    def __hash__(self) -> int:
        return hash((id(self.manager), self.node))

    def evaluate(self, assignment: Mapping[int, bool]) -> bool:
        return self.manager.evaluate(self.node, assignment)

    def support(self) -> frozenset:
        return self.manager.support(self.node)

    def size(self) -> int:
        return self.manager.size(self.node)

    def satcount(self, num_vars: Optional[int] = None) -> int:
        return self.manager.satcount(self.node, num_vars)

    def exists(self, variables: Iterable[int]) -> "Bdd":
        return Bdd(self.manager, self.manager.exists(self.node, variables))

    def forall(self, variables: Iterable[int]) -> "Bdd":
        return Bdd(self.manager, self.manager.forall(self.node, variables))

    def __repr__(self) -> str:
        return f"Bdd(node={self.node}, size={self.size()})"
