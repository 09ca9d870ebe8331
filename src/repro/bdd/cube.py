"""Cubes: conjunctions of literals over BDD variables.

A :class:`Cube` is an immutable partial assignment with set-like
helpers.  Cubes are the currency of the rectification-point search:
prime cubes of ``H(t)`` seed candidate point-sets (Section 4.2).
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Tuple

from repro.bdd.manager import BddManager


class Cube:
    """An immutable conjunction of literals ``var -> bool``."""

    __slots__ = ("_literals",)

    def __init__(self, literals: Mapping[int, bool]):
        self._literals: Tuple[Tuple[int, bool], ...] = tuple(
            sorted((int(v), bool(b)) for v, b in literals.items())
        )

    @property
    def literals(self) -> Dict[int, bool]:
        return dict(self._literals)

    def __len__(self) -> int:
        return len(self._literals)

    def __iter__(self) -> Iterator[Tuple[int, bool]]:
        return iter(self._literals)

    def __contains__(self, var: int) -> bool:
        return any(v == var for v, _ in self._literals)

    def value(self, var: int) -> bool:
        for v, b in self._literals:
            if v == var:
                return b
        raise KeyError(var)

    def without(self, var: int) -> "Cube":
        """A copy with one literal dropped (used by prime expansion)."""
        return Cube({v: b for v, b in self._literals if v != var})

    def to_bdd(self, manager: BddManager) -> int:
        return manager.cube(self.literals)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Cube) and self._literals == other._literals

    def __hash__(self) -> int:
        return hash(self._literals)

    def __repr__(self) -> str:
        body = " & ".join(
            (f"v{v}" if b else f"~v{v}") for v, b in self._literals
        )
        return f"Cube({body or '1'})"
