"""Reference BDD connectives built on one generic ``ite`` (test oracle).

Every connective is a fold over a single memoized ``ite`` whose cache
keys carry the operator name, ``xor``/``xnor`` build ``not_(g)`` first,
and ``satcount`` recounts its BDD with a fresh memo on every call --
exactly how :class:`repro.bdd.manager.BddManager` computed them before
each operator got its own apply and table.  Node store, unique table,
quantification and enumeration are inherited, but the quantifiers here
route through the generic connectives as they did then.  ROBDDs are
canonical for a fixed variable order, so the differential tests
require the production manager to return the same functions, counts
and cubes.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.errors import BddError


class ReferenceBddManager(BddManager):
    """:class:`BddManager` with the generic-``ite`` connectives."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ref_cache: Dict[Tuple, int] = {}

    # ------------------------------------------------------------------
    def ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = ("ite", f, g, h)
        hit = self._ref_cache.get(key)
        if hit is not None:
            return hit
        top = self._var[f]
        for n in (g, h):
            if n > TRUE and self._var[n] < top:
                top = self._var[n]
        f0, f1 = self._cofactors(f, top)
        g0, g1 = self._cofactors(g, top)
        h0, h1 = self._cofactors(h, top)
        lo = self.ite(f0, g0, h0)
        hi = self.ite(f1, g1, h1)
        result = self._node(top, lo, hi)
        self._ref_cache[key] = result
        return result

    def _cofactors(self, node: int, var: int) -> Tuple[int, int]:
        if node > TRUE and self._var[node] == var:
            return self._lo[node], self._hi[node]
        return node, node

    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        return self.ite(f, FALSE, TRUE)

    def and_(self, *fs: int) -> int:
        acc = TRUE
        for f in fs:
            acc = self.ite(acc, f, FALSE)
        return acc

    def or_(self, *fs: int) -> int:
        acc = FALSE
        for f in fs:
            acc = self.ite(acc, TRUE, f)
        return acc

    def xor(self, f: int, g: int) -> int:
        return self.ite(f, self.not_(g), g)

    def xnor(self, f: int, g: int) -> int:
        return self.ite(f, g, self.not_(g))

    def implies(self, f: int, g: int) -> int:
        return self.ite(f, g, TRUE)

    def mux(self, s: int, d0: int, d1: int) -> int:
        return self.ite(s, d1, d0)

    def implies_check(self, f: int, g: int) -> bool:
        return self.ite(f, self.not_(g), FALSE) == FALSE

    # ------------------------------------------------------------------
    def _quantify(self, f: int, vs: frozenset, existential: bool) -> int:
        if f <= TRUE:
            return f
        key = ("exists" if existential else "forall", f, vs)
        hit = self._ref_cache.get(key)
        if hit is not None:
            return hit
        v = self._var[f]
        lo = self._quantify(self._lo[f], vs, existential)
        hi = self._quantify(self._hi[f], vs, existential)
        if v in vs:
            result = self.or_(lo, hi) if existential else self.and_(lo, hi)
        else:
            result = self._node(v, lo, hi)
        self._ref_cache[key] = result
        return result

    # ------------------------------------------------------------------
    def satcount(self, f: int, num_vars: Optional[int] = None) -> int:
        n = self._nvars if num_vars is None else num_vars
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << n

        def level(node: int) -> int:
            return n if node <= TRUE else self._var[node]

        top_support = max(self.support(f), default=-1)
        if top_support >= n:
            raise BddError(
                f"num_vars={n} does not cover support variable {top_support}")
        memo: Dict[int, int] = {}

        def count(node: int) -> int:
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            hit = memo.get(node)
            if hit is not None:
                return hit
            lo, hi = self._lo[node], self._hi[node]
            here = level(node)
            total = (count(lo) << (level(lo) - here - 1)) + \
                    (count(hi) << (level(hi) - here - 1))
            memo[node] = total
            return total

        try:
            return count(f) << level(f)
        finally:
            del count
