"""The ROBDD manager: unique table, computed tables, core operations.

Nodes are integers.  ``FALSE`` is node 0 and ``TRUE`` is node 1; every
other node ``n`` has a variable index ``var(n)`` and two children
``lo(n)`` (variable false) / ``hi(n)`` (variable true).  Variable
indices double as ordering positions: smaller index = closer to the
root.  The manager enforces the ROBDD invariants (no redundant node,
no duplicate node) so equality of functions is pointer equality.

Each operator has its own apply and its own computed table, as in the
classic package design (Brace, Rudell and Bryant, DAC 1990): AND, OR,
XOR and XNOR key their table by the operand pair, smaller operand
first; NOT by its operand; ``ite`` by its normalized triple.  Satisfy
counts are memoized per ``num_vars`` for the manager's lifetime (nodes
are never freed, so a count never goes stale).
"""

from __future__ import annotations

from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
)

from repro.errors import BddError, BddNodeLimitError

FALSE = 0
TRUE = 1


class BddManager:
    """Owns the node store and all BDD operations.

    Args:
        num_vars: number of variables to pre-allocate (more can be added
            with :meth:`add_var`).
        node_limit: raise :class:`BddNodeLimitError` when the node count
            would exceed this bound; ``None`` disables the check.  The
            ECO engine uses this as part of its resource-constrained
            symbolic computation.
        node_hook: optional callback invoked with the current node
            count every 4096 allocations.  The run supervisor installs
            its deadline checkpoint here so long symbolic computations
            stay interruptible; the hook may raise to abort the
            operation in progress.
    """

    def __init__(self, num_vars: int = 0, node_limit: Optional[int] = None,
                 node_hook: Optional[Callable[[int], None]] = None):
        # parallel arrays indexed by node id; slots 0/1 are terminals
        self._var: List[int] = [-1, -1]
        self._lo: List[int] = [FALSE, TRUE]
        self._hi: List[int] = [FALSE, TRUE]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        # computed tables, one per operator
        self._and_table: Dict[Tuple[int, int], int] = {}
        self._or_table: Dict[Tuple[int, int], int] = {}
        self._xor_table: Dict[Tuple[int, int], int] = {}
        self._xnor_table: Dict[Tuple[int, int], int] = {}
        self._not_table: Dict[int, int] = {}
        self._ite_table: Dict[Tuple[int, int, int], int] = {}
        self._quantify_table: Dict[Tuple[bool, int, frozenset], int] = {}
        #: num_vars -> {node: solutions over the variables from
        #: var(node) down}
        self._count_tables: Dict[int, Dict[int, int]] = {}
        self._nvars = 0
        self.node_limit = node_limit
        self.node_hook = node_hook
        for _ in range(num_vars):
            self.add_var()

    # ------------------------------------------------------------------
    # variables and raw nodes
    # ------------------------------------------------------------------
    @property
    def num_vars(self) -> int:
        return self._nvars

    @property
    def num_nodes(self) -> int:
        return len(self._var)

    def add_var(self) -> int:
        """Allocate a new variable (at the bottom of the order)."""
        self._nvars += 1
        return self._nvars - 1

    def var(self, index: int) -> int:
        """The BDD of variable ``index``."""
        self._check_var(index)
        return self._node(index, FALSE, TRUE)

    def _check_var(self, index: int) -> None:
        if not 0 <= index < self._nvars:
            raise BddError(f"variable {index} not allocated (have {self._nvars})")

    def _node(self, var: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (var, lo, hi)
        node = self._unique.get(key)
        if node is None:
            if self.node_limit is not None and len(self._var) >= self.node_limit:
                raise BddNodeLimitError(
                    f"BDD node limit {self.node_limit} exceeded")
            node = len(self._var)
            self._var.append(var)
            self._lo.append(lo)
            self._hi.append(hi)
            self._unique[key] = node
            if self.node_hook is not None and not (node & 0xFFF):
                self.node_hook(node)
        return node

    def top_var(self, node: int) -> int:
        """Variable index at the root of ``node`` (-1 for terminals)."""
        return self._var[node]

    def low(self, node: int) -> int:
        return self._lo[node]

    def high(self, node: int) -> int:
        return self._hi[node]

    # ------------------------------------------------------------------
    # core connectives: one apply and one computed table per operator
    # ------------------------------------------------------------------
    # Every apply returns its operands' canonical result and builds no
    # node outside it: a sub-result is either a child of the node it
    # feeds or (when both children agree) that node itself, so the
    # only nodes an apply creates are the result's own.
    def _and(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f <= TRUE:
            return g if f else FALSE
        if f == g:
            return f
        key = (f, g)
        table = self._and_table
        hit = table.get(key)
        if hit is not None:
            return hit
        var, lo, hi = self._var, self._lo, self._hi
        vf, vg = var[f], var[g]
        if vf == vg:
            result = self._node(vf, self._and(lo[f], lo[g]),
                                self._and(hi[f], hi[g]))
        elif vf < vg:
            result = self._node(vf, self._and(lo[f], g),
                                self._and(hi[f], g))
        else:
            result = self._node(vg, self._and(f, lo[g]),
                                self._and(f, hi[g]))
        table[key] = result
        return result

    def _or(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f <= TRUE:
            return TRUE if f else g
        if f == g:
            return f
        key = (f, g)
        table = self._or_table
        hit = table.get(key)
        if hit is not None:
            return hit
        var, lo, hi = self._var, self._lo, self._hi
        vf, vg = var[f], var[g]
        if vf == vg:
            result = self._node(vf, self._or(lo[f], lo[g]),
                                self._or(hi[f], hi[g]))
        elif vf < vg:
            result = self._node(vf, self._or(lo[f], g),
                                self._or(hi[f], g))
        else:
            result = self._node(vg, self._or(f, lo[g]),
                                self._or(f, hi[g]))
        table[key] = result
        return result

    def _xor(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f <= TRUE:
            return self._not(g) if f else g
        if f == g:
            return FALSE
        key = (f, g)
        table = self._xor_table
        hit = table.get(key)
        if hit is not None:
            return hit
        var, lo, hi = self._var, self._lo, self._hi
        vf, vg = var[f], var[g]
        if vf == vg:
            result = self._node(vf, self._xor(lo[f], lo[g]),
                                self._xor(hi[f], hi[g]))
        elif vf < vg:
            result = self._node(vf, self._xor(lo[f], g),
                                self._xor(hi[f], g))
        else:
            result = self._node(vg, self._xor(f, lo[g]),
                                self._xor(f, hi[g]))
        table[key] = result
        return result

    def _xnor(self, f: int, g: int) -> int:
        if f > g:
            f, g = g, f
        if f <= TRUE:
            return g if f else self._not(g)
        if f == g:
            return TRUE
        key = (f, g)
        table = self._xnor_table
        hit = table.get(key)
        if hit is not None:
            return hit
        var, lo, hi = self._var, self._lo, self._hi
        vf, vg = var[f], var[g]
        if vf == vg:
            result = self._node(vf, self._xnor(lo[f], lo[g]),
                                self._xnor(hi[f], hi[g]))
        elif vf < vg:
            result = self._node(vf, self._xnor(lo[f], g),
                                self._xnor(hi[f], g))
        else:
            result = self._node(vg, self._xnor(f, lo[g]),
                                self._xnor(f, hi[g]))
        table[key] = result
        return result

    def _not(self, f: int) -> int:
        if f <= TRUE:
            return TRUE - f
        hit = self._not_table.get(f)
        if hit is not None:
            return hit
        result = self._node(self._var[f], self._not(self._lo[f]),
                            self._not(self._hi[f]))
        self._not_table[f] = result
        return result

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``f & g | ~f & h``; the universal connective."""
        if f <= TRUE:
            return g if f else h
        # normalize: f in a branch is a constant there
        if g == f:
            g = TRUE
        if h == f:
            h = FALSE
        if g == h:
            return g
        if h == FALSE:
            return self._and(f, g)
        if g == TRUE:
            return self._or(f, h)
        if g == FALSE and h == TRUE:
            return self._not(f)
        key = (f, g, h)
        hit = self._ite_table.get(key)
        if hit is not None:
            return hit
        var, lo, hi = self._var, self._lo, self._hi
        top = var[f]
        if g > TRUE and var[g] < top:
            top = var[g]
        if h > TRUE and var[h] < top:
            top = var[h]
        if var[f] == top:
            f0, f1 = lo[f], hi[f]
        else:
            f0 = f1 = f
        if g > TRUE and var[g] == top:
            g0, g1 = lo[g], hi[g]
        else:
            g0 = g1 = g
        if h > TRUE and var[h] == top:
            h0, h1 = lo[h], hi[h]
        else:
            h0 = h1 = h
        result = self._node(top, self.ite(f0, g0, h0), self.ite(f1, g1, h1))
        self._ite_table[key] = result
        return result

    # ------------------------------------------------------------------
    # public Boolean connectives
    # ------------------------------------------------------------------
    def not_(self, f: int) -> int:
        return self._not(f)

    def and_(self, *fs: int) -> int:
        acc = TRUE
        for f in fs:
            acc = self._and(acc, f)
        return acc

    def or_(self, *fs: int) -> int:
        acc = FALSE
        for f in fs:
            acc = self._or(acc, f)
        return acc

    def xor(self, f: int, g: int) -> int:
        return self._xor(f, g)

    def xnor(self, f: int, g: int) -> int:
        return self._xnor(f, g)

    def implies(self, f: int, g: int) -> int:
        # ite, not or_(not_(f), g): the complement of f is no part of
        # the result, so building it would only spend nodes
        return self.ite(f, g, TRUE)

    def mux(self, s: int, d0: int, d1: int) -> int:
        return self.ite(s, d1, d0)

    # ------------------------------------------------------------------
    # quantification
    # ------------------------------------------------------------------
    def exists(self, f: int, variables: Iterable[int]) -> int:
        """Existentially quantify ``variables`` out of ``f``."""
        vs = frozenset(variables)
        if not vs:
            return f
        return self._quantify(f, vs, existential=True)

    def forall(self, f: int, variables: Iterable[int]) -> int:
        """Universally quantify ``variables`` out of ``f``."""
        vs = frozenset(variables)
        if not vs:
            return f
        return self._quantify(f, vs, existential=False)

    def _quantify(self, f: int, vs: frozenset, existential: bool) -> int:
        if f <= TRUE:
            return f
        key = (existential, f, vs)
        hit = self._quantify_table.get(key)
        if hit is not None:
            return hit
        v = self._var[f]
        lo = self._quantify(self._lo[f], vs, existential)
        hi = self._quantify(self._hi[f], vs, existential)
        if v in vs:
            result = self._or(lo, hi) if existential else self._and(lo, hi)
        else:
            result = self._node(v, lo, hi)
        self._quantify_table[key] = result
        return result

    # ------------------------------------------------------------------
    # evaluation, counting, enumeration
    # ------------------------------------------------------------------
    def evaluate(self, f: int, assignment: Mapping[int, bool]) -> bool:
        """Evaluate ``f`` under a total assignment of its support."""
        node = f
        while node > TRUE:
            v = self._var[node]
            try:
                branch = assignment[v]
            except KeyError:
                raise BddError(f"assignment misses variable {v}")
            node = self._hi[node] if branch else self._lo[node]
        return node == TRUE

    def support(self, f: int) -> frozenset:
        """Set of variables ``f`` depends on."""
        seen = set()
        sup = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            sup.add(self._var[n])
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return frozenset(sup)

    def size(self, f: int) -> int:
        """Number of nodes reachable from ``f`` (excluding terminals)."""
        seen = set()
        stack = [f]
        count = 0
        while stack:
            n = stack.pop()
            if n <= TRUE or n in seen:
                continue
            seen.add(n)
            count += 1
            stack.append(self._lo[n])
            stack.append(self._hi[n])
        return count

    def satcount(self, f: int, num_vars: Optional[int] = None) -> int:
        """Number of satisfying assignments over ``num_vars`` variables.

        Defaults to the manager's full variable count.  This is the
        'efficient counting of consistent value assignments' the paper
        relies on for the rectification-utility ratio.  Counts are
        memoized per ``num_vars`` for the manager's lifetime, so shared
        sub-BDDs are counted once per session.
        """
        n = self._nvars if num_vars is None else num_vars
        if f == FALSE:
            return 0
        if f == TRUE:
            return 1 << n
        table = self._count_tables.get(n)
        if table is None:
            table = self._count_tables[n] = {}
        count = table.get(f)
        if count is None:
            count = self._count(f, n, table)
        return count << self._var[f]

    def _count(self, f: int, n: int, table: Dict[int, int]) -> int:
        """Post-order count of ``f``'s uncounted nodes under ``n``.

        ``table[node]`` counts the solutions over variables
        ``var(node) .. n-1``.  Each node's variable is range-checked
        when the node is first counted, so a node counted under a
        larger ``num_vars`` is still rejected here.
        """
        var, lo, hi = self._var, self._lo, self._hi
        stack = [f]
        while stack:
            node = stack[-1]
            if node in table:
                stack.pop()
                continue
            v = var[node]
            if v >= n:
                raise BddError(
                    f"num_vars={n} does not cover support variable "
                    f"{max(self.support(f))}")
            low, high = lo[node], hi[node]
            if low > TRUE and low not in table:
                stack.append(low)
                if high > TRUE and high not in table:
                    stack.append(high)
                continue
            if high > TRUE and high not in table:
                stack.append(high)
                continue
            stack.pop()
            total = 0
            if low == TRUE:
                total = 1 << (n - v - 1)
            elif low != FALSE:
                total = table[low] << (var[low] - v - 1)
            if high == TRUE:
                total += 1 << (n - v - 1)
            elif high != FALSE:
                total += table[high] << (var[high] - v - 1)
            table[node] = total
        return table[f]

    def sat_cubes(self, f: int) -> Iterator[Dict[int, bool]]:
        """Generate all satisfying cubes (partial assignments) of ``f``.

        Each cube assigns exactly the variables on one root-to-TRUE
        path; unassigned variables are don't-cares.
        """
        path: Dict[int, bool] = {}

        def walk(node: int) -> Iterator[Dict[int, bool]]:
            if node == FALSE:
                return
            if node == TRUE:
                yield dict(path)
                return
            v = self._var[node]
            path[v] = False
            yield from walk(self._lo[node])
            path[v] = True
            yield from walk(self._hi[node])
            del path[v]

        try:
            yield from walk(f)
        finally:
            del walk  # the same self-reference as in satcount

    def cube(self, assignment: Mapping[int, bool]) -> int:
        """BDD of the conjunction of the given literals."""
        result = TRUE
        for v in sorted(assignment, reverse=True):
            result = self._node(v, FALSE, result) if assignment[v] else \
                self._node(v, result, FALSE)
        return result

    def implies_check(self, f: int, g: int) -> bool:
        """Decide ``f => g`` (i.e. ``f & ~g`` is unsatisfiable).

        Walks the operand pair without building any node.
        """
        var, lo, hi = self._var, self._lo, self._hi
        seen: Set[Tuple[int, int]] = set()
        stack = [(f, g)]
        while stack:
            a, b = stack.pop()
            if a == FALSE or b == TRUE or a == b:
                continue
            if a == TRUE or b == FALSE:
                return False
            if (a, b) in seen:
                continue
            seen.add((a, b))
            va, vb = var[a], var[b]
            if va == vb:
                stack.append((hi[a], hi[b]))
                stack.append((lo[a], lo[b]))
            elif va < vb:
                stack.append((hi[a], b))
                stack.append((lo[a], b))
            else:
                stack.append((a, hi[b]))
                stack.append((a, lo[b]))
        return True

    def _cache_entries(self) -> int:
        tables = [self._and_table, self._or_table, self._xor_table,
                  self._xnor_table, self._not_table, self._ite_table,
                  self._quantify_table, *self._count_tables.values()]
        return sum(len(table) for table in tables)

    def stats(self) -> Dict[str, int]:
        """Session statistics for telemetry (node store never shrinks,
        so ``nodes`` doubles as the session peak)."""
        return {
            "nodes": len(self._var),
            "vars": self._nvars,
            "cache_entries": self._cache_entries(),
        }

    def __repr__(self) -> str:
        return (f"BddManager(vars={self._nvars}, nodes={len(self._var)}, "
                f"cache={self._cache_entries()})")
