"""Unit and property tests for the ROBDD manager."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BddError, BddNodeLimitError
from repro.bdd.manager import FALSE, TRUE, BddManager
from tests.bdd.reference import ReferenceBddManager


def brute_count(fn, n):
    return sum(
        1 for bits in itertools.product([False, True], repeat=n)
        if fn(dict(enumerate(bits)))
    )


@pytest.fixture
def m4() -> BddManager:
    return BddManager(4)


class TestBasics:
    def test_var_and_nvar(self, m4):
        a = m4.var(0)
        assert m4.not_(m4.not_(a)) == a

    def test_unallocated_variable(self, m4):
        with pytest.raises(BddError):
            m4.var(4)

    def test_add_var_grows(self, m4):
        v = m4.add_var()
        assert v == 4
        assert m4.var(4) != FALSE

    def test_canonicity(self, m4):
        a, b = m4.var(0), m4.var(1)
        f1 = m4.and_(a, b)
        f2 = m4.and_(b, a)
        assert f1 == f2  # pointer equality == function equality

    def test_node_limit(self):
        m = BddManager(8, node_limit=10)
        with pytest.raises(BddNodeLimitError):
            acc = TRUE
            for i in range(8):
                acc = m.xor(acc, m.var(i)) if i else m.var(i)


class TestConnectives:
    def test_ite_shortcuts(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.ite(TRUE, a, b) == a
        assert m4.ite(FALSE, a, b) == b
        assert m4.ite(a, b, b) == b
        assert m4.ite(a, TRUE, FALSE) == a

    def test_and_or_units(self, m4):
        a = m4.var(0)
        assert m4.and_() == TRUE
        assert m4.or_() == FALSE
        assert m4.and_(a) == a
        assert m4.or_(a) == a
        assert m4.and_(a, FALSE) == FALSE
        assert m4.or_(a, TRUE) == TRUE

    def test_xor_xnor(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.xor(a, a) == FALSE
        assert m4.xnor(a, a) == TRUE
        assert m4.xor(a, b) == m4.not_(m4.xnor(a, b))

    def test_implies_equiv_mux(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.implies(FALSE, a) == TRUE
        assert m4.implies(a, a) == TRUE
        # equivalence is XNOR: implication both ways
        assert m4.xnor(a, b) == m4.and_(m4.implies(a, b), m4.implies(b, a))
        assert m4.mux(a, b, TRUE) == m4.or_(m4.not_(a), b) or True
        # mux(s, d0, d1) = s ? d1 : d0
        s = m4.var(2)
        assert m4.mux(s, FALSE, TRUE) == s

    def test_implies_check(self, m4):
        a, b = m4.var(0), m4.var(1)
        ab = m4.and_(a, b)
        assert m4.implies_check(ab, a)
        assert not m4.implies_check(a, ab)


class TestEvaluateAndCount:
    def test_evaluate(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.xor(a, b)
        assert m4.evaluate(f, {0: True, 1: False})
        assert not m4.evaluate(f, {0: True, 1: True})

    def test_evaluate_missing_var(self, m4):
        f = m4.and_(m4.var(0), m4.var(1))
        with pytest.raises(BddError):
            m4.evaluate(f, {0: True})

    def test_satcount_simple(self, m4):
        a, b = m4.var(0), m4.var(1)
        assert m4.satcount(FALSE) == 0
        assert m4.satcount(TRUE) == 16
        assert m4.satcount(a) == 8
        assert m4.satcount(m4.and_(a, b)) == 4
        assert m4.satcount(m4.or_(a, b)) == 12

    def test_satcount_explicit_num_vars(self, m4):
        a = m4.var(0)
        assert m4.satcount(a, num_vars=1) == 1
        assert m4.satcount(a, num_vars=2) == 2

    def test_satcount_rejects_uncovered_support(self, m4):
        f = m4.var(3)
        with pytest.raises(BddError):
            m4.satcount(f, num_vars=2)

    def test_counting_leaves_no_reference_cycle(self):
        """satcount and sat_cubes recurse through closures; the manager
        must still be freed by reference counting alone."""
        import gc
        import weakref

        m = BddManager(4)
        f = m.or_(m.and_(m.var(0), m.var(1)), m.var(3))
        assert m.satcount(f) == 10
        assert len(list(m.sat_cubes(f))) == 3
        ref = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            gc.enable()

    def test_support_and_size(self, m4):
        a, c = m4.var(0), m4.var(2)
        f = m4.and_(a, c)
        assert m4.support(f) == frozenset({0, 2})
        assert m4.size(f) == 2
        assert m4.support(TRUE) == frozenset()
        assert m4.size(FALSE) == 0

    def test_sat_cubes_cover(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.or_(a, b)
        cubes = list(m4.sat_cubes(f))
        # every cube satisfies f; together they cover all solutions
        total = 0
        for cube in cubes:
            free = 4 - len(cube)
            total += 1 << free
        assert total == m4.satcount(f)

    def test_cube(self, m4):
        c = m4.cube({0: True, 2: False})
        assert m4.evaluate(c, {0: True, 1: False, 2: False, 3: False})
        assert not m4.evaluate(c, {0: True, 1: False, 2: True, 3: False})
        assert m4.cube({}) == TRUE


class TestQuantification:
    def test_exists(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.and_(a, b)
        assert m4.exists(f, [0]) == b
        assert m4.exists(f, [0, 1]) == TRUE
        assert m4.exists(f, []) == f

    def test_forall(self, m4):
        a, b = m4.var(0), m4.var(1)
        f = m4.or_(a, b)
        assert m4.forall(f, [0]) == b
        assert m4.forall(f, [0, 1]) == FALSE

    def test_quantify_irrelevant_var(self, m4):
        a = m4.var(0)
        assert m4.exists(a, [3]) == a
        assert m4.forall(a, [3]) == a


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 16 - 1))
def test_bdd_matches_truth_table(table):
    """Property: building a 4-var function from its minterms reproduces
    exactly the truth table (evaluate + satcount agree)."""
    m = BddManager(4)
    f = FALSE
    for k in range(16):
        if table >> k & 1:
            cube = m.cube({i: bool(k >> i & 1) for i in range(4)})
            f = m.or_(f, cube)
    for k in range(16):
        want = bool(table >> k & 1)
        got = m.evaluate(f, {i: bool(k >> i & 1) for i in range(4)})
        assert got == want
    assert m.satcount(f) == bin(table).count("1")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 255), st.integers(0, 255))
def test_demorgan_laws_hold(ta, tb):
    """Property: ~(f & g) == ~f | ~g on arbitrary 3-var functions."""
    m = BddManager(3)

    def from_table(t):
        f = FALSE
        for k in range(8):
            if t >> k & 1:
                f = m.or_(f, m.cube({i: bool(k >> i & 1) for i in range(3)}))
        return f

    f, g = from_table(ta), from_table(tb)
    assert m.not_(m.and_(f, g)) == m.or_(m.not_(f), m.not_(g))
    assert m.not_(m.or_(f, g)) == m.and_(m.not_(f), m.not_(g))


# ----------------------------------------------------------------------
# differential tests against the generic-ite connectives
# ----------------------------------------------------------------------
#: connectives whose every new node must be part of their result
CONNECTIVES = ("not", "and", "or", "xor", "xnor", "implies", "mux",
               "ite")
#: n-ary folds keep their partial results, as they always did
OPS = CONNECTIVES + ("and3", "or3", "exists", "forall")


def _apply(m, op, f, g, h, i, n):
    """One step of a random expression program on manager ``m``."""
    if op == "not":
        return m.not_(f)
    if op == "and":
        return m.and_(f, g)
    if op == "or":
        return m.or_(f, g)
    if op == "and3":
        return m.and_(f, g, h)
    if op == "or3":
        return m.or_(f, g, h)
    if op == "xor":
        return m.xor(f, g)
    if op == "xnor":
        return m.xnor(f, g)
    if op == "implies":
        return m.implies(f, g)
    if op == "mux":
        return m.mux(f, g, h)
    if op == "ite":
        return m.ite(f, g, h)
    variables = {i % n, (i // n) % n}
    if op == "exists":
        return m.exists(f, variables)
    return m.forall(f, variables)


def _reachable(m, root):
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if node > TRUE and node not in seen:
            seen.add(node)
            stack.extend((m.low(node), m.high(node)))
    return seen


def _truth_table(m, f, n):
    return [m.evaluate(f, dict(enumerate(bits)))
            for bits in itertools.product([False, True], repeat=n)]


PROGRAMS = st.lists(
    st.tuples(st.sampled_from(OPS), st.integers(0, 2 ** 16),
              st.integers(0, 2 ** 16), st.integers(0, 2 ** 16),
              st.integers(0, 2 ** 16)),
    min_size=1, max_size=24)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 8), PROGRAMS)
def test_connectives_match_generic_ite_reference(n, program):
    """Random expression DAGs built in both managers denote the same
    functions, counts and cubes; every production connective builds
    only nodes of its own result."""
    prod, ref = BddManager(n), ReferenceBddManager(n)
    pools = {m: [FALSE, TRUE] + [m.var(v) for v in range(n)]
             for m in (prod, ref)}
    for op, a, b, c, i in program:
        for m in (prod, ref):
            pool = pools[m]
            f, g, h = (pool[x % len(pool)] for x in (a, b, c))
            before = m.num_nodes
            result = _apply(m, op, f, g, h, i, n)
            if m is prod and op in CONNECTIVES:
                assert set(range(before, m.num_nodes)) <= \
                    _reachable(m, result), op
            pool.append(result)

    for x, y in zip(pools[prod], pools[ref]):
        assert _truth_table(prod, x, n) == _truth_table(ref, y, n)
        top = max(prod.support(x), default=-1)
        for num_vars in sorted({top + 1, n, n + 3}):
            assert prod.satcount(x, num_vars) == ref.satcount(y, num_vars)
        assert list(prod.sat_cubes(x)) == list(ref.sat_cubes(y))
    pairs = list(zip(pools[prod], pools[ref]))
    nodes = prod.num_nodes
    for (x, y), (u, w) in zip(pairs, reversed(pairs)):
        assert prod.implies_check(x, u) == ref.implies_check(y, w)
    assert prod.num_nodes == nodes  # implies_check builds nothing


class TestKernelTables:
    def test_satcount_rejects_uncovered_support_after_larger_count(self):
        for m in (BddManager(4), ReferenceBddManager(4)):
            sub = m.and_(m.var(2), m.var(3))
            f = m.or_(m.var(0), sub)
            assert m.satcount(f, num_vars=4) == 10
            assert m.satcount(f) == 10
            for node in (f, sub):
                with pytest.raises(BddError) as excinfo:
                    m.satcount(node, num_vars=3)
                assert str(excinfo.value) == \
                    "num_vars=3 does not cover support variable 3"
            assert m.satcount(sub, num_vars=5) == 8

    def test_node_limit_stops_every_connective(self):
        for op in CONNECTIVES:
            m = BddManager(8, node_limit=12)
            with pytest.raises(BddNodeLimitError):
                acc = m.var(0)
                for v in range(1, 8):
                    acc = _apply(m, op, acc, m.var(v),
                                 m.not_(m.var(v - 1)), 0, 8)
                    acc = m.xor(acc, m.var(v))
            assert m.num_nodes <= 12

    @staticmethod
    def held_entries(m):
        """Entries of every dict the manager holds besides its unique
        table: the computed tables, nested ones included."""
        total = 0
        for name, value in vars(m).items():
            if isinstance(value, dict) and name != "_unique":
                total += sum(len(v) if isinstance(v, dict) else 1
                             for v in value.values())
        return total

    def test_cache_entries_count_every_table(self):
        m = BddManager(4)
        assert m.stats()["cache_entries"] == 0
        assert "cache=0" in repr(m)
        a, b, c = m.var(0), m.var(1), m.var(2)
        steps = [
            lambda: m.and_(a, b), lambda: m.or_(a, c),
            lambda: m.xor(b, c), lambda: m.xnor(a, c),
            lambda: m.not_(m.and_(b, c)), lambda: m.ite(a, b, c),
            lambda: m.exists(m.xor(a, b), [0]),
            lambda: m.forall(m.or_(b, c), [1]),
            lambda: m.satcount(m.xor(a, c)),
            lambda: m.satcount(m.xor(a, c), num_vars=5),
        ]
        for step in steps:
            before = m.stats()["cache_entries"]
            step()
            assert m.stats()["cache_entries"] > before
        assert m.stats()["cache_entries"] == self.held_entries(m)
