"""Unit and property tests for prime-cube enumeration."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.cube import Cube
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.bdd.primes import enumerate_primes, expand_to_prime


def from_table(m: BddManager, table: int, n: int) -> int:
    f = FALSE
    for k in range(1 << n):
        if table >> k & 1:
            f = m.or_(f, m.cube({i: bool(k >> i & 1) for i in range(n)}))
    return f


class TestExpandToPrime:
    def test_minterm_expands(self):
        m = BddManager(3)
        a, b = m.var(0), m.var(1)
        f = m.and_(a, b)  # only prime: a & b
        seed = Cube({0: True, 1: True, 2: True})
        prime = expand_to_prime(m, seed, f)
        assert prime == Cube({0: True, 1: True})

    def test_non_implicant_rejected(self):
        m = BddManager(2)
        f = m.var(0)
        with pytest.raises(ValueError):
            expand_to_prime(m, Cube({1: True}), f)

    def test_tautology_expands_to_empty_cube(self):
        m = BddManager(2)
        prime = expand_to_prime(m, Cube({0: True, 1: False}), TRUE)
        assert len(prime) == 0

    def test_drop_order_respected(self):
        m = BddManager(2)
        f = m.or_(m.var(0), m.var(1))  # a | b
        seed = Cube({0: True, 1: True})
        # dropping 1 first leaves prime a; dropping 0 first leaves prime b
        assert expand_to_prime(m, seed, f, drop_order=[1, 0]) == \
            Cube({0: True})
        assert expand_to_prime(m, seed, f, drop_order=[0, 1]) == \
            Cube({1: True})


class TestEnumeratePrimes:
    def test_known_function(self):
        m = BddManager(4)
        a, b, c, d = (m.var(i) for i in range(4))
        f = m.or_(m.and_(a, b), m.and_(c, d))
        primes = set(enumerate_primes(m, f))
        assert primes == {Cube({0: True, 1: True}),
                          Cube({2: True, 3: True})}

    def test_limit(self):
        m = BddManager(4)
        f = m.or_(*(m.var(i) for i in range(4)))
        assert len(list(enumerate_primes(m, f, limit=2))) == 2

    def test_false_has_no_primes(self):
        m = BddManager(2)
        assert list(enumerate_primes(m, FALSE)) == []

    def test_true_single_empty_prime(self):
        m = BddManager(2)
        primes = list(enumerate_primes(m, TRUE))
        assert primes == [Cube({})]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 255))
def test_primes_cover_and_imply(table):
    """Property: each prime implies f; the primes together cover f."""
    m = BddManager(3)
    f = from_table(m, table, 3)
    primes = list(enumerate_primes(m, f))
    cover = FALSE
    for p in primes:
        node = p.to_bdd(m)
        assert m.implies_check(node, f)
        # primality: dropping any literal breaks the implication
        for v, _ in p:
            weakened = p.without(v).to_bdd(m)
            assert not m.implies_check(weakened, f)
        cover = m.or_(cover, node)
    assert cover == f


class TestCube:
    def test_literals_and_access(self):
        c = Cube({3: True, 1: False})
        assert len(c) == 2
        assert c.value(3) is True
        assert 1 in c and 2 not in c
        with pytest.raises(KeyError):
            c.value(2)

    def test_without_and_restrict(self):
        c = Cube({0: True, 1: False, 2: True})
        assert c.without(1) == Cube({0: True, 2: True})
        assert c.without(3) == c

    def test_hash_eq_repr(self):
        assert Cube({0: True}) == Cube({0: True})
        assert len({Cube({0: True}), Cube({0: True})}) == 1
        assert "v0" in repr(Cube({0: True}))
        assert repr(Cube({})) == "Cube(1)"
