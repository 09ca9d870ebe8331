"""Unit tests for the Bdd operator wrapper."""

import pytest

from repro.errors import BddError
from repro.bdd.expr import Bdd
from repro.bdd.manager import BddManager


@pytest.fixture
def env():
    m = BddManager(3)
    return m, Bdd.variable(m, 0), Bdd.variable(m, 1), Bdd.variable(m, 2)


class TestOperators:
    def test_and_or_xor_invert(self, env):
        m, a, b, c = env
        f = (a & b) | ~c
        assert f.evaluate({0: True, 1: True, 2: True})
        assert not f.evaluate({0: False, 1: True, 2: True})
        assert (a ^ a).is_false
        assert (a | ~a).is_true

    def test_mixing_with_bool_constants(self, env):
        m, a, b, c = env
        assert (a & True) == a
        assert (a & False).is_false
        assert (a | True).is_true
        assert (a ^ True) == ~a

    def test_implies_equiv_ite(self, env):
        m, a, b, c = env
        assert a.implies(a).is_true
        assert ~(a ^ b) == (a.implies(b) & b.implies(a))
        assert a.ite(b, c) == ((a & b) | (~a & c))

    def test_reflected_operators(self, env):
        m, a, b, c = env
        assert (True & a) == a
        assert (False | a) == a

    def test_mixing_managers_rejected(self, env):
        m, a, b, c = env
        other = Bdd.variable(BddManager(1), 0)
        with pytest.raises(BddError):
            a & other

    def test_bool_coercion_raises(self, env):
        m, a, b, c = env
        with pytest.raises(BddError):
            bool(a)

    def test_bad_operand(self, env):
        m, a, b, c = env
        with pytest.raises(BddError):
            a & "nope"


class TestQueries:
    def test_constructors(self, env):
        m, a, b, c = env
        assert Bdd.true(m).is_true
        assert Bdd.false(m).is_false

    def test_satcount_and_support(self, env):
        m, a, b, c = env
        f = a & b
        assert f.satcount() == 2
        assert f.satcount(2) == 1
        assert f.support() == frozenset({0, 1})
        assert f.size() == 2

    def test_quantifiers(self, env):
        m, a, b, c = env
        f = a & b
        assert f.exists([0]) == b
        assert f.forall([0]).is_false

    def test_hash_and_eq(self, env):
        m, a, b, c = env
        assert (a & b) == (b & a)
        assert len({a & b, b & a}) == 1
        assert (a == "x") is False or True  # NotImplemented path

    def test_repr(self, env):
        m, a, b, c = env
        assert "node" in repr(a)
