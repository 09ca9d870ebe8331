"""Unit and property tests for the CDCL SAT solver."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SatError
from repro.sat.solver import SAT, UNKNOWN, UNSAT, Solver


def brute_force_sat(n, clauses):
    for bits in itertools.product([False, True], repeat=n):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in c)
               for c in clauses):
            return True
    return False


def make_solver(n, clauses):
    s = Solver()
    for _ in range(n):
        s.new_var()
    for c in clauses:
        s.add_clause(c)
    return s


def pigeonhole(n_pigeons, n_holes):
    s = Solver()
    p = {}
    for i in range(n_pigeons):
        for h in range(n_holes):
            p[i, h] = s.new_var()
    for i in range(n_pigeons):
        s.add_clause([p[i, h] for h in range(n_holes)])
    for h in range(n_holes):
        for i in range(n_pigeons):
            for j in range(i + 1, n_pigeons):
                s.add_clause([-p[i, h], -p[j, h]])
    return s


class TestBasics:
    def test_empty_problem_is_sat(self):
        assert Solver().solve() == SAT

    def test_unit_clauses(self):
        s = make_solver(2, [[1], [-2]])
        assert s.solve() == SAT
        assert s.model_value(1) is True
        assert s.model_value(2) is False

    def test_contradiction(self):
        s = make_solver(1, [[1], [-1]])
        assert s.solve() == UNSAT

    def test_tautology_ignored(self):
        s = make_solver(2, [[1, -1], [2]])
        assert s.solve() == SAT

    def test_duplicate_literals_collapsed(self):
        s = make_solver(1, [[1, 1, 1]])
        assert s.solve() == SAT
        assert s.model_value(1) is True

    def test_empty_clause_unsat(self):
        s = Solver()
        s.new_var()
        assert s.add_clause([]) is False
        assert s.solve() == UNSAT

    def test_bad_literal(self):
        s = Solver()
        s.new_var()
        with pytest.raises(SatError):
            s.add_clause([0])
        with pytest.raises(SatError):
            s.add_clause([5])

    def test_model_without_sat(self):
        s = make_solver(1, [[1], [-1]])
        s.solve()
        with pytest.raises(SatError):
            s.model()

    def test_model_mapping(self):
        s = make_solver(3, [[1, 2], [-1], [3]])
        assert s.solve() == SAT
        model = s.model()
        assert model[1] is False
        assert model[2] is True
        assert model[3] is True


class TestConflictDriven:
    def test_pigeonhole_unsat(self):
        s = pigeonhole(5, 4)
        assert s.solve() == UNSAT
        assert s.conflicts > 0

    def test_pigeonhole_sat(self):
        s = pigeonhole(4, 4)
        assert s.solve() == SAT

    def test_learning_restarts_and_reduction(self):
        # large enough to trigger restarts (every 100 conflicts)
        s = pigeonhole(7, 6)
        assert s.solve() == UNSAT
        assert s.conflicts > 100

    def test_budget_unknown(self):
        s = pigeonhole(7, 6)
        assert s.solve(conflict_budget=5) == UNKNOWN
        # solver remains usable afterwards
        assert s.solve() == UNSAT

    def test_solver_unusable_after_unsat(self):
        s = make_solver(1, [[1], [-1]])
        assert s.solve() == UNSAT
        assert s.solve() == UNSAT


class TestAssumptions:
    def test_assumption_forces_branch(self):
        s = make_solver(2, [[1, 2]])
        assert s.solve(assumptions=[-1]) == SAT
        assert s.model_value(2) is True

    def test_conflicting_assumptions(self):
        s = make_solver(2, [[1, 2]])
        assert s.solve(assumptions=[-1, -2]) == UNSAT
        # without assumptions still SAT
        assert s.solve() == SAT

    def test_assumption_contradicting_unit(self):
        s = make_solver(1, [[1]])
        assert s.solve(assumptions=[-1]) == UNSAT
        assert s.solve(assumptions=[1]) == SAT

    def test_incremental_reuse(self):
        s = make_solver(3, [[1, 2, 3]])
        for lits, expect in [([-1, -2], SAT), ([-1, -2, -3], UNSAT),
                             ([3], SAT)]:
            assert s.solve(assumptions=lits) == expect

    def test_add_clause_between_solves(self):
        s = make_solver(2, [[1, 2]])
        assert s.solve() == SAT
        s.add_clause([-1])
        s.add_clause([-2])
        assert s.solve() == UNSAT


class TestRandomized:
    def test_random_3cnf_matches_brute_force(self):
        rng = random.Random(20190602)
        for _ in range(120):
            n = rng.randint(1, 9)
            m = rng.randint(1, 40)
            clauses = []
            for _ in range(m):
                k = min(rng.randint(1, 3), n)
                vs = rng.sample(range(1, n + 1), k)
                clauses.append([v if rng.random() < 0.5 else -v
                                for v in vs])
            s = make_solver(n, clauses)
            expect = SAT if brute_force_sat(n, clauses) else UNSAT
            got = s.solve()
            assert got == expect, clauses
            if got == SAT:
                model = s.model()
                assert all(
                    any(model.get(abs(l), False) == (l > 0) for l in c)
                    for c in clauses
                ), clauses


@settings(max_examples=40, deadline=None)
@given(st.lists(
    st.lists(st.integers(-5, 5).filter(lambda x: x != 0),
             min_size=1, max_size=4),
    min_size=1, max_size=25))
def test_solver_agrees_with_brute_force(clauses):
    """Property: CDCL result equals exhaustive enumeration."""
    n = 5
    s = make_solver(n, clauses)
    expect = SAT if brute_force_sat(n, clauses) else UNSAT
    assert s.solve() == expect


class TestClauseArena:
    """The flat-arena clause store: lazy deletion and compaction."""

    @staticmethod
    def _php(pigeons, holes):
        """Pigeonhole CNF: enough conflicts to trigger reductions."""
        s = Solver()
        v = [[s.new_var() for _ in range(holes)]
             for _ in range(pigeons)]
        for p in range(pigeons):
            s.add_clause(v[p])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    s.add_clause([-v[p1][h], -v[p2][h]])
        return s

    def test_arena_layout(self):
        s = Solver()
        a, b, c = s.new_var(), s.new_var(), s.new_var()
        assert s.add_clause([a, -b, c])
        [offset] = s._clauses
        header = s._ca[offset]
        assert header >> 2 == 3          # size
        assert not header & 2            # not learnt
        assert not header & 1            # not deleted
        lits = s._ca[offset + 1:offset + 4]
        assert sorted(lits) == sorted(
            [(a - 1) << 1, ((b - 1) << 1) | 1, (c - 1) << 1])

    def test_reduce_marks_deleted_and_watchers_shed_lazily(self):
        s = self._php(6, 5)
        assert s.solve() == UNSAT
        ca = s._ca
        # live databases never reference a deleted clause
        for offset in s._clauses + s._learnts:
            assert not ca[offset] & 1
        # any deleted offsets still hooked into watcher lists are
        # dropped on the next propagation visit, not corrupted
        for watchers in s._watches:
            for offset in watchers:
                assert ca[offset] >> 2 >= 2

    def test_reduction_halves_learnt_db(self):
        s = self._php(7, 6)
        assert s.solve() == UNSAT
        before = len(s._learnts)
        # simulate activity spread, then reduce directly
        s._reduce_db()
        after = len(s._learnts)
        assert after <= before
        for offset in s._learnts:
            assert not s._ca[offset] & 1

    def test_compaction_preserves_state(self):
        s = self._php(6, 5)
        assert s.solve() == UNSAT
        model_clauses = [s._clause_lits(c) for c in s._clauses]
        s._compact()
        assert s._wasted == 0
        assert [s._clause_lits(c) for c in s._clauses] == model_clauses
        for offset in s._clauses + s._learnts:
            assert not s._ca[offset] & 1
        # solver still functional after compaction
        assert s.solve() == UNSAT

    def test_locked_reasons_survive_reduction(self):
        s = Solver()
        vs = [s.new_var() for _ in range(4)]
        s.add_clause(vs)
        assert s.solve() == SAT
        # fabricate a learnt clause locked as a reason
        lits = [(v - 1) << 1 for v in vs[:3]]
        offset = s._alloc(lits, learnt=True)
        s._learnts.append(offset)
        s._attach(offset)
        s._reason[0] = offset
        s._cla_act[offset] = 0.0
        # pad with higher-activity learnts so the locked one is in the
        # drop half
        for k in range(9):
            extra = s._alloc(lits, learnt=True)
            s._learnts.append(extra)
            s._attach(extra)
            s._cla_act[extra] = 1.0 + k
        s._reduce_db()
        assert offset in s._learnts
        assert not s._ca[offset] & 1
        s._reason[0] = -1

    def test_binary_learnts_never_dropped(self):
        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        lits = [(a - 1) << 1, ((b - 1) << 1) | 1]
        kept = []
        for k in range(10):
            offset = s._alloc(lits, learnt=True)
            s._learnts.append(offset)
            s._attach(offset)
            s._cla_act[offset] = float(k)
            kept.append(offset)
        s._reduce_db()
        assert sorted(s._learnts) == sorted(kept)
