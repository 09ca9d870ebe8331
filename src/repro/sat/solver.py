"""A CDCL SAT solver.

Implements the conflict-driven clause-learning architecture of MiniSAT:

* two-watched-literal unit propagation;
* VSIDS variable activity with exponential decay and phase saving;
* first-UIP conflict analysis with recursive clause minimization;
* geometric restarts;
* activity-driven learned-clause database reduction;
* incremental solving under assumptions;
* conflict budgets (returns :data:`UNKNOWN` when exhausted).

Literals use the DIMACS convention at the API boundary: variables are
positive integers from :meth:`Solver.new_var`, a negative integer is
the negated literal.  Internally literals are ``2*var + sign``.

Clause storage is a *flat arena* (``_ca``): one growable int list
holding every clause as ``[header, lit, lit, ...]``, where the header
packs ``size << 2 | learnt << 1 | deleted``.  A clause reference is
its arena offset — watcher lists, reasons and the clause databases are
plain int lists — so propagation walks contiguous integers instead of
chasing per-clause Python objects.  Learned-clause reduction *marks*
clauses deleted in one pass (watchers drop them lazily on the next
visit) and the arena is compacted when more than half of it is dead.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.errors import SatError

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

_UNDEF = -1
#: clause-reference sentinel: "no clause" (reasons, conflict results)
_NO_CLAUSE = -1

# header bit layout of an arena clause
_DELETED_BIT = 1
_LEARNT_BIT = 2
_SIZE_SHIFT = 2


def _mklit(var: int, negative: bool) -> int:
    return (var << 1) | int(negative)


def _lit_var(lit: int) -> int:
    return lit >> 1


def _lit_neg(lit: int) -> int:
    return lit ^ 1


class Solver:
    """Incremental CDCL solver.

    Typical use::

        s = Solver()
        a, b = s.new_var(), s.new_var()
        s.add_clause([a, b])
        s.add_clause([-a, b])
        assert s.solve() == SAT
        assert s.model_value(b) is True
    """

    def __init__(self):
        self._num_vars = 0
        #: flat clause arena: [header, lit, lit, ...] per clause
        self._ca: List[int] = []
        #: arena ints occupied by deleted clauses (compaction trigger)
        self._wasted = 0
        self._clauses: List[int] = []  # problem-clause offsets
        self._learnts: List[int] = []  # learnt-clause offsets
        self._watches: List[List[int]] = []  # per internal literal
        self._assign: List[int] = []  # per var: 1 true, 0 false, -1 undef
        self._level: List[int] = []
        self._reason: List[int] = []  # per var: clause offset or -1
        self._trail: List[int] = []  # internal literals in assignment order
        self._trail_lim: List[int] = []
        self._qhead = 0
        self._activity: List[float] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._cla_act: Dict[int, float] = {}  # learnt offset -> activity
        self._saved_phase: List[bool] = []
        # indexed binary max-heap over variable activity (the MiniSAT
        # order heap): _heap holds vars, _heap_pos maps var -> slot
        # (-1 when absent).  Stale assigned vars are skipped lazily in
        # _pick_branch and re-inserted on backtrack.
        self._heap: List[int] = []
        self._heap_pos: List[int] = []
        self._ok = True
        self._model: List[int] = []
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self._assumption_levels: List[int] = []
        self._core: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # clause arena
    # ------------------------------------------------------------------
    def _alloc(self, lits: Sequence[int], learnt: bool) -> int:
        """Append a clause to the arena; returns its offset."""
        ca = self._ca
        offset = len(ca)
        ca.append((len(lits) << _SIZE_SHIFT)
                  | (_LEARNT_BIT if learnt else 0))
        ca.extend(lits)
        return offset

    def _clause_lits(self, offset: int) -> List[int]:
        ca = self._ca
        return ca[offset + 1:offset + 1 + (ca[offset] >> _SIZE_SHIFT)]

    def _compact(self) -> None:
        """Rebuild the arena without deleted clauses, remapping every
        stored offset (databases, watchers, reasons, activities)."""
        ca = self._ca
        new_ca: List[int] = []
        remap: Dict[int, int] = {}
        for group in (self._clauses, self._learnts):
            for c in group:
                header = ca[c]
                remap[c] = len(new_ca)
                new_ca.append(header)
                new_ca.extend(ca[c + 1:c + 1 + (header >> _SIZE_SHIFT)])
        self._clauses = [remap[c] for c in self._clauses]
        self._learnts = [remap[c] for c in self._learnts]
        self._cla_act = {
            remap[c]: a for c, a in self._cla_act.items() if c in remap
        }
        self._reason = [
            remap[r] if r >= 0 else _NO_CLAUSE for r in self._reason
        ]
        watches = self._watches
        for w in range(len(watches)):
            watches[w] = [
                remap[c] for c in watches[w] if not ca[c] & _DELETED_BIT
            ]
        self._ca = new_ca
        self._wasted = 0

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a variable; returns its positive DIMACS id."""
        self._num_vars += 1
        self._assign.append(_UNDEF)
        self._level.append(0)
        self._reason.append(_NO_CLAUSE)
        self._activity.append(0.0)
        self._saved_phase.append(False)
        var = self._num_vars - 1
        self._heap_pos.append(len(self._heap))
        self._heap.append(var)
        self._heap_up(len(self._heap) - 1)
        self._watches.append([])
        self._watches.append([])
        return self._num_vars

    @property
    def num_vars(self) -> int:
        return self._num_vars

    def _to_internal(self, dimacs_lit: int) -> int:
        var = abs(dimacs_lit) - 1
        if dimacs_lit == 0 or var >= self._num_vars:
            raise SatError(f"bad literal {dimacs_lit}")
        return _mklit(var, dimacs_lit < 0)

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause of DIMACS literals; returns False if trivially UNSAT.

        Must be called at decision level 0 (i.e. between solve calls).
        """
        if self._trail_lim:
            raise SatError("add_clause while solving")
        if not self._ok:
            return False
        internal = sorted({self._to_internal(l) for l in lits})
        # remove duplicate/complementary literals and satisfied clauses
        out: List[int] = []
        prev = None
        for lit in internal:
            if prev is not None and lit == _lit_neg(prev):
                return True  # tautology
            val = self._value(lit)
            if val == 1:
                return True  # already satisfied at level 0
            if val == _UNDEF:
                out.append(lit)
            prev = lit
        if not out:
            self._ok = False
            return False
        if len(out) == 1:
            if not self._enqueue(out[0], _NO_CLAUSE):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict != _NO_CLAUSE:
                self._ok = False
                return False
            return True
        offset = self._alloc(out, learnt=False)
        self._clauses.append(offset)
        self._attach(offset)
        return True

    def _attach(self, offset: int) -> None:
        ca = self._ca
        self._watches[_lit_neg(ca[offset + 1])].append(offset)
        self._watches[_lit_neg(ca[offset + 2])].append(offset)

    # ------------------------------------------------------------------
    # assignment primitives
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> int:
        """1 true, 0 false, -1 undef for an internal literal."""
        v = self._assign[_lit_var(lit)]
        if v == _UNDEF:
            return _UNDEF
        return v ^ (lit & 1)

    def _enqueue(self, lit: int, reason: int) -> bool:
        val = self._value(lit)
        if val != _UNDEF:
            return val == 1
        var = _lit_var(lit)
        self._assign[var] = 1 - (lit & 1)
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    def _propagate(self) -> int:
        """Unit propagation; returns a conflicting clause offset or
        :data:`_NO_CLAUSE`.

        Literal values are computed inline from the assignment array
        (``assign[var] ^ sign``) instead of through :meth:`_value`, and
        clauses are walked directly in the flat arena: this loop
        dominates solver runtime.  Clauses marked deleted by
        :meth:`_reduce_db` are dropped from the watcher list here,
        lazily, on their first visit.
        """
        assign = self._assign
        watches = self._watches
        trail = self._trail
        ca = self._ca
        qhead = self._qhead
        props = 0
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            props += 1
            watchers = watches[lit]
            watches[lit] = []
            kept: List[int] = []
            i = 0
            n = len(watchers)
            false_lit = lit ^ 1
            while i < n:
                offset = watchers[i]
                i += 1
                header = ca[offset]
                if header & 1:  # _DELETED_BIT
                    continue  # reduced away; unhook lazily
                # ensure the false literal is in slot 1
                first = ca[offset + 1]
                if first == false_lit:
                    first = ca[offset + 2]
                    ca[offset + 1] = first
                    ca[offset + 2] = false_lit
                fv = assign[first >> 1]
                if fv >= 0 and (fv ^ (first & 1)) == 1:
                    kept.append(offset)
                    continue
                # search replacement watch (any non-false literal)
                found = False
                for k in range(offset + 3, offset + 1 + (header >> 2)):
                    other = ca[k]
                    ov = assign[other >> 1]
                    if ov < 0 or (ov ^ (other & 1)) == 1:
                        ca[offset + 2] = other
                        ca[k] = false_lit
                        watches[other ^ 1].append(offset)
                        found = True
                        break
                if found:
                    continue
                # clause is unit or conflicting
                kept.append(offset)
                if not self._enqueue(first, offset):
                    # conflict: restore remaining watchers
                    kept.extend(watchers[i:])
                    watches[lit].extend(kept)
                    self._qhead = len(trail)
                    self.propagations += props
                    return offset
            watches[lit].extend(kept)
        self._qhead = qhead
        self.propagations += props
        return _NO_CLAUSE

    def _decision_level(self) -> int:
        return len(self._trail_lim)

    def _new_decision_level(self) -> None:
        self._trail_lim.append(len(self._trail))

    def _cancel_until(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = _lit_var(lit)
            self._saved_phase[var] = self._assign[var] == 1
            self._assign[var] = _UNDEF
            self._reason[var] = _NO_CLAUSE
            self._heap_insert(var)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    # ------------------------------------------------------------------
    # order heap (vars keyed by activity)
    # ------------------------------------------------------------------
    def _heap_up(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        var = heap[i]
        a = act[var]
        while i > 0:
            parent = (i - 1) >> 1
            pvar = heap[parent]
            if act[pvar] >= a:
                break
            heap[i] = pvar
            pos[pvar] = i
            i = parent
        heap[i] = var
        pos[var] = i

    def _heap_down(self, i: int) -> None:
        heap, pos, act = self._heap, self._heap_pos, self._activity
        n = len(heap)
        var = heap[i]
        a = act[var]
        while True:
            child = 2 * i + 1
            if child >= n:
                break
            right = child + 1
            if right < n and act[heap[right]] > act[heap[child]]:
                child = right
            cvar = heap[child]
            if act[cvar] <= a:
                break
            heap[i] = cvar
            pos[cvar] = i
            i = child
        heap[i] = var
        pos[var] = i

    def _heap_insert(self, var: int) -> None:
        if self._heap_pos[var] != -1:
            return
        self._heap_pos[var] = len(self._heap)
        self._heap.append(var)
        self._heap_up(len(self._heap) - 1)

    # ------------------------------------------------------------------
    # conflict analysis
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            # uniform rescale preserves the heap order
            for i in range(self._num_vars):
                self._activity[i] *= 1e-100
            self._var_inc *= 1e-100
        pos = self._heap_pos[var]
        if pos != -1:
            self._heap_up(pos)

    def _bump_clause(self, offset: int) -> None:
        act = self._cla_act
        value = act.get(offset, 0.0) + self._cla_inc
        act[offset] = value
        if value > 1e20:
            for c in self._learnts:
                if c in act:
                    act[c] *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: int) -> (List[int], int):
        """First-UIP learning; returns (learnt clause, backtrack level)."""
        ca = self._ca
        learnt: List[int] = [0]  # slot 0 for the asserting literal
        seen = [False] * self._num_vars
        counter = 0
        lit: Optional[int] = None
        index = len(self._trail) - 1
        reason = conflict

        while True:
            assert reason != _NO_CLAUSE
            header = ca[reason]
            if header & _LEARNT_BIT:
                self._bump_clause(reason)
            for qi in range(reason + 1,
                            reason + 1 + (header >> _SIZE_SHIFT)):
                q = ca[qi]
                if lit is not None and q == lit:
                    continue  # skip the literal being resolved on
                var = _lit_var(q)
                if not seen[var] and self._level[var] > 0:
                    seen[var] = True
                    self._bump_var(var)
                    if self._level[var] == self._decision_level():
                        counter += 1
                    else:
                        learnt.append(q)
            # pick next literal to resolve on
            while not seen[_lit_var(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = _lit_var(lit)
            seen[var] = False
            counter -= 1
            if counter == 0:
                learnt[0] = _lit_neg(lit)
                # restore marks for the minimization step
                for q in learnt[1:]:
                    seen[_lit_var(q)] = True
                break
            reason = self._reason[var]

        # clause minimization: drop literals implied by the rest
        abstract = 0
        for q in learnt[1:]:
            abstract |= 1 << (self._level[_lit_var(q)] & 31)
        minimized = [learnt[0]]
        for q in learnt[1:]:
            if self._reason[_lit_var(q)] == _NO_CLAUSE or \
                    not self._redundant(q, seen, abstract):
                minimized.append(q)
        learnt = minimized

        # compute backtrack level
        if len(learnt) == 1:
            bt = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                if self._level[_lit_var(learnt[i])] > \
                        self._level[_lit_var(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            bt = self._level[_lit_var(learnt[1])]
        return learnt, bt

    def _to_dimacs(self, lit: int) -> int:
        var = _lit_var(lit) + 1
        return -var if lit & 1 else var

    def _analyze_final(self, seeds: List[int]) -> List[int]:
        """Assumption literals responsible for falsifying ``seeds``.

        The standard analyze-final: walk the implication trail
        backwards from the seed variables; decisions reached (which,
        under assumptions, are exactly the assumption literals) form
        the core.
        """
        ca = self._ca
        seen = set()
        for lit in seeds:
            if self._level[_lit_var(lit)] > 0:
                seen.add(_lit_var(lit))
        core: List[int] = []
        for tlit in reversed(self._trail):
            var = _lit_var(tlit)
            if var not in seen:
                continue
            reason = self._reason[var]
            if reason == _NO_CLAUSE:
                core.append(self._to_dimacs(tlit))
            else:
                for qi in range(reason + 1,
                                reason + 1
                                + (ca[reason] >> _SIZE_SHIFT)):
                    qvar = _lit_var(ca[qi])
                    if qvar != var and self._level[qvar] > 0:
                        seen.add(qvar)
        return core

    def unsat_core(self) -> Optional[List[int]]:
        """Subset of the last solve's assumptions proven contradictory.

        ``None`` when the last solve was SAT/UNKNOWN or the formula is
        unsatisfiable without any assumptions (empty core is returned
        as ``[]`` in that case).  The core is not guaranteed minimal.
        """
        return self._core

    def _redundant(self, lit: int, seen: List[bool], abstract: int) -> bool:
        """Is ``lit`` implied by other marked literals (minimization)?"""
        ca = self._ca
        stack = [lit]
        top_seen = dict()
        while stack:
            p = stack.pop()
            reason = self._reason[_lit_var(p)]
            if reason == _NO_CLAUSE:
                return False
            for qi in range(reason + 2,
                            reason + 1 + (ca[reason] >> _SIZE_SHIFT)):
                q = ca[qi]
                var = _lit_var(q)
                if seen[var] or top_seen.get(var) or self._level[var] == 0:
                    continue
                if self._reason[var] == _NO_CLAUSE or \
                        not (abstract >> (self._level[var] & 31)) & 1:
                    return False
                top_seen[var] = True
                stack.append(q)
        return True

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def _pick_branch(self) -> int:
        heap, pos = self._heap, self._heap_pos
        assign = self._assign
        while heap:
            var = heap[0]
            last = heap.pop()
            pos[var] = -1
            if heap:
                heap[0] = last
                pos[last] = 0
                self._heap_down(0)
            if assign[var] == _UNDEF:
                return _mklit(var, not self._saved_phase[var])
        return -1

    def _reduce_db(self) -> None:
        """Drop the least active half of learned clauses.

        Clauses are *marked* deleted (header bit) in one pass over the
        learnt database; watcher lists shed them lazily during
        propagation, so reduction never rescans every watcher list.
        The arena is compacted once deleted clauses occupy more than
        half of it.
        """
        ca = self._ca
        act = self._cla_act
        self._learnts.sort(key=lambda c: act.get(c, 0.0))
        keep_from = len(self._learnts) // 2
        locked = set()
        for var in range(self._num_vars):
            r = self._reason[var]
            if r != _NO_CLAUSE and ca[r] & _LEARNT_BIT:
                locked.add(r)
        kept = []
        for i, c in enumerate(self._learnts):
            header = ca[c]
            if i < keep_from and (header >> _SIZE_SHIFT) > 2 \
                    and c not in locked:
                ca[c] = header | _DELETED_BIT
                self._wasted += (header >> _SIZE_SHIFT) + 1
                act.pop(c, None)
            else:
                kept.append(c)
        self._learnts = kept
        if self._wasted * 2 > len(ca):
            self._compact()

    def solve(self, assumptions: Sequence[int] = (),
              conflict_budget: Optional[int] = None) -> str:
        """Run the CDCL search.

        Args:
            assumptions: DIMACS literals assumed true for this call.
            conflict_budget: give up (returning :data:`UNKNOWN`) after
                this many conflicts.

        Returns:
            :data:`SAT`, :data:`UNSAT` or :data:`UNKNOWN`.
        """
        if not self._ok:
            self._core = []
            return UNSAT
        self._model = []
        self._core = None
        self._cancel_until(0)
        self._assumption_levels = []
        conflict = self._propagate()
        if conflict != _NO_CLAUSE:
            self._ok = False
            self._core = []
            return UNSAT

        budget_left = conflict_budget
        restart_limit = 100
        max_learnts = max(1000, len(self._clauses) // 3)
        assumption_lits = [self._to_internal(l) for l in assumptions]

        while True:
            conflict = self._propagate()
            if conflict != _NO_CLAUSE:
                self.conflicts += 1
                if budget_left is not None:
                    budget_left -= 1
                    if budget_left <= 0:
                        self._cancel_until(0)
                        return UNKNOWN
                if self._decision_level() == 0:
                    self._ok = False
                    self._core = []
                    return UNSAT
                if self._decision_level() <= len(self._assumption_levels):
                    # conflict among assumptions: extract the core
                    self._core = self._analyze_final(
                        self._clause_lits(conflict))
                    self._cancel_until(0)
                    return UNSAT
                learnt, bt = self._analyze(conflict)
                bt = max(bt, len(self._assumption_levels))
                self._cancel_until(bt)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], _NO_CLAUSE)
                else:
                    offset = self._alloc(learnt, learnt=True)
                    self._learnts.append(offset)
                    self._attach(offset)
                    self._bump_clause(offset)
                    self._enqueue(learnt[0], offset)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay
                restart_limit -= 1
                if restart_limit <= 0:
                    restart_limit = 100
                    self._cancel_until(len(self._assumption_levels))
                if len(self._learnts) > max_learnts:
                    self._reduce_db()
                    max_learnts = int(max_learnts * 1.3)
            else:
                # extend assumptions first
                if len(self._assumption_levels) < len(assumption_lits):
                    lit = assumption_lits[len(self._assumption_levels)]
                    val = self._value(lit)
                    if val == 0:
                        # the assumption is already falsified: blame it
                        # plus the assumptions that implied its negation
                        core = self._analyze_final([lit])
                        wanted = self._to_dimacs(lit)
                        if wanted not in core:
                            core.append(wanted)
                        self._core = core
                        self._cancel_until(0)
                        return UNSAT
                    self._new_decision_level()
                    self._assumption_levels.append(self._decision_level())
                    if val == _UNDEF:
                        self._enqueue(lit, _NO_CLAUSE)
                    continue
                lit = self._pick_branch()
                if lit == -1:
                    # full model found
                    self._model = list(self._assign)
                    self._cancel_until(0)
                    return SAT
                self.decisions += 1
                self._new_decision_level()
                self._enqueue(lit, _NO_CLAUSE)

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------
    def model_value(self, dimacs_lit: int) -> Optional[bool]:
        """Value of a literal in the last SAT model (None if unassigned)."""
        if not self._model:
            raise SatError("no model available (last solve was not SAT)")
        var = abs(dimacs_lit) - 1
        if var >= len(self._model):
            raise SatError(f"unknown variable in literal {dimacs_lit}")
        v = self._model[var]
        if v == _UNDEF:
            return None
        value = bool(v)
        return value if dimacs_lit > 0 else not value

    def model(self) -> Dict[int, bool]:
        """The last SAT model as ``{var: value}``."""
        if not self._model:
            raise SatError("no model available (last solve was not SAT)")
        return {
            v + 1: bool(val)
            for v, val in enumerate(self._model) if val != _UNDEF
        }
