"""Bit-parallel circuit simulation.

Simulation words pack 64 input patterns into a Python integer (bit ``k``
of every word belongs to pattern ``k``).  One topological pass evaluates
all 64 patterns at once, which is the workhorse behind the error-domain
sampling of Section 5.1, the rectification-utility heuristic of Section
4.3 and simulation-guided equivalence sweeping.

Hot callers go through a :class:`CompiledPlan`: the per-gate dictionary
walk is compiled once per circuit into flat integer-indexed opcode and
fanin arrays, and evaluation packs ``W`` 64-bit words into one big
integer per net (Python's bignum bitwise ops run in C regardless of
width), so a whole multi-word batch costs a single topological pass.
Plans are cached on the circuit's derived-data cache and recompiled
transparently after any mutation.

Every evaluation runs that one pure-Python loop.  The NumPy kernels of
:mod:`repro.netlist.simd` are reached only through
:meth:`CompiledPlan.run_lanes`, which imports them on first use, so a
run never loads NumPy.
"""

from __future__ import annotations

import random
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import NetlistError
from repro.netlist.circuit import Circuit
from repro.netlist.gate import WORD_BITS, WORD_MASK, GateType
from repro.netlist.traverse import topological_order

# CompiledPlan opcodes: small ints dispatchable without enum hashing.
OP_CONST0 = 0
OP_CONST1 = 1
OP_BUF = 2
OP_NOT = 3
OP_AND = 4
OP_NAND = 5
OP_OR = 6
OP_NOR = 7
OP_XOR = 8
OP_XNOR = 9
OP_MUX = 10

_OPCODE = {
    GateType.CONST0: OP_CONST0,
    GateType.CONST1: OP_CONST1,
    GateType.BUF: OP_BUF,
    GateType.NOT: OP_NOT,
    GateType.AND: OP_AND,
    GateType.NAND: OP_NAND,
    GateType.OR: OP_OR,
    GateType.NOR: OP_NOR,
    GateType.XOR: OP_XOR,
    GateType.XNOR: OP_XNOR,
    GateType.MUX: OP_MUX,
}


def batch_mask(width_words: int) -> int:
    """All-ones mask of a ``width_words`` x 64-pattern batch."""
    return (1 << (WORD_BITS * width_words)) - 1


def eval_opcode(opcode: int, operands: Sequence[int], mask: int) -> int:
    """Evaluate one plan opcode on batch integers under ``mask``.

    Bit-identical to :func:`repro.netlist.gate.eval_gate` on each
    64-bit lane of the batch (lanes are independent under bitwise ops).
    """
    if opcode == OP_AND or opcode == OP_NAND:
        acc = operands[0]
        for w in operands[1:]:
            acc &= w
        return acc if opcode == OP_AND else ~acc & mask
    if opcode == OP_OR or opcode == OP_NOR:
        acc = operands[0]
        for w in operands[1:]:
            acc |= w
        return acc if opcode == OP_OR else ~acc & mask
    if opcode == OP_XOR or opcode == OP_XNOR:
        acc = operands[0]
        for w in operands[1:]:
            acc ^= w
        return acc if opcode == OP_XOR else ~acc & mask
    if opcode == OP_NOT:
        return ~operands[0] & mask
    if opcode == OP_BUF:
        return operands[0]
    if opcode == OP_MUX:
        s, d0, d1 = operands
        return ((~s & d0) | (s & d1)) & mask
    if opcode == OP_CONST1:
        return mask
    if opcode == OP_CONST0:
        return 0
    raise NetlistError(f"unknown plan opcode {opcode}")


class CompiledPlan:
    """Flat evaluation plan of a circuit (or of an output cone).

    ``names`` lists the plan's nets — inputs first, then gates in
    topological order — and ``steps`` holds one
    ``(out_index, opcode, fanin_indices)`` tuple per gate.  Evaluation
    walks the steps over a plain list of batch integers: no dictionary
    lookups, no enum dispatch, no per-call topological sort.

    A plan is immutable and pure data (tuples of ints and strings), so
    it pickles cleanly and can be shared across process-pool workers.
    :meth:`run_lanes` evaluates through a lazily compiled
    :class:`~repro.netlist.simd.VectorPlan` twin; the ``_vec`` cache is
    dropped on pickling so plans still cross process boundaries into
    numpy-free interpreters.
    """

    __slots__ = ("names", "index", "num_inputs", "steps", "evals",
                 "_vec")

    def __init__(self, circuit: Circuit,
                 roots: Optional[Sequence[str]] = None):
        if roots is None:
            order = topological_order(circuit)
            inputs: List[str] = list(circuit.inputs)
        else:
            order = topological_order(circuit, roots=roots)
            from repro.netlist.traverse import transitive_fanin
            cone = transitive_fanin(circuit, roots)
            inputs = [n for n in circuit.inputs if n in cone]
        self.names: Tuple[str, ...] = tuple(inputs) + tuple(order)
        self.index: Dict[str, int] = {
            n: i for i, n in enumerate(self.names)
        }
        self.num_inputs = len(inputs)
        index = self.index
        gates = circuit.gates
        steps = []
        for name in order:
            gate = gates[name]
            steps.append((
                index[name],
                _OPCODE[gate.gtype],
                tuple(index[f] for f in gate.fanins),
            ))
        self.steps: Tuple[tuple, ...] = tuple(steps)
        #: batch evaluations performed through this plan (telemetry;
        #: the engine folds it into ``RunCounters.plan_evals``)
        self.evals = 0
        self._vec = None

    # ------------------------------------------------------------------
    # the vector twin must not pickle: plans ship to process-pool
    # workers that may run in numpy-free interpreters
    def __getstate__(self):
        return (self.names, self.index, self.num_inputs, self.steps,
                self.evals)

    def __setstate__(self, state):
        (self.names, self.index, self.num_inputs, self.steps,
         self.evals) = state
        self._vec = None

    # ------------------------------------------------------------------
    def vector_plan(self):
        """The lazily compiled :class:`~repro.netlist.simd.VectorPlan`
        twin (needs numpy)."""
        if self._vec is None:
            from repro.netlist import simd
            self._vec = simd.compile_vector(self)
        return self._vec

    # ------------------------------------------------------------------
    def run(self, input_words: Mapping[str, int],
            mask: int = WORD_MASK) -> List[int]:
        """Evaluate one batch; returns values indexed like ``names``.

        ``mask`` widens the batch: pass :func:`batch_mask` of the word
        count to evaluate ``W`` x 64 patterns in one pass.
        """
        values = [0] * len(self.names)
        names = self.names
        for i in range(self.num_inputs):
            name = names[i]
            try:
                values[i] = input_words[name] & mask
            except KeyError:
                raise NetlistError(f"missing value for input {name!r}")
        self.evals += 1
        for out, opcode, fanins in self.steps:
            if opcode == OP_AND or opcode == OP_NAND:
                acc = values[fanins[0]]
                for j in fanins[1:]:
                    acc &= values[j]
                values[out] = acc if opcode == OP_AND else ~acc & mask
            elif opcode == OP_OR or opcode == OP_NOR:
                acc = values[fanins[0]]
                for j in fanins[1:]:
                    acc |= values[j]
                values[out] = acc if opcode == OP_OR else ~acc & mask
            elif opcode == OP_XOR or opcode == OP_XNOR:
                acc = values[fanins[0]]
                for j in fanins[1:]:
                    acc ^= values[j]
                values[out] = acc if opcode == OP_XOR else ~acc & mask
            elif opcode == OP_NOT:
                values[out] = ~values[fanins[0]] & mask
            elif opcode == OP_BUF:
                values[out] = values[fanins[0]]
            elif opcode == OP_MUX:
                s = values[fanins[0]]
                values[out] = ((~s & values[fanins[1]])
                               | (s & values[fanins[2]])) & mask
            elif opcode == OP_CONST1:
                values[out] = mask
            else:  # OP_CONST0
                values[out] = 0
        return values

    def run_dict(self, input_words: Mapping[str, int],
                 mask: int = WORD_MASK) -> Dict[str, int]:
        """Like :meth:`run`, as a name -> value mapping."""
        values = self.run(input_words, mask)
        return dict(zip(self.names, values))

    def run_lanes(self, input_words: Mapping[str, int], width: int):
        """Array-native evaluation: a ``(num_nets, width)`` uint64
        ndarray indexed like ``names`` (lane ``w`` = patterns
        ``64*w..64*w+63``), from the level-batched kernels of
        :mod:`repro.netlist.simd`.  Requires numpy, which the first call
        imports; benchmarks use it to time the kernels against
        :meth:`run`.
        """
        from repro.netlist import simd
        if not simd.HAVE_NUMPY:
            raise NetlistError(
                "CompiledPlan.run_lanes requires numpy "
                "(pip install repro[perf])")
        self.evals += 1
        return self.vector_plan().run_lanes(self.names, input_words,
                                            width)


_PLAN_KEY = "sim_plan"


def compiled_plan(circuit: Circuit,
                  roots: Optional[Sequence[str]] = None) -> CompiledPlan:
    """The circuit's cached :class:`CompiledPlan`.

    Whole-circuit plans and cone plans (``roots``) are cached separately
    in the circuit's derived-data cache; any mutating edit drops them.
    """
    cache = circuit.derived_cache()
    key = _PLAN_KEY if roots is None else (_PLAN_KEY, tuple(roots))
    plan = cache.get(key)
    if plan is None:
        plan = CompiledPlan(circuit, roots=roots)
        cache[key] = plan
    return plan


def simulate_words(circuit: Circuit,
                   input_words: Mapping[str, int]) -> Dict[str, int]:
    """Evaluate every net on 64 packed input patterns.

    Args:
        circuit: the netlist to simulate.
        input_words: 64-bit word per primary input.

    Returns:
        Mapping from every net name to its 64-bit output word, computed
        by the circuit's cached :class:`CompiledPlan`.
    """
    return compiled_plan(circuit).run_dict(input_words)


def simulate(circuit: Circuit,
             assignment: Mapping[str, bool]) -> Dict[str, bool]:
    """Evaluate every net on a single input assignment."""
    words = {
        n: WORD_MASK if assignment[n] else 0
        for n in circuit.inputs if n in assignment
    }
    # missing inputs surface as NetlistError inside simulate_words
    values = simulate_words(circuit, words)
    return {n: bool(v & 1) for n, v in values.items()}


def evaluate_outputs(circuit: Circuit,
                     assignment: Mapping[str, bool]) -> Dict[str, bool]:
    """Output-port values for a single input assignment."""
    values = simulate(circuit, assignment)
    return {p: values[n] for p, n in circuit.outputs.items()}


def random_patterns(inputs: Sequence[str],
                    rng: random.Random) -> Dict[str, int]:
    """One 64-pattern random word per input."""
    return {name: rng.getrandbits(WORD_BITS) for name in inputs}


def patterns_to_words(inputs: Sequence[str],
                      patterns: Sequence[Mapping[str, bool]]) -> Dict[str, int]:
    """Pack up to 64 explicit assignments into simulation words.

    Pattern ``k`` occupies bit ``k``.  Fewer than 64 patterns leave the
    upper bits zero; callers must mask results accordingly.
    """
    if len(patterns) > WORD_BITS:
        raise NetlistError(f"at most {WORD_BITS} patterns per word")
    words: Dict[str, int] = {}
    for name in inputs:
        word = 0
        bit = 1
        for pat in patterns:
            if pat[name]:
                word |= bit
            bit <<= 1
        words[name] = word
    return words


def words_to_patterns(inputs: Sequence[str], words: Mapping[str, int],
                      count: int) -> List[Dict[str, bool]]:
    """Unpack the first ``count`` patterns of simulation words."""
    out = []
    for k in range(count):
        out.append({n: bool((words[n] >> k) & 1) for n in inputs})
    return out


def signature(circuit: Circuit, rounds: int,
              seed: int = 2019) -> Dict[str, int]:
    """Multi-round random simulation signature of every net.

    Concatenates ``rounds`` 64-bit words into one integer per net; equal
    signatures are candidates for functional equivalence (confirmed by
    SAT in :mod:`repro.cec.sweep`).

    All rounds are evaluated as one multi-word batch through the
    circuit's compiled plan: round ``r`` occupies the batch's lane
    ``rounds - 1 - r``, so the result equals shifting each round's
    64-bit word in after the previous ones.
    """
    rng = random.Random(seed)
    batched: Dict[str, int] = {n: 0 for n in circuit.inputs}
    for r in range(rounds):
        shift = WORD_BITS * (rounds - 1 - r)
        for name, word in random_patterns(circuit.inputs, rng).items():
            batched[name] |= word << shift
    plan = compiled_plan(circuit)
    values = plan.run(batched, mask=batch_mask(rounds))
    return dict(zip(plan.names, values))
