"""NumPy vector backend for the simulation hot loops.

This module is the only place in the codebase allowed to import
``numpy`` (enforced by the ``RI007`` repo-invariant lint rule): every
other layer stays dependency-free and talks to the vector backend
through :class:`~repro.netlist.simulate.CompiledPlan`, which delegates
here when the backend is active.

The kernel is *level-batched*: a :class:`VectorPlan` regroups a
compiled plan's steps into topological levels and, within each level,
into segments of identical ``(opcode, arity)``.  Net values live in a
``(num_nets, W)`` ``uint64`` ndarray (lane ``w`` holds patterns
``64*w .. 64*w+63``, matching the little-endian word layout of the
multi-word Python batch integers).  One level costs a single merged
``np.take`` gather plus a couple of whole-segment bitwise ufunc calls,
so thousands of patterns move per interpreter dispatch instead of one
gate per bytecode loop iteration.

Production runs use the ``auto`` rule: the vector kernels run only
where they empirically win (numpy imports and the batch shape meets the
``AUTO_MIN_*`` thresholds) and the pure-Python paths run everywhere
else.  :func:`set_backend` pins one path process-wide so tests and
benchmarks can compare them; every vector kernel is pinned bit-for-bit
to its pure-Python twin by ``tests/netlist/test_simd.py``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence

from repro.errors import NetlistError

try:  # pragma: no cover - exercised via the numpy-absent fixture
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

HAVE_NUMPY = _np is not None

BACKENDS = ("auto", "python", "numpy")

#: auto mode ignores the vector path below this many 64-bit words per
#: batch — narrow batches are dominated by per-call dispatch overhead
AUTO_MIN_WORDS = 4
#: ... and below this many compiled steps — tiny circuits fit in the
#: pure-Python interpreter loop faster than in ufunc dispatch
AUTO_MIN_STEPS = 192
#: auto mode batches candidate screens only at/above this batch size
AUTO_MIN_CANDIDATES = 2

_selected = "auto"


def set_backend(name: str) -> str:
    """Pin the process-global simulation backend; returns the previous one.

    ``python`` forces the pure-Python paths and ``numpy`` the vector
    kernels (raising :class:`~repro.errors.NetlistError` when numpy is
    missing); ``auto``, the default, restores the shape-based rule.
    """
    global _selected
    if name not in BACKENDS:
        raise NetlistError(
            f"unknown simulation backend {name!r} "
            f"(choose from {', '.join(BACKENDS)})")
    if name == "numpy" and not HAVE_NUMPY:
        raise NetlistError(
            "simulation backend 'numpy' requested but numpy is not "
            "installed (pip install repro[perf])")
    previous = _selected
    _selected = name
    return previous


def get_backend() -> str:
    """The currently selected backend name (``auto``/``python``/``numpy``)."""
    return _selected


def use_vector_run(width_words: int, num_steps: int) -> bool:
    """Should a plan evaluation of this shape go through the kernels?"""
    if _selected == "python" or not HAVE_NUMPY:
        return False
    if _selected == "numpy":
        return True
    return width_words >= AUTO_MIN_WORDS and num_steps >= AUTO_MIN_STEPS


def use_vector_screen(num_candidates: int) -> bool:
    """Should a candidate screen of this batch size be vectorized?"""
    if _selected == "python" or not HAVE_NUMPY:
        return False
    if _selected == "numpy":
        return True
    return num_candidates >= AUTO_MIN_CANDIDATES


# ----------------------------------------------------------------------
# Python-int batch <-> uint64 lane array conversion
# ----------------------------------------------------------------------
def int_to_lanes(value: int, width_words: int):
    """Pack a multi-word batch integer into a ``(W,)`` uint64 array."""
    mask = (1 << (64 * width_words)) - 1
    raw = (value & mask).to_bytes(8 * width_words, "little")
    return _np.frombuffer(raw, dtype="<u8").astype(_np.uint64,
                                                   copy=False)


def lanes_to_int(row) -> int:
    """Inverse of :func:`int_to_lanes` for one net's lane row."""
    return int.from_bytes(
        _np.ascontiguousarray(row, dtype="<u8").tobytes(), "little")


# ----------------------------------------------------------------------
# compiled vector plan
# ----------------------------------------------------------------------
class _Segment:
    """One same-``(opcode, arity)`` run of gates inside a level."""

    __slots__ = ("opcode", "arity", "out_start", "out_stop", "buf_off",
                 "size")

    def __init__(self, opcode: int, arity: int, out_start: int,
                 out_stop: int, buf_off: int):
        self.opcode = opcode
        self.arity = arity
        self.out_start = out_start
        self.out_stop = out_stop
        self.buf_off = buf_off
        self.size = out_stop - out_start


#: sentinel results for constant segments — callers broadcast-fill
CONST0_FILL = 0
CONST1_FILL = 0xFFFFFFFFFFFFFFFF


def _apply_segment(np, opcode, arity, gathered, off, n, out=None):
    """Evaluate one segment from its position-major operand blocks.

    With ``out`` (a contiguous destination slice) the result is
    written straight through ufunc ``out=`` arguments — no
    intermediate copy — and ``None`` is returned.  Without it the
    result block (a view into ``gathered``, mutated in place) is
    returned for the caller to scatter; constant segments return an
    int fill value either way.
    """
    if 4 <= opcode <= 9:  # AND/NAND/OR/NOR/XOR/XNOR
        ufunc = (np.bitwise_and if opcode < 6 else
                 np.bitwise_or if opcode < 8 else
                 np.bitwise_xor)
        first = gathered[off:off + n]
        if out is None or arity == 1:
            acc = first if out is None else out
            if out is not None:
                acc[...] = first
            for p in range(1, arity):
                ufunc(acc, gathered[off + p * n:off + (p + 1) * n],
                      out=acc)
            if opcode in (5, 7, 9):
                np.bitwise_not(acc, out=acc)
            return acc if out is None else None
        ufunc(first, gathered[off + n:off + 2 * n], out=out)
        for p in range(2, arity):
            ufunc(out, gathered[off + p * n:off + (p + 1) * n],
                  out=out)
        if opcode in (5, 7, 9):
            np.bitwise_not(out, out=out)
        return None
    if opcode == 3:  # NOT
        blk = gathered[off:off + n]
        np.bitwise_not(blk, out=blk if out is None else out)
        return blk if out is None else None
    if opcode == 2:  # BUF
        if out is None:
            return gathered[off:off + n]
        out[...] = gathered[off:off + n]
        return None
    if opcode == 10:  # MUX(s, d0, d1) = d0 ^ (s & (d0 ^ d1))
        s = gathered[off:off + n]
        d0 = gathered[off + n:off + 2 * n]
        d1 = gathered[off + 2 * n:off + 3 * n]
        np.bitwise_xor(d0, d1, out=d1)
        np.bitwise_and(d1, s, out=d1)
        np.bitwise_xor(d1, d0, out=d1 if out is None else out)
        return d1 if out is None else None
    return CONST1_FILL if opcode == 1 else CONST0_FILL


class VectorPlan:
    """Level-batched ndarray twin of a :class:`CompiledPlan`.

    The vector plan renumbers nets so each level's gates occupy one
    contiguous index range (inputs keep their plan slots); ``perm``
    maps plan indices to vector indices and ``inv_np`` back.  The
    plan's own step order is left untouched — the pure-Python paths
    never see this numbering.
    """

    __slots__ = ("num_nets", "num_inputs", "perm", "perm_np", "inv_np",
                 "levels", "net_level")

    def __init__(self, steps: Sequence[tuple], num_nets: int,
                 num_inputs: int):
        if _np is None:  # pragma: no cover - guarded by callers
            raise NetlistError("numpy is not installed")
        self.num_nets = num_nets
        self.num_inputs = num_inputs
        level = [0] * num_nets
        for out, _opcode, fanins in steps:
            level[out] = 1 + max((level[j] for j in fanins), default=0)
        self.net_level = level
        # gates sorted by (level, opcode, arity, fanin0) — fanin0 as a
        # locality tiebreak so the merged gather walks mostly forward
        order = sorted(
            range(len(steps)),
            key=lambda si: (level[steps[si][0]], steps[si][1],
                            len(steps[si][2]),
                            steps[si][2][0] if steps[si][2] else 0))
        perm = [0] * num_nets  # plan index -> vector index
        for i in range(num_inputs):
            perm[i] = i
        for pos, si in enumerate(order):
            perm[steps[si][0]] = num_inputs + pos
        self.perm = perm
        self.perm_np = _np.fromiter(perm, dtype=_np.intp,
                                    count=num_nets)
        inv = [0] * num_nets
        for old, new in enumerate(perm):
            inv[new] = old
        self.inv_np = _np.fromiter(inv, dtype=_np.intp, count=num_nets)

        # levels: (gather_idx, [segments]); segment operand blocks are
        # position-major (all fanin-0 rows, then fanin-1, ...) so each
        # operand of a segment is one contiguous buffer slice
        self.levels: List[tuple] = []
        pos = 0
        while pos < len(order):
            lvl = level[steps[order[pos]][0]]
            gather: List[int] = []
            segments: List[_Segment] = []
            while pos < len(order):
                si = order[pos]
                out, opcode, fanins = steps[si]
                if level[out] != lvl:
                    break
                arity = len(fanins)
                run_start = pos
                entries = []
                while pos < len(order):
                    o2, op2, f2 = steps[order[pos]]
                    if level[o2] != lvl or op2 != opcode \
                            or len(f2) != arity:
                        break
                    entries.append(f2)
                    pos += 1
                segments.append(
                    _Segment(opcode, arity, num_inputs + run_start,
                             num_inputs + pos, len(gather)))
                for p in range(arity):
                    gather.extend(perm[f[p]] for f in entries)
            idx = _np.fromiter(gather, dtype=_np.intp,
                               count=len(gather))
            self.levels.append((idx, segments))

    # ------------------------------------------------------------------
    def _eval_levels(self, values) -> None:
        """Evaluate every level in place over ``values`` (vector
        numbering, inputs pre-filled; trailing axes are free — the
        screen path adds a candidate axis)."""
        np = _np
        for idx, segments in self.levels:
            gathered = np.take(values, idx, axis=0) if len(idx) \
                else None
            for seg in segments:
                res = _apply_segment(np, seg.opcode, seg.arity,
                                     gathered, seg.buf_off, seg.size,
                                     out=values[seg.out_start:
                                                seg.out_stop])
                if isinstance(res, int):
                    values[seg.out_start:seg.out_stop] = np.uint64(res)

    # ------------------------------------------------------------------
    def run_lanes(self, names: Sequence[str],
                  input_words: Mapping[str, int], width: int):
        """Evaluate one batch; returns a ``(num_nets, W)`` uint64 array
        indexed like the *plan* (not the vector numbering)."""
        np = _np
        values = np.empty((self.num_nets, width), dtype=np.uint64)
        for i in range(self.num_inputs):
            name = names[i]
            try:
                word = input_words[name]
            except KeyError:
                raise NetlistError(f"missing value for input {name!r}")
            values[i] = int_to_lanes(word, width)
        self._eval_levels(values)
        return np.take(values, self.perm_np, axis=0)

    def run_ints(self, names: Sequence[str],
                 input_words: Mapping[str, int],
                 width: int) -> List[int]:
        """Like :meth:`run_lanes`, converted to plan-indexed batch ints."""
        lanes = self.run_lanes(names, input_words, width)
        raw = _np.ascontiguousarray(lanes, dtype="<u8").tobytes()
        stride = 8 * width
        return [int.from_bytes(raw[i * stride:(i + 1) * stride],
                               "little")
                for i in range(self.num_nets)]


def compile_vector(plan) -> VectorPlan:
    """Build the vector twin of a compiled plan."""
    return VectorPlan(plan.steps, len(plan.names), plan.num_inputs)


# ----------------------------------------------------------------------
# batched candidate screening
# ----------------------------------------------------------------------
class OverlayKernel:
    """Affected-cone overlay evaluator for one set of rewired pins.

    The candidate screen repeatedly re-evaluates the nets downstream of
    the same rectification-point pins while only the rewiring *sources*
    vary.  This kernel precomputes that downstream slice of the vector
    plan once per pin set — segments filtered to affected entries —
    and then scores a whole batch of candidates as ``(net, candidate,
    word)`` array ops: one gather plus a few whole-segment ufuncs per
    level, every candidate riding the second axis.
    """

    __slots__ = ("vplan", "affected_plan", "sub_levels", "pin_rows")

    def __init__(self, vplan: VectorPlan, steps: Sequence[tuple],
                 pin_owner_indices: Sequence[int]):
        np = _np
        self.vplan = vplan
        perm = vplan.perm
        owners = {perm[i] for i in pin_owner_indices}
        affected = set(owners)
        # one pass in step order marks everything downstream
        for out, _opcode, fanins in steps:
            v = perm[out]
            if v in affected:
                continue
            for j in fanins:
                if perm[j] in affected:
                    affected.add(v)
                    break
        inv = vplan.inv_np
        self.affected_plan = {int(inv[v]) for v in affected}
        # filter each level's segments down to affected entries; also
        # record, per (owner gate, pin position), the row its operand
        # occupies in the level's gathered buffer so candidate
        # overrides can be patched in before evaluation
        self.sub_levels: List[tuple] = []
        self.pin_rows: Dict[tuple, tuple] = {}
        for idx, segments in vplan.levels:
            gather: List[int] = []
            subs = []
            for seg in segments:
                rows = [e for e in range(seg.size)
                        if seg.out_start + e in affected]
                if not rows:
                    continue
                n = len(rows)
                outs = np.fromiter((seg.out_start + e for e in rows),
                                   dtype=np.intp, count=n)
                off = len(gather)
                for p in range(seg.arity):
                    base = seg.buf_off + p * seg.size
                    gather.extend(int(idx[base + e]) for e in rows)
                for e_new, e in enumerate(rows):
                    vout = seg.out_start + e
                    if vout in owners:
                        for p in range(seg.arity):
                            self.pin_rows[(int(inv[vout]), p)] = (
                                len(self.sub_levels),
                                off + p * n + e_new)
                subs.append((seg.opcode, seg.arity, outs, off, n))
            if subs:
                sub_idx = np.fromiter(gather, dtype=np.intp,
                                      count=len(gather))
                self.sub_levels.append((sub_idx, subs))

    # ------------------------------------------------------------------
    def evaluate(self, base_vec, num_candidates: int, overrides):
        """Re-evaluate the affected cone for a batch of candidates.

        ``base_vec`` is the filter's base simulation as a
        ``(num_nets, W)`` array in *vector* numbering.  ``overrides``
        maps ``(plan_gate_index, pin_position)`` to a ``(C, W)``
        uint64 array of per-candidate operand values.  Returns the
        ``(num_nets, C, W)`` value array in vector numbering.
        """
        np = _np
        C = num_candidates
        values = np.empty((self.vplan.num_nets, C,
                           base_vec.shape[1]), dtype=np.uint64)
        values[:] = base_vec[:, None, :]
        patches: Dict[int, list] = {}
        for key, rows in overrides.items():
            li, row = self.pin_rows[key]
            patches.setdefault(li, []).append((row, rows))
        for li, (sub_idx, subs) in enumerate(self.sub_levels):
            gathered = np.take(values, sub_idx, axis=0)
            for row, rows in patches.get(li, ()):
                gathered[row] = rows
            for opcode, arity, outs, off, n in subs:
                res = _apply_segment(np, opcode, arity, gathered, off,
                                     n)
                if isinstance(res, int):
                    values[outs] = np.uint64(res)
                else:
                    values[outs] = res
        return values

    def value_rows(self, values, plan_index: int):
        """The ``(C, W)`` rows of one plan-indexed net."""
        return values[self.vplan.perm[plan_index]]


def base_vec_from_ints(base: Sequence[int], perm: Sequence[int],
                       width: int):
    """Stack per-net batch ints into a vector-numbered lane array."""
    np = _np
    out = np.empty((len(base), width), dtype=np.uint64)
    for i, value in enumerate(base):
        out[perm[i]] = int_to_lanes(value, width)
    return out


def lanes_from_ints(values: Sequence[int], width: int):
    """Stack per-net batch ints into a same-order ``(N, W)`` array."""
    np = _np
    out = np.empty((len(values), width), dtype=np.uint64)
    for i, value in enumerate(values):
        out[i] = int_to_lanes(value, width)
    return out
