"""Bit-identity of the numpy vector backend against the Python oracle.

Every vector kernel is a pure performance device: these tests pin the
level-batched :class:`VectorPlan` to the pure-Python
:class:`CompiledPlan` interpreter and to the per-gate dictionary walk
of :mod:`tests.netlist.reference` on random circuits across batch widths,
output cones and signatures; a subprocess fixture blocks the numpy
import to prove the clean fallback; and one end-to-end check runs a
Table-1 case on both backends and compares per-output outcomes.
"""

import os
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NetlistError
from repro.netlist import simd
from repro.netlist.simulate import (
    batch_mask,
    compiled_plan,
    random_patterns,
    signature,
)
from tests.conftest import make_random_circuit
from tests.netlist.reference import reference_simulate_words

needs_numpy = pytest.mark.skipif(not simd.HAVE_NUMPY,
                                 reason="numpy not installed")


@pytest.fixture(autouse=True)
def _restore_backend():
    previous = simd.get_backend()
    yield
    simd.set_backend(previous)


def batched_words(circuit, width, seed):
    """One ``width``-word random batch per input."""
    rng = random.Random(seed)
    words = {n: 0 for n in circuit.inputs}
    for r in range(width):
        for name, word in random_patterns(circuit.inputs, rng).items():
            words[name] |= word << (64 * r)
    return words


class TestBackendSelection:
    def test_set_backend_returns_previous(self):
        assert simd.set_backend("python") == "auto"
        assert simd.set_backend("auto") == "python"

    def test_unknown_backend_rejected(self):
        with pytest.raises(NetlistError):
            simd.set_backend("cuda")

    def test_numpy_backend_requires_numpy(self, monkeypatch):
        monkeypatch.setattr(simd, "HAVE_NUMPY", False)
        with pytest.raises(NetlistError):
            simd.set_backend("numpy")
        # auto / python still select fine and fall back
        simd.set_backend("auto")
        assert not simd.use_vector_run(8, 10000)

    def test_engine_keeps_pinned_backend(self):
        from repro.eco.engine import SysEco

        simd.set_backend("python")
        SysEco()
        assert simd.get_backend() == "python"

    @needs_numpy
    def test_auto_thresholds(self):
        simd.set_backend("auto")
        assert simd.use_vector_run(simd.AUTO_MIN_WORDS,
                                   simd.AUTO_MIN_STEPS)
        assert not simd.use_vector_run(simd.AUTO_MIN_WORDS - 1,
                                       simd.AUTO_MIN_STEPS)
        assert not simd.use_vector_run(simd.AUTO_MIN_WORDS,
                                       simd.AUTO_MIN_STEPS - 1)
        simd.set_backend("numpy")
        assert simd.use_vector_run(1, 1)


@needs_numpy
class TestVectorParity:
    @given(seed=st.integers(min_value=0, max_value=5000),
           width=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_run_matches_python_and_reference_walk(self, seed, width):
        c = make_random_circuit(seed)
        words = batched_words(c, width, seed + 1)
        mask = batch_mask(width)
        plan = compiled_plan(c)

        simd.set_backend("numpy")
        vector = plan.run(words, mask=mask)
        simd.set_backend("python")
        scalar = plan.run(words, mask=mask)
        assert vector == scalar

        # the reference walk is single-word: check it lane by lane
        for r in range(width):
            lane_words = {n: (w >> (64 * r)) & ((1 << 64) - 1)
                          for n, w in words.items()}
            reference = reference_simulate_words(c, lane_words)
            for name, value in reference.items():
                lane = (vector[plan.index[name]] >> (64 * r)) \
                    & ((1 << 64) - 1)
                assert lane == value

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=15, deadline=None)
    def test_cone_plan_parity(self, seed):
        c = make_random_circuit(seed)
        root = c.outputs[sorted(c.outputs)[0]]
        plan = compiled_plan(c, roots=[root])
        words = batched_words(c, 4, seed + 2)
        mask = batch_mask(4)
        simd.set_backend("numpy")
        vector = plan.run(words, mask=mask)
        simd.set_backend("python")
        assert vector == plan.run(words, mask=mask)

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=10, deadline=None)
    def test_signature_parity(self, seed):
        c = make_random_circuit(seed)
        simd.set_backend("numpy")
        vector = signature(c, rounds=8, seed=7)
        simd.set_backend("python")
        assert signature(c, rounds=8, seed=7) == vector

    def test_run_lanes_matches_run_ints(self):
        c = make_random_circuit(23)
        plan = compiled_plan(c)
        words = batched_words(c, 4, 9)
        simd.set_backend("numpy")
        lanes = plan.run_lanes(words, 4)
        assert lanes.shape == (len(plan.names), 4)
        ints = plan.vector_plan().run_ints(plan.names, words, 4)
        for row, value in zip(lanes, ints):
            assert simd.lanes_to_int(row) == value

    def test_lane_conversion_roundtrip(self):
        value = int.from_bytes(bytes(range(1, 33)), "little")
        lanes = simd.int_to_lanes(value, 4)
        assert simd.lanes_to_int(lanes) == value

    def test_missing_input_raises(self):
        c = make_random_circuit(24)
        simd.set_backend("numpy")
        with pytest.raises(NetlistError):
            compiled_plan(c).run({}, mask=batch_mask(2))


class TestNumpyAbsent:
    """A subprocess whose numpy import is blocked must fall back
    silently — same API, pure-Python results."""

    def _run_blocked(self, tmp_path, body):
        blocker = tmp_path / "blocker" / "numpy"
        blocker.mkdir(parents=True)
        (blocker / "__init__.py").write_text(
            "raise ImportError('numpy blocked for testing')\n")
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        tests = os.path.join(os.path.dirname(__file__), "..", "..")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(blocker.parent), os.path.abspath(src),
             os.path.abspath(tests)])
        return subprocess.run(
            [sys.executable, "-c", textwrap.dedent(body)],
            env=env, capture_output=True, text=True, timeout=300)

    def test_fallback_without_numpy(self, tmp_path):
        proc = self._run_blocked(tmp_path, """
            import random
            from repro.errors import NetlistError
            from repro.netlist import simd
            from repro.netlist.simulate import (
                batch_mask, compiled_plan, random_patterns)
            from tests.conftest import make_random_circuit
            from tests.netlist.reference import reference_simulate_words

            assert not simd.HAVE_NUMPY
            try:
                simd.set_backend("numpy")
            except NetlistError:
                pass
            else:
                raise AssertionError("numpy backend accepted")
            simd.set_backend("auto")
            assert not simd.use_vector_run(8, 10000)

            c = make_random_circuit(3)
            rng = random.Random(4)
            words = {n: 0 for n in c.inputs}
            for r in range(4):
                for n, w in random_patterns(c.inputs, rng).items():
                    words[n] |= w << (64 * r)
            plan = compiled_plan(c)
            got = plan.run(words, mask=batch_mask(4))
            for r in range(4):
                lane_words = {n: (w >> (64 * r)) & ((1 << 64) - 1)
                              for n, w in words.items()}
                ref = reference_simulate_words(c, lane_words)
                for name, value in ref.items():
                    lane = (got[plan.index[name]] >> (64 * r)) \
                        & ((1 << 64) - 1)
                    assert lane == value
            try:
                plan.run_lanes(words, 4)
            except NetlistError:
                pass
            else:
                raise AssertionError("run_lanes worked without numpy")
            print("FALLBACK-OK")
        """)
        assert proc.returncode == 0, proc.stderr
        assert "FALLBACK-OK" in proc.stdout

    def test_engine_runs_without_numpy(self, tmp_path):
        """Table-1 case 1 completes with numpy blocked, with the same
        per-output outcomes the numpy backend produces in this
        process (when numpy is installed)."""
        proc = self._run_blocked(tmp_path, """
            from repro.workloads.suite import build_case
            from repro.eco.engine import SysEco
            from repro.eco.config import EcoConfig

            case = build_case(1)
            result = SysEco(EcoConfig()).rectify(case.impl, case.spec)
            print("OUTCOMES", sorted(result.per_output.items()))
        """)
        assert proc.returncode == 0, proc.stderr
        line = [l for l in proc.stdout.splitlines()
                if l.startswith("OUTCOMES")][0]

        from repro.workloads.suite import build_case
        from repro.eco.engine import SysEco
        from repro.eco.config import EcoConfig

        case = build_case(1)
        simd.set_backend("numpy" if simd.HAVE_NUMPY else "python")
        result = SysEco(EcoConfig()).rectify(case.impl, case.spec)
        assert line == f"OUTCOMES {sorted(result.per_output.items())}"


@needs_numpy
class TestEngineBackendIdentity:
    def test_table1_case_outcomes_identical(self):
        """Same Table-1 per-output patch outcomes on both backends."""
        from repro.workloads.suite import build_case
        from repro.eco.engine import SysEco
        from repro.eco.config import EcoConfig

        case = build_case(1)
        results = {}
        for backend in ("python", "numpy"):
            simd.set_backend(backend)
            res = SysEco(EcoConfig()).rectify(case.impl, case.spec)
            results[backend] = (sorted(res.per_output.items()),
                                sorted(res.verified_outputs))
        assert results["python"] == results["numpy"]
