"""Bit-identity of the numpy vector kernels against the Python paths.

The kernels are reached only through :meth:`CompiledPlan.run_lanes`;
these tests read its lanes back with :func:`simd.lanes_to_int` and pin
them to :meth:`CompiledPlan.run` and to the per-gate dictionary walk of
:mod:`tests.netlist.reference` on random circuits across batch widths,
output cones and signatures.  Subprocess checks prove that everything
else works with the numpy import blocked, and that a run never loads
numpy even where it is installed.
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

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))


def batched_words(circuit, width, seed):
    """One ``width``-word random batch per input."""
    rng = random.Random(seed)
    words = {n: 0 for n in circuit.inputs}
    for r in range(width):
        for name, word in random_patterns(circuit.inputs, rng).items():
            words[name] |= word << (64 * r)
    return words


def lane_ints(plan, words, width):
    """The kernel's batch, one plan-indexed integer per net."""
    return [simd.lanes_to_int(row) for row in plan.run_lanes(words, width)]


def run_python(body, path_first=()):
    """Run ``body`` in a fresh interpreter with ``src`` and the repo
    root importable, after the directories in ``path_first``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [*path_first, os.path.join(REPO, "src"), REPO])
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(body)],
        env=env, capture_output=True, text=True, timeout=300)


@needs_numpy
class TestVectorParity:
    @given(seed=st.integers(min_value=0, max_value=5000),
           width=st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_run_matches_python_and_reference_walk(self, seed, width):
        c = make_random_circuit(seed)
        words = batched_words(c, width, seed + 1)
        plan = compiled_plan(c)

        vector = lane_ints(plan, words, width)
        assert vector == plan.run(words, mask=batch_mask(width))

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
        assert lane_ints(plan, words, 4) == plan.run(words,
                                                     mask=batch_mask(4))

    @given(seed=st.integers(min_value=0, max_value=5000))
    @settings(max_examples=10, deadline=None)
    def test_signature_parity(self, seed):
        """The kernel on the signature's batch (round ``r`` in lane
        ``rounds - 1 - r``) gives :func:`signature`'s values."""
        c = make_random_circuit(seed)
        rng = random.Random(7)
        words = {n: 0 for n in c.inputs}
        for r in range(8):
            for name, word in random_patterns(c.inputs, rng).items():
                words[name] |= word << (64 * (7 - r))
        plan = compiled_plan(c)
        vector = dict(zip(plan.names, lane_ints(plan, words, 8)))
        assert vector == signature(c, rounds=8, seed=7)

    def test_run_lanes_matches_run(self):
        c = make_random_circuit(23)
        plan = compiled_plan(c)
        words = batched_words(c, 4, 9)
        lanes = plan.run_lanes(words, 4)
        assert lanes.shape == (len(plan.names), 4)
        assert [simd.lanes_to_int(row) for row in lanes] \
            == plan.run(words, mask=batch_mask(4))

    def test_lane_conversion_roundtrip(self):
        value = int.from_bytes(bytes(range(1, 33)), "little")
        lanes = simd.int_to_lanes(value, 4)
        assert simd.lanes_to_int(lanes) == value

    def test_missing_input_raises(self):
        c = make_random_circuit(24)
        with pytest.raises(NetlistError):
            compiled_plan(c).run_lanes({}, 2)


@needs_numpy
class TestRunPathLoadsNoNumpy:
    def test_rectify_cec_and_cli_leave_numpy_unloaded(self, tmp_path):
        """With numpy installed, a Table-1 ``rectify``, a
        ``check_equivalence`` and a ``python -m repro eco`` run all go
        through the Python loop and never import numpy."""
        impl = tmp_path / "impl.blif"
        spec = tmp_path / "spec.blif"
        proc = run_python(f"""
            import runpy, sys
            from repro import check_equivalence, rectify
            from repro.netlist import write_blif
            from repro.workloads.figures import example1_circuits
            from repro.workloads.suite import build_case

            case = build_case(1)
            result = rectify(case.impl, case.spec)
            assert check_equivalence(result.patched,
                                     case.spec).equivalent is True

            small_impl, small_spec = example1_circuits(width=2)
            write_blif(small_impl, {str(impl)!r})
            write_blif(small_spec, {str(spec)!r})
            sys.argv = ["repro", "eco", "--impl", {str(impl)!r},
                        "--spec", {str(spec)!r}, "--no-store"]
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit as exc:
                assert exc.code == 0, exc.code
            print("NUMPY-LOADED", "numpy" in sys.modules)
        """)
        assert proc.returncode == 0, proc.stderr
        assert "verified: True" in proc.stdout
        assert "NUMPY-LOADED False" in proc.stdout


class TestNumpyAbsent:
    """A subprocess whose numpy import is blocked must work unchanged:
    same API, pure-Python results, and ``run_lanes`` refuses cleanly."""

    def _run_blocked(self, tmp_path, body):
        blocker = tmp_path / "blocker" / "numpy"
        blocker.mkdir(parents=True)
        (blocker / "__init__.py").write_text(
            "raise ImportError('numpy blocked for testing')\n")
        return run_python(body, path_first=[str(blocker.parent)])

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
                    lane = (got[plan.index[name]] >> (64 * r)) \\
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
        per-output outcomes as in this process."""
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
        result = SysEco(EcoConfig()).rectify(case.impl, case.spec)
        assert line == f"OUTCOMES {sorted(result.per_output.items())}"
