"""Microbenchmarks of the performance machinery (docs/performance.md).

Hot paths, each timed against the reference it replaced:

* **simulation** — patterns/sec through the compiled multi-word plan
  vs the per-gate dictionary walk of ``tests/netlist/reference.py``;
* **vector simulation** — patterns/sec through the numpy level-batched
  kernel (``run_lanes``) vs the pure-Python plan interpreter on a
  20k-gate DAG, interleaved min-of-N timing (skipped without numpy);
* **SAT** — propagations/sec of the flat-arena solver on a pigeonhole
  instance, plus the learned-clause reduction (mark + lazy unhook)
  timed on a synthetic 20k-clause database;
* **validation** — candidates/sec through the persistent incremental
  miter vs the copy-and-re-encode oracle of ``tests/eco/reference.py``,
  with a verdict-parity sanity check on every candidate.

The rendered table and JSON twin land in ``benchmarks/results/`` via
the shared publisher, and a traced engine run (incremental validation
on) is pushed into the run store so the CI perf-smoke job can gate
wall time / SAT / outcome with ``repro runs regress --baseline``.
``--quick`` shrinks every workload to CI-smoke size.
"""

import random
import time

import pytest

from repro.cec.equivalence import nonequivalent_outputs
from repro.netlist import simd
from repro.netlist.circuit import Pin
from repro.netlist.simulate import (
    batch_mask,
    compiled_plan,
    random_patterns,
)
from repro.netlist.traverse import topological_order
from repro.sat.solver import Solver
from repro.workloads.generators import random_dag
from repro.eco.config import EcoConfig
from repro.eco.incremental import IncrementalValidator
from repro.eco.patch import RewireOp
from repro.bench.runner import traced_case_run
from tests.eco.reference import validate_rewire as reference_validate
from tests.netlist.reference import reference_simulate_words

#: mid-size suite case: large enough that per-candidate re-encoding
#: dominates, small enough for a CI smoke job
PERF_CASE = 4
SIM_ROUNDS = 32
CANDIDATES = 20


def _candidate_ops(impl, spec, port, count, seed=11):
    """Deterministic spec-sourced rewires inside the failing cone."""
    rng = random.Random(seed)
    cone = topological_order(impl, roots=[impl.outputs[port]])
    pins = [Pin.gate(g, 0) for g in cone[-8:]] + [Pin.output(port)]
    spec_nets = (topological_order(spec, roots=[spec.outputs[port]])
                 + list(spec.inputs))
    return pins, [
        [RewireOp(pin=rng.choice(pins), source_net=rng.choice(spec_nets),
                  from_spec=True)]
        for _ in range(count)
    ]


def test_perf_simulation(benchmark, suite_cases, publish):
    impl = suite_cases[PERF_CASE].impl
    rng = random.Random(7)
    word_sets = [random_patterns(impl.inputs, rng)
                 for _ in range(SIM_ROUNDS)]
    topological_order(impl)  # cached: the walk times gates only

    def measure():
        t0 = time.perf_counter()
        reference = [reference_simulate_words(impl, words)
                     for words in word_sets]
        t1 = time.perf_counter()
        batched = {n: 0 for n in impl.inputs}
        for r, words in enumerate(word_sets):
            for name, word in words.items():
                batched[name] |= word << (64 * r)
        plan = compiled_plan(impl)
        values = plan.run_dict(batched, mask=batch_mask(SIM_ROUNDS))
        t2 = time.perf_counter()
        # sanity: lane 0 of the batch equals the first reference round
        for net, value in reference[0].items():
            assert values[net] & ((1 << 64) - 1) == value
        return t1 - t0, t2 - t1

    walk_s, plan_s = benchmark.pedantic(measure, rounds=1, iterations=1)
    patterns = SIM_ROUNDS * 64
    data = {
        "bench": "perf_simulation",
        "case_id": PERF_CASE,
        "gates": len(impl.gates),
        "patterns": patterns,
        "dict_walk_patterns_per_s": patterns / walk_s,
        "plan_patterns_per_s": patterns / plan_s,
        "speedup": walk_s / plan_s,
    }
    publish("perf_simulation.txt", (
        f"perf: simulation, case {PERF_CASE} "
        f"({len(impl.gates)} gates, {patterns} patterns)\n"
        f"  dict walk     : {data['dict_walk_patterns_per_s']:>12.0f} "
        f"patterns/s\n"
        f"  compiled plan : {data['plan_patterns_per_s']:>12.0f} "
        f"patterns/s\n"
        f"  speedup       : {data['speedup']:.2f}x"), data=data)
    assert data["speedup"] > 1.0


def test_perf_vector_sim(benchmark, publish, quick):
    """Level-batched numpy kernel vs the pure-Python plan interpreter.

    Both paths run interleaved and the minimum of N repeats is kept —
    single-core steal-time noise otherwise dominates the ratio.  The
    vector side is timed on the array path (``run_lanes``): that is
    what the batched candidate screen consumes; the bignum conversion
    of ``run`` is a separate, fixed cost.
    """
    if not simd.HAVE_NUMPY:
        pytest.skip("numpy not installed (repro[perf])")
    n_gates = 4000 if quick else 20000
    repeats = 3 if quick else 5
    width = 4
    circuit = random_dag(n_inputs=64, n_gates=n_gates, n_outputs=32,
                         seed=5)
    rng = random.Random(7)
    words = {n: 0 for n in circuit.inputs}
    for r in range(width):
        for name, word in random_patterns(circuit.inputs, rng).items():
            words[name] |= word << (64 * r)
    plan = compiled_plan(circuit)
    mask = batch_mask(width)

    def measure():
        previous = simd.set_backend("python")
        try:
            python_s = vector_s = float("inf")
            reference = None
            for _ in range(repeats):
                t0 = time.perf_counter()
                reference = plan.run(words, mask=mask)
                python_s = min(python_s, time.perf_counter() - t0)
                t0 = time.perf_counter()
                lanes = plan.run_lanes(words, width)
                vector_s = min(vector_s, time.perf_counter() - t0)
            # bit-identity spot check on the last repeat
            for i in (0, len(reference) // 2, len(reference) - 1):
                assert simd.lanes_to_int(lanes[i]) == reference[i]
            return python_s, vector_s
        finally:
            simd.set_backend(previous)

    python_s, vector_s = benchmark.pedantic(measure, rounds=1,
                                            iterations=1)
    patterns = width * 64
    data = {
        "bench": "perf_vector_sim",
        "gates": n_gates,
        "width_words": width,
        "patterns": patterns,
        "python_patterns_per_s": patterns / python_s,
        "vector_patterns_per_s": patterns / vector_s,
        "speedup": python_s / vector_s,
    }
    publish("perf_vector_sim.txt", (
        f"perf: vector simulation, {n_gates} gates, "
        f"{patterns} patterns (W={width})\n"
        f"  python plan  : {data['python_patterns_per_s']:>12.0f} "
        f"patterns/s\n"
        f"  numpy kernel : {data['vector_patterns_per_s']:>12.0f} "
        f"patterns/s\n"
        f"  speedup      : {data['speedup']:.2f}x"), data=data)
    assert data["speedup"] > 1.0


def _pigeonhole_solver(pigeons, holes):
    s = Solver()
    v = [[s.new_var() for _ in range(holes)] for _ in range(pigeons)]
    for p in range(pigeons):
        s.add_clause(v[p])
    for h in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                s.add_clause([-v[p1][h], -v[p2][h]])
    return s


def test_perf_sat(benchmark, publish, quick):
    """Propagation throughput and learned-clause reduction cost of the
    flat-arena solver."""
    pigeons = 7 if quick else 8
    n_learnts = 5000 if quick else 20000

    def measure():
        s = _pigeonhole_solver(pigeons, pigeons - 1)
        t0 = time.perf_counter()
        verdict = s.solve()
        solve_s = time.perf_counter() - t0
        assert verdict == "unsat"

        # reduction: synthetic learnt DB, activities spread, watchers
        # attached — the mark pass plus amortized compaction
        rng = random.Random(1)
        r = Solver()
        vs = [r.new_var() for _ in range(300)]
        for _ in range(1000):
            r.add_clause([rng.choice(vs) * rng.choice((1, -1))
                          for _ in range(3)])
        for _ in range(n_learnts):
            lits = list({((rng.randrange(300)) << 1) | rng.randrange(2)
                         for _ in range(rng.randrange(3, 8))})
            if len(lits) < 3:
                continue
            offset = r._alloc(lits, learnt=True)
            r._cla_act[offset] = rng.random()
            r._learnts.append(offset)
            r._attach(offset)
        t0 = time.perf_counter()
        r._reduce_db()
        reduce_s = time.perf_counter() - t0
        return solve_s, s.propagations, reduce_s

    solve_s, propagations, reduce_s = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    data = {
        "bench": "perf_sat",
        "pigeons": pigeons,
        "propagations": propagations,
        "props_per_s": propagations / solve_s,
        "learnts": n_learnts,
        "reduce_db_ms": reduce_s * 1000,
    }
    publish("perf_sat.txt", (
        f"perf: SAT, pigeonhole({pigeons},{pigeons - 1}) + "
        f"{n_learnts}-clause reduction\n"
        f"  propagation : {data['props_per_s']:>12.0f} props/s\n"
        f"  reduce_db   : {data['reduce_db_ms']:>12.1f} ms"),
        data=data)
    assert data["props_per_s"] > 0


def test_perf_validation(benchmark, suite_cases, publish):
    case = suite_cases[PERF_CASE]
    impl, spec = case.impl, case.spec
    failing = nonequivalent_outputs(impl, spec)
    port = failing[0]
    pins, candidates = _candidate_ops(impl, spec, port, CANDIDATES)

    def measure():
        t0 = time.perf_counter()
        legacy = [reference_validate(impl, spec, ops, failing)
                  for ops in candidates]
        t1 = time.perf_counter()
        validator = IncrementalValidator(impl, spec, pins)
        incremental = [validator.validate(ops, failing)
                       for ops in candidates]
        t2 = time.perf_counter()
        for leg, inc in zip(legacy, incremental):
            assert inc.valid == leg.valid and inc.fixed == leg.fixed
        return t1 - t0, t2 - t1

    legacy_s, incremental_s = benchmark.pedantic(measure, rounds=1,
                                                 iterations=1)
    data = {
        "bench": "perf_validation",
        "case_id": PERF_CASE,
        "candidates": CANDIDATES,
        "legacy_candidates_per_s": CANDIDATES / legacy_s,
        "incremental_candidates_per_s": CANDIDATES / incremental_s,
        "speedup": legacy_s / incremental_s,
    }
    publish("perf_validation.txt", (
        f"perf: validation, case {PERF_CASE} "
        f"({CANDIDATES} candidates on output {port!r})\n"
        f"  legacy (copy + re-encode) : "
        f"{data['legacy_candidates_per_s']:>8.1f} candidates/s\n"
        f"  incremental (assumptions) : "
        f"{data['incremental_candidates_per_s']:>8.1f} candidates/s\n"
        f"  speedup                   : {data['speedup']:.2f}x"),
        data=data)
    assert data["speedup"] > 1.0


def test_perf_engine_run(benchmark, suite_cases, publish):
    """One traced end-to-end run, published for the regress gate."""
    case = suite_cases[PERF_CASE]
    result, record = benchmark.pedantic(
        lambda: traced_case_run(case, EcoConfig(seed=3), kind="perf"),
        rounds=1, iterations=1)
    counters = result.counters.as_dict()
    data = {
        "bench": "perf_engine_run",
        "case_id": PERF_CASE,
        "wall_seconds": benchmark.stats.stats.mean,
        "incremental_solves": counters["incremental_solves"],
        "plan_evals": counters["plan_evals"],
        "per_output": dict(result.per_output),
    }
    publish("perf_engine_run.txt", (
        f"perf: engine run, case {PERF_CASE} "
        f"({benchmark.stats.stats.mean:.2f}s)\n"
        f"  incremental_solves : {data['incremental_solves']}\n"
        f"  plan_evals         : {data['plan_evals']}"),
        data=data, run_records=[record])
    assert data["incremental_solves"] > 0
    assert data["plan_evals"] > 0
