"""The benchmark's own tests: layer accounting, repeatable counts, the
independent output check, the process-group reaper and the metric
names promised in BENCHMARK.json."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import types

import pytest

from ecobench import run as bench_run
from ecobench.check import simulation_mismatch
from ecobench.layers import LayerProfiler, Probe
from ecobench.measuring import one_pass
from ecobench.speed import REFERENCE_S, SpeedProbe
from ecobench.workloads import Design, Workload

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def spend(self, seconds):
        self.t += seconds


def test_nested_spans_count_each_second_once():
    clock = FakeClock()

    class Solver:
        def solve(self):
            clock.spend(3.0)

    class Validator:
        def validate(self):
            clock.spend(1.0)
            Solver().solve()
            clock.spend(1.0)

    def search():
        clock.spend(2.0)
        Validator().validate()
        Solver().solve()  # outside validation: no sat.validate_s
        clock.spend(0.5)

    engine = types.SimpleNamespace(search=search)
    prof = LayerProfiler(clock=clock)
    prof.install([
        Probe(engine, "search", "eco.search"),
        Probe(Validator, "validate", "eco.validate", "eco.validate.calls"),
        Probe(Solver, "solve", "sat.solve", "sat.solve.calls",
              after=lambda p, tok, args, res, elapsed, outer:
              p.add("sat.validate_s", elapsed)
              if p.enclosing({"eco.validate"}) else None),
    ])
    try:
        engine.search()
    finally:
        prof.uninstall()
    assert prof.self_s == {"eco.search": 2.5, "eco.validate": 2.0,
                           "sat.solve": 6.0}
    assert sum(prof.self_s.values()) == clock.t
    assert prof.counts == {"eco.validate.calls": 1, "sat.solve.calls": 2,
                           "sat.validate_s": 3.0}
    assert engine.search is search  # uninstall restores the originals


def _small_workload():
    from repro.workloads.suite import build_suite

    def designs():
        return [Design(c.name, c.impl, c.spec)
                for c in build_suite((2, 5, 9, 11))]
    return Workload("small", designs)


def test_real_solver_time_is_charged_to_the_solver_only(tmp_path):
    workload = _small_workload()
    record = one_pass(workload, workload.build(), 2019, "traced",
                      str(tmp_path))
    layers = record.layers
    total_self = sum(v for k, v in layers.items() if k.endswith("self_s"))
    # every second inside rectify lands in exactly one layer
    assert total_self <= record.total_s
    assert total_self == pytest.approx(record.total_s, rel=0.05)
    solver_contexts = (layers["sat.verify_s"] + layers["sat.diagnose_s"]
                       + layers["sat.validate_s"])
    assert 0 < solver_contexts <= layers["sat.solve.self_s"] + 1e-9
    assert layers["sat.validate_s"] > 0 and layers["eco.validate.calls"] > 0


def test_traced_passes_repeat_every_count(tmp_path):
    workload = _small_workload()
    designs = workload.build()
    first, second = (one_pass(workload, designs, 7, "traced", str(tmp_path))
                     for _ in range(2))
    counts = {k for k in first.layers if not k.endswith("_s")}
    assert {"cec.verify.calls", "sat.solve.conflicts", "eco.points.point_sets",
            "eco.choices.choices"} <= counts
    assert {k: first.layers[k] for k in counts} == \
        {k: second.layers[k] for k in counts}
    assert first.patch_gates == second.patch_gates
    assert [c.per_output for c in first.calls] == \
        [c.per_output for c in second.calls]


def test_simulation_check_is_independent_of_the_engine():
    from repro.workloads.suite import build_case

    case = build_case(2)
    assert simulation_mismatch(case.spec, case.spec, seed=1) is None
    reason = simulation_mismatch(case.impl, case.spec, seed=1)
    assert reason is not None and "differ from the spec" in reason


def test_speed_probe_scales_spans_net_of_its_own_time():
    probe = SpeedProbe()
    probe.start()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < 0.35:
            pass
    finally:
        probe.stop()
    assert len(probe.samples) >= 2  # the interval timer fired in the loop
    probe.samples = [0.001, 0.002]
    mark = probe.mark()
    probe.samples += [0.0012, 0.0012, 0.0012]
    assert probe.scaled(1.0, mark) == pytest.approx(
        (1.0 - 0.0036) * REFERENCE_S / 0.0012)
    # a span without a probe inside is scaled by the last three
    assert probe.scaled(0.05, probe.mark()) == pytest.approx(
        0.05 * REFERENCE_S / 0.0012)


_SLEEPING_GRANDCHILD = """
import multiprocessing, sys, time
if __name__ == "__main__":
    worker = multiprocessing.get_context("spawn").Process(
        target=time.sleep, args=(60,))
    worker.start()
    print(worker.pid, flush=True)
    time.sleep(60)
"""


def test_overrun_kills_the_whole_process_group():
    proc = subprocess.Popen([sys.executable, "-c", _SLEEPING_GRANDCHILD],
                            stdout=subprocess.PIPE, process_group=0)
    worker_pid = int(proc.stdout.readline())
    proc.stdout.close()
    assert os.getpgid(worker_pid) == proc.pid
    bench_run._stop_group(proc, grace=0.0)
    assert proc.poll() is not None
    assert not bench_run._group_alive(proc.pid)


def test_metric_names_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    workload = _small_workload()
    traced = one_pass(workload, workload.build(), 2019, "traced",
                      str(tmp_path))
    untraced = traced.__class__("untraced", traced.calls)
    e2e = bench_run.end_to_end([0.1], [untraced])
    layer = bench_run.per_layer([untraced, traced], {}, 1, 0)
    for declared, emitted in ((spec["end_to_end"], e2e),
                              (spec["per_layer"], layer)):
        assert [m["name"] for m in declared] == list(emitted)
        for m in declared:
            assert m["unit"] == bench_run.unit_of(m["name"])
    assert [w["name"] for w in spec["workloads"]] == \
        ["table1", "scale", "observed", "table1-jobs2"]
