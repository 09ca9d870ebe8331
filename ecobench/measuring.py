"""The measuring process of one benchmark run.

``run.py`` starts this module as a process that leads its own process
group, so a pass that overruns its deadline can be killed together with
the engine's pool workers::

    python3 -m ecobench.measuring <pipe-fd> <workload> <seed> <seconds> \
        <trace 0|1> <work-dir>

The process builds the designs, runs the passes and streams each result
back over the inherited pipe:

* ``("setup", [seconds, ...])`` once, after building the designs
  :data:`SETUP_REPEATS` times (scaled to the reference speed in an
  untraced run, see :mod:`ecobench.speed`);
* ``("begin", kind)`` before and ``("pass", PassRecord)`` after every
  pass;
* ``("done",)`` at the end, or ``("error", traceback)`` when the
  process itself fails.
"""

from __future__ import annotations

import gc
import multiprocessing
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from multiprocessing.connection import Connection

from ecobench.layers import LayerProfiler, engine_probes, layer_metrics
from ecobench.speed import SpeedProbe
from ecobench.workloads import WORKLOADS, run_pass

SETUP_REPEATS = 5
#: seconds a finished pass's pool workers get to exit before termination
REAP_TIMEOUT_S = 10.0


def reap_workers() -> None:
    """Join every child process (the engine's pool workers), terminating
    any that outlive :data:`REAP_TIMEOUT_S`."""
    deadline = time.monotonic() + REAP_TIMEOUT_S
    for proc in multiprocessing.active_children():
        proc.join(max(0.0, deadline - time.monotonic()))
        if proc.is_alive():
            proc.kill()
            proc.join(REAP_TIMEOUT_S)


def peak_rss_kb() -> int:
    """Peak resident KB of this process plus its largest reaped child."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def one_pass(workload, designs, seed: int, kind: str, work_dir: str,
             probe=None):
    """One pass of ``kind`` ("untraced", "traced" or "bare")."""
    store_dir = None
    if workload.observed and kind != "bare":
        store_dir = tempfile.mkdtemp(prefix="store-", dir=work_dir)
    gc.collect()
    profiler = LayerProfiler() if kind == "traced" else None
    try:
        if profiler is not None:
            profiler.install(engine_probes())
        record = run_pass(workload, designs, seed, kind, profiler=profiler,
                          store_dir=store_dir, probe=probe)
    finally:
        if profiler is not None:
            profiler.uninstall()
        if store_dir is not None:
            shutil.rmtree(store_dir, ignore_errors=True)
        reap_workers()
    if profiler is not None:
        record.layers = layer_metrics(profiler)
    record.rss_kb = peak_rss_kb()
    return record


def measure(conn, name: str, seed: int, seconds: float, trace: bool,
            work_dir: str) -> None:
    workload = WORKLOADS[name]
    # end-to-end times are scaled to the reference speed; the traced
    # run's layer times stay raw and unperturbed by the probe
    probe = None if trace else SpeedProbe()
    if probe is not None:
        probe.start()
    try:
        _measure_passes(conn, workload, seed, seconds, trace, work_dir,
                        probe)
    finally:
        if probe is not None:
            probe.stop()
    conn.send(("done",))


def _measure_passes(conn, workload, seed, seconds, trace, work_dir,
                    probe) -> None:
    setups = []
    for _ in range(SETUP_REPEATS):
        mark = probe.mark() if probe is not None else 0
        started = time.perf_counter()
        designs = workload.build()
        elapsed = time.perf_counter() - started
        setups.append(probe.scaled(elapsed, mark) if probe is not None
                      else elapsed)
    conn.send(("setup", setups))

    def measured(kind: str) -> float:
        started = time.perf_counter()
        conn.send(("begin", kind))
        conn.send(("pass", one_pass(workload, designs, seed, kind,
                                    work_dir, probe)))
        return time.perf_counter() - started

    if trace:
        # the traced pass gives the layers; the untraced one beside it
        # prices the wrappers, and a bare pass prices observability
        kinds = (["bare"] if workload.observed else []) + \
            ["untraced", "traced"]
        for kind in kinds:
            measured(kind)
    else:
        # as many passes as fit in the measuring window, at least one
        started = time.perf_counter()
        walls = []
        while True:
            walls.append(measured("untraced"))
            elapsed = time.perf_counter() - started
            if elapsed + statistics.median(walls) > seconds:
                break


def main(argv) -> None:
    """Entry point of the measuring process."""
    fd, name, seed, seconds, trace, work_dir = argv
    conn = Connection(int(fd), readable=False)
    try:
        measure(conn, name, int(seed), float(seconds), trace == "1",
                work_dir)
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


if __name__ == "__main__":
    main(sys.argv[1:])
