"""Run one workload of the ECO benchmark and print its metrics.

Usage, from the repository root::

    python3 ecobench/run.py --workload table1 [--seed N] [--seconds S]
                            [--trace 0|1] [--publish] [--record-golden]

The workload's seed becomes ``EcoConfig.seed``.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced pass with ``--trace 1``).  Progress
and diagnostics go to standard error.  ``--publish`` writes the run's
tables to ``ecobench/results/``; ``--record-golden`` stores the run's
per-output outcomes as the golden ones (default seed only).  See
``ecobench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import signal
import subprocess
import sys
import time
from multiprocessing.connection import Connection

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

#: the whole run ends within this many seconds of its start
RUN_LIMIT_S = 165.0
#: one pass that runs longer than this is killed and counted as failed
PASS_DEADLINE_S = 120.0
#: seconds to wait for the measuring process after its last message
EXIT_GRACE_S = 30.0
#: prctl(2) option: orphaned descendants are re-parented to the caller
PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv):
    from ecobench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(
        description="End-to-end, layer-attributed ECO benchmark")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--publish", action="store_true",
                        help="write this run's tables to ecobench/results")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's outcomes as the golden ones")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.record_golden and args.seed != DEFAULT_SEED:
        parser.error(f"golden outcomes are recorded at seed {DEFAULT_SEED}")
    return args


# ----------------------------------------------------------------------
# the measuring process
# ----------------------------------------------------------------------
def _group_alive(pgid: int) -> bool:
    """Whether a live (not zombie) process is left in group ``pgid``."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue  # exited while we looked
        if fields[0] != "Z" and int(fields[2]) == pgid:
            return True
    return False


def _stop_group(proc, grace: float) -> None:
    """Wait up to ``grace`` for the measuring process, then kill what is
    left of its process group (it, its pool workers and their resource
    tracker) and wait until all of it has ended."""
    try:
        proc.wait(grace)
    except subprocess.TimeoutExpired:
        pass
    deadline = time.monotonic() + 10.0
    while _group_alive(proc.pid) and time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        time.sleep(0.05)
    try:
        proc.wait(5.0)
    except subprocess.TimeoutExpired:
        pass
    _reap_orphans()


def _become_subreaper() -> None:
    """Have the group's orphans (a resource tracker or pool worker whose
    parent died first) re-parented to this process instead of to init,
    so :func:`_reap_orphans` leaves no zombie behind."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init as usual


def _reap_orphans() -> None:
    """Reap every child of this process that has exited."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def start_measuring(args, work_dir: str):
    """Start ``python -m ecobench.measuring`` as the leader of a new
    process group; returns the process and the read end of its pipe.

    A plain subprocess rather than a ``multiprocessing`` one: this
    process then starts no resource tracker that could outlive it."""
    read_fd, write_fd = os.pipe()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [ROOT, os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    try:
        # the measuring process's stdout goes to stderr: this process's
        # stdout carries only its result line
        proc = subprocess.Popen(
            [sys.executable, "-m", "ecobench.measuring", str(write_fd),
             args.workload, str(args.seed), repr(args.seconds),
             str(args.trace), work_dir],
            cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=sys.stderr,
            pass_fds=(write_fd,), process_group=0)
    except BaseException:
        os.close(read_fd)
        raise
    finally:
        os.close(write_fd)
    return proc, Connection(read_fd, writable=False)


def supervise(args):
    """Run the measuring process; returns ``(setups, passes, failure)``
    where ``failure`` explains an unfinished run."""
    work_dir = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_dir, exist_ok=True)
    _become_subreaper()
    started = time.monotonic()
    proc, receiver = start_measuring(args, work_dir)
    setups, passes, failure = [], [], None
    pass_started = None
    try:
        while True:
            limit = started + RUN_LIMIT_S
            if pass_started is not None:
                limit = min(limit, pass_started + PASS_DEADLINE_S)
            if not receiver.poll(max(0.0, limit - time.monotonic())):
                failure = "a pass overran its deadline" \
                    if pass_started is not None else "run overran its limit"
                break
            try:
                message = receiver.recv()
            except EOFError:
                failure = "measuring process exited"
                break
            tag = message[0]
            if tag == "setup":
                setups = message[1]
            elif tag == "begin":
                pass_started = time.monotonic()
                print(f"[ecobench] {args.workload}: {message[1]} pass",
                      file=sys.stderr, flush=True)
            elif tag == "pass":
                pass_started = None
                passes.append(message[1])
            elif tag == "done":
                break
            else:
                failure = "measuring process failed:\n" + message[1]
                break
    finally:
        receiver.close()
        _stop_group(proc, EXIT_GRACE_S if failure is None else 0.0)
    if failure is not None:
        failure += f" (exit code {proc.returncode})"
    return setups, passes, failure


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return {"peak_rss_mb": "MB", "patch_gates": "gates"}.get(name, "count")


def end_to_end(setups, passes):
    """Times in seconds at the reference speed (see speed.py)."""
    from ecobench.workloads import median

    timed = [p for p in passes if p.kind == "untraced"]
    return {
        "total_s": median([p.scaled_total_s for p in timed]),
        "setup_s": median(setups),
        # after the first pass, so the pass count cannot move it
        "peak_rss_mb": timed[0].rss_kb / 1024.0 if timed else 0.0,
        "patch_gates": median([p.patch_gates for p in timed]),
        "rewire_ratio": median([p.rewire_ratio for p in timed]),
    }


def per_layer(passes, golden, attempted: int, failed: int):
    """Raw seconds: the traced run does not scale times."""
    by_kind = {p.kind: p for p in passes}
    traced = by_kind.get("traced")
    untraced = by_kind.get("untraced")
    bare = by_kind.get("bare")
    metrics = dict(traced.layers) if traced else {}
    calls = traced.calls if traced else []
    metrics["eco.parallel.worker_deaths"] = sum(c.worker_deaths
                                                for c in calls)
    metrics["eco.parallel.retries"] = sum(c.retries for c in calls)
    metrics["obs.overhead_s"] = (untraced.total_s - bare.total_s
                                 if untraced and bare else 0.0)
    metrics["bench.wrap_overhead_s"] = (traced.total_s - untraced.total_s
                                        if traced and untraced else 0.0)
    metrics["failed_ratio"] = failed / attempted if attempted else 0.0
    metrics["outcome_drift"] = traced.drift(golden) if traced else 0
    return metrics


def result_line(args, setups, passes, failure):
    from ecobench.workloads import load_golden

    attempted = sum(len(p.calls) for p in passes)
    failed = sum(p.failed for p in passes)
    errors = [f"{c.label}: {c.error}" for p in passes for c in p.calls
              if c.error is not None]
    if failure is not None:
        # the pass that never returned counts as one failed attempt
        attempted += 1
        failed += 1
        errors.append(failure)
    for line in errors:
        print(f"[ecobench] FAILED {line}", file=sys.stderr)
    if args.trace:
        golden = load_golden().get(args.workload)
        metrics = per_layer(passes, golden, attempted, failed)
    else:
        metrics = end_to_end(setups, passes)
        timed = [p for p in passes if p.kind == "untraced"]
        print("[ecobench] raw pass seconds: "
              + ", ".join(f"{p.total_s:.3f}" for p in timed),
              file=sys.stderr)
    return {
        "correct": not errors and bool(passes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no engine sources at {os.path.join(ROOT, 'src')}; "
              "run from a full checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    args = parse_args(argv)
    setups, passes, failure = supervise(args)
    result = result_line(args, setups, passes, failure)
    if args.publish:
        from ecobench.report import publish
        for path in publish(args, passes, result):
            print(f"[ecobench] wrote {path}", file=sys.stderr)
    if args.record_golden:
        from ecobench.workloads import record_golden
        if not result["correct"] or result["failed"]:
            print("error: not recording golden outcomes of a failed run",
                  file=sys.stderr)
            return 1
        record_golden(args.workload, passes[0])
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
