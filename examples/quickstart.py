"""Quickstart: rectify a one-gate bug with syseco.

The current implementation computes ``o = (a | b) ^ c`` while the
revised specification wants ``o = (a & b) ^ c``.  The engine locates a
rectification point, rewires it to a clone of the revised logic, proves
full equivalence with its own SAT solver and reports the Table-2 style
patch attributes.

Run:  python examples/quickstart.py

Pass ``--trace run.json --trace-format chrome`` to record a span trace
of the run (open it in Perfetto / ``chrome://tracing``, or summarize it
with ``python -m repro trace run.json``), and ``--metrics run.prom``
for a Prometheus-style metrics snapshot.  ``--store [DIR]`` publishes
the run into the persistent run store so ``python -m repro runs
list|show|diff|regress`` can track it across invocations.
"""

import argparse

from repro import Circuit, EcoConfig, SysEco, check_equivalence


def build_specification() -> Circuit:
    spec = Circuit("spec")
    a, b, c = spec.add_inputs(["a", "b", "c"])
    g1 = spec.and_(a, b, name="g1")
    spec.set_output("o", spec.xor(g1, c, name="g2"))
    return spec


def build_implementation() -> Circuit:
    impl = Circuit("impl")
    a, b, c = impl.add_inputs(["a", "b", "c"])
    h1 = impl.or_(a, b, name="h1")  # the bug: OR instead of AND
    impl.set_output("o", impl.xor(h1, c, name="h2"))
    return impl


def parse_args() -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace", metavar="FILE",
                        help="record a span trace of the run")
    parser.add_argument("--trace-format", choices=["jsonl", "chrome"],
                        default="jsonl")
    parser.add_argument("--metrics", metavar="FILE",
                        help="write a Prometheus-style metrics snapshot")
    parser.add_argument("--store", metavar="DIR", nargs="?",
                        const="", default=None,
                        help="publish the run into the run store "
                             "(default dir: $REPRO_RUN_STORE or "
                             ".repro/runs)")
    return parser.parse_args()


def main() -> None:
    args = parse_args()
    spec = build_specification()
    impl = build_implementation()

    trace = None
    if args.trace or args.metrics or args.store is not None:
        from repro.obs import Trace
        trace = Trace(name=impl.name)

    engine = SysEco(EcoConfig(num_samples=4))
    result = engine.rectify(impl, spec, trace=trace)

    print("committed rewire operations:")
    for op in result.patch.ops:
        print(f"  {op.describe()}")

    stats = result.stats()
    print(f"\npatch attributes: inputs={stats.inputs} "
          f"outputs={stats.outputs} gates={stats.gates} "
          f"nets={stats.nets}")
    print(f"runtime: {result.runtime_seconds:.3f}s")

    verdict = check_equivalence(result.patched, spec)
    print(f"formally equivalent to the revised spec: {verdict.equivalent}")
    assert verdict.equivalent is True

    if trace is not None:
        from repro.obs import (format_summary, summarize, write_chrome,
                               write_jsonl, write_prometheus)
        print()
        print(format_summary(summarize(trace.records())))
        if args.trace:
            writer = (write_chrome if args.trace_format == "chrome"
                      else write_jsonl)
            writer(trace, args.trace)
            print(f"\nwrote {args.trace} ({args.trace_format} trace)")
        if args.metrics:
            write_prometheus(trace, args.metrics)
            print(f"wrote {args.metrics} (metrics snapshot)")

    if args.store is not None:
        from repro.obs import RunStore, record_from_result
        record = record_from_result(
            result, trace=trace, kind="quickstart", name=impl.name,
            config=engine.config,
            outcome="ok" if verdict.equivalent is True else "failed")
        store = RunStore(args.store or None)
        store.publish(record)
        print(f"recorded run {record.run_id} (store: {store.root})")


if __name__ == "__main__":
    main()
