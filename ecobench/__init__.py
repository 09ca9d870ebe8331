"""End-to-end, layer-attributed benchmark of the syseco engine.

Run ``python3 ecobench/run.py --workload table1`` from the repository
root; see ``ecobench/README.md`` for workloads, metrics and results.
"""
