"""Ablation B: rewiring-net sources (C only, C' only, both).

Proposition 1 draws rectification functions from nets of *either* the
current implementation or the synthesized specification.  This bench
restricts the source set and measures the patch-size cost: using both
sources never loses to either restriction, and implementation-only
rewiring (which can clone nothing) must lean on the output-port
fallback more often.
"""

from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco

CASE_IDS = (2, 5, 9, 10)


def run_sources(cases, use_impl, use_spec):
    totals = {"gates": 0, "nets": 0, "fallbacks": 0}
    for cid in CASE_IDS:
        case = cases[cid]
        config = EcoConfig(use_impl_nets=use_impl, use_spec_nets=use_spec)
        result = SysEco(config).rectify(case.impl, case.spec)
        stats = result.stats()
        totals["gates"] += stats.gates
        totals["nets"] += stats.nets
        totals["fallbacks"] += result.counters.fallbacks
    return totals


def test_ablation_sources(benchmark, suite_cases, publish):
    def run():
        return {
            "both": run_sources(suite_cases, True, True),
            "impl-only": run_sources(suite_cases, True, False),
            "spec-only": run_sources(suite_cases, False, True),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Ablation B: rewiring-net sources (cases 2, 5, 9, 10)",
             f"{'sources':>10} {'patch gates':>12} {'patch nets':>11} "
             f"{'fallbacks':>10}"]
    for name, t in results.items():
        lines.append(f"{name:>10} {t['gates']:>12} {t['nets']:>11} "
                     f"{t['fallbacks']:>10}")
    publish("ablation_sources.txt", "\n".join(lines))

    # both sources are at least as good as either restriction
    assert results["both"]["gates"] <= results["impl-only"]["gates"]
    assert results["both"]["gates"] <= results["spec-only"]["gates"] + 2
