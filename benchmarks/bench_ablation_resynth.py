"""Ablation D: rectification-logic resynthesis (Section 7 future work).

The paper names rectification logic synthesis as the next improvement
to the flow.  This bench measures what the implemented resubstitution
post-pass buys: cloned patch logic re-expressed as single gates over
existing nets, after the standard sweep has already reused exact
duplicates.
"""

from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco

CASE_IDS = (1, 7, 9, 11)


def run_variant(cases, resynthesis):
    totals = {"gates": 0, "nets": 0, "resubs": 0, "seconds": 0.0}
    for cid in CASE_IDS:
        case = cases[cid]
        result = SysEco(EcoConfig(resynthesis=resynthesis)).rectify(
            case.impl, case.spec)
        stats = result.stats()
        totals["gates"] += stats.gates
        totals["nets"] += stats.nets
        totals["resubs"] += result.counters.resubstitutions
        totals["seconds"] += result.runtime_seconds
    return totals


def test_ablation_resynth(benchmark, suite_cases, publish):
    def run():
        return {
            "baseline": run_variant(suite_cases, False),
            "resynthesis": run_variant(suite_cases, True),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Ablation D: rectification-logic resynthesis "
             "(cases 1, 7, 9, 11)",
             f"{'variant':>12} {'patch gates':>12} {'patch nets':>11} "
             f"{'resubs':>7} {'seconds':>8}"]
    for name, t in results.items():
        lines.append(f"{name:>12} {t['gates']:>12} {t['nets']:>11} "
                     f"{t['resubs']:>7} {t['seconds']:>8.2f}")
    publish("ablation_resynth.txt", "\n".join(lines))

    # the post-pass never grows the patch
    assert results["resynthesis"]["gates"] <= results["baseline"]["gates"]
