"""Ablation C: the rectification-utility heuristic (Section 4.3).

Candidate rewiring nets are ordered by how often they differ from the
pin's current driver across the sampled error domain.  This bench runs
the engine with the ordering on and off and reports patch size and
search effort; the ordered search should reach patches at least as
small without examining more candidates.
"""

from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco

CASE_IDS = (2, 4, 5, 9)


def run_variant(cases, ordered):
    totals = {"gates": 0, "sat_validations": 0, "seconds": 0.0}
    for cid in CASE_IDS:
        case = cases[cid]
        config = EcoConfig(utility_ordering=ordered)
        result = SysEco(config).rectify(case.impl, case.spec)
        totals["gates"] += result.stats().gates
        totals["sat_validations"] += result.counters.sat_validations
        totals["seconds"] += result.runtime_seconds
    return totals


def test_ablation_utility(benchmark, suite_cases, publish):
    def run():
        return {
            "utility-ordered": run_variant(suite_cases, True),
            "unordered": run_variant(suite_cases, False),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Ablation C: utility ordering of rewiring candidates "
             "(cases 2, 4, 5, 9)",
             f"{'variant':>16} {'patch gates':>12} "
             f"{'SAT validations':>16} {'seconds':>8}"]
    for name, t in results.items():
        lines.append(f"{name:>16} {t['gates']:>12} "
                     f"{t['sat_validations']:>16} {t['seconds']:>8.2f}")
    publish("ablation_utility.txt", "\n".join(lines))

    ordered = results["utility-ordered"]
    unordered = results["unordered"]
    # the heuristic must not hurt patch quality
    assert ordered["gates"] <= unordered["gates"] + 2
