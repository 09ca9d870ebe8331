"""Ablation A: sampling-domain size and error bias.

Section 5.1 claims (i) the domain size trades precision for complexity
and (ii) error-domain samples yield fewer false positives than uniform
ones.  This bench rectifies a fixed subset of suite cases while varying
``num_samples`` and ``error_bias``, reporting the engine telemetry:

* simulation-screen rejects = sampled candidates that were false
  positives on the full domain (the precision proxy);
* SAT validations and wall-clock time (the cost proxy).
"""

from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco

CASE_IDS = (2, 5, 9)


def run_config(cases, **kwargs):
    totals = {"sim_rejects": 0, "sat_validations": 0, "gates": 0,
              "seconds": 0.0}
    for cid in CASE_IDS:
        case = cases[cid]
        result = SysEco(EcoConfig(**kwargs)).rectify(case.impl, case.spec)
        totals["sim_rejects"] += result.counters.sim_rejects
        totals["sat_validations"] += result.counters.sat_validations
        totals["gates"] += result.stats().gates
        totals["seconds"] += result.runtime_seconds
    return totals


def test_ablation_sampling_size(benchmark, suite_cases, publish):
    sizes = (4, 8, 16, 32)

    def run():
        return {n: run_config(suite_cases, num_samples=n) for n in sizes}

    by_size = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Ablation A1: sampling-domain size N (cases 2, 5, 9)",
             f"{'N':>4} {'false-pos rejects':>18} {'SAT validations':>16} "
             f"{'patch gates':>12} {'seconds':>8}"]
    for n in sizes:
        t = by_size[n]
        lines.append(f"{n:>4} {t['sim_rejects']:>18} "
                     f"{t['sat_validations']:>16} {t['gates']:>12} "
                     f"{t['seconds']:>8.2f}")
    publish("ablation_sampling_size.txt", "\n".join(lines))

    # larger domains are at least as precise: no more false positives
    # with N=32 than with N=4, and every size still rectifies
    assert by_size[32]["sim_rejects"] <= by_size[4]["sim_rejects"]
    assert all(by_size[n]["gates"] >= 0 for n in sizes)


def test_ablation_error_bias(benchmark, suite_cases, publish):
    biases = (0.0, 0.5, 1.0)

    def run():
        return {b: run_config(suite_cases, num_samples=8, error_bias=b)
                for b in biases}

    by_bias = benchmark.pedantic(run, rounds=1, iterations=1)

    def reject_rate(t):
        examined = t["sim_rejects"] + t["sat_validations"]
        return t["sim_rejects"] / examined if examined else 0.0

    lines = ["Ablation A2: error-domain bias of the samples "
             "(cases 2, 5, 9; N=8)",
             f"{'bias':>5} {'false-pos rejects':>18} "
             f"{'SAT validations':>16} {'patch gates':>12} "
             f"{'reject rate':>12}"]
    for b in biases:
        t = by_bias[b]
        lines.append(f"{b:>5.1f} {t['sim_rejects']:>18} "
                     f"{t['sat_validations']:>16} {t['gates']:>12} "
                     f"{reject_rate(t):>12.3f}")
    publish("ablation_error_bias.txt", "\n".join(lines))

    # the paper's recommendation: error-biased domains make the search
    # more precise — a smaller fraction of sampled candidates turn out
    # to be false positives on the full domain
    assert reject_rate(by_bias[1.0]) <= reject_rate(by_bias[0.0]) + 0.01
