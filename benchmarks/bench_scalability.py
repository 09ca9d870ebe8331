"""Scalability of the rectification search with design size.

The paper's third Table-2 observation: syseco 'scales well on the
larger test cases, where DeltaSyn times out', because the symbolic
computation runs in the sampling domain whose size is independent of
the design.  This bench grows one design family (word gating + control)
from 48 to ~13k gates while keeping the revision fixed, and reports
each engine's runtime and patch size, asserting that runtime growth
stays moderate (no exponential blowup in the symbolic core).
"""

import time

from repro.eco.config import EcoConfig
from repro.eco.engine import SysEco
from repro.baselines.deltasyn import DeltaSyn
from repro.synth import optimize_heavy, optimize_light
from repro.workloads.generators import (
    control_design,
    mixed_design,
    word_mux_design,
)
from repro.workloads.revisions import apply_revision


def build_instance(scale: int):
    blocks = [
        ("wm", word_mux_design(n_words=2, width=4 * scale)),
        ("ctl", control_design(n_inputs=6 + 2 * scale,
                               n_outputs=4 * scale,
                               n_terms=6 * scale, seed=scale)),
    ]
    source = mixed_design(blocks, name=f"scale{scale}")
    impl = optimize_heavy(source, seed=scale + 100)
    revised = source.copy()
    apply_revision(revised, "gate-type", seed=3, bias="deep")
    return impl, optimize_light(revised)


def test_scalability(benchmark, publish):
    scales = (1, 2, 4, 8, 16, 32, 64, 128, 256)

    def run():
        rows = []
        for scale in scales:
            impl, spec = build_instance(scale)
            t0 = time.time()
            syseco = SysEco(EcoConfig()).rectify(impl, spec)
            t_sys = time.time() - t0
            t0 = time.time()
            DeltaSyn().rectify(impl, spec)
            t_delta = time.time() - t0
            rows.append({
                "scale": scale,
                "gates": impl.num_gates,
                "syseco_s": t_sys,
                "deltasyn_s": t_delta,
                "patch_gates": syseco.stats().gates,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Scalability: one family grown ~270x, fixed revision",
             f"{'scale':>6} {'gates':>7} {'syseco,s':>9} "
             f"{'DeltaSyn,s':>11} {'patch gates':>12}"]
    for r in rows:
        lines.append(f"{r['scale']:>6} {r['gates']:>7} "
                     f"{r['syseco_s']:>9.2f} {r['deltasyn_s']:>11.2f} "
                     f"{r['patch_gates']:>12}")
    publish("scalability.txt", "\n".join(lines), data={"rows": rows})

    # every size completes, patches stay small, and runtime growth is
    # polynomial-moderate: an N-times bigger design costs less than
    # N^2 times the time of the smallest
    growth = rows[-1]["syseco_s"] / max(rows[0]["syseco_s"], 1e-3)
    size_ratio = rows[-1]["gates"] / rows[0]["gates"]
    assert size_ratio >= 6
    assert growth < size_ratio ** 2
    for r in rows:
        assert r["patch_gates"] <= 8
