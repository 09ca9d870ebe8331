"""Tables published from a benchmark run (``run.py --publish``).

``results/<workload>.txt`` holds the per-call syseco time table (the
time column of the paper's Table 2) and, for a traced run, each call's
per-layer split; ``results/<workload>.json`` is its machine-readable
twin with the run's result line.
"""

from __future__ import annotations

import json
import os
from typing import Dict, List

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: columns of the per-call layer split: (heading, keys summed)
SPLIT = [
    ("verify", ("cec.verify", "sat.verify_s")),
    ("diagnose", ("cec.diagnose", "sat.diagnose_s")),
    ("search", ("eco.samples", "bdd.domain", "eco.points", "eco.choices",
                "eco.rewiring", "lint.screen", "netlist.sim_screen",
                "netlist.simulate")),
    ("validate", ("eco.validate", "sat.validate_s")),
    ("refine", ("eco.refine",)),
    ("parallel", ("eco.parallel",)),
    ("obs", ("obs.journal", "obs.record", "obs.store")),
    ("engine", ("eco.engine",)),
]


def _split(layers: Dict[str, float], seconds: float) -> Dict[str, float]:
    split = {head: sum(layers.get(k, 0.0) for k in keys)
             for head, keys in SPLIT}
    # solver seconds outside verify/diagnose/validate (samples, refine)
    split["sat other"] = layers.get("sat.solve", 0.0) - sum(
        layers.get(k, 0.0)
        for k in ("sat.verify_s", "sat.diagnose_s", "sat.validate_s"))
    split["unattributed"] = seconds - sum(split.values())
    return split


def _by_label(record) -> Dict[str, List]:
    calls: Dict[str, List] = {}
    for call in record.calls:
        calls.setdefault(call.label, []).append(call)
    return calls


def publish(args, passes, result) -> List[str]:
    """Write the run's tables; returns the paths written."""
    from ecobench.workloads import REWIRED, median

    timed = [p for p in passes if p.kind == "untraced"]
    traced = next((p for p in passes if p.kind == "traced"), None)
    lines = [f"ecobench {args.workload}, seed {args.seed}: syseco seconds "
             f"per call (median of {len(timed)} untraced pass(es))",
             f"{'call':>10} {'seconds':>9} {'patch gates':>12} "
             f"{'outputs':>8} {'rewired':>8}"]
    rows = []
    if timed:
        by_label = [_by_label(p) for p in timed]
        for label, calls in by_label[0].items():
            seconds = median([sum(c.seconds for c in b[label])
                              for b in by_label])
            first = calls[0]
            rewired = sum(1 for how in first.per_output.values()
                          if how in REWIRED)
            rows.append({"call": label, "calls": len(calls),
                         "seconds": seconds,
                         "patch_gates": first.patch_gates,
                         "outputs": len(first.per_output),
                         "rewired": rewired})
            lines.append(f"{label:>10} {seconds:>9.3f} "
                         f"{first.patch_gates:>12} "
                         f"{len(first.per_output):>8} {rewired:>8}")
        lines.append(f"{'total':>10} "
                     f"{median([p.total_s for p in timed]):>9.3f}")
    splits = {}
    if traced is not None:
        heads = [h for h, _ in SPLIT] + ["sat other", "unattributed"]
        lines += ["", "per-layer split of the traced pass, seconds",
                  f"{'call':>10} {'total':>8} "
                  + " ".join(f"{h:>12}" for h in heads)]
        for label, calls in _by_label(traced).items():
            layers: Dict[str, float] = {}
            for call in calls:
                for key, value in call.layers.items():
                    layers[key] = layers.get(key, 0.0) + value
            seconds = sum(c.seconds for c in calls)
            split = _split(layers, seconds)
            splits[label] = dict(split, total=seconds)
            lines.append(f"{label:>10} {seconds:>8.3f} "
                         + " ".join(f"{split[h]:>12.3f}" for h in heads))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    text_path = os.path.join(RESULTS_DIR, f"{args.workload}.txt")
    json_path = os.path.join(RESULTS_DIR, f"{args.workload}.json")
    with open(text_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "rows": rows, "layer_split": splits,
                   "result": result}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return [text_path, json_path]
