"""Typed per-run telemetry counters.

Replaces the engine-instance counter dict (which leaked state across
``rectify`` calls) with a dataclass owned by the run supervisor and
returned on the public :class:`~repro.eco.patch.RectificationResult`.
Read counters as attributes, or as a plain mapping via ``as_dict()``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class RunCounters:
    """Search-effort and supervision telemetry of one rectification run.

    Search effort (the ablation benches read these):

    * ``choices`` — rewiring-choice assignments examined;
    * ``lint_screens`` — candidates checked by the static patch screen;
    * ``lint_rejects`` — candidates it rejected before any solver work;
    * ``sim_rejects`` — candidates dropped by the simulation screen;
    * ``sat_validations`` — full-domain SAT validations performed;
    * ``point_sets`` — candidate point-sets enumerated;
    * ``fallbacks`` — outputs completed by the Sec. 3.3 fallback;
    * ``resubstitutions`` — resynthesis-pass resubstitutions.

    Performance machinery (the incremental/compiled fast paths):

    * ``incremental_solves`` — assumption-based candidate solves on the
      persistent validation miter;
    * ``plan_evals`` — batched evaluations through compiled simulation
      plans (engine-visible ones: screens and samplers);
    * ``parallel_workers`` — worker processes that contributed results
      to a parallel per-output search.

    Supervision (the :mod:`repro.runtime` layer writes these):

    * ``sat_unknowns`` — supervised SAT queries left UNKNOWN (budget
      spent or fault-injected);
    * ``sat_conflicts_spent`` — aggregate conflicts across the run;
    * ``bdd_nodes_spent`` — aggregate BDD nodes across all sessions;
    * ``bdd_sessions`` — symbolic sessions opened;
    * ``attempts_capped`` — outputs whose search hit the attempt cap;
    * ``degraded_outputs`` — outputs force-completed after exhaustion.

    Fault tolerance (checkpoint/resume and the supervised pool):

    * ``worker_deaths`` — supervised pool workers that died mid-task;
    * ``tasks_retried`` — partition tasks re-dispatched after a death;
    * ``outputs_quarantined`` — partitions abandoned after repeated
      worker deaths (their outputs complete via the fallback);
    * ``replayed_commits`` — journaled patches replayed on resume.
    """

    choices: int = 0
    lint_screens: int = 0
    lint_rejects: int = 0
    sim_rejects: int = 0
    sat_validations: int = 0
    point_sets: int = 0
    fallbacks: int = 0
    resubstitutions: int = 0
    incremental_solves: int = 0
    plan_evals: int = 0
    parallel_workers: int = 0
    sat_unknowns: int = 0
    sat_conflicts_spent: int = 0
    bdd_nodes_spent: int = 0
    bdd_sessions: int = 0
    attempts_capped: int = 0
    degraded_outputs: int = 0
    worker_deaths: int = 0
    tasks_retried: int = 0
    outputs_quarantined: int = 0
    replayed_commits: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def nonzero(self) -> Dict[str, int]:
        return {k: v for k, v in self.as_dict().items() if v}
