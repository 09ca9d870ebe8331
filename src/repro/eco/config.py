"""Configuration of the syseco engine.

:class:`EcoConfig` holds only what a caller tunes: the paper's sample
count ``N`` and point-set size ``m`` (Sec. 5.2), the ablation switches,
the seed, ``jobs`` and the run's supervision and resume settings.  The
search's fixed caps are constants next to their one reader:
``MAX_CANDIDATE_PINS`` and ``BDD_NODE_LIMIT`` in
:mod:`repro.eco.engine`, ``MAX_REWIRE_CANDIDATES`` in
:mod:`repro.eco.rewiring`, the prime, point-set and choice limits as
the defaults of :func:`~repro.eco.points.feasible_point_sets` and
:func:`~repro.eco.choices.enumerate_rewiring_choices`, and
``SAT_QUERY_BUDGET`` in :mod:`repro.runtime.supervisor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class EcoConfig:
    """Tuning knobs of the rectification search.

    The engine runs the paper's flow (Section 5.2): each failing output
    gets one single-output search in an error-biased sampling domain,
    then the guaranteed fallback if no candidate validates.

    Attributes:
        num_samples: size ``N`` of the sampling domain (Section 5.1);
            ``ceil(log2 N)`` ``z`` variables are allocated.  Larger
            domains mean fewer false-positive candidates but bigger
            BDDs.
        max_points: largest rectification point-set size ``m`` tried
            (the engine starts at 1 and grows on failure).
        error_bias: fraction of the sampling domain drawn from the
            error domain ``E`` (the remainder is uniform random);
            the paper observes error-domain samples give fewer false
            positives.
        use_impl_nets / use_spec_nets: allow rewiring sources from the
            current implementation / the synthesized specification
            (both True reproduces the paper; ablation B toggles them).
        utility_ordering: order candidate rewiring nets by the Section
            4.3 utility ratio (ablation C toggles this).
        level_aware: prefer rewire choices that do not increase logic
            depth (the 'level-driven optimization decisions' behind
            Table 3).
        resynthesis: run the rectification-logic resynthesis post-pass
            (the paper's future-work direction, Section 7): cloned
            patch logic is re-expressed as single gates over existing
            nets where SAT proves the equality.
        seed: randomization seed (sampling, simulation).

    Performance machinery (see docs/performance.md):

        jobs: worker processes for the per-output search phase.  With
            ``jobs > 1`` non-equivalent outputs are partitioned across
            a process pool; the run budget is split between workers and
            every worker's counters, spans and commits are merged back
            into the main run.  ``1`` (default) keeps the sequential
            path.

    Run supervision (see ``repro.runtime`` and docs/architecture.md):

        deadline_s: wall-clock deadline of one ``rectify`` run in
            seconds (``None`` = unlimited).  On expiry the run degrades
            gracefully or, with ``degrade_on_budget=False``, raises.
        total_sat_budget: aggregate SAT conflict cap across all
            supervised validation calls of a run (``None`` = unlimited;
            ``SAT_QUERY_BUDGET`` still caps each individual call).
        total_bdd_nodes: aggregate BDD node cap across all symbolic
            sessions of a run (``None`` = unlimited; ``BDD_NODE_LIMIT``
            still caps each session).
        degrade_on_budget: when a run-level budget (deadline, total SAT
            conflicts, total BDD nodes) is exhausted, checkpoint the
            partial patch and force-complete the remaining failing
            outputs via the guaranteed fallback, returning a
            ``degraded=True`` result; ``False`` = strict mode, raise
            :class:`~repro.errors.ResourceBudgetExceeded` instead.

    Fault tolerance (see docs/robustness.md):

        resume_from: run id of a dead journaled run to resume; its
            checkpoint journal is replayed before the search continues
            (``repro eco --resume``; ``None`` = fresh run).
    """

    num_samples: int = 16
    max_points: int = 2
    error_bias: float = 1.0
    use_impl_nets: bool = True
    use_spec_nets: bool = True
    utility_ordering: bool = True
    level_aware: bool = False
    resynthesis: bool = False
    jobs: int = 1
    seed: int = 2019
    deadline_s: Optional[float] = None
    total_sat_budget: Optional[int] = None
    total_bdd_nodes: Optional[int] = None
    degrade_on_budget: bool = True
    resume_from: Optional[str] = None

    def __post_init__(self) -> None:
        for name in ("num_samples", "max_points", "jobs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not (self.use_impl_nets or self.use_spec_nets):
            raise ValueError("at least one rewiring-net source is required")
        if not 0.0 <= self.error_bias <= 1.0:
            raise ValueError("error_bias must be in [0, 1]")
        for name in ("deadline_s", "total_sat_budget", "total_bdd_nodes"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
