"""Configuration of the syseco engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass
class EcoConfig:
    """Tuning knobs of the rectification search.

    Attributes:
        num_samples: size ``N`` of the sampling domain (Section 5.1);
            ``ceil(log2 N)`` ``z`` variables are allocated.  Larger
            domains mean fewer false-positive candidates but bigger
            BDDs.
        max_points: largest rectification point-set size ``m`` tried
            (the engine starts at 1 and grows on failure).
        max_candidate_pins: cap ``M`` on the sink pins considered as
            rectification points per failing output.
        max_rewire_candidates: cap on candidate rewiring nets per
            rectification point (ordered by rectification utility).
        prime_limit: number of prime cubes of ``H(t)`` expanded into
            candidate point-sets.
        pointset_limit: number of candidate point-sets examined per
            failing output.
        choice_limit: number of rewiring-choice assignments of
            ``Xi(c)`` validated per point-set.
        sat_budget: conflict budget per validation SAT call (the
            'resource-constrained SAT solver').
        bdd_node_limit: node cap of the sampling-domain BDD manager;
            exceeding it shrinks the candidate-pin set and retries.
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
        sample_diversify: harvest a larger error pool and keep a greedy
            max-Hamming-distance subset (the paper's other future-work
            direction: sampling domain selection).
        exact_domain_max_inputs: when a failing cone's structural
            support has at most this many inputs, enumerate it
            completely instead of sampling — the Section 4 computation
            in its exact form (0 disables; 8 is a practical value).
        cegar_refinement: when every sampled candidate for an output is
            refuted on the full domain, fold the refuting
            counterexamples back into the sample set and search once
            more — counterexample-guided domain refinement.
        joint_outputs: when greater than 1, failing outputs whose cones
            overlap are rectified *jointly* — one point-set and one
            rewiring must fix the whole group (addresses the paper's
            single-output-view limitation; groups of this size at most).
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
            ``sat_budget`` still caps each individual call).
        total_bdd_nodes: aggregate BDD node cap across all symbolic
            sessions of a run (``None`` = unlimited; ``bdd_node_limit``
            still caps each session).
        max_output_attempts: symbolic-search attempts (pin-shrink
            retries, CEGAR rounds) allowed per failing output before
            the engine stops searching it and falls back.
        sat_budget_initial: starting per-call conflict budget of the
            adaptive escalation policy (``None`` derives
            ``sat_budget // 8``); escalated geometrically on UNKNOWN.
        sat_escalation_factor: geometric growth of the per-call budget
            between attempts of one validation.
        sat_escalation_attempts: attempts per validation call before
            the answer is accepted as UNKNOWN.
        sat_deescalate_after: consecutive unresolved calls after which
            the starting budget is halved (de-escalation).
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
        worker_retries: times a parallel partition whose worker died is
            re-dispatched before its outputs are quarantined; ``0``
            quarantines on the first death.
        retry_backoff_s: base of the exponential backoff slept before a
            partition retry (doubled per retry, jittered).

    Telemetry sampling (active only when the run is traced; see
    :mod:`repro.obs.sampler`):

        sample_interval_s: seconds between ``obs.sample`` counter
            snapshots taken by the in-run sampler thread; ``0``
            disables the thread but keeps the start/stop snapshots.
        stall_window_s: span-progress silence after which the sampler
            emits a ``run.stalled`` event with a degradation hint.
        trace_malloc: run ``tracemalloc`` for the duration of a traced
            run and record traced-memory peaks in each sample
            (measurable overhead; off by default).
        sync_debug: enable the runtime lock-order/deadlock detector
            (:mod:`repro.runtime.sync`) for the run: every sanctioned
            lock participates in the global acquisition-order graph,
            order inversions are logged with both stacks, and per-lock
            wait times feed the ``repro_sync_lock_wait_seconds``
            histogram on a traced run's registry.  Equivalent to
            ``REPRO_SYNC_DEBUG=1``; off by default (the traced
            wrappers cost a few hundred nanoseconds per acquisition).
    """

    num_samples: int = 16
    max_points: int = 2
    max_candidate_pins: int = 20
    max_rewire_candidates: int = 8
    prime_limit: int = 8
    pointset_limit: int = 12
    choice_limit: int = 16
    sat_budget: int = 50000
    bdd_node_limit: int = 400000
    error_bias: float = 1.0
    use_impl_nets: bool = True
    use_spec_nets: bool = True
    utility_ordering: bool = True
    level_aware: bool = False
    resynthesis: bool = False
    sample_diversify: bool = False
    exact_domain_max_inputs: int = 0
    cegar_refinement: bool = True
    joint_outputs: int = 1
    jobs: int = 1
    seed: int = 2019
    deadline_s: Optional[float] = None
    total_sat_budget: Optional[int] = None
    total_bdd_nodes: Optional[int] = None
    max_output_attempts: int = 8
    sat_budget_initial: Optional[int] = None
    sat_escalation_factor: float = 4.0
    sat_escalation_attempts: int = 3
    sat_deescalate_after: int = 3
    degrade_on_budget: bool = True
    resume_from: Optional[str] = None
    worker_retries: int = 1
    retry_backoff_s: float = 0.25
    sample_interval_s: float = 0.05
    stall_window_s: float = 30.0
    trace_malloc: bool = False
    sync_debug: bool = False

    def __post_init__(self) -> None:
        for name in ("num_samples", "max_points", "max_candidate_pins",
                     "max_rewire_candidates", "prime_limit",
                     "pointset_limit", "choice_limit", "sat_budget",
                     "bdd_node_limit", "joint_outputs",
                     "jobs", "max_output_attempts",
                     "sat_escalation_attempts", "sat_deescalate_after"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if not (self.use_impl_nets or self.use_spec_nets):
            raise ValueError("at least one rewiring-net source is required")
        if not 0.0 <= self.error_bias <= 1.0:
            raise ValueError("error_bias must be in [0, 1]")
        if self.exact_domain_max_inputs < 0:
            raise ValueError("exact_domain_max_inputs must be >= 0")
        for name in ("deadline_s", "total_sat_budget", "total_bdd_nodes",
                     "sat_budget_initial"):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive when set")
        if self.sat_escalation_factor <= 1.0:
            raise ValueError("sat_escalation_factor must exceed 1")
        if self.worker_retries < 0:
            raise ValueError("worker_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValueError("retry_backoff_s must be >= 0")
        if self.sample_interval_s < 0:
            raise ValueError("sample_interval_s must be >= 0")
        if self.stall_window_s <= 0:
            raise ValueError("stall_window_s must be positive")
