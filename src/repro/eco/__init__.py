"""The syseco engine: rewire-based ECO rectification via symbolic sampling.

This package is the paper's primary contribution.  Entry point:

    >>> from repro.eco import SysEco, EcoConfig
    >>> engine = SysEco(EcoConfig())
    >>> result = engine.rectify(impl, spec)
    >>> result.patched           # implementation rectified to match spec
    >>> result.patch.stats()     # Table-2 style patch attributes

Pipeline (Section 5.2): per failing output — error-biased sampling
domain, mux-parameterized rectification-point enumeration ``H(t)``
(the one BDD computation), candidate rewiring nets (structural filter +
utility heuristic), the rewiring-choice condition ``Xi(c)`` checked per
choice on the sample words, and full-domain SAT validation — followed
by global pruning and patch-input sweeping.
"""

from repro.eco.config import EcoConfig
from repro.eco.patch import Patch, PatchStats, RewireOp, RectificationResult
from repro.eco.sampling import SamplingDomain
from repro.eco.samples import collect_error_samples
from repro.eco.engine import SysEco, rectify
from repro.eco.checkpoint import RunJournal, list_resumable
from repro.eco.analysis import diagnose, format_diagnosis
from repro.eco.report import format_patch_report

__all__ = [
    "EcoConfig",
    "Patch",
    "PatchStats",
    "RewireOp",
    "RectificationResult",
    "SamplingDomain",
    "collect_error_samples",
    "SysEco",
    "rectify",
    "RunJournal",
    "list_resumable",
    "diagnose",
    "format_diagnosis",
    "format_patch_report",
]
