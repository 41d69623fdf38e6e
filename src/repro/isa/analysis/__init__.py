"""Static analysis over mini-ISA kernels.

A small iterative dataflow framework (:mod:`.dataflow`) plus the passes
built on it — backward liveness (:mod:`.liveness`),
maybe-uninitialized register reads (:mod:`.reaching`), affine symbolic
addresses and uniformity (:mod:`.affine`), barrier-divergence detection
(:mod:`.barrier`) and shared-memory bounds/race checks (:mod:`.shared`) —
plus the performance side built on the same address maps: symbolic
coalescing / bank-conflict cost bounds (:mod:`.memaccess`) and the
analytical MWP/CWP-style predictor (:mod:`.perf`) — and the lint driver
tying them together (:mod:`.lint`).
"""

from repro.isa.analysis.affine import (Affine, AffineAnalysis, AffineEnv,
                                       affine_solution, refine_bounds)
from repro.isa.analysis.barrier import BarrierDivergence, barrier_divergence
from repro.isa.analysis.dataflow import (BACKWARD, CFGView, DataflowProblem,
                                         FORWARD, Solution, solve)
from repro.isa.analysis.lint import (ERROR, Finding, INFO, LintReport, PERF,
                                     RULES, WARNING, check_strict, lint_kernel,
                                     lint_kernels)
from repro.isa.analysis.liveness import LivenessAnalysis, LivenessInfo, liveness
from repro.isa.analysis.memaccess import (AccessCost, access_costs,
                                          cost_bounds_by_pc)
from repro.isa.analysis.perf import (KernelLayout, PerfPrediction, WarpProfile,
                                     layout_for, predict, predict_kernel,
                                     warp_profile)
from repro.isa.analysis.reaching import MaybeUninit, uninitialized_reads
from repro.isa.analysis.shared import (SharedAccess, SharedOOB, SharedRace,
                                       may_overlap, out_of_bounds, races,
                                       shared_accesses)

__all__ = [
    "Affine", "AffineAnalysis", "AffineEnv", "affine_solution", "refine_bounds",
    "BarrierDivergence", "barrier_divergence",
    "BACKWARD", "CFGView", "DataflowProblem", "FORWARD", "Solution", "solve",
    "ERROR", "Finding", "INFO", "LintReport", "PERF", "RULES", "WARNING",
    "check_strict", "lint_kernel", "lint_kernels",
    "LivenessAnalysis", "LivenessInfo", "liveness",
    "AccessCost", "access_costs", "cost_bounds_by_pc",
    "KernelLayout", "PerfPrediction", "WarpProfile", "layout_for",
    "predict", "predict_kernel", "warp_profile",
    "MaybeUninit", "uninitialized_reads",
    "SharedAccess", "SharedOOB", "SharedRace", "may_overlap", "out_of_bounds",
    "races", "shared_accesses",
]
