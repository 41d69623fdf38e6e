"""Experiment harness: run matrices of (benchmark × architecture × config)
and render the paper's tables and figure series as aligned-text reports.

The per-experiment entry points live in :mod:`repro.analysis.experiments`
(one function per paper artifact, E1..E12); the pytest-benchmark wrappers
under ``benchmarks/`` call straight into them.
"""

from repro.analysis.geomean import geomean, speedup_summary
from repro.analysis.orchestrator import (
    SweepCell,
    SweepResult,
    matrix_cells,
    run_sweep,
)
from repro.analysis.runner import (
    RunRecord,
    run_benchmark,
    run_benchmark_safe,
)
from repro.analysis.trace import CTATracer
from repro.analysis.tables import ascii_bars, format_table

__all__ = [
    "geomean",
    "speedup_summary",
    "SweepCell",
    "SweepResult",
    "matrix_cells",
    "run_sweep",
    "RunRecord",
    "run_benchmark",
    "run_benchmark_safe",
    "ascii_bars",
    "format_table",
    "CTATracer",
]
