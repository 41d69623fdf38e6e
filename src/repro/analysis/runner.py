"""Run benchmarks under configurations and collect results.

Every run re-prepares the workload (fresh global memory, same seeds) so
architecture comparisons see identical inputs, and every run's outputs are
checked against the numpy reference — a timing result with wrong values
never makes it into a report.

Two failure disciplines coexist:

* :func:`run_benchmark` raises on any failure — the right behaviour for
  tests and single interactive runs.
* :func:`run_benchmark_safe` and ``run_matrix(keep_going=True)`` isolate
  each run: failures are captured into the :class:`RunRecord` (``status``,
  ``error``, and the forensic ``dump`` for hangs), transient
  ``SimulationTimeout``s are retried once with a doubled cycle budget, and
  the rest of the matrix keeps going.  A multi-hour sweep survives one
  poisoned cell and reports it instead of dying.
"""

from __future__ import annotations

import time

from repro.kernels.base import Benchmark, CheckFailure
from repro.records import RunRecord
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU, ProgressDeadlock, SimulationTimeout
from repro.sim.sanitizer import InvariantViolation

#: RunRecord.status values, roughly ordered by how alarming they are.
#: ``wall-timeout`` / ``worker-died`` are produced only by the subprocess
#: orchestrator (:mod:`repro.analysis.orchestrator`): a worker killed at
#: its wall-clock deadline, and a worker that died without reporting
#: (segfault/OOM).  ``divergence`` is produced only by fuzz cells
#: (:mod:`repro.fuzz.campaign`): the differential harness disagreed.
STATUSES = ("ok", "timeout", "deadlock", "violation", "check-failed", "error",
            "wall-timeout", "worker-died", "divergence")


def run_benchmark(bench: Benchmark, cfg: GPUConfig, scale: float = 1.0,
                  check: bool = True, *, max_cycles: int | None = None,
                  faults=None) -> RunRecord:
    """Simulate ``bench`` under ``cfg`` and verify its output; raises on
    timeout, deadlock, invariant violation, or check failure."""
    prepared = bench.prepare(scale)
    gpu = GPU(cfg)
    result = gpu.launch(bench.kernel, prepared.grid_dim, prepared.gmem,
                        prepared.params, max_cycles=max_cycles, faults=faults)
    if check:
        prepared.check(result)
    return RunRecord(benchmark=bench.name, arch=cfg.arch, stats=result.stats, config=cfg)


def _classify(exc: Exception) -> str:
    if isinstance(exc, ProgressDeadlock):
        return "deadlock"
    if isinstance(exc, SimulationTimeout):
        return "timeout"
    if isinstance(exc, InvariantViolation):
        return "violation"
    if isinstance(exc, CheckFailure):
        return "check-failed"
    return "error"


def run_benchmark_safe(bench: Benchmark, cfg: GPUConfig, scale: float = 1.0,
                       check: bool = True, *, max_cycles: int | None = None,
                       faults=None, retry_timeouts: bool = True,
                       wall_budget: float | None = None) -> RunRecord:
    """Like :func:`run_benchmark`, but never raises: failures come back as
    a :class:`RunRecord` with ``status``/``error`` (and ``dump`` for hangs).

    A plain ``SimulationTimeout`` may just mean the cycle budget was tight
    for this (bench, arch) pair, so it is retried once with a doubled
    budget.  A ``ProgressDeadlock`` is *not* retried: zero forward progress
    does not improve with more cycles.

    ``wall_budget`` bounds both attempts *together* in wall-clock seconds.
    Simulated time scales ~linearly with wall time, so the retry's cycle
    budget is clamped to what the remaining budget can actually afford; a
    retry that could not even re-simulate the first attempt's cycles is
    skipped (and a clamped retry that still times out is reported) as
    ``wall-timeout`` — an unbounded 2x retry overshooting the deadline
    used to surface as a misleading second ``timeout``.
    """
    def attempt(budget: int | None) -> RunRecord:
        try:
            return run_benchmark(bench, cfg, scale, check,
                                 max_cycles=budget, faults=faults)
        except Exception as exc:  # noqa: BLE001 - isolation point by design
            return RunRecord(
                benchmark=bench.name, arch=cfg.arch, stats=None, config=cfg,
                status=_classify(exc),
                error=f"{type(exc).__name__}: {exc}",
                dump=getattr(exc, "dump", None),
            )

    start = time.monotonic()
    record = attempt(max_cycles)
    if retry_timeouts and record.status == "timeout":
        first_budget = max_cycles if max_cycles is not None else cfg.max_cycles
        budget = 2 * first_budget
        clamped = False
        if wall_budget is not None:
            elapsed = max(time.monotonic() - start, 1e-9)
            remaining = wall_budget - elapsed
            affordable = int(first_budget * remaining / elapsed)
            if affordable <= first_budget:
                record.status = "wall-timeout"
                record.error = (
                    f"timeout at {first_budget} cycles; retry skipped: "
                    f"{remaining:.1f}s of the {wall_budget:g}s wall budget "
                    f"left cannot fit the first attempt again")
                return record
            if affordable < budget:
                budget, clamped = affordable, True
        record = attempt(budget)
        record.retried = True
        if clamped and record.status == "timeout":
            record.status = "wall-timeout"
            record.error = (
                f"retry budget clamped to {budget} cycles by the "
                f"{wall_budget:g}s wall budget and still timed out: {record.error}")
    return record


def run_matrix(benches, archs, base_cfg: GPUConfig, scale: float = 1.0,
               check: bool = True, *, keep_going: bool = False,
               retry_timeouts: bool = True,
               run_timeout_cycles: int | None = None,
               parallel: int | None = None,
               directory=None,
               wall_timeout: float | None = None,
               retries: int = 1) -> dict[tuple[str, str], RunRecord]:
    """Run every (benchmark, arch) pair; returns {(bench, arch): record}.

    With ``keep_going`` each cell is isolated: a failing run is captured
    as a failed :class:`RunRecord` and the sweep continues — callers must
    filter on ``record.ok``.  Without it (the default) the first failure
    raises, matching the historical strict behaviour.
    ``run_timeout_cycles`` bounds each individual run's cycle budget.

    ``parallel`` / ``directory`` switch the sweep onto the subprocess
    orchestrator (:func:`repro.analysis.orchestrator.run_sweep`):
    ``parallel`` workers each run one cell in an isolated process under a
    ``wall_timeout``-second deadline, and ``directory`` (a result-store
    root or handle) persists every finished cell, so re-running into the
    same directory reads completed cells back instead of simulating them.
    The orchestrator is inherently keep-going; benchmarks must come from
    the registry (workers re-resolve them by name).
    """
    if parallel is not None or directory is not None:
        from repro.analysis.orchestrator import matrix_cells, run_sweep

        cells = matrix_cells(benches, archs, base_cfg, scale, check,
                             max_cycles=run_timeout_cycles)
        result = run_sweep(cells, jobs=1 if parallel is None else parallel,
                           wall_timeout=wall_timeout, retries=retries,
                           directory=directory)
        return result.records

    records: dict[tuple[str, str], RunRecord] = {}
    for bench in benches:
        for arch in archs:
            cfg = base_cfg.with_(arch=arch)
            if keep_going:
                records[(bench.name, arch)] = run_benchmark_safe(
                    bench, cfg, scale, check, max_cycles=run_timeout_cycles,
                    retry_timeouts=retry_timeouts)
            else:
                records[(bench.name, arch)] = run_benchmark(
                    bench, cfg, scale, check, max_cycles=run_timeout_cycles)
    return records
