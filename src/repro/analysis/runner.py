"""Run one benchmark under one configuration and collect the result.

Every run re-prepares the workload (fresh global memory, same seeds) so
architecture comparisons see identical inputs, and every run's outputs are
checked against the numpy reference — a timing result with wrong values
never makes it into a report.

* :func:`run_benchmark` raises on any failure — the right behaviour for
  tests and single interactive runs.
* :func:`run_benchmark_safe` runs and classifies: a failure comes back as
  a :class:`RunRecord` with ``status``, ``error`` and a ``dump`` — the
  forensic chip dump for hangs, the traceback for any other exception.

Many runs — an experiment's matrix, a gate, a sweep — go through
:func:`repro.analysis.orchestrator.run_sweep`, which calls
:func:`run_benchmark_safe` for each attempt and owns the one retry policy.
"""

from __future__ import annotations

import traceback

from repro.kernels.base import Benchmark, CheckFailure
from repro.records import RunRecord
from repro.sim.config import GPUConfig
from repro.sim.gpu import GPU, ProgressDeadlock, SimulationTimeout
from repro.sim.sanitizer import InvariantViolation

#: RunRecord.status values, roughly ordered by how alarming they are.
#: ``wall-timeout`` / ``worker-died`` are produced only by the sweep
#: runner (:mod:`repro.analysis.orchestrator`): a cell over its wall-clock
#: budget (a worker killed at its deadline, or an in-process retry the
#: budget cannot afford), and a worker that died without reporting
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
                       faults=None) -> RunRecord:
    """Like :func:`run_benchmark`, but never raises: failures come back as
    a :class:`RunRecord` with ``status``/``error`` and a ``dump`` — the
    chip dump for hangs, the traceback for anything else, so a simulator
    bug read through a record still shows where it was raised.

    One call is one attempt.  Whether a failed attempt runs again is
    :func:`repro.analysis.orchestrator.run_sweep`'s decision.
    """
    try:
        return run_benchmark(bench, cfg, scale, check,
                             max_cycles=max_cycles, faults=faults)
    except Exception as exc:  # noqa: BLE001 - isolation point by design
        return RunRecord(
            benchmark=bench.name, arch=cfg.arch, stats=None, config=cfg,
            status=_classify(exc),
            error=f"{type(exc).__name__}: {exc}",
            dump=(exc.dump if isinstance(exc, SimulationTimeout)
                  else traceback.format_exc()),
        )
