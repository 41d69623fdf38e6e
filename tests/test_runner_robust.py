"""Crash tolerance of the experiment harness: a poisoned cell must not
take down a sweep, tight-budget timeouts are retried with a doubled
budget, and partial results still render.  Every multi-cell run goes
through ``run_sweep``, and its one retry policy gives the same record
whether a cell runs in-process or in a worker."""

import pytest

from repro.analysis.experiments import doctor_report, e5_speedup
from repro.analysis.orchestrator import SweepCell, matrix_cells, run_sweep
from repro.analysis.runner import STATUSES, run_benchmark, run_benchmark_safe
from repro.kernels import get
from repro.kernels.base import Benchmark
from repro.records import RunFailed
from repro.sim.config import scaled_fermi
from repro.sim.faults import FaultPlan
from repro.sim.gpu import SimulationTimeout


def _poisoned(name="poisoned"):
    """A benchmark whose workload factory explodes."""
    def prepare(scale):
        raise RuntimeError("workload generator exploded")

    return Benchmark(name=name, suite="synthetic",
                     description="always fails to prepare", category="compute",
                     kernel=get("vecadd").kernel, prepare=prepare)


@pytest.fixture
def cfg():
    return scaled_fermi(num_sms=1)


@pytest.fixture
def poisoned(monkeypatch):
    """``_poisoned()``, findable by name where ``run_sweep`` resolves
    its cells' benchmarks (the kernel registry)."""
    import repro.kernels.registry as registry

    bench = _poisoned()
    real = registry.get
    monkeypatch.setattr(
        registry, "get",
        lambda name: bench if name == bench.name else real(name))
    return bench


def _run_one(cell, **kwargs):
    """Sweep one cell in-process; (record, attempts)."""
    result = run_sweep([cell], jobs=0, **kwargs)
    return result.records[cell.key], result.attempts[cell.key]


def test_run_benchmark_safe_captures_errors(cfg):
    record = run_benchmark_safe(_poisoned(), cfg, scale=0.25)
    assert not record.ok
    assert record.status == "error"
    assert "workload generator exploded" in record.error
    assert record.failure == "FAILED(error)"
    with pytest.raises(RunFailed, match="poisoned"):
        _ = record.cycles


def test_failure_record_keeps_the_traceback(cfg):
    """An exception that is not a hang keeps its traceback in ``dump``,
    so a failed cell read back through ``RunFailed`` shows where it broke."""
    record = run_benchmark_safe(_poisoned(), cfg, scale=0.25)
    assert "Traceback" in record.dump
    assert "workload generator exploded" in record.dump
    assert "in prepare" in record.dump


def test_run_benchmark_still_raises(cfg):
    with pytest.raises(RuntimeError, match="exploded"):
        run_benchmark(_poisoned(), cfg, scale=0.25)


def test_timeout_retried_once_with_doubled_budget(cfg):
    full = run_benchmark(get("vecadd"), cfg, scale=0.25)
    tight = int(full.cycles * 0.75)
    # The first attempt times out; the retry at 2x the budget completes.
    record, attempts = _run_one(
        SweepCell("vecadd", cfg, 0.25, max_cycles=tight))
    assert record.retried
    assert attempts == 2
    assert record.ok
    assert record.cycles == full.cycles


def test_hopeless_timeout_stays_failed(cfg):
    record, attempts = _run_one(SweepCell("vecadd", cfg, 0.25, max_cycles=100))
    assert record.retried
    assert attempts == 2
    assert record.status == "timeout"
    assert record.status in STATUSES
    assert "exceeded 200 cycles" in record.error  # the doubled budget
    assert record.dump is not None


def test_deadlock_not_retried(cfg):
    plan = FaultPlan(stall_warp=(0, 0, 0), stall_at_cycle=50)
    record, attempts = _run_one(SweepCell(
        "vecadd", cfg.with_(progress_window=1500), 0.25, faults=plan))
    assert record.status == "deadlock"
    assert not record.retried
    assert attempts == 1
    assert record.dump is not None


def test_retry_can_be_disabled(cfg):
    record, attempts = _run_one(SweepCell("vecadd", cfg, 0.25, max_cycles=100),
                                retries=0)
    assert record.status == "timeout"
    assert not record.retried
    assert attempts == 1


def test_retry_policy_is_the_same_in_process_and_in_a_worker(cfg):
    """One retry policy: a timed-out cell makes the same attempts and ends
    on the same record whether it runs here or in a worker process."""
    outcomes = []
    for jobs in (0, 1):
        cell = SweepCell("vecadd", cfg, 0.25, max_cycles=100)
        result = run_sweep([cell], jobs=jobs, retries=3, backoff_base=0.0)
        record = result.records[cell.key]
        outcomes.append((result.attempts[cell.key], record.status,
                         record.retried, record.error))
    assert outcomes[0] == outcomes[1]
    attempts, status, retried, error = outcomes[0]
    assert (attempts, status, retried) == (4, "timeout", True)
    assert "exceeded 800 cycles" in error  # 100 -> 200 -> 400 -> 800


def test_matrix_keeps_going_past_poison(cfg, poisoned):
    benches = [get("vecadd"), poisoned, get("saxpy")]
    records = run_sweep(matrix_cells(benches, ["baseline", "vt"], cfg, 0.25)).records
    assert len(records) == 6
    assert records[("vecadd", "baseline")].ok
    assert records[("saxpy", "vt")].ok
    assert records[("poisoned", "baseline")].status == "error"
    assert records[("poisoned", "vt")].status == "error"


def test_matrix_strict_raises_on_poison(cfg, poisoned):
    result = run_sweep(matrix_cells([poisoned], ["baseline"], cfg, 0.25))
    with pytest.raises(RuntimeError, match="exploded"):
        result.checked()


def test_e5_renders_partial_table_with_failed_cells(poisoned):
    benches = [get("vecadd"), poisoned]
    report, data = e5_speedup(scale=0.25, benches=benches)
    assert "FAILED(error)" in report
    assert "failed cells" in report
    assert "vecadd" in report
    # Failures keyed by benchmark, then by the arch(s) that failed.
    assert set(data["failures"]) == {"poisoned"}
    assert set(data["failures"]["poisoned"]) == {"baseline", "vt", "ideal-sched"}
    # The healthy benchmark still contributes speedup statistics.
    assert "vecadd" in data["vt"]


def test_e5_strict_mode_raises(poisoned):
    with pytest.raises(RuntimeError, match="exploded"):
        e5_speedup(scale=0.25, benches=[poisoned], keep_going=False)


def test_non_registry_benches_are_rejected_up_front():
    """Cells run their kernel by registry name: an unknown benchmark and
    an impostor under a registered name both fail before anything runs."""
    with pytest.raises(KeyError, match="unknown benchmark 'poisoned'"):
        e5_speedup(scale=0.25, benches=[_poisoned()])
    with pytest.raises(ValueError, match="not the registry's"):
        e5_speedup(scale=0.25, benches=[_poisoned("vecadd")])


def test_doctor_reports_failures():
    report, data = doctor_report(scale=0.25, benches=["vecadd"])
    assert "ok (" in report
    assert not data["failures"]


def test_doctor_flags_unhealthy_cell(monkeypatch):
    def always_timeout(*args, **kwargs):
        raise SimulationTimeout("injected for test", dump="dump text")

    monkeypatch.setattr("repro.analysis.runner.run_benchmark", always_timeout)
    report, data = doctor_report(scale=0.25, benches=["vecadd"])
    assert "FAILED(timeout)" in report
    assert data["failures"]


# ---------------------------------------------------------------------------
# the wall budget of an in-process cell (which cannot be killed)
# ---------------------------------------------------------------------------

def test_unaffordable_retry_is_skipped_as_wall_timeout(cfg):
    """With no wall budget left, a doubled-budget retry would overshoot
    the deadline and surface as a misleading second ``timeout``; it is
    skipped instead and reported ``wall-timeout``."""
    record, attempts = _run_one(SweepCell("vecadd", cfg, 0.25, max_cycles=100),
                                wall_timeout=1e-6)
    assert record.status == "wall-timeout"
    assert record.status in STATUSES
    assert not record.retried  # the retry never launched
    assert attempts == 1
    assert "retry skipped" in record.error
    assert "wall budget" in record.error


def test_generous_wall_budget_still_allows_the_retry(cfg):
    full = run_benchmark(get("vecadd"), cfg, scale=0.25)
    tight = int(full.cycles * 0.75)
    record, _attempts = _run_one(
        SweepCell("vecadd", cfg, 0.25, max_cycles=tight), wall_timeout=3600.0)
    assert record.ok
    assert record.retried
    assert record.cycles == full.cycles


def test_clamped_retry_that_times_out_reports_wall_timeout(cfg, monkeypatch):
    """When the remaining budget affords more than the last attempt but
    less than 2x, the retry runs clamped — and if it *still* times out the
    status is ``wall-timeout`` with the clamp explained, not ``timeout``."""
    import time as time_mod

    import repro.analysis.runner as runner_mod

    # A fake clock on which every attempt takes 10 s: after the first,
    # 15 s of the 25 s budget are left, so the retry can afford 1.5x the
    # first budget — strictly between 1x and 2x, the clamp path.
    clock = [0.0]
    real = runner_mod.run_benchmark

    def ten_seconds(*args, **kwargs):
        clock[0] += 10.0
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_benchmark", ten_seconds)
    monkeypatch.setattr(time_mod, "monotonic", lambda: clock[0])
    record, attempts = _run_one(SweepCell("vecadd", cfg, 0.25, max_cycles=100),
                                wall_timeout=25.0, retries=3)
    assert record.status == "wall-timeout"
    assert record.retried
    assert attempts == 2  # the clamped retry was the last one
    assert "clamped to 150 cycles" in record.error
