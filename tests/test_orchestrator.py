"""Process-isolated sweep orchestrator: worker determinism, wall-clock
kill, per-status retries, resume from a result-store directory,
quarantine, and graceful pool degradation.

These tests spawn real worker subprocesses (multiprocessing *spawn*), so
each costs ~a second of interpreter start-up; cell counts are kept tiny.
"""

import pytest

from repro.analysis.orchestrator import (
    RETRY_POLICY,
    SweepCell,
    matrix_cells,
    run_sweep,
)
from repro.analysis.runner import STATUSES, run_benchmark
from repro.kernels.registry import get
from repro.sim.config import scaled_fermi
from repro.sim.faults import FaultPlan
from repro.store import chaos
from repro.store.cas import ResultStore


@pytest.fixture
def cfg():
    return scaled_fermi(num_sms=1)


def test_statuses_cover_orchestrator_outcomes():
    assert "wall-timeout" in STATUSES
    assert "worker-died" in STATUSES
    assert set(RETRY_POLICY) == set(STATUSES)
    assert not RETRY_POLICY["violation"]  # deterministic: never retried
    assert not RETRY_POLICY["deadlock"]
    assert RETRY_POLICY["timeout"]
    assert RETRY_POLICY["wall-timeout"]
    assert RETRY_POLICY["worker-died"]


def test_worker_run_matches_in_process_run(cfg):
    """Determinism across process boundaries: the property the resume
    fingerprint relies on.  The same (benchmark, config, scale) produces
    identical SimStats whether run here or in a spawned worker."""
    inproc = run_benchmark(get("vecadd"), cfg, scale=0.25)
    result = run_sweep([SweepCell("vecadd", cfg, scale=0.25)], jobs=1)
    record = result.records[("vecadd", "baseline")]
    assert record.ok
    assert record.cycles == inproc.cycles
    assert record.ipc == inproc.ipc
    assert record.stats.l1_hit_rate == inproc.stats.l1_hit_rate
    assert record.stats.l2_hits == inproc.stats.l2_hits
    assert record.stats.dram_requests == inproc.stats.dram_requests
    assert record.stats.to_dict() == inproc.stats.to_dict()


def test_stalled_warp_is_wall_clock_killed_and_retried(cfg):
    """A cell the in-sim detectors cannot bound (watchdog off, huge cycle
    budget) is killed at its wall-clock deadline and retried with a
    doubled wall budget before failing terminally."""
    plan = FaultPlan(stall_warp=(0, 0, 0), stall_at_cycle=50)
    cell = SweepCell(
        "vecadd",
        cfg.with_(progress_window=0, max_cycles=500_000_000),
        scale=0.25, faults=plan)
    result = run_sweep([cell], jobs=1, wall_timeout=1.5, retries=1,
                       backoff_base=0.0)
    record = result.records[cell.key]
    assert record.status == "wall-timeout"
    assert record.retried
    assert result.attempts[cell.key] == 2
    assert "wall-clock deadline" in record.error


def test_worker_death_retried_in_fresh_process(cfg):
    cell = SweepCell("vecadd", cfg, scale=0.25, die_on_attempts=(1,))
    result = run_sweep([cell], jobs=1, retries=1, backoff_base=0.0)
    record = result.records[cell.key]
    assert record.ok
    assert record.retried
    assert result.attempts[cell.key] == 2


def test_terminal_error_not_retried(cfg):
    cell = SweepCell("no-such-benchmark", cfg, scale=0.25)
    result = run_sweep([cell], jobs=1, retries=3, backoff_base=0.0)
    record = result.records[cell.key]
    assert record.status == "error"
    assert result.attempts[cell.key] == 1  # errors are deterministic


def test_pool_degrades_to_serial_when_workers_keep_dying(cfg):
    """Repeated worker deaths shrink the pool and finally fall back to the
    in-process serial path instead of aborting the sweep."""
    always = tuple(range(1, 20))
    cells = [SweepCell("vecadd", cfg, scale=0.25, die_on_attempts=always),
             SweepCell("saxpy", cfg, scale=0.25, die_on_attempts=always)]
    result = run_sweep(cells, jobs=2, retries=3, backoff_base=0.0)
    assert result.degraded_to_serial
    assert result.ok  # the fallback completed every cell in-process
    assert result.records[("vecadd", "baseline")].cycles > 0


def test_duplicate_cells_rejected(cfg):
    cell = SweepCell("vecadd", cfg, scale=0.25)
    dupe = SweepCell("vecadd", cfg, scale=0.25, key=("other", "key"))
    with pytest.raises(ValueError, match="duplicate sweep cell"):
        run_sweep([cell, dupe], jobs=0)


def test_resume_skips_completed_cells(cfg, tmp_path):
    """A sweep interrupted partway re-runs only what is missing when re-run
    into the same directory, and the stored cells' stats are
    byte-identical to the first run."""
    benches = [get("vecadd"), get("saxpy")]
    first = run_sweep(matrix_cells(benches[:1], ["baseline", "vt"], cfg, 0.25),
                      jobs=0, directory=tmp_path)
    assert first.ok and not first.cached
    # "Crash": a second sweep over a superset of the matrix resumes.
    full = matrix_cells(benches, ["baseline", "vt"], cfg, 0.25)
    second = run_sweep(full, jobs=0, directory=tmp_path)
    assert sorted(second.cached) == [("vecadd", "baseline"), ("vecadd", "vt")]
    assert second.store_stats["puts"] == 2  # only the saxpy cells ran
    assert second.ok
    for key, record in first.records.items():
        assert second.records[key].stats.to_dict() == record.stats.to_dict()


def test_resume_refuses_stale_fingerprints(cfg, tmp_path):
    """Changing any config knob changes the fingerprint, so old stored
    entries are not reused for the changed matrix."""
    cells = matrix_cells([get("vecadd")], ["baseline"], cfg, 0.25)
    run_sweep(cells, jobs=0, directory=tmp_path)
    changed = matrix_cells([get("vecadd")], ["baseline"],
                           cfg.with_(dram_latency=600), 0.25)
    result = run_sweep(changed, jobs=0, directory=tmp_path)
    assert not result.cached  # stale entry ignored, cell re-ran
    assert result.ok


def test_corrupted_failure_entry_quarantined_on_resume(cfg, tmp_path):
    """A corrupted failure entry is quarantined and its cell recomputed;
    intact entries are still read back."""
    cells = [SweepCell("vecadd", cfg, scale=0.25, max_cycles=100),
             SweepCell("saxpy", cfg, scale=0.25)]
    first = run_sweep(cells, jobs=0, retries=0, directory=tmp_path)
    failed = cells[0]
    assert first.records[failed.key].status == "timeout"
    chaos.truncate_file(ResultStore(tmp_path).failure_path(failed.fingerprint),
                        25)
    result = run_sweep(cells, jobs=0, retries=0, directory=tmp_path)
    assert result.cached == [cells[1].key]  # intact entry still resumed
    assert result.records[failed.key].status == "timeout"  # recomputed
    assert result.store_stats["corrupt"] == 1
    assert list((tmp_path / "quarantine").iterdir())
    assert "quarantined and recomputed" in result.summary_table()


def test_cells_run_in_process_unless_jobs_or_directory(cfg, tmp_path,
                                                       monkeypatch):
    """Left unset, ``jobs`` means in-process without a directory and one
    worker with one; either way the records have the same shape, and a
    directory makes the sweep resumable."""
    import repro.analysis.runner as runner_mod

    here = []
    real = runner_mod.run_benchmark

    def counted(*args, **kwargs):
        here.append(args[0].name)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_benchmark", counted)
    cells = matrix_cells([get("vecadd")], ["baseline", "vt"], cfg, 0.25)
    inproc = run_sweep(cells).records
    assert here == ["vecadd", "vecadd"]
    pooled = run_sweep(cells, directory=tmp_path, backoff_base=0.0).records
    assert here == ["vecadd", "vecadd"]  # the workers ran them
    assert set(pooled) == set(inproc) == {("vecadd", "baseline"),
                                          ("vecadd", "vt")}
    assert {k: r.cycles for k, r in pooled.items()} == \
        {k: r.cycles for k, r in inproc.items()}
    again = run_sweep(cells, directory=tmp_path)
    assert sorted(again.cached) == sorted(again.records)
    assert len(ResultStore(tmp_path)) == 2


def test_failed_cells_are_stored_with_dumps(cfg, tmp_path):
    """A terminally failing cell lands in failures/ (a re-run must not run
    it again), with its forensic dump persisted under dumps/."""
    cell = SweepCell("vecadd", cfg, scale=0.25, max_cycles=100)
    result = run_sweep([cell], jobs=0, directory=tmp_path)
    record = result.records[cell.key]
    assert record.status == "timeout"
    dump = result.dump_paths[cell.key]
    assert dump == str(tmp_path / "dumps" / f"{cell.fingerprint}.txt")
    assert "deadlock forensics" in open(dump).read()
    store = ResultStore(tmp_path)
    assert store.get(cell.fingerprint) is None  # never a global truth
    again = run_sweep([cell], jobs=0, directory=store)
    assert again.cached == [cell.key]
    assert again.records[cell.key].status == "timeout"
    assert again.dump_paths[cell.key] == dump  # the dump persisted
    assert store.stats.puts == 0  # nothing re-ran


def test_summary_table_marks_retries(cfg):
    cell = SweepCell("vecadd", cfg, scale=0.25, die_on_attempts=(1,))
    result = run_sweep([cell], jobs=1, retries=1, backoff_base=0.0)
    table = result.summary_table()
    assert "ok*" in table
    assert "completed only after a retry" in table
    counts = result.counts()
    assert counts["ok"] == 1 and counts["retried"] == 1


def test_e5_through_orchestrator_matches_serial(cfg):
    """The headline experiment produces identical numbers whether its
    matrix runs serially in-process or through isolated workers."""
    from repro.analysis.experiments import e5_speedup

    benches = [get("vecadd")]
    serial_report, serial = e5_speedup(cfg=cfg, scale=0.25, benches=benches)
    _report, par = e5_speedup(cfg=cfg, scale=0.25, benches=benches, jobs=2)
    assert par["vt"] == serial["vt"]
    assert par["ideal"] == serial["ideal"]
    assert par["geomean_vt"] == serial["geomean_vt"]
