"""Chaos harness: every robustness claim of the result store with the
fault actually fired.

* crash-consistency property: a writer SIGKILLed at seeded byte offsets /
  commit stages leaves the store fully absent or fully valid for that
  key — never torn;
* storage corruption (bit flip, truncation) mid-campaign self-heals:
  quarantine + recompute, byte-identical result;
* a sweep SIGKILLed mid-run and re-run into the same directory runs only
  the missing cells, and re-running a completed sweep into its directory
  is 100% cache reads with zero re-simulation.

Everything is seeded; a failure replays exactly.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.analysis.experiments import sweep_report
from repro.analysis.orchestrator import matrix_cells, run_sweep
from repro.kernels.registry import get
from repro.records import cell_fingerprint
from repro.sim.config import scaled_fermi
from repro.store import chaos
from repro.store.cas import ResultStore, stats_digest
from repro.store.fsio import STAGE_FSYNCED, STAGE_RENAMED, STAGE_WRITE


@pytest.fixture
def cfg():
    return scaled_fermi(num_sms=1)


def _chaos_fingerprint(seed):
    record = chaos.synthetic_record(seed)
    return record, cell_fingerprint(record.benchmark, record.config, 1.0, seed)


# ---------------------------------------------------------------------------
# crash-consistency property: SIGKILLed writers never leave a torn entry
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kill_stage, kill_bytes", [
    (STAGE_WRITE, 0),      # first chunk reached the temp file
    (STAGE_WRITE, 700),    # seeded mid-entry offset
    (STAGE_FSYNCED, 0),    # data durable in the temp file, rename pending
    (STAGE_RENAMED, 0),    # renamed, directory fsync pending
])
def test_killed_writer_is_all_or_nothing(tmp_path, kill_stage, kill_bytes):
    seed = 21
    record, fingerprint = _chaos_fingerprint(seed)
    exitcode = chaos.run_killed_writer(tmp_path / "store", fingerprint, seed,
                                       kill_stage=kill_stage,
                                       kill_bytes=kill_bytes)
    assert exitcode == -signal.SIGKILL  # the injected crash really fired

    store = ResultStore(tmp_path / "store")
    entry = store.get(fingerprint)
    if kill_stage == STAGE_RENAMED:
        # past the atomic rename the entry is committed and fully valid
        assert entry is not None
        assert entry.record.stats.to_dict() == record.stats.to_dict()
    else:
        # before the rename, nothing is visible under the key...
        assert entry is None
        # ...and crucially the miss was a clean absence, not corruption
        assert store.stats.corrupt == 0
    report = store.verify()
    assert report.quarantined_now == []  # no torn entry ever surfaced
    if kill_stage != STAGE_RENAMED:
        assert report.orphan_temps_removed <= 1  # leftover temp reclaimed
        assert store.gc() == 0  # and reclaimed exactly once


def test_killed_writer_sweep_of_seeded_offsets(tmp_path):
    """The property at many seeded mid-write offsets: whatever byte the
    writer died on, a reader sees all-or-nothing."""
    store_dir = tmp_path / "store"
    for seed in (1, 2, 3):
        record, fingerprint = _chaos_fingerprint(seed)
        for kill_bytes in (0, 512, 1024):
            exitcode = chaos.run_killed_writer(
                store_dir, fingerprint, seed,
                kill_stage=STAGE_WRITE, kill_bytes=kill_bytes)
            store = ResultStore(store_dir)
            entry = store.get(fingerprint)
            if exitcode == 0:
                # kill offset beyond the entry: the commit won the race
                assert entry is not None
                assert entry.record.stats.to_dict() == record.stats.to_dict()
            else:
                assert exitcode == -signal.SIGKILL
                assert entry is None
                assert store.stats.corrupt == 0
            assert store.verify().quarantined_now == []


# ---------------------------------------------------------------------------
# corruption mid-campaign: quarantine + recompute, byte-identical
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["bitflip", "truncate"])
def test_corrupted_entry_is_requarantined_and_recomputed(tmp_path, cfg, mode):
    store = ResultStore(tmp_path / "store")
    cells = matrix_cells([get("vecadd")], ["baseline"], cfg, 0.25)
    result = run_sweep(cells, jobs=0, directory=store)
    record = result.records[("vecadd", "baseline")]
    assert record.ok and store.stats.puts == 1
    fingerprint = cells[0].fingerprint
    pristine_digest = stats_digest(record.stats.to_dict())

    chaos.corrupt_entry(store, fingerprint, seed=9, mode=mode)

    rerun = run_sweep(matrix_cells([get("vecadd")], ["baseline"], cfg, 0.25),
                      jobs=0, directory=store)
    healed = rerun.records[("vecadd", "baseline")]
    assert healed.ok
    assert ("vecadd", "baseline") not in rerun.cached  # it really re-ran
    assert store.stats.corrupt == 1  # the bad entry was caught...
    assert list((store.root / "quarantine").iterdir())  # ...and preserved
    # determinism: the recomputed result is byte-identical to the original
    assert stats_digest(healed.stats.to_dict()) == pristine_digest
    # and the store is whole again: a third pass is a pure cache read
    third = run_sweep(matrix_cells([get("vecadd")], ["baseline"], cfg, 0.25),
                      jobs=0, directory=store)
    assert ("vecadd", "baseline") in third.cached


def test_resubmitted_campaign_is_all_cache_reads(tmp_path, cfg):
    """The acceptance bar: re-running a completed sweep into its directory
    must be >= 90% store reads with zero simulation re-executed (here:
    100%)."""
    store = ResultStore(tmp_path / "sweep")
    benches = [get("vecadd"), get("stride")]
    cells = matrix_cells(benches, ["baseline", "vt"], cfg, 0.25)
    cold = run_sweep(cells, jobs=0, directory=store)
    assert cold.ok and len(cold.cached) == 0

    warm_store = ResultStore(tmp_path / "sweep")
    warm = run_sweep(matrix_cells(benches, ["baseline", "vt"], cfg, 0.25),
                     jobs=0, directory=warm_store)
    assert warm.ok
    cache_ratio = len(warm.cached) / len(cells)
    assert cache_ratio >= 0.9
    assert warm_store.stats.puts == 0  # nothing was re-simulated
    for key, record in cold.records.items():
        assert (warm.records[key].stats.to_dict() == record.stats.to_dict())
    # the summary document carries the provenance CI asserts on
    summary = warm.to_summary()
    assert summary["counts"]["cached"] == len(cells)
    assert summary["store"]["hits"] == len(cells)


# ---------------------------------------------------------------------------
# a sweep SIGKILLed mid-run resumes by re-running into the same directory
# ---------------------------------------------------------------------------

KILL_BENCHES = ["vecadd", "saxpy", "stride"]


def test_killed_sweep_resumes_only_missing_cells(tmp_path):
    sweep_dir = tmp_path / "sweep"
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    argv = [sys.executable, "-m", "repro", "sweep", "--serial",
            "--scale", "0.25", "--sms", "1", "--dir", str(sweep_dir)]
    for name in KILL_BENCHES:
        argv += ["--benchmark", name]
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    objects = sweep_dir / "objects"
    deadline = time.monotonic() + 120
    try:
        while not list(objects.glob("*/*.json")):
            assert proc.poll() is None, "sweep finished before the kill"
            assert time.monotonic() < deadline, "no cell ever committed"
            time.sleep(0.01)
    finally:
        proc.send_signal(signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGKILL
    survived = {p.stem for p in objects.glob("*/*.json")}
    assert ResultStore(sweep_dir).verify().quarantined_now == []

    _report, resumed = sweep_report(benches=KILL_BENCHES, scale=0.25, sms=1,
                                    jobs=0, directory=sweep_dir)
    assert resumed.ok and len(resumed.records) == 3 * len(KILL_BENCHES)
    cached = {resumed.fingerprints[key] for key in resumed.cached}
    assert cached == survived  # only the missing cells ran
    assert resumed.store_stats["puts"] == len(resumed.records) - len(survived)
    # byte-identical to an uninterrupted, unpersisted sweep
    _report, clean = sweep_report(benches=KILL_BENCHES, scale=0.25, sms=1,
                                  jobs=0)
    for key, record in clean.records.items():
        assert resumed.records[key].stats.to_dict() == record.stats.to_dict()
