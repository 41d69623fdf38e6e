"""Campaign driver: orchestrator wiring, resume from a result-store
directory, reproducer dumps, deterministic replay, and the
stale-fingerprint discipline."""

import json
from pathlib import Path

import pytest

from repro.analysis.experiments import doctor_report
from repro.fuzz.campaign import (
    CANARY_FAULT,
    StaleReproducerError,
    cell_name,
    list_reproducers,
    load_reproducer,
    make_cells,
    replay_reproducer,
    run_campaign,
    run_fuzz_cell,
)
from repro.fuzz.generator import GenConfig, generate_spec


def test_cell_name_tracks_spec_content():
    spec = generate_spec(4)
    assert cell_name(spec) == cell_name(dict(spec))
    assert cell_name(spec) != cell_name(dict(spec, cta_x=spec["cta_x"] + 32))


def test_cells_have_unique_fingerprints():
    cells = make_cells(range(10), GenConfig())
    prints = {cell.fingerprint for cell in cells}
    assert len(prints) == 10


def test_run_fuzz_cell_returns_ok_record_with_stats():
    from repro.analysis.orchestrator import _cell_payload

    cell = make_cells([0], GenConfig())[0]
    record = run_fuzz_cell(_cell_payload(cell, attempt=1, max_cycles=None))
    assert record.ok and record.stats is not None and record.cycles > 0


def test_run_fuzz_cell_divergence_record_carries_dump():
    from repro.analysis.orchestrator import _cell_payload

    cell = make_cells([0], GenConfig(), fault=CANARY_FAULT)[0]
    record = run_fuzz_cell(_cell_payload(cell, attempt=1, max_cycles=None))
    assert record.status == "divergence" and not record.ok
    assert "fuzz divergence dump" in record.dump
    assert "stats-mismatch" in record.dump


def test_clean_campaign_and_directory_resume(tmp_path, monkeypatch):
    from repro.store.cas import ResultStore

    directory = tmp_path / "camp"
    result = run_campaign(3, seed=50, jobs=0, directory=directory)
    assert result.ok, result.divergent
    assert result.stats["cases"] == 3 and result.stats["divergent"] == 0
    assert ResultStore(directory).verify().verified == 3

    # Re-running into the directory re-runs nothing and reaches the same
    # verdict.
    def no_rerun(payload):
        raise AssertionError(f"{payload['benchmark']} re-ran")

    monkeypatch.setattr("repro.fuzz.campaign.run_fuzz_cell", no_rerun)
    again = run_campaign(3, seed=50, jobs=0, directory=directory)
    assert again.ok
    assert set(again.records) == set(result.records)


def test_canary_and_clean_campaigns_share_a_directory(tmp_path):
    """The injected fault is part of each case's identity: a canary run
    into a directory holding clean verdicts still detects its fault."""
    directory = tmp_path / "shared"
    assert run_campaign(1, seed=0, jobs=0, directory=directory).ok
    canary = run_campaign(1, seed=0, jobs=0, directory=directory,
                          fault=CANARY_FAULT, shrink=False)
    assert not canary.ok and canary.reproducer_paths


def test_canary_campaign_writes_minimal_replayable_reproducer(tmp_path):
    directory = tmp_path / "canary"
    result = run_campaign(1, seed=0, jobs=0, directory=directory,
                          fault=CANARY_FAULT)
    assert not result.ok
    assert len(result.reproducer_paths) == 1
    data = load_reproducer(result.reproducer_paths[0])
    assert data["instructions"] <= 8
    assert data["fault"] == CANARY_FAULT
    # The shrinker kept the planted bug, not some other divergence.
    assert data["divergences"]
    assert all(d["kind"] == "stats-mismatch"
               and d["leg"].endswith("/fast-forward")
               for d in data["divergences"]), data["divergences"]

    assert "oracle" not in data

    first = replay_reproducer(result.reproducer_paths[0])
    second = replay_reproducer(result.reproducer_paths[0])
    assert not first.ok and not second.ok
    assert ([d.to_dict() for d in first.divergences]
            == [d.to_dict() for d in second.divergences])

    # Older reproducers carry an "oracle" field; they still replay.
    path = Path(result.reproducer_paths[0])
    path.write_text(json.dumps(dict(data, oracle="check")))
    old = replay_reproducer(path)
    assert ([d.to_dict() for d in old.divergences]
            == [d.to_dict() for d in first.divergences])


def test_tampered_reproducer_is_refused_as_stale(tmp_path):
    directory = tmp_path / "canary"
    result = run_campaign(1, seed=0, jobs=0, directory=directory,
                          fault=CANARY_FAULT)
    path = Path(result.reproducer_paths[0])
    data = json.loads(path.read_text())
    data["config"]["dram_latency"] += 1  # silent retune: must be refused
    path.write_text(json.dumps(data))
    with pytest.raises(StaleReproducerError):
        replay_reproducer(path)
    listed = list_reproducers(directory)
    assert listed and listed[0]["stale"] is True


def test_doctor_lists_fuzz_reproducers(tmp_path):
    directory = tmp_path / "canary"
    run_campaign(1, seed=0, jobs=0, directory=directory, fault=CANARY_FAULT)
    report, data = doctor_report(benches=["stride"], archs=("baseline",),
                                 fuzz_dir=directory)
    assert "fuzz reproducers" in report
    assert len(data["reproducers"]) == 1
    assert data["reproducers"][0]["stale"] is False
    assert "replay" in report


def test_time_budget_leaves_remaining_seeds_resumable(tmp_path):
    # A zero budget expires after the first batch (batches of 2 at jobs=0):
    # seeds 50..51 run, 52 is left unrun but resumable.
    directory = tmp_path / "budget"
    result = run_campaign(3, seed=50, jobs=0, time_budget=0.0,
                          directory=directory)
    assert result.seeds_skipped == [52]
    assert sorted(result.seeds_run) == [50, 51]

    resumed = run_campaign(3, seed=50, jobs=0, directory=directory)
    assert resumed.ok and not resumed.seeds_skipped


def test_divergence_status_is_not_retried():
    from repro.analysis.orchestrator import RETRY_POLICY
    from repro.analysis.runner import STATUSES

    assert "divergence" in STATUSES
    assert RETRY_POLICY["divergence"] is False


def test_divergences_beyond_the_shrink_cap_keep_their_kinds(tmp_path,
                                                            monkeypatch,
                                                            capsys):
    from repro.cli import main

    monkeypatch.setattr("repro.fuzz.campaign.MAX_SHRINKS", 0)
    code = main(["fuzz", "--n", "1", "--seed", "0", "--serial", "--canary",
                 "--dir", str(tmp_path / "cap")])
    out = capsys.readouterr().out
    assert code == 1  # nothing was shrunk, so the canary cannot pass
    lines = [line for line in out.splitlines()
             if line.startswith("DIVERGENCE")]
    assert len(lines) == 1
    assert "stats-mismatch -> not shrunk (beyond the shrink cap of 0)" \
        in lines[0]
    assert "? -> None" not in out
