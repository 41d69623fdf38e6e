"""Content-addressed result store: commit discipline, checksum-verified
reads, terminal-failure entries, durable dumps, corruption quarantine, GC,
and audit artifacts.  (Crash/fault injection lives in
tests/test_store_chaos.py.)"""

import json
import os
import stat

import pytest

from repro.records import cell_fingerprint
from repro.store import chaos
from repro.store.cas import (
    SCHEMA_VERSION,
    ResultStore,
    _git_commit,
    build_artifact,
    checksum_payload,
    code_version,
    stats_digest,
)
from repro.store.fsio import TMP_PREFIX, commit_bytes


@pytest.fixture
def store(tmp_path):
    return ResultStore(tmp_path / "store")


@pytest.fixture
def record():
    return chaos.synthetic_record(7)


def _fingerprint(record, seed=7):
    return cell_fingerprint(record.benchmark, record.config, 1.0, seed)


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

def test_put_get_round_trip_is_lossless(store, record):
    fp = _fingerprint(record)
    path = store.put(fp, record, scale=1.0, seed=7, attempts=2, elapsed_s=1.25)
    assert path is not None and path.is_file()
    entry = store.get(fp)
    assert entry is not None
    assert entry.record.stats.to_dict() == record.stats.to_dict()
    assert entry.record.config == record.config
    assert (entry.scale, entry.seed, entry.attempts) == (1.0, 7, 2)
    assert stats_digest(entry.record.stats.to_dict()) == stats_digest(
        record.stats.to_dict())
    assert store.stats.puts == 1 and store.stats.hits == 1


def test_missing_fingerprint_is_a_miss(store):
    assert store.get("0" * 16) is None
    assert store.stats.misses == 1


def test_failed_records_are_refused(store, record):
    record.status = "timeout"
    record.stats = None
    assert store.put(_fingerprint(record), record) is None
    assert len(store) == 0


def _failed(record, status="timeout"):
    record.status = status
    record.stats = None
    record.error = "SimulationTimeout: budget of 100 cycles exhausted"
    record.dump = "deadlock forensics"
    return record


# ---------------------------------------------------------------------------
# terminal failures: failures/<fp>.json, never served by get()
# ---------------------------------------------------------------------------

def test_failure_entry_round_trips(store, record):
    fp = _fingerprint(record)
    path = store.put_failure(fp, _failed(record), seed=7, attempts=2,
                             elapsed_s=1.5)
    assert path == store.failure_path(fp) and path.is_file()
    entry = store.get_failure(fp)
    assert entry is not None
    assert entry.record.status == "timeout"
    assert entry.record.dump == "deadlock forensics"
    assert (entry.seed, entry.attempts, entry.elapsed_s) == (7, 2, 1.5)
    # same checksummed envelope as an ok entry
    document = json.loads(path.read_text())
    assert document["checksum"] == checksum_payload(document["payload"])


def test_get_never_serves_a_failure(store, record):
    fp = _fingerprint(record)
    store.put_failure(fp, _failed(record))
    assert store.get(fp) is None  # budget-dependent: not a global truth
    assert len(store) == 0
    assert store.stats.corrupt == 0  # a plain miss, not corruption


@pytest.mark.parametrize("mode", ["bitflip", "truncate", "newer-schema"])
def test_corrupted_failure_entry_is_quarantined(store, record, mode):
    fp = _fingerprint(record)
    path = store.put_failure(fp, _failed(record))
    if mode == "bitflip":
        chaos.flip_bit(path, 40, 3)
    elif mode == "truncate":
        chaos.truncate_file(path, path.stat().st_size // 2)
    else:  # a newer writer's entry is not guessed at
        document = json.loads(path.read_text())
        document["v"] = SCHEMA_VERSION + 1
        path.write_text(json.dumps(document))
    assert store.get_failure(fp) is None
    assert not path.exists()
    assert store.stats.corrupt == 1
    assert len(list((store.root / "quarantine").iterdir())) == 1


def test_success_under_failures_is_refused(store, record):
    # An ok entry copied into failures/ (or a failure into objects/) is not
    # what either reader was asked for: quarantine, never misread.
    fp = _fingerprint(record)
    store.put(fp, record)
    os.replace(store.entry_path(fp), store.failure_path(fp))
    assert store.get_failure(fp) is None
    assert store.stats.corrupt == 1


def test_verify_and_gc_cover_failures_and_dumps(store, record):
    fp = _fingerprint(record)
    store.put_failure(fp, _failed(record))
    store.write_dump(fp, "forensics")
    for sub in ("failures", "dumps"):
        (store.root / sub / f"{TMP_PREFIX}orphan.1").write_bytes(b"junk")
    report = store.verify()
    assert report.entries == 1 and report.verified == 1
    assert report.orphan_temps_removed == 2
    chaos.flip_bit(store.failure_path(fp), 30, 1)
    report = store.verify()
    assert report.quarantined_now == [fp] and not report.healthy


# ---------------------------------------------------------------------------
# forensic dumps
# ---------------------------------------------------------------------------

def test_write_dump(store):
    path = store.write_dump("feedbeef", "stack of forensics")
    assert path == str(store.dump_path("feedbeef"))
    assert "forensics" in open(path).read()
    assert store.write_dump("feedbeef", None) is None


def test_dump_write_fsyncs_file_and_directory(store, monkeypatch):
    """A dump must be durable before the failure entry that points at it:
    the file itself is fsynced (not only its directory), then the rename
    is made durable by fsyncing dumps/."""
    synced = []
    real_fsync = os.fsync

    def spy_fsync(fd):
        kind = "dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "file"
        synced.append((kind, os.readlink(f"/proc/self/fd/{fd}")))
        return real_fsync(fd)

    monkeypatch.setattr(os, "fsync", spy_fsync)
    path = store.write_dump("feedbeef", "stack of forensics")
    files = [target for kind, target in synced if kind == "file"]
    assert len(files) == 1 and "feedbeef" in files[0]
    assert ("dir", str(store.root / "dumps")) in synced
    assert open(path).read() == "stack of forensics\n"


def test_reput_replaces_atomically(store, record):
    fp = _fingerprint(record)
    store.put(fp, record)
    store.put(fp, record)
    assert len(store) == 1
    assert store.get(fp) is not None


def test_store_handle_is_always_truthy(store):
    # __len__ alone would make an EMPTY store falsy and silently disable
    # every `if store:` guard in the orchestrator — the store would look
    # attached but never be read or written.
    assert len(store) == 0
    assert bool(store) is True


# ---------------------------------------------------------------------------
# corruption -> quarantine -> self-heal
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("mode", ["bitflip", "truncate"])
def test_corruption_quarantines_and_misses(store, record, mode):
    fp = _fingerprint(record)
    store.put(fp, record)
    path = chaos.corrupt_entry(store, fp, seed=3, mode=mode)
    assert store.get(fp) is None  # never serves corrupt bytes
    assert not path.exists()  # moved aside, not left in place
    quarantined = list((store.root / "quarantine").iterdir())
    assert len(quarantined) == 1  # evidence preserved
    assert store.stats.corrupt == 1
    # self-heal: recompute (here: re-put) and the store is whole again
    store.put(fp, record)
    entry = store.get(fp)
    assert entry is not None
    assert entry.record.stats.to_dict() == record.stats.to_dict()


def test_every_single_bitflip_is_detected(store, record):
    # Exhaustive over byte positions (seeded bit per byte): any one-bit
    # change must fail JSON decoding or the checksum — never parse as a
    # different valid entry.
    fp = _fingerprint(record)
    store.put(fp, record)
    pristine = store.entry_path(fp).read_bytes()
    rng_bits = [(i, (i * 7) % 8) for i in range(0, len(pristine), 97)]
    for byte_index, bit_index in rng_bits:
        chaos.flip_bit(store.entry_path(fp), byte_index, bit_index)
        assert store.get(fp) is None, (
            f"bit {bit_index} of byte {byte_index} went undetected")
        store.entry_path(fp).parent.mkdir(parents=True, exist_ok=True)
        store.entry_path(fp).write_bytes(pristine)


def test_wrong_fingerprint_file_is_quarantined(store, record):
    # A valid entry renamed onto another key must not be served.
    fp = _fingerprint(record)
    store.put(fp, record)
    other = "f" * 16
    target = store.entry_path(other)
    target.parent.mkdir(parents=True, exist_ok=True)
    os.replace(store.entry_path(fp), target)
    assert store.get(other) is None
    assert store.stats.corrupt == 1


def test_newer_schema_version_is_not_guessed_at(store, record):
    fp = _fingerprint(record)
    path = store.put(fp, record)
    document = json.loads(path.read_text())
    document["v"] = SCHEMA_VERSION + 1
    path.write_text(json.dumps(document))
    assert store.get(fp) is None


# ---------------------------------------------------------------------------
# verify / gc
# ---------------------------------------------------------------------------

def test_verify_reports_and_heals(store, record):
    fp = _fingerprint(record)
    store.put(fp, record)
    other = chaos.synthetic_record(11, benchmark="chaos2")
    fp2 = cell_fingerprint(other.benchmark, other.config, 1.0, 11)
    store.put(fp2, other)
    chaos.corrupt_entry(store, fp2, seed=5)

    report = store.verify()
    assert report.entries == 2
    assert report.verified == 1
    assert report.quarantined_now == [fp2]
    assert not report.healthy
    # a second audit over the healed store is clean
    report2 = store.verify()
    assert report2.healthy and report2.verified == 1
    assert report2.quarantined_before == 1  # evidence still preserved


def test_gc_reclaims_orphan_temps_only(store, record):
    fp = _fingerprint(record)
    store.put(fp, record)
    orphan = store.entry_path(fp).parent / f"{TMP_PREFIX}orphan.123"
    orphan.write_bytes(b"half-written junk")
    assert store.gc() == 1
    assert not orphan.exists()
    assert store.get(fp) is not None  # committed entries untouched


def test_commit_bytes_leaves_no_temp_on_success(tmp_path):
    target = tmp_path / "x.json"
    commit_bytes(target, b"payload")
    assert target.read_bytes() == b"payload"
    assert [p.name for p in tmp_path.iterdir()] == ["x.json"]


# ---------------------------------------------------------------------------
# audit artifacts
# ---------------------------------------------------------------------------

def test_artifact_round_trip_and_schema(store, record):
    fp = _fingerprint(record)
    path = store.put(fp, record, elapsed_s=2.0)
    artifact = build_artifact(fp, record, scale=1.0, seed=7, attempts=1,
                              elapsed_s=2.0, started_at=10.0, finished_at=12.0,
                              store_path=str(path))
    store.write_artifact(fp, artifact)
    back = json.loads(store.artifact_path(fp).read_text())
    assert back == artifact
    assert back["kind"] == "repro-run-artifact"
    assert back["run"]["fingerprint"] == fp
    assert back["request"]["benchmark"] == record.benchmark
    assert back["config"]["arch"] == record.config.arch
    assert back["provenance"]["source"] == "computed"
    assert back["result"]["stats_sha256"] == stats_digest(record.stats.to_dict())
    assert set(back["code"]) == {"version", "commit"}


def test_code_version_reports_package_version():
    from repro import __version__

    assert code_version()["version"] == __version__


def test_git_commit_falls_back_to_packed_refs(tmp_path):
    """After `git gc` / `git pack-refs` a branch has no loose ref file;
    the audit record must still carry the commit."""
    git_dir = tmp_path / ".git"
    git_dir.mkdir()
    (git_dir / "HEAD").write_text("ref: refs/heads/main\n")
    sha = "0123456789abcdef0123456789abcdef01234567"
    (git_dir / "packed-refs").write_text(
        "# pack-refs with: peeled fully-peeled sorted\n"
        f"{'f' * 40} refs/heads/other\n"
        f"{sha} refs/heads/main\n"
        f"^{'e' * 40}\n")
    assert _git_commit(git_dir) == sha
    # a loose ref, when present, wins over the packed one
    (git_dir / "refs" / "heads").mkdir(parents=True)
    (git_dir / "refs" / "heads" / "main").write_text("a" * 40 + "\n")
    assert _git_commit(git_dir) == "a" * 40
    # detached HEAD and an unknown branch
    (git_dir / "HEAD").write_text("b" * 40 + "\n")
    assert _git_commit(git_dir) == "b" * 40
    (git_dir / "HEAD").write_text("ref: refs/heads/gone\n")
    assert _git_commit(git_dir) is None


def test_checksum_is_canonical_not_formatting_sensitive():
    assert (checksum_payload({"b": 1, "a": 2})
            == checksum_payload({"a": 2, "b": 1}))
