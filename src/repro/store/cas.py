"""Content-addressed result store: the one persistence layer.

The deterministic simulator makes a result a pure function of its
fingerprint (:func:`repro.records.cell_fingerprint`).  A sweep, fuzz,
experiment, or doctor directory *is* a store root: re-running into it
reads every finished cell back instead of re-simulating it.

Layout under the store root::

    objects/<fp[:2]>/<fp>.json   one verified ``ok`` entry per fingerprint
    failures/<fp>.json           terminal failures (same envelope)
    quarantine/                  corrupt entries moved aside on detection
    artifacts/<fp>.json          per-run audit records (see build_artifact)
    dumps/<fp>.txt               forensic dumps of failed cells
    reproducers/                 fuzz reproducers (repro.fuzz.campaign)

Crash safety (the whole point):

* every file is committed via :func:`repro.store.fsio.commit_bytes` —
  temp file + fsync + atomic rename + directory fsync — so a reader never
  observes a torn file and a crash cannot lose a new directory entry;
* every entry embeds a SHA-256 **checksum** over its canonical payload;
  a read that fails it (bit rot, truncation, tampering) **quarantines**
  the file into ``quarantine/`` and reports a miss — the caller
  recomputes and the corrupt bytes are preserved for forensics;
* orphan ``.tmp-*`` files left by killed writers are reclaimed by
  :meth:`ResultStore.gc`.

Terminal failures are budget- and environment-dependent, not global
truths: :meth:`ResultStore.get` never returns them; only a sweep re-run
into the same directory reads them back (:meth:`ResultStore.get_failure`)
so it does not re-run a cell that already failed.  Delete
``failures/<fp>.json`` to retry one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.records import RunRecord, record_from_dict, record_to_dict
from repro.store.fsio import TMP_PREFIX, commit_bytes, fsync_dir

SCHEMA_VERSION = 1

OBJECTS_DIR = "objects"
FAILURES_DIR = "failures"
QUARANTINE_DIR = "quarantine"
ARTIFACTS_DIR = "artifacts"
DUMPS_DIR = "dumps"


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()


def checksum_payload(payload: dict) -> str:
    """Canonical-JSON SHA-256 of an entry payload, ``sha256:`` prefixed."""
    return "sha256:" + hashlib.sha256(_canonical(payload)).hexdigest()


def stats_digest(stats_dict: dict | None) -> str | None:
    """Digest of one ``SimStats.to_dict()`` — the byte-identity witness
    that sweep summaries and audit records compare across runs."""
    if stats_dict is None:
        return None
    return "sha256:" + hashlib.sha256(_canonical(stats_dict)).hexdigest()


def _git_commit(git_dir: Path) -> str | None:
    """The commit ``HEAD`` names in ``git_dir``, read without a subprocess.

    A symbolic ref is looked up as a loose ref file first and then in
    ``packed-refs``: after ``git gc`` / ``git pack-refs`` a branch may
    exist only there.
    """
    text = (git_dir / "HEAD").read_text().strip()
    if not text.startswith("ref:"):
        return text  # detached HEAD
    ref = text.split(None, 1)[1]
    loose = git_dir / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = git_dir / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref and not line.startswith(("#", "^")):
                return sha
    return None


def code_version() -> dict:
    """Best-effort code identity for audit records: package version plus
    the git commit when running from a checkout (no subprocesses)."""
    from repro import __version__

    commit = None
    for parent in Path(__file__).resolve().parents:
        git_dir = parent / ".git"
        if (git_dir / "HEAD").is_file():
            try:
                commit = _git_commit(git_dir)
            except OSError:  # pragma: no cover - unreadable .git
                commit = None
            break
    return {"version": __version__, "commit": commit}


@dataclass
class StoreEntry:
    """One verified store entry: the record plus how it was produced."""

    fingerprint: str
    record: RunRecord
    scale: float = 1.0
    seed: int = 0
    attempts: int = 1
    elapsed_s: float = 0.0
    created_at: float = 0.0

    def payload(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "scale": self.scale,
            "seed": self.seed,
            "attempts": self.attempts,
            "elapsed_s": self.elapsed_s,
            "created_at": self.created_at,
            "record": record_to_dict(self.record),
        }


@dataclass
class StoreStats:
    """Lifetime-of-this-handle counters (monitoring, tests, reports)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    corrupt: int = 0  # entries quarantined by this handle's reads

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class StoreReport:
    """Result of a full ``verify()`` scan (``repro doctor --store``)."""

    entries: int = 0
    verified: int = 0
    quarantined_now: list[str] = field(default_factory=list)
    quarantined_before: int = 0  # files already sitting in quarantine/
    orphan_temps_removed: int = 0
    artifacts: int = 0
    bytes: int = 0

    @property
    def healthy(self) -> bool:
        return not self.quarantined_now

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


class ResultStore:
    """Fingerprint-keyed, checksum-verified, crash-safe result store."""

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        for sub in (OBJECTS_DIR, FAILURES_DIR, QUARANTINE_DIR, ARTIFACTS_DIR,
                    DUMPS_DIR):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        fsync_dir(self.root)
        self.stats = StoreStats()

    # -- paths -------------------------------------------------------------

    def entry_path(self, fingerprint: str) -> Path:
        return self.root / OBJECTS_DIR / fingerprint[:2] / f"{fingerprint}.json"

    def failure_path(self, fingerprint: str) -> Path:
        return self.root / FAILURES_DIR / f"{fingerprint}.json"

    def artifact_path(self, fingerprint: str) -> Path:
        return self.root / ARTIFACTS_DIR / f"{fingerprint}.json"

    def dump_path(self, fingerprint: str) -> Path:
        return self.root / DUMPS_DIR / f"{fingerprint}.txt"

    # -- write -------------------------------------------------------------

    def put(self, fingerprint: str, record: RunRecord, *, scale: float = 1.0,
            seed: int = 0, attempts: int = 1, elapsed_s: float = 0.0,
            write_hook=None) -> Path | None:
        """Durably store one completed cell; returns the entry path.

        Failed records are refused (``None``): a timeout under one wall
        budget is not a global truth about the fingerprint — they go
        through :meth:`put_failure` instead.  Re-putting an existing
        fingerprint atomically replaces the entry — determinism
        guarantees the payload is equivalent, so last-writer-wins is safe.
        """
        if not record.ok:
            return None
        return self._commit(self.entry_path(fingerprint), fingerprint, record,
                            scale, seed, attempts, elapsed_s, write_hook)

    def put_failure(self, fingerprint: str, record: RunRecord, *,
                    scale: float = 1.0, seed: int = 0, attempts: int = 1,
                    elapsed_s: float = 0.0) -> Path:
        """Durably record a terminal failure under ``failures/``.

        Same checksummed envelope as an ``ok`` entry; :meth:`get` never
        serves it, only :meth:`get_failure` reads it back.
        """
        return self._commit(self.failure_path(fingerprint), fingerprint, record,
                            scale, seed, attempts, elapsed_s)

    def _commit(self, path: Path, fingerprint: str, record: RunRecord,
                scale, seed, attempts, elapsed_s, write_hook=None) -> Path:
        payload = StoreEntry(
            fingerprint=fingerprint, record=record, scale=scale, seed=seed,
            attempts=attempts, elapsed_s=round(elapsed_s, 3),
            created_at=time.time()).payload()
        document = {
            "v": SCHEMA_VERSION,
            "checksum": checksum_payload(payload),
            "payload": payload,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        commit_bytes(path, json.dumps(document, sort_keys=True).encode() + b"\n",
                     write_hook=write_hook)
        self.stats.puts += 1
        return path

    def write_dump(self, fingerprint: str, dump: str | None) -> str | None:
        """Durably persist a forensic dump as ``dumps/<fp>.txt``; returns
        its path (``None`` when there is no dump)."""
        if not dump:
            return None
        path = self.dump_path(fingerprint)
        commit_bytes(path, (dump + "\n").encode())
        return str(path)

    # -- read --------------------------------------------------------------

    def get(self, fingerprint: str) -> StoreEntry | None:
        """Fetch and *verify* one ``ok`` entry; corrupt entries are
        quarantined and reported as a miss so the caller recomputes
        (self-heal)."""
        entry = self._load(self.entry_path(fingerprint), fingerprint)
        if entry is None:
            self.stats.misses += 1
        else:
            self.stats.hits += 1
        return entry

    def get_failure(self, fingerprint: str) -> StoreEntry | None:
        """Fetch and verify a terminal failure recorded in this directory
        (corrupt ones are quarantined, so the cell simply re-runs)."""
        return self._load(self.failure_path(fingerprint), fingerprint)

    def _load(self, path: Path, fingerprint: str) -> StoreEntry | None:
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            return None
        entry = self._parse(fingerprint, raw, path)
        if entry is None:
            self._quarantine(path)
            self.stats.corrupt += 1
        return entry

    def _parse(self, fingerprint: str, raw: bytes, path: Path) -> StoreEntry | None:
        """Decode + verify one entry; ``None`` for any corruption."""
        try:
            document = json.loads(raw)
            if not isinstance(document, dict):
                return None
            if int(document.get("v", 0)) > SCHEMA_VERSION:
                return None  # a newer writer's entry: do not guess
            payload = document["payload"]
            if document["checksum"] != checksum_payload(payload):
                return None
            if payload["fingerprint"] != fingerprint:
                return None  # a file renamed onto the wrong key
            record = record_from_dict(payload["record"])
        except (KeyError, TypeError, ValueError):
            return None
        if record.ok == (path.parent.name == FAILURES_DIR):
            return None  # a failure under objects/ or a success under failures/
        return StoreEntry(
            fingerprint=fingerprint, record=record,
            scale=float(payload.get("scale", 1.0)),
            seed=int(payload.get("seed", 0)),
            attempts=int(payload.get("attempts", 1)),
            elapsed_s=float(payload.get("elapsed_s", 0.0)),
            created_at=float(payload.get("created_at", 0.0)))

    def _quarantine(self, path: Path) -> Path:
        """Move a corrupt file into ``quarantine/`` (never delete evidence)."""
        qdir = self.root / QUARANTINE_DIR
        target = qdir / path.name
        serial = 0
        while target.exists():
            serial += 1
            target = qdir / f"{path.name}.{serial}"
        os.replace(path, target)
        fsync_dir(qdir)
        fsync_dir(path.parent)
        return target

    # -- maintenance -------------------------------------------------------

    def verify(self) -> StoreReport:
        """Scan every entry and failure, quarantine corruption, reclaim
        orphan temps."""
        report = StoreReport()
        report.orphan_temps_removed = self.gc()
        paths = sorted((self.root / OBJECTS_DIR).glob("*/*.json"))
        paths += sorted((self.root / FAILURES_DIR).glob("*.json"))
        for path in paths:
            report.entries += 1
            report.bytes += path.stat().st_size
            fingerprint = path.stem
            entry = self._parse(fingerprint, path.read_bytes(), path)
            if entry is None:
                self._quarantine(path)
                self.stats.corrupt += 1
                report.quarantined_now.append(fingerprint)
            else:
                report.verified += 1
        report.quarantined_before = sum(
            1 for p in (self.root / QUARANTINE_DIR).iterdir() if p.is_file())
        report.artifacts = sum(
            1 for p in (self.root / ARTIFACTS_DIR).glob("*.json"))
        return report

    def gc(self) -> int:
        """Remove orphan ``.tmp-*`` commit files left by killed writers."""
        removed = 0
        for sub in (OBJECTS_DIR, FAILURES_DIR, ARTIFACTS_DIR, DUMPS_DIR):
            for path in (self.root / sub).rglob(f"{TMP_PREFIX}*"):
                path.unlink(missing_ok=True)
                removed += 1
        return removed

    def __len__(self) -> int:
        return sum(1 for _ in (self.root / OBJECTS_DIR).glob("*/*.json"))

    def __bool__(self) -> bool:
        # A handle is always truthy; without this, __len__ would make an
        # *empty* store falsy and silently disable `if store:` guards.
        return True

    # -- audit records -----------------------------------------------------

    def write_artifact(self, fingerprint: str, artifact: dict) -> Path:
        """Durably publish the per-run audit record for ``fingerprint``."""
        path = self.artifact_path(fingerprint)
        commit_bytes(path, json.dumps(artifact, sort_keys=True, indent=2).encode() + b"\n")
        return path


def build_artifact(fingerprint: str, record: RunRecord, *,
                   scale: float = 1.0, seed: int = 0, attempts: int = 1,
                   elapsed_s: float = 0.0,
                   started_at: float | None = None,
                   finished_at: float | None = None,
                   store_path: str | None = None) -> dict:
    """The per-run ``artifact.json`` audit record of a computed cell.

    Answers "exactly what was simulated, by which code, how long it took,
    and where the result went" — the run-level source of truth that
    sweep summaries derive from.
    """
    stats_dict = record.stats.to_dict() if record.stats is not None else None
    return {
        "v": SCHEMA_VERSION,
        "kind": "repro-run-artifact",
        "run": {
            "fingerprint": fingerprint,
            "status": record.status,
            "error": record.error,
            "attempts": attempts,
            "retried": record.retried,
            "started_at": started_at,
            "finished_at": finished_at,
            "elapsed_s": round(elapsed_s, 3),
        },
        "request": {
            "benchmark": record.benchmark,
            "arch": record.arch,
            "scale": scale,
            "seed": seed,
        },
        "config": record_to_dict(record)["config"],
        "code": code_version(),
        "provenance": {"source": "computed", "store_path": store_path},
        "result": {
            "cycles": record.stats.cycles if record.stats else None,
            "instructions": record.stats.instructions if record.stats else None,
            "stats_sha256": stats_digest(stats_dict),
        },
    }
