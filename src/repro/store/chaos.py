"""Deterministic chaos harness for the result store.

Robustness claims are only claims until a fault actually fires, so this
module provides *seeded, reproducible* fault injectors that the chaos test
suite (``tests/test_store_chaos.py``) drives:

* :func:`flip_bit` / :func:`truncate_file` — storage-level corruption of
  a committed entry (bit rot, a torn file smuggled past the rename
  discipline by a buggy filesystem);
* :func:`run_killed_writer` — a real writer subprocess SIGKILLed at a
  seeded byte offset / commit stage mid-``put``, the crash-consistency
  property: after reopening, the store is either fully absent or fully
  valid for that key, never torn;
* :func:`synthetic_record` — a deterministic ``RunRecord`` (pure function
  of the seed) so crash tests don't pay for a simulation per subprocess.

Everything is seeded; a failing chaos test replays exactly.
"""

from __future__ import annotations

import multiprocessing
import os
import random
import signal

from repro.records import RunRecord
from repro.sim.config import GPUConfig
from repro.sim.stats import SimStats, SMStats
from repro.store.cas import ResultStore
from repro.store.fsio import STAGE_WRITE


def synthetic_record(seed: int, benchmark: str = "chaos") -> RunRecord:
    """A deterministic, store-shaped ``ok`` record derived from ``seed``."""
    rng = random.Random(f"chaos-{seed}")
    sm = SMStats(
        cycles=1000 + rng.randrange(10_000),
        instructions=500 + rng.randrange(5_000),
        thread_instructions=16_000 + rng.randrange(160_000),
        issue_slots=2000 + rng.randrange(20_000),
        issued_slots=rng.randrange(2000),
        idle_cycles_mem=rng.randrange(500),
        l1_accesses=rng.randrange(1000),
        l1_hits=rng.randrange(500),
        instructions_by_class={"alu": rng.randrange(4000),
                               "mem": rng.randrange(1000)},
    )
    stats = SimStats(cycles=sm.cycles, instructions=sm.instructions,
                     thread_instructions=sm.thread_instructions,
                     sm_stats=[sm], l2_accesses=rng.randrange(800),
                     l2_hits=rng.randrange(400),
                     dram_requests=rng.randrange(300),
                     ctas_launched=1 + rng.randrange(64))
    return RunRecord(benchmark=benchmark, arch="baseline", stats=stats,
                     config=GPUConfig())


def flip_bit(path, byte_index: int, bit_index: int = 0) -> None:
    """Flip one bit of a committed file in place (seeded bit rot)."""
    data = bytearray(open(path, "rb").read())
    byte_index %= len(data)
    data[byte_index] ^= 1 << (bit_index % 8)
    with open(path, "wb") as handle:
        handle.write(data)


def truncate_file(path, keep_bytes: int) -> None:
    """Truncate a committed file to ``keep_bytes`` (a torn tail)."""
    size = os.path.getsize(path)
    os.truncate(path, max(0, min(keep_bytes, size)))


def _killed_writer_main(store_dir, fingerprint: str, seed: int,
                        kill_stage: str, kill_bytes: int) -> None:
    """Subprocess entry: start a ``put`` and SIGKILL ourselves mid-commit.

    ``kill_stage`` picks the crash point: mid-``write`` once ``kill_bytes``
    have reached the temp file, after the data ``fsynced``, or after the
    atomic rename but *before* the directory fsync (``renamed``) — the
    window the directory-fsync step of the commit exists for.  SIGKILL (not
    ``os._exit``) so no interpreter cleanup can soften the crash.
    """
    record = synthetic_record(seed)
    store = ResultStore(store_dir)

    def hook(stage: str, written: int) -> None:
        if stage == kill_stage and (stage != STAGE_WRITE
                                    or written >= kill_bytes):
            os.kill(os.getpid(), signal.SIGKILL)

    store.put(fingerprint, record, seed=seed, write_hook=hook)


def run_killed_writer(store_dir, fingerprint: str, seed: int, *,
                      kill_stage: str = STAGE_WRITE,
                      kill_bytes: int = 0) -> int:
    """Run one doomed writer in a spawned subprocess; returns its exitcode
    (``-SIGKILL`` when the injected crash fired, ``0`` when the commit won
    the race — e.g. ``kill_bytes`` beyond the entry size)."""
    ctx = multiprocessing.get_context("spawn")
    proc = ctx.Process(target=_killed_writer_main,
                       args=(os.fspath(store_dir), fingerprint, seed,
                             kill_stage, kill_bytes))
    proc.start()
    proc.join(60)
    if proc.is_alive():  # pragma: no cover - hang safety net
        proc.kill()
        proc.join()
    return proc.exitcode


def corrupt_entry(store: ResultStore, fingerprint: str, seed: int,
                  mode: str = "bitflip"):
    """Seeded corruption of one committed entry (``bitflip``/``truncate``);
    returns the corrupted entry's path."""
    path = store.entry_path(fingerprint)
    size = os.path.getsize(path)
    rng = random.Random(f"corrupt-{seed}")
    if mode == "bitflip":
        flip_bit(path, rng.randrange(size), rng.randrange(8))
    elif mode == "truncate":
        truncate_file(path, rng.randrange(size))
    else:
        raise ValueError(f"unknown corruption mode {mode!r}")
    return path
