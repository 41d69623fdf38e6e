"""Process-isolated, checkpointed sweep orchestration.

``run_matrix`` executes a sweep serially inside the calling interpreter:
one segfault, OOM kill, or Ctrl-C loses the whole multi-hour matrix, and a
pathological cell can only be bounded in *cycles*, not wall-clock time.
This module runs each (benchmark, config, scale) cell as a **job** in its
own worker subprocess (``multiprocessing`` *spawn* context — a fresh
interpreter, nothing shared), so:

* a worker dying for any reason costs one cell, not the sweep;
* every cell has a **wall-clock deadline** — the parent kills the worker
  outright when it expires, complementing the in-simulation cycle budget
  and progress watchdog (which cannot fire if the interpreter itself is
  wedged or thrashing);
* every finished cell is committed to the sweep directory, which is a
  :class:`~repro.store.cas.ResultStore` root keyed by a deterministic
  fingerprint, so re-running into the same directory after a crash or
  interrupt runs only what is missing.

Failure handling is a per-status retry policy (:data:`RETRY_POLICY`) with
exponential backoff + jitter:

* ``timeout``      — retried with a **doubled cycle budget** (the budget
  may simply have been tight for this cell);
* ``wall-timeout`` — retried with a **doubled wall-clock budget**;
* ``worker-died``  — retried in a fresh process (transient OOM/segfault);
* ``deadlock`` / ``violation`` / ``check-failed`` / ``error`` — never
  retried: these are deterministic, more attempts cannot help.

The pool also **degrades gracefully**: repeated worker deaths halve the
pool (memory pressure is the usual culprit) down to one worker, and if
workers keep dying even then, the orchestrator falls back to the existing
in-process serial path (:func:`repro.analysis.runner.run_benchmark_safe`)
for the remaining cells rather than aborting the sweep.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import random
import time
from dataclasses import dataclass, field

from repro.analysis.runner import run_benchmark_safe
from repro.analysis.tables import format_table
from repro.records import (
    RunRecord,
    cell_fingerprint,
    config_from_dict,
    config_to_dict,
    record_from_dict,
    record_to_dict,
)
from repro.sim.config import GPUConfig
from repro.store.cas import ResultStore, build_artifact, stats_digest

#: status -> retryable?  (See module docstring for the rationale.)
RETRY_POLICY = {
    "timeout": True,
    "wall-timeout": True,
    "worker-died": True,
    "deadlock": False,
    "violation": False,
    "check-failed": False,
    "error": False,
    "divergence": False,  # fuzz cases are deterministic end to end
    "ok": False,
}

#: Consecutive worker deaths before the pool is halved (and, once the pool
#: is already a single worker, before falling back to in-process serial).
DEGRADE_AFTER = 3


@dataclass
class SweepCell:
    """One unit of sweep work: a benchmark name + a full configuration.

    Benchmarks are carried *by name* and re-resolved from the registry
    inside the worker — only plain data crosses the process boundary.
    ``key`` is how the caller wants the result keyed (defaults to
    ``(benchmark, arch)``, matching ``run_matrix``).
    """

    benchmark: str
    cfg: GPUConfig
    scale: float = 1.0
    check: bool = True
    max_cycles: int | None = None
    faults: object | None = None  # FaultPlan; picklable, spawn-safe
    workload_seed: int = 0
    key: tuple | None = None
    #: Which worker entry point runs this cell: "bench" resolves
    #: ``benchmark`` from the kernel registry; "fuzz" hands the payload to
    #: :func:`repro.fuzz.campaign.run_fuzz_cell` (for fuzz cells,
    #: ``faults`` carries the injected fault plan as a plain field dict).
    runner: str = "bench"
    #: Extra runner-specific payload (plain data only); fuzz cells carry
    #: {"spec": ..., "oracle": ...} here.  Not part of the fingerprint —
    #: fuzz encodes the spec fingerprint in ``benchmark`` instead.
    extra: dict = field(default_factory=dict)
    #: Test-only fault injection: worker attempts (1-based) on which the
    #: worker hard-exits at startup, simulating a segfault/OOM kill.
    die_on_attempts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.key is None:
            self.key = (self.benchmark, self.cfg.arch)

    @property
    def fingerprint(self) -> str:
        # A fault-injected run is a different experiment from the clean
        # one: fold the plan into the identity so the two never share a
        # stored entry.
        name = self.benchmark
        if self.faults is not None:
            name += "+faults=" + json.dumps(self.faults, sort_keys=True,
                                            default=repr)
        return cell_fingerprint(name, self.cfg, self.scale,
                                self.workload_seed)


@dataclass
class SweepResult:
    """Everything a sweep produced, plus how hard it had to work."""

    records: dict[tuple, RunRecord] = field(default_factory=dict)
    attempts: dict[tuple, int] = field(default_factory=dict)
    #: keys read back from the directory (ok entries and terminal failures)
    cached: list[tuple] = field(default_factory=list)
    fingerprints: dict[tuple, str] = field(default_factory=dict)
    dump_paths: dict[tuple, str] = field(default_factory=dict)
    directory: str | None = None
    store_stats: dict | None = None  # ResultStore counters, with a directory
    degraded_to_serial: bool = False

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records.values())

    def counts(self) -> dict[str, int]:
        ok = sum(1 for r in self.records.values() if r.ok)
        retried = sum(1 for k, r in self.records.items()
                      if self.attempts.get(k, 1) > 1 or r.retried)
        return {
            "total": len(self.records),
            "ok": ok,
            "failed": len(self.records) - ok,
            "retried": retried,
            "cached": len(self.cached),
        }

    def summary_table(self) -> str:
        """The final per-cell summary: status, attempts, dump paths.

        ``ok*`` marks a cell that only succeeded after a retry — a healthy
        sweep should not hide that a cell needed a second attempt.
        """
        rows = []
        for key in sorted(self.records, key=str):
            record = self.records[key]
            attempts = self.attempts.get(key, 1)
            marker = "*" if (attempts > 1 or record.retried) else ""
            cell = (f"ok{marker} ({record.cycles} cyc)" if record.ok
                    else record.failure)
            note = "cached" if key in self.cached else ""
            rows.append(("/".join(str(part) for part in key), cell,
                         attempts, self.dump_paths.get(key, "") or note))
        counts = self.counts()
        table = format_table(
            ("cell", "result", "attempts", "dump / note"), rows,
            title=f"sweep summary - {counts['ok']}/{counts['total']} ok "
                  f"({counts['retried']} retried, {counts['cached']} cached)",
        )
        notes = []
        if any(self.attempts.get(k, 1) > 1 or r.retried
               for k, r in self.records.items()):
            notes.append("* = completed only after a retry")
        if self.degraded_to_serial:
            notes.append("pool degraded to the in-process serial path "
                         "after repeated worker deaths")
        if self.store_stats and self.store_stats["corrupt"]:
            notes.append(f"corrupt entries quarantined and recomputed: "
                         f"{self.store_stats['corrupt']}")
        if self.cached:
            notes.append(f"{len(self.cached)} cell(s) read back from the "
                         f"directory without re-simulating")
        if self.directory:
            notes.append(f"directory: {self.directory}")
        return table + ("\n" + "\n".join(notes) if notes else "")

    def to_summary(self) -> dict:
        """Machine-readable sweep summary (``repro sweep --format json``).

        Mirrors the lint/predict JSON discipline: external callers (the CI
        kill + resume smoke step in particular) assert on structured
        results instead of scraping the summary table.  Per-cell
        ``stats_sha256`` is the byte-identity witness; the full stats dict
        rides along so byte comparisons need no second run.
        """
        cells = []
        for key in sorted(self.records, key=str):
            record = self.records[key]
            stats = record.stats.to_dict() if record.stats is not None else None
            cells.append({
                "key": [str(part) for part in key],
                "benchmark": record.benchmark,
                "arch": record.arch,
                "fingerprint": self.fingerprints.get(key),
                "status": record.status,
                "ok": record.ok,
                "attempts": self.attempts.get(key, 1),
                "retried": record.retried,
                "cached": key in self.cached,
                "cycles": record.stats.cycles if record.ok else None,
                "error": record.error,
                "dump_path": self.dump_paths.get(key),
                "stats_sha256": stats_digest(stats),
                "stats": stats,
            })
        return {
            "v": 2,
            "ok": self.ok,
            "counts": self.counts(),
            "directory": self.directory,
            "store": self.store_stats,
            "degraded_to_serial": self.degraded_to_serial,
            "cells": cells,
        }


# ---------------------------------------------------------------------------
# Worker side (runs in a spawned subprocess)
# ---------------------------------------------------------------------------

def _worker_main(conn, payload: dict) -> None:
    """Entry point of one worker process: run one cell, send one dict.

    Must stay importable at module top level — the *spawn* start method
    re-imports this module in the child to find it.  Everything that can
    go wrong inside is converted into a record dict; only a hard crash
    (segfault, OOM kill, ``os._exit``) leaves the pipe empty, which the
    parent classifies as ``worker-died``.
    """
    if payload["attempt"] in payload["die_on_attempts"]:
        os._exit(86)  # simulated hard crash (test hook)
    try:
        if payload.get("runner") == "fuzz":
            from repro.fuzz.campaign import run_fuzz_cell

            record = run_fuzz_cell(payload)
        else:
            from repro.kernels.registry import get

            cfg = config_from_dict(payload["config"])
            bench = get(payload["benchmark"])
            record = run_benchmark_safe(
                bench, cfg, payload["scale"], payload["check"],
                max_cycles=payload["max_cycles"], faults=payload["faults"],
                retry_timeouts=False,  # retries are the orchestrator's job
            )
        conn.send(record_to_dict(record))
    except BaseException as exc:  # noqa: BLE001 - last-ditch isolation
        conn.send({
            "benchmark": payload["benchmark"],
            "arch": payload["config"].get("arch", "?"),
            "status": "error",
            "error": f"{type(exc).__name__}: {exc}",
            "dump": None, "retried": False, "stats": None,
            "config": payload["config"],
        })
    finally:
        conn.close()


def _cell_payload(cell: SweepCell, attempt: int, max_cycles: int | None) -> dict:
    return {
        "benchmark": cell.benchmark,
        "config": config_to_dict(cell.cfg),
        "scale": cell.scale,
        "check": cell.check,
        "max_cycles": max_cycles,
        "faults": cell.faults,
        "runner": cell.runner,
        "extra": cell.extra,
        "attempt": attempt,
        "die_on_attempts": cell.die_on_attempts,
    }


# ---------------------------------------------------------------------------
# Parent side
# ---------------------------------------------------------------------------

@dataclass
class _Job:
    """One cell's sweep state across attempts."""

    cell: SweepCell
    attempt: int = 0  # attempts started so far
    max_cycles: int | None = None  # current cycle budget (doubles on timeout)
    wall_budget: float | None = None  # current wall budget (doubles on kill)
    ready_at: float = 0.0  # monotonic time before which backoff holds it
    started: float = 0.0
    first_started: float | None = None
    proc: object | None = None
    conn: object | None = None

    def launch(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        self.attempt += 1
        payload = _cell_payload(self.cell, self.attempt, self.max_cycles)
        proc = ctx.Process(target=_worker_main, args=(child_conn, payload),
                           daemon=True)
        proc.start()
        child_conn.close()  # parent keeps only the read end
        self.proc, self.conn = proc, parent_conn
        self.started = time.monotonic()
        if self.first_started is None:
            self.first_started = self.started

    def reap(self) -> dict | None:
        """Collect the worker's result dict, or None if it died silently."""
        result = None
        try:
            if self.conn.poll(0):
                result = self.conn.recv()
        except (EOFError, OSError):
            result = None
        self.proc.join()
        self.conn.close()
        self.proc, self.conn = None, None
        return result

    def kill(self) -> None:
        self.proc.kill()
        self.proc.join()
        self.conn.close()
        self.proc, self.conn = None, None

    @property
    def deadline(self) -> float | None:
        if self.wall_budget is None:
            return None
        return self.started + self.wall_budget

    @property
    def elapsed(self) -> float:
        return time.monotonic() - (self.first_started or self.started)


def _failed_record(cell: SweepCell, status: str, message: str) -> RunRecord:
    return RunRecord(benchmark=cell.benchmark, arch=cell.cfg.arch, stats=None,
                     config=cell.cfg, status=status, error=message)


def run_sweep(cells, *, jobs: int = 1, wall_timeout: float | None = None,
              retries: int = 1, directory=None, backoff_base: float = 0.5,
              backoff_cap: float = 30.0, seed: int = 0,
              progress=None) -> SweepResult:
    """Run every cell, each in its own worker subprocess; never raises for
    a cell-level failure.

    ``jobs`` is the worker-pool width (``0`` forces the in-process serial
    path — no isolation, but also no spawn overhead; still persisted and
    resumable).  ``wall_timeout`` is the per-cell wall-clock budget in
    seconds (``None`` = unbounded: only the cycle budget and watchdog
    bound the cell).  ``retries`` caps *extra* attempts per cell under
    :data:`RETRY_POLICY`.

    ``directory`` (a :class:`~repro.store.cas.ResultStore` or its root
    path) persists the sweep.  Each cell is then one of: an ``objects/``
    hit (a verified ``ok`` entry, served without simulating), a
    ``failures/`` hit (a terminal failure recorded by an earlier run into
    this directory, not re-run), or it runs.  Both kinds of hit are
    listed in ``SweepResult.cached``.  Every computed cell is committed
    crash-safely as it finishes — ``ok`` cells to ``objects/`` with an
    ``artifacts/<fp>.json`` audit record, terminal failures to
    ``failures/`` with their forensic dump in ``dumps/<fp>.txt`` — so a
    sweep killed at any point resumes by re-running into the same
    directory.

    Duplicate fingerprints in ``cells`` are an error: the store could not
    tell their results apart.
    """
    cells = list(cells)
    by_print: dict[str, SweepCell] = {}
    for cell in cells:
        other = by_print.setdefault(cell.fingerprint, cell)
        if other is not cell:
            raise ValueError(
                f"duplicate sweep cell: {cell.key} and {other.key} have the "
                f"same fingerprint (same benchmark, config, scale, and seed)")

    store = directory
    if store is not None and not isinstance(store, ResultStore):
        store = ResultStore(store)
    rng = random.Random(seed)
    result = SweepResult(directory=str(store.root) if store is not None else None)

    def note(message: str) -> None:
        if progress:
            progress(message)

    # -- resume: read back every cell this directory already holds --------
    todo: list[_Job] = []
    for cell in cells:
        result.fingerprints[cell.key] = cell.fingerprint
        entry = None
        if store is not None:
            entry = (store.get(cell.fingerprint)
                     or store.get_failure(cell.fingerprint))
        if entry is None:
            todo.append(_Job(cell=cell, max_cycles=cell.max_cycles,
                             wall_budget=wall_timeout))
            continue
        result.records[cell.key] = entry.record
        result.attempts[cell.key] = entry.attempts
        result.cached.append(cell.key)
        if store.dump_path(cell.fingerprint).is_file():
            result.dump_paths[cell.key] = str(store.dump_path(cell.fingerprint))
    if result.cached:
        note(f"resume: {len(result.cached)}/{len(cells)} cells read back "
             f"from {store.root}, {len(todo)} to run")

    def finalize(job: _Job, record: RunRecord) -> None:
        cell = job.cell
        result.records[cell.key] = record
        result.attempts[cell.key] = job.attempt
        if store is None:
            return
        meta = dict(scale=cell.scale, seed=cell.workload_seed,
                    attempts=job.attempt, elapsed_s=job.elapsed)
        if not record.ok:
            dump_path = store.write_dump(cell.fingerprint, record.dump)
            if dump_path:
                result.dump_paths[cell.key] = dump_path
            store.put_failure(cell.fingerprint, record, **meta)
            return
        finished = time.time()
        path = store.put(cell.fingerprint, record, **meta)
        store.write_artifact(cell.fingerprint, build_artifact(
            cell.fingerprint, record, **meta,
            started_at=finished - job.elapsed, finished_at=finished,
            store_path=str(path)))

    def run_serial(job: _Job) -> None:
        """The degraded / ``jobs=0`` path: in-process, no isolation."""
        from repro.kernels.registry import get

        job.attempt += 1
        if job.first_started is None:
            job.first_started = time.monotonic()
        if job.cell.runner == "fuzz":
            from repro.fuzz.campaign import run_fuzz_cell

            finalize(job, run_fuzz_cell(
                _cell_payload(job.cell, job.attempt, job.max_cycles)))
            return
        try:
            bench = get(job.cell.benchmark)
        except KeyError as exc:
            finalize(job, _failed_record(job.cell, "error", str(exc)))
            return
        record = run_benchmark_safe(
            bench, job.cell.cfg, job.cell.scale, job.cell.check,
            max_cycles=job.max_cycles, faults=job.cell.faults,
            retry_timeouts=retries > 0, wall_budget=wall_timeout)
        if record.retried:
            job.attempt += 1
        finalize(job, record)

    if jobs <= 0:  # everything in-process; nothing is left for the pool
        for job in todo:
            run_serial(job)
        todo = []

    # -- the process pool -------------------------------------------------
    ctx = multiprocessing.get_context("spawn")
    pool_size = max(1, jobs)
    pending = list(todo)  # jobs waiting for a slot (or for backoff)
    active: list[_Job] = []
    death_streak = 0  # consecutive worker deaths, reset by any result
    serial_fallback = False

    def backoff(job: _Job) -> None:
        delay = min(backoff_cap, backoff_base * (2 ** (job.attempt - 1)))
        delay *= 1.0 + rng.random()  # jitter: avoid lockstep retries
        job.ready_at = time.monotonic() + delay

    def settle(job: _Job, record: RunRecord) -> None:
        """Retry under the policy, or finalize the cell."""
        nonlocal death_streak
        retryable = RETRY_POLICY.get(record.status, False)
        allowance = retries
        if record.status == "worker-died":
            death_streak += 1
            # Worker deaths get a more generous allowance than --retries:
            # a sick *environment* should trip the pool-degradation logic
            # (which needs DEGRADE_AFTER consecutive deaths, twice) before
            # any one cell is terminally charged for it.  A cell that
            # reliably kills its own worker still fails terminally here.
            allowance = max(retries, 2 * DEGRADE_AFTER)
        else:
            death_streak = 0
        if retryable and job.attempt <= allowance:
            if record.status == "timeout":
                budget = job.max_cycles or job.cell.cfg.max_cycles
                job.max_cycles = 2 * budget  # a tight budget, not a hang
            elif record.status == "wall-timeout" and job.wall_budget:
                job.wall_budget *= 2
            backoff(job)
            note(f"{'/'.join(map(str, job.cell.key))}: {record.status} on "
                 f"attempt {job.attempt}, retrying")
            pending.append(job)
            return
        record.retried = record.retried or job.attempt > 1
        finalize(job, record)

    try:
        while pending or active:
            now = time.monotonic()
            # Degrade: repeated worker deaths mean the environment (not one
            # cell) is sick — shrink the pool, then give up on isolation.
            if death_streak >= DEGRADE_AFTER:
                death_streak = 0
                if pool_size > 1:
                    pool_size = max(1, pool_size // 2)
                    note(f"repeated worker deaths: pool degraded to "
                         f"{pool_size} worker(s)")
                else:
                    serial_fallback = True
                    note("workers keep dying: falling back to the "
                         "in-process serial path")
            if serial_fallback:
                # Drain what is still running, then finish serially.
                for job in active:
                    job.kill()
                    job.attempt -= 1  # the killed attempt is not charged
                    pending.append(job)
                active.clear()
                for job in pending:
                    run_serial(job)
                pending.clear()
                result.degraded_to_serial = True
                break

            # Launch while there are free slots and ready jobs.
            ready = [j for j in pending if j.ready_at <= now]
            while ready and len(active) < pool_size:
                job = ready.pop(0)
                pending.remove(job)
                job.launch(ctx)
                active.append(job)

            # Poll the active set: results, deaths, blown deadlines.
            for job in list(active):
                got_result = False
                try:
                    got_result = job.conn.poll(0)
                except (EOFError, OSError):
                    pass
                if got_result or not job.proc.is_alive():
                    active.remove(job)
                    data = job.reap()
                    if data is None:
                        settle(job, _failed_record(
                            job.cell, "worker-died",
                            f"worker exited without a result "
                            f"(attempt {job.attempt})"))
                    else:
                        settle(job, record_from_dict(data))
                elif job.deadline is not None and now >= job.deadline:
                    budget = job.wall_budget
                    job.kill()
                    active.remove(job)
                    settle(job, _failed_record(
                        job.cell, "wall-timeout",
                        f"wall-clock deadline ({budget:g}s) exceeded on "
                        f"attempt {job.attempt}"))
            if pending or active:
                time.sleep(0.02)
    except KeyboardInterrupt:
        # Everything finalized so far is durable; in-flight workers are
        # killed, their cells untouched — exactly what a re-run into the
        # same directory needs.
        for job in active:
            job.kill()
        note("interrupted: re-run into the same directory to resume")
        raise

    if store is not None:
        result.store_stats = store.stats.to_dict()
    return result


def matrix_cells(benches, archs, base_cfg: GPUConfig, scale: float = 1.0,
                 check: bool = True, max_cycles: int | None = None) -> list[SweepCell]:
    """The (benchmark x arch) matrix as sweep cells, keyed like ``run_matrix``."""
    return [
        SweepCell(benchmark=bench.name, cfg=base_cfg.with_(arch=arch),
                  scale=scale, check=check, max_cycles=max_cycles)
        for bench in benches for arch in archs
    ]
