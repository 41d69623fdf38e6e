"""The one multi-cell runner: every experiment, gate and sweep runs here.

:func:`run_sweep` runs a list of (benchmark, config, scale) cells and
returns one :class:`~repro.records.RunRecord` per cell; a failing cell
becomes a failed record, never an exception.  Cells run in the calling
process unless ``jobs`` or ``directory`` is given; then each runs in its
own worker subprocess (``multiprocessing`` *spawn*: a fresh interpreter,
nothing shared), so a worker dying costs one cell, not the sweep, and a
**wall-clock deadline** can kill it outright — which the in-simulation
cycle budget and progress watchdog cannot do for a wedged interpreter.
With a ``directory`` every finished cell is committed to a
:class:`~repro.store.cas.ResultStore` keyed by a deterministic
fingerprint, so re-running into it after a crash runs only what is missing.

One retry policy (:data:`RETRY_POLICY`) decides every failed attempt,
wherever it ran, so a cell's record does not depend on ``jobs``:

* ``timeout``      — retried with a **doubled cycle budget** (the budget
  may simply have been tight for this cell);
* ``wall-timeout`` — retried with a **doubled wall-clock budget**;
* ``worker-died``  — retried in a fresh process (transient OOM/segfault);
* ``deadlock`` / ``violation`` / ``check-failed`` / ``error`` — never
  retried: these are deterministic, more attempts cannot help.

An in-process cell cannot be killed, so its ``wall_timeout`` bounds all
its attempts together: a retry's cycle budget is clamped to what the
remaining wall time affords, and a retry it cannot afford, or a clamped
one that times out again, is reported ``wall-timeout``.  Pool retries
back off exponentially with jitter.  Repeated worker deaths halve the
pool down to one worker, and then run the remaining cells in-process.
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
    RunFailed,
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
    ``(benchmark, arch)``, as :func:`matrix_cells` keys its cells).
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

    def checked(self) -> dict[tuple, RunRecord]:
        """``records``, once no cell failed: the first failed record (in
        cell order) raises :class:`~repro.records.RunFailed` instead, so a
        table is never built on missing numbers."""
        for record in self.records.values():
            if not record.ok:
                raise RunFailed(record)
        return self.records

    def counts(self) -> dict[str, int]:
        ok = sum(1 for r in self.records.values() if r.ok)
        retried = sum(1 for r in self.records.values() if r.retried)
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
            marker = "*" if record.retried else ""
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
        if counts["retried"]:
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

def _attempt(payload: dict, cfg: GPUConfig) -> RunRecord:
    """One attempt at a cell, in a worker or in this process alike."""
    if payload["runner"] == "fuzz":
        from repro.fuzz.campaign import run_fuzz_cell

        return run_fuzz_cell(payload)
    from repro.kernels.registry import get

    try:
        bench = get(payload["benchmark"])
    except KeyError as exc:
        return RunRecord(benchmark=payload["benchmark"], arch=cfg.arch,
                         stats=None, config=cfg, status="error", error=str(exc))
    return run_benchmark_safe(bench, cfg, payload["scale"], payload["check"],
                              max_cycles=payload["max_cycles"],
                              faults=payload["faults"])


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
        record = _attempt(payload, config_from_dict(payload["config"]))
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
    clamped: bool = False  # max_cycles cut to fit the in-process wall budget
    wall_budget: float | None = None  # current wall budget (doubles on kill)
    ready_at: float = 0.0  # monotonic time before which backoff holds it
    started: float = 0.0
    first_started: float | None = None
    proc: object | None = None
    conn: object | None = None

    def start_attempt(self) -> dict:
        """Start the next attempt; its payload."""
        self.attempt += 1
        self.started = time.monotonic()
        if self.first_started is None:
            self.first_started = self.started
        return _cell_payload(self.cell, self.attempt, self.max_cycles)

    def launch(self, ctx) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        proc = ctx.Process(target=_worker_main,
                           args=(child_conn, self.start_attempt()), daemon=True)
        proc.start()
        child_conn.close()  # parent keeps only the read end
        self.proc, self.conn = proc, parent_conn

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
        return None if self.wall_budget is None else self.started + self.wall_budget

    @property
    def elapsed(self) -> float:
        return time.monotonic() - (self.first_started or self.started)


def _failed_record(cell: SweepCell, status: str, message: str) -> RunRecord:
    return RunRecord(benchmark=cell.benchmark, arch=cell.cfg.arch, stats=None,
                     config=cell.cfg, status=status, error=message)


def run_sweep(cells, *, jobs: int | None = None,
              wall_timeout: float | None = None, retries: int = 1,
              directory=None, backoff_base: float = 0.5,
              backoff_cap: float = 30.0, seed: int = 0,
              progress=None) -> SweepResult:
    """Run every cell; never raises for a cell-level failure.

    ``jobs`` is the worker-pool width; ``0`` runs every cell in this
    process (no isolation, but also no spawn overhead; still persisted and
    resumable).  Left unset, cells run in-process unless ``directory`` is
    given, and then in one worker.  ``wall_timeout`` is the per-cell
    wall-clock budget in seconds (``None`` = unbounded: only the cycle
    budget and watchdog bound the cell).  ``retries`` caps *extra*
    attempts per cell under :data:`RETRY_POLICY`, wherever the cell runs.

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
    directory.  ``SweepResult.records`` is in ``cells`` order.

    Duplicate fingerprints in ``cells`` are an error: the store could not
    tell their results apart.
    """
    if jobs is None:
        jobs = 0 if directory is None else 1
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
        record.retried = record.retried or job.attempt > 1
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

    death_streak = 0  # consecutive worker deaths, reset by any result

    def settle(job: _Job, record: RunRecord, in_process: bool) -> bool:
        """The retry policy, for every attempt wherever it ran: raise the
        budget and return True to run ``job`` again, or finalize it."""
        nonlocal death_streak
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
        budget = job.max_cycles or job.cell.cfg.max_cycles
        if job.clamped and record.status == "timeout":
            record.status = "wall-timeout"
            record.error = (
                f"retry budget clamped to {budget} cycles by the "
                f"{wall_timeout:g}s wall budget and still timed out: "
                f"{record.error}")
        elif RETRY_POLICY.get(record.status, False) and job.attempt <= allowance:
            if record.status == "timeout":
                job.max_cycles = 2 * budget  # a tight budget, not a hang
                if in_process and wall_timeout is not None:
                    # Simulated time scales ~linearly with wall time: fit
                    # the retry into what the wall budget has left.
                    now = time.monotonic()
                    remaining = wall_timeout - (now - job.first_started)
                    rate = budget / max(now - job.started, 1e-9)
                    affordable = int(rate * remaining)
                    if affordable <= budget:
                        record.status = "wall-timeout"
                        record.error = (
                            f"timeout at {budget} cycles; retry skipped: "
                            f"{remaining:.1f}s of the {wall_timeout:g}s wall "
                            f"budget left cannot fit the last attempt again")
                        finalize(job, record)
                        return False
                    if affordable < job.max_cycles:
                        job.max_cycles, job.clamped = affordable, True
            elif record.status == "wall-timeout" and job.wall_budget:
                job.wall_budget *= 2
            note(f"{'/'.join(map(str, job.cell.key))}: {record.status} on "
                 f"attempt {job.attempt}, retrying")
            return True
        finalize(job, record)
        return False

    def run_here(job: _Job) -> None:
        """Run ``job`` in this process until :func:`settle` finalizes it."""
        while settle(job, _attempt(job.start_attempt(), job.cell.cfg),
                     in_process=True):
            pass  # retried at once: no other cell waits for this process

    if jobs <= 0:  # everything in-process; nothing is left for the pool
        for job in todo:
            run_here(job)
        todo = []

    # -- the process pool -------------------------------------------------
    ctx = multiprocessing.get_context("spawn")
    pool_size = max(1, jobs)
    pending = list(todo)  # jobs waiting for a slot (or for backoff)
    active: list[_Job] = []
    serial_fallback = False

    def settle_pooled(job: _Job, record: RunRecord) -> None:
        """:func:`settle`; a retry waits out an exponential backoff."""
        if settle(job, record, in_process=False):
            delay = min(backoff_cap, backoff_base * (2 ** (job.attempt - 1)))
            delay *= 1.0 + rng.random()  # jitter: avoid lockstep retries
            job.ready_at = time.monotonic() + delay
            pending.append(job)

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
                # Drain what is still running, then finish in-process.
                for job in active:
                    job.kill()
                    job.attempt -= 1  # the killed attempt is not charged
                    pending.append(job)
                active.clear()
                for job in pending:
                    run_here(job)
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
                        settle_pooled(job, _failed_record(
                            job.cell, "worker-died",
                            f"worker exited without a result "
                            f"(attempt {job.attempt})"))
                    else:
                        settle_pooled(job, record_from_dict(data))
                elif job.deadline is not None and now >= job.deadline:
                    budget = job.wall_budget
                    job.kill()
                    active.remove(job)
                    settle_pooled(job, _failed_record(
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

    result.records = {cell.key: result.records[cell.key] for cell in cells}
    if store is not None:
        result.store_stats = store.stats.to_dict()
    return result


def matrix_cells(benches, archs, base_cfg: GPUConfig, scale: float = 1.0,
                 check: bool = True, max_cycles: int | None = None) -> list[SweepCell]:
    """The (benchmark x arch) matrix as sweep cells, keyed ``(bench, arch)``.

    Each attempt runs the registry's benchmark of a cell's name, so a
    bench the registry does not hold is rejected here (unknown name:
    ``KeyError``; another object under a registered name: ``ValueError``).
    """
    from repro.kernels.registry import get

    benches = list(benches)
    for bench in benches:
        if get(bench.name) is not bench:
            raise ValueError(f"benchmark {bench.name!r} is not the registry's")
    return [
        SweepCell(benchmark=bench.name, cfg=base_cfg.with_(arch=arch),
                  scale=scale, check=check, max_cycles=max_cycles)
        for bench in benches for arch in archs
    ]
