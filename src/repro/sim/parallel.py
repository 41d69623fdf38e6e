"""Sharded parallel multi-SM engine with deterministic epoch synchronization.

The serial engine in :meth:`repro.sim.gpu.GPU.launch` interleaves the SMs
cycle by cycle on one core (its wake queue steps only the SMs due each
cycle).  This engine partitions the SM cores into *shards* that advance independently across an
*epoch* — a span of cycles short enough that no information can cross
between SMs inside it — and exchanges all cross-SM interaction exactly at
epoch boundaries.  Statistics stay byte-identical to the serial engine
(the same discipline as ``tests/test_fastforward_equivalence.py``).

Why an epoch is safe (the determinism argument, see docs/ARCHITECTURE.md):

* The only cross-SM channels are (a) the shared memory system (L2/DRAM via
  the interconnect), (b) the CTA dispatcher's shared work pool, and
  (c) functional global-memory data.
* (a) A read issued at cycle ``t`` cannot return before
  ``t + min_cross_rtt(cfg)`` (request link + L2 hit + response link), so
  inside an epoch of ``E <= min_cross_rtt`` cycles no completion value is
  ever *observed*.  Each SM therefore runs against a
  :class:`DeferredMemory` stand-in that logs requests and returns sentinel
  completions; at the boundary the coordinator replays the merged request
  log — ordered by ``(cycle, sm_id, seq)``, exactly the order the serial
  engine would have issued them in — against the real
  :class:`~repro.sim.memsys.MemoryModel` and patches the exact completion
  times back into L1 MSHRs, scoreboards, and status caches.
* The epoch is additionally capped at ``min_cross_rtt -
  vt_long_stall_threshold + 1`` so that any in-epoch MSHR merge onto a
  deferred fill is still provably *long-latency* — the scoreboard's
  ``is_long`` bit (which feeds warp-status classification and the VT swap
  trigger in every architecture mode) then matches the serial engine
  without knowing the exact value.
* (b) CTA dispatch is resolved with a halt protocol: while the work pool
  is non-empty, a shard halts an SM at the first cycle it could accept a
  CTA; the coordinator resolves the earliest halt chip-wide using the
  closed-form round-robin rotation (``start(c) = c % num_sms``, valid
  because the serial engine advances the rotation every pool-non-empty
  cycle) and resumes the shards.
* (c) Functional loads/stores apply immediately to the shard's global
  memory image and are logged per-SM; the boundary checks that no word
  written by one SM was read or written by another SM in the same epoch
  (and that no global atomic shares a word with any plain access).  If the
  check fails — the only case where intra-epoch ordering could matter —
  the engine abandons the launch, restores global memory, and reruns
  serially (:class:`SerialFallback`).  Atomics are order-sensitive by
  nature, so they are deferred and replayed in the global
  ``(cycle, sm_id, seq)`` order at the boundary, with the true old values
  patched into the destination registers (safe: the issuing warp is
  scoreboard-blocked on that register past the epoch's end).

Backends: ``sim_jobs == 1`` runs one shard containing every SM inline in
this process — no IPC; each SM fast-forwards over its own dead spans, the
same per-SM dormancy the serial engine's wake queue gives, so this backend
is no faster than serial (``scripts/bench_simspeed.py`` gates serial >=
parallel on the wide ``chase`` chip).  ``sim_jobs > 1`` forks
worker processes (copy-on-write shard state), each owning a slice of SMs,
with the same epoch protocol over pipes; a dead worker degrades to the
serial rerun path.
"""

from __future__ import annotations

from heapq import heapify

import numpy as np

from repro.sim.config import ArchMode
from repro.sim.cta import CTA
from repro.sim.gpu import (SHARDED, LaunchResult, ProgressDeadlock,
                           ProgressTracker, SimulationTimeout, _manager_factory)
from repro.sim.memsys import MemoryModel, min_cross_rtt
from repro.sim.sanitizer import diagnostic_dump
from repro.sim.smcore import SMCore
from repro.sim.stats import SimStats

#: Sentinel completion times handed out for deferred memory requests.
#: Far above any reachable cycle (``max_cycles`` tops out in the millions)
#: but below the managers' FOREVER (1 << 60), so sentinel-valued wake/ready
#: magnitudes behave as "beyond this epoch" everywhere they leak.
SENTINEL_BASE = 1 << 48

#: Minimum epoch length worth running; below this the barrier overhead
#: dwarfs the work and the serial engine is strictly better.
MIN_EPOCH = 8

#: Test hook (fork backend): ``{worker_index: epoch_index}`` — the worker
#: hard-exits at the start of that epoch, exercising the dead-worker
#: degradation path.  Set before launch; inherited by fork.
_TEST_KILL: dict[int, int] = {}

#: When True (set by the equivalence tests), unexpected exceptions inside
#: the parallel engine propagate instead of degrading to the serial rerun,
#: so an engine bug cannot hide behind a silently-correct fallback.  The
#: default is lenient: a shard that errors mid-epoch may have observed a
#: conflicting peer write that the serial rerun resolves (or reproduces
#: deterministically, if the error is the kernel's own).
_STRICT = False


class SerialFallback(Exception):
    """The parallel engine cannot (or should not) finish this launch.

    Raised internally on a cross-SM memory conflict, a degenerate epoch
    length, or a dead worker; :func:`try_parallel_launch` converts it into
    a clean ``None`` after restoring global memory so the caller reruns
    the launch on the serial engine.
    """


def epoch_length(cfg) -> int:
    """Epoch length for ``cfg``: the minimum cross-SM interaction horizon,
    tightened so every in-epoch observation of a deferred completion is
    provably identical to serial.  The guard term keeps (a) the
    scoreboard's ``is_long`` classification exact on in-epoch MSHR merges
    (``>= vt_long_stall_threshold``) and (b) the L1 merge rule
    ``max(pending, now + l1_hit_latency)`` sentinel-preserving — the true
    fill time of any request still outstanding is at least
    ``rtt - (E - 1) >= l1_hit_latency`` cycles away, so serial's merge
    keeps the original completion too."""
    rtt = min_cross_rtt(cfg)
    guard = max(cfg.vt_long_stall_threshold, cfg.l1_hit_latency)
    return min(rtt, rtt - guard + 1)


class DeferredMemory:
    """Per-SM stand-in for the chip :class:`MemoryModel` during an epoch.

    Every call the L1 would make down the hierarchy is logged with the
    SM-local sequence number and the issuing cycle; reads return a
    sentinel (``SENTINEL_BASE + request_index``) that the boundary patch
    resolves to the exact completion.  Also records every global-load
    group (via :meth:`SMCore._issue_global`'s tap) with the pre-epoch
    ``mem_pending_until`` snapshot needed to rebuild scoreboard state
    exactly.
    """

    __slots__ = ("shard", "requests", "groups", "mpu_snap")

    def __init__(self, shard):
        self.shard = shard
        self.requests: list[tuple[int, int, str, int, int]] = []
        self.groups: list[tuple[object, int | None, int, list[int]]] = []
        self.mpu_snap: dict[object, int] = {}

    def reset(self) -> None:
        self.requests = []
        self.groups = []
        self.mpu_snap = {}

    # -- MemoryModel interface (called by L1Cache) ---------------------------

    def read(self, line_addr: int, now: int) -> int:
        idx = len(self.requests)
        self.requests.append((self.shard.cycle, idx, "r", line_addr, now))
        return SENTINEL_BASE + idx

    def write(self, line_addr: int, now: int) -> int:
        self.requests.append(
            (self.shard.cycle, len(self.requests), "w", line_addr, now))
        return 0  # store completions are discarded by the SM

    # -- SMCore tap ----------------------------------------------------------

    def note_load(self, warp, dst: int | None, now: int,
                  completions: list[int]) -> None:
        # Called before set_pending, so the snapshot predates every group
        # this warp issues in the epoch.
        if warp not in self.mpu_snap:
            self.mpu_snap[warp] = warp.scoreboard._mem_pending_until
        self.groups.append((warp, dst, now, completions))

    def summarize_groups(self) -> list[tuple[int, int, list[int]]]:
        """(cycle, max exact completion, deferred request idxs) per group —
        what the coordinator needs to compute exact ready times and
        memory-horizon events without holding warp references."""
        out = []
        for _warp, _dst, cycle, completions in self.groups:
            mx = 0
            idxs = []
            for c in completions:
                if c >= SENTINEL_BASE:
                    idxs.append(c - SENTINEL_BASE)
                elif c > mx:
                    mx = c
            out.append((cycle, mx, idxs))
        return out


class ShardGmem:
    """Per-SM global-memory proxy: applies plain accesses immediately to
    the shard's memory image while logging word footprints (for the
    cross-SM conflict check) and write/atomic streams (for boundary
    merging).  Global atomics are deferred: they return placeholder zeros
    and are replayed in exact global order at the boundary."""

    __slots__ = ("shard", "base", "sm_id", "read_words", "write_words",
                 "atom_words", "write_log", "atomics", "targets")

    def __init__(self, shard, base, sm_id: int):
        self.shard = shard
        self.base = base
        self.sm_id = sm_id
        self.reset()

    def reset(self) -> None:
        self.read_words: set[int] = set()
        self.write_words: set[int] = set()
        self.atom_words: set[int] = set()
        self.write_log: list[tuple[np.ndarray, np.ndarray]] = []
        self.atomics: list[tuple[int, int, str, np.ndarray, np.ndarray]] = []
        self.targets: list[tuple[object, int, np.ndarray]] = []

    # -- device API (called by the functional executor) ----------------------

    def load(self, byte_addrs: np.ndarray) -> np.ndarray:
        values = self.base.load(byte_addrs)  # validates; raises like serial
        if byte_addrs.size:
            self.read_words.update((byte_addrs >> 2).tolist())
        return values

    def store(self, byte_addrs: np.ndarray, values) -> None:
        self.base.store(byte_addrs, values)  # validates; raises like serial
        idx = byte_addrs >> 2
        self.write_words.update(idx.tolist())
        self.write_log.append(
            (idx.copy(), np.array(values, dtype=np.float64, copy=True)))

    def atomic_add(self, byte_addrs: np.ndarray, values) -> np.ndarray:
        return self._atomic("add", byte_addrs, values)

    def atomic_max(self, byte_addrs: np.ndarray, values) -> np.ndarray:
        return self._atomic("max", byte_addrs, values)

    def _atomic(self, op: str, byte_addrs: np.ndarray, values) -> np.ndarray:
        idx = self.base._indices(byte_addrs)  # validate at issue, like serial
        self.atom_words.update(idx.tolist())
        self.atomics.append((self.shard.cycle, len(self.atomics), op,
                             byte_addrs.copy(),
                             np.array(values, dtype=np.float64, copy=True)))
        return np.zeros(idx.size)  # placeholder olds, patched at the boundary

    def note_atomic_target(self, warp, dst, lanes: np.ndarray) -> None:
        """Executor tap: remember where the just-issued atomic's old values
        must land once the boundary replay computes them."""
        self.targets.append((warp, dst.idx, lanes))


class _Core:
    """One SM plus its per-epoch deferral state inside a shard."""

    __slots__ = ("sm", "defer", "gproxy", "cursor", "max_fill", "horizon")

    def __init__(self, sm: SMCore, defer: DeferredMemory, gproxy: ShardGmem):
        self.sm = sm
        self.defer = defer
        self.gproxy = gproxy
        self.cursor = 0  # next cycle this SM will run
        self.max_fill = 0  # exact cumulative L1 max_fill_completion
        self.horizon = 0  # exact cumulative mem_horizon


def _drop_sentinels(heap: list) -> None:
    """Remove the entries keyed at a sentinel cycle from a ``(cycle, ...)``
    heap, in place, once the epoch patch has queued their exact times."""
    heap[:] = [entry for entry in heap if entry[0] < SENTINEL_BASE]
    heapify(heap)


class _Shard:
    """A slice of the SM array advancing through epochs.

    Holds the full per-SM timing state (cores, L1s, managers) plus the
    per-epoch deferral logs.  The same object backs both the inline
    backend (driven directly) and a fork worker (driven over a pipe).
    """

    def __init__(self, cfg, kernel, grid, params, sm_ids, gmem):
        self.cfg = cfg
        self.kernel = kernel
        self.grid = grid
        self.params = params
        self.gmem = gmem
        self.vt_mode = cfg.arch == ArchMode.VT
        self.thr = cfg.vt_long_stall_threshold
        self.cycle = 0  # tag for deferred requests; set before each step
        factory = _manager_factory(cfg.arch)
        self.cores: list[_Core] = []
        self.by_id: dict[int, _Core] = {}
        for sm_id in sm_ids:
            defer = DeferredMemory(self)
            sm = SMCore(sm_id, cfg, defer, factory)
            sm.allow_fast = cfg.fast_forward
            sm._defer = defer
            gproxy = ShardGmem(self, gmem, sm_id)
            sm.gmem = gproxy
            core = _Core(sm, defer, gproxy)
            self.cores.append(core)
            self.by_id[sm_id] = core

    # -- epoch lifecycle -----------------------------------------------------

    def begin_epoch(self, e0: int, e1: int) -> None:
        self.e0 = e0
        self.e1 = e1
        n = e1 - e0
        self.issued = np.zeros(n, dtype=bool)
        self.swap = np.zeros(n, dtype=bool)
        self.idle_events: list[tuple[int, int]] = []
        for core in self.cores:
            defer = core.defer
            if defer.requests or defer.groups:
                defer.reset()
            gp = core.gproxy
            if gp.read_words or gp.write_words or gp.atom_words or gp.atomics:
                gp.reset()

    def assign(self, sm_id: int, cta_id: int, cycle: int) -> None:
        """Seat a dispatched CTA — constructed here (deterministically)
        so fork workers never need CTA objects over the wire."""
        cta = CTA(
            cta_id=cta_id,
            kernel=self.kernel,
            grid_dim=self.grid,
            params=self.params,
            cfg=self.cfg,
            start_cycle=cycle + self.cfg.cta_launch_latency,
        )
        self.by_id[sm_id].sm.assign_cta(cta, cycle)

    def advance(self, pool_active: bool,
                skips: dict[int, int]) -> list[tuple[int, int]]:
        """Run every core toward the epoch end; returns ``(cycle, sm_id)``
        halts where dispatch must be resolved before the SM may proceed.

        Once the CTA pool is empty (``pool_active`` is monotonic: it never
        turns back on), a core whose cached next event lies at or beyond
        the epoch end is *dormant*: nothing about it can change this epoch,
        so it is skipped outright, its cursor left behind.  The lag is
        credited lazily — the first epoch that contains its wake fast-
        forwards the whole multi-epoch dead span in one call (the span is
        provably event-free, so the bulk accounting is exact).  This keeps
        the per-epoch cost proportional to the *active* cores, as the
        serial engine's wake queue keeps its per-cycle cost.
        """
        halts = []
        e1 = self.e1
        for core in self.cores:
            if core.cursor >= e1:
                continue
            sm = core.sm
            if not pool_active:
                if sm.idle:
                    core.cursor = e1
                    continue
                if sm.next_wake >= e1 and not (
                        self.vt_mode and sm.manager.swap_in_flight()):
                    continue  # dormant: wake is exact and beyond this epoch
            halt = self._run_core(core, pool_active,
                                  skips.get(sm.sm_id, -1))
            if halt is not None:
                halts.append((halt, sm.sm_id))
        return halts

    def _run_core(self, core: _Core, pool_active: bool,
                  skip: int) -> int | None:
        sm = core.sm
        kernel = self.kernel
        e0, e1 = self.e0, self.e1
        issued_arr = self.issued
        swap_arr = self.swap
        vt = self.vt_mode
        manager = sm.manager
        t = core.cursor
        while t < e1:
            # Dispatch halt: the serial engine offers this SM a CTA at the
            # first cycle it can accept one (checked before the SM steps),
            # so the shard must stop here and let the coordinator decide.
            # can_accept is pure and only changes on assign/finish, so
            # cycles already run past were decided identically.
            if pool_active and t != skip and manager.can_accept(kernel):
                core.cursor = t
                return t
            if sm.idle:
                if pool_active:
                    # Not stepped (serial skips idle SMs) but it may accept
                    # next cycle; re-check the halt condition per cycle.
                    t += 1
                    continue
                core.cursor = e1
                return None
            wake = sm.next_wake
            if wake > t:
                # Provably-dead span: bulk-credit it.  Identical to the
                # serial engine's lag credit because all sampled state is
                # frozen until the next event (the wake-queue argument in
                # GPU.launch).  A dormant core flushing its lag starts below
                # e0; its span is swap-free (dormancy excludes in-flight
                # swaps and the span is event-free), so the slice clamp is
                # safe.
                stop = wake if wake < e1 else e1
                sm.fast_forward(t, stop)
                if vt and manager.swap_in_flight():
                    swap_arr[max(t - e0, 0):stop - e0] = True
                t = stop
                continue
            self.cycle = t
            if sm.step(t):
                issued_arr[t - e0] = True
            if vt and manager.swap_in_flight():
                swap_arr[t - e0] = True
            if sm.idle:
                # Went idle during this step (last CTA finished): the
                # serial engine stops stepping it right after this cycle.
                self.idle_events.append((t, sm.sm_id))
            t += 1
        core.cursor = e1
        return None

    # -- epoch boundary ------------------------------------------------------

    def collect(self) -> dict:
        """Everything the coordinator needs from this epoch, picklable.
        Cores without activity contribute no entries at all, so the
        boundary cost tracks the active cores, not the SM count."""
        requests: dict[int, list] = {}
        groups: dict[int, list] = {}
        reads_w: dict[int, set] = {}
        writes_w: dict[int, set] = {}
        atoms_w: dict[int, set] = {}
        write_log: dict[int, list] = {}
        atomics: dict[int, list] = {}
        for c in self.cores:
            sm_id = c.sm.sm_id
            defer = c.defer
            gp = c.gproxy
            if defer.requests:
                requests[sm_id] = defer.requests
            if defer.groups:
                groups[sm_id] = defer.summarize_groups()
            if gp.read_words:
                reads_w[sm_id] = gp.read_words
            if gp.write_words:
                writes_w[sm_id] = gp.write_words
            if gp.atom_words:
                atoms_w[sm_id] = gp.atom_words
            if gp.write_log:
                write_log[sm_id] = gp.write_log
            if gp.atomics:
                atomics[sm_id] = list(gp.atomics)
        return {
            "requests": requests,
            "groups": groups,
            "reads_w": reads_w,
            "writes_w": writes_w,
            "atoms_w": atoms_w,
            "write_log": write_log,
            "atomics": atomics,
            "issued": self.issued,
            "swap": self.swap,
            "idle": self.idle_events,
        }

    def apply_boundary(self, actuals_by_sm: dict[int, list[int]],
                       peer_writes: list[tuple[np.ndarray, np.ndarray]],
                       atomics_global: list) -> None:
        """Commit the epoch: merge peer writes into this shard's memory
        image, replay every global atomic in exact global order (patching
        old values into the issuing warps' registers), then patch exact
        completion times into each SM's timing state."""
        data = self.gmem.data
        for idx, vals in peer_writes:
            data[idx] = vals
        for _cycle, sm_id, seq, op, addrs, vals in atomics_global:
            fn = self.gmem.atomic_add if op == "add" else self.gmem.atomic_max
            old = fn(addrs, vals)
            core = self.by_id.get(sm_id)
            if core is not None:
                warp, dst_idx, lanes = core.gproxy.targets[seq]
                warp.regs[dst_idx][lanes] = old
        for core in self.cores:
            self._patch_core(core, actuals_by_sm.get(core.sm.sm_id, []))

    def _patch_core(self, core: _Core, actuals: list[int]) -> None:
        sm = core.sm
        defer = core.defer
        if not defer.requests and not defer.groups:
            return  # no epoch activity: every cached value is still exact
        e1 = self.e1
        thr = self.thr
        mpl = self.cfg.max_pending_latency

        # L1 MSHR file: a pending entry still holding its sentinel is this
        # epoch's read miss — swap in the exact fill time.  (Merges never
        # overwrite the entry; atomics never create one.)  ``set_fill``
        # also queues the exact time in the file's completion heap; the
        # sentinel's own heap entry would never come due, so it is dropped.
        l1 = sm.l1
        pending = l1.pending
        patched = False
        for ridx, (_cycle, _seq, kind, line, _t) in enumerate(defer.requests):
            if kind != "r":
                continue
            if pending.get(line) == SENTINEL_BASE + ridx:
                actual = actuals[ridx]
                l1.set_fill(line, actual)
                patched = True
                if actual > core.max_fill:
                    core.max_fill = actual
        if patched:
            _drop_sentinels(l1._fills)
        l1.max_fill_completion = core.max_fill

        # Scoreboard groups: compute each group's exact ready time; groups
        # containing a deferred completion ("tainted") are the only ones
        # whose scoreboard effects were inexact in-epoch.
        per_warp: dict[object, list[tuple[int | None, int, int, bool]]] = {}
        any_taint = False
        for warp, dst, cycle, completions in defer.groups:
            ready = 0
            tainted = False
            for c in completions:
                if c >= SENTINEL_BASE:
                    tainted = True
                    c = actuals[c - SENTINEL_BASE]
                if c > ready:
                    ready = c
            horizon = ready if ready < cycle + mpl else cycle + mpl
            if horizon > core.horizon:
                core.horizon = horizon
            per_warp.setdefault(warp, []).append((dst, cycle, ready, tainted))
            if tainted:
                any_taint = True
        sm.mem_horizon = core.horizon
        if not any_taint:
            return
        for warp, groups in per_warp.items():
            if not any(t for (_d, _c, _r, t) in groups):
                continue  # every effect was exact already
            sb = warp.scoreboard
            for dst, _cycle, ready, tainted in groups:
                if tainted and dst is not None:
                    entry = sb._pending.get(dst)
                    if entry is not None and entry[0] >= SENTINEL_BASE:
                        # Still this group's entry (the warp is blocked on
                        # dst past the epoch, so nothing overwrote it).
                        # is_long is guaranteed by the epoch-length cap.
                        sb._pending[dst] = (ready, True)
            # mem_pending_until is a running max over long-latency groups;
            # rebuild it from the pre-epoch snapshot (max is order-free).
            mpu = defer.mpu_snap[warp]
            for dst, cycle, ready, _tainted in groups:
                if dst is not None and ready - cycle >= thr and ready > mpu:
                    mpu = ready
            sb._mem_pending_until = mpu
            # An INACTIVE CTA memoises its activation cycle from these
            # values (VirtualThreadManager.ready_at): recompute it.
            warp.cta.activation_at = None
            # Drop the cached status: it embedded a sentinel horizon.  The
            # recompute against exact values is what serial would cache.
            # A wake-heap entry at that sentinel would never come due, so
            # re-arm the warp instead (the next scheduler walk re-parks it
            # at the exact release cycle) and drop the entry below.
            warp.status_until = -1
            sm.arm(warp)
        _drop_sentinels(sm._wake)
        if sm.allow_fast and sm.next_wake >= e1:
            # The cached next event crossed the boundary, so the scan that
            # produced it may have had sentinel wake times masking the true
            # (earlier) event.  Re-run it as of the original scan cycle:
            # the SM's state has been frozen since (all later cycles were
            # bulk-credited), so this reproduces serial's scan.
            sm.reprime_after_patch()

    # -- termination ---------------------------------------------------------

    def finalize_stats(self) -> list:
        for core in self.cores:
            core.sm.stats.l1_accesses = core.sm.l1.tags.accesses
            core.sm.stats.l1_hits = core.sm.l1.tags.hits
        return [(c.sm.sm_id, c.sm.stats) for c in self.cores]

    def dump(self, cycle: int, reason: str) -> str:
        return diagnostic_dump([c.sm for c in self.cores], cycle, reason)


# ---------------------------------------------------------------------------
# shard drivers: inline (same process) and fork (worker over a pipe)
# ---------------------------------------------------------------------------


class _InlineDriver:
    """Drives one shard by direct call — the ``sim_jobs == 1`` backend."""

    def __init__(self, shard: _Shard):
        self.shard = shard
        self.sm_ids = [c.sm.sm_id for c in shard.cores]

    def begin(self, e0, e1):
        self.shard.begin_epoch(e0, e1)

    def advance_send(self, pool_active, skips, assigns):
        for sm_id, cta_id, cycle in assigns:
            self.shard.assign(sm_id, cta_id, cycle)
        self._halts = self.shard.advance(pool_active, skips)

    def advance_recv(self):
        return self._halts

    def collect_send(self):
        self._payload = self.shard.collect()

    def collect_recv(self):
        return self._payload

    def boundary_send(self, actuals, peer_writes, atomics):
        self.shard.apply_boundary(actuals, peer_writes, atomics)

    def boundary_recv(self):
        return None

    def finalize(self):
        return self.shard.finalize_stats()

    def dump(self, cycle, reason):
        return self.shard.dump(cycle, reason)

    def close(self):
        pass


def _worker_main(conn, shard: _Shard, index: int) -> None:
    """Fork-worker loop: executes shard commands arriving on ``conn``."""
    import os

    epoch = 0
    try:
        while True:
            msg = conn.recv()
            cmd = msg[0]
            try:
                if cmd == "begin":
                    if _TEST_KILL.get(index) == epoch:
                        os._exit(1)  # test hook: dead-worker degradation
                    epoch += 1
                    shard.begin_epoch(msg[1], msg[2])
                elif cmd == "advance":
                    for sm_id, cta_id, cycle in msg[3]:
                        shard.assign(sm_id, cta_id, cycle)
                    conn.send(shard.advance(msg[1], msg[2]))
                elif cmd == "collect":
                    conn.send(shard.collect())
                elif cmd == "boundary":
                    shard.apply_boundary(msg[1], msg[2], msg[3])
                    conn.send("ok")
                elif cmd == "finish":
                    conn.send(shard.finalize_stats())
                elif cmd == "dump":
                    conn.send(shard.dump(msg[1], msg[2]))
                elif cmd == "exit":
                    return
            except Exception as exc:  # simulated-program errors: re-raise in parent
                conn.send(("err", exc))
    except (EOFError, KeyboardInterrupt, BrokenPipeError, OSError):
        pass


class _ForkDriver:
    """Drives one shard living in a forked worker process."""

    def __init__(self, ctx, shard: _Shard, index: int):
        self.sm_ids = [c.sm.sm_id for c in shard.cores]
        self.conn, child = ctx.Pipe()
        self.proc = ctx.Process(
            target=_worker_main, args=(child, shard, index), daemon=True)
        self.proc.start()
        child.close()

    def _send(self, msg):
        try:
            self.conn.send(msg)
        except (BrokenPipeError, OSError) as exc:
            raise SerialFallback(f"worker for SMs {self.sm_ids} died: {exc}")

    def _recv(self):
        try:
            reply = self.conn.recv()
        except (EOFError, OSError) as exc:
            raise SerialFallback(f"worker for SMs {self.sm_ids} died: {exc}")
        if isinstance(reply, tuple) and reply and reply[0] == "err":
            raise reply[1]
        return reply

    def begin(self, e0, e1):
        self._send(("begin", e0, e1))

    def advance_send(self, pool_active, skips, assigns):
        self._send(("advance", pool_active, skips, assigns))

    def advance_recv(self):
        return self._recv()

    def collect_send(self):
        self._send(("collect",))

    def collect_recv(self):
        return self._recv()

    def boundary_send(self, actuals, peer_writes, atomics):
        self._send(("boundary", actuals, peer_writes, atomics))

    def boundary_recv(self):
        return self._recv()

    def finalize(self):
        self._send(("finish",))
        return self._recv()

    def dump(self, cycle, reason):
        self._send(("dump", cycle, reason))
        return self._recv()

    def close(self):
        try:
            self.conn.send(("exit",))
        except Exception:
            pass
        self.proc.join(timeout=2)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2)
        self.conn.close()


def _partition(num_sms: int, num_shards: int) -> list[list[int]]:
    base, extra = divmod(num_sms, num_shards)
    out, start = [], 0
    for i in range(num_shards):
        n = base + (1 if i < extra else 0)
        if n:
            out.append(list(range(start, start + n)))
        start += n
    return out


# ---------------------------------------------------------------------------
# coordinator
# ---------------------------------------------------------------------------


class _Coordinator:
    """Owns the chip-shared state (memory system, progress tracker, CTA
    pool, master global memory) and drives the shards epoch by epoch."""

    def __init__(self, cfg, kernel, grid, params, gmem, limit, total_ctas,
                 epoch: int):
        self.cfg = cfg
        self.kernel = kernel
        self.grid = grid
        self.gmem = gmem
        self.limit = limit
        self.total_ctas = total_ctas
        self.epoch = epoch
        self.memsys = MemoryModel(cfg)
        self.tracker = ProgressTracker(cfg.progress_window)
        num_shards = min(cfg.sim_jobs, cfg.num_sms)
        # Multiple shards run on private memory images (merged at epoch
        # boundaries) whether they live in forked workers or in-process.
        self.private = num_shards > 1
        self.drivers: list = []
        if num_shards > 1:
            import multiprocessing

            ctx = None
            if not multiprocessing.current_process().daemon:
                try:
                    ctx = multiprocessing.get_context("fork")
                except ValueError:  # platform without fork
                    ctx = None
            for i, sm_ids in enumerate(_partition(cfg.num_sms, num_shards)):
                if ctx is not None:
                    shard = _Shard(cfg, kernel, grid, params, sm_ids, gmem)
                    self.drivers.append(_ForkDriver(ctx, shard, i))
                else:
                    # No fork backend, or we are a daemonic worker that may
                    # not spawn children: drive the same shard partition
                    # in-process, each shard on a private memory clone (the
                    # copy a fork would have given it).
                    shard = _Shard(cfg, kernel, grid, params, sm_ids,
                                   gmem.clone())
                    self.drivers.append(_InlineDriver(shard))
        else:
            shard = _Shard(cfg, kernel, grid, params,
                           list(range(cfg.num_sms)), gmem)
            self.drivers.append(_InlineDriver(shard))
        self.owner = {sm_id: d for d in self.drivers for sm_id in d.sm_ids}

    def close(self) -> None:
        for d in self.drivers:
            try:
                d.close()
            except Exception:
                pass

    # -- main loop -----------------------------------------------------------

    def run(self) -> LaunchResult:
        cfg = self.cfg
        kernel = self.kernel
        num_sms = cfg.num_sms
        total = self.total_ctas
        limit = self.limit
        tracker = self.tracker
        drivers = self.drivers
        fill_first = cfg.cta_dispatch == "fill-first"
        mpl = cfg.max_pending_latency
        launch_lat = cfg.cta_launch_latency

        next_cta = 0  # CTAs handed out by dispatch resolution
        dispatched_replay = 0  # CTAs accounted for by the cycle replay
        idle_flags = [True] * num_sms
        idle_count = num_sms
        chip_h = 0  # chip-wide memory horizon (running max, like the tracker)
        e0 = 0
        while True:
            e1 = min(e0 + self.epoch, limit)
            try:
                for d in drivers:
                    d.begin(e0, e1)

                # -- advance, resolving dispatch halts chip-wide -------------
                pool_active = next_cta < total
                skips: dict[int, int] = {}
                assigns = {id(d): [] for d in drivers}
                epoch_assigns: list[tuple[int, int]] = []
                dispatch_cycles: set[int] = set()
                while True:
                    for d in drivers:
                        d.advance_send(pool_active, skips, assigns[id(d)])
                        assigns[id(d)] = []
                    halts: list[tuple[int, int]] = []
                    for d in drivers:
                        halts.extend(d.advance_recv())
                    if not halts:
                        break
                    # Resolve the earliest halt cycle exactly like the serial
                    # dispatcher: round-robin starts at (cycle % num_sms)
                    # (the rotation advances every pool-non-empty cycle, so
                    # this closed form holds), fill-first always takes the
                    # lowest-numbered acceptor, one CTA per SM per cycle.
                    c_star = min(c for c, _sm in halts)
                    ready = sorted(sm for c, sm in halts if c == c_star)
                    if pool_active:
                        ready_set = set(ready)
                        order = ([ready[0]] if fill_first else
                                 [(c_star + i) % num_sms
                                  for i in range(num_sms)])
                        for sm_id in order:
                            if next_cta >= total:
                                break
                            if sm_id in ready_set:
                                assigns[id(self.owner[sm_id])].append(
                                    (sm_id, next_cta, c_star))
                                epoch_assigns.append((c_star, sm_id))
                                dispatch_cycles.add(c_star)
                                next_cta += 1
                        pool_active = next_cta < total
                    skips = {sm_id: c_star for sm_id in ready}

                # -- collect and merge the epoch's cross-SM traffic ----------
                for d in drivers:
                    d.collect_send()
                payloads = [d.collect_recv() for d in drivers]

                events = self._replay_memsys(payloads)
                for c in dispatch_cycles:
                    events.append((c, c + launch_lat))
                events.sort()
                self._check_conflicts(payloads)
                atomics_global = self._merge_atomics(payloads)
                self._apply_boundary(payloads, atomics_global)
            except (SerialFallback, SimulationTimeout):
                raise
            except Exception as exc:
                if _STRICT:
                    raise
                # A shard observing a peer's same-epoch write can error in
                # ways serial never would; the serial rerun resolves it (and
                # reproduces any genuine kernel error deterministically).
                raise SerialFallback(f"parallel epoch failed: {exc!r}")

            # -- replay the chip-level per-cycle bookkeeping -----------------
            # Span-compressed but byte-identical to the serial loop: only
            # "interesting" cycles — an issue, a swap-state transition, a
            # memory-horizon event, a dispatch, or an SM going idle — can
            # change the tracker inputs or the termination condition, so
            # the stretches between them collapse to one ``observe_span``
            # (the same closed form the serial fast-forward uses), capped
            # at ``stall_deadline`` so a deadlock still fires at the
            # reference-exact cycle.
            issued = payloads[0]["issued"]
            swap = payloads[0]["swap"]
            for p in payloads[1:]:
                issued = issued | p["issued"]
                swap = swap | p["swap"]
            asg = sorted(epoch_assigns)
            idles = sorted(ev for p in payloads for ev in p["idle"])
            offs = set(np.flatnonzero(issued).tolist())
            offs.update((np.flatnonzero(swap[1:] != swap[:-1]) + 1).tolist())
            offs.update(c - e0 for c, _h in events)
            offs.update(c - e0 for c, _sm in asg)
            offs.update(c - e0 for c, _sm in idles)
            offs.discard(0)
            ticks = sorted(offs)
            ei = ai = ii = ti = 0
            t = e0
            while True:
                while ei < len(events) and events[ei][0] <= t:
                    if events[ei][1] > chip_h:
                        chip_h = events[ei][1]
                    ei += 1
                while ai < len(asg) and asg[ai][0] == t:
                    sm_id = asg[ai][1]
                    dispatched_replay += 1
                    if idle_flags[sm_id]:
                        idle_flags[sm_id] = False
                        idle_count -= 1
                    ai += 1
                while ii < len(idles) and idles[ii][0] == t:
                    idle_flags[idles[ii][1]] = True
                    idle_count += 1
                    ii += 1
                tracker.observe(t, bool(issued[t - e0]), bool(swap[t - e0]),
                                t in dispatch_cycles, chip_h)
                if dispatched_replay >= total and idle_count == num_sms:
                    return self._finish(t)
                while ti < len(ticks) and ticks[ti] + e0 <= t:
                    ti += 1
                u = ticks[ti] + e0 if ti < len(ticks) else e1
                t_next = t + 1
                if u > t_next:
                    # Dead span (t, u): nothing issues or dispatches, the
                    # swap state is constant, and the chip horizon cannot
                    # move — serial's per-cycle observes reduce to the
                    # span form.  Deadlock cannot fire strictly inside it
                    # because the span is capped at the stall deadline
                    # (swap-busy cycles are themselves progress).
                    swap_busy = bool(swap[t_next - e0])
                    target = u
                    if not swap_busy:
                        deadline = tracker.stall_deadline()
                        if deadline < target:
                            target = deadline
                    if target > t_next:
                        tracker.observe_span(t_next, target, swap_busy)
                        t_next = target
                if tracker.deadlocked(t_next):
                    reason = (
                        f"kernel {kernel.name!r} made no forward progress for "
                        f"{tracker.stalled_cycles(t_next)} cycles "
                        f"({dispatched_replay}/{total} CTAs dispatched)"
                    )
                    raise ProgressDeadlock(reason,
                                           dump=self._dump(t_next, reason))
                if t_next >= limit:
                    reason = (
                        f"kernel {kernel.name!r} exceeded {limit} cycles "
                        f"({dispatched_replay}/{total} CTAs dispatched)"
                    )
                    raise SimulationTimeout(reason,
                                            dump=self._dump(t_next, reason))
                if t_next >= e1:
                    break
                t = t_next
            e0 = e1

    # -- epoch boundary helpers ----------------------------------------------

    def _replay_memsys(self, payloads) -> list[tuple[int, int]]:
        """Replay the merged request log on the real memory system in the
        exact serial issue order — (cycle, sm_id, seq) — filling in the
        actual completion times, and return the memory-horizon events."""
        merged = []
        actuals: dict[int, list[int]] = {}
        for p in payloads:
            for sm_id, reqs in p["requests"].items():
                actuals[sm_id] = [0] * len(reqs)
                for cycle, seq, kind, line, t_arg in reqs:
                    merged.append((cycle, sm_id, seq, kind, line, t_arg))
        merged.sort()
        memsys = self.memsys
        for _cycle, sm_id, seq, kind, line, t_arg in merged:
            if kind == "r":
                actuals[sm_id][seq] = memsys.read(line, t_arg)
            else:
                memsys.write(line, t_arg)
        self._actuals = actuals
        events = []
        mpl = self.cfg.max_pending_latency
        for p in payloads:
            for sm_id, groups in p["groups"].items():
                acts = actuals.get(sm_id, ())
                for cycle, mx, idxs in groups:
                    ready = mx
                    for i in idxs:
                        if acts[i] > ready:
                            ready = acts[i]
                    cap = cycle + mpl
                    events.append((cycle, ready if ready < cap else cap))
        return events

    def _check_conflicts(self, payloads) -> None:
        """Cross-SM conflict detection on word footprints: any word written
        by one SM and touched by another this epoch — or any global-atomic
        word sharing with any plain access at all — means intra-epoch
        ordering could matter, which the shards did not preserve."""
        write_owner: dict[int, int] = {}
        for p in payloads:
            for sm_id, words in p["writes_w"].items():
                for w in words:
                    if write_owner.setdefault(w, sm_id) != sm_id:
                        raise SerialFallback("cross-SM write/write conflict")
        plain = set(write_owner)
        atom_words: set[int] = set()
        for p in payloads:
            for sm_id, words in p["reads_w"].items():
                for w in words:
                    owner = write_owner.get(w)
                    if owner is not None and owner != sm_id:
                        raise SerialFallback("cross-SM read/write conflict")
                plain.update(words)
            for words in p["atoms_w"].values():
                atom_words.update(words)
        if atom_words and atom_words & plain:
            raise SerialFallback("global atomic/plain-access conflict")

    @staticmethod
    def _merge_atomics(payloads) -> list:
        atomics = []
        for p in payloads:
            for sm_id, entries in p["atomics"].items():
                for cycle, seq, op, addrs, vals in entries:
                    atomics.append((cycle, sm_id, seq, op, addrs, vals))
        atomics.sort(key=lambda a: (a[0], a[1], a[2]))
        return atomics

    def _apply_boundary(self, payloads, atomics_global) -> None:
        if self.private:
            # Commit the epoch to the master image: peer-disjoint plain
            # writes (any cross-SM order; in-order per SM) then every
            # global atomic in serial order (their words are disjoint from
            # all plain accesses, so the phases commute).
            master = self.gmem
            for p in payloads:
                for log in p["write_log"].values():
                    for idx, vals in log:
                        master.data[idx] = vals
            for _cycle, _sm, _seq, op, addrs, vals in atomics_global:
                fn = master.atomic_add if op == "add" else master.atomic_max
                fn(addrs, vals)
        for d, p in zip(self.drivers, payloads):
            own = set(d.sm_ids)
            acts = {sm_id: self._actuals.get(sm_id, [])
                    for sm_id in own}
            if self.private:
                peers = [entry
                         for q in payloads
                         for sm_id, log in q["write_log"].items()
                         if sm_id not in own
                         for entry in log]
            else:
                peers = []  # single shard: its image is the master already
            d.boundary_send(acts, peers, atomics_global)
        for d in self.drivers:
            d.boundary_recv()

    # -- outcomes ------------------------------------------------------------

    def _finish(self, cycles: int) -> LaunchResult:
        pairs = []
        for d in self.drivers:
            pairs.extend(d.finalize())
        pairs.sort(key=lambda pair: pair[0])
        stats = SimStats()
        stats.cycles = cycles
        stats.ctas_launched = self.total_ctas
        for _sm_id, sm_stats in pairs:
            stats.sm_stats.append(sm_stats)
            stats.instructions += sm_stats.instructions
            stats.thread_instructions += sm_stats.thread_instructions
        stats.l2_accesses = self.memsys.l2_accesses
        stats.l2_hits = self.memsys.l2_hits
        stats.dram_requests = self.memsys.dram_requests
        return LaunchResult(stats=stats, gmem=self.gmem, kernel=self.kernel,
                            grid_dim=self.grid, fallback=SHARDED)

    def _dump(self, cycle: int, reason: str) -> str:
        fragments = []
        for d in self.drivers:
            try:
                fragments.append(d.dump(cycle, reason))
            except Exception:
                fragments.append(
                    f"<shard for SMs {d.sm_ids}: dump unavailable>")
        return "\n".join(fragments)


def try_parallel_launch(cfg, kernel, grid, gmem, params, limit: int,
                        total_ctas: int) -> LaunchResult | None:
    """Run a launch on the parallel engine; ``None`` means "use serial".

    Restores ``gmem`` to its pre-launch contents before returning ``None``,
    so the serial rerun starts from identical state.  Watchdog exceptions
    (``ProgressDeadlock``/``SimulationTimeout``) propagate with
    reference-exact cycles and messages.
    """
    if epoch_length(cfg) < MIN_EPOCH:
        return None
    snapshot = gmem.data.copy()
    coordinator = None
    try:
        coordinator = _Coordinator(cfg, kernel, grid, params, gmem, limit,
                                   total_ctas, epoch_length(cfg))
        return coordinator.run()
    except SerialFallback:
        gmem.data[:] = snapshot
        return None
    finally:
        if coordinator is not None:
            coordinator.close()

