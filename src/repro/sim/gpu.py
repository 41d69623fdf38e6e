"""Chip top level: CTA dispatcher, SM array, shared memory system.

:class:`GPU` is the public simulation entry point::

    gpu = GPU(scaled_fermi(num_sms=2, arch="vt"))
    gmem = GlobalMemory()
    ... allocate/write buffers ...
    result = gpu.launch(kernel, grid_dim=(64, 1, 1), gmem=gmem,
                        params=(gmem.base("a"), gmem.base("b")))
    print(result.stats.summary())

Each launch builds a fresh chip state (cold caches), making runs
reproducible and architecture comparisons fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

from repro.isa.kernel import Kernel
from repro.sim.config import ArchMode, GPUConfig
from repro.sim.cta import CTA, FOREVER
from repro.sim.memory import GlobalMemory
from repro.sim.memsys import MemoryModel
from repro.sim.sanitizer import Sanitizer, diagnostic_dump
from repro.sim.smcore import SMCore
from repro.sim.stats import SimStats


#: ``LaunchResult.fallback`` of the engines that never run the pre-pass:
#: the per-cycle reference engine (chosen, or pinned by a tracer or fault
#: plan) and the sharded engine (repro.sim.parallel).
PER_CYCLE = "per-cycle engine"
SHARDED = "sharded engine"


class SimulationTimeout(RuntimeError):
    """The hard watchdog fired: the launch did not finish within max_cycles.

    ``dump`` carries the deadlock-forensics snapshot taken when the limit
    was hit (see :func:`repro.sim.sanitizer.diagnostic_dump`).
    """

    def __init__(self, message: str, dump: str | None = None):
        super().__init__(message)
        self.dump = dump


class ProgressDeadlock(SimulationTimeout):
    """The progress watchdog fired: no SM made forward progress for
    ``progress_window`` consecutive cycles.  Raised long before
    ``max_cycles``, with the same forensic ``dump`` attached — a true
    deadlock never gets better with a bigger cycle budget."""


class ProgressTracker:
    """Forward-progress bookkeeping for the deadlock watchdog.

    ``progress_window`` consecutive cycles without progress is a deadlock,
    diagnosed long before ``max_cycles``.  A cycle counts as progress when
    an instruction issued anywhere, a CTA was dispatched, the swap engine
    was busy, or a memory response is still legitimately in flight
    (``mem_horizon``, already capped by ``max_pending_latency`` at record
    time, lies in the future).
    """

    def __init__(self, window: int):
        self.window = window
        self.last_progress = 0
        self.horizon = 0

    def observe(self, now: int, issued: int, swap_busy: bool, dispatched: bool,
                mem_horizon: int) -> None:
        if mem_horizon > self.horizon:
            self.horizon = mem_horizon
        if issued or swap_busy or dispatched or now < self.horizon:
            self.last_progress = now

    def observe_span(self, start: int, stop: int, swap_busy: bool) -> None:
        """Bulk equivalent of per-cycle :meth:`observe` over the dead span
        ``[start, stop)`` skipped by the fast-forward engine.

        During such a span nothing issues and nothing dispatches, the
        swap-engine state is constant (a phase boundary would have ended
        the span), and ``mem_horizon`` cannot grow (it only moves on
        issue) — so progress at cycle ``t`` reduces to ``swap_busy or
        t < horizon`` and the latest progressing cycle is closed-form."""
        if swap_busy:
            self.last_progress = stop - 1
        elif self.horizon > start:
            latest = min(stop - 1, self.horizon - 1)
            if latest > self.last_progress:
                self.last_progress = latest

    def stall_deadline(self) -> int:
        """First cycle at which :meth:`deadlocked` would fire assuming no
        issue, dispatch, or swap activity from here on (memory responses
        already in flight keep counting as progress until ``horizon``).
        The fast-forward engine never skips past this cycle, so a deadlock
        raises at exactly the same cycle as under the reference engine."""
        if self.window <= 0:
            return 1 << 60
        return max(self.last_progress, self.horizon - 1) + self.window + 1

    def stalled_cycles(self, now: int) -> int:
        return now - self.last_progress

    def deadlocked(self, now: int) -> bool:
        return self.window > 0 and now - self.last_progress > self.window


@dataclass
class LaunchResult:
    """Outcome of one kernel launch."""

    stats: SimStats
    gmem: GlobalMemory
    kernel: Kernel
    grid_dim: tuple[int, int, int]
    #: Why the SMs executed every instruction at issue: a
    #: :mod:`repro.sim.prepass` fallback reason, or :data:`PER_CYCLE` /
    #: :data:`SHARDED` for an engine that never runs the pre-pass.  None
    #: when they replayed the launch's functional pre-pass.
    fallback: str | None = None

    def read(self, name: str, num_words: int | None = None):
        """Read a result buffer from global memory."""
        return self.gmem.read(name, num_words)


def _manager_factory(arch: str):
    if arch == ArchMode.BASELINE:
        from repro.sim.ctamanager import BaselineManager

        return BaselineManager
    if arch == ArchMode.IDEAL_SCHED:
        from repro.sim.ctamanager import IdealSchedManager

        return IdealSchedManager
    if arch == ArchMode.VT:
        from repro.core.vt import VirtualThreadManager

        return VirtualThreadManager
    raise ValueError(f"unknown arch {arch!r}")


class GPU:
    """A simulated GPU; construct once per configuration, launch many."""

    def __init__(self, cfg: GPUConfig | None = None):
        self.cfg = cfg or GPUConfig()
        self.cfg.validate()

    def launch(
        self,
        kernel: Kernel,
        grid_dim,
        gmem: GlobalMemory | None = None,
        params: tuple[float, ...] = (),
        max_cycles: int | None = None,
        tracer=None,
        faults=None,
    ) -> LaunchResult:
        """Run ``kernel`` over ``grid_dim`` CTAs to completion.

        ``faults`` optionally injects failures (:class:`repro.sim.faults.FaultPlan`);
        with ``cfg.sanitize`` the invariant sanitizer runs too.
        """
        cfg = self.cfg
        grid = self._normalize_grid(grid_dim)
        total_ctas = grid[0] * grid[1] * grid[2]
        if total_ctas <= 0:
            raise ValueError(f"empty grid {grid}")
        self._check_kernel_fits(kernel)

        gmem = gmem if gmem is not None else GlobalMemory(line_bytes=cfg.line_bytes)
        limit = max_cycles if max_cycles is not None else cfg.max_cycles
        if (cfg.engine == "parallel" and tracer is None and faults is None
                and not cfg.sanitize):
            # The sharded epoch engine (byte-identical stats; see
            # repro.sim.parallel).  Anything observing individual cycles
            # pins the serial engine, and the parallel engine itself may
            # decline (degenerate epoch, cross-SM conflict, dead worker) —
            # None means "run serially", with gmem restored.
            from repro.sim.parallel import try_parallel_launch

            result = try_parallel_launch(
                cfg, kernel, grid, gmem, params, limit, total_ctas)
            if result is not None:
                return result
        # The fast-forward engine lets SMs sleep through provably-dead
        # (frozen) cycles, so the sanitizer runs on it; fault plans and
        # tracers observe individual cycles and pin the reference path.
        fast_forward = cfg.fast_forward and tracer is None and faults is None
        # Functional-first execution (repro.sim.prepass): the default
        # engine executes the grid before its first cycle and replays the
        # recorded streams; a launch the pre-pass cannot vouch for, and
        # every per-cycle launch, executes at issue.
        stream, fallback = None, PER_CYCLE
        if fast_forward:
            from repro.sim.prepass import run_prepass

            stream, fallback = run_prepass(kernel, grid, gmem, params, cfg,
                                           limit)
        memory_model = MemoryModel(cfg)
        factory = _manager_factory(cfg.arch)
        sanitizer = Sanitizer(cfg) if cfg.sanitize else None
        sms = [
            SMCore(sm_id, cfg, memory_model, factory, sanitizer=sanitizer, faults=faults)
            for sm_id in range(cfg.num_sms)
        ]
        for sm in sms:
            sm.gmem = gmem
            sm.accepting = sm.manager.can_accept(kernel)

        progress = ProgressTracker(cfg.progress_window)
        # ProgressTracker.deadlocked, inlined: more than ``stall_window``
        # cycles since the last progress (never with the watchdog off).
        stall_window = progress.window if progress.window > 0 else FOREVER
        for sm in sms:
            sm.allow_fast = fast_forward
        next_cta = 0
        now = 0
        rr_offset = 0
        num_sms = len(sms)
        fill_first = cfg.cta_dispatch == "fill-first"
        # Only the VT manager ever has a context switch in flight; skip the
        # per-SM query entirely on the other architectures.
        vt_mode = cfg.arch == ArchMode.VT
        # Wake queue: a heap with one valid ``(due, sm_id)`` entry per
        # non-idle SM, packed into the int ``due * num_sms + sm_id`` (same
        # order, no tuple per push).  ``due[i]`` is SM i's step cycle (None
        # while idle); an entry whose cycle no longer matches it is stale
        # and skipped.  ``credited[i]`` is the first cycle SM i has not
        # accounted for: cycles it sleeps through are lag-credited in bulk
        # when it is next touched.
        wake = []
        due = [None] * num_sms
        credited = [0] * num_sms
        live = 0
        # Watchdog inputs, maintained incrementally: which SMs had a swap
        # in flight after their last full step (constant while they sleep:
        # a swap-phase end is a manager event, so it wakes the SM), and
        # the running maximum of every SM's ``mem_horizon``.
        swapping = [False] * num_sms
        swaps = 0
        horizon = 0

        def seat(sm, cta_id: int) -> None:
            # A CTA seated on a sleeping SM makes it due now; its skipped
            # span is credited first, against the pre-assign state.
            nonlocal live
            i = sm.sm_id
            if due[i] is None:
                live += 1
                credited[i] = now
            elif credited[i] < now:
                sm.fast_forward(credited[i], now)
                credited[i] = now
            if due[i] != now:
                due[i] = now
                heappush(wake, now * num_sms + i)
            sm.assign_cta(
                self._make_cta(cta_id, kernel, grid, params, now, stream), now)

        while True:
            # Dispatch: at most one CTA per SM per cycle.  Round-robin
            # rotates the starting SM each cycle (GigaThread-style fairness);
            # fill-first always starts at SM 0.
            dispatched = False
            if next_cta < total_ctas:
                if fill_first:
                    # One CTA per cycle, always packed into the
                    # lowest-numbered SM with room.
                    for sm in sms:
                        if sm.accepting:
                            seat(sm, next_cta)
                            next_cta += 1
                            dispatched = True
                            break
                else:
                    # The rotation advances every cycle CTAs remain, whether
                    # or not one lands; indices are computed on the fly so
                    # idle dispatch cycles allocate nothing.
                    start = rr_offset
                    rr_offset = (rr_offset + 1) % num_sms
                    for i in range(num_sms):
                        if next_cta >= total_ctas:
                            break
                        sm = sms[(start + i) % num_sms]
                        if sm.accepting:
                            seat(sm, next_cta)
                            next_cta += 1
                            dispatched = True

            # Step the SMs due now, in sm_id order: together with the
            # cycle order this keeps memory requests in the serial
            # (cycle, sm_id, seq) order, so every completion time (fixed
            # at issue by MemoryModel.read) matches the reference engine.
            issued = 0
            first_due = now * num_sms
            first_after = first_due + num_sms
            while wake and wake[0] < first_after:
                i = heappop(wake) - first_due
                if due[i] != now:
                    continue  # stale entry
                sm = sms[i]
                if credited[i] < now:
                    sm.fast_forward(credited[i], now)
                issued += sm.step(now)
                credited[i] = now + 1
                if vt_mode:
                    # VirtualThreadManager.swap_in_flight, inlined.
                    manager = sm.manager
                    busy = (manager._swap_victim is not None
                            or manager._swap_incoming is not None)
                    if busy != swapping[i]:
                        swapping[i] = busy
                        swaps += 1 if busy else -1
                if sm.mem_horizon > horizon:
                    horizon = sm.mem_horizon
                if not sm.live_ctas:
                    due[i] = None
                    live -= 1
                else:
                    # A zero-issue step primed next_wake with the SM's next
                    # event; otherwise (or on the reference engine, which
                    # never primes it) the SM is due next cycle.
                    wake_at = sm.next_wake
                    if wake_at <= now:
                        wake_at = now + 1
                    due[i] = wake_at
                    heappush(wake, wake_at * num_sms + i)
            observed = horizon
            if dispatched:
                # A freshly seated CTA only becomes schedulable after the
                # dispatcher latency; cover the gap in the horizon.
                observed = max(horizon, now + cfg.cta_launch_latency)
            progress.observe(now, issued, swaps > 0, dispatched, observed)
            if tracer is not None:
                tracer.on_cycle(now, sms)

            if next_cta >= total_ctas and not live:
                break

            # Advance to the next cycle anything can happen: the earliest
            # due SM, unless a CTA can be dispatched next cycle.  Capped at
            # the watchdog deadline and the hard cycle budget so both fire
            # at reference-exact cycles.  (``accepting`` only changes on
            # assign/finish, i.e. in a step, so it is fixed until then.)
            target = now + 1
            if fast_forward:
                target = wake[0] // num_sms if wake else limit
                if target > limit:
                    target = limit
                if not swaps and target > now + 1:
                    deadline = progress.stall_deadline()
                    if deadline < target:
                        target = deadline
                if target > now + 1:
                    if next_cta < total_ctas and any(
                            sm.accepting for sm in sms):
                        target = now + 1
                    else:
                        progress.observe_span(now + 1, target, swaps > 0)
                        if next_cta < total_ctas and not fill_first:
                            rr_offset = (rr_offset + target - now - 1) % num_sms
            now = target
            if now - progress.last_progress > stall_window:
                reason = (
                    f"kernel {kernel.name!r} made no forward progress for "
                    f"{progress.stalled_cycles(now)} cycles "
                    f"({next_cta}/{total_ctas} CTAs dispatched)"
                )
                self._credit_lag(sms, due, credited, now)
                raise ProgressDeadlock(
                    reason, dump=diagnostic_dump(sms, now, reason, faults=faults))
            if now >= limit:
                reason = (
                    f"kernel {kernel.name!r} exceeded {limit} cycles "
                    f"({next_cta}/{total_ctas} CTAs dispatched)"
                )
                self._credit_lag(sms, due, credited, now)
                raise SimulationTimeout(
                    reason, dump=diagnostic_dump(sms, now, reason, faults=faults))

        return LaunchResult(
            stats=self._collect(sms, memory_model, now, total_ctas),
            gmem=gmem,
            kernel=kernel,
            grid_dim=grid,
            fallback=fallback,
        )

    # -- helpers ---------------------------------------------------------------

    @staticmethod
    def _credit_lag(sms, due, credited, now: int) -> None:
        """Bring every sleeping SM's accounting up to ``now`` (exclusive),
        so a watchdog dump sees the reference engine's state."""
        for sm in sms:
            i = sm.sm_id
            if due[i] is not None and credited[i] < now:
                sm.fast_forward(credited[i], now)
                credited[i] = now

    def _make_cta(self, cta_id: int, kernel: Kernel, grid, params, now: int,
                  stream=None) -> CTA:
        return CTA(
            cta_id=cta_id,
            kernel=kernel,
            grid_dim=grid,
            params=params,
            cfg=self.cfg,
            start_cycle=now + self.cfg.cta_launch_latency,
            stream=stream,
        )

    def _check_kernel_fits(self, kernel: Kernel) -> None:
        cfg = self.cfg
        if kernel.regs_per_thread * kernel.threads_per_cta > cfg.registers_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: one CTA exceeds the register file")
        if kernel.smem_bytes > cfg.smem_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: one CTA exceeds shared memory")
        if kernel.threads_per_cta > cfg.max_threads_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: CTA exceeds thread slots")
        if kernel.warps_per_cta() > cfg.max_warps_per_sm:
            raise ValueError(f"kernel {kernel.name!r}: CTA exceeds warp slots")

    @staticmethod
    def _normalize_grid(grid_dim) -> tuple[int, int, int]:
        if isinstance(grid_dim, int):
            return (grid_dim, 1, 1)
        dims = tuple(int(d) for d in grid_dim)
        while len(dims) < 3:
            dims = dims + (1,)
        return dims[:3]

    @staticmethod
    def _collect(sms, memory_model, cycles: int, total_ctas: int) -> SimStats:
        stats = SimStats()
        stats.cycles = cycles
        stats.ctas_launched = total_ctas
        for sm in sms:
            sm.stats.l1_accesses = sm.l1.tags.accesses
            sm.stats.l1_hits = sm.l1.tags.hits
            stats.sm_stats.append(sm.stats)
            stats.instructions += sm.stats.instructions
            stats.thread_instructions += sm.stats.thread_instructions
        stats.l2_accesses = memory_model.l2_accesses
        stats.l2_hits = memory_model.l2_hits
        stats.dram_requests = memory_model.dram_requests
        return stats
