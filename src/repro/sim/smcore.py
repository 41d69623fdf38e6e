"""Streaming-multiprocessor timing model.

Per cycle, each warp scheduler picks at most one issuable warp; the chosen
instruction executes functionally and its timing effects are recorded:
scoreboard release times for dependants, structural busy horizons for the
LD/ST and SFU pipelines, and memory-transaction completion times from the
cache hierarchy.

Warp readiness is classified into status codes that serve three consumers
at once: the issue logic, the idle-cycle accounting (paper motivation
figure), and the Virtual Thread swap trigger ("every warp of the CTA is
long-latency stalled").  Statuses are cached with a validity horizon so
idle SMs do not rescan scoreboards every cycle.

The issue logic pays per event, not per resident warp.  Each scheduler
walks only its *ready set* (see :mod:`repro.sim.schedulers`), a superset
of the issuable warps.  When :meth:`SMCore._issuable` proves a warp
blocked, the warp leaves the set; if the block ends at a known cycle
(scoreboard release, barrier-release wake, CTA launch latency) it goes
into the SM's wake heap for that cycle.  Blocks without a known end
re-arm the warp on their event instead: barrier release (in
:meth:`SMCore._issue`) and CTA activation (the VT manager), both through
:func:`repro.sim.schedulers.arm_cta`.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush

from repro.isa.opcodes import OpClass
from repro.sim.cache import L1Cache
from repro.sim.cta import ACTIVE, CTA, SWAP_IN, SWAP_OUT
from repro.sim.ctamanager import FOREVER as _FOREVER, CTAManagerBase
from repro.sim.exec import functional_step
from repro.sim.ldst import bank_conflict_passes, coalesce
from repro.sim.schedulers import arm_cta, make_scheduler
from repro.sim.stats import SMStats

# Warp status codes (ints for speed; cached on the warp object).
ST_READY = 0
ST_MEM = 1  # blocked on an outstanding global-memory dependence
ST_ALU = 2  # blocked on a short (non-memory) dependence
ST_BARRIER = 3
ST_FINISHED = 4

_OCCUPANCY_STRIDE = 16  # occupancy is sampled every N cycles

# Op-class aliases, like the CTA-state ones in repro.sim.cta: reading a
# member through the class goes through EnumType.__getattr__ (~0.2 us on
# CPython 3.11), several times per issued instruction.
_MEM_GLOBAL = OpClass.MEM_GLOBAL
_MEM_SHARED = OpClass.MEM_SHARED
_SFU = OpClass.SFU
_CTRL = OpClass.CTRL


class SMCore:
    """One SM: warp slots, schedulers, L1, and a CTA residency manager."""

    def __init__(self, sm_id: int, cfg, memory_model, make_manager,
                 sanitizer=None, faults=None):
        self.sm_id = sm_id
        self.cfg = cfg
        self.stats = SMStats()
        self.sanitizer = sanitizer
        self.faults = faults
        self.l1 = L1Cache(cfg, memory_model, sm_id, faults=faults)
        self.manager = make_manager(cfg, self.stats)
        self.manager.sm_id = sm_id
        self.manager.faults = faults
        # The base managers' update is a no-op: skip the call (and the
        # status callback built for it) on every step.
        self._manager_update = (
            None if type(self.manager).update is CTAManagerBase.update
            else self.manager.update)
        # Dependency latency of the non-memory op classes, keyed by the
        # decode-time ``Instruction._class_key`` (``latency_for`` stays the
        # single source of the values).
        self._latency = {cls.value: cfg.latency_for(cls)
                         for cls in (OpClass.ALU, OpClass.MUL, OpClass.FPU)}
        self.schedulers = [make_scheduler(cfg.warp_scheduler) for _ in range(cfg.num_warp_schedulers)]
        self._next_sched = 0
        self._ldst_free = 0  # global-memory pipeline
        self._smem_free = 0  # shared-memory pipeline (separate on Fermi)
        self._sfu_free = 0
        # Wake heap: ``(cycle, seq, warp)`` for disarmed warps whose block
        # ends at a known cycle; ``seq`` keeps entries totally ordered.
        self._wake: list[tuple[int, int, object]] = []
        self._wake_seq = 0
        self.gmem = None  # set at launch
        self.live_ctas = 0
        # Whether the manager can seat one more CTA of the launch's kernel
        # (``manager.can_accept``): set at launch, and kept in
        # assign_cta/_finish_cta, the only events that change it, so the
        # dispatcher reads a flag instead of asking every SM every cycle.
        self.accepting = False
        # Latest cycle at which an outstanding memory response may still
        # legitimately arrive (capped by max_pending_latency); the progress
        # watchdog treats cycles before this horizon as forward progress.
        self.mem_horizon = 0
        # Fast-forward engine state (see GPU.launch): after a zero-issue
        # step the SM caches its next-event cycle and idle class; the wake
        # queue does not step it before ``next_wake`` and credits the
        # cycles it sleeps through with :meth:`fast_forward`.
        # ``allow_fast`` is set by the launch loop; the reference engine
        # never primes the cache.
        self.allow_fast = False
        self.next_wake = 0
        self._idle_kind = "empty"
        self._scan_cycle = 0  # cycle of the scan that produced next_wake
        # Occupancy-sample cache: the four sampled counts are functions of
        # manager state, which only changes in a full step or on assign —
        # both invalidate the cache — so every sample inside a dead span
        # reuses one computation (the counts are provably constant there,
        # the same argument that lets fast_forward multiply by ``samples``).
        self._occ_cache = None
        # Parallel-engine tap (see repro.sim.parallel): when set, every
        # global-load group is reported so epoch-deferred completions can be
        # patched to their exact values at the next shard barrier.
        self._defer = None

    # -- CTA lifecycle -------------------------------------------------------

    def assign_cta(self, cta: CTA, now: int) -> None:
        self.next_wake = 0  # new CTA: the cached dead-cycle horizon is stale
        self._occ_cache = None
        manager = self.manager
        manager.on_assign(cta, now)
        for warp in cta.warps:
            self.schedulers[self._next_sched].add_warp(warp)
            self._next_sched = (self._next_sched + 1) % len(self.schedulers)
        self.live_ctas += 1
        self.accepting = manager.can_accept(cta.kernel)

    def _finish_cta(self, cta: CTA, now: int) -> None:
        for warp in cta.warps:
            warp.sched.remove_warp(warp)
        manager = self.manager
        manager.on_cta_finish(cta, now)
        self.live_ctas -= 1
        self.accepting = manager.can_accept(cta.kernel)
        if self.sanitizer is not None:
            self.sanitizer.on_cta_retire(self, cta, now)

    @property
    def idle(self) -> bool:
        return self.live_ctas == 0

    # -- ready sets -----------------------------------------------------------

    def arm(self, warp) -> None:
        """Re-arm one warp whose cached status was invalidated from outside
        the issue logic (the parallel engine's completion patch)."""
        if warp.sched is not None:  # None once its CTA retired
            warp.sched.arm(warp)

    def _park(self, warp, until: int) -> None:
        """Disarm a warp found unissuable; queue a wake-up at ``until``
        unless the block has no known end (``_FOREVER``: barrier-parked,
        finished, or in a CTA that must be activated first).

        A warp of an ACTIVE CTA parked under a blocked status (MEM, ALU,
        BARRIER) is counted in ``cta.parked`` and folded into
        ``cta.park_min`` until :meth:`SchedulerBase.arm` takes it back, so
        :meth:`_dead_scan` need not walk it.  (A CTA still inside its
        launch latency has never had a status evaluated: ``cached_status``
        is -1, so its parks are not counted.)

        A fault plan's frozen warp is never parked: the plan logs its
        ``stall-warp`` event when the scheduler walk reaches the warp, and
        a walk over every resident warp would reach it each cycle."""
        if self.faults is not None and self.faults.pins(self.sm_id, warp):
            return
        warp.sched.disarm(warp)
        status = warp.cached_status
        if ST_MEM <= status <= ST_BARRIER:
            cta = warp.cta
            if cta.state is ACTIVE:
                cta.parked[status] += 1
                warp.parked = status
                if warp.status_until < cta.park_min:
                    cta.park_min = warp.status_until
        if until < _FOREVER:
            heappush(self._wake, (until, self._wake_seq, warp))
            self._wake_seq += 1

    def wake_entries(self) -> list[tuple[int, object]]:
        """``(cycle, warp)`` for every queued wake-up (sanitizer view)."""
        return [(cycle, warp) for cycle, _seq, warp in self._wake]

    # -- warp status ------------------------------------------------------------

    def _status(self, now: int, warp) -> int:
        if now < warp.status_until:
            return warp.cached_status
        if warp.finished:
            status, until = ST_FINISHED, _FOREVER
        elif warp.at_barrier:
            status, until = ST_BARRIER, _FOREVER  # invalidated on release
        elif warp.barrier_wake > now:
            status, until = ST_BARRIER, warp.barrier_wake
        else:
            instr = warp.cta.kernel.instrs[warp.pc]
            blocked_until, any_global = warp.scoreboard.blocking(instr, now)
            if blocked_until > now:
                status = ST_MEM if any_global else ST_ALU
                until = blocked_until
            else:
                status, until = ST_READY, _FOREVER  # invalidated on issue
        warp.cached_status = status
        warp.status_until = until
        return status

    def _issuable(self, now: int, warp) -> bool:
        if self.faults is not None and self.faults.warp_stalled(self.sm_id, warp, now):
            return False
        cta = warp.cta
        if cta.state is not ACTIVE or now < cta.start_cycle:
            # Not launched yet: wake at the start cycle.  INACTIVE/SWAP_*:
            # re-armed when the VT manager activates the CTA.
            self._park(warp, cta.start_cycle if now < cta.start_cycle else _FOREVER)
            return False
        if now < warp.status_until:
            status = warp.cached_status
        else:
            status = self._status(now, warp)
        if status != ST_READY:
            self._park(warp, warp.status_until)
            return False
        # Structural gates: the SM-wide LD/ST, MSHR, shared-memory and SFU
        # ports.
        instr = cta.kernel.instrs[warp.pc]
        op_class = instr.info.op_class
        if op_class is _MEM_GLOBAL:
            if self._ldst_free > now:
                return False
            return instr.info.is_store or self.l1.mshr_available(now)
        if op_class is _MEM_SHARED:
            return self._smem_free <= now
        if op_class is _SFU:
            return self._sfu_free <= now
        return True

    # -- issue ---------------------------------------------------------------------

    def _issue(self, warp, now: int) -> None:
        cta = warp.cta
        pc = warp.pc  # the executor advances it; keep for the sanitizer
        instr = cta.kernel.instrs[pc]
        info = instr.info
        stream = warp.stream
        if stream is None:
            result = functional_step(warp, instr, self.gmem)
            lanes = result.lanes
        else:
            # Executed by the launch's pre-pass: replay the recorded entry.
            lanes = stream.step(warp)
            if self.sanitizer is not None:
                result = stream.replayed(info, lanes)
        if self.sanitizer is not None:
            self.sanitizer.check_exec(self, warp, pc, instr, result, now)
        warp.status_until = -1
        warp.instructions_issued += 1
        stats = self.stats
        stats.instructions += 1
        stats.thread_instructions += lanes
        by_class = stats.instructions_by_class
        class_key = instr._class_key
        by_class[class_key] = by_class.get(class_key, 0) + 1

        op_class = info.op_class
        key = instr._op_key
        if key == "BAR":
            if cta.barrier_arrive(warp, now):
                arm_cta(cta)
            return
        if key == "EXIT":
            if warp.finished:
                cta.live_warps -= 1
                if not cta.live_warps:
                    self._finish_cta(cta, now)
                elif cta.check_barrier_release(now):
                    # A finished warp may be the last arrival a barrier waits for.
                    arm_cta(cta)
            return

        if op_class is _MEM_GLOBAL:
            if not lanes:
                return  # fully predicated off: occupies an issue slot only
            lines = (coalesce(result.addresses, self.cfg.line_bytes)
                     if stream is None else stream.take_lines())
            self._issue_global(warp, instr, lines, now)
        elif op_class is _MEM_SHARED:
            if not lanes:
                return
            passes = (bank_conflict_passes(result.addresses,
                                           self.cfg.shared_mem_banks)
                      if stream is None else stream.take_passes())
            self._issue_shared(warp, instr, passes, now)
        elif op_class is _SFU:
            self._sfu_free = now + self.cfg.sfu_issue_interval
            if instr.dst is not None:
                warp.scoreboard.set_pending(instr.dst.idx, now + self.cfg.lat_sfu, False)
        elif op_class is not _CTRL:
            if instr.dst is not None:
                latency = self._latency[class_key]
                warp.scoreboard.set_pending(instr.dst.idx, now + latency, False)

    def _issue_global(self, warp, instr, lines: list[int], now: int) -> None:
        count = max(1, len(lines))
        self._ldst_free = now + count
        self.stats.global_transactions += len(lines)
        if instr.info.is_store:
            for i, line in enumerate(lines):
                self.l1.write(line, now + i)
            return
        access = self.l1.atomic if instr.info.is_atomic else self.l1.read
        ready = now
        if self._defer is None:
            for i, line in enumerate(lines):
                completion = access(line, now + i)
                if completion > ready:
                    ready = completion
        else:
            completions = []
            for i, line in enumerate(lines):
                completion = access(line, now + i)
                completions.append(completion)
                if completion > ready:
                    ready = completion
            self._defer.note_load(
                warp, instr.dst.idx if instr.dst is not None else None,
                now, completions)
        horizon = min(ready, now + self.cfg.max_pending_latency)
        if horizon > self.mem_horizon:
            self.mem_horizon = horizon
        if instr.dst is not None:
            is_long = ready - now >= self.cfg.vt_long_stall_threshold
            warp.scoreboard.set_pending(instr.dst.idx, ready, is_long)

    def _issue_shared(self, warp, instr, passes: int, now: int) -> None:
        self._smem_free = now + passes
        self.stats.smem_accesses += 1
        self.stats.smem_bank_conflict_passes += passes
        if instr.dst is not None:
            latency = self.cfg.lat_smem + (passes - 1) * self.cfg.smem_bank_conflict_penalty
            warp.scoreboard.set_pending(instr.dst.idx, now + latency, False)

    # -- per-cycle step ------------------------------------------------------------

    def step(self, now: int) -> int:
        """Advance one cycle; returns the number of instructions issued
        (the launch loop's forward-progress signal)."""
        stats = self.stats
        stats.cycles += 1
        self._occ_cache = None  # a live cycle may change any sampled count
        wake = self._wake
        while wake and wake[0][0] <= now:
            warp = heappop(wake)[2]
            if warp.sched is not None:  # None once its CTA retired
                warp.sched.arm(warp)
        if self._manager_update is not None:
            self._manager_update(now, partial(self._status, now))

        issued = 0
        issuable = None
        schedulers = self.schedulers
        stats.issue_slots += len(schedulers)
        for scheduler in schedulers:
            if not scheduler.ready:
                scheduler.idle()
                continue
            if issuable is None:
                issuable = partial(self._issuable, now)
            warp = scheduler.pick(issuable)
            if warp is not None:
                self._issue(warp, now)
                issued += 1
                stats.issued_slots += 1

        if now % _OCCUPANCY_STRIDE == 0:
            self._sample_occupancy(now)
        if issued == 0:
            if self.allow_fast:
                # Prime the dead-cycle cache in the same pass that
                # classifies the idle cycle: statuses cannot change before
                # the next event, so until then every cycle repeats this
                # cycle's accounting verbatim.
                kind, event = self._dead_scan(now)
                self._idle_kind = kind
                self.next_wake = event
                self._scan_cycle = now
            else:
                # The reference engine classifies the cycle the same way
                # and has no use for the next event.
                kind = self._dead_scan(now, want_event=False)[0]
            stats.add_idle(kind, 1)
        if self.sanitizer is not None:
            self.sanitizer.check_sm(self, now)
        return issued

    def _occ_values(self, now: int) -> tuple[int, int, int, int]:
        """The four occupancy-sample counts at ``now``, cached across dead
        spans (any step that could change them clears the cache first)."""
        values = self._occ_cache
        if values is None:
            manager = self.manager
            values = self._occ_cache = (
                len(manager.resident),
                manager.active_cta_count,
                manager.resident_warp_count(),
                manager.schedulable_warp_count(now),
            )
        return values

    def _sample_occupancy(self, now: int) -> None:
        resident, active, warps, schedulable = self._occ_values(now)
        stats = self.stats
        stats.occupancy_samples += 1
        stats.resident_cta_samples += resident
        stats.active_cta_samples += active
        stats.resident_warp_samples += warps
        stats.schedulable_warp_samples += schedulable

    # -- fast-forward support -----------------------------------------------------

    def _dead_scan(self, now: int, want_event: bool = True) -> tuple[str, int]:
        """``(idle class, next event)`` for a zero-issue cycle at ``now``,
        in one pass over the resident CTAs and the armed warps (every
        dead-cycle discovery needs both).  The idle class (one of
        :data:`repro.sim.stats.IDLE_KINDS`) is the same for both engines;
        with ``want_event`` false (the per-cycle reference engine, which
        steps every cycle anyway) the manager horizon, park horizons and
        structural wake-ups are not computed, and the event returned is
        meaningless.

        The next event is this SM's half of the next-event contract (see
        docs/ARCHITECTURE.md): the earliest future cycle at which its
        observable behaviour can change, assuming no warp issues anywhere
        before it — the minimum over

        * the manager's own horizon (VT swap-engine phase end, inactive-CTA
          activation readiness, timeout-trigger deadlines),
        * the launch latency of CTAs seated but not yet schedulable,
        * cached warp wake times for blocked warps of schedulable CTAs
          (scoreboard release, barrier-release wake), and
        * structural-pipeline free times for READY warps that could not
          issue this cycle (LD/ST, shared-memory, SFU ports, MSHR file).

        Only valid immediately after a :meth:`step` that issued nothing.
        That step's scheduler walks reached every armed warp, so an armed
        warp of a schedulable CTA is a READY warp held back by a structural
        gate (or a fault-pinned warp, which stays armed whatever its
        status); a READY warp that is not structurally blocked would
        contradict the zero-issue premise.  Every other unfinished warp of
        a schedulable CTA was parked under a status whose cached horizon
        is still in the future, and is counted in its CTA's ``parked``
        (see :meth:`_park`), so the blocked warps are classified by CTA,
        not walked.  Returning too-early cycles wastes a wake-up;
        returning too-late cycles would skip a live cycle and break the
        byte-identical-stats guarantee.
        """
        manager = self.manager
        event = manager.next_event(now) if want_event else _FOREVER
        n_ready = n_alu = n_mem = n_barrier = 0
        any_swap = False
        any_resident = False
        for cta in manager.resident:
            state = cta.state
            if state is SWAP_OUT or state is SWAP_IN:
                any_swap = True
            if now < cta.start_cycle:
                # Seated but still inside the dispatcher latency: nothing
                # about this CTA is observable before its start cycle.
                if cta.start_cycle < event:
                    event = cta.start_cycle
                continue
            if state is not ACTIVE:
                # INACTIVE/SWAP_* CTAs wake through the manager's horizon.
                continue
            _ready, mem, alu, barrier = cta.parked
            if mem or alu or barrier:
                any_resident = True
                n_mem += mem
                n_alu += alu
                n_barrier += barrier
                # Scoreboard release or barrier wake; warps parked *at* a
                # barrier carry a _FOREVER horizon (they only move when
                # another warp issues).
                if want_event:
                    until = cta.park_min
                    if until < 0:
                        until = cta.park_min = min(
                            w.status_until for w in cta.warps if w.parked)
                    if until < event:
                        event = until
        for scheduler in self.schedulers:
            for warp in scheduler.ready:
                cta = warp.cta
                if cta.state is not ACTIVE or now < cta.start_cycle:
                    continue
                if now < warp.status_until:
                    status = warp.cached_status
                else:
                    status = self._status(now, warp)
                if status == ST_FINISHED:
                    continue
                any_resident = True
                if status == ST_READY:
                    n_ready += 1
                    if want_event:
                        wake = self._ready_wake(warp, now)
                        if wake < event:
                            event = wake
                else:
                    if status == ST_ALU:
                        n_alu += 1
                    elif status == ST_MEM:
                        n_mem += 1
                    else:
                        n_barrier += 1
                    if warp.status_until < event:
                        event = warp.status_until
        if not any_resident:
            kind = "swap" if any_swap else "empty"
        elif n_ready:
            kind = "struct"
        elif n_alu:
            kind = "alu"
        elif n_mem:
            kind = "mem"
        elif n_barrier:
            kind = "barrier"
        else:  # pragma: no cover - defensive
            kind = "empty"
        return kind, event

    def reprime_after_patch(self) -> None:
        """Recompute ``(idle kind, next_wake)`` after an epoch-boundary
        completion patch (parallel engine only).

        The SM's state has been frozen since the zero-issue step at
        ``_scan_cycle`` (every later cycle was bulk-credited), so
        re-running the scan *as of that cycle* against the now-exact
        scoreboard/MSHR values reproduces exactly what the serial engine's
        scan computed there.  The patch re-armed every warp whose cached
        status it invalidated, so the scan's armed-warp pass evaluates
        them afresh; the warps it did not touch keep valid counts."""
        kind, event = self._dead_scan(self._scan_cycle)
        self._idle_kind = kind
        self.next_wake = event

    def _ready_wake(self, warp, now: int) -> int:
        """When a READY-but-unissued warp's structural hazard clears."""
        instr = warp.cta.kernel.instrs[warp.pc]
        op_class = instr.info.op_class
        if op_class is _MEM_GLOBAL:
            wake = self._ldst_free
            if not instr.info.is_store:
                mshr_free = self.l1.earliest_mshr_free(now)
                if mshr_free > wake:
                    wake = mshr_free
            return max(wake, now + 1)
        if op_class is _MEM_SHARED:
            return max(self._smem_free, now + 1)
        if op_class is _SFU:
            return max(self._sfu_free, now + 1)
        return now + 1  # pragma: no cover - a hazard-free READY warp issues

    def fast_forward(self, start: int, stop: int) -> None:
        """Credit cycles ``[start, stop)`` as verified-dead cycles.

        The caller (the wake queue in :meth:`GPU.launch`, or a parallel
        shard) guarantees no event falls inside the span, so every per-cycle
        quantity is constant across it and the reference engine's
        cycle-by-cycle accounting collapses to arithmetic: cycle and
        issue-slot counters, occupancy samples on the
        ``_OCCUPANCY_STRIDE`` grid, one idle class for the whole span, and
        the VT swap engine's per-cycle busy credit."""
        span = stop - start
        stats = self.stats
        manager = self.manager
        stats.cycles += span
        stats.issue_slots += len(self.schedulers) * span
        samples = (stop - 1) // _OCCUPANCY_STRIDE - (start - 1) // _OCCUPANCY_STRIDE
        if samples:
            resident, active, warps, schedulable = self._occ_values(start)
            stats.occupancy_samples += samples
            stats.resident_cta_samples += samples * resident
            stats.active_cta_samples += samples * active
            stats.resident_warp_samples += samples * warps
            stats.schedulable_warp_samples += samples * schedulable
        stats.add_idle(self._idle_kind, span)
        if manager.swap_in_flight():
            # update() adds one busy cycle per cycle while a switch phase
            # is draining; the span never crosses a phase boundary.
            stats.swap_busy_cycles += span
