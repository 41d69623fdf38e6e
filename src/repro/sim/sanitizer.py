"""Invariant sanitizer and deadlock forensics.

Long simulations fail in two ways: *corruption* (an accounting bug or an
injected fault silently breaks a conservation law, poisoning every number
collected afterwards) and *hangs* (a warp that can never issue again stalls
the launch until the hard cycle limit fires, hours later, with no clue).
This module defends against both:

* :class:`Sanitizer` — an opt-in checker (``GPUConfig.sanitize=True``)
  invoked by :meth:`SMCore.step` each stepped cycle and per CTA retirement.
  It asserts microarchitectural conservation laws and raises a structured
  :class:`InvariantViolation` (SM id, cycle, invariant name) the moment one
  breaks, instead of letting the run limp on.
* :func:`diagnostic_dump` — the forensic snapshot attached to
  :class:`~repro.sim.gpu.SimulationTimeout` and raised with deadlocks
  (the progress watchdog itself, :class:`repro.sim.gpu.ProgressTracker`,
  lives beside the launch loop that drives it): per-SM resident CTAs,
  per-warp PC/state/stall reason, outstanding memory requests,
  swap-engine state, and any injected faults.

Invariants checked every stepped cycle:

1. **Capacity conservation** — register-file and shared-memory charges
   never exceed SM capacity, never go negative, and always equal the sum
   over resident CTAs (no leaks, no double releases).
2. **Scheduling-limit conservation** — CTA/warp/thread slot usage stays
   within the per-architecture limits (baseline: all resident CTAs; VT:
   the ACTIVE set plus one in-flight switch; ideal-sched: the enlarged
   cap).
3. **Scoreboard/MSHR liveness** — no pending register writeback or L1
   fill completes further than ``max_pending_latency`` cycles in the
   future (a dropped response is caught the cycle it is recorded).
4. **VT state-machine legality** — resident CTAs only follow the edges
   ``ACTIVE -> SWAP_OUT -> INACTIVE -> SWAP_IN -> ACTIVE``, at most one
   context switch is in flight, no CTA sits in a ``SWAP_*`` state
   outside the swap engine, and the manager's ACTIVE-CTA counter equals
   a recount.
5. **Ready-set superset** — every warp outside its scheduler's ready set
   is finished, barrier-parked, in a non-ACTIVE CTA, or queued in the
   SM's wake heap no later than its cached ``status_until`` (its CTA's
   ``start_cycle`` before launch), so no issuable warp is ever skipped.
6. **Clean retirement** — a retiring CTA has every warp finished, owns no
   scheduler slots, leaks no scoreboard entries, and its release leaves
   the resource accounts non-negative.
7. **Stored horizons** — the facts the issue path keeps at events instead
   of re-deriving equal a recount: each CTA's ``parked`` counts and
   ``park_min`` (every unfinished warp outside the ready set of a
   schedulable CTA is counted under its still-valid cached status), and a
   VT CTA's memoised activation cycle while it is INACTIVE.
"""

from __future__ import annotations

from repro.sim.cta import CTAState
from repro.sim.ctamanager import FOREVER

#: Legal VT lifecycle edges (self-loops are implicit).
_LEGAL_EDGES = {
    CTAState.ACTIVE: {CTAState.ACTIVE, CTAState.SWAP_OUT},
    CTAState.SWAP_OUT: {CTAState.SWAP_OUT, CTAState.INACTIVE},
    CTAState.INACTIVE: {CTAState.INACTIVE, CTAState.SWAP_IN},
    CTAState.SWAP_IN: {CTAState.SWAP_IN, CTAState.ACTIVE},
}

#: States a CTA may first be observed in (set by ``on_assign``).
_LEGAL_INITIAL = {CTAState.ACTIVE, CTAState.INACTIVE}


class InvariantViolation(RuntimeError):
    """A microarchitectural conservation law broke.

    Carries the failing ``invariant`` name, the ``sm_id`` and ``cycle`` it
    was detected at, and the offending ``resource`` description, so test
    harnesses and the crash-tolerant runner can report it structurally.
    """

    def __init__(self, invariant: str, message: str, *, sm_id: int | None = None,
                 cycle: int | None = None, resource: str | None = None):
        self.invariant = invariant
        self.sm_id = sm_id
        self.cycle = cycle
        self.resource = resource
        where = f"sm{sm_id}" if sm_id is not None else "chip"
        super().__init__(f"[{where} @cycle {cycle}] {invariant}: {message}")


class Sanitizer:
    """Opt-in invariant checker shared by all SMs of a launch."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.checks = 0
        # (sm_id, cta_id) -> last observed CTAState, for edge legality.
        self._last_state: dict[tuple[int, int], CTAState] = {}
        # The launch's kernel and its execution cross-check facts (kept in
        # the kernel's analysis context), held so the per-instruction check
        # skips the lookup: a launch runs one kernel.
        self._exec_kernel = None
        self._exec_facts = None

    # -- helpers -----------------------------------------------------------

    def _fail(self, invariant: str, message: str, sm_id: int, now: int,
              resource: str | None = None):
        raise InvariantViolation(invariant, message, sm_id=sm_id, cycle=now,
                                 resource=resource)

    # -- per-cycle check ---------------------------------------------------

    def check_sm(self, sm, now: int) -> None:
        """Validate every invariant on one SM; called from ``SMCore.step``."""
        self.checks += 1
        cfg = self.cfg
        manager = sm.manager
        res = manager.resources
        resident = manager.resident

        # 1. capacity conservation -----------------------------------------
        expected_regs = expected_smem = expected_warps = expected_threads = 0
        for cta in resident:
            expected_regs += cta.regs_needed
            expected_smem += cta.smem_needed
            expected_warps += cta.kernel.warps_per_cta(cfg.warp_size)
            expected_threads += cta.kernel.threads_per_cta
        if res.regs_used != expected_regs or res.smem_used != expected_smem:
            self._fail(
                "capacity-accounting",
                f"accounts (regs={res.regs_used}, smem={res.smem_used}) disagree "
                f"with resident CTAs (regs={expected_regs}, smem={expected_smem})",
                sm.sm_id, now, resource="registers/shared-memory")
        if res.warps_used != expected_warps or res.threads_used != expected_threads:
            self._fail(
                "slot-accounting",
                f"accounts (warps={res.warps_used}, threads={res.threads_used}) "
                f"disagree with resident CTAs (warps={expected_warps}, "
                f"threads={expected_threads})",
                sm.sm_id, now, resource="warp/thread slots")
        if res.regs_used < 0 or res.smem_used < 0 or res.warps_used < 0 or res.threads_used < 0:
            self._fail("capacity-underflow", "a resource account went negative",
                       sm.sm_id, now)
        if res.regs_used > cfg.registers_per_sm:
            self._fail("register-capacity",
                       f"{res.regs_used} registers allocated, SM holds "
                       f"{cfg.registers_per_sm}", sm.sm_id, now, resource="registers")
        if res.smem_used > cfg.smem_per_sm:
            self._fail("smem-capacity",
                       f"{res.smem_used} B shared memory allocated, SM holds "
                       f"{cfg.smem_per_sm} B", sm.sm_id, now, resource="shared memory")

        # 2. scheduling-limit conservation ---------------------------------
        self._check_scheduling_limits(sm, manager, resident, now)

        # 3. scoreboard / MSHR liveness ------------------------------------
        bound = now + cfg.max_pending_latency
        if sm.l1.max_fill_completion > bound:
            self._fail(
                "mshr-liveness",
                f"an L1 fill completes at cycle {sm.l1.max_fill_completion}, more "
                f"than max_pending_latency={cfg.max_pending_latency} ahead — "
                "the response was lost", sm.sm_id, now, resource="L1 MSHR")
        for cta in resident:
            for warp in cta.warps:
                pending = warp.scoreboard.mem_pending_until()
                if pending > bound:
                    self._fail(
                        "scoreboard-liveness",
                        f"cta {cta.cta_id} warp {warp.local_wid} waits on a load "
                        f"completing at cycle {pending}, more than "
                        f"max_pending_latency={cfg.max_pending_latency} ahead",
                        sm.sm_id, now, resource="scoreboard")

        # 4. VT state machine ----------------------------------------------
        self._check_states(sm, manager, resident, now)

        # 5. ready sets -----------------------------------------------------
        self._check_ready_sets(sm, now)

        # 7. stored horizons ------------------------------------------------
        self._check_parked(sm, resident, now)
        self._check_activation_memo(sm, resident, now)

        # Cross-check the manager's own invariant hook when it has one.
        assert_invariants = getattr(manager, "assert_invariants", None)
        if assert_invariants is not None:
            try:
                assert_invariants(now)
            except AssertionError as exc:
                self._fail("manager-invariant", str(exc), sm.sm_id, now)

    def _check_scheduling_limits(self, sm, manager, resident, now: int) -> None:
        cfg = self.cfg
        if not resident:
            return
        kernel = resident[0].kernel
        if cfg.arch == "vt":
            active_limit = manager.active_limit(kernel)
            active_like = sum(
                1 for c in resident
                if c.state in (CTAState.ACTIVE, CTAState.SWAP_OUT, CTAState.SWAP_IN))
            # +1: victim and incoming briefly coexist during a switch.
            if active_like > active_limit + 1:
                self._fail(
                    "vt-active-limit",
                    f"{active_like} CTAs hold scheduling structures, "
                    f"limit is {active_limit} (+1 in-flight switch)",
                    sm.sm_id, now, resource="CTA slots")
            active_warps = sum(
                c.num_warps for c in resident if c.state is CTAState.ACTIVE)
            if active_warps > cfg.max_warps_per_sm:
                self._fail(
                    "vt-warp-slots",
                    f"{active_warps} active warps exceed {cfg.max_warps_per_sm} "
                    "warp slots", sm.sm_id, now, resource="warp slots")
            if len(resident) > manager.resident_limit(kernel):
                self._fail(
                    "vt-resident-limit",
                    f"{len(resident)} resident CTAs exceed the backup-slot "
                    f"provisioning cap {manager.resident_limit(kernel)}",
                    sm.sm_id, now, resource="backup SRAM slots")
        elif cfg.arch == "baseline":
            if len(resident) > cfg.max_ctas_per_sm:
                self._fail("cta-slots",
                           f"{len(resident)} resident CTAs exceed "
                           f"{cfg.max_ctas_per_sm} CTA slots",
                           sm.sm_id, now, resource="CTA slots")
            res = manager.resources
            if res.warps_used > cfg.max_warps_per_sm:
                self._fail("warp-slots",
                           f"{res.warps_used} resident warps exceed "
                           f"{cfg.max_warps_per_sm} warp slots",
                           sm.sm_id, now, resource="warp slots")
            if res.threads_used > cfg.max_threads_per_sm:
                self._fail("thread-slots",
                           f"{res.threads_used} resident threads exceed "
                           f"{cfg.max_threads_per_sm} thread slots",
                           sm.sm_id, now, resource="thread slots")

    def _check_states(self, sm, manager, resident, now: int) -> None:
        victim = getattr(manager, "_swap_victim", None)
        incoming = getattr(manager, "_swap_incoming", None)
        if victim is not None and incoming is not None and victim is incoming:
            self._fail("swap-engine", "victim and incoming are the same CTA",
                       sm.sm_id, now)
        for cta in resident:
            state = cta.state
            if state is CTAState.FINISHED:
                self._fail("state-machine",
                           f"cta {cta.cta_id} is resident but FINISHED",
                           sm.sm_id, now)
            key = (sm.sm_id, cta.cta_id)
            prev = self._last_state.get(key)
            if prev is None:
                if state not in _LEGAL_INITIAL:
                    self._fail("state-machine",
                               f"cta {cta.cta_id} appeared in state {state.value}",
                               sm.sm_id, now)
            elif state not in _LEGAL_EDGES[prev]:
                self._fail(
                    "state-machine",
                    f"cta {cta.cta_id} took illegal edge "
                    f"{prev.value} -> {state.value}",
                    sm.sm_id, now)
            self._last_state[key] = state
            # Orphaned swap states: only the engine's CTAs may be SWAP_*.
            if state is CTAState.SWAP_OUT and cta is not victim:
                self._fail("swap-engine",
                           f"cta {cta.cta_id} is SWAP_OUT outside the swap engine",
                           sm.sm_id, now)
            if state is CTAState.SWAP_IN and cta is not incoming:
                self._fail("swap-engine",
                           f"cta {cta.cta_id} is SWAP_IN outside the swap engine",
                           sm.sm_id, now)
        active = sum(1 for cta in resident if cta.state is CTAState.ACTIVE)
        if manager.active_cta_count != active:
            self._fail("active-count",
                       f"manager counts {manager.active_cta_count} ACTIVE CTAs, "
                       f"{active} are resident", sm.sm_id, now,
                       resource="CTA slots")

    def _check_ready_sets(self, sm, now: int) -> None:
        queued: dict[object, int] = {}
        for cycle, warp in sm.wake_entries():
            if cycle < queued.get(warp, FOREVER):
                queued[warp] = cycle
        for scheduler in sm.schedulers:
            armed = [warp for warp in scheduler.warps if warp.armed]
            if armed != scheduler.ready:
                self._fail("ready-set",
                           "a scheduler's ready list disagrees with its warps' "
                           "ready bits", sm.sm_id, now, resource="scheduler")
            for warp in scheduler.warps:
                if warp.armed or warp.finished or warp.at_barrier:
                    continue
                cta = warp.cta
                if cta.state is not CTAState.ACTIVE:
                    continue  # re-armed when the CTA is activated
                due = cta.start_cycle if now < cta.start_cycle else warp.status_until
                # A cached READY (due FOREVER) or invalidated (-1) status
                # has no wake-up that could ever re-arm the warp.
                if due >= FOREVER or queued.get(warp, FOREVER) > due:
                    self._fail(
                        "ready-set",
                        f"cta {cta.cta_id} warp {warp.local_wid} left the ready "
                        f"set with no wake-up queued by cycle {due}",
                        sm.sm_id, now, resource="scheduler")

    def _check_parked(self, sm, resident, now: int) -> None:
        for cta in resident:
            counted = [0, 0, 0, 0]
            horizon = FOREVER
            schedulable = cta.state is CTAState.ACTIVE and now >= cta.start_cycle
            for warp in cta.warps:
                if warp.parked:
                    counted[warp.parked] += 1
                    horizon = min(horizon, warp.status_until)
                    if warp.armed or warp.status_until <= now:
                        self._fail(
                            "parked-count",
                            f"cta {cta.cta_id} warp {warp.local_wid} is counted "
                            "as parked but is armed or past its wake cycle",
                            sm.sm_id, now, resource="scheduler")
                elif schedulable and not (warp.armed or warp.finished):
                    self._fail(
                        "parked-count",
                        f"cta {cta.cta_id} warp {warp.local_wid} left the ready "
                        "set uncounted", sm.sm_id, now, resource="scheduler")
                if (schedulable and warp.parked
                        and warp.parked != warp.cached_status):
                    self._fail(
                        "parked-count",
                        f"cta {cta.cta_id} warp {warp.local_wid} is counted "
                        f"under status {warp.parked}, cached {warp.cached_status}",
                        sm.sm_id, now, resource="scheduler")
            if counted != cta.parked:
                self._fail("parked-count",
                           f"cta {cta.cta_id} counts parked warps {cta.parked}, "
                           f"a recount finds {counted}", sm.sm_id, now,
                           resource="scheduler")
            if cta.park_min != -1 and cta.park_min != horizon:
                self._fail("parked-count",
                           f"cta {cta.cta_id} keeps park horizon "
                           f"{_cycle_str(cta.park_min)}, a recount finds "
                           f"{_cycle_str(horizon)}", sm.sm_id, now,
                           resource="scheduler")

    def _check_activation_memo(self, sm, resident, now: int) -> None:
        for cta in resident:
            memo = cta.activation_at
            if cta.state is not CTAState.INACTIVE or memo is None:
                continue
            fresh = min((w.scoreboard.mem_pending_until() for w in cta.warps
                         if not (w.finished or w.at_barrier)), default=FOREVER)
            if memo != fresh:
                self._fail("activation-memo",
                           f"inactive cta {cta.cta_id} memoises activation at "
                           f"cycle {_cycle_str(memo)}, a recount finds "
                           f"{_cycle_str(fresh)}", sm.sm_id, now,
                           resource="VT manager")

    # -- execution cross-check ---------------------------------------------

    def _static_facts(self, kernel):
        """Static write-set, per-PC shared-address bounds, and per-PC
        access-cost bounds (coalescing / bank passes) for ``kernel``."""
        from repro.isa.analysis import liveness, shared_accesses
        from repro.isa.analysis.memaccess import cost_bounds_by_pc

        bounds = {access.pc: access.bounds
                  for access in shared_accesses(kernel)
                  if access.bounds is not None}
        costs = cost_bounds_by_pc(kernel, line_bytes=self.cfg.line_bytes,
                                  num_banks=self.cfg.shared_mem_banks)
        return liveness(kernel).written_regs, bounds, costs

    def check_exec(self, sm, warp, pc: int, instr, result, now: int) -> None:
        """Cross-check one issued instruction against the static analysis:
        observed register writes and shared-memory addresses must stay
        within the bounds the verifier proved.  A mismatch means either
        the functional model or the static analysis is wrong — both are
        worth a loud stop.  Called from ``SMCore._issue``."""
        self.checks += 1
        kernel = warp.cta.kernel
        if kernel is not self._exec_kernel:
            from repro.isa.analysis.context import fact

            # The access costs depend on the geometry, hence the key.
            key = ("sanitizer", self.cfg.line_bytes, self.cfg.shared_mem_banks)
            self._exec_facts = fact(kernel, key, self._static_facts, kernel)
            self._exec_kernel = kernel
        written, shared_bounds, cost_bounds = self._exec_facts

        dst = instr.dst_reg()
        if dst is not None:
            if dst >= kernel.regs_per_thread:
                self._fail(
                    "exec-register-bound",
                    f"pc {pc} wrote r{dst} outside the declared register file "
                    f"(regs_per_thread={kernel.regs_per_thread})",
                    sm.sm_id, now, resource="registers")
            if dst not in written:
                self._fail(
                    "exec-register-bound",
                    f"pc {pc} wrote r{dst}, which the static analysis says no "
                    "reachable instruction defines",
                    sm.sm_id, now, resource="registers")

        if result.mem_space == "shared" and result.addresses is not None \
                and len(result.addresses):
            lo_seen = float(result.addresses.min())
            hi_seen = float(result.addresses.max())
            if lo_seen < 0 or hi_seen + 4 > kernel.smem_bytes:
                self._fail(
                    "exec-shared-bound",
                    f"pc {pc} touched shared bytes [{lo_seen:g}, {hi_seen + 4:g}) "
                    f"outside the declared smem_bytes={kernel.smem_bytes}",
                    sm.sm_id, now, resource="shared memory")
            static = shared_bounds.get(pc)
            if static is not None:
                lo, hi = static
                if lo_seen < lo or hi_seen > hi:
                    self._fail(
                        "exec-shared-bound",
                        f"pc {pc} touched shared bytes {lo_seen:g}..{hi_seen:g}, "
                        f"outside the statically proven range {lo:g}..{hi:g}",
                        sm.sm_id, now, resource="shared memory")

        # Access-cost cross-check: the observed transaction / bank-pass
        # count of this issue must stay within the bounds the static
        # coalescing analysis proved (divergence can thin the active mask
        # below the full-warp lower bound, so only a full mask checks it).
        if result.addresses is not None and len(result.addresses):
            cost = cost_bounds.get(pc)
            if cost is not None:
                from repro.sim.ldst import bank_conflict_passes, coalesce

                if result.mem_space == "shared":
                    seen = bank_conflict_passes(result.addresses,
                                                self.cfg.shared_mem_banks)
                    what = "bank passes"
                else:
                    seen = len(coalesce(result.addresses, self.cfg.line_bytes))
                    what = "transactions"
                full = len(result.addresses) >= min(
                    32, kernel.threads_per_cta)
                lo_c = cost.full_lo if full and not cost.predicated else 1
                hi_c = cost.full_hi if full else cost.hi
                if not lo_c <= seen <= hi_c:
                    self._fail(
                        "exec-access-cost",
                        f"pc {pc} performed {seen} {what}, outside the "
                        f"statically predicted bounds {lo_c}..{hi_c} "
                        f"({'full' if full else 'partial'} active mask)",
                        sm.sm_id, now, resource="memory ports")

    # -- retirement check --------------------------------------------------

    def on_cta_retire(self, sm, cta, now: int) -> None:
        """Validate a CTA's retirement; called from ``SMCore._finish_cta``
        after the manager released its resources."""
        key = (sm.sm_id, cta.cta_id)
        prev = self._last_state.pop(key, None)
        if prev is not None and prev is not CTAState.ACTIVE:
            self._fail("state-machine",
                       f"cta {cta.cta_id} retired from state {prev.value} "
                       "(only ACTIVE CTAs can issue their final EXIT)",
                       sm.sm_id, now)
        bound = now + self.cfg.max_pending_latency
        if cta.parked != [0, 0, 0, 0]:
            self._fail("parked-count",
                       f"cta {cta.cta_id} retired with parked counts {cta.parked}",
                       sm.sm_id, now, resource="scheduler")
        for warp in cta.warps:
            if not warp.finished:
                self._fail("retire-unfinished",
                           f"cta {cta.cta_id} retired with warp {warp.local_wid} "
                           f"unfinished at pc {warp.pc}", sm.sm_id, now)
            if warp.scoreboard.mem_pending_until() > bound:
                self._fail("scoreboard-leak",
                           f"cta {cta.cta_id} warp {warp.local_wid} retired "
                           "leaving a pending load that never completes",
                           sm.sm_id, now, resource="scoreboard")
            for scheduler in sm.schedulers:
                if warp in scheduler.warps:
                    self._fail("scheduler-leak",
                               f"retired warp {warp.local_wid} of cta {cta.cta_id} "
                               "still owns a scheduler slot", sm.sm_id, now,
                               resource="scheduler")
        res = sm.manager.resources
        if res.regs_used < 0 or res.smem_used < 0 or res.warps_used < 0 or res.threads_used < 0:
            self._fail("capacity-underflow",
                       f"retiring cta {cta.cta_id} drove a resource account "
                       "negative (double release?)", sm.sm_id, now)


# ---------------------------------------------------------------------------
# deadlock forensics
# ---------------------------------------------------------------------------

_FOREVER_ISH = 1 << 50  # anything beyond this renders as "never"


def _cycle_str(cycle: int) -> str:
    return "never" if cycle >= _FOREVER_ISH else str(cycle)


def _warp_condition(warp, now: int) -> str:
    """Human-readable stall reason for one warp."""
    if warp.finished:
        return "finished"
    if warp.at_barrier:
        return "waiting at barrier"
    if warp.barrier_wake > now:
        return f"barrier release, wakes @{warp.barrier_wake}"
    instr = warp.cta.kernel.instrs[warp.pc]
    blocked_until, any_global = warp.scoreboard.blocking(instr, now)
    if blocked_until > now:
        kind = "global load" if any_global else "short op"
        return f"blocked on {kind} until {_cycle_str(blocked_until)}"
    return "ready to issue"


def diagnostic_dump(sms, now: int, reason: str, faults=None) -> str:
    """Forensic snapshot of the whole chip, for timeout/deadlock reports."""
    from repro.analysis.tables import format_table  # deferred: avoids an import cycle

    sections = [f"=== deadlock forensics @cycle {now}: {reason} ==="]

    cta_rows = []
    warp_rows = []
    mem_rows = []
    for sm in sms:
        manager = sm.manager
        for cta in manager.resident:
            done = sum(1 for w in cta.warps if w.finished)
            cta_rows.append((
                f"sm{sm.sm_id}", cta.cta_id, cta.state.value,
                f"{done}/{cta.num_warps}", cta.start_cycle, cta.times_swapped_out,
            ))
            for warp in cta.warps:
                if warp.finished:
                    continue
                pending = warp.scoreboard.outstanding(now)
                warp_rows.append((
                    f"sm{sm.sm_id}", cta.cta_id, warp.local_wid, warp.pc,
                    warp.instructions_issued, _warp_condition(warp, now),
                    ", ".join(
                        f"r{reg}@{_cycle_str(t)}" for reg, (t, _g) in sorted(pending.items())
                    ) or "-",
                ))
        outstanding = {line: t for line, t in sm.l1.pending.items() if t > now}
        if outstanding:
            mem_rows.append((
                f"sm{sm.sm_id}", len(outstanding),
                _cycle_str(min(outstanding.values())),
                _cycle_str(max(outstanding.values())),
                sm.cfg.l1_mshrs - len(outstanding),
            ))
        else:
            mem_rows.append((f"sm{sm.sm_id}", 0, "-", "-", sm.cfg.l1_mshrs))

        victim = getattr(manager, "_swap_victim", None)
        incoming = getattr(manager, "_swap_incoming", None)
        if victim is not None or incoming is not None:
            sections.append(
                f"sm{sm.sm_id} swap engine: "
                f"victim={victim.cta_id if victim else '-'} "
                f"incoming={incoming.cta_id if incoming else '-'} "
                f"phase ends @{getattr(manager, '_swap_phase_end', '?')}")

    sections.append(format_table(
        ("sm", "cta", "state", "warps done", "start", "swapped out"),
        cta_rows or [("-", "-", "-", "-", "-", "-")],
        title="resident CTAs"))
    sections.append(format_table(
        ("sm", "cta", "warp", "pc", "issued", "condition", "pending regs"),
        warp_rows or [("-", "-", "-", "-", "-", "all warps finished", "-")],
        title="unfinished warps"))
    sections.append(format_table(
        ("sm", "outstanding fills", "earliest", "latest", "MSHRs free"),
        mem_rows, title="outstanding memory requests"))

    if any(row[5] == "waiting at barrier" for row in warp_rows):
        sections.append(
            "hint: warps parked at a barrier that never releases usually mean "
            "a BAR under divergent control flow — `repro lint <bench>` runs "
            "the static barrier-divergence check that catches this before "
            "launch (rule `barrier-divergence` in docs/LINT.md).")

    if faults is not None and getattr(faults, "events", None):
        sections.append("injected faults:\n" + "\n".join(
            f"  {event}" for event in faults.events))

    return "\n\n".join(sections)
