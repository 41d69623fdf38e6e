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
   schedulable CTA is counted under its still-valid cached status), a
   VT CTA's memoised activation cycle while it is INACTIVE, each CTA's
   ``live_warps``, the manager's ``inactive_cta_count``, and the SM's
   dispatch flag (``accepting``, against ``can_accept``).
"""

from __future__ import annotations

from repro.sim.cta import (
    ACTIVE, FINISHED, FOREVER, INACTIVE, SWAP_IN, SWAP_OUT, CTAState)

#: Legal VT lifecycle edges besides the implicit self-loops, as pairs
#: compared by identity: an Enum member hashes through a Python-level
#: ``__hash__``, which a per-cycle set lookup would pay per CTA.  A CTA
#: is first observed ACTIVE or INACTIVE (set by ``on_assign``).
_LEGAL_STEPS = ((ACTIVE, SWAP_OUT), (SWAP_OUT, INACTIVE),
                (INACTIVE, SWAP_IN), (SWAP_IN, ACTIVE))


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
        # Resident CTA -> last observed CTAState, for edge legality.
        self._last_state: dict[object, CTAState] = {}
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
        """Validate every invariant on one SM; called from ``SMCore.step``.

        One walk over the resident CTAs and their warps gathers the sums
        and the first breach of each per-CTA and per-warp invariant; the
        checks are then reported in the order of the module docstring, so
        when several invariants break at once the first of them in that
        order is the one raised."""
        self.checks += 1
        cfg = self.cfg
        manager = sm.manager
        res = manager.resources
        resident = manager.resident
        sm_id = sm.sm_id
        bound = now + cfg.max_pending_latency
        victim = getattr(manager, "_swap_victim", None)
        incoming = getattr(manager, "_swap_incoming", None)
        last_state = self._last_state

        expected_regs = expected_smem = expected_warps = expected_threads = 0
        n_active = n_inactive = active_like = active_warps = 0
        # The first breach of each per-CTA or per-warp invariant, as its
        # message (``state_breach`` also names its invariant: it covers two).
        late_load = state_breach = park_breach = memo_breach = None
        live_breach = None
        kernel = footprint = None
        for cta in resident:
            if cta.kernel is not kernel:
                kernel = cta.kernel
                threads = kernel.threads_per_cta
                footprint = (kernel.regs_per_thread * threads, kernel.smem_bytes,
                             kernel.warps_per_cta(), threads)
            expected_regs += footprint[0]
            expected_smem += footprint[1]
            expected_warps += footprint[2]
            expected_threads += footprint[3]

            state = cta.state
            if state is ACTIVE:
                n_active += 1
                active_like += 1
                active_warps += len(cta.warps)
            elif state is INACTIVE:
                n_inactive += 1
            elif state is SWAP_OUT or state is SWAP_IN:
                active_like += 1
            # A CTA still ACTIVE or INACTIVE since the last check took a
            # legal self-loop and cannot be an orphaned swap state.
            if state_breach is None and not (
                    (state is ACTIVE or state is INACTIVE)
                    and last_state.get(cta) is state):
                state_breach = self._state_breach(cta, state, victim,
                                                  incoming, last_state)

            schedulable = state is ACTIVE and now >= cta.start_cycle
            memo = cta.activation_at if state is INACTIVE else None
            counted = [0, 0, 0, 0]
            horizon = fresh = FOREVER
            live = 0
            for warp in cta.warps:
                pending = warp.scoreboard.mem_pending_until()
                if pending > bound and late_load is None:
                    late_load = (
                        f"cta {cta.cta_id} warp {warp.local_wid} waits on a load "
                        f"completing at cycle {pending}, more than "
                        f"max_pending_latency={cfg.max_pending_latency} ahead")
                finished = warp.finished
                if not finished:
                    live += 1
                    if pending < fresh and not warp.at_barrier:
                        fresh = pending
                parked = warp.parked
                if parked:
                    counted[parked] += 1
                    if warp.status_until < horizon:
                        horizon = warp.status_until
                if park_breach is None:
                    if parked:
                        if warp.armed or warp.status_until <= now:
                            park_breach = (
                                f"cta {cta.cta_id} warp {warp.local_wid} is counted "
                                "as parked but is armed or past its wake cycle")
                        elif schedulable and parked != warp.cached_status:
                            park_breach = (
                                f"cta {cta.cta_id} warp {warp.local_wid} is counted "
                                f"under status {parked}, cached {warp.cached_status}")
                    elif schedulable and not (warp.armed or finished):
                        park_breach = (
                            f"cta {cta.cta_id} warp {warp.local_wid} left the ready "
                            "set uncounted")
            if park_breach is None:
                if counted != cta.parked:
                    park_breach = (f"cta {cta.cta_id} counts parked warps "
                                   f"{cta.parked}, a recount finds {counted}")
                elif cta.park_min != -1 and cta.park_min != horizon:
                    park_breach = (f"cta {cta.cta_id} keeps park horizon "
                                   f"{_cycle_str(cta.park_min)}, a recount finds "
                                   f"{_cycle_str(horizon)}")
            if memo is not None and memo != fresh and memo_breach is None:
                memo_breach = (f"inactive cta {cta.cta_id} memoises activation at "
                               f"cycle {_cycle_str(memo)}, a recount finds "
                               f"{_cycle_str(fresh)}")
            if live != cta.live_warps and live_breach is None:
                live_breach = (f"cta {cta.cta_id} counts {cta.live_warps} live "
                               f"warps, a recount finds {live}")

        # 1. capacity conservation -----------------------------------------
        if res.regs_used != expected_regs or res.smem_used != expected_smem:
            self._fail(
                "capacity-accounting",
                f"accounts (regs={res.regs_used}, smem={res.smem_used}) disagree "
                f"with resident CTAs (regs={expected_regs}, smem={expected_smem})",
                sm_id, now, resource="registers/shared-memory")
        if res.warps_used != expected_warps or res.threads_used != expected_threads:
            self._fail(
                "slot-accounting",
                f"accounts (warps={res.warps_used}, threads={res.threads_used}) "
                f"disagree with resident CTAs (warps={expected_warps}, "
                f"threads={expected_threads})",
                sm_id, now, resource="warp/thread slots")
        if res.regs_used < 0 or res.smem_used < 0 or res.warps_used < 0 or res.threads_used < 0:
            self._fail("capacity-underflow", "a resource account went negative",
                       sm_id, now)
        if res.regs_used > cfg.registers_per_sm:
            self._fail("register-capacity",
                       f"{res.regs_used} registers allocated, SM holds "
                       f"{cfg.registers_per_sm}", sm_id, now, resource="registers")
        if res.smem_used > cfg.smem_per_sm:
            self._fail("smem-capacity",
                       f"{res.smem_used} B shared memory allocated, SM holds "
                       f"{cfg.smem_per_sm} B", sm_id, now, resource="shared memory")

        # 2. scheduling-limit conservation ---------------------------------
        if resident:
            self._check_scheduling_limits(sm, manager, resident, now,
                                          active_like, active_warps)

        # 3. scoreboard / MSHR liveness ------------------------------------
        if sm.l1.max_fill_completion > bound:
            self._fail(
                "mshr-liveness",
                f"an L1 fill completes at cycle {sm.l1.max_fill_completion}, more "
                f"than max_pending_latency={cfg.max_pending_latency} ahead — "
                "the response was lost", sm_id, now, resource="L1 MSHR")
        if late_load is not None:
            self._fail("scoreboard-liveness", late_load, sm_id, now,
                       resource="scoreboard")

        # 4. VT state machine ----------------------------------------------
        if victim is not None and victim is incoming:
            self._fail("swap-engine", "victim and incoming are the same CTA",
                       sm_id, now)
        if state_breach is not None:
            self._fail(state_breach[0], state_breach[1], sm_id, now)
        if manager.active_cta_count != n_active:
            self._fail("active-count",
                       f"manager counts {manager.active_cta_count} ACTIVE CTAs, "
                       f"{n_active} are resident", sm_id, now,
                       resource="CTA slots")

        # 5. ready sets -----------------------------------------------------
        self._check_ready_sets(sm, now)

        # 7. stored horizons ------------------------------------------------
        if park_breach is not None:
            self._fail("parked-count", park_breach, sm_id, now,
                       resource="scheduler")
        if memo_breach is not None:
            self._fail("activation-memo", memo_breach, sm_id, now,
                       resource="VT manager")

        # 7. stored counts (checked last: they joined the invariant set
        # after the checks above, whose reporting order stays as it was).
        if live_breach is not None:
            self._fail("live-warp-count", live_breach, sm_id, now,
                       resource="warp slots")
        if manager.inactive_cta_count != n_inactive:
            self._fail("inactive-count",
                       f"manager counts {manager.inactive_cta_count} INACTIVE "
                       f"CTAs, {n_inactive} are resident", sm_id, now,
                       resource="CTA slots")
        if resident and sm.accepting != manager.can_accept(resident[0].kernel):
            self._fail("dispatch-flag",
                       f"the SM's dispatch flag says accepting={sm.accepting}, "
                       "can_accept disagrees", sm_id, now, resource="CTA slots")

    def _state_breach(self, cta, state, victim, incoming,
                      last_state) -> tuple[str, str] | None:
        """Check one resident CTA's lifecycle step since the last check
        and record its state; the breach found, or None."""
        if state is FINISHED:
            return "state-machine", f"cta {cta.cta_id} is resident but FINISHED"
        prev = last_state.get(cta)
        if prev is None:
            if state is not ACTIVE and state is not INACTIVE:
                return "state-machine", f"cta {cta.cta_id} appeared in state {state.value}"
        elif state is not prev and (prev, state) not in _LEGAL_STEPS:
            return ("state-machine",
                    f"cta {cta.cta_id} took illegal edge {prev.value} -> {state.value}")
        last_state[cta] = state
        # Orphaned swap states: only the engine's CTAs may be SWAP_*.
        if state is SWAP_OUT and cta is not victim:
            return ("swap-engine",
                    f"cta {cta.cta_id} is SWAP_OUT outside the swap engine")
        if state is SWAP_IN and cta is not incoming:
            return ("swap-engine",
                    f"cta {cta.cta_id} is SWAP_IN outside the swap engine")
        return None

    def _check_scheduling_limits(self, sm, manager, resident, now: int,
                                 active_like: int, active_warps: int) -> None:
        """Invariant 2 for a non-empty SM; ``active_like`` counts the CTAs
        holding scheduling structures (ACTIVE or SWAP_*) and
        ``active_warps`` the warps of the ACTIVE ones."""
        cfg = self.cfg
        kernel = resident[0].kernel
        if cfg.arch == "vt":
            active_limit = manager.active_limit(kernel)
            # +1: victim and incoming briefly coexist during a switch.
            if active_like > active_limit + 1:
                self._fail(
                    "vt-active-limit",
                    f"{active_like} CTAs hold scheduling structures, "
                    f"limit is {active_limit} (+1 in-flight switch)",
                    sm.sm_id, now, resource="CTA slots")
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

    def _check_ready_sets(self, sm, now: int) -> None:
        queued = None  # warp -> earliest queued wake-up, built on first need
        for scheduler in sm.schedulers:
            warps = scheduler.warps
            armed = [warp for warp in warps if warp.armed]
            if armed != scheduler.ready:
                self._fail("ready-set",
                           "a scheduler's ready list disagrees with its warps' "
                           "ready bits", sm.sm_id, now, resource="scheduler")
            if len(armed) == len(warps):
                continue  # no warp is outside the ready set
            for warp in warps:
                if warp.armed or warp.finished or warp.at_barrier:
                    continue
                cta = warp.cta
                if cta.state is not ACTIVE:
                    continue  # re-armed when the CTA is activated
                due = cta.start_cycle if now < cta.start_cycle else warp.status_until
                if queued is None:
                    queued = {}
                    for cycle, entry in sm.wake_entries():
                        if cycle < queued.get(entry, FOREVER):
                            queued[entry] = cycle
                # A cached READY (due FOREVER) or invalidated (-1) status
                # has no wake-up that could ever re-arm the warp.
                if due >= FOREVER or queued.get(warp, FOREVER) > due:
                    self._fail(
                        "ready-set",
                        f"cta {cta.cta_id} warp {warp.local_wid} left the ready "
                        f"set with no wake-up queued by cycle {due}",
                        sm.sm_id, now, resource="scheduler")

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
        prev = self._last_state.pop(cta, None)
        if prev is not None and prev is not ACTIVE:
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
