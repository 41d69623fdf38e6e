"""The Virtual Thread (VT) architecture — the paper's contribution.

The stock GPU admits CTAs to an SM only while *both* the scheduling limit
(CTA slots, warp slots, thread slots) and the capacity limit (register
file, shared memory) hold, and every resident CTA is schedulable.  VT
decouples the two:

* **Admission** checks only the capacity limit (plus a provisioning cap on
  backup slots), so on-chip memory fills with CTAs.
* **Scheduling** keeps at most a scheduling-limit-sized subset ACTIVE;
  the remainder are INACTIVE — registers and shared memory stay resident,
  but they own no PC/SIMT-stack/scheduler entries.
* **Swapping**: when every warp of an active CTA is blocked on a
  long-latency (global-memory) stall, a context switch saves the CTA's
  small scheduling state to backup SRAM and installs a *ready* inactive
  CTA in its place.  Because the bulky state never moves, the switch costs
  a handful of cycles (``vt_swap_out/in_base + per_warp × warps``).

The swap engine is modeled as a single per-SM unit: one context switch in
flight at a time, with save and restore phases serialized.
"""

from __future__ import annotations

from repro.core.policies import SELECT_POLICIES, TRIGGER_POLICIES
from repro.sim.cta import ACTIVE, CTA, INACTIVE, CTAState
from repro.sim.ctamanager import FOREVER, CTAManagerBase
from repro.sim.schedulers import arm_cta


class VirtualThreadManager(CTAManagerBase):
    """CTA residency manager implementing Virtual Thread."""

    def __init__(self, cfg, stats):
        super().__init__(cfg, stats)
        self._trigger = TRIGGER_POLICIES[cfg.vt_trigger_policy]
        self._select = SELECT_POLICIES[cfg.vt_select_policy]
        # Swap engine state: at most one context switch in flight.
        self._swap_victim: CTA | None = None
        self._swap_incoming: CTA | None = None
        self._swap_phase_end = 0
        # active_limit memo: (kernel, limit) of the last kernel asked about.
        self._limit_memo: tuple[object, int] | None = None

    # -- limits -------------------------------------------------------------------

    def active_limit(self, kernel) -> int:
        """Scheduling-limit CTA count for this kernel (max ACTIVE CTAs)."""
        memo = self._limit_memo
        if memo is not None and memo[0] is kernel:
            return memo[1]
        cfg = self.cfg
        per_warps = cfg.max_warps_per_sm // kernel.warps_per_cta()
        per_threads = cfg.max_threads_per_sm // kernel.threads_per_cta
        limit = max(1, min(cfg.max_ctas_per_sm, per_warps, per_threads))
        self._limit_memo = (kernel, limit)
        return limit

    def resident_limit(self, kernel) -> int:
        """Backup-slot provisioning cap on total resident (virtual) CTAs."""
        return max(1, int(self.cfg.vt_max_resident_multiplier * self.active_limit(kernel)))

    # -- admission -----------------------------------------------------------------

    def can_accept(self, kernel) -> bool:
        return (
            self.resources.capacity_fits(kernel)
            and len(self.resident) < self.resident_limit(kernel)
        )

    def on_assign(self, cta: CTA, now: int) -> None:
        super().on_assign(cta, now)
        if self.active_cta_count > self.active_limit(cta.kernel):
            self._set_state(cta, CTAState.INACTIVE)
            cta.became_inactive_at = now

    def on_cta_finish(self, cta: CTA, now: int) -> None:
        if cta is self._swap_victim or cta is self._swap_incoming:
            # Defensive: a CTA in the swap engine cannot retire (it cannot
            # issue), but keep the invariant explicit.
            raise RuntimeError("CTA finished while being context-switched")
        super().on_cta_finish(cta, now)

    # -- per-cycle swap engine -------------------------------------------------------

    def swap_in_flight(self) -> bool:
        return self._swap_victim is not None or self._swap_incoming is not None

    def next_event(self, now: int) -> int:
        """Earliest future cycle at which :meth:`update` would act, given
        that no warp issues anywhere before it.

        Three horizons exist (see the next-event contract in
        docs/ARCHITECTURE.md):

        * a context switch in flight finishes its current phase at
          ``_swap_phase_end`` (until then ``update`` only accrues one
          ``swap_busy_cycles`` per cycle, which the fast-forward engine
          bulk-credits);
        * an INACTIVE CTA becomes ready for activation when its earliest
          non-barrier warp's outstanding global load completes
          (:meth:`ready_at`) — that can enable both a slot fill and a
          pending trigger swap;
        * under the ``timeout`` trigger policy, a fully-stalled ACTIVE CTA
          fires at ``stall_since + vt_trigger_timeout`` even though no warp
          status changes.

        All other trigger/selection inputs are pure functions of warp
        statuses, and every status change is already an SM-level event.
        """
        if self._swap_victim is not None or self._swap_incoming is not None:
            return self._swap_phase_end
        event = FOREVER
        timeout_trigger = self.cfg.vt_trigger_policy == "timeout"
        if not (self.inactive_cta_count or timeout_trigger):
            return event
        timeout = self.cfg.vt_trigger_timeout
        for cta in self.resident:
            if cta.state is INACTIVE:
                ready_at = self.ready_at(cta)
                if now < ready_at < event:
                    event = ready_at
            elif (timeout_trigger and cta.state is ACTIVE
                  and cta.stall_since is not None):
                fire_at = cta.stall_since + timeout
                if now < fire_at < event:
                    event = fire_at
        return event

    def ready_at(self, cta: CTA) -> int:
        """First cycle at which the INACTIVE ``cta`` is ready for activation
        (``cta.ready_for_activation(now)`` is ``now >= ready_at(cta)``):
        the min over its unfinished, non-barrier warps of the outstanding
        global-load completion, ``FOREVER`` if it has no such warp.

        An INACTIVE CTA's warps cannot issue, so none of those inputs
        moves until the CTA is activated: the cycle is memoised on the
        first query after the INACTIVE transition (which drops the memo,
        see ``_set_state``), and the parallel engine's completion patch,
        which rewrites ``mem_pending_until``, drops it too."""
        ready = cta.activation_at
        if ready is None:
            ready = FOREVER
            for warp in cta.warps:
                if warp.finished or warp.at_barrier:
                    continue
                pending_until = warp.scoreboard.mem_pending_until()
                if pending_until < ready:
                    ready = pending_until
            cta.activation_at = ready
        return ready

    def update(self, now: int, warp_status) -> None:
        if self._swap_victim is not None or self._swap_incoming is not None:
            self._advance_swap(now)
            return
        self._fill_empty_active_slots(now)
        if self._swap_victim is None and self._swap_incoming is None:
            self._check_triggers(now, warp_status)

    def _advance_swap(self, now: int) -> None:
        if now < self._swap_phase_end:
            self.stats.swap_busy_cycles += 1
            return
        if self._swap_victim is not None:
            # Save phase done: victim's scheduling state is in backup SRAM.
            victim = self._swap_victim
            self._set_state(victim, CTAState.INACTIVE)
            victim.became_inactive_at = now
            victim.stall_since = None
            self._swap_victim = None
            if self.faults is not None and self.faults.corrupt_swap(
                    self.sm_id, now, victim.cta_id):
                # Injected fault: the backup-SRAM valid bit flips and the
                # victim reappears ACTIVE without a SWAP_IN restore — an
                # illegal state-machine edge the sanitizer must catch.
                self._set_state(victim, CTAState.ACTIVE)
                arm_cta(victim)
            if self._swap_incoming is not None:
                incoming = self._swap_incoming
                self._set_state(incoming, CTAState.SWAP_IN)
                _save, restore = self.cfg.vt_swap_cycles_for(incoming.num_warps)
                self._swap_phase_end = now + restore
                self.stats.swap_busy_cycles += 1
                return
        if self._swap_incoming is not None:
            incoming = self._swap_incoming
            self._set_state(incoming, CTAState.ACTIVE)
            for warp in incoming.warps:
                warp.status_until = -1
            self._swap_incoming = None
            arm_cta(incoming)  # back in the schedulers' ready sets

    def _fill_empty_active_slots(self, now: int) -> None:
        """Promote a ready inactive CTA when an active slot is free (a CTA
        retired, or startup left slots empty)."""
        if not self.inactive_cta_count:
            return  # no candidate; this evaluates no warp status either
        limit = self.active_limit(self.resident[0].kernel)
        if self.active_cta_count >= limit:
            return
        candidates = [
            c for c in self.resident
            if c.state is INACTIVE and now >= self.ready_at(c)
        ]
        if not candidates:
            return
        incoming = self._select(candidates, now)
        self._set_state(incoming, CTAState.SWAP_IN)
        _save, restore = self.cfg.vt_swap_cycles_for(incoming.num_warps)
        self._swap_incoming = incoming
        self._swap_phase_end = now + restore

    def _check_triggers(self, now: int, warp_status) -> None:
        inactive_ready = None
        for cta in self.resident:
            if cta.state is not ACTIVE or now < cta.start_cycle:
                continue
            if not self._trigger(cta, warp_status, now, self.cfg):
                continue
            if inactive_ready is None:
                inactive_ready = [
                    c for c in self.resident
                    if c.state is INACTIVE and now >= self.ready_at(c)
                ]
            if not inactive_ready:
                return
            incoming = self._select(inactive_ready, now)
            self._begin_swap(cta, incoming, now)
            return

    def _begin_swap(self, victim: CTA, incoming: CTA, now: int) -> None:
        self._set_state(victim, CTAState.SWAP_OUT)
        victim.times_swapped_out += 1
        save, _restore = self.cfg.vt_swap_cycles_for(victim.num_warps)
        self._swap_victim = victim
        self._swap_incoming = incoming
        self._swap_phase_end = now + save
        self.stats.swaps += 1
        self.stats.swap_busy_cycles += 1
