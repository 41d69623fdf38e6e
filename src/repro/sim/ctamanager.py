"""CTA residency managers: baseline and ideal-scheduling architectures.

A manager decides (a) whether the SM can accept one more CTA of a kernel,
and (b) which resident CTAs are allowed to use the warp schedulers.  The
baseline enforces both the scheduling limit and the capacity limit; the
*ideal-sched* variant models scheduling structures enlarged to the
capacity limit at zero cost (the paper's upper bound).  The Virtual Thread
manager lives with the paper's contribution in :mod:`repro.core.vt`.
"""

from __future__ import annotations

from repro.sim.cta import ACTIVE, CTA, FOREVER, INACTIVE, CTAState


class ResourceAccounting:
    """Per-SM register/shared-memory/warp-slot bookkeeping."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.regs_used = 0
        self.smem_used = 0
        self.warps_used = 0
        self.threads_used = 0
        self._footprint_memo = (None, None)

    def footprint(self, kernel) -> tuple[int, int, int, int]:
        """``(regs, smem, warps, threads)`` one CTA of ``kernel`` occupies,
        computed once per kernel (a launch asks about one kernel throughout)."""
        if self._footprint_memo[0] is not kernel:
            threads = kernel.threads_per_cta
            self._footprint_memo = (kernel, (
                kernel.regs_per_thread * threads, kernel.smem_bytes,
                kernel.warps_per_cta(self.cfg.warp_size), threads))
        return self._footprint_memo[1]

    def charge(self, kernel, sign: int = 1) -> None:
        """Book one CTA of ``kernel`` (``sign=-1`` releases one)."""
        regs, smem, warps, threads = self.footprint(kernel)
        self.regs_used += sign * regs
        self.smem_used += sign * smem
        self.warps_used += sign * warps
        self.threads_used += sign * threads

    def release(self, cta: CTA) -> None:
        self.charge(cta.kernel, -1)

    def capacity_fits(self, kernel) -> bool:
        """The paper's *capacity limit*: register file + shared memory."""
        regs, smem, _warps, _threads = self.footprint(kernel)
        return (self.regs_used + regs <= self.cfg.registers_per_sm
                and self.smem_used + smem <= self.cfg.smem_per_sm)

    def sched_fits(self, kernel, resident_ctas: int) -> bool:
        """The paper's *scheduling limit*: CTA slots, warp slots, threads."""
        cfg = self.cfg
        _regs, _smem, warps, threads = self.footprint(kernel)
        return (
            resident_ctas < cfg.max_ctas_per_sm
            and self.warps_used + warps <= cfg.max_warps_per_sm
            and self.threads_used + threads <= cfg.max_threads_per_sm
        )


class CTAManagerBase:
    """Interface shared by baseline, ideal-sched and VT managers."""

    def __init__(self, cfg, stats):
        self.cfg = cfg
        self.stats = stats
        self.resources = ResourceAccounting(cfg)
        self.resident: list[CTA] = []
        # Resident CTAs in state ACTIVE and INACTIVE, kept on every state
        # transition (:meth:`_set_state`) rather than recounted per cycle.
        self.active_cta_count = 0
        self.inactive_cta_count = 0
        self.faults = None  # optional FaultPlan, attached by the SM core
        self.sm_id = -1  # set by the owning SM core

    # -- admission ---------------------------------------------------------------

    def can_accept(self, kernel) -> bool:
        raise NotImplementedError

    def on_assign(self, cta: CTA, now: int) -> None:
        self.resources.charge(cta.kernel)
        self.resident.append(cta)
        if cta.state is ACTIVE:
            self.active_cta_count += 1

    def on_cta_finish(self, cta: CTA, now: int) -> None:
        self._set_state(cta, CTAState.FINISHED)
        self.resources.release(cta)
        self.resident.remove(cta)
        self.stats.ctas_completed += 1

    # -- per-cycle hooks -----------------------------------------------------------

    def update(self, now: int, warp_status) -> None:
        """Called once per cycle before issue; ``warp_status(warp)`` returns
        the cached status code (see :mod:`repro.sim.smcore`)."""

    def next_event(self, now: int) -> int:
        """Earliest future cycle at which this manager, given that no warp
        issues anywhere before it, would do anything observable in
        :meth:`update` (state transition, swap-busy accounting, promotion).

        The base managers are purely reactive — their ``update`` is a
        no-op — so they never schedule an event.  The fast-forward engine
        (:meth:`repro.sim.gpu.GPU.launch`) folds this horizon into the SM's
        next-event cycle; returning an *earlier* cycle than necessary is
        merely a wasted wake-up, returning a *later* one breaks the
        byte-identical-stats guarantee.
        """
        return FOREVER

    def swap_in_flight(self) -> bool:
        """Whether a context switch is busy (always False without VT);
        counts as forward progress for the deadlock watchdog."""
        return False

    def _set_state(self, cta: CTA, state: CTAState) -> None:
        """Move a resident CTA to ``state``, keeping ``active_cta_count``
        and ``inactive_cta_count`` (and dropping the CTA's
        activation-readiness memo when it turns INACTIVE: the memo is taken
        on the first query after that)."""
        prev = cta.state
        if prev is ACTIVE:
            self.active_cta_count -= 1
        elif prev is INACTIVE:
            self.inactive_cta_count -= 1
        if state is ACTIVE:
            self.active_cta_count += 1
        elif state is INACTIVE:
            self.inactive_cta_count += 1
            cta.activation_at = None
        cta.state = state

    # -- occupancy reporting ---------------------------------------------------

    # Sums of the CTAs' stored ``live_warps`` counts (kept by the SM core).

    def schedulable_warp_count(self, now: int) -> int:
        return sum(cta.live_warps for cta in self.resident
                   if cta.state is ACTIVE and now >= cta.start_cycle)

    def resident_warp_count(self) -> int:
        return sum(cta.live_warps for cta in self.resident)


class BaselineManager(CTAManagerBase):
    """Stock GPU: both scheduling and capacity limits enforced; every
    resident CTA is active."""

    def can_accept(self, kernel) -> bool:
        return self.resources.capacity_fits(kernel) and self.resources.sched_fits(
            kernel, len(self.resident)
        )


class IdealSchedManager(CTAManagerBase):
    """Upper bound: scheduling structures magically enlarged to the capacity
    limit — CTAs are admitted while registers and shared memory fit, and all
    of them are active with no swap cost.

    The thread/warp-slot limits are lifted entirely; only the max-CTA count
    is bounded by a generous multiple to keep the model finite.
    """

    def can_accept(self, kernel) -> bool:
        hard_cap = self.cfg.max_ctas_per_sm * 16
        return self.resources.capacity_fits(kernel) and len(self.resident) < hard_cap
