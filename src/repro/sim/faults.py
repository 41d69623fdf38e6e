"""Deterministic fault injection for robustness testing.

A :class:`FaultPlan` describes *when* and *where* the simulator should
misbehave: delay or drop global-memory fill responses, corrupt the Virtual
Thread swap state machine, or freeze a chosen warp.  Plans are seeded and
counter-driven, so the same plan against the same workload injects the
same faults on every run — a failing fault test reproduces exactly.

Faults exist to prove the detection machinery works: each failure class
must be caught by the invariant sanitizer (:mod:`repro.sim.sanitizer`) or
the progress watchdog in :meth:`repro.sim.gpu.GPU.launch`, never by a
silent hang or a corrupted result.  Delayed responses are the exception —
they model a slow but functioning memory system, and the simulator must
absorb them gracefully (the warp simply waits longer for its fill).

Injection points:

* :meth:`FaultPlan.filter_fill` — called by the L1 on every miss fill;
  may add latency or return :data:`NEVER` (the response is lost).
* :meth:`FaultPlan.corrupt_swap` — polled by the VT swap engine after
  each completed save phase; ``True`` resurrects the victim CTA to
  ``ACTIVE`` without a restore, an illegal state-machine edge.
* :meth:`FaultPlan.warp_stalled` — consulted by the SM issue logic; a
  matching warp is unissuable from ``stall_at_cycle`` onwards
  (:meth:`FaultPlan.pins` keeps it in its scheduler's ready set).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: Completion cycle of a response that will never arrive.  Far beyond any
#: reachable simulation cycle, and far beyond ``max_pending_latency``, so
#: the sanitizer flags it as a leak the cycle it is recorded.
NEVER = 1 << 60


@dataclass
class FaultEvent:
    """One injected fault occurrence (for test assertions and reports)."""

    cycle: int
    kind: str  # "delay-response" | "drop-response" | "corrupt-swap" | "stall-warp"
    detail: str

    def __str__(self) -> str:
        return f"@{self.cycle} {self.kind}: {self.detail}"


@dataclass
class FaultPlan:
    """A seeded, deterministic schedule of injected faults.

    All triggers are counter-based (every Nth fill, the Nth swap), so the
    plan is reproducible; ``delay_jitter`` draws from a ``random.Random``
    seeded with ``seed`` and stays deterministic too.
    """

    seed: int = 0
    #: Delay every Nth global-memory fill (0 disables).
    delay_every: int = 0
    #: Extra cycles added to a delayed fill.
    delay_cycles: int = 200
    #: Optional extra uniform jitter in [0, delay_jitter) on delayed fills.
    delay_jitter: int = 0
    #: Drop the Nth global-memory fill entirely (1-based; 0 disables).
    drop_nth: int = 0
    #: Corrupt the VT swap state machine after the Nth completed save
    #: phase (1-based; 0 disables).
    corrupt_swap_nth: int = 0
    #: Freeze one warp: (sm_id, cta_id, local_warp_id), or None.
    stall_warp: tuple[int, int, int] | None = None
    #: First cycle at which the stalled warp stops issuing.
    stall_at_cycle: int = 0

    events: list[FaultEvent] = field(default_factory=list, repr=False)

    def __post_init__(self):
        self._rng = random.Random(self.seed)
        self._fills = 0
        self._swaps = 0

    # -- injection hooks ---------------------------------------------------

    def filter_fill(self, sm_id: int, line_addr: int, now: int, completion: int) -> int:
        """Possibly delay or drop the fill for ``line_addr``; returns the
        (possibly altered) completion cycle."""
        self._fills += 1
        if self.drop_nth and self._fills == self.drop_nth:
            self.events.append(FaultEvent(
                now, "drop-response",
                f"sm{sm_id} line 0x{line_addr:x}: fill will never return"))
            return NEVER
        if self.delay_every and self._fills % self.delay_every == 0:
            extra = self.delay_cycles
            if self.delay_jitter:
                extra += self._rng.randrange(self.delay_jitter)
            self.events.append(FaultEvent(
                now, "delay-response",
                f"sm{sm_id} line 0x{line_addr:x}: +{extra} cycles"))
            return completion + extra
        return completion

    def corrupt_swap(self, sm_id: int, now: int, cta_id: int) -> bool:
        """Whether to corrupt the swap whose save phase just completed."""
        self._swaps += 1
        if self.corrupt_swap_nth and self._swaps == self.corrupt_swap_nth:
            self.events.append(FaultEvent(
                now, "corrupt-swap",
                f"sm{sm_id} cta {cta_id}: victim resurrected ACTIVE without restore"))
            return True
        return False

    def pins(self, sm_id: int, warp) -> bool:
        """Whether ``warp`` is the one this plan freezes (at any cycle).

        The SM keeps that warp in its scheduler's ready set for the whole
        run, so :meth:`warp_stalled` is consulted every cycle a scheduler
        walk reaches the warp and the ``stall-warp`` event is logged at the
        same cycle as by a walk over every resident warp."""
        spec = self.stall_warp
        return (spec is not None and sm_id == spec[0]
                and warp.cta.cta_id == spec[1] and warp.local_wid == spec[2])

    def warp_stalled(self, sm_id: int, warp, now: int) -> bool:
        """Whether ``warp`` is frozen by this plan at ``now``."""
        spec = self.stall_warp
        if spec is None or now < self.stall_at_cycle:
            return False
        if sm_id != spec[0] or warp.cta.cta_id != spec[1] or warp.local_wid != spec[2]:
            return False
        if not self.events or self.events[-1].kind != "stall-warp":
            self.events.append(FaultEvent(
                now, "stall-warp", f"sm{sm_id} cta {spec[1]} warp {spec[2]} frozen"))
        return True
