"""Warp-scheduler policies over per-scheduler ready sets.

Each SM has ``num_warp_schedulers`` schedulers; resident warps are
partitioned among them by warp-slot index.  Every cycle each scheduler
picks at most one issuable warp according to its policy:

* **LRR** — loose round-robin: rotate through warps, issue the first ready.
* **GTO** — greedy-then-oldest: keep issuing the same warp until it stalls,
  then fall back to the oldest (earliest-assigned) ready warp.  This is the
  paper's (and GPGPU-Sim's) default.
* **two-level** — a small active set is scheduled LRR; stalled warps are
  demoted to the pending set and replaced by pending warps.

Schedulers only *order* candidates; issuability is decided by the SM core
via the ``issuable(warp)`` callback so policy code stays timing-agnostic.

**Ready sets.**  Besides ``warps`` (every owned warp, in age order) each
scheduler keeps ``ready``: the owned warps not yet proven unissuable, also
in age order, with ``warp.armed`` as the membership bit.  It is a
*superset* of the issuable warps, so ``pick`` walks its policy order over
``ready`` only and chooses exactly the warp a walk over ``warps`` would.
The SM core (:mod:`repro.sim.smcore`) disarms a warp when it finds it
blocked and arms it again on the event that can unblock it; a warp parked
under a blocked status is counted in its CTA's ``parked`` meanwhile, and
:meth:`SchedulerBase.arm` takes it off that count.  A scheduler
whose ready set is empty cannot issue: the SM calls its :meth:`idle`
instead of ``pick``, which applies only the policy's nothing-issued
bookkeeping (GTO drops its greedy warp, two-level demotes its active set).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter
from typing import Callable, Optional

from repro.sim.warp import Warp

_age = attrgetter("age")


class SchedulerBase:
    """Common bookkeeping: owned warps and their ready set."""

    def __init__(self):
        self.warps: list[Warp] = []
        self.ready: list[Warp] = []
        self._ages = 0

    def add_warp(self, warp: Warp) -> None:
        warp.sched = self
        warp.age = self._ages
        self._ages += 1
        self.warps.append(warp)
        warp.armed = True
        self.ready.append(warp)  # the youngest warp: age order holds

    def remove_warp(self, warp: Warp) -> None:
        self.warps.remove(warp)
        warp.sched = None
        self.disarm(warp)

    def arm(self, warp: Warp) -> None:
        """(Re-)admit ``warp`` to the ready set, taking it off its CTA's
        parked counts (see :meth:`repro.sim.smcore.SMCore._park`)."""
        if not warp.armed:
            warp.armed = True
            insort(self.ready, warp, key=_age)
            if warp.parked:
                cta = warp.cta
                cta.parked[warp.parked] -= 1
                warp.parked = 0
                if warp.status_until <= cta.park_min:
                    # It may have held the minimum (or its horizon was
                    # invalidated since): recompute on the next dead scan.
                    cta.park_min = -1

    def disarm(self, warp: Warp) -> None:
        """Drop ``warp`` from the ready set (it cannot issue yet)."""
        if warp.armed:
            warp.armed = False
            self.ready.remove(warp)

    def idle(self) -> None:
        """What a ``pick`` that finds nothing issuable does to the policy
        state; the SM calls it instead of ``pick`` on an empty ready set."""

    def pick(self, issuable: Callable[[Warp], bool]) -> Optional[Warp]:
        raise NotImplementedError


class LrrScheduler(SchedulerBase):
    """Loose round-robin."""

    def __init__(self):
        super().__init__()
        self._next = 0

    def pick(self, issuable):
        warps = self.warps
        n = len(warps)
        if not n:
            return None
        # The rotation starts at warp slot ``_next``; ready members from
        # that warp's age onwards come first, then the wrapped-around rest.
        ready = self.ready
        split = bisect_left(ready, warps[self._next % n].age, key=_age)
        for warp in ready[split:] + ready[:split]:
            if issuable(warp):
                self._next = (warps.index(warp) + 1) % n
                return warp
        return None


class GtoScheduler(SchedulerBase):
    """Greedy-then-oldest.

    ``self.ready`` is kept in assignment (age) order, so the oldest-first
    fallback is a plain in-order walk.
    """

    def __init__(self):
        super().__init__()
        self._greedy: Optional[Warp] = None

    def remove_warp(self, warp):
        super().remove_warp(warp)
        if self._greedy is warp:
            self._greedy = None

    def idle(self):
        self._greedy = None

    def pick(self, issuable):
        greedy = self._greedy
        if greedy is not None and greedy.armed and issuable(greedy):
            return greedy
        for warp in tuple(self.ready):  # oldest (earliest-assigned) first
            if issuable(warp):
                self._greedy = warp
                return warp
        self._greedy = None
        return None


class TwoLevelScheduler(SchedulerBase):
    """Two-level scheduler with a bounded active set.

    ``_active`` keeps promotion order for the LRR rotation; ``_active_set``
    mirrors it for O(1) membership.
    """

    def __init__(self, active_size: int = 8):
        super().__init__()
        self.active_size = active_size
        self._active: list[Warp] = []
        self._active_set: set[Warp] = set()
        self._next = 0

    def remove_warp(self, warp):
        super().remove_warp(warp)
        if warp in self._active_set:
            self._active.remove(warp)
            self._active_set.discard(warp)

    def idle(self):
        if self._active:
            self._active = []
            self._active_set = set()
        self._next = 0

    def _refill(self, issuable):
        active = self._active
        if len(active) >= self.active_size:
            return
        members = self._active_set
        for warp in tuple(self.ready):
            if warp not in members and issuable(warp):
                active.append(warp)
                members.add(warp)
                if len(active) >= self.active_size:
                    return

    def pick(self, issuable):
        for _attempt in range(2):
            self._refill(issuable)
            active = self._active
            start = self._next
            n = len(active)
            for offset in range(n):
                idx = (start + offset) % n
                warp = active[idx]
                if warp.armed and issuable(warp):
                    self._next = (idx + 1) % n
                    return warp
            # No active warp can issue this cycle: demote them all and
            # retry once so a pending ready warp can be promoted within
            # the same cycle.
            self.idle()
        return None


def arm_cta(cta) -> None:
    """Re-arm every unfinished warp of ``cta`` in its scheduler's ready set
    (barrier release, CTA activation)."""
    for warp in cta.warps:
        if warp.sched is not None and not warp.finished:
            warp.sched.arm(warp)


def make_scheduler(policy: str) -> SchedulerBase:
    """Factory keyed by ``GPUConfig.warp_scheduler``."""
    if policy == "lrr":
        return LrrScheduler()
    if policy == "gto":
        return GtoScheduler()
    if policy == "two-level":
        return TwoLevelScheduler()
    raise ValueError(f"unknown warp scheduler {policy!r}")
