"""Virtual Thread swap policies.

Two decisions are policy-pluggable, mirroring the knobs the paper's design
space offers:

* **Trigger** — when is an active CTA eligible to be swapped out?
  The paper's mechanism swaps "when all the warps in an active CTA hit a
  long latency stall"; ``majority-stalled`` and ``timeout`` are ablation
  variants used by experiment E12.
* **Selection** — which ready inactive CTA is swapped in?  ``oldest-ready``
  (FIFO over time-of-deactivation, the paper-style choice that bounds
  starvation) or ``most-ready`` (most warps immediately runnable).

Policies are pure functions over warp-status summaries so they can be
unit-tested without a simulator.

A trigger walk reads a warp's cached status inline while it is valid at
``now`` (``now < warp.status_until``) and calls ``warp_status`` only when
that would recompute it: the same statuses, evaluated at the same points,
without a call per warp.  The reads must not be replaced by fresh
evaluations: when a status is first evaluated decides its MEM/ALU label
(docs/ARCHITECTURE.md, "When a status is first evaluated matters").
"""

from __future__ import annotations

from repro.sim.smcore import ST_ALU, ST_BARRIER, ST_FINISHED, ST_MEM, ST_READY


def cta_stall_profile(cta, warp_status, now: int) -> tuple[int, int, int]:
    """(#mem-stalled, #otherwise-unfinished, #unfinished) for a CTA at
    ``now``.

    ``warp_status`` maps a warp to its status code.  Warps parked at a
    barrier count as mem-stalled *followers*: they cannot run until the
    stragglers (which are mem-stalled when this matters) arrive.
    """
    mem = other = unfinished = 0
    for warp in cta.warps:
        if now < warp.status_until:
            status = warp.cached_status
        else:
            status = warp_status(warp)
        if status == ST_FINISHED:
            continue
        unfinished += 1
        if status in (ST_MEM, ST_BARRIER):
            mem += 1
        else:
            other += 1
    return mem, other, unfinished


def _has_true_mem_stall(cta, warp_status, now: int) -> bool:
    for warp in cta.warps:
        if now < warp.status_until:
            status = warp.cached_status
        else:
            status = warp_status(warp)
        if status == ST_MEM:
            return True
    return False


def trigger_all_stalled(cta, warp_status, now: int, cfg) -> bool:
    """The paper's trigger: every unfinished warp is long-latency stalled
    (or barrier-parked behind one), with at least one true memory stall.

    Returns at the first READY or ALU-blocked warp: an ACTIVE CTA usually
    has one, and the answer is then known without the full profile."""
    any_mem = False
    for warp in cta.warps:
        if now < warp.status_until:
            status = warp.cached_status
        else:
            status = warp_status(warp)
        if status == ST_MEM:
            any_mem = True
        elif status == ST_READY or status == ST_ALU:
            return False
    return any_mem


def trigger_majority_stalled(cta, warp_status, now: int, cfg) -> bool:
    """Ablation: swap as soon as more than half the warps are stalled.

    More eager — swaps away CTAs that still have runnable warps, trading
    issue opportunities for earlier reactivation of fresh CTAs.
    """
    mem, other, unfinished = cta_stall_profile(cta, warp_status, now)
    return (unfinished > 0 and mem * 2 > unfinished
            and _has_true_mem_stall(cta, warp_status, now))


def trigger_timeout(cta, warp_status, now: int, cfg) -> bool:
    """Ablation: the all-stalled condition must persist for
    ``cfg.vt_trigger_timeout`` cycles before a swap fires (hysteresis
    against swapping on stalls that are about to resolve)."""
    if not trigger_all_stalled(cta, warp_status, now, cfg):
        cta.stall_since = None
        return False
    if cta.stall_since is None:
        cta.stall_since = now
        return False
    return now - cta.stall_since >= cfg.vt_trigger_timeout


def select_oldest_ready(candidates, now: int):
    """FIFO over deactivation time: bounds starvation (paper-style)."""
    return min(candidates, key=lambda c: c.became_inactive_at)


def select_most_recent(candidates, now: int):
    """LIFO over deactivation time: cache-locality-aware (extension).

    Re-activating the most recently deactivated CTA keeps the set of CTAs
    touching the L1 over any window small, trading fairness for locality —
    a mitigation for the cache-thrash losses oversubscription causes on
    irregular kernels (see experiment X1).
    """
    return max(candidates, key=lambda c: c.became_inactive_at)


def select_most_ready(candidates, now: int):
    """Most immediately runnable warps first."""

    def runnable(cta) -> int:
        return sum(
            1
            for w in cta.warps
            if not w.finished and not w.at_barrier and not w.scoreboard.has_mem_pending(now)
        )

    return max(candidates, key=runnable)


TRIGGER_POLICIES = {
    "all-stalled": trigger_all_stalled,
    "majority-stalled": trigger_majority_stalled,
    "timeout": trigger_timeout,
}

SELECT_POLICIES = {
    "oldest-ready": select_oldest_ready,
    "most-ready": select_most_ready,
    "most-recent": select_most_recent,
}
