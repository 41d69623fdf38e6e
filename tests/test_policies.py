"""Swap trigger/selection policies over synthetic warp statuses."""

import pytest

from repro.core.policies import (
    SELECT_POLICIES,
    TRIGGER_POLICIES,
    cta_stall_profile,
    select_most_ready,
    select_oldest_ready,
    trigger_all_stalled,
    trigger_majority_stalled,
    trigger_timeout,
)
from repro.isa.kernel import KernelBuilder
from repro.sim.config import GPUConfig
from repro.sim.cta import CTA
from repro.sim.smcore import ST_ALU, ST_BARRIER, ST_FINISHED, ST_MEM, ST_READY


def make_cta(num_warps=4, cta_id=0):
    b = KernelBuilder("k", regs_per_thread=8, cta_dim=(num_warps * 32, 1, 1))
    b.exit()
    kernel = b.build()
    return CTA(cta_id, kernel, (1, 1, 1), (), GPUConfig(), 0)


def by_wid(statuses):
    return lambda warp: statuses[warp.local_wid]


CFG = GPUConfig()


def test_stall_profile_counts():
    cta = make_cta(4)
    status = by_wid([ST_MEM, ST_BARRIER, ST_READY, ST_FINISHED])
    assert cta_stall_profile(cta, status, 0) == (2, 1, 3)


def test_all_stalled_fires_only_when_unanimous():
    cta = make_cta(3)
    assert trigger_all_stalled(cta, by_wid([ST_MEM, ST_MEM, ST_MEM]), 0, CFG)
    assert not trigger_all_stalled(cta, by_wid([ST_MEM, ST_MEM, ST_READY]), 0, CFG)
    assert not trigger_all_stalled(cta, by_wid([ST_MEM, ST_MEM, ST_ALU]), 0, CFG)


def test_all_stalled_counts_barrier_followers():
    cta = make_cta(3)
    assert trigger_all_stalled(cta, by_wid([ST_MEM, ST_BARRIER, ST_BARRIER]), 0, CFG)


def test_all_stalled_requires_a_true_memory_stall():
    # All at a barrier with nobody memory-stalled: the barrier is about to
    # release; swapping would be pure overhead.
    cta = make_cta(3)
    assert not trigger_all_stalled(cta, by_wid([ST_BARRIER] * 3), 0, CFG)


def test_all_stalled_ignores_finished_warps():
    cta = make_cta(3)
    assert trigger_all_stalled(cta, by_wid([ST_MEM, ST_FINISHED, ST_MEM]), 0, CFG)


def test_all_stalled_fully_finished_cta_never_triggers():
    cta = make_cta(2)
    assert not trigger_all_stalled(cta, by_wid([ST_FINISHED, ST_FINISHED]), 0, CFG)


def test_majority_stalled():
    cta = make_cta(4)
    assert trigger_majority_stalled(cta, by_wid([ST_MEM, ST_MEM, ST_MEM, ST_READY]), 0, CFG)
    assert not trigger_majority_stalled(cta, by_wid([ST_MEM, ST_MEM, ST_READY, ST_READY]), 0, CFG)


def test_timeout_requires_persistence():
    cfg = GPUConfig().with_(vt_trigger_timeout=10)
    cta = make_cta(2)
    stalled = by_wid([ST_MEM, ST_MEM])
    assert not trigger_timeout(cta, stalled, 0, cfg)  # arms the timer
    assert not trigger_timeout(cta, stalled, 5, cfg)
    assert trigger_timeout(cta, stalled, 10, cfg)


def test_timeout_resets_when_stall_clears():
    cfg = GPUConfig().with_(vt_trigger_timeout=10)
    cta = make_cta(2)
    trigger_timeout(cta, by_wid([ST_MEM, ST_MEM]), 0, cfg)
    trigger_timeout(cta, by_wid([ST_READY, ST_MEM]), 5, cfg)  # clears
    assert cta.stall_since is None
    assert not trigger_timeout(cta, by_wid([ST_MEM, ST_MEM]), 12, cfg)


def test_select_oldest_ready():
    a, b = make_cta(cta_id=0), make_cta(cta_id=1)
    a.became_inactive_at = 50
    b.became_inactive_at = 20
    assert select_oldest_ready([a, b], now=100) is b


def test_select_most_recent_is_lifo():
    a, b = make_cta(cta_id=0), make_cta(cta_id=1)
    a.became_inactive_at = 50
    b.became_inactive_at = 20
    from repro.core.policies import select_most_recent
    assert select_most_recent([a, b], now=100) is a


def test_select_most_ready():
    a, b = make_cta(2, cta_id=0), make_cta(2, cta_id=1)
    # a: one warp blocked on memory; b: both runnable.
    a.warps[0].scoreboard.set_pending(0, ready_cycle=10**6, is_global=True)
    assert select_most_ready([a, b], now=0) is b


def test_registries_cover_config_choices():
    assert set(TRIGGER_POLICIES) == {"all-stalled", "majority-stalled", "timeout"}
    assert set(SELECT_POLICIES) == {"oldest-ready", "most-ready", "most-recent"}
