"""VirtualThreadManager unit tests: admission, activation, the swap engine."""

import pytest

from repro.core.vt import VirtualThreadManager
from repro.isa.kernel import KernelBuilder
from repro.sim.config import GPUConfig
from repro.sim.cta import CTA, CTAState
from repro.sim.smcore import ST_ALU, ST_FINISHED, ST_MEM, ST_READY
from repro.sim.stats import SMStats


def make_kernel(threads=64, regs=16, smem=0):
    b = KernelBuilder("k", regs_per_thread=regs, smem_bytes=smem, cta_dim=(threads, 1, 1))
    b.exit()
    return b.build()


def make_manager(cfg=None):
    return VirtualThreadManager(cfg or GPUConfig(), SMStats())


def make_cta(kernel, cta_id=0):
    return CTA(cta_id, kernel, (64, 1, 1), (), GPUConfig(), 0)


def fill(manager, kernel):
    count = 0
    while manager.can_accept(kernel):
        manager.on_assign(make_cta(kernel, count), 0)
        count += 1
        assert count < 1000
    return count


def status_all(code):
    return lambda warp: code


def test_active_limit_matches_scheduling_limit():
    manager = make_manager()
    assert manager.active_limit(make_kernel(threads=64)) == 8  # CTA slots
    assert manager.active_limit(make_kernel(threads=512)) == 3  # warp slots


def test_admission_beyond_scheduling_limit():
    manager = make_manager()
    kernel = make_kernel(threads=64, regs=16)  # capacity allows 32
    count = fill(manager, kernel)
    assert count == 32  # min(capacity 32, multiplier 4x8=32)
    assert manager.active_cta_count == 8
    inactive = [c for c in manager.resident if c.state is CTAState.INACTIVE]
    assert len(inactive) == 24


def test_admission_respects_capacity():
    manager = make_manager()
    kernel = make_kernel(threads=256, regs=40)  # capacity-limited: 3 CTAs
    assert fill(manager, kernel) == 3
    assert manager.active_cta_count == 3


def test_admission_respects_multiplier_cap():
    manager = make_manager(GPUConfig().with_(vt_max_resident_multiplier=1.5))
    kernel = make_kernel(threads=64, regs=8)
    assert fill(manager, kernel) == 12  # 1.5 x 8


def test_swap_sequence():
    cfg = GPUConfig()
    manager = make_manager(cfg)
    kernel = make_kernel(threads=64)  # 2 warps -> save 4, restore 4 cycles
    fill(manager, kernel)
    victim = next(c for c in manager.resident if c.state is CTAState.ACTIVE)
    # All warps of every active CTA long-latency stalled.
    manager.update(0, status_all(ST_MEM))
    assert manager.stats.swaps == 1
    swapping = [c for c in manager.resident if c.state is CTAState.SWAP_OUT]
    assert swapping == [victim]
    incoming = manager._swap_incoming
    assert incoming.state is CTAState.INACTIVE  # not restoring yet
    # Advance past the save phase.
    save, restore = cfg.vt_swap_cycles_for(2)
    manager.update(save, status_all(ST_MEM))
    assert victim.state is CTAState.INACTIVE
    assert incoming.state is CTAState.SWAP_IN
    # Advance past the restore phase.
    manager.update(save + restore, status_all(ST_MEM))
    assert incoming.state is CTAState.ACTIVE
    assert manager.active_cta_count == 8


def test_no_swap_without_ready_inactive():
    manager = make_manager()
    kernel = make_kernel(threads=64)
    fill(manager, kernel)
    # Make every inactive CTA un-ready (pending global loads).
    for cta in manager.resident:
        if cta.state is CTAState.INACTIVE:
            for w in cta.warps:
                w.scoreboard.set_pending(0, ready_cycle=10**6, is_global=True)
    manager.update(0, status_all(ST_MEM))
    assert manager.stats.swaps == 0


def test_no_swap_when_some_warp_runnable():
    manager = make_manager()
    fill(manager, make_kernel(threads=64))

    def status(warp):
        return ST_READY if warp.local_wid == 0 else ST_MEM

    manager.update(0, status)
    assert manager.stats.swaps == 0


def test_alu_stall_does_not_trigger():
    manager = make_manager()
    fill(manager, make_kernel(threads=64))
    manager.update(0, status_all(ST_ALU))
    assert manager.stats.swaps == 0


def test_promotion_when_active_slot_frees():
    manager = make_manager()
    kernel = make_kernel(threads=64)
    fill(manager, kernel)
    active = next(c for c in manager.resident if c.state is CTAState.ACTIVE)
    for w in active.warps:
        w.do_exit()
    manager.on_cta_finish(active, now=10)
    assert manager.active_cta_count == 7
    manager.update(11, status_all(ST_READY))
    promoted = [c for c in manager.resident if c.state is CTAState.SWAP_IN]
    assert len(promoted) == 1
    _save, restore = GPUConfig().vt_swap_cycles_for(2)
    manager.update(11 + restore, status_all(ST_READY))
    assert manager.active_cta_count == 8


def test_single_swap_engine():
    manager = make_manager()
    fill(manager, make_kernel(threads=64))
    manager.update(0, status_all(ST_MEM))
    swaps_after_first = manager.stats.swaps
    manager.update(1, status_all(ST_MEM))  # engine busy: no second swap
    assert manager.stats.swaps == swaps_after_first == 1


def test_invariants_hold_through_swaps():
    # The scheduling limit (one in-flight switch may add a CTA) and the
    # register-file and shared-memory capacity, checked after every update.
    cfg = GPUConfig()
    manager = make_manager(cfg)
    kernel = make_kernel(threads=64)
    fill(manager, kernel)
    limit = manager.active_limit(kernel)
    scheduled = (CTAState.ACTIVE, CTAState.SWAP_OUT, CTAState.SWAP_IN)
    for now in range(0, 60):
        manager.update(now, status_all(ST_MEM))
        holding = [c for c in manager.resident if c.state in scheduled]
        assert len(holding) <= limit + 1
        assert sum(c.num_warps for c in holding
                   if c.state is CTAState.ACTIVE) <= cfg.max_warps_per_sm
        assert manager.resources.regs_used <= cfg.registers_per_sm
        assert manager.resources.smem_used <= cfg.smem_per_sm
    assert manager.stats.swaps > 1


def test_finish_during_swap_is_defensive_error():
    manager = make_manager()
    fill(manager, make_kernel(threads=64))
    manager.update(0, status_all(ST_MEM))
    victim = manager._swap_victim
    with pytest.raises(RuntimeError, match="context-switched"):
        manager.on_cta_finish(victim, 1)


def test_oldest_ready_selection_order():
    manager = make_manager()
    kernel = make_kernel(threads=64)
    fill(manager, kernel)
    inactive = [c for c in manager.resident if c.state is CTAState.INACTIVE]
    # Stamp distinct deactivation times; oldest must win.
    for i, cta in enumerate(inactive):
        cta.became_inactive_at = 100 - i
    manager.update(0, status_all(ST_MEM))
    assert manager._swap_incoming is inactive[-1]
