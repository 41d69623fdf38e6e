"""Baseline and ideal-sched CTA managers: admission and accounting."""

from repro.isa.kernel import KernelBuilder
from repro.sim.config import GPUConfig
from repro.sim.cta import CTA
from repro.sim.ctamanager import BaselineManager, IdealSchedManager, ResourceAccounting
from repro.sim.stats import SMStats


def make_kernel(threads=64, regs=16, smem=0):
    b = KernelBuilder("k", regs_per_thread=regs, smem_bytes=smem, cta_dim=(threads, 1, 1))
    b.exit()
    return b.build()


def make_cta(kernel, cta_id=0):
    return CTA(cta_id, kernel, (64, 1, 1), (), GPUConfig(), 0)


def fill(manager, kernel, now=0):
    count = 0
    while manager.can_accept(kernel):
        manager.on_assign(make_cta(kernel, count), now)
        count += 1
        assert count < 1000
    return count


def test_accounting_charge_release():
    acc = ResourceAccounting(GPUConfig())
    kernel = make_kernel(threads=64, regs=16, smem=512)
    acc.charge(kernel)
    assert acc.regs_used == 1024
    assert acc.smem_used == 512
    assert acc.warps_used == 2
    assert acc.threads_used == 64
    acc.release(make_cta(kernel))
    assert (acc.regs_used, acc.smem_used, acc.warps_used, acc.threads_used) == (0, 0, 0, 0)


def test_footprint_follows_the_kernel_asked_about():
    # The per-kernel footprint memo must not answer for another kernel.
    acc = ResourceAccounting(GPUConfig())
    small = make_kernel(threads=64, regs=16, smem=512)
    big = make_kernel(threads=256, regs=32, smem=4096)
    assert acc.footprint(small) == (1024, 512, 2, 64)
    assert acc.footprint(big) == (8192, 4096, 8, 256)
    acc.charge(small)
    acc.charge(big)
    acc.release(make_cta(small))
    assert (acc.regs_used, acc.smem_used, acc.warps_used, acc.threads_used) == \
        (8192, 4096, 8, 256)


def test_baseline_stops_at_cta_slots():
    manager = BaselineManager(GPUConfig(), SMStats())
    assert fill(manager, make_kernel(threads=64, regs=16)) == 8  # CTA slots


def test_baseline_stops_at_warp_slots():
    manager = BaselineManager(GPUConfig(), SMStats())
    # 512 threads = 16 warps/CTA -> 3 CTAs by warp slots.
    assert fill(manager, make_kernel(threads=512, regs=8)) == 3


def test_baseline_stops_at_registers():
    manager = BaselineManager(GPUConfig(), SMStats())
    assert fill(manager, make_kernel(threads=256, regs=40)) == 3


def test_baseline_stops_at_smem():
    manager = BaselineManager(GPUConfig(), SMStats())
    assert fill(manager, make_kernel(threads=64, regs=8, smem=16384)) == 3


def test_ideal_ignores_scheduling_limits():
    manager = IdealSchedManager(GPUConfig(), SMStats())
    # Scheduling-limited kernel: ideal admits to the register limit (32).
    assert fill(manager, make_kernel(threads=64, regs=16)) == 32


def test_ideal_still_respects_capacity():
    manager = IdealSchedManager(GPUConfig(), SMStats())
    assert fill(manager, make_kernel(threads=256, regs=40)) == 3


def test_finish_frees_resources():
    manager = BaselineManager(GPUConfig(), SMStats())
    kernel = make_kernel()
    fill(manager, kernel)
    assert not manager.can_accept(kernel)
    manager.on_cta_finish(manager.resident[0], now=100)
    assert manager.can_accept(kernel)
    assert manager.stats.ctas_completed == 1


def test_warp_counts():
    manager = BaselineManager(GPUConfig(), SMStats())
    kernel = make_kernel(threads=64)
    fill(manager, kernel)
    assert manager.resident_warp_count() == 16
    assert manager.schedulable_warp_count(0) == 16
    assert manager.active_cta_count == 8
    # Finished warps drop out of the counts, which sum the CTAs' stored
    # live-warp counts (the SM core counts each exit down in SMCore._issue).
    cta = manager.resident[0]
    for w in cta.warps:
        w.do_exit()
        cta.live_warps -= 1
    assert manager.resident_warp_count() == 14
    assert manager.schedulable_warp_count(0) == 14
