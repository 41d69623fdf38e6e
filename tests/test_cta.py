"""CTA state: special registers, barrier protocol, VT readiness."""

import numpy as np
import pytest

from repro.isa.instruction import SpecialReg
from repro.isa.kernel import KernelBuilder
from repro.sim.config import GPUConfig
from repro.sim.cta import CTA, CTAState


def make_kernel(threads=64, regs=8, smem=128, dims=None, reads=()):
    """A kernel that reads the special registers ``reads`` and exits."""
    cta_dim = dims or (threads, 1, 1)
    b = KernelBuilder("k", regs_per_thread=regs, smem_bytes=smem, cta_dim=cta_dim)
    for kind in reads:
        b.s2r(0, kind.value)
    b.exit()
    return b.build()


def make_cta(kernel=None, cta_id=3, grid=(8, 1, 1), params=(100.0, 200.0)):
    kernel = kernel or make_kernel(reads=tuple(SpecialReg))
    return CTA(cta_id, kernel, grid, params, GPUConfig(), start_cycle=0)


def test_warp_partitioning():
    cta = make_cta(make_kernel(threads=96))
    assert cta.num_warps == 3
    assert cta.warps[2].live_mask == (1 << 32) - 1


def test_partial_last_warp():
    cta = make_cta(make_kernel(threads=70))
    assert cta.num_warps == 3
    assert cta.warps[2].live_mask == (1 << 6) - 1


def test_special_registers_1d():
    cta = make_cta()
    w1 = cta.warps[1]
    assert list(w1.sregs[SpecialReg.TID_X][:3]) == [32, 33, 34]
    assert w1.sregs[SpecialReg.CTAID_X][0] == 3
    assert w1.sregs[SpecialReg.NTID_X][0] == 64
    assert w1.sregs[SpecialReg.NCTAID_X][0] == 8
    assert w1.sregs[SpecialReg.WARPID][0] == 1
    assert list(w1.sregs[SpecialReg.LANEID][:3]) == [0, 1, 2]


def test_uniform_special_registers_are_shared_read_only():
    """A CTA builds its special registers once, read-only: each warp's
    rows are slices of the CTA's, so a write through one raises rather
    than leaking into another warp."""
    cta = make_cta()
    w0, w1 = cta.warps[0], cta.warps[1]
    for kind in SpecialReg:
        assert w0.sregs[kind].base is w1.sregs[kind].base
        with pytest.raises(ValueError):
            w1.sregs[kind][0] = 5.0


def test_only_the_special_registers_the_kernel_reads_are_built():
    cta = make_cta(make_kernel(reads=(SpecialReg.TID_X, SpecialReg.PARAM1)))
    assert set(cta.warps[0].sregs) == {SpecialReg.TID_X, SpecialReg.PARAM1}
    assert cta.warps[1].sregs[SpecialReg.PARAM1][0] == 200.0


def test_ctaid_follows_the_linear_cta_id():
    cta = make_cta(make_kernel(reads=tuple(SpecialReg)), cta_id=29,
                   grid=(4, 3, 5))
    sregs = cta.warps[1].sregs
    assert [sregs[k][7] for k in (SpecialReg.CTAID_X, SpecialReg.CTAID_Y,
                                  SpecialReg.CTAID_Z)] == [1, 1, 2]


def test_special_registers_2d():
    cta = make_cta(make_kernel(dims=(16, 16, 1), reads=tuple(SpecialReg)))
    w0 = cta.warps[0]
    # Lane 17 = linear tid 17 -> (x=1, y=1).
    assert w0.sregs[SpecialReg.TID_X][17] == 1
    assert w0.sregs[SpecialReg.TID_Y][17] == 1
    assert w0.sregs[SpecialReg.TID_Z][17] == 0


def test_params_padded_with_zero():
    cta = make_cta(params=(7.0,))
    w = cta.warps[0]
    assert w.sregs[SpecialReg.PARAM0][0] == 7.0
    assert w.sregs[SpecialReg.PARAM1][0] == 0.0


def test_resource_footprint():
    cta = make_cta(make_kernel(threads=64, regs=10, smem=256))
    assert cta.regs_needed == 640
    assert cta.smem_needed == 256


def test_barrier_releases_when_all_arrive():
    cta = make_cta()  # 2 warps
    assert not cta.barrier_arrive(cta.warps[0], now=10)
    assert cta.warps[0].at_barrier
    assert cta.barrier_arrive(cta.warps[1], now=12)
    assert not cta.warps[0].at_barrier
    assert cta.warps[0].barrier_wake == 12 + GPUConfig().barrier_release_latency


def test_barrier_ignores_finished_warps():
    cta = make_cta()
    cta.warps[1].do_exit()
    assert cta.barrier_arrive(cta.warps[0], now=5)  # releases immediately


def test_check_barrier_release_on_warp_exit():
    cta = make_cta()
    cta.barrier_arrive(cta.warps[0], now=5)
    cta.warps[1].do_exit()
    assert cta.check_barrier_release(now=9)
    assert not cta.warps[0].at_barrier


def test_finished_property():
    cta = make_cta()
    assert not cta.finished
    for w in cta.warps:
        w.do_exit()
    assert cta.finished


def test_schedulable_now_respects_launch_latency():
    kernel = make_kernel()
    cta = CTA(0, kernel, (1, 1, 1), (), GPUConfig(), start_cycle=20)
    assert not cta.schedulable_now(10)
    assert cta.schedulable_now(20)
    cta.state = CTAState.INACTIVE
    assert not cta.schedulable_now(25)


def test_ready_for_activation():
    cta = make_cta()
    assert cta.ready_for_activation(0)  # fresh CTA: nothing pending
    for w in cta.warps:
        w.scoreboard.set_pending(0, ready_cycle=100, is_global=True)
    assert not cta.ready_for_activation(50)
    assert cta.ready_for_activation(100)  # loads returned
    # A warp parked at a barrier does not make the CTA ready.
    for w in cta.warps:
        w.at_barrier = True
    assert not cta.ready_for_activation(200)
