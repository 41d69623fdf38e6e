"""SIMT stack semantics: divergence, reconvergence, exit, partial warps."""

import numpy as np
import pytest

from repro.isa.cfg import EXIT_PC
from repro.sim.warp import FULL_MASK, Warp, array_to_mask, mask_to_array


class _FakeCTA:
    cta_id = 0


def make_warp(live_lanes=32, regs=8):
    return Warp(_FakeCTA(), local_wid=0, regs_per_thread=regs, live_lanes=live_lanes)


def test_mask_array_roundtrip_examples():
    for mask in (0, 1, 0xFFFF_FFFF, 0x8000_0001, 0x0F0F_0F0F):
        assert array_to_mask(mask_to_array(mask)) == mask


def test_initial_state():
    w = make_warp()
    assert w.pc == 0
    assert w.active_mask() == FULL_MASK
    assert not w.finished


def test_partial_warp_masks_dead_lanes():
    w = make_warp(live_lanes=20)
    assert w.active_mask() == (1 << 20) - 1
    assert mask_to_array(w.active_mask()).sum() == 20


def test_advance_increments_pc():
    w = make_warp()
    w.advance()
    assert w.pc == 1


def test_uniform_branch():
    w = make_warp()
    w.branch_uniform(7)
    assert w.pc == 7
    assert w.active_mask() == FULL_MASK


def test_divergence_runs_taken_side_first_then_reconverges():
    w = make_warp()
    taken = 0x0000_FFFF
    w.branch_divergent(taken, target=10, reconv_pc=20)
    # Taken side on top.
    assert w.pc == 10
    assert w.active_mask() == taken
    # Taken side reaches the reconvergence point -> falls to the other side.
    w.branch_uniform(20)
    assert w.pc == 1  # fall-through pc was 0 + 1
    assert w.active_mask() == FULL_MASK & ~taken
    # Fall side reaches reconvergence -> merged.
    w.branch_uniform(20)
    assert w.pc == 20
    assert w.active_mask() == FULL_MASK


def test_nested_divergence():
    w = make_warp()
    w.branch_divergent(0x0000_FFFF, target=5, reconv_pc=30)  # outer
    w.branch_divergent(0x0000_00FF, target=8, reconv_pc=15)  # inner on taken side
    assert w.pc == 8
    assert w.active_mask() == 0x0000_00FF
    w.branch_uniform(15)  # inner taken reaches inner reconv
    assert w.active_mask() == 0x0000_FF00
    w.branch_uniform(15)  # inner fall reaches inner reconv -> merged inner
    assert w.pc == 15
    assert w.active_mask() == 0x0000_FFFF
    w.branch_uniform(30)  # outer taken reaches outer reconv
    assert w.active_mask() == 0xFFFF_0000
    w.branch_uniform(30)
    assert w.active_mask() == FULL_MASK
    assert w.pc == 30


def test_exit_all_lanes_finishes_warp():
    w = make_warp()
    w.do_exit()
    assert w.finished


def test_exit_on_divergent_path_continues_other_side():
    w = make_warp()
    w.branch_divergent(0x0000_FFFF, target=5, reconv_pc=EXIT_PC)
    w.do_exit()  # taken side exits
    assert not w.finished
    assert w.active_mask() == 0xFFFF_0000
    assert w.pc == 1  # fall-through side
    w.do_exit()
    assert w.finished


def test_one_sided_divergence_taken_empty_is_callers_job():
    # branch_divergent is only called with both sides non-empty; the
    # executor routes one-sided branches to branch_uniform/advance.
    w = make_warp()
    w.branch_divergent(0x1, target=4, reconv_pc=9)
    assert w.pc == 4
    assert w.active_mask() == 0x1


def test_sched_state_snapshot_captures_stack():
    w = make_warp()
    w.branch_divergent(0xFF, target=3, reconv_pc=9)
    snap = w.sched_state_snapshot()
    stack, exited, at_barrier = snap
    assert len(stack) == 3
    assert exited == 0
    assert at_barrier is False
    # Snapshot is a value copy: mutating the warp does not alter it.
    w.branch_uniform(9)
    assert len(w.sched_state_snapshot()[0]) == 2
    assert len(stack) == 3


def test_registers_shape_and_dtype():
    w = make_warp(regs=12)
    assert w.regs.shape == (12, 32)
    assert w.regs.dtype == np.float64


def test_active_lanes_bool_array():
    w = make_warp(live_lanes=3)
    lanes = w.active_lanes()
    assert lanes.dtype == bool
    assert list(np.flatnonzero(lanes)) == [0, 1, 2]
