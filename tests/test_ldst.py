"""Coalescer and shared-memory bank-conflict analysis."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.ldst import bank_conflict_passes, coalesce


def addrs(*values):
    return np.array(values, dtype=np.int64)


def test_fully_coalesced_warp_one_transaction():
    warp_addrs = np.arange(32, dtype=np.int64) * 4  # consecutive words
    assert coalesce(warp_addrs, 128) == [0]


def test_two_segment_access():
    warp_addrs = np.arange(32, dtype=np.int64) * 4 + 64  # straddles a line
    assert coalesce(warp_addrs, 128) == [0, 128]


def test_strided_access_fans_out():
    warp_addrs = np.arange(32, dtype=np.int64) * 128
    assert len(coalesce(warp_addrs, 128)) == 32


def test_same_address_collapses():
    assert coalesce(addrs(4, 4, 4, 4), 128) == [0]


def test_unaligned_bases_align_to_segments():
    assert coalesce(addrs(120, 132), 128) == [0, 128]


def test_empty_access():
    assert coalesce(np.array([], dtype=np.int64), 128) == []
    assert bank_conflict_passes(np.array([], dtype=np.int64), 32) == 1


def test_conflict_free_row():
    warp_addrs = np.arange(32, dtype=np.int64) * 4  # one word per bank
    assert bank_conflict_passes(warp_addrs, 32) == 1


def test_broadcast_same_word_is_one_pass():
    assert bank_conflict_passes(addrs(0, 0, 0, 0), 32) == 1


def test_stride_32_words_full_conflict():
    warp_addrs = np.arange(32, dtype=np.int64) * 32 * 4  # all bank 0
    assert bank_conflict_passes(warp_addrs, 32) == 32


def test_stride_two_words_two_way_conflict():
    warp_addrs = np.arange(32, dtype=np.int64) * 2 * 4
    assert bank_conflict_passes(warp_addrs, 32) == 2


def test_padded_transpose_stride_is_conflict_free():
    # Stride 33 words (the padded shared-memory trick) hits distinct banks.
    warp_addrs = np.arange(32, dtype=np.int64) * 33 * 4
    assert bank_conflict_passes(warp_addrs, 32) == 1


# -- edge cases: masks, spills, broadcasts -----------------------------------


def test_empty_active_mask_costs_nothing():
    # A fully predicated-off warp issues no transactions and the shared
    # pipe's minimum single pass.
    empty = np.array([], dtype=np.int64)
    assert coalesce(empty, 128) == []
    assert bank_conflict_passes(empty, 32) == 1


def test_single_lane_mask_is_minimum_cost():
    assert coalesce(addrs(4096), 128) == [4096 // 128 * 128]
    assert bank_conflict_passes(addrs(4096), 32) == 1


def test_global_same_word_broadcast_collapses_to_one_segment():
    warp_addrs = np.zeros(32, dtype=np.int64) + 256
    assert coalesce(warp_addrs, 128) == [256]


def test_unaligned_segment_spill_property():
    # A contiguous 128-byte warp access starting at any word offset spills
    # into a second segment exactly when it is not line-aligned.
    run = np.arange(32, dtype=np.int64) * 4
    for offset in range(0, 128, 4):
        segments = coalesce(run + offset, 128)
        assert len(segments) == (1 if offset % 128 == 0 else 2), offset


def test_transpose_padding_property():
    # The transpose kernel's tile walk: reading column r of a 32x32 tile.
    # Unpadded (stride 32 words) every lane lands in one bank - a full
    # 32-way serialization for EVERY column; padding to stride 33 makes
    # every column conflict-free.  This is the padded/unpadded pair the
    # registry transpose kernel bakes in.
    lanes = np.arange(32, dtype=np.int64)
    for row in range(32):
        unpadded = (lanes * 32 + row) * 4
        padded = (lanes * 33 + row) * 4
        assert bank_conflict_passes(unpadded, 32) == 32, row
        assert bank_conflict_passes(padded, 32) == 1, row


# -- equivalence with the np.unique formulation -------------------------------


def _coalesce_np(byte_addrs, line_bytes):
    if byte_addrs.size == 0:
        return []
    return [int(line) * line_bytes for line in np.unique(byte_addrs // line_bytes)]


def _passes_np(byte_addrs, num_banks, word_bytes=4):
    if byte_addrs.size == 0:
        return 1
    banks = np.unique(byte_addrs // word_bytes) % num_banks
    return int(np.unique(banks, return_counts=True)[1].max())


# Few distinct values so duplicates are common; negatives exercise floor
# division and modulo on both sides of zero.
_lane_addrs = st.lists(
    st.one_of(st.integers(-600, 600), st.integers(-(1 << 40), 1 << 40)),
    min_size=0, max_size=32,
).map(lambda xs: np.array(xs, dtype=np.int64))


@given(_lane_addrs, st.sampled_from([4, 32, 128, 256]))
def test_coalesce_matches_np_unique(byte_addrs, line_bytes):
    assert coalesce(byte_addrs, line_bytes) == _coalesce_np(byte_addrs, line_bytes)


@given(_lane_addrs, st.sampled_from([1, 16, 32]), st.sampled_from([4, 8]))
def test_bank_passes_match_np_unique(byte_addrs, num_banks, word_bytes):
    assert (bank_conflict_passes(byte_addrs, num_banks, word_bytes)
            == _passes_np(byte_addrs, num_banks, word_bytes))
