"""Bounded uniform unrolling: race discharge soundness and fallbacks."""

from repro.isa.analysis import races, shared_accesses
from repro.isa.analysis.unroll import (UNROLL_BUDGET, discharge_shared_races,
                                       unrolled_trace)
from repro.isa.assembler import assemble
from repro.isa.analysis.perf import layout_for
from repro.kernels.registry import get


def races_of(kernel, unroll_budget=None):
    return races(kernel, shared_accesses(kernel), unroll_budget=unroll_budget)


def test_scan_pingpong_race_discharged():
    # scan's ping-pong buffer index (r XOR 1) widens to unknown under the
    # fixpoint; the concrete unroll proves the read/write halves disjoint
    # in every barrier epoch.
    kernel = get("scan").kernel
    assert [f for f in races_of(kernel) if not f.proven] == []


def test_transpose_tile_race_discharged():
    kernel = get("transpose").kernel
    assert [f for f in races_of(kernel) if not f.proven] == []


def test_budget_starvation_keeps_maybe():
    # With the unroll budget too small to finish the trace, the maybe
    # finding must survive — never a silent "safe".
    kernel = get("scan").kernel
    starved = [f for f in races_of(kernel, unroll_budget=5) if not f.proven]
    assert starved, "budget exhaustion must fall back to maybe"
    assert unrolled_trace(kernel, budget=5) is None
    pairs = [(f.pc_a, f.pc_b) for f in starved]
    assert discharge_shared_races(kernel, pairs, budget=5) == set()


def test_trace_is_uniform_and_epoch_ordered():
    kernel = get("scan").kernel
    trace = unrolled_trace(kernel)
    assert trace is not None and trace
    epochs = [occ.epoch for occ in trace]
    assert epochs == sorted(epochs)
    # The discharged ping-pong sites themselves are unpredicated; the
    # guarded tree idiom (a divergent predicate) is tracked as such.
    shared = [occ for occ in trace
              if kernel.instrs[occ.pc].is_shared_mem and occ.pc in (17, 24)]
    assert shared and all(not occ.predicated for occ in shared)


DIVERGENT = """
.kernel divergent
.regs 8
.smem 256
.cta 32
    S2R r0, %tid_x
    SETP.LT r1, r0, #16
@r1 BRA skip
    STS [r0], r0
skip:
    EXIT
"""


def test_divergent_branch_declines_to_unroll():
    assert unrolled_trace(assemble(DIVERGENT)) is None


def test_param_bound_loop_needs_launch_values():
    bench = get("mm_tiled")
    kernel = bench.kernel
    assert unrolled_trace(kernel) is None  # outer bound is %param5
    layout = layout_for(bench)
    trace = unrolled_trace(kernel, param_values=layout.param_values)
    assert trace is not None and trace


CONSTFOLD = """
.kernel constfold
.regs 8
.smem 256
.cta 32
    S2R r0, %tid_x
    SHL r1, r0, #2
    MOV r2, #0
    MOV r3, #0
loop:
    XOR r3, r3, #1
    SHL r4, r3, #6
    IADD r4, r4, r1
    STS [r4], r0
    BAR
    IADD r2, r2, #1
    SETP.LT r5, r2, #3
@r5 BRA loop
    EXIT
"""


def test_xor_pingpong_constant_folds():
    # The XOR ping-pong the affine domain tops out on: the unroll folds
    # it concretely, alternating the 64-byte halves across epochs.
    trace = unrolled_trace(assemble(CONSTFOLD))
    assert trace is not None
    stores = [occ for occ in trace if occ.kind == "store"]
    assert len(stores) == 3
    offsets = [occ.address.const for occ in stores]
    assert offsets == [64.0, 0.0, 64.0]
    assert [occ.epoch for occ in stores] == [0, 1, 2]
