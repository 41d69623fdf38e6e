"""The dataflow framework and its analysis passes: liveness,
maybe-uninitialized reads, affine addresses, and the barrier/shared
passes' building blocks."""

import pytest

from repro.isa.analysis import (CFGView, affine_solution, liveness,
                                may_overlap, refine_bounds,
                                uninitialized_reads)
from repro.isa.analysis.affine import (Affine, CONST_ZERO, TOP,
                                       UNIFORM_UNKNOWN, is_top, join)
from repro.isa.assembler import assemble
from repro.kernels.registry import all_benchmarks


def _kernel(body: str, regs: int = 8, smem: int = 0, cta: str = "32"):
    return assemble(f".kernel t\n.regs {regs}\n.smem {smem}\n.cta {cta}\n{body}")


# -- CFGView -----------------------------------------------------------------


def test_instr_successors_shapes():
    k = _kernel("""
    SETP.LT r1, r0, #4
@r1 BRA skip
    MOV r2, #2
skip:
    EXIT
""")
    cfg = CFGView(k.instrs)
    assert cfg.instr_successors(0) == [1]
    assert sorted(cfg.instr_successors(1)) == [2, 3]  # taken + fallthrough
    assert cfg.instr_successors(3) == []  # EXIT


def test_reachability_excludes_dead_block():
    k = _kernel("""
    BRA end
    MOV r0, #1
end:
    EXIT
""")
    cfg = CFGView(k.instrs)
    assert cfg.pc_reachable(0) and cfg.pc_reachable(2)
    assert not cfg.pc_reachable(1)


# -- liveness ----------------------------------------------------------------


def test_liveness_straight_line():
    k = _kernel("""
    MOV r0, #1
    MOV r1, #2
    IADD r2, r0, r1
    STG [r2], r0
    EXIT
""")
    info = liveness(k)
    assert info.live_in[0] == frozenset()
    assert info.live_in[2] == frozenset({0, 1})
    assert info.live_in[3] == frozenset({0, 2})
    assert info.max_pressure == 2
    assert info.written_regs == frozenset({0, 1, 2})


def test_predicated_write_does_not_kill():
    k = _kernel("""
    MOV r0, #1
    SETP.LT r1, r0, #4
@r1 MOV r0, #2
    STG [r0], r0
    EXIT
""")
    info = liveness(k)
    # r0 stays live across the predicated redefinition at pc 2.
    assert 0 in info.live_in[2]


# -- maybe-uninitialized reads ----------------------------------------------


def test_uninit_read_detected():
    k = _kernel("FADD r1, r0, r2\nSTG [r1], r1\nEXIT")
    findings = uninitialized_reads(k)
    assert (0, 0) in findings and (0, 2) in findings


def test_write_on_every_path_is_clean():
    k = _kernel("""
    SETP.LT r1, r0, #4
@r1 BRA a
    MOV r2, #1
    BRA join
a:
    MOV r2, #2
join:
    STG [r2], r2
    EXIT
""")
    findings = uninitialized_reads(k)
    assert all(reg != 2 for _pc, reg in findings)


def test_write_on_one_path_still_flagged():
    k = _kernel("""
    SETP.LT r1, r0, #4
@r1 BRA join
    MOV r2, #1
join:
    STG [r2], r2
    EXIT
""")
    findings = uninitialized_reads(k)
    assert any(reg == 2 for _pc, reg in findings)


def test_unreachable_reads_not_flagged():
    k = _kernel("""
    BRA end
    STG [r5], r5
end:
    EXIT
""")
    assert uninitialized_reads(k) == []


# -- affine domain -----------------------------------------------------------


def test_affine_tracks_tid_scaling():
    k = _kernel("""
    S2R r0, %tid_x
    SHL r1, r0, #2
    STG [r1], r0
    EXIT
""", cta="64")
    _affine, envs = affine_solution(k)
    value = envs[2].get(1)
    assert value.tid == (("tid_x", 4),)
    assert value.bounds(k.cta_dim) == (0, 4 * 63)


def test_affine_uniform_param_cancels_in_difference():
    k = _kernel("""
    S2R r0, %param0
    S2R r1, %tid_x
    IADD r2, r0, r1
    IADD r3, r2, #4
    STG [r2], r1
    EXIT
""")
    _affine, envs = affine_solution(k)
    a, b = envs[4].get(2), envs[4].get(3)
    diff = b.sub(a)
    assert diff.is_const and diff.const == 4


def test_top_absorbs_arithmetic():
    assert is_top(TOP.add(Affine(1.0)))
    assert is_top(TOP.scale(4))
    assert is_top(Affine(0.0, (("tid_x", 1),), ()).add(TOP))
    assert TOP.scale(0) == CONST_ZERO


def test_join_widens_uniform_disagreement():
    a = Affine(4.0, (("tid_x", 4),), ())
    b = Affine(8.0, (("tid_x", 4),), ())
    widened = join(a, b)
    assert widened.tid == (("tid_x", 4),)
    assert widened.fuzzy and widened.const == 0.0


def test_join_tid_disagreement_is_top():
    a = Affine(0.0, (("tid_x", 4),), ())
    b = Affine(0.0, (("tid_x", 8),), ())
    assert is_top(join(a, b))
    assert join(UNIFORM_UNKNOWN, Affine(3.0)) == UNIFORM_UNKNOWN


def test_loop_counter_stays_uniform():
    k = _kernel("""
    MOV r0, #0
loop:
    IADD r0, r0, #1
    SETP.LT r1, r0, #8
@r1 BRA loop
    EXIT
""")
    _affine, envs = affine_solution(k)
    # At the branch, the loop counter has widened but stayed uniform.
    assert envs[3].get(0).is_uniform


def test_refine_bounds_narrows_through_predicate():
    k = _kernel("""
    S2R r0, %tid_x
    SETP.LT r1, r0, #16
    SHL r2, r0, #2
@r1 STS [r2], r0
    EXIT
""", smem=64, cta="64")
    _affine, envs = affine_solution(k)
    env = envs[3]
    address = env.get(2)
    assert refine_bounds(address, None, False, k.cta_dim) == (0, 4 * 63)
    refined = refine_bounds(address, env.get(1), False, k.cta_dim)
    assert refined == (0, 4 * 15)
    # The negated guard covers the complement range.
    negated = refine_bounds(address, env.get(1), True, k.cta_dim)
    assert negated == (4 * 16, 4 * 63)


# -- overlap test ------------------------------------------------------------


def test_overlap_same_word_stride():
    a = Affine(0.0, (("tid_x", 4),), ())
    assert may_overlap(a, a, (32, 1, 1)) is False  # injective: distinct words
    shifted = Affine(4.0, (("tid_x", 4),), ())
    assert may_overlap(a, shifted, (32, 1, 1)) is True  # thread t vs t+1


def test_overlap_narrow_stride_collides():
    a = Affine(0.0, (("tid_x", 2),), ())  # sub-word stride: two tids share a word
    assert may_overlap(a, a, (32, 1, 1)) is True


def test_overlap_unknown_on_fuzzy():
    assert may_overlap(TOP, TOP, (32, 1, 1)) is None
    assert may_overlap(UNIFORM_UNKNOWN, CONST_ZERO, (32, 1, 1)) is None


def test_overlap_disjoint_constant_banks():
    a = Affine(0.0, (("tid_x", 4),), ())
    b = Affine(256.0, (("tid_x", 4),), ())
    assert may_overlap(a, b, (32, 1, 1)) is False  # 4*31 < 256


# -- acceptance: register pressure over the registry ------------------------


@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_swap_footprint_within_declared(bench):
    info = liveness(bench.kernel)
    assert 0 < info.max_pressure <= bench.kernel.regs_per_thread
