"""Functional executor: per-opcode semantics, predication, memory, errors."""

import numpy as np
import pytest

from repro.isa.instruction import Imm, Instruction, MemRef, Reg, SReg, SpecialReg
from repro.isa.opcodes import CmpOp, Op
from repro.sim.exec import ExecutionError, functional_step
from repro.sim.memory import GlobalMemory, SharedMemory
from repro.sim.warp import FULL_MASK, Warp


class _FakeCTA:
    cta_id = 0

    def __init__(self, smem_bytes=256):
        self.smem = SharedMemory(smem_bytes)


def make_warp(regs=16, smem_bytes=256):
    cta = _FakeCTA(smem_bytes)
    warp = Warp(cta, 0, regs, 32)
    warp.sregs = {SpecialReg.TID_X: np.arange(32, dtype=np.float64)}
    return warp


def run(warp, instr, gmem=None):
    gmem = gmem or GlobalMemory(4096)
    return functional_step(warp, instr, gmem)


def set_reg(warp, idx, value):
    warp.regs[idx][:] = value


def binop(op, a, b, cmp=None):
    warp = make_warp()
    set_reg(warp, 1, a)
    set_reg(warp, 2, b)
    run(warp, Instruction(op=op, dst=Reg(0), srcs=(Reg(1), Reg(2)), cmp=cmp))
    return warp.regs[0][0]


@pytest.mark.parametrize("op,a,b,expected", [
    (Op.IADD, 5, 3, 8),
    (Op.ISUB, 5, 3, 2),
    (Op.IMUL, 5, 3, 15),
    (Op.IMIN, 5, 3, 3),
    (Op.IMAX, 5, 3, 5),
    (Op.AND, 0b1100, 0b1010, 0b1000),
    (Op.OR, 0b1100, 0b1010, 0b1110),
    (Op.XOR, 0b1100, 0b1010, 0b0110),
    (Op.SHL, 3, 4, 48),
    (Op.SHR, 48, 4, 3),
    (Op.IDIV, 7, 2, 3),
    (Op.IREM, 7, 2, 1),
    (Op.FADD, 1.5, 2.25, 3.75),
    (Op.FSUB, 1.5, 2.25, -0.75),
    (Op.FMUL, 1.5, 2.0, 3.0),
    (Op.FDIV, 3.0, 2.0, 1.5),
    (Op.FMIN, 1.5, 2.0, 1.5),
    (Op.FMAX, 1.5, 2.0, 2.0),
])
def test_binary_ops(op, a, b, expected):
    assert binop(op, a, b) == expected


def test_idiv_truncates_toward_zero():
    assert binop(Op.IDIV, -7, 2) == -3  # C semantics, not floor


@pytest.mark.parametrize("cmp,a,b,expected", [
    (CmpOp.EQ, 2, 2, 1), (CmpOp.EQ, 2, 3, 0),
    (CmpOp.NE, 2, 3, 1), (CmpOp.LT, 2, 3, 1),
    (CmpOp.LE, 3, 3, 1), (CmpOp.GT, 4, 3, 1),
    (CmpOp.GE, 2, 3, 0),
])
def test_setp(cmp, a, b, expected):
    assert binop(Op.SETP, a, b, cmp=cmp) == expected


def test_three_operand_ops():
    warp = make_warp()
    set_reg(warp, 1, 2)
    set_reg(warp, 2, 3)
    set_reg(warp, 3, 4)
    run(warp, Instruction(op=Op.IMAD, dst=Reg(0), srcs=(Reg(1), Reg(2), Reg(3))))
    assert warp.regs[0][0] == 10
    run(warp, Instruction(op=Op.FFMA, dst=Reg(4), srcs=(Reg(1), Reg(2), Reg(3))))
    assert warp.regs[4][0] == 10.0
    set_reg(warp, 5, 0)
    run(warp, Instruction(op=Op.SEL, dst=Reg(6), srcs=(Reg(5), Reg(1), Reg(2))))
    assert warp.regs[6][0] == 3  # condition false -> second source


@pytest.mark.parametrize("op,a,expected", [
    (Op.FSQRT, 9.0, 3.0),
    (Op.FABS, -2.5, 2.5),
    (Op.I2F, 7, 7.0),
    (Op.F2I, 7.9, 7.0),
])
def test_unary_ops(op, a, expected):
    warp = make_warp()
    set_reg(warp, 1, a)
    run(warp, Instruction(op=op, dst=Reg(0), srcs=(Reg(1),)))
    assert warp.regs[0][0] == expected


def test_fexp():
    warp = make_warp()
    set_reg(warp, 1, 1.0)
    run(warp, Instruction(op=Op.FEXP, dst=Reg(0), srcs=(Reg(1),)))
    assert warp.regs[0][0] == pytest.approx(np.e)


def test_mov_immediate_and_s2r():
    warp = make_warp()
    run(warp, Instruction(op=Op.MOV, dst=Reg(0), srcs=(Imm(42),)))
    assert (warp.regs[0] == 42).all()
    run(warp, Instruction(op=Op.S2R, dst=Reg(1), srcs=(SReg(SpecialReg.TID_X),)))
    assert list(warp.regs[1]) == list(range(32))


def test_predication_masks_lanes():
    warp = make_warp()
    warp.regs[1][:] = np.arange(32) < 8  # predicate true for lanes 0..7
    set_reg(warp, 0, 0)
    result = run(warp, Instruction(op=Op.MOV, dst=Reg(0), srcs=(Imm(9),), pred=Reg(1)))
    assert result.lanes == 8
    assert (warp.regs[0][:8] == 9).all()
    assert (warp.regs[0][8:] == 0).all()


def test_negated_predication():
    warp = make_warp()
    warp.regs[1][:] = np.arange(32) < 8
    run(warp, Instruction(op=Op.MOV, dst=Reg(0), srcs=(Imm(9),), pred=Reg(1), pred_neg=True))
    assert (warp.regs[0][:8] == 0).all()
    assert (warp.regs[0][8:] == 9).all()


def test_global_load_store():
    gmem = GlobalMemory(4096)
    gmem.data[:32] = np.arange(32)
    warp = make_warp()
    warp.regs[1][:] = np.arange(32) * 4  # byte addresses
    result = run(warp, Instruction(op=Op.LDG, dst=Reg(0), srcs=(MemRef(Reg(1)),)), gmem)
    assert result.mem_space == "global"
    assert list(warp.regs[0]) == list(range(32))
    set_reg(warp, 2, 7)
    warp.regs[3][:] = (np.arange(32) + 100) * 4
    result = run(warp, Instruction(op=Op.STG, srcs=(MemRef(Reg(3)), Reg(2))), gmem)
    assert result.mem_space == "global"
    assert list(result.addresses) == list((np.arange(32) + 100) * 4)
    assert (gmem.data[100:132] == 7).all()
    assert warp.pc == 2


def test_memref_offset_applies():
    gmem = GlobalMemory(4096)
    gmem.data[1] = 5.0
    warp = make_warp()
    set_reg(warp, 1, 0)
    run(warp, Instruction(op=Op.LDG, dst=Reg(0), srcs=(MemRef(Reg(1), 4),)), gmem)
    assert (warp.regs[0] == 5.0).all()


def test_shared_load_store():
    warp = make_warp()
    warp.regs[1][:] = np.arange(32) * 4
    set_reg(warp, 2, 3)
    run(warp, Instruction(op=Op.STS, srcs=(MemRef(Reg(1)), Reg(2))))
    assert (warp.cta.smem.data[:32] == 3).all()
    result = run(warp, Instruction(op=Op.LDS, dst=Reg(3), srcs=(MemRef(Reg(1)),)))
    assert result.mem_space == "shared"
    assert (warp.regs[3] == 3).all()


def test_atomic_add_intra_warp_serializes():
    gmem = GlobalMemory(4096)
    warp = make_warp()
    set_reg(warp, 1, 0)  # all lanes hit the same address
    set_reg(warp, 2, 1)
    result = run(warp, Instruction(op=Op.ATOMG_ADD, dst=Reg(0), srcs=(MemRef(Reg(1)), Reg(2))), gmem)
    assert result.mem_space == "global"
    assert list(result.addresses) == [0] * 32
    assert gmem.data[0] == 32
    assert sorted(warp.regs[0]) == list(range(32))  # each lane saw a distinct old value


def test_atomic_max():
    gmem = GlobalMemory(4096)
    gmem.data[0] = 10
    warp = make_warp()
    set_reg(warp, 1, 0)
    warp.regs[2][:] = np.arange(32, dtype=np.float64)
    run(warp, Instruction(op=Op.ATOMG_MAX, dst=Reg(0), srcs=(MemRef(Reg(1)), Reg(2))), gmem)
    assert gmem.data[0] == 31


def test_branch_uniform_taken():
    warp = make_warp()
    set_reg(warp, 1, 1)
    run(warp, Instruction(op=Op.BRA, target=5, pred=Reg(1), reconv_pc=7))
    assert warp.pc == 5


def test_branch_uniform_not_taken():
    warp = make_warp()
    set_reg(warp, 1, 0)
    run(warp, Instruction(op=Op.BRA, target=5, pred=Reg(1), reconv_pc=7))
    assert warp.pc == 1


def test_branch_divergent_splits():
    warp = make_warp()
    warp.regs[1][:] = np.arange(32) < 4
    run(warp, Instruction(op=Op.BRA, target=5, pred=Reg(1), reconv_pc=9))
    assert warp.pc == 5
    assert warp.active_mask() == 0xF


def test_divergent_branch_without_reconv_is_error():
    warp = make_warp()
    warp.regs[1][:] = np.arange(32) < 4
    with pytest.raises(ExecutionError, match="reconvergence"):
        run(warp, Instruction(op=Op.BRA, target=5, pred=Reg(1)))


def test_exit_and_barrier_flags():
    """BAR moves the warp past it with every lane active (the SM, not the
    executor, parks it at the barrier); EXIT retires every active lane."""
    warp = make_warp()
    result = run(warp, Instruction(op=Op.BAR))
    assert result.lanes == 32
    assert (warp.pc, warp.active_mask(), warp.finished) == (1, FULL_MASK, False)
    assert not warp.at_barrier
    result = run(warp, Instruction(op=Op.EXIT))
    assert result.lanes == 32
    assert warp.finished
    assert warp.exited == FULL_MASK
    assert warp.pc is None


def test_predicated_exit_rejected():
    warp = make_warp()
    set_reg(warp, 1, 1)
    with pytest.raises(ExecutionError, match="predicated EXIT"):
        run(warp, Instruction(op=Op.EXIT, pred=Reg(1)))


@pytest.mark.parametrize("op,a,b,fragment", [
    (Op.IDIV, 1, 0, "division by zero"),
    (Op.IREM, 1, 0, "division by zero"),
    (Op.FDIV, 1.0, 0.0, "division by zero"),
    (Op.SHL, 1, -1, "negative shift"),
])
def test_arithmetic_errors(op, a, b, fragment):
    with pytest.raises(ExecutionError, match=fragment):
        binop(op, a, b)


def test_sqrt_negative_rejected():
    warp = make_warp()
    set_reg(warp, 1, -1.0)
    with pytest.raises(ExecutionError, match="sqrt"):
        run(warp, Instruction(op=Op.FSQRT, dst=Reg(0), srcs=(Reg(1),)))


def test_empty_mask_execution_is_error():
    warp = make_warp()
    warp.do_exit()
    with pytest.raises(ExecutionError, match="empty mask"):
        run(warp, Instruction(op=Op.NOP))


def test_fully_predicated_off_memory_op_has_no_addresses():
    warp = make_warp()
    set_reg(warp, 1, 0)  # predicate false everywhere
    set_reg(warp, 2, 0)
    result = run(warp, Instruction(op=Op.LDG, dst=Reg(0), srcs=(MemRef(Reg(2)),), pred=Reg(1)))
    assert result.addresses is None
    assert result.lanes == 0
    assert warp.pc == 1  # still advanced
