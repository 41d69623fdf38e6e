"""KernelBuilder API and static kernel validation."""

import pytest

from repro.isa.instruction import Imm, Reg
from repro.isa.kernel import Kernel, KernelBuilder, KernelValidationError
from repro.isa.opcodes import CmpOp, Op
from repro.isa.instruction import Instruction


def test_builder_builds_runnable_kernel():
    b = KernelBuilder("k", regs_per_thread=8, cta_dim=(64, 1, 1))
    b.s2r(0, "tid_x")
    b.movi(1, 0)
    b.label("loop")
    b.iadd(1, 1, Imm(1))
    b.setp("lt", 2, 1, Imm(4))
    b.bra("loop", pred=2)
    b.exit()
    k = b.build()
    assert k.name == "k"
    assert k.instrs[4].target == 2
    assert k.instrs[4].cmp is None
    assert k.instrs[3].cmp is CmpOp.LT
    assert k.warps_per_cta() == 2


def test_builder_int_operands_are_registers():
    b = KernelBuilder("k", regs_per_thread=4)
    b.iadd(0, 1, 2)
    b.exit()
    k = b.build()
    assert k.instrs[0].srcs == (Reg(1), Reg(2))


def test_builder_float_operands_are_immediates():
    b = KernelBuilder("k", regs_per_thread=4)
    b.fadd(0, 1, 2.5)
    b.exit()
    k = b.build()
    assert k.instrs[0].srcs == (Reg(1), Imm(2.5))


def test_builder_bool_operand_rejected():
    b = KernelBuilder("k", regs_per_thread=4)
    with pytest.raises(TypeError, match="bool"):
        b.iadd(0, True, 2)


def test_undefined_label_raises_at_build():
    b = KernelBuilder("k", regs_per_thread=4)
    b.bra("nowhere")
    b.exit()
    with pytest.raises(KernelValidationError, match="nowhere"):
        b.build()


def test_duplicate_label_rejected():
    b = KernelBuilder("k", regs_per_thread=4)
    b.label("x")
    with pytest.raises(KernelValidationError, match="duplicate"):
        b.label("x")


def test_memory_helpers():
    b = KernelBuilder("k", regs_per_thread=8, smem_bytes=64)
    b.ldg(0, 1, offset=4)
    b.stg(1, 0, offset=8)
    b.lds(2, 3)
    b.sts(3, 2)
    b.atoms_add(4, 3, 2)
    b.atomg_add(5, 1, 2)
    b.exit()
    k = b.build()
    ops = [i.op for i in k.instrs[:6]]
    assert ops == [Op.LDG, Op.STG, Op.LDS, Op.STS, Op.ATOMS_ADD, Op.ATOMG_ADD]
    assert k.instrs[0].srcs[0].offset == 4


def test_nop_count():
    b = KernelBuilder("k", regs_per_thread=4)
    b.nop(3)
    b.exit()
    assert len(b.build().instrs) == 4


def test_validation_requires_exit():
    with pytest.raises(KernelValidationError, match="EXIT"):
        Kernel(name="k", instrs=[Instruction(op=Op.NOP)], regs_per_thread=4)


def test_validation_register_overflow():
    b = KernelBuilder("k", regs_per_thread=4)
    b.mov(7, Imm(1))
    b.exit()
    with pytest.raises(KernelValidationError, match="r7"):
        b.build()


def test_validation_branch_target_range():
    instrs = [
        Instruction(op=Op.BRA, target=99),
        Instruction(op=Op.EXIT),
    ]
    with pytest.raises(KernelValidationError, match="outside the kernel"):
        Kernel(name="k", instrs=instrs, regs_per_thread=4)


def test_validation_missing_dst():
    instrs = [
        Instruction(op=Op.IADD, dst=None, srcs=(Reg(0), Reg(1))),
        Instruction(op=Op.EXIT),
    ]
    with pytest.raises(KernelValidationError, match="destination"):
        Kernel(name="k", instrs=instrs, regs_per_thread=4)


def test_validation_empty_kernel():
    with pytest.raises(KernelValidationError, match="no instructions"):
        Kernel(name="k", instrs=[], regs_per_thread=4)


def test_threads_and_warps():
    b = KernelBuilder("k", regs_per_thread=4, cta_dim=(16, 16, 1))
    b.exit()
    k = b.build()
    assert k.threads_per_cta == 256
    assert k.warps_per_cta() == 8
    # Partial warps round up.
    b2 = KernelBuilder("k2", regs_per_thread=4, cta_dim=(40, 1, 1))
    b2.exit()
    assert b2.build().warps_per_cta() == 2
