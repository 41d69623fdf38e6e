"""Corner cases across modules that the mainline tests don't reach."""

import numpy as np
import pytest

from repro.isa.assembler import assemble
from repro.isa.instruction import Imm, Instruction, Reg, SReg, SpecialReg
from repro.isa.opcodes import Op
from repro.sim.config import scaled_fermi
from repro.sim.cta import CTA
from repro.sim.exec import functional_step
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory


def test_ffma_with_immediate_middle_operand():
    # The regheavy kernel relies on FFMA d, a, #imm, c.
    kernel = assemble("""
.kernel f
.regs 4
    MOV  r0, #3.0
    MOV  r1, #1.0
    FFMA r2, r0, #0.5, r1
    EXIT
""")
    cta = CTA(0, kernel, (1, 1, 1), (), scaled_fermi(1), 0)
    warp = cta.warps[0]
    gmem = GlobalMemory(256)
    while not warp.finished:
        functional_step(warp, kernel.instrs[warp.pc], gmem)
    assert warp.regs[2][0] == 2.5


def test_assembler_fractional_immediates():
    kernel = assemble(".kernel f\n.regs 2\nMOV r0, #.5\nMOV r1, #0.25\nEXIT")
    assert kernel.instrs[0].srcs[0] == Imm(0.5)
    assert kernel.instrs[1].srcs[0] == Imm(0.25)


def test_negative_memref_offset_executes():
    kernel = assemble("""
.kernel f
.regs 4
    MOV  r0, #8
    LDG  r1, [r0-4]
    EXIT
""")
    gmem = GlobalMemory(256)
    gmem.data[1] = 7.0
    cta = CTA(0, kernel, (1, 1, 1), (), scaled_fermi(1), 0)
    warp = cta.warps[0]
    while not warp.finished:
        functional_step(warp, kernel.instrs[warp.pc], gmem)
    assert (warp.regs[1] == 7.0).all()


def test_params_visible_through_s2r():
    kernel = assemble("""
.kernel f
.regs 4
    S2R r0, %param0
    S2R r1, %param7
    SHL r2, r0, #2
    S2R r3, %param1
    IADD r2, r2, r3
    STG [r2], r1
    EXIT
""")
    gmem = GlobalMemory(1 << 12)
    gmem.alloc("out", 32)
    gpu = GPU(scaled_fermi(1))
    result = gpu.launch(kernel, 1, gmem,
                        params=(0.0, gmem.base("out"), 0, 0, 0, 0, 0, 42.0))
    assert (result.read("out", 1) == 42.0).all()


def test_barrier_release_without_waiters_is_noop():
    kernel = assemble(".kernel f\n.regs 2\n.cta 64\nEXIT")
    cta = CTA(0, kernel, (1, 1, 1), (), scaled_fermi(1), 0)
    assert not cta.check_barrier_release(now=0)


def test_partial_warp_divergence():
    # 40 threads: second warp has 8 live lanes; diverge inside it.
    kernel = assemble("""
.kernel f
.regs 6
.cta 40
    S2R  r0, %tid_x
    SETP.GE r1, r0, #36
@r1 BRA  high
    MOV  r2, #1
    BRA  out
high:
    MOV  r2, #2
out:
    SHL  r3, r0, #2
    S2R  r4, %param0
    IADD r3, r3, r4
    STG  [r3], r2
    EXIT
""")
    gmem = GlobalMemory(1 << 12)
    gmem.alloc("out", 40)
    gpu = GPU(scaled_fermi(1))
    result = gpu.launch(kernel, 1, gmem, params=(gmem.base("out"),))
    out = result.read("out")
    assert (out[:36] == 1).all()
    assert (out[36:] == 2).all()


def test_warp_sized_cta_no_barrier_needed():
    # A single-warp CTA's BAR must release immediately (no deadlock).
    kernel = assemble("""
.kernel f
.regs 4
.cta 32
    BAR
    BAR
    MOV r0, #1
    EXIT
""")
    gpu = GPU(scaled_fermi(1))
    result = gpu.launch(kernel, 2, GlobalMemory(256))
    assert result.stats.instructions == 8  # 2 CTAs x (BAR, BAR, MOV, EXIT)


def test_all_special_registers_readable():
    srcs = " ".join(f"%{k.value}" for k in SpecialReg)
    lines = [f"    S2R r0, %{kind.value}" for kind in SpecialReg]
    kernel = assemble(".kernel f\n.regs 2\n" + "\n".join(lines) + "\n    EXIT")
    gpu = GPU(scaled_fermi(1))
    result = gpu.launch(kernel, (2, 2, 1), GlobalMemory(256), params=(1, 2, 3))
    assert result.stats.instructions == 4 * (len(SpecialReg) + 1)


def test_exit_only_kernel():
    kernel = assemble(".kernel f\n.regs 1\n.cta 256\nEXIT")
    gpu = GPU(scaled_fermi(1, arch="vt"))
    result = gpu.launch(kernel, 32, GlobalMemory(256))
    assert result.stats.instructions == 32 * 8  # 8 warps per CTA


def test_single_thread_cta():
    kernel = assemble("""
.kernel f
.regs 4
.cta 1
    S2R  r0, %ctaid_x
    SHL  r1, r0, #2
    S2R  r2, %param0
    IADD r1, r1, r2
    STG  [r1], r0
    EXIT
""")
    gmem = GlobalMemory(1 << 12)
    gmem.alloc("out", 8)
    gpu = GPU(scaled_fermi(1))
    result = gpu.launch(kernel, 8, gmem, params=(gmem.base("out"),))
    assert np.array_equal(result.read("out"), np.arange(8, dtype=np.float64))
