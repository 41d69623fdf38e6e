"""Targeted timing-behaviour tests on the SM core with micro-kernels."""

import numpy as np
import pytest

from repro.isa.assembler import assemble
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory


def launch(asm, grid=1, cfg=None, params=(), gmem_words=4096):
    kernel = assemble(asm)
    gmem = GlobalMemory(1 << 20)
    gmem.alloc("buf", gmem_words)
    cfg = cfg or scaled_fermi(num_sms=1)
    gpu = GPU(cfg)
    return gpu.launch(kernel, grid, gmem, params=(gmem.base("buf"),) + params)


def cycles_of(asm, **kw):
    return launch(asm, **kw).stats.cycles


def test_dependent_chain_pays_alu_latency():
    dependent = """
.kernel dep
.regs 4
.cta 32
    MOV  r0, #1
    IADD r1, r0, #1
    IADD r2, r1, #1
    IADD r3, r2, #1
    EXIT
"""
    independent = """
.kernel indep
.regs 4
.cta 32
    MOV  r0, #1
    MOV  r1, #1
    MOV  r2, #1
    MOV  r3, #1
    EXIT
"""
    assert cycles_of(dependent) > cycles_of(independent)


def test_sfu_ops_slower_than_fpu():
    sfu = """
.kernel sfu
.regs 4
.cta 32
    MOV   r0, #2.0
    FSQRT r1, r0
    FSQRT r2, r1
    FSQRT r3, r2
    EXIT
"""
    fpu = """
.kernel fpu
.regs 4
.cta 32
    MOV  r0, #2.0
    FADD r1, r0, r0
    FADD r2, r1, r1
    FADD r3, r2, r2
    EXIT
"""
    assert cycles_of(sfu) > cycles_of(fpu)


def test_bank_conflicts_cost_cycles():
    conflicted = """
.kernel conflict
.regs 6
.smem 8192
.cta 32
    S2R  r0, %tid_x
    SHL  r1, r0, #7          // tid * 32 words: every lane same bank
    I2F  r2, r0
    STS  [r1], r2
    LDS  r3, [r1]
    EXIT
"""
    clean = """
.kernel clean
.regs 6
.smem 8192
.cta 32
    S2R  r0, %tid_x
    SHL  r1, r0, #2          // tid * 1 word: one lane per bank
    I2F  r2, r0
    STS  [r1], r2
    LDS  r3, [r1]
    EXIT
"""
    assert cycles_of(conflicted) > cycles_of(clean)


def test_coalesced_faster_than_strided():
    coalesced = """
.kernel co
.regs 8
.cta 32
    S2R  r0, %tid_x
    SHL  r1, r0, #2
    S2R  r2, %param0
    IADD r1, r1, r2
    LDG  r3, [r1]
    IADD r4, r3, #0          // consume: wait for the data
    EXIT
"""
    strided = """
.kernel st
.regs 8
.cta 32
    S2R  r0, %tid_x
    SHL  r1, r0, #7          // 128-byte stride: one line per lane
    S2R  r2, %param0
    IADD r1, r1, r2
    LDG  r3, [r1]
    IADD r4, r3, #0          // consume: wait for the data
    EXIT
"""
    fast = launch(coalesced)
    slow = launch(strided, gmem_words=2048)
    assert slow.stats.cycles > fast.stats.cycles
    fast_txn = sum(s.global_transactions for s in fast.stats.sm_stats)
    slow_txn = sum(s.global_transactions for s in slow.stats.sm_stats)
    assert fast_txn == 1
    assert slow_txn == 32


def test_l1_hit_faster_than_miss():
    reload_same = """
.kernel hit
.regs 8
.cta 32
    S2R  r0, %param0
    LDG  r1, [r0]
    IADD r2, r1, #0
    LDG  r3, [r0]            // same line: L1 hit after the fill
    IADD r4, r3, #0
    EXIT
"""
    result = launch(reload_same)
    assert result.stats.l1_hit_rate > 0.0


def test_barrier_convoy_classified():
    asm = """
.kernel barry
.regs 6
.smem 128
.cta 64
    S2R  r0, %tid_x
    SETP.EQ r1, r0, #0
    S2R  r2, %param0
@r1 LDG  r3, [r2]            // warp 0 waits on memory; warp 1 at the bar
    IADD r4, r3, #0
    BAR
    EXIT
"""
    result = launch(asm)
    sm = result.stats.sm_stats[0]
    assert sm.idle_cycles_mem + sm.idle_cycles_barrier > 0


def test_ipc_bounded_by_issue_width():
    asm = """
.kernel busy
.regs 6
.cta 256
    MOV  r0, #0
    MOV  r1, #0
    MOV  r2, #0
    MOV  r3, #0
    MOV  r4, #0
    MOV  r5, #0
    EXIT
"""
    cfg = scaled_fermi(num_sms=1)
    result = launch(asm, grid=6, cfg=cfg)
    assert result.stats.ipc <= cfg.num_warp_schedulers + 1e-9


def test_more_parallelism_hides_memory_latency():
    asm = """
.kernel lat
.regs 8
.cta 32
    S2R  r0, %ctaid_x
    S2R  r1, %tid_x
    IMAD r2, r0, #32, r1
    SHL  r2, r2, #2
    S2R  r3, %param0
    IADD r2, r2, r3
    LDG  r4, [r2]
    FADD r5, r4, #1.0
    EXIT
"""
    one = launch(asm, grid=1, gmem_words=8192).stats.cycles
    eight = launch(asm, grid=8, gmem_words=8192).stats.cycles
    # 8x the work at far less than 8x the time: latency overlapped.
    assert eight < one * 3


def test_first_evaluated_label_survives_inline_status_reads():
    """The trigger walk and the dead scan read a still-valid cached status
    inline instead of re-deriving it.  With hazard registers ``(r2 ALU@105,
    r1 global@100)`` a block evaluated at cycle 50 is labelled MEM, while a
    fresh evaluation at cycle 101 would say ALU: both consumers must still
    see MEM at 101 (see ARCHITECTURE, "When a status is first evaluated
    matters")."""
    from functools import partial

    from repro.core.policies import trigger_all_stalled, trigger_majority_stalled
    from repro.core.vt import VirtualThreadManager
    from repro.sim.cta import CTA
    from repro.sim.memsys import MemoryModel
    from repro.sim.smcore import ST_MEM, SMCore

    kernel = assemble("""
.kernel firsteval
.regs 4
.cta 32
    IADD r0, r2, r1
    EXIT
""")
    cfg = scaled_fermi(num_sms=1, arch="vt")
    sm = SMCore(0, cfg, MemoryModel(cfg), VirtualThreadManager)
    cta = CTA(0, kernel, (1, 1, 1), (), cfg, start_cycle=0)
    sm.assign_cta(cta, 0)
    warp = cta.warps[0]
    warp.scoreboard.set_pending(2, 105, False)
    warp.scoreboard.set_pending(1, 100, True)
    assert warp.scoreboard.blocking(kernel.instrs[0], 50) == (105, True)
    assert warp.scoreboard.blocking(kernel.instrs[0], 101) == (105, False)

    # First evaluation, through the trigger walk.
    assert trigger_all_stalled(cta, partial(sm._status, 50), 50, cfg)
    assert (warp.cached_status, warp.status_until) == (ST_MEM, 105)

    status = partial(sm._status, 101)
    assert trigger_all_stalled(cta, status, 101, cfg)
    assert trigger_majority_stalled(cta, status, 101, cfg)
    assert warp.armed
    assert sm._dead_scan(101) == ("mem", 105)
    assert (warp.cached_status, warp.status_until) == (ST_MEM, 105)
