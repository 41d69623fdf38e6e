"""Reaching-definitions–based uninitialized-register-read detection.

The simulator zero-fills register files, so reading a never-written
register silently computes with 0.0 — results are plausibly wrong rather
than loudly broken, the worst failure mode for a reproduction.  This
forward may-pass tracks, per PC, the set of registers for which the
synthetic *uninitialized* definition at kernel entry still reaches; any
read of such a register is reported.

A predicated write counts as a definition: ``@p MOV r1, …`` followed by
``@p FADD …, r1`` is the registry's standard guarded idiom, and flagging
it would drown real findings in noise.  (Lanes where ``p`` is false never
read ``r1`` under the same guard either.)
"""

from __future__ import annotations

from repro.isa.analysis.context import cfg_of
from repro.isa.analysis.dataflow import DataflowProblem, FORWARD, solve


class MaybeUninit(DataflowProblem):
    """Forward may-analysis: registers the entry 'uninit' def still reaches."""

    direction = FORWARD

    def __init__(self, regs_per_thread: int):
        self.all_regs = frozenset(range(regs_per_thread))

    def boundary(self) -> frozenset:
        return self.all_regs

    def init(self) -> frozenset:
        return frozenset()

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, pc: int, instr, uninit: frozenset) -> frozenset:
        dst = instr.dst_reg()
        if dst is not None and dst in uninit:
            return uninit - {dst}
        return uninit


def uninitialized_reads(kernel) -> list[tuple[int, int]]:
    """``(pc, reg)`` pairs where a possibly-uninitialized register is read."""
    cfg = cfg_of(kernel)
    solution = solve(MaybeUninit(kernel.regs_per_thread), cfg)
    uninit_at = solution.per_pc()
    findings: list[tuple[int, int]] = []
    for pc, instr in enumerate(kernel.instrs):
        if not cfg.pc_reachable(pc):
            continue
        for reg in sorted(set(instr.src_regs())):
            if reg in uninit_at[pc]:
                findings.append((pc, reg))
    return findings
