"""Barrier-divergence lint: ``BAR`` under thread-dependent control flow.

A CTA-wide barrier releases only when *every* unfinished warp arrives.
If a conditional branch actually diverges (its predicate differs across
threads) and a ``BAR`` sits strictly between the branch and its
reconvergence point, some warps can take a path that never reaches the
barrier — the arrived warps then wait forever and the launch dies as a
:class:`~repro.sim.gpu.ProgressDeadlock` (PR-1's watchdog catches it at
runtime, hours of simulation later; this pass catches it before launch).

Formally: the reconvergence PC of a branch is its immediate
post-dominator, so every PC strictly inside the divergent region fails to
post-dominate the branch — a ``BAR`` there is only safe if the branch
cannot diverge.  Uniformity comes from the affine pass: a predicate with
no thread-id component is identical across the CTA (launch constants and
loop counters), so classic uniform loops around barriers stay clean.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.analysis.affine import affine_solution, is_top
from repro.isa.analysis.context import cfg_of
from repro.isa.analysis.dataflow import CFGView
from repro.isa.cfg import EXIT_PC
from repro.isa.opcodes import Op


@dataclass(frozen=True)
class BarrierDivergence:
    """One ``BAR`` reachable under unreconverged divergent control flow."""

    bar_pc: int
    branch_pc: int
    reconv_pc: int  # EXIT_PC when paths only rejoin at kernel exit


def _divergent_region(cfg: CFGView, branch_pc: int, reconv_pc: int) -> set[int]:
    """PCs reachable from the branch without passing its reconvergence
    point (the branch's divergent region, reconvergence point excluded)."""
    region: set[int] = set()
    work = [pc for pc in cfg.instr_successors(branch_pc) if pc != reconv_pc]
    while work:
        pc = work.pop()
        if pc in region:
            continue
        region.add(pc)
        for succ in cfg.instr_successors(pc):
            if succ != reconv_pc and succ not in region:
                work.append(succ)
    return region


def barrier_divergence(kernel) -> list[BarrierDivergence]:
    """Find every ``BAR`` inside a potentially-divergent region."""
    cfg = cfg_of(kernel)
    _affine, envs = affine_solution(kernel)
    findings: list[BarrierDivergence] = []
    seen: set[int] = set()
    for pc, instr in enumerate(kernel.instrs):
        if not instr.is_conditional_branch or not cfg.pc_reachable(pc):
            continue
        env = envs[pc]
        if env is None:
            continue
        pred_value = env.get(instr.pred.idx)
        if pred_value.is_uniform and not is_top(pred_value):
            continue  # cannot diverge: every thread takes the same way
        reconv = instr.reconv_pc if instr.reconv_pc is not None else EXIT_PC
        for region_pc in sorted(_divergent_region(cfg, pc, reconv)):
            if kernel.instrs[region_pc].op is Op.BAR and region_pc not in seen:
                seen.add(region_pc)
                findings.append(BarrierDivergence(
                    bar_pc=region_pc, branch_pc=pc, reconv_pc=reconv))
    return findings
