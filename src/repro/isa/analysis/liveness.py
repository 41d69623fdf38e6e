"""Backward liveness analysis.

A register is *live* at a PC when some path from that PC reads it before
writing it.  Two consumers:

* **Lint** — declared ``regs_per_thread`` far above the maximum live
  pressure is flagged as an over-declaration (informational: the registry
  deliberately over-declares some kernels to model real compilers).
* **Sanitizer cross-check** — registers written at runtime must be in
  the statically written set (see :mod:`repro.sim.sanitizer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.analysis.context import cfg_of, fact
from repro.isa.analysis.dataflow import BACKWARD, DataflowProblem, solve


class LivenessAnalysis(DataflowProblem):
    """Classic backward may-liveness over register indices."""

    direction = BACKWARD

    def boundary(self) -> frozenset:
        return frozenset()

    def init(self) -> frozenset:
        return frozenset()

    def meet(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def transfer(self, pc: int, instr, live: frozenset) -> frozenset:
        dst = instr.dst_reg()
        if dst is not None and instr.pred is None:
            # Only an unpredicated write fully kills: a predicated write
            # leaves lanes with the old value, so the register stays live.
            live = live - {dst}
        reads = instr.src_regs()
        if reads:
            live = live | frozenset(reads)
        return live


@dataclass(frozen=True)
class LivenessInfo:
    """Per-kernel liveness summary."""

    kernel_name: str
    live_in: tuple  # frozenset per PC
    max_pressure: int  # max |live_in| over reachable PCs
    written_regs: frozenset  # statically written register indices


def liveness(kernel) -> LivenessInfo:
    """The liveness summary of ``kernel``, solved once per kernel."""
    return fact(kernel, "liveness", _liveness, kernel)


def _liveness(kernel) -> LivenessInfo:
    cfg = cfg_of(kernel)
    solution = solve(LivenessAnalysis(), cfg)
    live_in = solution.per_pc()

    max_pressure = 0
    written: set[int] = set()
    for pc, instr in enumerate(kernel.instrs):
        if not cfg.pc_reachable(pc):
            continue
        max_pressure = max(max_pressure, len(live_in[pc]))
        dst = instr.dst_reg()
        if dst is not None:
            written.add(dst)
    return LivenessInfo(
        kernel_name=kernel.name,
        live_in=tuple(live_in),
        max_pressure=max_pressure,
        written_regs=frozenset(written),
    )
