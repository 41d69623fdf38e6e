"""Backward liveness analysis and VT swap-point register footprints.

A register is *live* at a PC when some path from that PC reads it before
writing it.  Three consumers:

* **Lint** — declared ``regs_per_thread`` far above the maximum live
  pressure is flagged as an over-declaration (informational: the registry
  deliberately over-declares some kernels to model real compilers).
* **VT swap footprint** — the paper's context switch moves only
  scheduling state, but a design that also spilled architectural
  registers (compiler-assisted preemption, see Pai et al. in PAPERS.md)
  would move the *live* set, not the declared footprint.  VT swaps fire
  when every warp of a CTA is blocked on a long-latency load, so the
  relevant PCs are the instruction boundaries just after global-memory
  accesses, plus barriers (where warps also park).  The footprint is the
  worst case over those swap points.
* **Sanitizer cross-check** — registers written at runtime must be in
  the statically written set (see :mod:`repro.sim.sanitizer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.analysis.context import cfg_of, fact
from repro.isa.analysis.dataflow import BACKWARD, DataflowProblem, solve
from repro.isa.opcodes import Op, OpClass


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
    barrier_live: dict  # BAR pc -> live register count
    swap_point_live: dict  # pc after a global-memory op -> live count
    written_regs: frozenset  # statically written register indices

    @property
    def swap_footprint_regs(self) -> int:
        """Worst-case live registers at a VT swap point.

        Falls back to the overall max pressure for kernels with no global
        memory ops or barriers (nothing would ever trigger a swap, but the
        bound stays meaningful).
        """
        points = list(self.barrier_live.values()) + list(self.swap_point_live.values())
        return max(points) if points else self.max_pressure


def liveness(kernel) -> LivenessInfo:
    """The liveness summary of ``kernel``, solved once per kernel."""
    return fact(kernel, "liveness", _liveness, kernel)


def _liveness(kernel) -> LivenessInfo:
    cfg = cfg_of(kernel)
    solution = solve(LivenessAnalysis(), cfg)
    live_in = solution.per_pc()

    max_pressure = 0
    barrier_live: dict[int, int] = {}
    swap_live: dict[int, int] = {}
    written: set[int] = set()
    n = len(kernel.instrs)
    for pc, instr in enumerate(kernel.instrs):
        if not cfg.pc_reachable(pc):
            continue
        pressure = len(live_in[pc])
        max_pressure = max(max_pressure, pressure)
        dst = instr.dst_reg()
        if dst is not None:
            written.add(dst)
        if instr.op is Op.BAR:
            barrier_live[pc] = pressure
        if instr.info.op_class is OpClass.MEM_GLOBAL:
            # The warp blocks with its PC already advanced past the load:
            # the state a swap would save is what is live *after* it.
            after = pc + 1
            count = len(live_in[after]) if after < n else 0
            # The load's destination is in flight and must survive the
            # swap even if the static set at pc+1 happens to drop it.
            if dst is not None and after < n and dst not in live_in[after]:
                count += 1
            swap_live[pc] = count
    return LivenessInfo(
        kernel_name=kernel.name,
        live_in=tuple(live_in),
        max_pressure=max_pressure,
        barrier_live=barrier_live,
        swap_point_live=swap_live,
        written_regs=frozenset(written),
    )
