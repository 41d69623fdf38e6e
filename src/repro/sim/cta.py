"""Cooperative Thread Array (CTA) state, and the special registers.

A CTA owns its warps, its shared-memory scratchpad and its barrier state.
Under Virtual Thread a CTA additionally carries a lifecycle state: ACTIVE
CTAs occupy scheduling structures and may issue; INACTIVE CTAs keep their
registers and shared memory resident but cannot issue; SWAP_OUT/SWAP_IN
model the cycles the swap engine spends saving/restoring the (small)
scheduling state.

:func:`special_regs` is the one definition of what ``S2R`` reads.  A CTA
that executes at issue builds its warps' rows with it; the functional
pre-pass (:mod:`repro.sim.prepass`) builds a whole chunk of CTAs' rows
with it.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.isa.instruction import SReg, SpecialReg
from repro.sim.memory import SharedMemory
from repro.sim.warp import Warp

#: "No event scheduled": a cycle count no simulation ever reaches.
FOREVER = 1 << 60

_PARAMS = tuple(SpecialReg(f"param{i}") for i in range(8))


def special_regs(kernel, grid, params, cta: np.ndarray, linear: np.ndarray
                 ) -> dict:
    """The special registers ``kernel`` reads, for the threads with linear
    ids ``linear`` in the CTAs with linear ids ``cta`` (float64 arrays,
    one entry per thread).  Thread ``32 w + l`` of a CTA is lane ``l`` of
    its warp ``w``; CTA ``c`` has coordinates ``(c % gx, c // gx % gy,
    c // (gx gy))`` in ``grid``; launch parameters past ``params`` read 0."""
    nx, ny, nz = kernel.cta_dim
    gx, gy, gz = grid
    uniform = {SpecialReg.NTID_X: nx, SpecialReg.NTID_Y: ny,
               SpecialReg.NTID_Z: nz, SpecialReg.NCTAID_X: gx,
               SpecialReg.NCTAID_Y: gy, SpecialReg.NCTAID_Z: gz}
    uniform.update(zip(_PARAMS, tuple(params) + (0.0,) * len(_PARAMS)))
    per_thread = {
        SpecialReg.TID_X: lambda: linear % nx,
        SpecialReg.TID_Y: lambda: (linear // nx) % ny,
        SpecialReg.TID_Z: lambda: linear // (nx * ny),
        SpecialReg.LANEID: lambda: linear % 32,
        SpecialReg.WARPID: lambda: linear // 32,
        SpecialReg.CTAID_X: lambda: cta % gx,
        SpecialReg.CTAID_Y: lambda: (cta // gx) % gy,
        SpecialReg.CTAID_Z: lambda: cta // (gx * gy),
    }
    kinds = dict.fromkeys(op.kind for instr in kernel.instrs
                          for op in instr.srcs if isinstance(op, SReg))
    return {kind: per_thread[kind]() if kind in per_thread
            else np.full(linear.size, float(uniform[kind])) for kind in kinds}


class CTAState(enum.Enum):
    ACTIVE = "active"
    INACTIVE = "inactive"
    SWAP_OUT = "swap_out"
    SWAP_IN = "swap_in"
    FINISHED = "finished"


# Aliases for the per-cycle paths: reading a member through the class goes
# through EnumType.__getattr__, ~0.2 us on CPython 3.11.
ACTIVE = CTAState.ACTIVE
INACTIVE = CTAState.INACTIVE
SWAP_OUT = CTAState.SWAP_OUT
SWAP_IN = CTAState.SWAP_IN
FINISHED = CTAState.FINISHED


class CTA:
    """One resident CTA on an SM."""

    def __init__(self, cta_id: int, kernel, grid_dim, params: tuple[float, ...],
                 cfg, start_cycle: int, stream=None):
        self.cta_id = cta_id
        self.kernel = kernel
        self.cfg = cfg
        self.state = CTAState.ACTIVE
        self.state_until = 0  # swap-engine busy horizon for SWAP_* states
        self.start_cycle = start_cycle
        self.smem = SharedMemory(kernel.smem_bytes)
        self.times_swapped_out = 0
        self.became_inactive_at = start_cycle
        self.stall_since: int | None = None  # for the "timeout" trigger policy

        # Warps parked out of their scheduler's ready set, counted by the
        # status they were parked under (indexed by the smcore ST_* codes;
        # see SMCore._park), and the earliest ``status_until`` among them
        # (-1 once an arm may have removed the minimum: recomputed lazily).
        self.parked = [0, 0, 0, 0]
        self.park_min = FOREVER
        # VT activation readiness memo (see VirtualThreadManager.ready_at):
        # None until first asked after the CTA last turned INACTIVE.
        self.activation_at: int | None = None

        threads = kernel.threads_per_cta
        num_warps = kernel.warps_per_cta()
        if stream is None:
            # One build for the whole CTA, read-only: each warp reads a
            # 32-lane slice, and a write through an operand read raises.
            n = num_warps * 32
            sregs = special_regs(kernel, grid_dim, params,
                                 np.full(n, float(cta_id)),
                                 np.arange(n, dtype=np.float64))
            for values in sregs.values():
                values.setflags(write=False)
        self.warps: list[Warp] = []
        for w in range(num_warps):
            live = min(32, threads - w * 32)
            if stream is None:
                warp = Warp(self, w, kernel.regs_per_thread, live)
                warp.sregs = {kind: values[32 * w:32 * w + 32]
                              for kind, values in sregs.items()}
            else:
                # Executed by the launch's pre-pass: the warp replays its
                # stream and reads no special registers.
                warp = Warp(self, w, kernel.regs_per_thread, live,
                            stream.warp(cta_id, w))
            self.warps.append(warp)
        # Unfinished warps, counted down by the SM core as each one exits
        # (see SMCore._issue) rather than recounted per occupancy sample.
        self.live_warps = num_warps

    # -- resource footprint (what the allocators charge) -----------------------

    @property
    def regs_needed(self) -> int:
        return self.kernel.regs_per_thread * self.kernel.threads_per_cta

    @property
    def smem_needed(self) -> int:
        return self.kernel.smem_bytes

    @property
    def num_warps(self) -> int:
        return len(self.warps)

    # -- lifecycle ---------------------------------------------------------------

    @property
    def finished(self) -> bool:
        return all(w.finished for w in self.warps)

    def schedulable_now(self, now: int) -> bool:
        """Whether this CTA's warps may issue this cycle (VT state + launch)."""
        return self.state is ACTIVE and now >= self.start_cycle

    # -- barrier ------------------------------------------------------------------

    def barrier_arrive(self, warp: Warp, now: int) -> bool:
        """Warp reached a BAR; returns True if the barrier released."""
        warp.at_barrier = True
        return self.check_barrier_release(now)

    def check_barrier_release(self, now: int) -> bool:
        """Release the barrier if every unfinished warp has arrived."""
        waiting = [w for w in self.warps if not w.finished]
        if not waiting or not all(w.at_barrier for w in waiting):
            return False
        wake = now + self.cfg.barrier_release_latency
        for warp in waiting:
            warp.at_barrier = False
            warp.barrier_wake = wake
            warp.status_until = -1  # invalidate status cache
        return True

    # -- Virtual Thread readiness ----------------------------------------------

    def ready_for_activation(self, now: int) -> bool:
        """An inactive CTA is ready when some warp could make progress:
        it is unfinished, not parked at a barrier, and has no outstanding
        global-load dependence."""
        for warp in self.warps:
            if warp.finished or warp.at_barrier:
                continue
            if not warp.scoreboard.has_mem_pending(now):
                return True
        return False

    def __repr__(self) -> str:
        return f"CTA({self.cta_id}, {self.state.value}, warps={self.num_warps})"
