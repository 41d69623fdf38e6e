"""Cooperative Thread Array (CTA) state.

A CTA owns its warps, its shared-memory scratchpad and its barrier state.
Under Virtual Thread a CTA additionally carries a lifecycle state: ACTIVE
CTAs occupy scheduling structures and may issue; INACTIVE CTAs keep their
registers and shared memory resident but cannot issue; SWAP_OUT/SWAP_IN
model the cycles the swap engine spends saving/restoring the (small)
scheduling state.
"""

from __future__ import annotations

import enum

import numpy as np

from repro.isa.instruction import SpecialReg
from repro.sim.memory import SharedMemory
from repro.sim.warp import Warp

#: "No event scheduled": a cycle count no simulation ever reaches.
FOREVER = 1 << 60

_PARAM_KINDS = (
    SpecialReg.PARAM0, SpecialReg.PARAM1, SpecialReg.PARAM2, SpecialReg.PARAM3,
    SpecialReg.PARAM4, SpecialReg.PARAM5, SpecialReg.PARAM6, SpecialReg.PARAM7,
)


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

    def __init__(self, cta_id: int, ctaid: tuple[int, int, int], kernel, grid_dim,
                 params: tuple[float, ...], cfg, start_cycle: int):
        self.cta_id = cta_id
        self.ctaid = ctaid
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
        warp_size = cfg.warp_size
        num_warps = -(-threads // warp_size)
        uniform = self._uniform_special_regs(ctaid, kernel, grid_dim, params)
        self.warps: list[Warp] = []
        for w in range(num_warps):
            live = min(warp_size, threads - w * warp_size)
            warp = Warp(self, w, kernel.regs_per_thread, live, warp_size)
            warp.sregs = self._special_regs(uniform, w, kernel)
            self.warps.append(warp)
        # Unfinished warps, counted down by the SM core as each one exits
        # (see SMCore._issue) rather than recounted per occupancy sample.
        self.live_warps = num_warps

    @staticmethod
    def _uniform_special_regs(ctaid, kernel, grid_dim, params) -> dict:
        """The special registers every warp of the CTA reads alike, built
        once per CTA and shared read-only (a write through an operand read
        raises instead of leaking into other warps)."""
        ntid_x, ntid_y, ntid_z = kernel.cta_dim
        values = {
            SpecialReg.CTAID_X: ctaid[0],
            SpecialReg.CTAID_Y: ctaid[1],
            SpecialReg.CTAID_Z: ctaid[2],
            SpecialReg.NTID_X: ntid_x,
            SpecialReg.NTID_Y: ntid_y,
            SpecialReg.NTID_Z: ntid_z,
            SpecialReg.NCTAID_X: grid_dim[0],
            SpecialReg.NCTAID_Y: grid_dim[1],
            SpecialReg.NCTAID_Z: grid_dim[2],
        }
        for i, kind in enumerate(_PARAM_KINDS):
            values[kind] = params[i] if i < len(params) else 0.0
        uniform = {}
        for kind, value in values.items():
            arr = np.full(32, float(value))
            arr.setflags(write=False)
            uniform[kind] = arr
        return uniform

    @staticmethod
    def _special_regs(uniform: dict, local_wid: int, kernel) -> dict:
        """One warp's special registers: the CTA-uniform rows plus its own
        thread, lane and warp ids."""
        ntid_x, ntid_y, _ntid_z = kernel.cta_dim
        lanes = np.arange(32, dtype=np.float64)
        linear = local_wid * 32 + lanes
        sregs = dict(uniform)
        sregs[SpecialReg.TID_X] = linear % ntid_x
        sregs[SpecialReg.TID_Y] = (linear // ntid_x) % ntid_y
        sregs[SpecialReg.TID_Z] = linear // (ntid_x * ntid_y)
        sregs[SpecialReg.LANEID] = lanes
        sregs[SpecialReg.WARPID] = np.full(32, float(local_wid))
        return sregs

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
