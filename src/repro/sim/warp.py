"""Warp state: SIMT reconvergence stack, registers, barrier/exit flags.

Masks are 32-bit Python integers (bit ``i`` = lane ``i``); they convert to
boolean numpy arrays only at the functional-execution boundary.  The
*scheduling state* of a warp — PC, SIMT stack, barrier flag — is exactly
the state Virtual Thread saves to backup SRAM on a context switch; the
*capacity state* (registers) stays in place.  :meth:`Warp.sched_state_snapshot`
exposes the former so tests can assert swap round-trips are lossless.
"""

from __future__ import annotations

import numpy as np

from repro.isa.cfg import EXIT_PC
from repro.isa.instruction import SpecialReg
from repro.sim.scoreboard import Scoreboard

_LANE_BITS = np.arange(32, dtype=np.uint64)
_LANE_POWERS = (np.uint64(1) << _LANE_BITS).astype(np.uint64)
FULL_MASK = (1 << 32) - 1


_MASK_CACHE: dict[int, np.ndarray] = {}


def mask_to_array(mask: int) -> np.ndarray:
    """32-bit int mask -> boolean lane array.

    Returns a shared read-only array: masks repeat heavily (a uniform warp
    presents the full mask on every instruction), and every consumer either
    fancy-indexes with it or derives a fresh array from it.
    """
    arr = _MASK_CACHE.get(mask)
    if arr is None:
        arr = (np.uint64(mask) >> _LANE_BITS & np.uint64(1)).astype(bool)
        arr.setflags(write=False)
        if len(_MASK_CACHE) < 65536:
            # selfcheck: ok[iso-global-write] -- pure memo: idempotent writes of a deterministic function of the key; fork workers fill private copies, inline sharing is benign
            _MASK_CACHE[mask] = arr
    return arr


def array_to_mask(arr: np.ndarray) -> int:
    """Boolean lane array -> 32-bit int mask."""
    return int(arr.astype(np.uint64) @ _LANE_POWERS)


class StackEntry:
    """One SIMT-stack entry: run ``mask`` from ``pc``, pop at ``rpc``."""

    __slots__ = ("rpc", "pc", "mask")

    def __init__(self, rpc: int | None, pc: int, mask: int):
        self.rpc = rpc
        self.pc = pc
        self.mask = mask

    def copy(self) -> "StackEntry":
        return StackEntry(self.rpc, self.pc, self.mask)

    def __repr__(self) -> str:
        return f"StackEntry(rpc={self.rpc}, pc={self.pc}, mask={self.mask:08x})"


class Warp:
    """One warp of a CTA: functional state plus timing bookkeeping."""

    __slots__ = (
        "cta",
        "local_wid",
        "live_mask",
        "regs",
        "stack",
        "pc",
        "finished",
        "exited",
        "at_barrier",
        "barrier_wake",
        "sregs",
        "scoreboard",
        "cached_status",
        "status_until",
        "instructions_issued",
        "sched",
        "age",
        "armed",
        "parked",
        "stream",
    )

    def __init__(self, cta, local_wid: int, regs_per_thread: int, live_lanes: int, warp_size: int,
                 stream=None):
        self.cta = cta
        self.local_wid = local_wid
        # Lanes beyond the CTA's thread count never exist.
        self.live_mask = (1 << live_lanes) - 1 if live_lanes < warp_size else FULL_MASK
        # A warp replaying a pre-pass stream (see repro.sim.prepass) was
        # executed before the launch: it keeps no registers of its own.
        self.stream = stream
        self.regs = (np.zeros((regs_per_thread, 32), dtype=np.float64)
                     if stream is None else None)
        self.stack: list[StackEntry] = [StackEntry(None, 0, self.live_mask)]
        # The top entry's pc and "stack empty", stored rather than derived:
        # the issue path reads them several times per instruction.  Every
        # stack transition settles in _cleanup, which refreshes both.
        self.pc: int | None = 0
        self.finished = False
        self.exited = (~self.live_mask) & FULL_MASK
        self.at_barrier = False
        self.barrier_wake = 0
        self.sregs: dict[SpecialReg, np.ndarray] = {}
        self.scoreboard = Scoreboard()
        # Status cache managed by the SM core (see smcore._status).
        self.cached_status: int = -1
        self.status_until: int = -1
        self.instructions_issued = 0
        # Ready-set membership, managed by the owning warp scheduler (see
        # repro.sim.schedulers): owner, age rank, and "in the ready set".
        self.sched = None
        self.age = 0
        self.armed = False
        # Status this warp was parked under while out of the ready set
        # (ST_MEM/ST_ALU/ST_BARRIER, counted in its CTA's ``parked``), or
        # 0 when it is armed or parked uncounted (see SMCore._park).
        self.parked = 0

    # -- derived state --------------------------------------------------------

    def active_mask(self) -> int:
        return self.stack[-1].mask & ~self.exited & FULL_MASK

    def active_lanes(self) -> np.ndarray:
        return mask_to_array(self.active_mask())

    # -- SIMT stack transitions ------------------------------------------------

    def _cleanup(self) -> None:
        """Pop exhausted/reconverged entries until the top is runnable, then
        refresh the stored ``pc``/``finished`` (None/True once empty)."""
        stack = self.stack
        while stack:
            top = stack[-1]
            if (top.mask & ~self.exited & FULL_MASK) == 0:
                stack.pop()
                continue
            if top.rpc is not None and top.rpc != EXIT_PC and top.pc == top.rpc:
                stack.pop()
                continue
            self.pc = top.pc
            return
        self.pc = None
        self.finished = True

    def advance(self) -> None:
        """Fall through to the next instruction, reconverging if reached."""
        self.stack[-1].pc += 1
        self._cleanup()

    def branch_uniform(self, target: int) -> None:
        """All active lanes take the branch."""
        self.stack[-1].pc = target
        self._cleanup()

    def branch_divergent(self, taken_mask: int, target: int, reconv_pc: int) -> None:
        """Split the warp: not-taken runs first, taken pushed on top.

        The current top entry becomes the reconvergence continuation; the
        two sides are pushed with ``rpc = reconv_pc`` so they pop when they
        reach it.  ``reconv_pc`` may be :data:`EXIT_PC` when the paths only
        rejoin at kernel exit.
        """
        top = self.stack[-1]
        active = top.mask & ~self.exited & FULL_MASK
        fall_mask = active & ~taken_mask & FULL_MASK
        fall_pc = top.pc + 1
        top.pc = reconv_pc if reconv_pc != EXIT_PC else EXIT_PC
        if fall_mask:
            self.stack.append(StackEntry(reconv_pc, fall_pc, fall_mask))
        self.stack.append(StackEntry(reconv_pc, target, taken_mask))
        self._cleanup()

    def do_exit(self) -> None:
        """Active lanes terminate; pops through to any remaining work."""
        self.exited |= self.active_mask()
        self._cleanup()

    # -- Virtual Thread support -------------------------------------------------

    def sched_state_snapshot(self) -> tuple:
        """The state VT backs up on swap-out: SIMT stack + barrier flag.

        Registers are intentionally absent — they stay resident on-chip,
        which is the paper's central cost argument.  A warp replaying a
        pre-pass stream ran its SIMT stack before the launch; its stack
        state is its position in the stream.
        """
        if self.stream is not None:
            stack = (("stream", self.stream.cursor, self.pc),)
        else:
            stack = tuple((e.rpc, e.pc, e.mask) for e in self.stack)
        return (
            stack,
            self.exited,
            self.at_barrier,
        )

    def __repr__(self) -> str:
        state = "fin" if self.finished else f"pc={self.pc}"
        return f"Warp(cta={self.cta.cta_id}, w{self.local_wid}, {state})"
