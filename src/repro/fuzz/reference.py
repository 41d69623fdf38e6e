"""CTA-vectorized reference executor for generated kernels.

This is the semantic oracle of the differential harness: an interpreter
with *no* timing model, no warps, no caches and no reconvergence stack.
Each CTA holds its registers as a ``(regs_per_thread, threads_per_cta)``
array, its special registers as per-thread vectors, and a pc, a step
count and a done flag per thread.

Within one barrier phase the interpreter repeats a **pc-grouped
lockstep step** until every running thread has reached ``BAR`` or
``EXIT``: take the lowest pc any running thread is at, and execute that
instruction once for every thread at that pc, masked by the predicate.
Branches just move each thread's pc; threads meet again whenever they
reach the same pc.  Nothing here reads ``reconv_pc`` or groups threads
into warps, so the oracle stays independent of the simulator's SIMT
control flow.  Once no thread is running, the barrier releases every
unfinished thread; the CTA ends when all threads have exited.

Why a group step is a legal sequential execution.  The executor is only
a valid oracle for kernels obeying the generator's memory discipline
(:mod:`repro.fuzz.generator`): stores injective per thread, loads from
read-only buffers, and atomics exactly commutative.  A group step equals
running its threads one after another in thread order:

* registers are private to each thread, so no thread of the group can
  see another's register writes;
* a step is all loads or all stores (one instruction), and under the
  discipline loads read buffers no thread writes while stores never
  write one word twice, so running them together or one at a time
  yields the same memory and the same loaded values;
* atomics run as a sequential read-modify-write loop in thread order,
  with Python ``max`` exactly as :meth:`GlobalMemory.atomic_max` does,
  so even the order in which a ``NaN`` meets the cell is kept.

So every group step is one legal sequential interleaving of the
threads, and under the discipline any interleaving — this one, the old
one-thread-at-a-time order, or the simulator's warp-parallel issue order
— produces the same final memory image.

Bit-exactness with the simulator's functional executor is achieved by
reusing its operator tables (:data:`repro.sim.exec._INT_BIN` et al.):
every arithmetic result goes through the exact same numpy expression as
the SIMD path, so even overflow to ``inf`` or a propagating ``NaN`` is
reproduced bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instruction import Imm, MemRef, Reg, SReg, SpecialReg
from repro.isa.opcodes import Op
from repro.sim.exec import _CMP, _FLOAT_BIN, _INT_BIN, _imm_broadcast
from repro.sim.memory import MemoryError_

#: Per-thread dynamic instruction budget; generated loops are bounded far
#: below this, so hitting it means a generator or interpreter bug.
MAX_STEPS = 200_000

#: The pc of a thread parked at a barrier or exited; above every real pc,
#: so the lowest-pc pick never selects it.
_PARKED = np.iinfo(np.int64).max

_PARAMS = (SpecialReg.PARAM0, SpecialReg.PARAM1, SpecialReg.PARAM2,
           SpecialReg.PARAM3, SpecialReg.PARAM4, SpecialReg.PARAM5,
           SpecialReg.PARAM6, SpecialReg.PARAM7)

_SHARED_OPS = (Op.LDS, Op.STS, Op.ATOMS_ADD)
_MEMORY_OPS = (Op.LDG, Op.STG, Op.ATOMG_ADD, Op.ATOMG_MAX) + _SHARED_OPS


class ReferenceExecError(RuntimeError):
    """A semantic error (or budget blow-up) in the reference interpreter."""


def _special_values(ctaid, kernel, grid_dim, params) -> dict:
    """Special-register vectors over CTA-linear thread ids ``t``; mirrors
    :meth:`repro.sim.cta.CTA._special_regs` exactly (lane ``t % 32`` of
    local warp ``t // 32`` has linear id ``t``)."""
    ntid_x, ntid_y, ntid_z = kernel.cta_dim
    n = kernel.threads_per_cta
    t = np.arange(n, dtype=np.float64)
    values = {
        SpecialReg.TID_X: t % ntid_x,
        SpecialReg.TID_Y: (t // ntid_x) % ntid_y,
        SpecialReg.TID_Z: t // (ntid_x * ntid_y),
        SpecialReg.LANEID: t % 32,
        SpecialReg.WARPID: t // 32,
    }
    uniform = {
        SpecialReg.CTAID_X: ctaid[0], SpecialReg.CTAID_Y: ctaid[1],
        SpecialReg.CTAID_Z: ctaid[2],
        SpecialReg.NTID_X: ntid_x, SpecialReg.NTID_Y: ntid_y,
        SpecialReg.NTID_Z: ntid_z,
        SpecialReg.NCTAID_X: grid_dim[0], SpecialReg.NCTAID_Y: grid_dim[1],
        SpecialReg.NCTAID_Z: grid_dim[2],
    }
    for i, kind in enumerate(_PARAMS):
        uniform[kind] = params[i] if i < len(params) else 0.0
    for kind, value in uniform.items():
        values[kind] = np.full(n, float(value))
    return values


def _read(regs, sregs, operand, sel, k: int) -> np.ndarray:
    """Operand values for the threads ``sel`` selects (``k`` of them).

    ``sel`` is a full slice or an index array; a full-slice register read
    is a view, which is safe because no operation writes through an
    operand it reads."""
    if isinstance(operand, Reg):
        return regs[operand.idx, sel]
    if isinstance(operand, Imm):
        return _imm_broadcast(operand.value, k, False)
    if isinstance(operand, SReg):
        return sregs[operand.kind][sel]
    raise ReferenceExecError(f"cannot read operand {operand!r}")


def _read_int(regs, sregs, operand, sel, k: int) -> np.ndarray:
    if isinstance(operand, Imm):
        return _imm_broadcast(operand.value, k, True)
    return _read(regs, sregs, operand, sel, k).astype(np.int64)


def _word_indices(data: np.ndarray, addrs: np.ndarray, space: str,
                  limit_bytes: int | None) -> np.ndarray:
    """Word indices of byte addresses ``addrs``, checked in this order:
    against the shared-memory size (``limit_bytes``, shared accesses
    only), for alignment, and against the word range of ``data``."""
    if limit_bytes is not None:
        over = addrs + 4 > limit_bytes
        if over.any():
            raise MemoryError_(
                f"shared access out of bounds: byte {addrs[over][0]}")
    misaligned = (addrs & 3) != 0
    if misaligned.any():
        raise MemoryError_(
            f"misaligned {space} access at byte {addrs[misaligned][0]}")
    idx = addrs >> 2
    outside = (idx < 0) | (idx >= data.size)
    if outside.any():
        raise MemoryError_(
            f"{space} access out of bounds: byte {addrs[outside][0]}")
    return idx


def _execute(instr, regs, sregs, sel, k: int, gdata, sdata,
             smem_bytes: int) -> None:
    """Execute one non-control instruction for the ``k`` threads ``sel``."""
    op = instr.op

    def rd(operand):
        return _read(regs, sregs, operand, sel, k)

    def rd_int(operand):
        return _read_int(regs, sregs, operand, sel, k)

    def wr(values) -> None:
        regs[instr.dst.idx, sel] = values

    int_fn = _INT_BIN.get(instr._op_key)
    if int_fn is not None:
        a, b = rd_int(instr.srcs[0]), rd_int(instr.srcs[1])
        if op in (Op.SHL, Op.SHR) and (b < 0).any():
            raise ReferenceExecError("negative shift amount")
        wr(int_fn(a, b).astype(np.float64))
    elif (float_fn := _FLOAT_BIN.get(instr._op_key)) is not None:
        wr(float_fn(rd(instr.srcs[0]), rd(instr.srcs[1])))
    elif op is Op.IMAD:
        a, b, c = (rd_int(s) for s in instr.srcs)
        wr((a * b + c).astype(np.float64))
    elif op is Op.FFMA:
        a, b, c = (rd(s) for s in instr.srcs)
        wr(a * b + c)
    elif op in (Op.IDIV, Op.IREM):
        a, b = rd_int(instr.srcs[0]), rd_int(instr.srcs[1])
        if (b == 0).any():
            raise ReferenceExecError("integer division by zero")
        quotient = np.trunc(a / b).astype(np.int64)
        wr((quotient if op is Op.IDIV else a - quotient * b
            ).astype(np.float64))
    elif op is Op.FDIV:
        a, b = rd(instr.srcs[0]), rd(instr.srcs[1])
        if (b == 0).any():
            raise ReferenceExecError("float division by zero")
        wr(a / b)
    elif op is Op.FSQRT:
        a = rd(instr.srcs[0])
        if (a < 0).any():
            raise ReferenceExecError("sqrt of negative value")
        wr(np.sqrt(a))
    elif op is Op.FEXP:
        wr(np.exp(rd(instr.srcs[0])))
    elif op is Op.FABS:
        wr(np.abs(rd(instr.srcs[0])))
    elif op is Op.I2F:
        wr(rd_int(instr.srcs[0]).astype(np.float64))
    elif op is Op.F2I:
        wr(np.trunc(rd(instr.srcs[0])))
    elif op in (Op.MOV, Op.S2R):
        wr(rd(instr.srcs[0]))
    elif op is Op.SEL:
        c, a, b = (rd(s) for s in instr.srcs)
        wr(np.where(c != 0, a, b))
    elif op is Op.SETP:
        a, b = rd(instr.srcs[0]), rd(instr.srcs[1])
        wr(_CMP[instr._cmp_key](a, b).astype(np.float64))
    elif op in _MEMORY_OPS:
        ref: MemRef = instr.srcs[0]
        addrs = regs[ref.base.idx, sel].astype(np.int64) + ref.offset
        if op in _SHARED_OPS:
            idx = _word_indices(sdata, addrs, "shared", smem_bytes)
            data = sdata
        else:
            idx = _word_indices(gdata, addrs, "global", None)
            data = gdata
        if op in (Op.LDG, Op.LDS):
            wr(data[idx])
        elif op in (Op.STG, Op.STS):
            data[idx] = rd(instr.srcs[1])
        else:  # atomics: sequential read-modify-write in thread order
            vals = rd(instr.srcs[1]).tolist()
            old = np.empty(k, dtype=np.float64)
            for j, (i, val) in enumerate(zip(idx.tolist(), vals)):
                old[j] = cell = data.item(i)
                data[i] = max(cell, val) if op is Op.ATOMG_MAX else cell + val
            wr(old)
    else:
        raise ReferenceExecError(f"unhandled opcode {op}")


def _run_cta(kernel, sregs, gdata) -> None:
    """Run one CTA's threads in pc-grouped lockstep, phase by phase."""
    instrs = kernel.instrs
    n = kernel.threads_per_cta
    smem_bytes = kernel.smem_bytes
    full = slice(None)
    regs = np.zeros((kernel.regs_per_thread, n), dtype=np.float64)
    sdata = np.zeros(max(1, smem_bytes // 4), dtype=np.float64)
    pc = np.zeros(n, dtype=np.int64)
    resume = np.zeros(n, dtype=np.int64)  # pc after the BAR a thread waits at
    steps = np.zeros(n, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    group_steps = 0  # bounds every thread's step count from above
    while True:
        p = int(pc.min())
        if p == _PARKED:  # every thread is at a barrier or has exited
            if done.all():
                return
            waiting = ~done
            pc[waiting] = resume[waiting]
            continue
        at = pc == p
        k = int(np.count_nonzero(at))
        sel = full if k == n else np.flatnonzero(at)
        steps[sel] += 1
        group_steps += 1
        if group_steps > MAX_STEPS and int(steps[sel].max()) > MAX_STEPS:
            raise ReferenceExecError(
                f"thread exceeded {MAX_STEPS} steps in {kernel.name!r}")
        if p >= len(instrs):
            raise ReferenceExecError(f"pc {p} fell off {kernel.name!r}")
        instr = instrs[p]
        op = instr.op

        if op is Op.EXIT:
            if instr.pred is not None:
                raise ReferenceExecError("predicated EXIT is not supported")
            done[sel] = True
            pc[sel] = _PARKED
            continue
        if op is Op.BAR:
            if instr.pred is not None:
                raise ReferenceExecError("predicated BAR is not supported")
            resume[sel] = p + 1
            pc[sel] = _PARKED
            continue

        enabled = None
        if instr.pred is not None:
            enabled = regs[instr.pred.idx, sel] != 0
            if instr.pred_neg:
                enabled = ~enabled
        if op is Op.BRA:
            pc[sel] = (instr.target if enabled is None
                       else np.where(enabled, instr.target, p + 1))
            continue
        pc[sel] = p + 1
        if op is Op.NOP:
            continue
        if enabled is not None:
            sel = np.flatnonzero(enabled) if k == n else sel[enabled]
            k = sel.size
            if not k:
                continue
        _execute(instr, regs, sregs, sel, k, gdata, sdata, smem_bytes)


def reference_execute(kernel, grid_dim, data: np.ndarray,
                      params: tuple[float, ...] = ()) -> None:
    """Execute ``kernel`` over ``grid_dim`` CTAs, mutating ``data`` (the
    flat word array of a :class:`~repro.sim.memory.GlobalMemory`) in place.

    CTAs run one after another; the threads of a CTA run in pc-grouped
    lockstep, one barrier phase at a time (see the module docstring).
    """
    gx, gy, gz = grid_dim
    for cta in range(gx * gy * gz):
        ctaid = (cta % gx, (cta // gx) % gy, cta // (gx * gy))
        _run_cta(kernel, _special_values(ctaid, kernel, grid_dim, params),
                 data)
