"""Functional execution of one instruction for one warp.

Execution happens at *issue* time: the timing model decides when an
instruction may issue, then calls :func:`functional_step`, which updates
registers/memory/PC immediately while the scoreboard models when the
results become architecturally visible.  This split is safe because the
workloads are data-race-free (inter-warp communication goes through
barriers or atomics, and atomics are performed read-modify-write in issue
order).

The returned :class:`ExecResult` carries everything the timing model needs
(memory space, per-lane byte addresses, lane count) without re-decoding.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instruction import Imm, MemRef, Reg, SReg
from repro.isa.opcodes import CmpOp, Op
from repro.sim.warp import Warp, mask_to_array, array_to_mask


class ExecutionError(RuntimeError):
    """A dynamic semantic error in the simulated program."""


class ExecResult:
    """Side-band information about one executed instruction.

    ``lanes`` is the popcount of ``exec_mask``, taken once here because
    the issue path reads it for every instruction."""

    __slots__ = ("exec_mask", "lanes", "mem_space", "addresses", "is_store",
                 "is_atomic", "did_barrier", "did_exit")

    def __init__(self, exec_mask: int):
        self.exec_mask = exec_mask  # lanes that executed (post-predication)
        self.lanes = exec_mask.bit_count()
        self.mem_space: str | None = None  # "global" | "shared" | None
        self.addresses: np.ndarray | None = None  # byte addrs of executed lanes
        self.is_store = False
        self.is_atomic = False
        self.did_barrier = False
        self.did_exit = False


def _keyed(table: dict) -> dict:
    """Re-key an operator table by member value: the executors look ops up
    by the decode-time keys ``Instruction._op_key``/``_cmp_key``, which are
    strings, so no lookup pays for an Enum ``__hash__``."""
    return {member.value: fn for member, fn in table.items()}


_INT_BIN = _keyed({
    Op.IADD: lambda a, b: a + b,
    Op.ISUB: lambda a, b: a - b,
    Op.IMUL: lambda a, b: a * b,
    Op.IMIN: lambda a, b: np.minimum(a, b),
    Op.IMAX: lambda a, b: np.maximum(a, b),
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.SHL: lambda a, b: a << b,
    Op.SHR: lambda a, b: a >> b,
})

_FLOAT_BIN = _keyed({
    Op.FADD: lambda a, b: a + b,
    Op.FSUB: lambda a, b: a - b,
    Op.FMUL: lambda a, b: a * b,
    Op.FMIN: lambda a, b: np.minimum(a, b),
    Op.FMAX: lambda a, b: np.maximum(a, b),
})

_CMP = _keyed({
    CmpOp.EQ: lambda a, b: a == b,
    CmpOp.NE: lambda a, b: a != b,
    CmpOp.LT: lambda a, b: a < b,
    CmpOp.LE: lambda a, b: a <= b,
    CmpOp.GT: lambda a, b: a > b,
    CmpOp.GE: lambda a, b: a >= b,
})

_SHIFTS = frozenset((Op.SHL.value, Op.SHR.value))
_MEMORY_OPS = frozenset(op.value for op in (
    Op.LDG, Op.STG, Op.LDS, Op.STS, Op.ATOMG_ADD, Op.ATOMS_ADD, Op.ATOMG_MAX))


#: Shared read-only broadcasts of immediates, keyed by (value, lane count):
#: kernels name few distinct immediates, and consumers never write through
#: an operand read, so the allocation per executed instruction is avoidable.
_IMM_CACHE: dict[tuple[float, int], np.ndarray] = {}
_IMM_INT_CACHE: dict[tuple[float, int], np.ndarray] = {}


def _imm_broadcast(value: float, n: int, as_int: bool) -> np.ndarray:
    cache = _IMM_INT_CACHE if as_int else _IMM_CACHE
    key = (value, n)
    arr = cache.get(key)
    if arr is None:
        arr = np.full(n, float(value))
        if as_int:
            arr = arr.astype(np.int64)
        arr.setflags(write=False)
        if len(cache) < 65536:
            cache[key] = arr
    return arr


def _read(warp: Warp, operand, lanes: np.ndarray, n: int) -> np.ndarray:
    """Read an operand's value for the selected lanes (float64 array).

    ``n`` is the popcount of ``lanes``.  For a full-mask read the register
    row is returned as a *view*: no executor mutates an operand array in
    place (every ALU op allocates its result), so skipping the boolean
    gather is observationally identical.
    """
    if isinstance(operand, Reg):
        row = warp.regs[operand.idx]
        return row if n == 32 else row[lanes]
    if isinstance(operand, Imm):
        return _imm_broadcast(operand.value, n, False)
    if isinstance(operand, SReg):
        row = warp.sregs[operand.kind]
        return row if n == 32 else row[lanes]
    raise ExecutionError(f"cannot read operand {operand!r}")


def _read_int(warp: Warp, operand, lanes: np.ndarray, n: int) -> np.ndarray:
    if isinstance(operand, Imm):
        return _imm_broadcast(operand.value, n, True)
    return _read(warp, operand, lanes, n).astype(np.int64)


def _addresses(warp: Warp, ref: MemRef, lanes: np.ndarray, n: int) -> np.ndarray:
    base = _read(warp, ref.base, lanes, n).astype(np.int64)
    return base + ref.offset


def _write(warp: Warp, dst: Reg, lanes: np.ndarray, n: int, values) -> None:
    if n == 32:
        warp.regs[dst.idx] = values  # full-mask row assign (copies values)
    else:
        warp.regs[dst.idx][lanes] = values


def functional_step(warp: Warp, instr, gmem) -> ExecResult:
    """Execute ``instr`` for ``warp``; updates state and returns metadata.

    Opcodes are told apart by ``instr._op_key`` (a string fixed at decode):
    on CPython 3.11 each ``Op.X`` attribute read goes through
    ``EnumType.__getattr__``, and this chain would pay it per comparison.
    The lane-array guards are single counts (``np.count_nonzero``) rather
    than ``.any()``, whose Python-level wrapper costs more than the test.
    """
    if warp.finished:
        raise ExecutionError(f"executing with empty mask (finished warp): {instr!r}")
    active = warp.active_mask()
    if active == 0:
        raise ExecutionError(f"executing with empty mask: {instr!r}")

    # Predication (for non-branch ops) masks lanes out of execution but all
    # active lanes still advance past the instruction.
    key = instr._op_key
    if key == "BRA":
        return _exec_branch(warp, instr, active)

    exec_mask = active
    if instr.pred is not None:
        # Vectorized predication: evaluate the predicate over all 32 lanes
        # and AND with the active mask — lanes outside the mask contribute
        # nothing, so this matches the per-lane gather exactly.
        active_arr = mask_to_array(active)
        pvals = warp.regs[instr.pred.idx] != 0
        if instr.pred_neg:
            pvals = ~pvals
        exec_mask = array_to_mask(active_arr & pvals)

    result = ExecResult(exec_mask)

    if key == "EXIT":
        # Predicated EXIT is disallowed by convention (keeps warp-completion
        # logic simple); the assembler cannot express it accidentally in our
        # kernels but guard anyway.
        if instr.pred is not None:
            raise ExecutionError("predicated EXIT is not supported")
        warp.do_exit()
        result.did_exit = True
        return result

    if key == "BAR":
        if exec_mask != active:
            raise ExecutionError("predicated BAR is not supported")
        result.did_barrier = True
        warp.advance()
        return result

    if key == "NOP" or exec_mask == 0:
        warp.advance()
        return result

    lanes = mask_to_array(exec_mask)
    n = result.lanes

    int_fn = _INT_BIN.get(key)
    if int_fn is not None:
        a = _read_int(warp, instr.srcs[0], lanes, n)
        b = _read_int(warp, instr.srcs[1], lanes, n)
        if key in _SHIFTS and np.count_nonzero(b < 0):
            raise ExecutionError("negative shift amount")
        _write(warp, instr.dst, lanes, n, int_fn(a, b).astype(np.float64))
    elif (float_fn := _FLOAT_BIN.get(key)) is not None:
        a = _read(warp, instr.srcs[0], lanes, n)
        b = _read(warp, instr.srcs[1], lanes, n)
        _write(warp, instr.dst, lanes, n, float_fn(a, b))
    elif key in _MEMORY_OPS:
        _exec_memory(warp, instr, key, lanes, n, gmem, result)
    elif key == "IMAD":
        a = _read_int(warp, instr.srcs[0], lanes, n)
        b = _read_int(warp, instr.srcs[1], lanes, n)
        c = _read_int(warp, instr.srcs[2], lanes, n)
        _write(warp, instr.dst, lanes, n, (a * b + c).astype(np.float64))
    elif key == "FFMA":
        a = _read(warp, instr.srcs[0], lanes, n)
        b = _read(warp, instr.srcs[1], lanes, n)
        c = _read(warp, instr.srcs[2], lanes, n)
        _write(warp, instr.dst, lanes, n, a * b + c)
    elif key == "SETP":
        a = _read(warp, instr.srcs[0], lanes, n)
        b = _read(warp, instr.srcs[1], lanes, n)
        _write(warp, instr.dst, lanes, n, _CMP[instr._cmp_key](a, b).astype(np.float64))
    elif key == "MOV" or key == "S2R":
        _write(warp, instr.dst, lanes, n, _read(warp, instr.srcs[0], lanes, n))
    elif key == "SEL":
        c = _read(warp, instr.srcs[0], lanes, n)
        a = _read(warp, instr.srcs[1], lanes, n)
        b = _read(warp, instr.srcs[2], lanes, n)
        _write(warp, instr.dst, lanes, n, np.where(c != 0, a, b))
    elif key == "IDIV" or key == "IREM":
        a = _read_int(warp, instr.srcs[0], lanes, n)
        b = _read_int(warp, instr.srcs[1], lanes, n)
        if np.count_nonzero(b) < b.size:
            raise ExecutionError("integer division by zero")
        quotient = np.trunc(a / b).astype(np.int64)  # C-style truncation
        value = quotient if key == "IDIV" else a - quotient * b
        _write(warp, instr.dst, lanes, n, value.astype(np.float64))
    elif key == "FDIV":
        a = _read(warp, instr.srcs[0], lanes, n)
        b = _read(warp, instr.srcs[1], lanes, n)
        if np.count_nonzero(b) < b.size:
            raise ExecutionError("float division by zero")
        _write(warp, instr.dst, lanes, n, a / b)
    elif key == "FSQRT":
        a = _read(warp, instr.srcs[0], lanes, n)
        if np.count_nonzero(a < 0):
            raise ExecutionError("sqrt of negative value")
        _write(warp, instr.dst, lanes, n, np.sqrt(a))
    elif key == "FEXP":
        _write(warp, instr.dst, lanes, n, np.exp(_read(warp, instr.srcs[0], lanes, n)))
    elif key == "FABS":
        _write(warp, instr.dst, lanes, n, np.abs(_read(warp, instr.srcs[0], lanes, n)))
    elif key == "I2F":
        _write(warp, instr.dst, lanes, n, _read_int(warp, instr.srcs[0], lanes, n).astype(np.float64))
    elif key == "F2I":
        _write(warp, instr.dst, lanes, n, np.trunc(_read(warp, instr.srcs[0], lanes, n)))
    else:  # pragma: no cover - exhaustive over Op
        raise ExecutionError(f"unhandled opcode {instr.op}")

    warp.advance()
    return result


def _exec_memory(warp: Warp, instr, key: str, lanes: np.ndarray, n: int, gmem,
                 result: ExecResult) -> None:
    ref = instr.srcs[0]
    addrs = _addresses(warp, ref, lanes, n)
    smem = warp.cta.smem
    if key == "LDG":
        _write(warp, instr.dst, lanes, n, gmem.load(addrs))
        result.mem_space = "global"
    elif key == "STG":
        gmem.store(addrs, _read(warp, instr.srcs[1], lanes, n))
        result.mem_space, result.is_store = "global", True
    elif key == "LDS":
        _write(warp, instr.dst, lanes, n, smem.load(addrs))
        result.mem_space = "shared"
    elif key == "STS":
        smem.store(addrs, _read(warp, instr.srcs[1], lanes, n))
        result.mem_space, result.is_store = "shared", True
    elif key == "ATOMG_ADD":
        _write(warp, instr.dst, lanes, n, gmem.atomic_add(addrs, _read(warp, instr.srcs[1], lanes, n)))
        result.mem_space, result.is_atomic = "global", True
    elif key == "ATOMG_MAX":
        _write(warp, instr.dst, lanes, n, gmem.atomic_max(addrs, _read(warp, instr.srcs[1], lanes, n)))
        result.mem_space, result.is_atomic = "global", True
    elif key == "ATOMS_ADD":
        _write(warp, instr.dst, lanes, n, smem.atomic_add(addrs, _read(warp, instr.srcs[1], lanes, n)))
        result.mem_space, result.is_atomic = "shared", True
    result.addresses = addrs
    if result.is_atomic and result.mem_space == "global":
        # Parallel-engine tap: a deferring gmem proxy needs (warp, dst,
        # lanes) to patch the true old values in at the epoch barrier.
        note = getattr(gmem, "note_atomic_target", None)
        if note is not None:
            note(warp, instr.dst, lanes)


def _exec_branch(warp: Warp, instr, active: int) -> ExecResult:
    if instr.pred is None:
        warp.branch_uniform(instr.target)
        return ExecResult(active)
    active_arr = mask_to_array(active)
    pvals = warp.regs[instr.pred.idx] != 0
    if instr.pred_neg:
        pvals = ~pvals
    taken_arr = active_arr & pvals
    taken = array_to_mask(taken_arr)
    fall = active & ~taken
    if fall == 0:
        warp.branch_uniform(instr.target)
    elif taken == 0:
        warp.advance()
    else:
        if instr.reconv_pc is None:
            raise ExecutionError(f"divergent branch without reconvergence PC: {instr!r}")
        warp.branch_divergent(taken, instr.target, instr.reconv_pc)
    return ExecResult(active)
