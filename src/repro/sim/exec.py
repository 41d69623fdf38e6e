"""Instruction semantics, and functional execution of one warp at issue.

**One definition of each instruction.**  :data:`OPS` maps every op that
is neither a memory access nor control flow to whether it reads its
operands as integers, its function, and its domain check.  Both simulator
executors dispatch through it: :func:`functional_step` below, which runs
one instruction for one warp at issue, and the functional pre-pass
(:mod:`repro.sim.prepass`), which runs one instruction for every warp
standing at the same pc.  So both compute every value with the same numpy
expression on the same inputs, and a domain error raises the same
:class:`ExecutionError` in both.  Both check memory addresses with
:func:`repro.sim.memory.word_indices` and read special registers built by
:func:`repro.sim.cta.special_regs`.  The fuzz oracle
(:mod:`repro.fuzz.reference`) keeps its own per-op chain on purpose: it is
the independent copy that catches a wrong entry here.

On the engines that execute at issue (the per-cycle reference engine, the
sharded engine, and every default-engine launch the pre-pass rejects), the
timing model decides when an instruction may issue, then calls
:func:`functional_step`, which updates registers/memory/PC immediately
while the scoreboard models when the results become architecturally
visible.  Inter-warp communication is then ordered by issue: barriers
order issue, and atomics are performed read-modify-write in issue order.

The default engine executes a launch before its first cycle instead, in
one pre-pass batched across warps, and replays each warp's recorded
stream at issue.  That is exact only for launches where no word is shared
between warps without an ordering barrier, which the pre-pass checks per
launch rather than assumes.

The returned :class:`ExecResult` carries what the timing model needs
(lane count, memory space, per-lane byte addresses) without re-decoding.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.isa.instruction import Imm, Reg, SReg
from repro.isa.opcodes import CmpOp, Op
from repro.sim.warp import Warp, mask_to_array, array_to_mask


class ExecutionError(RuntimeError):
    """A dynamic semantic error in the simulated program."""


class ExecResult:
    """Side-band information about one executed instruction: its lane
    count (the popcount of its post-predication mask, taken once because
    the issue path reads it for every instruction) and, for a memory
    access, its space and lane byte addresses.  A replayed pre-pass entry
    gives the sanitizer the same record."""

    __slots__ = ("lanes", "mem_space", "addresses")

    def __init__(self, lanes: int, mem_space: str | None = None,
                 addresses: np.ndarray | None = None):
        self.lanes = lanes
        self.mem_space = mem_space  # "global" | "shared" | None
        self.addresses = addresses  # byte addrs of executed lanes


def _keyed(table: dict) -> dict:
    """Re-key a table by member value: the executors look ops up by the
    decode-time keys ``Instruction._op_key``/``_cmp_key``, which are
    strings, so no lookup pays for an Enum ``__hash__``."""
    return {member.value: entry for member, entry in table.items()}


def _same(a):
    return a


def _idiv(a, b):
    return np.trunc(a / b).astype(np.int64)  # C-style truncation


def _irem(a, b):
    return a - _idiv(a, b) * b


def _int_divisor(a, b) -> None:
    if np.count_nonzero(b) < b.size:
        raise ExecutionError("integer division by zero")


def _float_divisor(a, b) -> None:
    if np.count_nonzero(b) < b.size:
        raise ExecutionError("float division by zero")


def _shift_amount(a, b) -> None:
    if np.count_nonzero(b < 0):
        raise ExecutionError("negative shift amount")


def _sqrt_domain(a) -> None:
    if np.count_nonzero(a < 0):
        raise ExecutionError("sqrt of negative value")


_INT, _FLOAT = True, False

#: The op table: every op that is neither a memory access nor control flow
#: maps to ``(integer operands?, function, domain check or None)``.  The
#: function takes the source operands in order; an integer op reads them
#: as int64, and every result is stored to the float64 register file
#: (which converts).  The check sees the same operands and raises
#: :class:`ExecutionError` before anything is written.  SETP's function is
#: the instruction's comparison, ``_CMP[instr._cmp_key]``.
OPS = _keyed({
    Op.IADD: (_INT, operator.add, None),
    Op.ISUB: (_INT, operator.sub, None),
    Op.IMUL: (_INT, operator.mul, None),
    Op.IMAD: (_INT, lambda a, b, c: a * b + c, None),
    Op.IDIV: (_INT, _idiv, _int_divisor),
    Op.IREM: (_INT, _irem, _int_divisor),
    Op.IMIN: (_INT, np.minimum, None),
    Op.IMAX: (_INT, np.maximum, None),
    Op.AND: (_INT, operator.and_, None),
    Op.OR: (_INT, operator.or_, None),
    Op.XOR: (_INT, operator.xor, None),
    Op.SHL: (_INT, operator.lshift, _shift_amount),
    Op.SHR: (_INT, operator.rshift, _shift_amount),
    Op.FADD: (_FLOAT, operator.add, None),
    Op.FSUB: (_FLOAT, operator.sub, None),
    Op.FMUL: (_FLOAT, operator.mul, None),
    Op.FFMA: (_FLOAT, lambda a, b, c: a * b + c, None),
    Op.FDIV: (_FLOAT, operator.truediv, _float_divisor),
    Op.FMIN: (_FLOAT, np.minimum, None),
    Op.FMAX: (_FLOAT, np.maximum, None),
    Op.FSQRT: (_FLOAT, np.sqrt, _sqrt_domain),
    Op.FEXP: (_FLOAT, np.exp, None),
    Op.FABS: (_FLOAT, np.abs, None),
    Op.I2F: (_INT, _same, None),
    Op.F2I: (_FLOAT, np.trunc, None),
    Op.MOV: (_FLOAT, _same, None),
    Op.SEL: (_FLOAT, lambda c, a, b: np.where(c != 0, a, b), None),
    Op.S2R: (_FLOAT, _same, None),
    Op.SETP: (_FLOAT, None, None),
})

_CMP = _keyed({
    CmpOp.EQ: operator.eq,
    CmpOp.NE: operator.ne,
    CmpOp.LT: operator.lt,
    CmpOp.LE: operator.le,
    CmpOp.GT: operator.gt,
    CmpOp.GE: operator.ge,
})

#: The two-operand integer and float ops' functions (the fuzz oracle's
#: view of the table; it keeps its own dispatch and domain checks).
_INT_BIN = {key: OPS[key][1] for key in (
    "IADD", "ISUB", "IMUL", "IMIN", "IMAX", "AND", "OR", "XOR", "SHL", "SHR")}
_FLOAT_BIN = {key: OPS[key][1] for key in ("FADD", "FSUB", "FMUL", "FMIN", "FMAX")}

#: Memory ops: ``(space, action)``, the action a load, a store, or the
#: memory's atomic method.  The pre-pass reads it too (it has no atomics).
_MEMORY_OPS = _keyed({
    Op.LDG: ("global", "load"), Op.STG: ("global", "store"),
    Op.LDS: ("shared", "load"), Op.STS: ("shared", "store"),
    Op.ATOMG_ADD: ("global", "atomic_add"),
    Op.ATOMG_MAX: ("global", "atomic_max"),
    Op.ATOMS_ADD: ("shared", "atomic_add"),
})


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
    place (registers are written by row or lane assignment, which copies),
    so skipping the boolean gather is observationally identical.
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


def _write(warp: Warp, dst: Reg, lanes: np.ndarray, n: int, values) -> None:
    if n == 32:
        warp.regs[dst.idx] = values  # full-mask row assign (copies values)
    else:
        warp.regs[dst.idx][lanes] = values


def functional_step(warp: Warp, instr, gmem) -> ExecResult:
    """Execute ``instr`` for ``warp``; updates state and returns metadata.

    Opcodes are told apart by ``instr._op_key`` (a string fixed at decode),
    which keys :data:`OPS`: on CPython 3.11 each ``Op.X`` attribute read
    goes through ``EnumType.__getattr__``, and an Enum key hashes in Python.
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

    exec_mask = active if instr.pred is None else _predicated(warp, instr, active)

    result = ExecResult(exec_mask.bit_count())

    if key == "EXIT":
        # Predicated EXIT is disallowed by convention (keeps warp-completion
        # logic simple); the assembler cannot express it accidentally in our
        # kernels but guard anyway.
        if instr.pred is not None:
            raise ExecutionError("predicated EXIT is not supported")
        warp.do_exit()
        return result

    if key == "BAR":
        if exec_mask != active:
            raise ExecutionError("predicated BAR is not supported")
        warp.advance()
        return result

    if key == "NOP" or exec_mask == 0:
        warp.advance()
        return result

    lanes = mask_to_array(exec_mask)
    n = result.lanes
    entry = OPS.get(key)
    if entry is not None:
        as_int, fn, check = entry
        if fn is None:
            fn = _CMP[instr._cmp_key]
        read = _read_int if as_int else _read
        srcs = instr.srcs
        # By arity, with direct calls: a comprehension or a star-call would
        # cost more than a cheap op's arithmetic.
        a = read(warp, srcs[0], lanes, n)
        if len(srcs) == 2:
            b = read(warp, srcs[1], lanes, n)
            if check is not None:
                check(a, b)
            value = fn(a, b)
        elif len(srcs) == 1:
            if check is not None:
                check(a)
            value = fn(a)
        else:
            b = read(warp, srcs[1], lanes, n)
            c = read(warp, srcs[2], lanes, n)
            if check is not None:
                check(a, b, c)
            value = fn(a, b, c)
        _write(warp, instr.dst, lanes, n, value)
    elif key in _MEMORY_OPS:
        _exec_memory(warp, instr, key, lanes, n, gmem, result)
    else:  # pragma: no cover - OPS, memory and control ops cover Op
        raise ExecutionError(f"unhandled opcode {instr.op}")

    warp.advance()
    return result


def _exec_memory(warp: Warp, instr, key: str, lanes: np.ndarray, n: int, gmem,
                 result: ExecResult) -> None:
    space, action = _MEMORY_OPS[key]
    memory = gmem if space == "global" else warp.cta.smem
    ref = instr.srcs[0]
    addrs = _read(warp, ref.base, lanes, n).astype(np.int64) + ref.offset
    if action == "load":
        _write(warp, instr.dst, lanes, n, memory.load(addrs))
    elif action == "store":
        memory.store(addrs, _read(warp, instr.srcs[1], lanes, n))
    else:
        old = getattr(memory, action)(addrs, _read(warp, instr.srcs[1], lanes, n))
        _write(warp, instr.dst, lanes, n, old)
        # Parallel-engine tap: a deferring gmem proxy needs (warp, dst,
        # lanes) to patch the true old values in at the epoch barrier.
        note = getattr(memory, "note_atomic_target", None)
        if note is not None:
            note(warp, instr.dst, lanes)
    result.mem_space = space
    result.addresses = addrs


def _predicated(warp: Warp, instr, active: int) -> int:
    """The lanes of ``active`` whose predicate holds.  Vectorized: the
    predicate is evaluated over all 32 lanes and ANDed with the active
    mask; lanes outside the mask contribute nothing, so this matches the
    per-lane gather exactly."""
    pvals = warp.regs[instr.pred.idx] != 0
    if instr.pred_neg:
        pvals = ~pvals
    return array_to_mask(mask_to_array(active) & pvals)


def _exec_branch(warp: Warp, instr, active: int) -> ExecResult:
    if instr.pred is None:
        warp.branch_uniform(instr.target)
        return ExecResult(active.bit_count())
    taken = _predicated(warp, instr, active)
    fall = active & ~taken
    if fall == 0:
        warp.branch_uniform(instr.target)
    elif taken == 0:
        warp.advance()
    else:
        if instr.reconv_pc is None:
            raise ExecutionError(f"divergent branch without reconvergence PC: {instr!r}")
        warp.branch_divergent(taken, instr.target, instr.reconv_pc)
    return ExecResult(active.bit_count())
