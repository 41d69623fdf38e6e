"""Bounded uniform loop unrolling for the affine pass.

The fixpoint affine analysis joins loop-carried values at loop headers,
so a ping-pong buffer index (``buf ^= 1``) or an unrolled-by-hand tile
counter widens to *unknown uniform* and every shared address built from
it goes unanalyzable — leaving ``shared-race-maybe`` findings the race
pass cannot decide.  This module re-executes the kernel *path-
sensitively* instead: when every branch predicate is CTA-uniform and
concretely evaluable, the whole execution is a single straight-line
trace shared by all threads, and each shared access occurrence gets an
exact affine address (constant folded through XOR/AND/shift arithmetic
the fixpoint domain tops out on).

Soundness of the discharge:

* The trace is only produced when **every** conditional branch decided
  concretely and uniformly; all threads therefore execute the same
  occurrence sequence, and two occurrences can race only when no ``BAR``
  separates them — i.e. they fall in the same *barrier epoch*.
* A ``maybe`` race between sites ``(a, b)`` is discharged only when
  every same-epoch occurrence pair proves disjoint under
  :func:`~repro.isa.analysis.shared.may_overlap` (``False``, not merely
  unknown), with word-injectivity covering the distinct-threads-same-
  occurrence case.
* Anything else — the dynamic-step **budget** exceeded, a divergent or
  unevaluable branch, a divergent predicate on an occurrence, an
  overlap query returning unknown — keeps the finding at ``maybe``.
  The fallback is always the undecided verdict, never a silent ``safe``
  (tests/test_unroll.py pins this with a budget-starved fixture).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.analysis.affine import (
    Affine,
    AffineAnalysis,
    AffineEnv,
    PredInfo,
    is_top,
)
from repro.isa.analysis.context import fact, params_key
from repro.isa.instruction import MemRef
from repro.isa.opcodes import CmpOp, Op

#: Default cap on dynamically executed instructions during the unroll.
#: The registry's uniform-loop kernels trace in a few hundred steps; the
#: cap only exists so pathological trip counts degrade to ``maybe``
#: instead of stalling the linter.
UNROLL_BUDGET = 4096

_INT64_MOD = 1 << 64
_INT64_SIGN = 1 << 63


def _wrap(value: int) -> int:
    """Two's-complement int64 wrap (the executor's integer width)."""
    return (value + _INT64_SIGN) % _INT64_MOD - _INT64_SIGN


def _trunc_div(a: int, b: int) -> int:
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


_CMP = {
    CmpOp.LT: lambda a, b: a < b,
    CmpOp.LE: lambda a, b: a <= b,
    CmpOp.GT: lambda a, b: a > b,
    CmpOp.GE: lambda a, b: a >= b,
    CmpOp.EQ: lambda a, b: a == b,
    CmpOp.NE: lambda a, b: a != b,
}

#: Integer ops folded concretely when every operand is a known constant —
#: exactly the ops the affine domain loses (bitwise, division) plus the
#: ones it keeps (kept here too so folded values stay integral).
_FOLD = {
    Op.MOV: lambda s: s[0],
    Op.IADD: lambda s: s[0] + s[1],
    Op.ISUB: lambda s: s[0] - s[1],
    Op.IMUL: lambda s: s[0] * s[1],
    Op.IMAD: lambda s: s[0] * s[1] + s[2],
    Op.SHL: lambda s: s[0] << s[1],
    Op.SHR: lambda s: s[0] >> s[1],
    Op.AND: lambda s: s[0] & s[1],
    Op.OR: lambda s: s[0] | s[1],
    Op.XOR: lambda s: s[0] ^ s[1],
    Op.IMIN: lambda s: min(s[0], s[1]),
    Op.IMAX: lambda s: max(s[0], s[1]),
    Op.IDIV: lambda s: _trunc_div(s[0], s[1]) if s[1] else 0,
    Op.IREM: lambda s: s[0] - _trunc_div(s[0], s[1]) * s[1] if s[1] else s[0],
}


@dataclass(frozen=True)
class Occurrence:
    """One dynamic memory access (shared or global) in the unrolled trace."""

    pc: int
    epoch: int  # barrier-phase index (BAR increments it)
    kind: str  # "load" | "store" | "atomic"
    address: Affine
    predicated: bool  # guarded by a divergent (non-concrete) predicate


def _concrete(value: Affine) -> int | None:
    if value.is_const and float(value.const).is_integer():
        return int(value.const)
    return None


def _resolve_params(value: Affine, param_values) -> Affine:
    """Fold known launch-parameter uniforms into the constant term."""
    if not value.uni or is_top(value):
        return value
    const = value.const
    uni = []
    for sym, coef in value.uni:
        if sym.startswith("param") and sym[5:].isdigit():
            idx = int(sym[5:])
            if idx in param_values:
                const += coef * param_values[idx]
                continue
        uni.append((sym, coef))
    if len(uni) == len(value.uni):
        return value
    return Affine(const, value.tid, tuple(uni), value.fuzzy, pred=value.pred)


def unrolled_trace(kernel, budget: int = UNROLL_BUDGET,
                   param_values: dict | None = None):
    """Execute the kernel's uniform control flow concretely.

    Returns the tuple of memory-access :class:`Occurrence`\\ s (shared and
    global), or ``None`` when the kernel cannot be unrolled within
    ``budget`` dynamic steps — a branch predicate is divergent or not
    concretely known, or the trace is longer than the budget.  ``None``
    always means *undecided*.  Computed once per kernel, budget and
    parameter values.

    ``param_values`` (parameter index -> launch value) lets branches on
    parameter-valued loop bounds (e.g. a tiled loop's trip count) decide
    concretely; without it such kernels simply return ``None``.
    """
    key = ("unroll", budget, params_key(param_values))
    return fact(kernel, key, _unrolled_trace, kernel, budget, param_values)


def _unrolled_trace(kernel, budget, param_values):
    analysis = AffineAnalysis(kernel)
    regs: dict[int, Affine] = {}
    env = AffineEnv(regs)  # live view of the mutable dict
    trace: list[Occurrence] = []
    pc = 0
    epoch = 0
    steps = 0
    n = len(kernel.instrs)

    def operand(src) -> Affine:
        value = analysis._operand(src, env)
        if param_values:
            return _resolve_params(value, param_values)
        return value

    while 0 <= pc < n:
        steps += 1
        if steps > budget:
            return None
        instr = kernel.instrs[pc]
        if instr.is_exit:
            return tuple(trace)
        if instr.op is Op.BAR:
            epoch += 1
            pc += 1
            continue
        if instr.is_branch and instr.target is not None:
            if instr.pred is None:
                pc = instr.target
                continue
            pred = _concrete(env.get(instr.pred.idx))
            if pred is None:
                return None  # divergent/unknown branch: cannot unroll
            taken = bool(pred) != instr.pred_neg
            pc = instr.target if taken else pc + 1
            continue

        pred_concrete = True
        pred_true = True
        if instr.pred is not None:
            pred = _concrete(env.get(instr.pred.idx))
            if pred is None:
                pred_concrete = False
            else:
                pred_true = bool(pred) != instr.pred_neg

        if instr.info.is_mem and (pred_true or not pred_concrete):
            ref = next(s for s in instr.srcs if isinstance(s, MemRef))
            address = operand(ref)
            kind = ("atomic" if instr.info.is_atomic
                    else "store" if instr.is_store else "load")
            trace.append(Occurrence(pc, epoch, kind, address,
                                    predicated=not pred_concrete))

        if instr.dst is not None and (pred_true or not pred_concrete):
            srcs = [operand(s) for s in instr.srcs]
            value = None
            fold = _FOLD.get(instr.op)
            ints = [_concrete(s) for s in srcs]
            if fold is not None and all(v is not None for v in ints):
                value = Affine(float(_wrap(fold(ints))))
            elif instr.op is Op.SETP and None not in ints[:2]:
                value = Affine(
                    float(_CMP[instr.cmp](ints[0], ints[1])),
                    pred=PredInfo(instr.cmp, srcs[0], srcs[1]))
            if value is None:
                value = analysis._evaluate(instr, srcs)
            if not pred_concrete:
                # Divergent write: lanes mix old and new values.
                old = env.get(instr.dst.idx)
                if not (old == value and not value.fuzzy):
                    from repro.isa.analysis.affine import TOP
                    value = TOP
            regs[instr.dst.idx] = value
        pc += 1
    return tuple(trace)


def discharge_shared_races(kernel, pairs, budget: int = UNROLL_BUDGET):
    """Subset of ``pairs`` (``(pc_a, pc_b)``) proven race-free by the
    unrolled trace: every same-epoch occurrence pair is disjoint."""
    from repro.isa.analysis.shared import may_overlap

    trace = unrolled_trace(kernel, budget)
    if trace is None:
        return set()
    by_pc: dict[int, list[Occurrence]] = {}
    for occ in trace:
        if kernel.instrs[occ.pc].is_shared_mem:
            by_pc.setdefault(occ.pc, []).append(occ)
    discharged = set()
    for pc_a, pc_b in pairs:
        safe = True
        for a in by_pc.get(pc_a, ()):
            for b in by_pc.get(pc_b, ()):
                if a.epoch != b.epoch:
                    continue
                if a.predicated or b.predicated:
                    safe = False
                    break
                if is_top(a.address) or is_top(b.address):
                    safe = False
                    break
                if may_overlap(a.address, b.address,
                               kernel.cta_dim) is not False:
                    safe = False
                    break
            if not safe:
                break
        if safe:
            discharged.add((pc_a, pc_b))
    return discharged
