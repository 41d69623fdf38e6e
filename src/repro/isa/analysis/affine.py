"""Affine symbolic evaluation of register values.

Shared-memory addresses in the mini ISA are built from a handful of
ingredients: thread ids (``%tid_*``), launch-constant uniforms
(``%ctaid_*``, ``%param*``, ``%nctaid_*``), immediates, and shifts/adds.
This pass tracks every register as an *affine form*

    value = const + Σ cᵢ·tidᵢ + Σ dⱼ·uniformⱼ  [+ unknown-uniform]

through a forward dataflow fixpoint.  The form answers the three
questions the lint rules ask:

* **Bounds** — when a value involves only constants and thread ids, its
  min/max over the CTA box (``tid_x < cta_x`` …) is exact, giving
  out-of-bounds checks for shared accesses.
* **Uniformity** — a value with no thread-id terms is the same for every
  thread of the CTA (launch constants are fixed per CTA), which decides
  whether a conditional branch can actually diverge.
* **Disjointness** — for two accesses whose uniform terms cancel, the
  cross-thread address difference is affine in the two thread ids, giving
  the static race check.

Loop-carried values widen to a single canonical *unknown-uniform* term
(``fuzzy``) when the joined forms differ only in their uniform part, and
to :data:`TOP` (unknown, possibly thread-dependent) otherwise, so the
fixpoint terminates in a couple of sweeps.

``SETP`` destinations additionally remember the comparison they hold
(:class:`PredInfo`), letting predicated shared accesses refine a thread
id's range — ``@p STS`` under ``p = tid < 64`` is bounded by 64, not the
CTA width.  That mirrors how the kernels in the registry actually guard
partial-CTA accesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.analysis.context import fact, solve_per_pc
from repro.isa.analysis.dataflow import DataflowProblem, FORWARD
from repro.isa.instruction import Imm, MemRef, Reg, SReg, SpecialReg
from repro.isa.opcodes import CmpOp, Op

#: Thread-id symbols: per-thread, with a known range from ``cta_dim``.
TID_SYMS = ("tid_x", "tid_y", "tid_z")

#: Launch-constant symbols: unknown value but uniform across the CTA and
#: fixed for the whole launch (so equal terms cancel in differences).
_UNIFORM_SREGS = {
    SpecialReg.CTAID_X: "ctaid_x",
    SpecialReg.CTAID_Y: "ctaid_y",
    SpecialReg.CTAID_Z: "ctaid_z",
    SpecialReg.NCTAID_X: "nctaid_x",
    SpecialReg.NCTAID_Y: "nctaid_y",
    SpecialReg.NCTAID_Z: "nctaid_z",
    SpecialReg.PARAM0: "param0",
    SpecialReg.PARAM1: "param1",
    SpecialReg.PARAM2: "param2",
    SpecialReg.PARAM3: "param3",
    SpecialReg.PARAM4: "param4",
    SpecialReg.PARAM5: "param5",
    SpecialReg.PARAM6: "param6",
    SpecialReg.PARAM7: "param7",
}

_TID_SREGS = {
    SpecialReg.TID_X: "tid_x",
    SpecialReg.TID_Y: "tid_y",
    SpecialReg.TID_Z: "tid_z",
}

_NTID_SREGS = {
    SpecialReg.NTID_X: 0,
    SpecialReg.NTID_Y: 1,
    SpecialReg.NTID_Z: 2,
}


def _freeze(items: dict) -> tuple:
    return tuple(sorted((k, v) for k, v in items.items() if v != 0))


@dataclass(frozen=True)
class PredInfo:
    """What a ``SETP`` destination asserts when it is non-zero."""

    cmp: CmpOp
    lhs: "Affine"
    rhs: "Affine"


@dataclass(frozen=True)
class Affine:
    """``const + Σ tid terms + Σ uniform terms (+ unknown uniform)``."""

    const: float = 0.0
    tid: tuple = ()  # ((sym, coef), ...) sorted, coef != 0
    uni: tuple = ()  # ((sym, coef), ...) sorted, coef != 0
    fuzzy: bool = False  # plus an unknown (loop-varying) uniform term
    pred: PredInfo | None = field(default=None, compare=False)

    # -- classification ----------------------------------------------------

    @property
    def is_uniform(self) -> bool:
        """Same value for every thread of the CTA."""
        return not self.tid

    @property
    def is_const(self) -> bool:
        return not self.tid and not self.uni and not self.fuzzy

    @property
    def is_bounded(self) -> bool:
        """Min/max over the CTA box are statically known."""
        return not self.uni and not self.fuzzy

    def tid_coefs(self) -> dict:
        return dict(self.tid)

    # -- arithmetic --------------------------------------------------------

    def _combine(self, other: "Affine", sign: int) -> "Affine":
        if is_top(self) or is_top(other):
            return TOP
        tid = dict(self.tid)
        for sym, coef in other.tid:
            tid[sym] = tid.get(sym, 0) + sign * coef
        uni = dict(self.uni)
        for sym, coef in other.uni:
            uni[sym] = uni.get(sym, 0) + sign * coef
        return Affine(self.const + sign * other.const, _freeze(tid), _freeze(uni),
                      self.fuzzy or other.fuzzy)

    def add(self, other: "Affine") -> "Affine":
        return self._combine(other, 1)

    def sub(self, other: "Affine") -> "Affine":
        return self._combine(other, -1)

    def scale(self, factor: float) -> "Affine":
        if factor == 0:
            return Affine(0.0)
        if is_top(self):
            return TOP
        return Affine(self.const * factor,
                      _freeze({s: c * factor for s, c in self.tid}),
                      _freeze({s: c * factor for s, c in self.uni}),
                      self.fuzzy)

    def bounds(self, cta_dim) -> tuple[float, float] | None:
        """(min, max) over the CTA box, or None when not bounded."""
        if not self.is_bounded:
            return None
        lo = hi = self.const
        extents = dict(zip(TID_SYMS, cta_dim))
        for sym, coef in self.tid:
            span = coef * (extents[sym] - 1)
            lo += min(0, span)
            hi += max(0, span)
        return lo, hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = [f"{self.const:g}"] if (self.const or not (self.tid or self.uni)) else []
        parts += [f"{c:g}*{s}" for s, c in self.tid]
        parts += [f"{c:g}*{s}" for s, c in self.uni]
        return " + ".join(parts) + (" + U" if self.fuzzy else "")


#: Synthetic thread-id symbol marking a fully unknown value.
_TOP_SYM = "*top*"

#: Unknown, possibly thread-dependent value.
TOP = Affine(0.0, ((_TOP_SYM, 1),), (), True)

#: Unknown but CTA-uniform value (canonical widened form).
UNIFORM_UNKNOWN = Affine(0.0, (), (), True)

CONST_ZERO = Affine(0.0)


def is_top(value: Affine) -> bool:
    return any(sym == _TOP_SYM for sym, _ in value.tid)


def join(a: Affine, b: Affine) -> Affine:
    """Least upper bound of two abstract values."""
    if a == b:
        # Preserve predicate info only when identical.
        if a.pred is not None and a.pred != b.pred:
            return Affine(a.const, a.tid, a.uni, a.fuzzy)
        return a
    if is_top(a) or is_top(b):
        return TOP
    if a.tid != b.tid:
        # Thread-dependent parts disagree: give up on thread structure.
        return TOP if (a.tid or b.tid) else UNIFORM_UNKNOWN
    # Same thread-id structure, different uniform part: keep the tid part,
    # widen the uniform part to the canonical unknown-uniform term.
    return Affine(0.0, a.tid, (), True)


def _to_affine(value) -> Affine:
    return value if isinstance(value, Affine) else TOP


class AffineEnv:
    """Immutable register -> :class:`Affine` map (the dataflow fact)."""

    __slots__ = ("regs",)

    def __init__(self, regs: dict):
        self.regs = regs

    def get(self, idx: int) -> Affine:
        return self.regs.get(idx, CONST_ZERO)

    def set(self, idx: int, value: Affine) -> "AffineEnv":
        regs = dict(self.regs)
        regs[idx] = value
        return AffineEnv(regs)

    def __eq__(self, other):
        return isinstance(other, AffineEnv) and self.regs == other.regs

    def __hash__(self):  # pragma: no cover - envs are not hashed today
        return hash(_freeze({k: id(v) for k, v in self.regs.items()}))


class AffineAnalysis(DataflowProblem):
    """Forward pass computing an :class:`AffineEnv` before every PC."""

    direction = FORWARD

    def __init__(self, kernel):
        self.kernel = kernel

    def boundary(self) -> AffineEnv:
        # Registers start zeroed in the simulator; the uninitialized-read
        # pass reports code that relies on that, so modelling the implicit
        # zero here is both faithful and harmless.
        return AffineEnv({})

    def init(self):
        return None  # bottom: block not yet reached

    def meet(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        regs = {}
        for idx in set(a.regs) | set(b.regs):
            regs[idx] = join(a.get(idx), b.get(idx))
        return AffineEnv(regs)

    # -- operand evaluation ------------------------------------------------

    def _operand(self, operand, env: AffineEnv) -> Affine:
        if isinstance(operand, Reg):
            return env.get(operand.idx)
        if isinstance(operand, Imm):
            return Affine(float(operand.value))
        if isinstance(operand, SReg):
            kind = operand.kind
            if kind in _TID_SREGS:
                return Affine(0.0, ((_TID_SREGS[kind], 1),), (), False)
            if kind in _NTID_SREGS:
                return Affine(float(self.kernel.cta_dim[_NTID_SREGS[kind]]))
            if kind in _UNIFORM_SREGS:
                return Affine(0.0, (), ((_UNIFORM_SREGS[kind], 1),), False)
            return TOP  # %laneid / %warpid: thread-dependent
        if isinstance(operand, MemRef):
            return env.get(operand.base.idx).add(Affine(float(operand.offset)))
        return TOP

    def address(self, pc: int, env: AffineEnv) -> Affine:
        """Abstract byte address of the memory operand at ``pc``."""
        instr = self.kernel.instrs[pc]
        for operand in instr.srcs:
            if isinstance(operand, MemRef):
                return self._operand(operand, env)
        return TOP

    # -- transfer ----------------------------------------------------------

    def transfer(self, pc: int, instr, env):
        if env is None:
            return None
        if instr.dst is None:
            return env
        srcs = [self._operand(s, env) for s in instr.srcs]
        value = self._evaluate(instr, srcs)
        if instr.pred is not None:
            # Predicated definition: lanes with a false predicate keep the
            # old value.  When the predicate is uniform every lane agrees
            # on which side it took, so the join of both is exact.  A
            # thread-dependent (or unknown) predicate *mixes* old and new
            # values across lanes — the mixture has no affine form unless
            # the two sides coincide, so anything else must go to TOP
            # (claiming the mixture is a uniform join would, e.g., call a
            # divergent binary-search address a broadcast).
            old = env.get(instr.dst.idx)
            pred_val = env.get(instr.pred.idx)
            if pred_val.is_uniform and not is_top(pred_val):
                value = join(old, value)
            elif not (old == value and not value.fuzzy):
                # Two equal fuzzy forms may still stand for *different*
                # unknown uniforms, so only an exact non-fuzzy match keeps
                # its affine form through a divergent write.
                value = TOP
        return env.set(instr.dst.idx, value)

    def _evaluate(self, instr, srcs: list[Affine]) -> Affine:
        op = instr.op
        if op in (Op.MOV, Op.S2R, Op.I2F, Op.F2I, Op.FABS):
            value = srcs[0]
            if op is Op.FABS and not value.is_const:
                return self._generic(srcs)
            if op is Op.FABS:
                return Affine(abs(value.const))
            return value
        if op in (Op.IADD, Op.FADD):
            return srcs[0].add(srcs[1])
        if op in (Op.ISUB, Op.FSUB):
            return srcs[0].sub(srcs[1])
        if op in (Op.IMUL, Op.FMUL):
            return self._mul(srcs[0], srcs[1])
        if op in (Op.IMAD, Op.FFMA):
            return self._mul(srcs[0], srcs[1]).add(srcs[2])
        if op is Op.SHL:
            if srcs[1].is_const:
                return self._mul(srcs[0], Affine(float(2 ** int(srcs[1].const))))
            return self._generic(srcs)
        if op is Op.SHR:
            if srcs[0].is_const and srcs[1].is_const:
                return Affine(float(int(srcs[0].const) >> int(srcs[1].const)))
            return self._generic(srcs)
        if op is Op.SETP:
            result = self._generic(srcs)
            return Affine(result.const, result.tid, result.uni, result.fuzzy,
                          pred=PredInfo(instr.cmp, srcs[0], srcs[1]))
        if op is Op.SEL:
            if srcs[0].is_uniform and not is_top(srcs[0]):
                return join(srcs[1], srcs[2])
            return join(join(srcs[1], srcs[2]), TOP) if srcs[1] != srcs[2] else srcs[1]
        if op in (Op.LDG, Op.LDS):
            # A load from a uniform address yields a uniform (unknown) value.
            addr = srcs[-1]
            return UNIFORM_UNKNOWN if addr.is_uniform and not is_top(addr) else TOP
        if op in (Op.ATOMG_ADD, Op.ATOMS_ADD, Op.ATOMG_MAX):
            return TOP  # returned old value depends on serialization order
        return self._generic(srcs)

    @staticmethod
    def _mul(a: Affine, b: Affine) -> Affine:
        if a.is_const:
            return b.scale(a.const)
        if b.is_const:
            return a.scale(b.const)
        if a.is_uniform and b.is_uniform and not is_top(a) and not is_top(b):
            return UNIFORM_UNKNOWN
        return TOP

    @staticmethod
    def _generic(srcs: list[Affine]) -> Affine:
        """Fallback: the result is uniform iff every input is."""
        if all(s.is_uniform and not is_top(s) for s in srcs):
            return UNIFORM_UNKNOWN
        return TOP


def affine_solution(kernel):
    """The affine pass: ``(analysis, per-PC envs)``, solved once per kernel.

    ``envs[pc]`` is the :class:`AffineEnv` *before* ``pc`` executes (None
    for unreachable code).  The analysis object is rebuilt per call (it
    only carries the kernel), so the cached envs hold no kernel reference.
    """
    envs = fact(kernel, "affine", solve_per_pc, AffineAnalysis, kernel)
    return AffineAnalysis(kernel), envs


def refine_bounds(address: Affine, pred_value: Affine | None, pred_neg: bool,
                  cta_dim) -> tuple[float, float] | None:
    """Bounds of ``address`` over the CTA box, narrowed by the guarding
    predicate when it is a recognizable ``tid <cmp> const`` comparison.

    Returns ``None`` when the address cannot be bounded statically.
    """
    if not address.is_bounded:
        return None
    extents = {sym: dim for sym, dim in zip(TID_SYMS, cta_dim)}
    ranges = {sym: (0, extents[sym] - 1) for sym in TID_SYMS}

    info = pred_value.pred if pred_value is not None else None
    if info is not None:
        narrowed = _tid_range_from_pred(info, pred_neg, ranges)
        if narrowed is not None:
            sym, lo, hi = narrowed
            old_lo, old_hi = ranges[sym]
            ranges[sym] = (max(lo, old_lo), min(hi, old_hi))

    lo = hi = address.const
    for sym, coef in address.tid:
        rmin, rmax = ranges[sym]
        if rmin > rmax:  # predicate excludes every thread: nothing executes
            return None
        a, b = coef * rmin, coef * rmax
        lo += min(a, b)
        hi += max(a, b)
    return lo, hi


def _tid_range_from_pred(info: PredInfo, neg: bool, ranges):
    """Extract ``(sym, lo, hi)`` from ``tid <cmp> const`` predicates."""
    lhs, rhs, cmp = info.lhs, info.rhs, info.cmp
    if rhs.tid and not lhs.tid:
        # Normalize to tid-on-the-left by flipping the comparison.
        flip = {CmpOp.LT: CmpOp.GT, CmpOp.LE: CmpOp.GE, CmpOp.GT: CmpOp.LT,
                CmpOp.GE: CmpOp.LE, CmpOp.EQ: CmpOp.EQ, CmpOp.NE: CmpOp.NE}
        lhs, rhs, cmp = rhs, lhs, flip[cmp]
    if not (len(lhs.tid) == 1 and not lhs.uni and not lhs.fuzzy and rhs.is_const):
        return None
    (sym, coef), = lhs.tid
    if coef != 1 or lhs.const != 0:
        return None
    bound = rhs.const
    if neg:
        negate = {CmpOp.LT: CmpOp.GE, CmpOp.LE: CmpOp.GT, CmpOp.GT: CmpOp.LE,
                  CmpOp.GE: CmpOp.LT, CmpOp.EQ: CmpOp.NE, CmpOp.NE: CmpOp.EQ}
        cmp = negate[cmp]
    big = float("inf")
    table = {
        CmpOp.LT: (-big, bound - 1),
        CmpOp.LE: (-big, bound),
        CmpOp.GT: (bound + 1, big),
        CmpOp.GE: (bound, big),
        CmpOp.EQ: (bound, bound),
    }
    if cmp not in table:
        return None
    lo, hi = table[cmp]
    return sym, lo, hi
