"""Interval-affine residual analysis: value-set bounds beyond affine forms.

The affine pass (:mod:`repro.isa.analysis.affine`) is exact for values
built from adds, shifts, and constant multiplies, but drops straight to
TOP (or an unknown uniform) on masking idioms — ``AND rD, rT, #mask``,
``IREM``, ``IMIN``/``IMAX`` against a constant — that the registry and
the fuzzer's gather/scatter segments use to fold a thread id into a
small table.  Those values are not affine, but they *are* bounded, and
a sound width is all the transaction/bank-pass model and the cycle-bound
analysis (:mod:`repro.isa.analysis.bounds`) need.

This pass tracks every register as

    value  =  base  +  residual,      residual in [rlo, rhi]

where ``base`` is an :class:`~repro.isa.analysis.affine.Affine` form and
the residual interval absorbs the non-affine part.  Pure affine values
carry a ``[0, 0]`` residual; ``AND rD, x, #m`` (``m >= 0``) becomes
``0 + [0, m]``; loads stay TOP.  Linear operators (add, sub, constant
multiply/shift, select) compose both components; everything else falls
back to the affine evaluation when the residuals are exact, and to TOP
when they are not.

Joins hull the residuals and round the hull outward to a fixed menu of
``2**k - 1`` magnitudes, so loop-carried residuals widen in a bounded
number of steps and the fixpoint terminates.  Mask constants are almost
always ``2**k - 1`` themselves, so the common values survive the
rounding exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.isa.analysis.affine import (
    TOP,
    Affine,
    AffineAnalysis,
    is_top,
    join as affine_join,
)
from repro.isa.analysis.context import fact, solve_per_pc
from repro.isa.opcodes import Op

INF = math.inf

#: Residual magnitudes a join may round to (0, 1, 3, 7, ... 2**26-1, inf).
_WIDEN_MENU = tuple(2 ** k - 1 for k in range(27)) + (INF,)

_ZERO = Affine(0.0)


@dataclass(frozen=True)
class IVal:
    """One register's abstraction: affine ``base`` plus residual interval."""

    base: Affine
    rlo: float = 0.0
    rhi: float = 0.0

    @property
    def exact(self) -> bool:
        """No residual slack: the affine base is the whole story."""
        return self.rlo == 0 and self.rhi == 0

    @property
    def width(self) -> float:
        return self.rhi - self.rlo

    @property
    def bounded(self) -> bool:
        return not is_top(self.base) and self.rlo > -INF and self.rhi < INF

    def shift(self, delta: float) -> "IVal":
        return IVal(self.base.add(Affine(delta)), self.rlo, self.rhi)

    def interval(self, cta_dim, param_values=None) -> tuple[float, float] | None:
        """Concrete ``[lo, hi]`` of the value over the CTA box, or None.

        Uniform ``paramN`` terms resolve through ``param_values`` when the
        launch values are known; any other uniform term leaves the value
        unbounded.
        """
        if not self.bounded:
            return None
        base = self.base
        const = base.const
        for sym, coef in base.uni:
            if base.fuzzy:
                return None
            if not sym.startswith("param") or param_values is None:
                return None
            v = param_values.get(int(sym[len("param"):]))
            if v is None:
                return None
            const += coef * v
        if base.fuzzy:
            return None
        resolved = Affine(const, base.tid, (), False)
        span = resolved.bounds(cta_dim)
        if span is None:
            return None
        return (span[0] + self.rlo, span[1] + self.rhi)


TOP_IVAL = IVal(TOP, -INF, INF)
_ZERO_IVAL = IVal(_ZERO)


def _widen_up(x: float) -> float:
    if x <= 0:
        return 0.0 if x == 0 else -_widen_down_mag(-x)
    for m in _WIDEN_MENU:
        if x <= m:
            return float(m)
    return INF


def _widen_down_mag(x: float) -> float:
    """Largest menu value <= x (for rounding a negative lo outward)."""
    for m in _WIDEN_MENU:
        if x <= m:
            return float(m)
    return INF


def _widen_lo(x: float) -> float:
    if x >= 0:
        # Positive lower bounds round down to 0: the menu only needs to
        # bound growth, and a sound lo of 0 keeps the lattice small.
        return 0.0
    return -_widen_up(-x)


def ival_join(a: IVal, b: IVal) -> IVal:
    if a == b:
        return a
    if a.base == b.base:
        return IVal(a.base, _widen_lo(min(a.rlo, b.rlo)),
                    _widen_up(max(a.rhi, b.rhi)))
    if (a.base.is_const and b.base.is_const
            and a.rlo > -INF and b.rlo > -INF
            and a.rhi < INF and b.rhi < INF):
        lo = min(a.base.const + a.rlo, b.base.const + b.rlo)
        hi = max(a.base.const + a.rhi, b.base.const + b.rhi)
        return IVal(_ZERO, _widen_lo(lo), _widen_up(hi))
    joined = affine_join(a.base, b.base)
    if is_top(joined):
        return TOP_IVAL
    # The joined form's unknown uniform absorbs the differing parts; the
    # residual hull stays a sound over-approximation of the slack.
    return IVal(joined, _widen_lo(min(a.rlo, b.rlo)),
                _widen_up(max(a.rhi, b.rhi)))


class _IEnv:
    """Immutable register -> :class:`IVal` map (mirrors ``AffineEnv``)."""

    __slots__ = ("regs",)

    def __init__(self, regs: dict):
        self.regs = regs

    def get(self, idx: int) -> IVal:
        # Registers start zeroed in the simulator (mirrors AffineEnv).
        return self.regs.get(idx, _ZERO_IVAL)

    def set(self, idx: int, value: IVal) -> "_IEnv":
        regs = dict(self.regs)
        regs[idx] = value
        return _IEnv(regs)

    def __eq__(self, other):
        return isinstance(other, _IEnv) and self.regs == other.regs


class IntervalAnalysis(AffineAnalysis):
    """Forward dataflow over :class:`IVal` environments.

    Subclasses the affine pass only to reuse its operand evaluation for
    the base component; the lattice and transfer are interval-aware.
    """

    def boundary(self):
        return _IEnv({})

    def init(self):
        return None

    def meet(self, a, b):
        if a is None:
            return b
        if b is None:
            return a
        regs = {}
        for idx in set(a.regs) | set(b.regs):
            regs[idx] = ival_join(a.get(idx), b.get(idx))
        return _IEnv(regs)

    # -- operands ----------------------------------------------------------

    def _ival_operand(self, operand, env: _IEnv) -> IVal:
        from repro.isa.instruction import Reg

        if isinstance(operand, Reg):
            return env.get(operand.idx)
        base = AffineAnalysis._operand(self, operand, _EMPTY_AFFINE_ENV)
        if is_top(base):
            return TOP_IVAL
        return IVal(base)

    def address(self, pc: int, env: _IEnv) -> IVal:  # type: ignore[override]
        from repro.isa.instruction import MemRef

        instr = self.kernel.instrs[pc]
        for operand in instr.srcs:
            if isinstance(operand, MemRef):
                return env.get(operand.base.idx).shift(float(operand.offset))
        return TOP_IVAL

    # -- transfer ----------------------------------------------------------

    def transfer(self, pc: int, instr, env):
        if env is None:
            return None
        if instr.dst is None:
            return env
        srcs = [self._ival_operand(s, env) for s in instr.srcs]
        value = self._ival_evaluate(instr, srcs)
        if instr.pred is not None:
            old = env.get(instr.dst.idx)
            pred = env.get(instr.pred.idx)
            if pred.exact and pred.base.is_uniform and not is_top(pred.base):
                value = ival_join(old, value)
            elif old == value and value.exact and not value.base.fuzzy:
                pass  # both sides agree exactly; divergence is harmless
            elif (old.bounded and value.bounded and old.base.is_const
                  and value.base.is_const):
                # A divergent write mixes old and new per lane; with both
                # sides concretely bounded the mixture stays in the hull.
                value = ival_join(old, value)
            else:
                value = TOP_IVAL
        return env.set(instr.dst.idx, value)

    def _ival_evaluate(self, instr, srcs: list[IVal]) -> IVal:
        op = instr.op
        if op in (Op.MOV, Op.S2R, Op.I2F, Op.F2I):
            return srcs[0]
        if op in (Op.IADD, Op.FADD):
            return IVal(srcs[0].base.add(srcs[1].base),
                        srcs[0].rlo + srcs[1].rlo, srcs[0].rhi + srcs[1].rhi)
        if op in (Op.ISUB, Op.FSUB):
            return IVal(srcs[0].base.sub(srcs[1].base),
                        srcs[0].rlo - srcs[1].rhi, srcs[0].rhi - srcs[1].rlo)
        if op in (Op.IMUL, Op.FMUL, Op.SHL):
            a, b = srcs
            if op is Op.SHL:
                if not (b.exact and b.base.is_const):
                    return TOP_IVAL
                b = IVal(Affine(float(2 ** int(b.base.const))))
            for x, c in ((a, b), (b, a)):
                if c.exact and c.base.is_const:
                    k = c.base.const
                    lo, hi = k * x.rlo, k * x.rhi
                    return IVal(x.base.scale(k), min(lo, hi), max(lo, hi))
            if a.exact and b.exact:
                base = AffineAnalysis._mul(a.base, b.base)
                if not is_top(base):
                    return IVal(base)
            return TOP_IVAL
        if op in (Op.IMAD, Op.FFMA):
            prod = self._ival_evaluate(_FakeMul(op), [srcs[0], srcs[1]])
            return self._ival_evaluate(_FakeAdd(op), [prod, srcs[2]])
        if op is Op.AND:
            for x, c in ((srcs[0], srcs[1]), (srcs[1], srcs[0])):
                if c.exact and c.base.is_const and c.base.const >= 0:
                    mask = float(int(c.base.const))
                    span = x.interval(self.kernel.cta_dim)
                    hi = mask
                    if span is not None and 0 <= span[0] and span[1] < mask:
                        hi = span[1]
                    return IVal(_ZERO, 0.0, hi)
            return TOP_IVAL
        if op in (Op.OR, Op.XOR):
            a, b = (s.interval(self.kernel.cta_dim) for s in srcs)
            if a is not None and b is not None and a[0] >= 0 and b[0] >= 0:
                # For non-negative ints, OR/XOR never exceed the sum.
                return IVal(_ZERO, 0.0, a[1] + b[1])
            return TOP_IVAL
        if op is Op.IREM:
            c = srcs[1]
            if c.exact and c.base.is_const and c.base.const > 0:
                m = float(int(c.base.const)) - 1
                span = srcs[0].interval(self.kernel.cta_dim)
                if span is not None and span[0] >= 0:
                    return IVal(_ZERO, 0.0, min(m, span[1]))
                return IVal(_ZERO, -m, m)  # C-style: sign of the dividend
            return TOP_IVAL
        if op in (Op.IDIV, Op.SHR):
            x, c = srcs
            if not (c.exact and c.base.is_const):
                return TOP_IVAL
            k = int(c.base.const)
            div = (2 ** k) if op is Op.SHR else k
            if div <= 0:
                return TOP_IVAL
            span = x.interval(self.kernel.cta_dim)
            if span is not None and span[0] >= 0:
                return IVal(_ZERO, float(int(span[0]) // div),
                            float(int(span[1]) // div))
            return TOP_IVAL
        if op in (Op.IMIN, Op.FMIN, Op.IMAX, Op.FMAX):
            a, b = (s.interval(self.kernel.cta_dim) for s in srcs)
            pick = min if op in (Op.IMIN, Op.FMIN) else max
            if a is not None and b is not None:
                return IVal(_ZERO, pick(a[0], b[0]), pick(a[1], b[1]))
            known = a if a is not None else b
            if known is not None:
                if op in (Op.IMIN, Op.FMIN):
                    return IVal(_ZERO, -INF, known[1])
                return IVal(_ZERO, known[0], INF)
            return TOP_IVAL
        if op is Op.SEL:
            return ival_join(srcs[1], srcs[2])
        if op is Op.SETP:
            return IVal(_ZERO, 0.0, 1.0)
        if op is Op.FABS:
            span = srcs[0].interval(self.kernel.cta_dim)
            if span is not None:
                lo, hi = span
                alo = 0.0 if lo <= 0 <= hi else min(abs(lo), abs(hi))
                return IVal(_ZERO, alo, max(abs(lo), abs(hi)))
            return TOP_IVAL
        # Loads, atomics, FDIV/FSQRT/FEXP: no sound static bound.
        return TOP_IVAL


class _FakeMul:
    """Operand shim so IMAD/FFMA reuse the binary evaluation rules."""

    def __init__(self, op):
        self.op = Op.IMUL if op is Op.IMAD else Op.FMUL


class _FakeAdd:
    def __init__(self, op):
        self.op = Op.IADD if op is Op.IMAD else Op.FADD


class _EmptyAffineEnv:
    def get(self, idx):  # pragma: no cover - Reg operands never reach here
        return TOP


_EMPTY_AFFINE_ENV = _EmptyAffineEnv()


def interval_solution(kernel):
    """The interval pass: ``(analysis, envs)`` like affine, solved once
    per kernel.

    ``envs[pc]`` is the :class:`_IEnv` *before* ``pc`` executes (None for
    unreachable code).
    """
    envs = fact(kernel, "interval", solve_per_pc, IntervalAnalysis, kernel)
    return IntervalAnalysis(kernel), envs
