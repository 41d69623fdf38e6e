"""Kernel objects: an instruction sequence plus launch/resource metadata.

A :class:`Kernel` is the unit handed to the simulator.  Besides the code it
carries the per-thread register footprint and per-CTA shared-memory
footprint that the hardware resource allocators (and the occupancy
calculator in :mod:`repro.core.occupancy`) use.  The *declared* footprints
may exceed what the code actually touches: real compilers frequently
allocate more registers than a hand count of the assembly suggests, and the
Virtual Thread paper's benchmark classification depends on those footprints,
so they are first-class, overridable metadata here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instruction import Imm, Instruction, MemRef, Reg, SReg
from repro.isa.opcodes import CmpOp, Op, OPCODE_INFO


#: Threads per warp: fixed, as on every NVIDIA GPU the paper models.
WARP_SIZE = 32


class KernelValidationError(ValueError):
    """Raised when a kernel fails static validation."""


def _format_operand(operand) -> str:
    """Render one operand in assembler syntax (round-trip safe)."""
    if isinstance(operand, Reg):
        return f"r{operand.idx}"
    if isinstance(operand, Imm):
        value = operand.value
        text = repr(value) if isinstance(value, float) else str(value)
        # repr(1e+20) is '1e+20'; the assembler's immediate grammar has no
        # '+' exponent sign, but accepts the equivalent '1e20'.
        return "#" + text.replace("e+", "e")
    if isinstance(operand, SReg):
        return f"%{operand.kind.value}"
    if isinstance(operand, MemRef):
        if operand.offset < 0:
            return f"[r{operand.base.idx}-{-operand.offset}]"
        if operand.offset:
            return f"[r{operand.base.idx}+{operand.offset}]"
        return f"[r{operand.base.idx}]"
    raise TypeError(f"cannot format operand {operand!r}")


def _format_instr(instr: Instruction, pc_labels: dict[int, list[str]]) -> str:
    """Render one instruction in assembler syntax."""
    parts = []
    if instr.pred is not None:
        parts.append(f"@{'!' if instr.pred_neg else ''}r{instr.pred.idx}")
    mnemonic = instr.op.value
    if instr.cmp is not None:
        mnemonic += f".{instr.cmp.value.upper()}"
    parts.append(mnemonic)
    if instr.op is Op.BRA:
        parts.append(pc_labels[instr.target][0])
        return " ".join(parts)
    operands = []
    if instr.dst is not None:
        operands.append(_format_operand(instr.dst))
    operands.extend(_format_operand(s) for s in instr.srcs)
    if operands:
        parts.append(", ".join(operands))
    return " ".join(parts)


@dataclass
class Kernel:
    """An assembled kernel ready for launch.

    Attributes:
        name: Kernel name (used in reports).
        instrs: The instruction sequence; PCs are indices into this list.
        regs_per_thread: Architectural registers each thread needs.
        smem_bytes: Static shared memory per CTA, in bytes.
        cta_dim: Threads per CTA (x, y, z).
        labels: Label name -> PC mapping (informational, kept for disassembly).
    """

    name: str
    instrs: list[Instruction]
    regs_per_thread: int
    smem_bytes: int = 0
    cta_dim: tuple[int, int, int] = (32, 1, 1)
    labels: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.validate()
        # Reconvergence PCs are computed lazily on first launch; import here
        # to avoid a cycle at module load.
        from repro.isa.cfg import annotate_reconvergence

        annotate_reconvergence(self)

    # The static-analysis context (``repro.isa.analysis.context``) lives in
    # the instance dict under ``_analysis``: any attribute assignment drops
    # it, and it is never pickled or copied.
    def __setattr__(self, name, value) -> None:
        self.__dict__.pop("_analysis", None)
        object.__setattr__(self, name, value)

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_analysis", None)
        return state

    @property
    def threads_per_cta(self) -> int:
        x, y, z = self.cta_dim
        return x * y * z

    def warps_per_cta(self) -> int:
        return -(-self.threads_per_cta // WARP_SIZE)

    def validate(self) -> None:
        """Static sanity checks; raises :class:`KernelValidationError`."""
        if not self.instrs:
            raise KernelValidationError(f"kernel {self.name!r} has no instructions")
        if not any(i.op is Op.EXIT for i in self.instrs):
            raise KernelValidationError(f"kernel {self.name!r} has no EXIT")
        if self.threads_per_cta <= 0:
            raise KernelValidationError(f"kernel {self.name!r} has empty CTA {self.cta_dim}")
        for pc, instr in enumerate(self.instrs):
            info = OPCODE_INFO[instr.op]
            if instr.max_reg() >= self.regs_per_thread:
                raise KernelValidationError(
                    f"{self.name}@{pc}: {instr!r} uses r{instr.max_reg()} but the "
                    f"kernel declares only {self.regs_per_thread} registers per "
                    f"thread (r0..r{self.regs_per_thread - 1})"
                )
            if instr.op is Op.BRA:
                if instr.target is None:
                    raise KernelValidationError(f"{self.name}@{pc}: BRA without target")
                if not 0 <= instr.target < len(self.instrs):
                    raise KernelValidationError(
                        f"{self.name}@{pc}: branch target {instr.target} is outside "
                        f"the kernel (valid PCs are 0..{len(self.instrs) - 1})"
                    )
            elif info.has_dst and instr.dst is None:
                raise KernelValidationError(f"{self.name}@{pc}: {instr.op.value} needs a destination")
            if instr.op is Op.SETP and instr.cmp is None:
                raise KernelValidationError(f"{self.name}@{pc}: SETP without comparison kind")

    def disassemble(self) -> str:
        """Listing that re-assembles to an identical kernel.

        The output is valid assembler input (directives, labels, ``// pc``
        comments), so ``assemble(kernel.disassemble())`` reproduces the
        same instructions and metadata — the round-trip property the test
        suite checks for every registry kernel.  Branch targets without a
        user label get a synthesized ``L<pc>`` label.
        """
        pc_labels: dict[int, list[str]] = {}
        for label, pc in sorted(self.labels.items()):
            pc_labels.setdefault(pc, []).append(label)
        for instr in self.instrs:
            if instr.op is Op.BRA and instr.target not in pc_labels:
                name = f"L{instr.target}"
                while name in self.labels:
                    name += "_"
                pc_labels[instr.target] = [name]

        lines = [
            f".kernel {self.name}",
            f".regs {self.regs_per_thread}",
            f".smem {self.smem_bytes}",
            ".cta " + " ".join(str(d) for d in self.cta_dim),
        ]
        for pc, instr in enumerate(self.instrs):
            for label in pc_labels.get(pc, ()):
                lines.append(f"{label}:")
            lines.append(f"    {_format_instr(instr, pc_labels):<40s} // pc {pc}")
        for label in pc_labels.get(len(self.instrs), ()):
            lines.append(f"{label}:")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"Kernel({self.name!r}, {len(self.instrs)} instrs, regs={self.regs_per_thread})"


class KernelBuilder:
    """Fluent programmatic construction of :class:`Kernel` objects.

    Example::

        b = KernelBuilder("axpy", regs_per_thread=8, cta_dim=(128, 1, 1))
        b.s2r(0, "ctaid_x").s2r(1, "ntid_x").s2r(2, "tid_x")
        b.imad(3, 0, 1, 2)                 # global thread id
        ...
        b.exit()
        kernel = b.build()

    Branch targets may be forward references: ``b.bra("done", pred=5)``
    before ``b.label("done")`` is legal; labels are resolved at build time.
    """

    def __init__(
        self,
        name: str,
        regs_per_thread: int,
        smem_bytes: int = 0,
        cta_dim: tuple[int, int, int] = (32, 1, 1),
    ):
        self.name = name
        self.regs_per_thread = regs_per_thread
        self.smem_bytes = smem_bytes
        self.cta_dim = cta_dim
        self._instrs: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._fixups: list[tuple[int, str]] = []

    # -- structural helpers -------------------------------------------------

    def label(self, name: str) -> "KernelBuilder":
        if name in self._labels:
            raise KernelValidationError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instrs)
        return self

    def emit(self, instr: Instruction) -> "KernelBuilder":
        self._instrs.append(instr)
        return self

    def _src(self, operand) -> Reg | Imm:
        """Coerce ints that look like register ids vs immediates.

        Plain ``int`` arguments denote *registers*; use :class:`Imm` (or the
        ``imm()`` helper) for literal values.  Floats are always immediates.
        """
        if isinstance(operand, (Reg, Imm, SReg, MemRef)):
            return operand
        if isinstance(operand, bool):
            raise TypeError("ambiguous bool operand; use Imm explicitly")
        if isinstance(operand, int):
            return Reg(operand)
        if isinstance(operand, float):
            return Imm(operand)
        raise TypeError(f"bad operand {operand!r}")

    def _op(self, op: Op, dst: int | None, *srcs, cmp: CmpOp | None = None,
            pred: int | None = None, pred_neg: bool = False) -> "KernelBuilder":
        instr = Instruction(
            op=op,
            dst=Reg(dst) if dst is not None else None,
            srcs=tuple(self._src(s) for s in srcs),
            cmp=cmp,
            pred=Reg(pred) if pred is not None else None,
            pred_neg=pred_neg,
        )
        return self.emit(instr)

    # -- arithmetic ---------------------------------------------------------

    def iadd(self, d, a, b, **kw):
        return self._op(Op.IADD, d, a, b, **kw)

    def isub(self, d, a, b, **kw):
        return self._op(Op.ISUB, d, a, b, **kw)

    def imul(self, d, a, b, **kw):
        return self._op(Op.IMUL, d, a, b, **kw)

    def imad(self, d, a, b, c, **kw):
        return self._op(Op.IMAD, d, a, b, c, **kw)

    def idiv(self, d, a, b, **kw):
        return self._op(Op.IDIV, d, a, b, **kw)

    def irem(self, d, a, b, **kw):
        return self._op(Op.IREM, d, a, b, **kw)

    def imin(self, d, a, b, **kw):
        return self._op(Op.IMIN, d, a, b, **kw)

    def imax(self, d, a, b, **kw):
        return self._op(Op.IMAX, d, a, b, **kw)

    def and_(self, d, a, b, **kw):
        return self._op(Op.AND, d, a, b, **kw)

    def or_(self, d, a, b, **kw):
        return self._op(Op.OR, d, a, b, **kw)

    def xor(self, d, a, b, **kw):
        return self._op(Op.XOR, d, a, b, **kw)

    def shl(self, d, a, b, **kw):
        return self._op(Op.SHL, d, a, b, **kw)

    def shr(self, d, a, b, **kw):
        return self._op(Op.SHR, d, a, b, **kw)

    def fadd(self, d, a, b, **kw):
        return self._op(Op.FADD, d, a, b, **kw)

    def fsub(self, d, a, b, **kw):
        return self._op(Op.FSUB, d, a, b, **kw)

    def fmul(self, d, a, b, **kw):
        return self._op(Op.FMUL, d, a, b, **kw)

    def ffma(self, d, a, b, c, **kw):
        return self._op(Op.FFMA, d, a, b, c, **kw)

    def fdiv(self, d, a, b, **kw):
        return self._op(Op.FDIV, d, a, b, **kw)

    def fmin(self, d, a, b, **kw):
        return self._op(Op.FMIN, d, a, b, **kw)

    def fmax(self, d, a, b, **kw):
        return self._op(Op.FMAX, d, a, b, **kw)

    def fsqrt(self, d, a, **kw):
        return self._op(Op.FSQRT, d, a, **kw)

    def fexp(self, d, a, **kw):
        return self._op(Op.FEXP, d, a, **kw)

    def fabs(self, d, a, **kw):
        return self._op(Op.FABS, d, a, **kw)

    def i2f(self, d, a, **kw):
        return self._op(Op.I2F, d, a, **kw)

    def f2i(self, d, a, **kw):
        return self._op(Op.F2I, d, a, **kw)

    def mov(self, d, a, **kw):
        return self._op(Op.MOV, d, a, **kw)

    def movi(self, d, value: float, **kw):
        return self._op(Op.MOV, d, Imm(value), **kw)

    def sel(self, d, cond, a, b, **kw):
        return self._op(Op.SEL, d, cond, a, b, **kw)

    def s2r(self, d, which: str, **kw):
        from repro.isa.instruction import SpecialReg

        return self._op(Op.S2R, d, SReg(SpecialReg(which)), **kw)

    def setp(self, cmp: str | CmpOp, d, a, b, **kw):
        cmp_op = CmpOp(cmp) if isinstance(cmp, str) else cmp
        return self._op(Op.SETP, d, a, b, cmp=cmp_op, **kw)

    # -- memory ---------------------------------------------------------------

    def ldg(self, d, base: int, offset: int = 0, **kw):
        return self._op(Op.LDG, d, MemRef(Reg(base), offset), **kw)

    def stg(self, base: int, src, offset: int = 0, **kw):
        return self._op(Op.STG, None, MemRef(Reg(base), offset), src, **kw)

    def lds(self, d, base: int, offset: int = 0, **kw):
        return self._op(Op.LDS, d, MemRef(Reg(base), offset), **kw)

    def sts(self, base: int, src, offset: int = 0, **kw):
        return self._op(Op.STS, None, MemRef(Reg(base), offset), src, **kw)

    def atomg_add(self, d, base: int, src, offset: int = 0, **kw):
        return self._op(Op.ATOMG_ADD, d, MemRef(Reg(base), offset), src, **kw)

    def atoms_add(self, d, base: int, src, offset: int = 0, **kw):
        return self._op(Op.ATOMS_ADD, d, MemRef(Reg(base), offset), src, **kw)

    def atomg_max(self, d, base: int, src, offset: int = 0, **kw):
        return self._op(Op.ATOMG_MAX, d, MemRef(Reg(base), offset), src, **kw)

    # -- control --------------------------------------------------------------

    def bra(self, target: str, pred: int | None = None, pred_neg: bool = False):
        instr = Instruction(
            op=Op.BRA,
            target=-1,
            pred=Reg(pred) if pred is not None else None,
            pred_neg=pred_neg,
        )
        self._fixups.append((len(self._instrs), target))
        return self.emit(instr)

    def bar(self):
        return self._op(Op.BAR, None)

    def exit(self):
        return self._op(Op.EXIT, None)

    def nop(self, count: int = 1):
        for _ in range(count):
            self._op(Op.NOP, None)
        return self

    # -- finalization -----------------------------------------------------------

    def build(self, strict: bool = False) -> Kernel:
        """Resolve labels and construct the kernel.

        ``strict=True`` additionally runs the static verifier
        (:mod:`repro.isa.analysis`) and raises
        :class:`KernelValidationError` on lint errors or warnings.
        """
        for pc, label in self._fixups:
            if label not in self._labels:
                raise KernelValidationError(f"undefined label {label!r} in {self.name!r}")
            self._instrs[pc].target = self._labels[label]
        kernel = Kernel(
            name=self.name,
            instrs=self._instrs,
            regs_per_thread=self.regs_per_thread,
            smem_bytes=self.smem_bytes,
            cta_dim=self.cta_dim,
            labels=dict(self._labels),
        )
        if strict:
            from repro.isa.analysis import check_strict

            check_strict(kernel)
        return kernel
