"""Operand and instruction representations for the mini SIMT ISA."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.isa.opcodes import CmpOp, Op, OPCODE_INFO, OpClass


class SpecialReg(enum.Enum):
    """Special (read-only, per-thread) registers exposed via ``S2R``."""

    TID_X = "tid_x"
    TID_Y = "tid_y"
    TID_Z = "tid_z"
    CTAID_X = "ctaid_x"
    CTAID_Y = "ctaid_y"
    CTAID_Z = "ctaid_z"
    NTID_X = "ntid_x"
    NTID_Y = "ntid_y"
    NTID_Z = "ntid_z"
    NCTAID_X = "nctaid_x"
    NCTAID_Y = "nctaid_y"
    NCTAID_Z = "nctaid_z"
    LANEID = "laneid"
    WARPID = "warpid"
    # Kernel launch parameters (scalar arguments, e.g. buffer base addresses),
    # the mini-ISA analogue of CUDA's constant-bank kernel params.
    PARAM0 = "param0"
    PARAM1 = "param1"
    PARAM2 = "param2"
    PARAM3 = "param3"
    PARAM4 = "param4"
    PARAM5 = "param5"
    PARAM6 = "param6"
    PARAM7 = "param7"


@dataclass(frozen=True)
class Reg:
    """A general-purpose register operand ``r<idx>``."""

    idx: int

    def __repr__(self) -> str:
        return f"r{self.idx}"


@dataclass(frozen=True)
class Imm:
    """An immediate operand."""

    value: float

    def __repr__(self) -> str:
        return f"#{self.value}"


@dataclass(frozen=True)
class SReg:
    """A special-register operand (only legal as the source of ``S2R``)."""

    kind: SpecialReg

    def __repr__(self) -> str:
        return f"%{self.kind.value}"


@dataclass(frozen=True)
class MemRef:
    """A memory reference ``[r<base> + offset]`` with a byte offset."""

    base: Reg
    offset: int = 0

    def __repr__(self) -> str:
        if self.offset:
            return f"[{self.base!r}+{self.offset}]"
        return f"[{self.base!r}]"


Operand = Reg | Imm | SReg | MemRef


@dataclass
class Instruction:
    """One decoded instruction.

    Attributes:
        op: The opcode.
        dst: Destination register, or ``None`` for stores/control flow.
        srcs: Source operands in opcode order.  For memory operations the
            :class:`MemRef` appears in ``srcs`` (first for loads/atomics,
            second for stores is the data register).
        cmp: Comparison kind, only meaningful for ``SETP``.
        target: Branch-target PC (instruction index), only for ``BRA``.
            Filled in by the assembler / builder once labels are resolved.
        pred: Optional predicate register guarding the instruction
            (``@rP`` / ``@!rP``).  For ``BRA`` this makes the branch
            conditional; for other ops it masks out lanes.
        pred_neg: Whether the predicate is negated.
    """

    op: Op
    dst: Reg | None = None
    srcs: tuple[Operand, ...] = ()
    cmp: CmpOp | None = None
    target: int | None = None
    pred: Reg | None = None
    pred_neg: bool = False
    #: Reconvergence PC for divergent branches; filled by CFG analysis.
    reconv_pc: int | None = field(default=None, compare=False)

    def __post_init__(self):
        # Issue-time hot path: the opcode metadata and hazard register list
        # are functions of fields fixed at construction (``target`` and
        # ``reconv_pc`` are patched later but name no registers), so they
        # are computed once here instead of per scoreboard/scheduler query.
        info = self.info = OPCODE_INFO[self.op]
        # Dispatch keys (see OpInfo.key): the executor's operator tables
        # and the SM's latency table are keyed by these strings.
        self._class_key = info.class_key
        self._op_key = info.key
        self._cmp_key = self.cmp.value if self.cmp is not None else None
        regs: list[int] = []
        for operand in self.srcs:
            if isinstance(operand, Reg):
                regs.append(operand.idx)
            elif isinstance(operand, MemRef):
                regs.append(operand.base.idx)
        if self.pred is not None:
            regs.append(self.pred.idx)
        self._src_regs = tuple(regs)
        # Sources then destination, duplicates kept: the scoreboard's
        # latest-blocker classification walks this exact order.
        self._hazard_regs = self._src_regs + (
            (self.dst.idx,) if self.dst is not None else ())

    @property
    def is_branch(self) -> bool:
        return self.op is Op.BRA

    @property
    def is_conditional_branch(self) -> bool:
        return self.op is Op.BRA and self.pred is not None

    @property
    def is_global_mem(self) -> bool:
        return self.info.op_class is OpClass.MEM_GLOBAL

    @property
    def is_shared_mem(self) -> bool:
        return self.info.op_class is OpClass.MEM_SHARED

    @property
    def is_load(self) -> bool:
        return self.info.is_mem and self.info.has_dst and not self.info.is_atomic

    @property
    def is_store(self) -> bool:
        return self.info.is_store

    @property
    def is_barrier(self) -> bool:
        return self.op is Op.BAR

    @property
    def is_exit(self) -> bool:
        return self.op is Op.EXIT

    def src_regs(self) -> list[int]:
        """Register indices read by this instruction (including predicates
        and memory base addresses)."""
        return list(self._src_regs)

    def dst_reg(self) -> int | None:
        return self.dst.idx if self.dst is not None else None

    def max_reg(self) -> int:
        """Highest register index touched, or -1 if none."""
        regs = self.src_regs()
        if self.dst is not None:
            regs = regs + [self.dst.idx]
        return max(regs, default=-1)

    def __repr__(self) -> str:
        parts = []
        if self.pred is not None:
            parts.append(f"@{'!' if self.pred_neg else ''}{self.pred!r}")
        name = self.op.value
        if self.cmp is not None:
            name += f".{self.cmp.value.upper()}"
        parts.append(name)
        operands = []
        if self.dst is not None:
            operands.append(repr(self.dst))
        operands.extend(repr(s) for s in self.srcs)
        if self.target is not None:
            operands.append(f"pc:{self.target}")
        if operands:
            parts.append(", ".join(operands))
        return " ".join(parts)
