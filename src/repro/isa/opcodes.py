"""Opcode definitions for the mini SIMT ISA.

Every opcode carries static metadata used by both the functional executor
(:mod:`repro.sim.exec`) and the timing model (:mod:`repro.sim.smcore`):

* an :class:`OpClass` that selects the functional unit / latency class, and
* the number of register sources it reads (used by the scoreboard).

Latency *values* live in :class:`repro.sim.config.GPUConfig`; opcodes only
name the class, so one kernel can be timed under many configurations.
"""

from __future__ import annotations

import enum


class OpClass(enum.Enum):
    """Functional-unit / latency class of an opcode."""

    ALU = "alu"  # simple integer / move / compare
    MUL = "mul"  # integer multiply, multiply-add
    FPU = "fpu"  # single-precision add/mul/fma
    SFU = "sfu"  # special function unit: div, sqrt, exp
    MEM_GLOBAL = "mem_global"  # global loads/stores/atomics
    MEM_SHARED = "mem_shared"  # shared-memory accesses
    CTRL = "ctrl"  # branches, barrier, exit, nop


class CmpOp(enum.Enum):
    """Comparison kinds for ``SETP``."""

    EQ = "eq"
    NE = "ne"
    LT = "lt"
    LE = "le"
    GT = "gt"
    GE = "ge"


class Op(enum.Enum):
    """All opcodes of the mini ISA."""

    # Integer arithmetic.
    IADD = "IADD"
    ISUB = "ISUB"
    IMUL = "IMUL"
    IMAD = "IMAD"  # d = a * b + c
    IDIV = "IDIV"
    IREM = "IREM"
    IMIN = "IMIN"
    IMAX = "IMAX"
    AND = "AND"
    OR = "OR"
    XOR = "XOR"
    SHL = "SHL"
    SHR = "SHR"
    # Floating point.
    FADD = "FADD"
    FSUB = "FSUB"
    FMUL = "FMUL"
    FFMA = "FFMA"  # d = a * b + c
    FDIV = "FDIV"
    FMIN = "FMIN"
    FMAX = "FMAX"
    FSQRT = "FSQRT"
    FEXP = "FEXP"
    FABS = "FABS"
    # Conversions and data movement.
    I2F = "I2F"
    F2I = "F2I"
    MOV = "MOV"  # also accepts an immediate source
    SEL = "SEL"  # d = src0 ? src1 : src2
    S2R = "S2R"  # read special register
    SETP = "SETP"  # d = cmp(src0, src1) ? 1 : 0
    # Memory.
    LDG = "LDG"  # load global
    STG = "STG"  # store global
    LDS = "LDS"  # load shared
    STS = "STS"  # store shared
    ATOMG_ADD = "ATOMG_ADD"  # global atomic add, returns old value
    ATOMS_ADD = "ATOMS_ADD"  # shared atomic add, returns old value
    ATOMG_MAX = "ATOMG_MAX"
    # Control.
    BRA = "BRA"  # branch (conditional when predicated)
    BAR = "BAR"  # CTA-wide barrier
    EXIT = "EXIT"
    NOP = "NOP"


class OpInfo:
    """Static metadata for one opcode."""

    __slots__ = ("op", "key", "op_class", "class_key", "num_srcs", "has_dst",
                 "is_branch", "is_mem", "is_store", "is_atomic")

    def __init__(self, op: Op, op_class: OpClass, num_srcs: int, has_dst: bool):
        self.op = op
        # String forms of the opcode and its class: dispatch tables are
        # keyed by these, since a string hashes in C and an Enum member
        # through a Python-level ``__hash__``.
        self.key = op.value
        self.op_class = op_class
        self.class_key = op_class.value
        self.num_srcs = num_srcs
        self.has_dst = has_dst
        self.is_branch = op is Op.BRA
        self.is_mem = op_class in (OpClass.MEM_GLOBAL, OpClass.MEM_SHARED)
        self.is_store = op in (Op.STG, Op.STS)
        self.is_atomic = op in (Op.ATOMG_ADD, Op.ATOMS_ADD, Op.ATOMG_MAX)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OpInfo({self.op.name}, {self.op_class.name})"


def _build_table() -> dict[Op, OpInfo]:
    a, m, f, s = OpClass.ALU, OpClass.MUL, OpClass.FPU, OpClass.SFU
    mg, ms, c = OpClass.MEM_GLOBAL, OpClass.MEM_SHARED, OpClass.CTRL
    spec = {
        Op.IADD: (a, 2, True),
        Op.ISUB: (a, 2, True),
        Op.IMUL: (m, 2, True),
        Op.IMAD: (m, 3, True),
        Op.IDIV: (s, 2, True),
        Op.IREM: (s, 2, True),
        Op.IMIN: (a, 2, True),
        Op.IMAX: (a, 2, True),
        Op.AND: (a, 2, True),
        Op.OR: (a, 2, True),
        Op.XOR: (a, 2, True),
        Op.SHL: (a, 2, True),
        Op.SHR: (a, 2, True),
        Op.FADD: (f, 2, True),
        Op.FSUB: (f, 2, True),
        Op.FMUL: (f, 2, True),
        Op.FFMA: (f, 3, True),
        Op.FDIV: (s, 2, True),
        Op.FMIN: (f, 2, True),
        Op.FMAX: (f, 2, True),
        Op.FSQRT: (s, 1, True),
        Op.FEXP: (s, 1, True),
        Op.FABS: (f, 1, True),
        Op.I2F: (a, 1, True),
        Op.F2I: (a, 1, True),
        Op.MOV: (a, 1, True),
        Op.SEL: (a, 3, True),
        Op.S2R: (a, 1, True),
        Op.SETP: (a, 2, True),
        Op.LDG: (mg, 1, True),
        Op.STG: (mg, 2, False),
        Op.LDS: (ms, 1, True),
        Op.STS: (ms, 2, False),
        Op.ATOMG_ADD: (mg, 2, True),
        Op.ATOMS_ADD: (ms, 2, True),
        Op.ATOMG_MAX: (mg, 2, True),
        Op.BRA: (c, 0, False),
        Op.BAR: (c, 0, False),
        Op.EXIT: (c, 0, False),
        Op.NOP: (c, 0, False),
    }
    return {op: OpInfo(op, cls, nsrc, dst) for op, (cls, nsrc, dst) in spec.items()}


#: Opcode metadata table, indexed by :class:`Op`.
OPCODE_INFO: dict[Op, OpInfo] = _build_table()
