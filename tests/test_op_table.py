"""The op table (``repro.sim.exec.OPS``) through both simulator executors.

Each instruction's semantics are defined once, in the op table, and both
executors dispatch through it: ``functional_step`` at every issue on the
per-cycle reference engine, and the functional pre-pass on the default
engine.  Every table key runs here on a one-warp assembled kernel whose
CTA has fewer threads than a warp (a partial mask), on both engines, and
both must store the hand-written expected values.  The fuzz oracle keeps
its own copy of the semantics; these cases pin the table itself.
"""

import numpy as np
import pytest

from repro.isa.assembler import assemble
from repro.isa.opcodes import OPCODE_INFO, CmpOp, Op
from repro.sim import prepass
from repro.sim.config import scaled_fermi
from repro.sim.exec import _MEMORY_OPS, OPS, ExecutionError
from repro.sim.gpu import PER_CYCLE, GPU
from repro.sim.memory import GlobalMemory

#: Live lanes of the one warp.
LANES = 24
CONTROL = {Op.BRA, Op.BAR, Op.EXIT, Op.NOP}

#: ``(mnemonic, cases)``: lane ``l`` runs ``cases[l % len(cases)]``, a
#: tuple of the source operands and the expected result.
CASES = [
    ("IADD", [(5, 3, 8), (-5, 3, -2)]),
    ("ISUB", [(5, 3, 2), (-5, 3, -8)]),
    ("IMUL", [(5, -3, -15), (4, 4, 16)]),
    ("IMAD", [(2, 3, 4, 10), (-2, 3, 4, -2)]),
    # Integer division truncates toward zero, as in C.
    ("IDIV", [(7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3)]),
    ("IREM", [(7, 2, 1), (-7, 2, -1), (7, -2, 1), (-7, -2, -1)]),
    ("IMIN", [(5, -3, -3), (2, 9, 2)]),
    ("IMAX", [(5, -3, 5), (2, 9, 9)]),
    ("AND", [(0b1100, 0b1010, 0b1000)]),
    ("OR", [(0b1100, 0b1010, 0b1110)]),
    ("XOR", [(0b1100, 0b1010, 0b0110)]),
    ("SHL", [(3, 4, 48), (-3, 1, -6)]),
    ("SHR", [(48, 4, 3), (-48, 4, -3)]),
    ("FADD", [(1.5, 2.25, 3.75)]),
    ("FSUB", [(1.5, 2.25, -0.75)]),
    ("FMUL", [(1.5, -2.0, -3.0)]),
    ("FFMA", [(1.5, 2.0, 0.25, 3.25)]),
    ("FDIV", [(3.0, 2.0, 1.5), (-3.0, 2.0, -1.5)]),
    ("FMIN", [(1.5, -2.0, -2.0)]),
    ("FMAX", [(1.5, -2.0, 1.5)]),
    ("FSQRT", [(9.0, 3.0), (2.25, 1.5), (0.0, 0.0)]),
    ("FEXP", [(0.0, 1.0), (float("-inf"), 0.0)]),
    ("FABS", [(-2.5, 2.5), (2.5, 2.5)]),
    # I2F reads its operand as an integer, F2I truncates toward zero.
    ("I2F", [(7.9, 7.0), (-7.9, -7.0)]),
    ("F2I", [(7.9, 7.0), (-7.9, -7.0)]),
    ("MOV", [(4.5, 4.5), (-1.25, -1.25)]),
    ("SEL", [(1, 2.5, 3.5, 2.5), (0, 2.5, 3.5, 3.5), (-1, 2.5, 3.5, 2.5)]),
    ("SETP.EQ", [(2, 2, 1), (2, 3, 0), (3, 2, 0)]),
    ("SETP.NE", [(2, 2, 0), (2, 3, 1), (3, 2, 1)]),
    ("SETP.LT", [(2, 2, 0), (2, 3, 1), (3, 2, 0)]),
    ("SETP.LE", [(2, 2, 1), (2, 3, 1), (3, 2, 0)]),
    ("SETP.GT", [(2, 2, 0), (2, 3, 0), (3, 2, 1)]),
    ("SETP.GE", [(2, 2, 1), (2, 3, 0), (3, 2, 1)]),
    # The operand is a special register: lane l reads thread id l.
    ("S2R", [(None, lane) for lane in range(LANES)]),
]


def _kernel(op_line: str):
    """Lane ``l`` loads its operands from words ``l``, ``l + LANES`` and
    ``l + 2 LANES`` of the buffer at ``%param0`` into r2..r4, runs
    ``op_line`` into r5, and stores r5 at word ``l + 3 LANES``."""
    return assemble(f"""
.kernel optable
.regs 6
.cta {LANES}
    S2R   r0, %tid_x
    SHL   r0, r0, #2
    S2R   r1, %param0
    IADD  r1, r1, r0
    LDG   r2, [r1]
    LDG   r3, [r1+{4 * LANES}]
    LDG   r4, [r1+{8 * LANES}]
    {op_line}
    STG   [r1+{12 * LANES}], r5
    EXIT
""")


def _op_line(mnemonic: str) -> str:
    if mnemonic == "S2R":
        return "S2R r5, %tid_x"
    arity = OPCODE_INFO[Op(mnemonic.split(".")[0])].num_srcs
    return f"{mnemonic} r5, " + ", ".join(f"r{2 + i}" for i in range(arity))


def _memory(operands: np.ndarray) -> GlobalMemory:
    memory = GlobalMemory(1 << 14)
    memory.alloc("io", 4 * LANES)
    memory.write("io", operands)
    return memory


def _columns(cases) -> tuple[np.ndarray, np.ndarray]:
    """The buffer's operand words (three columns and a zeroed result
    column) and the expected results, lane by lane."""
    rows = [cases[lane % len(cases)] for lane in range(LANES)]
    words = np.zeros((4, LANES))
    for lane, row in enumerate(rows):
        for slot, value in enumerate(row[:-1]):
            words[slot, lane] = 0.0 if value is None else value
    return words.ravel(), np.array([row[-1] for row in rows], dtype=np.float64)


def _launch(kernel, memory, fast_forward: bool):
    cfg = scaled_fermi(num_sms=1, fast_forward=fast_forward)
    return GPU(cfg).launch(kernel, 1, memory, (memory.base("io"),))


def test_every_opcode_has_semantics():
    """An opcode is in the op table, a memory op, or control flow, and
    only one of them: a new opcode without semantics fails here."""
    for op in Op:
        kinds = [op.value in OPS, op.value in _MEMORY_OPS, op in CONTROL]
        assert kinds.count(True) == 1, op


def test_cases_cover_the_op_table():
    assert {mnemonic.split(".")[0] for mnemonic, _ in CASES} == set(OPS)
    assert ({mnemonic for mnemonic, _ in CASES if mnemonic.startswith("SETP")}
            == {f"SETP.{cmp.name}" for cmp in CmpOp})


@pytest.mark.parametrize("mnemonic,cases", CASES, ids=[m for m, _ in CASES])
def test_both_executors_compute_the_table(mnemonic, cases):
    kernel = _kernel(_op_line(mnemonic))
    operands, expected = _columns(cases)
    for fast_forward, fallback in ((False, PER_CYCLE), (True, None)):
        result = _launch(kernel, _memory(operands), fast_forward)
        assert result.fallback == fallback
        out = result.gmem.read("io")[3 * LANES:]
        assert out.tolist() == expected.tolist(), (mnemonic, fast_forward)


DOMAIN_ERRORS = [
    ("IDIV", (7, 2), (7, 0), "integer division by zero"),
    ("IREM", (7, 2), (7, 0), "integer division by zero"),
    ("FDIV", (1.0, 2.0), (1.0, 0.0), "float division by zero"),
    ("SHL", (1, 2), (1, -1), "negative shift amount"),
    ("SHR", (8, 2), (8, -1), "negative shift amount"),
    ("FSQRT", (4.0,), (-1.0,), "sqrt of negative value"),
]


@pytest.mark.parametrize("mnemonic,good,bad,message", DOMAIN_ERRORS,
                         ids=[case[0] for case in DOMAIN_ERRORS])
def test_domain_errors_raise_in_both_executors(mnemonic, good, bad, message):
    """One lane out of the op's domain: the per-issue executor raises the
    table's message, and the pre-pass refuses the launch (so the default
    engine raises the same error per issue)."""
    kernel = _kernel(_op_line(mnemonic))
    cases = [good + (0,)] * LANES
    cases[5] = bad + (0,)
    operands, _ = _columns(cases)
    for fast_forward in (False, True):
        with pytest.raises(ExecutionError) as excinfo:
            _launch(kernel, _memory(operands), fast_forward)
        assert str(excinfo.value) == message
    memory = _memory(operands)
    stream, reason = prepass.run_prepass(
        kernel, (1, 1, 1), memory, (memory.base("io"),), scaled_fermi(), 10**6)
    assert (stream, reason) == (None, prepass.ERROR)
