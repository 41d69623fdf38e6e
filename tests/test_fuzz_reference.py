"""The reference executor's error paths and its agreement with the
simulator on hand-built kernels the generator does not emit."""

import numpy as np
import pytest

from repro.fuzz import reference
from repro.fuzz.reference import ReferenceExecError, reference_execute
from repro.isa.instruction import Imm
from repro.isa.kernel import KernelBuilder
from repro.isa.opcodes import Op
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory, MemoryError_


def _kernel(body, *, cta=32, smem=0):
    b = KernelBuilder("ref_probe", regs_per_thread=8, smem_bytes=smem,
                      cta_dim=(cta, 1, 1))
    b.s2r(0, "tid_x")
    body(b)
    b.exit()
    return b.build()


def _run(kernel, words=64, grid=(1, 1, 1)):
    gmem = GlobalMemory(size_bytes=words * 4)
    base = gmem.alloc("buf", words)
    reference_execute(kernel, grid, gmem.data, (float(base),))
    return gmem.data


def test_step_budget(monkeypatch):
    monkeypatch.setattr(reference, "MAX_STEPS", 40)

    def spin(b):
        b.label("top")
        b.bra("top")

    with pytest.raises(ReferenceExecError, match="exceeded 40 steps"):
        _run(_kernel(spin))


def test_pc_falling_off_the_end():
    b = KernelBuilder("ref_probe", regs_per_thread=8)
    b.bra("tail")
    b.exit()
    b.label("tail")
    b.nop()
    with pytest.raises(ReferenceExecError, match="fell off"):
        _run(b.build())


@pytest.mark.parametrize("op", ["exit", "bar"])
def test_predicated_exit_and_bar(op):
    def body(b):
        b.setp("lt", 1, 0, Imm(4))
        b._op(Op[op.upper()], None, pred=1)

    with pytest.raises(ReferenceExecError, match=f"predicated {op.upper()}"):
        _run(_kernel(body))


def test_negative_shift():
    def body(b):
        b.isub(1, 0, Imm(3))  # negative for threads 0..2 only
        b.shl(2, 0, 1)

    with pytest.raises(ReferenceExecError, match="negative shift"):
        _run(_kernel(body))


@pytest.mark.parametrize("op", ["idiv", "irem"])
def test_integer_division_by_zero(op):
    def body(b):
        b.and_(1, 0, Imm(7))  # zero on every eighth thread
        getattr(b, op)(2, 0, 1)

    with pytest.raises(ReferenceExecError, match="integer division by zero"):
        _run(_kernel(body))


def test_float_division_by_zero():
    def body(b):
        b.i2f(1, 0)
        b.fdiv(2, 1, 1)  # 0 / 0 on thread 0

    with pytest.raises(ReferenceExecError, match="float division by zero"):
        _run(_kernel(body))


def test_sqrt_of_negative():
    def body(b):
        b.i2f(1, 0)
        b.fsub(1, 1, Imm(16.0))
        b.fsqrt(2, 1)

    with pytest.raises(ReferenceExecError, match="sqrt of negative"):
        _run(_kernel(body))


def test_predicated_off_threads_are_not_checked():
    # Thread 0 would divide by zero, but the predicate masks it out.
    def body(b):
        b.setp("ge", 1, 0, Imm(1))
        b.movi(2, -1.0)
        b.idiv(2, 0, 0, pred=1)
        b.s2r(3, "param0")
        b.shl(4, 0, Imm(2))
        b.iadd(3, 3, 4)
        b.stg(3, 2)

    data = _run(_kernel(body))
    assert data[0] == -1.0 and (data[1:32] == 1.0).all()


def _address(b, offset_bytes):
    b.s2r(1, "param0")
    b.shl(2, 0, Imm(2))
    b.iadd(1, 1, 2)
    b.iadd(1, 1, Imm(offset_bytes))


def test_misaligned_global_access():
    with pytest.raises(MemoryError_, match="misaligned global"):
        _run(_kernel(lambda b: (_address(b, 2), b.ldg(3, 1))))


def test_out_of_bounds_global_access():
    # Thread 31 reaches word 32 + 31 of a 48-word memory.
    with pytest.raises(MemoryError_, match="global access out of bounds"):
        _run(_kernel(lambda b: (_address(b, 128), b.stg(1, 0))), words=48)


def test_out_of_bounds_shared_access():
    def body(b):
        b.shl(1, 0, Imm(2))
        b.lds(2, 1, offset=64)  # 32 words of shared memory

    with pytest.raises(MemoryError_, match="shared access out of bounds"):
        _run(_kernel(body, smem=128))


def _simulate(kernel, words, grid=(1, 1, 1), init=None):
    images = []
    for run in ("reference", "simulator"):
        gmem = GlobalMemory(size_bytes=words * 4)
        base = gmem.alloc("buf", words)
        if init is not None:
            gmem.write("buf", init)
        if run == "reference":
            reference_execute(kernel, grid, gmem.data, (float(base),))
        else:
            GPU(scaled_fermi(num_sms=1)).launch(kernel, grid, gmem,
                                                (float(base),),
                                                max_cycles=100_000)
        images.append(gmem.data)
    return images


def test_divergent_trip_counts_before_a_barrier_match_the_simulator():
    # Each thread loops 2 + (tid & 3) times, publishes its sum through
    # shared memory, and after the barrier reads its neighbour's.
    def body(b):
        b.and_(1, 0, Imm(3))
        b.iadd(1, 1, Imm(2))
        b.movi(2, 0.0)
        b.movi(3, 0.0)
        b.label("top")
        b.fadd(3, 3, Imm(1.25))
        b.iadd(2, 2, Imm(1))
        b.setp("lt", 4, 2, 1)
        b.bra("top", pred=4)
        b.shl(5, 0, Imm(2))
        b.sts(5, 3)
        b.bar()
        b.iadd(6, 0, Imm(1))
        b.and_(6, 6, Imm(63))
        b.shl(6, 6, Imm(2))
        b.lds(3, 6)
        b.s2r(6, "ctaid_x")
        b.imul(6, 6, Imm(256))
        b.iadd(5, 5, 6)
        b.s2r(6, "param0")
        b.iadd(5, 5, 6)
        b.stg(5, 3)

    kernel = _kernel(body, cta=64, smem=256)
    got, simulated = _simulate(kernel, words=128, grid=(2, 1, 1))
    assert np.array_equal(got.view(np.uint64), simulated.view(np.uint64))
    assert sorted(set(got[:64])) == [2.5, 3.75, 5.0, 6.25]


def test_atomic_max_with_nan_matches_global_memory():
    # Cell 0 starts at 1.0 and cell 1 at NaN; threads 3 and 10 offer NaN.
    values = np.arange(32, dtype=np.float64)
    values[[3, 10]] = np.nan
    init = np.concatenate(([1.0, np.nan], np.zeros(30), values))

    def body(b):
        b.s2r(1, "param0")
        b.shl(2, 0, Imm(2))
        b.iadd(2, 2, 1)
        b.ldg(3, 2, offset=128)  # values[tid]
        b.and_(4, 0, Imm(1))
        b.shl(4, 4, Imm(2))
        b.iadd(4, 4, 1)
        b.atomg_max(5, 4, 3)

    kernel = _kernel(body)
    got, simulated = _simulate(kernel, words=64, init=init)

    expected = GlobalMemory(size_bytes=64 * 4)
    expected.data[:] = init
    expected.atomic_max(np.arange(32, dtype=np.int64) % 2 * 4, values)
    assert np.array_equal(got.view(np.uint64), expected.data.view(np.uint64))
    assert np.array_equal(got.view(np.uint64), simulated.view(np.uint64))
    assert got[0] == 30.0 and np.isnan(got[1])
