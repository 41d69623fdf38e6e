"""Functional-first execution on the default engine (``repro.sim.prepass``).

The default engine executes each launch in one batched pre-pass and the
SMs replay the recorded streams; the per-cycle reference engine executes
every instruction at issue.  These tests hold the two to the same
statistics bytes and the same memory image, check that every launch the
pre-pass cannot vouch for falls back with a named reason, and that the
errors and watchdogs a fallback launch hits are the reference engine's.
"""

import json

import numpy as np
import pytest

from repro.isa.assembler import assemble
from repro.kernels import all_benchmarks, get
from repro.sim import prepass
from repro.sim.config import scaled_fermi
from repro.sim.exec import ExecutionError
from repro.sim.gpu import PER_CYCLE, GPU, ProgressDeadlock, SimulationTimeout
from repro.sim.memory import GlobalMemory

SCALE = 0.25
#: Kernels the pre-pass rejects at this scale, with the reason.
FALLBACKS = {"histogram": prepass.ATOMIC, "bfs": prepass.CROSS_CTA}


def _launch(kernel, grid, gmem, params=(), fast_forward=True, **overrides):
    cfg = scaled_fermi(num_sms=2, fast_forward=fast_forward, **overrides)
    return GPU(cfg).launch(kernel, grid, gmem, params)


@pytest.mark.parametrize("arch", ["baseline", "vt"])
@pytest.mark.parametrize("bench", all_benchmarks(), ids=lambda b: b.name)
def test_replay_matches_reference_engine(bench, arch):
    runs = []
    for fast_forward in (False, True):
        prep = bench.prepare(SCALE)
        runs.append(_launch(bench.kernel, prep.grid_dim, prep.gmem,
                            prep.params, fast_forward, arch=arch))
    ref, fast = runs
    assert ref.fallback == PER_CYCLE
    assert fast.fallback == FALLBACKS.get(bench.name)
    assert (json.dumps(fast.stats.to_dict(), sort_keys=True)
            == json.dumps(ref.stats.to_dict(), sort_keys=True))
    assert fast.gmem.data.tobytes() == ref.gmem.data.tobytes()


def test_stream_holds_no_object_per_warp_instruction():
    bench = get("reduction")
    prep = bench.prepare(SCALE)
    stream, reason = prepass.run_prepass(
        bench.kernel, GPU._normalize_grid(prep.grid_dim), prep.gmem,
        prep.params, scaled_fermi(), 10**6)
    assert reason is None
    for part in stream.parts:
        for name in ("pcs", "lanes", "costs", "lines"):
            assert isinstance(part[name], np.ndarray)
            assert part[name].dtype != object
        assert part["pcs"].size > len(part["ev"])
        # Lane addresses are kept only for the sanitizer's per-issue check.
        assert "addrs" not in part


def _raised(kernel, gmem_factory, exc_type, params=(), **overrides):
    """The exception each engine raises, reference engine first."""
    out = []
    for fast_forward in (False, True):
        with pytest.raises(exc_type) as excinfo:
            _launch(kernel, 1, gmem_factory(), params, fast_forward,
                    **overrides)
        out.append(excinfo.value)
    return out


DIVZERO_ASM = """
.kernel divzero
.regs 6
.cta 64
    S2R   r0, %tid_x
    SHL   r1, r0, #2
    S2R   r2, %param0
    IADD  r2, r2, r1
    STG   [r2], r0
    MOV   r3, #0
    IDIV  r4, r0, r3
    EXIT
"""


def test_division_by_zero_raises_the_per_issue_error():
    kernel = assemble(DIVZERO_ASM)

    def gmem():
        memory = GlobalMemory(1 << 16)
        memory.alloc("out", 64)
        return memory

    base = gmem().base("out")
    ref, fast = _raised(kernel, gmem, ExecutionError, (base,))
    assert str(fast) == str(ref) == "integer division by zero"
    # The pre-pass stored before it failed; the fallback run starts from
    # the memory image it was given.
    memory = gmem()
    before = memory.data.copy()
    stream, reason = prepass.run_prepass(kernel, (1, 1, 1), memory, (base,),
                                         scaled_fermi(), 10**6)
    assert (stream, reason) == (None, prepass.ERROR)
    assert memory.data.tobytes() == before.tobytes()


SPIN_ASM = """
.kernel spin
.regs 2
.cta 32
loop:
    MOV   r0, #1
    BRA   loop
    EXIT
"""


def test_runaway_loop_times_out_at_the_reference_cycle():
    kernel = assemble(SPIN_ASM)
    ref, fast = _raised(kernel, lambda: GlobalMemory(1 << 16),
                        SimulationTimeout, max_cycles=500)
    assert type(fast) is type(ref)
    assert str(fast) == str(ref)
    assert fast.dump == ref.dump
    assert prepass.run_prepass(kernel, (1, 1, 1), GlobalMemory(1 << 16), (),
                               scaled_fermi(), 500) == (None, prepass.BUDGET)


# Even lanes wait at a barrier inside the divergent branch while the odd
# lanes wait on a DRAM load that outlives the progress window.
DIVERGENT_BARRIER_ASM = """
.kernel divbar
.regs 8
.cta 64
    S2R   r0, %tid_x
    AND   r1, r0, #1
    SETP.EQ r2, r1, #0
@r2 BRA   even
    SHL   r3, r0, #2
    S2R   r4, %param0
    IADD  r4, r4, r3
    LDG   r5, [r4]
    IADD  r5, r5, #1
    STG   [r4], r5
    BRA   join
even:
    BAR
join:
    EXIT
"""


def test_divergent_barrier_deadlock_fires_at_the_reference_cycle():
    kernel = assemble(DIVERGENT_BARRIER_ASM)

    def gmem():
        memory = GlobalMemory(1 << 16)
        memory.alloc("a", 64)
        return memory

    slow = {"dram_latency": 800, "dram_channels": 1,
            "dram_service_cycles": 40, "progress_window": 60,
            "max_pending_latency": 30}
    ref, fast = _raised(kernel, gmem, ProgressDeadlock,
                        (gmem().base("a"),), **slow)
    assert str(fast) == str(ref)
    assert fast.dump == ref.dump
    # Without the watchdog the same launch completes, replayed.
    prep_gmem = gmem()
    result = _launch(kernel, 1, prep_gmem, (prep_gmem.base("a"),))
    assert result.fallback is None


# Warp 1 stores its shared words only after a global load, warp 0 at
# once; each thread then reads the word of its partner in the other warp
# (tid ^ 32) with no barrier between, so the value warp 0 loads depends
# on the interleaving: a cross-warp race inside one barrier phase.
SMEM_RACE_ASM = """
.kernel smemrace
.regs 10
.smem 256
.cta 64
    S2R   r0, %tid_x
    SHL   r1, r0, #2
    S2R   r5, %param0
    IADD  r5, r5, r1
    S2R   r7, %warpid
    SETP.NE r8, r7, #0
@r8 LDG   r6, [r5]
    IADD  r9, r6, r0
    STS   [r1], r9
    XOR   r2, r1, #128
    LDS   r3, [r2]
    STG   [r5], r3
    EXIT
"""


def test_shared_memory_race_forces_fallback():
    kernel = assemble(SMEM_RACE_ASM)
    results = []
    for fast_forward in (False, True):
        memory = GlobalMemory(1 << 16)
        memory.alloc("a", 64)
        memory.write("a", np.full(64, 100.0))
        results.append(_launch(kernel, 1, memory, (memory.base("a"),),
                               fast_forward))
    ref, fast = results
    assert fast.fallback == prepass.RACE
    assert fast.stats.to_dict() == ref.stats.to_dict()
    assert fast.gmem.data.tobytes() == ref.gmem.data.tobytes()


# Lane ``l`` of both warps stores global word ``l``, with no barrier
# between: the word's final value depends on which warp issues last.
GLOBAL_RACE_ASM = """
.kernel gmemrace
.regs 4
.cta 64
    S2R   r0, %tid_x
    S2R   r1, %param0
    AND   r2, r0, #31
    SHL   r2, r2, #2
    IADD  r1, r1, r2
    STG   [r1], r0
    EXIT
"""


def test_global_memory_race_forces_fallback():
    kernel = assemble(GLOBAL_RACE_ASM)
    results = []
    for fast_forward in (False, True):
        memory = GlobalMemory(1 << 16)
        memory.alloc("a", 32)
        results.append(_launch(kernel, 1, memory, (memory.base("a"),),
                               fast_forward))
    ref, fast = results
    assert fast.fallback == prepass.RACE
    assert fast.stats.to_dict() == ref.stats.to_dict()
    assert fast.gmem.data.tobytes() == ref.gmem.data.tobytes()
