"""Property test: random structured programs execute identically to a
straightforward per-thread interpreter.

This is the strongest functional check on the SIMT stack: hypothesis
generates random if/else-and-loop programs; we execute them (a) through
the full warp/SIMT machinery and (b) per-thread with plain Python, and
the architectural register state must match exactly.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.isa.cfg import EXIT_PC
from repro.isa.kernel import KernelBuilder
from repro.sim.cta import CTA
from repro.sim.config import GPUConfig
from repro.sim.exec import functional_step
from repro.sim.memory import GlobalMemory
from repro.sim.warp import Warp


def build_program(choices):
    """A structured random program over r0 (tid) and r1 (accumulator).

    ``choices`` is a list of (kind, threshold) pairs; each generates an
    if/else diamond or a bounded loop, all operating on r1.
    """
    b = KernelBuilder("prop", regs_per_thread=6, cta_dim=(32, 1, 1))
    b.s2r(0, "tid_x")
    b.movi(1, 0)
    for i, (kind, threshold) in enumerate(choices):
        if kind == 0:  # if tid < threshold: r1 += 3 else r1 += 5
            b.setp("lt", 2, 0, float(threshold))
            b.bra(f"then{i}", pred=2)
            b.iadd(1, 1, 5.0)
            b.bra(f"join{i}")
            b.label(f"then{i}")
            b.iadd(1, 1, 3.0)
            b.label(f"join{i}")
        elif kind == 1:  # data-dependent loop: r1 += (tid % threshold) + 1 times
            b.irem(3, 0, float(threshold))
            b.iadd(3, 3, 1.0)
            b.movi(4, 0)
            b.label(f"loop{i}")
            b.iadd(1, 1, 1.0)
            b.iadd(4, 4, 1.0)
            b.setp("lt", 2, 4, 3)
            b.bra(f"loop{i}", pred=2)
        else:  # predicated add
            b.setp("ge", 2, 0, float(threshold))
            b.iadd(1, 1, 7.0, pred=2)
    b.exit()
    return b.build()


def reference_exec(choices):
    """Per-thread scalar interpretation of the same program."""
    out = np.zeros(32)
    for tid in range(32):
        acc = 0
        for kind, threshold in choices:
            if kind == 0:
                acc += 3 if tid < threshold else 5
            elif kind == 1:
                trips = (tid % threshold) + 1
                acc += trips
            else:
                if tid >= threshold:
                    acc += 7
    # careful: accumulate across all choices
        out[tid] = acc
    return out


def simt_exec(kernel):
    cfg = GPUConfig()
    cta = CTA(0, kernel, (1, 1, 1), (), cfg, 0)
    warp = cta.warps[0]
    gmem = GlobalMemory(4096)
    steps = 0
    while not warp.finished:
        instr = kernel.instrs[warp.pc]
        functional_step(warp, instr, gmem)
        assert_stored_state_matches_stack(warp)
        steps += 1
        assert steps < 10000, "runaway program"
    return warp.regs[1].copy()


program_choices = st.lists(
    st.tuples(st.integers(0, 2), st.integers(1, 31)),
    min_size=1,
    max_size=5,
)


@settings(max_examples=60, deadline=None)
@given(program_choices)
def test_simt_matches_per_thread_reference(choices):
    kernel = build_program(choices)
    got = simt_exec(kernel)
    want = reference_exec(choices)
    assert np.array_equal(got, want), (choices, got, want)


def assert_stored_state_matches_stack(warp):
    """``Warp.pc``/``finished`` are stored fields refreshed on every
    SIMT-stack transition; they must equal what the stack says."""
    assert warp.finished == (not warp.stack)
    assert warp.pc == (warp.stack[-1].pc if warp.stack else None)


_transitions = st.lists(
    st.tuples(
        st.sampled_from(["advance", "uniform", "divergent", "exit"]),
        st.integers(0, 20),  # branch target
        st.integers(0, (1 << 32) - 1),  # taken-lane draw
        st.one_of(st.integers(0, 20), st.just(EXIT_PC)),  # reconvergence pc
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 32), _transitions)
def test_stored_pc_and_finished_follow_every_transition(live_lanes, ops):
    """Random advance/branch/diverge/exit sequences straight on the stack,
    including reconvergence pops and exits that pop to the other side."""
    warp = Warp(None, 0, 4, live_lanes)
    assert_stored_state_matches_stack(warp)
    for kind, target, draw, reconv in ops:
        if warp.finished:
            break
        if kind == "advance":
            warp.advance()
        elif kind == "uniform":
            warp.branch_uniform(target)
        elif kind == "exit":
            warp.do_exit()
        else:
            active = warp.active_mask()
            taken = draw & active
            if taken in (0, active):
                continue  # not a divergence (the executor's uniform cases)
            warp.branch_divergent(taken, target, reconv)
        assert_stored_state_matches_stack(warp)
