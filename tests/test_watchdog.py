"""The hang-detection pair: the hard cycle limit (with forensics attached)
and the forward-progress watchdog that fires long before it."""

import pytest

from repro.isa.assembler import assemble
from repro.kernels import get
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU, ProgressDeadlock, SimulationTimeout
from repro.sim.memory import GlobalMemory

# A kernel that never terminates: every cycle issues an instruction, so
# the *progress* watchdog stays quiet and only the hard limit can stop it.
# (The EXIT after the loop is unreachable; the validator requires one.)
SPIN_ASM = """
.kernel spin
.regs 2
.cta 32
loop:
    MOV   r0, #1
    BRA   loop
    EXIT
"""


def test_spin_kernel_hits_hard_limit_with_dump():
    kernel = assemble(SPIN_ASM)
    gpu = GPU(scaled_fermi(num_sms=1))
    with pytest.raises(SimulationTimeout) as excinfo:
        gpu.launch(kernel, 1, GlobalMemory(1 << 16), max_cycles=3000)
    exc = excinfo.value
    # A spin loop makes "progress" every cycle, so this is a plain
    # timeout, not a ProgressDeadlock.
    assert not isinstance(exc, ProgressDeadlock)
    assert exc.dump is not None
    for section in ("deadlock forensics", "resident CTAs", "unfinished warps",
                    "outstanding memory requests"):
        assert section in exc.dump
    # The dump names the spinning warp and calls it issuable.
    assert "ready to issue" in exc.dump


def test_dump_renders_without_faults():
    kernel = assemble(SPIN_ASM)
    gpu = GPU(scaled_fermi(num_sms=1))
    with pytest.raises(SimulationTimeout) as excinfo:
        gpu.launch(kernel, 1, GlobalMemory(1 << 16), max_cycles=500)
    assert "injected faults" not in excinfo.value.dump


@pytest.mark.parametrize("arch", ["baseline", "vt"])
def test_watchdog_quiet_on_clean_runs(arch):
    """A modest progress window must never false-fire on healthy
    workloads, including VT runs with long swap phases."""
    bench = get("stride")
    prep = bench.prepare(0.25)
    cfg = scaled_fermi(num_sms=1, arch=arch, progress_window=500)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)


def test_watchdog_fires_well_before_hard_limit():
    """A frozen warp deadlocks at ~progress_window cycles, not at the
    multi-million-cycle hard budget."""
    from repro.sim.faults import FaultPlan

    bench = get("vecadd")
    prep = bench.prepare(0.25)
    cfg = scaled_fermi(num_sms=1, progress_window=1500)
    plan = FaultPlan(stall_warp=(0, 0, 0), stall_at_cycle=100)
    with pytest.raises(ProgressDeadlock) as excinfo:
        GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params,
                        faults=plan)
    assert "no forward progress" in str(excinfo.value)
    assert excinfo.value.dump is not None


def test_watchdog_disabled_with_zero_window():
    kernel = assemble(SPIN_ASM)
    cfg = scaled_fermi(num_sms=1, progress_window=0)
    with pytest.raises(SimulationTimeout):
        GPU(cfg).launch(kernel, 1, GlobalMemory(1 << 16), max_cycles=1000)


def test_progress_tracker_unit():
    from repro.sim.gpu import ProgressTracker

    tracker = ProgressTracker(window=100)
    tracker.observe(0, issued=1, swap_busy=False, dispatched=False, mem_horizon=0)
    assert not tracker.deadlocked(100)
    assert tracker.deadlocked(101)
    # An in-flight memory response counts as progress until its horizon.
    tracker.observe(101, issued=0, swap_busy=False, dispatched=False, mem_horizon=150)
    tracker.observe(149, issued=0, swap_busy=False, dispatched=False, mem_horizon=0)
    assert tracker.last_progress == 149
    tracker.observe(150, issued=0, swap_busy=False, dispatched=False, mem_horizon=0)
    assert tracker.last_progress == 149
    assert tracker.deadlocked(250)
    # Swap-engine activity is progress too.
    tracker.observe(251, issued=0, swap_busy=True, dispatched=False, mem_horizon=0)
    assert not tracker.deadlocked(300)
