"""Deterministic fault injection and what the robustness machinery does
with each fault class: delayed fills degrade gracefully, dropped fills are
caught (by the sanitizer immediately, by the watchdog eventually), corrupt
swap metadata trips the state machine, and a stalled warp deadlocks."""

import json
import pathlib

import pytest

from repro.kernels import get
from repro.sim.config import scaled_fermi
from repro.sim.faults import NEVER, FaultPlan
from repro.sim.gpu import GPU, ProgressDeadlock, SimulationTimeout
from repro.sim.sanitizer import InvariantViolation


def _launch(bench_name, arch, faults, *, scale=0.25, check=True, **overrides):
    bench = get(bench_name)
    prep = bench.prepare(scale)
    cfg = scaled_fermi(num_sms=1, arch=arch, **overrides)
    gpu = GPU(cfg)
    result = gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params,
                        faults=faults)
    if check:
        prep.check(result)
    return result


def test_fault_plan_is_deterministic():
    plan_a = FaultPlan(seed=7, delay_every=3, delay_jitter=50)
    plan_b = FaultPlan(seed=7, delay_every=3, delay_jitter=50)
    seq_a = [plan_a.filter_fill(0, addr, 10, 100) for addr in range(64)]
    seq_b = [plan_b.filter_fill(0, addr, 10, 100) for addr in range(64)]
    assert seq_a == seq_b
    assert any(c > 100 for c in seq_a), "no delay ever fired"


def test_filter_fill_drop_returns_never():
    plan = FaultPlan(drop_nth=2)
    first = plan.filter_fill(0, 0x100, 5, 50)
    second = plan.filter_fill(0, 0x140, 5, 50)
    assert first == 50
    assert second == NEVER


def test_delayed_fills_complete_correctly():
    """Latency faults slow the run down but must not change results."""
    baseline = _launch("vecadd", "baseline", None)
    delayed = _launch("vecadd", "baseline",
                      FaultPlan(seed=1, delay_every=2, delay_cycles=300))
    assert delayed.stats.cycles > baseline.stats.cycles


def test_dropped_fill_caught_by_sanitizer():
    """With the sanitizer on, a lost memory response is flagged as soon as
    the scoreboard entry exceeds the pending-latency bound."""
    with pytest.raises(InvariantViolation) as excinfo:
        _launch("vecadd", "baseline", FaultPlan(drop_nth=3),
                sanitize=True, max_pending_latency=500)
    assert excinfo.value.invariant in ("scoreboard-liveness", "mshr-liveness")


def test_dropped_fill_caught_by_watchdog():
    """Without the sanitizer, the same fault eventually trips the progress
    watchdog, and the deadlock carries a forensic dump."""
    with pytest.raises(ProgressDeadlock) as excinfo:
        _launch("vecadd", "baseline", FaultPlan(drop_nth=3),
                max_pending_latency=500, progress_window=800)
    exc = excinfo.value
    assert isinstance(exc, SimulationTimeout)
    assert exc.dump is not None
    assert "unfinished warps" in exc.dump
    assert "injected faults" in exc.dump


def test_corrupt_swap_metadata_trips_state_machine():
    with pytest.raises(InvariantViolation) as excinfo:
        _launch("stride", "vt", FaultPlan(corrupt_swap_nth=1),
                scale=0.5, sanitize=True)
    exc = excinfo.value
    assert exc.invariant in ("state-machine", "swap-engine")
    assert exc.sm_id == 0


def test_stalled_warp_deadlocks_with_dump():
    plan = FaultPlan(stall_warp=(0, 0, 0), stall_at_cycle=50)
    with pytest.raises(ProgressDeadlock) as excinfo:
        _launch("vecadd", "baseline", plan, progress_window=2000)
    dump = excinfo.value.dump
    assert dump is not None
    assert "resident CTAs" in dump
    assert "stall-warp" in dump  # injected-faults section names the fault


def test_stall_warp_only_matches_target():
    plan = FaultPlan(stall_warp=(1, 0, 0), stall_at_cycle=0)

    class FakeCTA:
        def __init__(self, cta_id):
            self.cta_id = cta_id

    class FakeWarp:
        def __init__(self, cta_id, local_wid):
            self.cta = FakeCTA(cta_id)
            self.local_wid = local_wid

    assert plan.warp_stalled(1, FakeWarp(0, 0), 10)
    assert not plan.warp_stalled(0, FakeWarp(0, 0), 10)
    assert not plan.warp_stalled(1, FakeWarp(0, 1), 10)
    assert not plan.warp_stalled(1, FakeWarp(2, 0), 10)


def test_faults_recorded_as_events():
    plan = FaultPlan(seed=1, delay_every=1, delay_cycles=100)
    plan.filter_fill(0, 0x80, 42, 142)
    assert plan.events
    event = plan.events[0]
    assert event.kind == "delay-response"
    assert event.cycle == 42
    assert "42" in str(event)


_TIMING = json.loads(
    (pathlib.Path(__file__).resolve().parent / "fixtures" / "fault_timing.json").read_text())


@pytest.mark.parametrize("cell", _TIMING, ids=lambda c: (
    f"{c['benchmark']}-{c['arch']}-{c['scheduler']}-@{c['stall_at_cycle']}"))
def test_fault_event_cycles_are_pinned(cell):
    """Forensic timing: every injected-fault event keeps the cycle it was
    logged at before the schedulers walked ready sets only.  The frozen
    warp's ``stall-warp`` event must appear at the first cycle a scheduler
    walk reaches it at or after ``stall_at_cycle`` — not when it would
    next have become ready — also when delayed fills interleave (each
    interleaving re-logs the freeze)."""
    plan = FaultPlan(seed=1, stall_warp=tuple(cell["stall_warp"]),
                     stall_at_cycle=cell["stall_at_cycle"],
                     delay_every=cell["delay_every"], delay_cycles=150)
    with pytest.raises(ProgressDeadlock) as excinfo:
        _launch(cell["benchmark"], cell["arch"], plan, check=False,
                warp_scheduler=cell["scheduler"], progress_window=2000)
    outcome = f"ProgressDeadlock: {str(excinfo.value).splitlines()[0]}"
    assert outcome == cell["outcome"]
    assert [[e.cycle, e.kind, e.detail] for e in plan.events] == cell["events"]
