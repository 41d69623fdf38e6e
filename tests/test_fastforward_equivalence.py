"""Differential harness: the fast-forward engine is stats-exact.

The event-driven engine (``GPUConfig.fast_forward``) may only change
wall-clock time.  For every registered benchmark and every architecture,
``SimStats.to_dict()`` — cycle counts, the full idle-cycle breakdown,
occupancy samples, swap accounting, cache counters — must be *identical*
to the per-cycle reference engine, and the final memory image must match
bit-for-bit.  Watchdog behaviour must also be preserved: the hard cycle
limit and the progress deadline fire at reference-exact cycles instead of
being jumped over.
"""

import numpy as np
import pytest

from repro.kernels import all_benchmarks, get
from repro.sim.config import ArchMode, scaled_fermi
from repro.sim.gpu import GPU, ProgressDeadlock, ProgressTracker, SimulationTimeout

BENCHES = all_benchmarks()
SCALE = 0.25


def run(bench, arch, fast_forward, num_sms=1, **overrides):
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=num_sms, arch=arch, fast_forward=fast_forward,
                       **overrides)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    return result


@pytest.mark.parametrize("arch", ArchMode.ALL)
@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_stats_byte_identical(bench, arch):
    ref = run(bench, arch, fast_forward=False)
    fast = run(bench, arch, fast_forward=True)
    assert fast.stats.to_dict() == ref.stats.to_dict(), (bench.name, arch)
    assert np.array_equal(fast.gmem.data, ref.gmem.data), (bench.name, arch)


@pytest.mark.parametrize("arch", ArchMode.ALL)
@pytest.mark.parametrize("bench", BENCHES[:6], ids=lambda b: b.name)
def test_stats_byte_identical_multi_sm(bench, arch):
    """Two SMs exercise the round-robin dispatch/rr-offset interplay: the
    skipped-span rotation credit must leave CTA placement unchanged."""
    ref = run(bench, arch, fast_forward=False, num_sms=2)
    fast = run(bench, arch, fast_forward=True, num_sms=2)
    assert fast.stats.to_dict() == ref.stats.to_dict(), (bench.name, arch)


@pytest.mark.parametrize("policy", ["timeout", "majority-stalled"])
def test_vt_trigger_policies_byte_identical(policy):
    """The timeout trigger fires on a deadline with no status change — the
    manager horizon must surface it as an event."""
    bench = get("stride")
    ref = run(bench, "vt", fast_forward=False, vt_trigger_policy=policy)
    fast = run(bench, "vt", fast_forward=True, vt_trigger_policy=policy)
    assert fast.stats.to_dict() == ref.stats.to_dict(), policy


@pytest.mark.parametrize("scheduler", ["lrr", "two-level"])
def test_scheduler_policies_byte_identical(scheduler):
    bench = get("stride")
    ref = run(bench, "baseline", fast_forward=False, warp_scheduler=scheduler)
    fast = run(bench, "baseline", fast_forward=True, warp_scheduler=scheduler)
    assert fast.stats.to_dict() == ref.stats.to_dict(), scheduler


def test_fill_first_dispatch_byte_identical():
    bench = get("vecadd")
    ref = run(bench, "baseline", fast_forward=False, num_sms=2,
              cta_dispatch="fill-first")
    fast = run(bench, "baseline", fast_forward=True, num_sms=2,
               cta_dispatch="fill-first")
    assert fast.stats.to_dict() == ref.stats.to_dict()


@pytest.mark.parametrize("fast_forward", [False, True])
def test_hard_limit_not_jumped(fast_forward):
    """A span that would cross ``max_cycles`` must be truncated so the
    timeout fires instead of being skipped over."""
    bench = get("stride")
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=1, fast_forward=fast_forward)
    with pytest.raises(SimulationTimeout):
        GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params,
                        max_cycles=300)


def test_small_progress_window_identical():
    """With a window just above the longest real stall, the watchdog stays
    quiet under both engines and stats still match (the span observer must
    advance ``last_progress`` exactly like per-cycle observation)."""
    bench = get("stride")
    ref = run(bench, "baseline", fast_forward=False, progress_window=2000)
    fast = run(bench, "baseline", fast_forward=True, progress_window=2000)
    assert fast.stats.to_dict() == ref.stats.to_dict()


def test_observe_span_matches_observe_sequence():
    """ProgressTracker.observe_span must be indistinguishable from the
    equivalent run of dead-cycle observe() calls."""
    per_cycle = ProgressTracker(window=100)
    spanned = ProgressTracker(window=100)
    for t in (0, 1, 2):
        per_cycle.observe(t, issued=1, swap_busy=False, dispatched=False,
                          mem_horizon=40)
        spanned.observe(t, issued=1, swap_busy=False, dispatched=False,
                        mem_horizon=40)
    # Dead cycles 3..30: the horizon (40) counts as progress up to 39.
    for t in range(3, 30):
        per_cycle.observe(t, issued=0, swap_busy=False, dispatched=False,
                          mem_horizon=40)
    spanned.observe_span(3, 30, swap_busy=False)
    assert spanned.last_progress == per_cycle.last_progress
    assert spanned.stall_deadline() == per_cycle.stall_deadline()
    # A swap-busy span counts every cycle as progress.
    for t in range(30, 35):
        per_cycle.observe(t, issued=0, swap_busy=True, dispatched=False,
                          mem_horizon=0)
    spanned.observe_span(30, 35, swap_busy=True)
    assert spanned.last_progress == per_cycle.last_progress


def test_sanitize_pins_reference_path():
    """A sanitized run with fast_forward on must still match the reference
    engine's stats: the sanitizer observes the run without changing it."""
    bench = get("vecadd")
    ref = run(bench, "vt", fast_forward=False)
    sanitized = run(bench, "vt", fast_forward=True, sanitize=True)
    assert sanitized.stats.to_dict() == ref.stats.to_dict()


def test_sanitized_run_fast_forwards(monkeypatch):
    """cfg.sanitize no longer pins the per-cycle engine: a sanitized run
    on the default engine still skips dead spans, and its stats match the
    unsanitized reference engine's."""
    from repro.sim.smcore import SMCore

    bench = get("stride")
    ref = run(bench, "vt", fast_forward=False)
    spans = []
    original = SMCore.fast_forward

    def spying(self, start, stop):
        spans.append((start, stop))
        original(self, start, stop)

    monkeypatch.setattr(SMCore, "fast_forward", spying)
    sanitized = run(bench, "vt", fast_forward=True, sanitize=True)
    assert spans, "the sanitized run never fast-forwarded"
    assert sanitized.stats.to_dict() == ref.stats.to_dict()


def test_results_still_correct_under_fast_forward():
    """End to end: the benchmark's own numerical check passes on the fast
    engine (functional behaviour untouched, not just stats)."""
    bench = get("stride")
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=2, arch="vt", fast_forward=True)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)


# -- wide chips: the wake queue ------------------------------------------------
#
# On two SMs every live SM is due almost every cycle, so the cases below
# use wider chips, where SMs sleep while others issue: CTAs are seated on
# sleeping SMs, swaps drain on SMs that are not stepped, and a watchdog
# can fire while most SMs still owe lag credit.

# scripts/bench_simspeed.py's chase chip: one slow DRAM channel.
SLOW_DRAM = {"dram_latency": 800, "dram_channels": 1,
             "dram_service_cycles": 40, "lat_alu": 1}


def run_prepared(bench, scale, fast_forward, num_sms, max_cycles=None,
                 **overrides):
    prep = bench.prepare(scale)
    cfg = scaled_fermi(num_sms=num_sms, fast_forward=fast_forward,
                       **overrides)
    return GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem,
                           prep.params, max_cycles=max_cycles)


def assert_engines_identical(bench, scale, num_sms, **overrides):
    ref = run_prepared(bench, scale, False, num_sms, **overrides)
    fast = run_prepared(bench, scale, True, num_sms, **overrides)
    assert fast.stats.to_dict() == ref.stats.to_dict()
    assert np.array_equal(fast.gmem.data, ref.gmem.data)


@pytest.fixture
def wake_events(monkeypatch):
    """Counts the wake-queue situations a run went through: a CTA seated
    on a sleeping SM (lag credited up to the seat cycle just before the
    assign), and lag credited while a swap was in flight."""
    from repro.sim.smcore import SMCore

    counts = {"seat_sleeping": 0, "swap_lag": 0}
    assign, fast_forward = SMCore.assign_cta, SMCore.fast_forward

    def counting_fast_forward(sm, start, stop):
        sm.lag_credited_to = stop
        if sm.manager.swap_in_flight():
            counts["swap_lag"] += 1
        fast_forward(sm, start, stop)

    def counting_assign(sm, cta, now):
        if getattr(sm, "lag_credited_to", None) == now:
            counts["seat_sleeping"] += 1
        assign(sm, cta, now)

    monkeypatch.setattr(SMCore, "fast_forward", counting_fast_forward)
    monkeypatch.setattr(SMCore, "assign_cta", counting_assign)
    return counts


@pytest.fixture
def watchdog_log(monkeypatch):
    """Records what the launch loop tells the progress watchdog: per
    observed cycle, ``(issued, swap busy, dispatched, horizon)``; a
    bulk-observed span is expanded to its cycles (nothing issues or
    dispatches in it)."""
    log = []

    def observe(self, now, issued, swap_busy, dispatched, mem_horizon):
        observe_cycle(self, now, issued, swap_busy, dispatched, mem_horizon)
        log[-1][now] = (bool(issued), swap_busy, dispatched, self.horizon)

    def observe_span(self, start, stop, swap_busy):
        observe_range(self, start, stop, swap_busy)
        for t in range(start, stop):
            log[-1][t] = (False, swap_busy, False, self.horizon)

    observe_cycle = ProgressTracker.observe
    observe_range = ProgressTracker.observe_span
    monkeypatch.setattr(ProgressTracker, "observe", observe)
    monkeypatch.setattr(ProgressTracker, "observe_span", observe_span)
    return log


@pytest.mark.parametrize("arch", ["baseline", "vt"])
def test_chase_slow_dram_16_sms_byte_identical(arch):
    """The queue-staggered chase chip: some SM issues almost every cycle
    while most sleep on the single DRAM channel."""
    assert_engines_identical(get("chase"), 16 / 32, 16, arch=arch,
                             **SLOW_DRAM)


@pytest.mark.parametrize("name, scale, num_sms",
                         [("srad", 2.0, 8), ("stride", 2.0, 4)])
def test_vt_swaps_on_sleeping_sms_byte_identical(name, scale, num_sms,
                                                  wake_events, watchdog_log):
    """Several CTAs per SM under VT: swap phases drain on SMs the queue is
    not stepping.  The watchdog inputs the loop keeps incrementally (the
    swap-in-flight count, the memory horizon) must equal the reference
    engine's per-cycle values on every cycle."""
    bench = get(name)
    results = []
    for fast_forward in (False, True):
        watchdog_log.append({})
        results.append(run_prepared(bench, scale, fast_forward, num_sms,
                                    arch="vt"))
    ref, fast = results
    assert fast.stats.to_dict() == ref.stats.to_dict()
    assert np.array_equal(fast.gmem.data, ref.gmem.data)
    assert watchdog_log[1] == watchdog_log[0]
    assert any(swap for _, swap, _, _ in watchdog_log[0].values())
    assert wake_events["swap_lag"] > 0


def test_fill_first_dispatch_8_sms_byte_identical():
    """Fill-first on a wide VT chip: several CTAs per SM, swaps."""
    assert_engines_identical(get("srad"), 2.0, 8, arch="vt",
                             cta_dispatch="fill-first")


# Every third CTA chases a pointer through eight slow loads; the others
# exit at once.  Round-robin dispatch never seats a CTA on a sleeping SM
# (an SM can only start accepting in a step, and round-robin serves every
# accepting SM the next cycle).  Fill-first serves one SM per cycle, so
# here early exits on low SMs delay the fill of higher SMs that already
# sleep on their first CTA's start latency or loads.
SLEEP_SEAT_ASM = """
.kernel sleepseat
.regs 6
.cta 32
    S2R   r0, %ctaid_x
    IREM  r1, r0, #3
    SETP.NE r2, r1, #0
@r2 BRA   done
    S2R   r3, %param0
    MOV   r4, #0
loop:
    LDG   r3, [r3]
    IADD  r4, r4, #1
    SETP.LT r5, r4, #8
@r5 BRA   loop
done:
    EXIT
"""


def test_fill_first_seats_on_sleeping_sms_byte_identical(wake_events):
    """A CTA seated on a sleeping SM: the SM's skipped span is credited
    against its pre-assign state, then it steps at the seat cycle."""
    from repro.isa.assembler import assemble
    from repro.sim.memory import GlobalMemory

    kernel = assemble(SLEEP_SEAT_ASM)
    results = []
    for fast_forward in (False, True):
        gmem = GlobalMemory(1 << 16)
        gmem.alloc("x", 32)
        base = gmem.base("x")
        gmem.write("x", np.full(32, float(base)))  # a self-loop chain
        cfg = scaled_fermi(num_sms=8, arch="baseline",
                           fast_forward=fast_forward,
                           cta_dispatch="fill-first", max_ctas_per_sm=4,
                           **SLOW_DRAM)
        results.append(GPU(cfg).launch(kernel, 48, gmem, (base,)))
    ref, fast = results
    assert fast.stats.to_dict() == ref.stats.to_dict()
    assert wake_events["seat_sleeping"] > 0


def _raised(bench, scale, fast_forward, exc_type, **kwargs):
    with pytest.raises(exc_type) as excinfo:
        run_prepared(bench, scale, fast_forward, 8, **kwargs)
    return excinfo.value


@pytest.mark.parametrize("exc_type, kwargs", [
    # Memory responses stop counting as progress after 30 cycles, far
    # inside the DRAM round trip, so the deadlock watchdog fires while
    # SMs sleep on their loads.
    (ProgressDeadlock, {"progress_window": 60, "max_pending_latency": 30}),
    (SimulationTimeout, {"max_cycles": 2500}),
], ids=["deadlock", "timeout"])
def test_watchdogs_exact_with_lagging_sms(exc_type, kwargs):
    """Both watchdogs fire at the reference cycle, with the reference
    message and the reference forensic dump (lag is credited first)."""
    bench = get("chase")
    ref = _raised(bench, 8 / 32, False, exc_type, **SLOW_DRAM, **kwargs)
    fast = _raised(bench, 8 / 32, True, exc_type, **SLOW_DRAM, **kwargs)
    assert type(fast) is type(ref)
    assert str(fast) == str(ref)
    assert fast.dump == ref.dump


def test_memory_in_flight_keeps_watchdog_quiet_8_sms():
    """A progress window far shorter than the 800-cycle DRAM latency: the
    running memory horizon must count every SM's in-flight loads as
    progress, so neither engine fires and their stats still match."""
    assert_engines_identical(get("chase"), 8 / 32, 8, progress_window=200,
                             **SLOW_DRAM)
