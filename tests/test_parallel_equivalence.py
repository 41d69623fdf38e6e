"""Differential harness: the sharded parallel engine is stats-exact.

The epoch-synchronized multi-shard engine (``GPUConfig.engine =
"parallel"``) may only change wall-clock time.  For every registered
benchmark, ``SimStats.to_dict()`` and the final memory image must be
byte-identical to the serial engine — across shard counts (1 = in-process
shards, 2 = even fork partition, 3 = uneven partition of 4 SMs), across
scheduler/dispatch/VT-policy variants, and under engine degradation (a
killed worker, a cross-shard conflict).  Watchdog behaviour must also be
preserved: the hard cycle limit and the progress deadline fire at
serial-exact cycles with serial-exact messages.

``parallel._STRICT`` is held on for the whole module: an *unexpected*
engine exception must surface instead of hiding behind the silently
correct serial rerun.  Expected declines (conflict, dead worker,
degenerate epoch) still fall back — that path is itself under test.
"""

import numpy as np
import pytest

from repro.kernels import all_benchmarks, get
from repro.sim import parallel
from repro.sim.config import scaled_fermi
from repro.sim.cta import CTAState
from repro.sim.gpu import GPU, ProgressDeadlock, SimulationTimeout

BENCHES = all_benchmarks()
SCALE = 0.25
NUM_SMS = 4


@pytest.fixture(autouse=True)
def strict_engine():
    parallel._STRICT = True
    try:
        yield
    finally:
        parallel._STRICT = False
        parallel._TEST_KILL.clear()


def run(bench, arch, engine, sim_jobs=1, num_sms=NUM_SMS, **overrides):
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=num_sms, arch=arch, engine=engine,
                       sim_jobs=sim_jobs, **overrides)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    return result


def assert_identical(bench, arch, sim_jobs, **overrides):
    ref = run(bench, arch, "serial", **overrides)
    par = run(bench, arch, "parallel", sim_jobs=sim_jobs, **overrides)
    key = (bench.name, arch, sim_jobs)
    assert par.stats.to_dict() == ref.stats.to_dict(), key
    assert np.array_equal(par.gmem.data, ref.gmem.data), key


@pytest.mark.parametrize("arch", ["baseline", "vt"])
@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_stats_byte_identical(bench, arch):
    assert_identical(bench, arch, sim_jobs=1)


@pytest.mark.parametrize("sim_jobs", [2, 3], ids=["even-fork", "uneven-fork"])
@pytest.mark.parametrize("arch", ["baseline", "vt"])
@pytest.mark.parametrize("bench", BENCHES[:6], ids=lambda b: b.name)
def test_shard_counts_byte_identical(bench, arch, sim_jobs):
    """Forked workers, even (4 SMs / 2 shards) and uneven (4 / 3) splits:
    the ordered merge must erase the partition entirely."""
    assert_identical(bench, arch, sim_jobs)


@pytest.mark.parametrize("scheduler", ["lrr", "two-level"])
def test_scheduler_policies_byte_identical(scheduler):
    assert_identical(get("stride"), "baseline", sim_jobs=2,
                     warp_scheduler=scheduler)


@pytest.mark.parametrize("policy", ["timeout", "majority-stalled"])
def test_vt_trigger_policies_byte_identical(policy):
    assert_identical(get("stride"), "vt", sim_jobs=2,
                     vt_trigger_policy=policy)


def test_fill_first_dispatch_byte_identical():
    assert_identical(get("vecadd"), "baseline", sim_jobs=2,
                     cta_dispatch="fill-first")


def test_reference_engine_byte_identical():
    """The parallel engine composes with the per-cycle reference stepping
    (fast_forward off) too, not just the event-driven cores."""
    assert_identical(get("vecadd"), "baseline", sim_jobs=2,
                     fast_forward=False)


def test_hard_limit_exact():
    """The hard cycle limit fires at the same cycle with the same message:
    an epoch that would cross ``max_cycles`` must be truncated, never
    batched over."""
    bench = get("stride")
    messages = {}
    for engine in ("serial", "parallel"):
        prep = bench.prepare(SCALE)
        cfg = scaled_fermi(num_sms=NUM_SMS, engine=engine, sim_jobs=2)
        with pytest.raises(SimulationTimeout) as excinfo:
            GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem,
                            prep.params, max_cycles=300)
        messages[engine] = str(excinfo.value)
    assert messages["parallel"] == messages["serial"]


def test_progress_deadlock_exact():
    """A pending-latency watchdog tuned below the DRAM round-trip fires the
    deadlock at the identical cycle under both engines."""
    bench = get("stride")
    messages = {}
    for engine in ("serial", "parallel"):
        prep = bench.prepare(SCALE)
        cfg = scaled_fermi(num_sms=NUM_SMS, engine=engine, sim_jobs=2,
                           progress_window=60, max_pending_latency=30)
        with pytest.raises(ProgressDeadlock) as excinfo:
            GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem,
                            prep.params)
        messages[engine] = str(excinfo.value)
    assert messages["parallel"] == messages["serial"]


def test_dead_worker_degrades_to_serial():
    """Killing one forked worker mid-run must degrade to the serial rerun
    with byte-identical stats — the dead shard's partial epoch must leave
    no trace in memory."""
    bench = get("vecadd")
    ref = run(bench, "baseline", "serial")
    parallel._TEST_KILL[0] = 1  # worker 0 hard-exits at its second epoch
    try:
        par = run(bench, "baseline", "parallel", sim_jobs=2)
    finally:
        parallel._TEST_KILL.clear()
    assert par.stats.to_dict() == ref.stats.to_dict()
    assert np.array_equal(par.gmem.data, ref.gmem.data)


def test_conflict_fallback_is_exact():
    """bfs writes lines read by other SMs inside an epoch: the engine must
    decline (restoring pre-launch memory) and the serial rerun must be
    indistinguishable from never having tried."""
    assert_identical(get("bfs"), "baseline", sim_jobs=2)


def test_results_still_correct():
    """End to end: the benchmark's own numerical check passes on the
    parallel engine (functional behaviour untouched, not just stats)."""
    bench = get("chase")
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=NUM_SMS, engine="parallel", sim_jobs=3)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)


def test_epoch_patch_leaves_no_sentinel_heap_entries(monkeypatch):
    """Deferred loads park warps and queue L1 fills at sentinel cycles that
    never come due; after every epoch patch neither the SM's wake heap nor
    the L1 fill heap may keep such an entry, so both stay bounded by the
    resident warps and outstanding fills instead of growing with the grid."""
    seen = {"patches": 0, "sentinel_parks": 0, "wake_max": 0}
    patch_core = parallel._Shard._patch_core
    park = parallel.SMCore._park

    def counting_park(self, warp, until):
        if until >= parallel.SENTINEL_BASE:
            seen["sentinel_parks"] += 1
        park(self, warp, until)

    def checked_patch(self, core, actuals):
        patch_core(self, core, actuals)
        sm = core.sm
        seen["patches"] += 1
        assert all(cycle < parallel.SENTINEL_BASE for cycle, *_ in sm._wake)
        assert all(cycle < parallel.SENTINEL_BASE for cycle, _ in sm.l1._fills)
        assert len(sm.l1._fills) == len(sm.l1.pending)
        seen["wake_max"] = max(seen["wake_max"], len(sm._wake))

    monkeypatch.setattr(parallel.SMCore, "_park", counting_park)
    monkeypatch.setattr(parallel._Shard, "_patch_core", checked_patch)
    bench = get("chase")
    prep = bench.prepare(SCALE)
    cfg = scaled_fermi(num_sms=NUM_SMS, engine="parallel", sim_jobs=1)
    GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    assert seen["patches"] > 10 and seen["sentinel_parks"] > 0
    assert seen["wake_max"] <= cfg.max_warps_per_sm


def test_cta_swapped_out_inside_tainted_epoch(monkeypatch):
    """A VT CTA that goes INACTIVE while its loads' completions are still
    deferred can memoise its activation cycle from sentinel values; the
    epoch patch must drop that memo so the exact values decide when the
    CTA is ready again, and the run must stay byte-identical to serial."""
    seen = {"memoised": 0}
    patch_core = parallel._Shard._patch_core

    def checked_patch(self, core, actuals):
        swapped = {
            warp.cta for warp, _dst, _cycle, completions in core.defer.groups
            if warp.cta.state is CTAState.INACTIVE
            and any(c >= parallel.SENTINEL_BASE for c in completions)}
        seen["memoised"] += sum(cta.activation_at is not None for cta in swapped)
        patch_core(self, core, actuals)
        for cta in swapped:
            assert cta.activation_at is None, cta

    monkeypatch.setattr(parallel._Shard, "_patch_core", checked_patch)
    bench = get("hotspot")
    results = {}
    for engine in ("serial", "parallel"):
        prep = bench.prepare(0.5)
        cfg = scaled_fermi(num_sms=2, arch="vt", engine=engine, sim_jobs=1)
        results[engine] = GPU(cfg).launch(bench.kernel, prep.grid_dim,
                                          prep.gmem, prep.params)
    assert seen["memoised"] > 0, "no CTA went INACTIVE inside a tainted epoch"
    assert (results["parallel"].stats.to_dict()
            == results["serial"].stats.to_dict())
    assert np.array_equal(results["parallel"].gmem.data,
                          results["serial"].gmem.data)
