"""SMStats/SimStats aggregation and derived metrics."""

import pytest

from repro.sim.stats import SimStats, SMStats


def make_sim(sm_list):
    stats = SimStats()
    stats.sm_stats = sm_list
    stats.cycles = max((s.cycles for s in sm_list), default=0)
    stats.instructions = sum(s.instructions for s in sm_list)
    return stats


def test_ipc():
    sm = SMStats(cycles=100, instructions=50)
    stats = make_sim([sm])
    assert stats.ipc == 0.5


def test_ipc_zero_cycles():
    assert SimStats().ipc == 0.0


def test_idle_cycles_sum():
    sm = SMStats(idle_cycles_mem=3, idle_cycles_alu=2, idle_cycles_barrier=1,
                 idle_cycles_struct=4, idle_cycles_swap=5, idle_cycles_empty=6)
    assert sm.idle_cycles == 21


def test_idle_breakdown_sums_to_one():
    sm = SMStats(cycles=10, idle_cycles_mem=4, idle_cycles_alu=1)
    stats = make_sim([sm])
    breakdown = stats.idle_breakdown()
    assert breakdown["mem"] == pytest.approx(0.4)
    assert breakdown["busy"] == pytest.approx(0.5)
    assert sum(breakdown.values()) == pytest.approx(1.0)


def test_hit_rates():
    a = SMStats(l1_accesses=10, l1_hits=5)
    b = SMStats(l1_accesses=10, l1_hits=10)
    stats = make_sim([a, b])
    assert stats.l1_hit_rate == 0.75
    stats.l2_accesses = 4
    stats.l2_hits = 1
    assert stats.l2_hit_rate == 0.25


def test_occupancy_averages_use_sample_counts():
    sm = SMStats(occupancy_samples=4, resident_warp_samples=64,
                 schedulable_warp_samples=32, resident_cta_samples=16,
                 active_cta_samples=8)
    stats = make_sim([sm])
    assert stats.avg_resident_warps == 16.0
    assert stats.avg_schedulable_warps == 8.0
    assert stats.avg_resident_ctas == 4.0
    assert stats.avg_active_ctas == 2.0


def test_total_swaps():
    stats = make_sim([SMStats(swaps=3), SMStats(swaps=4)])
    assert stats.total_swaps == 7


def test_instruction_mix_fractions():
    a = SMStats(instructions_by_class={"alu": 6, "fpu": 2})
    b = SMStats(instructions_by_class={"alu": 2})
    stats = make_sim([a, b])
    mix = stats.instruction_mix()
    assert mix == {"alu": 0.8, "fpu": 0.2}
    assert SimStats().instruction_mix() == {}


def test_simd_efficiency():
    sm = SMStats(cycles=10, instructions=4, thread_instructions=64)
    stats = make_sim([sm])
    stats.thread_instructions = 64
    assert stats.simd_efficiency == pytest.approx(0.5)
    assert SimStats().simd_efficiency == 0.0


def test_summary_renders():
    sm = SMStats(cycles=10, instructions=5, occupancy_samples=1,
                 resident_warp_samples=8)
    stats = make_sim([sm])
    text = stats.summary()
    assert "IPC" in text and "cycle breakdown" in text


# ---------------------------------------------------------------------------
# to_dict / from_dict round-trip (the result store depends on this)
# ---------------------------------------------------------------------------

def _populated_sm() -> SMStats:
    return SMStats(
        cycles=1000, instructions=400, thread_instructions=12800,
        instructions_by_class={"alu": 300, "mem_global": 100},
        issue_slots=2000, issued_slots=400,
        idle_cycles_mem=50, idle_cycles_alu=10, idle_cycles_swap=5,
        occupancy_samples=10, resident_warp_samples=480,
        schedulable_warp_samples=300, resident_cta_samples=80,
        active_cta_samples=60, swaps=7, swap_busy_cycles=90,
        l1_accesses=100, l1_hits=60, smem_accesses=3,
        global_transactions=40, ctas_completed=12,
    )


def test_smstats_round_trip():
    sm = _populated_sm()
    clone = SMStats.from_dict(sm.to_dict())
    assert clone == sm


def test_simstats_round_trip_preserves_counters_and_metrics():
    stats = SimStats(cycles=1000, instructions=400, thread_instructions=12800,
                     sm_stats=[_populated_sm(), SMStats(cycles=900)],
                     l2_accesses=80, l2_hits=40, dram_requests=40,
                     ctas_launched=24)
    clone = SimStats.from_dict(stats.to_dict())
    assert clone == stats
    # Derived metrics recompute identically from the restored counters.
    assert clone.ipc == stats.ipc
    assert clone.l1_hit_rate == stats.l1_hit_rate
    assert clone.l2_hit_rate == stats.l2_hit_rate
    assert clone.total_swaps == stats.total_swaps
    assert clone.idle_breakdown() == stats.idle_breakdown()
    assert clone.instruction_mix() == stats.instruction_mix()


def test_simstats_round_trip_is_json_safe():
    import json

    stats = SimStats(cycles=10, sm_stats=[_populated_sm()])
    wire = json.loads(json.dumps(stats.to_dict()))
    assert SimStats.from_dict(wire) == stats


def test_from_dict_ignores_unknown_keys():
    data = SimStats(cycles=5).to_dict()
    data["a_future_counter"] = 123
    data["sm_stats"] = [{"cycles": 3, "another_future_counter": 9}]
    clone = SimStats.from_dict(data)
    assert clone.cycles == 5
    assert clone.sm_stats[0].cycles == 3


def test_real_run_stats_round_trip():
    from repro.analysis.runner import run_benchmark
    from repro.kernels.registry import get
    from repro.sim.config import scaled_fermi

    record = run_benchmark(get("vecadd"), scaled_fermi(num_sms=1), scale=0.25)
    clone = SimStats.from_dict(record.stats.to_dict())
    assert clone == record.stats
