"""Sound static cycle bounds: trip resolvers, edge cases, soundness, and
the co-residency composer."""

import pytest

from repro.analysis.runner import run_benchmark
from repro.isa.analysis.bounds import (DATA_TRIP_CAPS, UnboundedLoop,
                                       bench_bounds, gate_configs,
                                       kernel_bounds, trip_bounds)
from repro.isa.analysis.compose import (kernel_footprint, pair_matrix,
                                        pair_verdict)
from repro.isa.analysis.perf import layout_for
from repro.isa.assembler import assemble
from repro.kernels.registry import get
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU
from repro.sim.memory import GlobalMemory


def trips_of(text, param_values=None):
    return trip_bounds(assemble(text), param_values)


def simulate(kernel, params=(), ctas=1, gmem_bytes=65536):
    cfg = scaled_fermi(num_sms=1)
    result = GPU(cfg).launch(kernel, (ctas, 1, 1), GlobalMemory(gmem_bytes),
                             params)
    return cfg, result.stats.cycles


# ---------------------------------------------------------------------------
# trip resolvers
# ---------------------------------------------------------------------------


COUNTED = """
.kernel counted
.regs 8
.cta 32
    MOV r1, #0
loop:
    IADD r1, r1, #1
    SETP.LT r2, r1, #7
@r2 BRA loop
    EXIT
"""

GEOMETRIC = """
.kernel geometric
.regs 8
.cta 32
    MOV r1, #1
loop:
    SHL r1, r1, #1
    SETP.LT r2, r1, #64
@r2 BRA loop
    EXIT
"""


def test_additive_counted_loop_is_exact():
    (bound,) = trips_of(COUNTED).values()
    assert (bound.lo, bound.hi, bound.exact) == (7, 7, True)
    assert bound.source == "additive"


def test_geometric_loop_is_exact():
    (bound,) = trips_of(GEOMETRIC).values()
    assert (bound.lo, bound.hi, bound.exact) == (6, 6, True)
    assert bound.source == "geometric"


def test_unresolvable_loop_raises_not_silently_bounds():
    # Bound loaded from memory, no workload cap declared for this name.
    text = """
.kernel datadep
.regs 8
.cta 32
    MOV r1, #0
    LDG r3, [r1]
loop:
    IADD r1, r1, #1
    SETP.LT r2, r1, r3
@r2 BRA loop
    EXIT
"""
    with pytest.raises(UnboundedLoop):
        trips_of(text)


@pytest.mark.parametrize("bench,expected", [
    ("scan", (7, 7, "geometric")),
    ("reduction", (7, 7, "geometric")),
    ("backprop", (4, 4, "geometric")),
    ("btree", (14, 15, "bracket")),
    ("bfs", (1, 12, "workload-cap")),
    ("spmv", (1, 16, "workload-cap")),
])
def test_registry_trip_bounds(bench, expected):
    b = get(bench)
    layout = layout_for(b)
    trips = trip_bounds(b.kernel, layout.param_values)
    lo, hi, source = expected
    assert any((t.lo, t.hi, t.source) == (lo, hi, source)
               for t in trips.values()), sorted(trips.values(),
                                                key=lambda t: t.pc)


def test_workload_caps_are_documented():
    for name, (lo, hi, why) in DATA_TRIP_CAPS.items():
        assert 1 <= lo <= hi
        assert why  # the justification string is part of the contract


def test_param_bound_loop_resolves_with_launch_values():
    text = """
.kernel parambound
.regs 8
.cta 32
    MOV r1, #0
    S2R r3, %param0
loop:
    IADD r1, r1, #1
    SETP.LT r2, r1, r3
@r2 BRA loop
    EXIT
"""
    (bound,) = trips_of(text, {0: 5}).values()
    assert (bound.lo, bound.hi) == (5, 5)
    with pytest.raises(UnboundedLoop):
        trips_of(text)  # without the launch value the bound is unknown


# ---------------------------------------------------------------------------
# edge cases: zero-trip loops, predicated-off paths, SFU saturation
# ---------------------------------------------------------------------------


GUARDED = """
.kernel guarded
.regs 8
.cta 32
    S2R r0, %tid_x
    SHL r4, r0, #2
    S2R r1, %param0
    SETP.LE r2, r1, #0
@r2 BRA end
    MOV r3, #0
loop:
    LDG r5, [r4]
    IADD r5, r5, #1
    STG [r4], r5
    IADD r3, r3, #1
    SETP.LT r2, r3, r1
@r2 BRA loop
end:
    EXIT
"""


@pytest.mark.parametrize("n", [0, 5])
def test_zero_trip_guarded_loop_soundness(n):
    # The forward guard can skip the loop entirely (n = 0): the loop body
    # must not inflate the lower bound, and both executions must land
    # inside the interval derived with the matching launch value.
    kernel = assemble(GUARDED)
    cfg, cycles = simulate(kernel, params=(float(n),), ctas=2)
    kb = kernel_bounds(kernel, cfg, mode="baseline", ctas=2,
                       param_values={0: n})
    assert kb.contains(cycles), (kb.lo, cycles, kb.hi)
    assert kb.lo >= 1 and kb.hi >= kb.lo


def test_zero_trip_lower_bound_excludes_loop_body():
    kernel = assemble(GUARDED)
    cfg = scaled_fermi(num_sms=1)
    kb0 = kernel_bounds(kernel, cfg, mode="baseline", ctas=1,
                        param_values={0: 0})
    kb9 = kernel_bounds(kernel, cfg, mode="baseline", ctas=1,
                        param_values={0: 9})
    # The guard makes the body avoidable, so lo is identical; the upper
    # bound must still scale with the trip count.
    assert kb0.lo == kb9.lo
    assert kb9.hi > kb0.hi


PREDICATED_OFF = """
.kernel predoff
.regs 8
.cta 32
    S2R r0, %tid_x
    SHL r1, r0, #2
    SETP.LT r2, r0, #0
@r2 LDG r3, [r1]
@r2 STG [r1], r3
    EXIT
"""


def test_predicated_off_path_soundness():
    # A never-taken predicate still occupies issue slots but moves no
    # data; the bounds must cover the execution either way.
    kernel = assemble(PREDICATED_OFF)
    cfg, cycles = simulate(kernel)
    kb = kernel_bounds(kernel, cfg, mode="baseline", ctas=1)
    assert kb.contains(cycles), (kb.lo, cycles, kb.hi)
    # Predicated accesses contribute zero transactions to the floor.
    assert kb.floors["ldst-port"] == 0


SFU_HEAVY = """
.kernel sfuheavy
.regs 8
.cta 256
    S2R r0, %tid_x
    FSQRT r1, r0
    FSQRT r2, r1
    FSQRT r3, r2
    FSQRT r4, r3
    FSQRT r5, r4
    FSQRT r6, r5
    EXIT
"""


def test_sfu_queue_saturation_floor():
    # Six SFU ops per warp across 8 warps serialize on the SFU issue
    # interval: the sfu-port floor must bind the lower bound and the
    # simulated cycle count must respect the interval.
    kernel = assemble(SFU_HEAVY)
    cfg, cycles = simulate(kernel)
    kb = kernel_bounds(kernel, cfg, mode="baseline", ctas=1)
    assert "sfu-port" in kb.floors
    assert kb.floors["sfu-port"] > kb.floors["issue"]
    assert kb.contains(cycles), (kb.lo, cycles, kb.hi)


TINY_BODIES = {
    "exit": [],
    "s2r": ["S2R r0, %tid_x"],
    "s2r-bar": ["S2R r0, %tid_x", "BAR"],
    "s2r-iadd-iadd": ["S2R r0, %tid_x", "IADD r1, r0, #1", "IADD r2, r1, #1"],
}


@pytest.mark.parametrize("barrier_latency", [1, 3])
@pytest.mark.parametrize("mode", ["baseline", "vt"])
@pytest.mark.parametrize("ctas,sms", [(1, 1), (4, 1), (4, 2)])
@pytest.mark.parametrize("body", sorted(TINY_BODIES))
def test_tiny_kernel_bounds_contain_simulation(body, ctas, sms, mode,
                                               barrier_latency):
    # The dependence-chain floor is tight on one CTA: the launch adds
    # cta_launch_latency - 1 before the first issue is counted, and a BAR
    # adds barrier_release_latency - 1 beyond the in-order +1.
    text = ".kernel tiny\n.regs 8\n.cta 32\n" + "".join(
        f"    {line}\n" for line in TINY_BODIES[body]) + "    EXIT\n"
    kernel = assemble(text)
    cfg = scaled_fermi(num_sms=sms, arch=mode,
                       barrier_release_latency=barrier_latency)
    cycles = GPU(cfg).launch(kernel, (ctas, 1, 1),
                             GlobalMemory(4096), ()).stats.cycles
    kb = kernel_bounds(kernel, cfg, mode=mode, ctas=ctas)
    assert kb.lo <= cycles <= kb.hi, (kb.lo, cycles, kb.hi)
    if ctas == 1:
        assert kb.lo == cycles


# ---------------------------------------------------------------------------
# registry soundness spot checks (the full matrix runs in CI: repro bound)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("bench", ["saxpy", "scan", "bfs"])
@pytest.mark.parametrize("mode", ["baseline", "vt"])
def test_registry_bounds_contain_simulation(bench, mode):
    b = get(bench)
    cfg = scaled_fermi(num_sms=2)
    kb = bench_bounds(b, cfg, mode=mode, scale=0.25, arch="fermi-sm2")
    record = run_benchmark(b, cfg.with_(arch=mode), scale=0.25)
    assert kb.contains(record.stats.cycles), \
        (kb.lo, record.stats.cycles, kb.hi)
    assert kb.lo > 1  # never the trivial [<=1, ...] interval
    assert kb.tightness >= 1.0


def test_gate_configs_cover_three_arches():
    configs = gate_configs()
    assert set(configs) == {"fermi-sm2", "kepler-sm2", "fermi-sm1"}
    assert gate_configs(1).keys() == {"fermi-sm1"}


def test_vt_bound_adds_swap_bucket():
    b = get("saxpy")
    cfg = scaled_fermi(num_sms=2)
    base = bench_bounds(b, cfg, mode="baseline", scale=0.25)
    vt = bench_bounds(b, cfg, mode="vt", scale=0.25)
    assert "vt-swap" in vt.buckets and "vt-swap" not in base.buckets
    assert vt.hi > base.hi


def test_bound_to_dict_schema():
    kb = bench_bounds(get("saxpy"), scaled_fermi(num_sms=2),
                      mode="baseline", scale=0.25, arch="fermi-sm2")
    d = kb.to_dict()
    assert set(d) == {"kernel", "arch", "mode", "lo", "hi", "tightness",
                      "ctas", "warps", "floors", "buckets", "trips"}
    assert d["arch"] == "fermi-sm2" and d["lo"] <= d["hi"]


# ---------------------------------------------------------------------------
# co-residency composer
# ---------------------------------------------------------------------------


def test_pair_matrix_is_deterministic():
    benches = [get(n) for n in ("saxpy", "vecadd", "hotspot")]
    cfg = scaled_fermi(num_sms=2)
    first = [v.to_dict() for v in
             pair_matrix(benches, cfg, scale=0.25, arch="fermi-sm2")]
    second = [v.to_dict() for v in
              pair_matrix(benches, cfg, scale=0.25, arch="fermi-sm2")]
    assert first == second
    # Unordered pairs with self-pairs: n * (n + 1) / 2.
    assert len(first) == 6


def test_pair_verdicts_are_sane():
    benches = [get(n) for n in ("saxpy", "vecadd")]
    cfg = scaled_fermi(num_sms=2)
    for v in pair_matrix(benches, cfg, scale=0.25, arch="fermi-sm2"):
        assert v.verdict in ("admit", "degrade", "deny")
        if v.verdict != "deny":
            assert v.ctas_a >= 1 and v.ctas_b >= 1
            for lo, hi in (v.slowdown_a, v.slowdown_b):
                assert lo == 1.0 and hi >= lo


def test_deny_on_synthetic_tiny_sm():
    # A config whose SM cannot host one CTA of each kernel at once must
    # deny, naming the exhausted capacity.
    cfg = scaled_fermi(num_sms=1).with_(max_threads_per_sm=300)
    fa = kernel_footprint(get("mm_tiled"), cfg, scale=0.25, arch="tiny")
    fb = kernel_footprint(get("histogram"), cfg, scale=0.25, arch="tiny")
    assert fa.threads_per_cta + fb.threads_per_cta > 300
    v = pair_verdict(fa, fb, cfg)
    assert v.verdict == "deny"
    assert "thread-slots" in v.reasons
    assert v.ctas_a == 0 and v.ctas_b == 0
    assert v.slowdown_a[1] == float("inf")


def test_footprint_schema_and_bandwidth_class():
    f = kernel_footprint(get("saxpy"), scaled_fermi(num_sms=2),
                         scale=0.25, arch="fermi-sm2")
    d = f.to_dict()
    assert d["bandwidth_class"] in ("dram", "mixed", "compute")
    assert 0.0 <= d["mem_fraction"] <= 1.0
    assert d["bound"]["lo"] <= d["bound"]["hi"]


def test_x6_registered():
    from repro.analysis.experiments import ALL_EXPERIMENTS

    assert "X6" in ALL_EXPERIMENTS


def test_bound_gate_and_x6_report_the_same_cells(capsys, monkeypatch):
    """``repro bound --check`` and X6 share one code path: per cell they
    report the same interval, simulated cycles and soundness."""
    import json

    from repro.analysis import experiments
    from repro.cli import main

    names = ("bfs", "vecadd")
    monkeypatch.setattr(experiments, "all_benchmarks",
                        lambda: [get(name) for name in names])
    _report, data = experiments.x6_bound_table(cfg=scaled_fermi(num_sms=1),
                                               scale=0.25)
    x6 = {(name, mode): (c["bound"].lo, c["bound"].hi, c["sim"], c["sound"])
          for (name, _arch, mode), c in data["cells"].items()}
    bench_of = {get(name).kernel.name: name for name in names}
    gate = {}
    for name in names:
        assert main(["bound", name, "--check", "--sms", "1", "--scale",
                     "0.25", "--format", "json"]) == 0
        for cell in json.loads(capsys.readouterr().out)["cells"]:
            assert {"sim_cycles", "sound", "trivial"} <= set(cell)
            gate[(bench_of[cell["kernel"]], cell["mode"])] = (
                cell["lo"], cell["hi"], cell["sim_cycles"], cell["sound"])
    assert len(x6) == 4
    assert gate == x6
