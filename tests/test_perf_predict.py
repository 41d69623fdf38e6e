"""The static performance oracle: limiter/idle-class/VT-tier predictions
and the agreement-gate helpers it shares with ``repro predict --check``."""

import copy

import pytest

from repro.core.occupancy import limiter_summary
from repro.isa.analysis import (layout_for, perf, predict, predict_kernel,
                                warp_profile)
from repro.isa.analysis.bounds import UnboundedLoop, trip_bounds
from repro.isa.analysis.perf import (AGREEMENT_TIE, DEFAULT_TRIPS,
                                     IDLE_CLASSES, TIER_HIGH, TIER_MODERATE,
                                     idle_agreement, measured_idle_class,
                                     measured_vt_tier)
from repro.isa.assembler import assemble
from repro.kernels.registry import all_benchmarks, get
from repro.sim.config import GPUConfig, scaled_fermi

BENCHES = all_benchmarks()


def predictions_for(name):
    bench = get(name)
    return {p.arch: p
            for p in predict_kernel(bench.kernel, layout=layout_for(bench))}


# -- structural contract ------------------------------------------------------


@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_prediction_shape_and_limiter_single_source(bench):
    cfg = GPUConfig()
    summary = limiter_summary(bench.kernel, cfg)
    for p in predict_kernel(bench.kernel, cfg, layout=layout_for(bench)):
        # The limiter column must come from core/occupancy verbatim —
        # the oracle never re-derives scheduling-vs-capacity itself.
        assert p.limiter == summary["limiter"]
        assert p.idle_class in IDLE_CLASSES
        assert p.vt_tier in ("high", "moderate", "neutral")
        assert 0.0 < p.busy <= 1.0
        assert p.binding
        assert p.warps >= 1 and p.active_warps >= 1
        if p.arch == "vt":
            assert p.warps >= p.active_warps


@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_profile_is_internally_consistent(bench):
    profile = warp_profile(bench.kernel, GPUConfig(), layout_for(bench))
    assert profile.instructions > 0
    assert profile.chain_cycles >= profile.instructions
    assert sum(n for n, *_ in profile.phases) == profile.instructions
    if profile.inflight:
        assert profile.cold_lat > 0


def test_to_dict_is_json_ready():
    payload = predictions_for("vecadd")["baseline"].to_dict()
    assert payload["kernel"] == "vecadd"
    assert set(payload) == {"kernel", "arch", "limiter", "idle_class",
                            "vt_tier", "warps", "active_warps", "busy",
                            "binding", "bounds"}
    assert all(isinstance(v, (int, float)) for v in payload["bounds"].values())


# -- calibration snapshots ----------------------------------------------------
# A few hand-verified predictions that lock the model's calibration; each
# traces to a simulator mechanism (see docs/ARCHITECTURE.md).


def test_vecadd_baseline_exposed_latency_vt_mshr_convoy():
    preds = predictions_for("vecadd")
    assert preds["baseline"].idle_class == "mem"
    assert preds["baseline"].vt_tier == "high"
    # Under VT the extra CTAs saturate the 64-entry MSHR file: the
    # streaming kernel's bottleneck flips from latency to a structural one.
    assert preds["vt"].idle_class == "struct"
    assert preds["vt"].binding == "mshr-convoy"


def test_btree_is_ldst_port_bound_on_both_arches():
    preds = predictions_for("btree")
    for p in preds.values():
        assert p.idle_class == "struct"
        assert p.binding == "port:ldst"


def test_mriq_is_sfu_port_bound():
    preds = predictions_for("mriq")
    for p in preds.values():
        assert p.idle_class == "struct"
        assert p.binding == "port:sfu"


def test_bfs_is_dependence_residual_alu():
    preds = predictions_for("bfs")
    for p in preds.values():
        assert p.idle_class == "alu"
        assert p.binding == "dependence-residual"


def test_regheavy_capacity_limited_gets_no_vt_credit():
    preds = predictions_for("regheavy")
    assert preds["baseline"].limiter == "capacity"
    for p in preds.values():
        assert p.vt_tier == "neutral"


def test_prediction_without_layout_still_classifies():
    # No launch layout: every global access assumed to miss, symbolic
    # trip counts fall back to defaults — the oracle must still produce
    # a well-formed prediction (lint uses this path).
    p = predict(get("saxpy").kernel)
    assert p.idle_class in IDLE_CLASSES


# -- loop trip counts ---------------------------------------------------------
# The oracle takes its trip counts from the bound analyzer's resolvers.


def oracle_trips(monkeypatch, kernel, layout=None) -> dict[int, int]:
    """The ``back-edge pc -> trips`` map :func:`warp_profile` expands
    (on a fresh copy: the kernel's own profile may already be cached)."""
    seen = {}
    real = perf._linear_trace

    def spy(kernel, trips):
        seen.update(trips)
        return real(kernel, trips)

    monkeypatch.setattr(perf, "_linear_trace", spy)
    warp_profile(copy.deepcopy(kernel), GPUConfig(), layout)
    return seen


@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_oracle_trips_are_the_bound_analyzers_hi(monkeypatch, bench):
    layout = layout_for(bench)
    bounds = trip_bounds(bench.kernel, layout.param_values)
    assert oracle_trips(monkeypatch, bench.kernel, layout) == {
        pc: bound.hi for pc, bound in bounds.items()}


MIXED_LOOPS = """
.kernel mixedloops
.regs 8
.cta 32
    MOV r1, #0
    LDG r3, [r1]
count:
    IADD r1, r1, #1
    SETP.LT r2, r1, #5
@r2 BRA count
    MOV r4, #0
walk:
    IADD r4, r4, #1
    SETP.LT r5, r4, r3
@r5 BRA walk
    EXIT
"""


def test_unbounded_loop_falls_back_per_loop(monkeypatch):
    kernel = assemble(MIXED_LOOPS)
    with pytest.raises(UnboundedLoop):  # the sound analyzer refuses ...
        trip_bounds(kernel)
    # ... while the oracle keeps the counted loop exact and guesses only
    # the loop bounded by a loaded value.
    assert oracle_trips(monkeypatch, kernel) == {4: 5, 8: DEFAULT_TRIPS}
    profile = warp_profile(kernel, GPUConfig())
    assert profile.instructions == 2 + 3 * 5 + 1 + 3 * DEFAULT_TRIPS + 1


#: (limiter, idle class, VT tier, binding rule) per kernel x arch at the
#: ``repro predict`` defaults (``scaled_fermi(num_sms=2)``, scale 1.0).
#: A change to the loop model may move ``busy`` and ``bounds``; a class
#: change must be measured against the simulator (``predict --check``)
#: before this table is re-recorded.
SNAPSHOT = """
bfs            baseline  scheduling  alu     neutral   dependence-residual
bfs            vt        scheduling  alu     neutral   dependence-residual
btree          baseline  scheduling  struct  neutral   port:ldst
btree          vt        scheduling  struct  neutral   port:ldst
stride         baseline  scheduling  mem     high      exposed-latency
stride         vt        scheduling  mem     high      cold-convoy
chase          baseline  scheduling  mem     high      exposed-latency
chase          vt        scheduling  mem     high      cold-convoy
hotspot        baseline  scheduling  mem     moderate  cold-start
hotspot        vt        scheduling  mem     moderate  cold-start
kmeans         baseline  scheduling  mem     high      exposed-latency
kmeans         vt        scheduling  mem     high      cold-convoy
spmv           baseline  scheduling  struct  neutral   port:ldst
spmv           vt        scheduling  struct  neutral   port:ldst
srad           baseline  scheduling  alu     neutral   dependence-residual
srad           vt        scheduling  struct  neutral   sfu-queue
streamcluster  baseline  scheduling  mem     high      exposed-latency
streamcluster  vt        scheduling  mem     high      cold-convoy
pathfinder     baseline  scheduling  mem     moderate  exposed-latency
pathfinder     vt        scheduling  alu     moderate  dependence-residual
scan           baseline  scheduling  mem     moderate  exposed-latency
scan           vt        scheduling  mem     moderate  cold-convoy
reduction      baseline  scheduling  mem     moderate  exposed-latency
reduction      vt        scheduling  struct  moderate  mshr-convoy
backprop       baseline  balanced    struct  neutral   aligned-burst
backprop       vt        balanced    struct  neutral   aligned-burst
histogram      baseline  scheduling  mem     high      exposed-latency
histogram      vt        scheduling  alu     high      dependence-residual
saxpy          baseline  scheduling  mem     high      exposed-latency
saxpy          vt        scheduling  struct  high      mshr-convoy
vecadd         baseline  scheduling  mem     high      exposed-latency
vecadd         vt        scheduling  struct  high      mshr-convoy
nn             baseline  scheduling  mem     high      exposed-latency
nn             vt        scheduling  struct  high      sfu-queue
transpose      baseline  scheduling  mem     moderate  exposed-latency
transpose      vt        scheduling  mem     moderate  cold-convoy
mm_tiled       baseline  capacity    alu     neutral   dependence-residual
mm_tiled       vt        capacity    alu     neutral   dependence-residual
mriq           baseline  scheduling  struct  neutral   port:sfu
mriq           vt        scheduling  struct  neutral   port:sfu
nw             baseline  capacity    mem     neutral   exposed-latency
nw             vt        capacity    mem     neutral   exposed-latency
regheavy       baseline  capacity    mem     neutral   exposed-latency
regheavy       vt        capacity    mem     neutral   exposed-latency
"""


def test_predictions_match_snapshot():
    cfg = scaled_fermi(num_sms=2)
    expected = {(kernel, arch): tuple(rest) for kernel, arch, *rest
                in map(str.split, SNAPSHOT.strip().splitlines())}
    got = {}
    for bench in BENCHES:
        for p in predict_kernel(bench.kernel, cfg, layout=layout_for(bench)):
            got[p.kernel, p.arch] = (p.limiter, p.idle_class, p.vt_tier,
                                     p.binding)
    assert got == expected


# -- agreement-gate helpers ---------------------------------------------------


def test_measured_idle_class_ignores_barrier_idle():
    breakdown = {"mem": 0.2, "alu": 0.1, "struct": 0.15, "barrier": 0.5}
    assert measured_idle_class(breakdown) == "mem"


def test_idle_agreement_exact_match():
    ok, dom, ratio = idle_agreement("mem", {"mem": 0.4, "alu": 0.1})
    assert ok and dom == "mem" and ratio == 1.0


def test_idle_agreement_tie_tolerance():
    # Predicted class at >= tau of the dominant fraction still agrees.
    near = {"alu": 0.30, "mem": 0.30 * AGREEMENT_TIE + 1e-9, "struct": 0.0}
    ok, dom, ratio = idle_agreement("mem", near)
    assert ok and dom == "alu" and ratio >= AGREEMENT_TIE

    far = {"alu": 0.30, "mem": 0.30 * AGREEMENT_TIE - 0.05, "struct": 0.0}
    ok, _, _ = idle_agreement("mem", far)
    assert not ok


def test_measured_vt_tier_cut_points():
    assert measured_vt_tier(1000, int(1000 / TIER_HIGH) - 1) == "high"
    assert measured_vt_tier(1000, int(1000 / TIER_MODERATE) - 1) == "moderate"
    assert measured_vt_tier(1000, 1000) == "neutral"
    assert measured_vt_tier(1000, 1200) == "neutral"  # VT slowdown
