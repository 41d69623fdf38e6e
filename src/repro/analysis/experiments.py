"""Paper-artifact experiments E1..E12.

One function per table/figure of the evaluation (see DESIGN.md for the
mapping).  Each returns ``(report, data)``: an aligned-text report that
mirrors the paper's rows/series, plus the raw numbers so tests and the
benchmark harness can assert the reproduction's shape claims.

All experiments default to the 2-SM scaled Fermi configuration; ``scale``
shrinks or grows every workload's grid for quick runs.

Every experiment that simulates enumerates its runs up front and collects
them through :func:`_run_cells`, so the same experiment can execute
serially in-process (the default) or through the subprocess sweep
orchestrator (``jobs``/``directory``; see
:mod:`repro.analysis.orchestrator`) with per-cell isolation, wall-clock
deadlines, retries, and resume from a result-store directory.
"""

from __future__ import annotations

from repro.analysis.geomean import geomean, speedup_summary
from repro.analysis.runner import run_benchmark, run_matrix
from repro.analysis.tables import ascii_bars, format_table
from repro.core.occupancy import occupancy
from repro.core.overhead import vt_overhead
from repro.kernels.registry import all_benchmarks, get
from repro.sim.config import ArchMode, GPUConfig, scaled_fermi

#: Benchmarks used for parameter sweeps: the scheduling-limited,
#: memory-sensitive subset where VT is active (sweeping the full suite
#: would mostly re-measure flat lines).
SWEEP_SUBSET = ("stride", "streamcluster", "hotspot", "pathfinder", "kmeans")

ARCHS = (ArchMode.BASELINE, ArchMode.VT, ArchMode.IDEAL_SCHED)


def default_config(**overrides) -> GPUConfig:
    return scaled_fermi(num_sms=2, **overrides)


def _run_cells(runs, *, jobs=None, directory=None):
    """Collect one experiment's simulation runs.

    ``runs`` maps an arbitrary hashable key to ``(bench, cfg, scale)``.
    Serially (``jobs``/``directory`` unset) each run executes in-process
    via :func:`run_benchmark`, raising on the first failure — the
    historical strict behaviour.  With either set the whole set goes
    through the subprocess orchestrator: isolated workers, wall-clock
    deadlines, per-status retries, and — with ``directory`` — the result
    store, so re-generating a paper artifact into the same directory
    re-reads previously simulated cells instead of re-running them.  A
    cell that still fails terminally raises when the experiment reads its
    ``.cycles``, so a half-broken sweep cannot silently produce a table
    built on missing numbers.
    """
    if jobs is None and directory is None:
        return {key: run_benchmark(bench, cfg, scale)
                for key, (bench, cfg, scale) in runs.items()}
    from repro.analysis.orchestrator import SweepCell, run_sweep

    cells = [SweepCell(bench.name, cfg, scale, key=key)
             for key, (bench, cfg, scale) in runs.items()]
    return run_sweep(cells, jobs=jobs or 1, directory=directory).records


def _cycles_cell(record) -> str | int:
    """A cycles table cell; ``NNN*`` marks a run that needed a retry."""
    if not record.ok:
        return record.failure
    return f"{record.cycles}*" if record.retried else record.cycles


# ---------------------------------------------------------------------------
# E1 — methodology table: simulated configuration
# ---------------------------------------------------------------------------

def e1_config_table(cfg: GPUConfig | None = None):
    """Table 1: the simulated GPU configuration."""
    cfg = cfg or default_config()
    rows = [
        ("SMs simulated", f"{cfg.num_sms} (per-SM parameters are GTX480-class)"),
        ("warp size", cfg.warp_size),
        ("warp slots / SM (scheduling limit)", cfg.max_warps_per_sm),
        ("CTA slots / SM (scheduling limit)", cfg.max_ctas_per_sm),
        ("thread slots / SM", cfg.max_threads_per_sm),
        ("register file / SM (capacity limit)", f"{cfg.registers_per_sm} regs (128 KiB)"),
        ("shared memory / SM (capacity limit)", f"{cfg.smem_per_sm // 1024} KiB"),
        ("warp schedulers / SM", f"{cfg.num_warp_schedulers} x {cfg.warp_scheduler.upper()}"),
        ("L1D / SM", f"{cfg.l1_size // 1024} KiB, {cfg.l1_assoc}-way, {cfg.l1_mshrs} MSHRs"),
        ("shared L2", f"{cfg.l2_size // 1024} KiB, {cfg.l2_assoc}-way"),
        ("DRAM", f"{cfg.dram_channels} channels, {cfg.dram_latency}-cycle latency"),
        ("VT resident-CTA cap", f"{cfg.vt_max_resident_multiplier:g}x active limit"),
        ("VT swap cost", f"save {cfg.vt_swap_out_base}+{cfg.vt_swap_out_per_warp}/warp, "
                         f"restore {cfg.vt_swap_in_base}+{cfg.vt_swap_in_per_warp}/warp cycles"),
    ]
    report = format_table(("parameter", "value"), rows, title="E1 / Table 1 - simulated configuration")
    return report, {"config": cfg}


# ---------------------------------------------------------------------------
# E2 — benchmark table with limiter classification
# ---------------------------------------------------------------------------

def e2_benchmark_table(cfg: GPUConfig | None = None):
    """Table 2: the suite, per-kernel resources, and the limiter class.

    The limiter column comes from :func:`repro.core.occupancy.limiter_summary`
    — the same single source of truth the static oracle and ``repro list``
    read — never re-derived from raw footprints here.
    """
    cfg = cfg or default_config()
    from repro.core.occupancy import limiter_summary

    rows = []
    data = {}
    for bench in all_benchmarks():
        summary = limiter_summary(bench.kernel, cfg)
        rows.append((
            bench.name,
            bench.suite,
            bench.category,
            "x".join(str(d) for d in bench.kernel.cta_dim if d > 1) or "1",
            bench.kernel.regs_per_thread,
            bench.kernel.smem_bytes,
            summary["baseline_ctas"],
            summary["capacity_ctas"],
            summary["limiter"],
        ))
        data[bench.name] = summary["occupancy"]
    report = format_table(
        ("benchmark", "models", "class", "cta", "regs/t", "smem B",
         "CTAs(base)", "CTAs(cap)", "limiter"),
        rows,
        title="E2 / Table 2 - benchmark suite and limiter classification",
    )
    return report, data


# ---------------------------------------------------------------------------
# E3 — motivation: CTA residency, scheduling vs capacity limit
# ---------------------------------------------------------------------------

def e3_cta_residency(cfg: GPUConfig | None = None):
    """Motivation figure: CTAs/SM under each limit family per benchmark."""
    cfg = cfg or default_config()
    rows = []
    headroom = {}
    for bench in all_benchmarks():
        occ = occupancy(bench.kernel, cfg)
        rows.append((bench.name, occ.scheduling_limit_ctas, occ.capacity_limit_ctas,
                     f"{occ.vt_headroom:.2f}x", occ.binding_resource))
        headroom[bench.name] = occ.vt_headroom
    report = format_table(
        ("benchmark", "CTAs @ sched limit", "CTAs @ capacity limit", "VT headroom", "binding resource"),
        rows,
        title="E3 - CTA residency: scheduling limit leaves capacity idle",
    )
    return report, headroom


# ---------------------------------------------------------------------------
# E4 — motivation: idle-cycle breakdown on the baseline
# ---------------------------------------------------------------------------

def e4_idle_cycles(cfg: GPUConfig | None = None, scale: float = 1.0,
                   jobs: int | None = None, directory=None):
    """Motivation figure: fraction of SM cycles with zero issue, by cause."""
    cfg = (cfg or default_config()).with_(arch=ArchMode.BASELINE)
    records = _run_cells({b.name: (b, cfg, scale) for b in all_benchmarks()},
                         jobs=jobs, directory=directory)
    rows = []
    data = {}
    for bench in all_benchmarks():
        record = records[bench.name]
        breakdown = record.stats.idle_breakdown()
        rows.append((
            bench.name,
            f"{breakdown['busy']:.1%}",
            f"{breakdown['mem']:.1%}",
            f"{breakdown['alu']:.1%}",
            f"{breakdown['barrier']:.1%}",
            f"{breakdown['struct']:.1%}",
            f"{breakdown['empty']:.1%}",
        ))
        data[bench.name] = breakdown
    report = format_table(
        ("benchmark", "busy", "idle:mem", "idle:alu", "idle:barrier", "idle:struct", "idle:other"),
        rows,
        title="E4 - baseline idle-cycle breakdown (why the SM starves)",
    )
    return report, data


# ---------------------------------------------------------------------------
# E5 — headline: speedups of VT and ideal-sched over baseline
# ---------------------------------------------------------------------------

def e5_speedup(cfg: GPUConfig | None = None, scale: float = 1.0,
               benches=None, keep_going: bool = True,
               jobs: int | None = None, directory=None):
    """The headline figure: per-benchmark IPC normalized to baseline.

    With ``keep_going`` (default) a failing (bench, arch) cell renders as
    ``FAILED(<reason>)`` and is excluded from the speedup statistics, so
    the rest of the table survives one broken run; ``keep_going=False``
    restores the historical first-failure-raises behaviour.  A cycles cell
    rendered as ``NNN*`` completed only after a retry.  ``jobs`` /
    ``directory`` route the matrix through the subprocess orchestrator.
    """
    base_cfg = cfg or default_config()
    benches = list(benches) if benches is not None else all_benchmarks()
    records = run_matrix(benches, ARCHS, base_cfg, scale, keep_going=keep_going,
                         parallel=jobs, directory=directory)
    rows = []
    vt_speedups = {}
    ideal_speedups = {}
    failures = {}
    for bench in benches:
        by_arch = {arch: records[(bench.name, arch)] for arch in ARCHS}
        if not all(record.ok for record in by_arch.values()):
            failures[bench.name] = {
                arch: record for arch, record in by_arch.items() if not record.ok
            }
            rows.append((
                bench.name,
                *(_cycles_cell(record) for record in by_arch.values()),
                "-", "-", "-",
            ))
            continue
        base = by_arch[ArchMode.BASELINE].cycles
        vt = by_arch[ArchMode.VT].cycles
        ideal = by_arch[ArchMode.IDEAL_SCHED].cycles
        vt_speedups[bench.name] = base / vt
        ideal_speedups[bench.name] = base / ideal
        rows.append((bench.name,
                     *(_cycles_cell(by_arch[a]) for a in ARCHS),
                     f"x{base / vt:.3f}", f"x{base / ideal:.3f}",
                     by_arch[ArchMode.VT].stats.total_swaps))
    table = format_table(
        ("benchmark", "base cyc", "VT cyc", "ideal cyc", "VT speedup", "ideal speedup", "swaps"),
        rows,
        title="E5 - speedup over baseline (paper: VT avg +23.9%)",
    )
    parts = [table]
    if any(record.retried for record in records.values()):
        parts.append("(* = completed only after a retry)")
    if failures:
        parts.append("")
        parts.append("failed cells (excluded from the statistics):")
        for name, by_arch in failures.items():
            for arch, record in by_arch.items():
                parts.append(f"  {name}/{arch}: {record.error}")
    if vt_speedups:
        bars = ascii_bars(sorted(vt_speedups.items(), key=lambda kv: -kv[1]),
                          reference=1.0, unit="x")
        gm_vt = geomean(vt_speedups.values())
        gm_ideal = geomean(ideal_speedups.values())
        parts.extend([
            "",
            "VT speedup (normalized IPC, '|' = baseline):",
            bars,
            "",
            f"VT:    {speedup_summary(vt_speedups)}",
            f"ideal: {speedup_summary(ideal_speedups)}",
        ])
    else:
        gm_vt = gm_ideal = float("nan")
        parts.extend(["", "no cell completed; no speedup statistics"])
    data = {
        "vt": vt_speedups,
        "ideal": ideal_speedups,
        "geomean_vt": gm_vt,
        "geomean_ideal": gm_ideal,
        "records": records,
        "failures": failures,
    }
    return "\n".join(parts), data


# ---------------------------------------------------------------------------
# E6 — TLP: schedulable warps over time, baseline vs VT
# ---------------------------------------------------------------------------

def e6_tlp(cfg: GPUConfig | None = None, scale: float = 1.0,
           jobs: int | None = None, directory=None):
    """How much thread-level parallelism VT exposes to the SM."""
    base_cfg = cfg or default_config()
    runs = {}
    for bench in all_benchmarks():
        runs[(bench.name, ArchMode.BASELINE)] = (
            bench, base_cfg.with_(arch=ArchMode.BASELINE), scale)
        runs[(bench.name, ArchMode.VT)] = (
            bench, base_cfg.with_(arch=ArchMode.VT), scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    rows = []
    data = {}
    for bench in all_benchmarks():
        base = records[(bench.name, ArchMode.BASELINE)]
        vt = records[(bench.name, ArchMode.VT)]
        rows.append((
            bench.name,
            f"{base.stats.avg_resident_warps:.1f}",
            f"{vt.stats.avg_resident_warps:.1f}",
            f"{base.stats.avg_resident_ctas:.1f}",
            f"{vt.stats.avg_resident_ctas:.1f} ({vt.stats.avg_active_ctas:.1f} active)",
        ))
        data[bench.name] = {
            "base_warps": base.stats.avg_resident_warps,
            "vt_warps": vt.stats.avg_resident_warps,
            "base_ctas": base.stats.avg_resident_ctas,
            "vt_ctas": vt.stats.avg_resident_ctas,
            "vt_active_ctas": vt.stats.avg_active_ctas,
        }
    report = format_table(
        ("benchmark", "warps/SM base", "warps/SM VT", "CTAs base", "CTAs VT"),
        rows,
        title="E6 - resident thread-level parallelism, baseline vs VT",
    )
    return report, data


# ---------------------------------------------------------------------------
# E7 — sensitivity: context-switch latency
# ---------------------------------------------------------------------------

SWAP_LATENCY_POINTS = ((0, 0), (2, 1), (8, 4), (32, 16), (128, 64))


def e7_swap_latency(cfg: GPUConfig | None = None, scale: float = 1.0,
                    points=SWAP_LATENCY_POINTS, subset=SWEEP_SUBSET,
                    jobs: int | None = None, directory=None):
    """VT speedup as the swap save/restore cost scales.

    The paper's claim: because only scheduling state moves, swaps cost a
    handful of cycles and performance is robust until costs grow by an
    order of magnitude.
    """
    base_cfg = cfg or default_config()
    benches = [get(name) for name in subset]
    runs = {("base", b.name): (b, base_cfg.with_(arch=ArchMode.BASELINE), scale)
            for b in benches}
    for base_cost, per_warp in points:
        vt_cfg = base_cfg.with_(
            arch=ArchMode.VT,
            vt_swap_out_base=base_cost, vt_swap_out_per_warp=per_warp,
            vt_swap_in_base=base_cost, vt_swap_in_per_warp=per_warp,
        )
        for b in benches:
            runs[((base_cost, per_warp), b.name)] = (b, vt_cfg, scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    baselines = {b.name: records[("base", b.name)].cycles for b in benches}
    rows = []
    data = {}
    for base_cost, per_warp in points:
        speedups = {
            b.name: baselines[b.name] / records[((base_cost, per_warp), b.name)].cycles
            for b in benches
        }
        label = f"save/restore {base_cost}+{per_warp}/warp"
        gm = geomean(speedups.values())
        data[(base_cost, per_warp)] = {"speedups": speedups, "geomean": gm}
        rows.append((label, *(f"x{speedups[b.name]:.3f}" for b in benches), f"x{gm:.3f}"))
    report = format_table(
        ("swap cost", *subset, "geomean"),
        rows,
        title="E7 - VT speedup vs context-switch latency",
    )
    return report, data


# ---------------------------------------------------------------------------
# E8 — sensitivity: virtual-CTA degree (resident multiplier)
# ---------------------------------------------------------------------------

def e8_vcta_degree(cfg: GPUConfig | None = None, scale: float = 1.0,
                   multipliers=(1.0, 1.5, 2.0, 3.0, 4.0), subset=SWEEP_SUBSET,
                   jobs: int | None = None, directory=None):
    """VT speedup as the resident-CTA provisioning grows (1x = no virtual
    CTAs, so VT must degenerate to baseline behaviour)."""
    base_cfg = cfg or default_config()
    benches = [get(name) for name in subset]
    runs = {("base", b.name): (b, base_cfg.with_(arch=ArchMode.BASELINE), scale)
            for b in benches}
    for mult in multipliers:
        vt_cfg = base_cfg.with_(arch=ArchMode.VT, vt_max_resident_multiplier=mult)
        for b in benches:
            runs[(mult, b.name)] = (b, vt_cfg, scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    baselines = {b.name: records[("base", b.name)].cycles for b in benches}
    rows = []
    data = {}
    for mult in multipliers:
        speedups = {
            b.name: baselines[b.name] / records[(mult, b.name)].cycles
            for b in benches
        }
        gm = geomean(speedups.values())
        data[mult] = {"speedups": speedups, "geomean": gm}
        rows.append((f"{mult:g}x", *(f"x{speedups[b.name]:.3f}" for b in benches), f"x{gm:.3f}"))
    report = format_table(
        ("resident cap", *subset, "geomean"),
        rows,
        title="E8 - VT speedup vs virtual-CTA provisioning",
    )
    return report, data


# ---------------------------------------------------------------------------
# E9 — interaction with the warp scheduler
# ---------------------------------------------------------------------------

def e9_schedulers(cfg: GPUConfig | None = None, scale: float = 1.0,
                  schedulers=("lrr", "gto", "two-level"), subset=SWEEP_SUBSET,
                  jobs: int | None = None, directory=None):
    """VT's gain under different warp-scheduling policies."""
    base_cfg = cfg or default_config()
    benches = [get(name) for name in subset]
    runs = {}
    for policy in schedulers:
        pol_cfg = base_cfg.with_(warp_scheduler=policy)
        for bench in benches:
            for arch in (ArchMode.BASELINE, ArchMode.VT):
                runs[(policy, bench.name, arch)] = (
                    bench, pol_cfg.with_(arch=arch), scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    rows = []
    data = {}
    for policy in schedulers:
        speedups = {}
        for bench in benches:
            base = records[(policy, bench.name, ArchMode.BASELINE)].cycles
            vt = records[(policy, bench.name, ArchMode.VT)].cycles
            speedups[bench.name] = base / vt
        gm = geomean(speedups.values())
        data[policy] = {"speedups": speedups, "geomean": gm}
        rows.append((policy, *(f"x{speedups[b.name]:.3f}" for b in benches), f"x{gm:.3f}"))
    report = format_table(
        ("warp scheduler", *subset, "geomean VT gain"),
        rows,
        title="E9 - VT gain under different warp schedulers",
    )
    return report, data


# ---------------------------------------------------------------------------
# E10 — sensitivity: memory latency
# ---------------------------------------------------------------------------

def e10_mem_latency(cfg: GPUConfig | None = None, scale: float = 1.0,
                    latencies=(200, 400, 600, 800), subset=SWEEP_SUBSET,
                    jobs: int | None = None, directory=None):
    """VT's gain should grow with memory latency (more to hide)."""
    base_cfg = cfg or default_config()
    benches = [get(name) for name in subset]
    runs = {}
    for latency in latencies:
        lat_cfg = base_cfg.with_(dram_latency=latency)
        for bench in benches:
            for arch in (ArchMode.BASELINE, ArchMode.VT):
                runs[(latency, bench.name, arch)] = (
                    bench, lat_cfg.with_(arch=arch), scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    rows = []
    data = {}
    for latency in latencies:
        speedups = {}
        for bench in benches:
            base = records[(latency, bench.name, ArchMode.BASELINE)].cycles
            vt = records[(latency, bench.name, ArchMode.VT)].cycles
            speedups[bench.name] = base / vt
        gm = geomean(speedups.values())
        data[latency] = {"speedups": speedups, "geomean": gm}
        rows.append((f"{latency} cyc", *(f"x{speedups[b.name]:.3f}" for b in benches), f"x{gm:.3f}"))
    report = format_table(
        ("DRAM latency", *subset, "geomean VT gain"),
        rows,
        title="E10 - VT gain vs DRAM latency",
    )
    return report, data


# ---------------------------------------------------------------------------
# E11 — hardware overhead
# ---------------------------------------------------------------------------

def e11_overhead(cfg: GPUConfig | None = None, liveness: bool = False):
    """Overhead table: VT's backup SRAM next to the memory it virtualizes.

    With ``liveness=True`` a second table contrasts VT's scheduling-only
    switch with a hypothetical register-spilling switch, priced both at
    the declared footprint and at the liveness-compressed footprint (live
    registers at barriers / post-global-load swap points, from the static
    analysis package).  The default table is byte-identical either way.
    """
    cfg = cfg or default_config()
    report_obj = vt_overhead(cfg)
    report = format_table(("item", "value"), report_obj.rows(),
                          title="E11 - Virtual Thread hardware overhead per SM")
    data = {"overhead": report_obj}
    if liveness:
        from repro.core.overhead import liveness_swap_footprint

        footprints = [liveness_swap_footprint(b.kernel) for b in all_benchmarks()]
        rows = [(fp.kernel_name, fp.declared_regs, fp.live_regs,
                 fp.declared_bytes, fp.live_bytes, f"{fp.compression:.0%}")
                for fp in footprints]
        report += "\n\n" + format_table(
            ("kernel", "declared regs", "live@swap regs",
             "spill B/CTA (declared)", "spill B/CTA (live)", "saved"),
            rows,
            title="E11b - liveness-compressed register spill per context "
                  "switch (hypothetical; VT itself moves scheduling state only)")
        data["footprints"] = {fp.kernel_name: fp for fp in footprints}
    return report, data


# ---------------------------------------------------------------------------
# E12 — ablation: swap trigger and selection policies
# ---------------------------------------------------------------------------

def e12_ablation(cfg: GPUConfig | None = None, scale: float = 1.0, subset=SWEEP_SUBSET,
                 jobs: int | None = None, directory=None):
    """Design-choice ablation for the swap trigger and victim selection."""
    base_cfg = cfg or default_config()
    benches = [get(name) for name in subset]
    variants = [
        ("all-stalled / oldest-ready (paper)", dict(vt_trigger_policy="all-stalled",
                                                    vt_select_policy="oldest-ready")),
        ("all-stalled / most-ready", dict(vt_trigger_policy="all-stalled",
                                          vt_select_policy="most-ready")),
        ("majority-stalled / oldest-ready", dict(vt_trigger_policy="majority-stalled",
                                                 vt_select_policy="oldest-ready")),
        ("timeout(16) / oldest-ready", dict(vt_trigger_policy="timeout",
                                            vt_select_policy="oldest-ready")),
    ]
    runs = {("base", b.name): (b, base_cfg.with_(arch=ArchMode.BASELINE), scale)
            for b in benches}
    for label, overrides in variants:
        vt_cfg = base_cfg.with_(arch=ArchMode.VT, **overrides)
        for b in benches:
            runs[(label, b.name)] = (b, vt_cfg, scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    baselines = {b.name: records[("base", b.name)].cycles for b in benches}
    rows = []
    data = {}
    for label, _overrides in variants:
        speedups = {}
        swaps = 0
        for bench in benches:
            record = records[(label, bench.name)]
            speedups[bench.name] = baselines[bench.name] / record.cycles
            swaps += record.stats.total_swaps
        gm = geomean(speedups.values())
        data[label] = {"speedups": speedups, "geomean": gm, "swaps": swaps}
        rows.append((label, *(f"x{speedups[b.name]:.3f}" for b in benches), f"x{gm:.3f}", swaps))
    report = format_table(
        ("policy variant", *subset, "geomean", "total swaps"),
        rows,
        title="E12 - swap-policy ablation",
    )
    return report, data


# ---------------------------------------------------------------------------
# X1 — extension (beyond the paper): oversubscription cache contention
# ---------------------------------------------------------------------------

def x1_contention(cfg: GPUConfig | None = None, scale: float = 1.0, bench_name: str = "spmv",
                  jobs: int | None = None, directory=None):
    """Diagnose the one VT regression in E5 and evaluate a mitigation.

    spmv loses under VT because rotating the active set through more CTAs
    spreads the L1 working set: lines fetched before a swap-out are evicted
    before the CTA returns, inflating DRAM traffic.  The table shows the
    diagnosis (DRAM requests and hit rates across variants) and one
    mitigation from this reproduction: the LIFO ``most-recent`` selection
    policy, which keeps the recently-touched CTAs hot.
    """
    base_cfg = cfg or default_config()
    bench = get(bench_name)
    variants = [
        ("baseline", base_cfg.with_(arch=ArchMode.BASELINE)),
        ("vt / oldest-ready (paper)", base_cfg.with_(arch=ArchMode.VT)),
        ("vt / most-recent (LIFO ext.)", base_cfg.with_(arch=ArchMode.VT,
                                                        vt_select_policy="most-recent")),
        ("ideal-sched", base_cfg.with_(arch=ArchMode.IDEAL_SCHED)),
        ("baseline, 48K L1", base_cfg.with_(arch=ArchMode.BASELINE, l1_size=49152)),
        ("vt, 48K L1", base_cfg.with_(arch=ArchMode.VT, l1_size=49152)),
    ]
    records = _run_cells({label: (bench, variant_cfg, scale)
                          for label, variant_cfg in variants},
                         jobs=jobs, directory=directory)
    rows = []
    data = {}
    base_cycles = None
    for label, _variant_cfg in variants:
        record = records[label]
        stats = record.stats
        if base_cycles is None:
            base_cycles = stats.cycles
        rows.append((label, stats.cycles, f"x{base_cycles / stats.cycles:.3f}",
                     f"{stats.l1_hit_rate:.0%}", f"{stats.l2_hit_rate:.0%}",
                     stats.dram_requests, stats.total_swaps))
        data[label] = {
            "cycles": stats.cycles,
            "l1_hit": stats.l1_hit_rate,
            "dram": stats.dram_requests,
        }
    report = format_table(
        ("variant", "cycles", "vs 16K baseline", "L1 hit", "L2 hit", "DRAM reqs", "swaps"),
        rows,
        title=f"X1 (extension) - oversubscription cache contention on {bench_name}",
    )
    return report, data


# ---------------------------------------------------------------------------
# X2 — extension (beyond the paper): does VT generalize to a Kepler-class SM?
# ---------------------------------------------------------------------------

def x2_kepler(cfg: GPUConfig | None = None, scale: float = 2.0, subset=SWEEP_SUBSET,
              jobs: int | None = None, directory=None):
    """VT gain on a Kepler-class SM (64 warps / 16 CTAs / 2x register file).

    Kepler relaxes Fermi's scheduling limits but also doubles capacity, so
    small-CTA kernels remain scheduling-limited and VT's argument carries
    forward; the absolute gain shrinks because the baseline already holds
    twice the CTAs.
    """
    from repro.sim.config import scaled_kepler

    # Kepler holds 2x the CTAs per SM, so grids must be proportionally
    # larger before the scheduling limit binds; hence the 2x default scale.
    kepler = (cfg or scaled_kepler(num_sms=2))
    benches = [get(name) for name in subset]
    runs = {}
    for bench in benches:
        for arch in (ArchMode.BASELINE, ArchMode.VT):
            runs[(bench.name, arch)] = (bench, kepler.with_(arch=arch), scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    from repro.core.occupancy import limiter_summary

    rows = []
    data = {}
    for bench in benches:
        summary = limiter_summary(bench.kernel, kepler)
        base = records[(bench.name, ArchMode.BASELINE)]
        vt = records[(bench.name, ArchMode.VT)]
        speedup = base.cycles / vt.cycles
        data[bench.name] = {
            "speedup": speedup,
            "headroom": summary["headroom"],
            "limiter": summary["limiter"],
        }
        rows.append((bench.name, summary["limiter"], f"{summary['headroom']:.2f}x",
                     base.cycles, vt.cycles, f"x{speedup:.3f}"))
    gm = geomean(d["speedup"] for d in data.values())
    data["geomean"] = gm
    report = format_table(
        ("benchmark", "limiter", "VT headroom", "base cyc", "VT cyc", "VT speedup"),
        rows,
        title=f"X2 (extension) - VT on a Kepler-class SM (geomean x{gm:.3f})",
    )
    return report, data


# ---------------------------------------------------------------------------
# X3 — methodology validation: scaled 2-SM chip vs the full 15-SM GTX480
# ---------------------------------------------------------------------------

def x3_full_chip(cfg: GPUConfig | None = None, scale: float = 1.0,
                 subset=("stride", "streamcluster", "kmeans"),
                 jobs: int | None = None, directory=None):
    """VT speedups on the full 15-SM chip vs the scaled 2-SM default.

    The harness runs everything on a scaled-down chip for tractability;
    this experiment validates that choice: at matched per-SM CTA pressure
    (grid scaled by 15/2), the full GTX480-class configuration reproduces
    the scaled configuration's speedups within a few percent.
    """
    small = cfg or default_config()
    from repro.sim.config import fermi_config

    full = fermi_config()
    ratio = full.num_sms / small.num_sms
    chips = (("scaled", small, scale), ("full", full, scale * ratio))
    runs = {}
    for name in subset:
        bench = get(name)
        for label, chip_cfg, chip_scale in chips:
            for arch in (ArchMode.BASELINE, ArchMode.VT):
                runs[(name, label, arch)] = (
                    bench, chip_cfg.with_(arch=arch), chip_scale)
    records = _run_cells(runs, jobs=jobs, directory=directory)
    rows = []
    data = {}
    for name in subset:
        speedups = {}
        for label, _chip_cfg, _chip_scale in chips:
            base = records[(name, label, ArchMode.BASELINE)]
            vt = records[(name, label, ArchMode.VT)]
            speedups[label] = base.cycles / vt.cycles
        gap = abs(speedups["full"] - speedups["scaled"]) / speedups["scaled"]
        data[name] = {**speedups, "gap": gap}
        rows.append((name, f"x{speedups['scaled']:.3f}", f"x{speedups['full']:.3f}",
                     f"{gap:.1%}"))
    report = format_table(
        ("benchmark", f"VT speedup ({small.num_sms} SMs)", f"VT speedup ({full.num_sms} SMs)", "gap"),
        rows,
        title="X3 (methodology) - scaled chip vs full GTX480-class chip",
    )
    return report, data


# ---------------------------------------------------------------------------
# X4 — static oracle vs simulator: the prediction agreement gate
# ---------------------------------------------------------------------------

def x4_prediction_table(cfg: GPUConfig | None = None, scale: float = 1.0,
                        keep_going: bool = True, jobs: int | None = None,
                        directory=None):
    """Predicted vs measured limiter / idle class / VT tier, all kernels.

    The model-vs-measurement discipline behind ``repro predict --check``:
    for every (kernel, arch) cell the static oracle's limiter class must
    match :mod:`repro.core.occupancy` and its idle-cycle class must match
    the simulator's dominant idle kind (``AGREEMENT_TIE`` tolerates
    genuine near-ties between the measured fractions).  The VT tier
    columns are reported for inspection but not gated — tier cut points
    quantize a continuous speedup.
    """
    cfg = cfg or default_config()
    from repro.core.occupancy import limiter_summary
    from repro.isa.analysis.perf import (idle_agreement, layout_for,
                                         measured_vt_tier, predict_kernel)

    benches = list(all_benchmarks())
    archs = (ArchMode.BASELINE, ArchMode.VT)
    preds = {}
    for bench in benches:
        layout = layout_for(bench, scale)
        for p in predict_kernel(bench.kernel, cfg, archs=archs, layout=layout):
            preds[(bench.name, p.arch)] = p
    records = run_matrix(benches, archs, cfg, scale, keep_going=keep_going,
                         parallel=jobs, directory=directory)

    rows = []
    cells = {}
    disagreements = []
    failures = {}
    for bench in benches:
        by_arch = {arch: records[(bench.name, arch)] for arch in archs}
        ok_runs = all(record.ok for record in by_arch.values())
        measured_tier = (measured_vt_tier(by_arch[ArchMode.BASELINE].cycles,
                                          by_arch[ArchMode.VT].cycles)
                         if ok_runs else "-")
        limiter = limiter_summary(bench.kernel, cfg)["limiter"]
        for arch in archs:
            record = by_arch[arch]
            pred = preds[(bench.name, arch)]
            if not record.ok:
                failures[(bench.name, arch)] = record
                rows.append((bench.name, arch, pred.limiter, pred.idle_class,
                             "-", "-", pred.vt_tier, measured_tier,
                             _cycles_cell(record)))
                continue
            breakdown = record.stats.idle_breakdown()
            agrees, dominant, ratio = idle_agreement(pred.idle_class, breakdown)
            limiter_ok = pred.limiter == limiter
            cells[(bench.name, arch)] = {
                "predicted_idle": pred.idle_class,
                "measured_idle": dominant,
                "tie_ratio": ratio,
                "idle_ok": agrees,
                "limiter_ok": limiter_ok,
                "binding": pred.binding,
                "predicted_tier": pred.vt_tier,
                "measured_tier": measured_tier,
            }
            if not (agrees and limiter_ok):
                disagreements.append((bench.name, arch))
            mark = "=" if pred.idle_class == dominant else (
                "~" if agrees else "X")
            rows.append((bench.name, arch, pred.limiter, pred.idle_class,
                         dominant, mark, pred.vt_tier, measured_tier,
                         pred.binding))
    agree_count = sum(1 for c in cells.values()
                      if c["idle_ok"] and c["limiter_ok"])
    report = format_table(
        ("benchmark", "arch", "limiter", "idle(pred)", "idle(sim)", "ok",
         "tier(pred)", "tier(sim)", "binding rule"),
        rows,
        title=(f"X4 (validation) - static oracle vs simulator "
               f"({agree_count}/{len(cells)} cells agree; "
               "'~' = within tie tolerance)"),
    )
    parts = [report]
    if disagreements:
        parts.append("")
        parts.append("DISAGREEMENTS (the agreement gate fails):")
        for name, arch in disagreements:
            cell = cells[name, arch]
            parts.append(
                f"  {name}/{arch}: predicted {cell['predicted_idle']} "
                f"(via {cell['binding']}), simulator says "
                f"{cell['measured_idle']} (ratio {cell['tie_ratio']:.2f})")
    data = {"cells": cells, "disagreements": disagreements,
            "failures": failures, "records": records, "predictions": preds}
    return "\n".join(parts), data


# ---------------------------------------------------------------------------
# X6 — static cycle bounds: soundness, tightness, and co-residency
# ---------------------------------------------------------------------------

def x6_bound_table(cfg: GPUConfig | None = None, scale: float = 1.0):
    """Sound [lo, hi] cycle intervals vs the simulator, plus pair verdicts.

    The quantitative counterpart of X4: for every (kernel, gate arch,
    mode) cell, :func:`repro.isa.analysis.bounds.bench_bounds` derives a
    closed interval the simulated cycle count must fall into; the table
    reports the measured count, containment, and the ``hi/lo`` tightness
    ratio.  A second table summarizes the co-residency composer
    (:func:`repro.isa.analysis.compose.pair_matrix`): admission verdicts
    and contention reasons for every kernel pair on the primary arch.
    ``repro bound --all --check`` gates the same containment in CI.

    ``cfg`` overrides the gate arches with a single custom config.
    """
    from repro.isa.analysis.bounds import bench_bounds, gate_configs
    from repro.isa.analysis.compose import pair_matrix

    configs = {cfg.arch or "custom": cfg} if cfg is not None else gate_configs()
    benches = sorted(all_benchmarks(), key=lambda b: b.name)

    rows = []
    cells = {}
    violations = []
    for arch, gate_cfg in configs.items():
        for bench in benches:
            for mode in ("baseline", "vt"):
                kb = bench_bounds(bench, gate_cfg, mode=mode, scale=scale,
                                  arch=arch)
                record = run_benchmark(bench, gate_cfg.with_(arch=mode),
                                       scale=scale)
                cycles = record.stats.cycles
                sound = kb.contains(cycles)
                cells[(bench.name, arch, mode)] = {
                    "lo": kb.lo, "hi": kb.hi, "sim": cycles,
                    "sound": sound, "tightness": kb.tightness,
                }
                if not sound:
                    violations.append((bench.name, arch, mode))
                rows.append((bench.name, arch, mode, kb.lo, cycles, kb.hi,
                             f"{kb.tightness:.1f}x",
                             "yes" if sound else "NO"))
    sound_count = sum(1 for c in cells.values() if c["sound"])
    bound_report = format_table(
        ("benchmark", "arch", "mode", "lo", "sim", "hi", "hi/lo", "sound"),
        rows,
        title=(f"X6 (validation) - static cycle bounds vs simulator "
               f"({sound_count}/{len(cells)} cells contained)"),
    )

    pair_arch, pair_cfg = next(iter(configs.items()))
    verdicts = pair_matrix(benches, pair_cfg, scale=scale, arch=pair_arch)
    counts = {}
    reason_hist = {}
    for v in verdicts:
        counts[v.verdict] = counts.get(v.verdict, 0) + 1
        for reason in v.reasons:
            reason_hist[reason] = reason_hist.get(reason, 0) + 1
    pair_rows = ([(k, str(n)) for k, n in sorted(counts.items())]
                 + [(f"reason: {k}", str(n))
                    for k, n in sorted(reason_hist.items())])
    pair_report = format_table(
        ("verdict / contention reason", "pairs"),
        pair_rows,
        title=(f"X6 (co-residency) - {len(verdicts)} kernel-pair verdicts "
               f"on {pair_arch}"),
    )
    parts = [bound_report, "", pair_report]
    if violations:
        parts.append("")
        parts.append("VIOLATIONS (the bound gate fails):")
        for name, arch, mode in violations:
            cell = cells[(name, arch, mode)]
            parts.append(f"  {name}/{arch}/{mode}: sim {cell['sim']} "
                         f"outside [{cell['lo']}, {cell['hi']}]")
    data = {"cells": cells, "violations": violations,
            "pair_verdicts": verdicts, "verdict_counts": counts,
            "reason_counts": reason_hist}
    return "\n".join(parts), data


# ---------------------------------------------------------------------------
# doctor — sanitizer-on smoke sweep (the `repro doctor` subcommand)
# ---------------------------------------------------------------------------

def doctor_report(scale: float = 0.25, sms: int = 1, benches=None, archs=ARCHS,
                  jobs: int | None = None, directory=None, fuzz_dir=None):
    """Quick health sweep: every benchmark under every architecture with
    the per-cycle invariant sanitizer enabled, crash-tolerantly.

    Returns ``(report, data)``; ``data['failures']`` lists the failing
    (bench, arch) pairs (empty on a healthy tree).  Small scale by
    default: the point is exercising every state machine under the
    sanitizer, not performance numbers.  ``ok*`` marks a cell that only
    passed after a retry.

    With ``fuzz_dir`` the report also lists the fuzz reproducer dumps
    found there (next to any deadlock forensics), flagging dumps whose
    fingerprint no longer matches their own spec/config — the same
    stale-fingerprint discipline ``repro fuzz --replay`` enforces —
    in ``data['reproducers']``.

    With ``directory`` (a result-store root or handle) the store is audited
    *before* the sweep — every entry's checksum re-verified, corrupt
    entries quarantined, orphaned temp files from crashed writers
    collected — and the smoke sweep then reads/writes through it.  The
    audit lands in ``data['store_report']`` and the report text; a store
    that lost entries to quarantine in this audit makes the doctor exit
    unhealthy (see ``StoreReport.healthy``).
    """
    store = store_report = None
    if directory is not None:
        from repro.store.cas import ResultStore

        store = (directory if isinstance(directory, ResultStore)
                 else ResultStore(directory))
        store_report = store.verify()
    cfg = scaled_fermi(num_sms=sms, sanitize=True)
    if benches is None:
        benches = all_benchmarks()
    else:
        benches = [get(name) if isinstance(name, str) else name for name in benches]
    records = run_matrix(benches, archs, cfg, scale, keep_going=True,
                         parallel=jobs, directory=store)
    rows = []
    failures = []
    for bench in benches:
        cells = []
        for arch in archs:
            record = records[(bench.name, arch)]
            if record.ok:
                marker = "*" if record.retried else ""
                cells.append(f"ok{marker} ({record.cycles} cyc)")
            else:
                cells.append(record.failure)
                failures.append((bench.name, arch, record))
        rows.append((bench.name, *cells))
    report = format_table(
        ("benchmark", *archs), rows,
        title=f"doctor - sanitizer-on smoke sweep (scale {scale:g}, {sms} SM)",
    )
    verdict = (
        f"\n{len(failures)} failing cell(s):\n" + "\n".join(
            f"  {name}/{arch}: {record.error}" for name, arch, record in failures)
        if failures else
        f"\nall {len(rows) * len(archs)} cells clean under the sanitizer"
    )
    data = {"records": records, "failures": failures}
    if store_report is not None:
        data["store_report"] = store_report
        rep = store_report
        verdict += (
            f"\n\nresult store {store.root}: "
            f"{rep.verified}/{rep.entries} entries verified, "
            f"{len(rep.quarantined_now)} quarantined in this audit "
            f"({rep.quarantined_before} previously), "
            f"{rep.orphan_temps_removed} orphaned temp file(s) collected, "
            f"{rep.artifacts} artifact(s), {rep.bytes} bytes")
        for name in rep.quarantined_now:
            verdict += f"\n  quarantined: {name}"
    if fuzz_dir is not None:
        from repro.fuzz.campaign import list_reproducers

        entries = list_reproducers(fuzz_dir)
        data["reproducers"] = entries
        if entries:
            fuzz_rows = []
            for entry in entries:
                if "error" in entry:
                    fuzz_rows.append((entry["path"], "unreadable", "-",
                                      entry["error"]))
                else:
                    fuzz_rows.append((
                        entry["path"],
                        "STALE" if entry["stale"] else "replayable",
                        entry["instructions"],
                        ", ".join(entry["kinds"])))
            verdict += "\n\n" + format_table(
                ("reproducer dump", "state", "instrs", "divergence kinds"),
                fuzz_rows, title=f"fuzz reproducers under {fuzz_dir} "
                                 f"(replay with: repro fuzz --replay <file>)")
        else:
            verdict += f"\n\nno fuzz reproducers under {fuzz_dir}"
    return report + verdict, data


# ---------------------------------------------------------------------------
# sweep — the `repro sweep` subcommand: the full matrix, orchestrated
# ---------------------------------------------------------------------------

def sweep_report(benches=None, archs=ARCHS, scale: float = 1.0, sms: int = 2,
                 *, jobs: int = 2, wall_timeout: float | None = None,
                 retries: int = 1, directory=None,
                 max_cycles: int | None = None, sanitize: bool = False,
                 fast_forward: bool = True, engine: str = "serial",
                 sim_jobs: int = 1, progress=None):
    """The (benchmark x arch) matrix through the subprocess orchestrator.

    Returns ``(report, result)`` where ``result`` is the
    :class:`~repro.analysis.orchestrator.SweepResult` — the report is the
    final ok/retried/failed summary table with dump paths.  With
    ``directory`` (a result-store root) every finished cell is persisted
    there, so re-running into the same directory after any crash runs
    only the missing cells.
    """
    from repro.analysis.orchestrator import matrix_cells, run_sweep

    cfg = scaled_fermi(num_sms=sms, sanitize=sanitize,
                       fast_forward=fast_forward, engine=engine,
                       sim_jobs=sim_jobs)
    if benches is None:
        benches = all_benchmarks()
    else:
        benches = [get(name) if isinstance(name, str) else name for name in benches]
    cells = matrix_cells(benches, archs, cfg, scale, max_cycles=max_cycles)
    result = run_sweep(cells, jobs=jobs, wall_timeout=wall_timeout,
                       retries=retries, directory=directory,
                       progress=progress)
    return result.summary_table(), result


#: Experiment registry for the harness and docs.
ALL_EXPERIMENTS = {
    "E1": e1_config_table,
    "E2": e2_benchmark_table,
    "E3": e3_cta_residency,
    "E4": e4_idle_cycles,
    "E5": e5_speedup,
    "E6": e6_tlp,
    "E7": e7_swap_latency,
    "E8": e8_vcta_degree,
    "E9": e9_schedulers,
    "E10": e10_mem_latency,
    "E11": e11_overhead,
    "E12": e12_ablation,
    "X1": x1_contention,
    "X2": x2_kepler,
    "X3": x3_full_chip,
    "X4": x4_prediction_table,
    "X6": x6_bound_table,
}
