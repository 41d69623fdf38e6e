"""Paper-artifact experiments E1..E12.

One function per table/figure of the evaluation (see DESIGN.md for the
mapping).  Each returns ``(report, data)``: an aligned-text report that
mirrors the paper's rows/series, plus the raw numbers so tests and the
benchmark harness can assert the reproduction's shape claims.

All experiments default to the 2-SM scaled Fermi configuration; ``scale``
shrinks or grows every workload's grid for quick runs.

Every experiment that simulates enumerates its runs up front as sweep
cells (:class:`~repro.analysis.orchestrator.SweepCell`) and runs them through
:func:`~repro.analysis.orchestrator.run_sweep`, the one cell runner: cells
run in-process by default, or in isolated worker processes with
``jobs``/``directory`` (wall-clock deadlines, resume from a result-store
directory), under the same retry policy either way.  An experiment reads
its records through ``SweepResult.checked()``, so a cell that still fails
after its retries raises once the sweep is done; E5 and X4 take
``keep_going`` and render such a cell as ``FAILED(<reason>)`` instead.
"""

from __future__ import annotations

from repro.analysis.geomean import geomean, speedup_summary
from repro.analysis.orchestrator import SweepCell, matrix_cells, run_sweep
from repro.analysis.tables import ascii_bars, format_table
from repro.core.occupancy import occupancy
from repro.core.overhead import vt_overhead
from repro.isa.kernel import WARP_SIZE
from repro.kernels.registry import all_benchmarks, get
from repro.sim.config import ArchMode, GPUConfig, scaled_fermi

#: Benchmarks used for parameter sweeps: the scheduling-limited,
#: memory-sensitive subset where VT is active (sweeping the full suite
#: would mostly re-measure flat lines).
SWEEP_SUBSET = ("stride", "streamcluster", "hotspot", "pathfinder", "kmeans")

ARCHS = (ArchMode.BASELINE, ArchMode.VT, ArchMode.IDEAL_SCHED)


def default_config(**overrides) -> GPUConfig:
    return scaled_fermi(num_sms=2, **overrides)


def _cycles_cell(record) -> str | int:
    """A cycles table cell; ``NNN*`` marks a run that needed a retry."""
    if not record.ok:
        return record.failure
    return f"{record.cycles}*" if record.retried else record.cycles


def _vt_gains(benches, scale: float, cfgs: dict, *, label=str,
              base_cfg: GPUConfig | None = None, jobs=None, directory=None):
    """VT's speedup over baseline at each sweep point: ``(rows, data,
    records)``.

    ``cfgs`` maps each point to its config, run under VT; ``label(point)``
    is its row label.  Each point is normalized by its own config run
    under baseline, or by ``base_cfg``'s when the points share one.
    Records are keyed ``(point, bench, arch)``.
    """
    runs = [(point, c.with_(arch=ArchMode.VT)) for point, c in cfgs.items()]
    if base_cfg is None:
        runs += [(point, c.with_(arch=ArchMode.BASELINE))
                 for point, c in cfgs.items()]
    else:
        runs.append(("base", base_cfg.with_(arch=ArchMode.BASELINE)))
    cells = [SweepCell(b.name, c, scale, key=(point, b.name, c.arch))
             for point, c in runs for b in benches]
    records = run_sweep(cells, jobs=jobs, directory=directory).checked()
    rows = []
    data = {}
    for point in cfgs:
        base = point if base_cfg is None else "base"
        speedups = {b.name: records[(base, b.name, ArchMode.BASELINE)].cycles
                    / records[(point, b.name, ArchMode.VT)].cycles
                    for b in benches}
        gm = geomean(speedups.values())
        data[point] = {"speedups": speedups, "geomean": gm}
        rows.append((label(point),
                     *(f"x{speedups[b.name]:.3f}" for b in benches),
                     f"x{gm:.3f}"))
    return rows, data, records


# ---------------------------------------------------------------------------
# E1 — methodology table: simulated configuration
# ---------------------------------------------------------------------------

def e1_config_table(cfg: GPUConfig | None = None):
    """Table 1: the simulated GPU configuration."""
    cfg = cfg or default_config()
    rows = [
        ("SMs simulated", f"{cfg.num_sms} (per-SM parameters are GTX480-class)"),
        ("warp size", WARP_SIZE),
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
    cells = [SweepCell(b.name, cfg, scale, key=b.name) for b in all_benchmarks()]
    records = run_sweep(cells, jobs=jobs, directory=directory).checked()
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
    raises for the first failed cell once the matrix has run.  A cycles
    cell rendered as ``NNN*`` completed only after a retry.  ``jobs`` /
    ``directory`` run the matrix in isolated worker processes.
    ``benches`` (default: all) must be registry entries (:func:`matrix_cells`).
    """
    base_cfg = cfg or default_config()
    benches = list(benches) if benches is not None else all_benchmarks()
    result = run_sweep(matrix_cells(benches, ARCHS, base_cfg, scale),
                       jobs=jobs, directory=directory)
    records = result.records if keep_going else result.checked()
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
    cells = matrix_cells(all_benchmarks(), (ArchMode.BASELINE, ArchMode.VT),
                         base_cfg, scale)
    records = run_sweep(cells, jobs=jobs, directory=directory).checked()
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
    rows, data, _records = _vt_gains(
        [get(name) for name in subset], scale, {
            (base_cost, per_warp): base_cfg.with_(
                vt_swap_out_base=base_cost, vt_swap_out_per_warp=per_warp,
                vt_swap_in_base=base_cost, vt_swap_in_per_warp=per_warp)
            for base_cost, per_warp in points},
        label=lambda point: f"save/restore {point[0]}+{point[1]}/warp",
        base_cfg=base_cfg, jobs=jobs, directory=directory)
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
    rows, data, _records = _vt_gains(
        [get(name) for name in subset], scale,
        {mult: base_cfg.with_(vt_max_resident_multiplier=mult)
         for mult in multipliers},
        label=lambda mult: f"{mult:g}x",
        base_cfg=base_cfg, jobs=jobs, directory=directory)
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
    rows, data, _records = _vt_gains(
        [get(name) for name in subset], scale,
        {policy: base_cfg.with_(warp_scheduler=policy) for policy in schedulers},
        jobs=jobs, directory=directory)
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
    rows, data, _records = _vt_gains(
        [get(name) for name in subset], scale,
        {latency: base_cfg.with_(dram_latency=latency) for latency in latencies},
        label=lambda latency: f"{latency} cyc", jobs=jobs, directory=directory)
    report = format_table(
        ("DRAM latency", *subset, "geomean VT gain"),
        rows,
        title="E10 - VT gain vs DRAM latency",
    )
    return report, data


# ---------------------------------------------------------------------------
# E11 — hardware overhead
# ---------------------------------------------------------------------------

def e11_overhead(cfg: GPUConfig | None = None):
    """Overhead table: VT's backup SRAM next to the memory it virtualizes."""
    cfg = cfg or default_config()
    report_obj = vt_overhead(cfg)
    report = format_table(("item", "value"), report_obj.rows(),
                          title="E11 - Virtual Thread hardware overhead per SM")
    return report, {"overhead": report_obj}


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
    vt_cfgs = {label: base_cfg.with_(**overrides) for label, overrides in variants}
    rows, data, records = _vt_gains(benches, scale, vt_cfgs, base_cfg=base_cfg,
                                    jobs=jobs, directory=directory)
    for index, label in enumerate(vt_cfgs):
        swaps = sum(records[(label, b.name, ArchMode.VT)].stats.total_swaps
                    for b in benches)
        data[label]["swaps"] = swaps
        rows[index] = (*rows[index], swaps)
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
    cells = [SweepCell(bench.name, variant_cfg, scale, key=label)
             for label, variant_cfg in variants]
    records = run_sweep(cells, jobs=jobs, directory=directory).checked()
    rows = []
    data = {}
    base_cycles = records[variants[0][0]].cycles
    for label, _variant_cfg in variants:
        stats = records[label].stats
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
    cells = matrix_cells(benches, (ArchMode.BASELINE, ArchMode.VT), kepler, scale)
    records = run_sweep(cells, jobs=jobs, directory=directory).checked()
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
    cells = [SweepCell(name, chip_cfg.with_(arch=arch), chip_scale,
                       key=(name, label, arch))
             for name in subset for label, chip_cfg, chip_scale in chips
             for arch in (ArchMode.BASELINE, ArchMode.VT)]
    records = run_sweep(cells, jobs=jobs, directory=directory).checked()
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

def prediction_gate(cfg: GPUConfig, benches, scale: float = 1.0, *,
                    keep_going: bool = True, jobs: int | None = None,
                    directory=None):
    """The agreement gate over ``benches``, shared by X4 and ``repro
    predict --check``: ``(report, data)``.

    Every (kernel, arch) cell is predicted, simulated in one
    :func:`run_sweep` and judged: the static oracle's limiter class must
    match :mod:`repro.core.occupancy` and its idle-cycle class must match
    the simulator's dominant idle kind (``AGREEMENT_TIE`` tolerates
    genuine near-ties between the measured fractions, and at most
    ``MAX_TIE_CELLS`` cells may agree only that way).  The VT tier
    columns are reported for inspection but not gated — tier cut points
    quantize a continuous speedup.  ``data["problem"]`` is ``None`` when
    the gate passes, else ``(reason, ["bench/arch", ...])`` for the first
    failing check: simulation failures, disagreements, too many ties.
    """
    from repro.core.occupancy import limiter_summary
    from repro.isa.analysis.perf import (MAX_TIE_CELLS, idle_agreement,
                                         layout_for, measured_vt_tier,
                                         predict_kernel)

    archs = (ArchMode.BASELINE, ArchMode.VT)
    preds = {}
    for bench in benches:
        layout = layout_for(bench, scale)
        for p in predict_kernel(bench.kernel, cfg, archs=archs, layout=layout):
            preds[(bench.name, p.arch)] = p
    result = run_sweep(matrix_cells(benches, archs, cfg, scale),
                       jobs=jobs, directory=directory)
    records = result.records if keep_going else result.checked()

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
    ties = sorted(f"{name}/{arch}" for (name, arch), cell in cells.items()
                  if cell["predicted_idle"] != cell["measured_idle"])
    if failures:
        problem = ("simulation failures", [f"{n}/{a}" for n, a in failures])
    elif disagreements:
        problem = ("oracle disagrees with the simulator",
                   [f"{n}/{a}" for n, a in disagreements])
    elif len(ties) > MAX_TIE_CELLS:
        problem = (f"{len(ties)} tie-tolerance cells, at most "
                   f"{MAX_TIE_CELLS} allowed", ties)
    else:
        problem = None
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
            "failures": failures, "ties": ties, "problem": problem}
    return "\n".join(parts), data


def x4_prediction_table(cfg: GPUConfig | None = None, scale: float = 1.0,
                        keep_going: bool = True, jobs: int | None = None,
                        directory=None):
    """Predicted vs measured limiter / idle class / VT tier, all kernels:
    :func:`prediction_gate` over the registry (``repro predict --check``
    runs the same gate in CI)."""
    return prediction_gate(cfg or default_config(), list(all_benchmarks()),
                           scale, keep_going=keep_going, jobs=jobs,
                           directory=directory)


# ---------------------------------------------------------------------------
# X6 — static cycle bounds: soundness and tightness
# ---------------------------------------------------------------------------

def bound_cells(configs, benches, scale: float = 1.0, *,
                simulate: bool = True) -> dict:
    """The bound gate's cells, shared by X6 and ``repro bound``.

    ``configs`` maps gate-arch labels to configs.  Returns ``{(bench, arch,
    mode): cell}`` in gate order, each with its ``bound`` (a
    :class:`~repro.isa.analysis.bounds.KernelBound`), or with the
    ``error`` the analyzer raised.  With ``simulate`` the bounded cells run
    in one :func:`run_sweep` and gain their ``record``; an ok run adds
    ``sim`` (cycles), ``sound`` and ``trivial`` (``[<=1, >=budget]``).
    """
    from repro.isa.analysis.bounds import (IrregularControlFlow,
                                           UnboundedLoop, bench_bounds)

    cells = {}
    runs = []
    for arch, cfg in configs.items():
        for bench in benches:
            for mode in ("baseline", "vt"):
                key = (bench.name, arch, mode)
                try:
                    cells[key] = {"bound": bench_bounds(
                        bench, cfg, mode=mode, scale=scale, arch=arch)}
                except (UnboundedLoop, IrregularControlFlow) as exc:
                    cells[key] = {"error": exc}
                    continue
                runs.append(SweepCell(bench.name, cfg.with_(arch=mode), scale,
                                      key=key))
    if not simulate:
        return cells
    for key, record in run_sweep(runs).records.items():
        cell = cells[key]
        cell["record"] = record
        if record.ok:
            kb = cell["bound"]
            cell["sim"] = record.cycles
            cell["sound"] = kb.contains(record.cycles)
            cell["trivial"] = kb.lo <= 1 or kb.hi >= configs[key[1]].max_cycles
    return cells


def x6_bound_table(cfg: GPUConfig | None = None, scale: float = 1.0):
    """Sound [lo, hi] cycle intervals vs the simulator.

    The quantitative counterpart of X4: for every (kernel, gate arch,
    mode) cell, :func:`repro.isa.analysis.bounds.bench_bounds` derives a
    closed interval the simulated cycle count must fall into; the table
    reports the measured count, containment, and the ``hi/lo`` tightness
    ratio.  ``repro bound --all --check`` gates the same cells
    (:func:`bound_cells`) in CI.

    ``cfg`` overrides the gate arches with a single custom config.
    """
    from repro.isa.analysis.bounds import gate_configs

    configs = {cfg.arch or "custom": cfg} if cfg is not None else gate_configs()
    benches = sorted(all_benchmarks(), key=lambda b: b.name)

    cells = bound_cells(configs, benches, scale)
    rows = []
    for key, cell in cells.items():
        if "error" in cell:
            raise cell["error"]
        kb = cell["bound"]
        cycles = cell["record"].cycles  # a failed run raises RunFailed
        rows.append((*key, kb.lo, cycles, kb.hi, f"{kb.tightness:.1f}x",
                     "yes" if cell["sound"] else "NO"))
    violations = [key for key, cell in cells.items() if not cell["sound"]]
    bound_report = format_table(
        ("benchmark", "arch", "mode", "lo", "sim", "hi", "hi/lo", "sound"),
        rows,
        title=(f"X6 (validation) - static cycle bounds vs simulator "
               f"({len(cells) - len(violations)}/{len(cells)} cells contained)"),
    )

    parts = [bound_report]
    if violations:
        parts.append("")
        parts.append("VIOLATIONS (the bound gate fails):")
        for key in violations:
            kb = cells[key]["bound"]
            parts.append(f"  {'/'.join(key)}: sim {cells[key]['sim']} "
                         f"outside [{kb.lo}, {kb.hi}]")
    return "\n".join(parts), {"cells": cells, "violations": violations}


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
    passed after a retry.  ``benches`` are registry names or entries.

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
    _table, result = sweep_report(benches, archs, scale, sms, jobs=jobs,
                                  directory=store, sanitize=True)
    records = result.records
    rows = {}
    failures = []
    for (name, arch), record in records.items():
        if record.ok:
            marker = "*" if record.retried else ""
            cell = f"ok{marker} ({record.cycles} cyc)"
        else:
            cell = record.failure
            failures.append((name, arch, record))
        rows.setdefault(name, [name]).append(cell)
    report = format_table(
        ("benchmark", *archs), [tuple(row) for row in rows.values()],
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
                 *, jobs: int | None = None, wall_timeout: float | None = None,
                 retries: int = 1, directory=None,
                 max_cycles: int | None = None, sanitize: bool = False,
                 fast_forward: bool = True, engine: str = "serial",
                 sim_jobs: int = 1, progress=None):
    """The (benchmark x arch) matrix through :func:`run_sweep`.

    Returns ``(report, result)`` where ``result`` is the
    :class:`~repro.analysis.orchestrator.SweepResult` — the report is the
    final ok/retried/failed summary table with dump paths.  With
    ``directory`` (a result-store root) every finished cell is persisted
    there, so re-running into the same directory after any crash runs
    only the missing cells.
    """
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
