"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — the benchmark suite with categories and limiter classes.
* ``run BENCH`` — simulate one benchmark under one architecture.
* ``compare BENCH`` — baseline vs VT vs ideal-sched side by side.
* ``experiment ID`` — regenerate a paper artifact (E1..E12) or an
  extension table (X1..X4, X6).
* ``sweep`` — the (benchmark x arch) matrix through the process-isolated
  orchestrator: parallel workers, wall-clock kill, and retries.  ``--dir``
  is a result-store directory: every finished cell is committed there,
  and re-running into the same directory resumes (only missing cells
  run); ``--format json`` prints a machine-readable summary.
* ``doctor`` — sanitizer-on smoke sweep over the whole suite; ``--store``
  audits a result store (verify checksums, quarantine, GC) first.
* ``occupancy BENCH`` — the occupancy calculator's view of a kernel.
* ``disasm BENCH`` — disassemble a benchmark kernel.
* ``profile BENCH`` — static instruction-mix / control-flow profile.
* ``lint [BENCH]`` — static kernel verifier (``--format json`` for CI).
* ``predict [BENCH]`` — static performance oracle: limiter, idle-cycle
  class, VT tier; ``--check`` simulates every cell and fails on any
  prediction/measurement disagreement (the CI agreement gate).
* ``selfcheck [ROOT]`` — AST static analyzer over the simulator's own
  sources: shard-isolation race detection, determinism lint, and
  serialization schema-drift checks (``--strict``, ``--format json``);
  findings are waived only by justified inline comments.

Failures exit cleanly: simulation timeouts and deadlocks print a one-line
error plus the path of the forensic dump (exit 1) instead of a traceback,
and an interrupted ``sweep`` prints how to resume it.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import tempfile

from repro.analysis.experiments import ALL_EXPERIMENTS, doctor_report
from repro.analysis.runner import run_benchmark
from repro.analysis.tables import format_table
from repro.core.occupancy import occupancy
from repro.kernels.registry import all_benchmarks, get
from repro.records import RunFailed
from repro.sim.config import ArchMode, scaled_fermi
from repro.sim.gpu import ProgressDeadlock, SimulationTimeout
from repro.sim.sanitizer import InvariantViolation


def positive_float(text: str) -> float:
    value = float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return value


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text!r}")
    return value


def nonneg_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _config(args, arch: str):
    overrides = {}
    if getattr(args, "scheduler", None):
        overrides["warp_scheduler"] = args.scheduler
    if getattr(args, "sanitize", False):
        overrides["sanitize"] = True
    if getattr(args, "no_fast_forward", False):
        overrides["fast_forward"] = False
    if getattr(args, "engine", None):
        overrides["engine"] = args.engine
    if getattr(args, "sim_jobs", None):
        overrides["sim_jobs"] = args.sim_jobs
    return scaled_fermi(num_sms=args.sms, arch=arch, **overrides)


def cmd_list(_args) -> int:
    from repro.core.occupancy import limiter_summary

    rows = []
    for bench in all_benchmarks():
        rows.append((bench.name, bench.category,
                     limiter_summary(bench.kernel)["limiter"], bench.suite,
                     bench.description))
    print(format_table(("benchmark", "class", "limiter", "models", "description"), rows))
    return 0


def cmd_run(args) -> int:
    bench = get(args.benchmark)
    cfg = _config(args, args.arch)
    if args.profile:
        from repro.analysis.profiling import (
            format_profile,
            profile_run,
            write_profile,
        )

        record, report = profile_run(
            lambda: run_benchmark(bench, cfg, scale=args.scale,
                                  max_cycles=args.max_cycles))
        write_profile(report, args.profile)
    else:
        report = None
        record = run_benchmark(bench, cfg, scale=args.scale,
                               max_cycles=args.max_cycles)
    print(f"{bench.name} on {args.arch} (scale {args.scale:g}, {args.sms} SMs):")
    print(record.stats.summary())
    if report is not None:
        print(f"\ncomponent time (cProfile, written to {args.profile}):")
        print(format_profile(report))
    return 0


def cmd_compare(args) -> int:
    bench = get(args.benchmark)
    rows = []
    baseline_cycles = None
    for arch in ArchMode.ALL:
        record = run_benchmark(bench, _config(args, arch), scale=args.scale,
                               max_cycles=args.max_cycles)
        stats = record.stats
        if baseline_cycles is None:
            baseline_cycles = stats.cycles
        rows.append((
            arch, stats.cycles, f"{stats.ipc:.3f}",
            f"{stats.avg_resident_warps:.1f}", stats.total_swaps,
            f"x{baseline_cycles / stats.cycles:.3f}",
        ))
    print(format_table(
        ("architecture", "cycles", "IPC", "resident warps/SM", "swaps", "speedup"),
        rows, title=f"{bench.name} (scale {args.scale:g}, {args.sms} SMs)",
    ))
    return 0


def cmd_experiment(args) -> int:
    key = args.id.upper()
    if key not in ALL_EXPERIMENTS:
        print(f"unknown experiment {args.id!r}; choose from {', '.join(ALL_EXPERIMENTS)}",
              file=sys.stderr)
        return 2
    fn = ALL_EXPERIMENTS[key]
    params = inspect.signature(fn).parameters
    kwargs = {}
    if key not in ("E1", "E2", "E3", "E11"):
        kwargs["scale"] = args.scale
    # Crash tolerance is opt-out: experiments that support keep_going mark
    # failing cells FAILED(<reason>) unless --strict asks them to raise.
    if "keep_going" in params:
        kwargs["keep_going"] = not args.strict
    # --jobs routes the experiment's simulation runs through the
    # process-isolated sweep orchestrator (static tables have no runs).
    if "jobs" in params and args.jobs is not None:
        kwargs["jobs"] = args.jobs
    # --dir reads/writes the experiment's cells through the result store
    # at DIR (repeat runs into it stop re-simulating).
    if "directory" in params and args.dir is not None:
        kwargs["directory"] = args.dir
    report, _data = fn(**kwargs)
    print(report)
    return 0


def cmd_sweep(args) -> int:
    import json

    from repro.analysis.experiments import sweep_report

    sweep_dir = args.dir or tempfile.mkdtemp(prefix="repro-sweep-")
    # In JSON mode stdout carries only the summary document.
    info = sys.stderr if args.format == "json" else sys.stdout
    print(f"sweep directory: {sweep_dir} "
          f"(resume an interrupted sweep by re-running with --dir {sweep_dir})",
          file=info)
    try:
        report, result = sweep_report(
            benches=args.benchmarks or None,
            scale=args.scale, sms=args.sms,
            jobs=0 if args.serial else args.jobs,
            wall_timeout=args.wall_timeout, retries=args.retries,
            directory=sweep_dir,
            max_cycles=args.max_cycles, sanitize=args.sanitize,
            fast_forward=not args.no_fast_forward,
            engine=args.engine, sim_jobs=args.sim_jobs,
            progress=lambda message: print(f"  {message}", file=sys.stderr),
        )
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed cells are stored — resume by "
              f"re-running with --dir {sweep_dir}", file=sys.stderr)
        return 130
    if args.format == "json":
        print(json.dumps(result.to_summary(), indent=2))
    else:
        print(report)
    return 0 if result.ok else 1


def cmd_doctor(args) -> int:
    report, data = doctor_report(scale=args.scale, sms=args.sms,
                                 benches=args.benchmarks or None,
                                 fuzz_dir=args.fuzz_dir, directory=args.store)
    print(report)
    stale = any(entry.get("stale") or "error" in entry
                for entry in data.get("reproducers", []))
    store_sick = ("store_report" in data
                  and not data["store_report"].healthy)
    return 1 if (data["failures"] or stale or store_sick) else 0


def cmd_fuzz(args) -> int:
    from repro.fuzz.campaign import (
        CANARY_FAULT,
        MAX_SHRINKS,
        StaleReproducerError,
        load_reproducer,
        replay_reproducer,
        run_campaign,
    )
    from repro.fuzz.differential import DEFAULT_MAX_CYCLES
    from repro.fuzz.generator import GenConfig

    max_cycles = args.max_cycles or DEFAULT_MAX_CYCLES

    if args.replay:
        try:
            result = replay_reproducer(args.replay, max_cycles=max_cycles)
        except StaleReproducerError as exc:
            print(f"stale reproducer: {exc}", file=sys.stderr)
            return 2
        if result.ok:
            print(f"{args.replay}: no divergence — the dumped bug no longer "
                  f"reproduces on this tree")
            return 0
        print(f"{args.replay}: divergence reproduces "
              f"({result.instructions} instructions)")
        for divergence in result.divergences:
            print(f"  {divergence}")
        return 1

    fuzz_dir = args.dir or tempfile.mkdtemp(prefix="repro-fuzz-")
    print(f"fuzz directory: {fuzz_dir} "
          f"(resume an interrupted campaign by re-running with --dir {fuzz_dir})")

    fault = CANARY_FAULT if args.canary else None
    gen = GenConfig(max_segments=args.max_segments)
    try:
        result = run_campaign(
            args.n, seed=args.seed, gen=gen,
            jobs=0 if args.serial else args.jobs,
            wall_timeout=args.wall_timeout, time_budget=args.time_budget,
            directory=fuzz_dir,
            fault=fault, max_cycles=max_cycles,
            progress=lambda message: print(f"  {message}", file=sys.stderr),
        )
    except KeyboardInterrupt:
        print(f"\ninterrupted; completed cases are stored — resume by "
              f"re-running with --dir {fuzz_dir}", file=sys.stderr)
        return 130

    stats = result.stats
    rows = [(key, stats[key]) for key in
            ("cases", "ok", "divergent", "instructions_min",
             "instructions_max", "instructions_mean")]
    rows += [(f"segments[{kind}]", count)
             for kind, count in stats["segment_kinds"].items()]
    print(format_table(("corpus", "value"), rows,
                       title=f"fuzz campaign - seeds {args.seed}.."
                             f"{args.seed + args.n - 1}"))
    if result.seeds_skipped:
        print(f"\ntime budget hit: {len(result.seeds_skipped)} seed(s) unrun "
              f"(resume by re-running with --dir {fuzz_dir})")
    for entry in result.divergent:
        kinds = sorted({d["kind"] for d in entry["divergences"]}) or ["?"]
        where = entry.get("path", "(no reproducer written)")
        outcome = (f"not shrunk (beyond the shrink cap of {MAX_SHRINKS})"
                   if entry["shrink"].get("skipped")
                   else f"{entry['instructions']} instruction reproducer")
        print(f"\nDIVERGENCE {entry['key']}: {', '.join(kinds)} "
              f"-> {outcome}\n  {where}")

    if args.canary:
        # Self-test: the pipeline must detect the planted fault (as a
        # fast-forward stats mismatch, not another bug the shrinker drifted
        # to), shrink it to a tiny reproducer, and replay it deterministically.
        problems = []
        if not result.divergent:
            problems.append("planted fault was not detected")
        if not result.reproducer_paths:
            problems.append("no reproducer was written")
        for path in result.reproducer_paths:
            data = load_reproducer(path)
            if data["instructions"] is None or data["instructions"] > 8:
                problems.append(f"reproducer not minimal: "
                                f"{data['instructions']} instructions (> 8)")
            found = {(d["kind"], d["leg"].split("/")[-1])
                     for d in data["divergences"]}
            if found != {("stats-mismatch", "fast-forward")}:
                problems.append(f"not the planted fault: {sorted(found)}")
            first = replay_reproducer(path, max_cycles=max_cycles)
            second = replay_reproducer(path, max_cycles=max_cycles)
            if first.ok:
                problems.append("reproducer does not replay the divergence")
            elif ([d.to_dict() for d in first.divergences]
                  != [d.to_dict() for d in second.divergences]):
                problems.append("replay is not deterministic")
        if problems:
            print("\nCANARY FAIL: " + "; ".join(problems), file=sys.stderr)
            return 1
        print("\nCANARY OK: planted fault detected, shrunk to "
              "<= 8 instructions, and replayed deterministically")
        return 0

    if not result.ok:
        print(f"\nFAIL: {len(result.divergent)} divergent case(s)",
              file=sys.stderr)
        return 1
    print(f"\nOK: {stats['ok']}/{stats['cases']} cases clean across "
          f"engines, architectures, and the sanitizer")
    return 0


def cmd_occupancy(args) -> int:
    bench = get(args.benchmark)
    occ = occupancy(bench.kernel, _config(args, ArchMode.BASELINE))
    def fmt(count: int) -> str:
        return "unbounded" if count >= 10**9 else str(count)

    rows = [
        ("CTA slots", fmt(occ.ctas_by_cta_slots)),
        ("warp slots", fmt(occ.ctas_by_warp_slots)),
        ("thread slots", fmt(occ.ctas_by_thread_slots)),
        ("registers", fmt(occ.ctas_by_registers)),
        ("shared memory", fmt(occ.ctas_by_smem)),
    ]
    print(format_table(("constraint", "CTAs/SM it allows"), rows,
                       title=f"{bench.name}: occupancy analysis"))
    print(f"\nbaseline residency: {occ.baseline_ctas} CTAs/SM "
          f"({occ.limiter.value}-limited via {occ.binding_resource}); "
          f"VT headroom {occ.vt_headroom:.2f}x")
    return 0


def cmd_profile(args) -> int:
    from repro.isa.profile import kernel_profile

    bench = get(args.benchmark)
    profile = kernel_profile(bench.kernel)
    print(format_table(("property", "value"), profile.rows(),
                       title=f"{bench.name}: static kernel profile"))
    return 0


def cmd_disasm(args) -> int:
    print(get(args.benchmark).kernel.disassemble())
    return 0


def cmd_lint(args) -> int:
    import json

    from repro.isa.analysis import RULES, lint_kernel

    if args.all and args.benchmark:
        print("error: pass either --all or a benchmark name, not both",
              file=sys.stderr)
        return 2
    if args.benchmark:
        benches = [get(args.benchmark)]
    else:
        benches = list(all_benchmarks())
    reports = [lint_kernel(bench.kernel) for bench in benches]
    if args.format == "json":
        payload = [rep.to_dict(strict=args.strict) for rep in reports]
        print(json.dumps(payload, indent=2))
        return 0 if all(rep.ok(strict=args.strict) for rep in reports) else 1
    print(f"linting {len(benches)} kernel(s): "
          f"{', '.join(bench.name for bench in benches[:8])}"
          f"{', ...' if len(benches) > 8 else ''}\n")

    rows = []
    for rep in reports:
        for f in rep.findings:
            rows.append((f.kernel, f.pc if f.pc is not None else "-",
                         f.rule, f.severity, f.message))
    if rows:
        print(format_table(("kernel", "pc", "rule", "severity", "finding"), rows,
                           title="lint findings"))
    else:
        print("lint findings: none")

    counts = {rule: 0 for rule in RULES}
    for rep in reports:
        for f in rep.findings:
            counts[f.rule] += 1
    summary = [(rule, RULES[rule][0], counts[rule], RULES[rule][1])
               for rule in RULES]
    print()
    print(format_table(("rule", "severity", "findings", "description"), summary,
                       title=f"rule summary ({len(reports)} kernels)"))

    failed = [rep.kernel for rep in reports if not rep.ok(strict=args.strict)]
    gate = "errors or warnings" if args.strict else "errors"
    if failed:
        print(f"\nFAIL ({gate}): {', '.join(failed)}")
        return 1
    print(f"\nOK: no {gate} across {len(reports)} kernel(s)")
    return 0


def cmd_selfcheck(args) -> int:
    import json
    from pathlib import Path

    import repro
    from repro.selfcheck import run_selfcheck

    root = Path(args.root) if args.root else Path(repro.__file__).parent
    if not root.is_dir():
        print(f"error: not a directory: {root}", file=sys.stderr)
        return 2
    try:
        report = run_selfcheck(root)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(json.dumps(report.to_dict(strict=args.strict), indent=2))
    else:
        print(report.render_table(strict=args.strict))
    return 0 if report.ok(strict=args.strict) else 1


def cmd_predict(args) -> int:
    import json

    from repro.isa.analysis.perf import layout_for, predict_kernel

    if args.all and args.benchmark:
        print("error: pass either --all or a benchmark name, not both",
              file=sys.stderr)
        return 2
    benches = ([get(args.benchmark)] if args.benchmark
               else list(all_benchmarks()))
    cfg = scaled_fermi(num_sms=args.sms)

    if args.check:
        # The agreement gate: simulate each predicted cell and require the
        # static oracle to match (X4 is the same gate over every kernel).
        from repro.analysis.experiments import prediction_gate
        from repro.isa.analysis.perf import MAX_TIE_CELLS

        report, data = prediction_gate(cfg, benches, args.scale,
                                       jobs=args.jobs)
        if args.format == "json":
            cells = {f"{name}/{arch}": cell
                     for (name, arch), cell in data["cells"].items()}
            print(json.dumps({"cells": cells,
                              "disagreements": data["disagreements"]},
                             indent=2))
        else:
            print(report)
            print(f"\n{len(data['ties'])} cell(s) agree only within tie "
                  f"tolerance (at most {MAX_TIE_CELLS} allowed)")
        if data["problem"]:
            reason, failed = data["problem"]
            print(f"\nFAIL ({reason}): {', '.join(failed)}", file=sys.stderr)
            return 1
        if args.format != "json":
            print("\nOK: static oracle agrees with the simulator on every cell")
        return 0

    predictions = []
    for bench in benches:
        layout = layout_for(bench, args.scale)
        predictions.extend(predict_kernel(bench.kernel, cfg, layout=layout))
    if args.format == "json":
        print(json.dumps([p.to_dict() for p in predictions], indent=2))
        return 0
    rows = [(p.kernel, p.arch, p.limiter, p.idle_class, p.vt_tier,
             p.warps, f"{p.busy:.2f}", p.binding)
            for p in predictions]
    print(format_table(
        ("kernel", "arch", "limiter", "idle class", "VT tier", "warps",
         "busy", "binding rule"),
        rows, title="static performance predictions (no simulation)"))
    return 0


def _bound_failure(problems) -> int:
    """Name every failing bound cell on stderr (in either format)."""
    print(f"\nFAIL ({len(problems)} problem(s)):", file=sys.stderr)
    for arch, name, mode, why in problems:
        print(f"  {name}/{arch}/{mode}: {why}", file=sys.stderr)
    return 1


def cmd_bound(args) -> int:
    import json

    from repro.analysis.experiments import bound_cells
    from repro.isa.analysis.bounds import gate_configs

    if args.all and args.benchmark:
        print("error: pass either --all or a benchmark name, not both",
              file=sys.stderr)
        return 2
    benches = ([get(args.benchmark)] if args.benchmark
               else sorted(all_benchmarks(), key=lambda b: b.name))
    configs = gate_configs(args.sms)

    # The soundness gate shares X6's cells: with --check each simulated
    # cycle count must fall inside its static interval, and no interval
    # may be the trivial [<=1, >=budget] one.
    cells = []
    problems = []
    gate = bound_cells(configs, benches, args.scale, simulate=args.check)
    for (name, arch, mode), cell in gate.items():
        if "error" in cell:
            problems.append((arch, name, mode, str(cell["error"])))
            continue
        kb = cell["bound"]
        entry = kb.to_dict()
        record = cell.get("record")
        if record is not None and not record.ok:
            # A simulation failure, not a bound bug.
            entry["sim_error"] = record.error
            if args.strict:
                problems.append((arch, name, mode, f"sim: {record.error}"))
        elif record is not None:
            entry.update(sim_cycles=cell["sim"], sound=cell["sound"],
                         trivial=cell["trivial"])
            if not cell["sound"]:
                problems.append((arch, name, mode, f"sim {cell['sim']} "
                                 f"outside [{kb.lo}, {kb.hi}]"))
            if cell["trivial"]:
                problems.append((arch, name, mode,
                                 f"trivial interval [{kb.lo}, {kb.hi}]"))
        cells.append(entry)

    if args.format == "json":
        print(json.dumps({"cells": cells,
                          "problems": [list(p) for p in problems]},
                         indent=2))
        return _bound_failure(problems) if problems else 0

    headers = ["kernel", "arch", "mode", "lo", "hi", "tightness"]
    if args.check:
        headers += ["sim", "sound"]
    rows = []
    for record in cells:
        row = [record["kernel"], record["arch"], record["mode"],
               record["lo"], record["hi"], f'{record["tightness"]:.1f}x']
        if args.check:
            row += [record.get("sim_cycles", record.get("sim_error", "-")),
                    {True: "yes", False: "NO"}.get(record.get("sound"), "-")]
        rows.append(tuple(row))
    print(format_table(tuple(headers), rows,
                       title="static total-cycle bounds"
                             + (" (soundness gate)" if args.check else "")))
    if problems:
        return _bound_failure(problems)
    if args.check:
        checked = [r for r in cells if "sim_cycles" in r]
        worst = max(checked, key=lambda r: r["tightness"], default=None)
        print(f"\nOK: {len(checked)} cell(s) sound"
              + (f"; worst tightness {worst['tightness']:.1f}x "
                 f"({worst['kernel']}/{worst['arch']}/{worst['mode']})"
                 if worst else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Virtual Thread (ISCA 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the benchmark suite").set_defaults(fn=cmd_list)

    def add_sim_args(p, with_arch=True):
        p.add_argument("benchmark", help="benchmark name (see `repro list`)")
        if with_arch:
            p.add_argument("--arch", choices=ArchMode.ALL, default=ArchMode.BASELINE)
        p.add_argument("--scale", type=positive_float, default=1.0,
                       help="workload scale factor (> 0)")
        p.add_argument("--sms", type=positive_int, default=2,
                       help="simulated SM count (>= 1)")
        p.add_argument("--scheduler", choices=("lrr", "gto", "two-level"), default=None)
        p.add_argument("--sanitize", action="store_true",
                       help="check invariants every stepped cycle (slower)")
        p.add_argument("--engine", choices=("serial", "parallel"),
                       default="serial",
                       help="simulation engine: the serial per-cycle loop or "
                            "the sharded epoch engine (identical stats)")
        p.add_argument("--jobs", dest="sim_jobs", type=positive_int, default=1,
                       help="worker shards for --engine parallel "
                            "(1 = in-process shards, >1 = forked workers)")
        p.add_argument("--no-fast-forward", action="store_true",
                       help="force the per-cycle reference engine instead of "
                            "the event-driven fast-forward engine (slower; "
                            "statistics are identical either way)")
        p.add_argument("--max-cycles", type=positive_int, default=None,
                       help="override the hard cycle budget")

    run_p = sub.add_parser("run", help="simulate one benchmark")
    run_p.add_argument("--profile", metavar="PATH", default=None,
                       help="profile the run and write per-component "
                            "wall-time JSON to PATH")
    add_sim_args(run_p)
    run_p.set_defaults(fn=cmd_run)

    cmp_p = sub.add_parser("compare", help="baseline vs VT vs ideal-sched")
    add_sim_args(cmp_p, with_arch=False)
    cmp_p.set_defaults(fn=cmd_compare)

    exp_p = sub.add_parser("experiment", help="regenerate a paper artifact")
    exp_p.add_argument("id", help="experiment id: " + ", ".join(ALL_EXPERIMENTS))
    exp_p.add_argument("--scale", type=positive_float, default=1.0)
    exp_p.add_argument("--strict", action="store_true",
                       help="once every run has finished, fail on the first "
                            "failed one instead of rendering "
                            "FAILED(<reason>) cells")
    exp_p.add_argument("--jobs", type=positive_int, default=None,
                       help="run the experiment's simulations through the "
                            "process-isolated orchestrator with N workers")
    exp_p.add_argument("--dir", metavar="DIR", default=None,
                       help="read/write simulation cells through the "
                            "result store at DIR (re-runs read them back)")
    exp_p.set_defaults(fn=cmd_experiment)

    sweep_p = sub.add_parser(
        "sweep", help="run the benchmark x arch matrix with process "
                      "isolation, checkpointing, and resume")
    sweep_p.add_argument("--benchmark", action="append", dest="benchmarks",
                         metavar="BENCH", default=None,
                         help="restrict to specific benchmarks (repeatable)")
    sweep_p.add_argument("--scale", type=positive_float, default=1.0)
    sweep_p.add_argument("--sms", type=positive_int, default=2)
    sweep_p.add_argument("--jobs", type=positive_int, default=2,
                         help="worker subprocesses (default 2)")
    sweep_p.add_argument("--serial", action="store_true",
                         help="run in-process (no isolation; still stored)")
    sweep_p.add_argument("--engine", choices=("serial", "parallel"),
                         default="serial",
                         help="simulation engine for every cell "
                              "(identical stats either way)")
    sweep_p.add_argument("--sim-jobs", type=positive_int, default=1,
                         help="worker shards inside each cell for "
                              "--engine parallel (distinct from --jobs)")
    sweep_p.add_argument("--wall-timeout", type=positive_float, default=None,
                         metavar="SECONDS",
                         help="kill any cell exceeding this wall-clock budget")
    sweep_p.add_argument("--retries", type=nonneg_int, default=1,
                         help="extra attempts for retryable failures (default 1)")
    sweep_p.add_argument("--dir", default=None,
                         help="result-store directory for cells, failures, "
                              "and dumps; re-running into it resumes "
                              "(default: a fresh temp directory)")
    sweep_p.add_argument("--max-cycles", type=positive_int, default=None,
                         help="per-run hard cycle budget")
    sweep_p.add_argument("--sanitize", action="store_true",
                         help="check invariants every stepped cycle (slower)")
    sweep_p.add_argument("--no-fast-forward", action="store_true",
                         help="force the per-cycle reference engine for every "
                              "cell (slower; statistics are identical)")
    sweep_p.add_argument("--format", choices=("table", "json"), default="table",
                         help="machine-readable JSON summary on stdout "
                              "(progress and the directory line move to stderr)")
    sweep_p.set_defaults(fn=cmd_sweep)

    doc_p = sub.add_parser(
        "doctor", help="sanitizer-on smoke sweep over the suite")
    doc_p.add_argument("--scale", type=positive_float, default=0.25)
    doc_p.add_argument("--sms", type=positive_int, default=1)
    doc_p.add_argument("--benchmark", action="append", dest="benchmarks",
                       metavar="BENCH", default=None,
                       help="restrict to specific benchmarks (repeatable)")
    doc_p.add_argument("--fuzz-dir", metavar="DIR", default=None,
                       help="also list fuzz reproducer dumps under DIR "
                            "(stale or unreadable dumps fail the doctor)")
    doc_p.add_argument("--store", metavar="DIR", default=None,
                       help="audit the result store at DIR first — verify "
                            "every entry's checksum, quarantine corruption, "
                            "collect orphan temp files — then run the smoke "
                            "sweep through it (new corruption fails the "
                            "doctor)")
    doc_p.set_defaults(fn=cmd_doctor)

    fuzz_p = sub.add_parser(
        "fuzz", help="property-based kernel fuzzing: generated kernels "
                     "through every engine/arch against a reference "
                     "executor, with shrinking and replayable reproducers")
    fuzz_p.add_argument("--n", type=positive_int, default=50,
                        help="number of seeded cases (default 50)")
    fuzz_p.add_argument("--seed", type=nonneg_int, default=0,
                        help="first seed; cases use seed..seed+n-1")
    fuzz_p.add_argument("--jobs", type=positive_int, default=2,
                        help="worker subprocesses (default 2)")
    fuzz_p.add_argument("--serial", action="store_true",
                        help="run in-process (no isolation; still stored)")
    fuzz_p.add_argument("--time-budget", type=positive_float, default=None,
                        metavar="SECONDS",
                        help="stop launching new batches after this much "
                             "wall-clock; remaining seeds stay resumable")
    fuzz_p.add_argument("--wall-timeout", type=positive_float, default=120.0,
                        metavar="SECONDS",
                        help="kill any single case exceeding this wall-clock "
                             "budget (default 120)")
    fuzz_p.add_argument("--dir", default=None,
                        help="campaign result-store directory for cases and "
                             "reproducers; re-running into it resumes "
                             "(default: a fresh temp directory)")
    fuzz_p.add_argument("--max-cycles", type=positive_int, default=None,
                        help="per-leg hard cycle budget")
    fuzz_p.add_argument("--max-segments", type=positive_int, default=6,
                        help="largest kernels to generate (default 6 segments)")
    fuzz_p.add_argument("--canary", action="store_true",
                        help="self-test: plant a known fault on the "
                             "fast-forward leg and verify it is detected, "
                             "shrunk to <= 8 instructions, and replayable")
    fuzz_p.add_argument("--replay", metavar="FILE", default=None,
                        help="replay a reproducer dump; exits 1 if the "
                             "divergence reproduces, 0 if clean, 2 if the "
                             "dump is stale")
    fuzz_p.set_defaults(fn=cmd_fuzz)


    occ_p = sub.add_parser("occupancy", help="occupancy analysis of a kernel")
    add_sim_args(occ_p, with_arch=False)
    occ_p.set_defaults(fn=cmd_occupancy)

    dis_p = sub.add_parser("disasm", help="disassemble a benchmark kernel")
    dis_p.add_argument("benchmark")
    dis_p.set_defaults(fn=cmd_disasm)

    prof_p = sub.add_parser("profile", help="static kernel profile")
    prof_p.add_argument("benchmark")
    prof_p.set_defaults(fn=cmd_profile)

    lint_p = sub.add_parser(
        "lint", help="static kernel verifier: dataflow, barrier, shared-memory "
                     "and structural checks")
    lint_p.add_argument("benchmark", nargs="?", default=None,
                        help="benchmark to lint (default: every registry kernel)")
    lint_p.add_argument("--all", action="store_true",
                        help="lint every registry kernel (the default when no "
                             "benchmark is named)")
    lint_p.add_argument("--strict", action="store_true",
                        help="fail on warnings as well as errors")
    lint_p.add_argument("--format", choices=("table", "json"), default="table",
                        help="machine-readable JSON instead of tables")
    lint_p.set_defaults(fn=cmd_lint)

    pred_p = sub.add_parser(
        "predict", help="static performance oracle: limiter, idle-cycle "
                        "class, and VT tier without simulating")
    pred_p.add_argument("benchmark", nargs="?", default=None,
                        help="benchmark to predict (default: every registry "
                             "kernel)")
    pred_p.add_argument("--all", action="store_true",
                        help="predict every registry kernel (the default "
                             "when no benchmark is named)")
    pred_p.add_argument("--check", action="store_true",
                        help="agreement gate: simulate each cell and fail "
                             "unless the prediction matches (runs the full "
                             "X4 validation matrix)")
    pred_p.add_argument("--scale", type=positive_float, default=1.0)
    pred_p.add_argument("--sms", type=positive_int, default=2)
    pred_p.add_argument("--jobs", type=positive_int, default=None,
                        help="with --check: run the simulations through the "
                             "process-isolated orchestrator with N workers")
    pred_p.add_argument("--format", choices=("table", "json"), default="table",
                        help="machine-readable JSON instead of tables")
    pred_p.set_defaults(fn=cmd_predict)

    bound_p = sub.add_parser(
        "bound", help="sound static [lo, hi] total-cycle bounds per "
                      "kernel x arch x mode")
    bound_p.add_argument("benchmark", nargs="?", default=None,
                         help="benchmark to bound (default: every registry "
                              "kernel)")
    bound_p.add_argument("--all", action="store_true",
                         help="bound every registry kernel (the default "
                              "when no benchmark is named)")
    bound_p.add_argument("--check", action="store_true",
                         help="soundness gate: simulate each cell and fail "
                              "unless its cycle count falls inside the "
                              "static interval (and no interval is trivial)")
    bound_p.add_argument("--strict", action="store_true",
                         help="with --check: also fail on simulation "
                              "errors (otherwise reported and skipped)")
    bound_p.add_argument("--scale", type=positive_float, default=1.0)
    bound_p.add_argument("--sms", type=positive_int, default=None,
                         help="restrict to one scaled-Fermi config with N "
                              "SMs (default: the three gate arches)")
    bound_p.add_argument("--format", choices=("table", "json"),
                         default="table",
                         help="machine-readable JSON instead of tables")
    bound_p.set_defaults(fn=cmd_bound)

    self_p = sub.add_parser(
        "selfcheck", help="static analyzer over the simulator's own "
                          "sources: shard isolation, determinism, and "
                          "serialization schema integrity")
    self_p.add_argument("root", nargs="?", default=None,
                        help="source tree to analyze (default: the "
                             "installed repro package)")
    self_p.add_argument("--strict", action="store_true",
                        help="fail on warnings as well as errors")
    self_p.add_argument("--format", choices=("table", "json"),
                        default="table",
                        help="machine-readable JSON instead of tables")
    self_p.set_defaults(fn=cmd_selfcheck)

    return parser


def _report_failure(message: str, dump: str | None) -> int:
    """Print a failed simulation and persist its forensic dump; exit 1."""
    print(message, file=sys.stderr)
    if dump:
        with tempfile.NamedTemporaryFile(
                "w", prefix="repro-dump-", suffix=".txt", delete=False) as handle:
            handle.write(dump + "\n")
        print(f"diagnostic dump written to {handle.name}", file=sys.stderr)
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except SimulationTimeout as exc:
        kind = "deadlock" if isinstance(exc, ProgressDeadlock) else "timeout"
        return _report_failure(f"simulation {kind}: {exc}", exc.dump)
    except RunFailed as exc:  # a failed cell of a strict experiment
        return _report_failure(f"simulation {exc.record.status}: {exc}",
                               exc.record.dump)
    except FileExistsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
