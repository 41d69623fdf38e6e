#!/usr/bin/env python3
"""Benchmark of the VT reproduction's simulator host time.

    python3 perfbench/run.py --workload registry --seed 0 --seconds 20 --trace 0

Runs one workload (``registry``, ``chase-wide``, ``fuzz`` or ``static``;
see perfbench/README.md), prints a text report and, as the last line of
stdout, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, measured
with tracing off; ``--trace 1`` reports its per-layer metrics from a
traced run of the same work, next to an untraced run of it.

Run from the repository root: the simulator is imported from ``src/``.
Spans, traces and stats digests go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import sys
import time

from probe import PROBE

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench-out"
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3


def _purge_repro() -> None:
    """Forget every imported ``repro`` module so the next import (and the
    kernel assembly it performs) runs again from scratch."""
    for name in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[name]


def _setup(cls, seed: int, reps: int):
    """Run the workload's whole set-up ``reps`` times; keep the last.
    Returns it and each set-up's (measured, reference) seconds."""
    times = []
    for _ in range(reps):
        _purge_repro()
        mark = PROBE.mark()
        workload = cls(seed)
        workload.setup()
        seconds = PROBE.elapsed(mark)
        times.append((seconds, seconds * PROBE.factor(mark)))
    return workload, times


def _source_hash() -> str:
    """Hash of the simulator and benchmark sources (the inputs a stats
    digest depends on besides the seed)."""
    digest = hashlib.sha256()
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted(
        pathlib.Path(__file__).parent.glob("*.py"))
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _check_history(workload: str, seed: int, digests: dict) -> tuple[bool, str]:
    """Compare digests with an earlier run of the same source and inputs
    (recorded under .perfbench-out/digests); record them if none."""
    seed_tag = f"seed{seed}" if workload == "fuzz" else "fixed"
    path = OUT / "digests" / f"{workload}-{seed_tag}-{_source_hash()}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        differ = sorted(op for op in set(earlier) | set(digests)
                        if earlier.get(op) != digests.get(op))
        if differ:
            return False, (f"DIFFERS from the earlier run of this source on "
                           f"{len(differ)} operation(s), e.g. {differ[:3]}")
        return True, "identical to the earlier run of this source"
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests, indent=1, sort_keys=True))
    tmp.replace(path)
    return True, "first run of this source: recorded"


def _metric_block(spec: list[dict], values: dict) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(cls, args, bench_spec) -> dict:
    import report

    units, unit_factors = [], []
    with PROBE:
        workload, setup_times = _setup(cls, args.seed, SETUP_REPS)
        start = time.perf_counter()
        while True:
            mark = PROBE.mark()
            unit = workload.run_unit()
            units.append(unit)
            unit_factors.append(PROBE.factor(mark))
            # Start another unit only if it should end within --seconds.
            if time.perf_counter() - start + unit.wall > args.seconds:
                break
    e2e = report.end_to_end(cls.name, units, unit_factors, setup_times,
                            _peak_rss_mb())
    digests = report.op_digests(units[0])
    correct = all(report.op_digests(unit) == digests for unit in units[1:])
    history_ok, history = _check_history(cls.name, args.seed, digests)
    if not correct:
        history = "DIFFERS between units of this run; " + history
    model = None
    if cls.name != "static":
        model = report.model_summary(report.model_stats(cls.name, units[0]))
    failures = [f for unit in units for f in unit.failures]
    for line in report.format_report(cls.name, cls.op_kind, e2e, model,
                                     digests, history, failures):
        print(line)
    values = {"wall_s": e2e["wall_s"], "setup_s": e2e["setup_s"],
              "peak_rss_mb": e2e["peak_rss_mb"]}
    return {"correct": correct and history_ok and not failures,
            "attempted": e2e["ops"], "failed": e2e["failed"],
            "metrics": _metric_block(bench_spec["end_to_end"], values)}


def run_traced(cls, args, bench_spec) -> dict:
    import report
    from tracing import Recorder

    workload, _times = _setup(cls, args.seed, 1)
    untraced = workload.run_unit()
    rec = Recorder()
    traced = workload.run_unit(rec)
    digests = report.op_digests(untraced)
    traced_digests = report.op_digests(traced)
    problems = []
    if traced_digests != digests:
        problems.append("traced and untraced stats digests differ")
    history_ok, history = _check_history(cls.name, args.seed, digests)
    if not history_ok:
        problems.append(history)
    speedups = None
    if cls.name == "chase-wide":
        speedups = {}
        serial = {op: s for op, _cfg, s, _t in untraced.launches}
        serial_s = sum(t for _op, _cfg, _s, t in untraced.launches)
        for jobs, unit in workload.parallel_point().items():
            speedups[jobs] = serial_s / sum(t for *_rest, t in unit.launches)
            for op, cfg, s, _t in unit.launches:
                if report.stats_digest(s) != report.stats_digest(serial[op]):
                    problems.append(f"parallel sim_jobs={jobs} stats differ "
                                    f"on {op}")
            problems.extend(unit.failures)
    values = report.layer_metrics(cls.name, rec, traced, untraced, speedups)
    trace_path = OUT / f"trace-{cls.name}-seed{args.seed}.json"
    rec.dump(trace_path)

    failures = untraced.failures + traced.failures
    print(f"== perfbench {cls.name} (traced) ==")
    print(f"untraced {untraced.wall:.4f} s  traced {traced.wall:.4f} s (as measured)"
          f"  tracing overhead {traced.wall - untraced.wall:.4f} s")
    print("gpu.* self time is the chip loop of GPU.launch: CTA dispatch, the "
          "per-cycle SM walk and ProgressTracker")
    for name, value in values.items():
        print(f"  {name:28s} {value:.6g}")
    if speedups:
        print("fork engine vs default engine (host time, same cells): "
              + "  ".join(f"sim_jobs={j}: x{v:.3f}" for j, v in speedups.items())
              + f"  (nproc={os.cpu_count()}; more workers than cores not measured)")
    print(f"digests: traced == untraced: {traced_digests == digests}; {history}")
    for message in problems + failures[:20]:
        print(f"  PROBLEM {message}")
    print(f"spans written to {trace_path.relative_to(ROOT)}")
    attempted = len(untraced.ops) + len(traced.ops)
    return {"correct": not problems and not failures,
            "attempted": attempted, "failed": len(failures),
            "metrics": _metric_block(bench_spec["per_layer"], values)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="time budget for repeating the unit of work "
                             "(at least one unit always runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {ROOT / 'src'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy  # noqa: F401 - third-party import kept out of setup_s

    run = run_traced if args.trace else run_untraced
    result = run(cls, args, bench_spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
