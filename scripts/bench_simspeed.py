#!/usr/bin/env python
"""Simulator-throughput tracking: measure, seed, and check cycles/sec.

Runs the same matrix as ``benchmarks/test_sim_speed.py`` — architecture ×
engine (fast-forward vs per-cycle reference) × kernel — and records
simulated-cycles-per-second for each cell.

Modes::

    python scripts/bench_simspeed.py                 # print a table
    python scripts/bench_simspeed.py --write         # seed BENCH_simspeed.json
    python scripts/bench_simspeed.py --check         # fail on regression

Each timing round repeats its launch (re-preparing the workload untimed
before each one) until ``MIN_ROUND_SECONDS`` of launch time has run, and
reports cycles/sec over the whole round; the best of ``--rounds`` rounds,
interleaved across the cells, is kept.  Single launches of the small
cells last 0.01-0.08 s, too short to time stably on a loaded host.

``--check`` compares against the committed baseline with a machine-speed
calibration: the median of current/baseline ratios across all cells is
taken as this machine's speed factor, and a cell fails only when it is
more than ``--tolerance`` (default 30%) below its *calibrated* baseline.
That keeps the check meaningful on CI runners of unknown speed while
still catching per-cell throughput regressions.  It also requires the
serial engine to be at least as fast as the in-process parallel engine
on the 128-SM ``chase`` chip, both timed in the same run.  The fork
backend's speedup over serial (``sim_jobs`` 1 and 2) is reported in the
``fork`` block, never gated: it depends on the host's core count.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import sys
import time
from functools import partial

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.kernels import get  # noqa: E402
from repro.sim.config import scaled_fermi  # noqa: E402
from repro.sim.gpu import GPU  # noqa: E402

BASELINE_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_simspeed.json"

ARCHES = ("baseline", "vt", "ideal-sched")
ENGINES = ("fast-forward", "reference")
# Mirrors benchmarks/test_sim_speed.py: hotspot is the fast-forward worst
# case, low-occupancy stride the best case.
WORKLOADS = (("hotspot", 0.5), ("stride", 0.0625))
NUM_SMS = 2

# Serial-vs-parallel engine cells: per-CTA pointer chains (``chase``)
# behind a single slow DRAM channel.  The queue staggers the SMs' issue
# windows so *some* SM issues on almost every cycle while most SMs wait on
# memory: a chip loop that stepped every SM every cycle would pay for all
# of them, the serial wake queue and the sharded engine's dormant-SM skip
# pay only for the awake ones.  ``sim_jobs=1`` keeps the shards in-process,
# so the two legs differ only in algorithm, not in cores.
PARALLEL_KERNEL = "chase"
PARALLEL_NUM_SMS = (32, 128)
PARALLEL_GATE_SMS = 128  # the wide chip on which serial must keep up
PARALLEL_OVERRIDES = {"dram_latency": 800, "dram_channels": 1,
                      "dram_service_cycles": 40, "lat_alu": 1}
PARALLEL_ENGINES = ("serial", "parallel")
# Report-only: the parallel engine at these shard counts (>1 forks worker
# processes) against the serial cell, on the gate chip.
FORK_JOBS = (1, 2)
# Launch time each timing round accumulates before it reports.
MIN_ROUND_SECONDS = 0.25


def cell_id(kernel: str, arch: str, engine: str) -> str:
    return f"{kernel}/{arch}/{engine}"


def parallel_cell_id(num_sms: int, engine: str) -> str:
    return f"{PARALLEL_KERNEL}/{num_sms}sm/{engine}"


def timed_round(launch) -> tuple[int, float]:
    """Repeat ``launch()`` until it has run ``MIN_ROUND_SECONDS``.

    ``launch`` returns ``(cycles, seconds)`` of one timed launch; returns
    the cycles of one launch and the round's mean seconds per launch, so
    ``cycles / seconds`` is the round's cycles/sec.
    """
    total = 0.0
    launches = 0
    while total < MIN_ROUND_SECONDS:
        cycles, elapsed = launch()
        total += elapsed
        launches += 1
    return cycles, total / launches


def _time_cell(bench, scale: float, arch: str, engine: str) -> tuple[int, float]:
    prep = bench.prepare(scale)
    gpu = GPU(scaled_fermi(num_sms=NUM_SMS, arch=arch,
                           fast_forward=engine == "fast-forward"))
    t0 = time.perf_counter()
    result = gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    return result.stats.cycles, time.perf_counter() - t0


def measure_cells(rounds: int) -> dict:
    """Best-of-``rounds`` timing of every (kernel, arch, engine) cell.

    Rounds are interleaved across the cells, so a burst of load on the
    host costs each cell at most one of its rounds, not all of them.
    """
    best = {}
    cycles = {}
    for _ in range(rounds):
        for kernel_name, scale in WORKLOADS:
            for arch in ARCHES:
                for engine in ENGINES:
                    name = cell_id(kernel_name, arch, engine)
                    cycles[name], seconds = timed_round(partial(
                        _time_cell, get(kernel_name), scale, arch, engine))
                    best[name] = min(seconds, best.get(name, seconds))
    return {name: {"cycles": cycles[name], "seconds": round(best[name], 6),
                   "cycles_per_sec": round(cycles[name] / best[name], 1)}
            for name in best}


def _time_chase(num_sms: int, engine: str, sim_jobs: int) -> tuple[int, float]:
    bench = get(PARALLEL_KERNEL)
    prep = bench.prepare(num_sms / 32)
    gpu = GPU(scaled_fermi(num_sms=num_sms, engine=engine, sim_jobs=sim_jobs,
                           **PARALLEL_OVERRIDES))
    t0 = time.perf_counter()
    result = gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    elapsed = time.perf_counter() - t0
    prep.check(prep.gmem)
    return result.stats.cycles, elapsed


def measure_chase_legs(num_sms: int, legs, rounds: int) -> dict:
    """Best-of-``rounds`` timing (see :func:`timed_round`) of each
    ``(engine, sim_jobs)`` leg on the ``num_sms`` chase chip.  Rounds are
    interleaved across the legs, so machine-speed drift during the run
    hits every leg alike and their ratios stay comparable.  Every other
    round runs the legs in reverse: with a fixed order, the later leg of a
    round measurably ran faster."""
    best = {}
    cycles = {}
    for round_index in range(rounds):
        for leg in legs if round_index % 2 == 0 else legs[::-1]:
            cycles[leg], elapsed = timed_round(
                partial(_time_chase, num_sms, *leg))
            if leg not in best or elapsed < best[leg]:
                best[leg] = elapsed
    return {leg: {"cycles": cycles[leg], "seconds": round(best[leg], 6),
                  "cycles_per_sec": round(cycles[leg] / best[leg], 1)}
            for leg in legs}


def parallel_speedups(cells: dict) -> dict[int, float]:
    out = {}
    for num_sms in PARALLEL_NUM_SMS:
        serial = cells.get(parallel_cell_id(num_sms, "serial"))
        par = cells.get(parallel_cell_id(num_sms, "parallel"))
        if serial and par:
            out[num_sms] = par["cycles_per_sec"] / serial["cycles_per_sec"]
    return out


def measure_all(rounds: int) -> dict:
    cells = measure_cells(rounds)
    fork = {"nproc": os.cpu_count(), "num_sms": PARALLEL_GATE_SMS, "jobs": {}}
    for num_sms in PARALLEL_NUM_SMS:
        legs = [("serial", 1), ("parallel", 1)]
        if num_sms == PARALLEL_GATE_SMS:
            legs += [("parallel", jobs) for jobs in FORK_JOBS if jobs != 1]
        timed = measure_chase_legs(num_sms, legs, rounds)
        for engine in PARALLEL_ENGINES:
            cells[parallel_cell_id(num_sms, engine)] = timed[(engine, 1)]
        if num_sms == PARALLEL_GATE_SMS:
            serial = timed[("serial", 1)]["cycles_per_sec"]
            for jobs in FORK_JOBS:
                cell = dict(timed[("parallel", jobs)])
                cell["speedup_vs_serial"] = round(
                    cell["cycles_per_sec"] / serial, 3)
                fork["jobs"][str(jobs)] = cell
    return {"num_sms": NUM_SMS,
            "workloads": {k: s for k, s in WORKLOADS},
            "parallel": {"kernel": PARALLEL_KERNEL,
                         "num_sms": list(PARALLEL_NUM_SMS),
                         "gate_sms": PARALLEL_GATE_SMS,
                         "overrides": PARALLEL_OVERRIDES},
            "cells": cells,
            "fork": fork}


def print_table(data: dict) -> None:
    cells = data["cells"]
    print(f"{'cell':40s} {'cycles':>9s} {'seconds':>9s} {'cyc/sec':>12s}")
    for name, cell in cells.items():
        print(f"{name:40s} {cell['cycles']:>9d} {cell['seconds']:>9.4f} "
              f"{cell['cycles_per_sec']:>12.0f}")
    for kernel_name, _ in WORKLOADS:
        for arch in ARCHES:
            fast = cells[cell_id(kernel_name, arch, "fast-forward")]
            ref = cells[cell_id(kernel_name, arch, "reference")]
            speedup = fast["cycles_per_sec"] / ref["cycles_per_sec"]
            print(f"fast-forward speedup {kernel_name}/{arch}: x{speedup:.2f}")
    for num_sms, speedup in parallel_speedups(cells).items():
        print(f"parallel/serial {PARALLEL_KERNEL}/{num_sms}sm: x{speedup:.2f}")
    fork = data["fork"]
    for jobs, cell in fork["jobs"].items():
        print(f"fork report {PARALLEL_KERNEL}/{fork['num_sms']}sm "
              f"sim_jobs={jobs}: {cell['cycles_per_sec']:.0f} cyc/s, "
              f"x{cell['speedup_vs_serial']:.2f} vs serial "
              f"(nproc {fork['nproc']})")


def check(data: dict, tolerance: float) -> int:
    if not BASELINE_PATH.exists():
        print(f"no baseline at {BASELINE_PATH}; run with --write first",
              file=sys.stderr)
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    base_cells = baseline["cells"]
    ratios = {}
    for name, cell in data["cells"].items():
        if name in base_cells:
            ratios[name] = cell["cycles_per_sec"] / base_cells[name]["cycles_per_sec"]
    if not ratios:
        print("baseline shares no cells with this run", file=sys.stderr)
        return 2
    machine_factor = statistics.median(ratios.values())
    print(f"machine speed factor vs committed baseline: {machine_factor:.2f}")
    failures = []
    for name, ratio in sorted(ratios.items()):
        calibrated = ratio / machine_factor
        status = "ok"
        if calibrated < 1.0 - tolerance:
            status = "REGRESSION"
            failures.append(name)
        print(f"  {name:40s} calibrated {calibrated:5.2f}  {status}")
    # Serial vs parallel compares two interleaved legs of the *same* run on
    # the same machine, so no calibration is needed: the serial wake queue
    # must be at least as fast as the in-process sharded engine.
    ratio = parallel_speedups(data["cells"]).get(PARALLEL_GATE_SMS)
    if ratio is not None:
        status = "ok" if ratio <= 1.0 else "BELOW GATE"
        print(f"  parallel/serial @{PARALLEL_GATE_SMS}sm: x{ratio:.2f} "
              f"(gate: serial >= parallel)  {status}")
        if ratio > 1.0:
            failures.append(f"serial-vs-parallel@{PARALLEL_GATE_SMS}sm")
    if failures:
        print(f"{len(failures)} cell(s) regressed more than "
              f"{tolerance:.0%} below the calibrated baseline "
              f"or serial fell behind parallel", file=sys.stderr)
        return 1
    print("throughput within tolerance")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true",
                        help=f"seed {BASELINE_PATH.name} with this run")
    parser.add_argument("--check", action="store_true",
                        help="compare against the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed calibrated shortfall (default 0.30)")
    parser.add_argument("--rounds", type=int, default=3,
                        help="timing rounds per cell, each at least "
                             f"{MIN_ROUND_SECONDS:g} s of launches; "
                             "best-of is kept")
    args = parser.parse_args(argv)

    data = measure_all(args.rounds)
    print_table(data)
    if args.write:
        BASELINE_PATH.write_text(json.dumps(data, indent=2) + "\n")
        print(f"baseline written to {BASELINE_PATH}")
        return 0
    if args.check:
        return check(data, args.tolerance)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
