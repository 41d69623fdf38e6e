"""Metrics, digests and the text report, computed from unit results.

Host-time metrics come from the timers around operations and launches;
simulated-model figures come from ``SimStats`` and are exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics

from tracing import leg_of

#: The paper's average VT speedup over the scheduling-limited baseline.
PAPER_VT_SPEEDUP = 1.239

IDLE_KINDS = ("mem", "alu", "barrier", "struct", "swap", "empty")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def stats_digest(stats) -> str:
    """Digest of one launch's ``SimStats.to_dict()``."""
    return _sha(json.dumps(stats.to_dict(), sort_keys=True,
                           separators=(",", ":")))


def op_digests(unit) -> dict[str, str]:
    """Op id -> digest of every launch it made (keyed by arch and engine
    leg) or, for launch-free operations, of the analyzer results."""
    per_op: dict[str, list[str]] = {}
    for op, cfg, stats, _seconds in unit.launches:
        per_op.setdefault(op, []).append(
            f"{cfg.arch}:{leg_of(cfg)}={stats_digest(stats)}")
    out = {op: _sha("\n".join(sorted(parts))) for op, parts in per_op.items()}
    for op, value in unit.outputs.items():
        out[op] = _sha(json.dumps(value, sort_keys=True))
    return out


def combined_digest(digests: dict[str, str]) -> str:
    return _sha("\n".join(f"{k}={v}" for k, v in sorted(digests.items())))


def tail(samples: list[float]):
    """(percentile, value) of the highest order statistic that still has
    at least ten samples above it; None below eleven samples."""
    if len(samples) < 11:
        return None
    ordered = sorted(samples)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- simulated model (exact) ------------------------------------------------------


def model_stats(workload: str, unit) -> list:
    """The ``SimStats`` that describe the workload: every launch's, except
    that a fuzz case counts only its reference legs (the other legs are
    required to be byte-identical to them)."""
    return [stats for _op, cfg, stats, _s in unit.launches
            if workload != "fuzz" or leg_of(cfg) == "reference"]


def model_summary(stats_list) -> dict:
    """Aggregate simulated statistics over launches (sums, then ratios)."""
    sms = [sm for stats in stats_list for sm in stats.sm_stats]
    sm_cycles = sum(sm.cycles for sm in sms)
    instructions = sum(s.instructions for s in stats_list)
    cycles = sum(s.cycles for s in stats_list)
    return {
        "launches": len(stats_list),
        "cycles": cycles,
        "warp_instructions": instructions,
        "ipc": _ratio(instructions, cycles),
        "idle": {kind: _ratio(sum(getattr(sm, "idle_cycles_" + kind)
                                  for sm in sms), sm_cycles)
                 for kind in IDLE_KINDS},
        "l1_hit_rate": _ratio(sum(sm.l1_hits for sm in sms),
                              sum(sm.l1_accesses for sm in sms)),
        "l2_hit_rate": _ratio(sum(s.l2_hits for s in stats_list),
                              sum(s.l2_accesses for s in stats_list)),
        "dram_requests": sum(s.dram_requests for s in stats_list),
        "vt_swaps": sum(sm.swaps for sm in sms),
        "swap_busy_cycles": sum(sm.swap_busy_cycles for sm in sms),
    }


def vt_speedup(unit):
    """(geomean of baseline/vt cycles, kernels VT changed, kernels) over
    the unit's default-engine launches; None without both archs."""
    cycles: dict[str, dict[str, int]] = {}
    for op, cfg, stats, _s in unit.launches:
        if leg_of(cfg) == "fast-forward":
            cycles.setdefault(op.split("/")[0], {})[cfg.arch] = stats.cycles
    pairs = [(c["baseline"], c["vt"]) for c in cycles.values()
             if "baseline" in c and "vt" in c]
    if not pairs:
        return None
    logs = sum(math.log(base / vt) for base, vt in pairs)
    changed = sum(1 for base, vt in pairs if base != vt)
    return math.exp(logs / len(pairs)), changed, len(pairs)


# -- end-to-end metrics -----------------------------------------------------------


def end_to_end(workload: str, units, unit_factors, setup_times,
               peak_rss_mb) -> dict:
    """Every end-to-end figure of an untraced run (None = not applicable).
    ``unit_factors`` convert each unit's measured seconds to reference
    seconds; ``setup_times`` are (measured, reference) pairs."""
    ops = [seconds for unit in units for _op, seconds in unit.ops]
    failed = sum(len(unit.failures) for unit in units)
    launches = [rec for unit in units for rec in unit.launches]
    launch_s = sum(rec[3] for rec in launches)
    instructions = sum(rec[2].instructions for rec in launches)
    cycles = sum(rec[2].cycles for rec in launches)
    speedup = vt_speedup(units[0])
    return {
        "wall_s": statistics.median(unit.wall * factor for unit, factor
                                    in zip(units, unit_factors)),
        "wall_measured_s": statistics.median(unit.wall for unit in units),
        "speed": statistics.median(unit_factors),
        "units": len(units),
        "setup_s": statistics.median(ref for _s, ref in setup_times),
        "setup_measured_s": statistics.median(s for s, _ref in setup_times),
        "setup_times": setup_times,
        "peak_rss_mb": peak_rss_mb,
        "warp_instrs_per_s": _ratio(instructions, launch_s) if launches else None,
        "sim_cycles_per_s": _ratio(cycles, launch_s) if launches else None,
        "op_p50_ms": 1e3 * statistics.median(ops),
        "op_tail": tail(ops),
        "ops": len(ops),
        "vt_speedup": speedup,
        "failed": failed,
        "failed_frac": _ratio(failed, len(ops)),
    }


def format_report(workload: str, op_kind: str, e2e: dict, model: dict | None,
                  digests: dict[str, str], history: str, failures) -> list[str]:
    lines = [f"== perfbench {workload} =="]

    def row(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"{name:18s} {shown:>14s} {unit:6s} {note}".rstrip())

    setups = " ".join(f"{ref:.3f}" for _s, ref in e2e["setup_times"])
    row("wall_s", e2e["wall_s"], "s",
        f"host at reference speed, median of {e2e['units']} unit(s) of "
        "fixed work")
    row("setup_s", e2e["setup_s"], "s",
        f"host at reference speed, median of set-ups [{setups}]")
    row("wall_measured_s", e2e["wall_measured_s"], "s",
        "host as measured (probes excluded), median of the units")
    row("setup_measured_s", e2e["setup_measured_s"], "s",
        "host as measured (probes excluded), median of the set-ups")
    row("speed_factor", e2e["speed"], "",
        "reference over measured seconds, median of the units "
        "(<1: machine slower than the reference)")
    row("peak_rss_mb", e2e["peak_rss_mb"], "MB", "host, this process")
    row("warp_instrs_per_s", e2e["warp_instrs_per_s"], "1/s",
        "simulated warp-instructions per host second of launch time")
    row("sim_cycles_per_s", e2e["sim_cycles_per_s"], "1/s",
        "simulated cycles per host second of launch time")
    row("op_p50_ms", e2e["op_p50_ms"], "ms", f"host, n={e2e['ops']} x {op_kind}")
    tail_value = e2e["op_tail"]
    if tail_value is None:
        row("op_tail_ms", None, "ms", f"fewer than 11 samples (n={e2e['ops']})")
    else:
        row("op_tail_ms", 1e3 * tail_value[1], "ms",
            f"host, p{tail_value[0]:.1f} of n={e2e['ops']} (10 samples above)")
    speedup = e2e["vt_speedup"]
    if speedup is None:
        row("vt_speedup", None, "x", "no baseline/vt pairs")
    else:
        row("vt_speedup", speedup[0], "x",
            f"simulated geomean baseline/vt cycles over {speedup[2]} kernel(s); "
            f"VT changes cycles on {speedup[1]}; paper average "
            f"{PAPER_VT_SPEEDUP}")
    row("failed_frac", e2e["failed_frac"], "",
        f"{e2e['failed']} failed of {e2e['ops']} operations")
    lines.extend(f"  FAILED {message}" for message in failures[:20])
    if model is not None:
        lines.extend(format_model(model))
    lines.append(f"digest {combined_digest(digests) if digests else '-'} over "
                 f"{len(digests)} operation(s); {history}")
    lines.extend(f"  digest {op} {digest}" for op, digest in sorted(digests.items()))
    return lines


def format_model(model: dict) -> list[str]:
    """Simulated-model lines (exact, from SimStats)."""
    idle = "  ".join(f"{k}={v:.1%}" for k, v in model["idle"].items())
    return [
        f"simulated model over {model['launches']} launch(es) (exact, from "
        "SimStats; caches start empty on every launch):",
        f"  IPC={model['ipc']:.4f} (sum warp-instrs / sum cycles)  "
        f"cycles={model['cycles']}  warp-instrs={model['warp_instructions']}",
        f"  idle SM-cycles: {idle}",
        f"  L1 hit={model['l1_hit_rate']:.2%}  L2 hit={model['l2_hit_rate']:.2%}"
        f"  DRAM requests={model['dram_requests']}  VT swaps={model['vt_swaps']}"
        f"  swap-busy cycles={model['swap_busy_cycles']}",
    ]


# -- per-layer metrics (traced run) ------------------------------------------------


def layer_metrics(workload: str, rec, traced, untraced, parallel=None) -> dict:
    """Every per-layer metric of a traced run; 0 where a layer did not run."""
    totals = rec.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return totals.get(name, (0, 0.0, 0.0))[1]

    def self_s(name):
        return totals.get(name, (0, 0.0, 0.0))[2]

    def us_per(seconds, count):
        return 1e6 * _ratio(seconds, count)

    chip_cycles = sum(r[2].cycles for r in traced.launches)
    # SM-cycles credited in this process (forked shards step elsewhere).
    sm_cycles = sum(sm.cycles for _op, cfg, s, _t in traced.launches
                    if cfg.engine != "parallel" or cfg.sim_jobs == 1
                    for sm in s.sm_stats)
    model = model_summary(model_stats(workload, traced))
    l1 = ("l1.read", "l1.write", "l1.atomic")
    mem = ("memsys.read", "memsys.write")
    ldst = ("ldst.coalesce", "ldst.bank_conflict_passes")
    sanitizer = ("sanitizer.check_sm", "sanitizer.check_exec")
    legs = rec.leg_seconds() if workload == "fuzz" else {}
    e2e_ops = [seconds for _op, seconds in untraced.ops]
    e2e_launch_s = sum(r[3] for r in untraced.launches)
    e2e_tail = tail(e2e_ops)
    speedup = vt_speedup(untraced)
    out = {
        "gpu.loop_self_s": self_s("gpu.launch"),
        "gpu.us_per_chip_cycle": us_per(self_s("gpu.launch"), chip_cycles),
        "smcore.step_calls": calls("smcore.step"),
        "smcore.step_self_s": self_s("smcore.step"),
        "smcore.steps_per_sm_cycle": _ratio(calls("smcore.step"), sm_cycles),
        "smcore.ff_calls": calls("smcore.fast_forward"),
        "sched.pick_s": self_s("sched.pick"),
        "sched.pick_us_per_call": us_per(self_s("sched.pick"),
                                         calls("sched.pick")),
        "sched.pick_hit_frac": _ratio(rec.counts.get("sched.pick.hits", 0),
                                      calls("sched.pick")),
        "exec.calls": calls("exec.functional_step"),
        "exec.step_s": self_s("exec.functional_step"),
        "exec.us_per_warp_instr": us_per(self_s("exec.functional_step"),
                                         calls("exec.functional_step")),
        "ldst.coalesce_s": self_s("ldst.coalesce"),
        "ldst.bank_s": self_s("ldst.bank_conflict_passes"),
        "ldst.us_per_request": us_per(sum(map(self_s, ldst)),
                                      sum(map(calls, ldst))),
        "l1.read_s": self_s("l1.read"),
        "l1.us_per_access": us_per(sum(map(self_s, l1)), sum(map(calls, l1))),
        "l1.hit_rate": model["l1_hit_rate"],
        "memsys.read_s": self_s("memsys.read"),
        "memsys.us_per_txn": us_per(sum(map(self_s, mem)),
                                    sum(map(calls, mem))),
        "memsys.l2_hit_rate": model["l2_hit_rate"],
        "memsys.dram_requests": model["dram_requests"],
        "vt.update_s": self_s("vt.update"),
        "vt.us_per_update": us_per(self_s("vt.update"), calls("vt.update")),
        "vt.next_event_s": self_s("vt.next_event"),
        "vt.swaps": model["vt_swaps"],
        "vt.swap_busy_cycles": model["swap_busy_cycles"],
        "sanitizer.s": sum(map(self_s, sanitizer)),
        "sanitizer.us_per_cycle": us_per(sum(map(self_s, sanitizer)),
                                         calls("sanitizer.check_sm")),
        "parallel.launch_s": incl("parallel.try_parallel_launch"),
        "parallel.speedup_jobs1": (parallel or {}).get(1, 0.0),
        "parallel.speedup_jobs2": (parallel or {}).get(2, 0.0),
        "fuzz.run_case_self_s": self_s("fuzz.run_case"),
        "fuzz.materialize_s": self_s("fuzz.materialize"),
        "fuzz.reference_execute_s": self_s("fuzz.reference_execute"),
        "analysis.lint_s": self_s("analysis.lint_kernel"),
        "analysis.predict_s": self_s("analysis.predict"),
        "analysis.bound_s": self_s("analysis.kernel_bounds"),
        "kernels.prepare_s": incl("kernels.prepare"),
        "kernels.check_s": incl("kernels.check"),
        "trace.traced_wall_s": traced.wall,
        "trace.overhead_s": traced.wall - untraced.wall,
        "e2e.warp_instrs_per_s": _ratio(sum(r[2].instructions
                                            for r in untraced.launches),
                                        e2e_launch_s),
        "e2e.sim_cycles_per_s": _ratio(sum(r[2].cycles
                                           for r in untraced.launches),
                                       e2e_launch_s),
        "e2e.vt_speedup": speedup[0] if speedup else 0.0,
        "e2e.op_p50_ms": 1e3 * statistics.median(e2e_ops),
        "e2e.op_tail_ms": 1e3 * e2e_tail[1] if e2e_tail else 0.0,
        "e2e.failed_frac": _ratio(len(untraced.failures), len(e2e_ops)),
    }
    for leg in ("reference", "fast-forward", "sanitize", "parallel"):
        out["fuzz.leg_s." + leg] = legs.get(leg, 0.0)
    return out
