"""Component-time profiling for a single simulation run.

``repro run --profile out.json`` wraps the launch in :mod:`cProfile` and
buckets the flat profile by simulator component — scheduler scan, LD/ST
and caches, the memory system, functional execution, sanitizer, VT
machinery — so "where does simulation wall time go?" has a one-command
answer.  Attribution uses *total time per function* (``tottime``), so the
buckets are disjoint and sum (plus ``other``) to the profiled total.
Builtins (``dict.get``, ``min``, numpy calls) and library frames outside
the ``repro`` package are not a component of their own: their time is
charged to the buckets of the functions that call them, split in
proportion to the time cProfile records per caller.  Modules the
workloads import lazily are imported before profiling starts, so one-off
import time stays out of the table.

The numbers carry cProfile's instrumentation overhead (a few-x slowdown
on this workload mix); they are for comparing components against each
other, not for absolute throughput claims.
"""

from __future__ import annotations

import cProfile
import importlib
import json
import pathlib
import pstats
from typing import Callable

#: Ordered (bucket, filename fragments) pairs; first match wins.  Paths
#: are matched on the module basename within the repro package.
_BUCKETS: tuple[tuple[str, tuple[str, ...]], ...] = (
    ("scheduler_scan", ("sim/smcore.py", "sim/schedulers.py",
                        "sim/scoreboard.py", "sim/warp.py", "sim/cta.py",
                        "sim/ctamanager.py")),
    ("ldst_cache", ("sim/ldst.py", "sim/cache.py")),
    ("memsys", ("sim/memsys.py", "sim/dram.py", "sim/icnt.py",
                "sim/memory.py")),
    # The per-issue executor and, on the default engine, the launch's
    # functional pre-pass plus the SM's replay of its streams.
    ("functional_exec", ("sim/exec.py", "sim/prepass.py")),
    ("sanitizer", ("sim/sanitizer.py",)),
    ("vt", ("core/vt.py", "core/policies.py")),
    ("parallel_engine", ("sim/parallel.py",)),
    ("gpu_loop", ("sim/gpu.py",)),
)


#: Modules the registry workloads import on first use (``prepare`` draws
#: its inputs from numpy's generators); warmed outside the profile.
_WARM_IMPORTS = ("numpy.random",)


def _bucket_for(filename: str) -> str:
    path = filename.replace("\\", "/")
    marker = "/repro/"
    pos = path.rfind(marker)
    if pos < 0:
        return "other"
    rel = path[pos + len(marker):]
    for bucket, fragments in _BUCKETS:
        for fragment in fragments:
            if fragment in rel:
                return bucket
    return "other"


def _in_repro(filename: str) -> bool:
    return "/repro/" in filename.replace("\\", "/")


def _charges(func, stats: dict, memo: dict,
             active: set) -> tuple[dict[str, float], set]:
    """``(bucket -> fraction of func's own time, skipped cycle frames)``.

    A ``repro`` frame keeps its time in its own bucket; a builtin or
    library frame passes it up to its callers (transitively, through
    other foreign frames), weighted by the time it spent per caller.
    A caller already on the walk (recursion among foreign frames) is
    skipped and the other callers' weights renormalized, so recursive
    time reaches whoever entered the recursion.  The second element
    names the frames skipped that way other than ``func``: a result
    that skipped an outer frame depends on the walk that reached it and
    is not memoized.
    """
    if func in memo:
        return memo[func], set()
    if _in_repro(func[0]):
        memo[func] = {_bucket_for(func[0]): 1.0}
        return memo[func], set()
    skipped = active.intersection(stats[func][4])
    callers = {caller: times for caller, times in stats[func][4].items()
               if caller not in skipped}
    weights = {caller: tt for caller, (_nc, _cc, tt, _ct) in callers.items()}
    if not sum(weights.values()):  # a zero-self-time frame: split by ct
        weights = {caller: ct
                   for caller, (_nc, _cc, _tt, ct) in callers.items()}
    total = sum(weights.values())
    out: dict[str, float] = {}
    if not total:  # the profile's root frame
        out["other"] = 1.0
    else:
        active.add(func)
        for caller, weight in weights.items():
            share: dict[str, float] = {"other": 1.0}
            if caller in stats:
                share, caller_skipped = _charges(caller, stats, memo, active)
                skipped |= caller_skipped
            for bucket, fraction in share.items():
                out[bucket] = out.get(bucket, 0.0) + fraction * weight / total
        active.discard(func)
    skipped.discard(func)
    if not skipped:
        memo[func] = out
    return out, skipped


def profile_run(fn: Callable[[], object]) -> tuple[object, dict]:
    """Run ``fn`` under cProfile; return ``(fn's result, profile dict)``.

    The dict maps bucket name -> ``{"seconds", "share", "calls"}``, plus
    ``"total_seconds"`` and a ``"top"`` list of the heaviest individual
    functions for drill-down.
    """
    for module in _WARM_IMPORTS:
        importlib.import_module(module)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    buckets: dict[str, dict] = {}
    total = 0.0
    rows = []
    memo: dict = {}
    for func, (cc, _nc, tottime, _cum, _callers) in stats.items():
        shares, _skipped = _charges(func, stats, memo, set())
        for bucket, fraction in shares.items():
            entry = buckets.setdefault(bucket, {"seconds": 0.0, "calls": 0.0})
            entry["seconds"] += fraction * tottime
            entry["calls"] += fraction * cc
        total += tottime
        filename, lineno, name = func
        rows.append((tottime, f"{pathlib.Path(filename).name}:{lineno}:{name}", cc))
    for entry in buckets.values():
        entry["seconds"] = round(entry["seconds"], 6)
        entry["calls"] = round(entry["calls"])
        entry["share"] = round(entry["seconds"] / total, 4) if total else 0.0
    rows.sort(reverse=True)
    report = {
        "total_seconds": round(total, 6),
        "buckets": dict(sorted(buckets.items(),
                               key=lambda kv: -kv[1]["seconds"])),
        "top": [{"function": where, "seconds": round(t, 6), "calls": cc}
                for t, where, cc in rows[:20]],
    }
    return result, report


def write_profile(report: dict, path: str | pathlib.Path) -> None:
    pathlib.Path(path).write_text(json.dumps(report, indent=2) + "\n")


def format_profile(report: dict) -> str:
    lines = [f"{'component':18s} {'seconds':>9s} {'share':>7s} {'calls':>12s}"]
    for bucket, entry in report["buckets"].items():
        lines.append(f"{bucket:18s} {entry['seconds']:>9.3f} "
                     f"{entry['share']:>6.1%} {entry['calls']:>12d}")
    lines.append(f"{'total':18s} {report['total_seconds']:>9.3f}")
    return "\n".join(lines)
