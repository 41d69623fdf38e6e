"""Component-time profiling for a single simulation run.

``repro run --profile out.json`` wraps the launch in :mod:`cProfile` and
buckets the flat profile by simulator component — scheduler scan, LD/ST
and caches, the memory system, functional execution, sanitizer, VT
machinery — so "where does simulation wall time go?" has a one-command
answer.  Attribution uses *total time per function* (``tottime``), so the
buckets are disjoint and sum (plus ``other``) to the profiled total.

The numbers carry cProfile's instrumentation overhead (a few-x slowdown
on this workload mix); they are for comparing components against each
other, not for absolute throughput claims.
"""

from __future__ import annotations

import cProfile
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
    ("functional_exec", ("sim/exec.py",)),
    ("sanitizer", ("sim/sanitizer.py",)),
    ("vt", ("core/vt.py", "core/policies.py")),
    ("parallel_engine", ("sim/parallel.py",)),
    ("gpu_loop", ("sim/gpu.py",)),
)


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


def profile_run(fn: Callable[[], object]) -> tuple[object, dict]:
    """Run ``fn`` under cProfile; return ``(fn's result, profile dict)``.

    The dict maps bucket name -> ``{"seconds", "share", "calls"}``, plus
    ``"total_seconds"`` and a ``"top"`` list of the heaviest individual
    functions for drill-down.
    """
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler)
    buckets: dict[str, dict] = {}
    total = 0.0
    rows = []
    for (filename, lineno, name), (cc, _nc, tottime, _cum, _callers) in \
            stats.stats.items():  # type: ignore[attr-defined]
        bucket = _bucket_for(filename)
        entry = buckets.setdefault(bucket, {"seconds": 0.0, "calls": 0})
        entry["seconds"] += tottime
        entry["calls"] += cc
        total += tottime
        rows.append((tottime, f"{pathlib.Path(filename).name}:{lineno}:{name}", cc))
    for entry in buckets.values():
        entry["seconds"] = round(entry["seconds"], 6)
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
