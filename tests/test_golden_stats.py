"""Golden ``SimStats`` digests: simulated outputs never move for speed.

The reference and fast-forward engines share the warp schedulers' ``pick``
and the SM core's ready sets, so a timing bug in either moves both legs of
the engine-equivalence comparison identically and that comparison cannot
see it.  These digests were recorded before the ready-set scheduler and
the heap-ordered pending files landed; any change to what the simulator
computes shows up here as a digest mismatch.

Cells: registry kernels x {gto, lrr, two-level} x {baseline, vt} at a
scale where the three policies give distinct stats and VT swaps, plus
the remaining kernels at scale 0.25 with one policy each (rotating).

Regenerate only for an intended change to simulated timing::

    PYTHONPATH=src python tests/test_golden_stats.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

import pytest

from repro.kernels import get
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU

FIXTURE = pathlib.Path(__file__).resolve().parent / "fixtures" / "golden_stats.json"

POLICIES = ("gto", "lrr", "two-level")
ARCHS = ("baseline", "vt")

#: Kernels run under every policy at scale 0.5 on one SM (VT swaps in all
#: but ``transpose`` and ``regheavy``, which are not scheduling-limited).
FULL = ("hotspot", "srad", "streamcluster", "histogram", "vecadd", "nn",
        "stride", "saxpy", "transpose", "regheavy", "bfs", "scan",
        "reduction")
#: The costlier kernels, at scale 0.25 under one policy each.
LIGHT = ("btree", "chase", "kmeans", "spmv", "pathfinder", "backprop",
         "mm_tiled", "mriq", "nw")


def cells_for(name: str) -> list[tuple[float, str, str]]:
    """``(scale, arch, policy)`` cells pinned for kernel ``name``."""
    if name in FULL:
        return [(0.5, arch, policy) for policy in POLICIES for arch in ARCHS]
    policy = POLICIES[LIGHT.index(name) % len(POLICIES)]
    return [(0.25, arch, policy) for arch in ARCHS]


def digest(name: str, scale: float, arch: str, policy: str) -> str:
    bench = get(name)
    prep = bench.prepare(scale)
    cfg = scaled_fermi(num_sms=1, arch=arch, warp_scheduler=policy)
    result = GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)
    text = json.dumps(result.stats.to_dict(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _key(name, scale, arch, policy) -> str:
    return f"{name}/{scale:g}/{arch}/{policy}"


@pytest.mark.slow
@pytest.mark.parametrize("name", FULL + LIGHT)
def test_stats_match_golden_digests(name):
    golden = json.loads(FIXTURE.read_text())
    mismatched = [
        _key(name, *cell) for cell in cells_for(name)
        if digest(name, *cell) != golden[_key(name, *cell)]
    ]
    assert not mismatched, f"SimStats moved on {mismatched}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_stats.py --write")
    table = {_key(name, *cell): digest(name, *cell)
             for name in FULL + LIGHT for cell in cells_for(name)}
    FIXTURE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {FIXTURE}")
