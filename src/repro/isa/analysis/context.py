"""Per-kernel analysis context: each static fact is solved once per kernel.

Lint, the performance oracle, the cycle-bound analyzer and the runtime
sanitizer all ask the same questions of a kernel: its CFG, the affine
and interval fixpoints, liveness, loop structure, per-site access costs,
the loop-expanded warp profile.  Every one of those facts is a pure
function of the kernel (plus a small, hashable key for the ones that
also read launch or config values), so each kernel carries one dict of
facts and each pass's public entry point (``affine_solution``,
``access_costs``, ``warp_profile`` ...) is a :func:`fact` lookup in it.

Lifetime and invalidation:

* The dict lives in the kernel's instance dict under ``_analysis`` and no
  cached value refers back to the kernel, so reference counting frees the
  facts with the kernel (a fuzz case's kernel takes its facts with it).
* ``Kernel.__setattr__`` drops the dict, so re-assigning metadata
  (``smem_bytes``, ``cta_dim``, ``instrs`` ...) yields fresh facts.
  Instruction objects are treated as immutable once a kernel has been
  analysed; mutate them only before the first analysis.
* ``Kernel.__getstate__`` leaves the dict out, so pickles and copies
  start empty, and ``==`` compares the dataclass fields only.

A hit costs one instance-dict read and one dict lookup on a small tuple
key; nothing ever fingerprints the kernel.
"""

from __future__ import annotations

from repro.isa.analysis.dataflow import CFGView, solve


def fact(kernel, key, compute, *args):
    """The fact of ``kernel`` stored under ``key``, ``compute(*args)`` on
    first use.  An exception from ``compute`` propagates and stores
    nothing, so the next lookup recomputes (and raises) again."""
    facts = kernel.__dict__.get("_analysis")
    if facts is None:
        facts = kernel.__dict__["_analysis"] = {}
    try:
        return facts[key]
    except KeyError:
        value = facts[key] = compute(*args)
        return value


def cfg_of(kernel) -> CFGView:
    """Basic blocks, predecessor map and reachability of ``kernel``."""
    return fact(kernel, "cfg", CFGView, kernel.instrs)


def params_key(param_values) -> tuple:
    """Hashable form of a ``param index -> value`` map (``None`` and an
    empty map resolve identically everywhere, so they share a key)."""
    return tuple(sorted(param_values.items())) if param_values else ()


def solve_per_pc(problem_cls, kernel) -> tuple:
    """Per-PC facts of ``problem_cls(kernel)`` solved over the kernel's CFG."""
    return tuple(solve(problem_cls(kernel), cfg_of(kernel)).per_pc())
