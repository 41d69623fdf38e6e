"""Determinism lint: same config + same seed must mean same bytes.

Four detectors, two of them path-sensitive:

* ``det-global-rng`` — any use of the module-global stdlib RNG or the
  legacy ``np.random`` global generator, anywhere in the tree.  Global
  RNG draws depend on import order and test interleaving, so this is
  unconditional (this subsumes the old regex audit in
  ``tests/test_rng_audit.py``).
* ``det-wallclock`` / ``det-env-read`` — wall-clock or environment reads
  in code reachable from simulator modules (``sim.*``/``core.*``/
  ``isa.*``).  Operational layers (orchestrator, store) read
  clocks legitimately; the simulator must not.
* ``det-set-iter`` — iteration over an unordered ``set`` inside the
  downward closure of serialization/output roots (``to_dict``,
  ``*_report``, ``write_*``, …).  Set iteration order varies with
  ``PYTHONHASHSEED`` for str elements, so bytes on these paths would
  differ run to run.
* ``det-float-accum`` (warning) — ``+=`` / ``sum()`` over an unordered
  iteration: the float rounding depends on visit order even when the
  element set is identical.
"""

from __future__ import annotations

from repro.selfcheck.callgraph import CallGraph
from repro.selfcheck.registry import (OUTPUT_ROOT_PATTERN, SIM_PATH_MODULES,
                                      SIM_PATH_PREFIXES)
from repro.selfcheck.rules import Finding
from repro.selfcheck.worklist import reachable_with_paths


def sim_entries(graph: CallGraph) -> list[str]:
    return graph.entry_qualnames(module_prefixes=SIM_PATH_PREFIXES,
                                 modules=SIM_PATH_MODULES)


def output_roots(graph: CallGraph) -> list[str]:
    return sorted(qual for qual, fn in graph.project.functions.items()
                  if OUTPUT_ROOT_PATTERN.match(fn.name))


def check_determinism(graph: CallGraph) -> list[Finding]:
    findings: list[Finding] = []

    for qual in sorted(graph.effects):
        eff = graph.effects[qual]
        rel = _relpath(graph, qual)
        for site in eff.rng:
            findings.append(Finding(
                rule="det-global-rng", path=rel, line=site.lineno,
                qualname=qual, message=site.detail))
        for site in eff.float_accum:
            findings.append(Finding(
                rule="det-float-accum", path=rel, line=site.lineno,
                qualname=qual, message=site.detail))

    sim_paths = reachable_with_paths(graph.edges, sim_entries(graph))
    for qual in sorted(sim_paths):
        eff = graph.effects.get(qual)
        if eff is None:
            continue
        rel = _relpath(graph, qual)
        chain = sim_paths[qual]
        for site in eff.wallclock:
            findings.append(Finding(
                rule="det-wallclock", path=rel, line=site.lineno,
                qualname=qual,
                message=f"{site.detail} reachable from simulator code",
                call_path=chain))
        for site in eff.env:
            findings.append(Finding(
                rule="det-env-read", path=rel, line=site.lineno,
                qualname=qual,
                message=f"{site.detail} reachable from simulator code",
                call_path=chain))

    out_paths = reachable_with_paths(graph.edges, output_roots(graph))
    for qual in sorted(out_paths):
        eff = graph.effects.get(qual)
        if eff is None:
            continue
        rel = _relpath(graph, qual)
        chain = out_paths[qual]
        for site in eff.set_iters:
            findings.append(Finding(
                rule="det-set-iter", path=rel, line=site.lineno,
                qualname=qual,
                message=f"{site.detail} on a serialization/output path",
                call_path=chain))
    return findings


def _relpath(graph: CallGraph, qual: str) -> str:
    fn = graph.project.functions[qual]
    try:
        return fn.path.relative_to(graph.project.root).as_posix()
    except ValueError:  # pragma: no cover
        return fn.path.as_posix()
