"""repro selfcheck — an AST-based static analyzer that proves shard
isolation, determinism, and schema integrity of the simulator itself.

Layers (each consumes only the one below):

* :mod:`~repro.selfcheck.project` — parse every module under a root,
  index classes/functions/imports, shallow attribute typing;
* :mod:`~repro.selfcheck.effects` — per-function local effect summaries
  (calls, global writes, RNG/clock/env reads, set iterations);
* :mod:`~repro.selfcheck.callgraph` / :mod:`~repro.selfcheck.worklist`
  — resolved ∪ duck call edges and the fixpoint/reachability solvers
  (the ISA dataflow worklist shape, lifted to whole functions);
* :mod:`~repro.selfcheck.isolation`, :mod:`~repro.selfcheck.determinism`,
  :mod:`~repro.selfcheck.schema` — the rule analyses;
* :mod:`~repro.selfcheck.report` — inline suppressions, rendering.

Run it with ``repro selfcheck [--strict] [--format json]``.
"""

from repro.selfcheck.report import SelfcheckReport, run_selfcheck
from repro.selfcheck.rules import RULES, Finding

__all__ = ["run_selfcheck", "SelfcheckReport", "RULES", "Finding"]
