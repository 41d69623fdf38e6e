"""Property-based kernel fuzzing: generation, differential testing, shrinking.

The fuzzer closes the loop on every correctness claim in the repo: instead
of trusting the 21 hand-written registry kernels, it generates an unbounded
stream of structured kernels (:mod:`.generator`), runs each one through
every engine/architecture combination against a timing-free reference
executor (:mod:`.differential`), and minimizes any divergence to a smallest
reproducer (:mod:`.shrink`) that replays deterministically
(:mod:`.campaign`, ``repro fuzz --replay``).
"""

from repro.fuzz.generator import (
    GenConfig,
    FuzzCase,
    generate_spec,
    materialize,
    spec_fingerprint,
)
from repro.fuzz.differential import DiffResult, Divergence, run_case
from repro.fuzz.shrink import shrink_spec
from repro.fuzz.campaign import (
    load_reproducer,
    replay_reproducer,
    run_campaign,
    run_fuzz_cell,
    write_reproducer,
)

__all__ = [
    "GenConfig",
    "FuzzCase",
    "generate_spec",
    "materialize",
    "spec_fingerprint",
    "DiffResult",
    "Divergence",
    "run_case",
    "shrink_spec",
    "run_campaign",
    "run_fuzz_cell",
    "write_reproducer",
    "load_reproducer",
    "replay_reproducer",
]
