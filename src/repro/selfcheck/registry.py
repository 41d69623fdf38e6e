"""Shared registries the selfcheck analyses key off.

These name the *architectural contracts* of the simulator that the
analyses enforce — which classes hold coordinator-owned cross-SM state,
which classes are the sanctioned shard-side stand-ins, where shard-worker
execution enters, and which function names sit on serialization/output
paths.  They are matched by *name*, not identity, so the same analyzer
runs unchanged over ``src/repro`` and over the planted-violation fixture
trees under ``tests/fixtures/selfcheck/``.
"""

from __future__ import annotations

import re

#: Classes owning chip-shared (cross-SM) state.  Methods of these classes
#: must never be reachable from intra-epoch shard-worker code: every
#: cross-SM interaction has to flow through a sentinel stand-in and be
#: replayed by the coordinator at the epoch boundary.
SHARED_CLASSES = frozenset({"MemoryModel", "ProgressTracker"})

#: The sanctioned shard-side stand-ins.  A duck-typed call site that could
#: bind a shared class is legal exactly when a sentinel class implements
#: the same method — that is the injection seam (the SM's L1 talks to
#: whatever "memory model" it was constructed with).
SENTINEL_CLASSES = frozenset({"DeferredMemory", "ShardGmem"})

#: Entry points of intra-epoch shard-worker execution, by (class, method)
#: or bare function name.  ``_worker_main`` is the fork-backend loop;
#: ``_Shard`` methods are driven directly by the inline backend.
WORKER_ENTRY_FUNCTIONS = frozenset({"_worker_main"})
WORKER_ENTRY_CLASSES = frozenset({"_Shard"})
#: Entry names only count inside the parallel-engine module itself —
#: the sweep orchestrator has its own (process-isolated) ``_worker_main``
#: that legitimately runs whole simulations.
WORKER_ENTRY_MODULE_LEAF = "parallel"

#: Module prefixes considered "simulator paths" for the determinism lint:
#: wall-clock and environment reads reachable from these are errors
#: (results must be a pure function of config + seed).  Operational
#: layers (orchestrator, store) legitimately read clocks.
SIM_PATH_PREFIXES = ("sim.", "core.", "isa.")
SIM_PATH_MODULES = frozenset({"sim", "core", "isa"})

#: Function names that root serialization / human-readable output.  Any
#: code reachable *from* one of these feeds bytes that are stored,
#: diffed, or rendered — unordered-set iteration there is a
#: nondeterminism leak even when every simulator value is exact.
OUTPUT_ROOT_PATTERN = re.compile(
    r"^(to_dict|to_json|to_summary|payload|summary|fingerprint|"
    r"spec_fingerprint|cell_fingerprint|disassemble|"
    r".*_report|.*_table|format_.*|write_.*|render.*|diagnostic_dump)$"
)

#: Module-global stdlib RNG entry points (draw from the interpreter-wide
#: generator; results would depend on import order and test interleaving).
GLOBAL_STDLIB_RNG = frozenset({
    "random", "randint", "randrange", "choice", "choices", "uniform",
    "shuffle", "sample", "seed", "gauss", "expovariate", "betavariate",
    "triangular", "vonmisesvariate", "paretovariate", "lognormvariate",
    "normalvariate", "weibullvariate", "getrandbits", "randbytes",
})

#: Sanctioned entry points on ``numpy.random`` — everything else is the
#: legacy global generator.
NUMPY_RNG_ALLOWED = frozenset({"default_rng", "Generator", "SeedSequence"})

#: Wall-clock reads (``module attr`` pairs).
WALLCLOCK_CALLS = frozenset({
    ("time", "time"), ("time", "monotonic"), ("time", "perf_counter"),
    ("time", "process_time"), ("time", "time_ns"), ("time", "monotonic_ns"),
    ("time", "perf_counter_ns"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
})

#: Methods that mutate their receiver in place — calling one of these on
#: a module-global name counts as a global write.
MUTATING_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "discard", "remove",
    "pop", "popitem", "clear", "setdefault", "sort", "reverse",
    "appendleft", "extendleft",
})

#: Method names so overwhelmingly used on stdlib containers/strings/files
#: that duck-resolving them to same-named project methods would drown the
#: call graph in false edges (``pending.get(...)``, ``handle.write`` is
#: kept — the memory-model seam needs it).  Calls through *typed*
#: receivers still resolve normally.
DUCK_EXCLUDE = frozenset({
    "get", "items", "keys", "values", "setdefault", "append", "extend",
    "insert", "pop", "popitem", "clear", "sort", "reverse", "remove",
    "discard", "add", "update", "copy", "join", "split", "rsplit",
    "strip", "rstrip", "lstrip", "startswith", "endswith", "format",
    "encode", "decode", "lower", "upper", "count", "index", "replace",
    "open", "exists", "mkdir", "resolve", "relative_to", "with_suffix",
    "flush", "close", "fileno", "readline", "splitlines", "tolist",
})

#: Builtins whose argument is consumed order-insensitively, so a
#: set-typed argument is safe.
ORDER_FREE_CONSUMERS = frozenset({
    "sorted", "len", "min", "max", "any", "all", "frozenset", "set",
    "bool",
})
