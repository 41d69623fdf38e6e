"""Selfcheck rule catalog and the finding record.

Every detector emits :class:`Finding` objects tagged with a rule id from
:data:`RULES`.  Severity semantics match ``repro lint``: *error* findings
always gate; *warning* findings gate only under ``--strict``.  See
``docs/SELFCHECK.md`` for the full catalog with examples and fixes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

ERROR = "error"
WARNING = "warning"

#: rule id -> (severity, one-line description)
RULES: dict[str, tuple[str, str]] = {
    "iso-global-write": (
        ERROR,
        "shard-worker-reachable code writes module-global or class-level "
        "state (breaks shard isolation and fork/inline equivalence)"),
    "iso-shared-call": (
        ERROR,
        "shard-worker-reachable code calls a coordinator-shared class "
        "(MemoryModel/ProgressTracker) directly instead of going through "
        "the DeferredMemory/ShardGmem sentinels"),
    "iso-unmirrored-call": (
        ERROR,
        "worker-reachable duck-typed call could bind a coordinator-shared "
        "class and no sentinel class implements the method (the injection "
        "seam is broken: add the method to the sentinel)"),
    "det-global-rng": (
        ERROR,
        "module-global RNG use (random.* / legacy np.random.*); thread an "
        "explicitly seeded random.Random or np.random.default_rng instead"),
    "det-wallclock": (
        ERROR,
        "wall-clock read reachable from simulator code; results must be a "
        "pure function of config + seed"),
    "det-env-read": (
        ERROR,
        "os.environ read reachable from simulator code; configuration "
        "must flow through GPUConfig, not the process environment"),
    "det-set-iter": (
        ERROR,
        "iteration over an unordered set on a serialization/output path; "
        "wrap the iterable in sorted(...)"),
    "det-float-accum": (
        WARNING,
        "float accumulation over an unordered iteration; the rounding "
        "depends on hash order — accumulate over a sorted sequence"),
    "schema-pair-drift": (
        ERROR,
        "from_dict/from_json performs a hard read of a key its to_dict/"
        "to_json never produces (round-trip would raise KeyError)"),
    "schema-orphan-read": (
        WARNING,
        "from_dict/from_json tolerantly reads (via .get) a key the "
        "serializer never produces — dead key or silent field drop"),
    "schema-field-coverage": (
        WARNING,
        "dataclass field missing from its to_dict payload; the field is "
        "silently dropped on round-trip"),
    "schema-golden-drift": (
        ERROR,
        "schema-v1 key set of stats/store drifted from the "
        "pinned golden; bump the schema version and goldens consciously"),
    "meta-bare-suppression": (
        ERROR,
        "selfcheck suppression comment without a justification; write "
        "`# selfcheck: ok[rule] -- reason`"),
    "meta-stale-baseline": (
        WARNING,
        "baseline entry matches no current finding; delete it"),
    "meta-unjustified-baseline": (
        ERROR,
        "baseline entry without a non-empty reason"),
}


@dataclass
class Finding:
    """One selfcheck violation, with location and evidence."""

    rule: str
    path: str  # project-root-relative posix path
    line: int
    qualname: str  # enclosing function/class, or module name
    message: str
    #: call-path evidence for reachability rules: entry → … → qualname
    call_path: list[str] = field(default_factory=list)
    suppressed: bool = False  # matched a justified inline suppression
    baselined: bool = False  # baseline file entry matched

    @property
    def severity(self) -> str:
        return RULES[self.rule][0]

    @property
    def active(self) -> bool:
        return not (self.suppressed or self.baselined)

    def gates(self, strict: bool) -> bool:
        """Does this finding fail the run?"""
        if not self.active:
            return False
        return self.severity == ERROR or strict

    def sort_key(self):
        return (self.severity != ERROR, self.rule, self.path, self.line)

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "qualname": self.qualname,
            "message": self.message,
            "call_path": list(self.call_path),
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }
