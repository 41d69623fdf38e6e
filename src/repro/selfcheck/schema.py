"""Serialization schema-drift checker.

Every ``to_dict``/``from_dict`` (and ``to_json``/``from_json``) pair is
checked for field completeness by comparing the keys the serializer
*produces* (dict-literal keys, ``x["k"] = …`` stores, or every dataclass
field when ``dataclasses.asdict`` is used) against the keys the
deserializer *consumes*:

* a hard ``data["k"]`` read of a never-produced key is
  ``schema-pair-drift`` (round-trip raises ``KeyError``);
* a tolerant ``data.get("k")`` read of a never-produced key is
  ``schema-orphan-read`` (dead key or silently dropped field);
* a dataclass field missing from a literal-only serializer payload is
  ``schema-field-coverage`` (silently dropped on round-trip).

Deserializers that consume via ``cls(**…)`` splats accept any produced
key, so they are exempt from pair-drift.  Calls to same-module
``*from_*`` helpers are inlined one level, which is how
a ``from_json`` → ``record_from_dict`` read chain is attributed.

On top of the pairwise checks, the **schema-v1 goldens** pin the exact
key sets of the durable artifacts — ``SMStats``/``SimStats`` fields,
``StoreEntry.payload`` keys (shared by ``ok`` entries and terminal
failures), and the ``SCHEMA_VERSION`` constants.  Changing any of those
without bumping the version (and these goldens) is
``schema-golden-drift``: store entries on disk would stop round-tripping.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.selfcheck.project import ClassInfo, ModuleInfo, Project
from repro.selfcheck.rules import Finding

SERIALIZER_NAMES = ("to_dict", "to_json", "payload")
DESERIALIZER_NAMES = ("from_dict", "from_json")

_PAIR_SUFFIX = re.compile(r"^(?P<stem>.+)_to_(?P<fmt>dict|json)$")

#: Pinned schema-v1 shapes of the durable on-disk artifacts.  Keyed by
#: (module, target); values are exact sorted key/field lists.  Bump
#: SCHEMA_VERSION and these lists together, consciously.
GOLDEN_FIELDS: dict[tuple[str, str], tuple[str, ...]] = {
    ("sim.stats", "SMStats"): (
        "active_cta_samples", "ctas_completed", "cycles",
        "global_transactions", "idle_cycles_alu", "idle_cycles_barrier",
        "idle_cycles_empty", "idle_cycles_mem", "idle_cycles_struct",
        "idle_cycles_swap", "instructions", "instructions_by_class",
        "issue_slots", "issued_slots", "l1_accesses", "l1_hits",
        "occupancy_samples", "resident_cta_samples",
        "resident_warp_samples", "schedulable_warp_samples",
        "smem_accesses", "smem_bank_conflict_passes", "swap_busy_cycles",
        "swaps", "thread_instructions",
    ),
    ("sim.stats", "SimStats"): (
        "ctas_launched", "cycles", "dram_requests", "instructions",
        "l2_accesses", "l2_hits", "sm_stats", "thread_instructions",
    ),
    ("store.cas", "StoreEntry.payload"): (
        "attempts", "created_at", "elapsed_s", "fingerprint", "record",
        "scale", "seed",
    ),
    ("isa.analysis.bounds", "TripBound.to_dict"): (
        "exact", "hi", "lo", "pc", "source",
    ),
    ("isa.analysis.bounds", "KernelBound.to_dict"): (
        "arch", "buckets", "ctas", "floors", "hi", "kernel", "lo",
        "mode", "tightness", "trips", "warps",
    ),
}

#: module -> expected SCHEMA_VERSION constant value.
GOLDEN_SCHEMA_VERSION: dict[str, int] = {
    "store.cas": 1,
}


@dataclass
class _Produced:
    """Keys a serializer emits."""

    keys: dict[str, int] = field(default_factory=dict)  # key -> line
    all_fields: bool = False  # dataclasses.asdict(...) seen


@dataclass
class _Consumed:
    """Keys a deserializer reads."""

    hard: dict[str, int] = field(default_factory=dict)
    tolerant: dict[str, int] = field(default_factory=dict)
    splat: bool = False  # cls(**...) — accepts any produced key


def _produced(fn_node: ast.AST) -> _Produced:
    out = _Produced()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and isinstance(key.value, str):
                    out.keys.setdefault(key.value, key.lineno)
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                out.keys.setdefault(sl.value, node.lineno)
        elif isinstance(node, ast.Call):
            name = None
            if isinstance(node.func, ast.Name):
                name = node.func.id
            elif isinstance(node.func, ast.Attribute):
                name = node.func.attr
            if name == "asdict":
                out.all_fields = True
    return out


def _consumed(fn_node: ast.AST, mod: ModuleInfo,
              depth: int = 1) -> _Consumed:
    out = _Consumed()
    for node in ast.walk(fn_node):
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            sl = node.slice
            if isinstance(sl, ast.Constant) and isinstance(sl.value, str):
                out.hard.setdefault(sl.value, node.lineno)
        elif isinstance(node, ast.Call):
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "get" and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                out.tolerant.setdefault(node.args[0].value, node.lineno)
            if any(kw.arg is None for kw in node.keywords):
                out.splat = True
            # Inline same-module *from_* helpers one level deep.
            if (depth > 0 and isinstance(node.func, ast.Name)
                    and "from_" in node.func.id
                    and node.func.id in mod.functions):
                inner = _consumed(mod.functions[node.func.id].node, mod,
                                  depth=depth - 1)
                for key, line in inner.hard.items():
                    out.hard.setdefault(key, line)
                for key, line in inner.tolerant.items():
                    out.tolerant.setdefault(key, line)
                out.splat = out.splat or inner.splat
    return out


def _pairs(mod: ModuleInfo):
    """(owner_qualname, serializer FunctionInfo, deserializer
    FunctionInfo-or-None, dataclass fields-or-None) per serializer."""
    out = []
    for cls in mod.classes.values():
        ser = next((cls.methods[n] for n in SERIALIZER_NAMES
                    if n in cls.methods), None)
        if ser is None:
            continue
        deser = next((cls.methods[n] for n in DESERIALIZER_NAMES
                      if n in cls.methods), None)
        fields = tuple(cls.fields) if cls.is_dataclass else None
        out.append((cls.qualname, ser, deser, fields, cls))
    for name, fn in mod.functions.items():
        m = _PAIR_SUFFIX.match(name)
        if not m:
            continue
        counterpart = f"{m.group('stem')}_from_{m.group('fmt')}"
        deser = mod.functions.get(counterpart)
        out.append((fn.qualname, fn, deser, None, None))
    return out


def check_schema(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    seen: set[tuple] = set()

    def emit(rule, mod, line, qualname, message):
        key = (rule, mod.name, line, message)
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            rule=rule, path=_relpath(project, mod), line=line,
            qualname=qualname, message=message))

    for mod in project.modules.values():
        for qualname, ser, deser, fields, cls in _pairs(mod):
            produced = _produced(ser.node)
            known = set(produced.keys)
            if produced.all_fields and fields is not None:
                known |= set(fields)
            if deser is not None:
                consumed = _consumed(deser.node, mod)
                unknowable = produced.all_fields and fields is None
                if not (consumed.splat or unknowable):
                    for key, line in sorted(consumed.hard.items()):
                        if key not in known:
                            emit("schema-pair-drift", mod, line,
                                 deser.qualname,
                                 f"{deser.name}() hard-reads key {key!r} "
                                 f"that {ser.name}() never produces")
                if not unknowable:
                    for key, line in sorted(consumed.tolerant.items()):
                        if key not in known:
                            emit("schema-orphan-read", mod, line,
                                 deser.qualname,
                                 f"{deser.name}() reads key {key!r} via "
                                 f".get() but {ser.name}() never "
                                 f"produces it")
            if (fields is not None and not produced.all_fields
                    and produced.keys):
                for fld in fields:
                    if fld not in produced.keys:
                        emit("schema-field-coverage", mod, ser.lineno,
                             ser.qualname,
                             f"dataclass field {fld!r} missing from "
                             f"{ser.name}() payload")

    findings.extend(_check_goldens(project))
    return findings


def _check_goldens(project: Project) -> list[Finding]:
    findings: list[Finding] = []
    for (mod_name, target), golden in sorted(GOLDEN_FIELDS.items()):
        mod = project.modules.get(mod_name)
        if mod is None:  # fixture trees don't carry the real modules
            continue
        if "." in target:
            cls_name, method = target.split(".")
            cls = mod.classes.get(cls_name)
            if cls is None or method not in cls.methods:
                continue
            fn = cls.methods[method]
            actual = sorted(_produced(fn.node).keys)
            line, qualname = fn.lineno, fn.qualname
            what = f"{target}() keys"
        else:
            cls = mod.classes.get(target)
            if cls is None:
                continue
            actual = sorted(cls.fields)
            line, qualname = cls.node.lineno, cls.qualname
            what = f"{target} fields"
        missing = sorted(set(golden) - set(actual))
        extra = sorted(set(actual) - set(golden))
        if missing or extra:
            detail = []
            if missing:
                detail.append(f"missing {missing}")
            if extra:
                detail.append(f"added {extra}")
            findings.append(Finding(
                rule="schema-golden-drift", path=_relpath(project, mod),
                line=line, qualname=qualname,
                message=(f"{what} drifted from the schema-v1 golden: "
                         f"{'; '.join(detail)} — bump SCHEMA_VERSION and "
                         f"the goldens together")))
    for mod_name, expected in sorted(GOLDEN_SCHEMA_VERSION.items()):
        mod = project.modules.get(mod_name)
        if mod is None:
            continue
        actual = _schema_version(mod)
        if actual is not None and actual != expected:
            findings.append(Finding(
                rule="schema-golden-drift", path=_relpath(project, mod),
                line=1, qualname=mod.name,
                message=(f"SCHEMA_VERSION is {actual}, golden pins "
                         f"{expected}; update the selfcheck goldens with "
                         f"the version bump")))
    return findings


def _schema_version(mod: ModuleInfo):
    for node in mod.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Name)
                        and target.id == "SCHEMA_VERSION"
                        and isinstance(node.value, ast.Constant)):
                    return node.value.value
    return None


def _relpath(project: Project, mod: ModuleInfo) -> str:
    try:
        return mod.path.relative_to(project.root).as_posix()
    except ValueError:  # pragma: no cover
        return mod.path.as_posix()
