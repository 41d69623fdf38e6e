"""Selfcheck orchestration: run every analysis, apply suppressions and
the baseline, render the report.

Suppression comment syntax (on the finding line or the line above)::

    x = risky()  # selfcheck: ok[det-set-iter] -- membership only, sorted downstream

A suppression without a ``-- reason`` is itself an error
(``meta-bare-suppression``): the analyzer refuses to accumulate
unexplained exemptions.  The baseline file is JSON::

    {"version": 1, "entries": [
        {"rule": "schema-field-coverage", "path": "isa/analysis/lint.py",
         "qualname": "isa.analysis.lint.LintReport.to_dict",
         "reason": "liveness is non-JSON-safe; findings derived from it are serialized"}]}

Baseline entries must carry a reason (``meta-unjustified-baseline``) and
must still match a finding (``meta-stale-baseline``), so the debt list
can only shrink.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.tables import format_table
from repro.selfcheck.callgraph import CallGraph
from repro.selfcheck.determinism import check_determinism
from repro.selfcheck.effects import summarize_all
from repro.selfcheck.isolation import (check_isolation, entry_write_summaries,
                                       worker_entries)
from repro.selfcheck.project import Project
from repro.selfcheck.rules import ERROR, RULES, Finding
from repro.selfcheck.schema import check_schema

SUPPRESS_RE = re.compile(
    r"#\s*selfcheck:\s*ok\[(?P<rule>[a-z0-9-]+)\]"
    r"(?:\s*--\s*(?P<reason>\S.*))?")

BASELINE_VERSION = 1


@dataclass
class SelfcheckReport:
    """Everything one run produced."""

    root: str
    findings: list[Finding] = field(default_factory=list)
    baseline_path: str | None = None
    baseline_used: int = 0
    baseline_stale: int = 0
    #: per worker entry: transitively reachable state-write sites
    worker_summaries: dict[str, int] = field(default_factory=dict)
    modules: int = 0
    functions: int = 0

    def ok(self, strict: bool = False) -> bool:
        return not any(f.gates(strict) for f in self.findings)

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            if f.active:
                out[f.rule] = out.get(f.rule, 0) + 1
        return out

    # selfcheck: ok[schema-field-coverage] -- baseline_*/worker_summaries are serialized nested under the 'baseline' and 'worker_entries' keys
    def to_dict(self, strict: bool = False) -> dict:
        return {
            "version": BASELINE_VERSION,
            "root": self.root,
            "strict": strict,
            "ok": self.ok(strict),
            "modules": self.modules,
            "functions": self.functions,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
            "baseline": {
                "path": self.baseline_path,
                "used": self.baseline_used,
                "stale": self.baseline_stale,
            },
            "worker_entries": self.worker_summaries,
        }

    def render_table(self, strict: bool = False) -> str:
        rows = []
        for f in self.findings:
            if not f.active:
                continue
            message = f.message
            if f.call_path and len(f.call_path) > 1:
                message += f"  [via {' -> '.join(f.call_path)}]"
            rows.append((f.rule, f.severity, f"{f.path}:{f.line}",
                         f.qualname, message))
        lines = []
        if rows:
            lines.append(format_table(
                ("rule", "severity", "where", "function", "finding"),
                rows, title="selfcheck findings"))
        suppressed = sum(1 for f in self.findings if not f.active)
        counts = self.counts()
        gate = sum(1 for f in self.findings if f.gates(strict))
        lines.append(
            f"selfcheck: {self.modules} modules, {self.functions} "
            f"functions; {sum(counts.values())} finding(s) "
            f"({suppressed} suppressed/baselined, {gate} gating"
            f"{' under --strict' if strict else ''})")
        lines.append("selfcheck: " + ("OK" if self.ok(strict) else "FAIL"))
        return "\n".join(lines)


def load_baseline(path: Path) -> list[dict]:
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("version") != BASELINE_VERSION:
        raise ValueError(f"unsupported baseline format in {path}")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise ValueError(f"baseline 'entries' must be a list in {path}")
    return entries


def _apply_suppressions(project: Project,
                        findings: list[Finding]) -> list[Finding]:
    """Match inline suppression comments; flag bare ones.  A comment on
    line N covers findings on N and N+1 (comment-above style)."""
    meta: list[Finding] = []
    by_module: dict[str, list[tuple[int, str, str | None]]] = {}
    for mod in project.modules.values():
        rel = _mod_relpath(project, mod)
        comments = []
        for lineno, text in enumerate(mod.source_lines, start=1):
            m = SUPPRESS_RE.search(text)
            if not m:
                continue
            comments.append((lineno, m.group("rule"), m.group("reason")))
            if not m.group("reason"):
                meta.append(Finding(
                    rule="meta-bare-suppression", path=rel, line=lineno,
                    qualname=mod.name,
                    message=(f"suppression of [{m.group('rule')}] has no "
                             f"reason; write `# selfcheck: "
                             f"ok[{m.group('rule')}] -- why`")))
        if comments:
            by_module[rel] = comments
    for f in findings:
        for lineno, rule, reason in by_module.get(f.path, ()):
            if rule == f.rule and reason and lineno in (f.line, f.line - 1):
                f.suppressed = True
                break
    return meta


def _apply_baseline(findings: list[Finding], entries: list[dict],
                    baseline_path: str) -> tuple[int, int, list[Finding]]:
    meta: list[Finding] = []
    used = 0
    stale = 0
    for idx, entry in enumerate(entries):
        rule = entry.get("rule")
        path = entry.get("path")
        qualname = entry.get("qualname")
        reason = (entry.get("reason") or "").strip()
        if not reason:
            meta.append(Finding(
                rule="meta-unjustified-baseline", path=baseline_path,
                line=idx + 1, qualname=str(rule),
                message=(f"baseline entry #{idx} ({rule} @ {path}) has no "
                         f"reason")))
        matched = False
        for f in findings:
            if f.rule != rule or f.path != path:
                continue
            if qualname and f.qualname != qualname:
                continue
            f.baselined = True
            matched = True
        if matched:
            used += 1
        else:
            stale += 1
            meta.append(Finding(
                rule="meta-stale-baseline", path=baseline_path,
                line=idx + 1, qualname=str(rule),
                message=(f"baseline entry #{idx} ({rule} @ {path}"
                         f"{' ' + qualname if qualname else ''}) matches "
                         f"no current finding; delete it")))
    return used, stale, meta


def run_selfcheck(root: str | Path,
                  baseline: str | Path | None = None) -> SelfcheckReport:
    """Run every analysis over ``root`` and fold in suppressions and the
    optional baseline file."""
    project = Project(root)
    effects = summarize_all(project)
    graph = CallGraph.build(project, effects)

    findings: list[Finding] = []
    findings.extend(check_isolation(graph))
    findings.extend(check_determinism(graph))
    findings.extend(check_schema(project))

    report = SelfcheckReport(
        root=str(project.root),
        modules=len(project.modules),
        functions=len(project.functions),
        worker_summaries=entry_write_summaries(graph)
        if worker_entries(graph) else {},
    )

    findings.extend(_apply_suppressions(project, findings))
    if baseline is not None:
        baseline = Path(baseline)
        entries = load_baseline(baseline)
        used, stale, meta = _apply_baseline(findings, entries, str(baseline))
        findings.extend(meta)
        report.baseline_path = str(baseline)
        report.baseline_used = used
        report.baseline_stale = stale

    report.findings = sorted(findings, key=Finding.sort_key)
    return report


def _mod_relpath(project: Project, mod) -> str:
    try:
        return mod.path.relative_to(project.root).as_posix()
    except ValueError:  # pragma: no cover
        return mod.path.as_posix()


__all__ = ["SelfcheckReport", "run_selfcheck", "load_baseline",
           "RULES", "ERROR"]
