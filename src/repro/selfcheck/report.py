"""Selfcheck orchestration: run every analysis, apply inline
suppressions, render the report.

Suppression comment syntax (on the finding line or the line above)::

    x = risky()  # selfcheck: ok[det-set-iter] -- membership only, sorted downstream

A suppression without a ``-- reason`` is itself an error
(``meta-bare-suppression``): the analyzer refuses to accumulate
unexplained exemptions.  A justified suppression that matches no current
finding is a warning (``meta-stale-suppression``), so the exemption list
can only shrink.  Only real ``#`` comments count: the example above sits
in a docstring and waives nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
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


@dataclass
class SelfcheckReport:
    """Everything one run produced."""

    root: str
    findings: list[Finding] = field(default_factory=list)
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

    # selfcheck: ok[schema-field-coverage] -- worker_summaries is serialized under the 'worker_entries' key
    def to_dict(self, strict: bool = False) -> dict:
        return {
            "version": 1,
            "root": self.root,
            "strict": strict,
            "ok": self.ok(strict),
            "modules": self.modules,
            "functions": self.functions,
            "findings": [f.to_dict() for f in self.findings],
            "counts": self.counts(),
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
            f"({suppressed} suppressed, {gate} gating"
            f"{' under --strict' if strict else ''})")
        lines.append("selfcheck: " + ("OK" if self.ok(strict) else "FAIL"))
        return "\n".join(lines)


def _suppression_comments(mod):
    """``(line, match)`` for each suppression in a real ``#`` comment of
    ``mod`` (string literals that merely contain the syntax are skipped)."""
    readline = io.StringIO("\n".join(mod.source_lines) + "\n").readline
    for tok in tokenize.generate_tokens(readline):
        if tok.type == tokenize.COMMENT:
            m = SUPPRESS_RE.search(tok.string)
            if m:
                yield tok.start[0], m


def _apply_suppressions(project: Project,
                        findings: list[Finding]) -> list[Finding]:
    """Match inline suppression comments; flag bare and stale ones.  A
    comment on line N covers findings on N and N+1 (comment-above style)."""
    meta: list[Finding] = []
    justified: dict[str, list[tuple[int, str, str]]] = {}
    for mod in project.modules.values():
        rel = _mod_relpath(project, mod)
        for lineno, m in _suppression_comments(mod):
            rule = m.group("rule")
            if m.group("reason"):
                justified.setdefault(rel, []).append((lineno, rule, mod.name))
                continue
            meta.append(Finding(
                rule="meta-bare-suppression", path=rel, line=lineno,
                qualname=mod.name,
                message=(f"suppression of [{rule}] has no reason; write "
                         f"`# selfcheck: ok[{rule}] -- why`")))
    used = set()
    for f in findings:
        for lineno, rule, _name in justified.get(f.path, ()):
            if rule == f.rule and lineno in (f.line, f.line - 1):
                f.suppressed = True
                used.add((f.path, lineno))
                break
    for rel, comments in justified.items():
        for lineno, rule, name in comments:
            if (rel, lineno) not in used:
                meta.append(Finding(
                    rule="meta-stale-suppression", path=rel, line=lineno,
                    qualname=name,
                    message=(f"suppression of [{rule}] matches no current "
                             f"finding; delete it")))
    return meta


def run_selfcheck(root: str | Path) -> SelfcheckReport:
    """Run every analysis over ``root`` and fold in the inline
    suppressions."""
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
    report.findings = sorted(findings, key=Finding.sort_key)
    return report


def _mod_relpath(project: Project, mod) -> str:
    try:
        return mod.path.relative_to(project.root).as_posix()
    except ValueError:  # pragma: no cover
        return mod.path.as_posix()


__all__ = ["SelfcheckReport", "run_selfcheck", "RULES", "ERROR"]
