"""Unit tests for the selfcheck static analyzer.

Covers the worklist solver, the inline suppression mechanics, the schema
goldens, and the regression gate: ``src/repro`` must stay strict-clean
(every fixed true positive stays fixed, every remaining exemption stays
justified and still matches a finding).
"""

from pathlib import Path

from repro.selfcheck import RULES, run_selfcheck
from repro.selfcheck.rules import ERROR, WARNING, Finding
from repro.selfcheck.worklist import (SummaryProblem, reachable_with_paths,
                                      solve_summaries)

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"


# ---------------------------------------------------------------------------
# Worklist solver
# ---------------------------------------------------------------------------

class _Union(SummaryProblem):
    def __init__(self, local):
        self.local = local

    def init(self, qualname):
        return frozenset(self.local.get(qualname, ()))

    def meet(self, a, b):
        return a | b


def test_solver_propagates_through_a_cycle():
    edges = {"a": {"b"}, "b": {"c"}, "c": {"b"}, "d": set()}
    summaries = solve_summaries(edges, _Union({"c": {"X"}, "d": {"Y"}}))
    assert summaries["a"] == frozenset({"X"})
    assert summaries["b"] == frozenset({"X"})  # b<->c cycle converges
    assert summaries["d"] == frozenset({"Y"})


def test_reachability_reports_shortest_call_path():
    edges = {"e": {"m"}, "m": {"deep"}, "deep": set(), "other": {"deep"}}
    paths = reachable_with_paths(edges, ["e"])
    assert paths["deep"] == ["e", "m", "deep"]
    assert "other" not in paths


# ---------------------------------------------------------------------------
# Rule catalog / finding semantics
# ---------------------------------------------------------------------------

def test_every_rule_has_a_severity_and_description():
    for rule, (severity, description) in RULES.items():
        assert severity in (ERROR, WARNING), rule
        assert description, rule


def test_finding_gating_matches_lint_semantics():
    err = Finding(rule="iso-global-write", path="x.py", line=1,
                  qualname="x.f", message="m")
    warn = Finding(rule="det-float-accum", path="x.py", line=1,
                   qualname="x.f", message="m")
    assert err.gates(strict=False) and err.gates(strict=True)
    assert not warn.gates(strict=False) and warn.gates(strict=True)
    err.suppressed = True
    assert not err.gates(strict=True)


# ---------------------------------------------------------------------------
# Suppressions and their meta rules
# ---------------------------------------------------------------------------

def _write_tree(tmp_path, name, source):
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    return tmp_path


def test_justified_suppression_silences_the_finding(tmp_path):
    _write_tree(tmp_path, "gen.py", (
        "import random\n"
        "def pick(items):\n"
        "    # selfcheck: ok[det-global-rng] -- fixture exercising suppression\n"
        "    random.shuffle(items)\n"
        "    return items\n"))
    report = run_selfcheck(tmp_path)
    rng = [f for f in report.findings if f.rule == "det-global-rng"]
    assert len(rng) == 1 and rng[0].suppressed
    assert report.ok(strict=True)


def test_bare_suppression_is_itself_an_error(tmp_path):
    _write_tree(tmp_path, "gen.py", (
        "import random\n"
        "def pick(items):\n"
        "    random.shuffle(items)  # selfcheck: ok[det-global-rng]\n"
        "    return items\n"))
    report = run_selfcheck(tmp_path)
    rules = {f.rule for f in report.findings}
    assert "meta-bare-suppression" in rules
    # The reasonless comment does NOT silence the underlying finding.
    assert any(f.rule == "det-global-rng" and f.active
               for f in report.findings)
    assert not report.ok()


def test_unmatched_suppression_is_flagged_stale(tmp_path):
    # The finding the comment waived is gone: the comment must go too.
    _write_tree(tmp_path, "gen.py", (
        "def pick(items):\n"
        "    # selfcheck: ok[det-global-rng] -- the shuffle below was removed\n"
        "    return sorted(items)\n"))
    report = run_selfcheck(tmp_path)
    stale = [f for f in report.findings if f.rule == "meta-stale-suppression"]
    assert [(f.path, f.line) for f in stale] == [("gen.py", 2)]
    assert "[det-global-rng] matches no current finding" in stale[0].message
    assert report.ok() and not report.ok(strict=True)


def test_suppression_syntax_inside_a_string_is_not_a_comment(tmp_path):
    _write_tree(tmp_path, "doc.py", (
        '"""Waive a finding with::\n'
        '\n'
        '    x = f()  # selfcheck: ok[det-set-iter] -- example\n'
        '"""\n'
        'HINT = "write `# selfcheck: ok[rule] -- reason`"\n'
        'BARE = "# selfcheck: ok[det-set-iter]"\n'))
    report = run_selfcheck(tmp_path)
    assert report.findings == []


# ---------------------------------------------------------------------------
# Schema goldens
# ---------------------------------------------------------------------------

def test_golden_drift_fires_on_renamed_stats_field(tmp_path):
    _write_tree(tmp_path, "sim/stats.py", (
        "from dataclasses import dataclass, field\n"
        "@dataclass\n"
        "class SMStats:\n"
        "    cycles: int = 0\n"
        "    renamed_field: int = 0\n"))
    report = run_selfcheck(tmp_path)
    drift = [f for f in report.findings if f.rule == "schema-golden-drift"]
    assert drift, "golden drift must fire on a mutated SMStats"
    assert "renamed_field" in drift[0].message
    assert drift[0].severity == ERROR


def test_golden_drift_fires_on_schema_version_bump(tmp_path):
    _write_tree(tmp_path, "store/cas.py", "SCHEMA_VERSION = 2\n")
    report = run_selfcheck(tmp_path)
    drift = [f for f in report.findings if f.rule == "schema-golden-drift"]
    assert drift and "SCHEMA_VERSION is 2" in drift[0].message


# ---------------------------------------------------------------------------
# Regression gate: the real tree stays strict-clean and justified
# ---------------------------------------------------------------------------

def test_src_repro_is_strict_clean():
    report = run_selfcheck(SRC)
    gating = [f for f in report.findings if f.gates(strict=True)]
    assert not gating, "\n".join(
        f"{f.rule} {f.path}:{f.line} {f.message}" for f in gating)
    # Every exemption is a justified inline comment that still matches a
    # finding: the meta rules saw none bare or stale.
    assert not any(f.rule.startswith("meta-") for f in report.findings)


def test_worker_entries_have_no_transitive_write_footprint():
    report = run_selfcheck(SRC)
    assert report.worker_summaries, "parallel engine worker entries found"
    # The only worker-reachable global write is the justified warp-mask
    # memo; the summaries count raw sites, pre-suppression.
    assert all(count <= 1 for count in report.worker_summaries.values()), (
        report.worker_summaries)
