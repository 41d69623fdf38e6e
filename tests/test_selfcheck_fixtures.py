"""Planted-violation fixtures: every selfcheck detector must fire.

Each fixture tree under ``tests/fixtures/selfcheck/`` plants one class
of violation; the analyzer must report the expected rule at the right
``file:line`` with call-path evidence, in both the table and JSON output
of the CLI, and exit 1.
"""

import json

import pytest
from pathlib import Path

from repro.cli import main
from repro.selfcheck import run_selfcheck

FIXTURES = Path(__file__).resolve().parent / "fixtures" / "selfcheck"


def _findings(name):
    return run_selfcheck(FIXTURES / name).findings


def _by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule, []).append(f)
    return out


# ---------------------------------------------------------------------------
# Shard-isolation race detector
# ---------------------------------------------------------------------------

def test_cross_shard_write_fixture_fires_all_isolation_rules():
    by_rule = _by_rule(_findings("cross_shard_write"))
    gw = by_rule["iso-global-write"]
    assert gw[0].path == "parallel.py"
    assert gw[0].qualname == "parallel._Shard.advance"
    assert "_EPOCH_LOG" in gw[0].message
    assert gw[0].call_path[0] == "parallel._Shard.advance"

    shared = by_rule["iso-shared-call"]
    kinds = {f.qualname for f in shared}
    assert "parallel._Shard.__init__" in kinds  # MemoryModel() instantiation
    assert "parallel._Shard.advance" in kinds  # typed .write() call

    unmirrored = by_rule["iso-unmirrored-call"]
    assert unmirrored[0].qualname == "parallel.L1.touch"
    assert "prefetch" in unmirrored[0].message
    # Call-path evidence: worker entry -> the seam.
    assert unmirrored[0].call_path == [
        "parallel._Shard.advance", "parallel.L1.touch"]


def test_sanctioned_sentinel_mirror_is_not_flagged():
    findings = _findings("cross_shard_write")
    # .read() is mirrored by DeferredMemory: the duck call is legal.
    assert not any("read" in f.message and f.rule == "iso-unmirrored-call"
                   for f in findings)


# ---------------------------------------------------------------------------
# Determinism lint
# ---------------------------------------------------------------------------

def test_global_rng_fixture_flags_both_generators():
    rng = _by_rule(_findings("global_rng"))["det-global-rng"]
    lines = {f.line for f in rng}
    assert lines == {9, 10}, rng
    messages = " ".join(f.message for f in rng)
    assert "random.shuffle" in messages and "np.random.rand" in messages
    # The seeded instance constructors in the same file stay clean.
    assert all(f.qualname == "gen.pick" for f in rng)


def test_wallclock_fixture_flags_sim_path_reads():
    by_rule = _by_rule(_findings("wallclock"))
    clock = by_rule["det-wallclock"][0]
    assert (clock.path, clock.line) == ("sim/tick.py", 8)
    assert clock.call_path == ["sim.tick.step"]
    env = by_rule["det-env-read"][0]
    assert (env.path, env.line) == ("sim/tick.py", 9)


def test_set_order_leak_fixture_flags_output_path_iteration():
    by_rule = _by_rule(_findings("set_order_leak"))
    it = by_rule["det-set-iter"][0]
    assert (it.path, it.line) == ("report.py", 8)
    assert it.qualname == "report.write_report"
    acc = by_rule["det-float-accum"][0]
    assert acc.line == 10 and acc.severity == "warning"
    # sorted() consumption in helper_ok is order-free: not flagged.
    assert len(by_rule["det-set-iter"]) == 1


# ---------------------------------------------------------------------------
# Schema drift
# ---------------------------------------------------------------------------

def test_schema_drift_fixture_flags_all_three_rules():
    by_rule = _by_rule(_findings("schema_drift"))
    drift = by_rule["schema-pair-drift"][0]
    assert "missing" in drift.message and drift.line == 20
    orphan = by_rule["schema-orphan-read"][0]
    assert "legacy" in orphan.message
    coverage = by_rule["schema-field-coverage"][0]
    assert "gamma" in coverage.message
    assert coverage.qualname == "model.Rec.to_dict"


# ---------------------------------------------------------------------------
# CLI: exit codes, table, and JSON document shape
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("fixture", [
    "cross_shard_write", "global_rng", "wallclock", "set_order_leak",
    "schema_drift",
])
def test_cli_exits_1_on_planted_violation(fixture, capsys):
    rc = main(["selfcheck", str(FIXTURES / fixture)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "selfcheck: FAIL" in out
    assert ".py:" in out  # file:line evidence in the table


def test_cli_json_document_shape(capsys):
    rc = main(["selfcheck", str(FIXTURES / "cross_shard_write"),
               "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert doc["ok"] is False
    assert doc["counts"]["iso-global-write"] == 1
    finding = next(f for f in doc["findings"]
                   if f["rule"] == "iso-unmirrored-call")
    assert finding["path"] == "parallel.py"
    assert finding["line"] == 41
    assert finding["call_path"] == [
        "parallel._Shard.advance", "parallel.L1.touch"]
    assert {"rule", "severity", "path", "line", "qualname", "message",
            "call_path", "suppressed"} <= set(finding)


def test_cli_table_includes_call_path_evidence(capsys):
    rc = main(["selfcheck", str(FIXTURES / "cross_shard_write")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "via parallel._Shard.advance -> parallel.L1.touch" in out


def test_cli_strict_gates_warnings(capsys):
    # set_order_leak has an error; schema fixture's field-coverage warning
    # only gates under --strict.
    rc_default = main(["selfcheck", str(FIXTURES / "schema_drift")])
    capsys.readouterr()
    rc_strict = main(["selfcheck", str(FIXTURES / "schema_drift"),
                      "--strict"])
    capsys.readouterr()
    assert rc_default == 1  # pair-drift is an error already
    assert rc_strict == 1


def test_cli_on_repo_tree_is_clean(capsys):
    repo = Path(__file__).resolve().parent.parent
    rc = main(["selfcheck", str(repo / "src" / "repro"), "--strict"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "selfcheck: OK" in out
