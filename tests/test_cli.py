"""CLI commands (invoked in-process via repro.cli.main)."""

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_list(capsys):
    code, out, _err = run_cli(capsys, "list")
    assert code == 0
    assert "bfs" in out and "mm_tiled" in out
    assert "scheduling" in out and "capacity" in out


def test_run(capsys):
    code, out, _err = run_cli(capsys, "run", "vecadd", "--scale", "0.25", "--sms", "1")
    assert code == 0
    assert "IPC" in out and "vecadd" in out


def test_run_with_arch_and_scheduler(capsys):
    code, out, _err = run_cli(capsys, "run", "stride", "--arch", "vt",
                              "--scale", "0.25", "--sms", "1", "--scheduler", "lrr")
    assert code == 0
    assert "swaps" in out


def test_compare(capsys):
    code, out, _err = run_cli(capsys, "compare", "stride", "--scale", "0.5", "--sms", "1")
    assert code == 0
    for arch in ("baseline", "vt", "ideal-sched"):
        assert arch in out
    assert "speedup" in out


def test_occupancy(capsys):
    code, out, _err = run_cli(capsys, "occupancy", "stride")
    assert code == 0
    assert "unbounded" in out  # no shared memory
    assert "headroom" in out


def test_disasm(capsys):
    code, out, _err = run_cli(capsys, "disasm", "vecadd")
    assert code == 0
    assert ".kernel vecadd" in out
    assert "LDG" in out


def test_profile(capsys):
    code, out, _err = run_cli(capsys, "profile", "reduction")
    assert code == 0
    assert "barriers" in out and "arithmetic intensity" in out


def test_experiment_static(capsys):
    code, out, _err = run_cli(capsys, "experiment", "e11")
    assert code == 0
    assert "backup SRAM" in out


def test_experiment_unknown(capsys):
    code, _out, err = run_cli(capsys, "experiment", "E99")
    assert code == 2
    assert "unknown experiment" in err


def test_unknown_benchmark(capsys):
    code, _out, err = run_cli(capsys, "run", "nope", "--scale", "0.25")
    assert code == 2
    assert "unknown benchmark" in err


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- robustness surface ------------------------------------------------------


@pytest.mark.parametrize("bad", [
    ("run", "vecadd", "--scale", "0"),
    ("run", "vecadd", "--scale", "-1"),
    ("run", "vecadd", "--sms", "0"),
    ("compare", "vecadd", "--scale", "0"),
    ("doctor", "--scale", "-0.5"),
    ("run", "vecadd", "--max-cycles", "0"),
])
def test_invalid_arguments_rejected_at_parse_time(capsys, bad):
    with pytest.raises(SystemExit) as excinfo:
        main(list(bad))
    assert excinfo.value.code == 2
    assert "must be" in capsys.readouterr().err


def test_run_with_sanitizer(capsys):
    code, out, _err = run_cli(capsys, "run", "vecadd", "--scale", "0.25",
                              "--sms", "1", "--sanitize")
    assert code == 0
    assert "IPC" in out


def test_timeout_is_friendly_and_writes_dump(capsys):
    code, _out, err = run_cli(capsys, "run", "vecadd", "--scale", "0.25",
                              "--sms", "1", "--max-cycles", "100")
    assert code == 1
    assert "simulation timeout" in err
    assert "Traceback" not in err
    assert "diagnostic dump written to" in err
    path = err.rsplit("diagnostic dump written to ", 1)[1].strip()
    with open(path) as handle:
        assert "deadlock forensics" in handle.read()


def test_value_error_is_friendly(capsys, monkeypatch):
    import repro.cli

    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(repro.cli, "run_benchmark", boom)
    code, _out, err = run_cli(capsys, "run", "vecadd", "--scale", "0.25")
    assert code == 1
    assert err.strip() == "error: boom"


def test_invariant_violation_is_friendly(capsys, monkeypatch):
    import repro.cli
    from repro.sim.sanitizer import InvariantViolation

    def boom(*args, **kwargs):
        raise InvariantViolation("register-capacity", "too many", sm_id=0, cycle=9)

    monkeypatch.setattr(repro.cli, "run_benchmark", boom)
    code, _out, err = run_cli(capsys, "run", "vecadd")
    assert code == 1
    assert "invariant violation" in err
    assert "register-capacity" in err


def test_doctor_smoke(capsys):
    code, out, _err = run_cli(capsys, "doctor", "--scale", "0.1",
                              "--benchmark", "vecadd", "--benchmark", "stride")
    assert code == 0
    assert "vecadd" in out and "stride" in out
    assert "cells clean" in out


def test_doctor_exit_code_on_failure(capsys, monkeypatch):
    from repro.sim.gpu import SimulationTimeout

    def always_timeout(*args, **kwargs):
        raise SimulationTimeout("injected", dump=None)

    monkeypatch.setattr("repro.analysis.runner.run_benchmark", always_timeout)
    code, out, _err = run_cli(capsys, "doctor", "--scale", "0.1",
                              "--benchmark", "vecadd")
    assert code == 1
    assert "FAILED(timeout)" in out


def test_experiment_e5_renders(capsys):
    code, out, _err = run_cli(capsys, "experiment", "e5", "--scale", "0.1")
    assert code == 0
    assert "speedup" in out


def test_experiment_keep_going_renders_partial(capsys, monkeypatch):
    import repro.analysis.runner as runner_mod
    from repro.sim.gpu import ProgressDeadlock

    real = runner_mod.run_benchmark

    def flaky(bench, cfg, *args, **kwargs):
        if bench.name == "vecadd" and cfg.arch == "vt":
            raise ProgressDeadlock("injected hang", dump="dump text")
        return real(bench, cfg, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_benchmark", flaky)
    code, out, _err = run_cli(capsys, "experiment", "e5", "--scale", "0.1")
    assert code == 0  # keep-going: the sweep survives the poisoned cell
    assert "FAILED(deadlock)" in out
    assert "failed cells" in out


def test_experiment_strict_propagates_failure(capsys, monkeypatch):
    import repro.analysis.runner as runner_mod
    from repro.sim.gpu import ProgressDeadlock

    real = runner_mod.run_benchmark

    def flaky(bench, cfg, *args, **kwargs):
        if bench.name == "vecadd" and cfg.arch == "vt":
            raise ProgressDeadlock("injected hang", dump="dump text")
        return real(bench, cfg, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_benchmark", flaky)
    code, _out, err = run_cli(capsys, "experiment", "e5", "--scale", "0.1",
                              "--strict")
    assert code == 1
    assert "simulation deadlock" in err


def test_experiment_strict_dumps_the_traceback_of_an_error(
        capsys, monkeypatch, tmp_path):
    """A simulator bug in a strict experiment exits 1 with the exception
    type on stderr and its traceback in the diagnostic dump."""
    import tempfile

    import repro.analysis.runner as runner_mod

    real = runner_mod.run_benchmark

    def buggy(bench, cfg, *args, **kwargs):
        if bench.name == "vecadd" and cfg.arch == "vt":
            raise TypeError("injected simulator bug")
        return real(bench, cfg, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_benchmark", buggy)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    code, _out, err = run_cli(capsys, "experiment", "e5", "--scale", "0.1",
                              "--strict")
    assert code == 1
    assert "simulation error" in err and "TypeError" in err
    dump = next(tmp_path.glob("repro-dump-*.txt")).read_text()
    assert "Traceback" in dump and "in buggy" in dump


# -- sweep: the orchestrated matrix ------------------------------------------


def test_sweep_serial_with_store_dir(capsys, tmp_path):
    from repro.store.cas import ResultStore

    code, out, _err = run_cli(
        capsys, "sweep", "--serial", "--scale", "0.25", "--sms", "1",
        "--benchmark", "vecadd", "--dir", str(tmp_path))
    assert code == 0
    assert "sweep summary" in out
    assert "3/3 ok" in out
    report = ResultStore(tmp_path).verify()
    assert report.healthy and report.verified == 3 and report.artifacts == 3


def test_sweep_rerun_into_dir_resumes(capsys, tmp_path):
    run_cli(capsys, "sweep", "--serial", "--scale", "0.25", "--sms", "1",
            "--benchmark", "vecadd", "--dir", str(tmp_path))
    code, out, _err = run_cli(
        capsys, "sweep", "--serial", "--scale", "0.25", "--sms", "1",
        "--benchmark", "vecadd", "--dir", str(tmp_path))
    assert code == 0
    assert "3 cached" in out


@pytest.mark.parametrize("bad", [
    ("sweep", "--jobs", "0"),
    ("sweep", "--retries", "-1"),
    ("sweep", "--wall-timeout", "0"),
    ("sweep", "--scale", "0"),
])
def test_sweep_invalid_arguments(capsys, bad):
    with pytest.raises(SystemExit) as excinfo:
        main(list(bad))
    assert excinfo.value.code == 2


def test_sweep_reports_failed_cells(capsys, tmp_path):
    code, out, _err = run_cli(
        capsys, "sweep", "--serial", "--scale", "0.25", "--sms", "1",
        "--benchmark", "vecadd", "--max-cycles", "100",
        "--retries", "0", "--dir", str(tmp_path))
    assert code == 1
    assert "FAILED(timeout)" in out
    assert len(list((tmp_path / "dumps").glob("*.txt"))) == 3
    assert len(list((tmp_path / "failures").glob("*.json"))) == 3


def test_sweep_json_format_emits_machine_summary(capsys, tmp_path):
    import json

    code, out, err = run_cli(
        capsys, "sweep", "--serial", "--scale", "0.25", "--sms", "1",
        "--benchmark", "vecadd", "--dir", str(tmp_path / "store"),
        "--format", "json")
    assert code == 0
    summary = json.loads(out)  # stdout is ONLY the summary document
    assert summary["v"] == 2 and summary["ok"] is True
    assert summary["counts"]["total"] == 3
    assert summary["store"]["puts"] == 3
    assert all(c["stats_sha256"].startswith("sha256:")
               for c in summary["cells"] if c["ok"])
    assert "sweep directory" in err  # human chatter moved to stderr


def test_sweep_store_makes_rerun_cache_reads(capsys, tmp_path):
    import json

    run_cli(capsys, "sweep", "--serial", "--scale", "0.25", "--sms", "1",
            "--benchmark", "vecadd", "--dir", str(tmp_path / "store"))
    code, out, _err = run_cli(
        capsys, "sweep", "--serial", "--scale", "0.25", "--sms", "1",
        "--benchmark", "vecadd", "--dir", str(tmp_path / "store"),
        "--format", "json")
    assert code == 0
    summary = json.loads(out)
    assert summary["counts"]["cached"] == 3
    assert summary["store"]["hits"] == 3 and summary["store"]["puts"] == 0


def test_doctor_store_audit_verdict(capsys, tmp_path):
    code, out, _err = run_cli(
        capsys, "doctor", "--scale", "0.1", "--benchmark", "vecadd",
        "--store", str(tmp_path / "store"))
    assert code == 0
    assert "result store" in out and "entries verified" in out


def test_doctor_fails_on_sick_store(capsys, tmp_path):
    from repro.store import chaos
    from repro.store.cas import ResultStore

    from repro.records import cell_fingerprint

    store = ResultStore(tmp_path / "store")
    record = chaos.synthetic_record(3)
    fp = cell_fingerprint(record.benchmark, record.config, 1.0, 3)
    store.put(fp, record)
    chaos.corrupt_entry(store, fp, seed=1)
    code, out, _err = run_cli(
        capsys, "doctor", "--scale", "0.1", "--benchmark", "vecadd",
        "--store", str(tmp_path / "store"))
    assert code == 1  # a quarantining audit is a failing doctor
    assert "quarantined" in out


def test_experiment_jobs_flag_parses():
    # (The jobs-mode wiring itself is covered by tests/test_orchestrator.py;
    # running a full experiment through workers is too slow for this suite.)
    args = build_parser().parse_args(["experiment", "e5", "--jobs", "4"])
    assert args.jobs == 4
    args = build_parser().parse_args(
        ["sweep", "--jobs", "3", "--wall-timeout", "60.5", "--retries", "2"])
    assert args.jobs == 3 and args.wall_timeout == 60.5 and args.retries == 2


def test_experiment_dir_routes_cells_through_the_store(capsys, monkeypatch,
                                                       tmp_path):
    import repro.cli

    seen = {}

    def fake(cfg=None, scale=1.0, keep_going=True, jobs=None, directory=None):
        seen.update(jobs=jobs, directory=directory)
        return "fake E5 report", {}

    monkeypatch.setitem(repro.cli.ALL_EXPERIMENTS, "E5", fake)
    code, out, _err = run_cli(capsys, "experiment", "e5", "--scale", "0.1",
                              "--dir", str(tmp_path))
    assert code == 0 and "fake E5 report" in out
    assert seen == {"jobs": None, "directory": str(tmp_path)}


# -- lint: the static kernel verifier ----------------------------------------


def test_lint_all_strict_clean(capsys):
    code, out, _err = run_cli(capsys, "lint", "--all", "--strict")
    assert code == 0
    assert "rule summary" in out
    assert "OK: no errors or warnings" in out


def test_lint_single_kernel(capsys):
    code, out, _err = run_cli(capsys, "lint", "reduction")
    assert code == 0
    assert "reduction" in out


def test_lint_all_and_name_conflict(capsys):
    code, _out, err = run_cli(capsys, "lint", "reduction", "--all")
    assert code == 2
    assert "not both" in err


def test_lint_unknown_benchmark(capsys):
    code, _out, err = run_cli(capsys, "lint", "nope")
    assert code == 2
    assert "unknown benchmark" in err


def test_lint_json_format(capsys):
    import json
    code, out, _err = run_cli(capsys, "lint", "nw", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert [r["kernel"] for r in reports] == ["nw"]
    assert reports[0]["ok"] is True
    rules = {f["rule"] for f in reports[0]["findings"]}
    assert "uncoalesced-global" in rules  # nw's diagonal-wavefront walk


def test_lint_all_json_is_parseable(capsys):
    import json
    code, out, _err = run_cli(capsys, "lint", "--all", "--format", "json")
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 22
    assert all(r["ok"] for r in reports)


# -- predict: the static performance oracle -----------------------------------


def test_predict_table(capsys):
    code, out, _err = run_cli(capsys, "predict", "vecadd")
    assert code == 0
    assert "static performance predictions" in out
    assert "vecadd" in out and "baseline" in out and "vt" in out


def test_predict_json(capsys):
    import json
    code, out, _err = run_cli(capsys, "predict", "vecadd", "--format", "json")
    assert code == 0
    preds = json.loads(out)
    assert {p["arch"] for p in preds} == {"baseline", "vt"}
    assert all(p["kernel"] == "vecadd" for p in preds)
    assert all(p["idle_class"] in ("mem", "struct", "alu") for p in preds)


def test_predict_all_and_name_conflict(capsys):
    code, _out, err = run_cli(capsys, "predict", "vecadd", "--all")
    assert code == 2
    assert "not both" in err


def test_predict_unknown_benchmark(capsys):
    code, _out, err = run_cli(capsys, "predict", "nope")
    assert code == 2
    assert "unknown benchmark" in err


def _fake_x4(cells, disagreements, failures):
    def fake(cfg=None, scale=1.0, keep_going=True, jobs=None, directory=None):
        return "fake X4 report", {"cells": cells,
                                  "disagreements": disagreements,
                                  "failures": failures,
                                  "records": {}, "predictions": {}}
    return fake


CELL = {"predicted_idle": "mem", "measured_idle": "mem", "tie_ratio": 1.0,
        "idle_ok": True, "limiter_ok": True, "binding": "exposed-latency",
        "predicted_tier": "high", "measured_tier": "high"}


def test_predict_check_gate_passes(capsys, monkeypatch):
    import repro.analysis.experiments as ex
    monkeypatch.setattr(ex, "x4_prediction_table",
                        _fake_x4({("vecadd", "baseline"): CELL}, [], {}))
    code, out, _err = run_cli(capsys, "predict", "--all", "--check")
    assert code == 0
    assert "OK: static oracle agrees" in out


def test_predict_check_gate_fails_on_disagreement(capsys, monkeypatch):
    import repro.analysis.experiments as ex
    monkeypatch.setattr(ex, "x4_prediction_table",
                        _fake_x4({("vecadd", "vt"): CELL},
                                 [("vecadd", "vt")], {}))
    code, out, _err = run_cli(capsys, "predict", "--all", "--check")
    assert code == 1
    assert "OK" not in out


def test_predict_check_gate_fails_on_too_many_ties(capsys, monkeypatch):
    # Every cell agrees, but more than MAX_TIE_CELLS only via the tie rule.
    import repro.analysis.experiments as ex
    from repro.isa.analysis.perf import MAX_TIE_CELLS
    from repro.kernels import all_benchmarks
    names = [bench.name for bench in all_benchmarks()][:MAX_TIE_CELLS + 1]
    tie = dict(CELL, measured_idle="alu", tie_ratio=0.8)
    cells = {(name, "vt"): tie for name in names[:-1]}
    monkeypatch.setattr(ex, "x4_prediction_table", _fake_x4(cells, [], {}))
    code, out, _err = run_cli(capsys, "predict", "--all", "--check")
    assert code == 0
    assert f"{MAX_TIE_CELLS} cell(s) agree only within tie tolerance" in out

    cells[(names[-1], "vt")] = tie
    monkeypatch.setattr(ex, "x4_prediction_table", _fake_x4(cells, [], {}))
    code, out, err = run_cli(capsys, "predict", "--all", "--check",
                             "--format", "json")
    assert code == 1
    assert "tie-tolerance cells" in err


def test_predict_check_single_bench_filters_other_cells(capsys, monkeypatch):
    # Gating one benchmark must ignore another kernel's disagreement.
    import json

    import repro.analysis.experiments as ex
    monkeypatch.setattr(
        ex, "x4_prediction_table",
        _fake_x4({("stride", "baseline"): CELL, ("vecadd", "vt"): CELL},
                 [("vecadd", "vt")], {}))
    code, out, _err = run_cli(capsys, "predict", "stride", "--check",
                              "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload["cells"]) == {"stride/baseline"}
    assert payload["disagreements"] == []


def test_predict_check_simulation_failure_is_fatal(capsys, monkeypatch):
    import repro.analysis.experiments as ex
    monkeypatch.setattr(
        ex, "x4_prediction_table",
        _fake_x4({}, [], {("vecadd", "vt"): object()}))
    code, _out, err = run_cli(capsys, "predict", "--all", "--check")
    assert code == 1
    assert "simulation failures" in err


def test_experiment_e11_liveness_flag(capsys):
    code, out, _err = run_cli(capsys, "experiment", "e11", "--liveness")
    assert code == 0
    assert "liveness-compressed" in out
