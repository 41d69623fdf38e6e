"""Differential harness: clean cases pass every leg, planted faults are
detected, and case-level crashes become divergences instead of raising."""

import numpy as np
import pytest

from repro.fuzz.campaign import CANARY_FAULT
from repro.fuzz.differential import (Divergence, _output_diff, _same_output,
                                     run_case, sample_config)
from repro.fuzz.generator import generate_spec


def test_sample_config_is_deterministic_and_varied():
    assert sample_config(4) == sample_config(4)
    configs = [sample_config(seed) for seed in range(12)]
    assert len({cfg.warp_scheduler for cfg in configs}) > 1


def test_clean_case_runs_every_leg():
    result = run_case(generate_spec(0))
    assert result.ok, result.summary()
    assert set(result.legs) == {
        f"{arch}/{leg}" for arch in ("baseline", "vt")
        for leg in ("reference", "fast-forward", "parallel", "bound")}
    assert all(info["status"] == "ok" for info in result.legs.values())
    # The bound leg carries the static interval the measurement fell in.
    for arch in ("baseline", "vt"):
        info = result.legs[f"{arch}/bound"]
        assert info["lo"] <= info["cycles"] <= info["hi"]
    assert result.instructions > 0
    assert result.ref_stats is not None
    # The oracle prediction is recorded for both architectures.
    assert set(result.oracle) == {"baseline", "vt"}
    for summary in result.oracle.values():
        assert {"limiter", "idle_class", "measured_idle", "agrees"} \
            <= set(summary)


def test_planted_fault_is_detected_as_stats_mismatch():
    result = run_case(generate_spec(0), fault=CANARY_FAULT)
    assert not result.ok
    assert {d.kind for d in result.divergences} == {"stats-mismatch"}
    # Only the fast-forward leg carries the fault.
    assert all(d.leg.endswith("/fast-forward") for d in result.divergences)


def test_broken_spec_becomes_divergence_not_exception():
    bad = {"v": 1, "seed": 0, "cta_x": 32, "grid_x": 1, "use_acc": True,
           "segments": [{"kind": "no-such-kind"}]}
    result = run_case(bad)
    assert not result.ok
    assert result.divergences[0].kind == "reference-crash"


def test_divergence_roundtrips_and_prints():
    divergence = Divergence("stats-mismatch", "vt/fast-forward", "cycles differ")
    assert Divergence.from_dict(divergence.to_dict()) == divergence
    assert "stats-mismatch" in str(divergence)


def test_result_to_dict_is_json_safe():
    import json

    result = run_case(generate_spec(1), fault=CANARY_FAULT)
    payload = json.dumps(result.to_dict())
    assert "divergences" in payload


@pytest.mark.parametrize("seed", [2, 3])
def test_case_is_deterministic(seed):
    spec = generate_spec(seed)
    first = run_case(spec)
    second = run_case(spec)
    assert first.ok and second.ok
    assert first.legs == second.legs
    assert first.oracle == second.oracle


# -- output verdict: bit patterns first, float comparison on mismatch --------


def _image(*words):
    data = np.zeros(64, dtype=np.float64)
    data[:len(words)] = words
    return data


def test_output_verdict_negative_zero_equals_zero():
    got, expected = _image(0.0, -0.0), _image(-0.0, 0.0)
    assert (got.view(np.uint64) != expected.view(np.uint64)).any()
    assert _same_output(got, expected)
    assert np.array_equal(got, expected, equal_nan=True)


def test_output_verdict_nan_payloads_are_equal():
    quiet = np.float64("nan")
    payload = np.array([0x7FF8000000000123], dtype=np.uint64).view(np.float64)[0]
    got, expected = _image(1.0, quiet), _image(1.0, payload)
    assert (got.view(np.uint64) != expected.view(np.uint64)).any()
    assert _same_output(got, expected)
    assert np.array_equal(got, expected, equal_nan=True)


def test_output_verdict_one_word_difference_mismatches():
    got, expected = _image(1.0, 2.0, 3.0), _image(1.0, 2.5, 3.0)
    assert not _same_output(got, expected)
    assert not np.array_equal(got, expected, equal_nan=True)
    assert _output_diff(got, expected) == (
        f"1 word(s) differ; first at word 1: got {got[1]!r}, "
        f"expected {expected[1]!r}")


def test_divergence_summary_parses_back():
    divergences = [
        Divergence("stats-mismatch", "vt/fast-forward", "cycles: 10 != 12"),
        Divergence("output-mismatch", "baseline/parallel",
                   "2 word(s) differ; first at word 3: got 1.0, expected 2.0"),
        Divergence("lint", "case", "error[uninit-read] @4: r3 read"),
    ]
    summary = "; ".join(str(d) for d in divergences)
    assert Divergence.parse_summary(summary) == divergences
    assert Divergence.parse_summary("ok") == []
