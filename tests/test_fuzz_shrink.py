"""Shrinker properties, mostly against synthetic predicates (no
simulation), plus one end-to-end canary shrink."""

from repro.fuzz.campaign import CANARY_FAULT
from repro.fuzz.differential import run_case
from repro.fuzz.generator import generate_spec, materialize
from repro.fuzz.shrink import shrink_spec


def _big_spec():
    spec = generate_spec(4)
    assert len(spec["segments"]) >= 2
    return spec


def test_shrink_removes_irrelevant_segments():
    spec = _big_spec()
    spec["segments"].append({"kind": "bar"})

    def is_bad(candidate):
        return any(seg["kind"] == "bar" for seg in candidate["segments"])

    small, info = shrink_spec(spec, is_bad)
    assert info["reproduced"]
    assert len(small["segments"]) == 1
    assert small["segments"][0]["kind"] == "bar"
    assert small["grid_x"] == 1 and small["cta_x"] == 32


def test_shrink_reduces_knobs_to_floors():
    spec = {"v": 1, "seed": 0, "cta_x": 128, "grid_x": 4, "use_acc": True,
            "segments": [{"kind": "loop", "trips": 8, "divergent": True,
                          "body_n": 4, "sub": 12345}]}

    def is_bad(candidate):
        return any(seg["kind"] == "loop" for seg in candidate["segments"])

    small, info = shrink_spec(spec, is_bad)
    seg = small["segments"][0]
    assert seg["trips"] == 2 and seg["body_n"] == 1 and not seg["divergent"]
    assert small["use_acc"] is False


def test_shrink_returns_original_when_not_reproducing():
    spec = _big_spec()
    small, info = shrink_spec(spec, lambda s: False)
    assert small == spec
    assert info["reproduced"] is False


def test_shrink_respects_test_budget():
    spec = _big_spec()
    calls = []

    def is_bad(candidate):
        calls.append(1)
        return True

    shrink_spec(spec, is_bad, max_tests=5)
    assert len(calls) <= 5


def test_shrink_memoizes_repeated_candidates():
    spec = _big_spec()
    seen = []

    def is_bad(candidate):
        import json
        key = json.dumps(candidate, sort_keys=True)
        assert key not in seen, "same candidate tested twice"
        seen.append(key)
        return any(seg["kind"] == spec["segments"][0]["kind"]
                   for seg in candidate["segments"])

    shrink_spec(spec, is_bad)


def test_canary_shrinks_to_minimal_load_kernel():
    """End-to-end: the planted fill-delay fault shrinks to <= 8 instrs."""
    spec = generate_spec(3)

    def is_bad(candidate):
        return not run_case(candidate, fault=CANARY_FAULT).ok

    small, info = shrink_spec(spec, is_bad, max_tests=120)
    assert info["reproduced"]
    assert len(materialize(small).kernel.instrs) <= 8
    final = run_case(small, fault=CANARY_FAULT)
    assert final.divergences
    assert all(d.kind == "stats-mismatch" and d.leg.endswith("/fast-forward")
               for d in final.divergences), final.summary()
