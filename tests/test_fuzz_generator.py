"""Generator grammar properties: determinism, lint-cleanliness by
construction, and semantic agreement with the reference executor."""

import numpy as np
import pytest

from repro.fuzz.generator import (
    GenConfig,
    generate_spec,
    materialize,
    spec_fingerprint,
)
from repro.fuzz.reference import reference_execute
from repro.isa.analysis import lint_kernel
from repro.isa.opcodes import Op
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU


def test_generate_spec_is_deterministic():
    assert generate_spec(5) == generate_spec(5)
    assert generate_spec(5) != generate_spec(6)


def test_spec_fingerprint_tracks_content():
    a, b = generate_spec(5), generate_spec(5)
    assert spec_fingerprint(a) == spec_fingerprint(b)
    b = dict(b, cta_x=b["cta_x"] + 32)
    assert spec_fingerprint(a) != spec_fingerprint(b)


def test_genconfig_roundtrips():
    gen = GenConfig(max_segments=3, cta_choices=(32, 64))
    assert GenConfig.from_dict(gen.to_dict()) == gen


@pytest.mark.parametrize("seed", range(25))
def test_generated_kernels_are_lint_strict_clean(seed):
    kernel = materialize(generate_spec(seed)).kernel  # build() validates
    report = lint_kernel(kernel)
    assert report.ok(strict=True), [str(f) for f in report.findings]


@pytest.mark.parametrize("seed", range(25))
def test_simulator_matches_reference_executor(seed):
    case = materialize(generate_spec(seed))
    gmem, params = case.make_gmem()
    expected = gmem.data.copy()
    reference_execute(case.kernel, case.grid_dim, expected, params)

    GPU(scaled_fermi(num_sms=1)).launch(case.kernel, case.grid_dim, gmem,
                                        params, max_cycles=300_000)
    assert np.array_equal(gmem.data.view(np.uint64),
                          expected.view(np.uint64))


def test_writeback_gload_emits_store_and_preserves_memory():
    spec = {"v": 1, "seed": 3, "cta_x": 32, "grid_x": 1, "use_acc": False,
            "segments": [{"kind": "gload", "buf": 0, "stride": 1,
                          "offset": 0, "fold": True, "writeback": True}]}
    case = materialize(spec)
    assert any(i.op is Op.STG for i in case.kernel.instrs)
    assert len(case.kernel.instrs) == 8
    gmem, params = case.make_gmem()
    before = gmem.data.copy()
    GPU(scaled_fermi(num_sms=1)).launch(case.kernel, case.grid_dim, gmem,
                                        params, max_cycles=300_000)
    # The writeback stores each loaded value to its own address: a no-op.
    assert np.array_equal(gmem.data, before)


def test_buffer_sizing_covers_worst_case_stride():
    spec = {"v": 1, "seed": 9, "cta_x": 128, "grid_x": 4, "use_acc": True,
            "segments": [{"kind": "gload", "buf": 0, "stride": 33,
                          "offset": 64, "fold": True}]}
    case = materialize(spec)
    gmem, params = case.make_gmem()
    # Must not raise any out-of-bounds memory error.
    reference_execute(case.kernel, case.grid_dim, gmem.data, params)


def test_single_cta_grid_aliases_gtid_to_tid():
    spec = dict(generate_spec(0), grid_x=1)
    kernel = materialize(spec).kernel
    assert not any(i.op is Op.IMAD and i.dst and i.dst.idx == 3
                   for i in kernel.instrs)


def test_atomic_segments_share_one_reduction_op():
    # Mixed reduction ops over one aux cell make the final value depend
    # on thread interleaving (found by the fuzzer itself at seed 189:
    # max-after-some-adds vs. the sequential reference), so generation
    # pins every atomic segment in a kernel to one op.
    for seed in range(200):
        ops = {seg["op"] for seg in generate_spec(seed)["segments"]
               if seg["kind"] == "atomic"}
        assert len(ops) <= 1


def test_gen_config_bounds_segments():
    gen = GenConfig(min_segments=2, max_segments=2)
    for seed in range(5):
        assert len(generate_spec(seed, gen)["segments"]) == 2
