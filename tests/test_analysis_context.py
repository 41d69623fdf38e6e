"""The per-kernel analysis context: shared facts equal cold computations,
metadata assignment invalidates them, and they never leak into pickles,
equality or the kernel's lifetime."""

import copy
import dataclasses
import gc
import pickle
import weakref

import pytest

from repro.isa.analysis import access_costs, lint_kernel, predict, warp_profile
from repro.isa.analysis.bounds import gate_configs, kernel_bounds
from repro.isa.analysis.perf import PROFILE_FIELDS, layout_for
from repro.isa.assembler import assemble
from repro.kernels.registry import all_benchmarks, get
from repro.sim.config import GPUConfig

BENCHES = sorted(all_benchmarks(), key=lambda b: b.name)
MODES = ("baseline", "vt")


def fresh(kernel):
    """A freshly assembled copy: same kernel, empty analysis context."""
    copy_ = assemble(kernel.disassemble())
    assert copy_ == kernel and "_analysis" not in copy_.__dict__
    return copy_


def _ctas(bench, layout):
    return max(1, layout.total_threads // max(1, bench.kernel.threads_per_cta))


@pytest.mark.parametrize("bench", BENCHES, ids=lambda b: b.name)
def test_shared_context_equals_cold_computation(bench):
    kernel = bench.kernel  # shared: earlier tests may have analysed it
    layout = layout_for(bench)
    ctas = _ctas(bench, layout)
    assert lint_kernel(kernel) == lint_kernel(fresh(kernel))
    for label, cfg in gate_configs().items():
        geometry = dict(line_bytes=cfg.line_bytes,
                        num_banks=cfg.shared_mem_banks,
                        param_values=layout.param_values)
        assert access_costs(kernel, **geometry) == access_costs(
            fresh(kernel), **geometry)
        for mode in MODES:
            cold = fresh(kernel)
            assert predict(kernel, cfg, arch=mode, layout=layout) == predict(
                cold, cfg, arch=mode, layout=layout), (label, mode)
            assert kernel_bounds(
                kernel, cfg, mode=mode, ctas=ctas,
                param_values=layout.param_values, arch=label) == kernel_bounds(
                fresh(kernel), cfg, mode=mode, ctas=ctas,
                param_values=layout.param_values, arch=label), (label, mode)


def test_facts_are_computed_once_per_kernel():
    kernel = fresh(get("hotspot").kernel)
    layout = layout_for(get("hotspot"))
    cfg = GPUConfig()
    first = warp_profile(kernel, cfg, layout)
    assert warp_profile(kernel, cfg, layout) is first
    assert warp_profile(kernel, cfg.with_(arch="vt"), layout) is first
    assert access_costs(kernel) is access_costs(kernel)
    # Another geometry is another key, not a stale hit.
    assert access_costs(kernel, line_bytes=64) is not access_costs(kernel)


SMEM_KERNEL = """
.kernel sharedstrip
.regs 8
.smem 512
.cta 64
    S2R r0, %tid_x
    SHL r1, r0, #2
    STS [r1], r0
    BAR
    LDS r2, [r1]
    S2R r3, %param0
    IADD r3, r3, r1
    STG [r3], r2
    EXIT
"""


def test_metadata_assignment_invalidates_facts():
    kernel = assemble(SMEM_KERNEL)
    cfg = GPUConfig()
    before = (lint_kernel(kernel), predict(kernel, cfg), access_costs(kernel))
    assert "_analysis" in kernel.__dict__

    kernel.smem_bytes = 128  # the strip now overruns the declaration
    assert "_analysis" not in kernel.__dict__
    cold = assemble(SMEM_KERNEL.replace(".smem 512", ".smem 128"))
    report = lint_kernel(kernel)
    assert report == lint_kernel(cold) != before[0]
    assert "shared-oob" in {f.rule for f in report.findings}
    assert predict(kernel, cfg) == predict(cold, cfg)

    kernel.cta_dim = (32, 1, 1)
    cold = assemble(SMEM_KERNEL.replace(".smem 512", ".smem 128")
                    .replace(".cta 64", ".cta 32"))
    assert access_costs(kernel) == access_costs(cold)
    assert predict(kernel, cfg) == predict(cold, cfg) != before[1]
    assert lint_kernel(kernel) == lint_kernel(cold)


def test_context_is_never_pickled_compared_or_shown():
    kernel = fresh(get("scan").kernel)
    size = len(pickle.dumps(kernel))
    text = repr(kernel)
    layout = layout_for(get("scan"))
    lint_kernel(kernel)
    predict(kernel, GPUConfig(), layout=layout)
    kernel_bounds(kernel, GPUConfig(), mode="vt", ctas=4,
                  param_values=layout.param_values)
    assert "_analysis" in kernel.__dict__
    assert len(pickle.dumps(kernel)) == size
    assert repr(kernel) == text
    assert kernel == fresh(kernel)
    assert "_analysis" not in pickle.loads(pickle.dumps(kernel)).__dict__
    assert "_analysis" not in copy.deepcopy(kernel).__dict__
    assert "_analysis" not in dataclasses.replace(kernel).__dict__


def test_context_dies_with_its_kernel():
    kernel = fresh(get("spmv").kernel)
    lint_kernel(kernel)
    kernel_bounds(kernel, GPUConfig(), mode="baseline", ctas=2)
    # Every cached value must die with the kernel through reference
    # counting alone (no cycle back to the kernel): watch one of them.
    profile = weakref.ref(warp_profile(kernel, GPUConfig()))
    enabled = gc.isenabled()
    gc.disable()
    try:
        del kernel
        assert profile() is None
    finally:
        if enabled:
            gc.enable()


def _perturbed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value * 2 + 3
    if isinstance(value, float):
        return value * 1.5 + 0.25
    return None


@pytest.mark.parametrize("name", ["hotspot", "backprop", "spmv", "histogram"])
def test_warp_profile_reads_only_its_key_fields(name):
    # The memo key is PROFILE_FIELDS: a field outside it must not move a
    # cold profile, or two configs differing there would share a stale one.
    bench = get(name)
    layout = layout_for(bench)
    cfg = GPUConfig()
    reference = warp_profile(fresh(bench.kernel), cfg, layout)
    for field in dataclasses.fields(GPUConfig):
        if field.name in PROFILE_FIELDS:
            continue
        value = _perturbed(getattr(cfg, field.name))
        if value is None:
            continue
        other = dataclasses.replace(cfg, **{field.name: value})
        assert warp_profile(fresh(bench.kernel), other, layout) == reference, \
            field.name
