"""``repro run --profile`` attribution: every simulator source file lands
in its component bucket, never in "other"."""

import pytest

from repro.analysis.profiling import _bucket_for


@pytest.mark.parametrize("path, bucket", [
    ("/w/src/repro/sim/schedulers.py", "scheduler_scan"),
    ("/w/src/repro/sim/cache.py", "ldst_cache"),
    ("/w/src/repro/sim/memsys.py", "memsys"),
    ("/w/src/repro/sim/exec.py", "functional_exec"),
    ("/w/src/repro/sim/sanitizer.py", "sanitizer"),
    ("/w/src/repro/core/vt.py", "vt"),
    ("/w/src/repro/core/policies.py", "vt"),
    ("/w/src/repro/sim/parallel.py", "parallel_engine"),
    ("/w/src/repro/sim/gpu.py", "gpu_loop"),
    ("/w/src/repro/analysis/runner.py", "other"),
    ("/usr/lib/python3/json/decoder.py", "other"),
    ("~", "other"),  # cProfile's pseudo-file for builtins
])
def test_bucket_for(path, bucket):
    assert _bucket_for(path) == bucket


def test_default_run_books_nothing_to_sanitizer():
    """The progress watchdog runs on every launch; with sanitizing off the
    ``sanitizer`` bucket must stay empty (the watchdog lives in gpu.py)."""
    from repro.analysis.profiling import profile_run
    from repro.kernels import get
    from repro.sim.config import scaled_fermi
    from repro.sim.gpu import GPU

    bench = get("vecadd")
    prep = bench.prepare(0.25)
    gpu = GPU(scaled_fermi(num_sms=2))
    _, report = profile_run(lambda: gpu.launch(
        bench.kernel, prep.grid_dim, prep.gmem, prep.params))
    assert report["buckets"].get("sanitizer", {"seconds": 0.0})["seconds"] == 0
    assert report["buckets"]["gpu_loop"]["seconds"] > 0
