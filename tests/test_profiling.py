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
