"""``repro run --profile`` attribution: every simulator source file lands
in its component bucket, never in "other"."""

import pytest

from repro.analysis.profiling import _bucket_for


@pytest.mark.parametrize("path, bucket", [
    ("/w/src/repro/sim/schedulers.py", "scheduler_scan"),
    ("/w/src/repro/sim/cache.py", "ldst_cache"),
    ("/w/src/repro/sim/memsys.py", "memsys"),
    ("/w/src/repro/sim/exec.py", "functional_exec"),
    ("/w/src/repro/sim/prepass.py", "functional_exec"),
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


def test_default_run_books_prepass_and_replay_to_functional_exec():
    """On the default engine the launch's pre-pass and the SM's replay of
    its streams are the functional work (no instruction goes through
    ``functional_step``), and both land in ``functional_exec``: one replay
    call per issued instruction at least."""
    from repro.analysis.profiling import profile_run
    from repro.kernels import get
    from repro.sim.config import scaled_fermi
    from repro.sim.gpu import GPU

    bench = get("vecadd")
    prep = bench.prepare(0.25)
    gpu = GPU(scaled_fermi(num_sms=2))
    result, report = profile_run(lambda: gpu.launch(
        bench.kernel, prep.grid_dim, prep.gmem, prep.params))
    assert result.fallback is None  # replayed, not executed at issue
    assert report["buckets"]["functional_exec"]["seconds"] > 0
    assert report["buckets"]["functional_exec"]["calls"] >= (
        result.stats.instructions)


def _sim_function(source: str):
    """Compile ``source`` as if it lived in ``repro/sim/exec.py``."""
    namespace: dict = {}
    exec(compile(source, "/w/src/repro/sim/exec.py", "exec"), namespace)
    return namespace["hot"]


def test_builtins_are_charged_to_their_callers_bucket():
    """``dict.get`` called only from sim code is that code's time, not
    "other" (cProfile books builtins under the pseudo-file ``~``)."""
    from repro.analysis.profiling import profile_run

    hot = _sim_function(
        "def hot(n):\n"
        "    d = {}\n"
        "    for i in range(n):\n"
        "        d.get(i)\n")
    _, report = profile_run(lambda: hot(100_000))
    own = {row["function"]: row["seconds"] for row in report["top"]}
    charged = own["exec.py:1:hot"] + own["~:0:<method 'get' of 'dict' objects>"]
    assert report["buckets"]["functional_exec"]["seconds"] >= charged - 1e-5
    assert report["buckets"]["functional_exec"]["calls"] >= 100_001


def test_library_frames_pass_their_time_up_to_repro_callers():
    from repro.analysis.profiling import profile_run

    hot = _sim_function(
        "import json\n"
        "def hot(n):\n"
        "    for i in range(n):\n"
        "        json.dumps({'i': i})\n")
    _, report = profile_run(lambda: hot(20_000))
    total = report["total_seconds"]
    # json's Python frames and the builtins under them all land in the
    # caller's bucket; only the profiling harness itself stays "other".
    assert report["buckets"]["functional_exec"]["seconds"] >= 0.95 * total


def test_recursive_library_frames_charge_the_repro_caller():
    """A library function that calls itself passes its whole own time to
    the ``repro`` frame that entered the recursion, not to "other"."""
    from repro.analysis.profiling import profile_run

    namespace: dict = {}
    exec(compile(
        "def walk(depth):\n"
        "    x = 0\n"
        "    for i in range(200):\n"
        "        x += i\n"
        "    return walk(depth - 1) if depth else x\n",
        "/usr/lib/python3/somelib/walk.py", "exec"), namespace)
    hot = _sim_function(
        "def hot(n, walk):\n"
        "    for _ in range(n):\n"
        "        walk(20)\n")
    _, report = profile_run(lambda: hot(300, namespace["walk"]))
    own = {row["function"]: row["seconds"] for row in report["top"]}
    charged = own["exec.py:1:hot"] + own["walk.py:1:walk"]
    assert report["buckets"]["functional_exec"]["seconds"] >= 0.99 * charged
