"""Run records and cell identity: fingerprints and the config/record JSON
round-trips every persisted cell relies on.  (Store durability lives in
tests/test_store.py; orchestrator end-to-end tests in
tests/test_orchestrator.py.)"""

import json

import pytest

from repro.analysis.runner import run_benchmark
from repro.kernels.registry import get
from repro.records import (
    RunRecord,
    cell_fingerprint,
    config_from_dict,
    config_to_dict,
    record_from_dict,
    record_to_dict,
)
from repro.sim.config import scaled_fermi


@pytest.fixture
def cfg():
    return scaled_fermi(num_sms=1)


# ---------------------------------------------------------------------------
# fingerprints
# ---------------------------------------------------------------------------

def test_fingerprint_is_deterministic(cfg):
    assert (cell_fingerprint("vecadd", cfg, 0.25)
            == cell_fingerprint("vecadd", cfg, 0.25))
    # equal configs built independently fingerprint identically
    assert (cell_fingerprint("vecadd", scaled_fermi(num_sms=1), 0.25)
            == cell_fingerprint("vecadd", cfg, 0.25))


def test_fingerprint_changes_with_every_input(cfg):
    base = cell_fingerprint("vecadd", cfg, 0.25)
    assert cell_fingerprint("saxpy", cfg, 0.25) != base
    assert cell_fingerprint("vecadd", cfg, 0.5) != base
    assert cell_fingerprint("vecadd", cfg, 0.25, workload_seed=1) != base
    # ANY config knob participates: a stale entry can never be resumed
    # into a run whose configuration changed.
    assert cell_fingerprint("vecadd", cfg.with_(arch="vt"), 0.25) != base
    assert cell_fingerprint("vecadd", cfg.with_(dram_latency=401), 0.25) != base
    assert cell_fingerprint("vecadd", cfg.with_(vt_swap_out_base=3), 0.25) != base


# ---------------------------------------------------------------------------
# config / record serialization
# ---------------------------------------------------------------------------

def test_config_round_trip(cfg):
    tweaked = cfg.with_(arch="vt", warp_scheduler="lrr", dram_latency=600)
    assert config_from_dict(config_to_dict(tweaked)) == tweaked


def test_config_from_dict_ignores_unknown_keys(cfg):
    data = config_to_dict(cfg)
    data["knob_from_the_future"] = 42
    assert config_from_dict(data) == cfg


def test_ok_record_round_trips_through_json(cfg):
    record = run_benchmark(get("vecadd"), cfg, scale=0.25)
    wire = json.loads(json.dumps(record_to_dict(record)))
    clone = record_from_dict(wire)
    assert clone.ok
    assert clone.benchmark == "vecadd"
    assert clone.cycles == record.cycles
    assert clone.stats == record.stats
    assert clone.config == record.config


def test_failed_record_round_trips(cfg):
    record = RunRecord(benchmark="vecadd", arch="vt", stats=None, config=cfg,
                       status="timeout", error="SimulationTimeout: boom",
                       dump="forensics", retried=True)
    clone = record_from_dict(json.loads(json.dumps(record_to_dict(record))))
    assert clone.status == "timeout"
    assert clone.error == "SimulationTimeout: boom"
    assert clone.dump == "forensics"
    assert clone.retried
    assert clone.stats is None


@pytest.mark.parametrize("modules, forbidden", [
    ("repro.records", ("repro.analysis", "repro.store")),
    ("repro.store.cas", ()),  # no import cycle, whichever loads first
    ("repro.analysis.orchestrator", ()),
    ("repro.fuzz.differential, repro.kernels, repro.isa.analysis.bounds",
     ("repro.analysis", "repro.store")),  # benchmark setup stays lean
])
def test_fresh_interpreter_imports(modules, forbidden):
    import os
    import subprocess
    import sys

    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (f"import sys, {modules}; "
            f"print([m for m in sys.modules if m.startswith({forbidden!r})])")
    out = subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=os.path.abspath(src)))
    assert out.stdout.strip() == "[]"
