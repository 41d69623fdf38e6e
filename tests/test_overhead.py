"""VT hardware-overhead model."""

from repro.core.overhead import vt_overhead
from repro.sim.config import GPUConfig


def test_backup_is_small_relative_to_capacity():
    report = vt_overhead(GPUConfig())
    assert 0 < report.overhead_fraction < 0.25
    assert report.backup_bytes < report.register_file_bytes


def test_slots_match_multiplier():
    report = vt_overhead(GPUConfig().with_(vt_max_resident_multiplier=4.0, max_ctas_per_sm=8))
    assert report.virtual_cta_slots == 24  # (4-1) x 8


def test_overhead_grows_with_multiplier():
    small = vt_overhead(GPUConfig().with_(vt_max_resident_multiplier=2.0))
    large = vt_overhead(GPUConfig().with_(vt_max_resident_multiplier=4.0))
    assert large.backup_bytes > small.backup_bytes


def test_overhead_grows_with_stack_depth():
    shallow = vt_overhead(GPUConfig(), stack_depth=4)
    deep = vt_overhead(GPUConfig(), stack_depth=16)
    assert deep.backup_bytes > shallow.backup_bytes
    assert deep.per_warp_bits > shallow.per_warp_bits


def test_rows_render():
    rows = vt_overhead().rows()
    labels = [label for label, _value in rows]
    assert any("backup SRAM" in label for label in labels)
    assert any("register file" in label for label in labels)
    assert all(isinstance(v, str) for _l, v in rows)


def test_minimum_one_slot():
    report = vt_overhead(GPUConfig().with_(vt_max_resident_multiplier=1.0))
    assert report.virtual_cta_slots >= 1
