"""GPUConfig: defaults, validation, derived helpers, presets."""

import pytest

from repro.isa.opcodes import OpClass
from repro.sim.config import ArchMode, GPUConfig, fermi_config, scaled_fermi


def test_defaults_are_fermi_class():
    cfg = GPUConfig()
    assert cfg.max_warps_per_sm == 48
    assert cfg.max_ctas_per_sm == 8
    assert cfg.registers_per_sm == 32768
    assert cfg.smem_per_sm == 49152
    cfg.validate()


def test_with_returns_modified_copy():
    cfg = GPUConfig()
    other = cfg.with_(num_sms=4)
    assert other.num_sms == 4
    assert cfg.num_sms != 4 or cfg is not other
    assert other is not cfg


def test_latency_for_all_classes():
    cfg = GPUConfig()
    for op_class in (OpClass.ALU, OpClass.MUL, OpClass.FPU, OpClass.SFU, OpClass.CTRL):
        assert cfg.latency_for(op_class) >= 1


def test_swap_cycles_scale_with_warps():
    cfg = GPUConfig()
    save2, restore2 = cfg.vt_swap_cycles_for(2)
    save8, restore8 = cfg.vt_swap_cycles_for(8)
    assert save8 > save2
    assert restore8 > restore2
    assert save2 == cfg.vt_swap_out_base + 2 * cfg.vt_swap_out_per_warp


@pytest.mark.parametrize("overrides,fragment", [
    (dict(max_pending_latency=0), "max_pending_latency"),
    (dict(engine="bogus"), "engine"),
    (dict(num_sms=0), "SM"),
    (dict(max_ctas_per_sm=0), "scheduling"),
    (dict(line_bytes=100), "line size"),
    (dict(arch="bogus"), "arch"),
    (dict(vt_trigger_policy="bogus"), "trigger"),
    (dict(vt_select_policy="bogus"), "select"),
])
def test_validation_rejects(overrides, fragment):
    with pytest.raises(ValueError, match=fragment):
        GPUConfig().with_(**overrides).validate()


def test_arch_modes():
    assert set(ArchMode.ALL) == {"baseline", "vt", "ideal-sched"}
    for arch in ArchMode.ALL:
        GPUConfig().with_(arch=arch).validate()


def test_fermi_preset():
    cfg = fermi_config()
    assert cfg.num_sms == 15
    assert cfg.dram_channels == 6
    assert cfg.l2_size == 786432
    cfg.validate()


def test_scaled_fermi_preserves_per_sm_params():
    cfg = scaled_fermi(num_sms=2)
    full = fermi_config()
    assert cfg.max_warps_per_sm == full.max_warps_per_sm
    assert cfg.registers_per_sm == full.registers_per_sm
    assert cfg.dram_channels < full.dram_channels
    assert cfg.l2_size < full.l2_size
    cfg.validate()


def test_scaled_fermi_overrides_apply():
    cfg = scaled_fermi(num_sms=1, arch="vt", dram_latency=999)
    assert cfg.arch == "vt"
    assert cfg.dram_latency == 999
