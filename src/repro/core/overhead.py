"""Hardware-overhead model for Virtual Thread.

The paper's cost argument: a context switch only moves *scheduling* state,
so the additional storage VT needs is a backup SRAM sized for the
scheduling state of the extra (virtual) CTAs, which is tiny next to the
register file and shared memory that stay in place.  This module counts
those bits for a given configuration, reproducing the overhead table.

Per-warp scheduling state:

* program counter — enough bits to index the largest kernel (we budget 32,
  as real hardware does),
* SIMT reconvergence stack — ``simt_stack_depth`` entries of
  (PC, reconvergence PC, 32-bit active mask),
* barrier-arrival bit and a handful of control bits.

Per-CTA state: barrier counter, state machine, base pointers into the
register file and shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import GPUConfig

PC_BITS = 32
MASK_BITS = 32
SIMT_STACK_DEPTH = 16  # architectural divergence-nesting budget (Fermi-like)
CTA_CONTROL_BITS = 64  # barrier counter, state, RF/smem base pointers


@dataclass(frozen=True)
class OverheadReport:
    """Backup storage VT adds to one SM, next to what stays in place."""

    virtual_cta_slots: int
    warps_per_backup_slot: int
    per_warp_bits: int
    per_cta_bits: int
    backup_bytes: int
    register_file_bytes: int
    shared_mem_bytes: int

    @property
    def overhead_fraction(self) -> float:
        """Backup SRAM as a fraction of the on-chip memory it virtualizes."""
        return self.backup_bytes / (self.register_file_bytes + self.shared_mem_bytes)

    def rows(self) -> list[tuple[str, str]]:
        return [
            ("virtual CTA backup slots / SM", str(self.virtual_cta_slots)),
            ("warps per backup slot", str(self.warps_per_backup_slot)),
            ("per-warp scheduling state", f"{self.per_warp_bits} bits"),
            ("per-CTA control state", f"{self.per_cta_bits} bits"),
            ("backup SRAM / SM", f"{self.backup_bytes} B ({self.backup_bytes / 1024:.2f} KiB)"),
            ("register file / SM (stays in place)", f"{self.register_file_bytes // 1024} KiB"),
            ("shared memory / SM (stays in place)", f"{self.shared_mem_bytes // 1024} KiB"),
            ("overhead vs virtualized capacity", f"{self.overhead_fraction:.3%}"),
        ]


def vt_overhead(cfg: GPUConfig | None = None, stack_depth: int = SIMT_STACK_DEPTH) -> OverheadReport:
    """Size VT's backup SRAM for ``cfg``.

    Backup slots are provisioned for the *extra* CTAs VT may keep resident
    beyond the scheduling limit: ``(multiplier - 1) × max_ctas_per_sm``
    slots, each holding the scheduling state of a worst-case CTA
    (``max_warps_per_sm / max_ctas_per_sm`` warps).
    """
    cfg = cfg or GPUConfig()
    extra_slots = max(1, int((cfg.vt_max_resident_multiplier - 1) * cfg.max_ctas_per_sm))
    warps_per_slot = max(1, cfg.max_warps_per_sm // cfg.max_ctas_per_sm)
    stack_entry_bits = 2 * PC_BITS + MASK_BITS
    per_warp = PC_BITS + stack_depth * stack_entry_bits + MASK_BITS + 8
    per_cta = CTA_CONTROL_BITS
    total_bits = extra_slots * (warps_per_slot * per_warp + per_cta)
    return OverheadReport(
        virtual_cta_slots=extra_slots,
        warps_per_backup_slot=warps_per_slot,
        per_warp_bits=per_warp,
        per_cta_bits=per_cta,
        backup_bytes=-(-total_bits // 8),
        register_file_bytes=cfg.registers_per_sm * 4,
        shared_mem_bytes=cfg.smem_per_sm,
    )
