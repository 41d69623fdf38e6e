"""Analytic occupancy calculator and limiter classification.

This reproduces the paper's motivation analysis: for each kernel, how many
CTAs can one SM hold under each individual resource constraint, which
constraint binds first, and — the paper's key observation — how much
on-chip *capacity* (registers, shared memory) goes unused when the
*scheduling* structures (CTA slots, warp slots, thread slots) bind first.

The arithmetic mirrors NVIDIA's occupancy calculator at CTA granularity.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.sim.config import GPUConfig


class LimiterClass(enum.Enum):
    """Which family of limits curtails a kernel's concurrency."""

    SCHEDULING = "scheduling"
    CAPACITY = "capacity"
    BALANCED = "balanced"


@dataclass(frozen=True)
class OccupancyResult:
    """Per-SM CTA residency under each constraint, for one kernel."""

    kernel_name: str
    warps_per_cta: int
    ctas_by_cta_slots: int
    ctas_by_warp_slots: int
    ctas_by_thread_slots: int
    ctas_by_registers: int
    ctas_by_smem: int

    @property
    def scheduling_limit_ctas(self) -> int:
        """CTAs/SM if only scheduling structures constrained residency."""
        return min(self.ctas_by_cta_slots, self.ctas_by_warp_slots, self.ctas_by_thread_slots)

    @property
    def capacity_limit_ctas(self) -> int:
        """CTAs/SM if only register file + shared memory constrained it."""
        return min(self.ctas_by_registers, self.ctas_by_smem)

    @property
    def baseline_ctas(self) -> int:
        """CTAs/SM on the stock GPU (both families enforced)."""
        return min(self.scheduling_limit_ctas, self.capacity_limit_ctas)

    @property
    def limiter(self) -> LimiterClass:
        if self.scheduling_limit_ctas < self.capacity_limit_ctas:
            return LimiterClass.SCHEDULING
        if self.capacity_limit_ctas < self.scheduling_limit_ctas:
            return LimiterClass.CAPACITY
        return LimiterClass.BALANCED

    @property
    def binding_resource(self) -> str:
        """Name of the single tightest constraint."""
        constraints = {
            "cta-slots": self.ctas_by_cta_slots,
            "warp-slots": self.ctas_by_warp_slots,
            "thread-slots": self.ctas_by_thread_slots,
            "registers": self.ctas_by_registers,
            "shared-mem": self.ctas_by_smem,
        }
        return min(constraints, key=constraints.get)

    @property
    def vt_headroom(self) -> float:
        """How many× more CTAs fit under VT (capacity only) vs baseline —
        the paper's opportunity metric for scheduling-limited kernels."""
        if self.baseline_ctas == 0:
            return 0.0
        return self.capacity_limit_ctas / self.baseline_ctas

    def occupancy_fraction(self, cfg: GPUConfig) -> float:
        """Baseline warp occupancy: resident warps / warp slots."""
        return min(1.0, self.baseline_ctas * self.warps_per_cta / cfg.max_warps_per_sm)


def limiter_summary(kernel, cfg: GPUConfig | None = None) -> dict:
    """Canonical limiter classification row for one kernel.

    The single source of truth every consumer reads — the E2/X2/X4
    experiment tables, ``repro list``, and the static performance oracle
    (:mod:`repro.isa.analysis.perf`) — instead of re-deriving the
    scheduling-vs-capacity call from raw footprints.
    """
    occ = occupancy(kernel, cfg)
    return {
        "limiter": occ.limiter.value,
        "baseline_ctas": occ.baseline_ctas,
        "capacity_ctas": occ.capacity_limit_ctas,
        "headroom": occ.vt_headroom,
        "binding": occ.binding_resource,
        "occupancy": occ,
    }


def occupancy(kernel, cfg: GPUConfig | None = None) -> OccupancyResult:
    """Compute per-SM residency limits for ``kernel`` under ``cfg``."""
    cfg = cfg or GPUConfig()
    threads = kernel.threads_per_cta
    warps = kernel.warps_per_cta()
    regs_per_cta = kernel.regs_per_thread * threads
    unbounded = 10**9
    return OccupancyResult(
        kernel_name=kernel.name,
        warps_per_cta=warps,
        ctas_by_cta_slots=cfg.max_ctas_per_sm,
        ctas_by_warp_slots=cfg.max_warps_per_sm // warps,
        ctas_by_thread_slots=cfg.max_threads_per_sm // threads,
        ctas_by_registers=cfg.registers_per_sm // regs_per_cta if regs_per_cta else unbounded,
        ctas_by_smem=cfg.smem_per_sm // kernel.smem_bytes if kernel.smem_bytes else unbounded,
    )
