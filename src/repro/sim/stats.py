"""Statistics collected by the timing model.

Two levels: :class:`SMStats` accumulates per-SM counters during simulation;
:class:`SimStats` aggregates them chip-wide at the end of a run and derives
the metrics the experiments report (IPC, idle-cycle breakdown, average
resident/schedulable warps, swap accounting, cache hit rates).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field


def _filtered(cls, data: dict) -> dict:
    """Keep only keys that are fields of ``cls`` (forward/backward compat:
    a stored entry written by a newer or older build still loads)."""
    known = {f.name for f in dataclasses.fields(cls)}
    return {k: v for k, v in data.items() if k in known}


#: Idle-cycle classification keys, in reporting order.  Each maps to an
#: ``idle_cycles_<kind>`` counter on :class:`SMStats`; both the per-cycle
#: reference engine and the fast-forward engine account through
#: :meth:`SMStats.add_idle` so the two can never drift apart.
IDLE_KINDS = ("mem", "alu", "barrier", "struct", "swap", "empty")
_IDLE_ATTRS = {kind: "idle_cycles_" + kind for kind in IDLE_KINDS}


@dataclass
class SMStats:
    """Raw per-SM counters."""

    cycles: int = 0
    instructions: int = 0  # warp-instructions issued
    thread_instructions: int = 0  # lane-instructions (mask popcount)
    # Warp-instruction counts per functional-unit class (OpClass.value).
    instructions_by_class: dict = field(default_factory=dict)
    # Scheduler-slot accounting: one sample per scheduler per cycle.
    issue_slots: int = 0
    issued_slots: int = 0
    # Cycle-level idle classification (whole SM issued nothing that cycle).
    idle_cycles_mem: int = 0
    idle_cycles_alu: int = 0
    idle_cycles_barrier: int = 0
    idle_cycles_struct: int = 0
    idle_cycles_swap: int = 0
    idle_cycles_empty: int = 0
    # Occupancy accounting (sampled every few cycles; see occupancy_samples).
    occupancy_samples: int = 0
    resident_warp_samples: int = 0
    schedulable_warp_samples: int = 0
    resident_cta_samples: int = 0
    active_cta_samples: int = 0
    # Virtual Thread events.
    swaps: int = 0
    swap_busy_cycles: int = 0
    # Memory system (per-SM view).
    l1_accesses: int = 0
    l1_hits: int = 0
    smem_accesses: int = 0
    smem_bank_conflict_passes: int = 0
    global_transactions: int = 0
    ctas_completed: int = 0

    def add_idle(self, kind: str, count: int = 1) -> None:
        """Credit ``count`` cycles to one idle class (see :data:`IDLE_KINDS`)."""
        attr = _IDLE_ATTRS[kind]
        setattr(self, attr, getattr(self, attr) + count)

    @property
    def idle_cycles(self) -> int:
        return (
            self.idle_cycles_mem
            + self.idle_cycles_alu
            + self.idle_cycles_barrier
            + self.idle_cycles_struct
            + self.idle_cycles_swap
            + self.idle_cycles_empty
        )

    def to_dict(self) -> dict:
        """JSON-safe dict of every raw counter (round-trips losslessly)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SMStats":
        stats = cls(**_filtered(cls, data))
        # JSON object keys are always strings; counts must stay ints.
        stats.instructions_by_class = {
            str(k): int(v) for k, v in stats.instructions_by_class.items()
        }
        return stats


@dataclass
class SimStats:
    """Chip-level results of one kernel launch."""

    cycles: int = 0
    instructions: int = 0
    thread_instructions: int = 0
    sm_stats: list[SMStats] = field(default_factory=list)
    l2_accesses: int = 0
    l2_hits: int = 0
    dram_requests: int = 0
    ctas_launched: int = 0

    def to_dict(self) -> dict:
        """JSON-safe dict (chip counters + per-SM counter dicts).

        Derived metrics (``ipc``, hit rates, …) are intentionally not
        stored: they are recomputed from the raw counters after
        :meth:`from_dict`, so a stored entry can never carry a stats/metric
        mismatch.
        """
        # Spelled out rather than ``dataclasses.asdict``, which would
        # convert every SMStats only for sm_stats to be rebuilt here; the
        # keys keep the field order (selfcheck's schema rule flags a field
        # missing from this payload).
        return {
            "cycles": self.cycles,
            "instructions": self.instructions,
            "thread_instructions": self.thread_instructions,
            "sm_stats": [sm.to_dict() for sm in self.sm_stats],
            "l2_accesses": self.l2_accesses,
            "l2_hits": self.l2_hits,
            "dram_requests": self.dram_requests,
            "ctas_launched": self.ctas_launched,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SimStats":
        stats = cls(**_filtered(cls, data))
        stats.sm_stats = [SMStats.from_dict(sm) for sm in data.get("sm_stats", [])]
        return stats

    def instruction_mix(self) -> dict[str, float]:
        """Fraction of warp-instructions per functional-unit class."""
        totals: dict[str, int] = {}
        for sm in self.sm_stats:
            for op_class, count in sm.instructions_by_class.items():
                totals[op_class] = totals.get(op_class, 0) + count
        grand = sum(totals.values())
        if not grand:
            return {}
        return {op_class: count / grand for op_class, count in sorted(totals.items())}

    @property
    def ipc(self) -> float:
        """Warp-instructions per cycle, chip-wide."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def thread_ipc(self) -> float:
        return self.thread_instructions / self.cycles if self.cycles else 0.0

    @property
    def simd_efficiency(self) -> float:
        """Average fraction of lanes active per issued warp-instruction."""
        if not self.instructions:
            return 0.0
        return self.thread_instructions / (self.instructions * 32)

    @property
    def l1_hit_rate(self) -> float:
        acc = sum(s.l1_accesses for s in self.sm_stats)
        hit = sum(s.l1_hits for s in self.sm_stats)
        return hit / acc if acc else 0.0

    @property
    def l2_hit_rate(self) -> float:
        return self.l2_hits / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def total_swaps(self) -> int:
        return sum(s.swaps for s in self.sm_stats)

    def _avg_over_samples(self, field_name: str) -> float:
        samples = sum(s.occupancy_samples for s in self.sm_stats)
        total = sum(getattr(s, field_name) for s in self.sm_stats)
        return total / samples if samples else 0.0

    @property
    def avg_resident_warps(self) -> float:
        return self._avg_over_samples("resident_warp_samples")

    @property
    def avg_schedulable_warps(self) -> float:
        return self._avg_over_samples("schedulable_warp_samples")

    @property
    def avg_resident_ctas(self) -> float:
        return self._avg_over_samples("resident_cta_samples")

    @property
    def avg_active_ctas(self) -> float:
        return self._avg_over_samples("active_cta_samples")

    def idle_breakdown(self) -> dict[str, float]:
        """Fraction of SM-cycles in each idle class (sums with 'busy' to 1)."""
        cycles = sum(s.cycles for s in self.sm_stats)
        if not cycles:
            return {}
        keys = ("mem", "alu", "barrier", "struct", "swap", "empty")
        out = {}
        for key in keys:
            out[key] = sum(getattr(s, f"idle_cycles_{key}") for s in self.sm_stats) / cycles
        out["busy"] = 1.0 - sum(out.values())
        return out

    def summary(self) -> str:
        lines = [
            f"cycles={self.cycles}  warp-instructions={self.instructions}  IPC={self.ipc:.3f}",
            f"avg resident warps/SM={self.avg_resident_warps:.1f}  "
            f"schedulable={self.avg_schedulable_warps:.1f}  "
            f"resident CTAs/SM={self.avg_resident_ctas:.2f} (active {self.avg_active_ctas:.2f})",
            f"L1 hit={self.l1_hit_rate:.1%}  L2 hit={self.l2_hit_rate:.1%}  "
            f"DRAM reqs={self.dram_requests}  swaps={self.total_swaps}  "
            f"SIMD eff={self.simd_efficiency:.1%}",
        ]
        breakdown = self.idle_breakdown()
        if breakdown:
            parts = "  ".join(f"{k}={v:.1%}" for k, v in breakdown.items())
            lines.append(f"cycle breakdown: {parts}")
        return "\n".join(lines)
