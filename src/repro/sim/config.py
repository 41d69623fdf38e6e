"""Simulator configuration.

Defaults model a Fermi (GTX 480)-class streaming multiprocessor, the
baseline of the Virtual Thread paper: 48 warp slots and 8 CTA slots per SM
(the *scheduling limit*), a 128 KiB register file (32 K 4-byte registers)
and 48 KiB of shared memory per SM (the *capacity limit*).

The default SM count is small (the paper's GTX 480 has 15): Virtual Thread
is a per-SM mechanism and its gains are SM-local, so simulating fewer SMs
with proportionally scaled L2/DRAM bandwidth preserves the experiment shape
while keeping pure-Python runtimes tractable.  ``scaled_fermi()`` documents
that scaling in one place.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.isa.opcodes import OpClass


class ArchMode:
    """Architecture variants compared in the paper's evaluation."""

    BASELINE = "baseline"  # stock GPU: scheduling limit enforced
    VT = "vt"  # Virtual Thread: capacity-limit CTAs, active/inactive swap
    IDEAL_SCHED = "ideal-sched"  # scheduling structures enlarged for free (upper bound)

    ALL = (BASELINE, VT, IDEAL_SCHED)


@dataclass
class GPUConfig:
    """All tunables of the timing model, with Fermi-class defaults."""

    # ---- chip-level -------------------------------------------------------
    num_sms: int = 2

    # ---- scheduling limit (per SM) ---------------------------------------
    max_warps_per_sm: int = 48
    max_ctas_per_sm: int = 8
    num_warp_schedulers: int = 2
    warp_scheduler: str = "gto"  # "lrr" | "gto" | "two-level"

    # ---- capacity limit (per SM) -----------------------------------------
    registers_per_sm: int = 32768  # 4-byte registers (128 KiB register file)
    smem_per_sm: int = 49152  # bytes of shared memory
    max_threads_per_sm: int = 1536

    # ---- architecture mode -------------------------------------------------
    arch: str = ArchMode.BASELINE

    # ---- Virtual Thread parameters -----------------------------------------
    #: Hard cap on resident CTAs under VT, as a multiple of the active limit
    #: (bounds the backup-SRAM provisioning; capacity usually binds first).
    vt_max_resident_multiplier: float = 4.0
    #: Cycles to save one CTA's scheduling state (PCs + SIMT stacks + barrier).
    vt_swap_out_base: int = 2
    vt_swap_out_per_warp: int = 1
    #: Cycles to restore the incoming CTA's scheduling state.
    vt_swap_in_base: int = 2
    vt_swap_in_per_warp: int = 1
    #: Swap-trigger policy: "all-stalled" (paper), "majority-stalled",
    #: or "timeout".
    vt_trigger_policy: str = "all-stalled"
    #: For the "timeout" policy: cycles a CTA must stay fully stalled.
    vt_trigger_timeout: int = 16
    #: Incoming-CTA selection: "oldest-ready" (paper-style FIFO),
    #: "most-ready", or "most-recent" (LIFO, cache-locality-aware extension).
    vt_select_policy: str = "oldest-ready"
    #: A stalled warp only counts as *long-latency* stalled (and thus feeds
    #: the swap trigger) when its blocking load's total latency is at least
    #: this many cycles — i.e. it missed in L1.  Hardware detects this from
    #: the miss going out to the interconnect.
    vt_long_stall_threshold: int = 40

    # ---- execution latencies (cycles until dependants may issue) ----------
    lat_alu: int = 4
    lat_mul: int = 6
    lat_fpu: int = 6
    lat_sfu: int = 20
    lat_smem: int = 24
    smem_bank_conflict_penalty: int = 2
    sfu_issue_interval: int = 8  # SFU throughput: one warp per 8 cycles

    # ---- memory hierarchy ---------------------------------------------------
    line_bytes: int = 128
    l1_size: int = 16384
    l1_assoc: int = 4
    l1_hit_latency: int = 28
    l1_mshrs: int = 64
    icnt_latency: int = 24  # one-way SM <-> L2
    l2_size: int = 131072  # scaled with num_sms (GTX480: 768 KiB / 15 SMs)
    l2_assoc: int = 8
    l2_hit_latency: int = 96
    l2_service_cycles: int = 2  # inverse L2 port bandwidth per line
    dram_channels: int = 2  # scaled (GTX480: 6 channels / 15 SMs)
    dram_latency: int = 400
    dram_service_cycles: int = 8  # inverse per-channel bandwidth per line
    shared_mem_banks: int = 32

    # ---- misc ---------------------------------------------------------------
    #: Grid->SM assignment: "round-robin" (GigaThread-style, default) or
    #: "fill-first" (pack SMs in order; useful to study load imbalance).
    cta_dispatch: str = "round-robin"
    cta_launch_latency: int = 20  # dispatcher latency to seat a new CTA
    barrier_release_latency: int = 1
    max_cycles: int = 5_000_000  # hard watchdog: absolute cycle budget

    # ---- simulation engine --------------------------------------------------
    #: Event-driven fast-forward: when no scheduler can issue, jump straight
    #: to the earliest next event across SMs (warp wake, structural-pipe
    #: free, barrier release, swap-phase end, CTA start) and bulk-credit the
    #: skipped span into the idle/occupancy counters.  Statistics are
    #: byte-identical to the per-cycle reference path (asserted by
    #: tests/test_fastforward_equivalence.py); only wall-clock time changes.
    #: Fault injection and tracers pin the reference path regardless of
    #: this flag, since they observe individual cycles.
    fast_forward: bool = True
    #: Simulation engine: "serial" (the historical single-loop engine) or
    #: "parallel" (the sharded epoch engine in :mod:`repro.sim.parallel`,
    #: byte-identical stats, faster on multi-SM configs).  The parallel
    #: engine falls back to serial whenever a feature pins per-cycle
    #: observation (sanitizer, fault plans, tracers) or the epoch length
    #: would be degenerate for the configured latencies.
    engine: str = "serial"
    #: Worker shards for the parallel engine: 1 runs every shard inline in
    #: this process (no IPC; still gains per-SM epoch fast-forwarding),
    #: >1 forks that many worker processes, each owning a slice of the SMs.
    sim_jobs: int = 1

    # ---- robustness ---------------------------------------------------------
    #: Run the invariant sanitizer (:mod:`repro.sim.sanitizer`) on every
    #: stepped cycle.  Off by default: it costs speed, not correctness.
    sanitize: bool = False
    #: Progress watchdog: a launch that makes no forward progress (no issue,
    #: no dispatch, no swap in flight, no memory response outstanding) for
    #: this many consecutive cycles raises ``ProgressDeadlock`` with a
    #: diagnostic dump.  0 disables.  Kept well below ``max_cycles`` so
    #: hangs are diagnosed early.
    progress_window: int = 50_000
    #: No legitimate memory response completes further than this many cycles
    #: in the future; pending entries beyond it are flagged as lost by the
    #: sanitizer and ignored by the progress watchdog's in-flight check.
    max_pending_latency: int = 100_000

    def latency_for(self, op_class: OpClass) -> int:
        """Dependency-visible latency for a non-memory op class."""
        # Built lazily and stored outside the dataclass fields: this sits
        # on the per-instruction issue path, and the latencies are fixed
        # once a config is in use (``with_`` builds a fresh instance).
        table = self.__dict__.get("_lat_table")
        if table is None:
            table = self.__dict__["_lat_table"] = {
                OpClass.ALU: self.lat_alu,
                OpClass.MUL: self.lat_mul,
                OpClass.FPU: self.lat_fpu,
                OpClass.SFU: self.lat_sfu,
                OpClass.CTRL: 1,
            }
        return table[op_class]

    def with_(self, **overrides) -> "GPUConfig":
        """A copy of this config with ``overrides`` applied."""
        return dataclasses.replace(self, **overrides)

    @property
    def vt_swap_cycles_for(self):
        """(save, restore) cycles for a CTA with ``w`` warps as a callable."""

        def cycles(num_warps: int) -> tuple[int, int]:
            save = self.vt_swap_out_base + self.vt_swap_out_per_warp * num_warps
            restore = self.vt_swap_in_base + self.vt_swap_in_per_warp * num_warps
            return save, restore

        return cycles

    def validate(self) -> None:
        # Drop the memoized latency table in case fields were mutated in
        # place between validations (tests do this; real callers use with_).
        self.__dict__.pop("_lat_table", None)
        if self.num_sms <= 0:
            raise ValueError("need at least one SM")
        if self.max_ctas_per_sm <= 0 or self.max_warps_per_sm <= 0:
            raise ValueError("scheduling limits must be positive")
        if self.line_bytes < 32 or self.line_bytes & (self.line_bytes - 1):
            raise ValueError("line size must be a power of two >= 32")
        if self.arch not in ArchMode.ALL:
            raise ValueError(f"unknown arch {self.arch!r}; choose from {ArchMode.ALL}")
        if self.vt_trigger_policy not in ("all-stalled", "majority-stalled", "timeout"):
            raise ValueError(f"unknown vt_trigger_policy {self.vt_trigger_policy!r}")
        if self.vt_select_policy not in ("oldest-ready", "most-ready", "most-recent"):
            raise ValueError(f"unknown vt_select_policy {self.vt_select_policy!r}")
        if self.cta_dispatch not in ("round-robin", "fill-first"):
            raise ValueError(f"unknown cta_dispatch {self.cta_dispatch!r}")
        if self.progress_window < 0:
            raise ValueError("progress_window must be >= 0 (0 disables)")
        if self.max_pending_latency <= 0:
            raise ValueError("max_pending_latency must be positive")
        if self.engine not in ("serial", "parallel"):
            raise ValueError(f"unknown engine {self.engine!r}; choose 'serial' or 'parallel'")
        if self.sim_jobs <= 0:
            raise ValueError("sim_jobs must be >= 1")


def fermi_config(**overrides) -> GPUConfig:
    """The paper's GTX 480-class configuration (full 15-SM chip)."""
    cfg = GPUConfig(
        num_sms=15,
        l2_size=786432,
        dram_channels=6,
    )
    return cfg.with_(**overrides)


def kepler_config(**overrides) -> GPUConfig:
    """A Kepler (K20)-class configuration (extension experiment X2).

    Kepler doubles most scheduling structures over Fermi (64 warp slots,
    16 CTA slots, 2048 thread slots) and doubles the register file.  Small
    CTAs are *still* scheduling-limited here, so Virtual Thread's argument
    carries forward a generation.
    """
    cfg = GPUConfig(
        num_sms=13,
        max_warps_per_sm=64,
        max_ctas_per_sm=16,
        max_threads_per_sm=2048,
        registers_per_sm=65536,
        num_warp_schedulers=4,
        l2_size=1572864,
        dram_channels=5,
    )
    return cfg.with_(**overrides)


def scaled_kepler(num_sms: int = 2, **overrides) -> GPUConfig:
    """Kepler-class SM with chip resources scaled to ``num_sms``."""
    full = kepler_config()
    scale = num_sms / full.num_sms
    cfg = full.with_(
        num_sms=num_sms,
        l2_size=max(65536, int(full.l2_size * scale) // 65536 * 65536 or 65536),
        dram_channels=max(1, round(full.dram_channels * scale)),
    )
    return cfg.with_(**overrides)


def scaled_fermi(num_sms: int = 2, **overrides) -> GPUConfig:
    """Fermi-class SM with chip resources scaled to ``num_sms``.

    Per-SM parameters are untouched; L2 capacity and DRAM channel count are
    scaled proportionally so per-SM memory bandwidth and cache share match
    the full chip.  This is the default configuration of the experiment
    harness.
    """
    full = fermi_config()
    scale = num_sms / full.num_sms
    cfg = full.with_(
        num_sms=num_sms,
        l2_size=max(65536, int(full.l2_size * scale) // 65536 * 65536 or 65536),
        dram_channels=max(1, round(full.dram_channels * scale)),
    )
    return cfg.with_(**overrides)
