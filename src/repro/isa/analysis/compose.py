"""Static co-residency composer: kernel-pair admission verdicts.

ROADMAP item 1 (concurrent-kernel co-residency with preemptive CTA
scheduling, after arXiv:1406.6037) needs an admission-control front end:
given two kernels and an architecture, may the CTA manager co-schedule
them on one chip, and what does that cost?  This module answers the
question *statically*, composing per-kernel resource footprints — derived
from the same machinery as the cycle bounds (:mod:`.bounds`) and the
occupancy calculator (:mod:`repro.core.occupancy`) — against the per-arch
:class:`~repro.sim.config.GPUConfig` capacities.

Verdict semantics:

* **deny** — one CTA of each kernel cannot be simultaneously resident on
  a single SM: some hard per-SM capacity (CTA slots, warp slots, thread
  slots, register file, shared memory) is exceeded even at minimum
  residency.  Co-scheduling would serialize at kernel granularity, which
  is what the manager does *without* co-residency; there is nothing to
  admit.
* **degrade** — both kernels fit, but a contention signal predicts
  measurable mutual slowdown: both are DRAM-bandwidth-class, their
  combined worst-case MSHR demand oversubscribes the L1 MSHR file, or
  fair sharing halves (or worse) a kernel's solo residency.  Admission is
  still sound — the slowdown bounds quantify the risk.
* **admit** — both fit and no contention signal fires.

The **slowdown bounds** lean on the cycle bounds' soundness: a
co-schedule can always be degraded to full serialization, whose makespan
is at most ``hi_a + hi_b``, so kernel *a*'s completion is at most
``(hi_a + hi_b) / lo_a`` times its solo lower bound; and an admission
controller never finishes a kernel *earlier* than unobstructed solo
execution, so the slowdown floor is 1.  The verdict and both bounds are
pure functions of (kernel pair, config, mode) — byte-deterministic, as
the `repro bound --pairs` gate requires.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.occupancy import occupancy
from repro.isa.analysis.bounds import KernelBound, bench_bounds
from repro.isa.analysis.context import cfg_of
from repro.isa.opcodes import OpClass
from repro.sim.config import GPUConfig

#: Memory-server share of the upper-bound budget above which a kernel is
#: classed as DRAM-bandwidth-bound (two such kernels contend for the same
#: work-conserving servers, so their co-residency is flagged "degrade").
_DRAM_HEAVY_FRACTION = 0.40
_MIXED_FRACTION = 0.15


@dataclass(frozen=True)
class KernelFootprint:
    """Per-SM resource demand and bandwidth class of one kernel."""

    kernel: str
    arch: str
    mode: str
    regs_per_cta: int
    smem_per_cta: int
    warps_per_cta: int
    threads_per_cta: int
    solo_ctas_per_sm: int  # baseline occupancy (all limits enforced)
    mshr_per_cta: int  # worst-case concurrently outstanding misses
    mem_fraction: float  # memory-server share of the hi-bound budget
    bandwidth_class: str  # "dram" | "mixed" | "compute"
    bound: KernelBound

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "arch": self.arch,
            "mode": self.mode,
            "regs_per_cta": self.regs_per_cta,
            "smem_per_cta": self.smem_per_cta,
            "warps_per_cta": self.warps_per_cta,
            "threads_per_cta": self.threads_per_cta,
            "solo_ctas_per_sm": self.solo_ctas_per_sm,
            "mshr_per_cta": self.mshr_per_cta,
            "mem_fraction": round(self.mem_fraction, 3),
            "bandwidth_class": self.bandwidth_class,
            "bound": {"lo": self.bound.lo, "hi": self.bound.hi},
        }


def _mshr_demand_per_warp(kernel) -> int:
    """Peak misses one warp keeps outstanding at once: the densest basic
    block's global-load/atomic site count.  An in-order warp blocks at the
    first cross-block use of a loaded value, so loads from different
    blocks rarely overlap, while back-to-back loads inside one block all
    take an MSHR before the first fill returns."""
    view = cfg_of(kernel)
    peak = 0
    for block in view.blocks:
        if not view.pc_reachable(block.start):
            continue
        loads = 0
        for pc in range(block.start, block.end):
            info = kernel.instrs[pc].info
            if info.op_class is OpClass.MEM_GLOBAL and (
                    not info.is_store or info.is_atomic):
                loads += 1
        peak = max(peak, loads)
    return peak


def kernel_footprint(bench, cfg: GPUConfig, *, mode: str = "baseline",
                     scale: float = 1.0, arch: str = "") -> KernelFootprint:
    """Static per-SM footprint + bandwidth class for one benchmark."""
    kernel = bench.kernel
    occ = occupancy(kernel, cfg)
    bound = bench_bounds(bench, cfg, mode=mode, scale=scale, arch=arch)
    total = sum(bound.buckets.values()) or 1.0
    mem_fraction = (bound.buckets.get("memory-server", 0)
                    + bound.buckets.get("ldst-port", 0)) / total
    if mem_fraction >= _DRAM_HEAVY_FRACTION:
        bclass = "dram"
    elif mem_fraction >= _MIXED_FRACTION:
        bclass = "mixed"
    else:
        bclass = "compute"
    warps = kernel.warps_per_cta(cfg.warp_size)
    return KernelFootprint(
        kernel=bench.name,
        arch=arch,
        mode=mode,
        regs_per_cta=kernel.regs_per_thread * kernel.threads_per_cta,
        smem_per_cta=kernel.smem_bytes,
        warps_per_cta=warps,
        threads_per_cta=kernel.threads_per_cta,
        solo_ctas_per_sm=occ.baseline_ctas,
        mshr_per_cta=warps * _mshr_demand_per_warp(kernel),
        mem_fraction=mem_fraction,
        bandwidth_class=bclass,
        bound=bound,
    )


@dataclass(frozen=True)
class PairVerdict:
    """Admission verdict for co-scheduling two kernels on one arch."""

    a: str
    b: str
    arch: str
    mode: str
    verdict: str  # "admit" | "degrade" | "deny"
    ctas_a: int  # co-resident CTAs/SM under fair alternating fill
    ctas_b: int
    slowdown_a: tuple  # (lo, hi) predicted slowdown of a vs solo
    slowdown_b: tuple
    reasons: tuple  # deterministic, sorted contention/denial signals

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "b": self.b,
            "arch": self.arch,
            "mode": self.mode,
            "verdict": self.verdict,
            "ctas_a": self.ctas_a,
            "ctas_b": self.ctas_b,
            "slowdown_a": [round(s, 2) for s in self.slowdown_a],
            "slowdown_b": [round(s, 2) for s in self.slowdown_b],
            "reasons": list(self.reasons),
        }


def _fits(cfg: GPUConfig, fa: KernelFootprint, na: int,
          fb: KernelFootprint, nb: int) -> bool:
    """Do ``na`` CTAs of *a* plus ``nb`` of *b* fit on one SM?"""
    return (na + nb <= cfg.max_ctas_per_sm
            and na * fa.warps_per_cta + nb * fb.warps_per_cta
            <= cfg.max_warps_per_sm
            and na * fa.threads_per_cta + nb * fb.threads_per_cta
            <= cfg.max_threads_per_sm
            and na * fa.regs_per_cta + nb * fb.regs_per_cta
            <= cfg.registers_per_sm
            and na * fa.smem_per_cta + nb * fb.smem_per_cta
            <= cfg.smem_per_sm)


def _fair_fill(cfg: GPUConfig, fa: KernelFootprint,
               fb: KernelFootprint) -> tuple[int, int]:
    """Alternating greedy fill from (1, 1); deterministic in (a, b)."""
    na = nb = 1
    grew = True
    while grew:
        grew = False
        if _fits(cfg, fa, na + 1, fb, nb):
            na += 1
            grew = True
        if _fits(cfg, fa, na, fb, nb + 1):
            nb += 1
            grew = True
    return na, nb


def pair_verdict(fa: KernelFootprint, fb: KernelFootprint,
                 cfg: GPUConfig) -> PairVerdict:
    """Compose two footprints into an admission verdict."""
    base = dict(a=fa.kernel, b=fb.kernel, arch=fa.arch, mode=fa.mode)
    if not _fits(cfg, fa, 1, fb, 1):
        reasons = []
        if 2 > cfg.max_ctas_per_sm:
            reasons.append("cta-slots")
        if fa.warps_per_cta + fb.warps_per_cta > cfg.max_warps_per_sm:
            reasons.append("warp-slots")
        if fa.threads_per_cta + fb.threads_per_cta > cfg.max_threads_per_sm:
            reasons.append("thread-slots")
        if fa.regs_per_cta + fb.regs_per_cta > cfg.registers_per_sm:
            reasons.append("registers")
        if fa.smem_per_cta + fb.smem_per_cta > cfg.smem_per_sm:
            reasons.append("shared-mem")
        return PairVerdict(**base, verdict="deny", ctas_a=0, ctas_b=0,
                           slowdown_a=(1.0, float("inf")),
                           slowdown_b=(1.0, float("inf")),
                           reasons=tuple(sorted(reasons)))

    na, nb = _fair_fill(cfg, fa, fb)
    reasons = []
    if fa.bandwidth_class == "dram" and fb.bandwidth_class == "dram":
        reasons.append("dram-bandwidth")
    if na * fa.mshr_per_cta + nb * fb.mshr_per_cta > cfg.l1_mshrs:
        reasons.append("mshr-oversubscription")
    if na * 2 < fa.solo_ctas_per_sm or nb * 2 < fb.solo_ctas_per_sm:
        reasons.append("residency-halved")
    verdict = "degrade" if reasons else "admit"
    # Full serialization is the worst co-schedule: makespan <= hi_a + hi_b.
    hi_sum = fa.bound.hi + fb.bound.hi
    return PairVerdict(
        **base, verdict=verdict, ctas_a=na, ctas_b=nb,
        slowdown_a=(1.0, hi_sum / max(1, fa.bound.lo)),
        slowdown_b=(1.0, hi_sum / max(1, fb.bound.lo)),
        reasons=tuple(sorted(reasons)))


def pair_matrix(benches, cfg: GPUConfig, *, mode: str = "baseline",
                scale: float = 1.0, arch: str = "") -> list[PairVerdict]:
    """Verdicts for every unordered benchmark pair (self-pairs included).

    Iteration is over name-sorted benchmarks, so the output order — and,
    since every verdict is a pure function of its inputs, the content —
    is byte-deterministic across runs.
    """
    ordered = sorted(benches, key=lambda b: b.name)
    feet = [kernel_footprint(b, cfg, mode=mode, scale=scale, arch=arch)
            for b in ordered]
    out = []
    for i, fa in enumerate(feet):
        for fb in feet[i:]:
            out.append(pair_verdict(fa, fb, cfg))
    return out
