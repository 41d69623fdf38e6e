"""Analytical MWP/CWP-style performance model (the static oracle).

Predicts, for one kernel on one architecture, the three things the
paper's argument turns on — without running the simulator:

* the **limiter class** (scheduling- vs capacity-limited residency),
  taken verbatim from :mod:`repro.core.occupancy` (the single source of
  truth the experiments also use);
* the **idle-cycle class** the SM spends its dead cycles on — memory
  latency (``mem``), port/MSHR structural hazards (``struct``), or
  compute dependence chains (``alu``) — matching the simulator's
  dead-cycle taxonomy and its priority (``struct`` > ``alu`` > ``mem``
  over *schedulable* warps: a READY-but-port-blocked warp makes the
  cycle structural, any short-stalled warp makes it compute);
* a **VT-benefit tier** (``high`` / ``moderate`` / ``neutral``).

Model structure, in the spirit of Hong & Kim's MWP/CWP analysis:

1. One warp's execution is expanded into a straight-line *trace* (each
   loop runs the upper end of its :mod:`.bounds` trip interval, i.e. its
   worst case rather than its mean — the same resolvers the sound cycle
   bounds use, fed the launch parameter values when a layout is known —
   or :data:`DEFAULT_TRIPS` when no resolver bounds it) and walked with
   scoreboard semantics, yielding issue slots, dependence-stall cycles
   split by producer kind *and by barrier phase*, and the peak number of
   outstanding miss *lines* (same-line sites merge, mirroring the L1's
   MSHR coalescing).
2. Every memory access site is costed by :mod:`.memaccess` (symbolic
   coalescing / bank-conflict bounds) and *attributed* to the global
   buffer it targets through the affine ``%param`` terms, so a
   cache-residency estimate (reuse factor x footprint vs. L1/L2
   capacity) assigns each load a latency class.  Short (L1-resident)
   loads stall the scoreboard below the long-stall threshold and are
   therefore compute-class stalls, exactly as the simulator counts them.
3. A decision cascade evaluates the machine's structural hazards and
   latency exposure at the per-architecture warp counts from the
   occupancy/VT residency rules — see :func:`classify_idle` for the
   rules and their mechanistic reading of the simulator.

The numeric thresholds are calibrated once against the cycle-level
simulator at the reference configuration and then *locked* by the
``repro predict --check`` agreement gate and experiment X4 — the model
cannot silently drift from the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.occupancy import OccupancyResult, occupancy
from repro.isa.analysis.affine import affine_solution, is_top
from repro.isa.analysis.bounds import loop_trips
from repro.isa.analysis.context import cfg_of, fact
from repro.isa.analysis.memaccess import AccessCost, access_costs
from repro.isa.instruction import MemRef, Reg
from repro.isa.opcodes import Op, OpClass
from repro.sim.config import GPUConfig

#: Trip count assumed for a loop that no :mod:`.bounds` resolver or
#: workload cap bounds: a loaded bound in a generated kernel, or a
#: parameter bound without a layout.  The registry's data-dependent loops
#: run ~1-16 iterations (btree's binary search, spmv's row walk), and the
#: steady-state bounds only need the loop body to dominate the
#: straight-line prologue.
DEFAULT_TRIPS = 12

#: Point estimate of transactions per warp access for addresses the
#: affine pass cannot analyze.  Unpredicated data-dependent *gathers*
#: (address tainted by a loaded value) scatter near-worst-case;
#: predicated gathers execute with sparse active masks (frontier-style)
#: and unsupported arithmetic on thread ids stays mostly coalesced.
#: Bounds reported to the sanitizer are unaffected — these feed only
#: the throughput model.
TX_EST_GATHER = 16.0
TX_EST_ARITH = 2.0
#: Bank-conflict point estimate for unanalyzable shared addresses: the
#: registry's data-dependent shared indexing (histogram bins) is
#: low-conflict, and structured conflicts are always analyzable.
PASSES_EST_UNKNOWN = 2.0

#: Residency thresholds: words of a buffer must be re-touched this many
#: times for the model to call it L1-resident (short loads) or
#: L2-resident (misses stop at L2).
REUSE_L1 = 6.0
REUSE_L2 = 1.1

#: Minimum exposed-latency cycles before the cascade calls a kernel
#: memory-bound (smaller exposures are classification noise).
EXPOSED_MIN = 32.0
#: Stricter exposure floor for VT's *cold convoy* (launch-aligned first
#: misses): swap rotation erases most of the cold transient, so only a
#: substantial residue classifies the steady state.
EXPOSED_COLD = 128.0

#: A pipeline port binds (READY warps queue behind it) only when its
#: demand clearly exceeds the issue/critical-path anchor; near-parity
#: overlaps cleanly.
PORT_MARGIN = 1.15

#: DRAM service demand must exceed the issue bound by this factor before
#: queueing delays dominate the steady state (below it the channel has
#: enough slack to absorb bursts).
DRAM_EXCESS = 4.0

#: SFU-pipeline pressure (relative to the issue bound) that surfaces as
#: structural idle once memory latency is hidden.
SFU_SURFACE = 0.6

#: The dependence-residual rule calls the hidden-latency residue
#: compute-class only when the scan set's short-stall mass *clearly
#: dominates* the cold-start miss — at parity the simulator's dead
#: cycles still trace back to the first round trip (mem).
ALU_RESIDUAL = 2.0

#: Trace-length safety cap (instructions) for pathological loop nests.
MAX_TRACE = 60_000

IDLE_CLASSES = ("mem", "struct", "alu")


@dataclass(frozen=True)
class KernelLayout:
    """Launch-time memory layout: what each ``%paramN`` points at.

    Built by :func:`layout_for` from a prepared benchmark; lets the
    model attribute access sites to buffers, estimate cache residency,
    and hand :func:`~.bounds.loop_trips` the values of parameter-valued
    loop bounds.  Without a layout every global access is assumed to
    miss, and a loop whose bound is a parameter runs
    :data:`DEFAULT_TRIPS` times.
    """

    #: param index -> buffer size in bytes (pointer params only).
    buffer_bytes: dict = field(default_factory=dict)
    #: param index -> scalar value (integer params only).
    param_values: dict = field(default_factory=dict)
    #: total threads in the grid (for reuse-factor estimates).
    total_threads: int = 0


def layout_for(bench, scale: float = 1.0) -> KernelLayout:
    """Derive the :class:`KernelLayout` of ``bench`` at ``scale``."""
    prepared = bench.prepare(scale)
    by_base = {base: nbytes
               for base, nbytes in prepared.gmem._buffers.values()}
    buffers = {}
    values = {}
    for i, p in enumerate(prepared.params):
        if p in by_base:
            buffers[i] = by_base[p]
        else:
            values[i] = int(p)
    gx, gy, gz = prepared.grid_dim
    threads = gx * gy * gz * bench.kernel.threads_per_cta
    return KernelLayout(buffer_bytes=buffers, param_values=values,
                        total_threads=threads)


@dataclass(frozen=True)
class WarpProfile:
    """One warp's summarized execution (loop-expanded trace)."""

    instructions: int  # issue slots consumed
    alu_stall: int  # dependence stalls on short-latency producers
    alu_taint: int  # the subset whose producer chain includes a load
    mem_stall: int  # dependence stalls on long-latency (miss) loads
    ldst_port: float  # LD/ST port busy cycles (sum of expected transactions)
    smem_port: float  # shared-memory port busy cycles (sum of expected passes)
    sfu_port: float  # SFU pipeline busy cycles
    inflight: int  # peak outstanding long-load *lines* (same-line merged)
    dram_lines: float  # DRAM transactions per trace (miss loads + stores)
    cold_lat: int  # latency of the first long load in the trace (0 if none)
    barriers: int
    #: True when a long-latency load occurs *after* the first barrier:
    #: warps re-stagger every round trip, so no post-barrier alignment
    #: survives into later phases.
    post_barrier_miss: bool = False
    #: per-barrier-phase (issue slots, alu stalls, mem stalls,
    #: shared passes, sfu cycles)
    phases: tuple = ()

    @property
    def chain_cycles(self) -> int:
        """Single-warp makespan lower bound (critical path)."""
        return self.instructions + self.alu_stall + self.mem_stall


@dataclass(frozen=True)
class PerfPrediction:
    """Static prediction for one kernel on one architecture."""

    kernel: str
    arch: str
    limiter: str  # occupancy LimiterClass value
    idle_class: str  # "mem" | "struct" | "alu"
    vt_tier: str  # "high" | "moderate" | "neutral"
    warps: int  # resident latency-hiding warps used by the model
    active_warps: int  # simultaneously schedulable warps (baseline set)
    busy: float  # predicted issue-slot utilization at the binding bound
    bounds: dict = field(default_factory=dict)  # bound name -> cycles
    binding: str = ""  # name of the rule / constraint that decided the class
    profile: WarpProfile | None = None
    occupancy: OccupancyResult | None = None

    # selfcheck: ok[schema-field-coverage] -- profile/occupancy are the analysis objects the prediction was derived from; the serialized payload pins only the decision (limiter, tier, bounds)
    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "arch": self.arch,
            "limiter": self.limiter,
            "idle_class": self.idle_class,
            "vt_tier": self.vt_tier,
            "warps": self.warps,
            "active_warps": self.active_warps,
            "busy": round(self.busy, 4),
            "binding": self.binding,
            "bounds": {k: round(v, 1) for k, v in self.bounds.items()},
        }


# -- loop structure ----------------------------------------------------------


def _loop_trips(kernel, param_values) -> dict[int, int]:
    """``branch pc -> trip count`` for every backward branch: the upper
    end of its :func:`~.bounds.loop_trips` interval, or
    :data:`DEFAULT_TRIPS` for a loop no resolver (nor workload cap)
    bounds.

    A loop with a trip *interval* is modelled at its worst case, not its
    mean: spmv's row walk (workload cap ``[1, 16]``, mean ~8.5 rows)
    runs 16 times, btree's bracket search (``[14, 15]``) 15 times.
    """
    return {bpc: bound.hi if bound is not None else DEFAULT_TRIPS
            for bpc, bound in loop_trips(kernel, param_values).items()}


def _linear_trace(kernel, trips: dict[int, int]) -> list[int]:
    """Loop-expanded straight-line PC trace of one warp.

    Backward branches are taken ``trips - 1`` times (budgets of nested
    back edges re-arm on every outer iteration); forward conditional
    branches fall through — a divergent warp pays for both sides of an
    if/else, which is exactly what serialized execution costs.
    """
    budgets = {pc: trips[pc] - 1 for pc in trips}
    trace: list[int] = []
    pc = 0
    n = len(kernel.instrs)
    while 0 <= pc < n and len(trace) < MAX_TRACE:
        instr = kernel.instrs[pc]
        trace.append(pc)
        if instr.is_exit:
            break
        if instr.is_branch and instr.target is not None:
            if instr.target <= pc:  # back edge
                if budgets.get(pc, 0) > 0:
                    budgets[pc] -= 1
                    for other in budgets:  # re-arm nested loops
                        if instr.target <= other < pc:
                            budgets[other] = trips[other] - 1
                    pc = instr.target
                    continue
            elif instr.pred is None:  # unconditional forward jump
                pc = instr.target
                continue
        pc += 1
    return trace


# -- access attribution and cache residency ----------------------------------


def _taint_regs(kernel) -> list[set[int]]:
    """Per-PC set of registers whose value is data-dependent (derived
    from a loaded value, directly or through a predicate)."""
    cfg_view = cfg_of(kernel)
    n = len(kernel.instrs)
    tainted: list[set[int]] = [set() for _ in range(n)]
    changed = True
    while changed:
        changed = False
        for pc in range(n):
            if not cfg_view.pc_reachable(pc):
                continue
            instr = kernel.instrs[pc]
            out = set(tainted[pc])
            dst = instr.dst_reg()
            if dst is not None:
                if instr.is_load or any(r in tainted[pc]
                                        for r in instr.src_regs()):
                    out.add(dst)
                elif instr.pred is None:
                    out.discard(dst)
            for succ in cfg_view.instr_successors(pc):
                if succ < n and not out <= tainted[succ]:
                    tainted[succ] |= out
                    changed = True
    return tainted


def _sparse_filtered(kernel, tainted: list[set[int]]) -> set[int]:
    """PCs guarded by a data-dependent *equality filter*: a forward
    branch whose predicate compares a loaded value for EQ/NE.

    That idiom selects a sparse subset of threads to do work (BFS's
    ``level[v] == current`` frontier test): the guarded loads execute
    with thin active masks over a small touched working set, so they
    stay L1-resident and near-coalesced.  Range guards (LT/GE loop
    bounds, as in spmv's row walk) do not filter — every thread's range
    is non-empty — and are excluded by the comparison kind.
    """
    out: set[int] = set()
    instrs = kernel.instrs
    for pc, instr in enumerate(instrs):
        if not (instr.is_branch and instr.target is not None
                and instr.target > pc and instr.pred is not None):
            continue
        if instr.pred.idx not in tainted[pc]:
            continue
        setp = next((instrs[i] for i in range(pc - 1, -1, -1)
                     if instrs[i].op is Op.SETP and instrs[i].dst is not None
                     and instrs[i].dst.idx == instr.pred.idx), None)
        if setp is None or setp.cmp is None:
            continue
        if setp.cmp.value in ("eq", "ne"):
            out.update(range(pc + 1, instr.target))
    return out


def _param_of(value) -> int | None:
    """Parameter index of the single unit-coefficient ``%paramN`` term
    in an affine value, if any (how every kernel forms base pointers)."""
    params = [sym for sym, coef in value.uni
              if sym.startswith("param") and coef == 1]
    if len(params) == 1:
        return int(params[0][len("param"):])
    return None


def _attribute_sites(kernel, affine, envs) -> dict[int, int]:
    """``access pc -> param index`` of the buffer each global access
    targets.

    Analyzable addresses carry their ``%param`` base in the affine
    form.  Unanalyzable (TOP) addresses are attributed by walking the
    base register's *nearest preceding* definition (registers are
    recycled, so a union over all defs cross-contaminates): ``IADD rb,
    r_base, r_index`` with a param-affine operand is the universal
    base+offset idiom.
    """
    out: dict[int, int] = {}
    instrs = kernel.instrs
    for pc, instr in enumerate(instrs):
        if not instr.is_global_mem or envs[pc] is None:
            continue
        address = affine.address(pc, envs[pc])
        if not is_top(address):
            p = _param_of(address)
            if p is not None:
                out[pc] = p
            continue
        base = next((s.base.idx for s in instr.srcs
                     if isinstance(s, MemRef)), None)
        if base is None:
            continue
        dpc = next((i for i in range(pc - 1, -1, -1)
                    if instrs[i].dst_reg() == base), None)
        if dpc is None or envs[dpc] is None:
            continue
        candidates = {p for operand in instrs[dpc].srcs
                      if isinstance(operand, Reg)
                      and (p := _param_of(envs[dpc].get(operand.idx)))
                      is not None}
        if len(candidates) == 1:
            out[pc] = candidates.pop()
    return out


def _latency_classes(kernel, cfg: GPUConfig, layout: KernelLayout | None,
                     site_param: dict[int, int], site_weight: dict[int, int],
                     filtered: set[int]) -> dict[int, int]:
    """``access pc -> modelled load latency`` from cache residency.

    Tiers, checked in order:

    * **Sparse filter** — loads guarded by a data-dependent equality
      test (:func:`_sparse_filtered`) execute with thin active masks
      over a touched working set far below the buffer footprint:
      L1-resident.
    * **L1-resident** — heavy temporal reuse (touches / words >=
      :data:`REUSE_L1`) over a buffer that fits L1.
    * **L2-resident** — modest reuse (>= :data:`REUSE_L2`) over a
      buffer that fits L2: misses stop at the partition, paying
      interconnect + L2 latency instead of the DRAM round trip.
    * Everything else — and everything when no layout is known — pays
      the full DRAM round trip.
    """
    miss = cfg.dram_latency + cfg.l2_hit_latency
    l2_lat = cfg.l2_hit_latency + 2 * cfg.icnt_latency
    lat: dict[int, int] = {}
    touches: dict[int, float] = {}
    if layout is not None and layout.buffer_bytes:
        for pc, p in site_param.items():
            touches[p] = (touches.get(p, 0.0)
                          + site_weight.get(pc, 0) * layout.total_threads)
    for pc, instr in enumerate(kernel.instrs):
        if not instr.is_global_mem:
            continue
        if pc in filtered:
            lat[pc] = cfg.l1_hit_latency
            continue
        p = site_param.get(pc)
        nbytes = (layout.buffer_bytes.get(p)
                  if layout is not None and p is not None else None)
        if nbytes is None:
            lat[pc] = miss
            continue
        reuse = touches[p] / max(1.0, nbytes / 4.0)
        if reuse >= REUSE_L1 and nbytes <= cfg.l1_size:
            lat[pc] = cfg.l1_hit_latency
        elif reuse >= REUSE_L2 and nbytes <= cfg.l2_size:
            lat[pc] = l2_lat
        else:
            lat[pc] = miss
    return lat


# -- single-warp profile -----------------------------------------------------


def _model_tx(cost: AccessCost | None, tainted_addr: bool, sparse: bool,
              max_lanes: int) -> float:
    if cost is None:
        return 1.0
    if cost.analyzable and cost.source == "affine":
        return cost.expected
    if tainted_addr and not sparse:
        est = TX_EST_GATHER
    else:
        est = TX_EST_ARITH
    # The unroll/interval refinements may have proven a tighter worst
    # case than one transaction per lane; never estimate above a proven
    # bound.  (The refined *expected* value is deliberately not used for
    # globals: the estimate also stands in for L1-sector and row-buffer
    # effects the exact line count does not see.)
    return min(float(max_lanes), float(cost.full_hi), max(1.0, est))


def _line_clusters(kernel, cfg: GPUConfig, site_param: dict[int, int],
                   affine, envs) -> dict[int, tuple]:
    """``load pc -> line-group key``: sites whose affine address
    constants land within one L1 line of each other on the same buffer
    share an MSHR fill (hotspot's west/center/east stencil taps), so
    they count once toward outstanding-miss concurrency."""
    by_param: dict[int, list[tuple[int, int]]] = {}
    for pc, p in site_param.items():
        if envs[pc] is None:
            continue
        addr = affine.address(pc, envs[pc])
        if addr is not None and not is_top(addr):
            by_param.setdefault(p, []).append((int(addr.const), pc))
    groups: dict[int, tuple] = {}
    for p, sites in by_param.items():
        sites.sort()
        cluster = 0
        prev = None
        for const, pc in sites:
            if prev is not None and const - prev > cfg.line_bytes:
                cluster += 1
            groups[pc] = (p, cluster)
            prev = const
    return groups


#: The :class:`GPUConfig` fields :func:`warp_profile` reads — with the
#: layout, its memo key.  A profile must not read any other field
#: (``tests/test_analysis_context.py`` perturbs every other field).
PROFILE_FIELDS = (
    "line_bytes", "shared_mem_banks", "l1_size", "l2_size",
    "l1_hit_latency", "l2_hit_latency", "icnt_latency", "dram_latency",
    "vt_long_stall_threshold", "lat_smem", "smem_bank_conflict_penalty",
    "sfu_issue_interval", "lat_alu", "lat_mul", "lat_fpu", "lat_sfu",
)


def _layout_key(layout: KernelLayout | None) -> tuple | None:
    if layout is None:
        return None
    return (tuple(sorted(layout.buffer_bytes.items())),
            tuple(sorted(layout.param_values.items())), layout.total_threads)


def warp_profile(kernel, cfg: GPUConfig,
                 layout: KernelLayout | None = None) -> WarpProfile:
    """Summarize one warp's loop-expanded execution for the model
    (computed once per kernel, :data:`PROFILE_FIELDS` values and layout)."""
    key = ("warp_profile", tuple(getattr(cfg, f) for f in PROFILE_FIELDS),
           _layout_key(layout))
    return fact(kernel, key, _warp_profile, kernel, cfg, layout)


def _warp_profile(kernel, cfg: GPUConfig,
                  layout: KernelLayout | None) -> WarpProfile:
    affine, envs = affine_solution(kernel)
    params = layout.param_values if layout else None
    costs = {c.pc: c for c in access_costs(
        kernel, line_bytes=cfg.line_bytes, num_banks=cfg.shared_mem_banks,
        param_values=params)}
    tainted = _taint_regs(kernel)
    trace = _linear_trace(kernel, _loop_trips(kernel, params))
    max_lanes = min(32, kernel.threads_per_cta)

    site_weight: dict[int, int] = {}
    for pc in trace:
        if kernel.instrs[pc].info.is_mem:
            site_weight[pc] = site_weight.get(pc, 0) + 1
    site_param = _attribute_sites(kernel, affine, envs)
    filtered = _sparse_filtered(kernel, tainted)
    load_lat = _latency_classes(kernel, cfg, layout, site_param,
                                site_weight, filtered)
    default_lat = cfg.dram_latency + cfg.l2_hit_latency
    line_group = _line_clusters(kernel, cfg, site_param, affine, envs)

    # In-order issue walk with scoreboard semantics (srcs + WAW on dst):
    # one warp, unit issue, no port contention.  A stall is memory-class
    # only when its producer is a *long*-latency load, mirroring the
    # simulator's vt_long_stall_threshold rule.
    ready: dict[int, tuple[int, bool]] = {}  # reg -> (ready time, long load)
    t = 0
    alu_stall = mem_stall = alu_taint = 0
    ldst = smem = sfu = dram_lines = 0.0
    inflight = 0
    cold_lat = 0
    long_gather = False  # some long load has a data-dependent/unknown address
    long_params: set[int] = set()  # buffers the long affine streams walk
    post_barrier_miss = False
    retire: list[tuple[int, tuple]] = []  # (completion, line-group key)
    n_bar = 0
    phases: list[tuple] = []  # (issue, alu, mem, smem passes, sfu cycles)
    ph_i = ph_a = ph_m = 0
    ph_smem = ph_sfu = 0.0
    for pc in trace:
        instr = kernel.instrs[pc]
        cls = instr.info.op_class
        ph_i += 1
        start = t + 1
        blocker: int | None = None
        blocker_long = False
        deps = instr.src_regs()
        if instr.dst is not None:
            deps.append(instr.dst.idx)
        for reg in deps:
            when, long = ready.get(reg, (0, False))
            if when > start or (when == start and long and not blocker_long):
                start, blocker, blocker_long = max(start, when), reg, long
        stall = start - (t + 1)
        if stall:
            if blocker_long:
                mem_stall += stall
                ph_m += stall
            else:
                alu_stall += stall
                ph_a += stall
                if blocker is not None and blocker in tainted[pc]:
                    alu_taint += stall
        t = start
        retire = [r for r in retire if r[0] > t]
        cost = costs.get(pc)
        if cls is OpClass.MEM_GLOBAL:
            sparse = pc in filtered or instr.pred is not None
            gather = bool(tainted[pc] & set(instr.src_regs()))
            tx = max(1.0, _model_tx(cost, gather, sparse, max_lanes))
            ldst += tx
            lat = load_lat.get(pc, default_lat)
            if instr.is_store and not instr.info.is_atomic:
                if not sparse:  # write-through: full-mask store lines hit DRAM
                    dram_lines += tx
            else:
                long = lat >= cfg.vt_long_stall_threshold
                if instr.dst is not None:
                    ready[instr.dst.idx] = (t + lat, long)
                if long:
                    if lat >= default_lat:
                        dram_lines += tx
                    if not cold_lat:
                        cold_lat = lat
                    if n_bar:
                        post_barrier_miss = True
                    p = site_param.get(pc)
                    if gather or p is None:
                        long_gather = True
                    else:
                        long_params.add(p)
                    retire.append((t + lat, line_group.get(pc, (None, pc))))
                    inflight = max(inflight, len({k for _, k in retire}))
        elif cls is OpClass.MEM_SHARED:
            passes = (cost.expected if cost and cost.analyzable
                      else min(PASSES_EST_UNKNOWN, float(cost.hi))
                      if cost else PASSES_EST_UNKNOWN)
            passes = max(1.0, passes)
            smem += passes
            ph_smem += passes
            if instr.dst is not None:
                lat = cfg.lat_smem + (passes - 1) * cfg.smem_bank_conflict_penalty
                ready[instr.dst.idx] = (t + int(round(lat)), False)
        else:
            if cls is OpClass.SFU:
                sfu += cfg.sfu_issue_interval
                ph_sfu += cfg.sfu_issue_interval
            if instr.is_barrier:
                n_bar += 1
                phases.append((ph_i, ph_a, ph_m, ph_smem, ph_sfu))
                ph_i = ph_a = ph_m = 0
                ph_smem = ph_sfu = 0.0
            if instr.dst is not None:
                ready[instr.dst.idx] = (t + cfg.latency_for(cls), False)
    phases.append((ph_i, ph_a, ph_m, ph_smem, ph_sfu))
    # Footprint cap on outstanding lines: warps partition an affine
    # stream, so one warp holds at most its grid share of each long
    # buffer's lines in flight at once (gathers stay uncapped — a
    # data-dependent address can scatter across the whole buffer).
    if (inflight and not long_gather and long_params and layout is not None
            and layout.total_threads):
        grid_warps = max(1, layout.total_threads // 32)
        cap = sum(max(1, round(layout.buffer_bytes.get(p, 0)
                               / cfg.line_bytes / grid_warps))
                  for p in long_params)
        inflight = min(inflight, cap)
    return WarpProfile(
        instructions=len(trace), alu_stall=alu_stall, alu_taint=alu_taint,
        mem_stall=mem_stall, ldst_port=ldst, smem_port=smem, sfu_port=sfu,
        inflight=inflight, dram_lines=dram_lines, cold_lat=cold_lat,
        barriers=n_bar, post_barrier_miss=post_barrier_miss,
        phases=tuple(phases))


# -- machine model -----------------------------------------------------------


def _effective_warps(occ: OccupancyResult, cfg: GPUConfig, arch: str) -> int:
    """Warps available for latency hiding on one SM under ``arch``."""
    baseline = max(1, occ.baseline_ctas)
    if arch == "baseline":
        ctas = baseline
    else:  # vt / ideal-sched: capacity-limited residency, swap-scheduled
        resident_cap = max(1, int(cfg.vt_max_resident_multiplier * baseline))
        ctas = max(baseline, min(occ.capacity_limit_ctas, resident_cap))
    return max(1, ctas * occ.warps_per_cta)


def throughput_bounds(profile: WarpProfile, cfg: GPUConfig,
                      warps: int) -> dict[str, float]:
    """Steady-state cycles for one SM to retire ``warps`` warp-traces,
    one bound per machine resource (the max binds)."""
    n = warps
    service = cfg.dram_service_cycles / max(1, cfg.dram_channels)
    return {
        "issue": n * profile.instructions / max(1, cfg.num_warp_schedulers),
        "ldst": n * profile.ldst_port,
        "smem": n * profile.smem_port,
        "sfu": n * profile.sfu_port,
        "dram": n * profile.dram_lines * service * cfg.num_sms,
        "chain": float(profile.chain_cycles),
    }


def _exposed_mem(profile: WarpProfile, warps: int, schedulers: int) -> float:
    """Memory-stall cycles the other warps' issue slots cannot cover,
    summed per barrier phase.

    All warps launch aligned, so within a stall window the other warps
    contribute only their *issue* slots (their own stalls coincide with
    ours), and barriers re-align a CTA's warps so slack does not carry
    across phases.
    """
    exposed = 0.0
    for instrs, alu, mem, _smem, _sfu in profile.phases:
        exposed += max(0.0, mem - (warps - 1) * instrs / schedulers)
    return exposed


def _cold_exposed(profile: WarpProfile, active: int,
                  schedulers: int) -> tuple[float, float]:
    """(phase-0 exposed cycles, phase-0 share of total memory stalls)
    for the VT cold-convoy rule: at t=0 the *active* warps issue their
    first misses launch-aligned — rotation has not built up yet."""
    instrs, _alu, mem, _smem, _sfu = profile.phases[0]
    exposed = max(0.0, mem - (active - 1) * instrs / schedulers)
    share = mem / profile.mem_stall if profile.mem_stall else 0.0
    return exposed, share


def _aligned_burst(profile: WarpProfile, schedulers: int) -> float:
    """Peak per-phase port pressure of a barrier-*aligned* phase train.

    Meaningful only when no long-latency load occurs after the first
    barrier: round trips re-stagger warps, but a miss-free phase train
    keeps every warp of the CTA aligned, so per-phase shared/SFU demand
    concentrates into a burst the port must serialize (backprop's
    post-tree sigmoid: every warp hits the SFU in the same short phase).
    Returns the worst ratio of port demand to phase issue time.
    """
    if not profile.barriers or profile.post_barrier_miss:
        return 0.0
    worst = 0.0
    for instrs, _alu, _mem, smem, sfu in profile.phases[1:]:
        if instrs:
            worst = max(worst, max(smem, sfu) * schedulers / instrs)
    return worst


def classify_idle(profile: WarpProfile, bounds: dict[str, float],
                  cfg: GPUConfig, warps: int,
                  active_warps: int | None = None) -> tuple[str, str]:
    """(idle class, deciding rule).  A decision cascade mirroring the
    simulator's dead-cycle mechanics (priority ``struct`` > ``alu`` >
    ``mem`` over *schedulable* warps — VT removes swapped-out CTAs from
    that scan); thresholds are calibrated against the simulator and
    locked by the ``repro predict --check`` gate.

    1. **Port serialization** — a pipeline (LD/ST transactions, SFU
       issue interval) demanding clearly more cycles than
       the issue/critical-path anchor keeps READY warps queued behind
       it: dead cycles have a ready warp (struct).
    2. **MSHR convoy** (VT only) — at launch the *active* warps issue
       their initial misses nearly simultaneously; when the distinct
       miss lines of that convoy fill the MSHR file, the spare CTAs VT
       swaps in park READY at the LD/ST port (struct).  At baseline the
       same convoy leaves no spare warp behind it to block.
    3. **SFU surfacing** (VT only) — with memory stalls swapped out of
       the scan set, a hot SFU pipeline (>= :data:`SFU_SURFACE` of the
       issue bound) queues ready warps at its issue interval (struct).
    4. **Exposed latency** — at baseline, per-phase memory stalls the
       other warps' issue slots cannot cover leave every schedulable
       warp mem-blocked (mem).  Under VT, rotation hides steady-state
       misses and only the launch-aligned *cold convoy* survives — it
       must both clear :data:`EXPOSED_COLD` and carry at least half the
       trace's memory stalls (a cold transient of a long run dissolves
       into rotation).
    5. **Aligned burst** — a miss-free barrier-phase train keeps warps
       aligned, so a phase whose shared/SFU demand exceeds its issue
       time serializes every CTA behind the port each round (struct).
    6. **DRAM bandwidth** — DRAM service demand far above the issue
       bound (>= :data:`DRAM_EXCESS`) inflates every miss with queueing
       delay; warps wait mem-blocked regardless of residency (mem).
    7. **Residual** — hidden-latency steady state: any data-dependent
       short-stall mass across the active scan set makes dead cycles
       compute-class (the simulator calls a cycle ``alu`` if even one
       scanned warp is short-blocked); otherwise the residue is the
       cold-start miss (mem).
    """
    active = active_warps if active_warps is not None else warps
    schedulers = max(1, cfg.num_warp_schedulers)
    issue = bounds["issue"]
    anchor = max(issue, bounds["chain"])
    vt_rotation = warps > active

    # Each rule's comment names the X4 cells (kernel/arch) the gate fails
    # on when that rule alone is removed.
    # port:ldst -- btree and spmv, both archs.  port:sfu -- mriq/baseline.
    for port in ("ldst", "sfu"):
        if bounds[port] >= PORT_MARGIN * anchor:
            return "struct", f"port:{port}"

    if vt_rotation:
        # reduction/vt, saxpy/vt.
        if active * profile.inflight >= cfg.l1_mshrs:
            return "struct", "mshr-convoy"
        # srad/vt, nn/vt.
        if bounds["sfu"] >= SFU_SURFACE * issue:
            return "struct", "sfu-queue"
        # scan/vt.
        cold, share = _cold_exposed(profile, active, schedulers)
        if cold >= EXPOSED_COLD and share >= 0.5:
            return "mem", "cold-convoy"
    else:
        # chase, kmeans, scan and reduction, all baseline.
        if _exposed_mem(profile, warps, schedulers) > EXPOSED_MIN:
            return "mem", "exposed-latency"

    # backprop, both archs.
    if _aligned_burst(profile, schedulers) >= 1.0:
        return "struct", "aligned-burst"

    # No X4 cell, but 12 of the 400 oracle cells of fuzz seeds 0-199:
    # without it the vt cells of seeds 15, 123 and 171 predict alu where
    # the simulator measures mem.
    if bounds["dram"] >= DRAM_EXCESS * issue:
        return "mem", "dram-bandwidth"

    # bfs/baseline, pathfinder/vt, histogram/vt.
    if profile.alu_taint * active >= ALU_RESIDUAL * max(float(profile.cold_lat), 1.0):
        return "alu", "dependence-residual"
    return "mem", "cold-start"


def vt_tier(occ: OccupancyResult, baseline_idle: str, busy: float) -> str:
    """Predicted VT-benefit tier from headroom and the baseline bottleneck.

    VT pays off when extra resident CTAs exist (capacity headroom beyond
    the scheduling limit) *and* the baseline actually idles on memory
    latency those CTAs could hide.
    """
    headroom = occ.vt_headroom
    if headroom <= 1.0 or baseline_idle != "mem":
        return "neutral"
    if headroom >= 2.0 and busy < 0.55:
        return "high"
    return "moderate"


def predict(kernel, cfg: GPUConfig | None = None, arch: str = "baseline",
            *, layout: KernelLayout | None = None) -> PerfPrediction:
    """Static performance prediction for ``kernel`` under ``arch``."""
    cfg = cfg or GPUConfig()
    occ = occupancy(kernel, cfg)
    profile = warp_profile(kernel, cfg, layout)
    warps = _effective_warps(occ, cfg, arch)
    active = _effective_warps(occ, cfg, "baseline")
    bounds = throughput_bounds(profile, cfg, warps)
    idle, binding = classify_idle(profile, bounds, cfg, warps, active)
    total = max(bounds.values())
    busy = min(1.0, bounds["issue"] / total) if total else 1.0

    if arch == "baseline":
        base_idle, base_busy = idle, busy
    else:
        base_bounds = throughput_bounds(profile, cfg, active)
        base_idle, _ = classify_idle(profile, base_bounds, cfg, active, active)
        base_total = max(base_bounds.values())
        base_busy = (min(1.0, base_bounds["issue"] / base_total)
                     if base_total else 1.0)
    tier = vt_tier(occ, base_idle, base_busy)

    return PerfPrediction(
        kernel=kernel.name, arch=arch, limiter=occ.limiter.value,
        idle_class=idle, vt_tier=tier, warps=warps, active_warps=active,
        busy=busy, bounds=bounds, binding=binding, profile=profile,
        occupancy=occ)


def predict_kernel(kernel, cfg: GPUConfig | None = None,
                   archs: tuple[str, ...] = ("baseline", "vt"),
                   layout: KernelLayout | None = None) -> list[PerfPrediction]:
    """Predictions for one kernel across ``archs`` (one shared profile:
    :func:`warp_profile` is computed once per kernel and key)."""
    return [predict(kernel, cfg, arch, layout=layout) for arch in archs]


# -- agreement gate ----------------------------------------------------------

#: Tie tolerance of the ``repro predict --check`` gate: the predicted
#: idle class also agrees when its measured cycle fraction reaches this
#: share of the dominant class's.  Several kernels sit on genuine
#: near-ties (srad's alu/mem split, nw's struct/mem split) where the
#: 3-class argmax is measurement noise, not model error; anything below
#: this ratio is a real disagreement and fails the gate.
AGREEMENT_TIE = 0.65

#: Most registry cells the gate lets agree *only* through
#: :data:`AGREEMENT_TIE` (predicted class != dominant measured class).
#: More than this means the model drifted even if no cell disagrees.
MAX_TIE_CELLS = 7

#: Measured VT-benefit tier cut points (baseline/VT cycle ratio).
TIER_HIGH = 1.30
TIER_MODERATE = 1.05


def measured_idle_class(breakdown: dict) -> str:
    """Dominant simulated idle class among the model's three classes
    (``barrier``/``swap``/``empty`` idle is outside the prediction)."""
    return max(IDLE_CLASSES, key=lambda k: breakdown.get(k, 0.0))


def idle_agreement(predicted: str, breakdown: dict,
                   tie: float = AGREEMENT_TIE) -> tuple[bool, str, float]:
    """(agrees, dominant class, predicted/dominant fraction ratio)."""
    dom = measured_idle_class(breakdown)
    top = breakdown.get(dom, 0.0)
    ratio = breakdown.get(predicted, 0.0) / top if top else 1.0
    return predicted == dom or ratio >= tie, dom, ratio


def measured_vt_tier(baseline_cycles: int, vt_cycles: int) -> str:
    """Measured VT-benefit tier from the simulated cycle ratio."""
    ratio = baseline_cycles / max(1, vt_cycles)
    if ratio >= TIER_HIGH:
        return "high"
    if ratio >= TIER_MODERATE:
        return "moderate"
    return "neutral"
