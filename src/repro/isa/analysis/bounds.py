"""Sound static [lo, hi] total-cycle bounds per kernel x config x mode.

The performance oracle (:mod:`repro.isa.analysis.perf`) predicts
*qualitative* classes — limiter, idle kind, VT tier.  This module derives
a *quantitative* counterpart: a closed interval that the simulator's
total cycle count provably falls into, for every kernel, GPU config, and
scheduling mode (baseline / Virtual Thread).  The `repro bound --check`
CI gate validates every interval against the simulator.

Construction, in three layers:

**Trip bounds.**  Every backward branch gets a ``[lo, hi]`` iteration
interval from one of four resolvers: the *additive* counted-loop idiom
(counter += step vs. an immediate/parameter/interval bound, evaluated
over the interval-affine domain of :mod:`.interval`, so divergent bounds
like ``trips + (tid & 3)`` resolve to an interval); the *geometric*
idiom (counter <<= k / >>= k, iterated concretely); the *bracket
halving* idiom (binary search: ``while hi - lo > 0`` with
``mid = (lo + hi) >> 1``, ``lo = mid + 1`` / ``hi = mid``, whose width
recurrence ``w -> [ceil(w/2) - 1, floor(w/2)]`` is iterated exactly);
and declared *workload caps* for loops whose bound is loaded from memory
but is bounded by the workload generator's construction (bfs row degrees
``<= 2 * avg_degree``, spmv row population ``in [1, 2 * avg_nnz]`` — see
``repro.workloads.graphs`` / ``matrices``).  The performance oracle
takes its trip counts from the same :func:`loop_trips` table (the ``hi``
end), so the repository has one counted-loop recognizer.

**Path bounds.**  A forward-only DAG over the kernel (back edges cut)
gives, by big-integer path counting, the *unavoidable* instructions (on
every entry-to-exit path) and the *reachable* ones.  Minimum dynamic
counts multiply unavoidable instructions by the product of enclosing
loops' ``trips.lo``; maximum counts multiply every reachable instruction
by ``trips.hi`` — an over-approximation that also covers divergence,
since a warp serializing an if/else pays for both sides.  Per-access
transaction/bank-pass costs come from :mod:`.memaccess` (interval-
tightened), predicated accesses contribute zero to minimum counts (a
fully predicated-off memory op occupies only its issue slot).

**Cycle bounds.**  The lower bound is the max of throughput floors that
mirror ``sim/smcore.py``'s structural ports — issue (one instruction per
scheduler per cycle), LD/ST (one transaction per SM per cycle), shared
memory (one bank pass per SM per cycle), SFU (one op per
``sfu_issue_interval``) — and a per-warp dependence-chain floor: CTA
launch latency less one plus, for each unavoidable basic block, its
earliest in-order issue schedule under best-case latencies (L1 hit for
global loads, ``lat_smem`` for shared, per-class ALU latencies), which
no in-order warp can beat.  The upper bound is a bucket sum: every cycle of
the makespan either issues an instruction somewhere (at most the total
maximum issue slots), or every resident warp is blocked on something
whose total supply is itself bounded — an outstanding latency window, a
busy LD/ST / shared / SFU port, a busy memory server (work-conserving:
links, L2 port, DRAM), a VT swap in flight, a barrier release, or CTA
dispatch.  Summing those supplies is loose (reported as the per-cell
``tightness`` ratio ``hi / lo``) but *sound*; the CI gate checks
``lo <= simulated cycles <= hi`` over the whole registry x config x mode
matrix and the fuzz corpus.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.isa.analysis.context import cfg_of, fact, params_key
from repro.isa.analysis.interval import _ZERO_IVAL, IVal, interval_solution
from repro.isa.analysis.memaccess import access_costs
from repro.isa.instruction import Imm, MemRef, Reg
from repro.isa.kernel import WARP_SIZE as WARP
from repro.isa.opcodes import Op, OpClass
from repro.sim.config import GPUConfig


#: Iteration cap for the concrete geometric / bracket-halving recurrences.
_RECURRENCE_CAP = 200

#: Expansion cap for the per-block chain floor (block executions).
_CHAIN_CAP = 1 << 20


class UnboundedLoop(ValueError):
    """A backward branch no resolver could bound (hi would be unsound)."""


class IrregularControlFlow(ValueError):
    """Loop regions are not properly nested single-back-edge intervals."""


# -- workload-construction trip caps ----------------------------------------

#: Kernel-name -> (lo, hi, why) applied to backward branches whose bound
#: is loaded from memory.  Sound because the workload *generators*
#: construct the loaded values inside these ranges; the caps live next to
#: the trip resolvers so the justification is auditable in one place.
DATA_TRIP_CAPS: dict[str, tuple[int, int, str]] = {
    # graphs.random_csr_graph: degree ~ integers(0, 2*avg_degree+1),
    # avg_degree=6 -> row degree <= 12; the loop is guarded by
    # row_start < row_end, so when entered it runs [1, 12] times.
    "bfs": (1, 12, "csr degree <= 2*avg_degree = 12 by construction"),
    # matrices.random_csr_matrix: nnz/row ~ integers(1, 2*avg+1), avg=8.
    "spmv": (1, 16, "csr row population in [1, 2*avg_nnz] = [1, 16]"),
}


@dataclass(frozen=True)
class TripBound:
    """Iteration bounds for one backward branch."""

    pc: int
    lo: int
    hi: int
    exact: bool
    source: str  # "additive" | "geometric" | "bracket" | "workload-cap"

    def to_dict(self) -> dict:
        return {"pc": self.pc, "lo": self.lo, "hi": self.hi,
                "exact": self.exact, "source": self.source}


def _value_interval(ival: IVal, kernel, param_values):
    return ival.interval(kernel.cta_dim, param_values)


def _entry_value(kernel, analysis, ienvs, reg: int, before_pc: int):
    """Interval value of ``reg`` as the loop at ``before_pc`` is entered.

    ``ienvs[target]`` merges the back edge, so instead evaluate the last
    unpredicated definition before the loop; no definition means the
    register still holds its implicit zero.
    """
    last = None
    for pc in range(before_pc):
        instr = kernel.instrs[pc]
        if instr.dst is not None and instr.dst.idx == reg:
            last = pc
    if last is None:
        return _ZERO_IVAL  # registers start zeroed
    instr = kernel.instrs[last]
    if instr.pred is not None or ienvs[last] is None:
        return None
    env = analysis.transfer(last, instr, ienvs[last])
    return env.get(reg)


def _cmp_for_branch(setp, branch) -> str:
    cmp = setp.cmp.value if setp.cmp is not None else ""
    if branch.pred_neg:  # @!p BRA: loops while the comparison is false
        cmp = {"lt": "ge", "le": "gt", "gt": "le", "ge": "lt",
               "eq": "ne", "ne": "eq"}.get(cmp, "")
    return cmp


def _find_setp(kernel, bpc):
    branch = kernel.instrs[bpc]
    if branch.pred is None:
        return None
    for pc in range(bpc, branch.target - 1, -1):
        instr = kernel.instrs[pc]
        if (instr.op is Op.SETP and instr.dst is not None
                and instr.dst.idx == branch.pred.idx):
            return pc
    return None


def _additive_trips(kernel, analysis, ienvs, param_values, bpc, setp_pc):
    """Counted loop: counter += const step, compared against a bound."""
    instrs = kernel.instrs
    setp = instrs[setp_pc]
    if len(setp.srcs) != 2 or not isinstance(setp.srcs[0], Reg):
        return None
    counter = setp.srcs[0].idx
    target = instrs[bpc].target
    step = 0
    for pc in range(target, bpc + 1):
        instr = instrs[pc]
        if instr.dst is None or instr.dst.idx != counter:
            continue
        if (instr.op is Op.IADD and instr.pred is None
                and isinstance(instr.srcs[0], Reg)
                and instr.srcs[0].idx == counter
                and isinstance(instr.srcs[1], Imm)):
            step += int(instr.srcs[1].value)
        else:
            return None  # some other def: not a clean counted loop
    if step == 0:
        return None
    rhs = setp.srcs[1]
    if isinstance(rhs, Imm):
        bound_lo = bound_hi = float(rhs.value)
    elif isinstance(rhs, Reg) and ienvs[setp_pc] is not None:
        span = _value_interval(ienvs[setp_pc].get(rhs.idx), kernel, param_values)
        if span is None:
            return None
        bound_lo, bound_hi = span
    else:
        return None
    init = _entry_value(kernel, analysis, ienvs, counter, target)
    if init is None:
        return None
    init_span = _value_interval(init, kernel, param_values)
    if init_span is None:
        return None
    init_lo, init_hi = init_span
    cmp = _cmp_for_branch(setp, instrs[bpc])
    # Normalize to "loop while counter < bound" with a positive step.
    if cmp == "le":
        cmp, bound_lo, bound_hi = "lt", bound_lo + 1, bound_hi + 1
    elif cmp == "ge":
        cmp, bound_lo, bound_hi = "gt", bound_lo - 1, bound_hi - 1
    if cmp == "gt":
        cmp = "lt"
        step = -step
        init_lo, init_hi = -init_hi, -init_lo
        bound_lo, bound_hi = -bound_hi, -bound_lo
    if cmp != "lt" or step <= 0:
        return None
    hi_span = bound_hi - init_lo
    lo_span = bound_lo - init_hi
    trips_hi = max(1, math.ceil(hi_span / step))
    trips_lo = max(1, math.ceil(lo_span / step))
    lo, hi = min(trips_lo, trips_hi), max(trips_lo, trips_hi)
    return TripBound(bpc, lo, hi, lo == hi, "additive")


def _geometric_trips(kernel, analysis, ienvs, param_values, bpc, setp_pc):
    """Geometric loop: counter <<= k or >>= k against a known bound."""
    instrs = kernel.instrs
    setp = instrs[setp_pc]
    if len(setp.srcs) != 2 or not isinstance(setp.srcs[0], Reg):
        return None
    counter = setp.srcs[0].idx
    target = instrs[bpc].target
    update = None
    for pc in range(target, bpc + 1):
        instr = instrs[pc]
        if instr.dst is None or instr.dst.idx != counter:
            continue
        if (instr.op in (Op.SHL, Op.SHR) and instr.pred is None
                and update is None
                and isinstance(instr.srcs[0], Reg)
                and instr.srcs[0].idx == counter
                and isinstance(instr.srcs[1], Imm)
                and int(instr.srcs[1].value) > 0):
            update = (instr.op, int(instr.srcs[1].value))
        else:
            return None
    if update is None:
        return None
    rhs = setp.srcs[1]
    if isinstance(rhs, Imm):
        bound_lo = bound_hi = float(rhs.value)
    elif isinstance(rhs, Reg) and ienvs[setp_pc] is not None:
        span = _value_interval(ienvs[setp_pc].get(rhs.idx), kernel, param_values)
        if span is None:
            return None
        bound_lo, bound_hi = span
    else:
        return None
    init = _entry_value(kernel, analysis, ienvs, counter, target)
    if init is None:
        return None
    init_span = _value_interval(init, kernel, param_values)
    if init_span is None:
        return None
    cmp = _cmp_for_branch(setp, instrs[bpc])
    if cmp not in ("lt", "le", "gt", "ge"):
        return None
    op, k = update

    def simulate(start: float, bound: float) -> int | None:
        w = int(start)
        trips = 0
        while trips <= _RECURRENCE_CAP:
            trips += 1
            w = (w << k) if op is Op.SHL else (w >> k)
            keep = {"lt": w < bound, "le": w <= bound,
                    "gt": w > bound, "ge": w >= bound}[cmp]
            if not keep:
                return trips
        return None  # no concrete progress within the cap

    # Trip count is monotone in (init, bound); evaluate all four corners.
    corners = []
    for start in (init_span[0], init_span[1]):
        for bound in (bound_lo, bound_hi):
            t = simulate(start, bound)
            if t is None:
                return None
            corners.append(t)
    lo, hi = min(corners), max(corners)
    return TripBound(bpc, lo, hi, lo == hi, "geometric")


def _bracket_trips(kernel, analysis, ienvs, param_values, bpc, setp_pc):
    """Binary-search bracket: ``while hi - lo > 0`` with halving updates.

    Requires every in-body update of the bracket to shrink it: the lower
    end only moves to ``mid + 1`` and the upper end only to ``mid``, with
    ``mid = (lo + hi) >> 1``.  The width then follows
    ``w -> [ceil(w/2) - 1, floor(w/2)]``, iterated concretely.
    """
    instrs = kernel.instrs
    setp = instrs[setp_pc]
    cmp = _cmp_for_branch(setp, instrs[bpc])
    if len(setp.srcs) != 2 or not isinstance(setp.srcs[0], Reg):
        return None
    if not (cmp == "gt" and isinstance(setp.srcs[1], Imm)
            and int(setp.srcs[1].value) == 0):
        return None
    width = setp.srcs[0].idx
    target = instrs[bpc].target
    body = range(target, bpc + 1)
    sub = next((instrs[pc] for pc in body
                if instrs[pc].op is Op.ISUB and instrs[pc].dst is not None
                and instrs[pc].dst.idx == width and instrs[pc].pred is None
                and all(isinstance(s, Reg) for s in instrs[pc].srcs)), None)
    if sub is None:
        return None
    r_hi, r_lo = sub.srcs[0].idx, sub.srcs[1].idx
    # mid = (lo + hi) >> 1, recomputed inside the body.
    mid = None
    for pc in body:
        instr = instrs[pc]
        if (instr.op is Op.SHR and instr.dst is not None and instr.pred is None
                and isinstance(instr.srcs[0], Reg)
                and isinstance(instr.srcs[1], Imm)
                and int(instr.srcs[1].value) == 1):
            src = instr.srcs[0].idx
            for qc in body:
                q = instrs[qc]
                if (q.op is Op.IADD and q.dst is not None
                        and q.dst.idx == src and q.pred is None
                        and all(isinstance(s, Reg) for s in q.srcs)
                        and {q.srcs[0].idx, q.srcs[1].idx} == {r_lo, r_hi}):
                    mid = instr.dst.idx
    if mid is None:
        return None
    for pc in body:
        instr = instrs[pc]
        if instr.dst is None or instr.dst.idx not in (r_lo, r_hi):
            continue
        if instr.dst.idx == r_lo:
            ok = (instr.op is Op.IADD and isinstance(instr.srcs[0], Reg)
                  and instr.srcs[0].idx == mid
                  and isinstance(instr.srcs[1], Imm)
                  and int(instr.srcs[1].value) == 1)
        else:
            ok = (instr.op is Op.MOV and isinstance(instr.srcs[0], Reg)
                  and instr.srcs[0].idx == mid)
        if not ok:
            return None
    lo_val = _entry_value(kernel, analysis, ienvs, r_lo, target)
    hi_val = _entry_value(kernel, analysis, ienvs, r_hi, target)
    if lo_val is None or hi_val is None:
        return None
    lo_span = _value_interval(lo_val, kernel, param_values)
    hi_span = _value_interval(hi_val, kernel, param_values)
    if lo_span is None or hi_span is None:
        return None
    w_lo = int(hi_span[0] - lo_span[1])
    w_hi = int(hi_span[1] - lo_span[0])

    def iters(w: int, shrink) -> int | None:
        trips = 0
        while w > 0 and trips <= _RECURRENCE_CAP:
            trips += 1
            w = shrink(w)
        return max(1, trips) if trips <= _RECURRENCE_CAP else None

    t_hi = iters(w_hi, lambda w: w // 2)  # slowest shrink
    t_lo = iters(w_lo, lambda w: -(-w // 2) - 1)  # fastest shrink
    if t_hi is None or t_lo is None:
        return None
    return TripBound(bpc, min(t_lo, t_hi), max(t_lo, t_hi),
                     t_lo == t_hi, "bracket")


def back_edges(kernel) -> list[int]:
    """PCs of every backward branch, in program order."""
    return [pc for pc, instr in enumerate(kernel.instrs)
            if instr.is_branch and instr.target is not None
            and instr.target <= pc]


def loop_trips(kernel, param_values=None) -> dict[int, TripBound | None]:
    """``branch pc -> TripBound`` for every backward branch, ``None`` where
    no resolver (nor a declared workload cap) bounds the loop.  Computed
    once per kernel and parameter values; the performance oracle reads
    the same table."""
    return fact(kernel, ("trips", params_key(param_values)), _trip_table,
                kernel, param_values)


def _trip_table(kernel, param_values) -> dict[int, TripBound | None]:
    analysis, ienvs = interval_solution(kernel)
    return {bpc: _trip_bound(kernel, analysis, ienvs, bpc, param_values)
            for bpc in back_edges(kernel)}


def _trip_bound(kernel, analysis, ienvs, bpc: int,
                param_values=None) -> TripBound | None:
    setp_pc = _find_setp(kernel, bpc)
    if setp_pc is not None:
        for resolver in (_additive_trips, _geometric_trips, _bracket_trips):
            bound = resolver(kernel, analysis, ienvs, param_values or {},
                             bpc, setp_pc)
            if bound is not None:
                return bound
    cap = DATA_TRIP_CAPS.get(kernel.name)
    if cap is None:
        return None
    lo, hi, _why = cap
    return TripBound(bpc, lo, hi, lo == hi, "workload-cap")


def trip_bounds(kernel, param_values=None) -> dict[int, TripBound]:
    """``branch pc -> TripBound`` for every backward branch.

    Raises :class:`UnboundedLoop` when no resolver (nor a declared
    workload cap) bounds a loop — an unsound upper bound is never
    silently produced.
    """
    trips = loop_trips(kernel, param_values)
    for bpc, bound in trips.items():
        if bound is None:
            raise UnboundedLoop(
                f"{kernel.name}: backward branch at pc {bpc} has no resolvable "
                f"trip bound (and no workload cap is declared)")
    return trips


# -- control-flow structure --------------------------------------------------


def _loops(kernel) -> list[tuple[int, int]]:
    """All ``(target, branch_pc)`` loop regions, properly nested (once per
    kernel; irregular control flow raises on every call)."""
    return fact(kernel, "loops", _nested_loops, kernel)


def _nested_loops(kernel) -> list[tuple[int, int]]:
    loops = [(kernel.instrs[pc].target, pc) for pc in back_edges(kernel)]
    for a_t, a_b in loops:
        for b_t, b_b in loops:
            if (a_t, a_b) == (b_t, b_b):
                continue
            disjoint = a_b < b_t or b_b < a_t
            nested = (b_t <= a_t and a_b <= b_b) or (a_t <= b_t and b_b <= a_b)
            if not (disjoint or nested):
                raise IrregularControlFlow(
                    f"{kernel.name}: loops [{a_t},{a_b}] and [{b_t},{b_b}] "
                    f"overlap without nesting")
    # Forward branches must not jump into the middle of a loop body.
    for pc, i in enumerate(kernel.instrs):
        if i.is_branch and i.target is not None and i.target > pc:
            for t, b in loops:
                if t < i.target <= b and not (t <= pc <= b):
                    raise IrregularControlFlow(
                        f"{kernel.name}: branch at pc {pc} jumps into loop "
                        f"[{t},{b}]")
    return loops


def _successors(kernel, pc: int, n: int) -> list[int]:
    """Forward-DAG successors (back edges cut; ``n`` is the exit sink)."""
    instr = kernel.instrs[pc]
    if instr.is_exit:
        return [n]
    if instr.is_branch and instr.target is not None:
        if instr.target <= pc:  # back edge: only the loop-exit side
            return [pc + 1] if pc + 1 < n else [n]
        if instr.pred is None:
            return [instr.target]
        return [pc + 1, instr.target] if pc + 1 < n else [instr.target]
    return [pc + 1] if pc + 1 < n else [n]


def _path_sets(kernel) -> tuple[set[int], set[int]]:
    """``(reachable, unavoidable)`` PCs on the forward-only DAG (once per
    kernel)."""
    return fact(kernel, "paths", _count_paths, kernel)


def _count_paths(kernel) -> tuple[set[int], set[int]]:
    n = len(kernel.instrs)
    succs = {pc: _successors(kernel, pc, n) for pc in range(n)}
    paths_to = [0] * (n + 1)
    paths_to[0] = 1
    for pc in range(n):
        if paths_to[pc]:
            for s in succs[pc]:
                paths_to[s] += paths_to[pc]
    paths_from = [0] * (n + 1)
    paths_from[n] = 1
    for pc in range(n - 1, -1, -1):
        paths_from[pc] = sum(paths_from[s] for s in succs[pc])
    total = paths_to[n]
    reachable = {pc for pc in range(n) if paths_to[pc] and paths_from[pc]}
    unavoidable = {pc for pc in reachable
                   if paths_to[pc] * paths_from[pc] == total}
    return reachable, unavoidable


def _multiplicity(pc: int, loops, trips: dict[int, TripBound],
                  which: str) -> int:
    mult = 1
    for target, bpc in loops:
        if target <= pc <= bpc:
            t = trips[bpc]
            mult *= t.lo if which == "lo" else t.hi
    return mult


# -- dynamic counts ----------------------------------------------------------


@dataclass
class PathCounts:
    """Per-warp dynamic totals along the min or max path."""

    issue: int = 0  # issue slots
    tx: float = 0.0  # global-memory transactions (lines)
    loads: int = 0  # dynamic global loads + atomics (latency windows)
    atomics: int = 0
    smem_passes: float = 0.0
    smem_loads: int = 0
    sfu: int = 0
    barriers: int = 0
    windows: float = 0.0  # sum of worst-case latency windows (hi only)


def _load_window(cfg: GPUConfig, tx_hi: float) -> float:
    """Worst-case outstanding-latency window of one global load."""
    return (cfg.l1_hit_latency + 2 * cfg.icnt_latency + cfg.l2_hit_latency
            + cfg.l2_service_cycles + cfg.dram_latency
            + cfg.dram_service_cycles + tx_hi + 4)


def path_counts(kernel, cfg: GPUConfig, costs, trips, loops,
                reachable, unavoidable, which: str) -> PathCounts:
    out = PathCounts()
    pcs = reachable if which == "hi" else unavoidable
    for pc in sorted(pcs):
        instr = kernel.instrs[pc]
        mult = _multiplicity(pc, loops, trips, which)
        if mult == 0:
            continue
        out.issue += mult
        info = instr.info
        predicated = instr.pred is not None
        cost = costs.get(pc)
        if info.op_class is OpClass.MEM_GLOBAL:
            if which == "hi":
                tx = cost.hi if cost is not None else WARP
                out.tx += mult * tx
                if not info.is_store or info.is_atomic:
                    out.loads += mult
                    out.windows += mult * _load_window(cfg, tx)
                if info.is_atomic:
                    out.atomics += mult
            elif not predicated:
                out.tx += mult * (cost.full_lo if cost is not None else 1)
        elif info.op_class is OpClass.MEM_SHARED:
            if which == "hi":
                passes = cost.hi if cost is not None else WARP
                out.smem_passes += mult * passes
                if not info.is_store or info.is_atomic:
                    out.smem_loads += mult
                    out.windows += mult * (
                        cfg.lat_smem
                        + (passes - 1) * cfg.smem_bank_conflict_penalty)
            elif not predicated:
                out.smem_passes += mult * (
                    cost.full_lo if cost is not None else 1)
        elif info.op_class is OpClass.SFU:
            if which == "hi":
                out.sfu += mult
                out.windows += mult * cfg.lat_sfu
            elif not predicated:
                out.sfu += mult
        elif instr.op is Op.BAR:
            out.barriers += mult
        elif info.op_class is not OpClass.CTRL and instr.dst is not None:
            if which == "hi":
                out.windows += mult * cfg.latency_for(info.op_class)
    return out


# -- dependence-chain floor --------------------------------------------------


def _operand_regs(instr) -> list[int]:
    regs = []
    for s in instr.srcs:
        if isinstance(s, Reg):
            regs.append(s.idx)
        elif isinstance(s, MemRef):
            regs.append(s.base.idx)
    if instr.pred is not None:
        regs.append(instr.pred.idx)
    return regs


def _best_case_latency(cfg: GPUConfig, instr) -> int:
    info = instr.info
    if info.op_class is OpClass.MEM_GLOBAL:
        return cfg.l1_hit_latency
    if info.op_class is OpClass.MEM_SHARED:
        return cfg.lat_smem
    if info.op_class is OpClass.SFU:
        return cfg.lat_sfu
    if info.op_class is OpClass.CTRL:
        return 0
    return cfg.latency_for(info.op_class)


def _block_span(kernel, cfg: GPUConfig, costs, start: int, end: int) -> int:
    """Earliest in-order issue schedule of one straight-line block.

    Returns the span (cycles from the first to the last issue, inclusive)
    under best-case latencies and the per-SM structural ports; no
    in-order warp can execute the block faster.  Predicated instructions
    contribute an issue slot but no dependence constraints (a false
    predicate skips both read and write).
    """
    finish: dict[int, int] = {}
    prev = 0
    ldst_free = 0
    smem_free = 0
    sfu_free = 0
    for pc in range(start, end):
        instr = kernel.instrs[pc]
        info = instr.info
        t = prev + 1
        if instr.pred is None:
            for reg in _operand_regs(instr):
                t = max(t, finish.get(reg, 0))
        cost = costs.get(pc)
        if info.op_class is OpClass.MEM_GLOBAL:
            t = max(t, ldst_free)
            busy = 1 if instr.pred is not None else max(
                1, int(cost.full_lo) if cost is not None else 1)
            ldst_free = t + busy
        elif info.op_class is OpClass.MEM_SHARED:
            t = max(t, smem_free)
            busy = 1 if instr.pred is not None else max(
                1, int(cost.full_lo) if cost is not None else 1)
            smem_free = t + busy
        elif info.op_class is OpClass.SFU:
            t = max(t, sfu_free)
            sfu_free = t + cfg.sfu_issue_interval
        if instr.dst is not None:
            if instr.pred is None:
                finish[instr.dst.idx] = t + _best_case_latency(cfg, instr)
            else:
                finish.pop(instr.dst.idx, None)  # may or may not write
        prev = t
    return prev


def chain_floor(kernel, cfg: GPUConfig, costs, trips, loops,
                unavoidable) -> int:
    """Launch latency less one (the simulated count is the cycle of the
    last issue), every unavoidable block's minimum schedule, and each
    BAR's release delay beyond the in-order +1."""
    total = cfg.cta_launch_latency - 1
    bar_delay = max(0, cfg.barrier_release_latency - 1)
    expanded = 0
    for block in cfg_of(kernel).blocks:
        if block.start not in unavoidable:
            continue
        mult = _multiplicity(block.start, loops, trips, "lo")
        if mult == 0:
            continue
        expanded += mult
        if expanded > _CHAIN_CAP:
            break  # keep the floor cheap; what's summed so far is sound
        span = _block_span(kernel, cfg, costs, block.start, block.end)
        total += mult * span
        for pc in range(block.start, block.end):
            if kernel.instrs[pc].op is Op.BAR:
                total += mult * bar_delay
    return total


# -- assembled bounds --------------------------------------------------------


@dataclass(frozen=True)
class KernelBound:
    """Sound total-cycle interval for one kernel x config x mode cell."""

    kernel: str
    arch: str  # config label, e.g. "fermi-sm2"
    mode: str  # "baseline" | "vt"
    lo: int
    hi: int
    ctas: int
    warps: int
    floors: dict = field(default_factory=dict)  # lower-bound candidates
    buckets: dict = field(default_factory=dict)  # upper-bound terms
    trips: tuple = ()  # TripBound per backward branch

    @property
    def tightness(self) -> float:
        return self.hi / max(1, self.lo)

    def contains(self, cycles: int) -> bool:
        return self.lo <= cycles <= self.hi

    def to_dict(self) -> dict:
        return {
            "kernel": self.kernel,
            "arch": self.arch,
            "mode": self.mode,
            "lo": self.lo,
            "hi": self.hi,
            "tightness": round(self.tightness, 2),
            "ctas": self.ctas,
            "warps": self.warps,
            "floors": {k: int(v) for k, v in sorted(self.floors.items())},
            "buckets": {k: int(v) for k, v in sorted(self.buckets.items())},
            "trips": [t.to_dict() for t in self.trips],
        }


def kernel_bounds(kernel, cfg: GPUConfig, *, mode: str, ctas: int,
                  param_values: dict | None = None,
                  arch: str = "") -> KernelBound:
    """Derive the sound [lo, hi] cycle interval for one cell.

    ``ctas`` is the launched grid size (product of the grid dims);
    ``param_values`` maps integer parameter indices to launch values so
    parameter-valued loop bounds resolve.
    """
    if mode not in ("baseline", "vt"):
        raise ValueError(f"unknown mode {mode!r}")
    costs = {c.pc: c for c in access_costs(
        kernel, line_bytes=cfg.line_bytes, num_banks=cfg.shared_mem_banks,
        param_values=param_values)}
    trips = trip_bounds(kernel, param_values)
    loops = _loops(kernel)
    reachable, unavoidable = _path_sets(kernel)

    lo_counts = path_counts(kernel, cfg, costs, trips, loops,
                            reachable, unavoidable, "lo")
    hi_counts = path_counts(kernel, cfg, costs, trips, loops,
                            reachable, unavoidable, "hi")

    warps_per_cta = kernel.warps_per_cta()
    warps = ctas * warps_per_cta

    # -- lower bound: structural throughput floors + dependence chain.
    sms = max(1, min(cfg.num_sms, ctas))
    issue_lanes = max(1, min(cfg.num_sms * cfg.num_warp_schedulers, warps))
    floors = {
        "issue": -(-lo_counts.issue * warps // issue_lanes),
        "ldst-port": -(-int(lo_counts.tx * warps) // sms),
        "smem-port": -(-int(lo_counts.smem_passes * warps) // sms),
        "chain": chain_floor(kernel, cfg, costs, trips, loops, unavoidable),
    }
    if lo_counts.sfu:
        per_sm = -(-lo_counts.sfu * warps // sms)
        floors["sfu-port"] = (per_sm - 1) * cfg.sfu_issue_interval + 1
    lo = max(1, *floors.values())

    # -- upper bound: bucket sum (see the module docstring).
    save, restore = cfg.vt_swap_cycles_for(warps_per_cta)
    buckets = {
        "issue": hi_counts.issue * warps,
        "latency-windows": hi_counts.windows * warps,
        "memory-server": (hi_counts.tx + hi_counts.atomics) * warps
        * (2 + cfg.l2_service_cycles + cfg.dram_service_cycles),
        "ldst-port": hi_counts.tx * warps,
        "smem-port": hi_counts.smem_passes * warps,
        "sfu-port": hi_counts.sfu * warps * cfg.sfu_issue_interval,
        "launch": ctas * (cfg.cta_launch_latency + 1),
        # One release per CTA per dynamic barrier on the (per-warp) path.
        "barrier": hi_counts.barriers * ctas
        * (cfg.barrier_release_latency + 2),
    }
    if mode == "vt":
        events = hi_counts.loads * warps + ctas
        buckets["vt-swap"] = events * (save + restore)
    hi = int(math.ceil(sum(buckets.values())))
    hi = max(hi, lo)

    return KernelBound(
        kernel=kernel.name, arch=arch, mode=mode, lo=int(lo), hi=hi,
        ctas=ctas, warps=warps, floors=floors, buckets=buckets,
        trips=tuple(sorted(trips.values(), key=lambda t: t.pc)),
    )


def bench_bounds(bench, cfg: GPUConfig, *, mode: str, scale: float = 1.0,
                 arch: str = "") -> KernelBound:
    """Bounds for a registry benchmark at ``scale`` (resolves its layout)."""
    from repro.isa.analysis.perf import layout_for

    layout = layout_for(bench, scale)
    ctas = max(1, layout.total_threads // max(1, bench.kernel.threads_per_cta))
    return kernel_bounds(bench.kernel, cfg, mode=mode, ctas=ctas,
                         param_values=layout.param_values, arch=arch)


#: The three gate configurations ("arches") the CI soundness gate runs.
def gate_configs(num_sms: int | None = None):
    """Label -> GPUConfig for the bound gate's three architectures."""
    from repro.sim.config import scaled_fermi, scaled_kepler

    if num_sms is not None:
        return {f"fermi-sm{num_sms}": scaled_fermi(num_sms=num_sms)}
    return {
        "fermi-sm2": scaled_fermi(num_sms=2),
        "kepler-sm2": scaled_kepler(num_sms=2),
        "fermi-sm1": scaled_fermi(num_sms=1),
    }
