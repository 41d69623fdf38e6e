"""Static memory-access cost analysis: coalescing and bank conflicts.

For every reachable LD/ST/atomic the affine pass gives a symbolic byte
address ``const + Σ cᵢ·tidᵢ + Σ uniformⱼ (+ unknown uniform)``.  This
module turns that form into *bounds on the runtime cost* of one issued
warp access, mirroring the timing model's rules exactly
(:mod:`repro.sim.ldst`):

* **global** — the number of ``line_bytes``-aligned segments the active
  lanes touch (transactions; each occupies the LD/ST port one cycle);
* **shared** — the maximum per-bank multiplicity over unique words
  (serialized passes).

The lane addresses of warp ``w`` are reconstructed from the same
``linear = w·32 + lane`` thread mapping the simulator uses
(:func:`repro.sim.cta.special_regs`), so for a fully analyzable
address the static per-warp cost is *exact*.  Two symbolic complications
are handled without giving up:

* **Unknown uniform base** (parameter pointers, ``ctaid`` terms,
  loop-carried ``fuzzy`` offsets): all lanes shift together.  Bank
  conflicts are *invariant* under a word-aligned uniform shift — adding
  the same word offset to every lane rotates the bank assignment but
  preserves the multiplicity histogram — so passes stay exact.
  Coalescing is not invariant (a shift can straddle one more line), so
  the transaction count is swept over every word-aligned offset within a
  line, yielding tight ``(lo, hi)`` bounds.
* **Unanalyzable addresses** (data-dependent gathers, TOP): the access
  is *never silently assumed coalesced* — it reports the conservative
  bounds ``1 .. active lanes`` (a warp access is at least one
  transaction and at most one per lane).

Predicated or divergence-masked accesses can execute with any non-empty
lane subset; a subset touches at most the full mask's segments, so the
upper bound stands and only the lower bound widens to 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.analysis.affine import Affine, affine_solution, is_top
from repro.isa.analysis.context import cfg_of, fact, params_key
from repro.isa.analysis.interval import interval_solution
from repro.isa.analysis.unroll import unrolled_trace
from repro.isa.kernel import WARP_SIZE as WARP
from repro.sim.ldst import bank_conflict_passes, coalesce

WORD = 4


@dataclass(frozen=True)
class AccessCost:
    """Static cost bounds for one memory-access site (one PC).

    ``lo``/``hi`` bound the runtime cost of *any* issued access at this
    PC (any warp, any non-empty active mask) — the sanitizer's runtime
    cross-check contract.  ``full_lo``/``full_hi`` bound the cost under a
    full (undiverged, unpredicated) active mask — what the performance
    model uses as the expected per-access cost.  ``exact`` means
    ``full_lo == full_hi`` and every warp of the CTA agrees.
    """

    pc: int
    space: str  # "global" | "shared"
    kind: str  # "load" | "store" | "atomic"
    lo: int
    hi: int
    full_lo: int
    full_hi: int
    analyzable: bool  # False: TOP/unknown per-lane structure
    exact: bool
    predicated: bool
    #: How the bounds were established: "affine" (fixpoint form, a
    #: tid-partitioned stream), "unroll" (exact per-occurrence addresses
    #: from the bounded uniform unroll), "interval" (value-set width
    #: only), or "unanalyzable" (conservative 1..lanes).
    source: str = "affine"

    @property
    def expected(self) -> float:
        """Model's point estimate of the per-access cost."""
        return (self.full_lo + self.full_hi) / 2.0


def _warp_lane_tids(cta_dim, warp_index: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-lane (tid_x, tid_y, tid_z) of one warp — the simulator's mapping."""
    nx, ny, _nz = cta_dim
    lanes = np.arange(WARP, dtype=np.int64)
    linear = warp_index * WARP + lanes
    return linear % nx, (linear // nx) % ny, linear // (nx * ny)


def _relative_lane_addresses(address: Affine, cta_dim) -> list[np.ndarray]:
    """Per-warp arrays of lane byte addresses *relative to the uniform
    part* (which shifts all lanes equally), live lanes only."""
    threads = cta_dim[0] * cta_dim[1] * cta_dim[2]
    num_warps = -(-threads // WARP)
    coefs = dict(address.tid)
    out = []
    for w in range(num_warps):
        tx, ty, tz = _warp_lane_tids(cta_dim, w)
        live = min(WARP, threads - w * WARP)
        rel = np.full(WARP, float(address.const))
        rel += coefs.get("tid_x", 0) * tx
        rel += coefs.get("tid_y", 0) * ty
        rel += coefs.get("tid_z", 0) * tz
        out.append(rel[:live].astype(np.int64))
    return out


def _global_cost(rel_warps, line_bytes: int, shifted: bool) -> tuple[int, int]:
    """(lo, hi) transactions over all warps; with an unknown word-aligned
    uniform base (``shifted``) each warp is swept over every word offset
    within a line."""
    offsets = range(0, line_bytes, WORD) if shifted else (0,)
    lo = hi = None
    for rel in rel_warps:
        for off in offsets:
            count = len(coalesce(rel + off, line_bytes))
            lo = count if lo is None else min(lo, count)
            hi = count if hi is None else max(hi, count)
    return int(lo), int(hi)


def _shared_cost(rel_warps, num_banks: int) -> tuple[int, int]:
    """(lo, hi) bank passes over all warps.  A word-aligned uniform shift
    rotates the bank mapping without changing any multiplicity, so no
    offset sweep is needed — the count is exact per warp."""
    lo = hi = None
    for rel in rel_warps:
        passes = bank_conflict_passes(rel, num_banks)
        lo = passes if lo is None else min(lo, passes)
        hi = passes if hi is None else max(hi, passes)
    return int(lo), int(hi)


def _kind(instr) -> str:
    if instr.info.is_atomic:
        return "atomic"
    return "store" if instr.is_store else "load"


def _unanalyzable(pc, space, kind, max_lanes, predicated) -> AccessCost:
    # Never silently coalesced: one transaction per lane in the worst case.
    return AccessCost(pc=pc, space=space, kind=kind, lo=1, hi=max_lanes,
                      full_lo=1, full_hi=max_lanes, analyzable=False,
                      exact=False, predicated=predicated,
                      source="unanalyzable")


def _occurrence_cost(kernel, pc, occurrences, space, kind, max_lanes,
                     predicated, line_bytes, num_banks) -> AccessCost | None:
    """Exact cost bounds from the bounded uniform unroll.

    When the whole kernel executes as one concrete uniform trace
    (:func:`repro.isa.analysis.unroll.unrolled_trace`), a loop-carried
    address the fixpoint widened to TOP has an exact affine form at every
    dynamic occurrence; the per-access cost bounds are then the min/max
    over the occurrences actually executed.  Any unanalyzable occurrence
    (TOP address, non-word-aligned lane spread) falls back to the caller's
    conservative path.
    """
    if not occurrences:
        return None  # site never executes in the trace: nothing to bound
    full_lo = full_hi = None
    divergent = predicated
    for occ in occurrences:
        address = occ.address
        if is_top(address):
            return None
        rel_warps = _relative_lane_addresses(address, kernel.cta_dim)
        base = rel_warps[0][0] if rel_warps and len(rel_warps[0]) else 0
        if any(((rel - base) % WORD).any() for rel in rel_warps):
            return None
        shifted = bool(address.uni) or address.fuzzy
        if space == "global":
            lo, hi = _global_cost(rel_warps, line_bytes, shifted)
        else:
            lo, hi = _shared_cost(rel_warps, num_banks)
        full_lo = lo if full_lo is None else min(full_lo, lo)
        full_hi = hi if full_hi is None else max(full_hi, hi)
        divergent = divergent or occ.predicated
    exact = full_lo == full_hi and not divergent
    return AccessCost(pc=pc, space=space, kind=kind,
                      lo=1 if divergent else full_lo, hi=full_hi,
                      full_lo=full_lo, full_hi=full_hi, analyzable=True,
                      exact=exact, predicated=predicated, source="unroll")


def _interval_cost(kernel, pc, instr, intervals, space, kind, max_lanes,
                   predicated, line_bytes, num_banks) -> AccessCost | None:
    """Tightened worst-case cost for a non-affine but *bounded* address.

    The interval pass (:mod:`repro.isa.analysis.interval`) splits the
    address into an affine base plus a residual interval of width ``w``.
    Every lane's address then lives in a window of
    ``(base lane spread) + w + WORD`` bytes whose alignment is unknown, so
    the access can touch at most ``(L - 1) // line + 2`` cache lines (a
    window of length ``L`` straddles one extra line in the worst case) and
    at most ``ceil(words_in_window / num_banks)`` same-bank shared words.
    The lower bound stays 1: a value-set says nothing about how *few*
    distinct lines the lanes hit.
    """
    ianalysis, ienvs = intervals
    env = ienvs[pc]
    if env is None:
        return None
    ival = ianalysis.address(pc, env)
    if is_top(ival.base) or not (ival.rlo > -np.inf and ival.rhi < np.inf):
        return None
    width = float(ival.rhi - ival.rlo)
    rel_warps = _relative_lane_addresses(ival.base, kernel.cta_dim)
    hi = None
    for rel in rel_warps:
        if len(rel) == 0:
            continue
        window = float(rel.max() - rel.min()) + width + WORD
        if space == "global":
            count = min(len(rel), int((window - 1) // line_bytes) + 2)
        else:
            words = int((window - 1) // WORD) + 2
            count = min(len(rel), -(-words // num_banks))
        hi = count if hi is None else max(hi, count)
    if hi is None or hi >= max_lanes:
        return None  # no tighter than the conservative bound
    return AccessCost(pc=pc, space=space, kind=kind, lo=1, hi=hi,
                      full_lo=1, full_hi=hi, analyzable=False,
                      exact=False, predicated=predicated, source="interval")


def access_costs(kernel, *, line_bytes: int = 128, num_banks: int = 32,
                 param_values: dict | None = None,
                 unroll: bool = True) -> tuple[AccessCost, ...]:
    """Static cost bounds for every reachable memory-access site.

    ``line_bytes``/``num_banks`` default to the simulator's Fermi-class
    values (:class:`repro.sim.config.GPUConfig`); pass the config's
    values to analyze other geometries.  Computed once per kernel and key
    ``(line_bytes, num_banks, param_values, unroll)``.

    Two refinements tighten sites the affine fixpoint calls TOP, tried in
    order of precision:

    * ``unroll`` — the bounded uniform unroll
      (:mod:`repro.isa.analysis.unroll`) re-executes uniform control flow
      concretely, giving *exact* per-occurrence costs for loop-carried
      tile/ping-pong addresses; ``param_values`` lets parameter-valued
      loop bounds resolve.
    * the interval pass (:mod:`repro.isa.analysis.interval`) bounds the
      worst case when the value-set is provably narrow (masked gathers,
      small atomic tables) even though per-lane structure is unknown.
    """
    key = ("access_costs", line_bytes, num_banks, params_key(param_values),
           unroll)
    return fact(kernel, key, _access_costs, kernel, line_bytes, num_banks,
                param_values, unroll)


def _access_costs(kernel, line_bytes, num_banks, param_values,
                  unroll) -> tuple[AccessCost, ...]:
    cfg_view = cfg_of(kernel)
    affine, envs = affine_solution(kernel)
    threads = kernel.threads_per_cta
    max_lanes = min(WARP, threads)
    trace = False  # computed lazily on the first TOP-address site
    occurrences: dict[int, list] = {}
    costs: list[AccessCost] = []
    for pc, instr in enumerate(kernel.instrs):
        if not instr.info.is_mem or not cfg_view.pc_reachable(pc):
            continue
        space = "global" if instr.is_global_mem else "shared"
        kind = _kind(instr)
        predicated = instr.pred is not None
        env = envs[pc]
        if env is None:
            costs.append(_unanalyzable(pc, space, kind, max_lanes, predicated))
            continue
        address = affine.address(pc, env)
        if is_top(address):
            cost = None
            if unroll:
                if trace is False:
                    trace = unrolled_trace(kernel, param_values=param_values)
                    for occ in trace or ():
                        occurrences.setdefault(occ.pc, []).append(occ)
                if trace is not None:
                    cost = _occurrence_cost(kernel, pc, occurrences.get(pc),
                                            space, kind, max_lanes, predicated,
                                            line_bytes, num_banks)
            if cost is None:
                cost = _interval_cost(kernel, pc, instr, interval_solution(kernel),
                                      space, kind, max_lanes, predicated,
                                      line_bytes, num_banks)
            costs.append(cost if cost is not None else
                         _unanalyzable(pc, space, kind, max_lanes, predicated))
            continue
        rel_warps = _relative_lane_addresses(address, kernel.cta_dim)
        # A uniform base shifts every lane equally; lane *differences* must
        # be word-aligned or the access would fault at runtime — bail to
        # the conservative bounds rather than model an illegal access.
        base = rel_warps[0][0] if rel_warps and len(rel_warps[0]) else 0
        if any(((rel - base) % WORD).any() for rel in rel_warps):
            costs.append(_unanalyzable(pc, space, kind, max_lanes, predicated))
            continue
        shifted = bool(address.uni) or address.fuzzy
        if space == "global":
            full_lo, full_hi = _global_cost(rel_warps, line_bytes, shifted)
        else:
            full_lo, full_hi = _shared_cost(rel_warps, num_banks)
        exact = full_lo == full_hi and not predicated
        lo = 1 if predicated else full_lo
        costs.append(AccessCost(pc=pc, space=space, kind=kind, lo=lo,
                                hi=full_hi, full_lo=full_lo, full_hi=full_hi,
                                analyzable=True, exact=exact,
                                predicated=predicated))
    return tuple(costs)


def cost_bounds_by_pc(kernel, *, line_bytes: int = 128,
                      num_banks: int = 32) -> dict[int, AccessCost]:
    """``pc -> AccessCost`` map (the sanitizer's cross-check input)."""
    return {cost.pc: cost
            for cost in access_costs(kernel, line_bytes=line_bytes,
                                     num_banks=num_banks)}
