"""Static shared-memory checks: out-of-bounds and cross-thread races.

Both checks build on the affine address pass:

* **Bounds** — an access whose byte address is affine in thread ids (and
  constants) has exact min/max over the CTA box; predicated accesses are
  narrowed through recognizable ``tid <cmp> const`` guards.  Any word
  falling outside the declared ``smem_bytes`` is an error: at runtime it
  would corrupt a neighbouring CTA's scratchpad on real hardware (the
  simulator's :class:`~repro.sim.memory.SharedMemory` raises instead).
* **Races** — two accesses to the same shared word from different
  threads, at least one a (non-atomic) write, with a ``BAR``-free path
  between them.  Paths are computed on the instruction-level CFG,
  stopping at barriers; address overlap is decided on the affine forms —
  identical launch-constant terms cancel, so ``base + 4·tid`` vs
  ``base + 4·tid + 4`` is caught even with an unknown ``base``.  Accesses
  the analysis cannot bound (data-dependent or loop-carried addresses)
  and predicated accesses (the registry's guarded idiom, e.g. the
  ``tid < s`` tree-reduction step) are reported at *info* severity
  instead: possible, not proven.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.analysis.affine import Affine, affine_solution, is_top, refine_bounds
from repro.isa.analysis.context import cfg_of
from repro.isa.analysis.dataflow import CFGView
from repro.isa.cfg import EXIT_PC  # noqa: F401  (re-exported for callers)
from repro.isa.opcodes import Op

WORD = 4  # every shared access moves one 4-byte word


@dataclass(frozen=True)
class SharedAccess:
    """One static shared-memory access site."""

    pc: int
    kind: str  # "load" | "store" | "atomic"
    address: Affine | None  # None when the enclosing block is unreachable
    bounds: tuple[float, float] | None  # byte bounds over the CTA box
    predicated: bool


@dataclass(frozen=True)
class SharedOOB:
    pc: int
    lo: float
    hi: float
    smem_bytes: int


@dataclass(frozen=True)
class SharedRace:
    pc_a: int
    pc_b: int
    proven: bool  # True: affine overlap shown; False: could not rule out


def shared_accesses(kernel) -> list[SharedAccess]:
    """Every reachable shared access site with its affine address and
    (predicate-narrowed) byte bounds."""
    cfg = cfg_of(kernel)
    affine, envs = affine_solution(kernel)
    accesses = []
    for pc, instr in enumerate(kernel.instrs):
        if not instr.is_shared_mem or not cfg.pc_reachable(pc):
            continue
        env = envs[pc]
        if env is None:
            accesses.append(SharedAccess(pc, _kind(instr), None, None,
                                         instr.pred is not None))
            continue
        address = affine.address(pc, env)
        pred_value = env.get(instr.pred.idx) if instr.pred is not None else None
        bounds = refine_bounds(address, pred_value, instr.pred_neg, kernel.cta_dim)
        accesses.append(SharedAccess(pc, _kind(instr), address, bounds,
                                     instr.pred is not None))
    return accesses


def _kind(instr) -> str:
    if instr.info.is_atomic:
        return "atomic"
    return "store" if instr.is_store else "load"


def out_of_bounds(kernel, accesses: list[SharedAccess]) -> list[SharedOOB]:
    """Accesses (from :func:`shared_accesses`) whose statically-bounded
    footprint escapes ``smem_bytes``."""
    findings = []
    for access in accesses:
        if access.bounds is None:
            if kernel.smem_bytes == 0 and access.address is not None:
                # Unanalyzable address into zero declared bytes: every
                # possible word is out of bounds.
                findings.append(SharedOOB(access.pc, 0, 0, 0))
            continue
        lo, hi = access.bounds
        if lo < 0 or hi + WORD > kernel.smem_bytes:
            findings.append(SharedOOB(access.pc, lo, hi, kernel.smem_bytes))
    return findings


# ---------------------------------------------------------------------------
# race detection
# ---------------------------------------------------------------------------

_CONFLICTS = {
    ("store", "store"), ("store", "load"), ("load", "store"),
    ("store", "atomic"), ("atomic", "store"),
    ("atomic", "load"), ("load", "atomic"),
}


def _barrier_free_reach(cfg: CFGView, start_pc: int) -> set[int]:
    """PCs reachable from just after ``start_pc`` without crossing a BAR
    (the barrier instruction itself is not expanded: it ends the phase)."""
    reach: set[int] = set()
    work = list(cfg.instr_successors(start_pc))
    while work:
        pc = work.pop()
        if pc in reach:
            continue
        reach.add(pc)
        if cfg.instrs[pc].op is Op.BAR:
            continue
        work.extend(s for s in cfg.instr_successors(pc) if s not in reach)
    return reach


def _word_injective(tid_coefs: dict, cta_dim) -> bool:
    """True when distinct threads provably touch distinct 4-byte words."""
    extents = dict(zip(("tid_x", "tid_y", "tid_z"), cta_dim))
    dims = []
    for sym, extent in extents.items():
        if extent <= 1:
            continue
        coef = tid_coefs.get(sym, 0)
        if coef == 0:
            return False  # two threads differing only in this dim collide
        dims.append((abs(coef), extent))
    if not dims:
        return True  # single-thread CTA: no distinct threads at all
    dims.sort()
    if dims[0][0] < WORD:
        return False
    for (coef, extent), (next_coef, _next_extent) in zip(dims, dims[1:]):
        if next_coef < coef * extent:
            return False
    return True


def _span(tid: tuple, cta_dim) -> float:
    extents = dict(zip(("tid_x", "tid_y", "tid_z"), cta_dim))
    return sum(abs(coef) * (extents.get(sym, 1) - 1) for sym, coef in tid)


def may_overlap(a: Affine, b: Affine, cta_dim) -> bool | None:
    """Can two *different* threads hit the same word via ``a`` and ``b``?

    Returns ``True`` (proven possible), ``False`` (proven disjoint), or
    ``None`` (addresses not analyzable — unknown).
    """
    if is_top(a) or is_top(b) or a.fuzzy or b.fuzzy:
        return None
    if a.uni != b.uni:
        return None  # uniform offsets differ by an unknown amount
    delta = a.const - b.const
    if a.tid == b.tid:
        if delta == 0:
            return not _word_injective(a.tid_coefs(), cta_dim)
        span = _span(a.tid, cta_dim)  # same coefs: Δ(t1-t2) spans ±span
        return abs(delta) <= span + (WORD - 1)
    # Different coefs: full independent-box range of a(t1) - b(t2).
    lo = delta + _box_min(a.tid, cta_dim) - _box_max(b.tid, cta_dim)
    hi = delta + _box_max(a.tid, cta_dim) - _box_min(b.tid, cta_dim)
    return lo <= (WORD - 1) and hi >= -(WORD - 1)


def _box_min(tid: tuple, cta_dim) -> float:
    extents = dict(zip(("tid_x", "tid_y", "tid_z"), cta_dim))
    return sum(min(0.0, coef * (extents.get(sym, 1) - 1)) for sym, coef in tid)


def _box_max(tid: tuple, cta_dim) -> float:
    extents = dict(zip(("tid_x", "tid_y", "tid_z"), cta_dim))
    return sum(max(0.0, coef * (extents.get(sym, 1) - 1)) for sym, coef in tid)


def races(kernel, accesses: list[SharedAccess],
          *, unroll_budget: int | None = None) -> list[SharedRace]:
    """Conflicting pairs among ``accesses`` (from :func:`shared_accesses`)
    with a barrier-free path between them.

    Unproven (``maybe``) pairs get a second chance through the bounded
    uniform unroller (:mod:`repro.isa.analysis.unroll`): when the whole
    kernel executes as one concrete uniform trace, loop-carried ping-pong
    or tile offsets the fixpoint widens away become exact per-iteration
    addresses, and a pair whose same-barrier-epoch occurrences are all
    provably disjoint is dropped.  An exhausted unroll budget (or any
    other failure to unroll) keeps the finding at ``maybe`` — never a
    silent ``safe``.
    """
    if len(accesses) == 0:
        return []
    cfg = cfg_of(kernel)
    by_pc = {access.pc: access for access in accesses}
    reach = {access.pc: _barrier_free_reach(cfg, access.pc) for access in accesses}
    reported: set[tuple[int, int]] = set()
    findings: list[SharedRace] = []
    for a in accesses:
        for pc_b in sorted(reach[a.pc]):
            b = by_pc.get(pc_b)
            if b is None or (a.kind, b.kind) not in _CONFLICTS:
                continue
            key = (min(a.pc, b.pc), max(a.pc, b.pc))
            if key in reported:
                continue
            if a.predicated or b.predicated:
                continue  # guarded idiom: assume the predicate partitions
            if a.address is None or b.address is None:
                continue
            overlap = may_overlap(a.address, b.address, kernel.cta_dim)
            if overlap is False:
                continue
            reported.add(key)
            findings.append(SharedRace(pc_a=key[0], pc_b=key[1],
                                       proven=overlap is True))
    maybes = [(f.pc_a, f.pc_b) for f in findings if not f.proven]
    if maybes:
        from repro.isa.analysis.unroll import UNROLL_BUDGET, discharge_shared_races

        budget = UNROLL_BUDGET if unroll_budget is None else unroll_budget
        cleared = discharge_shared_races(kernel, maybes, budget)
        findings = [f for f in findings
                    if f.proven or (f.pc_a, f.pc_b) not in cleared]
    return findings
