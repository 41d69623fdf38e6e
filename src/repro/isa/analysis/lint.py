"""Kernel lint driver: run every static pass and report findings.

Each finding carries a stable rule id (catalogued in :data:`RULES` with a
severity and one-line description — ``docs/LINT.md`` documents each rule
with an offending example and a fix).  Severities:

* ``error`` — the kernel is wrong: it deadlocks, corrupts memory, or
  computes with garbage.  Always fails the lint.
* ``warning`` — very likely wrong, but depends on schedule or data the
  static analysis cannot see.  Fails only under ``--strict``.
* ``perf`` — the kernel is *correct* but provably leaves performance on
  the table (uncoalesced accesses, bank conflicts, unhidden latency).
  Advisory: never fails the lint, even under ``--strict``.
* ``info`` — possible issue the analysis cannot decide, or a benign
  modelling choice (deliberate register over-declaration).  Never fails.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.analysis.barrier import barrier_divergence
from repro.isa.analysis.context import cfg_of
from repro.isa.analysis.liveness import LivenessInfo, liveness
from repro.isa.analysis.reaching import uninitialized_reads
from repro.isa.analysis.shared import out_of_bounds, races, shared_accesses
from repro.isa.cfg import EXIT_PC, annotate_reconvergence
from repro.isa.opcodes import Op

ERROR = "error"
WARNING = "warning"
PERF = "perf"
INFO = "info"

_SEVERITY_RANK = {ERROR: 0, WARNING: 1, PERF: 2, INFO: 3}

#: A full-mask global access provably needing at least this many
#: transactions (a perfectly coalesced 4-byte access needs 1 line) is
#: flagged uncoalesced.
UNCOALESCED_TX = 8
#: A full-mask shared access provably serializing into at least this
#: many bank passes is flagged conflicted.
CONFLICT_PASSES = 2
#: `low-ilp-low-occupancy`: flag when the single-warp critical path is
#: this many times the issue time while residency fills under half the
#: SM's warp slots — the classic unhidden-latency shape.
LOW_ILP_CHAIN = 2.0
LOW_OCC_FRACTION = 0.5

#: rule id -> (default severity, one-line description)
RULES = {
    "uninit-read": (ERROR, "read of a register no definition reaches"),
    "barrier-divergence": (ERROR, "BAR inside a potentially divergent region"),
    "shared-oob": (ERROR, "shared access outside declared smem_bytes"),
    "fall-off-end": (ERROR, "control flow can run past the last instruction"),
    "reg-oob": (ERROR, "register operand outside regs_per_thread"),
    "shared-race": (WARNING, "conflicting shared accesses with no BAR between"),
    "unreachable-code": (WARNING, "basic block has no path from kernel entry"),
    "uncoalesced-global": (PERF, "global access needs many transactions per warp"),
    "shared-bank-conflict": (PERF, "shared access serializes on bank conflicts"),
    "low-ilp-low-occupancy": (PERF, "dependence chains too long for the resident warps to hide"),
    "shared-race-maybe": (INFO, "possible shared race on unanalyzable addresses"),
    "over-declared-regs": (INFO, "regs_per_thread exceeds any register used"),
}


@dataclass(frozen=True)
class Finding:
    """One lint diagnostic for one kernel."""

    kernel: str
    rule: str
    severity: str
    pc: int | None
    message: str

    def __str__(self) -> str:
        where = f"pc {self.pc}" if self.pc is not None else "kernel"
        return f"[{self.severity}] {self.kernel} {where}: {self.rule}: {self.message}"

    def to_dict(self) -> dict:
        return {"kernel": self.kernel, "rule": self.rule,
                "severity": self.severity, "pc": self.pc,
                "message": self.message}


@dataclass(frozen=True)
class LintReport:
    """All findings for one kernel plus the liveness summary."""

    kernel: str
    findings: tuple
    liveness: LivenessInfo

    @property
    def errors(self) -> list:
        return [f for f in self.findings if f.severity == ERROR]

    @property
    def warnings(self) -> list:
        return [f for f in self.findings if f.severity == WARNING]

    @property
    def perf(self) -> list:
        return [f for f in self.findings if f.severity == PERF]

    def ok(self, strict: bool = False) -> bool:
        """PERF findings are advisory and never fail the lint."""
        if self.errors:
            return False
        return not (strict and self.warnings)

    # selfcheck: ok[schema-field-coverage] -- liveness carries per-pc register sets (non-JSON-safe, large); findings derived from it are serialized instead
    def to_dict(self, strict: bool = False) -> dict:
        return {"kernel": self.kernel, "ok": self.ok(strict=strict),
                "findings": [f.to_dict() for f in self.findings]}


def _sorted(findings: list[Finding]) -> tuple:
    return tuple(sorted(
        findings,
        key=lambda f: (_SEVERITY_RANK[f.severity], f.pc if f.pc is not None else -1,
                       f.rule)))


def lint_kernel(kernel) -> LintReport:
    """Run every static check over one kernel."""
    annotate_reconvergence(kernel)
    cfg = cfg_of(kernel)
    findings: list[Finding] = []

    def add(rule: str, pc: int | None, message: str, severity: str | None = None):
        findings.append(Finding(kernel=kernel.name, rule=rule,
                                severity=severity or RULES[rule][0],
                                pc=pc, message=message))

    # -- structural --------------------------------------------------------
    for block in cfg.blocks:
        if block.index not in cfg.reachable and block.start < block.end:
            add("unreachable-code", block.start,
                f"block pcs {block.start}..{block.end - 1} are unreachable")
    n = len(kernel.instrs)
    for pc, instr in enumerate(kernel.instrs):
        if not cfg.pc_reachable(pc):
            continue
        if instr.max_reg() >= kernel.regs_per_thread:
            add("reg-oob", pc,
                f"r{instr.max_reg()} used but regs_per_thread={kernel.regs_per_thread}")
        if pc + 1 >= n and instr.op is not Op.EXIT and not (
                instr.op is Op.BRA and instr.pred is None):
            add("fall-off-end", pc,
                f"last instruction is {instr.op.value}, not EXIT "
                "(or an unconditional branch)")

    # -- uninitialized reads ----------------------------------------------
    for pc, reg in uninitialized_reads(kernel):
        add("uninit-read", pc,
            f"r{reg} may be read before any write (registers are only "
            "zero-filled by the simulator, not by the ISA)")

    # -- affine-based checks ----------------------------------------------
    for bd in barrier_divergence(kernel):
        reconv = "kernel exit" if bd.reconv_pc == EXIT_PC else f"pc {bd.reconv_pc}"
        add("barrier-divergence", bd.bar_pc,
            f"BAR reachable under the divergent branch at pc {bd.branch_pc} "
            f"(reconverges at {reconv}); threads skipping it deadlock the CTA")
    accesses = shared_accesses(kernel)
    for oob in out_of_bounds(kernel, accesses):
        add("shared-oob", oob.pc,
            f"shared access spans bytes [{oob.lo:g}, {oob.hi + 4:g}) but "
            f"smem_bytes={oob.smem_bytes}")
    for race in races(kernel, accesses):
        if race.proven:
            add("shared-race", race.pc_b,
                f"conflicts with pc {race.pc_a} on an overlapping shared word "
                "with no intervening BAR")
        else:
            add("shared-race-maybe", race.pc_b,
                f"may conflict with pc {race.pc_a}; addresses not statically "
                "analyzable, no intervening BAR")

    # -- performance advisories (never fail the lint) ----------------------
    from repro.isa.analysis.memaccess import access_costs
    from repro.isa.analysis.perf import warp_profile
    from repro.core.occupancy import occupancy
    from repro.sim.config import GPUConfig

    gpu = GPUConfig()
    for cost in access_costs(kernel, line_bytes=gpu.line_bytes,
                             num_banks=gpu.shared_mem_banks):
        if not cost.analyzable:
            continue  # bounds-only sites are the predictor's job, not lint's
        if cost.space == "global" and cost.full_lo >= UNCOALESCED_TX:
            add("uncoalesced-global", cost.pc,
                f"{cost.kind} needs {cost.full_lo}-{cost.full_hi} transactions "
                f"per full warp access (coalesced would need "
                f"{-(-4 * min(32, kernel.threads_per_cta) // gpu.line_bytes)})")
        elif cost.space == "shared" and cost.full_lo >= CONFLICT_PASSES:
            add("shared-bank-conflict", cost.pc,
                f"{cost.kind} serializes into {cost.full_lo} bank passes "
                f"per full warp access over {gpu.shared_mem_banks} banks")
    occ = occupancy(kernel, gpu)
    profile = warp_profile(kernel, gpu)
    chain_ratio = profile.chain_cycles / max(1, profile.instructions)
    occ_fraction = occ.occupancy_fraction(gpu)
    if chain_ratio >= LOW_ILP_CHAIN and occ_fraction < LOW_OCC_FRACTION:
        add("low-ilp-low-occupancy", None,
            f"single-warp critical path is {chain_ratio:.1f}x its issue time "
            f"but residency fills only {occ_fraction:.0%} of warp slots "
            f"({occ.baseline_ctas} CTAs/SM, {occ.limiter.value}-limited): "
            "latency cannot be hidden")

    # -- liveness ----------------------------------------------------------
    live = liveness(kernel)
    max_used = max(
        (instr.max_reg() for pc, instr in enumerate(kernel.instrs)
         if cfg.pc_reachable(pc)), default=-1)
    if kernel.regs_per_thread > max_used + 1:
        add("over-declared-regs", None,
            f"regs_per_thread={kernel.regs_per_thread} but max register used "
            f"is r{max_used} (max live pressure {live.max_pressure}); extra "
            "registers still count against occupancy")

    return LintReport(kernel=kernel.name, findings=_sorted(findings),
                      liveness=live)


def lint_kernels(kernels) -> list[LintReport]:
    return [lint_kernel(k) for k in kernels]


def check_strict(kernel) -> None:
    """Raise :class:`~repro.isa.kernel.KernelValidationError` when the lint
    finds errors or warnings; the hook behind the assembler's and
    :class:`~repro.isa.kernel.KernelBuilder`'s ``strict`` modes."""
    from repro.isa.kernel import KernelValidationError

    report = lint_kernel(kernel)
    bad = report.errors + report.warnings
    if bad:
        details = "\n".join(f"  {finding}" for finding in bad)
        raise KernelValidationError(
            f"kernel {kernel.name!r} fails strict lint "
            f"({len(bad)} finding(s)):\n{details}")
