"""Differential testing of one generated kernel across engines and arches.

For one spec, :func:`run_case` runs the full cross product:

* **engines**: three legs per architecture, whose statistics must be
  byte-identical (``SimStats.to_dict()`` equality):

  - ``reference``: the per-cycle engine, unsanitized — the timing oracle;
  - ``fast-forward``: the event-driven default engine
    (``cfg.fast_forward``) with ``sanitize=True``, so it checks the
    invariants on every stepped cycle *and* cross-checks every observed
    memory access cost against the static ``memaccess`` lo..hi bounds
    (rule ``exec-access-cost``) — the oracle-bounds part of the
    contract.  Its stats matching the reference leg also shows that the
    sanitizer does not perturb timing;
  - ``parallel``: the sharded engine (``cfg.engine = "parallel"``,
    shard count derived from the seed);
* **architectures**: ``baseline`` and ``vt``;
* **semantics**: every leg's final global memory must equal the
  reference executor's (:mod:`repro.fuzz.reference`: no timing, no
  warps, each CTA's threads in pc-grouped lockstep), compared
  bit-exactly (``NaN`` positions included);
* **static oracle**: the performance oracle's idle-class prediction is
  recorded beside the measured idle breakdown (a ``predict`` crash is an
  ``oracle-idle`` divergence);
* **cycle bounds**: per architecture, the reference leg's total cycle
  count must fall inside the sound static interval from
  :func:`repro.isa.analysis.bounds.kernel_bounds` — *hard-enforced*:
  a count outside ``[lo, hi]`` is a ``bound`` divergence.  A kernel the
  bound analyzer declines (unresolvable loop) skips the leg with status
  ``"unbounded"``; an analyzer *crash* is itself a divergence.

The simulated :class:`~repro.sim.config.GPUConfig` is *sampled* per seed
(:func:`sample_config`): SM count, warp scheduler, CTA dispatch order,
VT trigger/select policies, and MSHR pressure all vary, so scheduling-
dependent engine bugs cannot hide behind one fixed configuration.

A ``fault`` plan (a :class:`repro.sim.faults.FaultPlan` as a dict) is
applied to the fast-forward leg only — the planted-bug canary: injected
fill delays silently change that leg's timing, which the stats
comparison must detect.  A plan pins that leg to the per-cycle engine.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

import numpy as np

from repro.fuzz.generator import materialize
from repro.fuzz.reference import reference_execute
from repro.sim.config import GPUConfig, scaled_fermi
from repro.sim.faults import FaultPlan
from repro.sim.gpu import GPU

#: Cycle budget per simulation leg; generated kernels finish orders of
#: magnitude earlier, so hitting it is itself a reportable divergence.
DEFAULT_MAX_CYCLES = 300_000

ARCHS = ("baseline", "vt")

#: Divergence kinds, roughly ordered by severity.
KINDS = ("lint", "reference-crash", "crash", "sanitizer", "stats-mismatch",
         "output-mismatch", "bound", "oracle-idle")


def sample_config(seed: int, version: int = 1) -> GPUConfig:
    """Deterministically sample the simulated machine for one case."""
    rng = random.Random(f"repro-fuzz-cfg:v{version}:{seed}")
    return scaled_fermi(
        num_sms=rng.choice((1, 2)),
        warp_scheduler=rng.choice(("lrr", "gto", "two-level")),
        cta_dispatch=rng.choice(("round-robin", "fill-first")),
        vt_trigger_policy=rng.choice(("all-stalled", "majority-stalled",
                                      "timeout")),
        vt_select_policy=rng.choice(("oldest-ready", "most-ready",
                                     "most-recent")),
        l1_mshrs=rng.choice((64, 64, 8)),
    )


_KIND_ALT = "|".join(re.escape(kind) for kind in KINDS)
_SUMMARY_SPLIT = re.compile(rf"; (?=\[(?:{_KIND_ALT})\] )")
_SUMMARY_ENTRY = re.compile(rf"\[({_KIND_ALT})\] ([^:]*): (.*)", re.DOTALL)


@dataclass(frozen=True)
class Divergence:
    """One detected disagreement between two views of the same kernel."""

    kind: str  # see KINDS
    leg: str  # e.g. "vt/fast-forward", "baseline/bound", "case"
    detail: str

    def to_dict(self) -> dict:
        return {"kind": self.kind, "leg": self.leg, "detail": self.detail}

    @classmethod
    def from_dict(cls, data: dict) -> "Divergence":
        return cls(kind=data["kind"], leg=data["leg"], detail=data["detail"])

    def __str__(self) -> str:
        return f"[{self.kind}] {self.leg}: {self.detail}"

    @classmethod
    def parse_summary(cls, summary: str) -> list["Divergence"]:
        """The divergences a :meth:`DiffResult.summary` line lists (its
        first four).  Entries are split only before ``; [<kind>] ``, so a
        detail that itself contains ``"; "`` stays whole."""
        out = []
        for entry in _SUMMARY_SPLIT.split(summary):
            match = _SUMMARY_ENTRY.match(entry)
            if match:
                out.append(cls(*match.groups()))
        return out


@dataclass
class DiffResult:
    """Everything the differential harness learned about one spec."""

    spec: dict
    divergences: list[Divergence] = field(default_factory=list)
    #: leg name -> {"status": "ok"|..., "cycles": int|None}
    legs: dict = field(default_factory=dict)
    instructions: int = 0
    oracle: dict = field(default_factory=dict)  # arch -> prediction summary
    #: stats dict of the first architecture's reference leg (for reporting)
    ref_stats: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.divergences

    def summary(self) -> str:
        if self.ok:
            return "ok"
        return "; ".join(str(d) for d in self.divergences[:4])

    # selfcheck: ok[schema-field-coverage] -- ref_stats holds the full reference-leg stats dict for interactive reporting only; the differential verdict payload is spec + divergences + oracle
    def to_dict(self) -> dict:
        return {
            "spec": self.spec,
            "ok": self.ok,
            "divergences": [d.to_dict() for d in self.divergences],
            "legs": self.legs,
            "instructions": self.instructions,
            "oracle": self.oracle,
        }


def _first_stat_diff(a: dict, b: dict, path: str = "") -> str:
    """Human-readable first difference between two stats dicts."""
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        where = f"{path}{key}"
        if isinstance(va, dict) and isinstance(vb, dict):
            nested = _first_stat_diff(va, vb, where + ".")
            if nested:
                return nested
        elif isinstance(va, list) and isinstance(vb, list):
            for i, (ia, ib) in enumerate(zip(va, vb)):
                if isinstance(ia, dict) and isinstance(ib, dict):
                    nested = _first_stat_diff(ia, ib, f"{where}[{i}].")
                    if nested:
                        return nested
                elif ia != ib:
                    return f"{where}[{i}]: {ia} != {ib}"
            if len(va) != len(vb):
                return f"{where}: length {len(va)} != {len(vb)}"
        elif va != vb:
            return f"{where}: {va} != {vb}"
    return ""


def _same_output(got: np.ndarray, expected: np.ndarray) -> bool:
    """``np.array_equal(got, expected, equal_nan=True)`` for float64 images,
    deciding the common case on bit patterns first.

    Identical bits are identical values, so only images whose bits differ
    (a real mismatch, ``-0.0`` against ``0.0``, or NaNs with different
    payloads) pay for the float comparison — several times slower on a
    full memory image.
    """
    if np.array_equal(got.view(np.uint64), expected.view(np.uint64)):
        return True
    return np.array_equal(got, expected, equal_nan=True)


def _output_diff(got: np.ndarray, expected: np.ndarray) -> str:
    same = (got == expected) | (np.isnan(got) & np.isnan(expected))
    bad = np.flatnonzero(~same)
    first = int(bad[0])
    return (f"{bad.size} word(s) differ; first at word {first}: "
            f"got {got[first]!r}, expected {expected[first]!r}")


def run_case(spec: dict, cfg: GPUConfig | None = None, *,
             max_cycles: int = DEFAULT_MAX_CYCLES, fault: dict | None = None,
             archs: tuple[str, ...] = ARCHS) -> DiffResult:
    """Run the full differential matrix for one spec; never raises for a
    kernel-level problem — everything lands in ``result.divergences``.

    ``fault`` (a :class:`FaultPlan` field dict) is injected into the
    fast-forward leg only.
    """
    result = DiffResult(spec=spec)

    try:
        case = materialize(spec)
    except Exception as exc:  # noqa: BLE001 - the harness must not die
        result.divergences.append(Divergence(
            "reference-crash", "case", f"materialize: {type(exc).__name__}: {exc}"))
        return result
    result.instructions = len(case.kernel.instrs)

    from repro.isa.analysis import lint_kernel

    report = lint_kernel(case.kernel)
    if not report.ok(strict=True):
        for finding in (report.errors + report.warnings)[:4]:
            result.divergences.append(Divergence("lint", "case", str(finding)))
        return result

    cfg = cfg if cfg is not None else sample_config(spec["seed"])

    gmem, params = case.make_gmem(line_bytes=cfg.line_bytes)
    expected = gmem.data.copy()
    try:
        reference_execute(case.kernel, case.grid_dim, expected, params)
    except Exception as exc:  # noqa: BLE001
        result.divergences.append(Divergence(
            "reference-crash", "case", f"{type(exc).__name__}: {exc}"))
        return result

    # Launch-parameter values (non-pointer params) let the bound leg
    # resolve parameter-valued loop bounds, mirroring perf.layout_for.
    buffer_bases = {base for base, _nbytes in gmem._buffers.values()}
    param_values = {i: int(p) for i, p in enumerate(params)
                    if p not in buffer_bases}
    gx, gy, gz = case.grid_dim
    ctas = gx * gy * gz

    def launch(leg: str, run_cfg: GPUConfig, faults=None):
        """One simulation leg; returns (stats_dict, data) or (None, None)."""
        fresh, fresh_params = case.make_gmem(line_bytes=run_cfg.line_bytes)
        try:
            res = GPU(run_cfg).launch(case.kernel, case.grid_dim, fresh,
                                      fresh_params, max_cycles=max_cycles,
                                      faults=faults)
        except Exception as exc:  # noqa: BLE001
            from repro.sim.sanitizer import InvariantViolation

            kind = ("sanitizer" if isinstance(exc, InvariantViolation)
                    else "crash")
            result.divergences.append(Divergence(
                kind, leg, f"{type(exc).__name__}: {exc}"))
            result.legs[leg] = {"status": kind, "cycles": None}
            return None, None
        result.legs[leg] = {"status": "ok", "cycles": res.stats.cycles}
        return res.stats.to_dict(), fresh.data

    for arch in archs:
        base = cfg.with_(arch=arch)
        ref_stats, ref_data = launch(
            f"{arch}/reference", base.with_(fast_forward=False))
        if result.ref_stats is None and ref_stats is not None:
            result.ref_stats = ref_stats
        fault_plan = FaultPlan(**fault) if fault else None
        ff_stats, ff_data = launch(
            f"{arch}/fast-forward",
            base.with_(fast_forward=True, sanitize=True), faults=fault_plan)
        # Sharded-engine leg: shard count varies with the seed so both the
        # in-process (1) and forked (2) drivers see fuzz traffic.  The
        # engine may decline and rerun serially — still required to match.
        par_stats, par_data = launch(
            f"{arch}/parallel",
            base.with_(engine="parallel", sim_jobs=1 + spec.get("seed", 0) % 2))

        if ref_stats is not None and ff_stats is not None and ref_stats != ff_stats:
            result.divergences.append(Divergence(
                "stats-mismatch", f"{arch}/fast-forward",
                _first_stat_diff(ff_stats, ref_stats)))
        if par_stats is not None and ref_stats is not None and par_stats != ref_stats:
            result.divergences.append(Divergence(
                "stats-mismatch", f"{arch}/parallel",
                _first_stat_diff(par_stats, ref_stats)))
        for leg, data in (("reference", ref_data), ("fast-forward", ff_data),
                          ("parallel", par_data)):
            if data is not None and not _same_output(data, expected):
                result.divergences.append(Divergence(
                    "output-mismatch", f"{arch}/{leg}",
                    _output_diff(data, expected)))

        # -- static cycle bounds vs measurement (hard-enforced) -----------
        if ref_stats is not None:
            from repro.isa.analysis.bounds import (IrregularControlFlow,
                                                   UnboundedLoop,
                                                   kernel_bounds)

            try:
                kb = kernel_bounds(case.kernel, base, mode=arch, ctas=ctas,
                                   param_values=param_values)
            except (UnboundedLoop, IrregularControlFlow) as exc:
                kb = None
                result.legs[f"{arch}/bound"] = {"status": "unbounded",
                                                "cycles": None,
                                                "detail": str(exc)}
            except Exception as exc:  # noqa: BLE001 - analyzer crash is a finding
                kb = None
                result.divergences.append(Divergence(
                    "bound", f"{arch}/bound",
                    f"bound analyzer crashed: {type(exc).__name__}: {exc}"))
            if kb is not None:
                cycles = result.legs[f"{arch}/reference"]["cycles"]
                result.legs[f"{arch}/bound"] = {
                    "status": "ok" if kb.contains(cycles) else "violated",
                    "cycles": cycles, "lo": kb.lo, "hi": kb.hi}
                if not kb.contains(cycles):
                    result.divergences.append(Divergence(
                        "bound", f"{arch}/bound",
                        f"simulated {cycles} outside [{kb.lo}, {kb.hi}]"))

        # -- static oracle vs measurement ---------------------------------
        if ref_stats is not None:
            from repro.isa.analysis.perf import idle_agreement, predict
            from repro.sim.stats import SimStats

            try:
                prediction = predict(case.kernel, base, arch=arch)
            except Exception as exc:  # noqa: BLE001 - oracle crash is a finding
                result.divergences.append(Divergence(
                    "oracle-idle", f"{arch}/oracle",
                    f"predict crashed: {type(exc).__name__}: {exc}"))
                continue
            breakdown = SimStats.from_dict(ref_stats).idle_breakdown()
            agrees, dominant, ratio = idle_agreement(
                prediction.idle_class, breakdown)
            result.oracle[arch] = {
                "limiter": prediction.limiter,
                "idle_class": prediction.idle_class,
                "measured_idle": dominant,
                "agreement_ratio": round(ratio, 3),
                "agrees": bool(agrees),
            }

    return result
