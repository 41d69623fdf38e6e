"""Crash-tolerant fuzz campaigns, reproducer dumps, and deterministic replay.

A campaign is a batch of differential cases driven through the sweep
orchestrator (:mod:`repro.analysis.orchestrator`): each case runs in its
own worker subprocess under a wall-clock deadline, the campaign directory
is a result store that every finished case is committed to (so an
interrupted campaign resumes by re-running into the same directory), and
any divergence is shrunk *in the parent* to a minimal spec and written as
a **reproducer** JSON under ``reproducers/``, next to the store's
forensic ``dumps/``.

Reproducers carry full forensics — the shrunken spec, the original spec,
the generator config, the exact :class:`~repro.sim.config.GPUConfig`, any
injected fault plan, the divergence list, and a fingerprint over
(spec, config, seed).  ``repro fuzz --replay <file>`` re-runs the case
from the dump alone; a dump whose recomputed fingerprint no longer
matches (hand-edited config, schema drift) is refused as **stale**, the
same discipline the result store applies to its cells.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fuzz.differential import DEFAULT_MAX_CYCLES, Divergence, DiffResult, run_case, sample_config
from repro.fuzz.generator import GenConfig, generate_spec, materialize, spec_fingerprint
from repro.fuzz.shrink import shrink_spec
from repro.records import RunRecord, cell_fingerprint, config_from_dict, config_to_dict
from repro.sim.stats import SimStats

REPRO_KIND = "fuzz-reproducer"
REPRO_DIR = "reproducers"

#: Cap on how many divergent cases one campaign shrinks (each shrink costs
#: up to ``shrink_tests`` differential runs).
MAX_SHRINKS = 5

#: The planted-bug canary: delay every cache-line fill on the (nominally)
#: fast-forward leg.  Any kernel whose timing depends on a load diverges,
#: so a healthy pipeline must detect this on every seed and shrink it to
#: the minimal load-dependent kernel (8 instructions).
CANARY_FAULT = {"seed": 7, "delay_every": 1, "delay_cycles": 40}


class StaleReproducerError(RuntimeError):
    """The dump's fingerprint no longer matches its own spec/config."""


def cell_name(spec: dict) -> str:
    """Store-visible identity of one fuzz case.

    Includes the spec fingerprint so any grammar/knob change reshapes the
    sweep fingerprint and a resumed campaign never reuses a stale verdict.
    """
    return f"fuzz-s{spec['seed']}-{spec_fingerprint(spec)}"


def reproducer_fingerprint(spec: dict, config: dict, seed: int) -> str:
    """Fingerprint binding a reproducer's spec to its exact GPUConfig."""
    return cell_fingerprint(cell_name(spec), config_from_dict(config),
                            scale=1.0, workload_seed=seed)


# ---------------------------------------------------------------------------
# One cell (runs inside an orchestrator worker)
# ---------------------------------------------------------------------------

def run_fuzz_cell(payload: dict):
    """Run one differential case from an orchestrator payload; returns a
    :class:`~repro.records.RunRecord` (status ``ok`` or
    ``divergence``, with a forensic dump attached on divergence)."""
    cfg = config_from_dict(payload["config"])
    spec = payload["extra"]["spec"]
    result = run_case(spec, cfg,
                      max_cycles=payload["max_cycles"] or DEFAULT_MAX_CYCLES,
                      fault=payload["faults"])
    if result.ok:
        stats = (SimStats.from_dict(result.ref_stats)
                 if result.ref_stats else None)
        return RunRecord(benchmark=payload["benchmark"], arch="diff",
                         stats=stats, config=cfg)
    return RunRecord(benchmark=payload["benchmark"], arch="diff", stats=None,
                     config=cfg, status="divergence", error=result.summary(),
                     dump=format_fuzz_dump(spec, cfg, result,
                                           fault=payload["faults"]))


def make_cells(seeds, gen: GenConfig, *, max_cycles: int = DEFAULT_MAX_CYCLES,
               fault: dict | None = None) -> list:
    """Sweep cells for ``seeds``: one differential case each, config
    sampled per seed."""
    from repro.analysis.orchestrator import SweepCell

    cells = []
    for seed in seeds:
        spec = generate_spec(seed, gen)
        name = cell_name(spec)
        cells.append(SweepCell(
            benchmark=name, cfg=sample_config(seed), max_cycles=max_cycles,
            faults=fault, workload_seed=seed, key=(name,), runner="fuzz",
            extra={"spec": spec}))
    return cells


# ---------------------------------------------------------------------------
# Forensic dump / reproducer files
# ---------------------------------------------------------------------------

def format_fuzz_dump(spec: dict, cfg, result: DiffResult,
                     fault: dict | None = None) -> str:
    """Human-readable divergence forensics, deadlock-dump style."""
    lines = [
        "=== fuzz divergence dump ===",
        f"case: {cell_name(spec)}  (seed {spec['seed']}, "
        f"{result.instructions} instructions)",
        "",
        "--- divergences ---",
    ]
    lines += [f"  {d}" for d in result.divergences]
    lines += ["", "--- legs ---"]
    for leg, info in sorted(result.legs.items()):
        lines.append(f"  {leg:24s} {info['status']:10s} "
                     f"cycles={info['cycles']}")
    lines += ["", "--- config ---"]
    lines += [f"  {k} = {v}" for k, v in
              sorted(config_to_dict(cfg).items())]
    if fault:
        lines += ["", "--- injected fault plan ---"]
        lines += [f"  {k} = {v}" for k, v in sorted(fault.items())]
    lines += ["", "--- spec ---", json.dumps(spec, sort_keys=True)]
    try:
        asm = materialize(spec).kernel.disassemble()
        lines += ["", "--- kernel ---", asm]
    except Exception as exc:  # noqa: BLE001 - dump must never fail
        lines += ["", f"--- kernel unavailable: {exc} ---"]
    return "\n".join(lines)


def write_reproducer(path, *, spec: dict, original_spec: dict, gen: GenConfig,
                     cfg, seed: int, divergences: list[Divergence],
                     shrink_info: dict, fault: dict | None = None) -> Path:
    """Write a replayable reproducer JSON; returns its path."""
    config = config_to_dict(cfg)
    try:
        case = materialize(spec)
        asm = case.kernel.disassemble()
        instructions = len(case.kernel.instrs)
    except Exception:  # noqa: BLE001 - still dump what we have
        asm, instructions = None, None
    payload = {
        "v": 1,
        "kind": REPRO_KIND,
        "seed": seed,
        "genconfig": gen.to_dict(),
        "spec": spec,
        "original_spec": original_spec,
        "config": config,
        "fingerprint": reproducer_fingerprint(spec, config, seed),
        "fault": fault,
        "divergences": [d.to_dict() for d in divergences],
        "shrink": shrink_info,
        "instructions": instructions,
        "asm": asm,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


def load_reproducer(path) -> dict:
    """Load and structurally validate a reproducer dump."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("kind") != REPRO_KIND:
        raise ValueError(f"{path} is not a fuzz reproducer dump")
    for key in ("spec", "config", "fingerprint", "seed"):
        if key not in data:
            raise ValueError(f"{path}: reproducer is missing {key!r}")
    return data


def replay_reproducer(path, *, max_cycles: int = DEFAULT_MAX_CYCLES) -> DiffResult:
    """Re-run a reproducer from its dump alone.

    Raises :class:`StaleReproducerError` when the recomputed fingerprint
    over (spec, config, seed) does not match the dumped one — the store's
    stale-fingerprint discipline applied to replays: a hand-edited config
    or a schema drift must fail loudly, not replay the wrong machine.
    """
    data = load_reproducer(path)
    expected = reproducer_fingerprint(data["spec"], data["config"],
                                      data["seed"])
    if expected != data["fingerprint"]:
        raise StaleReproducerError(
            f"{path}: fingerprint {data['fingerprint']} does not match the "
            f"dumped spec/config (recomputed {expected}); the dump is stale "
            f"or was edited — regenerate it with a fresh campaign")
    return run_case(data["spec"], config_from_dict(data["config"]),
                    max_cycles=max_cycles, fault=data.get("fault"))


def list_reproducers(directory) -> list[dict]:
    """Summaries of every reproducer under ``<dir>/reproducers`` (for
    ``repro doctor``); unreadable files are reported, not raised."""
    directory = Path(directory)
    root = directory / REPRO_DIR if (directory / REPRO_DIR).is_dir() else directory
    out = []
    for path in sorted(root.glob("*.json")):
        try:
            data = load_reproducer(path)
            out.append({
                "path": str(path),
                "seed": data["seed"],
                "instructions": data.get("instructions"),
                "kinds": sorted({d["kind"] for d in data.get("divergences", [])}),
                "stale": (reproducer_fingerprint(
                    data["spec"], data["config"], data["seed"])
                    != data["fingerprint"]),
            })
        except (ValueError, KeyError, json.JSONDecodeError) as exc:
            out.append({"path": str(path), "error": str(exc)})
    return out


# ---------------------------------------------------------------------------
# The campaign driver
# ---------------------------------------------------------------------------

@dataclass
class CampaignResult:
    """Outcome of one fuzz campaign."""

    seeds_run: list[int] = field(default_factory=list)
    seeds_skipped: list[int] = field(default_factory=list)  # time budget hit
    #: seed -> spec fingerprint, in seed order: the corpus identity
    corpus: dict[int, str] = field(default_factory=dict)
    records: dict = field(default_factory=dict)  # key -> RunRecord
    divergent: list[dict] = field(default_factory=list)
    reproducer_paths: list[str] = field(default_factory=list)
    stats: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.divergent and all(r.ok for r in self.records.values())


def _corpus_stats(cells, records) -> dict:
    """Aggregate corpus statistics for reporting (EXPERIMENTS.md)."""
    kinds: dict[str, int] = {}
    instructions = []
    for cell in cells:
        spec = cell.extra["spec"]
        for segment in spec["segments"]:
            kinds[segment["kind"]] = kinds.get(segment["kind"], 0) + 1
        try:
            instructions.append(len(materialize(spec).kernel.instrs))
        except Exception:  # noqa: BLE001
            pass
    ok = sum(1 for r in records.values() if r.ok)
    return {
        "cases": len(cells),
        "ok": ok,
        "divergent": len(records) - ok,
        "segment_kinds": dict(sorted(kinds.items())),
        "instructions_min": min(instructions) if instructions else 0,
        "instructions_max": max(instructions) if instructions else 0,
        "instructions_mean": (round(sum(instructions) / len(instructions), 1)
                              if instructions else 0.0),
    }


def run_campaign(n: int, seed: int = 0, gen: GenConfig | None = None, *,
                 jobs: int = 1, wall_timeout: float | None = 120.0,
                 time_budget: float | None = None, directory=None,
                 fault: dict | None = None,
                 max_cycles: int = DEFAULT_MAX_CYCLES, shrink: bool = True,
                 shrink_tests: int = 120, retries: int = 1,
                 progress=None) -> CampaignResult:
    """Fuzz ``n`` seeded cases starting at ``seed``.

    Cases run through :func:`repro.analysis.orchestrator.run_sweep` in
    batches (``jobs`` workers, per-case ``wall_timeout``); after each batch
    the ``time_budget`` (seconds of campaign wall-clock) is checked, so a
    budgeted campaign stops between batches with every finished case
    stored and the remaining seeds reported in ``seeds_skipped``.  With
    ``directory`` (a result-store root) a re-run into it reads finished
    cases back instead of re-running them.  Divergent cases are shrunk
    in-parent and dumped as reproducers under ``<directory>/reproducers/``.
    """
    from repro.analysis.orchestrator import run_sweep

    gen = gen if gen is not None else GenConfig()
    seeds = list(range(seed, seed + n))
    cells = make_cells(seeds, gen, max_cycles=max_cycles, fault=fault)
    by_key = {cell.key: cell for cell in cells}
    result = CampaignResult(
        corpus={c.workload_seed: spec_fingerprint(c.extra["spec"])
                for c in cells})

    def note(message: str) -> None:
        if progress:
            progress(message)

    started = time.monotonic()
    batch_size = (len(cells) if time_budget is None
                  else max(1, max(jobs, 1) * 2))
    for start in range(0, len(cells), batch_size):
        if time_budget is not None and start \
                and time.monotonic() - started >= time_budget:
            break
        batch = cells[start:start + batch_size]
        sweep = run_sweep(batch, jobs=jobs, wall_timeout=wall_timeout,
                          retries=retries, directory=directory,
                          progress=progress)
        result.records.update(sweep.records)
        result.seeds_run.extend(c.workload_seed for c in batch)
    result.seeds_skipped = [c.workload_seed for c in cells
                            if c.key not in result.records]
    if result.seeds_skipped:
        note(f"time budget hit: {len(result.seeds_skipped)} seed(s) left "
             f"unrun (re-run into the same directory to resume)")

    # -- shrink + dump every divergence -----------------------------------
    divergent = [(key, record) for key, record in result.records.items()
                 if record.status == "divergence"]
    for key, record in divergent[:MAX_SHRINKS]:
        cell = by_key[key]
        spec, cfg = cell.extra["spec"], cell.cfg
        case_seed = cell.workload_seed

        def is_bad(candidate: dict) -> bool:
            return not run_case(candidate, cfg, max_cycles=max_cycles,
                                fault=fault).ok

        if shrink:
            note(f"shrinking {key[0]} ...")
            small, info = shrink_spec(spec, is_bad, max_tests=shrink_tests)
        else:
            small, info = spec, {"reproduced": True, "tests": 0,
                                 "segments_before": len(spec["segments"]),
                                 "segments_after": len(spec["segments"])}
        final = run_case(small, cfg, max_cycles=max_cycles, fault=fault)
        entry = {"key": key[0], "seed": case_seed,
                 "divergences": [d.to_dict() for d in final.divergences],
                 "instructions": final.instructions, "shrink": info}
        result.divergent.append(entry)
        if directory is not None:
            path = write_reproducer(
                Path(directory) / REPRO_DIR / f"{key[0]}.json",
                spec=small, original_spec=spec, gen=gen, cfg=cfg,
                seed=case_seed, divergences=final.divergences,
                shrink_info=info, fault=fault)
            entry["path"] = str(path)
            result.reproducer_paths.append(str(path))
            note(f"reproducer written: {path}")
    for key, record in divergent[MAX_SHRINKS:]:
        # Not re-run: the kinds come from the record's divergence summary.
        result.divergent.append({
            "key": key[0], "seed": by_key[key].workload_seed,
            "divergences": [d.to_dict() for d in
                            Divergence.parse_summary(record.error or "")],
            "instructions": None,
            "shrink": {"reproduced": True, "tests": 0, "skipped": True}})
    if len(divergent) > MAX_SHRINKS:
        note(f"{len(divergent) - MAX_SHRINKS} divergent case(s) beyond the "
             f"shrink cap recorded without reproducers")

    result.stats = _corpus_stats(cells, result.records)
    return result
