"""The four benchmark workloads.

Each workload has a ``setup`` (imports, kernel assembly, ``prepare``,
spec generation, warm-up: charged to ``setup_s``) and a fixed *unit* of
timed work made of operations (one launch, one fuzz case, or one
kernel x config analysis).  ``repro`` is imported inside ``setup`` so
``run.py`` can purge and re-import it to repeat the whole set-up.

Every simulated launch in a unit is captured by :class:`LaunchLog` (its
config, ``SimStats`` and host seconds) so the caller can digest the stats
and compute simulated throughput without tracing.
"""

from __future__ import annotations

import importlib
import math

from probe import PROBE

ARCHS = ("baseline", "vt")


class OpFailed(Exception):
    """An operation completed but its output is wrong (check failure,
    fuzz divergence, strict-lint finding)."""


class LaunchLog:
    """Context manager recording every ``GPU.launch`` made inside it."""

    def __init__(self):
        self.records: list[tuple] = []  # (op id, cfg, SimStats, seconds)
        self.op = None

    def __enter__(self):
        self._cls = importlib.import_module("repro.sim.gpu").GPU
        self._orig = self._cls.__dict__["launch"]
        orig = self._orig

        def launch(gpu, *args, **kwargs):
            mark = PROBE.mark()
            forks = gpu.cfg.engine == "parallel" and gpu.cfg.sim_jobs > 1
            with PROBE.paused(forks):
                result = orig(gpu, *args, **kwargs)
            self.records.append((self.op, gpu.cfg, result.stats,
                                 PROBE.elapsed(mark)))
            return result

        self._cls.launch = launch
        return self

    def __exit__(self, *exc):
        self._cls.launch = self._orig


class UnitResult:
    """What one unit of timed work produced."""

    def __init__(self):
        self.ops: list[tuple[str, float]] = []  # (op id, host seconds)
        self.failures: list[str] = []
        self.launches: list[tuple] = []  # LaunchLog records
        self.outputs: dict[str, object] = {}  # op id -> analyzer results

    @property
    def wall(self) -> float:
        return sum(seconds for _op, seconds in self.ops)


def _call(rec, op_id, name, fn, *args):
    """``fn(*args)``, inside a traced span attributed to ``op_id`` when a
    recorder is active."""
    if rec is None:
        return fn(*args)
    outer, rec.op = rec.op, op_id
    try:
        return rec.span(name, fn, *args)
    finally:
        rec.op = outer


class Workload:
    name = ""
    op_kind = ""  # what one operation is, for the report

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def unit(self, res: UnitResult, rec) -> None:
        raise NotImplementedError

    def _op(self, res: UnitResult, rec, op_id: str, fn, *args,
            span: str = "op") -> None:
        """Time one operation; an exception is a failed operation, not a
        crashed run."""
        self._log.op = op_id
        mark = PROBE.mark()
        try:
            if rec is None:
                out = fn(*args)
            else:
                out = rec.op_span(op_id, span, fn, *args)
            if out is not None:
                res.outputs[op_id] = out
        except Exception as exc:  # noqa: BLE001 - counted and reported
            res.failures.append(f"{op_id}: {type(exc).__name__}: {exc}")
        res.ops.append((op_id, PROBE.elapsed(mark)))

    def run_unit(self, rec=None) -> UnitResult:
        """One unit of timed work, traced when ``rec`` is given."""
        res = UnitResult()
        with LaunchLog() as log:
            self._log = log
            if rec is not None:
                rec.install()
            try:
                self.unit(res, rec)
            finally:
                if rec is not None:
                    rec.uninstall()
        res.launches = log.records
        return res


class _SimWorkload(Workload):
    """Registry kernels launched on the default engine and checked against
    their numpy references; one operation is one launch plus its check.
    ``prepare`` runs before each operation, outside the timer."""

    op_kind = "launch"

    def _import(self):
        self.kernels = importlib.import_module("repro.kernels")
        self.config = importlib.import_module("repro.sim.config")
        self.GPU = importlib.import_module("repro.sim.gpu").GPU

    def _launch_checked(self, rec, op_id, cfg, bench, prep):
        result = self.GPU(cfg).launch(bench.kernel, prep.grid_dim, prep.gmem,
                                      prep.params)
        _call(rec, op_id, "kernels.check", prep.check, result)

    def _cells(self):
        """(op id, config, benchmark, scale) in the fixed run order."""
        raise NotImplementedError

    def unit(self, res, rec):
        for op_id, cfg, bench, scale in self._cells():
            prep = _call(rec, op_id, "kernels.prepare", bench.prepare, scale)
            self._op(res, rec, op_id, self._launch_checked, rec, op_id, cfg,
                     bench, prep)


class Registry(_SimWorkload):
    """All 22 registry kernels x {baseline, vt}, 2 SMs, serial
    fast-forward engine: the E5 matrix."""

    name = "registry"
    #: At 0.75 VT changes the cycle count of 16 of the 22 kernels (at 0.5
    #: only 4 do), so the VT manager's swap path is really exercised.
    SCALE = 0.75
    NUM_SMS = 2
    WARM_SCALE = 0.05

    def setup(self):
        self._import()
        self.benches = self.kernels.all_benchmarks()
        self.cfgs = {arch: self.config.scaled_fermi(num_sms=self.NUM_SMS,
                                                    arch=arch)
                     for arch in ARCHS}
        for _op_id, _cfg, bench, scale in self._cells():
            bench.prepare(scale)
        # Warm-up: one small launch per kernel fills the process-level
        # memos (immediate broadcasts, lane masks) and runs lazy imports.
        warm = self.config.scaled_fermi(num_sms=1, arch="baseline")
        for bench in self.benches:
            prep = bench.prepare(self.WARM_SCALE)
            self.GPU(warm).launch(bench.kernel, prep.grid_dim, prep.gmem,
                                  prep.params)

    def _cells(self):
        for bench in self.benches:
            for arch in ARCHS:
                yield f"{bench.name}/{arch}", self.cfgs[arch], bench, self.SCALE


class ChaseWide(_SimWorkload):
    """``chase`` at 64 SMs behind one slow DRAM channel, baseline and vt."""

    name = "chase-wide"
    NUM_SMS = 64
    #: The single-slow-DRAM-channel overrides of scripts/bench_simspeed.py.
    OVERRIDES = {"dram_latency": 800, "dram_channels": 1,
                 "dram_service_cycles": 40, "lat_alu": 1}
    WARM_SMS = 8
    #: Worker counts for the traced fork-engine data point (2 = nproc on
    #: the machine this benchmark was tuned on).
    PARALLEL_JOBS = (1, 2)

    def _cfg(self, num_sms, arch):
        return self.config.scaled_fermi(num_sms=num_sms, arch=arch,
                                        **self.OVERRIDES)

    def setup(self):
        self._import()
        self.bench = self.kernels.get("chase")
        self.cfgs = {arch: self._cfg(self.NUM_SMS, arch) for arch in ARCHS}
        for _op_id, _cfg, bench, scale in self._cells():
            bench.prepare(scale)
        for arch in ARCHS:
            prep = self.bench.prepare(self.WARM_SMS / 32)
            self.GPU(self._cfg(self.WARM_SMS, arch)).launch(
                self.bench.kernel, prep.grid_dim, prep.gmem, prep.params)

    def _cells(self):
        # One CTA per SM, as in the BENCH_simspeed chase cells.
        for arch in ARCHS:
            yield (f"chase/{arch}/{self.NUM_SMS}sm", self.cfgs[arch],
                   self.bench, self.NUM_SMS / 32)

    def parallel_point(self):
        """Untraced units on the sharded engine at each worker count:
        {jobs: UnitResult}."""
        default = self.cfgs
        out = {}
        try:
            for jobs in self.PARALLEL_JOBS:
                self.cfgs = {arch: cfg.with_(engine="parallel", sim_jobs=jobs)
                             for arch, cfg in default.items()}
                out[jobs] = self.run_unit()
        finally:
            self.cfgs = default
        return out


def _cost_proxy(spec, case, cfg) -> float:
    """Log-linear host-cost estimate of one differential case, fitted on
    160 cases: warps, static and loop-expanded instruction counts, load
    lines per MSHR (MSHR-full stalls make every scheduler scan re-check
    every warp), SM count, the forked parallel leg (odd seeds) and the
    two-level scheduler."""
    warps = -(-spec["cta_x"] // 32) * spec["grid_x"]
    loop_work = lines = 0
    for seg in spec["segments"]:
        if seg["kind"] == "loop":
            loop_work += seg["trips"] * (seg["body_n"] + 3)
        elif seg["kind"] == "gload":
            # 32 lanes x 4-byte words x stride over 128-byte lines.
            lines += min(32, max(1, seg["stride"]))
        elif seg["kind"] == "gather":
            lines += 32
        elif seg["kind"] == "atomic":
            lines += 1
    return (0.40 * math.log(warps) + 0.40 * math.log(len(case.kernel.instrs))
            + 0.10 * math.log(8 + loop_work)
            + 0.14 * math.log1p(warps * lines / cfg.l1_mshrs)
            + 0.04 * (cfg.num_sms - 1) + 0.08 * (spec["seed"] % 2)
            + 0.05 * (cfg.warp_scheduler == "two-level"))


class Fuzz(Workload):
    """A fixed-count differential campaign through ``run_case``."""

    name = "fuzz"
    op_kind = "fuzz case"
    CASES = 48
    #: Candidate specs drawn per case.  The cases are the pool's cost-proxy
    #: quantiles, so every seed gets a case mix of the same expected cost
    #: while the specs themselves change with the seed.
    POOL_PER_CASE = 8
    #: The proxy ranks case cost only loosely, so with every case drawn
    #: from the seed's pool the unit moved by 20% between seeds (20.5 to
    #: 25.6 reference seconds over six seeds), a third of it from the top
    #: strata, whose cost is heavy-tailed.  So the top ``FIXED_TOP`` strata
    #: and every odd stratum come from one fixed pool for every seed, and
    #: the seed picks the 21 even strata below the top.
    FIXED_TOP = 6
    FIXED_POOL_BASE = 900_000  # below every seed's pool
    WARM_SEED = 1  # a CI-corpus seed, outside every benchmark pool

    def _pool(self, generator, base):
        """Quantile midpoints of the cost proxy over the pool of spec seeds
        from ``base``, cheapest first."""
        pool = []
        for spec_seed in range(base, base + self.CASES * self.POOL_PER_CASE):
            spec = generator.generate_spec(spec_seed)
            cost = _cost_proxy(spec, generator.materialize(spec),
                               self.differential.sample_config(spec_seed))
            pool.append((cost, spec_seed, spec))
        pool.sort(key=lambda item: (item[0], item[1]))
        step = len(pool) / self.CASES
        return [pool[int((i + 0.5) * step)][2] for i in range(self.CASES)]

    def setup(self):
        generator = importlib.import_module("repro.fuzz.generator")
        self.differential = importlib.import_module("repro.fuzz.differential")
        seeded = self._pool(generator, 1_000_000 + self.seed * 10_000)
        fixed = self._pool(generator, self.FIXED_POOL_BASE)
        cut = self.CASES - self.FIXED_TOP
        self.specs = [seeded[i] if i < cut and i % 2 == 0 else fixed[i]
                      for i in range(self.CASES)]
        self.differential.run_case(generator.generate_spec(self.WARM_SEED))

    def _case(self, spec):
        result = self.differential.run_case(spec)
        if not result.ok:
            raise OpFailed(result.summary())

    def unit(self, res, rec):
        for spec in self.specs:
            self._op(res, rec, f"case-{spec['seed']}", self._case, spec,
                     span="fuzz.run_case")


class Static(Workload):
    """lint + predict + cycle bounds over every registry kernel and the
    three ``repro bound`` gate configs; no simulation."""

    name = "static"
    op_kind = "kernel x config analysis"
    SCALE = 1.0  # the ``repro bound`` / ``repro predict`` default

    def setup(self):
        kernels = importlib.import_module("repro.kernels")
        self.analysis = importlib.import_module("repro.isa.analysis")
        self.perf = importlib.import_module("repro.isa.analysis.perf")
        self.bounds = importlib.import_module("repro.isa.analysis.bounds")
        self.benches = sorted(kernels.all_benchmarks(), key=lambda b: b.name)
        self.configs = self.bounds.gate_configs()
        self.layouts = {b.name: self.perf.layout_for(b, self.SCALE)
                        for b in self.benches}
        label, cfg = next(iter(self.configs.items()))
        self._analyze(self.benches[0], label, cfg)

    def _analyze(self, bench, label, cfg):
        """One operation, mirroring ``repro lint --strict``, ``repro
        predict`` and ``repro bound`` for a single kernel x config."""
        report = self.analysis.lint_kernel(bench.kernel)
        if not report.ok(strict=True):
            raise OpFailed("; ".join(str(f) for f in
                                     (report.errors + report.warnings)[:4]))
        layout = self.layouts[bench.name]
        ctas = max(1, layout.total_threads
                   // max(1, bench.kernel.threads_per_cta))
        out = {}
        for mode in ARCHS:
            prediction = self.perf.predict(bench.kernel, cfg, arch=mode,
                                           layout=layout)
            bound = self.bounds.kernel_bounds(
                bench.kernel, cfg, mode=mode, ctas=ctas,
                param_values=layout.param_values, arch=label)
            out[mode] = {"limiter": prediction.limiter,
                         "idle_class": prediction.idle_class,
                         "vt_tier": prediction.vt_tier,
                         "lo": bound.lo, "hi": bound.hi}
        return out

    def unit(self, res, rec):
        for bench in self.benches:
            for label, cfg in self.configs.items():
                self._op(res, rec, f"{bench.name}/{label}", self._analyze,
                         bench, label, cfg)


WORKLOADS = {cls.name: cls for cls in (Registry, ChaseWide, Fuzz, Static)}
