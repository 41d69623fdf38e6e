"""Span recorder for the traced benchmark run.

The recorder wraps the public entry points of each ``repro`` layer from
outside (no simulator source changes): it swaps class attributes and
module globals for timing wrappers, runs the traced unit of work, and
puts the originals back.

Two kinds of span are recorded:

* **coarse spans** — one record each (``id``, ``parent``, ``op``, name,
  start, end, self time): operations, launches, fuzz cases and legs,
  analyzer calls, ``prepare``/check.  Spans of one launch or one fuzz case
  share the ``op`` id of the operation that caused them.
* **hot spans** — the per-cycle and per-instruction boundaries (SM step,
  scheduler pick, functional exec, LD/ST, L1, memsys, VT manager,
  sanitizer).  There are millions per launch, so they are aggregated in
  memory per ``(op id, span name)`` as calls / inclusive / self seconds
  instead of being kept one by one.

Self time is a span's duration minus the durations of the spans directly
inside it, whatever kind they are.  Counts (scheduler picks that found a
warp) are taken in the same wrappers, so ratios are measured where the work happens.
Everything stays in memory until :meth:`Recorder.dump`.
"""

from __future__ import annotations

import importlib
import json
import time

_perf = time.perf_counter

#: Hot entry points: (span name, module, class or None, attribute).
HOT = (
    ("smcore.step", "repro.sim.smcore", "SMCore", "step"),
    ("smcore.fast_forward", "repro.sim.smcore", "SMCore", "fast_forward"),
    ("exec.functional_step", "repro.sim.smcore", None, "functional_step"),
    ("ldst.coalesce", "repro.sim.smcore", None, "coalesce"),
    ("ldst.bank_conflict_passes", "repro.sim.smcore", None,
     "bank_conflict_passes"),
    ("l1.read", "repro.sim.cache", "L1Cache", "read"),
    ("l1.write", "repro.sim.cache", "L1Cache", "write"),
    ("l1.atomic", "repro.sim.cache", "L1Cache", "atomic"),
    ("memsys.read", "repro.sim.memsys", "MemoryModel", "read"),
    ("memsys.write", "repro.sim.memsys", "MemoryModel", "write"),
    ("vt.update", "repro.core.vt", "VirtualThreadManager", "update"),
    ("vt.next_event", "repro.core.vt", "VirtualThreadManager", "next_event"),
    ("sanitizer.check_sm", "repro.sim.sanitizer", "Sanitizer", "check_sm"),
    ("sanitizer.check_exec", "repro.sim.sanitizer", "Sanitizer", "check_exec"),
)

#: Scheduler classes whose ``pick`` is wrapped (with a hit counter).
SCHEDULERS = ("LrrScheduler", "GtoScheduler", "TwoLevelScheduler")

#: Coarse entry points: (span name, module, class or None, attribute).
#: ``run_case`` imports the analyzers inside the function body, so the
#: module attributes below are the ones it resolves at call time.
COARSE = (
    ("parallel.try_parallel_launch", "repro.sim.parallel", None,
     "try_parallel_launch"),
    ("fuzz.materialize", "repro.fuzz.differential", None, "materialize"),
    ("fuzz.reference_execute", "repro.fuzz.differential", None,
     "reference_execute"),
    ("analysis.lint_kernel", "repro.isa.analysis", None, "lint_kernel"),
    ("analysis.predict", "repro.isa.analysis.perf", None, "predict"),
    ("analysis.kernel_bounds", "repro.isa.analysis.bounds", None,
     "kernel_bounds"),
)


def _owner(module: str, cls):
    """The module, or the class in it, that holds an entry point."""
    owner = importlib.import_module(module)
    return owner if cls is None else getattr(owner, cls)


def leg_of(cfg) -> str:
    """Which engine a launch ran on, from its config (the fuzz leg)."""
    if cfg.engine == "parallel":
        return "parallel"
    if cfg.sanitize:
        return "sanitize"
    return "fast-forward" if cfg.fast_forward else "reference"


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        # One frame per open span: [child seconds, span id or None].
        self.stack: list[list] = []
        self.op = None  # id of the operation in progress
        self.spans: list[dict] = []
        # (op, name) -> [calls, inclusive s, self s]
        self.hot: dict[tuple, list] = {}
        self.counts: dict[str, int] = {}
        self._undo: list[tuple] = []

    # -- span primitives -----------------------------------------------------

    def _parent_id(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a coarse span named ``name``."""
        return self.span_with({}, name, fn, *args, **kwargs)

    def span_with(self, extra: dict, name: str, fn, *args, **kwargs):
        """:meth:`span` with ``extra`` fields stored on the record."""
        sid = len(self.spans)
        record = {"id": sid, "parent": self._parent_id(), "op": self.op,
                  "name": name, **extra}
        self.spans.append(record)
        frame = [0.0, sid]
        stack = self.stack
        stack.append(frame)
        t0 = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _perf()
            stack.pop()
            if stack:
                stack[-1][0] += t1 - t0
            record["start"] = t0
            record["end"] = t1
            record["self"] = t1 - t0 - frame[0]

    def op_span(self, op_id: str, name: str, fn, *args, **kwargs):
        """A root span that opens a new operation id."""
        self.op = op_id
        try:
            return self.span(name, fn, *args, **kwargs)
        finally:
            self.op = None

    def _hot_wrapper(self, name: str, fn, count_hits: bool = False):
        stack = self.stack
        hot = self.hot
        counts = self.counts
        hit_key = name + ".hits"
        if count_hits:
            counts.setdefault(hit_key, 0)

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                key = (self.op, name)
                acc = hot.get(key)
                if acc is None:
                    acc = hot[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dt
                acc[2] += dt - frame[0]
            if count_hits and result is not None:
                counts[hit_key] += 1
            return result

        return wrapper

    def _coarse_wrapper(self, name: str, fn):
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return wrapper

    def _launch_wrapper(self, fn):
        """``GPU.launch``: a coarse span whose self time is the chip loop
        (CTA dispatch, the per-cycle SM walk and ``ProgressTracker``),
        labelled with the engine leg so fuzz legs split by config."""
        def launch(gpu, *args, **kwargs):
            return self.span_with({"leg": leg_of(gpu.cfg)}, "gpu.launch",
                                  fn, gpu, *args, **kwargs)

        return launch

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every layer entry point of the currently imported ``repro``."""
        gpu_mod = importlib.import_module("repro.sim.gpu")
        self._patch(gpu_mod.GPU, "launch",
                    self._launch_wrapper(gpu_mod.GPU.launch))
        for name, module, cls, attr in HOT:
            owner = _owner(module, cls)
            self._patch(owner, attr,
                        self._hot_wrapper(name, getattr(owner, attr)))
        sched = importlib.import_module("repro.sim.schedulers")
        for cls in SCHEDULERS:
            owner = getattr(sched, cls)
            self._patch(owner, "pick", self._hot_wrapper(
                "sched.pick", owner.pick, count_hits=True))
        for name, module, cls, attr in COARSE:
            owner = _owner(module, cls)
            self._patch(owner, attr,
                        self._coarse_wrapper(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- reporting ---------------------------------------------------------------

    def leg_seconds(self) -> dict[str, float]:
        """Inclusive launch seconds per engine leg."""
        out: dict[str, float] = {}
        for span in self.spans:
            if span["name"] == "gpu.launch":
                out[span["leg"]] = (out.get(span["leg"], 0.0)
                                    + span["end"] - span["start"])
        return out

    def totals(self) -> dict[str, list]:
        """Span name -> [calls, inclusive s, self s] over every operation."""
        out: dict[str, list] = {}
        for (_op, name), (calls, incl, self_s) in self.hot.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for span in self.spans:
            acc = out.setdefault(span["name"], [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += span["end"] - span["start"]
            acc[2] += span["self"]
        return out

    def dump(self, path) -> None:
        """Write every coarse span and per-operation hot aggregate."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        doc = {
            "spans": [dict(s, start=s["start"] - origin,
                           end=s["end"] - origin) for s in self.spans],
            "hot": [{"op": op, "name": name, "calls": calls,
                     "incl_s": incl, "self_s": self_s}
                    for (op, name), (calls, incl, self_s)
                    in sorted(self.hot.items(), key=lambda kv: (str(kv[0][0]), kv[0][1]))],
            "counts": self.counts,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, indent=1))
