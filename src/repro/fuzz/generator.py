"""Seeded, deterministic structured-kernel generator.

The generator composes kernels from a small grammar of **segments** (loops,
branch diamonds, barriers, shared-memory tiles, predication, strided /
gathered global accesses, global atomics, SFU chains) constrained so every
emitted kernel passes ``lint --strict`` and :meth:`Kernel.validate` *by
construction*:

* barriers only appear in uniform top-level control flow (never inside a
  divergent loop or diamond), and every shared-memory tile is fenced
  ``STS -> BAR -> LDS -> BAR``, so the barrier-divergence and shared-race
  rules cannot fire;
* every scratch register is written before it is read, on every path
  (both polarities of predicated writes are emitted), keeping
  ``uninit-read`` clean;
* all addresses are in-bounds and 4-aligned by construction: stores are
  injective (one slot per thread), loads hit read-only input buffers, and
  atomics target a dedicated accumulator buffer with exactly-commutative
  integer-valued updates (their order-dependent *old value* goes to a
  poison register no instruction ever reads);
* integer chains are magnitude-bounded (shift/multiply budgets) so values
  stay exact in float64 and inside ``int64``.

Everything is driven by a :class:`KernelSpec`-shaped plain dict (the
**spec**): ``generate_spec(seed)`` draws one from a ``random.Random(seed)``
and ``materialize(spec)`` deterministically rebuilds the kernel *and* its
workload (buffer sizes are computed statically from the segments, inputs
come from ``numpy.random.default_rng`` seeded from the spec).  Specs are
JSON-safe, which is what makes shrinking (:mod:`repro.fuzz.shrink`) and
replayable reproducer dumps (:mod:`repro.fuzz.campaign`) cheap: the
shrinker edits the spec, never the instruction stream.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field

import numpy as np

from repro.isa.instruction import Imm
from repro.isa.kernel import Kernel, KernelBuilder
from repro.sim.memory import WORD_BYTES, GlobalMemory

SPEC_VERSION = 1

#: Register conventions (regs_per_thread is fixed at 16).
R_TID = 0       # tid_x
R_CTAID = 1     # ctaid_x            (only materialized when grid_x > 1)
R_NTID = 2      # ntid_x             (only materialized when grid_x > 1)
R_GTID = 3      # global thread id   (aliases R_TID when grid_x == 1)
R_BYTEOFF = 4   # gtid * 4
R_ACC = 5       # float accumulator (loaded from in0, stored to out)
R_ADDR = 6      # prologue/epilogue address scratch
R_INT = 7       # integer scratch
R_FLT = 8       # float scratch
R_FLT2 = 9      # second float scratch
R_PRED = 10     # predicate register
R_INT2 = 11     # second integer scratch
R_POISON = 12   # atomic old-value sink; never read by any instruction
R_CTR = 13      # loop counter
R_BOUND = 14    # loop bound (divergent loops)
NUM_REGS = 16

#: Launch-parameter slots (``%param<i>``): buffer base addresses in order.
PARAM_IN0, PARAM_IN1, PARAM_OUT, PARAM_AUX, PARAM_IDX = range(5)

AUX_WORDS = 8  # atomic accumulator buffer (power of two)

SEGMENT_KINDS = ("arith", "loop", "gload", "gather", "smem", "pred",
                 "ifelse", "atomic", "sfu", "bar")


@dataclass(frozen=True)
class GenConfig:
    """Knobs of the generator grammar.

    ``version`` participates in spec fingerprints: changing the grammar in
    a way that alters what a (version, seed) pair produces must bump it,
    so stale stored entries and reproducer dumps are never misread.
    """

    version: int = SPEC_VERSION
    min_segments: int = 1
    max_segments: int = 6
    cta_choices: tuple[int, ...] = (32, 48, 64, 128)
    grid_choices: tuple[int, ...] = (1, 2, 3, 4)
    kinds: tuple[str, ...] = SEGMENT_KINDS

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "min_segments": self.min_segments,
            "max_segments": self.max_segments,
            "cta_choices": list(self.cta_choices),
            "grid_choices": list(self.grid_choices),
            "kinds": list(self.kinds),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GenConfig":
        return cls(
            version=int(data.get("version", SPEC_VERSION)),
            min_segments=int(data.get("min_segments", 1)),
            max_segments=int(data.get("max_segments", 6)),
            cta_choices=tuple(data.get("cta_choices", (32, 48, 64, 128))),
            grid_choices=tuple(data.get("grid_choices", (1, 2, 3, 4))),
            kinds=tuple(data.get("kinds", SEGMENT_KINDS)),
        )


def spec_fingerprint(spec: dict) -> str:
    """Stable 16-hex-char identity of one spec (content-addressed)."""
    blob = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Spec generation
# ---------------------------------------------------------------------------

def _gen_segment(rng: random.Random, kind: str) -> dict:
    if kind == "arith":
        return {"kind": "arith", "flavor": rng.choice(("int", "float")),
                "n": rng.randint(2, 10), "sub": rng.randrange(1 << 30)}
    if kind == "loop":
        return {"kind": "loop", "trips": rng.randint(2, 8),
                "divergent": rng.random() < 0.4,
                "body_n": rng.randint(1, 4), "sub": rng.randrange(1 << 30)}
    if kind == "gload":
        return {"kind": "gload", "buf": rng.randint(0, 1),
                "stride": rng.choice((0, 1, 1, 2, 3, 8, 33)),
                "offset": rng.randint(0, 64), "fold": True,
                "writeback": rng.random() < 0.25}
    if kind == "gather":
        return {"kind": "gather", "fold": True}
    if kind == "smem":
        return {"kind": "smem", "rot": rng.randint(1, 31),
                "src": rng.choice(("acc", "tid"))}
    if kind == "pred":
        return {"kind": "pred", "cut": rng.randint(1, 96),
                "v1": round(rng.uniform(0.25, 4.0), 3),
                "v2": round(rng.uniform(0.25, 4.0), 3)}
    if kind == "ifelse":
        return {"kind": "ifelse", "cut": rng.randint(1, 96),
                "c1": round(rng.uniform(0.25, 4.0), 3),
                "c2": round(rng.uniform(0.25, 4.0), 3)}
    if kind == "atomic":
        return {"kind": "atomic", "op": rng.choice(("add", "max")),
                "slots": rng.choice((1, 2, 4, 8)),
                "val": rng.choice(("one", "tid"))}
    if kind == "sfu":
        return {"kind": "sfu", "fn": rng.choice(("sqrt", "exp", "div"))}
    if kind == "bar":
        return {"kind": "bar"}
    raise ValueError(f"unknown segment kind {kind!r}")


def generate_spec(seed: int, gen: GenConfig | None = None) -> dict:
    """Draw one kernel spec; same (seed, gen) always yields the same spec."""
    gen = gen or GenConfig()
    # Seeding with a string is deterministic across processes and platforms
    # (CPython hashes str seeds with sha512, not the randomized hash()).
    rng = random.Random(f"repro-fuzz:v{gen.version}:{seed}")
    segments = [_gen_segment(rng, rng.choice(gen.kinds))
                for _ in range(rng.randint(gen.min_segments, gen.max_segments))]
    # Pin every atomic segment to one reduction op: same-op commutative
    # reductions reach the same final cell value under any thread
    # interleaving, but *mixed* ops (max after some adds vs. before all
    # of them) are schedule-dependent and would make the sequential
    # reference executor diverge from any legitimate simulator ordering.
    atomics = [seg for seg in segments if seg["kind"] == "atomic"]
    for seg in atomics[1:]:
        seg["op"] = atomics[0]["op"]
    return {
        "v": gen.version,
        "seed": seed,
        "cta_x": rng.choice(gen.cta_choices),
        "grid_x": rng.choice(gen.grid_choices),
        "use_acc": True,
        "segments": segments,
    }


# ---------------------------------------------------------------------------
# Materialization: spec -> kernel + workload
# ---------------------------------------------------------------------------

def _needs(spec: dict) -> dict:
    """What the prologue must materialize, derived from the segments."""
    kinds = {seg["kind"] for seg in spec["segments"]}
    use_acc = bool(spec.get("use_acc", True))
    needs = {
        "acc": use_acc,
        "gtid": use_acc or bool(kinds & {"gload", "gather"}),
        "byteoff": use_acc or "gather" in kinds,
        "smem": "smem" in kinds,
    }
    return needs


def _buffer_words(spec: dict) -> dict[str, int]:
    """Statically computed buffer sizes (words) covering every access."""
    nthreads = spec["cta_x"] * spec["grid_x"]
    words = {"in0": nthreads, "in1": 1, "out": nthreads,
             "aux": AUX_WORDS, "idx": nthreads}
    for seg in spec["segments"]:
        if seg["kind"] == "gload":
            need = (nthreads - 1) * seg["stride"] + seg["offset"] + 1
            name = "in0" if seg["buf"] == 0 else "in1"
            words[name] = max(words[name], need)
    return words


class _Emitter:
    """Tracks per-segment label uniqueness while emitting one spec."""

    def __init__(self, spec: dict):
        self.spec = spec
        self.use_acc = bool(spec.get("use_acc", True))
        self.grid_x = spec["grid_x"]
        self.cta_x = spec["cta_x"]
        # When the grid is a single CTA the global thread id *is* tid_x;
        # skip the imad and alias the register (keeps shrunken kernels
        # at their true minimum instruction count).
        self.gtid_reg = R_TID if self.grid_x == 1 else R_GTID

    def prologue(self, b: KernelBuilder, needs: dict) -> None:
        b.s2r(R_TID, "tid_x")
        if needs["gtid"] and self.grid_x > 1:
            b.s2r(R_CTAID, "ctaid_x")
            b.s2r(R_NTID, "ntid_x")
            b.imad(R_GTID, R_CTAID, R_NTID, R_TID)
        if needs["byteoff"]:
            b.shl(R_BYTEOFF, self.gtid_reg, Imm(2))
        if needs["acc"]:
            b.s2r(R_ADDR, f"param{PARAM_IN0}")
            b.iadd(R_ADDR, R_ADDR, R_BYTEOFF)
            b.ldg(R_ACC, R_ADDR)

    def epilogue(self, b: KernelBuilder, needs: dict) -> None:
        if needs["acc"]:
            b.s2r(R_ADDR, f"param{PARAM_OUT}")
            b.iadd(R_ADDR, R_ADDR, R_BYTEOFF)
            b.stg(R_ADDR, R_ACC)
        b.exit()

    # -- segments ---------------------------------------------------------

    def segment(self, b: KernelBuilder, i: int, seg: dict) -> None:
        getattr(self, "_seg_" + seg["kind"])(b, i, seg)

    def _fold(self, b: KernelBuilder, src: int) -> None:
        if self.use_acc:
            b.fadd(R_ACC, R_ACC, src)

    def _float_seed(self, b: KernelBuilder, dst: int) -> None:
        """Define a float scratch value on every path, acc or not."""
        if self.use_acc:
            b.fadd(dst, R_ACC, Imm(0.5))
        else:
            b.i2f(dst, R_TID)
            b.fadd(dst, dst, Imm(0.5))

    def _seg_arith(self, b: KernelBuilder, i: int, seg: dict) -> None:
        rng = random.Random(f"arith:{seg['sub']}")
        if seg["flavor"] == "int":
            b.iadd(R_INT, R_TID, Imm(rng.randint(1, 9)))
            b.xor(R_INT2, R_TID, Imm(rng.randint(1, 9)))
            muls = shifts = 0
            for _ in range(seg["n"]):
                op = rng.choice(("iadd", "isub", "imul", "and_", "or_",
                                 "xor", "shl", "shr", "imin", "imax"))
                # Magnitude budget: at most two multiplies and two shifts
                # per segment keeps every intermediate exact in float64
                # and far inside int64.
                if op == "imul":
                    if muls >= 2:
                        op = "iadd"
                    else:
                        muls += 1
                if op == "shl":
                    if shifts >= 2:
                        op = "or_"
                    else:
                        shifts += 1
                rhs = (R_INT2 if op not in ("shl", "shr") and rng.random() < 0.4
                       else Imm(rng.randint(1, 4) if op in ("shl", "shr", "imul")
                                else rng.randint(1, 9)))
                getattr(b, op)(R_INT, R_INT, rhs)
            b.i2f(R_FLT, R_INT)
            b.fmul(R_FLT, R_FLT, Imm(0.125))
            self._fold(b, R_FLT)
        else:
            self._float_seed(b, R_FLT)
            for _ in range(seg["n"]):
                op = rng.choice(("fadd", "fsub", "fmul", "fmin", "fmax", "ffma"))
                c = Imm(round(rng.uniform(0.25, 4.0), 3))
                if op == "ffma":
                    b.ffma(R_FLT, R_FLT, c, Imm(round(rng.uniform(0.25, 4.0), 3)))
                else:
                    getattr(b, op)(R_FLT, R_FLT, c)
            self._fold(b, R_FLT)

    def _seg_loop(self, b: KernelBuilder, i: int, seg: dict) -> None:
        rng = random.Random(f"loop:{seg['sub']}")
        label = f"L{i}_top"
        b.movi(R_CTR, 0)
        if seg["divergent"]:
            b.and_(R_BOUND, R_TID, Imm(3))
            b.iadd(R_BOUND, R_BOUND, Imm(seg["trips"]))
        if self.use_acc:
            b.movi(R_FLT, 1.0)
        else:
            b.movi(R_INT, 0)
        b.label(label)
        for _ in range(seg["body_n"]):
            if self.use_acc:
                op = rng.choice(("fadd", "fmul"))
                getattr(b, op)(R_FLT, R_FLT,
                               Imm(round(rng.uniform(0.5, 1.5), 3)))
            else:
                b.iadd(R_INT, R_INT, Imm(rng.randint(1, 5)))
        b.iadd(R_CTR, R_CTR, Imm(1))
        if seg["divergent"]:
            b.setp("lt", R_PRED, R_CTR, R_BOUND)
        else:
            b.setp("lt", R_PRED, R_CTR, Imm(seg["trips"]))
        b.bra(label, pred=R_PRED)
        if self.use_acc:
            self._fold(b, R_FLT)

    def _seg_gload(self, b: KernelBuilder, i: int, seg: dict) -> None:
        if seg["stride"] == 0:
            b.movi(R_INT, seg["offset"])
        else:
            b.imul(R_INT, self.gtid_reg, Imm(seg["stride"]))
            if seg["offset"]:
                b.iadd(R_INT, R_INT, Imm(seg["offset"]))
        b.shl(R_INT, R_INT, Imm(2))
        param = PARAM_IN0 if seg["buf"] == 0 else PARAM_IN1
        b.s2r(R_INT2, f"param{param}")
        b.iadd(R_INT, R_INT, R_INT2)
        b.ldg(R_FLT, R_INT)
        if seg.get("writeback"):
            # Store the loaded value straight back to its own address: the
            # memory image is unchanged (even when threads share an address
            # they all write the value that was already there), but the STG
            # now *depends* on the fill — a minimal kernel whose timing is
            # sensitive to load latency, which is what fault-injection
            # canaries shrink down to.
            b.stg(R_INT, R_FLT)
        if seg.get("fold", True):
            self._fold(b, R_FLT)

    def _seg_gather(self, b: KernelBuilder, i: int, seg: dict) -> None:
        b.s2r(R_INT2, f"param{PARAM_IDX}")
        b.iadd(R_INT, R_INT2, R_BYTEOFF)
        b.ldg(R_INT, R_INT)  # word index into in0, in [0, nthreads)
        b.shl(R_INT, R_INT, Imm(2))
        b.s2r(R_INT2, f"param{PARAM_IN0}")
        b.iadd(R_INT, R_INT, R_INT2)
        b.ldg(R_FLT, R_INT)
        if seg.get("fold", True):
            self._fold(b, R_FLT)

    def _seg_smem(self, b: KernelBuilder, i: int, seg: dict) -> None:
        b.shl(R_INT, R_TID, Imm(2))
        if seg["src"] == "acc" and self.use_acc:
            b.sts(R_INT, R_ACC)
        else:
            b.i2f(R_FLT, R_TID)
            b.sts(R_INT, R_FLT)
        b.bar()
        rot = 1 + (seg["rot"] - 1) % (self.cta_x - 1)  # never the identity
        b.iadd(R_INT, R_TID, Imm(rot))
        if self.cta_x & (self.cta_x - 1) == 0:
            b.and_(R_INT, R_INT, Imm(self.cta_x - 1))
        else:
            b.irem(R_INT, R_INT, Imm(self.cta_x))
        b.shl(R_INT, R_INT, Imm(2))
        b.lds(R_FLT, R_INT)
        b.bar()
        self._fold(b, R_FLT)

    def _seg_pred(self, b: KernelBuilder, i: int, seg: dict) -> None:
        cut = 1 + (seg["cut"] - 1) % max(1, self.cta_x - 1)
        b.setp("lt", R_PRED, R_TID, Imm(cut))
        b.movi(R_FLT, seg["v1"], pred=R_PRED)
        b.movi(R_FLT, seg["v2"], pred=R_PRED, pred_neg=True)
        self._fold(b, R_FLT)

    def _seg_ifelse(self, b: KernelBuilder, i: int, seg: dict) -> None:
        cut = 1 + (seg["cut"] - 1) % max(1, self.cta_x - 1)
        if not self.use_acc:
            b.i2f(R_FLT2, R_TID)
        src = R_ACC if self.use_acc else R_FLT2
        b.setp("ge", R_PRED, R_TID, Imm(cut))
        b.bra(f"F{i}_else", pred=R_PRED, pred_neg=True)
        b.fmul(R_FLT, src, Imm(seg["c1"]))
        b.bra(f"F{i}_end")
        b.label(f"F{i}_else")
        b.fadd(R_FLT, src, Imm(seg["c2"]))
        b.label(f"F{i}_end")
        self._fold(b, R_FLT)

    def _seg_atomic(self, b: KernelBuilder, i: int, seg: dict) -> None:
        b.and_(R_INT, R_TID, Imm(seg["slots"] - 1))
        b.shl(R_INT, R_INT, Imm(2))
        b.s2r(R_INT2, f"param{PARAM_AUX}")
        b.iadd(R_INT, R_INT, R_INT2)
        if seg["val"] == "one":
            b.movi(R_FLT2, 1.0)
        else:
            b.i2f(R_FLT2, R_TID)
        if seg["op"] == "max":
            b.atomg_max(R_POISON, R_INT, R_FLT2)
        else:
            b.atomg_add(R_POISON, R_INT, R_FLT2)

    def _seg_sfu(self, b: KernelBuilder, i: int, seg: dict) -> None:
        self._float_seed(b, R_FLT)
        if seg["fn"] == "sqrt":
            b.fabs(R_FLT, R_FLT)
            b.fsqrt(R_FLT, R_FLT)
        elif seg["fn"] == "exp":
            b.fmin(R_FLT, R_FLT, Imm(20.0))
            b.fexp(R_FLT, R_FLT)
        else:
            b.fdiv(R_FLT, R_FLT, Imm(1.75))
        self._fold(b, R_FLT)

    def _seg_bar(self, b: KernelBuilder, i: int, seg: dict) -> None:
        b.bar()


@dataclass
class FuzzCase:
    """One materialized spec: the kernel plus its deterministic workload."""

    spec: dict
    kernel: Kernel
    grid_dim: tuple[int, int, int]
    buffers: list  # [(name, words, values | None)] in allocation order
    nthreads: int
    needs: dict = field(repr=False, default_factory=dict)

    def make_gmem(self, line_bytes: int = 128) -> tuple[GlobalMemory, tuple]:
        """A fresh global memory with inputs written; returns (gmem, params).

        The memory is exactly the line-aligned buffers laid end to end, so
        the allocator hands out the same bases as in any larger memory,
        and an access past the last buffer is out of bounds.
        """
        size = sum(-(-words * WORD_BYTES // line_bytes) * line_bytes
                   for _name, words, _values in self.buffers)
        gmem = GlobalMemory(size_bytes=size, line_bytes=line_bytes)
        bases = []
        for name, words, values in self.buffers:
            bases.append(gmem.alloc(name, words))
            if values is not None:
                gmem.write(name, values)
        return gmem, tuple(float(base) for base in bases)


def materialize(spec: dict) -> FuzzCase:
    """Deterministically rebuild the kernel and workload for ``spec``."""
    needs = _needs(spec)
    emitter = _Emitter(spec)
    words = _buffer_words(spec)
    nthreads = spec["cta_x"] * spec["grid_x"]
    smem_bytes = spec["cta_x"] * 4 if needs["smem"] else 0

    b = KernelBuilder(f"fuzz_{spec['seed']}", regs_per_thread=NUM_REGS,
                      smem_bytes=smem_bytes, cta_dim=(spec["cta_x"], 1, 1))
    emitter.prologue(b, needs)
    for i, seg in enumerate(spec["segments"]):
        emitter.segment(b, i, seg)
    emitter.epilogue(b, needs)
    kernel = b.build()

    seed = spec["seed"]
    in0 = np.random.default_rng((seed, 1)).uniform(0.25, 2.0, words["in0"])
    in1 = np.random.default_rng((seed, 2)).uniform(0.25, 2.0, words["in1"])
    idx = np.random.default_rng((seed, 3)).integers(
        0, nthreads, words["idx"]).astype(np.float64)
    buffers = [
        ("in0", words["in0"], in0),
        ("in1", words["in1"], in1),
        ("out", words["out"], None),
        ("aux", words["aux"], None),
        ("idx", words["idx"], idx),
    ]
    return FuzzCase(spec=spec, kernel=kernel,
                    grid_dim=(spec["grid_x"], 1, 1), buffers=buffers,
                    nthreads=nthreads, needs=needs)
