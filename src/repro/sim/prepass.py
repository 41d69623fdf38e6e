"""Functional-first execution: one batched pre-pass per launch.

On the default engine (serial, fast-forward) a launch runs in two parts.
Before its first cycle, :func:`run_prepass` executes the whole grid with
no timing model.  Warps are batched across CTAs: one numpy operation
covers every warp standing at the same pc.  The pre-pass records a
compact stream per warp: the pc and executing lane count of every
instruction the warp issues, and for each memory access its coalesced
lines or shared-memory bank passes (plus its lane byte addresses when the
sanitizer runs).  The SM then replays the next entry of that stream
(:meth:`WarpStream.step`) where the per-issue engine calls
:func:`repro.sim.exec.functional_step`, so a stepped cycle does timing
only.

**What the pre-pass keeps of the per-issue executor.**  Each warp keeps
its own SIMT reconvergence stack, with :class:`repro.sim.warp.Warp`'s
rules: the not-taken side runs first, entries pop at ``reconv_pc``, and
exited lanes drop out.  So a warp's pc and mask sequence is the one the
SM produces; only the order *between* warps differs.  Each batch step
takes the lowest pc any runnable warp stands at.  A warp that reaches
``BAR`` waits until every unfinished warp of its CTA has arrived or
exited, which is the SM's release rule.  What an instruction computes
is defined once, for both executors: the op table
(:data:`repro.sim.exec.OPS`, with its domain checks), the address check
(:func:`repro.sim.memory.word_indices`) and the special registers
(:func:`repro.sim.cta.special_regs`).  So every value comes from the same
numpy expression on the same inputs.

**Why the order between warps does not matter, proved per launch.**
Registers are private to a warp, so only memory can tell two warp orders
apart: a load may see a different store, or two stores may land in a
different order.  Both the SM's order and the pre-pass's keep each warp's
program order.  Both respect barriers: whatever a warp does before its
k-th barrier precedes whatever any warp of its CTA does after the k-th
release.  So the two executions can differ only on a word that two warps
touch with no barrier between them, at least one of them writing.  That
is a word

* touched by two CTAs and written by at least one (nothing orders CTAs), or
* touched by two warps of one CTA within one barrier phase and written by
  at least one.

The pre-pass tracks, per global and per shared word, which CTA touched it
and which warp touched it in its CTA's current phase
(:class:`_WordLog`), and rejects the launch at the first such word.
Race-freedom is checked, not assumed.  When no such word exists, every
load sees the same value and memory ends the same under either order.

**Fallback.**  A launch executes per issue instead (``functional_step``
on every issue, as the per-cycle reference engine always does) when

* it has an atomic (:data:`ATOMIC`): an atomic returns the old value,
  which depends on the order;
* it touches a word as above (:data:`CROSS_CTA`, :data:`RACE`);
* the pre-pass raises (:data:`ERROR`), e.g. on a division by zero; the
  per-issue run then raises the same error at its own cycle;
* a warp would issue more instructions than the cycle budget allows
  (:data:`BUDGET`); the per-issue run then times out at the reference
  cycle;
* no warp can run while some are unfinished (:data:`DEADLOCK`).  The
  warp-level barrier cannot deadlock, so this is a guard.

Global memory is restored bit for bit before the fallback run: the
pre-pass logs the old value of every word it stores.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instruction import Imm, Reg, SReg
from repro.sim.cta import special_regs
from repro.sim.exec import _CMP, _MEMORY_OPS, OPS, ExecResult
from repro.sim.memory import word_indices

#: Fallback reasons (see the module docstring).
ATOMIC = "atomic"
CROSS_CTA = "cross-cta-sharing"
RACE = "intra-cta-race"
ERROR = "execution-error"
DEADLOCK = "barrier-deadlock"
BUDGET = "step-budget"

_FULL = 0xFFFFFFFF
_LANES = np.arange(32, dtype=np.int64)
#: Sort key of a warp that cannot run: at a barrier or finished (and the
#: value of a lane that does not execute, in the per-access lane rows).
_IDLE = np.iinfo(np.int64).max
#: ``StackEntry.rpc`` of None (``EXIT_PC`` is -1).
_NO_RPC = -2
#: CTAs run in chunks of at most this many threads, so the pre-pass's
#: register file stays small whatever the grid size.
_CHUNK_THREADS = 1 << 13


class _Fallback(Exception):
    """The pre-pass cannot vouch for this launch; ``reason`` says why."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class WarpStream:
    """One warp's replay cursor over its slice of a :class:`LaunchStream`.

    ``pcs`` ends with ``None``: the pc the warp stands at after its last
    instruction (it has finished).  Each memory access that executes at
    least one lane has a ``costs`` entry: its coalesced line count (global)
    or its bank-conflict passes (shared); ``lines`` holds the global
    accesses' line addresses back to back.  ``addrs``/``spans`` (the lane
    byte addresses, and how many each access has) are recorded only for
    sanitized launches, whose per-issue check reads them."""

    __slots__ = ("pcs", "lanes", "cursor", "costs", "mem", "lines", "line",
                 "addrs", "spans", "checked", "offset")

    def __init__(self, pcs: list, lanes: list, costs: list, lines: list,
                 addrs, spans):
        self.pcs = pcs
        self.lanes = lanes
        self.cursor = 0
        self.costs = costs
        self.mem = 0  # next memory access
        self.lines = lines
        self.line = 0  # its first line in ``lines``
        self.addrs = addrs
        self.spans = spans
        self.checked = 0  # next memory access the sanitizer reads
        self.offset = 0  # its first address in ``addrs``

    def step(self, warp) -> int:
        """Replay the next instruction: move ``warp`` to the pc after it
        (finishing it after the last) and return its executing lane count."""
        i = self.cursor
        self.cursor = i + 1
        pc = self.pcs[i + 1]
        warp.pc = pc
        if pc is None:
            warp.finished = True
        return self.lanes[i]

    def take_lines(self) -> list[int]:
        """The coalesced line addresses of the global access just replayed
        (``repro.sim.ldst.coalesce`` of its lane addresses)."""
        j = self.mem
        self.mem = j + 1
        start = self.line
        stop = self.line = start + self.costs[j]
        return self.lines[start:stop]

    def take_passes(self) -> int:
        """The bank-conflict passes of the shared access just replayed
        (``repro.sim.ldst.bank_conflict_passes`` of its lane addresses)."""
        j = self.mem
        self.mem = j + 1
        return self.costs[j]

    def replayed(self, info, lanes: int) -> ExecResult:
        """The sanitizer's view of the instruction just replayed."""
        if not (lanes and info.is_mem):
            return ExecResult(lanes)
        j = self.checked
        self.checked = j + 1
        start = self.offset
        stop = self.offset = start + self.spans[j]
        return ExecResult(lanes, _MEMORY_OPS[info.key][0],
                          self.addrs[start:stop])


class LaunchStream:
    """Every warp's stream of one launch, in flat arrays, one part per
    chunk of CTAs the pre-pass ran (see :meth:`_Chunk.stream_part`).

    In a part, warp ``g`` (counted from the chunk's first warp) owns
    ``pcs[ev[g]:ev[g + 1]]`` and ``lanes`` alike,
    ``costs[mem[g]:mem[g + 1]]``, ``lines[ln[g]:ln[g + 1]]`` and, on a
    sanitized launch, ``addrs[ad[g]:ad[g + 1]]`` with one ``spans`` entry
    per access.  Nothing here is a Python object per warp-instruction;
    :meth:`warp` builds a warp's lists when its CTA is seated."""

    def __init__(self, warps_per_cta: int, ctas_per_chunk: int,
                 parts: list[dict]):
        self.warps_per_cta = warps_per_cta
        self.ctas_per_chunk = ctas_per_chunk
        self.parts = parts

    def warp(self, cta_id: int, local_wid: int) -> WarpStream:
        chunk, cta = divmod(cta_id, self.ctas_per_chunk)
        part = self.parts[chunk]
        g = cta * self.warps_per_cta + local_wid
        ev, mem, ln = part["ev"], part["mem"], part["ln"]
        pcs = part["pcs"][ev[g]:ev[g + 1]].tolist()
        pcs.append(None)
        addrs = spans = None
        if "addrs" in part:
            ad = part["ad"]
            addrs = part["addrs"][ad[g]:ad[g + 1]]
            spans = part["spans"][mem[g]:mem[g + 1]].tolist()
        return WarpStream(pcs, part["lanes"][ev[g]:ev[g + 1]].tolist(),
                          part["costs"][mem[g]:mem[g + 1]].tolist(),
                          part["lines"][ln[g]:ln[g + 1]].tolist(),
                          addrs, spans)


class _WordLog:
    """Per-word access record of one memory space: the race check.

    ``epoch`` is the (CTA, barrier phase) key of the latest phase that
    touched the word, ``warp`` the warp that touched it in that phase (-2:
    several) and ``wrote`` whether that phase wrote it.  For global memory,
    ``owner`` also records the CTAs: 0 untouched, 1 read by several,
    ``2c + 2`` read only by CTA ``c``, ``2c + 3`` written by CTA ``c`` and
    touched by no other.  The arrays cover the words a launch's buffers
    span and grow on demand past them."""

    def __init__(self, size: int, global_space: bool):
        self.epoch = np.full(size, -1, np.int32)
        self.warp = np.full(size, -1, np.int32)
        self.wrote = np.zeros(size, bool)
        self.owner = np.zeros(size, np.int32) if global_space else None

    def _grow(self, size: int) -> None:
        extra = size - self.epoch.size
        self.epoch = np.concatenate([self.epoch, np.full(extra, -1, np.int32)])
        self.warp = np.concatenate([self.warp, np.full(extra, -1, np.int32)])
        self.wrote = np.concatenate([self.wrote, np.zeros(extra, bool)])
        if self.owner is not None:
            self.owner = np.concatenate([self.owner, np.zeros(extra, np.int32)])

    def access(self, idx, cta, warp, epoch, write: bool) -> None:
        """Log one batch of accesses (word ``idx[i]`` by thread ``i``),
        raising :class:`_Fallback` at the first racing word."""
        top = int(idx.max()) + 1
        if top > self.epoch.size:
            self._grow(max(top, self.epoch.size * 3 // 2))
        if self.owner is not None:
            self._check_ctas(idx, cta, write)
        log_warp = self.warp
        same = self.epoch[idx] == epoch
        seen = log_warp[idx]
        if write:
            if np.count_nonzero(same & (seen != warp)):
                raise _Fallback(RACE)
            self.epoch[idx] = epoch
            log_warp[idx] = warp
            self.wrote[idx] = True
            clash = log_warp[idx] != warp  # two warps store one word
            if np.count_nonzero(clash):
                raise _Fallback(RACE)
            return
        wrote = self.wrote[idx]
        other = same & (seen != warp)
        if np.count_nonzero(other & wrote):
            raise _Fallback(RACE)
        new = np.where(other, -2, warp)
        self.epoch[idx] = epoch
        log_warp[idx] = new
        self.wrote[idx] = same & wrote
        clash = log_warp[idx] != new  # two warps load one word
        if np.count_nonzero(clash):
            log_warp[idx[clash]] = -2

    def _check_ctas(self, idx, cta, write: bool) -> None:
        owner = self.owner
        seen = owner[idx]
        mine = 2 * cta + 2
        if write:
            bad = (seen != 0) & ((seen >> 1) != cta + 1)
            if np.count_nonzero(bad):
                raise _Fallback(CROSS_CTA)
            owner[idx] = mine + 1
            clash = owner[idx] != mine + 1  # two CTAs store one word
            if np.count_nonzero(clash):
                raise _Fallback(CROSS_CTA)
            return
        odd = (seen & 1) == 1
        bad = odd & (seen > 1) & ((seen >> 1) != cta + 1)
        if np.count_nonzero(bad):
            raise _Fallback(CROSS_CTA)
        new = np.where(seen == 0, mine, np.where(~odd & (seen != mine), 1, seen))
        owner[idx] = new
        clash = owner[idx] != new  # two CTAs load one word
        if np.count_nonzero(clash):
            owner[idx[clash]] = 1


def _gather(masks: np.ndarray) -> np.ndarray:
    """``(k, 32)`` lane matrix of ``k`` 32-bit masks."""
    return ((masks[:, None] >> _LANES) & 1).astype(bool)


def _pack(lanes: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_gather`: int64 masks of a ``(k, 32)`` matrix."""
    packed = np.packbits(lanes, axis=1, bitorder="little")
    return packed.view("<u4").ravel().astype(np.int64)


def _distinct(values, lanes, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Per warp, the distinct ``values`` of its executing lanes (``values``
    is flat over them, ``lanes`` their ``(k, 32)`` matrix or None for full
    warps): ``(rows, keep)`` where ``rows[keep]`` lists each warp's
    distinct values in ascending order, warp after warp."""
    if lanes is None:
        rows = values.reshape(k, 32)
    else:
        rows = np.full((k, 32), _IDLE, np.int64)
        rows[lanes] = values
    rows = np.sort(rows, axis=1)
    keep = np.empty(rows.shape, bool)
    keep[:, 0] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=keep[:, 1:])
    keep &= rows != _IDLE
    return rows, keep


def _coalesce(addrs, lanes, k: int, line_bytes: int):
    """:func:`repro.sim.ldst.coalesce` for ``k`` warps at once:
    ``(lines per warp, line addresses warp after warp)``."""
    rows, keep = _distinct(addrs // line_bytes, lanes, k)
    return np.count_nonzero(keep, axis=1), rows[keep] * line_bytes


def _bank_passes(addrs, lanes, k: int, banks: int) -> np.ndarray:
    """:func:`repro.sim.ldst.bank_conflict_passes` for ``k`` warps at once:
    the most distinct words any bank serves, per warp."""
    rows, keep = _distinct(addrs >> 2, lanes, k)
    slot = (np.arange(k)[:, None] * banks + rows % banks)[keep]
    return np.bincount(slot, minlength=k * banks).reshape(k, banks).max(1)


class _Chunk:
    """The pre-pass over one chunk of consecutive CTAs.

    A warp's SIMT stack is split: its top entry lives in the per-warp
    vectors ``pc``, ``rpc`` and ``act`` (the top mask less exited lanes),
    the entries below it in the ``(warp, depth)`` arrays ``st_*``, so the
    straight-line step touches vectors only."""

    def __init__(self, run, first_cta: int, ctas: int):
        kernel = run.kernel
        self.run = run
        self.first_cta = first_cta
        wpc = self.warps_per_cta = run.warps_per_cta
        nw = ctas * wpc
        self.regs = np.zeros((kernel.regs_per_thread, nw * 32))
        # Warp after warp: thread ``32 w + l`` of a CTA is lane ``l`` of
        # its warp ``w``.
        per_cta = wpc * 32
        self.sregs = special_regs(
            kernel, run.grid, run.params,
            np.repeat(np.arange(first_cta, first_cta + ctas, dtype=np.float64),
                      per_cta),
            np.tile(np.arange(per_cta, dtype=np.float64), ctas))
        self.threads = np.arange(nw * 32, dtype=np.int64).reshape(nw, 32)
        smem_words = self.smem_words = max(1, kernel.smem_bytes // 4)
        self.sdata = np.zeros(ctas * smem_words)
        self.slog = _WordLog(ctas * smem_words, global_space=False)
        # Live lanes, by Warp's rule: only a CTA's last warp can be partial.
        threads = kernel.threads_per_cta
        live = np.tile(np.array([(1 << min(32, threads - w * 32)) - 1
                                 for w in range(wpc)], np.int64), ctas)
        self.exited = ~live & _FULL
        self.pc = np.zeros(nw, np.int64)
        self.rpc = np.full(nw, _NO_RPC, np.int64)
        self.act = live
        self.key = np.zeros(nw, np.int64)  # pc, or _IDLE
        self.depth = np.zeros(nw, np.int64)
        self.st_pc = np.zeros((nw, 2), np.int64)
        self.st_rpc = np.zeros((nw, 2), np.int64)
        self.st_mask = np.zeros((nw, 2), np.int64)
        self.at_bar = np.zeros(nw, bool)
        self.done = np.zeros(nw, bool)
        # (CTA, phase) key per CTA: ``cta + phase * total_ctas``.  Kept in
        # int32, where it wraps after 2**32 keys; two epochs sharing a key
        # can only make _WordLog see a race that is not there (a needless
        # fallback), never miss one.
        self.epoch = np.arange(first_cta, first_cta + ctas, dtype=np.int32)
        # Event log: per batch step its warps, pc and executing lane counts.
        self.ev_warps: list[np.ndarray] = []
        self.ev_pcs: list[int] = []
        self.ev_lanes: list[np.ndarray] = []
        # Memory accesses that execute a lane: per batch step its warps,
        # their costs and line counts, the line addresses, and (sanitized
        # launches only) the lane counts and lane addresses.
        self.mem_warps: list[np.ndarray] = []
        self.mem_costs: list[np.ndarray] = []
        self.mem_lines: list[np.ndarray] = []
        self.lines: list[np.ndarray] = []
        self.mem_spans: list[np.ndarray] = []
        self.addrs: list[np.ndarray] = []

    # -- the batch loop -------------------------------------------------------

    def execute(self) -> None:
        run = self.run
        instrs = run.kernel.instrs
        reconv = run.reconv
        key = self.key
        batches = 0
        check_at = run.limit
        while True:
            p = int(key.min())
            if p == _IDLE:
                if not self._release():
                    return
                continue
            if not 0 <= p < len(instrs):
                raise _Fallback(ERROR)
            batches += 1
            if batches > check_at:
                check_at = batches + self._budget_left()
            ws = np.flatnonzero(key == p)
            instr = instrs[p]
            op = instr._op_key
            active = self.act[ws]
            if op == "BRA":
                self._record(ws, p, active)
                self._branch(instr, p, ws, active)
                continue
            exec_mask = active
            if instr.pred is not None:
                exec_mask = active & self._predicate(instr, ws)
            self._record(ws, p, exec_mask)
            if op == "EXIT":
                if instr.pred is not None:
                    raise _Fallback(ERROR)
                self.exited[ws] |= active
                self.act[ws] = 0
                self._settle(ws)
                continue
            if op == "BAR":
                if np.count_nonzero(exec_mask != active):
                    raise _Fallback(ERROR)
            elif op != "NOP":
                if instr.pred is None:
                    self._execute(instr, op, ws, exec_mask)
                else:
                    run_mask = exec_mask != 0
                    if np.count_nonzero(run_mask):
                        self._execute(instr, op, ws[run_mask],
                                      exec_mask[run_mask])
            # Fall through to the next instruction, reconverging there.
            self.pc[ws] = p + 1
            key[ws] = p + 1
            if p + 1 in reconv:
                self._settle(ws)
            if op == "BAR":
                self.at_bar[ws] = True
                key[ws] = _IDLE

    def _budget_left(self) -> int:
        """Batch steps left before some warp could exceed the cycle budget
        (a warp issues at most one instruction a cycle)."""
        most = int(np.bincount(np.concatenate(self.ev_warps)).max())
        if most > self.run.limit:
            raise _Fallback(BUDGET)
        return self.run.limit - most + 1

    def _release(self) -> bool:
        """Release every barrier (no warp can run); False once all done."""
        waiting = np.flatnonzero(self.at_bar)
        if not waiting.size:
            if not self.done.all():  # pragma: no cover - defensive guard
                raise _Fallback(DEADLOCK)
            return False
        if np.count_nonzero(~self.done & ~self.at_bar):  # pragma: no cover
            raise _Fallback(DEADLOCK)
        self.at_bar[waiting] = False
        self.key[waiting] = self.pc[waiting]
        ctas = np.zeros(self.epoch.size, bool)
        ctas[waiting // self.warps_per_cta] = True
        self.epoch[ctas] += self.run.total_ctas
        return True

    # -- SIMT stack -------------------------------------------------------------

    def _settle(self, ws: np.ndarray) -> None:
        """``Warp._cleanup`` for warps ``ws``: pop exhausted and reconverged
        entries, then refresh each warp's key (finishing emptied warps)."""
        pc, rpc, act, depth = self.pc, self.rpc, self.act, self.depth
        while ws.size:
            top = pc[ws]
            top_rpc = rpc[ws]
            pop = (act[ws] == 0) | ((top_rpc >= 0) & (top == top_rpc))
            self.key[ws] = top
            if not np.count_nonzero(pop):
                return
            ws = ws[pop]
            empty = depth[ws] == 0
            if np.count_nonzero(empty):
                gone = ws[empty]
                self.done[gone] = True
                self.key[gone] = _IDLE
                ws = ws[~empty]
            d = depth[ws] - 1
            depth[ws] = d
            pc[ws] = self.st_pc[ws, d]
            rpc[ws] = self.st_rpc[ws, d]
            act[ws] = self.st_mask[ws, d] & ~self.exited[ws]

    def _push(self, ws, pcs, rpcs, masks) -> None:
        """Save one entry below the top of each of warps ``ws``."""
        d = self.depth[ws]
        if int(d.max()) >= self.st_pc.shape[1]:
            grow = ((0, 0), (0, self.st_pc.shape[1]))
            self.st_pc = np.pad(self.st_pc, grow)
            self.st_rpc = np.pad(self.st_rpc, grow)
            self.st_mask = np.pad(self.st_mask, grow)
        self.st_pc[ws, d] = pcs
        self.st_rpc[ws, d] = rpcs
        self.st_mask[ws, d] = masks
        self.depth[ws] = d + 1

    def _branch(self, instr, p: int, ws, active) -> None:
        target = instr.target
        if instr.pred is None:
            self.pc[ws] = target
            self._settle(ws)
            return
        taken = active & self._predicate(instr, ws)
        fall = active & ~taken
        div = (taken != 0) & (fall != 0)
        # Uniform sides first: all-taken jumps, none-taken falls through.
        self.pc[ws] = np.where(fall == 0, target, p + 1)
        if np.count_nonzero(div):
            reconv = instr.reconv_pc
            if reconv is None:
                raise _Fallback(ERROR)
            # Warp.branch_divergent: the top becomes the continuation at
            # the reconvergence pc, the not-taken side goes below the
            # taken side, and the taken side runs first.
            wd = ws[div]
            self._push(wd, reconv, self.rpc[wd], active[div])
            self._push(wd, p + 1, reconv, fall[div])
            self.pc[wd] = target
            self.rpc[wd] = reconv
            self.act[wd] = taken[div]
        self._settle(ws)

    # -- operands -----------------------------------------------------------------

    def _read(self, operand, t, n: int) -> np.ndarray:
        if isinstance(operand, Reg):
            return self.regs[operand.idx][t]
        if isinstance(operand, Imm):
            return np.full(n, float(operand.value))
        if isinstance(operand, SReg):
            return self.sregs[operand.kind][t]
        raise _Fallback(ERROR)

    def _predicate(self, instr, ws) -> np.ndarray:
        values = self.regs[instr.pred.idx][self.threads[ws]] != 0
        if instr.pred_neg:
            values = ~values
        return _pack(values)

    def _record(self, ws, p: int, masks) -> None:
        self.ev_warps.append(ws)
        self.ev_pcs.append(p)
        self.ev_lanes.append(np.bitwise_count(masks))

    # -- instruction semantics ------------------------------------------------------

    def _execute(self, instr, key: str, ws, masks) -> None:
        """Run ``instr`` on the executing lanes of warps ``ws``."""
        threads = self.threads[ws]
        if np.count_nonzero(masks != _FULL):
            lanes = _gather(masks)
            t = threads[lanes]
        else:
            lanes = None
            t = threads.ravel()
        n = t.size
        entry = OPS.get(key)
        if entry is None:
            self._memory(instr, key, ws, lanes, t, n)
            return
        as_int, fn, check = entry
        if fn is None:
            fn = _CMP[instr._cmp_key]
        args = [self._read(s, t, n) for s in instr.srcs]
        if as_int:
            args = [a.astype(np.int64) for a in args]
        if check is not None:
            check(*args)
        self.regs[instr.dst.idx][t] = fn(*args)

    def _memory(self, instr, key: str, ws, lanes, t, n: int) -> None:
        ref = instr.srcs[0]
        addrs = self.regs[ref.base.idx][t].astype(np.int64) + ref.offset
        warp = t >> 5
        cta = warp // self.warps_per_cta
        epoch = self.epoch[cta]
        space, action = _MEMORY_OPS[key]
        store = action == "store"
        run = self.run
        if space == "global":
            words = word_indices(addrs, run.gmem_bytes, space)
            data = run.gdata
            run.glog.access(words, cta + self.first_cta,
                            warp + self.first_cta * self.warps_per_cta,
                            epoch, store)
        else:
            words = (word_indices(addrs, run.kernel.smem_bytes, space)
                     + cta * self.smem_words)
            data = self.sdata
            self.slog.access(words, cta, warp, epoch, store)
        if store:
            if space == "global":
                run.undo.append((words, data[words]))
            data[words] = self._read(instr.srcs[1], t, n)
        else:
            self.regs[instr.dst.idx][t] = data[words]
        k = ws.size
        if space == "shared":
            costs = _bank_passes(addrs, lanes, k, run.banks)
            self.mem_lines.append(np.zeros(k, np.int64))
        else:
            costs, lines = _coalesce(addrs, lanes, k, run.line_bytes)
            self.mem_lines.append(costs)
            self.lines.append(lines)
        self.mem_warps.append(ws)
        self.mem_costs.append(costs.astype(np.uint8))
        if run.keep_addresses:
            self.mem_spans.append(np.full(k, 32, np.int64) if lanes is None
                                  else np.count_nonzero(lanes, axis=1))
            self.addrs.append(addrs.astype(np.int32))

    # -- the chunk's streams ------------------------------------------------------

    def stream_part(self) -> dict:
        """This chunk's part of the :class:`LaunchStream`: every array in
        warp order, with per-warp start offsets."""
        nw = self.threads.shape[0]
        warps = np.concatenate(self.ev_warps)
        sizes = [w.size for w in self.ev_warps]
        pcs = np.repeat(np.array(self.ev_pcs, self.run.pc_dtype), sizes)
        order = np.argsort(warps, kind="stable")
        part = {"pcs": pcs[order], "lanes": np.concatenate(self.ev_lanes)[order],
                "ev": _offsets(np.bincount(warps, minlength=nw))}
        mwarps = _concat(self.mem_warps, np.int64)
        morder = np.argsort(mwarps, kind="stable")
        part["costs"] = _concat(self.mem_costs, np.uint8)[morder]
        part["mem"] = _offsets(np.bincount(mwarps, minlength=nw))
        nlines = _concat(self.mem_lines, np.int64)
        part["lines"] = _regroup(_concat(self.lines, np.int64), nlines, morder)
        part["ln"] = _offsets(np.bincount(mwarps, weights=nlines, minlength=nw))
        if self.run.keep_addresses:
            spans = _concat(self.mem_spans, np.int64)
            part["addrs"] = _regroup(_concat(self.addrs, np.int32), spans,
                                     morder)
            part["ad"] = _offsets(np.bincount(mwarps, weights=spans,
                                              minlength=nw))
            part["spans"] = spans[morder]
        return part


def _regroup(flat: np.ndarray, sizes: np.ndarray, order: np.ndarray
             ) -> np.ndarray:
    """Reorder the variable-length records of ``flat`` (record ``i`` has
    ``sizes[i]`` items, back to back) into the record order ``order``."""
    starts = np.cumsum(sizes) - sizes
    ordered = sizes[order]
    return flat[np.repeat(starts[order] - np.cumsum(ordered) + ordered,
                          ordered) + np.arange(ordered.sum())]


class _Run:
    """Launch-wide state of one pre-pass."""

    def __init__(self, kernel, grid, gmem, params, cfg, limit: int):
        self.kernel = kernel
        self.grid = grid
        self.params = params
        self.limit = limit
        self.line_bytes = cfg.line_bytes
        self.banks = cfg.shared_mem_banks
        # The sanitizer's per-issue check reads every access's lane
        # addresses; timing needs only the coalesced lines and bank passes.
        self.keep_addresses = cfg.sanitize
        self.gdata = gmem.data
        self.gmem_bytes = gmem.size_bytes
        self.total_ctas = grid[0] * grid[1] * grid[2]
        self.warps_per_cta = kernel.warps_per_cta()
        # Pcs a branch reconverges at: the only pcs a fall-through can pop at.
        self.reconv = frozenset(instr.reconv_pc for instr in kernel.instrs
                                if instr.reconv_pc is not None)
        self.pc_dtype = np.int16 if len(kernel.instrs) < 1 << 15 else np.int32
        self.glog = _WordLog(gmem.allocated_bytes // 4, global_space=True)
        self.undo: list[tuple[np.ndarray, np.ndarray]] = []

    def restore(self) -> None:
        """Put back every global word the pre-pass stored, newest first."""
        data = self.gdata
        for words, old in reversed(self.undo):
            data[words] = old
        self.undo.clear()


def _concat(parts: list, dtype) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype)


def _offsets(counts: np.ndarray) -> list[int]:
    """Start offsets (and the end) of consecutive runs of ``counts``."""
    return [0] + np.cumsum(counts).astype(np.int64).tolist()


def run_prepass(kernel, grid, gmem, params, cfg, limit: int
                ) -> tuple[LaunchStream | None, str | None]:
    """Execute the launch functionally; return ``(stream, None)``, or
    ``(None, reason)`` with ``gmem`` as it was when the pre-pass cannot
    vouch for the launch (the reasons are this module's constants)."""
    if any(instr.info.is_atomic for instr in kernel.instrs):
        return None, ATOMIC
    run = _Run(kernel, grid, gmem, params, cfg, limit)
    per_chunk = max(1, _CHUNK_THREADS // (run.warps_per_cta * 32))
    parts: list[dict] = []
    try:
        for first in range(0, run.total_ctas, per_chunk):
            chunk = _Chunk(run, first, min(per_chunk, run.total_ctas - first))
            chunk.execute()
            parts.append(chunk.stream_part())
    except _Fallback as exc:
        run.restore()
        return None, exc.reason
    except Exception:  # noqa: BLE001 - the per-issue run raises it in order
        run.restore()
        return None, ERROR
    return LaunchStream(run.warps_per_cta, per_chunk, parts), None
