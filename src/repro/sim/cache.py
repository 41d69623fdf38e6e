"""Set-associative cache tag arrays with MSHR-style miss merging.

Timing is modeled with *completion times* rather than cycle-by-cycle
queues: when a miss is sent down the hierarchy, the lower level computes
the cycle at which the fill returns (including queueing delay from
bandwidth contention), and the line is recorded as *pending* until then.
Subsequent accesses to a pending line merge (MSHR behaviour) and complete
at the same time.  Tags are installed at request time — a standard
simplification that keeps hit/miss classification deterministic.

Pending files (the L1 MSHRs here, the L2's in-flight fills in
:mod:`repro.sim.memsys`) are a dict plus a ``(completion, line)`` heap:
retiring completed entries pops the heap instead of rescanning the dict,
so an access pays per retired fill, not per outstanding one.
"""

from __future__ import annotations

from heapq import heappop, heappush


def retire_fills(pending: dict[int, int], order: list[tuple[int, int]],
                 now: int) -> None:
    """Delete every ``pending`` entry that completes at or before ``now``.

    ``order`` holds a ``(completion, line)`` pair for every entry ever
    stored in ``pending``; a popped pair whose line now maps to another
    completion (the entry was overwritten) is stale and skipped."""
    while order and order[0][0] <= now:
        completion, line = heappop(order)
        if pending.get(line) == completion:
            del pending[line]


class SetAssocCache:
    """Tag-only set-associative LRU cache (line granularity)."""

    def __init__(self, size_bytes: int, assoc: int, line_bytes: int):
        if size_bytes % (assoc * line_bytes):
            raise ValueError("cache size must be a multiple of assoc * line size")
        self.line_bytes = line_bytes
        self.assoc = assoc
        self.num_sets = size_bytes // (assoc * line_bytes)
        # set index -> {line_addr: lru_stamp}
        self._sets: list[dict[int, int]] = [dict() for _ in range(self.num_sets)]
        self._stamp = 0
        self.accesses = 0
        self.hits = 0

    def _set_for(self, line_addr: int) -> dict[int, int]:
        return self._sets[(line_addr // self.line_bytes) % self.num_sets]

    def probe(self, line_addr: int) -> bool:
        """Hit/miss without side effects."""
        return line_addr in self._set_for(line_addr)

    def access(self, line_addr: int) -> bool:
        """Look up and touch; on miss, allocate (evicting LRU). True = hit."""
        self.accesses += 1
        self._stamp += 1
        cache_set = self._set_for(line_addr)
        if line_addr in cache_set:
            cache_set[line_addr] = self._stamp
            self.hits += 1
            return True
        if len(cache_set) >= self.assoc:
            victim = min(cache_set, key=cache_set.get)
            del cache_set[victim]
        cache_set[line_addr] = self._stamp
        return False

    def invalidate(self, line_addr: int) -> None:
        self._set_for(line_addr).pop(line_addr, None)

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0


class L1Cache:
    """Per-SM L1 data cache: write-through, no write-allocate, with MSHRs.

    ``read`` returns the cycle at which the loaded data is usable.  Misses
    are forwarded to the chip-level :class:`repro.sim.memsys.MemoryModel`.
    """

    def __init__(self, cfg, memory_model, sm_id: int, faults=None):
        self.cfg = cfg
        self.tags = SetAssocCache(cfg.l1_size, cfg.l1_assoc, cfg.line_bytes)
        self.memory_model = memory_model
        self.sm_id = sm_id
        self.faults = faults  # optional FaultPlan filtering fill responses
        # line_addr -> fill completion cycle (the MSHR file), and its
        # completion-ordered heap (see retire_fills); write through
        # :meth:`set_fill` so the two stay in step.
        self.pending: dict[int, int] = {}
        self._fills: list[tuple[int, int]] = []
        # Latest fill completion ever recorded; monotonic, so the sanitizer
        # can detect a lost response in O(1) (a legitimate fill is never
        # more than the memory system's worst latency in the future).
        self.max_fill_completion = 0

    def _purge(self, now: int) -> None:
        fills = self._fills
        if fills and fills[0][0] <= now:
            retire_fills(self.pending, fills, now)

    def set_fill(self, line_addr: int, completion: int) -> None:
        """Record (or correct) the completion cycle of an in-flight fill."""
        self.pending[line_addr] = completion
        heappush(self._fills, (completion, line_addr))

    def mshr_available(self, now: int) -> bool:
        self._purge(now)
        return len(self.pending) < self.cfg.l1_mshrs

    def earliest_mshr_free(self, now: int) -> int:
        """``now`` if an MSHR is free, else the earliest fill completion
        (``min(pending.values())``): the top of the completion heap once
        stale pairs — lines since re-filled or retired — are popped."""
        self._purge(now)
        pending = self.pending
        if len(pending) < self.cfg.l1_mshrs:
            return now
        fills = self._fills
        while pending.get(fills[0][1]) != fills[0][0]:
            heappop(fills)
        return fills[0][0]

    def read(self, line_addr: int, now: int) -> int:
        """A load transaction for one line; returns data-ready cycle."""
        self._purge(now)
        pending = self.pending.get(line_addr)
        if pending is not None:
            # MSHR merge: ride the in-flight fill.
            return max(pending, now + self.cfg.l1_hit_latency)
        if self.tags.access(line_addr):
            return now + self.cfg.l1_hit_latency
        completion = self.memory_model.read(line_addr, now)
        if self.faults is not None:
            completion = self.faults.filter_fill(self.sm_id, line_addr, now, completion)
        self.set_fill(line_addr, completion)
        if completion > self.max_fill_completion:
            self.max_fill_completion = completion
        return completion

    def write(self, line_addr: int, now: int) -> int:
        """A store transaction: write-through to L2, no L1 allocate."""
        self._purge(now)
        if self.tags.probe(line_addr):
            self.tags.access(line_addr)  # update data in place (tag touch)
        return self.memory_model.write(line_addr, now)

    def atomic(self, line_addr: int, now: int) -> int:
        """Atomics bypass L1 and execute at L2 (GPU-typical)."""
        self.tags.invalidate(line_addr)  # keep L1 coherent with L2 RMW
        return self.memory_model.read(line_addr, now)
