"""Chip-level memory model: interconnect + shared L2 + DRAM.

One instance is shared by all SMs.  Like real NVIDIA chips, the L2 and
DRAM are organized as *memory partitions* — one L2 slice with its own
port and interconnect path per DRAM channel, line-interleaved by address.
The request path is

    SM L1 miss -> partition icnt -> L2-slice port (bandwidth) -> L2 tags
        -> (on L2 miss) DRAM channel (bandwidth + latency)
    -> partition response icnt -> L1 fill

Every stage contributes latency; slice ports and DRAM channels also
contribute queueing delay under contention, which is what makes extra
thread-level parallelism eventually hit the bandwidth wall — a
first-order effect in the paper's memory-intensive workloads.  Because
bandwidth resources are per-partition, chip bandwidth scales with the
channel count and the scaled-down configurations stay faithful to the
full chip.
"""

from __future__ import annotations

from heapq import heappush

from repro.sim.cache import SetAssocCache, retire_fills
from repro.sim.dram import DramModel
from repro.sim.icnt import Link


def min_cross_rtt(cfg) -> int:
    """Lower bound on the SM -> L2 -> SM round trip: request link + L2 hit
    + response link with zero queueing (``Link.min_traversal`` each way).
    No read issued at cycle ``t`` can complete before
    ``t + min_cross_rtt(cfg)``, which is what bounds the parallel
    engine's epoch length (see :mod:`repro.sim.parallel`)."""
    return 2 * cfg.icnt_latency + cfg.l2_hit_latency


class MemoryModel:
    """Partitioned L2 + DRAM behind per-partition interconnect links."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.l2 = SetAssocCache(cfg.l2_size, cfg.l2_assoc, cfg.line_bytes)
        self.dram = DramModel(cfg)
        partitions = cfg.dram_channels
        self._request_links = [Link(cfg.icnt_latency, 1) for _ in range(partitions)]
        self._response_links = [Link(cfg.icnt_latency, 1) for _ in range(partitions)]
        self._l2_port_free = [0] * partitions
        # L2-level miss merging: line -> DRAM fill completion at L2, and
        # its completion-ordered heap (see repro.sim.cache.retire_fills).
        self._l2_pending: dict[int, int] = {}
        self._l2_fills: list[tuple[int, int]] = []

    def _partition(self, line_addr: int) -> int:
        return self.dram.channel_of(line_addr)

    def _l2_lookup(self, line_addr: int, arrival: int, partition: int) -> int:
        """Time at which the line's data is available at its L2 slice."""
        start = max(arrival, self._l2_port_free[partition])
        self._l2_port_free[partition] = start + self.cfg.l2_service_cycles
        retire_fills(self._l2_pending, self._l2_fills, arrival)
        pending = self._l2_pending.get(line_addr)
        if pending is not None:
            self.l2.access(line_addr)  # counts as an access; data in flight
            return max(pending, start + self.cfg.l2_hit_latency)
        if self.l2.access(line_addr):
            return start + self.cfg.l2_hit_latency
        fill = self.dram.access(line_addr, start + self.cfg.l2_hit_latency)
        self._l2_pending[line_addr] = fill
        heappush(self._l2_fills, (fill, line_addr))
        return fill

    def read(self, line_addr: int, now: int) -> int:
        """A read request leaving an SM at ``now``; returns the cycle the
        fill arrives back at the SM."""
        partition = self._partition(line_addr)
        arrival = self._request_links[partition].traverse(now)
        data_at_l2 = self._l2_lookup(line_addr, arrival, partition)
        return self._response_links[partition].traverse(data_at_l2)

    def write(self, line_addr: int, now: int) -> int:
        """A write-through store; returns L2 commit time (no SM dependence)."""
        partition = self._partition(line_addr)
        arrival = self._request_links[partition].traverse(now)
        return self._l2_lookup(line_addr, arrival, partition)

    # -- reporting ------------------------------------------------------------

    @property
    def l2_accesses(self) -> int:
        return self.l2.accesses

    @property
    def l2_hits(self) -> int:
        return self.l2.hits

    @property
    def dram_requests(self) -> int:
        return self.dram.requests
