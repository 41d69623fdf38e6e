"""Functional memory state: global memory and per-CTA shared memory.

Memories are word-addressable (4-byte words) with byte addresses at the
interface, matching how the kernels compute addresses.  Values are stored
as ``float64``: floats exactly, integers exactly up to 2**53 — far beyond
anything the workloads index or accumulate.
"""

from __future__ import annotations

import numpy as np

WORD_BYTES = 4


class MemoryError_(IndexError):
    """Out-of-bounds or misaligned access (kernel bug, not a sim bug)."""


class GlobalMemory:
    """Flat global memory, byte-addressed, 4-byte word granularity.

    The host allocates named buffers with :meth:`alloc`, writes inputs with
    :meth:`write`, and reads results back with :meth:`read`.  Buffer
    base addresses are aligned to the cache-line size so coalescing
    behaviour is deterministic.
    """

    def __init__(self, size_bytes: int = 1 << 22, line_bytes: int = 128):
        if size_bytes % WORD_BYTES:
            raise ValueError("size must be a multiple of 4 bytes")
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.data = np.zeros(size_bytes // WORD_BYTES, dtype=np.float64)
        self._next_free = 0
        self._buffers: dict[str, tuple[int, int]] = {}  # name -> (base, bytes)

    # -- host API -----------------------------------------------------------

    def alloc(self, name: str, num_words: int) -> int:
        """Allocate a line-aligned buffer; returns its byte base address."""
        if name in self._buffers:
            raise ValueError(f"buffer {name!r} already allocated")
        base = self._next_free
        nbytes = num_words * WORD_BYTES
        end = base + nbytes
        if end > self.size_bytes:
            raise MemoryError_(f"global memory exhausted allocating {name!r}")
        self._buffers[name] = (base, nbytes)
        # Align the next buffer to a line boundary.
        self._next_free = -(-end // self.line_bytes) * self.line_bytes
        return base

    def base(self, name: str) -> int:
        return self._buffers[name][0]

    @property
    def allocated_bytes(self) -> int:
        """Bytes from address 0 to the (line-aligned) end of the last
        buffer allocated."""
        return self._next_free

    def clone(self) -> "GlobalMemory":
        """Private copy of the full memory image (data and allocation map).

        Mirrors the copy-on-write image a forked shard worker inherits, so
        in-process shards can run on isolated images when forking is
        unavailable."""
        twin = GlobalMemory.__new__(GlobalMemory)
        twin.size_bytes = self.size_bytes
        twin.line_bytes = self.line_bytes
        twin.data = self.data.copy()
        twin._next_free = self._next_free
        twin._buffers = dict(self._buffers)
        return twin

    def write(self, name: str, values) -> None:
        base, nbytes = self._buffers[name]
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size * WORD_BYTES > nbytes:
            raise MemoryError_(f"write overflows buffer {name!r}")
        start = base // WORD_BYTES
        self.data[start : start + arr.size] = arr

    def read(self, name: str, num_words: int | None = None) -> np.ndarray:
        base, nbytes = self._buffers[name]
        start = base // WORD_BYTES
        count = num_words if num_words is not None else nbytes // WORD_BYTES
        return self.data[start : start + count].copy()

    # -- device API (used by the functional executor) ------------------------

    def _indices(self, byte_addrs: np.ndarray) -> np.ndarray:
        idx = byte_addrs >> 2
        # Counts, not ``.any()``/``.min()``: on 32-lane arrays numpy's
        # Python-level reduction wrappers cost more than the tests.
        if np.count_nonzero(byte_addrs & 3):
            raise MemoryError_("misaligned global access")
        if np.count_nonzero((idx < 0) | (idx >= self.data.size)):
            raise MemoryError_(
                f"global access out of bounds: [{byte_addrs.min()}, {byte_addrs.max()}]"
            )
        return idx

    def load(self, byte_addrs: np.ndarray) -> np.ndarray:
        return self.data[self._indices(byte_addrs)]

    def store(self, byte_addrs: np.ndarray, values: np.ndarray) -> None:
        idx = self._indices(byte_addrs)
        # Lane order defines intra-warp store conflict resolution (last wins),
        # matching CUDA's "one of the writes is guaranteed" semantics.
        self.data[idx] = values

    def atomic_add(self, byte_addrs: np.ndarray, values: np.ndarray) -> np.ndarray:
        idx = self._indices(byte_addrs)
        old = np.empty(idx.size, dtype=np.float64)
        for lane in range(idx.size):  # sequential: true RMW per lane
            old[lane] = self.data[idx[lane]]
            self.data[idx[lane]] = old[lane] + values[lane]
        return old

    def atomic_max(self, byte_addrs: np.ndarray, values: np.ndarray) -> np.ndarray:
        idx = self._indices(byte_addrs)
        old = np.empty(idx.size, dtype=np.float64)
        for lane in range(idx.size):
            old[lane] = self.data[idx[lane]]
            self.data[idx[lane]] = max(old[lane], values[lane])
        return old


class SharedMemory:
    """Per-CTA scratchpad, byte-addressed, 4-byte words."""

    def __init__(self, size_bytes: int):
        self.size_bytes = size_bytes
        self.data = np.zeros(max(1, size_bytes // WORD_BYTES), dtype=np.float64)

    def _indices(self, byte_addrs: np.ndarray) -> np.ndarray:
        idx = byte_addrs >> 2
        if np.count_nonzero(byte_addrs & 3):
            raise MemoryError_("misaligned shared access")
        if np.count_nonzero((idx < 0) | ((idx << 2) >= self.size_bytes)):
            raise MemoryError_(
                f"shared access out of bounds: [{byte_addrs.min()}, {byte_addrs.max()}]"
                f" of {self.size_bytes}B"
            )
        return idx

    def load(self, byte_addrs: np.ndarray) -> np.ndarray:
        return self.data[self._indices(byte_addrs)]

    def store(self, byte_addrs: np.ndarray, values: np.ndarray) -> None:
        self.data[self._indices(byte_addrs)] = values

    def atomic_add(self, byte_addrs: np.ndarray, values: np.ndarray) -> np.ndarray:
        idx = self._indices(byte_addrs)
        old = np.empty(idx.size, dtype=np.float64)
        for lane in range(idx.size):
            old[lane] = self.data[idx[lane]]
            self.data[idx[lane]] = old[lane] + values[lane]
        return old
