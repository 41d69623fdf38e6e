"""Load/store unit helpers: global-memory coalescing and shared-memory
bank-conflict analysis.

Coalescing follows the post-Fermi rule: the active lanes' byte addresses
are grouped into the minimal set of aligned ``line_bytes`` segments; each
segment becomes one memory transaction.  A fully coalesced warp touching
consecutive 4-byte words produces one 128-byte transaction; a strided or
random warp fans out to up to 32.

Shared memory is organized in 32 word-interleaved banks.  Lanes hitting
different words in the same bank serialize into multiple passes; lanes
reading the *same* word broadcast in one pass.
"""

from __future__ import annotations

import numpy as np

# Both helpers run once per memory instruction issued, on at most 32 lane
# addresses: Python sets over ``tolist()`` beat ``np.unique``'s sort and
# array allocations at that size.  Sorting the distinct values keeps every
# result independent of set iteration order.


def coalesce(byte_addrs: np.ndarray, line_bytes: int) -> list[int]:
    """Unique aligned segment base addresses touched by the lanes, in
    ascending order (integer byte addresses)."""
    lines = {addr // line_bytes for addr in byte_addrs.tolist()}
    return [line * line_bytes for line in sorted(lines)]


def bank_conflict_passes(byte_addrs: np.ndarray, num_banks: int, word_bytes: int = 4) -> int:
    """Number of serialized passes needed to satisfy a shared access."""
    if byte_addrs.size == 0:
        return 1
    per_bank: dict[int, int] = {}
    for word in sorted({addr // word_bytes for addr in byte_addrs.tolist()}):
        bank = word % num_banks
        per_bank[bank] = per_bank.get(bank, 0) + 1
    return max(per_bank.values())
