"""Set-associative cache, LRU, MSHR merging, L1 policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.cache import L1Cache, SetAssocCache
from repro.sim.config import GPUConfig


def make_tags(size=1024, assoc=2, line=128):
    return SetAssocCache(size, assoc, line)


def test_size_validation():
    with pytest.raises(ValueError):
        SetAssocCache(1000, 3, 128)


def test_miss_then_hit():
    c = make_tags()
    assert not c.access(0)
    assert c.access(0)
    assert c.accesses == 2 and c.hits == 1
    assert c.hit_rate == 0.5


def test_sets_are_independent():
    c = make_tags(size=1024, assoc=2, line=128)  # 4 sets
    c.access(0)        # set 0
    c.access(128)      # set 1
    assert c.access(0)
    assert c.access(128)


def test_lru_eviction_order():
    c = make_tags(size=512, assoc=2, line=128)  # 2 sets
    set_stride = 2 * 128  # lines mapping to set 0: 0, 256, 512...
    c.access(0 * set_stride)
    c.access(1 * set_stride)
    c.access(0 * set_stride)          # touch 0 -> 1*stride is now LRU
    c.access(2 * set_stride)          # evicts 1*stride
    assert c.probe(0)
    assert not c.probe(1 * set_stride)
    assert c.probe(2 * set_stride)


def test_invalidate():
    c = make_tags()
    c.access(0)
    c.invalidate(0)
    assert not c.probe(0)
    c.invalidate(0)  # idempotent


class _FakeMemoryModel:
    """Lower level returning a fixed completion delta and counting calls."""

    def __init__(self, delta=500):
        self.delta = delta
        self.reads = 0
        self.writes = 0

    def read(self, line_addr, now):
        self.reads += 1
        return now + self.delta

    def write(self, line_addr, now):
        self.writes += 1
        return now + self.delta


def make_l1(**over):
    cfg = GPUConfig().with_(**over)
    lower = _FakeMemoryModel()
    return L1Cache(cfg, lower, sm_id=0), lower, cfg


def test_l1_hit_latency():
    l1, lower, cfg = make_l1()
    miss_done = l1.read(0, now=0)
    assert miss_done == lower.delta
    # After the fill completes, the line hits in the tag array.
    assert l1.read(0, now=miss_done + 1) == miss_done + 1 + cfg.l1_hit_latency
    assert lower.reads == 1


def test_l1_mshr_merge():
    l1, lower, cfg = make_l1()
    first = l1.read(0, now=0)
    second = l1.read(0, now=10)  # same line while in flight
    assert second == first  # merged, no second lower-level request
    assert lower.reads == 1


def test_l1_mshr_capacity():
    l1, lower, cfg = make_l1(l1_mshrs=2)
    l1.read(0, now=0)
    l1.read(128, now=0)
    assert not l1.mshr_available(0)
    assert l1.earliest_mshr_free(0) == lower.delta
    # After fills return, MSHRs free up.
    assert l1.mshr_available(lower.delta + 1)


_mshr_ops = st.lists(
    st.one_of(
        # (re-)record a fill: a new line, or a correction of an in-flight
        # one to an earlier or later completion (the parallel engine's patch)
        st.tuples(st.just("fill"), st.integers(0, 5), st.integers(1, 40)),
        st.tuples(st.just("tick"), st.integers(0, 15)),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_mshr_ops, st.integers(1, 4))
def test_earliest_mshr_free_matches_pending_scan(ops, mshrs):
    """The completion-heap read equals the dict scan it replaced,
    ``now`` if an MSHR is free else ``min(pending.values())``, over random
    fill/correct/retire sequences (stale heap pairs included)."""
    l1, _lower, _cfg = make_l1(l1_mshrs=mshrs)
    model: dict[int, int] = {}
    now = 0
    for op in ops:
        if op[0] == "fill":
            line, delay = op[1] * 128, op[2]
            l1.set_fill(line, now + delay)
            model[line] = now + delay
        else:
            now += op[1]
        model = {line: done for line, done in model.items() if done > now}
        want = now if len(model) < mshrs else min(model.values())
        assert l1.earliest_mshr_free(now) == want
        assert l1.pending == model
        assert l1.mshr_available(now) == (len(model) < mshrs)


def test_l1_write_through_no_allocate():
    l1, lower, cfg = make_l1()
    l1.write(0, now=0)
    assert lower.writes == 1
    assert not l1.tags.probe(0)  # no allocate on write miss


def test_l1_write_hit_touches_line():
    l1, lower, cfg = make_l1()
    fill = l1.read(0, now=0)
    l1.write(0, now=fill + 1)
    assert l1.tags.probe(0)
    assert lower.writes == 1  # still written through


def test_l1_atomic_bypasses_and_invalidates():
    l1, lower, cfg = make_l1()
    fill = l1.read(0, now=0)
    l1.atomic(0, now=fill + 1)
    assert not l1.tags.probe(0)  # invalidated: L2 now owns the fresh value
    assert lower.reads == 2
