"""VT invariants checked on *every stepped cycle* of real benchmark runs.

The runs enable the invariant sanitizer (``GPUConfig.sanitize``), which
checks after every SM step that scheduling structures are never
oversubscribed (``vt-active-limit``, ``vt-warp-slots``) and capacity is
never exceeded (``register-capacity``, ``smem-capacity``) — across
thousands of cycles of swaps on real kernels.
"""

import pytest

from repro.core.vt import VirtualThreadManager
from repro.kernels import get
from repro.sim.config import scaled_fermi
from repro.sim.gpu import GPU
from repro.sim.sanitizer import Sanitizer


@pytest.mark.parametrize("name", ["stride", "pathfinder", "reduction", "histogram"])
def test_invariants_hold_every_cycle(monkeypatch, name):
    checks = []
    check_sm = Sanitizer.check_sm

    def counting(self, sm, now):
        checks.append(now)
        check_sm(self, sm, now)

    monkeypatch.setattr(Sanitizer, "check_sm", counting)
    bench = get(name)
    prep = bench.prepare(0.5)
    gpu = GPU(scaled_fermi(num_sms=1, arch="vt", sanitize=True))
    result = gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)
    assert result.stats.total_swaps > 0
    assert len(checks) > 1000  # the sanitizer really ran per stepped cycle


def test_swap_roundtrip_preserves_sched_state(monkeypatch):
    """Capture warp scheduling state at swap-out; verify it is untouched
    when the CTA is reactivated (VT moves state, never mutates it)."""
    snapshots = {}
    mismatches = []

    advance_swap = VirtualThreadManager._advance_swap
    begin_swap = VirtualThreadManager._begin_swap

    def spying_advance(self, now):
        victim = self._swap_victim
        advance_swap(self, now)
        if victim is not None and self._swap_victim is None:
            # Save-phase completed: record the state placed in backup SRAM.
            snapshots[id(victim)] = (
                victim,
                tuple(w.sched_state_snapshot() for w in victim.warps),
            )

    def spying_begin(self, victim, incoming, now):
        # On reactivation of a previously swapped CTA, compare.
        entry = snapshots.get(id(incoming))
        if entry is not None:
            _cta, saved = entry
            current = tuple(w.sched_state_snapshot() for w in incoming.warps)
            if saved != current:
                mismatches.append(incoming.cta_id)
        begin_swap(self, victim, incoming, now)

    monkeypatch.setattr(VirtualThreadManager, "_advance_swap", spying_advance)
    monkeypatch.setattr(VirtualThreadManager, "_begin_swap", spying_begin)
    bench = get("stride")
    prep = bench.prepare(0.5)
    gpu = GPU(scaled_fermi(num_sms=1, arch="vt", sanitize=True))
    result = gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)
    assert snapshots, "no swaps happened; test is vacuous"
    assert not mismatches, f"scheduling state mutated while inactive: {mismatches}"
