"""The invariant sanitizer: clean runs stay clean, corruption is caught
the cycle it happens — on the per-cycle reference engine and on the
default fast-forward engine, which skips only frozen spans."""

import pytest

from repro.kernels import get
from repro.sim.config import scaled_fermi
from repro.sim.cta import FOREVER, CTAState
from repro.sim.gpu import GPU
from repro.sim.sanitizer import InvariantViolation, Sanitizer
from repro.sim.smcore import ST_MEM, SMCore


def _run(bench_name: str, arch: str, scale: float = 0.25, **overrides):
    bench = get(bench_name)
    prep = bench.prepare(scale)
    cfg = scaled_fermi(num_sms=1, arch=arch, sanitize=True, **overrides)
    gpu = GPU(cfg)
    result = gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    prep.check(result)
    return result


@pytest.mark.parametrize("arch", ["baseline", "vt", "ideal-sched"])
@pytest.mark.parametrize("name", ["stride", "reduction", "histogram", "mm_tiled"])
def test_clean_runs_pass_sanitizer(name, arch):
    result = _run(name, arch)
    assert result.stats.cycles > 0


@pytest.mark.slow
@pytest.mark.parametrize("arch", ["baseline", "vt", "ideal-sched"])
def test_whole_suite_clean_under_sanitizer(arch):
    """Acceptance sweep: every registered benchmark runs clean with the
    sanitizer enabled under this architecture."""
    from repro.kernels.registry import all_benchmarks

    for bench in all_benchmarks():
        prep = bench.prepare(0.25)
        gpu = GPU(scaled_fermi(num_sms=1, arch=arch, sanitize=True))
        result = gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
        prep.check(result)


def test_sanitizer_runs_every_cycle(monkeypatch):
    """On the reference engine the checker is invoked per (non-idle) SM
    cycle."""
    seen = []
    original = Sanitizer.check_sm

    def spying(self, sm, now):
        seen.append(now)
        original(self, sm, now)

    monkeypatch.setattr(Sanitizer, "check_sm", spying)
    result = _run("stride", "vt", fast_forward=False)
    assert len(seen) > 1000
    assert result.stats.cycles >= len(seen) - 1


def test_sanitizer_checks_every_step_on_default_engine(monkeypatch):
    """On the default engine the checker runs at the end of every
    ``SMCore.step`` — and the engine still skips dead spans, so that is
    fewer checks than simulated cycles."""
    steps, checks = [], []
    original_step = SMCore.step
    original_check = Sanitizer.check_sm

    def stepping(self, now):
        steps.append(now)
        return original_step(self, now)

    def checking(self, sm, now):
        checks.append(now)
        original_check(self, sm, now)

    monkeypatch.setattr(SMCore, "step", stepping)
    monkeypatch.setattr(Sanitizer, "check_sm", checking)
    result = _run("stride", "vt")
    assert checks == steps
    assert 0 < len(checks) < result.stats.cycles


def _launch_corrupted(corruption, arch="baseline", bench_name="vecadd",
                      scale=0.25):
    """Run with a step hook that corrupts SM state mid-flight; the
    sanitizer must notice.  ``corruption`` may return False to say "not
    applicable this cycle, try again later" (e.g. waiting for a CTA to
    reach a particular state)."""
    bench = get(bench_name)
    prep = bench.prepare(scale)
    cfg = scaled_fermi(num_sms=1, arch=arch, sanitize=True)
    gpu = GPU(cfg)

    original_step = SMCore.step
    fired = []

    def corrupting_step(self, now):
        if now >= 200 and not fired:
            if corruption(self) is not False:
                fired.append(now)
        return original_step(self, now)

    SMCore.step = corrupting_step
    try:
        with pytest.raises(InvariantViolation) as excinfo:
            gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    finally:
        SMCore.step = original_step
    assert fired, "corruption hook never ran; test is vacuous"
    return excinfo.value


def test_detects_register_leak():
    exc = _launch_corrupted(lambda sm: setattr(
        sm.manager.resources, "regs_used", sm.manager.resources.regs_used + 64))
    assert exc.invariant == "capacity-accounting"
    assert exc.sm_id == 0
    assert exc.cycle == 200


def test_detects_corruption_planted_inside_dead_span(monkeypatch):
    """A leak planted while the default engine skips a dead span is caught
    at the span's end: the first cycle the SM is stepped again."""
    bench = get("stride")
    prep = bench.prepare(0.25)
    gpu = GPU(scaled_fermi(num_sms=1, arch="vt", sanitize=True))
    original = SMCore.fast_forward
    planted = []

    def leaking(self, start, stop):
        original(self, start, stop)
        if not planted and stop - start > 1:
            self.manager.resources.regs_used += 64
            planted.append(stop)

    monkeypatch.setattr(SMCore, "fast_forward", leaking)
    with pytest.raises(InvariantViolation) as excinfo:
        gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    assert planted, "no dead span was skipped; test is vacuous"
    assert excinfo.value.invariant == "capacity-accounting"
    assert excinfo.value.cycle == planted[0]


def test_detects_double_release():
    def corrupt(sm):
        sm.manager.resources.release(sm.manager.resident[0])

    exc = _launch_corrupted(corrupt)
    assert exc.invariant in ("capacity-accounting", "slot-accounting")


def test_detects_smem_overcommit():
    exc = _launch_corrupted(lambda sm: setattr(
        sm.manager.resources, "smem_used", sm.cfg.smem_per_sm + 1))
    # Accounting disagreement is noticed before the capacity ceiling.
    assert exc.invariant in ("capacity-accounting", "smem-capacity")


def test_detects_illegal_vt_edge():
    def corrupt(sm):
        for cta in sm.manager.resident:
            if cta.state is CTAState.ACTIVE:
                cta.state = CTAState.SWAP_IN  # ACTIVE -> SWAP_IN: illegal
                return None
        return False

    exc = _launch_corrupted(corrupt, arch="vt", bench_name="stride")
    assert exc.invariant in ("state-machine", "swap-engine")


def test_detects_orphaned_swap_state():
    def corrupt(sm):
        for cta in sm.manager.resident:
            if cta.state is CTAState.INACTIVE:
                cta.state = CTAState.SWAP_IN  # legal edge, but no engine entry
                return None
        return False  # wait for a cycle where an INACTIVE CTA exists

    exc = _launch_corrupted(corrupt, arch="vt", bench_name="stride", scale=0.5)
    assert exc.invariant == "swap-engine"


def test_detects_scoreboard_leak():
    from repro.sim.faults import NEVER

    def corrupt(sm):
        warp = sm.manager.resident[0].warps[0]
        warp.scoreboard.set_pending(0, NEVER, True)

    exc = _launch_corrupted(corrupt)
    assert exc.invariant == "scoreboard-liveness"


def test_detects_dropped_ready_bit():
    """A warp dropped from its scheduler's ready set with no wake-up queued
    would never be considered for issue again; the ready-set invariant
    catches it in the step it happens."""
    dropped = []

    def corrupt(sm):
        for scheduler in sm.schedulers:
            for warp in scheduler.ready:
                if not warp.finished and not warp.at_barrier:
                    scheduler.disarm(warp)  # no wake-heap entry
                    dropped.append(warp)
                    return None
        return False  # every ready set is empty this cycle

    exc = _launch_corrupted(corrupt)
    assert exc.invariant == "ready-set"
    assert f"warp {dropped[0].local_wid}" in str(exc)
    assert exc.cycle >= 200


def test_detects_active_count_drift():
    def corrupt(sm):
        sm.manager.active_cta_count += 1

    exc = _launch_corrupted(corrupt, arch="vt", bench_name="stride")
    assert exc.invariant == "active-count"


def _check_corrupted(monkeypatch, corruption, arch="vt", bench_name="stride"):
    """Like :func:`_launch_corrupted`, but the corruption lands between a
    step and its invariant check, so the step cannot repair a stored
    value before the sanitizer sees it."""
    bench = get(bench_name)
    prep = bench.prepare(0.25)
    gpu = GPU(scaled_fermi(num_sms=1, arch=arch, sanitize=True))
    original = Sanitizer.check_sm
    fired = []

    def corrupting_check(self, sm, now):
        if now >= 200 and not fired and corruption(sm) is not False:
            fired.append(now)
        original(self, sm, now)

    monkeypatch.setattr(Sanitizer, "check_sm", corrupting_check)
    with pytest.raises(InvariantViolation) as excinfo:
        gpu.launch(bench.kernel, prep.grid_dim, prep.gmem, prep.params)
    assert fired, "corruption hook never ran; test is vacuous"
    assert excinfo.value.cycle == fired[0]
    return excinfo.value


def _parked_cta(sm):
    """A resident CTA with a warp counted as parked, or None."""
    return next((cta for cta in sm.manager.resident if any(cta.parked)), None)


def test_detects_parked_count_drift(monkeypatch):
    """The per-CTA parked counts the dead scan classifies idle cycles by
    must equal a recount of the warps outside the ready set."""
    def corrupt(sm):
        cta = _parked_cta(sm)
        if cta is None:
            return False
        cta.parked[ST_MEM] += 1
        return None

    exc = _check_corrupted(monkeypatch, corrupt)
    assert exc.invariant == "parked-count"
    assert "recount" in str(exc)


def test_detects_stale_park_horizon(monkeypatch):
    """A kept park horizon later than the earliest counted wake-up would
    let the fast-forward engine sleep through a live cycle."""
    def corrupt(sm):
        cta = _parked_cta(sm)
        if cta is None or cta.park_min == -1:
            return False
        cta.park_min = FOREVER - 1
        return None

    exc = _check_corrupted(monkeypatch, corrupt)
    assert exc.invariant == "parked-count"
    assert "park horizon" in str(exc)


def test_detects_stale_activation_memo(monkeypatch):
    """An INACTIVE CTA's memoised activation cycle must equal a recount
    over its warps' outstanding loads."""
    def corrupt(sm):
        for cta in sm.manager.resident:
            if cta.state is CTAState.INACTIVE and cta.activation_at is not None:
                cta.activation_at = FOREVER - 1
                return None
        return False

    exc = _check_corrupted(monkeypatch, corrupt, bench_name="hotspot")
    assert exc.invariant == "activation-memo"


def test_detects_live_warp_count_drift(monkeypatch):
    """A CTA's stored live-warp count, which the occupancy samples sum and
    the exit path retires the CTA by, must equal a recount."""
    def corrupt(sm):
        sm.manager.resident[0].live_warps += 1

    exc = _check_corrupted(monkeypatch, corrupt)
    assert exc.invariant == "live-warp-count"
    assert "recount" in str(exc)


def test_detects_inactive_count_drift(monkeypatch):
    """The VT manager's INACTIVE-CTA count gates the slot fill and the
    next-event scan; it must equal a recount."""
    def corrupt(sm):
        sm.manager.inactive_cta_count += 1

    exc = _check_corrupted(monkeypatch, corrupt)
    assert exc.invariant == "inactive-count"


@pytest.mark.parametrize("arch", ["baseline", "vt"])
def test_detects_stale_dispatch_flag(monkeypatch, arch):
    """The dispatcher seats CTAs by the SM's stored flag, which must equal
    ``manager.can_accept`` for the launch's kernel."""
    def corrupt(sm):
        sm.accepting = not sm.accepting

    exc = _check_corrupted(monkeypatch, corrupt, arch=arch)
    assert exc.invariant == "dispatch-flag"


def test_violation_is_structured():
    exc = InvariantViolation("register-capacity", "boom", sm_id=3, cycle=77,
                             resource="registers")
    assert exc.sm_id == 3 and exc.cycle == 77
    assert exc.invariant == "register-capacity"
    assert "sm3" in str(exc) and "77" in str(exc)


# -- execution cross-check against the static analysis -----------------------


def _exec_fixtures():
    import numpy as np
    from types import SimpleNamespace

    from repro.isa.assembler import assemble

    kernel = assemble("""
.kernel xcheck
.regs 8
.smem 64
.cta 16
    S2R r0, %tid_x
    SHL r1, r0, #2
    STS [r1], r0
    BAR
    LDS r2, [r1]
    STG [r1], r2
    EXIT
""")
    sanitizer = Sanitizer(scaled_fermi(num_sms=1, sanitize=True))
    sm = SimpleNamespace(sm_id=0)
    warp = SimpleNamespace(cta=SimpleNamespace(kernel=kernel))

    def result(space=None, addresses=None):
        return SimpleNamespace(
            mem_space=space,
            addresses=None if addresses is None else np.asarray(addresses))

    return kernel, sanitizer, sm, warp, result


def test_check_exec_accepts_in_bounds_access():
    kernel, sanitizer, sm, warp, result = _exec_fixtures()
    sanitizer.check_exec(sm, warp, 2, kernel.instrs[2],
                         result("shared", [0, 4, 60]), now=5)
    sanitizer.check_exec(sm, warp, 0, kernel.instrs[0], result(), now=5)


def test_check_exec_rejects_shared_address_outside_declaration():
    kernel, sanitizer, sm, warp, result = _exec_fixtures()
    with pytest.raises(InvariantViolation) as excinfo:
        sanitizer.check_exec(sm, warp, 2, kernel.instrs[2],
                             result("shared", [0, 64]), now=5)
    assert excinfo.value.invariant == "exec-shared-bound"


def test_check_exec_rejects_address_outside_static_proof():
    # Bytes 60..64 fit the declaration, but the static analysis proved the
    # STS at pc 2 only ever touches 4*tid for tid < 16, i.e. up to byte 60;
    # an *unexpected* in-declaration address is still a cross-check failure.
    kernel, sanitizer, sm, warp, result = _exec_fixtures()
    kernel.smem_bytes = 128
    with pytest.raises(InvariantViolation) as excinfo:
        sanitizer.check_exec(sm, warp, 2, kernel.instrs[2],
                             result("shared", [100]), now=5)
    assert excinfo.value.invariant == "exec-shared-bound"


def test_check_exec_rejects_statically_unwritten_register():
    from types import SimpleNamespace

    from repro.isa.assembler import assemble

    kernel = assemble("""
.kernel deadwrite
.regs 8
.cta 16
    BRA end
    MOV r5, #1
end:
    EXIT
""")
    sanitizer = Sanitizer(scaled_fermi(num_sms=1, sanitize=True))
    sm = SimpleNamespace(sm_id=0)
    warp = SimpleNamespace(cta=SimpleNamespace(kernel=kernel))
    result = SimpleNamespace(mem_space=None, addresses=None)
    # pc 1 is unreachable, so the static write-set excludes r5: observing
    # the write means control flow escaped the verified CFG.
    with pytest.raises(InvariantViolation) as excinfo:
        sanitizer.check_exec(sm, warp, 1, kernel.instrs[1], result, now=3)
    assert excinfo.value.invariant == "exec-register-bound"


def test_check_exec_accepts_predicted_access_cost():
    kernel, sanitizer, sm, warp, result = _exec_fixtures()
    # Full-mask coalesced STG: exactly the one transaction the static
    # coalescing analysis predicts.
    sanitizer.check_exec(sm, warp, 5, kernel.instrs[5],
                         result("global", [4 * i for i in range(16)]), now=5)


def test_check_exec_rejects_access_cost_above_static_bound():
    kernel, sanitizer, sm, warp, result = _exec_fixtures()
    scattered = [128 * i for i in range(16)]  # one line per lane
    with pytest.raises(InvariantViolation) as excinfo:
        sanitizer.check_exec(sm, warp, 5, kernel.instrs[5],
                             result("global", scattered), now=5)
    assert excinfo.value.invariant == "exec-access-cost"
    assert "transactions" in str(excinfo.value)


def test_check_exec_partial_mask_checks_upper_bound_only():
    kernel, sanitizer, sm, warp, result = _exec_fixtures()
    # A divergence-thinned single-lane access may touch fewer segments
    # than the full-mask prediction; the upper bound still applies.
    sanitizer.check_exec(sm, warp, 5, kernel.instrs[5],
                         result("global", [8]), now=5)
    with pytest.raises(InvariantViolation):
        sanitizer.check_exec(sm, warp, 5, kernel.instrs[5],
                             result("global", [0, 512]), now=5)


def test_check_exec_invoked_during_runs(monkeypatch):
    seen = []
    original = Sanitizer.check_exec

    def spying(self, sm, warp, pc, instr, result, now):
        seen.append(pc)
        return original(self, sm, warp, pc, instr, result, now)

    monkeypatch.setattr(Sanitizer, "check_exec", spying)
    _run("reduction", "baseline")
    assert len(seen) > 0
