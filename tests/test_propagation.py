import math
import tracemalloc

import numpy as np
import pytest

from holonomy_sim.control import (MAX_STEPS, ControlKind, KickSchedule, PulseTrain,
                                  Segments, generate_segments, make_kicks)
from holonomy_sim.hamiltonians import (GateKind, GateSpec, Schedule, dark_states,
                                       gate_generators, gate_hamiltonian)
from holonomy_sim.holonomy import berry_closed_form, evaluate_holonomy
from holonomy_sim.propagation import (CHUNK, DEFAULT_STEPS_PER_PERIOD, StepPolicy,
                                      _chunked_product, _step_grid, adiabatic_hamiltonian,
                                      propagate_adiabatic, propagate_lab,
                                      propagate_lab_batch)
from holonomy_sim.qcore import (hermiticity_defect, matexp_cubic_stack,
                                matexp_hermitian, ordered_product)

A_REF = 0.7605
NO_CONTROL = PulseTrain(ControlKind.NO_CONTROL)


def dark_amplitude(spec, result):
    d = dark_states(spec, 0.0)[-1]
    return complex(np.vdot(d, result.U @ d))


def loop_bounds(segments, kicks, policy):
    """Step boundaries built one edge at a time, as a reference for _step_grid."""
    span = segments.span
    max_step = policy.max_step or span / DEFAULT_STEPS_PER_PERIOD
    edges = [0.0]
    for t0, t1 in zip(segments.edges, segments.edges[1:]):
        n = max(policy.substeps_per_segment, math.ceil((t1 - t0) / max_step - 1e-9))
        edges.extend(t0 + (t1 - t0) * (j + 1) / n for j in range(n))
    edges[-1] = span
    return sorted(set(edges) | set(kicks.times if kicks else ()))


def sequential_reference(spec, segments, kicks, policy):
    """Step-by-step eigh propagation: one matexp_hermitian per step and kick."""
    bounds = loop_bounds(segments, kicks, policy)
    kick_at = dict(zip(kicks.times, kicks.signs)) if kicks else {}
    u = np.eye(spec.dim, dtype=complex)
    for t0, t1 in zip(bounds, bounds[1:]):
        if t0 in kick_at:
            u = matexp_hermitian(gate_hamiltonian(spec, t0), kick_at[t0] * kicks.area) @ u
        mid = 0.5 * (t0 + t1)
        c = next(v for t, v in zip(segments.edges[-2::-1], segments.values[::-1])
                 if t <= mid)
        u = matexp_hermitian(gate_hamiltonian(spec, mid), (1.0 + c) * (t1 - t0)) @ u
    return u


PHYSICAL = GateSpec(GateKind.PHYSICAL_FOUR, Schedule(0.0, 1.0), j12=1.0, j13=0.7)


@pytest.mark.parametrize("spec", [GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0)),
                                  PHYSICAL], ids=lambda spec: spec.kind.value)
def test_closed_form_step_matches_eigh_exponential(spec, rng):
    ts = rng.uniform(0.0, 1.0, size=8)
    taus = np.concatenate([rng.uniform(-3.0, 3.0, size=6), [math.pi, -math.pi]])
    levels, s, hs = gate_generators(spec, ts)
    steps = matexp_cubic_stack(hs, s, taus)
    for t, tau, step in zip(ts, taus, steps):
        full = np.eye(spec.dim, dtype=complex)
        full[np.ix_(levels, levels)] = step
        expected = matexp_hermitian(gate_hamiltonian(spec, t), tau)
        assert np.max(np.abs(full - expected)) <= 1e-13


def test_cphase_run_with_control_matches_sequential_reference():
    spec = GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0))
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=50.0, dt=0.05, p=1.0, seed=3)
    segments = generate_segments(train, 1.0)
    policy = StepPolicy(max_step=1.0 / 512)
    u = propagate_lab(spec, segments, policy=policy).U
    assert np.max(np.abs(u - sequential_reference(spec, segments, None, policy))) <= 1e-10
    # the coupled block is (5, 9, 13); every other level is left exactly alone
    rest = [i for i in range(16) if i not in (5, 9, 13)]
    np.testing.assert_array_equal(u[np.ix_(rest, rest)], np.eye(13))
    assert np.all(u[np.ix_(rest, [5, 9, 13])] == 0)
    assert np.all(u[np.ix_([5, 9, 13], rest)] == 0)


def test_kicked_phase_run_matches_sequential_reference():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    segments = generate_segments(NO_CONTROL, 1.0)
    kicks = make_kicks(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.02, seed=5, jitter=0.4)
    policy = StepPolicy(max_step=1.0 / 1024)
    u = propagate_lab(spec, segments, kicks=kicks, policy=policy).U
    assert np.max(np.abs(u - sequential_reference(spec, segments, kicks, policy))) <= 1e-10


def test_step_grid_bounds_match_edge_by_edge_construction():
    segments = Segments((0.0, 0.3, 0.35, 1.0), (2.0, -1.0, 0.0))
    kicks = make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.07, seed=2, jitter=0.5)
    for policy in (StepPolicy(), StepPolicy(substeps_per_segment=33, max_step=0.003)):
        for k in (None, kicks):
            bounds, seg_idx, kick_pos = _step_grid(segments, k, policy)
            np.testing.assert_array_equal(bounds, loop_bounds(segments, k, policy))
            # every step lies inside the segment it is assigned to
            edges = np.asarray(segments.edges)
            assert np.all(edges[seg_idx] <= bounds[:-1])
            assert np.all(bounds[1:] <= edges[seg_idx + 1])
            if k is not None:
                np.testing.assert_array_equal(bounds[kick_pos], k.times)


def test_step_grid_rejects_runs_above_the_cap():
    segments = Segments((0.0, 1.0), (0.0,))
    with pytest.raises(ValueError, match="needs 100000000 steps and kicks"):
        _step_grid(segments, None, StepPolicy(max_step=1e-8))
    with pytest.raises(ValueError, match="needs inf steps"):
        _step_grid(Segments((0.0, 1e300), (0.0,)), None, StepPolicy(max_step=1e-300))
    # kicks count toward the cap too
    kicks = KickSchedule((0.25, 0.5, 0.75), (1, 1, 1))
    with pytest.raises(ValueError, match="above the cap MAX_STEPS"):
        _step_grid(segments, kicks, StepPolicy(max_step=1.0 / (MAX_STEPS - 2)))


def shared_grid_batches(T):
    """Batches of trains with equal edges and kick times: three seeded
    realizations of each square kind, and one kick schedule under both signs."""
    batches = [[(generate_segments(PulseTrain(kind, J=J, dt=0.05, p=1.0, seed=seed), T), None)
                for seed in (1, 2, 3)]
               for kind, J in ((ControlKind.POSITIVE_SQUARE, 40.0),
                               (ControlKind.ZERO_ENERGY_ALTERNATING, 60.0))]
    segments = generate_segments(NO_CONTROL, T)
    pos = make_kicks(ControlKind.DELTA_KICK_POSITIVE, T, 0.07, seed=2, jitter=0.5)
    alt = KickSchedule(pos.times, tuple((-1) ** i for i in range(len(pos.times))), area=2.0)
    batches.append([(segments, pos), (segments, alt)])
    return batches


@pytest.mark.parametrize("spec", [GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0)),
                                  GateSpec(GateKind.CPHASE, Schedule(A_REF, 1.0)),
                                  PHYSICAL], ids=lambda spec: spec.kind.value)
def test_batch_is_bit_identical_to_one_run_per_train(spec):
    for batch in shared_grid_batches(1.0):
        results = propagate_lab_batch(spec, batch)
        assert len(results) == len(batch)
        for (segments, kicks), result in zip(batch, results):
            alone = propagate_lab(spec, segments, kicks)
            assert np.array_equal(result.U, alone.U)
            assert result.steps_taken == alone.steps_taken
            assert result.unitarity_defect == alone.unitarity_defect


def test_batch_rejects_trains_on_different_grids():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    a = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.05), 1.0)
    b = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.04), 1.0)
    kicks = make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.1)
    shifted = KickSchedule(tuple(t + 1e-3 for t in kicks.times), kicks.signs)
    for batch in ([(a, None), (b, None)], [(a, kicks), (a, shifted)], [(a, kicks), (a, None)]):
        with pytest.raises(ValueError, match="share their segment edges and kick times"):
            propagate_lab_batch(spec, batch)
    with pytest.raises(ValueError, match="at least one"):
        propagate_lab_batch(spec, [])


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5])
def test_chunked_product_is_bit_identical_to_whole_stack(n, rng):
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    ts = np.sort(rng.uniform(0.0, 1.0, size=n))
    taus = rng.uniform(-0.05, 0.05, size=(3, n))
    levels, products = _chunked_product(spec, ts, taus)
    _, s, hs = gate_generators(spec, ts)
    assert levels == (1, 2, 3) and products.shape == (3, 3, 3)
    assert np.array_equal(products, ordered_product(matexp_cubic_stack(hs, s, taus)))
    for row, product in zip(taus, products):
        assert np.array_equal(product, ordered_product(matexp_cubic_stack(hs, s, row)))


def test_kicks_straddling_a_chunk_edge_match_the_whole_stack():
    spec = GateSpec(GateKind.XGATE, Schedule(A_REF, 1.0))
    segments = generate_segments(
        PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.05, p=1.0, seed=1), 1.0)
    kicks = KickSchedule((0.5112, 0.5116, 0.5121, 0.5124), (1, -1, 1, -1))
    policy = StepPolicy(max_step=1.0 / 2000)
    # the whole factor stack, steps and kicks interleaved, in one reduction
    bounds, seg_idx, kick_pos = _step_grid(segments, kicks, policy)
    factor_pos = kick_pos + np.arange(len(kick_pos))
    assert factor_pos[0] < CHUNK <= factor_pos[-1]
    mids = np.insert(0.5 * (bounds[1:] + bounds[:-1]), kick_pos, kicks.times)
    taus = np.insert((1.0 + np.asarray(segments.values)[seg_idx]) * np.diff(bounds),
                     kick_pos, kicks.area * np.asarray(kicks.signs, dtype=float))
    levels, s, hs = gate_generators(spec, mids)
    whole = ordered_product(matexp_cubic_stack(hs, s, taus))
    u = propagate_lab(spec, segments, kicks, policy).U
    assert np.array_equal(u[np.ix_(levels, levels)], whole)


def test_long_run_memory_stays_bounded():
    # 200,000 steps: the whole complex step stack alone would be ~29 MiB
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    segments = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=1e-4), 1.0)
    tracemalloc.start()
    try:
        result = propagate_lab(spec, segments)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.steps_taken == 200_000
    assert peak < 32 * 2 ** 20


def test_overflowing_control_is_rejected():
    # a finite amplitude over long steps: (1 + c) * dt overflows
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1000.0))
    segments = Segments((0.0, 500.0, 1000.0), (1.7e308, 0.0))
    with pytest.raises(ValueError, match="not finite"):
        propagate_lab(spec, segments, policy=StepPolicy(max_step=100.0))


def test_adiabatic_limit_recovers_dark_state_and_phase(rng):
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 100.0))
    result = propagate_lab(spec, generate_segments(NO_CONTROL, 100.0))
    amp = dark_amplitude(spec, result)
    assert abs(amp) >= 0.99
    # slow cycling leaves only the geometric phase, pi/2 at this amplitude
    assert abs(np.angle(amp) - berry_closed_form(A_REF)) <= 0.05


def test_unitarity_defect_stays_tiny_on_long_runs():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0))
    policy = StepPolicy(max_step=10.0 / 100_000)
    result = propagate_lab(spec, generate_segments(NO_CONTROL, 10.0), policy=policy)
    assert result.steps_taken == 100_000
    assert result.unitarity_defect <= 1e-9


def test_step_boundaries_align_with_segments():
    # an odd segment layout still tiles: per-segment substep counts differ
    segments = Segments((0.0, 0.3, 1.0), (2.0, 0.0))
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
    result = propagate_lab(spec, segments)
    assert result.unitarity_defect <= 1e-10


def test_policy_validation():
    with pytest.raises(ValueError, match="substeps"):
        StepPolicy(substeps_per_segment=5)
    with pytest.raises(ValueError, match="max_step"):
        StepPolicy(max_step=0.0)


@pytest.mark.parametrize("max_step", [math.nan, math.inf, -math.inf])
def test_policy_rejects_non_finite_max_step(max_step):
    with pytest.raises(ValueError, match="max_step must be positive and finite"):
        StepPolicy(max_step=max_step)


def test_physical_four_propagation_is_unitary():
    spec = GateSpec(GateKind.PHYSICAL_FOUR, Schedule(0.0, 1.0), j12=1.0, j13=1.0)
    result = propagate_lab(spec, generate_segments(NO_CONTROL, 1.0))
    assert result.U.shape == (16, 16)
    assert result.unitarity_defect <= 1e-10


class TestAdiabaticHamiltonian:
    def test_hermitian_at_random_arguments(self, rng):
        s = Schedule(A_REF, 1.0)
        for _ in range(100):
            t = rng.uniform(0, 1.0)
            c = rng.uniform(0, 200.0)
            assert hermiticity_defect(adiabatic_hamiltonian(s, t, c)) <= 1e-14

    def test_entries_at_cycle_start(self):
        s = Schedule(A_REF, 1.0)
        c = 1.7
        h = adiabatic_hamiltonian(s, 0.0, c)
        # theta(0) = 0: dark diagonal vanishes, bright diagonal = -phi_dot/2
        thd = s.theta_dot(0.0)
        phd = s.phi_dot(0.0)
        assert h[0, 0] == 0.0 and h[1, 1] == 0.0
        assert h[2, 2] == pytest.approx(-phd / 2)
        expected = thd / math.sqrt(2.0) * np.exp(-1j * c)
        np.testing.assert_allclose(h[1, 2], expected, atol=1e-14)
        np.testing.assert_allclose(h[1, 3], np.conj(expected), atol=1e-14)

    def test_stack_matches_per_entry_build(self, rng):
        s = Schedule(A_REF, 1.0)
        ts = rng.uniform(0, 1.0, size=50)
        cs = rng.uniform(0, 200.0, size=50)
        stack = adiabatic_hamiltonian(s, ts, cs)
        assert stack.shape == (50, 4, 4)
        entries = np.stack([adiabatic_hamiltonian(s, t, c) for t, c in zip(ts, cs)])
        assert np.max(np.abs(stack - entries)) <= 1e-15

    def test_decoupled_level_stays_zero_row(self, rng):
        s = Schedule(1.3, 2.0)
        h = adiabatic_hamiltonian(s, rng.uniform(0, 2.0), rng.uniform(0, 50.0))
        assert np.all(h[0, :] == 0) and np.all(h[:, 0] == 0)


class TestFrameEquivalence:
    def test_no_control_T10(self):
        s = Schedule(A_REF, 10.0)
        spec = GateSpec(GateKind.PHASE, s)
        segments = generate_segments(NO_CONTROL, 10.0)
        lab = propagate_lab(spec, segments)
        adiab = propagate_adiabatic(s, segments)
        amp_lab = dark_amplitude(spec, lab)
        amp_ad = adiab.U[1, 1]
        assert abs(abs(amp_lab) - abs(amp_ad)) <= 1e-6
        # dark states carry no dynamical phase, so the phases agree too
        assert abs(np.angle(amp_lab) - np.angle(amp_ad)) <= 1e-5

    def test_strong_positive_square_control_T1(self):
        s = Schedule(A_REF, 1.0)
        spec = GateSpec(GateKind.PHASE, s)
        train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=200.0, dt=0.005, p=0.0)
        segments = generate_segments(train, 1.0)
        lab = propagate_lab(spec, segments)
        adiab = propagate_adiabatic(s, segments)
        diff = abs(abs(dark_amplitude(spec, lab)) - abs(adiab.U[1, 1]))
        assert diff <= 1e-4


def test_adiabatic_frame_sees_control_only_through_C():
    """Identical c(t) under different segment tilings gives identical U."""
    s = Schedule(A_REF, 1.0)
    one = Segments((0.0, 1.0), (5.0,))
    split = Segments((0.0, 0.5, 1.0), (5.0, 5.0))
    policy_one = StepPolicy(substeps_per_segment=40, max_step=0.025)
    policy_split = StepPolicy(substeps_per_segment=20, max_step=0.025)
    u1 = propagate_adiabatic(s, one, policy_one).U
    u2 = propagate_adiabatic(s, split, policy_split).U
    assert np.max(np.abs(u1 - u2)) <= 1e-10


def test_quality_factor_insensitive_to_micro_shape():
    """Equal C at every dt boundary, different shapes inside: f agrees to 1e-3."""
    s = Schedule(A_REF, 1.0)
    spec = GateSpec(GateKind.PHASE, s)
    dt, J = 0.005, 200.0
    n = int(round(1.0 / dt))
    edges = np.arange(2 * n + 1) * (dt / 2.0)
    on = np.repeat(np.arange(n) % 2 == 0, 2)
    # flat: [J, J]; burst: [2J, 0] -- same integral over each dt window
    flat = np.where(on, J, 0.0)
    burst = np.where(on & (np.arange(2 * n) % 2 == 0), 2 * J, 0.0)
    gamma_ideal = berry_closed_form(A_REF)
    dark = dark_states(spec, 0.0)[-1]
    fs = []
    for segs in (Segments(edges, flat), Segments(edges, burst)):
        result = propagate_lab(spec, segs)
        fs.append(evaluate_holonomy(result.U, dark, gamma_ideal).f)
    assert abs(fs[0] - fs[1]) <= 1e-3


class TestKicks:
    def test_positive_and_alternating_kicks_agree_exactly_even_count(self):
        self._check_kick_equivalence(interval=0.2)   # 4 kicks

    def test_positive_and_alternating_kicks_agree_exactly_odd_count(self):
        self._check_kick_equivalence(interval=0.1)   # 9 kicks

    @staticmethod
    def _check_kick_equivalence(interval):
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        segments = generate_segments(NO_CONTROL, 1.0)
        pos = make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, interval)
        alt = KickSchedule(pos.times, tuple((-1) ** i for i in range(len(pos.times))))
        u_pos = propagate_lab(spec, segments, kicks=pos).U
        u_alt = propagate_lab(spec, segments, kicks=alt).U
        assert np.max(np.abs(u_pos - u_alt)) <= 1e-10

    def test_empty_kick_schedule_is_no_op(self):
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        segments = generate_segments(NO_CONTROL, 1.0)
        plain = propagate_lab(spec, segments).U
        with_empty = propagate_lab(spec, segments, kicks=KickSchedule((), ())).U
        np.testing.assert_array_equal(plain, with_empty)

    def test_kick_outside_span_rejected(self):
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        segments = generate_segments(NO_CONTROL, 1.0)
        with pytest.raises(ValueError, match="inside"):
            propagate_lab(spec, segments, kicks=KickSchedule((1.5,), (1,)))

    def test_kicks_accelerate_the_passage(self):
        """pi kicks push a nonadiabatic run toward the ideal holonomy."""
        spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 1.0))
        segments = generate_segments(NO_CONTROL, 1.0)
        dark = dark_states(spec, 0.0)[-1]
        gamma = berry_closed_form(A_REF)
        bare = evaluate_holonomy(propagate_lab(spec, segments).U, dark, gamma).f
        kicks = make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.02)
        kicked = evaluate_holonomy(propagate_lab(spec, segments, kicks=kicks).U,
                                   dark, gamma).f
        assert kicked > bare + 0.3


def test_step_halving_changes_dark_amplitude_below_1e6():
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, 10.0))
    segments = generate_segments(NO_CONTROL, 10.0)
    coarse = propagate_lab(spec, segments)  # default ~4096 steps
    fine = propagate_lab(spec, segments, policy=StepPolicy(max_step=10.0 / 8192))
    diff = abs(abs(dark_amplitude(spec, coarse)) - abs(dark_amplitude(spec, fine)))
    assert diff <= 1e-6


def test_resonant_alternating_control_reaches_strong_positive_value():
    """dt -> small at J*dt = 2*pi matches a large constant positive control."""
    T = 10.0
    spec = GateSpec(GateKind.PHASE, Schedule(A_REF, T))
    dark = dark_states(spec, 0.0)[-1]
    gamma = berry_closed_form(A_REF)
    dt = 0.005
    J = 2 * math.pi / dt
    alt = generate_segments(
        PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=J, dt=dt, p=0.0), T)
    f_alt = evaluate_holonomy(propagate_lab(spec, alt).U, dark, gamma).f
    constant = Segments((0.0, T), (J,))
    f_big = evaluate_holonomy(propagate_lab(spec, constant).U, dark, gamma).f
    assert abs(f_alt - f_big) <= 1e-2
    assert f_alt > 0.99
