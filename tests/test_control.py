import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from holonomy_sim.control import (KICK_AREA, KICK_KINDS, MAX_STEPS, ControlKind, PulseTrain,
                                  Segments, generate_segments, integral_C, mean_control,
                                  net_area, resonance_condition)

TWO_PI = 2 * math.pi


def test_no_control_single_zero_segment():
    segs = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 1.0)
    assert segs == Segments((0.0, 1.0), (0.0,))
    assert len(segs) == 1 and segs.span == 1.0


def test_positive_square_without_randomness():
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=100.0, dt=0.005, p=0.0, seed=3)
    segs = generate_segments(train, 0.02)
    assert list(zip(segs.edges, segs.edges[1:], segs.values)) == [
        (0.0, 0.005, 100.0), (0.005, 0.01, 0.0),
        (0.01, 0.015, 100.0), (0.015, 0.02, 0.0)]


def test_zero_energy_alternating_without_randomness():
    train = PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=10.0, dt=0.1, p=0.0)
    segs = generate_segments(train, 0.4)
    assert segs.values.tolist() == [10.0, -10.0, 10.0, -10.0]


def test_generation_is_deterministic():
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.01, p=0.5, seed=99)
    assert generate_segments(train, 1.0) == generate_segments(train, 1.0)


def test_different_seeds_differ():
    t1 = PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.01, p=0.5, seed=1)
    t2 = PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.01, p=0.5, seed=2)
    assert generate_segments(t1, 1.0) != generate_segments(t2, 1.0)


def test_segments_tile_exactly(rng):
    for T, dt in [(1.0, 0.005), (10.0, 0.1), (0.7, 0.13)]:
        for kind in (ControlKind.POSITIVE_SQUARE, ControlKind.ZERO_ENERGY_ALTERNATING):
            segs = generate_segments(PulseTrain(kind, J=5.0, dt=dt, p=0.5, seed=7), T)
            assert segs.edges[0] == 0.0 and segs.span == pytest.approx(T)
            assert abs(sum(np.diff(segs.edges)) - T) <= 1e-12


def test_p_zero_removes_all_randomness():
    a = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=7.0, dt=0.1,
                                     p=0.0, seed=1), 1.0)
    b = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=7.0, dt=0.1,
                                     p=0.0, seed=2), 1.0)
    assert a == b
    assert all(v in (0.0, 7.0) for v in a.values)


def test_dt_larger_than_span_rejected():
    with pytest.raises(ValueError, match="smaller than"):
        generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=2.0), 1.0)


def test_random_amplitude_range(rng):
    # amplitude J*(1 - p*(1/2 - r)) stays within J*[1 - p/2, 1 + p/2)
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=10.0, dt=0.01, p=0.5, seed=11)
    segs = generate_segments(train, 1.0)
    on_values = [v for v in segs.values if v != 0.0]
    assert all(7.5 <= v < 12.5 for v in on_values)
    assert len(set(on_values)) > 10  # fresh draw per on-segment


class TestIntegralC:
    def test_no_control_gives_time(self):
        segs = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 2.0)
        for t in (0.0, 0.41, 1.0, 2.0):
            assert integral_C(segs, t) == pytest.approx(t, abs=1e-15)

    def test_alternating_full_period_cancels(self):
        train = PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=10.0, dt=0.1, p=0.0)
        segs = generate_segments(train, 0.4)
        assert integral_C(segs, 0.2) == pytest.approx(0.2, abs=1e-12)
        assert integral_C(segs, 0.4) == pytest.approx(0.4, abs=1e-12)

    def test_positive_square_on_segment_increment(self):
        train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=50.0, dt=0.005, p=0.0)
        segs = generate_segments(train, 0.02)
        assert integral_C(segs, 0.005) == pytest.approx(0.005 * 51.0, abs=1e-12)

    def test_kick_counts_from_its_instant(self):
        segs = generate_segments(PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.25), 1.0)
        assert segs.kick_times.tolist() == [0.25, 0.5, 0.75]
        before = np.nextafter(0.5, 0.0)
        assert integral_C(segs, before) == before + math.pi
        assert integral_C(segs, 0.5) == 0.5 + 2 * math.pi
        assert integral_C(segs, 1.0) == 1.0 + 3 * math.pi

    def test_out_of_range_rejected(self):
        segs = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 1.0)
        with pytest.raises(ValueError, match="outside"):
            integral_C(segs, 1.5)


class TestAreas:
    def test_alternating_even_count_is_zero_energy(self):
        train = PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=10.0, dt=0.1, p=0.0)
        segs = generate_segments(train, 0.4)
        assert mean_control(segs) == pytest.approx(0.0, abs=1e-12)
        assert net_area(segs) == pytest.approx(0.0, abs=1e-12)

    def test_positive_square_mean_is_half_amplitude(self):
        train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=8.0, dt=0.05, p=0.0)
        segs = generate_segments(train, 1.0)
        assert mean_control(segs) == pytest.approx(4.0, abs=1e-12)

    def test_positive_kicks_net_area(self):
        segs = generate_segments(PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.1), 1.0)
        assert net_area(segs) == pytest.approx(9 * math.pi)
        alt = generate_segments(PulseTrain(ControlKind.DELTA_KICK_ALTERNATING, dt=0.1), 1.0)
        assert net_area(alt) == pytest.approx(math.pi)  # 9 kicks, odd count
        # three kicks over T = 2
        segs = generate_segments(PulseTrain(ControlKind.DELTA_KICK_POSITIVE, dt=0.5), 2.0)
        assert mean_control(segs) == 1.5 * math.pi

    def test_every_kick_has_area_pi_and_no_kicks_add_none(self):
        segs = generate_segments(PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=3.0,
                                            dt=0.1, p=1.0, seed=2), 0.7)
        assert KICK_AREA == math.pi
        assert segs == Segments(segs.edges, segs.values, (), ())
        kicked = Segments(segs.edges, segs.values, (0.2, 0.3, 0.5), (1, 1, -1))
        assert net_area(kicked) == net_area(segs) + math.pi


class TestResonance:
    def test_exact_first_resonance(self):
        assert resonance_condition(TWO_PI / 0.01, 0.01) == (True, 1)

    def test_antiresonance(self):
        resonant, n = resonance_condition(math.pi / 0.01, 0.01)
        assert resonant is False
        assert n >= 1

    def test_near_second_resonance_with_tolerance(self):
        assert resonance_condition((4 * math.pi + 1e-9) / 0.01, 0.01) == (True, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resonance_condition(0.0, 0.1)


def kick_train(kind, T, interval, seed=0, jitter=0.0):
    """The kicks of generate_segments at spacing interval with jitter p/2 = jitter."""
    return generate_segments(PulseTrain(kind, dt=interval, p=2.0 * jitter, seed=seed), T)


class TestMakeKicks:
    def test_zero_jitter_grid(self):
        segs = kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.1)
        assert segs.edges.tolist() == [0.0, 1.0] and segs.values.tolist() == [0.0]
        assert len(segs.kick_times) == 9
        np.testing.assert_allclose(segs.kick_times, [0.1 * i for i in range(1, 10)])
        assert segs.kick_signs.tolist() == [1] * 9

    def test_alternating_sign_sum(self):
        for interval in (0.1, 0.07, 0.21):
            segs = kick_train(ControlKind.DELTA_KICK_ALTERNATING, 1.0, interval)
            assert sum(segs.kick_signs) in (-1, 0, 1)

    def test_jittered_times_stay_ordered_and_inside(self):
        times = kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.05, seed=5,
                           jitter=0.9).kick_times
        assert all(0.0 < t < 1.0 for t in times)
        assert all(a < b for a, b in zip(times, times[1:]))

    def test_jitter_is_seeded(self):
        k1 = kick_train(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.05, seed=9, jitter=0.5)
        k2 = kick_train(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.05, seed=9, jitter=0.5)
        assert k1 == k2

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="dt 1.5 must be smaller than T 1.0"):
            kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 1.5)


def test_exp_iC_periodicity_between_kick_pairs():
    """Positive and alternating kick trains differ by multiples of 2*pi in C."""
    times = tuple(0.1 * i for i in range(1, 10))
    pos = Segments((0.0, 1.0), (0.0,), times, tuple([1] * 9))
    alt = Segments((0.0, 1.0), (0.0,), times, tuple((-1) ** i for i in range(9)))
    for t in np.linspace(0.0, 1.0, 101):
        diff = integral_C(pos, t) - integral_C(alt, t)
        assert abs(diff / TWO_PI - round(diff / TWO_PI)) <= 1e-12


def test_pulse_train_validation():
    with pytest.raises(ValueError, match="p must"):
        PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=0.1, p=2.5)
    with pytest.raises(ValueError, match="J must"):
        PulseTrain(ControlKind.POSITIVE_SQUARE, J=-1.0, dt=0.1)
    with pytest.raises(ValueError, match="dt must"):
        PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=0.0)


@pytest.mark.parametrize("field", ["J", "dt"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_pulse_train_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=f"{field} must"):
        PulseTrain(ControlKind.POSITIVE_SQUARE, **{"J": 1.0, "dt": 0.1, field: value})


def test_pulse_train_rejects_overflowing_amplitude():
    # J is finite, but J * (1 + p/2), the largest random amplitude, is not
    with pytest.raises(ValueError, match="not finite"):
        PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.7e308, dt=0.1, p=2.0)
    PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.7e308, dt=0.1, p=0.0)


def loop_segments(train, T):
    """generate_segments written one segment and one draw at a time."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(train.seed)))
    edges, values = [0.0], []
    k = 0
    while k * train.dt < T * (1.0 - 1e-12):
        edges.append(min((k + 1) * train.dt, T))
        if train.kind is ControlKind.POSITIVE_SQUARE and k % 2:
            values.append(0.0)
        else:
            values.append(train.J * (1.0 - train.p * (0.5 - rng.random())) * (-1.0) ** (
                k if train.kind is ControlKind.ZERO_ENERGY_ALTERNATING else 0))
        k += 1
    return edges, values


def loop_integral_C(edges, values, t):
    """integral_C accumulated one segment at a time."""
    total = 0.0
    for t0, t1, v in zip(edges, edges[1:], values):
        if t < t1:
            return total + (1.0 + v) * max(t - t0, 0.0)
        total += (1.0 + v) * (t1 - t0)
    return total


def loop_kicks(kind, T, interval, seed, jitter):
    """_make_kicks written one instant and one draw at a time."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    times = []
    i = 1
    while i * interval < T * (1.0 - 1e-12):
        t = i * interval
        if jitter > 0.0:
            t += interval * jitter * (rng.random() - 0.5)
        if 0.0 < t < T:
            times.append(t)
        i += 1
    signs = [1 if kind is ControlKind.DELTA_KICK_POSITIVE else (-1) ** i
             for i in range(len(times))]
    return times, signs


def bits(xs):
    return np.asarray(xs, dtype=float).tobytes()


@pytest.mark.parametrize("kind", [ControlKind.POSITIVE_SQUARE,
                                  ControlKind.ZERO_ENERGY_ALTERNATING])
@pytest.mark.parametrize("T, dt", [(0.7, 0.13), (1.0, 0.005), (10.0, 0.1)])
@pytest.mark.parametrize("p", [0.0, 2.0])
def test_generate_segments_matches_loop_reference_bit_for_bit(kind, T, dt, p):
    train = PulseTrain(kind, J=37.5, dt=dt, p=p, seed=11)
    segs = generate_segments(train, T)
    edges, values = loop_segments(train, T)
    assert bits(segs.edges) == bits(edges)
    assert bits(segs.values) == bits(values)
    # sequential sums, so mean_control_measured in bundle.json keeps its bytes
    assert net_area(segs) == sum(v * (b - a) for v, a, b in zip(values, edges, edges[1:]))
    for t in (0.0, 0.37 * T, T):
        assert integral_C(segs, t) == loop_integral_C(edges, values, t)


@pytest.mark.parametrize("kind", KICK_KINDS)
@pytest.mark.parametrize("T, interval", [(0.7, 0.13), (1.0, 0.02), (10.0, 0.1)])
@pytest.mark.parametrize("jitter", [0.0, 0.5, 1.0])
def test_make_kicks_matches_loop_reference_bit_for_bit(kind, T, interval, jitter):
    segs = kick_train(kind, T, interval, seed=4, jitter=jitter)
    times, signs = loop_kicks(kind, T, interval, 4, jitter)
    assert bits(segs.kick_times) == bits(times)
    assert segs.kick_signs.tolist() == signs


TILE = ((0.0, 1.0), (0.0,))

REJECTIONS = [
    (((0.0, 1.0), ()), "edges for n >= 1 values"),
    (((0.0,), ()), "edges for n >= 1 values"),
    (((0.0, 1.0), (1.0, 2.0)), "edges for n >= 1 values"),
    (((0.1, 1.0), (1.0,)), "start at 0"),
    (((0.0, 0.5, 0.5), (1.0, 2.0)), "ascend"),
    (((0.0, 0.6, 0.5), (1.0, 2.0)), "ascend"),
    (((0.0, -1.7e308, 1.7e308), (1.0, 2.0)), "ascend"),  # the second step overflows
    (((0.0, math.nan), (1.0,)), "finite"),
    (((0.0, math.inf), (1.0,)), "finite"),
    (((0.0, 1.0), (math.nan,)), "finite"),
    (((0.0, 1.0), (-math.inf,)), "finite"),
    ((*TILE, (0.0, 0.5), (1, 1)), r"strictly inside \(0, span\)"),
    ((*TILE, (0.5, 1.0), (1, 1)), r"strictly inside \(0, span\)"),
    ((*TILE, (-1.7e308, 0.5), (1, 1)), r"strictly inside \(0, span\)"),
    ((*TILE, (0.2, 0.1), (1, 1)), "strictly ascending"),
    ((*TILE, (0.2, 0.2), (1, 1)), "strictly ascending"),
    ((*TILE, (0.1, 0.2), (1, 2)), r"signs must be \+-1"),
    ((*TILE, (0.1, 0.2), (1, 0)), r"signs must be \+-1"),
    ((*TILE, (0.1, 0.2), (1, math.nan)), r"signs must be \+-1"),
    ((*TILE, (0.1, 0.2), (1,)), "equal length"),
    ((*TILE, (0.1,), ()), "equal length"),
    ((*TILE, (0.1, math.nan), (1, -1)), "kick times must be finite"),
    ((*TILE, (0.1, math.inf), (1, -1)), "kick times must be finite"),
    ((*TILE, (-math.inf, 0.1), (1, -1)), "kick times must be finite"),
]


@pytest.mark.parametrize("fields, message", REJECTIONS)
def test_segments_reject_bad_tilings(fields, message):
    with pytest.raises(ValueError, match=message):
        Segments(*fields)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("fields, message", REJECTIONS)
def test_a_job_layout_rejects_every_bad_tiling_with_the_message_of_one_train(fields, message,
                                                                             rows):
    # the value and sign matrices of a job repeat the one train's row
    with pytest.raises(ValueError, match=message) as one:
        Segments(*fields)
    edges, values, *kicks = fields
    if kicks:
        kicks = [kicks[0], [kicks[1]] * rows]
    with pytest.raises(ValueError) as job:
        Segments(edges, [values] * rows, *kicks)
    assert str(job.value) == str(one.value)


def test_a_job_draws_each_row_as_its_train_alone():
    square = PulseTrain(ControlKind.POSITIVE_SQUARE, J=40.0, dt=0.05, p=0.5, seed=1)
    trains = [square, PulseTrain(ControlKind.POSITIVE_SQUARE, dt=0.05, seed=1),
              PulseTrain(ControlKind.POSITIVE_SQUARE, J=80.0, dt=0.05, p=2.0, seed=7),
              PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=9.0, dt=0.05, p=1.0, seed=1)]
    kicks = [PulseTrain(kind, dt=0.07, p=0.8, seed=5) for kind in KICK_KINDS]
    for batch, T in ((trains, 0.93), (kicks, 1.0)):
        job = generate_segments(batch, T)
        assert job.values.shape == (len(batch), len(job))
        assert job.kick_signs.shape == (len(batch), len(job.kick_times))
        for row, signs, mean, train in zip(job.values, job.kick_signs, mean_control(job), batch):
            alone = generate_segments(train, T)
            assert bits(job.edges) == bits(alone.edges)
            assert bits(job.kick_times) == bits(alone.kick_times)
            assert bits(row) == bits(alone.values)
            assert signs.tolist() == alone.kick_signs.tolist()
            assert bits(mean) == bits(mean_control(alone))
    assert generate_segments([square], 0.93) == Segments(
        generate_segments(square, 0.93).edges, [generate_segments(square, 0.93).values])


@pytest.mark.parametrize("build", [
    lambda: generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=1e-12), 1.0),
    lambda: generate_segments(PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=1.0,
                                         dt=5e-324), 1.0),
    lambda: kick_train(ControlKind.DELTA_KICK_POSITIVE, 1.0, 1e-12),
    lambda: kick_train(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 1.0 / (MAX_STEPS - 1)),
], ids=["segments", "segments-overflow", "kicks", "kicks-just-above"])
def test_run_size_cap_rejects_before_allocating(build):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="grid points, above the cap MAX_STEPS"):
            build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_segments_store_read_only_arrays():
    segs = Segments(np.array([0, 1, 3]), [2, -1])
    assert segs.edges.tolist() == [0.0, 1.0, 3.0] and segs.values.tolist() == [2.0, -1.0]
    assert segs.edges.dtype == segs.values.dtype == float
    assert segs == Segments((0.0, 1.0, 3.0), (2.0, -1.0))
    assert segs != Segments((0.0, 1.0, 3.0), (2.0, 1.0))
    assert segs != Segments((0.0, 1.0, 3.0), [(2.0, -1.0)])  # a job of one row
    assert len(segs) == 2 and segs.span == 3.0 and type(segs.span) is float
    kicked = Segments(segs.edges, segs.values, np.array([0.5, 2]), np.array([-1.0, 1.0]))
    assert kicked.kick_times.tolist() == [0.5, 2.0] and kicked.kick_signs.tolist() == [-1, 1]
    assert kicked.kick_signs.dtype == int
    assert kicked == Segments((0.0, 1.0, 3.0), (2.0, -1.0), (0.5, 2.0), (-1, 1))
    for array in (kicked.edges, kicked.values, kicked.kick_times, kicked.kick_signs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    # the fields are the segments' own copies, and arrays are not hashable
    edges = np.array([0.0, 1.0, 3.0])
    owned = Segments(edges, (2.0, -1.0))
    edges[0] = 5.0
    assert owned.edges[0] == 0.0
    with pytest.raises(TypeError, match="unhashable"):
        hash(segs)


def test_a_job_carries_one_row_of_values_and_signs_per_train():
    job = Segments((0.0, 1.0, 3.0), [(2.0, -1.0), (0.0, 4.0), (2.0, -1.0)])
    assert job.values.shape == (3, 2) and job.kick_signs.shape == (3, 0) and len(job) == 2
    kicked = Segments((0.0, 1.0), [(0.0,), (0.0,)], (0.25, 0.5), [(1, 1), (1, -1)])
    assert kicked.kick_signs.tolist() == [[1, 1], [1, -1]]
    assert net_area(kicked) == [2 * math.pi, 0.0]
    assert mean_control(job) == [(2.0 - 2.0) / 3, 8.0 / 3, 0.0]
    assert integral_C(kicked, 0.5) == [0.5 + 2 * math.pi, 0.5]
    assert integral_C(job, 2.0) == [3.0 + 0.0, 1.0 + 5.0, 3.0 + 0.0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(), max_size=6), st.lists(st.floats(), max_size=5),
       st.lists(st.floats(), max_size=3),
       st.lists(st.sampled_from([1, -1, 1.0, 0, 2, math.nan]), max_size=3))
def test_any_edges_and_values_give_segments_or_value_error(edges, values, times, signs):
    try:
        segs = Segments(edges, values, times, signs)
    except ValueError:
        return
    assert len(segs.edges) == len(segs) + 1 and segs.edges[0] == 0.0
    assert all(a < b for a, b in zip(segs.edges, segs.edges[1:]))
    assert all(map(math.isfinite, segs.edges.tolist() + segs.values.tolist()))
    kicks = [0.0] + segs.kick_times.tolist() + [segs.span]
    assert all(a < b for a, b in zip(kicks, kicks[1:]))
    assert len(segs.kick_signs) == len(segs.kick_times)
    assert all(s in (-1, 1) and type(s) is int for s in segs.kick_signs.tolist())
