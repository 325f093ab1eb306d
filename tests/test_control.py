import math

import numpy as np
import pytest

from holonomy_sim.control import (ControlKind, ControlSegment, KickSchedule,
                                  PulseTrain, generate_segments, integral_C,
                                  make_kicks, mean_control, net_area,
                                  resonance_condition, validate_tiling)

TWO_PI = 2 * math.pi


def test_no_control_single_zero_segment():
    segs = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 1.0)
    assert segs == (ControlSegment(0.0, 1.0, 0.0),)


def test_positive_square_without_randomness():
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=100.0, dt=0.005, p=0.0, seed=3)
    segs = generate_segments(train, 0.02)
    assert [(s.t_start, s.t_end, s.value) for s in segs] == [
        (0.0, 0.005, 100.0), (0.005, 0.01, 0.0),
        (0.01, 0.015, 100.0), (0.015, 0.02, 0.0)]


def test_zero_energy_alternating_without_randomness():
    train = PulseTrain(ControlKind.ZERO_ENERGY_ALTERNATING, J=10.0, dt=0.1, p=0.0)
    segs = generate_segments(train, 0.4)
    assert [s.value for s in segs] == [10.0, -10.0, 10.0, -10.0]


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
            assert validate_tiling(segs, T) == pytest.approx(T)
            assert abs(sum(s.length for s in segs) - T) <= 1e-12


def test_p_zero_removes_all_randomness():
    a = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=7.0, dt=0.1,
                                     p=0.0, seed=1), 1.0)
    b = generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=7.0, dt=0.1,
                                     p=0.0, seed=2), 1.0)
    assert a == b
    assert all(s.value in (0.0, 7.0) for s in a)


def test_dt_larger_than_span_rejected():
    with pytest.raises(ValueError, match="smaller than"):
        generate_segments(PulseTrain(ControlKind.POSITIVE_SQUARE, J=1.0, dt=2.0), 1.0)


def test_random_amplitude_range(rng):
    # amplitude J*(1 - p*(1/2 - r)) stays within J*[1 - p/2, 1 + p/2)
    train = PulseTrain(ControlKind.POSITIVE_SQUARE, J=10.0, dt=0.01, p=0.5, seed=11)
    segs = generate_segments(train, 1.0)
    on_values = [s.value for s in segs if s.value != 0.0]
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
        segs = generate_segments(PulseTrain(ControlKind.NO_CONTROL), 1.0)
        kicks = make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.1)
        assert net_area(segs, kicks) == pytest.approx(9 * math.pi)
        alt = make_kicks(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.1)
        assert net_area(segs, alt) == pytest.approx(math.pi)  # 9 kicks, odd count


class TestResonance:
    def test_exact_first_resonance(self):
        assert resonance_condition(TWO_PI / 0.01, 0.01) == (True, 1)

    def test_antiresonance(self):
        resonant, n = resonance_condition(math.pi / 0.01, 0.01)
        assert resonant is False
        assert n >= 1

    def test_near_second_resonance_with_tolerance(self):
        assert resonance_condition((4 * math.pi + 1e-9) / 0.01, 0.01, tol=1e-6) == (True, 2)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resonance_condition(0.0, 0.1)


class TestMakeKicks:
    def test_zero_jitter_grid(self):
        kicks = make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.1)
        assert len(kicks.times) == 9
        np.testing.assert_allclose(kicks.times, [0.1 * i for i in range(1, 10)])
        assert kicks.signs == tuple([1] * 9)

    def test_alternating_sign_sum(self):
        for interval in (0.1, 0.07, 0.21):
            kicks = make_kicks(ControlKind.DELTA_KICK_ALTERNATING, 1.0, interval)
            assert sum(kicks.signs) in (-1, 0, 1)

    def test_jittered_times_stay_ordered_and_inside(self):
        kicks = make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, 0.05,
                           seed=5, jitter=0.9)
        assert all(0.0 < t < 1.0 for t in kicks.times)
        assert all(a < b for a, b in zip(kicks.times, kicks.times[1:]))

    def test_jitter_is_seeded(self):
        k1 = make_kicks(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.05, seed=9, jitter=0.5)
        k2 = make_kicks(ControlKind.DELTA_KICK_ALTERNATING, 1.0, 0.05, seed=9, jitter=0.5)
        assert k1 == k2

    def test_rejects_square_kind_and_bad_interval(self):
        with pytest.raises(ValueError, match="kind"):
            make_kicks(ControlKind.POSITIVE_SQUARE, 1.0, 0.1)
        with pytest.raises(ValueError, match="interval"):
            make_kicks(ControlKind.DELTA_KICK_POSITIVE, 1.0, 1.5)


def test_exp_iC_periodicity_between_kick_pairs():
    """Positive and alternating kick trains differ by multiples of 2*pi in C."""
    times = tuple(0.1 * i for i in range(1, 10))
    pos = KickSchedule(times, tuple([1] * 9))
    alt = KickSchedule(times, tuple((-1) ** i for i in range(9)))
    for t in np.linspace(0.0, 1.0, 101):
        c_pos = t + math.pi * sum(1 for tau in times if tau <= t)
        c_alt = t + math.pi * sum(s for tau, s in zip(times, alt.signs) if tau <= t)
        diff = c_pos - c_alt
        assert abs(diff / TWO_PI - round(diff / TWO_PI)) <= 1e-12


def test_kick_schedule_validation():
    with pytest.raises(ValueError, match="ascending"):
        KickSchedule((0.2, 0.1), (1, 1))
    with pytest.raises(ValueError, match="signs"):
        KickSchedule((0.1, 0.2), (1, 2))
    with pytest.raises(ValueError, match="length"):
        KickSchedule((0.1, 0.2), (1,))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_kick_schedule_rejects_non_finite(value):
    with pytest.raises(ValueError, match="area must be finite"):
        KickSchedule((0.1, 0.2), (1, -1), area=value)
    with pytest.raises(ValueError, match="times must be finite"):
        KickSchedule((0.1, value), (1, -1))


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
