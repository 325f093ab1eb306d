import math

import numpy as np
import pytest
import scipy.special

from holonomy_sim.hamiltonians import GateKind, Schedule
from holonomy_sim.holonomy import (PhaseUndefinedError, bessel_j0,
                                   berry_closed_form, berry_numeric,
                                   evaluate_holonomy, extract_phase,
                                   gate_matrix, quality_factor, wrap_angle)
from holonomy_sim.qcore import unitarity_defect

PI = math.pi


def series_j0(x, terms=40):
    """Power-series oracle, accurate for small |x| in double precision."""
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_root_near_first_zero(self):
        # 2a with a = 1.2024 sits at the first root
        assert abs(bessel_j0(2 * 1.2024)) <= 1e-4

    def test_half_value_point(self):
        assert abs(bessel_j0(1.5210) - 0.5) <= 2e-4

    def test_against_series_oracle_small_arguments(self):
        for x in np.linspace(0.0, 12.0, 49):
            assert abs(bessel_j0(x) - series_j0(float(x))) <= 1e-12

    def test_against_scipy_oracle_full_range(self):
        for x in np.linspace(0.0, 50.0, 501):
            assert abs(bessel_j0(float(x)) - scipy.special.j0(x)) <= 1e-12

    def test_even_function(self):
        for x in (0.5, 3.3, 17.0):
            assert bessel_j0(-x) == pytest.approx(bessel_j0(x), abs=1e-15)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="range"):
            bessel_j0(51.0)


class TestBerryPhase:
    def test_closed_form_at_zero(self):
        assert berry_closed_form(0.0) == 0.0

    def test_closed_form_paper_amplitudes(self):
        assert abs(berry_closed_form(1.2024) - PI) <= 1e-3
        assert abs(berry_closed_form(0.7605) - PI / 2) <= 1e-3

    def test_closed_form_digits_of_every_shipped_amplitude(self):
        # a = 0.7605 and 1.2024 are the amplitudes of every config and benchmark
        # input; these exact values guard the shipped outputs against drift in J0
        assert berry_closed_form(0.7605) == 1.570542527868721
        assert berry_closed_form(1.2024) == 3.141550970045307

    def test_numeric_matches_closed_form_on_grid(self):
        for a in np.linspace(0.0, 3.0, 50):
            s = Schedule(float(a), 1.0)
            assert abs(berry_numeric(s, 10_000) - berry_closed_form(float(a))) <= 1e-8

    def test_numeric_independent_of_period(self):
        for T in (0.5, 1.0, 25.0):
            s = Schedule(1.1, T)
            assert berry_numeric(s, 5000) == pytest.approx(berry_closed_form(1.1),
                                                           abs=1e-10)

    def test_numeric_rejects_coarse_grids(self):
        with pytest.raises(ValueError, match="n_points"):
            berry_numeric(Schedule(1.0, 1.0), 99)

    def test_closed_form_rejects_negative_amplitude(self):
        with pytest.raises(ValueError):
            berry_closed_form(-1.0)


class TestExtractPhase:
    def test_identity(self):
        d = np.array([1, 0, 0, 0], dtype=complex)
        gamma, overlap = extract_phase(np.eye(4, dtype=complex), d)
        assert gamma == 0.0 and overlap == 1.0

    def test_pure_phase_on_projector(self):
        d = np.array([1, 1j, 0, 0], dtype=complex) / math.sqrt(2)
        u = np.exp(1j * PI / 3) * np.outer(d, d.conj())
        u += np.eye(4) - np.outer(d, d.conj())  # completion on the complement
        gamma, overlap = extract_phase(u, d)
        assert gamma == pytest.approx(PI / 3, abs=1e-12)
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_vanishing_overlap_flagged(self):
        d = np.array([1, 0], dtype=complex)
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(PhaseUndefinedError):
            extract_phase(u, d)

    def test_requires_normalized_state(self):
        with pytest.raises(ValueError, match="normalized"):
            extract_phase(np.eye(2, dtype=complex), np.array([2.0, 0.0], dtype=complex))


class TestQualityFactor:
    def test_perfect_run(self):
        assert quality_factor(1.0, 1.0, 1.0) == 1.0

    def test_opposite_phase(self):
        assert quality_factor(0.0, PI, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_arithmetic_example(self):
        assert quality_factor(0.0, PI / 2, 0.8) == pytest.approx(0.4)

    def test_wrapping_keeps_f_in_range(self, rng):
        for _ in range(500):
            gi = rng.uniform(-10, 10)
            gm = rng.uniform(-10, 10)
            ov = rng.uniform(0, 1)
            f = quality_factor(gi, gm, ov)
            assert 0.0 <= f <= 1.0

    def test_full_turn_is_no_error(self):
        assert quality_factor(0.3, 0.3 + 2 * PI, 0.9) == pytest.approx(0.9, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            quality_factor(float("nan"), 0.0, 1.0)


def test_wrap_angle_principal_interval():
    assert wrap_angle(PI) == pytest.approx(PI)
    assert wrap_angle(-PI) == pytest.approx(PI)
    assert wrap_angle(3 * PI) == pytest.approx(PI)
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(-0.3) == pytest.approx(-0.3)


class TestGateMatrix:
    def test_phase_gate_identity_at_zero(self):
        np.testing.assert_array_equal(gate_matrix(GateKind.PHASE, 0.0), np.eye(2))

    def test_phase_gate_entries(self):
        g = gate_matrix(GateKind.PHASE, 0.7)
        assert g[0, 0] == 1.0
        assert g[1, 1] == pytest.approx(np.exp(0.7j))

    def test_xgate_at_pi_is_sigma_x_up_to_global_phase(self):
        g = gate_matrix(GateKind.XGATE, PI)
        np.testing.assert_allclose(g, np.array([[0, 1], [1, 0]]), atol=1e-15)

    def test_cphase_at_pi(self):
        np.testing.assert_allclose(gate_matrix(GateKind.CPHASE, PI),
                                   np.diag([1, 1, 1, -1]), atol=1e-15)

    def test_unitary_for_random_phases(self, rng):
        for kind in (GateKind.PHASE, GateKind.XGATE, GateKind.CPHASE):
            for gamma in rng.uniform(-2 * PI, 2 * PI, size=20):
                assert unitarity_defect(gate_matrix(kind, gamma)) <= 1e-12

    def test_physical_kind_rejected(self):
        with pytest.raises(ValueError, match="no logical gate matrix"):
            gate_matrix("physical_four", 1.0)


def test_evaluate_holonomy_consistent_with_formula(rng):
    d = np.array([0, 1, 0, 0], dtype=complex)
    u = np.eye(4, dtype=complex) * np.exp(0.42j)
    res = evaluate_holonomy(u, d, gamma_ideal=0.5)
    assert res.f == pytest.approx(
        quality_factor(res.gamma_ideal, res.gamma_measured, res.overlap_abs), abs=1e-15)
    assert res.gamma_measured == pytest.approx(0.42)
