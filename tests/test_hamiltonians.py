import math

import numpy as np
import pytest

from holonomy_sim.hamiltonians import (DFS_INDICES, PAULI_Z, GateKind, GateSpec, Schedule,
                                       _pauli_on, dark_states, exchange_hamiltonian,
                                       gate_generators, gate_hamiltonian, project_dfs,
                                       total_z)
from holonomy_sim.qcore import hermiticity_defect

from conftest import half_angle, lambda_stack


def generator(kind, s, t):
    return gate_hamiltonian(GateSpec(kind, s), t)


def scaled_reference(j12, j13, ph):
    """Closed-form target for the DFS block: sqrt(j12^2+j13^2) * lambda coupling."""
    th = math.atan2(j13, j12)
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2] = h[2, 1] = math.sin(th)
    h[3, 2] = math.cos(th) * np.exp(-1j * ph)
    h[2, 3] = math.cos(th) * np.exp(1j * ph)
    return math.hypot(j12, j13) * h


class TestSchedule:
    def test_values_at_waypoints(self):
        s = Schedule(a=0.7, T=2.0)
        assert s.theta(0.0) == 0.0
        assert s.phi(0.0) == 0.0
        assert s.theta(0.5) == pytest.approx(0.7)   # t = T/4, sin = 1
        assert s.phi(2.0) == pytest.approx(2 * math.pi)

    def test_derivatives_match_finite_differences(self, rng):
        s = Schedule(a=1.3, T=3.7)
        eps = 1e-6
        for t in rng.uniform(eps, s.T - eps, size=25):
            fd_theta = (s.theta(t + eps) - s.theta(t - eps)) / (2 * eps)
            fd_phi = (s.phi(t + eps) - s.phi(t - eps)) / (2 * eps)
            assert s.theta_dot(t) == pytest.approx(fd_theta, abs=1e-6)
            assert s.phi_dot(t) == pytest.approx(fd_phi, abs=1e-9)

    def test_rejects_time_outside_cycle(self):
        s = Schedule(a=1.0, T=1.0)
        with pytest.raises(ValueError, match="outside"):
            s.theta(-0.1)
        with pytest.raises(ValueError, match="outside"):
            s.phi(1.1)

    def test_array_times_match_scalar_times(self):
        s = Schedule(a=0.9, T=2.0)
        ts = np.linspace(0.0, 2.0, 17)
        for name in ("theta", "theta_dot", "phi", "phi_dot"):
            values = getattr(s, name)(ts)
            assert values.shape == ts.shape
            np.testing.assert_allclose(values, [getattr(s, name)(t) for t in ts],
                                       rtol=0, atol=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 2.5, math.nan])
    def test_array_with_one_bad_time_is_rejected(self, bad):
        s = Schedule(a=0.9, T=2.0)
        with pytest.raises(ValueError, match="outside"):
            s.theta(np.array([0.0, 1.0, bad, 2.0]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            Schedule(a=1.0, T=0.0)
        with pytest.raises(ValueError):
            Schedule(a=-0.5, T=1.0)


class TestPhaseHamiltonian:
    def test_structure_at_t0(self):
        h = generator(GateKind.PHASE, Schedule(0.7605, 1.0), 0.0)
        assert h[2, 3] == 1.0 and h[3, 2] == 1.0
        assert np.all(h[0, :] == 0) and np.all(h[:, 0] == 0)
        assert np.all(h[1, :] == 0) and np.all(h[:, 1] == 0)

    def test_constant_gap_spectrum(self):
        s = Schedule(0.7605, 1.0)
        for t in np.linspace(0.0, 1.0, 100):
            ev = np.linalg.eigvalsh(generator(GateKind.PHASE, s, t))
            np.testing.assert_allclose(ev, [-1, 0, 0, 1], atol=1e-10)

    def test_annihilates_dark_state(self, rng):
        spec = GateSpec(GateKind.PHASE, Schedule(0.7605, 1.0))
        for t in rng.uniform(0, 1, size=20):
            h = gate_hamiltonian(spec, t)
            d1 = dark_states(spec, t)[1]
            assert np.linalg.norm(h @ d1) <= 1e-14


class TestXGateHamiltonian:
    def test_matches_phase_matrix_at_t0(self):
        s = Schedule(0.5, 1.0)
        np.testing.assert_array_equal(generator(GateKind.XGATE, s, 0.0),
                                      generator(GateKind.PHASE, s, 0.0))

    def test_plus_state_is_dark_at_all_times(self, rng):
        s = Schedule(0.9, 2.0)
        plus = np.array([1, 0, 0, 0], dtype=complex)  # |+> slot in the x basis
        for t in rng.uniform(0, 2.0, size=50):
            assert np.linalg.norm(generator(GateKind.XGATE, s, t) @ plus) == 0.0

    def test_constant_gap_spectrum(self):
        s = Schedule(1.2, 1.0)
        for t in np.linspace(0, 1.0, 100):
            ev = np.linalg.eigvalsh(generator(GateKind.XGATE, s, t))
            np.testing.assert_allclose(ev, [-1, 0, 0, 1], atol=1e-10)


class TestCPhaseHamiltonian:
    def test_annihilates_plain_dark_products(self, rng):
        s = Schedule(0.8, 1.0)
        for t in rng.uniform(0, 1, size=25):
            h = generator(GateKind.CPHASE, s, t)
            for idx in (0, 1, 4):  # |0,0>, |0,1>, |1,0>
                v = np.zeros(16, dtype=complex)
                v[idx] = 1.0
                assert np.linalg.norm(h @ v) == 0.0

    def test_annihilates_rotating_dark_state(self, rng):
        spec = GateSpec(GateKind.CPHASE, Schedule(0.8, 1.0))
        for t in rng.uniform(0, 1, size=25):
            h = gate_hamiltonian(spec, t)
            d3 = dark_states(spec, t)[-1]
            assert np.linalg.norm(h @ d3) <= 1e-14

    def test_spectrum_is_pm1_and_14_zeros(self):
        s = Schedule(0.8, 1.0)
        for t in np.linspace(0, 1, 20):
            ev = np.linalg.eigvalsh(generator(GateKind.CPHASE, s, t))
            np.testing.assert_allclose(ev[0], -1, atol=1e-10)
            np.testing.assert_allclose(ev[-1], 1, atol=1e-10)
            np.testing.assert_allclose(ev[1:-1], np.zeros(14), atol=1e-10)


def test_all_builders_hermitian(rng):
    s = Schedule(1.1, 1.0)
    for t in rng.uniform(0, 1, size=50):
        assert hermiticity_defect(generator(GateKind.PHASE, s, t)) <= 1e-13
        assert hermiticity_defect(generator(GateKind.XGATE, s, t)) <= 1e-13
        assert hermiticity_defect(generator(GateKind.CPHASE, s, t)) <= 1e-13
        assert hermiticity_defect(exchange_hamiltonian(1.3, 0.4, s.phi(t))) <= 1e-13


@pytest.mark.parametrize("kind", list(GateKind))
def test_couplings_equal_the_hamiltonian_block_at_each_time(kind, rng):
    spec = GateSpec(kind, Schedule(0.9, 2.0))
    ts = np.sort(rng.uniform(0.0, 2.0, size=37))
    levels, x, y = gate_generators(spec, ts)
    assert x.shape == y.shape == (len(ts),) and x.dtype == float and y.dtype == complex
    for t, h in zip(ts, lambda_stack(x, y)):
        full = gate_hamiltonian(spec, t)
        assert np.array_equal(h, full[np.ix_(levels, levels)])
        # and nothing outside the coupled levels
        full[np.ix_(levels, levels)] = 0.0
        assert not full.any()


def _drive_times(rng, T):
    return np.concatenate([[0.0, T / 4, T / 2, 3 * T / 4, T], rng.uniform(0.0, T, size=100_000)])


@pytest.mark.parametrize("a", [0.7605, 0.0])
def test_couplings_have_the_bits_of_the_drive_formulas(a, rng):
    T = 0.37
    ts = _drive_times(rng, T)
    # sin and cos of phi from tan(phi / 2), phi / 2 = pi t / T, then of theta
    # = a sin(phi) from tan(theta / 2)
    sin_phi, cos_phi = half_angle(np.tan(math.pi * ts / T))
    cos_phi += 1.0
    sin_th, cos_th = half_angle(np.tan(0.5 * a * sin_phi))
    cos_th += 1.0
    y = np.empty(len(ts), dtype=complex)
    y.real, y.imag = cos_th * cos_phi, cos_th * -sin_phi
    expected = lambda_stack(sin_th, y)
    for kind in GateKind:
        _, x, y = gate_generators(GateSpec(kind, Schedule(a, T)), ts)
        # the uint64 view also compares the signs of zeros
        assert np.array_equal(lambda_stack(x, y).view(np.uint64),
                              expected.view(np.uint64)), kind


@pytest.mark.parametrize("a", [0.7605, 0.0, 3.0])
def test_couplings_are_the_drive_formulas_to_rounding(a, rng):
    T = 0.37
    ts = _drive_times(rng, T)
    phi = 2 * math.pi * ts / T
    th = a * np.sin(phi)
    eps = np.finfo(float).eps
    for kind in GateKind:
        _, x, y = gate_generators(GateSpec(kind, Schedule(a, T)), ts)
        assert np.max(np.abs(x - np.sin(th))) <= 5 * eps, kind
        assert np.max(np.abs(y - np.cos(th) * np.exp(-1j * phi))) <= 5 * eps, kind
        # the premise of the closed-form step exponential
        assert np.max(np.abs(x ** 2 + np.abs(y) ** 2 - 1.0)) <= 2e-15, kind


def test_tan_of_an_array_has_the_bits_of_each_element_alone(rng):
    # the couplings and the closed form take tan of whole arrays, and a
    # record must keep its bits in any batch: numpy's SIMD tan may not
    # depend on where an element sits
    x = np.concatenate([rng.uniform(-4.0, 4.0, size=997), rng.uniform(-1e3, 1e3, size=997),
                        [0.0, -0.0, 0.5 * math.pi, -0.5 * math.pi, 1e-300, 5e-324]])
    whole = np.tan(x).view(np.uint64)
    alone = np.array([np.tan(v) for v in x]).view(np.uint64)
    assert np.array_equal(whole, alone)
    for shift in range(1, 9):
        assert np.array_equal(np.tan(x[shift:]).view(np.uint64), whole[shift:]), shift
        assert np.array_equal(np.tan(x[:-shift]).view(np.uint64), whole[:-shift]), shift


class TestDarkStates:
    def test_phase_dark_state_at_t0_is_level_one(self):
        spec = GateSpec(GateKind.PHASE, Schedule(0.7605, 1.0))
        d0, d1 = dark_states(spec, 0.0)
        np.testing.assert_array_equal(d0, [1, 0, 0, 0])
        np.testing.assert_array_equal(d1, [0, 1, 0, 0])

    def test_cyclicity(self):
        spec = GateSpec(GateKind.PHASE, Schedule(0.7605, 1.0))
        for start, end in zip(dark_states(spec, 0.0), dark_states(spec, 1.0)):
            np.testing.assert_allclose(start, end, atol=1e-12)

    def test_normalized(self, rng):
        for kind in (GateKind.PHASE, GateKind.XGATE, GateKind.CPHASE):
            spec = GateSpec(kind, Schedule(1.7, 1.0))
            for t in rng.uniform(0, 1, size=10):
                for d in dark_states(spec, t):
                    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)

    def test_annihilation_all_kinds_100_random_times(self, rng):
        worst = 0.0
        for kind in (GateKind.PHASE, GateKind.XGATE, GateKind.CPHASE):
            spec = GateSpec(kind, Schedule(0.7605, 1.0))
            for t in rng.uniform(0, 1, size=100):
                h = gate_hamiltonian(spec, t)
                for d in dark_states(spec, t):
                    worst = max(worst, float(np.linalg.norm(h @ d)))
        assert worst <= 1e-13


class TestPhysicalHamiltonian:
    def test_commutes_with_total_z(self):
        z = total_z()
        for ph in np.linspace(0, 2 * math.pi, 17):
            h = exchange_hamiltonian(1.0, 1.0, ph)
            assert np.max(np.abs(h @ z - z @ h)) <= 1e-13

    def test_unit_couplings_project_to_sqrt2_lambda_block(self):
        block, leakage = project_dfs(exchange_hamiltonian(1.0, 1.0, 0.0))
        np.testing.assert_allclose(block, scaled_reference(1.0, 1.0, 0.0), atol=1e-12)
        assert leakage <= 1e-13

    def test_no_ancilla_coupling_when_j13_vanishes(self):
        block, _ = project_dfs(exchange_hamiltonian(1.0, 0.0, 0.3))
        assert block[1, 2] == 0.0 and block[2, 1] == 0.0

    def test_projection_consistency_over_grid(self):
        worst = 0.0
        for j12 in (0.3, 1.0, 2.7):
            for j13 in (0.3, 1.0, 2.7):
                for ph in np.linspace(0.0, 2 * math.pi, 20):
                    block, leakage = project_dfs(exchange_hamiltonian(j12, j13, ph))
                    dev = np.max(np.abs(block - scaled_reference(j12, j13, ph)))
                    worst = max(worst, float(dev), leakage)
        assert worst <= 1e-11

    def test_leakage_out_of_block_is_zero(self):
        _, leakage = project_dfs(exchange_hamiltonian(0.7, 1.9, 1.1))
        assert leakage <= 1e-13

    # j13 = 0 and j12 = 0 are the edges theta = 0 and theta = pi/2 of s = hypot(j12, j13)
    @pytest.mark.parametrize("j12, j13", [(1.3, 0.4), (0.7, 1.9), (1.0, 0.0), (0.0, 2.0)])
    def test_phase_array_matches_scalar_calls_and_is_cubic(self, j12, j13, rng):
        phases = rng.uniform(0.0, 2 * math.pi, size=(3, 5))
        hs = exchange_hamiltonian(j12, j13, phases)
        assert hs.shape == (3, 5, 16, 16)
        for idx in np.ndindex(*phases.shape):
            assert np.array_equal(hs[idx], exchange_hamiltonian(j12, j13, phases[idx]))
        assert hermiticity_defect(hs) <= 1e-13
        s = math.hypot(j12, j13)
        assert np.max(np.abs(hs @ hs @ hs - s ** 2 * hs)) <= 1e-12

    def test_project_zero_operator(self):
        block, leakage = project_dfs(np.zeros((16, 16), dtype=complex))
        np.testing.assert_array_equal(block, np.zeros((4, 4)))
        assert leakage == 0.0


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_spec_dim_is_the_space_every_builder_returns(kind):
    spec = GateSpec(kind, Schedule(0.9, 2.0))
    assert spec.dim == (16 if kind is GateKind.CPHASE else 4)
    assert gate_hamiltonian(spec, 0.7).shape == (spec.dim, spec.dim)
    assert all(d.shape == (spec.dim,) for d in dark_states(spec, 0.7))
    levels, x, y = gate_generators(spec, [0.7])
    assert len(set(levels)) == 3 and all(0 <= i < spec.dim for i in levels)
    assert x.shape == y.shape == (1,)


def test_qubit_one_is_the_most_significant_bit():
    # |abcd> -> index 8a + 4b + 2c + d, so sigma_z on qubit 1 flips the upper half
    np.testing.assert_array_equal(np.diag(_pauli_on(PAULI_Z, 0)),
                                  np.repeat([1.0, -1.0], 8))
    np.testing.assert_array_equal(np.diag(_pauli_on(PAULI_Z, 3)), np.tile([1.0, -1.0], 8))
    np.testing.assert_array_equal(np.diag(total_z()),
                                  [4 - 2 * bin(i).count("1") for i in range(16)])


def test_dfs_indices_are_four_distinct_states_of_one_excitation_count():
    assert len(DFS_INDICES) == 4 and len(set(DFS_INDICES)) == 4
    assert all(0 <= i < 16 for i in DFS_INDICES)
    assert len({bin(i).count("1") for i in DFS_INDICES}) == 1
    # one excitation count is one total-Z eigenvalue: the block is decoherence free
    assert len({total_z()[i, i] for i in DFS_INDICES}) == 1


def test_project_dfs_rejects_wrong_shape():
    with pytest.raises(ValueError, match="16x16"):
        project_dfs(np.zeros((4, 4), dtype=complex))
