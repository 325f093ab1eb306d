import numpy as np
import pytest

from holonomy_sim.qcore import matexp_hermitian_stack


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(1234)))


def random_hermitian(rng, dim=4):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return 0.5 * (m + m.conj().T)


def matexp_hermitian(h, tau):
    """exp(-i*h*tau) of one Hermitian matrix: matexp_hermitian_stack of one."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    return matexp_hermitian_stack(h[None], [tau])[0]


def lambda_stack(x, y):
    """The (n, 3, 3) lambda couplings [[0, x, 0], [x, 0, conj(y)], [0, y, 0]] of x and y."""
    hs = np.zeros((len(x), 3, 3), dtype=complex)
    hs[:, 0, 1] = hs[:, 1, 0] = x
    hs[:, 2, 1] = y
    hs[:, 1, 2] = np.conjugate(y)
    return hs


def half_angle(t):
    """sin x and cos x - 1 from t = tan(x / 2) as 2 t / (1 + t^2) and
    -2 t^2 / (1 + t^2), written out as the engine rounds them."""
    d = 1.0 + t * t
    return 2.0 * (t / d), -2.0 * (t * t / d)
