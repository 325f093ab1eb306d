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


def closed_form_planes(x, y, ns, b):
    """I - i s h + b h^2 of the lambda couplings of x and y as (..., n, 3, 3), for
    ns = -s and b of shape (..., n): every entry written out in real arithmetic
    as the engine rounds it, from x, Re y and Im y.

    The diagonal is 1 + b x^2, 1 + b (h^2 holds x^2 + |y|^2 = 1 there) and
    1 + b |y|^2 with imaginary part +0; p20 = b x y and p02 = conj(p20);
    p10 = p01 = -i s x; p21 = -i s y and p12 = -conj(p21)."""
    yr, yi = np.real(y), np.imag(y)
    u = np.zeros(np.shape(b) + (3, 3), dtype=complex)
    re, im = u.real, u.imag
    re[..., 0, 0] = b * (x * x) + 1.0
    re[..., 1, 1] = b + 1.0
    re[..., 2, 2] = b * (yr * yr + yi * yi) + 1.0
    re[..., 2, 0] = re[..., 0, 2] = b * (x * yr)
    im[..., 2, 0] = b * (x * yi)
    im[..., 0, 2] = -im[..., 2, 0]
    im[..., 0, 1] = im[..., 1, 0] = ns * x
    im[..., 2, 1] = im[..., 1, 2] = ns * yr
    re[..., 1, 2] = ns * yi
    re[..., 2, 1] = -re[..., 1, 2]
    return u


def lambda_closed_form(x, y, taus):
    """exp(-i h tau) of the lambda couplings of x and y for taus of shape (..., n),
    in the real arithmetic of closed_form_planes, with s and b from half_angle
    of tan(tau / 2)."""
    sin, b = half_angle(np.tan(0.5 * np.asarray(taus, dtype=float)))
    return closed_form_planes(x, y, -sin, b)
