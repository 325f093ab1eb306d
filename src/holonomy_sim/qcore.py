"""Dense complex linear algebra sized for 4- and 16-dimensional Hilbert spaces.

Everything here is a pure function on numpy arrays: states are 1-d complex
vectors, operators are square complex matrices.  General Hermitian
exponentials go through the eigendecomposition; generators with H^3 = s^2 H
(a spectrum of -s, 0 and +s only, as every gate generator here has) use
the exact closed form instead.  Either way every propagation step is
unitary up to rounding -- long runs take 1e5-1e6 steps and must not
accumulate unitarity drift.  Time-ordered products of a step stack are
reduced pairwise in batched matmul calls; both the closed form and the
product carry leading batch axes, so several trains share one call.
"""
from __future__ import annotations

import math

import numpy as np

MAX_DIM = 256

HERMITICITY_TOL = 1e-9


def hermiticity_defect(h: np.ndarray) -> float:
    """Largest entrywise deviation |h - h^dagger|."""
    return float(np.max(np.abs(h - h.conj().T)))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dagger U - I."""
    d = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(d))))


def _check_hermitian_stack(hs: np.ndarray) -> None:
    # an infinite entry gives inf - inf = nan: the defect check reports it
    with np.errstate(invalid="ignore"):
        defect = float(np.max(np.abs(hs - hs.conj().transpose(0, 2, 1)))) if len(hs) else 0.0
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > "
                         f"{HERMITICITY_TOL:.1e}")


def check_hermitian(h: np.ndarray) -> None:
    """Reject a non-square, non-Hermitian or non-finite matrix."""
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    _check_hermitian_stack(h[None])


def matexp_hermitian(h: np.ndarray, tau: float) -> np.ndarray:
    """Unitary exp(-i*h*tau) of a Hermitian matrix via eigendecomposition.

    Rejects inputs whose hermiticity defect exceeds HERMITICITY_TOL (the
    defect is reported in the error).  The result is unitary to ~1e-15
    regardless of tau, which is what keeps million-step propagations stable.
    """
    check_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)) @ v.conj().T


def matexp_hermitian_stack(hs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-i*h_k*tau_k) for a stack hs of shape (n, d, d).

    Batched version of :func:`matexp_hermitian`; one LAPACK call
    diagonalizes the whole stack.  Non-finite entries are rejected.
    """
    _check_hermitian_stack(hs)
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * np.asarray(taus)[:, None])
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def matexp_cubic_stack(hs: np.ndarray, s: float, taus: np.ndarray) -> np.ndarray:
    """exp(-i*h_k*tau_k) for Hermitian h_k with h^3 = s^2 h, without eigh.

    The spectrum of such an h is a subset of {-s, 0, +s}, so the series
    collapses to exp(-i h tau) = I - i sin(s tau)/s h + (cos(s tau) - 1)/s^2 h^2
    (Moler & Van Loan, SIAM Rev. 45, 2003).  cos - 1 is evaluated as
    -2 sin^2(s tau / 2) to keep small steps accurate.  hs has shape
    (n, d, d) and taus shape (..., n): every row of taus is exponentiated
    against the same hs and h^2, giving (..., n, d, d).  The caller vouches
    for h^3 = s^2 h; Hermiticity and non-finite entries are still rejected
    as in :func:`matexp_hermitian_stack`.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"spectral radius s must be positive and finite, got {s}")
    _check_hermitian_stack(hs)
    x = s * np.asarray(taus, dtype=float)
    a = (-1j / s) * np.sin(x)
    b = (-2.0 / s ** 2) * np.sin(0.5 * x) ** 2
    out = a[..., None, None] * hs + b[..., None, None] * (hs @ hs)
    out += np.eye(hs.shape[-1])
    return out


def ordered_product(stack: np.ndarray) -> np.ndarray:
    """Time-ordered product stack[..., n-1, :, :] @ ... @ stack[..., 0, :, :].

    Reduces axis -3 and keeps any leading batch axes.  Adjacent pairs are
    multiplied (later @ earlier) in one batched matmul per level, so n >= 1
    factors take ceil(log2 n) numpy calls; an odd last factor carries over
    to the next level unchanged.
    """
    while stack.shape[-3] > 1:
        even = stack.shape[-3] - stack.shape[-3] % 2
        stack = np.concatenate([stack[..., 1:even:2, :, :] @ stack[..., 0:even:2, :, :],
                                stack[..., even:, :, :]], axis=-3)
    return stack[..., 0, :, :]


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b, row-major convention, capped at dim 256."""
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"tensor product dimension {dim} exceeds cap {MAX_DIM}")
    return np.kron(a, b)
