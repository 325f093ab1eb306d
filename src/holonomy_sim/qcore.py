"""Dense complex linear algebra sized for 4- and 16-dimensional Hilbert spaces.

Everything here is a pure function on numpy arrays: states are 1-d complex
vectors, operators are square complex matrices.  General Hermitian
exponentials go through the eigendecomposition; generators with H^3 = s^2 H
(a spectrum of -s, 0 and +s only, as every gate generator here has) use
the exact closed form instead.  Either way every propagation step is
unitary up to rounding -- long runs take 1e5-1e6 steps and must not
accumulate unitarity drift.  Time-ordered products of a step stack are
reduced pairwise; both the closed form and the product carry leading batch
axes, so several trains share one call.

Stacks are multiplied as *planes*: an array of shape (d, d, ..., n) in
which entry (i, j) of every matrix is one contiguous array.  A product of
two such stacks is d whole-plane multiply-adds, which for the 3x3 lambda
blocks and the 4x4 adiabatic frame costs less than np.matmul's fixed price
per small matrix.  The public functions take and return the usual
(..., n, d, d) layout as views of that memory.
"""
from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-9


def _planes(m: np.ndarray) -> np.ndarray:
    """(..., d, d) matrices as their (d, d, ...) planes, a view."""
    return np.moveaxis(m, (-2, -1), (0, 1))


def _matrices(p: np.ndarray) -> np.ndarray:
    """(d, d, ...) planes as their (..., d, d) matrices, a view."""
    return np.moveaxis(p, (0, 1), (-2, -1))


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """out = a @ b per matrix, for planes a, b and out of shape (d, d, ...).

    out = sum_k a[:, k] b[k, :], k in order, as d whole-plane multiplies
    accumulated in place: the arithmetic of every entry is elementwise, so
    a matrix gets the same bits wherever it sits in the stack.
    """
    d = a.shape[0]
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    term = np.empty_like(out)
    for k in range(1, d):
        out += np.multiply(a[:, k, None], b[None, k], out=term)
    return out


def hermiticity_defect(h: np.ndarray) -> float:
    """Largest entrywise deviation |h - h^dagger| over a (..., d, d) stack (0 if empty)."""
    return float(np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()), initial=0.0))


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dagger U - I."""
    d = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(d))))


def _check_hermitian_stack(hs: np.ndarray) -> None:
    # an infinite entry gives inf - inf = nan: the defect check reports it
    with np.errstate(invalid="ignore"):
        defect = hermiticity_defect(hs)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > "
                         f"{HERMITICITY_TOL:.1e}")


def matexp_hermitian(h: np.ndarray, tau: float) -> np.ndarray:
    """Unitary exp(-i*h*tau) of one Hermitian matrix: matexp_hermitian_stack of one.

    Rejects inputs whose hermiticity defect exceeds HERMITICITY_TOL (the
    defect is reported in the error).  The result is unitary to ~1e-15
    regardless of tau, which is what keeps million-step propagations stable.
    """
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    return matexp_hermitian_stack(h[None], [tau])[0]


def matexp_hermitian_stack(hs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-i*h_k*tau_k) for a stack hs of shape (n, d, d), via eigendecomposition.

    One LAPACK call diagonalizes the whole stack.  Non-finite entries are
    rejected.
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
    against the same hs and h^2, giving (..., n, d, d), a view of planes
    (d, d, ..., n) (see the module docstring).  The caller vouches
    for h^3 = s^2 h; Hermiticity and non-finite entries are still rejected
    as in :func:`matexp_hermitian_stack`.
    """
    if not 0 < s < math.inf:
        raise ValueError(f"spectral radius s must be positive and finite, got {s}")
    _check_hermitian_stack(hs)
    x = s * np.asarray(taus, dtype=float)
    a = (-1j / s) * np.sin(x)
    b = (-2.0 / s ** 2) * np.sin(0.5 * x) ** 2
    h = _planes(hs)
    d = h.shape[0]
    sq = _matmul(h, h, np.empty((d, d) + h.shape[2:], dtype=complex))
    # the (d, d, n) planes broadcast against the batch axes of taus
    batch = (slice(None), slice(None)) + (None,) * (x.ndim - 1)
    out = np.multiply(b, sq[batch], out=np.empty((d, d) + x.shape, dtype=complex))
    out += a * h[batch]
    out += np.eye(d).reshape((d, d) + (1,) * x.ndim)
    return _matrices(out)


def ordered_product(stack: np.ndarray) -> np.ndarray:
    """Time-ordered product stack[..., n-1, :, :] @ ... @ stack[..., 0, :, :].

    Reduces axis -3 and keeps any leading batch axes.  Adjacent pairs are
    multiplied (later @ earlier) by one _matmul per level, so n >= 1
    factors take ceil(log2 n) levels; an odd last factor carries over to the
    next level unchanged.  The matrices are reduced as planes, whatever the
    memory layout of stack.
    """
    p = _planes(stack)
    d = p.shape[0]
    while p.shape[-1] > 1:
        half = p.shape[-1] // 2
        level = np.empty((d, d) + p.shape[2:-1] + (p.shape[-1] - half,), dtype=complex)
        _matmul(p[..., 1:2 * half:2], p[..., 0:2 * half:2], out=level[..., :half])
        level[..., half:] = p[..., 2 * half:]
        p = level
    return _matrices(p[..., 0])
