"""Dense complex linear algebra sized for 4- and 16-dimensional Hilbert spaces.

Everything here is a pure function on numpy arrays: states are 1-d complex
vectors, operators are square complex matrices.  Matrix exponentials go
through the Hermitian eigendecomposition so that every propagation step is
unitary up to rounding -- long runs take 1e5-1e6 steps and must not
accumulate unitarity drift.
"""
from __future__ import annotations

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


def check_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {h.shape}")
    defect = hermiticity_defect(h)
    if defect > tol:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    if not np.all(np.isfinite(h.view(float))):
        raise ValueError("matrix contains non-finite entries")


def matexp_hermitian(h: np.ndarray, tau: float, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Unitary exp(-i*h*tau) of a Hermitian matrix via eigendecomposition.

    Rejects inputs whose hermiticity defect exceeds ``tol`` (the defect is
    reported in the error).  The result is unitary to ~1e-15 regardless of
    tau, which is what keeps million-step propagations stable.
    """
    check_hermitian(h, tol)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * tau)) @ v.conj().T


def matexp_hermitian_stack(hs: np.ndarray, taus: np.ndarray,
                           tol: float = HERMITICITY_TOL) -> np.ndarray:
    """exp(-i*h_k*tau_k) for a stack hs of shape (n, d, d).

    Batched version of :func:`matexp_hermitian` for propagation hot loops;
    one LAPACK call diagonalizes the whole stack.
    """
    defect = float(np.max(np.abs(hs - hs.conj().transpose(0, 2, 1)))) if len(hs) else 0.0
    if defect > tol:
        raise ValueError(f"stack is not Hermitian: defect {defect:.3e} > {tol:.1e}")
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * np.asarray(taus)[:, None])
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product a (x) b, row-major convention, capped at dim 256."""
    dim = a.shape[0] * b.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"tensor product dimension {dim} exceeds cap {MAX_DIM}")
    return np.kron(a, b)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return a.conj().T


def inner(u: np.ndarray, v: np.ndarray) -> complex:
    """<u|v> with conjugation on the first argument."""
    if u.shape != v.shape:
        raise ValueError(f"shape mismatch: {u.shape} vs {v.shape}")
    return complex(np.vdot(u, v))


def spectral_gap(h: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian matrix."""
    check_hermitian(h, tol)
    return np.linalg.eigvalsh(h)
