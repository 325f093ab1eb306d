"""Dense complex linear algebra sized for 4- and 16-dimensional Hilbert spaces.

Everything here is a pure function on numpy arrays: states are 1-d complex
vectors, operators are square complex matrices.  General Hermitian
exponentials go through the eigendecomposition; the lambda-coupled gate
generator, given by its two couplings x (real) and y (complex), has the
spectrum {-1, 0, +1} and is exponentiated in exact closed form instead,
Hermitian by construction.  Either way every propagation step is unitary
up to rounding -- long runs take 1e5-1e6 steps and must not accumulate
unitarity drift.  Time-ordered products of a step stack are reduced
pairwise; both the closed form and the product carry leading batch axes,
so several trains share one call.  The closed form takes the indices of
pi pulses, whose exponential it makes exactly I - 2 H^2 for either sign.

Stacks are multiplied as *planes*: an array of shape (d, d, ..., n) in
which entry (i, j) of every matrix is one contiguous array.  A product of
two such stacks is d whole-plane multiply-adds, which for the 3x3 lambda
blocks and the 4x4 adiabatic frame costs less than np.matmul's fixed price
per small matrix.  The public functions take and return the usual
(..., n, d, d) layout as views of that memory.

A caller that exponentiates and reduces many same-sized stacks (the
pieces of one propagation) can hand in its own memory: the closed form,
the product and the couplings of hamiltonians take an optional out= for
their result, and the first two a work= for their temporaries, so a loop
over pieces allocates no stack of its own.  Without them they allocate
the same arrays and run the same code.
"""
from __future__ import annotations

import math

import numpy as np

HERMITICITY_TOL = 1e-9


def _planes(m: np.ndarray) -> np.ndarray:
    """(..., d, d) matrices as their (d, d, ...) planes, a view."""
    n = m.ndim
    return m.transpose((n - 2, n - 1) + tuple(range(n - 2)))


def _matrices(p: np.ndarray) -> np.ndarray:
    """(d, d, ...) planes as their (..., d, d) matrices, a view."""
    return p.transpose(tuple(range(2, p.ndim)) + (0, 1))


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray, term: np.ndarray) -> np.ndarray:
    """out = a @ b per matrix, for planes a, b and out of shape (d, d, ...).

    out = sum_k a[:, k] b[k, :], k in order, as d whole-plane multiplies
    accumulated in place: the arithmetic of every entry is elementwise, so
    a matrix gets the same bits wherever it sits in the stack.  term holds
    each product before it is added; it has the shape of out and must
    overlap none of a, b and out.
    """
    d = a.shape[0]
    np.multiply(a[:, 0, None], b[None, 0], out=out)
    for k in range(1, d):
        out += np.multiply(a[:, k, None], b[None, k], out=term)
    return out


def hermiticity_defect(h: np.ndarray) -> float:
    """Largest entrywise deviation |h - h^dagger| over a (..., d, d) stack (0 if empty)."""
    return float(np.max(np.abs(h - np.swapaxes(h, -1, -2).conj()), initial=0.0))


def unitarity_defect(u: np.ndarray):
    """Max-norm of U^dagger U - I: a float for one matrix, an array of one per
    matrix for a (..., d, d) stack."""
    defect = np.max(np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])),
                    axis=(-2, -1))
    return float(defect) if u.ndim == 2 else defect


def matexp_hermitian_stack(hs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-i*h_k*tau_k) for a stack hs of shape (n, d, d), via eigendecomposition.

    One LAPACK call diagonalizes the whole stack.  taus must have shape
    (n,); non-Hermitian and non-finite stacks are rejected.
    """
    taus = np.asarray(taus)
    if taus.shape != (len(hs),):
        raise ValueError(f"taus of shape {taus.shape} do not fit the stack of shape "
                         f"{hs.shape}: one exponent per matrix")
    # an infinite entry gives inf - inf = nan, which the comparison rejects
    with np.errstate(invalid="ignore"):
        defect = hermiticity_defect(hs)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > "
                         f"{HERMITICITY_TOL:.1e}")
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * taus[:, None])
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def lambda_work_size(n: int, size: int) -> int:
    """Complex entries of the work array of matexp_lambda_stack: n couplings, size exponents."""
    return size + (size + 1) // 2 + 2 * n + (n + 1) // 2


def matexp_lambda_stack(x: np.ndarray, y: np.ndarray, taus: np.ndarray,
                        out: np.ndarray | None = None,
                        work: np.ndarray | None = None,
                        pi_pulses: np.ndarray | None = None) -> np.ndarray:
    """exp(-i*h_k*tau_k) for the lambda couplings h_k of x[k] and y[k], without eigh.

    h = [[0, x, 0], [x, 0, conj(y)], [0, y, 0]] is Hermitian by construction
    (x real, conj(y) formed here).  The caller vouches for x^2 + |y|^2 = 1,
    which gives h the spectrum {-1, 0, +1} (couplings of norm s enter
    divided by s, with exponents s * tau), so exp(-i h tau) = I - i sin(tau)
    h + (cos(tau) - 1) h^2 (Moler & Van Loan, SIAM Rev. 45, 2003), cos - 1
    evaluated as -2 sin^2(tau / 2) to keep small steps accurate.  x and y
    have shape (n,) and taus shape (..., n): every row of taus is
    exponentiated against the same couplings, giving (..., n, 3, 3).  A
    complex x, x and y not 1-d of one shape, non-finite couplings and a last
    axis of taus that is not n are rejected.

    Each plane of h^2 is the one nonzero term of the dense sum over k of
    h[i, k] h[k, j], in its operand order: numpy's complex multiply may
    fuse, so conj(y) y and y conj(y) differ in the last bit of their
    imaginary parts.  Adding I to every plane last turns each -0 into +0,
    so the result has the bits of I + a h + b h^2 summed densely.

    out, if given, is the (..., n, 3, 3) result array, in any memory
    layout, and is returned; otherwise it is allocated as a view of planes
    (3, 3, ..., n) (see the module docstring).  work is a flat contiguous
    complex array of at least lambda_work_size(n, taus.size) entries for
    the temporaries (allocated when not given).  x, y, taus, out and work
    may not overlap.

    pi_pulses, if given, indexes the factors (on the last axis of taus)
    whose exponent tau is +-pi.  The exact sin(tau) is 0 there, but sin
    of the rounded pi is 1.2e-16 with the sign of tau, so the sine term is
    dropped: such a factor is exactly I - 2 h^2, since b = -2 sin^2(+-pi / 2)
    rounds to -2, the same for either sign.
    """
    x, y = np.asarray(x), np.asarray(y, dtype=complex)
    if np.iscomplexobj(x):
        raise ValueError("the coupling x = sin(theta) must be real, got a complex array")
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError(f"couplings x of shape {x.shape} and y of shape {y.shape} "
                         f"must be 1-d of one shape")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("couplings x and y must be finite")
    taus = np.asarray(taus, dtype=float)
    n = len(x)
    if taus.shape[-1:] != x.shape:
        raise ValueError(f"taus of shape {taus.shape} do not fit the couplings of shape "
                         f"{x.shape}: one exponent per coupling on the last axis")
    size = taus.size
    if work is None:
        work = np.empty(lambda_work_size(n, size), dtype=complex)
    elif len(work) < lambda_work_size(n, size):
        raise ValueError(f"work has {len(work)} entries, needs {lambda_work_size(n, size)}")
    # work holds, in order: a; sin(taus), overwritten by b; conj(y); one
    # plane of h^2; x x
    a = work[:size].reshape(taus.shape)
    end = size + (size + 1) // 2
    b = work[size:end].view(float)[:size].reshape(taus.shape)
    cy, sq = work[end:end + n], work[end + n:end + 2 * n]
    xx = work[end + 2 * n:].view(float)[:n]
    # a = -1j sin(taus) and b = -2 sin(taus / 2)^2, rounded as those expressions
    np.multiply(-1j, np.sin(taus, out=b), out=a)
    if pi_pulses is not None:
        a[..., pi_pulses] = 0.0
    np.sin(np.multiply(0.5, taus, out=b), out=b)
    np.multiply(-2.0, np.square(b, out=b), out=b)
    if out is None:
        out = _matrices(np.empty((3, 3) + taus.shape, dtype=complex))
    # each (n,) coupling broadcasts against the (..., n) planes of p
    p = _planes(out)
    np.conjugate(y, out=cy)
    np.multiply(b, np.multiply(x, x, out=xx), out=p[0, 0])
    np.add(xx, np.multiply(cy, y, out=sq), out=sq)
    np.multiply(b, sq, out=p[1, 1])
    np.multiply(b, np.multiply(y, cy, out=sq), out=p[2, 2])
    np.multiply(b, np.multiply(x, cy, out=sq), out=p[0, 2])
    np.multiply(b, np.multiply(x, y, out=sq), out=p[2, 0])
    np.multiply(a, x, out=p[0, 1])
    p[1, 0] = p[0, 1]
    np.multiply(a, cy, out=p[1, 2])
    np.multiply(a, y, out=p[2, 1])
    # adding I everywhere also turns every -0 into +0, as the dense sum did
    p += np.eye(3).reshape((3, 3) + (1,) * taus.ndim)
    return out


def ordered_product(stack: np.ndarray, out: np.ndarray | None = None,
                    work: tuple | None = None) -> np.ndarray:
    """Time-ordered product stack[..., n-1, :, :] @ ... @ stack[..., 0, :, :].

    Reduces axis -3 and keeps any leading batch axes.  Adjacent pairs are
    multiplied (later @ earlier) by one _matmul per level, so n >= 1
    factors take ceil(log2 n) levels; an odd last factor carries over to the
    next level unchanged.  The matrices are reduced as planes, whatever the
    memory layout of stack.  With several batch rows, a level of odd rows
    runs on a copy padded with their last entries, so that its pairs span
    whole rows (numpy runs rows cut short 1.3-1.6 times slower), and the
    last few nodes of each row (two, or an odd number up to five) are
    multiplied as views, the last product straight into out.

    out, if given, is the (..., d, d) result array, in any memory layout,
    and is returned.  work, if given, is two flat contiguous complex arrays
    of at least n + n % 2 factors each (d * d entries per batch row) for
    the levels, their _matmul terms and the padded copies; only the first
    level reads stack, so the first may be the memory of stack itself.
    Both are allocated when not given.
    """
    p = _planes(stack)
    d, n, batch = p.shape[0], p.shape[-1], p.shape[2:-1]
    if n == 0:
        raise ValueError(f"ordered_product needs at least one factor, got shape {stack.shape}")
    per_factor = d * d * math.prod(batch)
    if out is None:
        out = np.empty(batch + (d, d), dtype=complex)
    if work is None:  # the first holds a padded copy only at the first level of odd rows
        work = tuple(np.empty(per_factor * k, dtype=complex) for k in
                     (n + 1 if n % 2 and per_factor > d * d else (n + 3) // 2, n + n % 2))
    here, there = work  # here holds the input of a level
    planes = (d, d) + batch
    while n > 1:
        if per_factor > d * d and (n == 2 or n % 2 and n <= 5):
            # views of the last nodes: a carried one stays, the last product goes to out
            nodes = [p[..., j] for j in range(n)]
            term = there[:per_factor].reshape(planes)
            while len(nodes) > 1:
                nodes = [_matmul(b, a, out=_planes(out) if len(nodes) == 2
                                 else np.empty(planes, dtype=complex), term=term)
                         for a, b in zip(nodes[0::2], nodes[1::2])] + nodes[len(nodes) & ~1:]
            return out
        half = pairs = n // 2
        if n % 2 and per_factor > d * d:  # copy odd rows to even ones
            padded = there[:per_factor * (n + 1)].reshape(planes + (n + 1,))
            padded[..., :-1], padded[..., -1] = p, p[..., -1]
            p, pairs, here, there = padded, half + 1, there, here
        size = n - half
        level = there[:per_factor * size].reshape(planes + (size,))
        term = there[per_factor * size:per_factor * (size + pairs)].reshape(planes + (pairs,))
        _matmul(p[..., 1:2 * pairs:2], p[..., 0:2 * pairs:2], out=level[..., :pairs], term=term)
        if n % 2:
            level[..., half] = p[..., n - 1]
        p, n = level, size
        here, there = there, here
    _planes(out)[...] = p[..., 0]
    return out
