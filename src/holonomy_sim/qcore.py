"""Dense complex linear algebra sized for 4- and 16-dimensional Hilbert spaces.

Everything here is a pure function on numpy arrays: states are 1-d complex
vectors, operators are square complex matrices.  General Hermitian
exponentials go through the eigendecomposition; generators with H^3 = H
(a spectrum of -1, 0 and +1 only, as every gate generator here has) use
the exact closed form instead, built from the planes of H that are nonzero
somewhere in the stack (4 of 9 for a lambda block, whose H^2 has the other
5).  Either way every propagation step is unitary up to rounding -- long
runs take 1e5-1e6 steps and must not accumulate unitarity drift.
Time-ordered products of a step stack are reduced pairwise; both the
closed form and the product carry leading batch axes, so several trains
share one call.  The closed form takes the indices of pi pulses, whose
exponential it makes exactly I - 2 H^2 for either sign, and the product
can stop part way up its tree, so that a caller reducing a long stack in
blocks finishes the upper levels of all blocks in one call.

Stacks are multiplied as *planes*: an array of shape (d, d, ..., n) in
which entry (i, j) of every matrix is one contiguous array.  A product of
two such stacks is d whole-plane multiply-adds, which for the 3x3 lambda
blocks and the 4x4 adiabatic frame costs less than np.matmul's fixed price
per small matrix.  The public functions take and return the usual
(..., n, d, d) layout as views of that memory.

A caller that exponentiates and reduces many same-sized stacks (the
blocks of one propagation) can hand in its own memory: the closed form,
the product and the generators of hamiltonians take an optional out= for
their result, and the first two a work= for their temporaries, so a loop
over blocks allocates no stack of its own.  Without them they allocate
the same arrays and run the same code.  The Hermiticity check of every
exponential compares only the planes that are nonzero somewhere with
their mirrors, and still reports the defect of the whole stack.
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


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dagger U - I."""
    d = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(d))))


def _check_hermitian_stack(h: np.ndarray, nonzero: list, diff: np.ndarray,
                           mag: np.ndarray) -> None:
    """Reject planes h of shape (d, d, n) unless Hermitian within HERMITICITY_TOL.

    nonzero[i][j] tells whether plane (i, j) is nonzero somewhere, as np.any
    finds it (a NaN counts).  Only a pair (i, j), (j, i) with a nonzero
    plane can deviate, and |h_ij - conj(h_ji)| = |h_ji - conj(h_ij)|, so
    each such pair is compared once; the defect reported is
    hermiticity_defect of the stack.  diff (n complex) and mag (n floats)
    hold one pair's deviation.
    """
    defects = [0.0]
    # an infinite entry gives inf - inf = nan: the defect check reports it
    with np.errstate(invalid="ignore"):
        for i, row in enumerate(nonzero):
            for j in range(i, len(row)):
                if row[j] or nonzero[j][i]:
                    np.subtract(h[i, j], np.conjugate(h[j, i], out=diff), out=diff)
                    defects.append(np.abs(diff, out=mag).max(initial=0.0))
    defect = float(np.max(defects))  # a nan anywhere makes the max nan
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > "
                         f"{HERMITICITY_TOL:.1e}")


def matexp_hermitian_stack(hs: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """exp(-i*h_k*tau_k) for a stack hs of shape (n, d, d), via eigendecomposition.

    One LAPACK call diagonalizes the whole stack.  taus must have shape
    (n,); non-Hermitian and non-finite stacks are rejected.
    """
    taus = np.asarray(taus)
    n = len(hs)
    if taus.shape != (n,):
        raise ValueError(f"taus of shape {taus.shape} do not fit the stack of shape "
                         f"{hs.shape}: one exponent per matrix")
    _check_hermitian_stack(_planes(hs), np.any(hs, axis=-3).tolist(),
                           np.empty(n, dtype=complex), np.empty(n))
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * taus[:, None])
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def cubic_work_size(n: int, size: int) -> int:
    """Complex entries of the work array of matexp_cubic_stack: n matrices, size exponents."""
    return 2 * size + (size + 1) // 2 + 2 * n


def matexp_cubic_stack(hs: np.ndarray, taus: np.ndarray,
                       out: np.ndarray | None = None,
                       work: np.ndarray | None = None,
                       pi_pulses: np.ndarray | None = None) -> np.ndarray:
    """exp(-i*h_k*tau_k) for Hermitian h_k with h^3 = h, without eigh.

    The spectrum of such an h is a subset of {-1, 0, +1}, so the series
    collapses to exp(-i h tau) = I - i sin(tau) h + (cos(tau) - 1) h^2
    (Moler & Van Loan, SIAM Rev. 45, 2003).  cos - 1 is evaluated as
    -2 sin^2(tau / 2) to keep small steps accurate.  A generator with
    h^3 = s^2 h enters as h / s with exponent s * tau.  hs has shape
    (n, d, d) and taus shape (..., n): every row of taus is exponentiated
    against the same hs and h^2, giving (..., n, d, d).  The caller vouches
    for h^3 = h; Hermiticity and non-finite entries are still rejected
    as in :func:`matexp_hermitian_stack`, and so is a last axis of taus
    that is not n.

    out, if given, is the (..., n, d, d) result array, in any memory
    layout, and is returned; otherwise it is allocated as a view of planes
    (d, d, ..., n) (see the module docstring).  work is a flat contiguous
    complex array of at least cubic_work_size(n, taus.size) entries for
    the temporaries (allocated when not given).  hs, taus, out and work
    may not overlap.

    pi_pulses, if given, indexes the factors (on the last axis of taus)
    whose exponent tau is +-pi.  The exact sin(tau) is 0 there, but sin
    of the rounded pi is 1.2e-16 with the sign of tau, so the sine term is
    dropped: such a factor is exactly I - 2 h^2, since b = -2 sin^2(+-pi / 2)
    rounds to -2, the same for either sign.

    Only planes that are nonzero somewhere in hs enter: h^2[i, j] sums
    h[i, k] h[k, j] over the k, ascending, whose two planes are both
    nonzero, and each output plane takes b h^2 and a h only where those
    planes exist.  A skipped term is a product with a zero, so it could
    change only the sign of a zero; the final + I over every plane turns
    each -0 into +0, so the result has the bits of the dense sum over all
    d^3 products.  The Hermiticity check likewise compares only the
    nonzero planes with their mirrors (see _check_hermitian_stack).
    """
    taus = np.asarray(taus, dtype=float)
    n = len(hs)
    if taus.shape[-1:] != (n,):
        raise ValueError(f"taus of shape {taus.shape} do not fit the stack of shape "
                         f"{hs.shape}: one exponent per matrix on the last axis")
    size = taus.size
    if work is None:
        work = np.empty(cubic_work_size(n, size), dtype=complex)
    elif len(work) < cubic_work_size(n, size):
        raise ValueError(f"work has {len(work)} entries, needs {cubic_work_size(n, size)}")
    # work holds, in order: a; a * h[i, j], whose memory first holds the
    # check's magnitudes and sin(taus); x = taus / 2, overwritten by b;
    # h^2[i, j] and one product of its sum
    a, ah = work[:size].reshape(taus.shape), work[size:2 * size].reshape(taus.shape)
    tmp = work[size:2 * size].view(float)
    x = work[2 * size:].view(float)[:size].reshape(taus.shape)
    end = 2 * size + (size + 1) // 2
    sq, prod = work[end:end + n], work[end + n:end + 2 * n]
    h = _planes(hs)
    d = h.shape[0]
    nonzero = np.any(hs, axis=-3).tolist()
    _check_hermitian_stack(h, nonzero, sq, tmp[:n])
    # a = -1j sin(taus) and b = -2 sin(taus / 2)^2, rounded as those expressions
    np.multiply(-1j, np.sin(taus, out=tmp[:size].reshape(taus.shape)), out=a)
    if pi_pulses is not None:
        a[..., pi_pulses] = 0.0
    b = np.sin(np.multiply(0.5, taus, out=x), out=x)
    np.multiply(-2.0, np.square(b, out=b), out=b)
    if out is None:
        out = _matrices(np.empty((d, d) + taus.shape, dtype=complex))
    # each (n,) plane of h broadcasts against the (..., n) planes of p
    p = _planes(out)
    for i in range(d):
        for j in range(d):
            ks = [k for k in range(d) if nonzero[i][k] and nonzero[k][j]]
            if ks:
                np.multiply(h[i, ks[0]], h[ks[0], j], out=sq)
                for k in ks[1:]:
                    sq += np.multiply(h[i, k], h[k, j], out=prod)
                np.multiply(b, sq, out=p[i, j])
                if nonzero[i][j]:
                    p[i, j] += np.multiply(a, h[i, j], out=ah)
            elif nonzero[i][j]:
                np.multiply(a, h[i, j], out=p[i, j])
            else:
                p[i, j] = 0.0
    # adding I everywhere also turns every -0 into +0, as the dense sum did
    p += np.eye(d).reshape((d, d) + (1,) * taus.ndim)
    return out


def ordered_product(stack: np.ndarray, out: np.ndarray | None = None,
                    work: tuple | None = None, depth: int | None = None) -> np.ndarray:
    """Time-ordered product stack[..., n-1, :, :] @ ... @ stack[..., 0, :, :].

    Reduces axis -3 and keeps any leading batch axes.  Adjacent pairs are
    multiplied (later @ earlier) by one _matmul per level, so n >= 1
    factors take ceil(log2 n) levels; an odd last factor carries over to the
    next level unchanged.  The matrices are reduced as planes, whatever the
    memory layout of stack.

    depth, if given, stops the tree after that many levels (or at one
    node) and returns the (..., ceil(n / 2**depth), d, d) stack of its
    nodes: node i is the product of factors [i * 2**depth, (i + 1) *
    2**depth).  A stack cut into runs of a multiple of 2**depth factors
    gives, run by run, the nodes of the whole stack's tree, and reducing
    those nodes performs the rest of its multiplications, so the product
    keeps its bits.

    out, if given, is the result array, (..., d, d), or (..., nodes, d, d)
    with depth, in any memory layout, and is returned.  work, if given,
    is (odd, even, term): flat contiguous complex arrays for the odd
    levels, the even levels and the _matmul term, of at least ceil(n/2),
    ceil(n/4) and floor(n/2) factors (d * d entries each per batch row).
    Only the first level reads stack, so even may be the memory of stack
    itself.  Both are allocated when not given.
    """
    p = _planes(stack)
    d, n, batch = p.shape[0], p.shape[-1], p.shape[2:-1]
    if n == 0:
        raise ValueError(f"ordered_product needs at least one factor, got shape {stack.shape}")
    whole = depth is None
    if whole:
        depth = (n - 1).bit_length()
    per_factor = d * d * math.prod(batch)
    if out is None:
        nodes = () if whole else (-(-n >> depth),)
        out = np.empty(batch + nodes + (d, d), dtype=complex)
    if work is None:
        work = tuple(np.empty(per_factor * k, dtype=complex)
                     for k in ((n + 1) // 2, (n + 3) // 4, n // 2))
    *buffers, term = work
    for k in range(min(depth, (n - 1).bit_length())):
        half = p.shape[-1] // 2
        size = p.shape[-1] - half
        level = buffers[k % 2][:per_factor * size].reshape((d, d) + batch + (size,))
        _matmul(p[..., 1:2 * half:2], p[..., 0:2 * half:2], out=level[..., :half],
                term=term[:per_factor * half].reshape((d, d) + batch + (half,)))
        level[..., half:] = p[..., 2 * half:]
        p = level
    _planes(out)[...] = p[..., 0] if whole else p
    return out
