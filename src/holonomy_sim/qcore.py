"""Dense complex linear algebra sized for 4- and 16-dimensional Hilbert spaces.

Everything here is a pure function on numpy arrays: states are 1-d complex
vectors, operators are square complex matrices.  General Hermitian
exponentials go through the eigendecomposition; the lambda-coupled gate
generator, given by its two couplings x (real) and y (complex), has the
spectrum {-1, 0, +1} and is exponentiated in exact closed form instead,
Hermitian by construction.  Either way every propagation step is unitary
up to rounding -- long runs take 1e5-1e6 steps and must not accumulate
unitarity drift.  The closed form carries leading batch axes, so several
trains share one call, and makes the exponential of a pi pulse exactly
I - 2 H^2 for either sign.  It is real arithmetic on x, Re y and Im y,
written plane by plane through the float views of the complex result
(_closed_form), with no complex multiply.  Its sine and cosine, like the
couplings' (hamiltonians.gate_generators), come from one tangent of the
half angle (_half_angle): numpy runs float64 tan as a SIMD loop, about 2
ns an element on an AVX-512 host, where sin and cos call scalar libm at
5-12 ns.

Stacks are multiplied as *planes*: an array of shape (d, d, ...) in which
entry (i, j) of every matrix is one contiguous array.  A product of two
such stacks is d whole-plane multiply-adds, which for the 3x3 lambda
blocks and the 4x4 adiabatic frame costs less than np.matmul's fixed price
per small matrix.  On a 2-core AVX-512 host (numpy 2.4.6), under the
lab-frame product's 512-element ufunc buffer (see _matmul), a 3x3 product
costs about 400 ns on a level of 16 products (the call's fixed cost), 80
ns at 128, 50 ns at 256 and 30-35 ns from 1000 to 5000; numpy's default
buffer of 8192 puts levels of 170 to 2730 products at 55-80 ns.  The
public functions take and return the usual (..., n, d, d) layout as views
of that memory.  Time-ordered products are reduced pairwise from planes
(d, d, n, ...) that hold the n factors in tree_order(n): every level pairs
the two halves of one contiguous block, one _matmul for all products side
by side.  A caller that lays out many stacks so (the pieces of a
propagation) can hand over its own memory.
"""
from __future__ import annotations

import functools
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
    a matrix gets the same bits wherever it sits in the stack, whatever the
    ufunc buffer size.  term holds each product before it is added; it has
    the shape of out and must overlap none of a, b and out.

    Each multiply broadcasts a[:, k, None] against b[None, k], and numpy
    copies both through its ufunc buffer, on every call, when their
    contiguous block (one plane) is shorter than about a third of that
    buffer: 2730 products at the default 8192 elements, where the copy
    nearly doubles the cost of a level of 1024 products.  The lab-frame
    product therefore runs under a buffer of 512 (propagation._BUFSIZE).
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
    (n,); non-Hermitian and non-finite stacks and non-finite taus are
    rejected.
    """
    taus = np.asarray(taus)
    if taus.shape != (len(hs),):
        raise ValueError(f"taus of shape {taus.shape} do not fit the stack of shape "
                         f"{hs.shape}: one exponent per matrix")
    if not np.isfinite(taus).all():
        raise ValueError("exponents taus must be finite")
    # an infinite entry gives inf - inf = nan, which the comparison rejects
    with np.errstate(invalid="ignore"):
        defect = hermiticity_defect(hs)
    if not defect <= HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: defect {defect:.3e} > "
                         f"{HERMITICITY_TOL:.1e}")
    w, v = np.linalg.eigh(hs)
    phases = np.exp(-1j * w * taus[:, None])
    return (v * phases[:, None, :]) @ v.conj().transpose(0, 2, 1)


def matexp_lambda_stack(x: np.ndarray, y: np.ndarray, taus: np.ndarray,
                        pi_pulses: np.ndarray | None = None) -> np.ndarray:
    """exp(-i*h_k*tau_k) for the lambda couplings h_k of x[k] and y[k], without eigh.

    h = [[0, x, 0], [x, 0, conj(y)], [0, y, 0]] is Hermitian by construction
    (x real, conj(y) formed here).  The caller vouches for x^2 + |y|^2 = 1,
    which gives h the spectrum {-1, 0, +1} (couplings of norm s enter
    divided by s, with exponents s * tau), so exp(-i h tau) = I - i sin(tau)
    h + (cos(tau) - 1) h^2 (Moler & Van Loan, SIAM Rev. 45, 2003), both
    from t = tan(tau / 2) as sin = 2 t / (1 + t^2) and cos - 1 = -2 t^2 /
    (1 + t^2), which keeps small steps accurate (see _half_angle).  Every
    entry is formed in real arithmetic from x, Re y and Im y (see
    _closed_form); the (1, 1) entry is 1 + cos(tau) - 1, as x^2 + |y|^2 = 1
    has it.  x and y have shape (n,) and taus shape (..., n): every row of
    taus is exponentiated against the same couplings, giving (..., n, 3, 3)
    as a view of planes (3, 3, ..., n) (see the module docstring), with a
    work array of 3 size + 2 n floats for taus.size = size.  A complex x, x
    and y not 1-d of one shape, non-finite couplings or exponents and a
    last axis of taus that is not n are rejected.

    pi_pulses, if given, indexes the factors (on the last axis of taus)
    whose exponent tau is +-pi.  The exact sin(tau) is 0 there, but that
    of the rounded pi is 1.2e-16 with the sign of tau, so the sine term is
    dropped: such a factor is exactly I - 2 h^2, since t = tan(+-pi / 2) =
    +-1.6e16 makes 1 + t^2 round to t^2 and b = -2 t^2 / (1 + t^2) to -2,
    the same for either sign.
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
    if taus.shape[-1:] != x.shape:
        raise ValueError(f"taus of shape {taus.shape} do not fit the couplings of shape "
                         f"{x.shape}: one exponent per coupling on the last axis")
    if not np.isfinite(taus).all():
        raise ValueError("exponents taus must be finite")
    n, size = len(x), taus.size
    work = np.empty(3 * size + 2 * n)
    half = np.multiply(0.5, taus, out=work[:size].reshape(taus.shape))
    p = np.empty((3, 3) + taus.shape, dtype=complex)
    _closed_form(x, y.real, y.imag, half, p, work[size:],
                 None if pi_pulses is None else (..., pi_pulses))
    return _matrices(p)


def _half_angle(t: np.ndarray, cos_m1: np.ndarray, scratch: np.ndarray, negate: bool = False):
    """sin x (-sin x if negate) into t and cos x - 1 into cos_m1, from t = tan(x / 2),
    for float arrays of one shape; scratch receives 1 + t^2.

    sin x = 2 t / (1 + t^2) and cos x - 1 = -2 t^2 / (1 + t^2), each with a
    relative error of a few ulp, small x included (no cancellation), and
    at x = +-pi (t = +-1.6e16, where 1 + t^2 rounds to t^2) cos x - 1 is
    exactly -2.  With the tan these six elementwise passes take about 5.5
    ns an element on an AVX-512 host, where the libm sines of sin x and of
    -2 sin^2(x / 2) took 11 ns on step exponents.  The arithmetic is
    elementwise, so an element gets the same bits wherever it sits in the
    array.  cos_m1 and scratch may not overlap t or each other.
    """
    np.square(t, out=cos_m1)
    np.add(cos_m1, 1.0, out=scratch)
    np.divide(cos_m1, scratch, out=cos_m1)
    cos_m1 *= -2.0
    np.divide(t, scratch, out=t)
    t *= -2.0 if negate else 2.0
    return t, cos_m1


def _closed_form(x: np.ndarray, yr: np.ndarray, yi: np.ndarray, t: np.ndarray, p: np.ndarray,
                 work: np.ndarray, pulses=None) -> np.ndarray:
    """matexp_lambda_stack, unchecked, into complex planes p of shape (3, 3) +
    t.shape, from the half exponents t = tau / 2, which it overwrites, and
    float couplings x, yr = Re y and yi = Im y of one shape that broadcasts
    against t.

    work is a flat contiguous float array of at least 2 size + 2 n entries,
    for t.size = size and x.size = n, and pulses indexes t at the pi pulses
    (see matexp_lambda_stack).  None of x, yr, yi, t, p and work may
    overlap, but x, yr and yi may be strided views of one array.

    With s = sin(tau) and b = cos(tau) - 1, each plane of I - i s h + b h^2
    is written once, in real arithmetic through the float views p.real and
    p.imag: the diagonal 1 + b x^2, 1 + b (h^2 holds x^2 + |y|^2 = 1 there)
    and 1 + b |y|^2 with imaginary part +0, p20 = b x y, p01 = -i s x, and
    p21 = -i s y with p12 = -conj(p21); p02 = conj(p20) and p10 = p01 are
    whole complex copies.  No complex multiply, and no pass that adds I or
    turns -0 into +0: a zero of a sine plane (tau = 0, a pi pulse, a zero
    coupling) keeps the sign its product gives.  On a 2-core AVX-512 host
    (numpy 2.4.6) this and the couplings of a call of 4096 one-row
    exponents take about 167 us, where the complex form, which summed h^2
    densely and added I to all nine planes, took about 214.
    """
    size, n = t.size, x.size
    b, scratch = work[:2 * size].reshape((2,) + t.shape)
    sq, term = work[2 * size:2 * size + 2 * n].reshape((2,) + x.shape)
    re, im = p.real, p.imag
    # -s = -sin(tau) into t and b = cos(tau) - 1, from tan(tau / 2)
    ns, _ = _half_angle(np.tan(t, out=t), b, scratch, negate=True)
    if pulses is not None:
        ns[pulses] = 0.0
    im[0, 0] = im[1, 1] = im[2, 2] = re[0, 1] = 0.0
    # the diagonal, 1 + b h^2
    np.multiply(b, np.multiply(x, x, out=sq), out=re[0, 0])
    re[0, 0] += 1.0
    np.add(b, 1.0, out=re[1, 1])
    np.add(np.multiply(yr, yr, out=sq), np.multiply(yi, yi, out=term), out=sq)
    np.multiply(b, sq, out=re[2, 2])
    re[2, 2] += 1.0
    # p20 = b x y and p02 = conj(p20)
    np.multiply(b, np.multiply(x, yr, out=sq), out=re[2, 0])
    np.multiply(b, np.multiply(x, yi, out=sq), out=im[2, 0])
    np.conjugate(p[2, 0], out=p[0, 2])
    # p10 = p01 = -i s x, p21 = -i s y = s Im y - i s Re y, p12 = -conj(p21)
    np.multiply(ns, x, out=im[0, 1])
    p[1, 0] = p[0, 1]
    np.multiply(ns, yr, out=im[2, 1])
    im[1, 2] = im[2, 1]
    np.multiply(ns, yi, out=re[1, 2])
    np.negative(re[1, 2], out=re[2, 1])
    return p


@functools.cache
def tree_order(n: int) -> np.ndarray:
    """Where tree_product holds n >= 1 factors: factor tree_order(n)[i] at i.

    order(1) = [0], and order(n) is 2q for each q of order(ceil(n / 2))[:n // 2],
    then 2q + 1 for the same q, then n - 1 if n is odd: the pairs of a level
    sit n // 2 apart, their products in the order of the next level.  For a
    power of two it is the FFT's bit-reversal order (Cooley & Tukey, Math.
    Comp. 19, 1965).  Cached, so the array is read-only.
    """
    order = np.zeros(1, dtype=np.intp)
    if n > 1:
        evens = 2 * tree_order(n - n // 2)[:n // 2]
        order = np.concatenate((evens, evens + 1, np.arange(n - n % 2, n)))
    order.flags.writeable = False
    return order


def tree_product(p: np.ndarray, out: np.ndarray, work: tuple, stop: int = 1) -> np.ndarray:
    """Time-ordered product of planes p (d, d, n, ...) holding the factors in
    tree_order(n), into out, the (d, d, ...) planes of the result in any layout.

    A level multiplies p[:, :, pairs + i] @ p[:, :, i] for all i < pairs =
    n // 2 in one _matmul and carries an odd last factor over: the pairs and
    multiply-adds, so the bits, of ordered_product.  With stop > 1, a level
    size of n, it ends at that level, whose nodes out (d, d, stop, ...)
    receives in tree_order(stop); a stop that is not one of the level sizes
    n, ceil(n / 2), ..., 1 is rejected.  work is two flat contiguous
    complex arrays of at least p.size entries, for the levels and their
    terms; only the first level reads p, so the first may be p's memory.
    Neither may overlap out.
    """
    d, n, lanes = p.shape[0], p.shape[2], p.shape[3:]
    reached = n
    while reached > max(stop, 1):
        reached -= reached // 2
    if reached != stop:
        raise ValueError(f"stop = {stop} is not a level size of a tree of {n} factors")
    per_factor = d * d * math.prod(lanes)
    here, there = work  # here holds the input of a level
    last = out[:, :, None] if stop == 1 else out
    if n == stop:
        last[...] = p
    while n > stop:  # the last level straight into out
        pairs, size = n // 2, n - n // 2
        level = (last if size == stop
                 else there[:per_factor * size].reshape((d, d, size) + lanes))
        term = there[per_factor * size:per_factor * n].reshape((d, d, pairs) + lanes)
        _matmul(p[:, :, pairs:2 * pairs], p[:, :, :pairs], out=level[:, :, :pairs], term=term)
        if n % 2:
            level[:, :, pairs] = p[:, :, n - 1]
        p, n, here, there = level, size, there, here
    return out


def ordered_product(stack: np.ndarray) -> np.ndarray:
    """Time-ordered product stack[..., n-1, :, :] @ ... @ stack[..., 0, :, :].

    Reduces axis -3 and keeps any leading batch axes.  Adjacent pairs are
    multiplied (later @ earlier) level by level, so n >= 1 factors take
    ceil(log2 n) levels; an odd last factor carries over to the next level
    unchanged.  The stack (any layout) is copied to planes in tree_order for
    tree_product.
    """
    p = _planes(stack)
    d, n, batch = p.shape[0], p.shape[-1], p.shape[2:-1]
    if n == 0:
        raise ValueError(f"ordered_product needs at least one factor, got shape {stack.shape}")
    out = np.empty(batch + (d, d), dtype=complex)
    work = tuple(np.empty(p.size, dtype=complex) for _ in range(2))
    tree = work[0].reshape((d, d, n) + batch)
    tree[...] = np.moveaxis(p[..., tree_order(n)], -1, 2)
    tree_product(tree, _planes(out), work)
    return out
