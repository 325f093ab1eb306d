import math
import re

import numpy as np
import pytest

from holonomy_sim.hamiltonians import GateKind, GateSpec, Schedule, _couplings, gate_generators
from holonomy_sim.qcore import (_closed_form, _matmul, _matrices, _planes, hermiticity_defect,
                                matexp_hermitian_stack, matexp_lambda_stack, ordered_product,
                                tree_order, tree_product, unitarity_defect)

from conftest import (half_angle, lambda_closed_form, lambda_stack, matexp_hermitian,
                      random_hermitian)

# np.full(shape, np.nan, dtype=complex) fills nan + 0j: an imaginary part that
# the closed form does not write would pass as 0
NAN = complex(np.nan, np.nan)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


def taylor_expm(h, tau, terms=60):
    """Independent oracle: scaling-and-squaring Taylor series for exp(-i h tau)."""
    a = -1j * tau * h
    squarings = max(0, int(np.ceil(np.log2(max(np.linalg.norm(a, 2), 1e-30)))) + 1)
    a = a / (2 ** squarings)
    out = np.eye(h.shape[0], dtype=complex)
    term = np.eye(h.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ a / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def test_matexp_zero_is_identity():
    for tau in (0.0, 1.0, -3.7, 100.0):
        u = matexp_hermitian(np.zeros((4, 4), dtype=complex), tau)
        np.testing.assert_allclose(u, np.eye(4), atol=1e-15)


def test_matexp_diagonal_case():
    u = matexp_hermitian(np.diag([1.0, -1.0]).astype(complex), math.pi)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-14)


def test_matexp_pauli_x_embedded_matches_closed_form_and_oracle():
    h = np.zeros((4, 4), dtype=complex)
    h[1:3, 1:3] = SX
    tau = math.pi / 2
    u = matexp_hermitian(h, tau)
    # closed form on the coupled block: cos on the diagonal, -i sin off it
    expected = np.eye(4, dtype=complex)
    expected[1, 1] = expected[2, 2] = math.cos(tau)
    expected[1, 2] = expected[2, 1] = -1j * math.sin(tau)
    np.testing.assert_allclose(u, expected, atol=1e-14)
    np.testing.assert_allclose(u, taylor_expm(h, tau), atol=1e-10)


def test_matexp_matches_taylor_oracle_on_random_input(rng):
    for _ in range(20):
        h = random_hermitian(rng)
        tau = rng.uniform(-3, 3)
        np.testing.assert_allclose(matexp_hermitian(h, tau), taylor_expm(h, tau),
                                   atol=1e-10)


def test_matexp_rejects_non_hermitian():
    bad = np.array([[0, 1], [0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="defect"):
        matexp_hermitian(bad, 1.0)


def test_matexp_rejects_non_finite_and_non_square():
    for value in (math.nan, math.inf):
        h = np.zeros((2, 2), dtype=complex)
        h[0, 0] = value
        with pytest.raises(ValueError, match="defect"):
            matexp_hermitian(h, 1.0)
    with pytest.raises(ValueError, match="square"):
        matexp_hermitian(np.zeros((2, 3), dtype=complex), 1.0)


def test_matexp_unitary_over_1000_random_inputs(rng):
    hs = np.empty((1000, 4, 4), dtype=complex)
    for k in range(1000):
        hs[k] = random_hermitian(rng)
    us = matexp_hermitian_stack(hs, rng.uniform(-10, 10, size=1000))
    worst = max(unitarity_defect(u) for u in us)
    assert worst <= 1e-10


def test_matexp_semigroup_on_fixed_hamiltonian(rng):
    for _ in range(25):
        h = random_hermitian(rng)
        t1, t2 = rng.uniform(-2, 2, size=2)
        lhs = matexp_hermitian(h, t1 + t2)
        rhs = matexp_hermitian(h, t1) @ matexp_hermitian(h, t2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_matexp_stack_matches_single(rng):
    hs = np.stack([random_hermitian(rng) for _ in range(7)])
    taus = rng.uniform(-1, 1, size=7)
    us = matexp_hermitian_stack(hs, taus)
    for k in range(7):
        np.testing.assert_allclose(us[k], matexp_hermitian(hs[k], taus[k]), atol=1e-13)


def _random_couplings(rng, n, s=1.0):
    """n random lambda couplings (x real, y complex) with x^2 + |y|^2 = s^2."""
    theta, phi = rng.uniform(-math.pi, math.pi, size=(2, n))
    return s * np.sin(theta), s * np.cos(theta) * np.exp(-1j * phi)


def test_lambda_stack_matches_eigh_for_scaled_couplings(rng):
    # couplings with x^2 + |y|^2 = s^2 have spectrum {-s, 0, +s}, so they enter
    # the closed form divided by s with exponents s * tau
    taus = np.array([0.0, 1e-9, 0.4, -2.5, math.pi, -math.pi])
    for s in (1.0, 0.3, 2.7):
        x, y = _random_couplings(rng, len(taus), s)
        us = matexp_lambda_stack(x / s, y / s, s * taus)
        for u, h, tau in zip(us, lambda_stack(x, y), taus):
            np.testing.assert_allclose(u, matexp_hermitian(h, tau), atol=1e-13)


@pytest.mark.parametrize("x, y, taus, match", [
    (np.ones(2, dtype=complex), np.ones(2, dtype=complex), np.ones(2), "must be real"),
    (np.ones(2), np.ones(3, dtype=complex), np.ones(2), r"\(2,\).*\(3,\).*of one shape"),
    (np.ones((2, 1)), np.ones(2, dtype=complex), np.ones(2), "of one shape"),
    (np.ones((2, 1)), np.ones((2, 1), dtype=complex), np.ones(2), "must be 1-d"),
    (np.ones(()), np.ones((), dtype=complex), np.ones(()), "must be 1-d"),
    (np.ones(2), np.ones(2, dtype=complex), np.ones(3), r"\(3,\) do not fit.*\(2,\)"),
    (np.ones(2), np.ones(2, dtype=complex), np.ones((4, 1)), r"\(4, 1\) do not fit"),
    (np.ones(2), np.ones(2, dtype=complex), 0.5, r"\(\) do not fit"),
])
def test_lambda_stack_rejects_couplings_and_taus_that_do_not_fit(x, y, taus, match):
    with pytest.raises(ValueError, match=match):
        matexp_lambda_stack(x, y, taus)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x", "y.real", "y.imag"])
def test_lambda_stack_rejects_non_finite_couplings(where, value, rng):
    x, y = _random_couplings(rng, 5)
    {"x": x, "y.real": y.real, "y.imag": y.imag}[where][3] = value
    with pytest.raises(ValueError, match="must be finite"):
        matexp_lambda_stack(x, y, np.ones(5))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_stacks_reject_non_finite_exponents(value, rng):
    # a NaN exponent gave NaN matrices without a warning, an infinite one with
    # only numpy's RuntimeWarning; the error comes before any work
    x, y = _random_couplings(rng, 5)
    taus = np.ones((2, 5))
    taus[1, 3] = value
    with pytest.raises(ValueError, match="exponents taus must be finite"):
        matexp_lambda_stack(x, y, taus)
    with pytest.raises(ValueError, match="exponents taus must be finite"):
        matexp_lambda_stack(x, y, taus, pi_pulses=np.array([3]))
    with pytest.raises(ValueError, match="exponents taus must be finite"):
        matexp_hermitian_stack(lambda_stack(x, y), taus[1])


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_ordered_product_matches_sequential_product(n, rng):
    stack = rng.standard_normal((n, 3, 3)) + 1j * rng.standard_normal((n, 3, 3))
    expected = np.eye(3, dtype=complex)
    for factor in stack:
        expected = factor @ expected
    np.testing.assert_allclose(ordered_product(stack), expected, atol=1e-12)


def test_batched_ordered_product_equals_product_of_each_slice(rng):
    stack = rng.standard_normal((2, 3, 7, 3, 3)) + 1j * rng.standard_normal((2, 3, 7, 3, 3))
    products = ordered_product(stack)
    assert products.shape == (2, 3, 3, 3)
    for i in range(2):
        for j in range(3):
            assert np.array_equal(products[i, j], ordered_product(stack[i, j]))


def test_lambda_stack_exponentiates_every_row_of_taus(rng):
    x, y = _random_couplings(rng, 5)
    taus = rng.uniform(-3.0, 3.0, size=(4, 5))
    us = matexp_lambda_stack(x, y, taus)
    assert us.shape == (4, 5, 3, 3)
    for row, u in zip(taus, us):
        assert np.array_equal(u, matexp_lambda_stack(x, y, row))


def _in_layouts(stack):
    """The (..., n, d, d) stack as C-contiguous matrices, as a moveaxis view of
    plane memory (d, d, ..., n), and as a [..., ::2, :, :] slice."""
    planes = np.ascontiguousarray(np.moveaxis(stack, (-2, -1), (0, 1)))
    yield "contiguous", np.ascontiguousarray(stack)
    yield "planes", np.moveaxis(planes, (0, 1), (-2, -1))
    yield "every-other", np.repeat(stack, 2, axis=-3)[..., ::2, :, :]


def _spectrum_stack(rng, n, d):
    """n random Hermitian d x d matrices with eigenvalues in {-1, 0, +1}."""
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    qs, _ = np.linalg.qr(m)
    eig = rng.choice([-1.0, 0.0, 1.0], size=(n, d))
    return (qs * eig[:, None, :]) @ qs.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("d", [3, 4, 16])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_ordered_product_matches_sequential_matmul_in_every_layout(d, batch, rng):
    n = 7
    _, vs = np.linalg.eigh(_spectrum_stack(rng, int(np.prod(batch, dtype=int)) * n, d))
    vs = vs.reshape(batch + (n, d, d))
    expected = np.empty(batch + (d, d), dtype=complex)
    for idx in np.ndindex(*batch):
        u = np.eye(d, dtype=complex)
        for factor in vs[idx]:
            u = np.matmul(factor, u)
        expected[idx] = u
    for name, stack in [("eigh", vs), *_in_layouts(vs)]:
        product = ordered_product(stack)
        assert product.shape == batch + (d, d), name
        np.testing.assert_allclose(product, expected, atol=1e-12, err_msg=name)


def _work(n, size):
    """A NaN-filled work array of _closed_form for n couplings and size exponents."""
    return np.full(2 * size + 2 * n, np.nan)


@pytest.mark.parametrize("batch", [(), (2,)])
def test_lambda_stack_matches_eigh_in_every_out_layout(batch, rng):
    # the closed form writes into the planes of any (..., n, 3, 3) layout
    n = 6
    x, y = _random_couplings(rng, n)
    hs = lambda_stack(x, y)
    taus = rng.uniform(-3.0, 3.0, size=batch + (n,))
    for name, us in _in_layouts(np.full(batch + (n, 3, 3), NAN)):
        _closed_form(x, y.real, y.imag, 0.5 * taus, _planes(us), _work(n, taus.size))
        assert np.array_equal(_bits(us), _bits(matexp_lambda_stack(x, y, taus))), name
        for idx in np.ndindex(*batch + (n,)):
            np.testing.assert_allclose(us[idx], matexp_hermitian(hs[idx[-1]], taus[idx]),
                                       atol=1e-13, err_msg=name)


@pytest.mark.parametrize("d", [4, 16])
def test_unitarity_defect_of_a_stack_has_the_bits_of_each_matrix(d, rng):
    hs = rng.normal(size=(40, d, d)) + 1j * rng.normal(size=(40, d, d))
    us = matexp_hermitian_stack(hs + np.swapaxes(hs, -1, -2).conj(), rng.uniform(-3, 3, 40))
    us[::3] *= 1.0 + 1e-9  # defects of several sizes
    defects = unitarity_defect(us)
    assert defects.shape == (40,)
    for u, defect in zip(us, defects.tolist()):
        alone = unitarity_defect(u)
        assert type(alone) is float and alone == defect
        assert alone == float(np.max(np.abs(u.conj().T @ u - np.eye(d))))


def test_hermiticity_defect():
    assert hermiticity_defect(SX) == 0.0
    assert hermiticity_defect(np.array([[0, 1], [0, 0]], dtype=complex)) == 1.0
    # a (..., d, d) stack reports its worst matrix; an empty stack has none
    stack = np.stack([SX, SY, np.array([[0, 2], [0, 0]], dtype=complex)])
    assert hermiticity_defect(stack) == 2.0
    assert hermiticity_defect(stack.reshape(3, 1, 2, 2)) == 2.0
    assert hermiticity_defect(np.zeros((0, 3, 3), dtype=complex)) == 0.0


def _dense_closed_form(hs, taus):
    """The closed form over every plane: all d^3 products of h^2, then b h^2 + a h + I
    as whole (d, d, ...) arrays -- the reference the closed form on couplings must match."""
    x = np.asarray(taus, dtype=float)
    sin, b = half_angle(np.tan(0.5 * x))
    a = -1j * sin
    h = _planes(hs)
    d = h.shape[0]
    sq = _matmul(h, h, np.empty((d, d) + h.shape[2:], dtype=complex), np.empty_like(h))
    batch = (slice(None), slice(None)) + (None,) * (x.ndim - 1)
    return _matrices(b * sq[batch] + a * h[batch] + np.eye(d).reshape((d, d) + (1,) * x.ndim))


def _bits(u):
    # np.array_equal has -0.0 == +0.0; the uint64 view tells them apart
    return np.ascontiguousarray(u).view(np.uint64)


def _closed_form_cases(kind, a, batch, rng):
    """(x, y, taus): couplings of the gate at t = 0, T/2 and T, where sin(theta)
    is exactly +-0 even for a > 0 (a = 0 puts it there everywhere), and at
    random t; steps of either sign, zero, pi kicks and tau beyond pi, where
    sin and cos - 1 change sign and products with zero couplings give -0.0."""
    ts = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, size=61)])
    _, x, y = gate_generators(GateSpec(kind, Schedule(a, 1.0)), ts)
    assert x.dtype == float and y.dtype == complex and (a > 0 or not x.any())
    taus = rng.uniform(-7.0, 7.0, size=batch + (len(ts),))
    taus[..., :5] = [0.0, math.pi, -math.pi, 4.0, -4.0]
    return x, y, taus


def _cases(test):
    """The gate kinds, amplitudes and batch shapes of _closed_form_cases."""
    for mark in (pytest.mark.parametrize("kind", list(GateKind)),
                 pytest.mark.parametrize("a", [0.7605, 0.0]),
                 pytest.mark.parametrize("batch", [(), (3,)])):
        test = mark(test)
    return test


@_cases
def test_lambda_stack_has_the_bits_of_the_real_formulas(kind, a, batch, rng):
    x, y, taus = _closed_form_cases(kind, a, batch, rng)
    got = matexp_lambda_stack(x, y, taus)
    assert got.shape == batch + (len(x), 3, 3)
    assert np.array_equal(_bits(got), _bits(lambda_closed_form(x, y, taus)))


@_cases
def test_lambda_stack_agrees_with_the_dense_closed_form(kind, a, batch, rng):
    # the dense sum over all 27 products of h^2 rounds differently only in the
    # (1, 1) and (2, 2) planes, by an ulp or two
    x, y, taus = _closed_form_cases(kind, a, batch, rng)
    dense = _dense_closed_form(lambda_stack(x, y), taus)
    np.testing.assert_allclose(matexp_lambda_stack(x, y, taus), dense, rtol=0, atol=1e-15)


@_cases
def test_lambda_stack_has_its_structure_to_the_bit(kind, a, batch, rng):
    x, y, taus = _closed_form_cases(kind, a, batch, rng)
    pulses = np.arange(1, 3)
    for u in (matexp_lambda_stack(x, y, taus), matexp_lambda_stack(x, y, taus, pulses)):
        bits = _bits(u.imag)
        # diagonal imaginary parts are +0, not -0; p10 = p01, p20 = conj(p02)
        # and p21 = -conj(p12)
        assert (bits[..., [0, 1, 2], [0, 1, 2]] == 0).all()
        assert np.array_equal(_bits(u[..., 1, 0]), _bits(u[..., 0, 1]))
        assert np.array_equal(_bits(u[..., 2, 0]), _bits(np.conj(u[..., 0, 2])))
        assert np.array_equal(_bits(u[..., 2, 1]), _bits(-np.conj(u[..., 1, 2])))


def _lambda_stack(rng, n=16):
    _, x, y = gate_generators(GateSpec(GateKind.PHASE, Schedule(0.7605, 1.0)),
                              np.sort(rng.uniform(0.0, 1.0, size=n)))
    return lambda_stack(x, y)


def test_hermitian_stack_rejects_taus_that_do_not_fit_the_stack(rng):
    lam = _lambda_stack(rng, 1)
    zeros = np.zeros((2, 3, 3), dtype=complex)
    # a 1-factor stack used to broadcast against 3 taus, an all-zero stack of 2 to give 3
    for stack, taus in [(lam, [0.1, 0.2, 0.3]), (zeros, [0.1, 0.2, 0.3]),
                        (zeros, np.zeros((4, 3))), (zeros, 0.1), (zeros, np.zeros((4, 2)))]:
        both = rf"{re.escape(str(np.shape(taus)))}.*{re.escape(str(stack.shape))}"
        with pytest.raises(ValueError, match=both):
            matexp_hermitian_stack(stack, taus)
    # a batch of rows is fine for the closed form, not for eigh
    assert matexp_lambda_stack(np.zeros(2), np.zeros(2), np.zeros((4, 2))).shape == (4, 2, 3, 3)


def test_ordered_product_rejects_an_empty_stack():
    for shape in [(0, 3, 3), (2, 0, 4, 4)]:
        with pytest.raises(ValueError, match="at least one factor"):
            ordered_product(np.zeros(shape, dtype=complex))


def _defect_in_message(excinfo):
    return float(re.search(r"defect (\S+) >", str(excinfo.value)).group(1))


@pytest.mark.parametrize("plane, value", [((0, 2), 1e-6), ((2, 0), 3e-7 - 2e-6j),
                                          ((1, 1), 4e-7j), ((0, 0), 2.5e-6j)])
def test_hermiticity_check_catches_defects_in_planes_without_a_nonzero_mirror(plane, value, rng):
    # lambda planes are (0,1), (1,0), (1,2), (2,1): the defect sits in a plane whose
    # mirror is zero everywhere, or is an imaginary diagonal entry
    hs = _lambda_stack(rng)
    hs[5][plane] = value
    with pytest.raises(ValueError, match="not Hermitian") as excinfo:
        matexp_hermitian_stack(hs, np.ones(len(hs)))
    assert _defect_in_message(excinfo) == float(f"{hermiticity_defect(hs):.3e}")
    # the same defect below HERMITICITY_TOL passes
    hs[5][plane] = value * 1e-6
    matexp_hermitian_stack(hs, np.ones(len(hs)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                   complex(0, math.inf)])
@pytest.mark.parametrize("plane", [(0, 2), (1, 1), (0, 1)])
def test_hermiticity_check_rejects_non_finite_entries_in_any_plane(plane, value, rng):
    hs = _lambda_stack(rng)
    hs[3][plane] = value
    with pytest.raises(ValueError, match="not Hermitian"):
        matexp_hermitian_stack(hs, np.ones(len(hs)))


def test_hermiticity_check_reports_the_defect_of_the_whole_stack(rng):
    # defects in several pairs, both orientations: the largest one is reported
    for d in (3, 4):
        hs = np.stack([random_hermitian(rng, d) for _ in range(9)])
        hs[2, 0, d - 1] += 3e-9
        hs[7, d - 1, 1] -= 5e-9j
        hs[4, 1, 1] += 2e-9j
        with pytest.raises(ValueError) as excinfo:
            matexp_hermitian_stack(hs, np.ones(9))
        assert f"defect {hermiticity_defect(hs):.3e} >" in str(excinfo.value)


def test_out_and_work_give_the_bits_of_the_allocating_calls(rng):
    spec = GateSpec(GateKind.CPHASE, Schedule(1.2024, 1.0))
    ts = np.sort(rng.uniform(0.0, 1.0, size=37))
    taus = rng.uniform(-0.1, 0.1, size=(2, 37))
    levels, x, y = gate_generators(spec, ts)
    # the couplings into float views of complex memory, as the lab frame lays
    # them out, and into plain arrays, each with a NaN-filled work
    spare = np.full(56, NAN).view(float)
    for out in (tuple(spare[:111].reshape(3, 37)),
                tuple(np.full((3, 37), np.nan))):
        assert _couplings(spec, ts, out, np.full(74, np.nan)) == levels
        for got, want in zip(out, (x, y.real, y.imag)):
            assert np.array_equal(_bits(got), _bits(np.ascontiguousarray(want)))
    us = matexp_lambda_stack(x, y, taus)
    # the closed form from (37, 1) couplings against (37, 2) half exponents,
    # into planes and into the planes of matrices, with its work given, as
    # the lab frame calls it
    couplings = [np.ascontiguousarray(c)[:, None] for c in (x, y.real, y.imag)]
    for out in (np.full((3, 3, 37, 2), NAN), _planes(np.full((37, 2, 3, 3), NAN))):
        got = _closed_form(*couplings, 0.5 * taus.T, out, _work(37, 74))
        assert got is out and np.array_equal(_bits(_matrices(got)), _bits(us.swapaxes(0, 1)))
    product = ordered_product(us)
    # the first work array of tree_product may be the memory of the
    # tree-ordered stack, which only the first level reads; each holds 37
    # factors a row
    first = np.full(9 * 2 * 37, np.nan, dtype=complex)
    stack = first.reshape(3, 3, 37, 2)
    stack[...] = np.moveaxis(_planes(us)[..., tree_order(37)], -1, 2)
    second = np.full(9 * 2 * 37, np.nan, dtype=complex)
    out = np.full((3, 3, 2), np.nan, dtype=complex)
    got = tree_product(stack, out, (first, second))
    assert got is out and np.array_equal(_bits(_matrices(got)), _bits(product))


def _square(x, y):
    """h^2 of the lambda couplings of x and y as (n, 3, 3), from x, Re y and Im y
    in real arithmetic: x^2, x^2 + |y|^2 and |y|^2 on the diagonal, x y at
    (2, 0) and its conjugate at (0, 2)."""
    yr, yi = y.real, y.imag
    sq = np.zeros((len(x), 3, 3), dtype=complex)
    sq[:, 0, 0] = x * x
    sq[:, 2, 2] = yr * yr + yi * yi
    sq[:, 1, 1] = sq[:, 0, 0] + sq[:, 2, 2]
    sq.real[:, 2, 0] = sq.real[:, 0, 2] = x * yr
    sq.imag[:, 2, 0] = x * yi
    sq.imag[:, 0, 2] = -sq.imag[:, 2, 0]
    return sq


def test_pi_pulses_are_exactly_i_minus_2h2_for_either_sign(rng):
    # sin of the rounded pi is 1.2e-16 with the sign of tau: a pi pulse drops
    # that term, so +pi and -pi give the same bits, those of I - 2 h^2 with
    # the (1, 1) entry exactly 1 - 2 = -1, as x^2 + |y|^2 = 1 has it
    pulses = np.array([0, 3, 4, 17, 39])
    for kind in GateKind:
        _, x, y = gate_generators(GateSpec(kind, Schedule(0.7605, 1.0)),
                                  np.sort(rng.uniform(0.0, 1.0, size=40)))
        hs = lambda_stack(x, y)
        exact = (np.eye(3) - 2.0 * _square(x, y))[pulses]
        taus = rng.uniform(-0.1, 0.1, size=(2, 40))
        taus[0, pulses] = math.pi
        taus[1, pulses] = [math.pi, -math.pi, -math.pi, math.pi, -math.pi]
        got = matexp_lambda_stack(x, y, taus, pi_pulses=pulses)
        plain = matexp_lambda_stack(x, y, taus)
        assert np.array_equal(_bits(got[0, pulses]), _bits(got[1, pulses])), kind
        assert (got[:, pulses, 1, 1] == -1.0).all()
        # every other entry is that of I - 2 h^2 (the zero entries of h^2 give
        # zeros of either sign); its (1, 1) entry rounds x^2 + |y|^2
        off = np.ones((3, 3), dtype=bool)
        off[1, 1] = False
        for row in got:
            assert np.array_equal(row[pulses][:, off], exact[:, off]), kind
        np.testing.assert_allclose(exact[:, 1, 1], -1.0, rtol=0, atol=1e-15)
        # without the marker the two signs differ in the last bits
        assert not np.array_equal(plain[0, pulses], plain[1, pulses])
        np.testing.assert_allclose(got[1, pulses], plain[1, pulses], rtol=0, atol=1e-15)
        np.testing.assert_allclose(exact, matexp_hermitian_stack(hs[pulses], taus[1, pulses]),
                                   rtol=0, atol=1e-14)
        others = np.setdiff1d(np.arange(40), pulses)
        assert np.array_equal(_bits(got[:, others]), _bits(plain[:, others]))


@pytest.mark.parametrize("size", [1, 4, 32])
@pytest.mark.parametrize("n", [1, 5, 21, 64, 100, 333])
@pytest.mark.parametrize("batch", [(), (3,)])
def test_products_of_aligned_runs_have_the_bits_of_the_whole_tree(batch, n, size, rng):
    # runs of a power of two of factors from the start, the last one ragged,
    # are nodes of the whole stack's tree: their full products, reduced in
    # order, perform the rest of its multiplications
    stack = 0.6 * (rng.standard_normal(batch + (n, 3, 3))
                   + 1j * rng.standard_normal(batch + (n, 3, 3)))
    runs = [ordered_product(stack[..., i:i + size, :, :]) for i in range(0, n, size)]
    nodes = np.stack(runs, axis=-3)
    assert np.array_equal(_bits(ordered_product(nodes)), _bits(ordered_product(stack)))
    # the full runs reduced side by side, as one batch, give the same nodes
    full = n // size
    side = ordered_product(stack[..., :full * size, :, :].reshape(batch + (full, size, 3, 3)))
    assert np.array_equal(_bits(side), _bits(nodes[..., :full, :, :]))


@pytest.mark.parametrize("batch", [(), (1,), (3,), (2, 5)])
@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 9, 11, 20, 21, 43])
def test_ordered_product_of_a_batch_has_the_bits_of_each_row_alone(n, batch, rng):
    # a batch reduces its rows side by side, as the lanes of every level of
    # one tree; a row alone is one lane
    stack = 0.6 * (rng.standard_normal(batch + (n, 3, 3))
                   + 1j * rng.standard_normal(batch + (n, 3, 3)))
    whole = ordered_product(stack)
    for row in np.ndindex(*batch):
        assert np.array_equal(_bits(whole[row]), _bits(ordered_product(stack[row])))
    # a stack in plane memory gives the same bits
    assert np.array_equal(_bits(ordered_product(_matrices(_planes(stack).copy()))), _bits(whole))


def test_tree_order_is_a_permutation_that_pairs_the_first_level():
    for n in range(1, 4097):
        order = tree_order(n)
        pairs = n // 2
        assert np.array_equal(np.sort(order), np.arange(n)), n
        assert order[-1] == n - 1, n
        # position i < pairs holds factor 2q and position pairs + i factor 2q + 1
        assert (order[:pairs] % 2 == 0).all() and np.array_equal(order[pairs:2 * pairs],
                                                                 order[:pairs] + 1), n
    # the powers of two are the bit-reversal order
    assert tree_order(8).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    assert not tree_order(8).flags.writeable


def _pairwise_in_time_order(planes):
    """The pairwise tree over the factors of planes (d, d, n, ...) held in time
    order: (2q + 1) @ (2q) at each level, an odd last factor carried over,
    each entry summed over k in order as d whole-plane multiply-adds."""
    d = planes.shape[0]
    nodes = [planes[:, :, i] for i in range(planes.shape[2])]
    while len(nodes) > 1:
        products = []
        for earlier, later in zip(nodes[0::2], nodes[1::2]):
            product = later[:, 0, None] * earlier[None, 0]
            for k in range(1, d):
                product = product + later[:, k, None] * earlier[None, k]
            products.append(product)
        nodes = products + nodes[len(nodes) & ~1:]
    return nodes[0]


@pytest.mark.parametrize("lanes", [(), (1,), (7,), (3, 4)])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 13, 21, 64, 97])
@pytest.mark.parametrize("d", [3, 4])
def test_tree_product_has_the_bits_of_the_pairwise_tree_in_time_order(d, n, lanes, rng):
    planes = 0.6 * (rng.standard_normal((d, d, n) + lanes)
                    + 1j * rng.standard_normal((d, d, n) + lanes))
    expected = _pairwise_in_time_order(planes)
    # the tree-ordered stack in the first work array, which only the first
    # level reads, and a result written through a strided view
    first, second = (np.full(planes.size, np.nan, dtype=complex) for _ in range(2))
    tree = first.reshape(planes.shape)
    tree[...] = planes[:, :, tree_order(n)]
    out = np.full((2 * d, d) + lanes, np.nan, dtype=complex)[::2]
    assert tree_product(tree, out, (first, second)) is out
    assert np.array_equal(_bits(out), _bits(expected))


@pytest.mark.parametrize("n", [4, 13, 64, 97])
def test_tree_product_stopped_at_a_level_and_finished_has_the_bits_of_the_whole(n, rng):
    # every level size of n, n itself included: the nodes of that level in
    # tree_order(stop) are the factors of the tree that finishes it
    d, lanes = 3, (5,)
    planes = 0.6 * (rng.standard_normal((d, d, n) + lanes)
                    + 1j * rng.standard_normal((d, d, n) + lanes))
    expected = _bits(_pairwise_in_time_order(planes))
    stops = [n]
    while stops[-1] > 2:
        stops.append(stops[-1] - stops[-1] // 2)
    for stop in stops:
        first, second = (np.full(planes.size, np.nan, dtype=complex) for _ in range(2))
        tree = first.reshape(planes.shape)
        tree[...] = planes[:, :, tree_order(n)]
        level = np.full((d, d, stop) + lanes, np.nan, dtype=complex)
        assert tree_product(tree, level, (first, second), stop) is level
        out = np.full((d, d) + lanes, np.nan, dtype=complex)
        tree_product(level, out, (first, second))
        assert np.array_equal(_bits(out), expected)


@pytest.mark.parametrize("n, stop", [(8, 0), (8, 3), (8, 5), (8, 9), (1, 0), (13, -1), (13, 6)])
def test_tree_product_rejects_a_stop_that_is_not_a_level_size(n, stop):
    # the level sizes of 8 are 8, 4, 2, 1 and of 13 are 13, 7, 4, 2, 1: stop = 0
    # used to loop forever at one node, and stop = 3 to return with out unwritten
    planes = np.zeros((3, 3, n), dtype=complex)
    work = tuple(np.zeros(planes.size, dtype=complex) for _ in range(2))
    out = np.zeros((3, 3, max(stop, 1)), dtype=complex)
    with pytest.raises(ValueError, match=f"stop = {stop} is not a level size"):
        tree_product(planes, out, work, stop)
