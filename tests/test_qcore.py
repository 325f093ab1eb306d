import math

import numpy as np
import pytest

from holonomy_sim.hamiltonians import (GateKind, GateSpec, Schedule, exchange_hamiltonian,
                                       gate_generators)
from holonomy_sim.qcore import (_matmul, _matrices, _planes, hermiticity_defect,
                                matexp_cubic_stack, matexp_hermitian, matexp_hermitian_stack,
                                ordered_product, unitarity_defect)

from conftest import random_hermitian

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


def test_cubic_stack_matches_eigh_for_scaled_spin_one(rng):
    # s * (spin-1 S_x in a random unitary frame) has spectrum {-s, 0, +s}
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
    for s in (1.0, 0.3, 2.7):
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        h = s * q @ sx @ q.conj().T
        taus = np.array([0.0, 1e-9, 0.4, -2.5, math.pi, -math.pi])
        us = matexp_cubic_stack(np.stack([h] * len(taus)), s, taus)
        for u, tau in zip(us, taus):
            np.testing.assert_allclose(u, matexp_hermitian(h, tau), atol=1e-13)


def test_cubic_stack_rejects_non_hermitian_and_bad_scale():
    bad = np.array([[[0, 1, 0], [0, 0, 0], [0, 0, 0]]], dtype=complex)
    with pytest.raises(ValueError, match="defect"):
        matexp_cubic_stack(bad, 1.0, [1.0])
    with pytest.raises(ValueError, match="defect"):
        matexp_cubic_stack(np.full((1, 3, 3), np.nan, dtype=complex), 1.0, [1.0])
    for s in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="positive and finite"):
            matexp_cubic_stack(np.zeros((1, 3, 3), dtype=complex), s, [1.0])


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


def test_cubic_stack_exponentiates_every_row_of_taus(rng):
    # spin-1 S_x in five random unitary frames: spectrum {-1, 0, +1}
    sx = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=complex) / math.sqrt(2)
    qs, _ = np.linalg.qr(rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3)))
    hs = qs @ sx @ qs.conj().transpose(0, 2, 1)
    taus = rng.uniform(-3.0, 3.0, size=(4, 5))
    us = matexp_cubic_stack(hs, 1.0, taus)
    assert us.shape == (4, 5, 3, 3)
    for row, u in zip(taus, us):
        assert np.array_equal(u, matexp_cubic_stack(hs, 1.0, row))


def _in_layouts(stack):
    """The (..., n, d, d) stack as C-contiguous matrices, as a moveaxis view of
    plane memory (d, d, ..., n), and as a [..., ::2, :, :] slice."""
    planes = np.ascontiguousarray(np.moveaxis(stack, (-2, -1), (0, 1)))
    yield "contiguous", np.ascontiguousarray(stack)
    yield "planes", np.moveaxis(planes, (0, 1), (-2, -1))
    yield "every-other", np.repeat(stack, 2, axis=-3)[..., ::2, :, :]


def _spectrum_stack(rng, n, d, s):
    """n random Hermitian d x d matrices with eigenvalues in {-s, 0, +s}."""
    m = rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
    qs, _ = np.linalg.qr(m)
    eig = s * rng.choice([-1.0, 0.0, 1.0], size=(n, d))
    return (qs * eig[:, None, :]) @ qs.conj().transpose(0, 2, 1)


@pytest.mark.parametrize("d", [3, 4, 16])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_ordered_product_matches_sequential_matmul_in_every_layout(d, batch, rng):
    n = 7
    _, vs = np.linalg.eigh(_spectrum_stack(rng, int(np.prod(batch, dtype=int)) * n, d, 1.0))
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


@pytest.mark.parametrize("d", [3, 4, 16])
@pytest.mark.parametrize("batch", [(), (2,)])
def test_cubic_stack_matches_eigh_in_every_layout(d, batch, rng):
    n, s = 6, 1.7
    hs = _spectrum_stack(rng, n, d, s)
    taus = rng.uniform(-3.0, 3.0, size=batch + (n,))
    for name, stack in _in_layouts(hs):
        us = matexp_cubic_stack(stack, s, taus)
        assert us.shape == batch + (n, d, d), name
        for idx in np.ndindex(*batch + (n,)):
            np.testing.assert_allclose(us[idx], matexp_hermitian(hs[idx[-1]], taus[idx]),
                                       atol=1e-13, err_msg=name)


def test_hermiticity_defect():
    assert hermiticity_defect(SX) == 0.0
    assert hermiticity_defect(np.array([[0, 1], [0, 0]], dtype=complex)) == 1.0
    # a (..., d, d) stack reports its worst matrix; an empty stack has none
    stack = np.stack([SX, SY, np.array([[0, 2], [0, 0]], dtype=complex)])
    assert hermiticity_defect(stack) == 2.0
    assert hermiticity_defect(stack.reshape(3, 1, 2, 2)) == 2.0
    assert hermiticity_defect(np.zeros((0, 3, 3), dtype=complex)) == 0.0


def _dense_closed_form(hs, s, taus):
    """The closed form over every plane: all d^3 products of h^2, then b h^2 + a h + I
    as whole (d, d, ...) arrays -- the reference the zero-plane skipping must match."""
    x = s * np.asarray(taus, dtype=float)
    a = (-1j / s) * np.sin(x)
    b = (-2.0 / s ** 2) * np.sin(0.5 * x) ** 2
    h = _planes(hs)
    d = h.shape[0]
    sq = _matmul(h, h, np.empty((d, d) + h.shape[2:], dtype=complex))
    batch = (slice(None), slice(None)) + (None,) * (x.ndim - 1)
    return _matrices(b * sq[batch] + a * h[batch] + np.eye(d).reshape((d, d) + (1,) * x.ndim))


def _bits(u):
    # np.array_equal has -0.0 == +0.0; the uint64 view tells them apart
    return np.ascontiguousarray(u).view(np.uint64)


def _cubic_cases(rng):
    """(name, stack, s, nonzero planes of the stack) for the closed-form bit tests."""
    # t = 0, T/2 and T put sin(theta) at exactly +-0 even for a > 0
    ts = np.concatenate([[0.0, 0.5, 1.0], rng.uniform(0.0, 1.0, size=61)])
    for a in (0.7605, 0.0):
        for kind in GateKind:
            stack = gate_generators(GateSpec(kind, Schedule(a, 1.0)), ts)[1]
            # a = 0: sin(theta) == 0 everywhere leaves the lo<->anc planes zero
            yield f"{kind.value}-a{a}", stack, 1.0, 4 if a else 2
    s = 1.7
    qs, _ = np.linalg.qr(rng.standard_normal((64, 3, 3)) + 1j * rng.standard_normal((64, 3, 3)))
    yield "spin-one", (qs * [-s, 0.0, s]) @ qs.conj().transpose(0, 2, 1), s, 9
    j12, j13 = 1.3, 0.4
    stack = exchange_hamiltonian(j12, j13, 2 * math.pi * ts)
    yield "exchange", stack, math.hypot(j12, j13), None


@pytest.mark.parametrize("batch", [(), (3,)])
def test_cubic_stack_has_the_bits_of_the_dense_closed_form(batch, rng):
    for name, stack, s, planes in _cubic_cases(rng):
        n = len(stack)
        if planes is not None:
            assert np.count_nonzero(np.any(stack, axis=0)) == planes, name
        # steps of either sign, zero, pi kicks and s * tau beyond pi, where a and b
        # change sign and products with zero planes give -0.0
        taus = rng.uniform(-7.0, 7.0, size=batch + (n,)) / s
        taus[..., :4] = [0.0, math.pi / s, -math.pi / s, 4.0 / s]
        got = matexp_cubic_stack(stack, s, taus)
        assert got.shape == batch + (n,) + stack.shape[1:], name
        assert np.array_equal(_bits(got), _bits(_dense_closed_form(stack, s, taus))), name
