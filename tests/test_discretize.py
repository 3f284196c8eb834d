"""Spectral grid, sesquilinear forms, rectangular pencil, and linearization."""

from __future__ import annotations

import numpy as np
import pytest

from lambspec import (
    BCKind,
    assemble_operator,
    chebyshev_grid,
    make_material,
    pencil_residual,
    pencil_scale,
    pencil_value,
)
from lambspec.discretize import _face_rows, _lambda_form

# ----------------------------------------------------------------------
# grid


def test_grid_geometry():
    grid = chebyshev_grid(17, 2.0)
    assert grid.nodes[0] == -2.0
    assert grid.nodes[-1] == 2.0
    assert np.all(np.diff(grid.nodes) > 0)
    np.testing.assert_allclose(grid.nodes + grid.nodes[::-1], 0.0, atol=1e-14)
    assert grid.exactness_degree == 16
    assert not grid.nodes.flags.writeable


@pytest.mark.parametrize("args", [(2, 1.0), (8, 0.0), (8, -1.0)])
def test_grid_validation(args):
    with pytest.raises(ValueError):
        chebyshev_grid(*args)


@pytest.mark.parametrize("degree", range(0, 14))
def test_differentiation_exact_on_polynomials(degree):
    grid = chebyshev_grid(14, 1.3)
    y = grid.nodes
    p = y ** degree
    dp = degree * y ** (degree - 1) if degree else np.zeros_like(y)
    d2p = degree * (degree - 1) * y ** (degree - 2) if degree >= 2 else np.zeros_like(y)
    scale = max(1.0, np.max(np.abs(dp)), np.max(np.abs(d2p)))
    assert np.max(np.abs(grid.d1 @ p - dp)) <= 1e-10 * scale
    assert np.max(np.abs(grid.d2 @ p - d2p)) <= 1e-8 * scale


def test_quadrature_weights():
    grid = chebyshev_grid(12, 0.7)
    assert np.all(grid.quad_weights > 0)
    assert np.sum(grid.quad_weights) == pytest.approx(1.4, rel=1e-14)
    for degree in range(grid.exactness_degree + 1):
        h = grid.h
        exact = (h ** (degree + 1) - (-h) ** (degree + 1)) / (degree + 1)
        value = grid.quad_weights @ grid.nodes ** degree
        assert value == pytest.approx(exact, rel=1e-13, abs=1e-15)


# ----------------------------------------------------------------------
# sesquilinear forms


def test_form_matrices_hermitian(bench_forms):
    forms = bench_forms
    for g in (forms.g_a0, forms.g_l, forms.g_c):
        # the stiffness product is symmetric up to matmul rounding only
        np.testing.assert_allclose(g, g.T, atol=1e-14 * np.linalg.norm(g))
    # the coupling blocks are exact conjugate transposes by construction
    np.testing.assert_array_equal(forms.g_b, forms.g_b.conj().T)


def test_form_matrices_definite(bench_forms):
    forms = bench_forms
    scale = np.linalg.norm(forms.g_a0)
    assert np.min(np.linalg.eigvalsh(forms.g_a0)) >= -1e-12 * scale
    assert np.min(np.linalg.eigvalsh(forms.g_l)) > 0
    assert np.min(np.linalg.eigvalsh(forms.g_c)) > 0


def test_hermitian_form_values_are_real(bench_forms):
    rng = np.random.default_rng(7)
    n2 = bench_forms.g_b.shape[0]
    v = rng.standard_normal(n2) + 1j * rng.standard_normal(n2)
    value = np.vdot(v, bench_forms.g_b @ v)
    assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))


# ----------------------------------------------------------------------
# rectangular pencil


def test_pencil_shapes(bench):
    pencil = assemble_operator(bench, 20, BCKind.FREE_FREE).pencil
    for k in (pencil.k0, pencil.k1, pencil.k2):
        assert k.shape == (44, 40)
    sh = assemble_operator(bench, 20, BCKind.FREE_FREE, n_channels=1).pencil
    for k in (sh.k0, sh.k1, sh.k2):
        assert k.shape == (22, 20)


def test_pencil_value_is_quadratic(bench):
    pencil = assemble_operator(bench, 12, BCKind.FREE_FREE).pencil
    mu = 0.3 - 1.2j
    direct = pencil.k0 + mu * pencil.k1 + mu * mu * pencil.k2
    np.testing.assert_allclose(pencil_value(pencil, mu), direct, rtol=1e-15)


def test_pencil_residual_scale_invariant(bench):
    pencil = assemble_operator(bench, 12, BCKind.FREE_FREE).pencil
    rng = np.random.default_rng(3)
    v = rng.standard_normal(24) + 1j * rng.standard_normal(24)
    mu = 1.0 + 0.5j
    r1 = pencil_residual(pencil, mu, v)
    r2 = pencil_residual(pencil, mu, 7.3 * v)
    assert r1 == pytest.approx(r2, rel=1e-12)
    assert r1 > 1e-6  # a random vector is nowhere near an eigenvector


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("n", [16, 17])
def test_pencil_residual_by_columns_matches_per_vector(bench, n, n_channels):
    # the columnwise form k0 V + (k1 V) diag(mu) + (k2 V) diag(mu^2) gives
    # each column the residual |P(mu_k) v_k| / (pencil_scale(mu_k) |v_k|)
    pencil = assemble_operator(bench, n, BCKind.FREE_FREE, n_channels=n_channels).pencil
    rng = np.random.default_rng(n + 10 * n_channels)
    dim, k = n_channels * n, 9
    mu = 5.0 * (rng.standard_normal(k) + 1j * rng.standard_normal(k))
    vs = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
    by_columns = pencil_residual(pencil, mu, vs)
    assert by_columns.shape == (k,)
    per_vector = [np.linalg.norm(pencil_value(pencil, z) @ v)
                  / (pencil_scale(pencil, z) * np.linalg.norm(v))
                  for z, v in zip(mu, vs.T)]
    np.testing.assert_allclose(by_columns, per_vector, rtol=1e-12, atol=0.0)
    assert pencil_residual(pencil, mu[3], vs[:, 3]) == pytest.approx(per_vector[3],
                                                                   rel=1e-12)


def test_sh_boundary_rows_are_pure_flux(bench):
    sh = assemble_operator(bench, 10, BCKind.FREE_FREE, n_channels=1).pencil
    grid = sh.grid
    n = grid.n
    # rows n, n+1 hold the face conditions at +h then -h: mu * d1[node]
    np.testing.assert_allclose(sh.k0[n], bench.mu * grid.d1[n - 1], rtol=1e-15)
    np.testing.assert_allclose(sh.k0[n + 1], bench.mu * grid.d1[0], rtol=1e-15)
    np.testing.assert_array_equal(sh.k1[n:], 0.0)
    np.testing.assert_array_equal(sh.k2[n:], 0.0)


def test_clamped_bottom_rows_are_point_values(bench):
    pencil = assemble_operator(bench, 10, BCKind.CLAMPED_FREE).pencil
    n = pencil.grid.n
    # last two rows clamp both displacement components at the lower face
    for i in (0, 1):
        row = pencil.k0[2 * n + 2 + i]
        expected = np.zeros(2 * n)
        expected[i * n] = 1.0
        np.testing.assert_array_equal(row, expected)
        np.testing.assert_array_equal(pencil.k1[2 * n + 2 + i], 0.0)


# ----------------------------------------------------------------------
# companion linearization


def test_linearization_mask_and_indices(bench):
    op = assemble_operator(bench, 10, BCKind.FREE_FREE)
    n = op.pencil.grid.n
    assert op.m.shape == (4 * n, 4 * n)
    expected_rows = tuple(sorted(2 * n + i * n + node
                                 for i in (0, 1) for node in (0, n - 1)))
    assert tuple(np.flatnonzero(op.mask == 0)) == expected_rows
    assert np.all(op.mask[list(expected_rows)] == 0.0)
    keep = np.ones(4 * n, dtype=bool)
    keep[list(expected_rows)] = False
    assert np.all(op.mask[keep] == 1.0)
    # first block of the companion form: U1' = U2
    np.testing.assert_array_equal(op.m[: 2 * n, : 2 * n], 0.0)
    np.testing.assert_array_equal(op.m[: 2 * n, 2 * n:], np.eye(2 * n))


def test_gram_matrix_positive_definite(bench_op):
    gram = bench_op.gram
    np.testing.assert_allclose(gram, gram.T, atol=1e-14 * np.linalg.norm(gram))
    assert np.isrealobj(gram)
    np.linalg.cholesky(gram)  # raises if not positive definite


def test_assemble_operator_rejects_unknown_channels(bench):
    with pytest.raises(ValueError, match="channel"):
        assemble_operator(bench, 16, BCKind.FREE_FREE, n_channels=3)


def test_assemble_operator_rejects_clamped_sh(bench):
    with pytest.raises(ValueError, match="SH channel is traction-free only"):
        assemble_operator(bench, 16, BCKind.CLAMPED_FREE, n_channels=1)


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("bc,n_channels", [(BCKind.FREE_FREE, 2),
                                           (BCKind.CLAMPED_FREE, 2),
                                           (BCKind.FREE_FREE, 1)])
def test_companion_form_linearizes_pencil(n, bc, n_channels):
    material = make_material(lam=-0.3, mu=1.7, rho=2.3, h=0.8, omega=2.2)
    op = assemble_operator(material, n, bc, n_channels=n_channels)
    pencil = op.pencil
    dim = n_channels * n
    rng = np.random.default_rng(n)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    mu = 0.7 - 1.9j
    state = np.concatenate([v, mu * v])
    got = (op.m - mu * np.diag(op.mask)) @ state

    p_v = pencil_value(pencil, mu) @ v
    cinv = np.linalg.inv(pencil.coefficients.c)
    expected = np.zeros(2 * dim, dtype=complex)
    expected[dim:] = -np.kron(cinv, np.eye(n)) @ p_v[:dim]
    # pencil boundary rows: every component at +h, then every one at -h
    faces = [dim + i * n + node for node in (n - 1, 0) for i in range(n_channels)]
    expected[faces] = p_v[dim:]
    assert sorted(faces) == list(np.flatnonzero(op.mask == 0))
    assert np.linalg.norm(got[:dim]) <= 1e-13 * np.linalg.norm(state)
    assert np.linalg.norm(got[dim:] - expected[dim:]) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("n", [15, 16])
@pytest.mark.parametrize("bc,n_channels", [(BCKind.FREE_FREE, 2),
                                           (BCKind.CLAMPED_FREE, 2),
                                           (BCKind.FREE_FREE, 1)])
def test_companion_form_equals_stacked_construction(n, bc, n_channels):
    # m is written in place, half by half; it must equal, bit for bit, the
    # companion matrix built from the stacked rows [k0 | k1] in one product
    material = make_material(lam=-0.3, mu=1.7, rho=2.3, h=0.8, omega=2.2)
    op = assemble_operator(material, n, bc, n_channels=n_channels)
    pencil, dim = op.pencil, n_channels * n
    rows = np.hstack([pencil.k0, pencil.k1])
    cinv = np.linalg.inv(pencil.coefficients.c)
    m = np.zeros((2 * dim, 2 * dim))
    m[:dim, dim:] = np.eye(dim)
    m[dim:] = np.einsum("ij,jrk->irk", -cinv,
                        rows[:dim].reshape(n_channels, n, 2 * dim)).reshape(dim, 2 * dim)
    m[[dim + i * n + node for node in (n - 1, 0) for i in range(n_channels)]] = rows[dim:]
    assert np.array_equal(op.m, m)


def _square(pencil, k):
    """Stack k with its boundary rows in place, as DiscreteOperator.m places them."""
    dim = pencil.n_channels * pencil.grid.n
    square = k[:dim].copy()
    square[_face_rows(pencil.grid.n, pencil.n_channels)] = k[dim:]
    return square


@pytest.mark.parametrize("n", [16, 17, 64])
@pytest.mark.parametrize("bc", [BCKind.FREE_FREE, BCKind.CLAMPED_FREE])
def test_square_pencil_is_even_under_component_signs(bench, n, bc):
    # D = diag(I, -I) on (v1, v3): a, c and the clamp rows are diagonal, b
    # and d off-diagonal, so D Q0 D = Q0, D Q1 D = -Q1 and D Q2 D = Q2 hold
    # bit for bit; that makes the spectrum even in mu and the lam form exact
    pencil = assemble_operator(bench, n, bc).pencil
    d = np.repeat([1.0, -1.0], n)
    q0, q1, q2 = (_square(pencil, k) for k in (pencil.k0, pencil.k1, pencil.k2))
    assert np.array_equal(d[:, None] * q0 * d, q0)
    assert np.array_equal(d[:, None] * q1 * d, -q1)
    assert np.array_equal(d[:, None] * q2 * d, q2)
    a, b = _lambda_form(pencil)
    assert np.array_equal(a, np.block([[q0[:n, :n], q1[:n, n:]],
                                       [q0[n:, :n], q0[n:, n:]]]))
    assert np.array_equal(b, np.block([[q2[:n, :n], q2[:n, n:]],
                                       [q1[n:, :n], q2[n:, n:]]]))


def test_sh_lambda_form_is_the_square_pencil(bench):
    # the scalar channel has no first-order term, so lam = mu^2 needs no
    # substitution: A = Q0 and B = Q2
    pencil = assemble_operator(bench, 17, BCKind.FREE_FREE, n_channels=1).pencil
    assert not pencil.k1.any()
    a, b = _lambda_form(pencil)
    assert np.array_equal(a, _square(pencil, pencil.k0))
    assert np.array_equal(b, _square(pencil, pencil.k2))


@pytest.mark.parametrize("bc,n_channels", [(BCKind.FREE_FREE, 2),
                                           (BCKind.CLAMPED_FREE, 2),
                                           (BCKind.FREE_FREE, 1)])
def test_lambda_form_linearizes_square_pencil(bc, n_channels):
    # Q(mu) (mu x1, x3) = (mu [(A + mu^2 B) x]_1, [(A + mu^2 B) x]_3)
    material = make_material(lam=-0.3, mu=1.7, rho=2.3, h=0.8, omega=2.2)
    pencil = assemble_operator(material, 15, bc, n_channels=n_channels).pencil
    n, dim = 15, n_channels * 15
    rng = np.random.default_rng(3)
    x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    mu = 0.7 - 1.9j
    scale = np.where(np.arange(dim) < n, mu, 1.0) if n_channels == 2 else np.ones(dim)
    q = sum(mu ** p * _square(pencil, k)
            for p, k in enumerate((pencil.k0, pencil.k1, pencil.k2)))
    a, b = _lambda_form(pencil)
    got = q @ (scale * x)
    expected = scale * ((a + mu * mu * b) @ x)
    assert np.linalg.norm(got - expected) <= 1e-13 * np.linalg.norm(q) * np.linalg.norm(x)

