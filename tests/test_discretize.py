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
    pencil_value,
    reduced_operator,
)

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
    assert op.boundary_row_indices == expected_rows
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
    assert sorted(faces) == list(op.boundary_row_indices)
    assert np.linalg.norm(got[:dim]) <= 1e-13 * np.linalg.norm(state)
    assert np.linalg.norm(got[dim:] - expected[dim:]) <= 1e-13 * np.linalg.norm(expected)


# ----------------------------------------------------------------------
# constraint elimination


def test_reduced_operator_matches_masked_spectrum(bench):
    op = assemble_operator(bench, 16, BCKind.FREE_FREE)
    z_basis, t, gram_y = reduced_operator(op)
    np.testing.assert_allclose(z_basis.T @ z_basis, np.eye(z_basis.shape[1]),
                               atol=1e-12)
    np.linalg.cholesky(gram_y)
    finite = np.linalg.eigvals(t)

    import scipy.linalg

    w = scipy.linalg.eigvals(op.m, np.diag(op.mask))
    w = w[np.isfinite(w)]
    assert finite.shape == w.shape

    def rel_match(a, b):
        return max(np.min(np.abs(b - z)) / (1.0 + abs(z)) for z in a)

    assert rel_match(finite, w) <= 1e-6
    assert rel_match(w, finite) <= 1e-6


@pytest.mark.parametrize("n_channels,bc", [(1, BCKind.FREE_FREE),
                                           (2, BCKind.CLAMPED_FREE)])
def test_reduced_operator_structural_failures(bench, n_channels, bc):
    op = assemble_operator(bench, 16, bc, n_channels=n_channels)
    with pytest.raises(np.linalg.LinAlgError, match="constraint elimination"):
        reduced_operator(op)
