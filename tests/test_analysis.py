"""Sector geometry, coercivity, resolvent probes, and modal completeness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lambspec import (
    BCKind,
    adjoint_defect,
    assemble_operator,
    chebyshev_grid,
    coercivity_scan,
    expand_field,
    five_rays,
    in_sector,
    make_material,
    measured_b,
    nonorthogonality_witness,
    quadratic_form_value,
    random_trig_fields,
    resolvent_norms,
    resolvent_scan,
    sesquilinear_forms,
    solve_modes,
)
from lambspec import analysis
from lambspec.analysis import RCOND_MIN, _field_terms, _probe_blocks, _resolvent_probe
from lambspec.eigen import PARITY_MIXED, _pairings, _shifted_lu
from reference_data import (
    ADJOINT_DEFECT_VALUE,
    COERCIVITY_CONST_1000,
    MEASURED_B_FREE,
    WITNESS_VALUE,
)

THETA0 = 0.45 * np.pi

# ----------------------------------------------------------------------
# sector geometry


def test_five_rays_values():
    rays = five_rays()
    expected = tuple(np.pi / 2.0 + 2.0 * np.pi * j / 5.0 for j in range(5))
    assert rays == pytest.approx(expected, rel=1e-15)


def test_in_sector_basics():
    assert in_sector(1.0, 0.1)
    assert in_sector(-1.0, 0.1)
    assert not in_sector(1.0j, 0.1)
    assert in_sector(1.0 + 1.0j, np.pi / 4.0 + 1e-12)


_coords = st.floats(min_value=-5.0, max_value=5.0)


@given(beta=st.builds(complex, _coords, _coords),
       theta0=st.floats(min_value=0.05, max_value=1.5))
@settings(max_examples=100, deadline=None)
def test_in_sector_symmetries(beta, theta0):
    value = in_sector(beta, theta0)
    assert in_sector(-beta, theta0) == value
    assert in_sector(np.conj(beta), theta0) == value


# ----------------------------------------------------------------------
# quadratic form values


@pytest.mark.parametrize("beta", [0.7, 2.0 + 0.5j, -1.3 + 2.2j])
def test_quadratic_form_evaluation_paths_agree(bench_forms, beta):
    rng = np.random.default_rng(11)
    dim = 2 * bench_forms.grid.n
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    factored = quadratic_form_value(bench_forms, beta, v, method="factored")
    matrices = quadratic_form_value(bench_forms, beta, v, method="matrices")
    scale = max(1.0, abs(factored))
    assert abs(factored - matrices) <= 1e-12 * scale


def test_quadratic_form_constant_field_identity(bench_forms):
    # a constant first displacement component gives 2 h (mu a^2 - rho omega^2)
    # plus the imaginary-direction shift -2 h mu b^2 for beta = a + i b
    m = bench_forms.material
    n = bench_forms.grid.n
    v = np.concatenate([np.ones(n), np.zeros(n)])
    for beta in (0.5, 2.0, 3.0 + 1.0j):
        a, b = float(np.real(beta)), float(np.imag(beta))
        expected = 2.0 * m.h * (m.mu * (a * a - b * b) - m.rho * m.omega ** 2)
        for method in ("factored", "matrices"):
            value = quadratic_form_value(bench_forms, beta, v, method=method)
            assert abs(value - expected) <= 1e-12 * max(1.0, abs(expected))


def test_quadratic_form_unknown_method(bench_forms):
    with pytest.raises(ValueError, match="method"):
        quadratic_form_value(bench_forms, 1.0, np.ones(2 * bench_forms.grid.n),
                             method="auto")


# ----------------------------------------------------------------------
# coercivity scan


def test_coercivity_scan_benchmark(bench_forms):
    report = coercivity_scan(bench_forms, 0.5, 1000, seed=0)
    assert report.alpha == 0.5
    assert report.beta0 == pytest.approx(0.25, rel=1e-12)
    assert report.c_const == pytest.approx(COERCIVITY_CONST_1000, rel=1e-9)
    assert report.c_const > 0
    coercive = [q for beta, q in report.samples if abs(beta.real) >= report.beta0]
    assert len(coercive) >= 20
    assert min(coercive) >= report.c_const - 1e-12


def test_coercivity_scan_is_seed_deterministic(bench_forms):
    first = coercivity_scan(bench_forms, 0.5, 50, seed=3)
    second = coercivity_scan(bench_forms, 0.5, 50, seed=3)
    assert first.c_const == second.c_const
    assert first.samples == second.samples


def _coercivity_loop(forms, alpha, n_samples, seed):
    """(beta0, c_const, samples) by a loop over every point and field."""
    rng = np.random.default_rng(seed)
    dim = 2 * forms.grid.n
    fields = rng.standard_normal((n_samples, dim)) + 1j * rng.standard_normal((n_samples, dim))
    terms = [_field_terms(forms, v) for v in fields]
    omega = forms.material.omega

    def min_quotient(a, b):
        worst = np.inf
        for a0, plain_mass, rho_mass, b_term, c_term in terms:
            num = (a0 - omega ** 2 * rho_mass + a * b_term
                   + (a * a - b * b) * c_term)
            worst = min(worst, num / (a0 + plain_mass))
        return worst

    a_grid = np.geomspace(0.25, 64.0, 33)
    samples = []
    grid_minima = []
    for a_abs in a_grid:
        worst = np.inf
        for a in (a_abs, -a_abs):
            for b in (0.0, alpha * a_abs, -alpha * a_abs):
                q = min_quotient(a, b)
                samples.append((complex(a, b), float(q)))
                worst = min(worst, q)
        grid_minima.append((a_abs, worst))
    for i, (a_abs, _) in enumerate(grid_minima):
        tail = [q for _, q in grid_minima[i:]]
        if min(tail) > 0.0:
            return float(a_abs), float(min(tail)), tuple(samples)
    return float(a_grid[-1]), float(grid_minima[-1][1]), tuple(samples)


@pytest.mark.parametrize("omega, n, n_samples", [
    (3.0, 32, 200), (3.0, 32, 1000), (3.0, 64, 200), (3.0, 64, 1000),
    (50.0, 32, 20),   # beta0 inside the grid
    (100.0, 32, 20),  # no positive tail: the last grid point, verbatim
])
def test_coercivity_scan_equals_loop(omega, n, n_samples):
    # the scan takes every quotient at once; the loop over points and
    # fields must give the same bits
    material = make_material(2.0, 1.0, 1.0, 1.0, omega)
    forms = sesquilinear_forms(material, chebyshev_grid(n, 1.0))
    for seed in (0, 1, 7):
        report = coercivity_scan(forms, 0.5, n_samples, seed=seed)
        assert (report.beta0, report.c_const, report.samples) == \
            _coercivity_loop(forms, 0.5, n_samples, seed)


@pytest.mark.parametrize("kwargs", [dict(alpha=1.0), dict(alpha=0.0),
                                    dict(n_samples=0)])
def test_coercivity_scan_validation(bench_forms, kwargs):
    args = dict(alpha=0.5, n_samples=10)
    args.update(kwargs)
    with pytest.raises(ValueError):
        coercivity_scan(bench_forms, args["alpha"], args["n_samples"])


# ----------------------------------------------------------------------
# resolvent probes


def test_resolvent_magnifies_near_spectrum(bench_op, bench_modes):
    # the factorization stays backward stable at an eigenvalue, so the
    # solve does not fail there; the operator norm blowing up by orders
    # of magnitude is the observable signature of the spectrum
    near, _ = resolvent_norms(bench_op, 1j * bench_modes.betas[0])
    far, _ = resolvent_norms(bench_op,
                             MEASURED_B_FREE * np.exp(1j * five_rays()[0]))
    assert near >= 1e3 * far


def test_resolvent_norm_conjugate_symmetry(bench_op):
    z = MEASURED_B_FREE * np.exp(1j * five_rays()[1])
    op_norm, hs_norm = resolvent_norms(bench_op, z)
    op_norm_c, hs_norm_c = resolvent_norms(bench_op, np.conj(z))
    assert op_norm_c == pytest.approx(op_norm, rel=1e-10)
    assert hs_norm_c == pytest.approx(hs_norm, rel=1e-10)


def test_resolvent_scan_benchmark(bench_op):
    moduli = np.geomspace(MEASURED_B_FREE, 10.0 * MEASURED_B_FREE, 4)
    scan = resolvent_scan(bench_op, THETA0, moduli)
    assert scan.norms.shape == (5, 4)
    assert scan.skipped == ()
    assert np.all(np.isfinite(scan.norms))
    assert np.all(np.isfinite(scan.hs_norms))
    for row in scan.norms:
        assert np.max(row) <= 2.0 * row[0]


def test_resolvent_scan_skips_probe_on_spectrum(bench_op, bench_modes):
    # one of the first retained +-beta pair lies on the first ray (real
    # beta > 0), where the LU still succeeds but its reciprocal condition
    # collapses; the row order inside the pair follows rounding, so the
    # member on the ray is picked by its angle
    on_ray = [mode.mu for mode in bench_modes.modes[:2]
              if abs(np.angle(mode.mu) - five_rays()[0]) <= 1e-12]
    assert len(on_ray) == 1
    mu = on_ray[0]
    scan = resolvent_scan(bench_op, THETA0, (abs(mu), 2.0))
    assert scan.skipped == ((0, abs(mu)),)
    assert np.isnan(scan.norms[0, 0]) and np.isnan(scan.hs_norms[0, 0])
    assert np.all(np.isfinite(scan.norms[:, 1]))
    assert np.all(np.isfinite(scan.norms[1:, 0]))


def test_resolvent_scan_validation(bench_op):
    with pytest.raises(ValueError, match="theta0"):
        resolvent_scan(bench_op, 0.3 * np.pi, (10.0, 20.0))
    with pytest.raises(ValueError, match="increasing"):
        resolvent_scan(bench_op, THETA0, (20.0, 10.0))
    with pytest.raises(ValueError, match="positive"):
        resolvent_scan(bench_op, THETA0, ())
    # rejected by name before LAPACK sees them (inf would warn in numpy first)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="moduli must be finite"):
            resolvent_scan(bench_op, THETA0, (1.0, bad))


def test_resolvent_norms_rejects_non_finite_z(bench_op, monkeypatch):
    # rejected by name before any block is folded or factored
    def no_blocks(op):
        raise AssertionError("blocks built for a non-finite z")

    monkeypatch.setattr(analysis, "_probe_blocks", no_blocks)
    for bad in (complex(float("nan"), 1.0), float("inf"), complex(2.0, -float("inf"))):
        with pytest.raises(ValueError, match="z must be finite"):
            resolvent_norms(bench_op, bad)
    # the probe's similarity diag(z on u1, 1) is singular at z = 0
    with pytest.raises(ValueError, match="z must be finite and nonzero"):
        resolvent_norms(bench_op, 0.0)


def _companion_probe(op, z):
    """Energy-metric norms of (m - z E)^-1 E from the whole companion matrix.

    The oracle of the resolvent probes: an LU of m - z E, a solve against
    E, and the metric transform L^H R L^-H with gram = L L^H.
    """
    e = np.diag(op.mask).astype(complex)
    r = scipy.linalg.lu_solve(scipy.linalg.lu_factor(op.m - z * e), e)
    chol = op.gram_cholesky
    t = chol.T @ scipy.linalg.solve_triangular(chol, r.T, lower=True).T
    return np.linalg.norm(t, 2), np.linalg.norm(t, "fro")


@pytest.mark.parametrize("bc, n", [pytest.param(BCKind.FREE_FREE, 24, id="24"),
                                   pytest.param(BCKind.FREE_FREE, 25, id="25"),
                                   pytest.param(BCKind.CLAMPED_FREE, 24, id="clamped-24")])
def test_resolvent_split_matches_whole(bench, bc, n):
    # the scan factors the lam-form blocks; a direct probe of the whole
    # companion matrix must give the same norms on every ray
    op = assemble_operator(bench, n, bc)
    moduli = (0.3, 1.1, 4.0, 15.0)
    scan = resolvent_scan(op, THETA0, moduli)
    assert scan.skipped == ()
    for j, theta in enumerate(scan.rays):
        for k, modulus in enumerate(moduli):
            whole = _companion_probe(op, modulus * np.exp(1j * theta))
            assert scan.norms[j, k] == pytest.approx(whole[0], rel=1e-10)
            assert scan.hs_norms[j, k] == pytest.approx(whole[1], rel=1e-10)
    # at a retained eigenvalue only the block of the mode's parity is
    # singular (on the clamped plate, its one block), and that one block
    # gates the whole probe; each of the first 20 trips its own block
    blocks = _probe_blocks(op)
    labels = [parity or PARITY_MIXED for parity, _pairing in _pairings(op.pencil)]
    modes = solve_modes(op).modes
    for label in labels:
        mode = next(mode for mode in modes if mode.parity == label)
        gated = [_resolvent_probe([block], mode.mu, RCOND_MIN) is None
                 for block in blocks]
        assert gated == [other == label for other in labels]
        assert _resolvent_probe(blocks, mode.mu, RCOND_MIN) is None
    for mode in modes[:20]:
        a, b = blocks[labels.index(mode.parity)][:2]
        assert _shifted_lu(a, b, -mode.mu ** 2, RCOND_MIN) is None


def test_clamped_probes_off_the_spectrum_pass_the_gate(bench, clamped_modes):
    # on the clamped plate at n = 256, rays 1 and 4 at the two top moduli of
    # the n = 64 verify scan lie 19-23% of |z| from the nearest eigenvalue;
    # an LU of the companion read rcond 6.5e-14 .. 8.7e-14 there and skipped
    # all four probes, while the lam-form LU passes the gate (no SVD needed)
    bound = measured_b(clamped_modes)
    assert bound == pytest.approx(11.3397, rel=1e-5)
    ((a, b, *_metric),) = _probe_blocks(assemble_operator(bench, 256, BCKind.CLAMPED_FREE))
    for j in (1, 4):
        for modulus in np.geomspace(bound, 100.0 * bound, 9)[7:]:
            z = modulus * np.exp(1j * five_rays()[j])
            assert _shifted_lu(a, b, -z * z, RCOND_MIN) is not None


def test_measured_b_benchmark(bench_modes):
    assert measured_b(bench_modes) == pytest.approx(MEASURED_B_FREE, rel=1e-12)


# ----------------------------------------------------------------------
# non-self-adjointness


def test_nonorthogonality_witness_benchmark(bench_modes, bench_op):
    (i, j), value = nonorthogonality_witness(bench_modes)
    assert i != j
    assert value == pytest.approx(WITNESS_VALUE, rel=1e-9)
    assert 0.01 <= value <= 1.0 + 1e-12


def test_nonorthogonality_witness_skips_coinciding_eigenvalues(bench_modes):
    # a copy of a mode has gram product 1 with it, above every admissible
    # pair, but its eigenvalue coincides with the original's
    first = bench_modes.modes[0]
    doubled = dataclasses.replace(bench_modes, modes=bench_modes.modes + (first,))
    assert nonorthogonality_witness(doubled) == nonorthogonality_witness(bench_modes)
    alone = dataclasses.replace(bench_modes, modes=(first, first))
    assert nonorthogonality_witness(alone) == ((0, 1), -1.0)


def test_adjoint_defect_benchmark(bench_op):
    assert adjoint_defect(bench_op) == pytest.approx(ADJOINT_DEFECT_VALUE,
                                                     rel=1e-9)


def test_adjoint_defect_needs_coupled_constraints(sh_op):
    with pytest.raises(np.linalg.LinAlgError, match="constraint elimination"):
        adjoint_defect(sh_op)


@pytest.mark.parametrize("n_channels,bc", [(1, BCKind.FREE_FREE),
                                           (2, BCKind.CLAMPED_FREE)])
def test_adjoint_defect_structural_failures(bench, n_channels, bc):
    # the SH boundary rows never reach U2, the clamp rows not at all
    op = assemble_operator(bench, 16, bc, n_channels=n_channels)
    with pytest.raises(np.linalg.LinAlgError, match="constraint elimination"):
        adjoint_defect(op)


def _null_space_defect(op):
    """The adjoint defect through an orthonormal basis Z of the boundary
    rows' null space: T = (S Z)^-1 (S m Z) with S the kept rows of the
    companion, G_y = Z^T G Z, and S_y = L^H T L^-H for G_y = L L^H."""
    keep = op.mask == 1
    z_basis = scipy.linalg.null_space(op.m[~keep])
    t = np.linalg.solve(z_basis[keep], op.m[keep] @ z_basis)
    chol = np.linalg.cholesky(z_basis.T @ op.gram @ z_basis)
    s = chol.T @ t @ np.linalg.inv(chol.T)
    return np.linalg.norm(s - s.T, 2) / np.linalg.norm(s, 2)


@pytest.mark.parametrize("n", [16, 17, 64])
def test_adjoint_defect_matches_null_space_elimination(bench, n):
    op = assemble_operator(bench, n, BCKind.FREE_FREE)
    assert adjoint_defect(op) == pytest.approx(_null_space_defect(op), rel=1e-12)


def test_eliminated_operator_matches_masked_spectrum(bench):
    op = assemble_operator(bench, 16, BCKind.FREE_FREE)
    t, gram_y = analysis._eliminated_operator(op)
    np.linalg.cholesky(gram_y)
    finite = np.linalg.eigvals(t)
    w = scipy.linalg.eigvals(op.m, np.diag(op.mask))
    w = w[np.isfinite(w)]
    assert finite.shape == w.shape

    def rel_match(a, b):
        return max(np.min(np.abs(b - z)) / (1.0 + abs(z)) for z in a)

    assert rel_match(finite, w) <= 1e-6
    assert rel_match(w, finite) <= 1e-6


# ----------------------------------------------------------------------
# modal expansions


def test_expand_single_mode_both_methods(bench_system, bench_op):
    target = bench_system.flat_modes[0].big_v
    for method in ("least_squares", "biorthogonal"):
        report = expand_field(bench_system, target, (1, 3),
                              method=method)
        assert report.residuals[0] <= 1e-10
        assert report.residuals[1] <= 1e-10


def test_expand_two_mode_combination(bench_system, bench_op):
    modes = bench_system.flat_modes
    target = 0.3 * modes[0].big_v + 0.7 * modes[1].big_v
    for method in ("least_squares", "biorthogonal"):
        report = expand_field(bench_system, target, (2,),
                              method=method)
        assert report.residuals[0] <= 1e-8


def test_expand_least_squares_monotone(bench_system, bench_op):
    grid = bench_op.pencil.grid
    target = random_trig_fields(grid, 1, 42)[0]
    ks = tuple(range(1, 41))
    report = expand_field(bench_system, target, ks)
    residuals = np.array(report.residuals)
    assert np.all(np.diff(residuals) <= 1e-14)
    assert residuals[-1] < residuals[0]


def test_expand_displacement_target_uses_field_metric(bench_system, bench_op):
    mode = bench_system.flat_modes[2]
    dim = bench_op.m.shape[0] // 2
    report = expand_field(bench_system, mode.big_v[:dim], (3,))
    assert report.residuals[0] <= 1e-10


def test_expand_field_validation(bench_system, bench_op):
    dim = bench_op.m.shape[0]
    target = np.ones(dim)
    with pytest.raises(ValueError, match="k"):
        expand_field(bench_system, target, (0,))
    with pytest.raises(ValueError, match="k"):
        expand_field(bench_system, target, (10 ** 6,))
    with pytest.raises(ValueError, match="length"):
        expand_field(bench_system, np.ones(dim - 1), (1,))
    with pytest.raises(ValueError, match="vanishes"):
        expand_field(bench_system, np.zeros(dim), (1,))
    with pytest.raises(ValueError, match="full state"):
        expand_field(bench_system, np.ones(dim // 2), (1,),
                     method="biorthogonal")
    with pytest.raises(ValueError, match="method"):
        expand_field(bench_system, target, (1,), method="magic")


def test_random_trig_fields_deterministic_and_admissible():
    grid = chebyshev_grid(32, 1.0)
    first = random_trig_fields(grid, 3, seed=9)
    second = random_trig_fields(grid, 3, seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(first, second))
    clamped = random_trig_fields(grid, 2, seed=9, vanish_lower=True)
    for field in clamped:
        comps = field.reshape(2, -1)
        assert abs(comps[0, 0]) <= 1e-14
        assert abs(comps[1, 0]) <= 1e-14
        assert np.max(np.abs(comps)) > 0.01
    with pytest.raises(ValueError, match="count"):
        random_trig_fields(grid, 0, seed=1)
