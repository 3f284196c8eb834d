"""Analytic oracles: certified dispersion roots, closed forms, half-space checks."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambspec import (
    BCKind,
    DispersionFunction,
    PARITY_ANTISYMMETRIC,
    PARITY_SYMMETRIC,
    RootCertificationError,
    chebyshev_grid,
    find_zero_group_velocity_point,
    make_material,
    rayleigh_lamb_roots,
    sh_modes_closed_form,
    stable_solution_check,
    winding_number,
)
from lambspec import cli, oracle
from reference_data import (
    ANTI_ROOTS,
    CLAMPED_ROOTS,
    SH_BETAS,
    SYM_ROOTS,
    ZGV_BETA,
    ZGV_OMEGA,
    bijection_defect,
)

SEARCH_BOX = (-10.3, 10.3, -10.3, 10.3)

_BENCH = make_material(2.0, 1.0, 1.0, 1.0, 3.0)


# ----------------------------------------------------------------------
# argument-principle machinery


def _cubic(z):
    return (z - 1.0) * (z + 2.0j) * (z - 3.0 - 3.0j)


@pytest.mark.parametrize(
    ("box", "count"),
    [
        ((0.5, 1.5, -0.5, 0.5), 1),
        ((-1.0, 1.0, -3.0, -1.0), 1),
        ((2.0, 4.0, 2.0, 4.0), 1),
        ((-5.0, 5.0, -5.0, 5.0), 3),
        ((5.0, 6.0, 5.0, 6.0), 0),
    ],
)
def test_winding_number_counts_polynomial_zeros(box, count):
    assert winding_number(_cubic, box) == count


# ----------------------------------------------------------------------
# dispersion function symmetries

_coords = st.floats(min_value=-6.0, max_value=6.0)
_betas = st.builds(complex, _coords, _coords)


@pytest.mark.parametrize(
    ("parity", "bc"),
    [
        (PARITY_SYMMETRIC, BCKind.FREE_FREE),
        (PARITY_ANTISYMMETRIC, BCKind.FREE_FREE),
        (None, BCKind.CLAMPED_FREE),
    ],
)
@given(beta=_betas)
@settings(max_examples=60, deadline=None)
def test_dispersion_function_symmetries(parity, bc, beta):
    f = DispersionFunction(_BENCH, parity, bc)
    value = f(beta)
    scale = max(abs(value), 1e-3)
    assert abs(f(-beta) - value) <= 1e-10 * scale
    assert abs(f(np.conj(beta)) - np.conj(value)) <= 1e-10 * scale
    real_value = f(complex(beta.real))
    assert abs(real_value.imag) <= 1e-10 * max(abs(real_value), 1e-3)


def test_dispersion_function_validation(bench):
    with pytest.raises(ValueError, match="parity"):
        DispersionFunction(bench, "twisted")
    with pytest.raises(ValueError, match="parity=None"):
        DispersionFunction(bench, PARITY_SYMMETRIC, BCKind.CLAMPED_FREE)


# ----------------------------------------------------------------------
# certified root sets


def test_symmetric_roots_frozen(bench):
    roots = rayleigh_lamb_roots(bench, PARITY_SYMMETRIC, SEARCH_BOX)
    assert len(roots) == len(SYM_ROOTS) == 14
    assert bijection_defect(roots, SYM_ROOTS) <= 1e-9


def test_antisymmetric_roots_frozen(bench):
    roots = rayleigh_lamb_roots(bench, PARITY_ANTISYMMETRIC, SEARCH_BOX)
    assert len(roots) == len(ANTI_ROOTS) == 16
    assert bijection_defect(roots, ANTI_ROOTS) <= 1e-9


def test_clamped_roots_frozen(bench):
    roots = rayleigh_lamb_roots(bench, None, SEARCH_BOX, bc=BCKind.CLAMPED_FREE)
    assert len(roots) == len(CLAMPED_ROOTS) == 26
    assert bijection_defect(roots, CLAMPED_ROOTS) <= 1e-9


def test_combined_families_are_disjoint_union(bench):
    roots = rayleigh_lamb_roots(bench, None, SEARCH_BOX)
    assert len(roots) == 30
    assert bijection_defect(roots, SYM_ROOTS + ANTI_ROOTS) <= 1e-9


def test_root_sets_closed_under_negation_and_conjugation():
    for family in (SYM_ROOTS, ANTI_ROOTS, CLAMPED_ROOTS):
        arr = np.array(family)
        assert bijection_defect(arr, -arr) == 0.0
        assert bijection_defect(arr, np.conj(arr)) == 0.0


def test_roots_annihilate_dispersion_function(bench):
    f = DispersionFunction(bench, None, BCKind.CLAMPED_FREE)
    eps = 1e-5
    for z in CLAMPED_ROOTS[:6]:
        # compare against the local scale of f, one step off the root
        assert abs(f(z)) <= 1e-7 * abs(f(z + eps))


def test_search_box_validation(bench):
    with pytest.raises(ValueError, match="search_box"):
        rayleigh_lamb_roots(bench, PARITY_SYMMETRIC, (1.0, -1.0, -1.0, 1.0))


@pytest.mark.filterwarnings("ignore:search box contour")
def test_max_roots_cap_enforced(bench):
    with pytest.raises(RootCertificationError):
        rayleigh_lamb_roots(bench, PARITY_SYMMETRIC, (-3.1, 3.1, -0.6, 0.6),
                            max_roots=2)


# ----------------------------------------------------------------------
# shear-horizontal closed form


def test_sh_wavenumbers_frozen(bench):
    modes = sh_modes_closed_form(bench, 10)
    betas = np.array([beta for beta, _ in modes])
    np.testing.assert_allclose(betas, SH_BETAS, rtol=1e-13, atol=1e-13)


def test_sh_shapes_solve_the_reduced_equation(bench):
    # mu s'' + (omega^2 rho - mu beta^2) s = 0 with s'(+-h) = 0
    grid = chebyshev_grid(48, bench.h)
    for beta, shape in sh_modes_closed_form(bench, 6):
        s = shape(grid.nodes)
        residual = (bench.mu * grid.d2 @ s
                    + (bench.omega ** 2 * bench.rho - bench.mu * beta ** 2) * s)
        assert np.max(np.abs(residual)) <= 1e-8 * max(1.0, np.max(np.abs(s)))
        flux = grid.d1 @ s
        assert abs(flux[0]) <= 1e-8
        assert abs(flux[-1]) <= 1e-8


# ----------------------------------------------------------------------
# half-space stable solutions


@pytest.mark.parametrize("gamma", [1, -1])
@pytest.mark.parametrize("beta", [2.0 + 0.5j, -1.5 + 0.25j, 3.0 + 0.0j])
def test_stable_solution_certificates(bench, beta, gamma):
    report = stable_solution_check(bench, beta, gamma)
    assert max(report.ode_residuals) <= 1e-10
    assert abs(report.boundary_det - (-beta)) <= 1e-12 * max(1.0, abs(beta))
    assert report.epsilon in (1, -1)


def test_stable_solution_validation(bench):
    with pytest.raises(ValueError, match="gamma"):
        stable_solution_check(bench, 2.0 + 0.5j, 0)
    with pytest.raises(ValueError, match="no stable choice"):
        stable_solution_check(bench, 1.0j, 1)


def _cheb_loop(m, a, b):
    """The half-space grid as built before the unit matrix was kept."""
    k = np.arange(m)
    x = np.cos(np.pi * k / (m - 1))
    x = 0.5 * (x - x[::-1])[::-1]
    wts = np.ones(m)
    wts[1::2] = -1.0
    wts[0] *= 0.5
    wts[-1] *= 0.5
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = (wts[None, :] / wts[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    nodes = a + 0.5 * (x + 1.0) * (b - a)
    return nodes, d * (2.0 / (b - a))


def test_half_space_grid_is_kept_read_only():
    x, d = oracle._unit_cheb(oracle.STABLE_N_NODES)
    assert oracle._unit_cheb(oracle.STABLE_N_NODES)[1] is d
    for array in (x, d):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0
    fresh = oracle._unit_cheb.__wrapped__(oracle.STABLE_N_NODES)
    assert np.array_equal(fresh[0], x) and np.array_equal(fresh[1], d)
    for length in (3.0, 0.3, 3.0 / 9.7):
        for kept, built in zip(oracle._cheb_nodes_and_diff(oracle.STABLE_N_NODES, 0.0, length),
                               _cheb_loop(oracle.STABLE_N_NODES, 0.0, length)):
            assert np.array_equal(kept, built)


def test_stable_solution_reports_match_a_fresh_grid(tmp_path, capsys, monkeypatch):
    # the 40 (beta, gamma) of a seed-0 verify run; n_colloc does not enter
    # their draw, so a coarse grid keeps the run short
    calls = []

    def spy(material, beta, gamma):
        calls.append((material, beta, gamma, stable_solution_check(material, beta, gamma)))
        return calls[-1][-1]

    monkeypatch.setattr(cli, "stable_solution_check", spy)
    path = tmp_path / "config.json"
    path.write_text('{"lambda": 2, "mu": 1, "rho": 1, "h": 1, "omega": 3, '
                    '"n_colloc": 16, "seed": 0}')
    cli.run(["verify", "--config", str(path)])
    capsys.readouterr()
    assert len(calls) == 40
    monkeypatch.setattr(oracle, "_cheb_nodes_and_diff", _cheb_loop)
    for material, beta, gamma, report in calls:
        built = stable_solution_check(material, beta, gamma)
        assert (report.beta, report.gamma, report.epsilon) == (built.beta, built.gamma,
                                                               built.epsilon)
        assert report.ode_residuals == built.ode_residuals
        assert np.array_equal(report.boundary_matrix, built.boundary_matrix)
        assert report.boundary_det == built.boundary_det


# ----------------------------------------------------------------------
# double roots


def test_zero_group_velocity_point_frozen(bench):
    omega, beta = find_zero_group_velocity_point(
        bench, PARITY_SYMMETRIC, (0.3, 1.2), (2.2, 3.1))
    assert omega == pytest.approx(ZGV_OMEGA, abs=1e-8)
    assert beta == pytest.approx(ZGV_BETA, abs=1e-8)
    # certify it is a double root: even order >= 2 in a small box
    f = DispersionFunction(make_material(2.0, 1.0, 1.0, 1.0, omega),
                           PARITY_SYMMETRIC)
    count = winding_number(f, (beta - 1e-3, beta + 1e-3, -1e-3, 1e-3))
    assert count == 2
