"""Sector geometry, coercivity, resolvent probes, and modal completeness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambspec import (
    adjoint_defect,
    coercivity_scan,
    expand_field,
    five_rays,
    in_sector,
    measured_b,
    nonorthogonality_witness,
    quadratic_form_value,
    random_trig_fields,
    resolvent_norms,
    resolvent_scan,
)
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
    # the first retained eigenvalue lies on the first ray (real beta > 0),
    # where the LU still succeeds but its reciprocal condition collapses
    mu = bench_modes.modes[0].mu
    assert abs(np.angle(mu) - five_rays()[0]) <= 1e-12
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
    from lambspec import chebyshev_grid

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
