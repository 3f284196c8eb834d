"""Sector geometry, coercivity, resolvent probes, and modal completeness."""

from __future__ import annotations

import dataclasses
import functools
import gc
import threading
import weakref

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
from lambspec import analysis, discretize
from lambspec.analysis import RCOND_MIN, _field_terms, _probe_blocks, _resolvent_probe
from lambspec.eigen import DEFECT_PAIR_TOL, PARITY_MIXED, _coincide, _pairings, _shifted_lu
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


def test_coercivity_fails_on_a_non_elliptic_block(bench, bench_op, monkeypatch):
    # the form terms read the blocks pencil_coefficients returns, so a
    # compression block with its sign flipped leaves no positive tail; the
    # factored terms and the assembled matrices read the same flipped block
    lame = discretize.pencil_coefficients(bench)
    monkeypatch.setattr(discretize, "pencil_coefficients",
                        lambda material: dataclasses.replace(lame, c=-lame.c))
    forms = sesquilinear_forms(bench, bench_op.pencil.grid)
    assert coercivity_scan(forms, 0.5, 50).c_const < 0.0
    v = np.random.default_rng(2).standard_normal(2 * forms.grid.n) + 0j
    for beta in (0.5, 4.0 + 1.0j, -20.0):
        factored = quadratic_form_value(forms, beta, v)
        assert quadratic_form_value(forms, beta, v, "matrices") == \
            pytest.approx(factored, rel=1e-11)


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


@pytest.mark.parametrize("bc, n, n_channels", [
    pytest.param(BCKind.FREE_FREE, 17, 2, id="free-17"),
    pytest.param(BCKind.FREE_FREE, 48, 2, id="free-48"),
    pytest.param(BCKind.CLAMPED_FREE, 17, 2, id="clamped-17"),
    pytest.param(BCKind.FREE_FREE, 24, 1, id="sh-24"),
])
def test_resolvent_norms_mirror_symmetry(bench, bc, n, n_channels):
    # m, E and G are real and the state reflection P has P m P = -m,
    # P E P = E, P G P = G, so the norms at z and -conj(z) agree: the
    # symmetry that lets resolvent_scan copy rays 1, 2 onto rays 4, 3
    op = assemble_operator(bench, n, bc, n_channels=n_channels)
    for j in (1, 2):
        for modulus in (1.3, 7.0, 40.0):
            z = modulus * np.exp(1j * five_rays()[j])
            op_norm, hs_norm = resolvent_norms(op, z)
            op_norm_m, hs_norm_m = resolvent_norms(op, -np.conj(z))
            assert op_norm_m == pytest.approx(op_norm, rel=1e-10)
            assert hs_norm_m == pytest.approx(hs_norm, rel=1e-10)


def test_resolvent_scan_probes_rays_0_to_2_and_mirrors_the_rest(bench_op, monkeypatch):
    # the verify moduli; rays 3 and 4 copy rays 2 and 1, which must be
    # their mirrors: rays 1 and 3 differ by far more than the tolerance
    moduli = np.geomspace(MEASURED_B_FREE, 100.0 * MEASURED_B_FREE, 9)
    calls = []

    def spy(blocks, z, rcond_min):
        calls.append(z)
        return _resolvent_probe(blocks, z, rcond_min)

    monkeypatch.setattr(analysis, "_resolvent_probe", spy)
    scan = resolvent_scan(bench_op, THETA0, moduli)
    monkeypatch.undo()
    assert len(calls) == 3 * len(moduli)
    assert scan.skipped == ()
    for norms in (scan.norms, scan.hs_norms):
        assert np.array_equal(norms[3], norms[2]) and np.array_equal(norms[4], norms[1])
    assert np.max(scan.norms[1] / scan.norms[3]) > 2.0
    for j in (3, 4):
        for k, modulus in enumerate(moduli):
            op_norm, hs_norm = resolvent_norms(bench_op, modulus * np.exp(1j * scan.rays[j]))
            assert scan.norms[j, k] == pytest.approx(op_norm, rel=1e-10)
            assert scan.hs_norms[j, k] == pytest.approx(hs_norm, rel=1e-10)


def test_resolvent_scan_lists_every_gated_probe(bench, monkeypatch):
    # with every LU gated, the mirrored rays are listed too, each skip in
    # (ray index, modulus) order
    monkeypatch.setattr(analysis, "RCOND_MIN", 1.0)
    moduli = (0.5, 2.0, 9.0)
    scan = resolvent_scan(assemble_operator(bench, 17, BCKind.FREE_FREE), THETA0, moduli)
    assert scan.skipped == tuple((j, modulus) for j in range(5) for modulus in moduli)
    assert np.all(np.isnan(scan.norms)) and np.all(np.isnan(scan.hs_norms))


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
    on_ray = [mu for mu in bench_modes.mu[:2]
              if abs(np.angle(mu) - five_rays()[0]) <= 1e-12]
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
    # finite, but z^2 overflows to nan inside the probe
    with pytest.raises(ValueError, match="moduli must have finite squares"):
        resolvent_scan(bench_op, THETA0, (1.0, 1e160))


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
    # the probe factors at z^2: |z|^2 must not overflow, on any ray
    for bad in (1e160, 1e160j, 1e160 * np.exp(0.9j * np.pi), complex(1.3e154, 0.4e154)):
        with pytest.raises(ValueError, match=r"\|z\|\^2 must be finite"):
            resolvent_norms(bench_op, bad)


def _scan_cases(bench, bench_modes):
    """(operator, moduli) of scans on both plates, one of them with a gated probe."""
    mu = next(mu for mu in bench_modes.mu[:2] if abs(np.angle(mu) - five_rays()[0]) <= 1e-12)
    return [(assemble_operator(bench, 24, BCKind.FREE_FREE), (0.3, 1.1, 4.0, 15.0)),
            (assemble_operator(bench, 24, BCKind.CLAMPED_FREE), (0.3, 1.1, 4.0, 15.0)),
            (bench_modes.op, (abs(mu), 2.0))]


def test_resolvent_scan_is_the_same_bits_at_any_thread_count(bench, bench_modes):
    # the probes are tasks of eigen._run_tasks and come back in probe
    # order; the third case skips its probe on the spectrum at any count
    before = threading.active_count()
    for op, moduli in _scan_cases(bench, bench_modes):
        serial = resolvent_scan(op, THETA0, moduli)
        for threads in (2, 4):
            scan = resolvent_scan(op, THETA0, moduli, threads=threads)
            assert np.array_equal(scan.norms, serial.norms, equal_nan=True)
            assert np.array_equal(scan.hs_norms, serial.hs_norms, equal_nan=True)
            assert scan.skipped == serial.skipped
            assert threading.active_count() == before
    assert serial.skipped == ((0, moduli[0]),)


def test_adjoint_defect_is_the_same_bits_at_any_thread_count(bench_op):
    before = threading.active_count()
    serial = adjoint_defect(bench_op)
    assert serial == pytest.approx(ADJOINT_DEFECT_VALUE, rel=1e-10)
    for threads in (2, 4):
        assert adjoint_defect(bench_op, threads=threads) == serial
        assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_failing_probe_raises_the_serial_error_at_any_thread_count(bench, monkeypatch,
                                                                   threads):
    # probes 2 and 4 of 6 raise: the error is probe 2's, the first a serial
    # scan meets, and no thread outlives the scan
    calls = []

    def failing(blocks, z, rcond_min):
        calls.append(z)
        if len(calls) in (3, 5):
            raise ValueError(f"probe at {z}")
        return _resolvent_probe(blocks, z, rcond_min)

    op, moduli = assemble_operator(bench, 17, BCKind.FREE_FREE), (1.0, 3.0)
    third = moduli[0] * np.exp(1j * five_rays()[1])
    monkeypatch.setattr(analysis, "_resolvent_probe", failing)
    before = threading.active_count()
    with pytest.raises(ValueError) as raised:
        resolvent_scan(op, THETA0, moduli, threads=threads)
    assert str(raised.value) == f"probe at {third}"
    assert threading.active_count() == before


def test_resolvent_norms_sets_up_the_blocks_once_per_operator(bench, monkeypatch):
    # criteria 06 and 07 probe one operator many times; its blocks are set
    # up on the first call and go with the operator
    calls = []

    def spy(op):
        calls.append(op)
        return _probe_blocks(op)

    monkeypatch.setattr(analysis, "_probe_blocks", spy)
    op, other = (assemble_operator(bench, 17, bc) for bc in (BCKind.FREE_FREE,
                                                             BCKind.CLAMPED_FREE))
    zs = (1.5 * np.exp(1j * five_rays()[1]), 4.0 * np.exp(1j * five_rays()[2]))
    first = [resolvent_norms(op, z) for z in zs]
    assert [resolvent_norms(op, z) for z in zs] == first
    assert first == [_resolvent_probe(_probe_blocks(op), z, 0.0) for z in zs]
    resolvent_norms(other, zs[0])
    assert len(calls) == 2 and calls[0] is op and calls[1] is other
    calls.clear()
    gone = weakref.ref(op)
    del op
    gc.collect()
    assert gone() is None


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
    modes = solve_modes(op)
    for label in labels:
        mu = modes.mu[np.flatnonzero(modes.parity == label)[0]]
        gated = [_resolvent_probe([block], mu, RCOND_MIN) is None
                 for block in blocks]
        assert gated == [other == label for other in labels]
        assert _resolvent_probe(blocks, mu, RCOND_MIN) is None
    for mu, parity in zip(modes.mu[:20], modes.parity[:20]):
        a, b = blocks[labels.index(parity)][:2]
        assert _shifted_lu(a, b, -mu ** 2, RCOND_MIN) is None


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


def _columns(mode_set, cols):
    """The mode set made of the given columns, repeats allowed."""
    return dataclasses.replace(mode_set, mu=mode_set.mu[cols], states=mode_set.states[:, cols],
                               left=mode_set.left[:, cols], residuals=mode_set.residuals[cols],
                               parity=mode_set.parity[cols])


def test_nonorthogonality_witness_skips_coinciding_eigenvalues(bench_modes):
    # a copy of a mode has gram product 1 with it, above every admissible
    # pair, but its eigenvalue coincides with the original's
    doubled = _columns(bench_modes, list(range(len(bench_modes))) + [0])
    assert nonorthogonality_witness(doubled) == nonorthogonality_witness(bench_modes)
    alone = _columns(bench_modes, [0, 0])
    assert nonorthogonality_witness(alone) == ((0, 1), -1.0)


def test_nonorthogonality_witness_skips_split_defective_pairs(zgv_modes):
    # the halves of a rounding-split double root are one eigenvalue at
    # DEFECT_PAIR_TOL, with nearly parallel eigenvectors (gram product
    # 0.99999999999913 at n = 64); the witness must come from distinct
    # eigenvalues
    (i, j), value = nonorthogonality_witness(zgv_modes)
    mus = zgv_modes.mu[[i, j]]
    assert not _coincide(mus[:1], mus[1:], DEFECT_PAIR_TOL)[0, 0]
    assert 0.01 <= value < 0.99


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


def test_expand_single_mode(bench_system, bench_op):
    dim = bench_op.m.shape[0] // 2
    target = bench_system.states[:dim, 0]
    report = expand_field(bench_system, target, (1, 3))
    assert report.n_modes_used == (1, 3)
    assert report.residuals[0] <= 1e-10
    assert report.residuals[1] <= 1e-10


def test_expand_two_mode_combination(bench_system, bench_op):
    dim = bench_op.m.shape[0] // 2
    target = 0.3 * bench_system.states[:dim, 0] + 0.7 * bench_system.states[:dim, 1]
    report = expand_field(bench_system, target, (2,))
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
    dim = bench_op.m.shape[0] // 2
    report = expand_field(bench_system, bench_system.states[:dim, 2], (3,))
    assert report.residuals[0] <= 1e-10


def test_expand_field_validation(bench_system, bench_op):
    dim = bench_op.m.shape[0] // 2
    target = np.ones(dim)
    with pytest.raises(ValueError, match="k"):
        expand_field(bench_system, target, (0,))
    with pytest.raises(ValueError, match="k"):
        expand_field(bench_system, target, (10 ** 6,))
    # a full state is not a displacement profile
    for length in (dim - 1, 2 * dim):
        with pytest.raises(ValueError, match=f"length must be {dim}"):
            expand_field(bench_system, np.ones(length), (1,))
    with pytest.raises(ValueError, match="vanishes"):
        expand_field(bench_system, np.zeros(dim), (1,))
    # out-of-order or repeated ks would pair residuals with the wrong labels
    for ks in ((5, 1), (3, 3)):
        with pytest.raises(ValueError, match="strictly increasing"):
            expand_field(bench_system, target, ks)


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
