"""Spectrum extraction: filtering, normalization, parity, chains, biorthogonality."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
import scipy.linalg

from lambspec import (
    BCKind,
    PARITY_ANTISYMMETRIC,
    PARITY_MIXED,
    PARITY_SYMMETRIC,
    assemble_operator,
    biorthogonalize,
    chebyshev_grid,
    classify_parity,
    detect_jordan_chains,
    make_material,
    solve_modes,
)
from lambspec.eigen import (
    CLUSTER_TOL,
    _cluster_indices,
    _eigensolve,
    _relation_residuals,
    _try_extend,
    _two_resolution_matches,
)
from reference_data import (
    ANTI_REAL,
    BENCH_RAW,
    BENCH_RETAINED,
    CLAMPED_RETAINED,
    SH_BETAS,
    SYM_REAL,
    ZGV_OMEGA,
    one_sided_match,
)

# ----------------------------------------------------------------------
# benchmark solve invariants


def test_benchmark_counts(bench_modes):
    assert len(bench_modes) == BENCH_RETAINED
    assert bench_modes.raw_count == BENCH_RAW  # = 4 n - 4 at n = 64
    assert bench_modes.raw_count == 4 * bench_modes.op.pencil.grid.n - 4


def test_benchmark_residual_gate(bench_modes):
    worst = max(mode.residual for mode in bench_modes)
    assert worst <= bench_modes.accept_tol == 1e-8


def test_modes_sorted_by_magnitude(bench_modes):
    mags = np.abs(bench_modes.betas)
    assert np.all(np.diff(mags) >= -1e-12)


def test_real_axis_eigenvalues_match_roots(bench_modes):
    real_roots = [r for pair in ((r, -r) for r in SYM_REAL + ANTI_REAL)
                  for r in pair]
    assert one_sided_match(real_roots, bench_modes.betas) <= 1e-9


def test_spectrum_closed_under_negation_and_conjugation(bench_modes):
    betas = bench_modes.betas
    tol = 1e-6 * np.maximum(1.0, np.abs(betas))
    for transform in (lambda b: -b, np.conj):
        dist = np.array([np.min(np.abs(betas - transform(b))) for b in betas])
        assert np.all(dist <= tol)


def test_mode_normalization_and_phase(bench_op, bench_modes):
    for mode in list(bench_modes)[:20]:
        energy = np.sqrt(abs(np.vdot(mode.big_v, bench_op.gram @ mode.big_v)))
        assert energy == pytest.approx(1.0, abs=1e-12)
        top = mode.v[np.argmax(np.abs(mode.v))]
        assert abs(top.imag) <= 1e-12
        assert top.real > 0


def test_state_vector_structure(bench_modes):
    dim = bench_modes.op.pencil.grid.n * bench_modes.op.pencil.n_channels
    for mode in list(bench_modes)[:10]:
        np.testing.assert_array_equal(mode.big_v[:dim], mode.v)
        np.testing.assert_allclose(mode.big_v[dim:], mode.mu * mode.v,
                                   rtol=1e-12, atol=1e-12)
        assert mode.mu == pytest.approx(1j * mode.beta, rel=1e-15)


def test_parity_labels_on_real_branches(bench_modes):
    betas = bench_modes.betas
    for root, parity in ((SYM_REAL[0], PARITY_SYMMETRIC),
                         (ANTI_REAL[0], PARITY_ANTISYMMETRIC)):
        k = int(np.argmin(np.abs(betas - root)))
        assert bench_modes.modes[k].parity == parity


def test_no_mixed_parity_in_symmetric_geometry(bench_modes):
    assert all(mode.parity in (PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC)
               for mode in bench_modes)


# ----------------------------------------------------------------------
# reflection split of the traction-free plate


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("n", [24, 25])
def test_split_spectrum_matches_unsplit(bench, n, n_channels):
    op = assemble_operator(bench, n, BCKind.FREE_FREE, n_channels=n_channels)
    blocks = _eigensolve(op, right=True)
    assert [block.parity for block in blocks] == [PARITY_SYMMETRIC,
                                                  PARITY_ANTISYMMETRIC]
    split = np.concatenate([block.z for block in blocks])
    whole = scipy.linalg.eig(op.m, np.diag(op.mask), right=False)
    whole = whole[np.isfinite(whole)]
    assert split.size == whole.size
    for found, reference in ((split, whole), (whole, split)):
        for z in found[np.abs(found) <= 30.0]:
            assert np.min(np.abs(reference - z)) <= 1e-9 * max(1.0, abs(z))
    # the unfolded right vectors are eigenvectors of the full pencil
    for block in blocks:
        vr = block.right
        defect = op.m @ vr - (op.mask[:, None] * vr) * block.z
        small = np.abs(block.z) <= 30.0
        scale = np.linalg.norm(op.m) * np.linalg.norm(vr, axis=0)
        assert np.all(np.linalg.norm(defect, axis=0)[small] <= 1e-12 * scale[small])


def test_block_labels_agree_with_classify_parity(bench_modes, sh_modes):
    for mode_set in (bench_modes, sh_modes):
        assert all(classify_parity(mode, mode_set.op.pencil.grid) == mode.parity
                   for mode in mode_set)


def test_biorthogonalize_uses_split_left_vectors(bench_modes, bench_system):
    # every retained mode is paired, and the left vectors of one parity
    # block are blind to the right vectors of the other to rounding
    assert len(bench_system.flat_modes) == len(bench_modes)
    parity = np.array([mode.parity for mode in bench_system.flat_modes])
    cross = parity[:, None] != parity[None, :]
    assert cross.any()
    assert np.max(np.abs(bench_system.pairing[cross])) <= 1e-12


def test_clamped_plate_is_solved_whole(clamped_op, clamped_modes):
    blocks = _eigensolve(clamped_op)
    assert len(blocks) == 1
    assert blocks[0].parity is None
    assert blocks[0].z.size == clamped_modes.raw_count


# ----------------------------------------------------------------------
# clamped geometry


def test_clamped_counts_and_residuals(clamped_modes):
    assert len(clamped_modes) == CLAMPED_RETAINED
    worst = max(mode.residual for mode in clamped_modes)
    assert worst <= 1e-8


def test_clamped_modes_are_parity_mixed(clamped_modes):
    assert all(mode.parity == PARITY_MIXED for mode in clamped_modes)


# ----------------------------------------------------------------------
# shear-horizontal channel


def test_sh_counts(sh_modes):
    assert sh_modes.raw_count == 2 * sh_modes.op.pencil.grid.n - 4
    assert len(sh_modes) >= 40


def test_sh_spectrum_matches_closed_form(sh_modes):
    betas = sh_modes.betas
    for beta_n in SH_BETAS:
        for signed in (beta_n, -beta_n):
            assert np.min(np.abs(betas - signed)) <= 1e-10


# ----------------------------------------------------------------------
# parity classification on synthetic profiles


def test_classify_parity_synthetic():
    grid = chebyshev_grid(16, 1.0)
    y = grid.nodes
    odd, even = y, y ** 2
    assert classify_parity(np.concatenate([odd, even]), grid) == PARITY_SYMMETRIC
    assert classify_parity(np.concatenate([even, odd]), grid) == PARITY_ANTISYMMETRIC
    assert classify_parity(np.concatenate([1.0 + y, even]), grid) == PARITY_MIXED
    assert classify_parity(even, grid) == PARITY_SYMMETRIC  # scalar channel


# ----------------------------------------------------------------------
# Jordan chains


def test_benchmark_has_only_simple_chains(bench_modes, bench_op):
    chains = detect_jordan_chains(bench_modes)
    assert len(chains) == len(bench_modes)
    assert all(chain.length == 1 for chain in chains)
    # for singleton chains the certificate is the pencil residual itself
    cert = max(max(chain.relation_residuals) for chain in chains)
    assert cert <= 1e-8


def test_semisimple_double_eigenvalue_at_cutoff_coincidence():
    # at omega = pi two thickness resonances (one per bulk speed) coincide
    # at beta = 0; the eigenvalue is double but has two independent
    # eigenvectors, so no chain extends beyond length one
    material = make_material(2.0, 1.0, 1.0, 1.0, float(np.pi))
    op = assemble_operator(material, 64, BCKind.FREE_FREE)
    modes = solve_modes(op)
    at_zero = [mode for mode in modes if abs(mode.beta) < 1e-6]
    assert len(at_zero) == 2
    chains = detect_jordan_chains(modes)
    near_zero = [chain for chain in chains if abs(chain.mu) < 1e-6]
    assert len(near_zero) == 2
    assert all(chain.length == 1 for chain in near_zero)
    assert all(max(chain.relation_residuals) <= 1e-10 for chain in near_zero)


@pytest.mark.parametrize("zs, groups", [
    # 0 ~ 2 and 2 ~ 4 coincide but 0 and 4 do not: single linkage joins the
    # chain into one group, and groups come ordered by their first member
    ([0.0, 5.0, 0.6e-6, 3.0, 1.2e-6], [(0, 2, 4), (1,), (3,)]),
    # at |z| = 100 the tolerance 1e-6 scales to a gap of about 1e-4
    ([100j + 1.1e-4, 100.0, 100j, 100.0 + 0.9e-4], [(0,), (1, 3), (2,)]),
])
def test_cluster_indices(zs, groups):
    assert _cluster_indices(np.array(zs), 1e-6) == groups


def test_two_resolution_matches_rescues_split_pairs():
    # a defective eigenvalue at 10 splits by +-3e-5 on the coarse grid and
    # by +-1e-5 on the fine one: neither half matches alone, the pair mean
    # does; a lone value and a pair whose mean moved stay unmatched
    coarse = np.array([10 + 3e-5, 10 - 3e-5, 20.0, 30 + 3e-5, 30 - 3e-5])
    fine = np.array([10 + 1e-5, 10 - 1e-5, 30.001 + 1e-5, 30.001 - 1e-5])
    assert _two_resolution_matches(coarse, fine).tolist() == [True, True, False,
                                                              False, False]
    assert _two_resolution_matches(coarse[:0], fine).tolist() == []


@pytest.fixture(scope="module")
def zgv_modes():
    # the split double root of the ZGV frequency: two pairs of singletons
    # about 4e-6 apart at the default cluster tolerance
    material = make_material(2.0, 1.0, 1.0, 1.0, ZGV_OMEGA)
    return solve_modes(assemble_operator(material, 64, BCKind.FREE_FREE))


@pytest.fixture(scope="module")
def clamped48_modes(bench):
    return solve_modes(assemble_operator(bench, 48, BCKind.CLAMPED_FREE))


@pytest.mark.parametrize("name, extended", [("bench_modes", 0),
                                            ("clamped48_modes", 0),
                                            ("zgv_modes", 4)])
def test_jordan_screen_never_hides_a_chain(request, name, extended):
    # the exhaustive reference runs the bordered probe on every singleton
    # head; the first-order screen must pass each head it would extend
    mode_set = request.getfixturevalue(name)
    op, chain_tol = mode_set.op, 1e-6
    zs = np.array([mode.mu for mode in mode_set])
    expected = {}
    for group in _cluster_indices(zs, CLUSTER_TOL):
        if len(group) > 1:
            continue
        k = group[0]
        mode = mode_set.modes[k]
        w = mode_set.left_vectors[:, k]
        w_norm = np.sqrt(abs(np.vdot(w, op.gram @ w)))
        condition = abs(np.vdot(w, op.gram @ mode.big_v)) / w_norm
        head = mode.v / np.linalg.norm(mode.v)
        v_next, cert = _try_extend(op.pencil, mode.mu, [head])
        if cert <= chain_tol:
            assert condition <= np.sqrt(chain_tol)
        extends = (cert <= chain_tol and _relation_residuals(
            op.pencil, mode.mu, [head, v_next])[-1] <= chain_tol)
        expected[k] = 2 if extends else 1
    assert sum(length == 2 for length in expected.values()) == extended
    chains = detect_jordan_chains(mode_set, chain_tol=chain_tol)
    found = {chain.mode_indices[0]: chain.length for chain in chains
             if len(chain.mode_indices) == 1}
    assert found == expected


@pytest.mark.parametrize("name, n_blocks, probes", [("bench_modes", 2, 0),
                                                    ("clamped_modes", 1, 0),
                                                    ("zgv_modes", 2, 4)])
def test_one_left_solve_per_mode_set(request, monkeypatch, name, n_blocks, probes):
    # a copy of the mode set has an empty left-vector cache; the Jordan
    # screen and the biorthogonal system then share one left solve, and
    # the bordered least squares runs only on the screened singletons
    mode_set = dataclasses.replace(request.getfixturevalue(name))
    calls = {"left": 0, "lstsq": 0}
    eig, lstsq = scipy.linalg.eig, np.linalg.lstsq

    def counting_eig(*args, **kwargs):
        calls["left"] += bool(kwargs.get("left"))
        return eig(*args, **kwargs)

    def counting_lstsq(*args, **kwargs):
        calls["lstsq"] += 1
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "eig", counting_eig)
    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    detect_jordan_chains(mode_set)
    biorthogonalize(mode_set)
    assert calls == {"left": n_blocks, "lstsq": probes}


# ----------------------------------------------------------------------
# biorthogonal system


def test_biorthogonal_pairing_is_identity(bench_system):
    pairing = bench_system.pairing
    k = pairing.shape[0]
    assert k == len(bench_system.flat_modes)
    assert np.max(np.abs(pairing - np.eye(k))) <= 1e-8


def test_left_vectors_live_in_the_masked_range(bench_op, bench_system):
    # left vectors are pulled back as W = G^-1 E w, so G W must vanish on
    # the replaced boundary rows that E masks out
    rows = list(bench_op.boundary_row_indices)
    pulled = bench_op.gram @ bench_system.left_vectors
    scale = np.max(np.abs(pulled))
    assert np.max(np.abs(pulled[rows, :])) <= 1e-12 * scale
