"""Spectrum extraction: filtering, normalization, parity, chains, biorthogonality."""

from __future__ import annotations

import functools
import sys
import threading
import time

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize
import scipy.sparse.csgraph

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
from lambspec import _lapack, eigen
from lambspec.eigen import (
    DEFECT_PAIR_TOL,
    REFERENCE_SHIFTS,
    _cluster_indices,
    _coincide,
    _companion_left,
    _fold,
    _form,
    _mode_block,
    _pairings,
    _reference_blocks,
    _reference_eigenvalues,
    _relation_residuals,
    _try_extend,
    _two_resolution_matches,
)
from reference_data import (
    ANTI_REAL,
    ANTI_ROOTS,
    BENCH_RAW,
    BENCH_RETAINED,
    CLAMPED_RETAINED,
    SH_BETAS,
    SYM_REAL,
    SYM_ROOTS,
    ZGV_OMEGA,
    bijection_defect,
    one_sided_match,
)


def _eigensolve(op) -> list:
    """The n-level blocks of solve_modes, solved one after another."""
    form = _form(op.pencil)
    return [_mode_block(op, form, parity, pairing) for parity, pairing in _pairings(op.pencil)]


def _reference_spectrum(pencil) -> list:
    """The 2n reference eigenvalues of solve_modes, block by block, one after another."""
    return [_reference_eigenvalues(block) for block in _reference_blocks(pencil)]


# ----------------------------------------------------------------------
# benchmark solve invariants


def test_benchmark_counts(bench_modes):
    assert len(bench_modes) == BENCH_RETAINED
    assert bench_modes.raw_count == BENCH_RAW  # = 4 n - 4 at n = 64
    assert bench_modes.raw_count == 4 * bench_modes.op.pencil.grid.n - 4


def test_benchmark_residual_gate(bench_modes):
    worst = np.max(bench_modes.residuals)
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


def test_mode_normalization_and_phase(bench_modes, clamped_modes, sh_modes, zgv_modes):
    # every column is a read-only state of unit energy norm with the
    # largest entry of v real positive, in the column order of the
    # biorthogonal system's states
    for mode_set in (bench_modes, clamped_modes, sh_modes, zgv_modes):
        op, mu, states = mode_set.op, mode_set.mu, mode_set.states
        dim = op.mask.size // 2
        for array in (mu, states, mode_set.left, mode_set.residuals, mode_set.parity):
            assert not array.flags.writeable
        assert states.shape == mode_set.left.shape == (2 * dim, len(mode_set))
        energy = np.sqrt(np.abs(np.einsum("ij,ij->j", states.conj(), op.gram @ states)))
        np.testing.assert_allclose(energy, 1.0, rtol=0.0, atol=1e-12)
        top = states[np.argmax(np.abs(states[:dim]), axis=0), np.arange(len(mode_set))]
        assert np.all(np.abs(top.imag) <= 1e-12) and np.all(top.real > 0)
        system = biorthogonalize(mode_set)
        assert np.array_equal(system.states,
                              states[:, [i for group in system.blocks for i in group]])


def test_state_vector_structure(bench_modes, clamped_modes, sh_modes, zgv_modes):
    # each column is (v, mu v) with mu = i beta in one column order
    for mode_set in (bench_modes, clamped_modes, sh_modes, zgv_modes):
        mu, states = mode_set.mu, mode_set.states
        dim = mode_set.op.mask.size // 2
        np.testing.assert_allclose(states[dim:], mu * states[:dim], rtol=1e-12, atol=1e-12)
        assert mode_set.betas.tobytes() == (mu / 1j).tobytes()


def test_parity_labels_on_real_branches(bench_modes):
    betas = bench_modes.betas
    for root, parity in ((SYM_REAL[0], PARITY_SYMMETRIC),
                         (ANTI_REAL[0], PARITY_ANTISYMMETRIC)):
        k = int(np.argmin(np.abs(betas - root)))
        assert bench_modes.parity[k] == parity


def test_no_mixed_parity_in_symmetric_geometry(bench_modes):
    assert set(bench_modes.parity) <= {PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC}


# ----------------------------------------------------------------------
# reflection split of the traction-free plate


@pytest.mark.parametrize("n_channels", [1, 2])
@pytest.mark.parametrize("n", [24, 25])
def test_split_spectrum_matches_unsplit(bench, n, n_channels):
    op = assemble_operator(bench, n, BCKind.FREE_FREE, n_channels=n_channels)
    blocks = _eigensolve(op)
    assert [block.parity for block in blocks] == [PARITY_SYMMETRIC,
                                                  PARITY_ANTISYMMETRIC]
    split = np.concatenate([block.z for block in blocks])
    whole = scipy.linalg.eig(op.m, np.diag(op.mask), right=False)
    whole = whole[np.isfinite(whole)]
    assert split.size == whole.size
    for found, reference in ((split, whole), (whole, split)):
        for z in found[np.abs(found) <= 30.0]:
            assert np.min(np.abs(reference - z)) <= 1e-9 * max(1.0, abs(z))
    # the unfolded right vectors, as companion states (u, z u), are
    # eigenvectors of the full pencil
    for block in blocks:
        vr = np.vstack([block.u, block.u * block.z])
        defect = op.m @ vr - (op.mask[:, None] * vr) * block.z
        small = np.abs(block.z) <= 30.0
        scale = np.linalg.norm(op.m) * np.linalg.norm(vr, axis=0)
        assert np.all(np.linalg.norm(defect, axis=0)[small] <= 1e-12 * scale[small])
        # and the companion left vectors built from the unfolded left null
        # vectors of the same eigensolve are its left eigenvectors: w^H m = z w^H E
        vl = _companion_left(*_form(op.pencil), block.z, block.y)
        defect = vl.conj().T @ op.m - (vl.conj().T * op.mask) * block.z[:, None]
        scale = np.linalg.norm(op.m) * np.linalg.norm(vl, axis=0)
        assert np.all(np.linalg.norm(defect, axis=1)[small] <= 1e-12 * scale[small])


def test_block_labels_agree_with_classify_parity(bench_modes, clamped_modes, sh_modes,
                                                 zgv_modes):
    for mode_set in (bench_modes, clamped_modes, sh_modes, zgv_modes):
        profiles, grid = mode_set.states[:mode_set.op.mask.size // 2], mode_set.op.pencil.grid
        assert all(classify_parity(profiles[:, k], grid) == mode_set.parity[k]
                   for k in range(len(mode_set)))


def test_biorthogonalize_uses_split_left_vectors(bench_modes, bench_system):
    # every retained mode is paired, and the left vectors of one parity
    # block are blind to the right vectors of the other to rounding
    order = [i for group in bench_system.blocks for i in group]
    assert sorted(order) == list(range(len(bench_modes)))
    parity = bench_modes.parity[order]
    cross = parity[:, None] != parity[None, :]
    assert cross.any()
    assert np.max(np.abs(bench_system.pairing[cross])) <= 1e-12


@pytest.mark.parametrize("bc, n_channels", [(BCKind.FREE_FREE, 2),
                                            (BCKind.CLAMPED_FREE, 2),
                                            (BCKind.FREE_FREE, 1)])
def test_raw_count_is_the_companion_finite_count(bench, bc, n_channels):
    # each finite lam of the half-size form is the pair +-sqrt(lam) of the
    # companion: raw_count is the finite count of a QZ of the unsplit (m, E)
    op = assemble_operator(bench, 20, bc, n_channels=n_channels)
    whole = scipy.linalg.eig(op.m, np.diag(op.mask), right=False)
    assert solve_modes(op).raw_count == np.isfinite(whole).sum()


def test_clamped_plate_is_solved_whole(clamped_op, clamped_modes):
    blocks = _eigensolve(clamped_op)
    assert len(blocks) == 1
    assert blocks[0].parity is None
    assert blocks[0].z.size == clamped_modes.raw_count


# ----------------------------------------------------------------------
# clamped geometry


def test_clamped_counts_and_residuals(clamped_modes):
    assert len(clamped_modes) == CLAMPED_RETAINED
    assert np.max(clamped_modes.residuals) <= 1e-8


def test_clamped_modes_are_parity_mixed(clamped_modes):
    assert np.all(clamped_modes.parity == PARITY_MIXED)


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


def test_classify_parity_labels_each_column():
    grid = chebyshev_grid(16, 1.0)
    y = grid.nodes
    odd, even = y, y ** 2
    profiles = np.column_stack([np.concatenate(pair) for pair in
                                ((odd, even), (even, odd), (1.0 + y, even), (0 * y, 0 * y))])
    labels = classify_parity(profiles, grid)
    assert labels.tolist() == [PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC, PARITY_MIXED,
                               PARITY_MIXED]
    assert labels.tolist() == [classify_parity(v, grid) for v in profiles.T]
    assert classify_parity(np.column_stack([odd, even]), grid).tolist() == [
        PARITY_ANTISYMMETRIC, PARITY_SYMMETRIC]  # scalar channel
    assert classify_parity(profiles[:, :0], grid).shape == (0,)


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
    assert np.count_nonzero(np.abs(modes.betas) < 1e-6) == 2
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


def _clustered(seed, count=200):
    # complex centers with members scattered about the tolerance, so that
    # some neighbours link and some do not
    rng = np.random.default_rng(seed)
    centers = 30.0 * (rng.normal(size=count // 4) + 1j * rng.normal(size=count // 4))
    spread = 1e-6 * rng.choice([0.1, 1.0, 3.0], count) * max(1.0, np.abs(centers).max())
    return (centers[rng.integers(0, centers.size, count)]
            + spread * (rng.normal(size=count) + 1j * rng.normal(size=count)))


def _chain(count=300):
    # neighbours 0.9 tol apart, shuffled: single linkage joins all of them
    # although the ends lie 269 tol apart
    return np.random.default_rng(3).permutation(0.9e-6 * np.arange(count))


@pytest.mark.parametrize("zs", [_clustered(0), _clustered(1), _clustered(2), _chain(),
                                np.array([]), np.array([2.0 + 1j])],
                         ids=["clustered-0", "clustered-1", "clustered-2", "chain",
                              "empty", "single"])
def test_cluster_indices_matches_connected_components(zs):
    # scipy's connected components are the oracle; src/ does not load them
    count, labels = scipy.sparse.csgraph.connected_components(
        _coincide(zs, zs, 1e-6), directed=False)
    expected = sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(count))
    assert _cluster_indices(zs, 1e-6) == expected
    assert sum(map(len, expected)) == zs.size


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
def clamped48_modes(bench):
    return solve_modes(assemble_operator(bench, 48, BCKind.CLAMPED_FREE))


@pytest.mark.parametrize("name, defective", [("bench_modes", 0),
                                              ("clamped48_modes", 0),
                                              ("zgv_modes", 2)])
def test_no_singleton_extends(request, name, defective):
    # detect_jordan_chains probes only clusters of two or more modes; the
    # exhaustive reference runs the bordered probe on every singleton head
    # at DEFECT_PAIR_TOL too, and none of them may extend
    mode_set = request.getfixturevalue(name)
    pencil, chain_tol = mode_set.op.pencil, 1e-6
    zs, profiles = mode_set.mu, mode_set.states[:mode_set.op.mask.size // 2]
    singletons = [group[0] for group in _cluster_indices(zs, DEFECT_PAIR_TOL)
                  if len(group) == 1]
    assert singletons
    for k in singletons:
        head = profiles[:, k] / np.linalg.norm(profiles[:, k])
        v_next, cert = _try_extend(pencil, zs[k], [head])
        assert v_next is not None
        assert (cert > chain_tol or _relation_residuals(
            pencil, zs[k], [head, v_next])[-1] > chain_tol)
    chains = detect_jordan_chains(mode_set, chain_tol=chain_tol)
    assert {chain.mode_indices[0]: chain.length for chain in chains
            if len(chain.mode_indices) == 1} == dict.fromkeys(singletons, 1)
    # each split defective pair is one cluster carrying one length-2 chain
    pairs = [chain for chain in chains if len(chain.mode_indices) > 1]
    assert len(pairs) == defective
    assert all(len(chain.mode_indices) == chain.length == 2 for chain in pairs)
    assert all(max(chain.relation_residuals) <= chain_tol for chain in pairs)


@pytest.mark.parametrize("tol", [1e-6, 0.5 * DEFECT_PAIR_TOL, np.nan, np.inf])
def test_cluster_tol_below_defect_pair_tol_is_rejected(zgv_modes, tol):
    # a tighter tolerance would split the ZGV pairs into four singletons,
    # whose associated modes no probe would look for
    with pytest.raises(ValueError, match="DEFECT_PAIR_TOL"):
        detect_jordan_chains(zgv_modes, cluster_tol=tol)


def test_large_simple_spectrum_runs_no_bordered_probe(bench, monkeypatch):
    # at n = 384 every cluster of the benchmark point is a singleton, so
    # Jordan detection runs no bordered least squares at all
    calls = []

    def spy(pencil, mu, chain):
        calls.append(mu)
        return None, 1.0

    monkeypatch.setattr(eigen, "_try_extend", spy)
    mode_set = solve_modes(assemble_operator(bench, 384, BCKind.FREE_FREE))
    chains = detect_jordan_chains(mode_set)
    assert calls == []
    assert len(chains) == len(mode_set)


@pytest.mark.parametrize("name, n_blocks, probes", [("bench_modes", 2, 0),
                                                    ("clamped_modes", 1, 0),
                                                    ("zgv_modes", 2, 2)])
def test_one_left_solve_per_mode_set(request, monkeypatch, name, n_blocks, probes):
    # solve_modes solves each 2n reference block by one standard
    # eigenvalues-only eigensolve, then each n-level block by one standard
    # eigensolve with both vector sets (shift-invert of the lam form at both
    # levels, half the companion's size, no generalized eig anywhere); the
    # Jordan chains and the biorthogonal system run no eigensolver, and the
    # bordered least squares runs once on each cluster of two modes
    op = request.getfixturevalue(name).op
    calls, lstsqs = [], []

    def spy(module, fname, flags):
        solver = getattr(module, fname)

        def counting(a, *args, **kwargs):
            calls.append((f"{module.__name__}.{fname}", a.shape[0], *flags(*args, **kwargs)))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(module, fname, counting)

    # (generalized, left vectors, right vectors) of each eigensolve
    spy(_lapack, "geev", lambda vectors=False, **_: (False, vectors, vectors))
    for module in (scipy.linalg, np.linalg):
        for fname in ("eig", "eigvals"):
            spy(module, fname, lambda *args, fname=fname, **kwargs: (
                bool((args and args[0] is not None) or kwargs.get("b") is not None),
                kwargs.get("left", False), kwargs.get("right", fname == "eig")))
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        lstsqs.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    mode_set = solve_modes(op)
    reference, level = calls[:n_blocks], calls[n_blocks:]
    assert ([call[:1] + call[2:] for call in reference]
            == [("lambspec._lapack.geev", False, False, False)] * n_blocks)
    assert sum(call[1] for call in reference) == op.m.shape[0]
    assert ([call[:1] + call[2:] for call in level]
            == [("lambspec._lapack.geev", False, True, True)] * n_blocks)
    assert sum(call[1] for call in level) == op.m.shape[0] // 2
    calls.clear()
    detect_jordan_chains(mode_set)
    biorthogonalize(mode_set)
    assert calls == [] and len(lstsqs) == probes


def _companion_pairings(op) -> list:
    """(parity, pairing, e) of each block of the companion pencil (m, E).

    Derived from _pairings: the state (U1, U2) = (u, mu u) reflects like u
    in both halves, and its equations are the rows U2 = mu U1, which
    reflect like states, then the square pencil's rows.  e is the block's
    diagonal of E; the clamped plate's one block has pairing None and
    e = op.mask.  The package never folds the companion; the QZ oracles do.
    """
    dim = op.mask.size // 2
    out = []
    for parity, pairing in _pairings(op.pencil):
        if pairing is None:
            out.append((parity, None, op.mask))
            continue
        r, q, s, t = pairing
        r, q = np.concatenate([r, r + dim]), np.concatenate([q, q + dim])
        s, t = np.concatenate([s, s]), np.concatenate([s, t])
        e = np.where(r == q, 0.5, 1.0) * (op.mask[r] + s * t * op.mask[q])
        out.append((parity, (r, q, s, t), e))
    return out


def _column_then_row_fold(x, r, q, s, t):
    """The fold of all columns of x first, then of the rows of that fold."""
    weight = np.where(r == q, 0.5, 1.0)
    cols = x[:, q] * s + x[:, r]
    return (cols[q] * t[:, None] + cols[r]) * weight[:, None] * weight


@pytest.mark.parametrize("n", [24, 25])
def test_fold_equals_column_then_row_fold(n):
    # _fold works on block-sized pieces; it must agree bit for bit
    op = assemble_operator(make_material(2.0, 1.0, 1.0, 1.0, 3.0), n, BCKind.FREE_FREE)
    for _parity, (r, q, s, t), _e in _companion_pairings(op):
        assert np.array_equal(_fold(op.m, r, q, s, t),
                              _column_then_row_fold(op.m, r, q, s, t))
        assert np.array_equal(_fold(op.gram, r, q, s, s),
                              _column_then_row_fold(op.gram, r, q, s, s))


def _qz_reference(pencil) -> list:
    """The 2n reference spectrum by QZ, block by block: the shift-invert oracle."""
    op = assemble_operator(pencil.material, 2 * pencil.grid.n, pencil.bc,
                           pencil.n_channels)
    return _qz_blocks(op)


def _simple_below(zs: np.ndarray, bound: float) -> np.ndarray:
    """Eigenvalues under bound that are not half of a DEFECT_PAIR_TOL pair."""
    paired = _coincide(zs, zs, DEFECT_PAIR_TOL)
    np.fill_diagonal(paired, False)
    return zs[(np.abs(zs) < bound) & ~paired.any(axis=1)]


@pytest.mark.parametrize("omega, n, bc, n_channels", [
    (3.0, 24, BCKind.FREE_FREE, 2),
    (3.0, 24, BCKind.FREE_FREE, 1),
    (3.0, 25, BCKind.FREE_FREE, 2),
    (3.0, 25, BCKind.FREE_FREE, 1),
    (2.0, 32, BCKind.CLAMPED_FREE, 2),
    (4.0, 32, BCKind.CLAMPED_FREE, 2),
    (ZGV_OMEGA, 64, BCKind.FREE_FREE, 2),
])
def test_reference_filter_matches_qz(omega, n, bc, n_channels):
    # the shift-invert reference keeps exactly the modes a QZ reference
    # keeps: same finite count per block, same filter mask, and the
    # eigenvalues agree far inside MATCH_TOL, except the halves of a split
    # double root, which are only sqrt(eps)-accurate under either solver
    material = make_material(2.0, 1.0, 1.0, 1.0, omega)
    op = assemble_operator(material, n, bc, n_channels=n_channels)
    blocks = _eigensolve(op)
    fast, oracle = _reference_spectrum(op.pencil), _qz_reference(op.pencil)
    assert len(fast) == len(oracle) == len(blocks)
    for block, z_fast, z_qz in zip(blocks, fast, oracle):
        assert z_fast.size == z_qz.size
        assert np.array_equal(_two_resolution_matches(block.z, z_fast),
                              _two_resolution_matches(block.z, z_qz))
        for found, reference in ((z_fast, z_qz), (z_qz, z_fast)):
            simple = _simple_below(found, 30.0)
            assert simple.size > 0
            assert _coincide(simple, reference, 1e-8).any(axis=1).all()


def _qz_blocks(op) -> list:
    """The finite spectrum of each block of op by QZ: the n-level oracle."""
    out = []
    for _parity, pairing, e in _companion_pairings(op):
        m = op.m if pairing is None else _fold(op.m, *pairing)
        z = scipy.linalg.eig(m, np.diag(e), right=False)
        out.append(z[np.isfinite(z)])
    return out


@pytest.mark.parametrize("omega, n, bc, n_channels", [
    (3.0, 24, BCKind.FREE_FREE, 2),
    (3.0, 24, BCKind.FREE_FREE, 1),
    (3.0, 25, BCKind.FREE_FREE, 2),
    (3.0, 25, BCKind.FREE_FREE, 1),
    (2.0, 32, BCKind.CLAMPED_FREE, 2),
    (4.0, 32, BCKind.CLAMPED_FREE, 2),
    (ZGV_OMEGA, 64, BCKind.FREE_FREE, 2),
])
def test_eigensolve_matches_qz(omega, n, bc, n_channels):
    # the n-level shift-invert keeps what a QZ of the same blocks keeps:
    # same finite count per block, same filter mask against the 2n
    # reference (eigenvalues paired one to one), and simple eigenvalues
    # that agree far inside MATCH_TOL
    material = make_material(2.0, 1.0, 1.0, 1.0, omega)
    op = assemble_operator(material, n, bc, n_channels=n_channels)
    blocks, oracle = _eigensolve(op), _qz_blocks(op)
    references = _reference_spectrum(op.pencil)
    assert len(blocks) == len(oracle) == len(references)
    for block, z_qz, z_ref in zip(blocks, oracle, references):
        assert block.z.size == z_qz.size
        rows, cols = scipy.optimize.linear_sum_assignment(
            np.abs(block.z[:, None] - z_qz[None, :]))
        assert np.array_equal(_two_resolution_matches(block.z, z_ref)[rows],
                              _two_resolution_matches(z_qz, z_ref)[cols])
        for found, reference in ((block.z, z_qz), (z_qz, block.z)):
            simple = _simple_below(found, 30.0)
            assert simple.size > 0
            assert _coincide(simple, reference, 1e-9).any(axis=1).all()


def test_eigensolve_pairs_roots_no_worse_than_qz(bench):
    # against the certified roots with |beta| <= 10, family by family, the
    # shift-invert eigenvalues at n = 128 lie no farther than QZ's
    op = assemble_operator(bench, 128, BCKind.FREE_FREE)
    worst = {"shift-invert": 0.0, "qz": 0.0}
    for block, z_qz in zip(_eigensolve(op), _qz_blocks(op)):
        roots = SYM_ROOTS if block.parity == PARITY_SYMMETRIC else ANTI_ROOTS
        roots = [root for root in roots if abs(root) <= 10.0]
        for name, zs in (("shift-invert", block.z), ("qz", z_qz)):
            betas = zs[np.abs(zs) <= 10.0] / 1j
            assert betas.size == len(roots)
            worst[name] = max(worst[name], bijection_defect(roots, betas))
    assert worst["shift-invert"] <= worst["qz"]


def _spy_shifted_lu(monkeypatch) -> list:
    """Record (shift s, gated) for every LU a solve tries.

    The lam form A + lam B is shifted at sigma = s^2, so the gate factors
    A - z B with z = -s^2; the spy reports s.
    """
    calls, shifted_lu = [], eigen._shifted_lu

    def spy(m, e, z, rcond_min):
        factors = shifted_lu(m, e, z, rcond_min)
        calls.append((float(np.sqrt(-z)), factors is None))
        return factors

    monkeypatch.setattr(eigen, "_shifted_lu", spy)
    return calls


def test_reference_shift_on_the_spectrum_moves_to_the_next(bench, monkeypatch):
    # a shift that is a real eigenvalue of the antisymmetric 2n block makes
    # its LU singular: the gate trips, the block is refolded, and the next
    # shift gives the same filter; the symmetric block keeps the shift
    op = assemble_operator(bench, 24, BCKind.FREE_FREE)
    blocks = _eigensolve(op)
    expected = [_two_resolution_matches(block.z, z_ref)
                for block, z_ref in zip(blocks, _reference_spectrum(op.pencil))]
    antisymmetric = _qz_reference(op.pencil)[1]
    on_spectrum = float(antisymmetric[antisymmetric.imag == 0.0].real.max())
    calls = _spy_shifted_lu(monkeypatch)
    monkeypatch.setattr(eigen, "REFERENCE_SHIFTS", (on_spectrum,) + REFERENCE_SHIFTS)
    references = _reference_spectrum(op.pencil)
    assert calls == [(on_spectrum, False), (on_spectrum, True),
                     (REFERENCE_SHIFTS[0], False)]
    for block, z_ref, mask in zip(blocks, references, expected):
        assert np.array_equal(_two_resolution_matches(block.z, z_ref), mask)


def test_reference_shifts_all_on_the_spectrum_raise(bench, monkeypatch):
    # with every shift on the spectrum no shift-invert is valid: a named
    # ValueError, not a LAPACK failure or a silently wrong spectrum
    op = assemble_operator(bench, 16, BCKind.CLAMPED_FREE)
    whole = _qz_reference(op.pencil)[0]
    # two distinct positive ones: s and -s are one shift s^2 of the lam form
    real = np.sort(whole[(whole.imag == 0.0) & (whole.real > 0.0)].real)[:2]
    assert real.size == 2
    calls = _spy_shifted_lu(monkeypatch)
    monkeypatch.setattr(eigen, "REFERENCE_SHIFTS", tuple(real))
    with pytest.raises(ValueError, match="every shift in REFERENCE_SHIFTS"):
        solve_modes(op)
    assert calls == [(z, True) for z in real]


def test_eigensolve_shift_on_the_spectrum_moves_to_the_next(bench, monkeypatch):
    # the n-level solve passes the same gate: a shift that is a real
    # eigenvalue of the antisymmetric block is refused, that block is
    # refolded and takes the next shift, and the spectrum is unchanged
    op = assemble_operator(bench, 24, BCKind.FREE_FREE)
    expected = _eigensolve(op)
    antisymmetric = _qz_blocks(op)[1]
    on_spectrum = float(antisymmetric[antisymmetric.imag == 0.0].real.max())
    calls = _spy_shifted_lu(monkeypatch)
    monkeypatch.setattr(eigen, "REFERENCE_SHIFTS", (on_spectrum,) + REFERENCE_SHIFTS)
    blocks = _eigensolve(op)
    assert calls == [(on_spectrum, False), (on_spectrum, True),
                     (REFERENCE_SHIFTS[0], False)]
    for block, before in zip(blocks, expected):
        assert block.z.size == before.z.size
        simple = _simple_below(block.z, 30.0)
        assert _coincide(simple, before.z, 1e-9).any(axis=1).all()


def test_eigensolve_shifts_all_on_the_spectrum_raise(bench, monkeypatch):
    op = assemble_operator(bench, 16, BCKind.CLAMPED_FREE)
    whole = _qz_blocks(op)[0]
    # two distinct positive ones: s and -s are one shift s^2 of the lam form
    real = np.sort(whole[(whole.imag == 0.0) & (whole.real > 0.0)].real)[:2]
    assert real.size == 2
    calls = _spy_shifted_lu(monkeypatch)
    monkeypatch.setattr(eigen, "REFERENCE_SHIFTS", tuple(real))
    with pytest.raises(ValueError, match="every shift in REFERENCE_SHIFTS"):
        _eigensolve(op)
    assert calls == [(z, True) for z in real]


# ----------------------------------------------------------------------
# the blocks solved on threads


_MODE_SET_ARRAYS = ("mu", "states", "left", "residuals", "parity")


def _same_mode_sets(first, second) -> bool:
    return (first.raw_count == second.raw_count
            and all(np.array_equal(getattr(first, name), getattr(second, name))
                    for name in _MODE_SET_ARRAYS))


@pytest.mark.parametrize("omega, n, bc, n_channels", [
    (3.0, 32, BCKind.FREE_FREE, 2),
    (3.0, 32, BCKind.CLAMPED_FREE, 2),
    (3.0, 64, BCKind.FREE_FREE, 1),
    (ZGV_OMEGA, 64, BCKind.FREE_FREE, 2),
], ids=["free-free", "clamped", "sh", "zgv"])
def test_solve_modes_is_the_same_bits_at_any_thread_count(omega, n, bc, n_channels):
    op = assemble_operator(make_material(2.0, 1.0, 1.0, 1.0, omega), n, bc,
                           n_channels=n_channels)
    before = threading.active_count()
    serial = solve_modes(op)
    assert len(serial) > 0
    for threads in (2, 4):
        assert _same_mode_sets(solve_modes(op, threads=threads), serial)
        assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 4])
def test_reference_shift_on_the_spectrum_moves_to_the_next_at_any_thread_count(
        bench, monkeypatch, threads):
    # the 2n antisymmetric block refuses the first shift and takes the next
    # whichever thread solves it; the LUs tried are the serial run's
    op = assemble_operator(bench, 24, BCKind.FREE_FREE)
    antisymmetric = _qz_reference(op.pencil)[1]
    on_spectrum = float(antisymmetric[antisymmetric.imag == 0.0].real.max())
    monkeypatch.setattr(eigen, "REFERENCE_SHIFTS", (on_spectrum,) + REFERENCE_SHIFTS)
    calls = _spy_shifted_lu(monkeypatch)
    serial = solve_modes(op)
    serial_calls = sorted(calls)
    assert (on_spectrum, True) in serial_calls
    calls.clear()
    before = threading.active_count()
    assert _same_mode_sets(solve_modes(op, threads=threads), serial)
    assert sorted(calls) == serial_calls
    assert threading.active_count() == before


@pytest.mark.parametrize("threads", [1, 2, 4])
@pytest.mark.parametrize("level", ["reference", "n-level"])
def test_shifts_all_on_the_spectrum_raise_at_any_thread_count(bench, monkeypatch, threads,
                                                              level):
    # every shift on the 2n spectrum fails the reference block, every shift
    # on the n spectrum the n-level block: the same named ValueError at any
    # thread count, and no thread outlives the call
    op = assemble_operator(bench, 16, BCKind.CLAMPED_FREE)
    whole = (_qz_reference(op.pencil) if level == "reference" else _qz_blocks(op))[0]
    real = np.sort(whole[(whole.imag == 0.0) & (whole.real > 0.0)].real)[:2]
    assert real.size == 2
    monkeypatch.setattr(eigen, "REFERENCE_SHIFTS", tuple(real))
    before = threading.active_count()
    with pytest.raises(ValueError, match="every shift in REFERENCE_SHIFTS"):
        solve_modes(op, threads=threads)
    assert threading.active_count() == before


def test_no_task_is_taken_after_a_task_raises():
    # two threads take tasks 0 and 1; task 0 raises while task 1 still
    # runs, so neither thread may take task 2 or any later one
    started, raised, ran = threading.Event(), threading.Event(), []

    def failing():
        assert started.wait(10)
        raised.set()
        raise ValueError("task 0 failed")

    def slow():
        started.set()
        assert raised.wait(10)
        time.sleep(0.2)            # the failure is recorded meanwhile
        return 1

    tasks = [failing, slow] + [functools.partial(ran.append, k) for k in range(2, 6)]
    before = threading.active_count()
    with pytest.raises(ValueError, match="task 0 failed"):
        eigen._run_tasks(tasks, 2)
    assert ran == []
    assert threading.active_count() == before


def test_every_task_runs_once_under_contention():
    # more threads than CPUs, switching as often as the interpreter allows:
    # a task taken twice or a result lost would break the counts
    runs = [0] * 400

    def task(k):
        runs[k] += 1
        return k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            runs[:] = [0] * len(runs)
            before = threading.active_count()
            results = eigen._run_tasks([functools.partial(task, k) for k in range(len(runs))], 16)
            assert results == list(range(len(runs)))
            assert runs == [1] * len(runs)
            assert threading.active_count() == before
    finally:
        sys.setswitchinterval(interval)


def test_earliest_failing_task_raises():
    # task 2 fails first and task 1 after it: the error is task 1's, the
    # one a serial loop meets first
    for threads in (2, 3):
        second_failed = threading.Event()

        def first():
            assert second_failed.wait(10)
            raise ValueError("task 1 failed")

        def second():
            second_failed.set()
            raise ValueError("task 2 failed")

        with pytest.raises(ValueError, match="task 1 failed"):
            eigen._run_tasks([lambda: 0, first, second], threads)
    assert eigen._run_tasks([functools.partial(int, k) for k in range(5)], 3) == [0, 1, 2, 3, 4]


def test_biorthogonalize_rejects_an_empty_mode_set(bench):
    mode_set = solve_modes(assemble_operator(bench, 16, BCKind.FREE_FREE),
                           accept_tol=1e-30)
    assert len(mode_set) == 0
    assert detect_jordan_chains(mode_set) == []
    with pytest.raises(ValueError, match="empty mode set"):
        biorthogonalize(mode_set)


# ----------------------------------------------------------------------
# biorthogonal system


def test_biorthogonal_pairing_is_identity(bench_system):
    pairing = bench_system.pairing
    k = pairing.shape[0]
    assert k == bench_system.states.shape[1]
    assert np.max(np.abs(pairing - np.eye(k))) <= 1e-8


@pytest.mark.parametrize("name", ["bench_modes", "clamped_modes"])
def test_biorthogonal_left_vectors_pair_through_gram(request, name):
    # the pairing is formed from E w; the left vectors themselves must
    # pair to the identity through the Gram matrix, W^H G V = I
    system = biorthogonalize(request.getfixturevalue(name))
    through_gram = system.left_vectors.conj().T @ system.op.gram @ system.states
    assert np.max(np.abs(through_gram - np.eye(system.states.shape[1]))) <= 1e-8


def test_left_vectors_live_in_the_masked_range(bench_op, bench_system):
    # left vectors are pulled back as W = G^-1 E w, so G W must vanish on
    # the replaced boundary rows that E masks out
    rows = np.flatnonzero(bench_op.mask == 0)
    pulled = bench_op.gram @ bench_system.left_vectors
    scale = np.max(np.abs(pulled))
    assert np.max(np.abs(pulled[rows, :])) <= 1e-12 * scale
