"""Spectrum extraction: filtering, normalization, parity, chains, biorthogonality."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

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
from lambspec import eigen
from lambspec.eigen import (
    CLUSTER_TOL,
    DEFECT_PAIR_TOL,
    REFERENCE_SHIFTS,
    _cluster_indices,
    _coincide,
    _eigensolve,
    _fold,
    _pairings,
    _reference_spectrum,
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
    # the unfolded right vectors are eigenvectors of the full pencil
    for block in blocks:
        vr = block.right
        defect = op.m @ vr - (op.mask[:, None] * vr) * block.z
        small = np.abs(block.z) <= 30.0
        scale = np.linalg.norm(op.m) * np.linalg.norm(vr, axis=0)
        assert np.all(np.linalg.norm(defect, axis=0)[small] <= 1e-12 * scale[small])
        # and the unfolded left vectors of the same QZ are its left
        # eigenvectors: w^H m = z w^H E
        vl = block.left
        defect = vl.conj().T @ op.m - (vl.conj().T * op.mask) * block.z[:, None]
        scale = np.linalg.norm(op.m) * np.linalg.norm(vl, axis=0)
        assert np.all(np.linalg.norm(defect, axis=1)[small] <= 1e-12 * scale[small])


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
    # solve_modes solves each 2n reference block by one standard
    # eigenvalues-only eigensolve, then each n-level block by one standard
    # eigensolve with both vector sets (shift-invert of the lam form at both
    # levels, half the companion's size, no generalized eig anywhere); the
    # Jordan screen and the biorthogonal system run no eigensolver, and the
    # bordered least squares runs only on the screened singletons
    op = request.getfixturevalue(name).op
    calls, lstsqs = [], []

    def spy(module, fname):
        solver = getattr(module, fname)

        def counting(a, *args, **kwargs):
            generalized = (args and args[0] is not None) or kwargs.get("b") is not None
            calls.append((f"{module.__name__}.{fname}", a.shape[0], bool(generalized),
                          kwargs.get("left", False), kwargs.get("right", fname == "eig")))
            return solver(a, *args, **kwargs)

        monkeypatch.setattr(module, fname, counting)

    for module in (scipy.linalg, np.linalg):
        for fname in ("eig", "eigvals"):
            spy(module, fname)
    lstsq = np.linalg.lstsq

    def counting_lstsq(*args, **kwargs):
        lstsqs.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting_lstsq)
    mode_set = solve_modes(op)
    reference, level = calls[:n_blocks], calls[n_blocks:]
    assert ([call[:1] + call[2:] for call in reference]
            == [("scipy.linalg.eigvals", False, False, False)] * n_blocks)
    assert sum(call[1] for call in reference) == op.m.shape[0]
    assert ([call[:1] + call[2:] for call in level]
            == [("scipy.linalg.eig", False, True, True)] * n_blocks)
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


def test_empty_mode_set_has_no_left_vectors(bench):
    mode_set = solve_modes(assemble_operator(bench, 16, BCKind.FREE_FREE),
                           accept_tol=1e-30)
    assert len(mode_set) == 0
    assert mode_set.left_vectors.shape == (64, 0)


# ----------------------------------------------------------------------
# biorthogonal system


def test_biorthogonal_pairing_is_identity(bench_system):
    pairing = bench_system.pairing
    k = pairing.shape[0]
    assert k == len(bench_system.flat_modes)
    assert np.max(np.abs(pairing - np.eye(k))) <= 1e-8


@pytest.mark.parametrize("name", ["bench_modes", "clamped_modes"])
def test_biorthogonal_left_vectors_pair_through_gram(request, name):
    # the pairing is formed from E w; the left vectors themselves must
    # pair to the identity through the Gram matrix, W^H G V = I
    system = biorthogonalize(request.getfixturevalue(name))
    right = np.column_stack([mode.big_v for mode in system.flat_modes])
    through_gram = system.left_vectors.conj().T @ system.op.gram @ right
    assert np.max(np.abs(through_gram - np.eye(right.shape[1]))) <= 1e-8


def test_left_vectors_live_in_the_masked_range(bench_op, bench_system):
    # left vectors are pulled back as W = G^-1 E w, so G W must vanish on
    # the replaced boundary rows that E masks out
    rows = np.flatnonzero(bench_op.mask == 0)
    pulled = bench_op.gram @ bench_system.left_vectors
    scale = np.max(np.abs(pulled))
    assert np.max(np.abs(pulled[rows, :])) <= 1e-12 * scale
