"""Mode extraction for the discretized plate pencil.

The spectrum of the masked companion problem m V = z E V is solved at the
requested resolution n and at 2n without building a companion matrix.
Lamb modes come in +-mu pairs: with D = diag(I, -I) on (v1, v3) the
square pencil Q(mu) (discretize._lambda_form) satisfies D Q(mu) D =
Q(-mu), so u = (mu x1, x3) makes it linear in lam = mu^2, (A + lam B) x =
0, at half the companion's size (Tisseur & Meerbergen, SIAM Rev. 2001,
sections 3 and 5).  One spectral transformation solves it (Ericsson &
Ruhe, Math. Comp. 1980): for a real shift sigma off the spectrum, K =
B (A + sigma B)^-1 (rows scaled, see _scaled_block) has the eigenvalues
theta = -1/(lam - sigma), so an LU and a standard Hessenberg-QR
eigensolve take the place of QZ.  K's rows
vanish where B's do, so the infinite eigenvalues map to theta = 0 and
are cut, and no constraint is eliminated (only the adjoint defect does
that, analysis._eliminated_operator).  Each finite lam is the pair mu = +-sqrt(lam).
At n the eigensolve gives both vector sets, and the companion's right and
left vectors follow from them; the 2n reference is read only through
MATCH_TOL and takes eigenvalues alone.  A traction-free plate is
symmetric under reflection through its midplane, so there the pencil
splits into symmetric and antisymmetric half-size blocks, each solved on
its own; the block fixes the parity label exactly.  The blocks' solves
(up to two at 2n and two at n) are independent, and solve_modes can run
them on threads (_run_tasks): their LAPACK calls go through ctypes,
which releases the GIL for each call.  Raw eigenpairs are
filtered by two-resolution agreement and normalized in the energy metric
with a fixed phase convention.  One tolerance, DEFECT_PAIR_TOL, decides
when two computed eigenvalues are one: a defective eigenvalue splits in
floating point by O(sqrt(eps)), and the same split pair that filtering
rescues as one is one Jordan cluster and one block of the biorthogonal
system.  Retained modes are the columns of one array per quantity
(ModeSet).  On top sit the Jordan-chain machinery, whose bordered least
squares runs only on clusters of two or more modes, and the left/right
biorthogonal pairing, which modal expansions do not go through.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import _lapack
from .core import BCKind
from .discretize import (
    DiscreteOperator,
    DiscretePencil,
    Grid,
    _channel_pencil,
    _face_rows,
    _lambda_form,
    _real_matmul,
    _square_terms,
    chebyshev_grid,
    pencil_residual,
    pencil_scale,
    pencil_value,
)

__all__ = [
    "BiorthogonalSystem",
    "JordanChain",
    "ModeSet",
    "PARITY_ANTISYMMETRIC",
    "PARITY_MIXED",
    "PARITY_SYMMETRIC",
    "biorthogonalize",
    "classify_parity",
    "detect_jordan_chains",
    "solve_modes",
]

PARITY_SYMMETRIC = "symmetric"
PARITY_ANTISYMMETRIC = "antisymmetric"
PARITY_MIXED = "mixed"

#: sign under the node flip of each component of a symmetric profile, by
#: channel count: the in-plane pair (v1 odd, v3 even), the scalar SH
#: channel even; antisymmetric profiles carry the opposite signs
_SYMMETRIC_SIGNS = {1: (1.0,), 2: (-1.0, 1.0)}

#: eigenvalues of the n- and 2n-grid solves must coincide to this
#: tolerance (see _coincide) for a mode to survive filtering
MATCH_TOL = 1e-6

#: the package's one identity tolerance (see _coincide): eigenvalues that
#: coincide to it are one eigenvalue, split in floating point if defective
#: (each half is only sqrt(backward-error) accurate, their mean fully).
#: It rescues split pairs in filtering, and forms the Jordan clusters, the
#: biorthogonal pairing blocks, the pairs nonorthogonality_witness skips
#: and the groups of verify's closure checks
DEFECT_PAIR_TOL = 1e-4

#: relative singular-value cutoff deciding the geometric multiplicity of
#: a cluster of nearby eigenvalues
RANK_TOL = 1e-3

#: deviation from an exact reflection, relative to the largest entry of the
#: profile, that classify_parity still accepts as a parity
PARITY_TOL = 1e-6

#: LU reciprocal condition of a row-scaled lam-form block R (A + sigma B)
#: (1-norm, LAPACK gecon) below which the point counts as lying on the
#: spectrum (see _shifted_lu).  Resolvent probes (sigma = z^2) over the
#: verify rays read 5.9e-11 .. 1.2e-6 (free-free) and 5.4e-11 .. 1.1e-6
#: (clamped) per block at n = 64, and at least 1.6e-11 at n = 128 and
#: 1.2e-11 at n = 256 (clamped, the n = 64 moduli); at each of the first
#: 20 retained eigenvalues the block holding it reads at most 1.3e-18, the
#: other free-free block at least 5.4e-7 (n = 64).  Shifts (_shift_invert):
#: at the first of REFERENCE_SHIFTS the smallest block rcond is 2.3e-8 at
#: 2n (n = 16 .. 128, ZGV, clamped-free omega 2 .. 4) and 1.9e-7 at n
#: (n = 128); it falls like n^-3, to 4.5e-11 at 2n for n = 1024
RCOND_MIN = 1e-13

#: real shifts s of every shift-invert solve (n and 2n), tried in order
#: until the LU of A + s^2 B passes RCOND_MIN.  They are kept in mu, where
#: s^2 is the lam shift: real, because a complex shift doubles the cost of
#: the LU and of the eigensolve, and s and -s are the same lam shift
REFERENCE_SHIFTS = (0.37, 0.61, 1.13)

#: eigenvalues theta of K at or below this fraction of the largest |theta|
#: are the pencil's infinite eigenvalues.  They come out as exact zeros,
#: one per zero row of B (one per free-free block, three on the clamped
#: plate); the smallest finite |theta| falls like n^-4, from 9.0e-9 of the
#: largest at n = 128 to 2.2e-12 at 2n for n = 512 (free-free; 4.9e-12
#: clamped), so at n = 1024 it would meet a cut of 1e-13
THETA_CUT = 1e-15

#: a part of a lam-form vector below this fraction of the other part has
#: lost more than half its digits, and _pair_ritz solves it again
_PART_TOL = 1e-8


@dataclass(frozen=True)
class ModeSet:
    """Retained modes as columns, and the operator op they were solved from.

    The columns are sorted by (|beta|, Re beta, Im beta), and column k of
    each array is one retained eigenpair: mu[k] = i beta_k is the
    companion eigenvalue; states[:, k] the state (v, mu v) with unit
    energy norm and the largest-magnitude entry of its displacement
    profile v = states[:dim, k] made real positive (dim = op.mask.size //
    2); left[:, k] the companion's full-length left eigenvector w (w^H m =
    mu w^H E) at no fixed scale, built from the left vector of the lam
    form that the same LU and eigensolve give; residuals[k] the normwise
    backward error of (mu, v) against the quadratic pencil; parity[k] its
    reflection label.  Every array is read-only.  raw_count is the number
    of finite eigenvalues before two-resolution filtering and the residual
    gate; an empty ModeSet signals accept_tol too tight or n too small.
    """

    mu: np.ndarray
    states: np.ndarray
    left: np.ndarray
    residuals: np.ndarray
    parity: np.ndarray
    op: DiscreteOperator
    accept_tol: float
    raw_count: int

    def __post_init__(self):
        for array in (self.mu, self.states, self.left, self.residuals, self.parity):
            array.flags.writeable = False

    def __len__(self):
        return self.mu.size

    @property
    def betas(self) -> np.ndarray:
        return self.mu / 1j


@dataclass(frozen=True)
class JordanChain:
    """A chain v_0 ... v_k at (or near) a defective eigenvalue.

    vectors[0] is an eigenvector; vectors[p] solves
    P(mu) v_p = -P'(mu) v_{p-1} - (P''(mu)/2) v_{p-2} in the bordered
    least-squares sense.  relation_residuals[p] is the normalized size of
    that relation's defect; mode_indices point back into the ModeSet
    cluster the chain was built from.  Scaling is joint: only the head is
    normalized, the tail keeps the scale the relations induce.
    """

    mu: complex
    vectors: tuple
    relation_residuals: tuple
    mode_indices: tuple

    def __post_init__(self):
        for vec in self.vectors:
            vec.flags.writeable = False

    @property
    def length(self) -> int:
        return len(self.vectors)


@dataclass(frozen=True)
class BiorthogonalSystem:
    """Left/right eigenvector system, biorthogonal in the energy metric.

    blocks groups the ModeSet's column indices into eigenvalue clusters,
    and its flattened order is the column order here: states[:, k] is the
    state V_k of that column, left_vectors[:, k] its energy-metric left
    vector W_k, and pairing[m, n] = <V_n, W_m>_gram is block-diagonal with
    unit diagonal blocks after normalization.  op is the operator the
    modes were solved from.
    """

    blocks: tuple
    states: np.ndarray
    left_vectors: np.ndarray
    pairing: np.ndarray
    op: DiscreteOperator

    def __post_init__(self):
        for array in (self.states, self.left_vectors, self.pairing):
            array.flags.writeable = False


class _Block(NamedTuple):
    """Finite eigenvalues of one shift-invert block with its eigenvectors.

    parity is the reflection family of the block, or None for an
    operator solved whole; y holds the square pencil's full-length left
    null vectors column by column (_companion_left makes the companion's
    from them), u its right vectors (the displacement rows of the
    companion states (u, z u)).
    """

    parity: str | None
    z: np.ndarray
    y: np.ndarray
    u: np.ndarray


def _fold(x: np.ndarray, rep: np.ndarray, mir: np.ndarray,
          col_sign: np.ndarray, row_sign: np.ndarray) -> np.ndarray:
    """Block of x on a signed index pairing.

    Column k adds column mir[k] times col_sign[k] to column rep[k], row k
    likewise with row_sign; a self-mirrored index is halved so it enters
    once.
    """
    weight = np.where(rep == mir, 0.5, 1.0)
    # folded from block-sized pieces, so no temporary outgrows the block
    block = x[np.ix_(mir, mir)]
    block *= col_sign
    block += x[np.ix_(mir, rep)]
    block *= row_sign[:, None]
    rows = x[np.ix_(rep, mir)]
    rows *= col_sign
    rows += x[np.ix_(rep, rep)]
    block += rows
    block *= weight[:, None]
    block *= weight
    return block


def _unfold(y: np.ndarray, rep: np.ndarray, mir: np.ndarray,
            sign: np.ndarray, size: int) -> np.ndarray:
    """Full-length vectors from block coordinates: x[rep] = y, x[mir] = sign y."""
    x = np.zeros((size, y.shape[1]), dtype=y.dtype)
    x[rep] = y
    x[mir] = sign[:, None] * y
    return x


def _pairings(pencil: DiscretePencil) -> list:
    """(parity, pairing) of each independent block of the square pencil.

    A traction-free plate splits into the symmetric and antisymmetric
    families: each block is the pencil restricted to the +-1 eigenspace of
    the profile symmetry S = diag(+-J) and of the equation symmetry T,
    equal to S except on the boundary rows (discretize._face_rows), where
    the outward normal turns over with the plate.  pairing (rep, mir, s, t)
    folds each component at its middle: rep holds the lower-half nodes
    (and a middle node of the family's parity), mir their mirror images,
    and s, t are S and T at rep; _fold folds matrices on it and _unfold
    unfolds vectors.  u1 = mu x1 reflects like u1, so the lam form, and
    with it every solve and resolvent probe, folds on the same pairing.
    The clamped plate has no reflection symmetry: one block, pairing None.
    """
    if pencil.bc is not BCKind.FREE_FREE:
        return [(None, None)]
    n, nch = pencil.grid.n, pencil.n_channels
    half = np.arange((n + 1) // 2)
    offsets = n * np.arange(nch)
    rep = (offsets[:, None] + half).ravel()
    mir = (offsets[:, None] + (n - 1 - half)).ravel()
    sign = np.repeat(_SYMMETRIC_SIGNS[nch], half.size)
    row_sign = np.where(np.isin(rep, _face_rows(n, nch)), -sign, sign)
    out = []
    for parity, p in ((PARITY_SYMMETRIC, 1.0), (PARITY_ANTISYMMETRIC, -1.0)):
        keep = (rep != mir) | (p * sign > 0.0)
        out.append((parity, (rep[keep], mir[keep], p * sign[keep], p * row_sign[keep])))
    return out


def _shifted_lu(a: np.ndarray, b: np.ndarray, z, rcond_min: float):
    """LU factors (lu, piv) of a - z b, or None when the LU is too singular.

    Every LU of the package is one of these, on a lam-form block: shifts at
    z = -sigma, resolvent probes at z = -zeta^2.  The gate is the LU's
    reciprocal condition (1-norm, LAPACK gecon): below rcond_min, or where
    the LU has an exact zero pivot, z counts as lying on the spectrum and
    nothing is returned.  a, b are not written.
    """
    shifted = np.array(a, dtype=np.result_type(a.dtype, z), order="F")
    shifted -= z * b
    a_norm = np.linalg.norm(shifted, 1)
    lu, piv, info = _lapack.getrf(shifted)
    if info > 0 or _lapack.gecon(lu, a_norm) < rcond_min:
        return None
    return lu, piv


def _scaled_block(a: np.ndarray, b: np.ndarray, pairing):
    """(R A, R B, r): the lam form (a, b) folded on pairing, rows scaled by R = diag(r).

    Each row is scaled to unit largest entry of A: the collocation rows
    grow like n^4 and the boundary rows like n^2, and unscaled the LU's
    reciprocal condition would fall below RCOND_MIN from n = 512 on.
    """
    if pairing is not None:
        a, b = _fold(a, *pairing), _fold(b, *pairing)
    r = 1.0 / np.max(np.abs(a), axis=1)
    return a * r[:, None], b * r[:, None], r


def _shift_invert(a: np.ndarray, b: np.ndarray):
    """(sigma, factors, K^T) for K = B (A + sigma B)^-1 on one block (A, B).

    A and B are a block of _scaled_block, R A and R B, and sigma = s^2 for
    the first s of REFERENCE_SHIFTS whose LU passes the RCOND_MIN gate.
    K's rows vanish where B's do, so the infinite eigenvalues are exact
    zeros; its eigenvalues theta give lam = sigma - 1/theta.  K^T comes
    from one transposed solve with the LU.  A left vector l of K gives the
    lam form's left vector z = R l.
    """
    for shift in REFERENCE_SHIFTS:
        sigma = shift * shift
        factors = _shifted_lu(a, b, -sigma, RCOND_MIN)
        if factors is not None:
            break
    else:
        raise ValueError("every shift in REFERENCE_SHIFTS lies on the spectrum "
                         "(LU reciprocal condition below RCOND_MIN)")
    return sigma, factors, _lapack.getrs(*factors, b.T, trans="T")


def _finite(theta: np.ndarray) -> np.ndarray:
    """Which theta of a shift-invert are finite eigenvalues (see THETA_CUT)."""
    return np.abs(theta) > THETA_CUT * np.max(np.abs(theta))


def _both_signs(lam: np.ndarray) -> np.ndarray:
    """mu = sqrt(lam) and then -mu: each finite lam is a pair of pencil eigenvalues."""
    mu = np.sqrt(lam)
    return np.concatenate([mu, -mu])


def _companion_left(a: np.ndarray, b: np.ndarray, split: int,
                    mu: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Companion left vectors w = (-(Q1 + mu Q2)^H y, S^-1 y), column by column.

    y are left null vectors of the square pencil Q(mu), whose Q1 and Q2
    discretize._square_terms reads off the lam form (a, b) at split, and
    S is the row scaling of the companion's second block: -1/c_i on the
    collocation rows of component i, 1 on the boundary rows.
    """
    dim = a.shape[0]
    q13, q31, q2 = _square_terms(a, b, split)
    w = np.empty((2 * dim, y.shape[1]), dtype=complex)
    w[dim:] = y * np.where(q2 == 0.0, 1.0, -q2)[:, None]
    w[:dim] = y * q2[:, None]
    w[:dim] *= -np.conj(mu)
    w[:split] -= _real_matmul(q31.T, y[split:])
    w[split:dim] -= _real_matmul(q13.T, y[:split])
    return w


def _pair_ritz(a: np.ndarray, b: np.ndarray, lam: np.ndarray, x: np.ndarray,
               z: np.ndarray):
    """(lam, x, z) of the two-channel lam form, refined pair by pair.

    Whatever mu is, the pair +-mu of one lam has its states in the span of
    (x1, 0) and (0, x3), and its left vectors in that of (z1, 0) and
    (0, z3).  Projected onto them, A + lam B is the 2 x 2 pencil
    [[p, b13], [lam b31, q]] with p = a1 + lam g1 and q = a3 + lam g3.
    One Newton step on its determinant from the computed lam, and its null
    vectors (c1, c3) and (d1, d3) there, give (c1 x1, c3 x3) and
    (d1 z1, d3 z3).  lam = mu^2 alone resolves mu only to about sqrt(eps)
    near 0: where two cutoffs of one family coincide (a semisimple double
    root at mu = 0), the pair's two states would come out parallel.
    """
    n = a.shape[0] // 2
    x1, x3, z1, z3 = x[:n], x[n:], z[:n], z[n:]
    # x = (u1 / mu, u3) and z = (conj(mu) y1, y3): where mu is small, x3
    # and z1 keep only the digits they share with the whole vector, so
    # they are solved again from their own block row and column
    for k in np.flatnonzero(np.linalg.norm(x3, axis=0)
                            < _PART_TOL * np.linalg.norm(x1, axis=0)):
        x3[:, k] = np.linalg.solve(a[n:, n:] + lam[k] * b[n:, n:],
                                   -lam[k] * (b[n:, :n] @ x1[:, k]))
    for k in np.flatnonzero(np.linalg.norm(z1, axis=0)
                            < _PART_TOL * np.linalg.norm(z3, axis=0)):
        z1[:, k] = np.linalg.solve((a[:n, :n] + lam[k] * b[:n, :n]).conj().T,
                                   -np.conj(lam[k]) * (b[n:, :n].T @ z3[:, k]))

    def form(m, left, right):  # left_k^H m right_k, column by column
        return np.einsum("ij,ij->j", np.conj(left), _real_matmul(m, right))

    a1, a3 = form(a[:n, :n], z1, x1), form(a[n:, n:], z3, x3)
    g1, g3 = form(b[:n, :n], z1, x1), form(b[n:, n:], z3, x3)
    b13, b31 = form(a[:n, n:], z1, x3), form(b[n:, :n], z3, x1)
    p, q = a1 + lam * g1, a3 + lam * g3
    lam = lam - (p * q - lam * b13 * b31) / (g1 * q + g3 * p - b13 * b31)
    p, q = a1 + lam * g1, a3 + lam * g3

    def null(first, second):  # the null vector from the larger row (column)
        pick = (np.abs(first[0]) ** 2 + np.abs(first[1]) ** 2
                >= np.abs(second[0]) ** 2 + np.abs(second[1]) ** 2)
        return np.where(pick, first, second)

    c = null((b13, -p), (q, -lam * b31))
    d = np.conj(null((lam * b31, -p), (q, -b13)))
    return lam, np.vstack([x1 * c[0], x3 * c[1]]), np.vstack([z1 * d[0], z3 * d[1]])


def _form(pencil: DiscretePencil) -> tuple:
    """(A, B, split): the lam form (discretize._lambda_form) and the index
    where its v3 rows start, after u1 = mu x1 (0 for the scalar channel)."""
    return (*_lambda_form(pencil), pencil.grid.n if pencil.n_channels == 2 else 0)


def _mode_block(op: DiscreteOperator, form: tuple, parity, pairing) -> _Block:
    """Finite spectrum of one block of m V = z E V, with both vector sets.

    form is op's lam form (_form).  The block (_scaled_block on pairing)
    is shift-inverted (_shift_invert), and one eigensolve of K^T gives both
    vector sets: its right vectors, conjugated and scaled by R, are the
    left vectors z of A + lam B, and its left vectors, conjugated, are K's
    right vectors R (A + sigma B) x, so one solve with the same LU gives
    x.  A folded block's x unfold with S, its z with T.  Each finite lam,
    refined by _pair_ritz, gives mu = +-sqrt(lam) with u = (mu x1, x3) and
    the pencil's left vector y = (z1 / conj(mu), z3).
    """
    a, b, split = form
    dim = op.mask.size // 2
    ra, rb, r = _scaled_block(a, b, pairing)
    sigma, factors, k_t = _shift_invert(ra, rb)
    del ra, rb
    theta, vl, vr = _lapack.geev(k_t, vectors=True, overwrite_a=True)
    keep = _finite(theta)
    x = _lapack.getrs(*factors, np.conj(vl[:, keep]))
    y = np.conj(vr[:, keep]) * r[:, None]
    del vl, vr
    if pairing is not None:
        rep, mir, s, t = pairing
        x, y = _unfold(x, rep, mir, s, dim), _unfold(y, rep, mir, t, dim)
    lam = sigma - 1.0 / theta[keep]
    if split:
        lam, x, y = _pair_ritz(a, b, lam, x, y)
    mu = _both_signs(lam)
    u, y = np.hstack([x, x]), np.hstack([y, y])
    if split:  # the scalar channel's vectors may be real
        u[:split] *= mu
        y[:split] /= np.conj(mu)
    return _Block(parity, mu, y, u)


def _reference_blocks(pencil: DiscretePencil) -> list:
    """Each reflection block [R A, R B] of the lam form at resolution 2n.

    Only the 2n pencil is built, and from it the lam form, which is freed
    once every block is folded and row-scaled (_scaled_block), before any
    block is solved.  One list per block, in the block order of _pairings,
    for _reference_eigenvalues to empty.
    """
    fine = _channel_pencil(pencil.material,
                           chebyshev_grid(2 * pencil.grid.n, pencil.grid.h),
                           pencil.bc, pencil.coefficients)
    a, b = _lambda_form(fine)
    pairings = _pairings(fine)
    del fine                           # the 2n stacks go before any block is folded
    return [list(_scaled_block(a, b, pairing)[:2]) for _parity, pairing in pairings]


def _reference_eigenvalues(block: list) -> np.ndarray:
    """Finite eigenvalues mu of one 2n block [R A, R B], which this empties.

    The reference is read only through MATCH_TOL, so K^T from _shift_invert
    gets an eigenvalues-only eigensolve, and the block and the LU are freed
    before it.
    """
    sigma, factors, k_t = _shift_invert(*block)
    block.clear()
    del factors
    theta = _lapack.geev(k_t, overwrite_a=True)
    return _both_signs(sigma - 1.0 / theta[_finite(theta)])


def _run_tasks(tasks: list, threads: int) -> list:
    """The results of tasks, zero-argument callables, in task order.

    Up to threads threads, the calling one among them, take the tasks in
    list order, and a task's entry is cleared as it is taken.  Once a task
    raises, no thread takes another, and the exception of the earliest
    task that raised is raised: every task before it was taken and ran, so
    it is the exception a serial loop raises.  Every thread started here
    is joined before this returns or raises.
    """
    results, errors = [None] * len(tasks), {}
    order, lock = iter(range(len(tasks))), threading.Lock()
    stop = False

    def work():
        nonlocal stop
        while True:
            with lock:
                k = None if stop else next(order, None)
            if k is None:
                return
            task, tasks[k] = tasks[k], None
            try:
                results[k] = task()
            except BaseException as exc:
                with lock:
                    errors[k], stop = exc, True
                return
            del task

    helpers = []
    for _ in range(min(threads, len(tasks)) - 1):
        helper = threading.Thread(target=work)
        try:
            helper.start()
        except RuntimeError:           # no thread to spare: fewer take the tasks
            break
        helpers.append(helper)
    try:
        work()
    finally:
        stop = True
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[min(errors)]
    return results


def _coincide(a, b, tol: float) -> np.ndarray:
    """Which eigenvalue pairs are one: |a_i - b_j| <= tol * max(1, |a_i|, |b_j|).

    The package's one rule for eigenvalue identity; every decision that
    two eigenvalues are the same goes through it.  Returns the boolean
    matrix over (i, j).
    """
    a, b = np.asarray(a)[:, None], np.asarray(b)[None, :]
    return np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _two_resolution_matches(z_raw: np.ndarray, z_ref: np.ndarray) -> np.ndarray:
    """Which coarse eigenvalues reappear in the fine spectrum, to MATCH_TOL.

    A defective eigenvalue splits into a pair ~sqrt(backward error) apart,
    differently on each grid, so an unmatched eigenvalue is rescued when a
    coarse partner coincides with it to DEFECT_PAIR_TOL and their mean, as
    accurate as a simple eigenvalue, coincides to MATCH_TOL with the mean of
    the two nearest fine eigenvalues.
    """
    if z_ref.size < 2:
        raise ValueError("reference solve returned no usable spectrum")
    matched = _coincide(z_raw, z_ref, MATCH_TOL).any(axis=1)
    paired = _coincide(z_raw, z_raw, DEFECT_PAIR_TOL)
    np.fill_diagonal(paired, False)
    rows = np.flatnonzero(~matched & paired.any(axis=1))
    if rows.size:
        gap = np.where(paired[rows], np.abs(z_raw[rows, None] - z_raw), np.inf)
        mean_c = 0.5 * (z_raw[rows] + z_raw[np.argmin(gap, axis=1)])
        nearest = np.argsort(np.abs(z_ref - mean_c[:, None]), axis=1)[:, :2]
        mean_f = np.mean(z_ref[nearest], axis=1)
        # row k of the diagonal holds coarse pair mean k against its fine mean
        matched[rows] = np.diagonal(_coincide(mean_c, mean_f, MATCH_TOL))
    return matched


def classify_parity(v: np.ndarray, grid: Grid) -> str | np.ndarray:
    """Reflection parity of a displacement profile v on the symmetric grid.

    v is component-stacked.  For the two-component problem, symmetric
    means (v1 odd, v3 even) and antisymmetric the mirrored pattern; a
    scalar channel is symmetric when even, each up to PARITY_TOL.  A
    matrix v holds one profile per column and gets an array of labels,
    each the label of its column alone.
    """
    v = np.asarray(v)
    comps = v.reshape(v.shape[0] // grid.n, grid.n, *v.shape[1:])
    signs = np.array(_SYMMETRIC_SIGNS[comps.shape[0]])
    mirrored = signs.reshape(-1, *(1,) * (comps.ndim - 1)) * comps[:, ::-1]
    scale = np.max(np.abs(v), axis=0)
    tol = PARITY_TOL * scale
    labels = np.select(
        [scale == 0.0,
         np.max(np.abs(comps - mirrored), axis=(0, 1)) <= tol,
         np.max(np.abs(comps + mirrored), axis=(0, 1)) <= tol],
        [PARITY_MIXED, PARITY_SYMMETRIC, PARITY_ANTISYMMETRIC], PARITY_MIXED)
    return labels if v.ndim == 2 else str(labels)


def solve_modes(op: DiscreteOperator, accept_tol: float = 1e-8, threads: int = 1) -> ModeSet:
    """Solve, filter, normalize, and classify the discrete spectrum.

    Eigenpairs come from _mode_block, whose block label each mode inherits;
    the clamped plate is solved whole and its modes are PARITY_MIXED by
    structure (a profile of either parity clamped on one face would be
    clamped and traction-free on the other too, and so vanish).  A pair is
    kept when (a) its eigenvalue coincides to MATCH_TOL (see _coincide) with
    one in the same-parity block of the 2n reference and (b) its pencil
    backward error is at most accept_tol; raw_count sums the finite
    eigenvalues of all blocks (_two_resolution_matches rescues split
    defective pairs).  Retained states are built as exactly (v, mu v),
    normalized to unit energy norm, phase-fixed, and sorted by (|beta|,
    Re beta, Im beta): every beta has its exact negative and conjugate, so
    the |beta| ties of a group are bitwise and the row order is fixed.
    A block's columns are normalized at once, then placed in sort order,
    and only the retained columns get companion left vectors.

    The blocks' shift-invert solves are independent: the 2n reference
    blocks, then the n-level blocks, are the tasks of _run_tasks on up to
    threads threads.  Each block's LAPACK calls are the same whichever
    thread makes them, so the result is the same bits at any thread count.
    The 2n lam form is freed before any block is solved, and each block's
    vectors once its retained columns are taken.
    """
    pencil = op.pencil
    dim = pencil.n_channels * pencil.grid.n
    tasks = [functools.partial(_reference_eigenvalues, block)
             for block in _reference_blocks(pencil)]
    form = _form(pencil)
    tasks += [functools.partial(_mode_block, op, form, parity, pairing)
              for parity, pairing in _pairings(pencil)]
    solved = _run_tasks(tasks, threads)
    # one reference per block: both levels split on the same pairings
    references, blocks = solved[:len(solved) // 2], solved[len(solved) // 2:]
    del solved
    raw_count = sum(int(block.z.size) for block in blocks)
    kept, vs = [], []
    while blocks:  # each block's vectors are freed once its columns are taken
        block, reference = blocks.pop(0), references.pop(0)
        cols = np.flatnonzero(_two_resolution_matches(block.z, reference))
        cols = cols[np.linalg.norm(block.u[:, cols], axis=0) != 0.0]
        res = pencil_residual(pencil, block.z[cols], block.u[:, cols])
        cols, res = cols[res <= accept_tol], res[res <= accept_tol]
        z, u1 = block.z[cols], block.u[:, cols]
        big_v = np.vstack([u1, u1 * z])
        big_v /= np.sqrt(np.abs(np.einsum("ij,ij->j", big_v.conj(),
                                          _real_matmul(op.gram, big_v))))
        top = big_v[np.argmax(np.abs(big_v[:dim]), axis=0), np.arange(cols.size)]
        big_v *= np.abs(top) / top
        kept.append((block.parity or PARITY_MIXED, z, block.y[:, cols], res))
        vs.append(big_v)
        del block, u1

    sizes = [z.size for _parity, z, _y, _res in kept]
    mu = np.concatenate([z for _parity, z, _y, _res in kept])
    beta = mu / 1j
    order = np.lexsort((beta.imag, beta.real, np.abs(beta)))
    at = np.split(np.argsort(order), np.cumsum(sizes)[:-1])  # each block's sorted places
    # made after the normalization temporaries are gone, and each block's
    # states are freed as they are placed, so no peak holds two copies
    states = np.empty((2 * dim, mu.size), dtype=complex)
    for places in at:
        states[:, places] = vs.pop(0)
    left = np.empty_like(states)
    for (_parity, z, y, _res), places in zip(kept, at):
        left[:, places] = _companion_left(*form, z, y)
    return ModeSet(mu=mu[order], states=states, left=left,
                   residuals=np.concatenate([res for *_rest, res in kept])[order],
                   parity=np.repeat([parity for parity, *_rest in kept], sizes)[order],
                   op=op, accept_tol=float(accept_tol), raw_count=raw_count)


def _cluster_indices(zs: np.ndarray, tol: float):
    """Group indices whose eigenvalues coincide within tol (see _coincide).

    Groups are the connected components of the coincidence graph (single
    linkage), each sorted and ordered by its first member, so the output
    is deterministic.  The components come from min-label propagation over
    the coinciding pairs with pointer jumping: every label only falls and
    names a member of its component, so at the fixed point each node is
    labelled by its component's first member.
    """
    i, j = np.nonzero(_coincide(zs, zs, tol))
    labels = np.arange(len(zs))
    while True:
        low = labels.copy()
        np.minimum.at(low, i, labels[j])
        low = low[low]
        if np.array_equal(low, labels):
            # a stable sort by label lists each component's members in
            # order, the components in the order of their first members
            members = np.argsort(labels, kind="stable")
            starts = np.flatnonzero(np.diff(labels[members], prepend=-1)).tolist()
            members = members.tolist()
            return [tuple(members[a:b]) for a, b in zip(starts, [*starts[1:], len(zs)])]
        labels = low


def _relation_residuals(pencil: DiscretePencil, mu: complex, vectors) -> tuple:
    """Normalized defects of P(mu)v_p + P'(mu)v_{p-1} + (P''/2)v_{p-2} = 0."""
    p_mu = pencil_value(pencil, mu)
    p_d1 = pencil.k1 + 2.0 * mu * pencil.k2
    scale = pencil_scale(pencil, mu) * max(np.linalg.norm(v) for v in vectors)
    out = []
    for p, v in enumerate(vectors):
        r = p_mu @ v
        if p >= 1:
            r = r + p_d1 @ vectors[p - 1]
        if p >= 2:
            r = r + pencil.k2 @ vectors[p - 2]
        out.append(float(np.linalg.norm(r) / scale))
    return tuple(out)


def _try_extend(pencil: DiscretePencil, mu: complex, chain):
    """Bordered least squares for the next chain vector.

    Solves P(mu) v = -P'(mu) v_last - (P''/2) v_prev subject to v being
    orthogonal to the existing chain, and returns (v, certificate): the
    certificate is the solvability defect |P v - rhs| / |rhs|, which is
    O(1) at a simple eigenvalue (the rhs sticks out of range P) and tiny
    only where an associated vector genuinely exists.
    """
    p_mu = pencil_value(pencil, mu)
    rhs = -(pencil.k1 + 2.0 * mu * pencil.k2) @ chain[-1]
    if len(chain) >= 2:
        rhs = rhs - pencil.k2 @ chain[-2]
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm == 0.0:
        return None, 1.0
    weight = pencil_scale(pencil, mu)
    border = np.vstack([weight * v.conj()[None, :] for v in chain])
    aug = np.vstack([p_mu, border])
    b = np.concatenate([rhs, np.zeros(len(chain))])
    v_next, *_ = np.linalg.lstsq(aug, b, rcond=None)
    cert = float(np.linalg.norm(p_mu @ v_next - rhs) / rhs_norm)
    return v_next, cert


def detect_jordan_chains(mode_set: ModeSet, cluster_tol: float = DEFECT_PAIR_TOL,
                         chain_tol: float = 1e-6):
    """Cluster the spectrum, test defectiveness, and build Jordan chains.

    Eigenvalues that coincide to cluster_tol form one cluster.  A split
    defective eigenvalue survives filtering only as a pair coinciding to
    DEFECT_PAIR_TOL (_two_resolution_matches), so at that tolerance it is
    always one cluster, and a singleton is a simple eigenvalue: its chain
    is its mode alone, of length 1, with the mode's residual as its one
    relation residual.  A cluster of two or more yields one chain per
    independent eigenvector (geometric multiplicity via the RANK_TOL
    singular-value cutoff); extension past the eigenvector is attempted up
    to the cluster's size and kept only when both the solvability
    certificate and the chain-relation residual stay within chain_tol.  A
    cluster_tol below DEFECT_PAIR_TOL, or not finite, would split such
    pairs into singletons and lose their associated modes, so it raises.
    """
    if not (np.isfinite(cluster_tol) and cluster_tol >= DEFECT_PAIR_TOL):
        raise ValueError(f"cluster_tol = {cluster_tol!r} must be finite and at least "
                         f"DEFECT_PAIR_TOL = {DEFECT_PAIR_TOL:g}, or split defective "
                         "pairs become singletons and lose their associated modes")
    pencil, zs = mode_set.op.pencil, mode_set.mu
    profiles = mode_set.states[:pencil.n_channels * pencil.grid.n]
    chains = []
    for group in _cluster_indices(zs, cluster_tol):
        if len(group) == 1:
            k = group[0]
            v = profiles[:, k]
            chains.append(JordanChain(mu=complex(zs[k]), vectors=(v / np.linalg.norm(v),),
                                      relation_residuals=(float(mode_set.residuals[k]),),
                                      mode_indices=group))
            continue
        mu = complex(np.mean(zs[list(group)]))
        stack = profiles[:, list(group)]
        u, s, _ = np.linalg.svd(stack / np.linalg.norm(stack, axis=0),
                                full_matrices=False)
        for k in range(max(1, int(np.sum(s > RANK_TOL * s[0])))):
            chain = [u[:, k]]
            while len(chain) < len(group):
                v_next, cert = _try_extend(pencil, mu, chain)
                if v_next is None or cert > chain_tol:
                    break
                if _relation_residuals(pencil, mu, chain + [v_next])[-1] > chain_tol:
                    break
                chain.append(v_next)
            chains.append(JordanChain(
                mu=mu,
                vectors=tuple(np.array(v) for v in chain),
                relation_residuals=_relation_residuals(pencil, mu, chain),
                mode_indices=group))
    return chains


def biorthogonalize(mode_set: ModeSet) -> BiorthogonalSystem:
    """Left vectors and the normalized energy-metric pairing.

    Modes are grouped into DEFECT_PAIR_TOL clusters, the blocks of
    detect_jordan_chains, and taken in cluster order.  The energy-metric
    left vectors W_k = G^-1 E w_k come from one solve against the Gram
    factor, with w_k the mode's own left eigenvector ModeSet.left[:, k],
    so <V_n, W_k>_gram = (E w_k)^H V_n vanishes across distinct
    eigenvalues.  Each diagonal pairing block is inverted onto the
    identity (near-defective clusters are handled as blocks), and a
    numerically singular block raises.
    """
    op = mode_set.op
    if not len(mode_set):
        raise ValueError("empty mode set")
    blocks = _cluster_indices(mode_set.mu, DEFECT_PAIR_TOL)
    perm = [i for group in blocks for i in group]

    right = mode_set.states[:, perm]
    ew = op.mask[:, None] * mode_set.left[:, perm]
    # the real and imaginary parts of E w side by side, one real
    # right-hand side, so the real factor is never cast to complex
    parts = _lapack.potrs(op.gram_cholesky, np.hstack([ew.real, ew.imag]), lower=True,
                          overwrite_b=True)
    left = parts[:, :len(perm)].astype(complex)
    left.imag = parts[:, len(perm):]
    # G W = E w, so the pairing W^H G V is (E w)^H V, with no Gram product
    ew_h = ew.conj().T

    pairing = ew_h @ right
    start = 0
    for group in blocks:
        stop = start + len(group)
        block = pairing[start:stop, start:stop]
        if np.linalg.cond(block) > 1e12:
            mu = mode_set.mu[group[0]]
            raise ValueError(f"pairing block at mu = {mu:.6g} is numerically "
                             "singular; biorthogonal normalization failed")
        inverse = np.linalg.inv(block)
        left[:, start:stop] = left[:, start:stop] @ inverse.conj().T
        ew_h[start:stop] = inverse @ ew_h[start:stop]
        start = stop
    pairing = ew_h @ right

    return BiorthogonalSystem(blocks=tuple(blocks), states=right, left_vectors=left,
                              pairing=pairing, op=op)
