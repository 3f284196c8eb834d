"""Mode extraction for the discretized plate pencil.

The masked companion problem m V = z E V is solved with the QZ
factorization; E is singular on the constraint rows, so a generalized
solve is the only uniformly valid route (explicit constraint elimination
breaks down whenever some constrained state is supported purely on the
replaced rows, as happens for the scalar SH channel).  A traction-free
plate is symmetric under reflection through its midplane, so there the
pencil is projected onto the symmetric and antisymmetric subspaces and
each half-size block is solved on its own; the block fixes the parity
label exactly.  Raw eigenpairs are filtered by two-resolution agreement
and normalized in the energy metric with a fixed phase convention.  On
top of that sit the defectiveness machinery and the left/right
biorthogonal systems used by modal expansions.  Both read one set of
energy-metric left vectors per mode set: the left vectors screen the
Jordan probe to first order (an eigenvalue can be defective only where
its left and right vectors are nearly orthogonal), and bordered least
squares builds chains only where that screen cannot rule a chain out.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.linalg
import scipy.sparse.csgraph

from .core import BCKind
from .discretize import (
    DiscreteOperator,
    DiscretePencil,
    Grid,
    assemble_operator,
    pencil_residual,
    pencil_scale,
    pencil_value,
)

__all__ = [
    "BiorthogonalSystem",
    "JordanChain",
    "Mode",
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

#: pair separation below which two coarse eigenvalues are treated as one
#: split defective eigenvalue during filtering (their individual values
#: are only sqrt(backward-error) accurate; their mean is fully accurate)
DEFECT_PAIR_TOL = 1e-4

#: relative singular-value cutoff deciding the geometric multiplicity of
#: a cluster of nearby eigenvalues
RANK_TOL = 1e-3

#: eigenvalues that coincide to this tolerance (see _coincide) form one
#: cluster: one Jordan block, one pairing block of the biorthogonal system
CLUSTER_TOL = 1e-6

#: deviation from an exact reflection, relative to the largest entry of the
#: profile, that classify_parity still accepts as a parity
PARITY_TOL = 1e-6


@dataclass(frozen=True)
class Mode:
    """One retained eigenpair of the quadratic pencil.

    mu = i*beta is the companion eigenvalue, v the first-block grid values
    of the displacement profile, big_v the stacked state (v, mu*v) with
    unit energy norm and the largest-magnitude entry of v made real
    positive.  residual is the normwise backward error of (mu, v) against
    the quadratic pencil.
    """

    mu: complex
    beta: complex
    v: np.ndarray
    big_v: np.ndarray
    residual: float
    parity: str

    def __post_init__(self):
        self.v.flags.writeable = False
        self.big_v.flags.writeable = False


@dataclass(frozen=True)
class ModeSet:
    """Retained modes, sorted by |beta| ascending, and their operator op.

    raw_count is the number of finite eigenvalues before two-resolution
    filtering and the residual gate; an empty ModeSet signals accept_tol
    too tight or n too small.
    """

    modes: tuple
    op: DiscreteOperator
    accept_tol: float
    raw_count: int

    def __len__(self):
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    @property
    def betas(self) -> np.ndarray:
        return np.array([mode.beta for mode in self.modes])

    @cached_property
    def left_vectors(self) -> np.ndarray:
        """Energy-metric left vectors W_k = G^{-1} E w_k, column k for modes[k].

        w_k is the left eigenvector (w^H m = z w^H E) whose eigenvalue lies
        nearest mu_k in the QZ block of the mode's parity, so that
        <V_n, W_k>_gram equals w_k^H E V_n and vanishes across distinct
        eigenvalues.  One left solve serves the Jordan screen and the
        biorthogonal system; a mode whose nearest left eigenvalue does not
        coincide with mu within MATCH_TOL raises.  Read-only.
        """
        spectrum = _eigensolve(self.op, left=True)
        w = np.empty((self.op.m.shape[0], len(self.modes)), dtype=complex)
        for k, mode in enumerate(self.modes):
            block = next(b for b in spectrum if b.parity in (None, mode.parity))
            j = int(np.argmin(np.abs(block.z - mode.mu)))
            if not _coincide([mode.mu], block.z, MATCH_TOL)[0, j]:
                raise ValueError(f"no left eigenvector matches mu = {mode.mu:.6g}")
            w[:, k] = block.left[:, j]
        left = scipy.linalg.cho_solve((self.op.gram_cholesky, True),
                                      self.op.mask[:, None] * w)
        left.flags.writeable = False
        return left


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

    modes holds the retained modes grouped into eigenvalue clusters
    (blocks), flattened order matching the rows/columns of pairing;
    left_vectors[:, k] is the energy-metric left vector W_k, and
    pairing[m, n] = <V_n, W_m>_gram is block-diagonal with unit diagonal
    blocks after normalization.  op is the operator the modes were
    solved from.
    """

    modes: tuple
    left_vectors: np.ndarray
    pairing: np.ndarray
    op: DiscreteOperator

    def __post_init__(self):
        self.left_vectors.flags.writeable = False
        self.pairing.flags.writeable = False

    @property
    def flat_modes(self) -> tuple:
        return tuple(mode for block in self.modes for mode in block)


class _Block(NamedTuple):
    """Finite eigenvalues of one QZ block with the vectors asked for.

    parity is the reflection family of the block, or None for an
    operator solved whole; left and right hold full-length state vectors
    column by column (None when not requested).
    """

    parity: str | None
    z: np.ndarray
    left: np.ndarray | None
    right: np.ndarray | None


def _reflection(op: DiscreteOperator):
    """The midplane reflection as a signed pairing of state indices.

    Each component block of the state is folded at its middle: rep holds
    the nodes of the lower half (and the middle node when n is odd), mir
    their mirror images (a middle node is its own mirror).  sign is the
    state symmetry S = diag(+-J) at rep, so S V = V exactly for the
    symmetric family; row_sign is the equation symmetry T, equal to S
    except on the boundary rows, where the outward normal turns over with
    the plate.  T m = m S and T E = E S hold up to rounding.
    """
    n, nch = op.pencil.grid.n, op.pencil.n_channels
    half = np.arange((n + 1) // 2)
    offsets = n * np.arange(2 * nch)
    rep = (offsets[:, None] + half).ravel()
    mir = (offsets[:, None] + (n - 1 - half)).ravel()
    sign = np.repeat(np.tile(_SYMMETRIC_SIGNS[nch], 2), half.size)
    row_sign = np.where(op.mask[rep] == 0.0, -sign, sign)
    return rep, mir, sign, row_sign


def _qz(a: np.ndarray, b: np.ndarray, left: bool, right: bool):
    """Finite eigenvalues of a x = z b x and the requested eigenvectors."""
    out = scipy.linalg.eig(a, b, left=left, right=right)
    w, *vectors = out if (left or right) else (out,)
    good = np.isfinite(w)
    vl = vectors[0][:, good] if left else None
    vr = vectors[-1][:, good] if right else None
    return w[good], vl, vr


def _fold(x: np.ndarray, rep: np.ndarray, mir: np.ndarray,
          col_sign: np.ndarray, row_sign: np.ndarray) -> np.ndarray:
    """Block of x on a signed index pairing.

    Column k adds column mir[k] times col_sign[k] to column rep[k], row k
    likewise with row_sign; a self-mirrored index is halved so it enters
    once.
    """
    weight = np.where(rep == mir, 0.5, 1.0)
    cols = x[:, rep] + col_sign * x[:, mir]
    return np.outer(weight, weight) * (cols[rep] + row_sign[:, None] * cols[mir])


def _unfold(y: np.ndarray, rep: np.ndarray, mir: np.ndarray,
            sign: np.ndarray, size: int) -> np.ndarray:
    """Full-length vectors from block coordinates: x[rep] = y, x[mir] = sign y."""
    x = np.zeros((size, y.shape[1]), dtype=y.dtype)
    x[rep] = y
    x[mir] = sign[:, None] * y
    return x


def _eigensolve(op: DiscreteOperator, left: bool = False,
                right: bool = False) -> list:
    """Finite spectrum of m V = z E V, one _Block per QZ problem.

    A traction-free operator splits into the symmetric and antisymmetric
    families.  Each block is the pencil restricted to the +-1 eigenspace
    of S on states and of T on equations, built by signed index folding:
    a column of the block adds the mirrored column with sign p S, a row
    adds the mirrored row with sign p T (a middle node, being its own
    mirror, enters once).  Each block is about half the size of m, so
    the two QZ solves cost about a quarter of one full solve.  The
    clamped plate has no reflection symmetry and is solved whole.
    """
    if op.pencil.bc is not BCKind.FREE_FREE:
        return [_Block(None, *_qz(op.m, np.diag(op.mask), left, right))]
    rep, mir, sign, row_sign = _reflection(op)
    size = op.m.shape[0]
    blocks = []
    for parity, p in ((PARITY_SYMMETRIC, 1.0), (PARITY_ANTISYMMETRIC, -1.0)):
        keep = (rep != mir) | (p * sign > 0.0)
        r, q = rep[keep], mir[keep]
        s, t = p * sign[keep], p * row_sign[keep]
        # the fold of the diagonal E is diagonal: built at block size, it
        # equals _fold(np.diag(op.mask), r, q, s, t) entry for entry
        e = np.diag(np.where(r == q, 0.5, 1.0) * (op.mask[r] + s * t * op.mask[q]))
        z, vl, vr = _qz(_fold(op.m, r, q, s, t), e, left, right)
        if vl is not None:
            vl = _unfold(vl, r, q, t, size)
        if vr is not None:
            vr = _unfold(vr, r, q, s, size)
        blocks.append(_Block(parity, z, vl, vr))
    return blocks


def _reference_spectrum(pencil: DiscretePencil) -> list:
    """Finite spectrum of the pencil's problem re-assembled at resolution 2n."""
    return _eigensolve(assemble_operator(pencil.material, 2 * pencil.grid.n,
                                         pencil.bc, pencil.n_channels))


def _coincide(a, b, tol: float) -> np.ndarray:
    """Which eigenvalue pairs are one: |a_i - b_j| <= tol * max(1, |a_i|, |b_j|).

    The package's one rule for eigenvalue identity; every decision that
    two eigenvalues are the same goes through it.  Returns the boolean
    matrix over (i, j).
    """
    a, b = np.asarray(a)[:, None], np.asarray(b)[None, :]
    return np.abs(a - b) <= tol * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def _two_resolution_matches(z_raw: np.ndarray, z_ref: np.ndarray) -> np.ndarray:
    """Which coarse eigenvalues reappear in the fine spectrum (see solve_modes)."""
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


def classify_parity(mode, grid: Grid) -> str:
    """Reflection parity of a displacement profile on the symmetric grid.

    For the two-component problem, symmetric means (v1 odd, v3 even) and
    antisymmetric the mirrored pattern; a scalar channel is symmetric when
    even, each up to PARITY_TOL.  Accepts a Mode or a bare
    component-stacked vector.
    """
    v = np.asarray(getattr(mode, "v", mode))
    comps = v.reshape(-1, grid.n)
    scale = float(np.max(np.abs(v)))
    if scale == 0.0:
        return PARITY_MIXED
    mirrored = np.array(_SYMMETRIC_SIGNS[comps.shape[0]])[:, None] * comps[:, ::-1]
    if np.max(np.abs(comps - mirrored)) <= PARITY_TOL * scale:
        return PARITY_SYMMETRIC
    if np.max(np.abs(comps + mirrored)) <= PARITY_TOL * scale:
        return PARITY_ANTISYMMETRIC
    return PARITY_MIXED


def solve_modes(op: DiscreteOperator, accept_tol: float = 1e-8) -> ModeSet:
    """Solve, filter, normalize, and classify the discrete spectrum.

    Eigenpairs come from the QZ factorization of (m, E), split on a
    traction-free plate into a symmetric and an antisymmetric block whose
    label each mode inherits.  The clamped plate is solved whole and its
    modes are PARITY_MIXED by structure: a profile of either reflection
    parity that is clamped on one face would be clamped and traction-free
    on the other as well, and so vanish.  A pair is kept when (a) its
    eigenvalue coincides to MATCH_TOL (see _coincide) with one in the
    block of the same parity of an independent solve at twice the
    resolution and (b) its pencil backward error is at most accept_tol;
    raw_count sums the finite eigenvalues of all blocks.  A defective
    eigenvalue splits into a pair wandering ~sqrt(backward error) in
    opposite directions, differently on each grid, so an individually
    unmatched eigenvalue is rescued when a coarse partner in the same
    block coincides with it to DEFECT_PAIR_TOL and its mean with the
    nearest such partner coincides to MATCH_TOL with the mean of the two
    nearest fine eigenvalues (the means are as accurate as simple
    eigenvalues).  Retained states are rebuilt as exactly (v, mu v),
    normalized to unit energy norm, phase-fixed, and sorted by
    (|beta|, Re beta, Im beta).
    """
    pencil = op.pencil
    dim = pencil.n_channels * pencil.grid.n

    blocks = _eigensolve(op, right=True)
    references = _reference_spectrum(pencil)
    modes = []
    for block, reference in zip(blocks, references):
        matched = _two_resolution_matches(block.z, reference.z)
        for k in np.flatnonzero(matched):
            z = complex(block.z[k])
            u1 = block.right[:dim, k]
            if np.linalg.norm(u1) == 0.0:
                continue
            res = pencil_residual(pencil, z, u1)
            if res > accept_tol:
                continue
            big_v = np.concatenate([u1, z * u1])
            nrm = np.sqrt(abs(np.vdot(big_v, op.gram @ big_v)))
            big_v = big_v / nrm
            top = big_v[:dim]
            j = int(np.argmax(np.abs(top)))
            big_v = big_v * (abs(top[j]) / top[j])
            v = big_v[:dim].copy()
            modes.append(Mode(mu=z, beta=z / 1j, v=v, big_v=big_v,
                              residual=float(res),
                              parity=block.parity or PARITY_MIXED))

    modes.sort(key=lambda md: (abs(md.beta), md.beta.real, md.beta.imag))
    return ModeSet(modes=tuple(modes), op=op, accept_tol=float(accept_tol),
                   raw_count=sum(int(block.z.size) for block in blocks))


def _cluster_indices(zs: np.ndarray, tol: float):
    """Group indices whose eigenvalues coincide within tol (see _coincide).

    Groups are the connected components of the coincidence graph (single
    linkage), each sorted and ordered by its first member, so the output
    is deterministic.
    """
    count, labels = scipy.sparse.csgraph.connected_components(
        _coincide(zs, zs, tol), directed=False)
    return sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(count))


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


def detect_jordan_chains(mode_set: ModeSet, cluster_tol: float = CLUSTER_TOL,
                         chain_tol: float = 1e-6):
    """Cluster the spectrum, test defectiveness, and build Jordan chains.

    Every cluster yields one chain per independent eigenvector (geometric
    multiplicity via the RANK_TOL singular-value cutoff); extension past
    the eigenvector is attempted up to the cluster's algebraic size and
    kept only when both the solvability certificate and the
    chain-relation residual stay within chain_tol.  A singleton cluster
    is first screened to first order (Tisseur & Meerbergen, SIAM Rev.
    2001, section 3): c = |<V, W>_gram| / |W|_gram, with V of unit energy
    norm, is the reciprocal condition of the eigenvalue and vanishes at
    a defective one.  Only a singleton with c <= sqrt(chain_tol) or c
    not finite gets the bordered probe, so near-defective pairs missed by
    clustering are still caught; simple well-separated eigenvalues come
    back as length-1 chains without it.
    """
    modes, pencil = mode_set.modes, mode_set.op.pencil
    if not modes:
        return []
    zs = np.array([mode.mu for mode in modes])
    left, gram = mode_set.left_vectors, mode_set.op.gram
    right = np.column_stack([mode.big_v for mode in modes])
    condition = (np.abs(np.sum(left.conj() * (gram @ right), axis=0))
                 / np.sqrt(np.abs(np.sum(left.conj() * (gram @ left), axis=0))))
    chains = []
    for group in _cluster_indices(zs, cluster_tol):
        mu = complex(np.mean(zs[list(group)]))
        stack = np.column_stack([modes[i].v for i in group])
        stack = stack / np.linalg.norm(stack, axis=0)
        if len(group) == 1:
            heads = [stack[:, 0]]
            c = condition[group[0]]
            cap = 1 if np.isfinite(c) and c > np.sqrt(chain_tol) else 2
        else:
            u, s, _ = np.linalg.svd(stack, full_matrices=False)
            geom = max(1, int(np.sum(s > RANK_TOL * s[0])))
            heads = [u[:, k] for k in range(geom)]
            cap = len(group)
        for head in heads:
            chain = [head]
            while len(chain) < cap:
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

    The mode set's left vectors (ModeSet.left_vectors) are taken in
    cluster order.  Modes are grouped into CLUSTER_TOL clusters; each
    diagonal pairing block is inverted onto the identity (near-defective
    clusters are handled as blocks), and a numerically singular block
    raises.
    """
    modes, op = mode_set.modes, mode_set.op
    if not modes:
        raise ValueError("empty mode set")
    zs = np.array([mode.mu for mode in modes])
    blocks = _cluster_indices(zs, CLUSTER_TOL)
    perm = [i for group in blocks for i in group]

    right = np.column_stack([modes[i].big_v for i in perm])
    left = mode_set.left_vectors[:, perm]

    pairing = left.conj().T @ op.gram @ right
    start = 0
    for group in blocks:
        stop = start + len(group)
        block = pairing[start:stop, start:stop]
        if np.linalg.cond(block) > 1e12:
            mu = modes[group[0]].mu
            raise ValueError(f"pairing block at mu = {mu:.6g} is numerically "
                             "singular; biorthogonal normalization failed")
        left[:, start:stop] = left[:, start:stop] @ np.linalg.inv(block).conj().T
        start = stop
    pairing = left.conj().T @ op.gram @ right

    grouped = tuple(tuple(modes[i] for i in group) for group in blocks)
    return BiorthogonalSystem(modes=grouped, left_vectors=left, pairing=pairing,
                              op=op)
