"""Numerical verification of the operator-level claims.

Everything here measures rather than assumes: the coercivity constants
(beta0, C) of the shifted quadratic form, the resolvent operator and
Hilbert-Schmidt norms along the five admissible rays, the completeness
residuals of modal expansions, and the witnesses separating the operator
from its energy-metric adjoint.  The form is weighted by the pencil blocks
a, c, d the solver collocates.  All norms are taken in the energy metric:
for a matrix S that means the Euclidean norm of L^H S L^-H where
gram = L L^H is the Cholesky factorization.  Nothing here builds the
companion matrix; the adjoint defect reads its rows off the pencil.

The resolvent R(z) = (m - z E)^-1 E is probed through the lam = mu^2
blocks the mode solver factors: its rows give U2 = z U1 + F1 and Q(z) U1
= -(Q1 + z Q2) F1 - Q2 F2, where Q(z) = Z (A + z^2 B) Z^-1 with Z = diag(z
on the u1 indices, 1).  R(z) commutes with the state reflection and the
Gram matrix blockdiag(G1, G2) is reflection-invariant, so on a
traction-free plate the probes split like the eigensolves
(eigen._pairings): the operator norm is the larger block norm and the
squared Hilbert-Schmidt norm the sum of the blocks' squares.

Ray geometry: the five companion-plane ray angles are
theta_j = 2(j-1) pi/5 + pi/2, which under z = i beta place beta on the
directions {0, 72, 144, 216, 288} degrees -- all inside the admissible
sector |arg(+-beta)| <= theta0 for any theta0 in (2 pi/5, pi/2).

Mirrored rays: ||R(-conj z)|| = ||R(z)|| in both norms.  m, E and the
Gram matrix G are real, so R(conj z) = conj R(z).  With the state
reflection P = diag(D, -D), D = diag(I, -I) on (v1, v3) (D = I for the
shear-horizontal channel), P m P = -m, P E P = E and P G P = G, so
R(-z) = -P R(z) P with P an isometry of the energy metric.  z -> -conj z
maps theta to pi - theta: ray 0 to itself, rays 1 and 2 to rays 4 and 3
(in beta, the spectrum's conjugation symmetry, 72 <-> 288 and
144 <-> 216 degrees).  resolvent_scan probes rays 0, 1 and 2 only.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import _lapack
from .discretize import (
    DiscreteOperator,
    FormMatrices,
    _companion_rows,
    _lambda_form,
    _real_matmul,
    _square_terms,
)
from .eigen import (
    DEFECT_PAIR_TOL,
    RCOND_MIN,
    BiorthogonalSystem,
    ModeSet,
    _coincide,
    _fold,
    _pairings,
    _run_tasks,
    _scaled_block,
    _shifted_lu,
)

__all__ = [
    "CoercivityReport",
    "ExpansionReport",
    "ResolventScan",
    "adjoint_defect",
    "coercivity_scan",
    "expand_field",
    "five_rays",
    "in_sector",
    "measured_b",
    "nonorthogonality_witness",
    "quadratic_form_value",
    "random_trig_fields",
    "resolvent_norms",
    "resolvent_scan",
]

#: smallest admissible sector half-angle (exclusive)
THETA0_MIN = 2.0 * np.pi / 5.0
#: largest admissible sector half-angle (exclusive)
THETA0_MAX = np.pi / 2.0
#: measured_b looks at retained eigenvalues within this angle (radians) of
#: a ray direction and stretches the largest such |beta| by B_SAFETY
B_ANGULAR_MARGIN = 0.1
B_SAFETY = 1.5
#: highest trigonometric order in random_trig_fields
TRIG_KMAX = 6


@dataclass(frozen=True)
class CoercivityReport:
    """Measured coercivity constants of the shifted quadratic form.

    For all sampled beta = a + i b with |a| >= beta0 and |b| <= alpha |a|,
    the minimum over random fields of
    Re{a_L + beta b_L + beta^2 c_L}(v, v) / |v|_1^2 stayed >= c_const > 0.
    samples holds every probed (beta, min quotient) pair, including the
    sub-beta0 region where the quotient may be negative.
    """

    beta0: float
    alpha: float
    c_const: float
    samples: tuple


@dataclass(frozen=True)
class ResolventScan:
    """Resolvent norms along the five rays.

    norms[j, k] is the energy-metric operator norm of the resolvent at
    z = moduli[k] exp(i rays[j]); hs_norms the Frobenius analogue (the
    Hilbert-Schmidt proxy).  Probes that collided with the spectrum are
    NaN in both arrays and listed in skipped as (ray index, modulus).
    """

    rays: tuple
    sample_moduli: tuple
    norms: np.ndarray
    hs_norms: np.ndarray
    skipped: tuple
    theta0: float

    def __post_init__(self):
        self.norms.flags.writeable = False
        self.hs_norms.flags.writeable = False


@dataclass(frozen=True)
class ExpansionReport:
    """Relative energy-norm residuals of k-mode approximations.

    residuals[i] is the distance from the target displacement profile to
    the span of the first n_modes_used[i] mode profiles (nested, so
    residuals are nonincreasing in k).
    """

    n_modes_used: tuple
    residuals: tuple


def five_rays() -> tuple:
    """Companion-plane angles theta_j = 2(j-1) pi/5 + pi/2, j = 1..5."""
    return tuple(2.0 * j * np.pi / 5.0 + np.pi / 2.0 for j in range(5))


def in_sector(beta: complex, theta0: float) -> bool:
    """Whether beta lies in the double sector |arg(+-beta)| <= theta0."""
    a = abs(np.angle(complex(beta)))
    return a <= theta0 or np.pi - a <= theta0


def _probe_blocks(op: DiscreteOperator) -> list:
    """(a, b, split, h, c) for each block of eigen._pairings, set up once per
    scan, and once per operator for resolvent_norms (_operator_blocks).

    a, b are the folded, row-scaled lam form (eigen._scaled_block), which
    lists its split u1 indices first; h = [L1^H; L2^H] and c = L2^H L1^-H
    for the Cholesky factors L1, L2 of G1, G2 folded with the state signs.
    """
    pencil, dim = op.pencil, op.mask.size // 2
    a, b = _lambda_form(pencil)
    halves = (op.gram[:dim, :dim], op.gram[dim:, dim:])
    out = []
    for _parity, pairing in _pairings(pencil):
        if pairing is None:
            index, metrics = np.arange(dim), halves
        else:
            index, mir, sign, _row_sign = pairing
            metrics = (_fold(g, index, mir, sign, sign) for g in halves)
        l1, l2 = (np.linalg.cholesky(g) for g in metrics)
        split = int(np.count_nonzero(index < pencil.grid.n)) if pencil.n_channels == 2 else 0
        out.append((*_scaled_block(a, b, pairing)[:2], split, np.vstack([l1.T, l2.T]),
                    _lapack.trtrs(l1, l2, lower=True).T))
    return out


def _resolvent_probe(blocks: list, z: complex, rcond_min: float):
    """Energy-metric norms of (m - z E)^-1 E from the blocks of _probe_blocks.

    Each block's LU of R (A + z^2 B) passes the gate of eigen._shifted_lu
    at rcond_min, or the probe returns None without solving further.  It
    gives the U1 rows X = -Z (R (A + z^2 B))^-1 Z^-1 [Q1 + z Q2, Q2] of the
    block of R(z), and with Y = X L^-H, L^H R(z) L^-H = [L1^H Y; z L2^H Y]
    + [[0, 0], [c, 0]].  The operator norm is the largest block norm and
    the squared Hilbert-Schmidt norm the sum of the blocks' squares.
    """
    z = complex(z)
    op_norms, hs_norms = [], []
    for a, b, split, h, c in blocks:
        factors = _shifted_lu(a, b, -z * z, rcond_min)
        if factors is None:
            return None
        q13, q31, q2 = _square_terms(a, b, split)
        size, diag = q2.size, np.arange(q2.size)
        x = np.zeros((size, 2 * size), dtype=complex, order="F")
        x[:split, split:size], x[split:, :split] = q13, q31
        x[diag, diag] += z * q2
        x[diag, diag + size] = q2
        x[:split] /= z
        # this is -X, and t below is -L^H R(z) L^-H, which has the same norms
        x = _lapack.getrs(*factors, x, overwrite_b=True)
        del factors
        x[:split] *= z
        for cols, chol in ((slice(None, size), h[:size].T), (slice(size, None), h[size:].T)):
            x[:, cols] = _lapack.trtrs(chol, x[:, cols].T, lower=True).T
        t = _real_matmul(h, x)
        del x
        t[size:] *= z
        t[size:, :size] -= c
        hs_norms.append(float(np.linalg.norm(t, "fro")))
        op_norms.append(_norm2(t))
    return max(op_norms), float(np.linalg.norm(hs_norms))


def _norm2(a: np.ndarray) -> float:
    """The 2-norm of the matrix a, its largest singular value, which a may be
    overwritten to find: the bits of np.linalg.norm(a, 2), through the
    GIL-free _lapack.gesdd."""
    return float(_lapack.gesdd(a, overwrite_a=True)[0])


def resolvent_norms(op: DiscreteOperator, z: complex):
    """Energy-metric operator and Frobenius norms of (m - z E)^-1 E.

    z must be finite and nonzero (Z is singular at 0, off every ray), with
    |z|^2 finite, since the probe factors at z^2.  The LU stays backward
    stable at an eigenvalue, so nothing fails there; the norms just grow
    without bound (resolvent_scan skips such probes by their reciprocal
    condition).  The blocks are set up on the first call for op and reused
    by every later one (_operator_blocks).
    """
    if not np.isfinite(z) or z == 0:
        raise ValueError("z must be finite and nonzero")
    z = complex(z)
    if not np.isfinite(z.real * z.real + z.imag * z.imag):
        raise ValueError("|z|^2 must be finite (|z| below about 1.34e154)")
    return _resolvent_probe(_operator_blocks(op), z, 0.0)


def _operator_blocks(op: DiscreteOperator) -> list:
    """_probe_blocks(op), set up on the first call for op and then kept in
    op's instance dict, where its cached properties live: the blocks go
    when op goes, and no module state holds either."""
    kept = vars(op)
    if "_probe_blocks" not in kept:
        kept["_probe_blocks"] = _probe_blocks(op)
    return kept["_probe_blocks"]


def _checked_moduli(moduli) -> tuple:
    """The moduli as floats; ValueError unless finite with finite squares, positive, increasing."""
    moduli = tuple(float(m) for m in moduli)
    if not all(np.isfinite(moduli)):
        raise ValueError("moduli must be finite")
    if not all(np.isfinite(m * m) for m in moduli):
        raise ValueError("moduli must have finite squares (below about 1.34e154)")
    if not moduli or any(m <= 0 for m in moduli):
        raise ValueError("moduli must be positive")
    if any(b <= a for a, b in zip(moduli, moduli[1:])):
        raise ValueError("moduli must be strictly increasing")
    return moduli


def resolvent_scan(op: DiscreteOperator, theta0: float, moduli,
                   threads: int = 1) -> ResolventScan:
    """Probe the resolvent norms on the five rays at the given moduli.

    Validates 2 pi/5 < theta0 < pi/2, which puts every ray direction, and
    so every probed beta = -i z, in the double sector of half-angle
    theta0 (see the module docstring); moduli must be finite with finite
    squares, positive and strictly increasing.  Each probe factors the
    reflection blocks of the lam form at z^2 (set up once per scan).  A
    probe where some block's LU has a reciprocal condition below RCOND_MIN
    sits on the spectrum to working precision; it is recorded as NaN and
    listed in skipped, deterministically ordered by (ray index, modulus).

    Only rays 0, 1 and 2 are probed, 3 len(moduli) probes in all: 9 for
    the CLI's default moduli on the n = 64 plate, which stop at the
    largest retained |beta| (cli._scan_moduli).  Rays 3 and 4 are the
    mirror images z -> -conj z of rays 2 and 1, where the norms are equal
    because m, E and G are real and P m P = -m, P E P = E, P G P = G for
    the state reflection P (module docstring).  Their rows, skips
    included, are copies of rows 2 and 1.

    The probes are independent: they are the tasks of eigen._run_tasks,
    in (ray, modulus) order, on up to threads threads.  Their LAPACK calls,
    the 2-norm's SVD among them (_norm2), go through ctypes and release
    the GIL, and each is the same on any thread, so the scan is the same
    bits at any thread count.
    """
    if not (THETA0_MIN < theta0 < THETA0_MAX):
        raise ValueError("theta0 outside the admissible interval (2*pi/5, pi/2)")
    moduli = _checked_moduli(moduli)
    blocks = _probe_blocks(op)
    rays = five_rays()
    probes = _run_tasks([functools.partial(_resolvent_probe, blocks,
                                           mod * np.exp(1j * theta), RCOND_MIN)
                         for theta in rays[:3] for mod in moduli], threads)
    norms = np.full((len(rays), len(moduli)), np.nan)
    hs = np.full_like(norms, np.nan)
    gated = np.zeros(norms.shape, dtype=bool)
    for (j, k), probe in zip(np.ndindex(3, len(moduli)), probes):
        if probe is None:
            gated[j, k] = True
        else:
            norms[j, k], hs[j, k] = probe
    for rows in (norms, hs, gated):
        rows[3:] = rows[2:0:-1]
    skipped = tuple((int(j), moduli[k]) for j, k in zip(*np.nonzero(gated)))
    return ResolventScan(rays=rays, sample_moduli=moduli, norms=norms,
                         hs_norms=hs, skipped=skipped, theta0=float(theta0))


def measured_b(mode_set: ModeSet) -> float:
    """Measured lower modulus B for the ray scans.

    The largest retained |beta| lying within B_ANGULAR_MARGIN of one of
    the five beta-plane ray directions, stretched by B_SAFETY; 1.0 when
    no retained eigenvalue comes near any ray.  Every mode is measured
    against every direction at once; |beta| is np.hypot of its parts, the
    bits of abs(beta), which np.abs of a complex array (a vectorized
    kernel) can miss by an ulp.
    """
    ray_dirs = np.array([2.0 * j * np.pi / 5.0 for j in range(5)])
    betas = mode_set.betas
    dist = np.min(np.abs(np.angle(np.exp(1j * (np.angle(betas)[:, None] - ray_dirs)))),
                  axis=1)
    near = betas[dist <= B_ANGULAR_MARGIN]
    worst = float(np.max(np.hypot(near.real, near.imag), initial=0.0))
    return float(B_SAFETY * worst) if worst > 0.0 else 1.0


def _field_terms(forms: FormMatrices, fields: np.ndarray):
    """Quadrature values of the four form terms, from derivative values.

    fields is one component-stacked profile, whose terms come back as
    floats, or a stack of them, one per row, whose terms come back as
    arrays over the rows.  Evaluating through weighted sums of point
    values (rather than through the assembled matrices) keeps constant
    fields exact: their derivative vectors vanish identically, so no
    cancellation of large stiffness entries can pollute the zero-order
    terms.  Each row is differentiated alone, against d1 cast to complex
    once: that gives the bits of d1 @ v, which one product d1 @ V over the
    stack does not.
    """
    a, c, d = forms.coefficients.a, forms.coefficients.c, forms.coefficients.d
    grid = forms.grid
    w = grid.quad_weights
    v = np.atleast_2d(np.asarray(fields, dtype=complex))
    v1, v3 = v[:, :grid.n], v[:, grid.n:]
    d1 = grid.d1.astype(complex)
    d1v1 = np.array([d1 @ row for row in v1])
    d1v3 = np.array([d1 @ row for row in v3])
    a0 = np.sum(w * (a[0, 0] * np.abs(d1v1) ** 2 + a[1, 1] * np.abs(d1v3) ** 2), axis=1)
    plain_mass = np.sum(w * (np.abs(v1) ** 2 + np.abs(v3) ** 2), axis=1)
    b_term = 2.0 * np.real(1j * (
        d[0, 1] * np.sum(w * np.conj(d1v1) * v3, axis=1)
        - d[1, 0] * np.sum(w * np.conj(v1) * d1v3, axis=1)))
    c_term = np.sum(w * (c[0, 0] * np.abs(v1) ** 2 + c[1, 1] * np.abs(v3) ** 2), axis=1)
    terms = (a0, plain_mass, forms.material.rho * plain_mass, b_term, c_term)
    if np.ndim(fields) == 1:
        return tuple(float(term[0]) for term in terms)
    return terms


def quadratic_form_value(forms: FormMatrices, beta: complex, v: np.ndarray,
                         method: str = "factored") -> float:
    """Re{a_L + beta b_L + beta^2 c_L}(v, v) for beta = a + i b.

    Since b_L and c_L are Hermitian their diagonal values are real, so
    the real part is a_L + a b_L + (a^2 - b^2) c_L.  method "factored"
    evaluates through weighted derivative sums (exact on constants),
    "matrices" contracts the assembled form matrices; the two agree to
    machine precision and acceptance pins them together at 1e-12.
    """
    a, b = float(np.real(beta)), float(np.imag(beta))
    v = np.asarray(v, dtype=complex)
    omega = forms.material.omega
    if method == "factored":
        a0, _, rho_mass, b_term, c_term = _field_terms(forms, v)
        return (a0 - omega ** 2 * rho_mass + a * b_term
                + (a * a - b * b) * c_term)
    if method == "matrices":
        def quad(g):
            return float(np.real(np.vdot(v, g @ v)))
        return (quad(forms.g_a0) - omega ** 2 * quad(forms.g_l)
                + a * quad(forms.g_b) + (a * a - b * b) * quad(forms.g_c))
    raise ValueError(f"unknown evaluation method {method!r}")


def coercivity_scan(forms: FormMatrices, alpha: float,
                    n_samples: int, seed: int = 0) -> CoercivityReport:
    """Measure beta0 and C for the sector |b| <= alpha |a|, |a| >= beta0.

    Minimizes the Rayleigh quotient (shifted form over the H^1-type norm
    a_0(v,v) + |v|_0^2) over n_samples fixed random complex fields, at
    every point of a geometric |a| grid with b in {0, +-alpha |a|} and
    both signs of a.  beta0 is the smallest grid value from which the
    minimum stays positive through the grid's end, C the infimum beyond
    it.  The random fields are drawn once from the given seed, so reports
    are reproducible.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie in (0, 1)")
    if n_samples < 1:
        raise ValueError("n_samples must be positive")
    rng = np.random.default_rng(seed)
    dim = 2 * forms.grid.n
    fields = rng.standard_normal((n_samples, dim)) + 1j * rng.standard_normal((n_samples, dim))

    a0, plain_mass, rho_mass, b_term, c_term = _field_terms(forms, fields)
    omega = forms.material.omega

    # six points per |a| of the grid, in scan order: a = +-|a|, each with
    # b = 0, +-alpha |a|; row k of num holds point k against every field
    a_grid = np.geomspace(0.25, 64.0, 33)
    a = np.outer(a_grid, [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]).ravel()
    b = np.outer(alpha * a_grid, [0.0, 1.0, -1.0, 0.0, 1.0, -1.0]).ravel()
    num = (a0 - omega ** 2 * rho_mass + a[:, None] * b_term
           + (a * a - b * b)[:, None] * c_term)
    quotients = np.min(num / (a0 + plain_mass), axis=1)
    samples = tuple((complex(x, y), float(q)) for x, y, q in zip(a, b, quotients))

    grid_minima = np.min(quotients.reshape(-1, 6), axis=1)
    tail_minima = np.minimum.accumulate(grid_minima[::-1])[::-1]
    positive = np.flatnonzero(tail_minima > 0.0)
    if positive.size:
        beta0, c_const = a_grid[positive[0]], tail_minima[positive[0]]
    else:
        # no positive tail; report the full scan with C <= 0 verbatim
        beta0, c_const = a_grid[-1], grid_minima[-1]
    return CoercivityReport(beta0=float(beta0), alpha=float(alpha),
                            c_const=float(c_const), samples=samples)


def expand_field(source: ModeSet | BiorthogonalSystem, target: np.ndarray, ks) -> ExpansionReport:
    """Best k-mode approximations of a displacement profile in the energy norm.

    The target (length dim = op.mask.size // 2) is expanded over the mode
    profiles source.states[:dim] in their column order (a ModeSet's |beta|
    order, a BiorthogonalSystem's cluster order) in the first-block metric,
    the measurement of completeness: the span of the generalized
    eigenvectors is dense.
    Full states are not accepted: under strong boundary collocation every
    mode state satisfies the replaced boundary rows exactly, so full-state
    spans have a fixed small codimension that an arbitrary state cannot
    enter (those directions belong to the infinite eigenvalues of the
    masked linearization, which are discretization artifacts).

    ks must be strictly increasing.  The residual at k is the distance
    from the target to the span of the first k modes, computed by direct
    projection from one nested QR factorization; the running minimum over
    k is returned, which changes float noise only (nested spans make the
    exact sequence nonincreasing).  Each call factors the basis afresh;
    _expand_fields serves several targets from one factorization.
    """
    return _expand_fields(source, (target,), ks)[0]


def _expand_fields(source: ModeSet | BiorthogonalSystem, targets, ks) -> list:
    """expand_field's report for each of targets, from one QR of the
    weighted basis: every report has the bits of expand_field on its
    target alone, and nothing is kept on source."""
    op, count = source.op, source.states.shape[1]
    ks = tuple(int(k) for k in ks)
    if not count:
        raise ValueError("empty mode set")
    if not ks or any(k < 1 or k > count for k in ks):
        raise ValueError("each k must satisfy 1 <= k <= number of modes")
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("ks must be strictly increasing")
    dim = op.mask.size // 2
    # gram is block-diagonal, so its factor is too, and the factor's
    # leading block is the factor of the displacement metric
    chol_h = op.gram_cholesky[:dim, :dim].conj().T
    weighted = []
    for target in targets:
        target = np.asarray(target, dtype=complex)
        if target.shape != (dim,):
            raise ValueError(f"target length must be {dim}, the length of a "
                             "displacement profile")
        t_hat = chol_h @ target
        t_norm = np.linalg.norm(t_hat)
        if t_norm == 0.0:
            raise ValueError("target vanishes in the energy norm")
        weighted.append((t_hat, t_norm))

    q, _ = np.linalg.qr(chol_h @ source.states[:dim], mode="reduced")
    q_h = q.conj().T
    wanted = set(ks)
    reports = []
    for t_hat, t_norm in weighted:
        proj = q_h @ t_hat
        residuals = []
        best = np.inf
        for k in range(1, ks[-1] + 1):
            r = np.linalg.norm(t_hat - q[:, :k] @ proj[:k]) / t_norm
            best = min(best, float(r))
            if k in wanted:
                residuals.append(best)
        reports.append(ExpansionReport(n_modes_used=ks, residuals=tuple(residuals)))
    return reports


def random_trig_fields(grid, count: int, seed: int,
                       vanish_lower: bool = False) -> tuple:
    """Seeded smooth displacement targets for completeness measurements.

    Each field is a two-component trigonometric polynomial of order
    TRIG_KMAX sampled on the grid nodes, with complex Gaussian
    coefficients damped like 1/(1+k^2).
    With vanish_lower=True the basis functions sin((2k+1) pi (y+h)/(4h))
    are used instead of cosines, so both components vanish at y = -h (the
    admissible class when the lower face is clamped) while staying free
    at y = +h.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    y, h = grid.nodes, grid.h
    fields = []
    for _ in range(count):
        pieces = []
        for _comp in range(2):
            f = np.zeros_like(y, dtype=complex)
            for k in range(TRIG_KMAX + 1):
                c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + k * k)
                if vanish_lower:
                    f += c * np.sin((2 * k + 1) * np.pi * (y + h) / (4.0 * h))
                else:
                    f += c * np.cos(k * np.pi * (y + h) / (2.0 * h))
            pieces.append(f)
        fields.append(np.concatenate(pieces))
    return tuple(fields)


def nonorthogonality_witness(mode_set: ModeSet):
    """The mode pair at distinct eigenvalues with the largest gram product.

    Modes are unit vectors in the energy metric, so any value well above
    zero witnesses a non-orthogonal eigensystem.  Pairs whose eigenvalues
    coincide to DEFECT_PAIR_TOL (see eigen._coincide) are one eigenvalue,
    the halves of a split defective one among them, whose two computed
    eigenvectors are nearly parallel; they are excluded.  Returns
    ((index_m, index_n), |<V_m, V_n>_gram|).
    """
    basis, mus = mode_set.states, mode_set.mu
    if mus.size < 2:
        raise ValueError("need at least two retained modes")
    # pairs i < j in row-major order, of which argmax takes the first
    # maximum; a coinciding pair reads -1, so if all do, (0, 1) comes back
    i, j = np.triu_indices(mus.size, 1)
    prods = np.abs(basis.conj().T @ mode_set.op.gram @ basis)[i, j]
    prods[_coincide(mus, mus, DEFECT_PAIR_TOL)[i, j]] = -1.0
    k = int(np.argmax(prods))
    return (int(i[k]), int(j[k])), float(prods[k])


def _eliminated_operator(op: DiscreteOperator):
    """(T, G_y) of the masked problem with its boundary rows B V = 0 solved out.

    B reaches U2 only at the 2c face coordinates, through its block K.  Z
    is the identity on the kept coordinates and sets U2[face] = -K^-1
    B[:, kept], so T = (m Z)[kept] (Z's U2 rows, then the interior rows of
    _companion_rows times Z) has the finite eigenpairs of m V = z E V, and
    G_y = Z^T G Z.  K is singular on the SH channel and the clamped face.
    """
    dim = op.mask.size // 2
    rows = _companion_rows(op.pencil)
    kept, face = op.mask == 1.0, op.mask == 0.0
    boundary = rows[face[dim:]]
    coupling = boundary[:, face]
    if np.linalg.cond(coupling) > 1e10:
        raise np.linalg.LinAlgError(
            "constraint elimination is singular: the boundary rows do not fix "
            "the U2 face values (the scalar SH channel, a clamped face)")
    z = np.zeros((2 * dim, np.count_nonzero(kept)))
    z[kept] = np.eye(z.shape[1])
    z[face] = -np.linalg.solve(coupling, boundary[:, kept])
    t = np.vstack([z[dim:], rows[kept[dim:]] @ z])
    return t, z.T @ (op.gram @ z)


def adjoint_defect(op: DiscreteOperator, threads: int = 1) -> float:
    """Relative energy-norm distance between the constrained operator and
    its gram adjoint.

    The boundary rows are eliminated (_eliminated_operator, valid for the
    traction-free in-plane problem), the reduced operator T is transformed
    into the metric where the gram is the identity, and |S - S^H| / |S| is
    returned; zero would mean the operator is self-adjoint in the energy
    product.  The two 2-norms (_norm2) are two tasks of eigen._run_tasks on
    up to threads threads; the quotient is the same bits at any count.
    """
    t, gram_y = _eliminated_operator(op)
    chol = np.linalg.cholesky(gram_y)
    # L^H T L^-H, the similarity taking gram-metric norms to Euclidean
    s = chol.conj().T @ _lapack.trtrs(chol.conj().T, t.conj().T, trans="C").conj().T
    del t, gram_y, chol
    skew, whole = _run_tasks([functools.partial(_norm2, s - s.conj().T),
                              functools.partial(_norm2, s)], threads)
    return skew / whole
