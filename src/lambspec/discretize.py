"""Chebyshev collocation of the plate cross-section pencil.

The through-thickness profiles live on a Chebyshev-Gauss-Lobatto grid over
[-h, h] (ascending, exactly antisymmetric node set, so reflection is an
exact discrete symmetry).  Three objects are assembled here:

* FormMatrices -- quadrature realizations of the sesquilinear forms: the
  gradient stiffness form, the mass form, the first-order coupling form
  (Hermitian by construction), and the zero-order compression form;
* DiscretePencil -- rectangular stacks k0, k1, k2 with the interior rows
  collocated at every node and four boundary rows appended, so
  P(mu) = k0 + mu k1 + mu^2 k2 evaluates the full boundary-value pencil;
* DiscreteOperator -- the masked first-order companion problem on stacked
  states (U1, U2) ~ (v, i beta v): a 0/1 row mask singling out the
  second-block rows replaced by the traction (or clamping) conditions,
  the energy Gram matrix (gradient stiffness + plain mass on U1,
  compression mass on U2), and the companion matrix m, built when read.

The pencil is the one place where coefficient blocks and boundary rows
are written; the energy metric, the companion's rows (_companion_rows)
and the half-size linear form in lam = mu^2 (_lambda_form), the only form
the mode solver and the resolvent probes factor, are read off it.
Boundary conditions enter by row replacement only; no basis recombination.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .core import BCKind, Material, PencilCoefficients, pencil_coefficients

__all__ = [
    "DiscreteOperator",
    "DiscretePencil",
    "FormMatrices",
    "Grid",
    "assemble_operator",
    "chebyshev_grid",
    "pencil_residual",
    "pencil_scale",
    "pencil_value",
    "sesquilinear_forms",
]


@dataclass(frozen=True)
class Grid:
    """Chebyshev-Gauss-Lobatto grid on [-h, h] with spectral calculus.

    nodes are ascending; d1 is the dense differentiation matrix, d2 its
    square; quad_weights are Clenshaw-Curtis weights, exact for
    polynomials up to degree n-1 (the exactness_degree attribute).
    """

    n: int
    h: float
    nodes: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    quad_weights: np.ndarray

    @property
    def exactness_degree(self) -> int:
        return self.n - 1

    def __post_init__(self):
        for arr in (self.nodes, self.d1, self.d2, self.quad_weights):
            arr.flags.writeable = False


def _clenshaw_curtis(n_intervals):
    """Clenshaw-Curtis weights for the n_intervals+1 extrema of T_{n_intervals}."""
    big_n = n_intervals
    theta = np.pi * np.arange(big_n + 1) / big_n
    w = np.zeros(big_n + 1)
    ii = np.arange(1, big_n)
    v = np.ones(big_n - 1)
    if big_n % 2 == 0:
        w[0] = w[big_n] = 1.0 / (big_n * big_n - 1)
        for k in range(1, big_n // 2):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
        v -= np.cos(big_n * theta[ii]) / (big_n * big_n - 1)
    else:
        w[0] = w[big_n] = 1.0 / (big_n * big_n)
        for k in range(1, (big_n - 1) // 2 + 1):
            v -= 2.0 * np.cos(2.0 * k * theta[ii]) / (4.0 * k * k - 1)
    w[ii] = 2.0 * v / big_n
    return w


def chebyshev_grid(n: int, h: float) -> Grid:
    """Build the n-node Gauss-Lobatto grid on [-h, h].

    Requires n >= 3 (nodes {-h, 0, h} at n = 3) and h > 0.  The diagonal of
    d1 is set by negated row sums, so constants differentiate to exactly
    zero; d2 = d1 @ d1.
    """
    if n < 3:
        raise ValueError("n too small: need at least 3 collocation nodes")
    if h <= 0.0:
        raise ValueError("h ≤ 0")
    big_n = n - 1
    j = np.arange(n)
    x = np.cos(np.pi * j / big_n)
    x = 0.5 * (x - x[::-1])  # enforce exact antisymmetry of the node set
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** j
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    d = np.outer(c, 1.0 / c) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -d.sum(axis=1))
    w = _clenshaw_curtis(big_n)

    nodes = h * x[::-1]                # ascending -h .. h
    d1 = d[::-1, ::-1] / h
    weights = h * w[::-1]
    return Grid(n=n, h=float(h), nodes=nodes, d1=d1, d2=d1 @ d1, quad_weights=weights)


@dataclass(frozen=True)
class FormMatrices:
    """Quadrature matrices of the four sesquilinear forms on field vectors.

    Fields are stacked component-major: u = (u1 at nodes, u3 at nodes).
    g_a0 is the gradient stiffness form, g_l the rho-weighted mass form,
    g_b the Hermitian first-order coupling form (complex), g_c the
    compression form.  material and grid record the assembly context.
    """

    g_a0: np.ndarray
    g_l: np.ndarray
    g_b: np.ndarray
    g_c: np.ndarray
    material: Material
    grid: Grid

    def __post_init__(self):
        for m in (self.g_a0, self.g_l, self.g_b, self.g_c):
            m.flags.writeable = False


def sesquilinear_forms(material: Material, grid: Grid) -> FormMatrices:
    """Assemble the form matrices for the two-component in-plane problem.

    g_b realizes Integral lam(-i u1' conj(v3) + i u3 conj(v1)') +
    mu(-i u3' conj(v1) + i u1 conj(v3)'); its off-diagonal blocks are exact
    Hermitian transposes of each other, so v^H g_b v is real.
    """
    lam, mu, rho = material.lam, material.mu, material.rho
    w = grid.quad_weights
    wd = w[:, None] * grid.d1          # W @ D1
    stiff = grid.d1.T @ wd             # D1^T W D1
    wmat = np.diag(w)
    zero = np.zeros((grid.n, grid.n))

    g_a0 = np.block([[(lam + 2.0 * mu) * stiff, zero], [zero, mu * stiff]])
    g_l = rho * np.block([[wmat, zero], [zero, wmat]])
    g_c = np.block([[mu * wmat, zero], [zero, (lam + 2.0 * mu) * wmat]])

    x = lam * grid.d1.T @ wmat - mu * wd
    upper = 1j * x
    g_b = np.zeros((2 * grid.n, 2 * grid.n), dtype=complex)
    g_b[: grid.n, grid.n:] = upper
    g_b[grid.n:, : grid.n] = upper.conj().T
    return FormMatrices(g_a0=g_a0, g_l=g_l, g_b=g_b, g_c=g_c,
                        material=material, grid=grid)


@dataclass(frozen=True)
class DiscretePencil:
    """Rectangular collocation of the quadratic pencil.

    k0, k1, k2 are (c n + 2 c) x (c n) for c field components: the first
    c n rows collocate the interior operator at every node, the last 2 c
    rows hold the boundary conditions (order: components at +h, then
    components at -h).  P(mu) = k0 + mu k1 + mu^2 k2.  coefficients are
    the c×c blocks the stacks were collocated from.
    """

    k0: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    bc: BCKind
    grid: Grid
    material: Material
    coefficients: PencilCoefficients

    def __post_init__(self):
        for m in (self.k0, self.k1, self.k2):
            m.flags.writeable = False

    @property
    def n_channels(self) -> int:
        return self.coefficients.a.shape[0]


def pencil_value(pencil: DiscretePencil, mu: complex) -> np.ndarray:
    """P(mu) = k0 + mu k1 + mu^2 k2."""
    return pencil.k0 + mu * pencil.k1 + (mu * mu) * pencil.k2


def pencil_scale(pencil: DiscretePencil, mu: complex) -> float:
    """|k0| + |mu||k1| + |mu|^2|k2| (Frobenius norms), the size of P(mu)."""
    return (np.linalg.norm(pencil.k0) + abs(mu) * np.linalg.norm(pencil.k1)
            + abs(mu) ** 2 * np.linalg.norm(pencil.k2))


def _real_matmul(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """a @ x for real a and complex x, as one real product: a is never cast."""
    x = np.ascontiguousarray(x, dtype=complex)
    return (a @ x.view(np.float64)).view(complex)


def pencil_residual(pencil: DiscretePencil, mu, v: np.ndarray):
    """Normwise backward errors |P(mu_k) v_k| / (pencil_scale(mu_k) |v_k|).

    Column k of v belongs to mu[k], and P(mu) is never formed; a scalar mu
    with one vector v gives one float.  The raw residual |P(mu)v|/|v| scales
    with the collocation matrix norms (which grow like n^4), so the standard
    pencil-normalized backward error, which the acceptance thresholds refer
    to, is reported instead.
    """
    mu, cols = np.asarray(mu), v.reshape(v.shape[0], -1)
    r = _real_matmul(pencil.k2, cols) * mu  # Horner order
    r += _real_matmul(pencil.k1, cols)
    r *= mu
    r += _real_matmul(pencil.k0, cols)
    res = np.linalg.norm(r, axis=0) / (pencil_scale(pencil, mu)
                                       * np.linalg.norm(cols, axis=0))
    return res if v.ndim == 2 else float(res[0])


def _channel_pencil(material, grid, bc, coeff):
    """Collocate the pencil for an arbitrary c-component channel system."""
    a, b, c, d = coeff.a, coeff.b, coeff.c, coeff.d
    nch = a.shape[0]
    n = grid.n
    eye = np.eye(n)
    w2r = material.omega ** 2 * material.rho
    k0 = np.kron(a, grid.d2) + w2r * np.eye(nch * n)
    k1 = np.kron(b, grid.d1)
    k2 = np.kron(c, eye)

    def boundary_rows(node):
        return np.kron(a, grid.d1[node]), np.kron(d, eye[node])

    def clamp_rows(node):
        return np.kron(np.eye(nch), eye[node]), np.zeros((nch, nch * n))

    top0, top1 = boundary_rows(n - 1)
    if bc is BCKind.FREE_FREE:
        bot0, bot1 = boundary_rows(0)
    elif bc is BCKind.CLAMPED_FREE:
        bot0, bot1 = clamp_rows(0)
    else:
        raise ValueError(f"unsupported boundary condition {bc!r}")

    zeros = np.zeros_like(top0)
    k0 = np.vstack([k0, top0, bot0])
    k1 = np.vstack([k1, top1, bot1])
    k2 = np.vstack([k2, zeros, zeros])
    return DiscretePencil(k0=k0, k1=k1, k2=k2, bc=bc, grid=grid,
                          material=material, coefficients=coeff)


@dataclass(frozen=True)
class DiscreteOperator:
    """Masked first-order companion problem of the pencil, with its energy Gram matrix.

    States stack (U1, U2); eigenvectors satisfy U2 = z U1 with z = i beta.
    mask is the diagonal of the right-hand-side selector E: one on
    collocation rows, zero on the 2c second-block rows that the boundary
    rows replace (_face_rows), so the spectral problem reads m V = z E V
    and resolvent systems (m - z E) U = E F; no solver path builds m.
    """

    mask: np.ndarray
    pencil: DiscretePencil

    def __post_init__(self):
        self.mask.flags.writeable = False

    @cached_property
    def m(self) -> np.ndarray:
        """Companion form [[0, I], _companion_rows] of the pencil.

        Built on first read, which no solve, probe or check makes; the
        tests' QZ oracles and the benchmark's operator count read it.
        Read-only.
        """
        dim = self.mask.size // 2
        m = np.block([[np.zeros((dim, dim)), np.eye(dim)],
                      [_companion_rows(self.pencil)]])
        m.flags.writeable = False
        return m

    @cached_property
    def gram(self) -> np.ndarray:
        """Energy metric blockdiag(a-stiffness + plain mass, c-mass).

        Hermitian positive definite: gradient stiffness plus unweighted
        mass on U1, compression mass on U2.  Built from the pencil on
        first use, so solves that never read it never allocate it.
        """
        grid, coeff = self.pencil.grid, self.pencil.coefficients
        w = grid.quad_weights
        stiff = grid.d1.T @ (w[:, None] * grid.d1)
        wmat = np.diag(w)
        g1 = np.kron(coeff.a, stiff) + np.kron(np.eye(self.pencil.n_channels), wmat)
        gram = scipy.linalg.block_diag(g1, np.kron(coeff.c, wmat))
        gram.flags.writeable = False
        return gram

    @cached_property
    def gram_cholesky(self) -> np.ndarray:
        """Lower Cholesky factor L of gram = L L^H, factored once.  Read-only."""
        chol = np.linalg.cholesky(self.gram)
        chol.flags.writeable = False
        return chol


def _face_rows(n: int, nch: int) -> list:
    """Where the pencil's boundary rows go in a square c n system, in stack order.

    The pencil lists the boundary rows of every component at +h, then at
    -h; each replaces the collocation row of its component and face.
    """
    return [i * n + node for node in (n - 1, 0) for i in range(nch)]


def _companion_rows(pencil: DiscretePencil) -> np.ndarray:
    """Second block row [-C^-1 k0 | -C^-1 k1] of the companion, boundary rows in place.

    Interior rows are the pencil's, scaled by C^-1 per component block
    (k2 = C x I there, C diagonal).  Each boundary row [k0_b | k1_b]
    replaces the row of its component and face (_face_rows).
    """
    n, nch = pencil.grid.n, pencil.n_channels
    dim = nch * n
    scale = -np.repeat(np.diagonal(np.linalg.inv(pencil.coefficients.c)), n)[:, None]
    rows = np.hstack([scale * pencil.k0[:dim], scale * pencil.k1[:dim]])
    rows[_face_rows(n, nch)] = np.hstack([pencil.k0[dim:], pencil.k1[dim:]])
    return rows


def _square_terms(a: np.ndarray, b: np.ndarray, split: int):
    """(Q1_13, Q1_31, q2) of the square pencil, read off its (folded, row-scaled) lam form.

    _lambda_form keeps Q1's nonzero (v1, v3) and (v3, v1) blocks as A's and
    B's, and the diagonal Q2 as B's diagonal q2.  split is where the v3
    indices start: n, the v1 count of a folded block (which lists them
    first), or 0 for the scalar channel, whose Q1 is zero.
    """
    return a[:split, split:], b[split:, :split], np.diagonal(b)


def _lambda_form(pencil: DiscretePencil):
    """(A, B) of the square c n x c n pencil A + lam B in lam = mu^2.

    The square pencil Q(mu) = Q0 + mu Q1 + mu^2 Q2 holds the stacks'
    boundary rows at _face_rows.  With D = diag(I, -I) on (v1, v3) it
    satisfies D Q0 D = Q0, D Q1 D = -Q1 and D Q2 D = Q2, because a and c
    are diagonal, b and d off-diagonal and the clamp rows diagonal.  So
    u = (mu x1, x3), with the v1 rows divided by mu, turns Q(mu) u = 0 into
    (A + lam B) x = 0 with A = [[Q0_11, Q1_13], [0, Q0_33]] and
    B = [[Q2_11, 0], [Q1_31, Q2_33]]; the scalar channel has Q1 = 0, so
    there A = Q0 and B = Q2.  Q2 is diagonal, and zero on the boundary rows.
    """
    n, nch = pencil.grid.n, pencil.n_channels
    dim, rows = nch * n, _face_rows(n, nch)
    a, q1, b = (k[:dim].copy() for k in (pencil.k0, pencil.k1, pencil.k2))
    for q, k in ((a, pencil.k0), (q1, pencil.k1), (b, pencil.k2)):
        q[rows] = k[dim:]
    if nch == 2:
        a[:n, n:] = q1[:n, n:]
        b[n:, :n] = q1[n:, :n]
    return a, b


def assemble_operator(material: Material, n: int, bc: BCKind,
                      n_channels: int = 2) -> DiscreteOperator:
    """Grid + pencil + masked companion problem of one operating point.

    n_channels = 2 is the in-plane (Lamb) problem with the blocks of
    pencil_coefficients(material).  n_channels = 1 is the scalar
    shear-horizontal channel with 1x1 blocks (mu, 0, mu, 0), whose faces
    are traction-free only; it validates the solver against the
    closed-form SH spectrum.  The pencil and grid ride along as op.pencil
    and op.pencil.grid.
    """
    grid = chebyshev_grid(n, material.h)
    if n_channels == 1:
        if bc is not BCKind.FREE_FREE:
            raise ValueError("the SH channel is traction-free only: bc must be free-free")
        mu = np.array([[material.mu]])
        zero = np.zeros((1, 1))
        coeff = PencilCoefficients(a=mu, b=zero, c=mu, d=zero)
    elif n_channels == 2:
        coeff = pencil_coefficients(material)
    else:
        raise ValueError(f"unsupported channel count {n_channels}")
    dim = n_channels * n
    mask = np.ones(2 * dim)
    mask[dim:][_face_rows(n, n_channels)] = 0.0
    return DiscreteOperator(mask=mask, pencil=_channel_pencil(material, grid, bc, coeff))
