"""Closed-form references the spectral solver is checked against.

Everything here is built from the fundamental solutions of the through-
thickness ODE system, independently of any collocation machinery:

* transcendental dispersion determinants for the traction-free plate
  (parity-reduced Rayleigh-Lamb forms) and for the clamped/free plate,
* a certified complex root finder (argument-principle box subdivision
  followed by Newton polishing),
* the shear-horizontal spectrum, which is available in closed form,
* the half-space stable solutions and their boundary system, whose
  determinant must come out as -beta,
* a locator for double roots of the dispersion function
  (zero-group-velocity points).

All determinants are premultiplied by a positive real scale
exp(-h(|Im p| + |Im q|)) so they stay bounded for large |beta|; a positive
scale moves no zeros and changes no winding numbers.
"""

from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np

from .core import BCKind, Material, pencil_coefficients

__all__ = [
    "DispersionFunction",
    "RootCertificationError",
    "StableSolutionReport",
    "find_zero_group_velocity_point",
    "rayleigh_lamb_roots",
    "sh_modes_closed_form",
    "stable_solution_check",
    "winding_number",
]

SYMMETRIC = "symmetric"
ANTISYMMETRIC = "antisymmetric"

#: nodes of the half-space grid behind stable_solution_check
STABLE_N_NODES = 36
#: frequencies sampled per bracket scan in find_zero_group_velocity_point
ZGV_N_SCAN = 80


class RootCertificationError(RuntimeError):
    """Root search could not be certified by the argument principle."""


class _ContourThroughRoot(Exception):
    """Internal: a contour sample landed on (or indistinguishably near) a root."""


# ----------------------------------------------------------------------
# entire building blocks
#
# cos(x sqrt(z)) and sin(x sqrt(z))/sqrt(z) are entire functions of z, so
# every determinant below is single-valued: no branch cuts to track.  The
# "_scaled" variants carry the factor exp(-|Im(x sqrt(z))|).

def _cos_sqrt_scaled(z, x):
    u = x * np.sqrt(np.asarray(z, dtype=complex))
    s = np.abs(u.imag)
    return 0.5 * (np.exp(1j * u - s) + np.exp(-1j * u - s))


def _sinc_sqrt_scaled(z, x):
    z = np.asarray(z, dtype=complex)
    u = x * np.sqrt(z)
    s = np.abs(u.imag)
    small = np.abs(u) < 1e-4
    u2 = u * u
    series = x * (1.0 - u2 / 6.0 * (1.0 - u2 / 20.0 * (1.0 - u2 / 42.0))) * np.exp(-s)
    u_safe = np.where(small, 1.0, u)
    direct = x * (np.exp(1j * u_safe - s) - np.exp(-1j * u_safe - s)) / (2j * u_safe)
    return np.where(small, series, direct)


@dataclass(frozen=True)
class DispersionFunction:
    """Scaled dispersion determinant as a function of the wavenumber beta.

    For the traction-free plate the parity-reduced determinants are used
    (``parity`` is "symmetric" or "antisymmetric"; ``parity=None`` returns
    their product, whose zero set is the full spectrum).  For the
    clamped/free plate (``bc=BCKind.CLAMPED_FREE``) a 4x4 determinant over
    the trigonometric fundamental system is evaluated and ``parity`` must
    be None, since clamping one face breaks the symmetry split.

    The returned values are entire in beta**2: even in beta, real for real
    beta, and conjugate-symmetric.
    """

    material: Material
    parity: str | None
    bc: BCKind = BCKind.FREE_FREE

    def __post_init__(self):
        if self.parity not in (SYMMETRIC, ANTISYMMETRIC, None):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.bc is BCKind.CLAMPED_FREE and self.parity is not None:
            raise ValueError("clamped/free plate has no parity split; use parity=None")

    @property
    def contour_samples_per_unit(self):
        """Sampling density needed to track the phase along contours.

        The scaled determinants rotate like exp(i c (p+q) h) with c = 1 for a
        single parity determinant and c = 2 for the 4x4 (or product) form, a
        rate of at most ~4ch radians per unit of beta; 12ch samples per unit
        keeps each increment safely below the pi aliasing limit.
        """
        base = 12.0 * self.material.h
        if self.bc is BCKind.CLAMPED_FREE or self.parity is None:
            return 2.0 * base
        return base

    def wavenumbers_squared(self, beta):
        """Partial-wave squares p^2 (pressure) and q^2 (shear)."""
        m = self.material
        b2 = np.asarray(beta, dtype=complex) ** 2
        w2r = m.omega * m.omega * m.rho
        return w2r / (m.lam + 2.0 * m.mu) - b2, w2r / m.mu - b2

    def __call__(self, beta):
        scalar = np.isscalar(beta) or getattr(beta, "shape", ()) == ()
        beta = np.asarray(beta, dtype=complex)
        if self.bc is BCKind.CLAMPED_FREE:
            out = self._clamped_free(beta)
        elif self.parity == SYMMETRIC:
            out = self._symmetric(beta)
        elif self.parity == ANTISYMMETRIC:
            out = self._antisymmetric(beta)
        else:
            out = self._symmetric(beta) * self._antisymmetric(beta)
        return complex(out) if scalar else out

    def _symmetric(self, beta):
        h = self.material.h
        b2 = beta * beta
        p2, q2 = self.wavenumbers_squared(beta)
        cp = _cos_sqrt_scaled(p2, h)
        sp = _sinc_sqrt_scaled(p2, h)
        cq = _cos_sqrt_scaled(q2, h)
        sq = _sinc_sqrt_scaled(q2, h)
        return (q2 - b2) ** 2 * cp * sq + 4.0 * b2 * p2 * sp * cq

    def _antisymmetric(self, beta):
        h = self.material.h
        b2 = beta * beta
        p2, q2 = self.wavenumbers_squared(beta)
        cp = _cos_sqrt_scaled(p2, h)
        sp = _sinc_sqrt_scaled(p2, h)
        cq = _cos_sqrt_scaled(q2, h)
        sq = _sinc_sqrt_scaled(q2, h)
        return (q2 - b2) ** 2 * sp * cq + 4.0 * b2 * q2 * sq * cp

    def _clamped_free(self, beta):
        # The determinant is even in beta; canonicalizing the sign makes the
        # float evaluation exactly even as well (the seam only reshuffles
        # rounding, not values, so winding integrals are unaffected).
        flip = (beta.real < 0.0) | ((beta.real == 0.0) & (beta.imag < 0.0))
        beta = np.where(flip, -beta, beta)
        h = self.material.h
        b2 = beta * beta
        p2, q2 = self.wavenumbers_squared(beta)
        cp = _cos_sqrt_scaled(p2, h)
        sp = _sinc_sqrt_scaled(p2, h)
        cq = _cos_sqrt_scaled(q2, h)
        sq = _sinc_sqrt_scaled(q2, h)
        g = q2 - b2

        # Partial-wave fundamental system: pressure columns phi in
        # {cos(p y), sin(p y)/p} and shear columns psi in {cos(q y),
        # sin(q y)/q}, displacements u_axial = i*beta*phi + psi',
        # u_normal = phi' - i*beta*psi.  Rows: normal traction(+h), shear
        # traction(+h) (both divided by the shear modulus, which turns the
        # normal-traction coefficient into g = q^2 - beta^2), u_axial(-h),
        # u_normal(-h).  Rows and columns are recombined by constant
        # unimodular factors so that every entry is real for real beta;
        # that rescales the determinant by a harmless global constant.
        shape = np.broadcast(beta, cp).shape
        rows = np.empty((4, 4) + shape, dtype=complex)
        rows[0, 0] = -g * cp
        rows[0, 1] = -g * sp
        rows[0, 2] = -2.0 * beta * q2 * sq
        rows[0, 3] = 2.0 * beta * cq
        rows[1, 0] = -2.0 * beta * p2 * sp
        rows[1, 1] = 2.0 * beta * cp
        rows[1, 2] = -g * cq
        rows[1, 3] = -g * sq
        rows[2, 0] = beta * cp
        rows[2, 1] = -beta * sp
        rows[2, 2] = q2 * sq
        rows[2, 3] = cq
        rows[3, 0] = p2 * sp
        rows[3, 1] = cp
        rows[3, 2] = beta * cq
        rows[3, 3] = -beta * sq
        mat = np.moveaxis(rows, (0, 1), (-2, -1))
        return np.linalg.det(mat)


# ----------------------------------------------------------------------
# certified root finding

def _phase_change_along(f, a, b, density=0.0, max_depth=46, jump=0.9):
    """Total change of arg f along the segment a -> b, adaptively refined.

    ``density`` is the minimum number of initial samples per unit length;
    adaptive bisection then refines any increment larger than ``jump``
    radians, so only aliasing by full turns needs to be excluded up front.
    """
    m = max(17, int(np.ceil(density * abs(b - a))) + 1)
    ts = np.linspace(0.0, 1.0, m)
    fs = f(a + (b - a) * ts)
    if np.any(fs == 0.0) or np.any(~np.isfinite(fs)):
        raise _ContourThroughRoot
    total = 0.0
    stack = [(ts[k], ts[k + 1], fs[k], fs[k + 1], 0) for k in range(m - 2, -1, -1)]
    while stack:
        t0, t1, f0, f1, depth = stack.pop()
        d = np.angle(f1 / f0)
        if abs(d) <= jump:
            total += d
            continue
        if depth >= max_depth:
            raise _ContourThroughRoot
        tm = 0.5 * (t0 + t1)
        fm = f(a + (b - a) * tm)
        if fm == 0.0 or not np.isfinite(fm):
            raise _ContourThroughRoot
        stack.append((tm, t1, fm, f1, depth + 1))
        stack.append((t0, tm, f0, fm, depth + 1))
    return total


def winding_number(f, box):
    """Number of zeros of f (with multiplicity) inside the rectangle.

    ``box`` is (re_lo, re_hi, im_lo, im_hi).  Raises RootCertificationError
    if the boundary phase integral does not come out close to an integer
    multiple of 2 pi, and the internal contour-through-root signal if a
    sample hits a zero.
    """
    re0, re1, im0, im1 = box
    corners = [re0 + 1j * im0, re1 + 1j * im0, re1 + 1j * im1, re0 + 1j * im1]
    density = getattr(f, "contour_samples_per_unit", 0.0)
    total = 0.0
    for k in range(4):
        total += _phase_change_along(f, corners[k], corners[(k + 1) % 4], density)
    w = total / (2.0 * np.pi)
    if abs(w - round(w)) > 0.25:
        raise RootCertificationError(
            f"winding number {w:.3f} is not close to an integer on box {box}")
    return int(round(w))


def _newton_polish(f, z0, *, tol=1e-13, max_iter=60):
    z = complex(z0)
    for _ in range(max_iter):
        step = 1e-7 * max(1.0, abs(z))
        d = (f(z + step) - f(z - step)) / (2.0 * step)
        if d == 0.0:
            return z, False
        dz = f(z) / d
        z = z - dz
        if abs(dz) <= tol * max(1.0, abs(z)):
            return z, True
    return z, False


def _newton_polish_double(f, z0, *, tol=1e-9, max_iter=60):
    # A double zero of f is a simple zero of f'; use a wider difference
    # step so the numerical derivative noise stays below the tolerance.
    def fp(z):
        step = 1e-4 * max(1.0, abs(z))
        return (f(z + step) - f(z - step)) / (2.0 * step)

    return _newton_polish(fp, z0, tol=tol, max_iter=max_iter)


_SPLIT_FRACTIONS = (0.5, 0.57, 0.41, 0.63, 0.37, 0.53)


def _subdivide(f, box, scale, found, max_roots, depth=0):
    """Recursively collect (root, multiplicity) pairs inside box."""
    w = winding_number(f, box)
    if w == 0:
        return
    if sum(m for _, m in found) + w > max_roots:
        raise RootCertificationError(
            f"more than max_roots={max_roots} roots in the search box")
    re0, re1, im0, im1 = box
    diam = np.hypot(re1 - re0, im1 - im0)
    center = 0.5 * (re0 + re1) + 0.5j * (im0 + im1)

    if diam <= 1e-8 * scale:
        found.append((center, w))
        return
    if diam <= 0.05 * scale:
        if w == 1:
            z, ok = _newton_polish(f, center)
            if ok and _inside(z, box, 0.5 * diam):
                found.append((z, 1))
                return
        elif w == 2:
            z, ok = _newton_polish_double(f, center)
            if ok and _inside(z, box, 0.5 * diam) and abs(f(z)) <= 1e-6 * _local_scale(f, z, diam):
                found.append((z, 2))
                return
        # fall through: keep splitting (separates clusters, rescues Newton)
    if depth > 120:
        raise RootCertificationError(f"subdivision depth exceeded near {center}")

    horizontal = (re1 - re0) >= (im1 - im0)
    for frac in _SPLIT_FRACTIONS:
        if horizontal:
            cut = re0 + frac * (re1 - re0)
            sub1, sub2 = (re0, cut, im0, im1), (cut, re1, im0, im1)
        else:
            cut = im0 + frac * (im1 - im0)
            sub1, sub2 = (re0, re1, im0, cut), (re0, re1, cut, im1)
        try:
            mark = len(found)
            _subdivide(f, sub1, scale, found, max_roots, depth + 1)
            _subdivide(f, sub2, scale, found, max_roots, depth + 1)
            return
        except _ContourThroughRoot:
            del found[mark:]  # the split line grazed a root; try another cut
            continue
    raise RootCertificationError(
        f"could not find a subdivision line avoiding roots inside {box}")


def _inside(z, box, slack):
    re0, re1, im0, im1 = box
    return (re0 - slack <= z.real <= re1 + slack) and (im0 - slack <= z.imag <= im1 + slack)


def _local_scale(f, z, diam):
    probes = np.array([z + diam, z - diam, z + 1j * diam, z - 1j * diam])
    return float(np.max(np.abs(f(probes)))) + 1e-300


def rayleigh_lamb_roots(material, parity, search_box, max_roots=200,
                        bc=BCKind.FREE_FREE):
    """All zeros of the dispersion determinant inside a rectangle, certified.

    Parameters
    ----------
    material : Material
    parity : str or None
        "symmetric", "antisymmetric", or None for both families together
        (for ``bc=BCKind.CLAMPED_FREE`` it must be None).
    search_box : tuple
        (re_lo, re_hi, im_lo, im_hi) rectangle in the complex beta plane.
    max_roots : int
        Hard cap; exceeded counts raise RootCertificationError.

    Returns
    -------
    list of complex roots sorted by (|beta|, Re, Im), each polished by
    Newton iteration; a root of multiplicity m appears m times.  The total
    count is certified against the argument-principle winding number of the
    search box; if the box contour keeps hitting a root the box is inflated
    by ~1e-3 (with a warning) before giving up.
    """
    if parity is None and bc is BCKind.FREE_FREE:
        roots = []
        for par in (SYMMETRIC, ANTISYMMETRIC):
            roots.extend(rayleigh_lamb_roots(material, par, search_box,
                                             max_roots=max_roots, bc=bc))
        return sorted(roots, key=lambda z: (abs(z), z.real, z.imag))

    f = DispersionFunction(material, parity, bc)
    re0, re1, im0, im1 = (float(x) for x in search_box)
    if not (re0 < re1 and im0 < im1):
        raise ValueError("search_box must satisfy re_lo < re_hi and im_lo < im_hi")
    scale = max(1.0, abs(re0), abs(re1), abs(im0), abs(im1))

    last_exc = None
    for attempt in range(4):
        pad = attempt * 7.3e-4 * scale
        box = (re0 - pad, re1 + pad, im0 - 1.37 * pad, im1 + 1.37 * pad)
        if attempt:
            warnings.warn(f"search box contour hit a root; retrying inflated by {pad:.2e}")
        try:
            found = []
            _subdivide(f, box, scale, found, max_roots)
            total = winding_number(f, box)
        except (_ContourThroughRoot, RootCertificationError) as exc:
            last_exc = exc
            continue
        roots = []
        for z, m in found:
            roots.extend([z] * m)
        if len(roots) != total:
            raise RootCertificationError(
                f"found {len(roots)} roots but the box winding number is {total}")
        return sorted(roots, key=lambda z: (abs(z), z.real, z.imag))
    raise RootCertificationError(
        f"search box contour passes through a root persistently: {last_exc}")


# ----------------------------------------------------------------------
# shear-horizontal closed form

def sh_modes_closed_form(material, n_max):
    """The SH spectrum: beta_n = sqrt(omega^2 rho / mu - (n pi / 2h)^2).

    The principal square root is taken, so propagating branches are positive
    real and evanescent branches positive imaginary.  Returns a list of
    (beta_n, mode shape) pairs for n = 0..n_max, with mode shape the closure
    x -> cos(n pi (x + h) / 2h).
    """
    m = material
    out = []
    for n in range(n_max + 1):
        b2 = m.omega * m.omega * m.rho / m.mu - (n * np.pi / (2.0 * m.h)) ** 2
        beta = complex(np.sqrt(complex(b2)))

        def shape(x, n=n, h=m.h):
            return np.cos(n * np.pi * (np.asarray(x) + h) / (2.0 * h))

        out.append((beta, shape))
    return out


# ----------------------------------------------------------------------
# half-space stable solutions

@dataclass(frozen=True)
class StableSolutionReport:
    """Residuals of the decaying half-space solutions and their boundary system.

    ode_residuals holds the relative interior residuals of the two basis
    solutions w1, w2 under -A w'' + i beta gamma B w' + beta^2 C w;
    boundary_matrix is the reduced 2x2 boundary system whose determinant
    (boundary_det) must equal -beta.
    """

    beta: complex
    gamma: int
    epsilon: int
    ode_residuals: tuple
    boundary_matrix: np.ndarray
    boundary_det: complex


def _cheb_nodes_and_diff(m, a, b):
    """Barycentric Chebyshev differentiation on [a, b] (oracle-local copy,
    kept independent of the solver's discretization on purpose)."""
    k = np.arange(m)
    x = np.cos(np.pi * k / (m - 1))
    x = 0.5 * (x - x[::-1])[::-1]  # ascending, exactly antisymmetric
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


def stable_solution_check(material, beta, gamma):
    """Verify the decaying half-space solutions w1, w2 and their boundary system.

    The interior operator -A w'' + i beta gamma B w' + beta^2 C w is applied
    through a numerical differentiation matrix on a STABLE_N_NODES y-grid,
    and the traction boundary system at y = 0 is assembled from A, D and
    the analytic derivatives of w1, w2; after the row normalization
    (i*gamma/2mu, 1/2mu) its determinant must equal -beta exactly.

    Raises
    ------
    ValueError
        If gamma is not +-1, or if Re(eps*beta) = 0 for both eps = +-1
        (purely imaginary beta admits no stable choice).
    """
    if gamma not in (1, -1):
        raise ValueError("gamma must be +1 or -1")
    beta = complex(beta)
    if beta.real > 0.0:
        eps = 1
    elif beta.real < 0.0:
        eps = -1
    else:
        raise ValueError("no stable choice: Re(εβ) = 0 for both ε")

    lam, mu = material.lam, material.mu
    coeff = pencil_coefficients(material)
    a_mat, b_mat, c_mat, d_mat = coeff.a, coeff.b, coeff.c, coeff.d
    eb = eps * beta

    pol = np.array([1.0, gamma * eps * 1j])
    shift = np.array([eps * (lam + 3.0 * mu) / (beta * (lam + mu)), 0.0])

    length = 3.0 / max(1.0, abs(beta))
    y, dmat = _cheb_nodes_and_diff(STABLE_N_NODES, 0.0, length)
    decay = np.exp(-eb * y)
    w1 = pol[None, :] * decay[:, None]
    w2 = (y[:, None] * pol[None, :] + shift[None, :]) * decay[:, None]

    d2 = dmat @ dmat
    opscale = (np.abs(a_mat).max() + np.abs(b_mat).max() + np.abs(c_mat).max())
    opscale *= max(1.0, abs(beta)) ** 2

    def residual(w):
        interior = (-(d2 @ w) @ a_mat.T
                    + 1j * beta * gamma * (dmat @ w) @ b_mat.T
                    + beta * beta * w @ c_mat.T)
        return float(np.abs(interior).max() / (opscale * np.abs(w).max()))

    # boundary system columns: (i gamma A d_y + beta D) applied to w1, w2 at 0
    dw1_0 = -eb * pol
    dw2_0 = pol - eb * shift
    raw = np.empty((2, 2), dtype=complex)
    for j, (w0, dw0) in enumerate((((pol), dw1_0), ((shift), dw2_0))):
        col = 1j * gamma * (a_mat @ dw0) + beta * (d_mat @ w0)
        raw[:, j] = col
    reduced = np.diag([1j * gamma / (2.0 * mu), 1.0 / (2.0 * mu)]) @ raw
    det = reduced[0, 0] * reduced[1, 1] - reduced[0, 1] * reduced[1, 0]

    return StableSolutionReport(
        beta=beta,
        gamma=gamma,
        epsilon=eps,
        ode_residuals=(residual(w1), residual(w2)),
        boundary_matrix=reduced,
        boundary_det=complex(det),
    )


# ----------------------------------------------------------------------
# double roots

def find_zero_group_velocity_point(material, parity, beta_bracket, omega_bracket,
                                   bc=BCKind.FREE_FREE):
    """Locate a double root of the dispersion function: F = dF/dbeta = 0.

    The branch omega(beta) defined by the smallest dispersion-function root
    in ``omega_bracket`` is minimized over real beta in ``beta_bracket``
    (at a group-velocity zero the branch has an interior frequency
    extremum), then the pair (beta, omega) is polished by a 2-D Newton
    iteration on (F, dF/dbeta) with finite-difference derivatives.

    Returns (omega, beta) with both components accurate to ~1e-11 relative.
    """
    from scipy.optimize import brentq, minimize_scalar  # no subcommand locates a ZGV

    def disp(beta, omega):
        mat = dataclasses.replace(material, omega=omega)
        return DispersionFunction(mat, parity, bc)(beta)

    w_lo, w_hi = omega_bracket

    def branch_omega(beta):
        grid = np.linspace(w_lo, w_hi, ZGV_N_SCAN)
        vals = np.array([disp(beta, w).real for w in grid])
        for k in range(ZGV_N_SCAN - 1):
            if vals[k] == 0.0:
                return grid[k]
            if vals[k] * vals[k + 1] < 0.0:
                return brentq(lambda w: disp(beta, w).real, grid[k], grid[k + 1],
                              xtol=1e-13, rtol=8.9e-16)
        raise ValueError(f"no dispersion branch in omega bracket at beta={beta}")

    res = minimize_scalar(branch_omega, bounds=tuple(beta_bracket), method="bounded",
                          options={"xatol": 1e-9})
    beta, omega = float(res.x), float(res.fun)

    # Newton on G(beta, omega) = (F, F_beta); the Jacobian is nonsingular at a
    # plain double root because F_betabeta and F_omega are nonzero there.
    for _ in range(60):
        hb = 1e-6 * max(1.0, abs(beta))
        hw = 1e-6 * max(1.0, abs(omega))
        f0 = disp(beta, omega)
        fb_p, fb_m = disp(beta + hb, omega), disp(beta - hb, omega)
        g0 = (fb_p - fb_m) / (2.0 * hb)
        gbb = (fb_p - 2.0 * f0 + fb_m) / (hb * hb)
        fw_p, fw_m = disp(beta, omega + hw), disp(beta, omega - hw)
        fw = (fw_p - fw_m) / (2.0 * hw)
        gw = ((disp(beta + hb, omega + hw) - disp(beta - hb, omega + hw))
              - (disp(beta + hb, omega - hw) - disp(beta - hb, omega - hw))) / (4.0 * hb * hw)
        jac = np.array([[g0, fw], [gbb, gw]], dtype=complex)
        rhs = np.array([f0, g0], dtype=complex)
        try:
            step = np.linalg.solve(jac.real, rhs.real)
        except np.linalg.LinAlgError:
            break
        beta -= step[0]
        omega -= step[1]
        if np.hypot(step[0], step[1]) <= 1e-12 * max(1.0, abs(beta), abs(omega)):
            break
    return float(omega), float(beta)
