"""Material data, pencil coefficient matrices, and the principal-symbol identity.

A traction-free (or clamped/free) isotropic elastic plate of half-thickness h,
driven time-harmonically at angular frequency omega, carries guided Lamb modes
v(x)·exp(i(beta*z - omega*t)).  Eliminating the propagation direction turns the
elastodynamic system into a quadratic operator pencil in mu = i*beta acting on
the through-thickness profile v = (v1, v3):

    interior:  A v'' + mu B v' + omega^2 rho v + mu^2 C v = 0
    boundary:  A v'(+-h) + mu D v(+-h) = 0          (traction rows)

This module owns the validated material record, the coefficient matrices
A, B, C, D (pencil_coefficients, the one place where lam and mu become
blocks) and the 2x2 principal symbol built from them, whose determinant
must factor as (lam + 2 mu)*mu*(xi^2 + beta^2)^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "BCKind",
    "Material",
    "PencilCoefficients",
    "make_material",
    "pencil_coefficients",
    "principal_symbol",
    "symbol_det_l0",
]


class BCKind(Enum):
    """Plate face conditions: traction-free on both faces, or clamped at -h."""

    FREE_FREE = "free-free"
    CLAMPED_FREE = "clamped-free"


@dataclass(frozen=True)
class Material:
    """Isotropic plate material and operating point.

    Attributes
    ----------
    lam : float
        First Lame parameter.  May be negative as long as the bulk modulus
        stays positive (3*lam + 2*mu > 0).
    mu : float
        Shear modulus, mu > 0.
    rho : float
        Mass density, rho > 0.
    h : float
        Plate half-thickness; the cross-section is [-h, h].
    omega : float
        Angular frequency of the time-harmonic drive, omega > 0, with
        omega^2 * rho finite (the pencil's zero-order term).
    """

    lam: float
    mu: float
    rho: float
    h: float
    omega: float

    def __post_init__(self):
        if not 3.0 * self.lam + 2.0 * self.mu > 0.0:
            raise ValueError("invalid material: 3λ+2μ ≤ 0")
        if not self.mu > 0.0:
            raise ValueError("invalid material: μ ≤ 0")
        if not self.rho > 0.0:
            raise ValueError("invalid material: ρ ≤ 0")
        if not self.h > 0.0:
            raise ValueError("invalid material: h ≤ 0")
        if not self.omega > 0.0:
            raise ValueError("invalid material: ω ≤ 0")
        if not math.isfinite(self.omega * self.omega * self.rho):
            raise ValueError("invalid material: ω²ρ overflows")


def make_material(lam: float, mu: float, rho: float, h: float, omega: float) -> Material:
    """Validate and build a Material record.

    Raises
    ------
    ValueError
        Naming the violated constraint (e.g. "3λ+2μ ≤ 0") if any of
        3*lam + 2*mu > 0, mu > 0, rho > 0, h > 0, omega > 0 or a finite
        omega^2 * rho fails.
    """
    return Material(float(lam), float(mu), float(rho), float(h), float(omega))


@dataclass(frozen=True)
class PencilCoefficients:
    """The four constant c×c matrices of the quadratic pencil.

    c×c is 2×2 for the in-plane (v1, v3) problem and 1×1 for the scalar
    shear-horizontal channel.  a multiplies v'', b the mixed
    first-derivative term, c the mu^2 term, and d couples boundary values
    into the traction rows.  All are real and frozen read-only.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        for m in (self.a, self.b, self.c, self.d):
            m.flags.writeable = False


def pencil_coefficients(material: Material) -> PencilCoefficients:
    """Coefficient matrices of the Lamb pencil for the (v1, v3) profile.

    a = diag(lam+2mu, mu), c = diag(mu, lam+2mu), b = d + d^T with
    d = [[0, lam], [mu, 0]].
    """
    lam, mu = material.lam, material.mu
    a = np.array([[lam + 2.0 * mu, 0.0], [0.0, mu]])
    b = np.array([[0.0, lam + mu], [lam + mu, 0.0]])
    c = np.array([[mu, 0.0], [0.0, lam + 2.0 * mu]])
    d = np.array([[0.0, lam], [mu, 0.0]])
    return PencilCoefficients(a=a, b=b, c=c, d=d)


def principal_symbol(xi, beta, material: Material) -> np.ndarray:
    """The 2x2 principal symbol a xi^2 + b xi beta + c beta^2 of the pencil blocks.

    Broadcasts: xi and beta of shape s give a complex (2, 2, *s) array.
    """
    coeff = pencil_coefficients(material)
    xi, beta = np.asarray(xi, dtype=complex), np.asarray(beta, dtype=complex)
    return (np.multiply.outer(coeff.a, xi * xi) + np.multiply.outer(coeff.b, xi * beta)
            + np.multiply.outer(coeff.c, beta * beta))


def symbol_det_l0(xi, beta, material: Material):
    """Determinant of the principal symbol, computed from the matrix entries.

    Equals (lam + 2 mu) * mu * (xi^2 + beta^2)^2 identically; verify and the
    test suite assert the closed form against this entry-level evaluation.
    """
    m = principal_symbol(xi, beta, material)
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
