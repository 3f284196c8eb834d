"""Material validation, pencil coefficient matrices, and the symbol identity."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambspec import (
    BCKind,
    core,
    make_material,
    pencil_coefficients,
    principal_symbol,
    symbol_det_l0,
)


def test_bc_kind_names():
    assert BCKind.FREE_FREE.value == "free-free"
    assert BCKind.CLAMPED_FREE.value == "clamped-free"


@pytest.mark.parametrize(
    ("kwargs", "fragment"),
    [
        (dict(lam=-1.0, mu=1.0, rho=1.0, h=1.0, omega=3.0), "3λ\\+2μ"),
        (dict(lam=2.0, mu=0.0, rho=1.0, h=1.0, omega=3.0), "μ ≤ 0"),
        (dict(lam=2.0, mu=1.0, rho=-0.5, h=1.0, omega=3.0), "ρ ≤ 0"),
        (dict(lam=2.0, mu=1.0, rho=1.0, h=0.0, omega=3.0), "h ≤ 0"),
        (dict(lam=2.0, mu=1.0, rho=1.0, h=1.0, omega=-3.0), "ω ≤ 0"),
        (dict(lam=float("nan"), mu=1.0, rho=1.0, h=1.0, omega=3.0), "3λ\\+2μ"),
        (dict(lam=2.0, mu=1.0, rho=1.0, h=1.0, omega=1e200), "ω²ρ overflows"),
        (dict(lam=2.0, mu=1.0, rho=1e10, h=1.0, omega=1e150), "ω²ρ overflows"),
    ],
)
def test_invalid_material_rejected(kwargs, fragment):
    with pytest.raises(ValueError, match=fragment):
        make_material(**kwargs)


def test_negative_first_lame_parameter_allowed():
    make_material(lam=-0.5, mu=1.0, rho=1.0, h=1.0, omega=3.0)


def test_pencil_coefficients_benchmark(bench):
    coeff = pencil_coefficients(bench)
    np.testing.assert_array_equal(coeff.a, [[4.0, 0.0], [0.0, 1.0]])
    np.testing.assert_array_equal(coeff.b, [[0.0, 3.0], [3.0, 0.0]])
    np.testing.assert_array_equal(coeff.c, [[1.0, 0.0], [0.0, 4.0]])
    np.testing.assert_array_equal(coeff.d, [[0.0, 2.0], [1.0, 0.0]])
    np.testing.assert_array_equal(coeff.b, coeff.d + coeff.d.T)
    assert not coeff.a.flags.writeable


def test_principal_symbol_hand_value(bench):
    symbol = principal_symbol(1.0, 2.0, bench)
    np.testing.assert_allclose(symbol, [[8.0, 6.0], [6.0, 17.0]], rtol=1e-15)
    # det = 136 - 36 = 100 = (lam + 2 mu) mu (xi^2 + beta^2)^2 = 4 * 25
    assert symbol_det_l0(1.0, 2.0, bench) == pytest.approx(100.0, rel=1e-14)


def test_principal_symbol_broadcasts(bench):
    rng = np.random.default_rng(5)
    xi, beta = rng.standard_normal((7, 4)).view(complex).T
    symbols = principal_symbol(xi, beta, bench)
    assert symbols.shape == (2, 2, 7)
    dets = symbol_det_l0(xi, beta, bench)
    for k in range(7):
        np.testing.assert_array_equal(symbols[..., k], principal_symbol(xi[k], beta[k], bench))
        # numpy's vector loops may round a complex product differently
        assert dets[k] == pytest.approx(symbol_det_l0(xi[k], beta[k], bench), rel=1e-14)
    # at (1, 2) every entry is exact, zero imaginary parts included
    hand = np.array([[8.0, 6.0], [6.0, 17.0]], dtype=complex)
    assert principal_symbol(1.0, 2.0, bench).tobytes() == hand.tobytes()


def test_principal_symbol_reads_the_pencil_blocks(bench, monkeypatch):
    # a b block off by 5%: the symbol follows it, and its determinant no
    # longer factors as (lam + 2 mu) mu (xi^2 + beta^2)^2 = 100 at (1, 2)
    lame = pencil_coefficients(bench)
    monkeypatch.setattr(core, "pencil_coefficients",
                        lambda material: dataclasses.replace(lame, b=1.05 * lame.b))
    symbol = principal_symbol(1.0, 2.0, bench)
    assert symbol[0, 1] == symbol[1, 0] == 1.05 * 3.0 * 2.0
    assert abs(symbol_det_l0(1.0, 2.0, bench) - 100.0) > 3.0


@st.composite
def materials(draw):
    mu = draw(st.floats(min_value=0.05, max_value=10.0))
    # lam >= -0.6 mu keeps 3 lam + 2 mu >= 0.2 mu > 0
    lam = draw(st.floats(min_value=-0.6 * mu, max_value=10.0))
    rho = draw(st.floats(min_value=0.1, max_value=10.0))
    h = draw(st.floats(min_value=0.1, max_value=5.0))
    omega = draw(st.floats(min_value=0.1, max_value=10.0))
    return make_material(lam, mu, rho, h, omega)


_coords = st.floats(min_value=-3.0, max_value=3.0)
_complexes = st.builds(complex, _coords, _coords)


@given(material=materials(), xi=_complexes, beta=_complexes)
@settings(max_examples=80, deadline=None)
def test_symbol_determinant_factorization(material, xi, beta):
    lhs = symbol_det_l0(xi, beta, material)
    front = (material.lam + 2.0 * material.mu) * material.mu
    rhs = front * (xi * xi + beta * beta) ** 2
    scale = front * max(1.0, abs(xi) ** 2 + abs(beta) ** 2) ** 2
    assert abs(lhs - rhs) <= 1e-12 * scale
