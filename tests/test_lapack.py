"""The LAPACK wrappers against scipy.linalg, on both symbol sources."""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest
import scipy.linalg

from lambspec import _lapack, cli
from lambspec.eigen import _shifted_lu

BASE = {"lambda": 2.0, "mu": 1.0, "rho": 1.0, "h": 1.0, "omega": 3.0}
RTOL = 1e-12


@pytest.fixture(params=["numpy", "cython_lapack"])
def source(request, monkeypatch):
    """The wrappers bound to numpy's LAPACK, or to the fallback that a numpy
    without LAPACK symbols gets."""
    if request.param == "numpy" and _lapack._numpy_lapack() is None:
        pytest.skip("this numpy build exports no LAPACK symbols")
    if request.param == "cython_lapack":
        monkeypatch.setattr(_lapack, "_numpy_lapack", lambda: None)
    _lapack.source.cache_clear()
    yield _lapack.source()
    _lapack.source.cache_clear()


def _matrix(rng, n, dtype, order, cols=None):
    shape = (n, n if cols is None else cols)
    a = rng.standard_normal(shape)
    if dtype is complex:
        a = a + 1j * rng.standard_normal(shape)
    return np.array(a, order=order)


def _close(got, want, rtol=RTOL):
    # on the fallback the wrappers call the LAPACK that scipy.linalg calls
    if _lapack.source().name == "scipy.linalg.cython_lapack":
        np.testing.assert_array_equal(got, want)
    else:
        np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * np.max(np.abs(want)))


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("order", ["C", "F"])
def test_lu_factor_condition_and_solves(source, dtype, order):
    rng = np.random.default_rng(1)
    a = _matrix(rng, 40, dtype, order) + 8 * np.eye(40)
    lu_ref, piv_ref = scipy.linalg.lu_factor(a)
    a_norm = np.linalg.norm(a, 1)
    lu, piv, info = _lapack.getrf(np.array(a, order="F"))
    assert info == 0 and lu.flags.f_contiguous
    np.testing.assert_array_equal(piv - 1, piv_ref)
    _close(lu, lu_ref)
    gecon = scipy.linalg.get_lapack_funcs("gecon", (lu_ref,))
    _close(_lapack.gecon(lu, a_norm), gecon(lu_ref, a_norm)[0])
    for b_dtype in (float, complex):
        b = _matrix(rng, 40, b_dtype, order, cols=3)
        for trans in ("N", "T", "C"):
            want = scipy.linalg.lu_solve((lu_ref, piv_ref), b, trans="NTC".index(trans))
            got = _lapack.getrs(lu, piv, b, trans=trans)
            assert got.dtype == want.dtype and got.flags.f_contiguous
            _close(got, want)
        x = np.array(b, dtype=complex, order="F")
        assert _lapack.getrs(lu, piv, x, overwrite_b=True) is x


def test_getrf_reports_an_exact_zero_pivot(source):
    a = np.asfortranarray(np.diag([1.0, 0.0, 2.0]))
    assert _lapack.getrf(a)[2] == 2


def test_singular_shift_is_off_the_gate_without_a_warning(source):
    a = np.zeros((4, 4))
    a[:, :3] = np.random.default_rng(2).standard_normal((4, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _shifted_lu(a, np.zeros((4, 4)), 0.0, 1e-300) is None
        assert _shifted_lu(a, np.eye(4), 1.0 + 1.0j, 1e-300) is not None


@pytest.mark.parametrize(("call", "match"), [
    (lambda: _lapack.getrf(np.ones((3, 4), order="F")), "expected an n x n matrix"),
    (lambda: _lapack.geev(np.ones(3)), "expected an n x n matrix"),
    (lambda: _lapack.getrs(np.eye(3, order="F"), np.arange(1, 4), np.ones(4)),
     "expected an n x n matrix"),
    (lambda: _lapack.trtrs(np.eye(3), np.ones((3, 2, 2))), "expected an n x n matrix"),
    (lambda: _lapack.getrs(np.eye(3, order="F"), np.arange(1, 4), np.ones(3), trans="X"),
     "trans must be N, T or C"),
    (lambda: _lapack.trtrs(np.eye(3), np.ones(3), trans="X"), "trans must be N, T or C"),
], ids=["not-square", "not-a-matrix", "rows", "rhs-rank", "getrs-trans", "trtrs-trans"])
def test_arguments_are_checked_before_lapack_runs(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_illegal_argument_raises_value_error(source):
    # LAPACK's xerbla also prints its own line to stdout
    lu, _, _ = _lapack.getrf(np.asfortranarray(np.eye(3)))
    with pytest.raises(ValueError, match="illegal value in argument 5 of LAPACK dgecon"):
        _lapack.gecon(lu, -1.0)


@pytest.mark.parametrize("spectrum", ["real", "pairs"])
def test_geev_matches_eig(source, spectrum):
    rng = np.random.default_rng(3)
    a = rng.standard_normal((30, 30))
    if spectrum == "real":
        a = a + a.T
    w_ref, vl_ref, vr_ref = scipy.linalg.eig(a, left=True, right=True)
    copy = a.copy()
    w, vl, vr = _lapack.geev(a, vectors=True)
    np.testing.assert_array_equal(a, copy)
    assert w.dtype == complex
    assert vl.dtype == vr.dtype == (float if spectrum == "real" else complex)
    assert (spectrum == "pairs") == bool(np.any(w.imag != 0.0))
    _close(w, w_ref, 1e-10)
    _close(vl, vl_ref, 1e-9)
    _close(vr, vr_ref, 1e-9)
    _close(_lapack.geev(a), scipy.linalg.eigvals(a), 1e-10)
    f = np.asfortranarray(a)
    assert np.array_equal(_lapack.geev(f, overwrite_a=True), w)
    assert not np.array_equal(f, a)


def test_complex_vectors_unpack_like_scipy():
    # includes a pair whose first member LAPACK may leave with wi = 0
    make_complex_eigvecs = getattr(scipy.linalg._decomp, "_make_complex_eigvecs", None)
    if make_complex_eigvecs is None:
        pytest.skip("this scipy has no _make_complex_eigvecs to compare with")
    wi = np.array([0.0, 1.0, -1.0, 0.0, -2.0, 0.0, 3.0, -3.0])
    v = np.random.default_rng(4).standard_normal((8, 8))
    np.testing.assert_array_equal(_lapack._complex_vectors(wi, v),
                                  make_complex_eigvecs(1j * wi, v, "D"))


@pytest.mark.parametrize("order", ["C", "F"])
def test_potrs_matches_cho_solve(source, order):
    rng = np.random.default_rng(5)
    m = rng.standard_normal((30, 30))
    chol = np.array(np.linalg.cholesky(m @ m.T + 30 * np.eye(30)), order=order)
    b = rng.standard_normal((30, 4))
    for lower, factor in ((True, chol), (False, np.array(chol.T, order=order))):
        _close(_lapack.potrs(factor, b, lower=lower),
               scipy.linalg.cho_solve((factor, lower), b))


@pytest.mark.parametrize("a_dtype", [float, complex])
@pytest.mark.parametrize("b_dtype", [float, complex])
@pytest.mark.parametrize("order", ["C", "F"])
def test_trtrs_matches_solve_triangular(source, a_dtype, b_dtype, order):
    rng = np.random.default_rng(6)
    full = _matrix(rng, 25, a_dtype, "C") + 6 * np.eye(25)
    b = _matrix(rng, 25, b_dtype, order, cols=3)
    for lower in (True, False):
        a = np.array(np.tril(full) if lower else np.triu(full), order=order)
        for trans in ("N", "T", "C"):
            want = scipy.linalg.solve_triangular(a, b, trans=trans, lower=lower)
            got = _lapack.trtrs(a, b, lower=lower, trans=trans)
            assert got.dtype == want.dtype
            _close(got, want)


def test_singular_trtrs_raises(source):
    a = np.asfortranarray(np.triu(np.ones((4, 4))))
    a[2, 2] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="diagonal 2"):
        _lapack.trtrs(a, np.ones(4))


def _cli_output(tmp_path, capsys, command, bc):
    path = tmp_path / f"{command}-{bc}.json"
    path.write_text(json.dumps({**BASE, "n_colloc": 32, "bc": bc}))
    code = cli.run([command, "--config", str(path)])
    return code, capsys.readouterr().out


@pytest.mark.parametrize("bc", ["free-free", "clamped-free"])
def test_cli_results_do_not_follow_the_source(tmp_path, capsys, monkeypatch, bc):
    # the two sources may be different LAPACK builds, so rounding may differ
    outputs = {}
    for fallback in (False, True):
        if fallback:
            monkeypatch.setattr(_lapack, "_numpy_lapack", lambda: None)
        _lapack.source.cache_clear()
        outputs[fallback] = [_cli_output(tmp_path, capsys, command, bc)
                             for command in ("modes", "verify")]
    _lapack.source.cache_clear()
    (modes_code, modes), (verify_code, verify) = outputs[False]
    (fb_modes_code, fb_modes), (fb_verify_code, fb_verify) = outputs[True]
    assert modes_code == fb_modes_code == 0 and verify_code == fb_verify_code

    def betas(csv):
        rows = [line.split(",") for line in csv.strip().split("\n")[1:]]
        return (np.array([float(r[0]) + 1j * float(r[1]) for r in rows]),
                [r[2] for r in rows], [r[4] for r in rows])

    (beta, parity, chains), (fb_beta, fb_parity, fb_chains) = betas(modes), betas(fb_modes)
    assert len(beta) == len(fb_beta) and parity == fb_parity and chains == fb_chains
    assert np.max(np.abs(beta - fb_beta) / np.abs(beta)) <= 1e-12
    checks, fb_checks = json.loads(verify)["checks"], json.loads(fb_verify)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [(c["name"], c["pass"]) for c in fb_checks]
    assert checks[0] == fb_checks[0] and checks[0]["name"] == "retained_modes"


@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("shape", [(30, 30), (40, 25), (25, 40), (252, 252)],
                         ids=["square", "tall", "wide", "square-252"])
@pytest.mark.parametrize("order", ["C", "F"])
def test_gesdd_gives_the_singular_values_bitwise(source, dtype, shape, order):
    # numpy's svd and scipy's svdvals make the same gesdd call, each on the
    # LAPACK its own library links; the wrapper gives that library's bits
    a = _matrix(np.random.default_rng(7), shape[0], dtype, order, cols=shape[1])
    copy = a.copy()
    got = _lapack.gesdd(a)
    np.testing.assert_array_equal(a, copy)
    assert got.dtype == np.float64 and got.shape == (min(shape),)
    by_numpy = np.linalg.svd(a, compute_uv=False)
    by_scipy = scipy.linalg.svdvals(a)
    if source.name == "scipy.linalg.cython_lapack":
        np.testing.assert_array_equal(got, by_scipy)
        np.testing.assert_allclose(got, by_numpy, rtol=RTOL)
    else:
        np.testing.assert_array_equal(got, by_numpy)
        np.testing.assert_allclose(got, by_scipy, rtol=RTOL)
    # overwrite_a lets LAPACK work in a Fortran-ordered input, and copies any other
    f = np.array(a, order="F")
    np.testing.assert_array_equal(_lapack.gesdd(f, overwrite_a=True), got)
    assert not np.array_equal(f, a)
    if order == "C":
        np.testing.assert_array_equal(_lapack.gesdd(a, overwrite_a=True), got)
        np.testing.assert_array_equal(a, copy)


def test_gesdd_rejects_nan_as_numpy_does(source, capfd):
    # LAPACK refuses a NaN matrix as an illegal argument 4 before it
    # starts, where numpy's svd reports no convergence; nothing is printed
    for dtype in (float, complex):
        a = np.ones((5, 4), dtype=dtype)
        a[2, 1] = np.nan
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            np.linalg.svd(a, compute_uv=False)
        with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
            _lapack.gesdd(a)
    assert capfd.readouterr().out == ""


def test_gesdd_checks_its_argument():
    with pytest.raises(ValueError, match="expected an m x n matrix"):
        _lapack.gesdd(np.ones(3))
    assert _lapack.gesdd(np.ones((0, 3))).shape == (0,)
