"""The LAPACK routines the package calls, bound in the OpenBLAS numpy loads.

The solver needs a handful of LAPACK kernels, and each wrapper here gives
what its scipy.linalg counterpart gives on the same LAPACK:

- getrf, gecon (1-norm) and getrs (trans N, T or C), real and complex:
  the shifted LUs of eigen._shifted_lu, their condition gate and their
  solves (scipy's lu_factor, gecon and lu_solve);
- geev on a real matrix, eigenvalues only or with left and right vectors
  (scipy's eigvals and eig);
- potrs, real, and trtrs, real and complex: solves with a Cholesky
  factor (scipy's cho_solve and solve_triangular);
- gesdd, real and complex, singular values only: the dense 2-norms of
  the analysis module (numpy's svd with compute_uv=False, which makes the
  same call, and scipy's svdvals).

Symbols are found by dlsym on the handle of numpy.linalg._umath_linalg,
which reaches whatever LAPACK numpy itself links: the names tried are
{"", "scipy_"} + routine + {"_64_", "_64", "_", ""}, and a "64" in the
suffix means 64-bit integers (numpy's wheels export scipy_dgeev_64_).
Fortran's hidden character lengths are passed after the arguments.  A
numpy build that exports none of them falls back to the LP64 function
pointers scipy.linalg.cython_lapack publishes, the same routines through
C wrappers that take no character lengths; scipy is imported only then.
The source is resolved once, on import, so the thread policy of _blas
sees the library it loads.  ctypes releases the GIL for the length of
each call, so calls on different threads run at the same time, which
numpy.linalg's do not at the sizes the package uses.  Arrays handed to
LAPACK are Fortran-ordered float64 or complex128; results come back
Fortran-ordered, as scipy's do.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import os
from typing import NamedTuple

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

_ROUTINES = ("dgetrf", "zgetrf", "dgecon", "zgecon", "dgetrs", "zgetrs",
             "dgeev", "dpotrs", "dtrtrs", "ztrtrs", "dgesdd", "zgesdd")
_PREFIXES = ("", "scipy_")
_SUFFIXES = ("_64_", "_64", "_", "")


class Lapack(NamedTuple):
    """One source of the routines: callables by name and its integer type."""

    name: str
    routines: dict
    integer: type                       # ctypes.c_int32 or ctypes.c_int64
    char_lengths: bool                  # Fortran's hidden lengths are passed


def _numpy_lapack() -> Lapack | None:
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__, mode=os.RTLD_NOLOAD)
    except OSError:
        return None
    for prefix, suffix in itertools.product(_PREFIXES, _SUFFIXES):
        try:
            routines = {name: getattr(lib, f"{prefix}{name}{suffix}") for name in _ROUTINES}
        except AttributeError:
            continue
        for routine in routines.values():
            routine.restype = None
        integer = ctypes.c_int64 if "64" in suffix else ctypes.c_int32
        return Lapack(f"numpy ({prefix}dgeev{suffix})", routines, integer, True)
    return None


def _cython_lapack() -> Lapack:
    from scipy.linalg import cython_lapack

    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    capsules = {name: cython_lapack.__pyx_capi__[name] for name in _ROUTINES}
    routines = {name: ctypes.CFUNCTYPE(None)(get_pointer(capsule, get_name(capsule)))
                for name, capsule in capsules.items()}
    return Lapack("scipy.linalg.cython_lapack", routines, ctypes.c_int32, False)


@functools.cache
def source() -> Lapack:
    """numpy's LAPACK, or scipy's cython_lapack where numpy exports none."""
    return _numpy_lapack() or _cython_lapack()


source()


def _call(name: str, *args, rejects_nan: int = 0) -> int:
    """Call one routine with every argument by reference; return its info.

    A str is a Fortran character, an array passes its data, a float is a
    double and any other number an integer of the source's width.  A
    negative info names an illegal argument and raises ValueError, except
    -rejects_nan: a routine that refuses a NaN in that argument reports it
    so, and the caller maps it.
    """
    lapack = source()
    refs = []
    for arg in args:
        if isinstance(arg, str):
            refs.append(ctypes.c_char_p(arg.encode()))
        elif isinstance(arg, np.ndarray):
            refs.append(ctypes.c_void_p(arg.ctypes.data))
        elif isinstance(arg, float):
            refs.append(ctypes.byref(ctypes.c_double(arg)))
        else:
            refs.append(ctypes.byref(lapack.integer(arg)))
    info = lapack.integer(0)
    lengths = [ctypes.c_size_t(1)] * sum(isinstance(arg, str) for arg in args)
    lapack.routines[name](*refs, ctypes.byref(info), *(lengths if lapack.char_lengths else ()))
    if info.value < 0 and info.value != -rejects_nan:
        raise ValueError(f"illegal value in argument {-info.value} of LAPACK {name}")
    return info.value


def _kind(*arrays) -> tuple:
    """(dtype, routine prefix) of the float64 or complex128 that holds every array."""
    dtype = np.result_type(*arrays, np.float64)
    return (np.complex128, "z") if dtype.kind == "c" else (np.float64, "d")


def _order(a: np.ndarray, *rhs: np.ndarray) -> int:
    """n for the n x n matrix a, checked, as is each right-hand side's n rows."""
    n = a.shape[0]
    if a.shape != (n, n) or any(b.ndim > 2 or b.shape[0] != n for b in rhs):
        raise ValueError(f"expected an n x n matrix and right-hand sides of n = {n} rows")
    return n


def _check_trans(trans: str) -> None:
    # OpenBLAS's own getrs reports an illegal trans on stdout, not in info
    if trans not in ("N", "T", "C"):
        raise ValueError(f"trans must be N, T or C, not {trans!r}")


def _operand(x, dtype, overwrite: bool) -> np.ndarray:
    """x as a Fortran-ordered dtype array LAPACK may write: x itself only
    where overwrite allows it and no conversion is needed."""
    return np.asfortranarray(x, dtype) if overwrite else np.array(x, dtype, order="F")


def getrf(a: np.ndarray):
    """(lu, piv, info): the LU of the square a, written over a where a is a
    Fortran-ordered float64 or complex128 array.  piv holds LAPACK's
    1-based row swaps; info > 0 where U has an exact zero on its diagonal."""
    dtype, kind = _kind(a)
    lu = _operand(a, dtype, True)
    n = _order(lu)
    piv = np.empty(n, dtype=source().integer)
    info = _call(kind + "getrf", n, n, lu, n, piv)
    return lu, piv, info


def gecon(lu: np.ndarray, a_norm: float) -> float:
    """Reciprocal 1-norm condition of the matrix whose getrf LU is lu and 1-norm a_norm."""
    dtype, kind = _kind(lu)
    lu = _operand(lu, dtype, True)
    n = _order(lu)
    rcond = np.zeros(1)
    work = ((np.empty(2 * n, complex), np.empty(2 * n)) if kind == "z"
            else (np.empty(4 * n), np.empty(n, dtype=source().integer)))
    _call(kind + "gecon", "1", n, lu, n, float(a_norm), rcond, *work)
    return float(rcond[0])


def getrs(lu: np.ndarray, piv: np.ndarray, b, trans: str = "N",
          overwrite_b: bool = False) -> np.ndarray:
    """x with op(A) x = b, for the getrf factors (lu, piv) of A and op given
    by trans (N, T or C).  A real LU with a complex b is cast to complex."""
    _check_trans(trans)
    dtype, kind = _kind(lu, b)
    lu = _operand(lu, dtype, True)
    x = _operand(b, dtype, overwrite_b)
    n = _order(lu, x)
    _call(kind + "getrs", trans, n, x.size // n, lu, n, piv, x, n)
    return x


def geev(a, vectors: bool = False, overwrite_a: bool = False):
    """Eigenvalues w of the real square a, or (w, vl, vr) with its left and
    right vectors as columns.

    w is complex.  The vectors stay real when every eigenvalue is real;
    otherwise each conjugate pair, which LAPACK packs as a real and an
    imaginary column, is unpacked into complex columns.  The workspace is
    LAPACK's own optimum, from a query.
    """
    a = _operand(a, np.float64, overwrite_a)
    n = _order(a)
    job, ldv = ("V", n) if vectors else ("N", 1)
    wr, wi, query = np.empty(n), np.empty(n), np.empty(1)
    vl, vr = np.empty((ldv, ldv), order="F"), np.empty((ldv, ldv), order="F")
    _call("dgeev", job, job, n, a, n, wr, wi, vl, ldv, vr, ldv, query, -1)
    lwork = int(query[0])
    info = _call("dgeev", job, job, n, a, n, wr, wi, vl, ldv, vr, ldv, np.empty(lwork), lwork)
    if info > 0:
        raise LinAlgError(f"eig algorithm (geev) did not converge (only eigenvalues "
                          f"with order >= {info} have converged)")
    w = wr + 1j * wi
    if not vectors:
        return w
    if np.any(wi != 0.0):
        vl, vr = _complex_vectors(wi, vl), _complex_vectors(wi, vr)
    return w, vl, vr


def _complex_vectors(wi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """LAPACK's packed real vectors as complex columns, with scipy's pair mask
    (its second line marks a pair that LAPACK leaves with a zero first part)."""
    out = v.astype(complex)
    pair = wi > 0
    pair[:-1] |= wi[1:] < 0
    for i in np.flatnonzero(pair):
        out.imag[:, i] = v[:, i + 1]
        np.conj(out[:, i], out[:, i + 1])
    return out


def potrs(c: np.ndarray, b, lower: bool = False, overwrite_b: bool = False) -> np.ndarray:
    """x with A x = b for real A = c c^T (lower) or c^T c, c its Cholesky factor."""
    c = _operand(c, np.float64, True)
    x = _operand(b, np.float64, overwrite_b)
    n = _order(c, x)
    _call("dpotrs", "L" if lower else "U", n, x.size // n, c, n, x, n)
    return x


def trtrs(a: np.ndarray, b, lower: bool = False, trans: str = "N",
          overwrite_b: bool = False) -> np.ndarray:
    """x with op(a) x = b for a triangular (op by trans: N, T or C).

    As in scipy's solve_triangular, an a not in Fortran order is passed as
    its transpose, with the triangle and the transposition flipped, unless
    trans is C.  Raises LinAlgError where a has a zero on its diagonal.
    """
    _check_trans(trans)
    dtype, kind = _kind(a, b)
    if not a.flags.f_contiguous and trans != "C":
        a, lower, trans = a.T, not lower, "T" if trans == "N" else "N"
    a = _operand(a, dtype, True)
    x = _operand(b, dtype, overwrite_b)
    n = _order(a, x)
    info = _call(kind + "trtrs", "L" if lower else "U", trans, "N", n, x.size // n, a, n, x, n)
    if info > 0:
        raise LinAlgError(f"singular matrix: resolution failed at diagonal {info - 1}")
    return x


def gesdd(a, overwrite_a: bool = False) -> np.ndarray:
    """The singular values of the m x n matrix a, in descending order.

    The singular-values-only call (JOBZ = N) that numpy's svd makes with
    compute_uv=False, on the same Fortran-ordered copy and with LAPACK's
    optimal workspace from a query, so the values are its bits.  As there,
    a NaN in a (which LAPACK rejects before it starts) or a failure to
    converge raises LinAlgError.
    """
    dtype, kind = _kind(a)
    a = _operand(a, dtype, overwrite_a)
    if a.ndim != 2:
        raise ValueError(f"expected an m x n matrix, not an array of {a.ndim} dimensions")
    m, n = a.shape
    k = min(m, n)
    s, query, unused = np.empty(k), np.empty(1, dtype), np.empty(1, dtype)
    # the real-valued workspace of zgesdd: 7 min(m, n) is enough for any LAPACK version
    rwork = (np.empty(7 * k),) if kind == "z" else ()
    iwork = np.empty(8 * k, dtype=source().integer)
    args = ("N", m, n, a, max(1, m), s, unused, 1, unused, 1)
    _call(kind + "gesdd", *args, query, -1, *rwork, iwork)
    lwork = int(query[0].real)
    info = _call(kind + "gesdd", *args, np.empty(lwork, dtype), lwork, *rwork, iwork,
                 rejects_nan=4)
    if info:
        raise LinAlgError("SVD did not converge")
    return s
