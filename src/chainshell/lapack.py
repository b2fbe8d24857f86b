"""The four LAPACK routines chainshell calls, bound from numpy's own OpenBLAS.

The frame solver factors and solves its stiffness band with dpbtrf and
dpbtrs and names a mechanism with dtbtrs; the thin-plate fit solves its
system with dgesv.  numpy's wheels ship OpenBLAS with 64-bit integers
(ILP64) as `libscipy_openblas64_*`, in `numpy.libs/` on Linux and Windows
and in `numpy/.dylibs/` on macOS, its symbols named `scipy_<routine>_64_`.
numpy has that file loaded already; opening it again with ctypes gives the
same library, so a run maps one OpenBLAS (scipy's `_flapack` would map a
second, its own).

`flapack()` returns the routines under scipy's f2py names, with the f2py
keywords and result tuples chainshell uses: `dpbtrf(ab, lower,
overwrite_ab) -> (c, info)`, `dpbtrs(ab, b, lower) -> (x, info)`,
`dtbtrs(ab, b, uplo, trans) -> (x, info)` and `dgesv(a, b, overwrite_a,
overwrite_b) -> (lu, piv, x, info)`.  As with f2py, an array that may be
overwritten and already is a writable Fortran-ordered float64 array is
worked on in place; any other is copied first.  If numpy ships no such file,
or it lacks one of the routines, `flapack()` is `scipy.linalg.lapack`.
"""

from __future__ import annotations

import ctypes
from pathlib import Path
from typing import Optional

import numpy as np

_INT = ctypes.POINTER(ctypes.c_int64)  # Fortran INTEGER*8, by reference
_PTR = ctypes.c_void_p                  # array data
_CHAR = ctypes.c_char_p                 # CHARACTER*1
_LEN = ctypes.c_size_t                  # hidden length of a CHARACTER argument
_ARGTYPES = {
    "dpbtrf": [_CHAR, _INT, _INT, _PTR, _INT, _INT, _LEN],
    "dpbtrs": [_CHAR, _INT, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT, _LEN],
    "dtbtrs": [_CHAR, _CHAR, _CHAR, _INT, _INT, _INT, _PTR, _INT, _PTR, _INT, _INT,
               _LEN, _LEN, _LEN],
    "dgesv": [_INT, _INT, _PTR, _INT, _PTR, _PTR, _INT, _INT],
}


def _fortran(a, overwrite: bool) -> np.ndarray:
    """`a` as a writable Fortran-ordered float64 array: `a` itself when
    overwrite allows it and it already is one, else a copy."""
    if overwrite:
        a = np.asarray(a, dtype=np.float64, order="F")
        if a.flags.writeable:
            return a
    return np.array(a, dtype=np.float64, order="F")


def _rows(b: np.ndarray, n: int) -> int:
    """The right-hand-side count of b, an (n,) or (n, nrhs) array."""
    if b.ndim not in (1, 2) or b.shape[0] != n:
        raise ValueError(f"right-hand side of shape {b.shape} for a system of order {n}")
    return b.shape[1] if b.ndim == 2 else 1


class _OpenBLAS:
    """dpbtrf, dpbtrs, dtbtrs and dgesv of an ILP64 OpenBLAS file."""

    def __init__(self, path: Path):
        library = ctypes.CDLL(str(path))
        self.__file__ = str(path)
        for name, argtypes in _ARGTYPES.items():
            routine = getattr(library, f"scipy_{name}_64_")  # AttributeError if absent
            routine.argtypes, routine.restype = argtypes, None
            setattr(self, "_" + name, routine)

    def __repr__(self) -> str:
        return f"numpy's OpenBLAS {self.__file__}"

    def dpbtrf(self, ab, lower=0, overwrite_ab=0):
        c = _fortran(ab, overwrite_ab)
        ldab, n = c.shape
        info = ctypes.c_int64()
        self._dpbtrf(b"L" if lower else b"U", ctypes.c_int64(n), ctypes.c_int64(ldab - 1),
                     c.ctypes.data, ctypes.c_int64(ldab), info, 1)
        return c, info.value

    def dpbtrs(self, ab, b, lower=0):
        ab = np.asarray(ab, dtype=np.float64, order="F")
        x = _fortran(b, False)
        ldab, n = ab.shape
        info = ctypes.c_int64()
        self._dpbtrs(b"L" if lower else b"U", ctypes.c_int64(n), ctypes.c_int64(ldab - 1),
                     ctypes.c_int64(_rows(x, n)), ab.ctypes.data, ctypes.c_int64(ldab),
                     x.ctypes.data, ctypes.c_int64(max(1, n)), info, 1)
        return x, info.value

    def dtbtrs(self, ab, b, uplo="U", trans="N"):
        ab = np.asarray(ab, dtype=np.float64, order="F")
        x = _fortran(b, False)
        ldab, n = ab.shape
        info = ctypes.c_int64()
        self._dtbtrs(uplo.encode(), trans.encode(), b"N", ctypes.c_int64(n),
                     ctypes.c_int64(ldab - 1), ctypes.c_int64(_rows(x, n)), ab.ctypes.data,
                     ctypes.c_int64(ldab), x.ctypes.data, ctypes.c_int64(max(1, n)), info,
                     1, 1, 1)
        return x, info.value

    def dgesv(self, a, b, overwrite_a=0, overwrite_b=0):
        lu = _fortran(a, overwrite_a)
        x = _fortran(b, overwrite_b)
        n = len(lu)
        if lu.shape != (n, n):
            raise ValueError(f"dgesv needs a square matrix, got shape {lu.shape}")
        order = ctypes.c_int64(max(1, n))
        piv = np.empty(n, dtype=np.int64)
        info = ctypes.c_int64()
        self._dgesv(ctypes.c_int64(n), ctypes.c_int64(_rows(x, n)), lu.ctypes.data, order,
                    piv.ctypes.data, x.ctypes.data, order, info)
        piv -= 1  # 0-based, as f2py returns it
        return lu, piv, x, info.value


def _numpy_openblas() -> Optional[Path]:
    """The ILP64 OpenBLAS file numpy's wheel ships, if there is one."""
    package = Path(np.__file__).parent
    for folder in (package.parent / "numpy.libs", package / ".dylibs"):
        for path in sorted(folder.glob("libscipy_openblas64_*")):
            return path
    return None


def _load():
    path = _numpy_openblas()
    if path is not None:
        try:
            return _OpenBLAS(path)
        except (OSError, AttributeError):  # not loadable, or a routine missing
            pass
    from scipy.linalg import lapack
    return lapack


_FLAPACK = _load()


def flapack():
    """The LAPACK routines (`dgesv`, `dpbtrf`, `dpbtrs`, `dtbtrs`): numpy's
    OpenBLAS, or `scipy.linalg.lapack` where numpy ships none."""
    return _FLAPACK
