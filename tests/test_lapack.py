"""chainshell.lapack: dpbtrf, dpbtrs, dtbtrs and dgesv from numpy's own
OpenBLAS, against scipy.linalg.lapack's f2py wrappers of the same routines.

The two are different OpenBLAS builds, so factors and solutions agree to
rounding, not bit for bit; `info`, pivots and which arrays are worked on in
place agree exactly.  The process-level tests run in a fresh interpreter,
since the test process itself has scipy's OpenBLAS loaded.
"""
from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack as scipy_lapack

from chainshell import lapack
from chainshell.lapack import flapack

from helpers import fresh_interpreter_env

# agreement with scipy, relative to the largest magnitude in scipy's result
RTOL = 1e-12


def _close(ours: np.ndarray, theirs: np.ndarray) -> None:
    assert ours.shape == theirs.shape
    assert np.abs(ours - theirs).max() <= RTOL * np.abs(theirs).max()


def _spd(rng, n: int, kd: int) -> np.ndarray:
    """A random symmetric, diagonally dominant (so positive definite) band
    matrix of order n and half-bandwidth kd, dense."""
    a = np.diag(2.0 * kd + 1.0 + rng.random(n))
    for d in range(1, kd + 1):
        off = rng.uniform(-1.0, 1.0, n - d)
        a += np.diag(off, d) + np.diag(off, -d)
    return a


def _band(a: np.ndarray, kd: int, lower: int) -> np.ndarray:
    """LAPACK's band storage of symmetric a, its lower or upper triangle."""
    n = len(a)
    ab = np.zeros((kd + 1, n), order="F")
    for d in range(kd + 1):
        if lower:
            ab[d, :n - d] = np.diagonal(a, -d)
        else:
            ab[kd - d, d:] = np.diagonal(a, d)
    return ab


@pytest.mark.parametrize("lower", [1, 0])
@pytest.mark.parametrize("seed", range(4))
def test_band_routines_agree_with_scipy(seed, lower):
    rng = np.random.default_rng(seed)
    n, kd = int(rng.integers(20, 200)), int(rng.integers(1, 12))
    ab = _band(_spd(rng, n, kd), kd, lower)
    factor, info = flapack().dpbtrf(ab, lower=lower)
    theirs, their_info = scipy_lapack.dpbtrf(ab, lower=lower)
    assert info == their_info == 0
    _close(factor, theirs)
    for b in (rng.standard_normal(n), rng.standard_normal((n, 3))):
        x, info = flapack().dpbtrs(factor, b, lower=lower)
        assert info == 0
        _close(x, scipy_lapack.dpbtrs(theirs, b, lower=lower)[0])
    # a leading block of the factor, as the mechanism search solves it
    j = n // 2
    b = rng.standard_normal((j, 1))
    uplo = "L" if lower else "U"
    for trans in ("N", "T"):
        x, info = flapack().dtbtrs(factor[:, :j], b, uplo=uplo, trans=trans)
        assert info == 0
        _close(x, scipy_lapack.dtbtrs(theirs[:, :j], b, uplo=uplo, trans=trans)[0])


@pytest.mark.parametrize("seed", range(4))
def test_dgesv_agrees_with_scipy(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 60))
    a, b = rng.standard_normal((n, n)), rng.standard_normal((n, 2))
    lu, piv, x, info = flapack().dgesv(a, b)
    their_lu, their_piv, their_x, their_info = scipy_lapack.dgesv(a, b)
    assert info == their_info == 0
    assert np.array_equal(piv, their_piv)
    _close(lu, their_lu)
    _close(x, their_x)


def test_a_band_that_is_not_positive_definite_gives_scipys_info():
    rng = np.random.default_rng(1)
    a = _spd(rng, 30, 4)
    a[7, 7] = -1.0  # the leading minor of order 8 is not positive definite
    ab = _band(a, 4, 1)
    assert flapack().dpbtrf(ab, lower=1)[1] == scipy_lapack.dpbtrf(ab, lower=1)[1] == 8


def test_a_singular_system_gives_scipys_info():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((6, 6))
    a[:, 2] = 0.0  # the third pivot is exactly zero
    b = np.ones((6, 1))
    assert flapack().dgesv(a, b)[3] == scipy_lapack.dgesv(a, b)[3] == 3


def test_the_band_and_the_dgesv_operands_are_worked_on_in_place():
    rng = np.random.default_rng(3)
    ab = _band(_spd(rng, 40, 5), 5, 1)
    before = ab.copy()
    factor, info = flapack().dpbtrf(ab, lower=1, overwrite_ab=1)
    assert factor is ab and info == 0 and not np.array_equal(ab, before)
    # without overwrite_ab, or on a C-ordered band, the input is left as it was
    kept = before.copy()
    assert flapack().dpbtrf(kept, lower=1)[0] is not kept
    c_ordered = np.ascontiguousarray(before)
    assert flapack().dpbtrf(c_ordered, lower=1, overwrite_ab=1)[0] is not c_ordered
    assert np.array_equal(kept, before) and np.array_equal(c_ordered, before)

    lhs = np.asfortranarray(rng.standard_normal((9, 9)))
    rhs = np.asfortranarray(rng.standard_normal((9, 1)))
    lu, _, x, info = flapack().dgesv(lhs, rhs, overwrite_a=True, overwrite_b=True)
    assert lu is lhs and x is rhs and info == 0


def _fresh(code: str) -> str:
    """stdout of `code` in a new interpreter with this chainshell on its path."""
    done = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                          check=True, capture_output=True, text=True, timeout=300)
    return done.stdout.strip()


TRIMMED = "[gen3d]\niterations = 3\n\n[filter]\nkeep = 2\n\n[optimizer]\niterations_per_anchor = 2\n"


@pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="needs Linux /proc")
@pytest.mark.skipif(not isinstance(flapack(), lapack._OpenBLAS),
                    reason="numpy ships no ILP64 OpenBLAS here")
def test_a_run_maps_one_openblas_library(tmp_path):
    cfg = tmp_path / "small.ini"
    cfg.write_text(TRIMMED)
    out = _fresh("from chainshell.cli import main\n"
                 "from chainshell.lapack import flapack\n"
                 f"assert main(['run', '--config', {str(cfg)!r}, "
                 f"'--out', {str(tmp_path / 'run')!r}]) == 0\n"
                 "with open('/proc/self/maps') as fh:\n"
                 "    print(sorted({line.split()[-1] for line in fh if 'openblas' in line}))\n"
                 "print([flapack().__file__])")
    maps, bound = out.splitlines()[-2:]
    assert maps == bound
    assert "numpy" in bound


def test_without_numpys_library_the_routines_come_from_scipy_with_the_same_run(tmp_path):
    # the finder is made to miss; the default run must print its published hash
    out = _fresh("from chainshell import lapack\n"
                 "lapack._numpy_openblas = lambda: None\n"
                 "lapack._FLAPACK = lapack._load()\n"
                 "import scipy.linalg.lapack\n"
                 "print(lapack.flapack() is scipy.linalg.lapack)\n"
                 "from chainshell.cli import main\n"
                 f"assert main(['run', '--out', {str(tmp_path / 'run')!r}]) == 0")
    lines = out.splitlines()
    assert lines[0] == "True"
    assert lines[-1] == ("manifest hash: "
                         "b601c715bb9e2dfccf7e05973a6c98740cea595bd3d1485add5ee8226dc93923")
