"""chainshell.lapack: scipy's f2py LAPACK module, found and shared without
importing scipy.linalg.  Each test runs in a fresh interpreter, since what
is already imported decides which path the loader takes."""
from __future__ import annotations

import subprocess
import sys

from helpers import fresh_interpreter_env


def _fresh(code: str) -> str:
    """stdout of `code` in a new interpreter with this chainshell on its path."""
    done = subprocess.run([sys.executable, "-c", code], env=fresh_interpreter_env(),
                          check=True, capture_output=True, text=True, timeout=120)
    return done.stdout.strip()


def test_scipy_linalg_imported_first_shares_its_module():
    out = _fresh("import scipy.linalg\n"
                 "from chainshell.lapack import flapack\n"
                 "print(flapack() is scipy.linalg._flapack)")
    assert out == "True"


def test_scipy_linalg_imported_later_reuses_the_loaded_module():
    out = _fresh("import sys\n"
                 "from chainshell.lapack import flapack\n"
                 "print('scipy.linalg' in sys.modules)\n"
                 "import scipy.linalg.lapack\n"
                 "print(scipy.linalg.lapack.dgesv is flapack().dgesv,\n"
                 "      scipy.linalg.lapack._flapack is flapack())")
    assert out.splitlines() == ["False", "True True"]


# a solve (dpbtrf, dpbtrs), a mechanism (dpbtrf, dtbtrs) and a thin-plate fit (dgesv),
# hashed; then the extension file is made to miss and the same is hashed again
_FALLBACK = """
import hashlib, sys
from pathlib import Path
import numpy as np
from chainshell import fem, lapack, spline

def digest():
    h = hashlib.sha256()
    section = fem.BeamSection(1e-3, 2e-6, 3e-6, 4e-6)
    moduli = (2e9, 8e8)  # elastic and shear, Pa
    xs = np.linspace(0.0, 1.5, 7)
    nodes = np.column_stack([xs, 0.3 * xs ** 2, np.zeros(7)])
    ends = np.column_stack([np.arange(6), np.arange(1, 7)])
    held = np.zeros((7, 6), dtype=bool)
    held[0] = fem.FIXED
    fixed = fem.FrameModel(nodes, ends, section, held, *moduli)
    forces = np.zeros((7, 3))
    forces[6] = (10.0, 100.0, -200.0)
    h.update(fem.solve(fixed, forces).displacements.tobytes())
    straight = np.column_stack([xs, np.zeros(7), np.zeros(7)])
    pins = np.zeros((7, 6), dtype=bool)
    pins[[0, 6]] = fem.PINNED
    pinned = fem.FrameModel(straight, ends, section, pins, *moduli)
    forces = np.zeros((7, 3))
    forces[3, 2] = -100.0
    try:
        fem.solve(pinned, forces)
    except fem.MechanismError as err:
        h.update(repr(err.dofs).encode())
    else:
        raise SystemExit("the pin-pin chain solved")
    rng = np.random.default_rng(5)
    fit = spline.thin_plate_grid(rng.random((12, 2)), rng.random(12),
                                 np.linspace(0.0, 1.0, 9))
    h.update(fit.tobytes())
    return h.hexdigest()

normal = digest()
del sys.modules["scipy.linalg._flapack"]
lapack._LINALG_DIR = Path(sys.argv[0]) / "missing"
lapack._FLAPACK = lapack._load()
print("scipy.linalg" in sys.modules, lapack.flapack().__name__)
print(digest() == normal)
"""


def test_a_missing_extension_file_falls_back_to_scipy_linalg_with_the_same_bits():
    out = _fresh(_FALLBACK)
    assert out.splitlines() == ["True scipy.linalg._flapack", "True"]
