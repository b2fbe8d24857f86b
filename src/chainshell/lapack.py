"""scipy's f2py LAPACK module, loaded without running `scipy.linalg`.

The frame solver and the thin-plate fit call four LAPACK routines (dpbtrf,
dpbtrs, dtbtrs, dgesv).  They live in `scipy/linalg/_flapack*.so`, the module
`scipy.linalg` itself calls, linked to scipy's own OpenBLAS; importing the
`scipy.linalg` package to reach it costs far more than the routines' use.
The file is loaded once, at import, under its own name, so a later
`import scipy.linalg` shares the same module object.  If that name is
already imported it is used as it is; if the file is not found, the module
comes from `scipy.linalg` as usual.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import sys
from pathlib import Path
from types import ModuleType

_NAME = "scipy.linalg._flapack"
_SCIPY = importlib.util.find_spec("scipy")  # finds the package, runs none of it
# the directory the loader searches for the extension file
_LINALG_DIR = Path(_SCIPY.origin).parent / "linalg" if _SCIPY and _SCIPY.origin else None


def _load() -> ModuleType:
    if _NAME in sys.modules:
        return sys.modules[_NAME]
    files = [_LINALG_DIR / ("_flapack" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES] if _LINALG_DIR else []
    path = next((f for f in files if f.is_file()), None)
    if path is None:
        from scipy.linalg import _flapack
        return _flapack
    spec = importlib.util.spec_from_file_location(_NAME, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[_NAME] = module
    spec.loader.exec_module(module)
    return module


_FLAPACK = _load()


def flapack() -> ModuleType:
    """The f2py LAPACK module (`dgesv`, `dpbtrf`, `dpbtrs`, `dtbtrs`, ...)."""
    return _FLAPACK
