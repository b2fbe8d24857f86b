"""Batch design toolkit for vacuum-jammed chainmail shell structures.

Modules cover unit-cell geometry, the 2D feasibility sweep, 3D shell
generation, surface filtering, load cases, a beam-frame solver, and a
weighted multi-criteria shelter optimizer, tied together by a seeded,
reproducible pipeline and CLI.
"""

from .errors import (ChainshellError, ConfigError, EnvelopeError, GeometryError,
                     InfeasibleError, MechanismError, ParameterError, StageError)

__version__ = "0.1.0"

__all__ = [
    "ChainshellError", "ConfigError", "EnvelopeError", "GeometryError",
    "InfeasibleError", "MechanismError", "ParameterError", "StageError",
    "__version__",
]
