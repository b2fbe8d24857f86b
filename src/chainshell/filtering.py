"""Perimeter/area metrics and greedy distinct-surface selection.

A pool of generated iterations is reduced to k mutually distinct surfaces:
a candidate is kept iff against every already-kept surface it differs by
more than dP in perimeter or more than da in area.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError
from .shell3d import ShellSurface

TOLERANCE_FRACTION = 0.02   # first-pass tolerance: 2% of the pool median
MAX_HALVINGS = 10


@dataclass(frozen=True)
class SurfaceMetrics:
    perimeter_P: float  # metres, boundary loop length in 3D
    area_a: float       # square metres


def measure(surface: ShellSurface) -> SurfaceMetrics:
    """Boundary-loop length and total triangle area of the surface mesh."""
    mesh = surface.mesh
    return SurfaceMetrics(perimeter_P=mesh.boundary_length(), area_a=mesh.area())


def _distinct(m1: SurfaceMetrics, m2: SurfaceMetrics,
              dP: float, da: float) -> bool:
    return (abs(m1.perimeter_P - m2.perimeter_P) > dP
            or abs(m1.area_a - m2.area_a) > da)


def select_indices(metrics: Sequence[SurfaceMetrics], dP: float, da: float,
                   k: int) -> List[int]:
    """Greedy scan in input order; kept iff distinct from every kept so far."""
    if dP < 0 or da < 0:
        raise ParameterError("tolerances must be non-negative")
    if k < 1:
        raise ParameterError("keep count must be >= 1")
    kept: List[int] = []
    for i, m in enumerate(metrics):
        if all(_distinct(m, metrics[j], dP, da) for j in kept):
            kept.append(i)
            if len(kept) == k:
                break
    return kept


def _median(values: Sequence[float]) -> float:
    """np.median of finite floats, bit for bit, without its numpy.ma import:
    np.mean of the middle one or two values of the sorted list."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    return float(np.mean(ordered[mid - 1 + len(ordered) % 2:mid + 1]))


def auto_tolerance_from_metrics(metrics: Sequence[SurfaceMetrics],
                                k: int) -> Tuple[float, float]:
    """Tolerances that yield k distinct surfaces from this pool's metrics.

    Starts at 2% of the median perimeter and median area; halves both
    (at most 10 times) while the greedy selection comes up short, then
    bottoms out at zero where any bitwise metric difference is distinct.
    """
    dP = TOLERANCE_FRACTION * _median([m.perimeter_P for m in metrics])
    da = TOLERANCE_FRACTION * _median([m.area_a for m in metrics])
    for _ in range(MAX_HALVINGS + 1):
        if len(select_indices(metrics, dP, da, k)) >= k:
            return dP, da
        dP *= 0.5
        da *= 0.5
    # floor: any bitwise difference counts as distinct
    return 0.0, 0.0


def filter_surfaces(metrics: Sequence[SurfaceMetrics], k: int,
                    dP: Optional[float] = None,
                    da: Optional[float] = None) -> Tuple[List[int], float, float]:
    """Select k distinct members of a measured pool: (kept indices, dP, da).

    Tolerances are taken from the caller when both are given, otherwise
    chosen by the auto rule.
    """
    if not metrics:
        raise ParameterError("surface pool is empty")
    if dP is None or da is None:
        if len(metrics) >= 2:
            dP, da = auto_tolerance_from_metrics(metrics, k)
        else:
            dP, da = 0.0, 0.0
    return select_indices(metrics, dP, da, k), dP, da
