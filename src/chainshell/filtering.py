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

DEFAULT_KEEP = 4
TOLERANCE_FRACTION = 0.02   # first-pass tolerance: 2% of the pool median
MAX_HALVINGS = 10


@dataclass(frozen=True)
class SurfaceMetrics:
    perimeter_P: float  # metres, boundary loop length in 3D
    area_a: float       # square metres


def measure(surface: ShellSurface) -> SurfaceMetrics:
    """Boundary-loop length and total triangle area of the surface mesh."""
    mesh = surface.mesh
    edges = mesh.require_single_boundary_loop()
    return SurfaceMetrics(perimeter_P=mesh.edge_length(edges), area_a=mesh.area())


def _distinct(m1: SurfaceMetrics, m2: SurfaceMetrics,
              dP: float, da: float) -> bool:
    return (abs(m1.perimeter_P - m2.perimeter_P) > dP
            or abs(m1.area_a - m2.area_a) > da)


def select_indices(metrics: Sequence[SurfaceMetrics], dP: float, da: float,
                   k: int = DEFAULT_KEEP) -> List[int]:
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


def auto_tolerance_from_metrics(metrics: Sequence[SurfaceMetrics],
                                k: int = DEFAULT_KEEP) -> Tuple[float, float]:
    """Tolerances that yield k distinct surfaces from this pool's metrics.

    Starts at 2% of the median perimeter and median area; halves both
    (at most 10 times) while the greedy selection comes up short, then
    bottoms out at zero where any bitwise metric difference is distinct.
    """
    dP = TOLERANCE_FRACTION * float(np.median([m.perimeter_P for m in metrics]))
    da = TOLERANCE_FRACTION * float(np.median([m.area_a for m in metrics]))
    for _ in range(MAX_HALVINGS):
        if len(select_indices(metrics, dP, da, k)) >= k:
            return dP, da
        dP *= 0.5
        da *= 0.5
    if len(select_indices(metrics, dP, da, k)) >= k:
        return dP, da
    # floor: any bitwise difference counts as distinct
    return 0.0, 0.0


@dataclass(frozen=True)
class FilterOutcome:
    """Filtering result for one pool: metrics, kept flags, tolerances used."""

    metrics: List[SurfaceMetrics]
    kept_indices: List[int]
    dP: float
    da: float


def filter_surfaces(metrics: Sequence[SurfaceMetrics], k: int = DEFAULT_KEEP,
                    dP: Optional[float] = None,
                    da: Optional[float] = None) -> FilterOutcome:
    """Select k distinct members of a measured pool.

    Tolerances are taken from the caller when both are given, otherwise
    chosen by the auto rule.
    """
    if not metrics:
        raise ParameterError("surface pool is empty")
    metrics = list(metrics)
    if dP is None or da is None:
        if len(metrics) >= 2:
            dP, da = auto_tolerance_from_metrics(metrics, k)
        else:
            dP, da = 0.0, 0.0
    kept = select_indices(metrics, dP, da, k)
    return FilterOutcome(metrics=metrics, kept_indices=kept, dP=dP, da=da)
