"""2D sectional deformation sweep.

Section profiles are sinusoids y(x) = A sin(2 pi f x / L) over a span L;
frequency f is the integer grid count dividing the span.  Feasibility per
(shape, f) comes from a data-driven envelope of maximum bendable amplitudes,
standing in for physical bend tests.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from .errors import EnvelopeError, ParameterError
from .units import Shape

AMPLITUDE_STEP_MM = 5.0
AMPLITUDE_MAX_MM = 40.0
FREQUENCY_MIN = 3

# Maximum bendable amplitude (mm) per frequency.  The rectangular entry is
# anchored at (35 mm, f=9); triangular and circular peak strictly lower.
# Entries other than the rectangular anchor are placeholders to be refined
# against future measurements.
DEFAULT_ENVELOPE_TABLE = {
    Shape.RECTANGULAR: {3: 15, 4: 20, 5: 20, 6: 25, 7: 25, 8: 30, 9: 35, 10: 30},
    Shape.CIRCULAR: {3: 10, 4: 15, 5: 15, 6: 20, 7: 20, 8: 25, 9: 25, 10: 20},
    Shape.TRIANGULAR: {3: 10, 4: 10, 5: 15, 6: 15, 7: 20, 8: 20, 9: 20, 10: 15},
}


def peak_curvature(amplitude: float, frequency: int, span: float) -> float:
    """Curvature at the sine crest (y' = 0): A (2 pi f / L)^2, 1/mm."""
    k = 2.0 * math.pi * frequency / span
    return amplitude * k * k


def require_feasible(shape: Shape, amplitude: float, frequency: int) -> None:
    """Raise EnvelopeError unless (A, f) lies within the shape's envelope,
    ParameterError for a negative A or an f the envelope has no entry for."""
    if amplitude < 0:
        raise ParameterError("amplitude must be non-negative")
    table = DEFAULT_ENVELOPE_TABLE[shape]
    if frequency not in table:
        raise ParameterError(
            f"envelope for {shape.value} has no entry for f={frequency}")
    # `not <=` so that a NaN amplitude is refused too
    if not amplitude <= table[frequency]:
        raise EnvelopeError(
            f"(A={amplitude} mm, f={frequency}) exceeds the feasibility envelope "
            f"for {shape.value} (max {table[frequency]} mm)")


def sweep_2d(envelope: Dict[int, float], f_max: int,
             span_mm: float) -> List[Tuple[float, int, bool, float]]:
    """Enumerate A in {0, 5, .., 40} x f in {3, .., f_max} against the
    {frequency: max_amplitude_mm} envelope.

    Rows are (amplitude_mm, frequency, feasible, peak_curvature), ordered by
    (A, f); a row is feasible iff A does not exceed the envelope's maximum
    amplitude at that frequency.
    """
    frequencies = list(range(FREQUENCY_MIN, f_max + 1))
    missing = [f for f in frequencies if f not in envelope]
    if missing:
        raise ParameterError(f"envelope does not cover frequencies {missing}")
    amplitudes = [AMPLITUDE_STEP_MM * i
                  for i in range(int(AMPLITUDE_MAX_MM / AMPLITUDE_STEP_MM) + 1)]
    return [(amp, f, amp <= envelope[f], peak_curvature(amp, f, span_mm))
            for amp in amplitudes for f in frequencies]
