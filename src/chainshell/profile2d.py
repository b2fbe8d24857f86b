"""2D sectional deformation sweep.

Section profiles are sinusoids y(x) = A sin(2 pi f x / L) over a span L;
frequency f is the integer grid count dividing the span.  Feasibility per
(shape, f) comes from a data-driven envelope of maximum bendable amplitudes,
standing in for physical bend tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple

from .errors import ParameterError
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


@dataclass(frozen=True)
class SectionProfile:
    """Sinusoidal section: amplitude in mm, integer frequency, span in mm."""

    amplitude_A: float
    frequency_f: int
    span_L: float

    def __post_init__(self):
        if self.span_L <= 0:
            raise ParameterError("span must be positive")
        if not float(self.frequency_f).is_integer() or self.frequency_f < 3:
            raise ParameterError("frequency must be an integer grid count >= 3")
        if not 0.0 <= self.amplitude_A <= AMPLITUDE_MAX_MM:
            raise ParameterError(
                f"amplitude {self.amplitude_A} mm outside sweep range "
                f"[0, {AMPLITUDE_MAX_MM}]"
            )


def profile_height(x: float, p: SectionProfile) -> float:
    """Deformation height y(x) = A sin(2 pi f x / L), mm."""
    if not 0.0 <= x <= p.span_L:
        raise ParameterError(f"x={x} outside span [0, {p.span_L}]")
    return p.amplitude_A * math.sin(2.0 * math.pi * p.frequency_f * x / p.span_L)


def profile_curvature(x: float, p: SectionProfile) -> float:
    """Unsigned curvature |y''| / (1 + y'^2)^(3/2), 1/mm, analytic."""
    if not 0.0 <= x <= p.span_L:
        raise ParameterError(f"x={x} outside span [0, {p.span_L}]")
    k = 2.0 * math.pi * p.frequency_f / p.span_L
    phase = k * x
    yp = p.amplitude_A * k * math.cos(phase)
    ypp = -p.amplitude_A * k * k * math.sin(phase)
    return abs(ypp) / (1.0 + yp * yp) ** 1.5


def peak_curvature(p: SectionProfile) -> float:
    """Curvature at the sine crest (y' = 0): A (2 pi f / L)^2."""
    k = 2.0 * math.pi * p.frequency_f / p.span_L
    return p.amplitude_A * k * k


@dataclass(frozen=True)
class FeasibilityEnvelope:
    """Per-shape table of maximum bendable amplitude versus frequency."""

    shape: Shape
    max_feasible: Tuple[Tuple[int, float], ...]

    def __post_init__(self):
        for f, max_a in self.max_feasible:
            if max_a < 0:
                raise ParameterError(f"max amplitude for f={f} must be non-negative")

    def max_amplitude(self, frequency: int) -> float:
        for f, max_a in self.max_feasible:
            if f == frequency:
                return max_a
        raise ParameterError(
            f"envelope for {self.shape.value} has no entry for f={frequency}"
        )

    def frequencies(self) -> List[int]:
        return [f for f, _ in self.max_feasible]

    def is_feasible(self, amplitude: float, frequency: int) -> bool:
        return amplitude <= self.max_amplitude(frequency)


def default_envelope(shape: Shape) -> FeasibilityEnvelope:
    table = DEFAULT_ENVELOPE_TABLE[shape]
    return FeasibilityEnvelope(shape, tuple(sorted(table.items())))


@dataclass(frozen=True)
class SweepCell:
    amplitude_A: float
    frequency_f: int
    feasible: bool
    peak_curvature: float


@dataclass
class SweepReport:
    shape: Shape
    cells: List[SweepCell] = field(default_factory=list)

    @property
    def max_feasible_cell(self) -> Tuple[float, int]:
        """Maximal feasible (A, f), ordered by amplitude then frequency."""
        feasible = [(c.amplitude_A, c.frequency_f) for c in self.cells if c.feasible]
        if not feasible:
            return (0.0, 0)
        return max(feasible)


def sweep_2d(shape: Shape, envelope: FeasibilityEnvelope,
             f_max: int, span_L: float) -> SweepReport:
    """Enumerate A in {0, 5, .., 40} x f in {3, .., f_max} against the envelope.

    Cells are ordered by (A, f); a cell is feasible iff A does not exceed the
    envelope's maximum amplitude at that frequency.
    """
    frequencies = list(range(FREQUENCY_MIN, f_max + 1))
    missing = [f for f in frequencies if f not in envelope.frequencies()]
    if missing:
        raise ParameterError(
            f"envelope for {shape.value} does not cover frequencies {missing}"
        )
    report = SweepReport(shape)
    amplitudes = [AMPLITUDE_STEP_MM * i
                  for i in range(int(AMPLITUDE_MAX_MM / AMPLITUDE_STEP_MM) + 1)]
    for amp in amplitudes:
        for f in frequencies:
            profile = SectionProfile(amplitude_A=amp, frequency_f=f, span_L=span_L)
            report.cells.append(SweepCell(
                amplitude_A=amp,
                frequency_f=f,
                feasible=envelope.is_feasible(amp, f),
                peak_curvature=peak_curvature(profile),
            ))
    return report


def parse_envelope_file(lines: Iterable[str]) -> Dict[Shape, FeasibilityEnvelope]:
    """Read envelopes from text: one `shape frequency max_amplitude_mm` per line.

    Blank lines and `#` comments are ignored.  Whitespace or commas separate
    the three fields.
    """
    tables: Dict[Shape, Dict[int, float]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 3:
            raise ParameterError(f"envelope line {lineno}: expected 'shape f max_A'")
        shape = Shape.parse(parts[0])
        try:
            f = int(parts[1])
            max_a = float(parts[2])
        except ValueError as exc:
            raise ParameterError(f"envelope line {lineno}: {exc}") from exc
        tables.setdefault(shape, {})[f] = max_a
    return {
        shape: FeasibilityEnvelope(shape, tuple(sorted(table.items())))
        for shape, table in tables.items()
    }
