"""Pipeline configuration: defaults, INI-style parsing, validation, seeds.

All defaults reproduce the published constants; every stage derives its
randomness from the single top-level seed keyed by stage name.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from . import units
from .errors import ConfigError
from .profile2d import (AMPLITUDE_MAX_MM, DEFAULT_ENVELOPE_TABLE, FREQUENCY_MIN,
                        peak_curvature)
from .shell3d import GROUP_SHAPE, group_parameters
from .units import Shape

_MASK63 = (1 << 63) - 1


def derive_seed(seed: int, stage: str) -> int:
    """Deterministic per-stage seed from the top-level seed."""
    digest = hashlib.sha256(f"{seed}:{stage}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK63


@dataclass(frozen=True)
class UnitBlock:
    shape: str = "rectangular"
    member_length_mm: float = 11.0
    rod_diameter_mm: float = 1.0
    target_ratio: float = 0.08
    density_g_cm3: float = 1.38


@dataclass(frozen=True)
class Sweep2dBlock:
    shape: str = "rectangular"
    amplitude_step_mm: float = 5.0
    frequency_start: int = 3
    frequency_max: int = 10
    span_mm: float = 2000.0


@dataclass(frozen=True)
class Gen3dBlock:
    iterations: int = 20
    groups: int = 4
    span_mm: float = 2000.0
    resolution: int = 64


@dataclass(frozen=True)
class FilterBlock:
    keep: int = 4
    tolerance_mode: str = "auto"   # auto | explicit
    perimeter_tolerance_m: float = 0.0
    area_tolerance_m2: float = 0.0


@dataclass(frozen=True)
class LoadsBlock:
    plan_area_m2: float = 4.0
    thickness_m: float = 0.08
    unit_weight_kn_m3: float = 1.13
    snow_shape_factor: float = 0.8
    wind_shape_factor: float = 0.75
    solid_fraction: float = 0.08


@dataclass(frozen=True)
class FemBlock:
    elastic_modulus_pa: float = 2.1e9
    shear_modulus_pa: float = 0.78e9
    lattice_grid: int = 10
    supports: str = "boundary-fixed"   # boundary-fixed | corner-pinned


@dataclass(frozen=True)
class OptimizerBlock:
    iterations_per_anchor: int = 20
    amplitude_cap_m: float = 3.0
    amplitude_min_fraction: float = 0.5
    control_F: int = 4
    weight_cms: float = 0.4
    weight_ua: float = 0.4
    weight_lc: float = 0.1
    weight_fc: float = 0.1
    min_slope: float = 0.02
    slope_rule: str = "ponding"        # ponding | strict
    headroom_m: float = 1.5
    column_section_side_m: float = 0.05
    reduction_tolerance: float = 0.02

    @property
    def weights(self) -> Tuple[float, float, float, float]:
        return (self.weight_cms, self.weight_ua, self.weight_lc, self.weight_fc)


@dataclass(frozen=True)
class PipelineConfig:
    seed: int = 7
    threads: int = 1
    unit: UnitBlock = field(default_factory=UnitBlock)
    sweep2d: Sweep2dBlock = field(default_factory=Sweep2dBlock)
    gen3d: Gen3dBlock = field(default_factory=Gen3dBlock)
    filter: FilterBlock = field(default_factory=FilterBlock)
    loads: LoadsBlock = field(default_factory=LoadsBlock)
    fem: FemBlock = field(default_factory=FemBlock)
    optimizer: OptimizerBlock = field(default_factory=OptimizerBlock)


_BLOCK_NAMES = ("unit", "sweep2d", "gen3d", "filter", "loads", "fem", "optimizer")
_SECTIONS = ("run",) + _BLOCK_NAMES
_SHAPES = tuple(shape.value for shape in Shape)

# One row per bounded key, checked in this order: (operator, bound) pairs, a
# lower bound and maybe an upper one, or the noun a refusal names and the values
# allowed.  Bounds set by other keys are derived checks below; see docs/formats.md.
BOUNDS = {
    "run.threads": (">=", 1),
    "unit.shape": ("shape", _SHAPES),
    "unit.target_ratio": (">", 0),
    "unit.density_g_cm3": (">", 0),
    "sweep2d.shape": ("shape", _SHAPES),
    "sweep2d.frequency_max": (">=", FREQUENCY_MIN),
    "sweep2d.span_mm": (">", 0),
    "gen3d.iterations": (">=", 1),
    "gen3d.groups": (">=", 1),
    "gen3d.span_mm": (">", 0),
    "filter.keep": (">=", 1),
    "filter.tolerance_mode": ("tolerance mode", ("auto", "explicit")),
    "filter.perimeter_tolerance_m": (">=", 0),
    "filter.area_tolerance_m2": (">=", 0),
    "loads.plan_area_m2": (">", 0),
    "loads.thickness_m": (">", 0),
    "loads.unit_weight_kn_m3": (">", 0),
    "loads.snow_shape_factor": (">", 0, "<=", 1),
    "loads.wind_shape_factor": (">", 0),
    "loads.solid_fraction": (">", 0, "<=", 1),
    "fem.elastic_modulus_pa": (">", 0),
    "fem.shear_modulus_pa": (">", 0),
    "fem.lattice_grid": (">=", 2),
    "fem.supports": ("support mode", ("boundary-fixed", "corner-pinned")),
    "optimizer.iterations_per_anchor": (">=", 1),
    "optimizer.amplitude_cap_m": (">", 0, "<=", 3),
    "optimizer.amplitude_min_fraction": (">=", 0, "<", 1),
    "optimizer.control_F": (">=", 2),
    "optimizer.weight_cms": (">=", 0),
    "optimizer.weight_ua": (">=", 0),
    "optimizer.weight_lc": (">=", 0),
    "optimizer.weight_fc": (">=", 0),
    "optimizer.min_slope": (">=", 0),
    "optimizer.slope_rule": ("slope rule", ("ponding", "strict")),
    "optimizer.headroom_m": (">=", 0),
    "optimizer.column_section_side_m": (">", 0),
    "optimizer.reduction_tolerance": (">=", 0),
}


def _section(config: PipelineConfig, section: str) -> Dict[str, object]:
    """One [section]'s keys and values; the [run] keys are the config's own."""
    if section == "run":
        return {k: v for k, v in vars(config).items() if k not in _BLOCK_NAMES}
    return vars(getattr(config, section))


def _refusal(key: str, value, row) -> Optional[str]:
    """Why `value` breaks its BOUNDS row, or None when it keeps to it."""
    if isinstance(row[1], tuple):
        return (None if value in row[1] else f"unknown {row[0]} {value!r} for {key}, "
                f"expected one of {', '.join(row[1])}")
    pairs = iter(row)
    for op, bound in zip(pairs, pairs):
        if not (value > bound if op == ">" else value >= bound if op == ">="
                else value < bound if op == "<" else value <= bound):
            must = " and ".join(f"{op} {b}" for op, b in zip(row[::2], row[1::2]))
            return f"{key} must be {must}, got {value}"
    return None


# The most memory one config may ask for at once.  Each estimate below is
# an upper bound on what the run holds at its peak for the key that drives
# it, in bytes; docs/formats.md lists them.
COST_BUDGET_BYTES = 1 << 30


def cost_estimates(config: PipelineConfig) -> Dict[str, int]:
    """Estimated peak bytes of each part of a run, by the key that drives it.

    The frame solve's band: 6 free DOFs per node of the (grid+1)^2 lattice
    times a row-major band height of at most 6 (grid+1) + 12, 8 B each.  A
    pool surface: 512 B per lattice vertex (its float64 arrays, the mesh
    text and the Python values formatted into it).  A pool's Philox draws:
    128 B per double.  The shelter study: 16 kB plus 128 B per control
    point for each of its 5 x iterations_per_anchor candidates (their draws,
    the lane stacks and their records).
    """
    n, res = config.fem.lattice_grid + 1, config.gen3d.resolution
    m = config.optimizer.control_F + 1
    # one candidate per anchor kind already past the budget: the grid is too fine
    study = 5 * (16384 + 128 * m * m)
    key = ("optimizer.iterations_per_anchor" if study <= COST_BUDGET_BYTES
           else "optimizer.control_F")
    return {"fem.lattice_grid": 6 * n * n * (6 * n + 12) * 8,
            "gen3d.resolution": 512 * res * res,
            "gen3d.iterations": 128 * config.gen3d.iterations * (config.gen3d.groups + 2) ** 2,
            key: config.optimizer.iterations_per_anchor * study}


def _ratio_ceiling(config: PipelineConfig) -> None:
    top = min(units.max_ratio(units.UnitCell(s, *units.STANDARD_DIMENSIONS[s.value]))
              for s in Shape)
    if config.unit.target_ratio > top:
        raise ConfigError(f"unit.target_ratio = {config.unit.target_ratio} is outside (0, "
                          f"{top!r}]: every catalog ring must reach it at or above its "
                          "footprint pitch", key="unit.target_ratio")


def _sweep_envelope(config: PipelineConfig) -> None:
    # sweep_2d needs an envelope entry for every frequency it sweeps
    block = config.sweep2d
    f_top = max(DEFAULT_ENVELOPE_TABLE[Shape(block.shape)])
    if block.frequency_max > f_top:
        raise ConfigError(f"frequency_max must be in {FREQUENCY_MIN}..{f_top}, got "
                          f"{block.frequency_max}", key="sweep2d.frequency_max")
    # curvature grows with A and f: the sweep's top cell bounds every other
    top = peak_curvature(AMPLITUDE_MAX_MM, block.frequency_max, block.span_mm)
    if not math.isfinite(top):
        raise ConfigError(f"sweep2d.span_mm = {block.span_mm} is too small: the peak "
                          f"curvature at A={AMPLITUDE_MAX_MM} mm, f={block.frequency_max} "
                          f"is {top}", key="sweep2d.span_mm")


def _groups_envelope(config: PipelineConfig) -> None:
    # groups 1..groups must all lie in the envelope their pools are checked against
    table = DEFAULT_ENVELOPE_TABLE[GROUP_SHAPE]
    for group in range(1, config.gen3d.groups + 1):
        amplitude, frequency = group_parameters(group)
        if frequency not in table or amplitude > table[frequency]:
            raise ConfigError(f"gen3d.groups = {config.gen3d.groups} is outside 1..{group - 1}"
                              f": group {group} (A={amplitude} mm, f={frequency}) lies outside "
                              f"the {GROUP_SHAPE.value} envelope", key="gen3d.groups")


def _plan_finite(config: PipelineConfig) -> None:
    # the analyze and optimize stages compare the plan area with this square
    if not math.isfinite((config.gen3d.span_mm / 1000.0) * (config.gen3d.span_mm / 1000.0)):
        raise ConfigError(f"gen3d.span_mm = {config.gen3d.span_mm} is too large: its square "
                          "plan, (span_mm / 1000)^2 m2, is not finite", key="gen3d.span_mm")


def _resolution_floor(config: PipelineConfig) -> None:
    # group g samples a (g+2)-point control grid, the optimizer a (F+1)-point one
    needed = max(config.gen3d.groups + 2, config.optimizer.control_F + 1)
    if config.gen3d.resolution < needed:
        raise ConfigError(f"resolution must be >= {needed}, the largest control grid "
                          "size", key="gen3d.resolution")


def _weight_sum(config: PipelineConfig) -> None:
    total = sum(config.optimizer.weights)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"criterion weights must sum to 1.0, got {total}",
                          key="optimizer.weight_cms")


def _cost_budget(config: PipelineConfig) -> None:
    for key, cost in cost_estimates(config).items():
        if cost > COST_BUDGET_BYTES:
            section, name = key.split(".")
            raise ConfigError(f"{key} = {getattr(getattr(config, section), name)} needs an "
                              f"estimated {cost / 2**30:.3g} GiB at once, past the "
                              f"{COST_BUDGET_BYTES >> 30} GiB budget", key=key)


def validate(config: PipelineConfig) -> PipelineConfig:
    """Reject every value a stage would reject later; ConfigError names the key.
    Floats must be finite, then each BOUNDS row holds, then each derived bound."""
    values = {f"{section}.{name}": value for section in _SECTIONS
              for name, value in _section(config, section).items()}
    for key, value in values.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key.split('.')[1]} must be finite, got {value}", key=key)
    for key, row in BOUNDS.items():
        message = _refusal(key, values[key], row)
        if message:
            raise ConfigError(message, key=key)
    for check in (_ratio_ceiling, _sweep_envelope, _groups_envelope, _plan_finite,
                  _resolution_floor, _weight_sum, _cost_budget):
        check(config)
    return config


def set_key(config: PipelineConfig, key: str, raw) -> PipelineConfig:
    """`config` with `key` ("section.name") set to `raw` as its default's type,
    for the parser and the command-line flags; ConfigError names a bad key."""
    section, name = key.split(".")
    current = _section(config, section)
    if name not in current:
        raise ConfigError(f"unknown key {name!r} in [{section}]", key=key)
    kind = type(current[name])
    try:
        value = kind(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {raw!r} as {kind.__name__}", key=key) from None
    if section == "run":
        return replace(config, **{name: value})
    return replace(config, **{section: replace(getattr(config, section), **{name: value})})


def parse_config(text: str) -> PipelineConfig:
    """Parse INI text with [section] headers; an unknown section or key is
    refused by name."""
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (control_F)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    config = PipelineConfig()
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]", key=section)
        for name, raw in parser.items(section):
            config = set_key(config, f"{section}.{name}", raw)
    return validate(config)


def load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        return validate(PipelineConfig())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(config: PipelineConfig) -> str:
    """Canonical text form; hashing this pins the run's configuration."""
    return "\n".join(f"[{section}]\n" + "".join(f"{name} = {value}\n" for name, value
                                             in _section(config, section).items())
                     for section in _SECTIONS)


def config_hash(config: PipelineConfig) -> str:
    return hashlib.sha256(dump_config(config).encode("utf-8")).hexdigest()
