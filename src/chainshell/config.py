"""Pipeline configuration: defaults, INI-style parsing, validation, seeds.

All defaults reproduce the published constants; every stage derives its
randomness from the single top-level seed keyed by stage name.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, field, fields, replace
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
_SHAPES = tuple(shape.value for shape in Shape)


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(message, key=key)


def _top_group() -> int:
    """The last study group g such that groups 1..g all lie in the envelope
    their pools are checked against."""
    table = DEFAULT_ENVELOPE_TABLE[GROUP_SHAPE]
    group = 0
    while True:
        amplitude, frequency = group_parameters(group + 1)
        if frequency not in table or amplitude > table[frequency]:
            return group
        group += 1


def _top_ratio() -> float:
    """The largest target ratio every catalog ring reaches."""
    return min(units.max_ratio(units.UnitCell(s, *units.STANDARD_DIMENSIONS[s.value]))
               for s in Shape)


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


def validate(config: PipelineConfig) -> PipelineConfig:
    """Reject every value a stage would reject later; ConfigError names the key."""
    for name in _BLOCK_NAMES:
        block = getattr(config, name)
        for f in fields(block):
            value = getattr(block, f.name)
            if isinstance(value, float):
                _require(math.isfinite(value), f"{name}.{f.name}",
                         f"{f.name} must be finite, got {value}")
    for key in ("weight_cms", "weight_ua", "weight_lc", "weight_fc"):
        _require(getattr(config.optimizer, key) >= 0, f"optimizer.{key}",
                 "criterion weights must be non-negative")
    w = config.optimizer.weights
    _require(abs(sum(w) - 1.0) <= 1e-9, "optimizer.weight_cms",
             f"criterion weights must sum to 1.0, got {sum(w)}")
    _require(config.unit.shape in _SHAPES, "unit.shape",
             f"unknown shape {config.unit.shape!r}")
    _require(config.sweep2d.shape in _SHAPES, "sweep2d.shape",
             f"unknown shape {config.sweep2d.shape!r}")
    top_ratio = _top_ratio()
    _require(0 < config.unit.target_ratio <= top_ratio, "unit.target_ratio",
             f"unit.target_ratio = {config.unit.target_ratio} is outside "
             f"(0, {top_ratio!r}]: every catalog ring must reach it at or above "
             "its footprint pitch")
    _require(config.unit.density_g_cm3 > 0, "unit.density_g_cm3",
             "density must be positive")
    _require(config.sweep2d.span_mm > 0, "sweep2d.span_mm", "span must be positive")
    # sweep_2d needs an envelope entry for every frequency it sweeps
    f_top = max(DEFAULT_ENVELOPE_TABLE[Shape(config.sweep2d.shape)])
    _require(FREQUENCY_MIN <= config.sweep2d.frequency_max <= f_top,
             "sweep2d.frequency_max",
             f"frequency_max must be in {FREQUENCY_MIN}..{f_top}, "
             f"got {config.sweep2d.frequency_max}")
    # curvature grows with A and f: the sweep's top cell bounds every other
    top = peak_curvature(AMPLITUDE_MAX_MM, config.sweep2d.frequency_max,
                         config.sweep2d.span_mm)
    _require(math.isfinite(top), "sweep2d.span_mm",
             f"sweep2d.span_mm = {config.sweep2d.span_mm} is too small: the peak "
             f"curvature at A={AMPLITUDE_MAX_MM} mm, f={config.sweep2d.frequency_max} "
             f"is {top}")
    _require(config.gen3d.iterations >= 1, "gen3d.iterations",
             "iterations must be >= 1")
    top_group = _top_group()
    amplitude, frequency = group_parameters(top_group + 1)
    _require(1 <= config.gen3d.groups <= top_group, "gen3d.groups",
             f"gen3d.groups = {config.gen3d.groups} is outside 1..{top_group}: group "
             f"{top_group + 1} (A={amplitude} mm, f={frequency}) lies outside the "
             f"{GROUP_SHAPE.value} envelope")
    _require(config.gen3d.span_mm > 0, "gen3d.span_mm", "span must be positive")
    # group g samples a (g+2)-point control grid, the optimizer a (F+1)-point one
    needed = max(config.gen3d.groups + 2, config.optimizer.control_F + 1)
    _require(config.gen3d.resolution >= needed, "gen3d.resolution",
             f"resolution must be >= {needed}, the largest control grid size")
    _require(config.filter.keep >= 1, "filter.keep", "keep must be >= 1")
    _require(config.filter.tolerance_mode in ("auto", "explicit"),
             "filter.tolerance_mode",
             f"unknown tolerance mode {config.filter.tolerance_mode!r}")
    _require(config.filter.perimeter_tolerance_m >= 0, "filter.perimeter_tolerance_m",
             "tolerances must be non-negative")
    _require(config.filter.area_tolerance_m2 >= 0, "filter.area_tolerance_m2",
             "tolerances must be non-negative")
    for f in fields(config.loads):
        _require(getattr(config.loads, f.name) > 0, f"loads.{f.name}",
                 f"{f.name} must be positive")
    _require(config.loads.snow_shape_factor <= 1, "loads.snow_shape_factor",
             "snow shape factor must be <= 1")
    _require(config.loads.solid_fraction <= 1, "loads.solid_fraction",
             "solid fraction must be <= 1")
    _require(config.fem.elastic_modulus_pa > 0, "fem.elastic_modulus_pa",
             "moduli must be positive")
    _require(config.fem.shear_modulus_pa > 0, "fem.shear_modulus_pa",
             "moduli must be positive")
    _require(config.fem.lattice_grid >= 2, "fem.lattice_grid",
             "lattice grid must be >= 2")
    _require(config.fem.supports in ("boundary-fixed", "corner-pinned"), "fem.supports",
             f"unknown support mode {config.fem.supports!r}")
    block = config.optimizer
    _require(block.iterations_per_anchor >= 1, "optimizer.iterations_per_anchor",
             "need at least one iteration per anchor kind")
    _require(0 < block.amplitude_cap_m <= 3.0, "optimizer.amplitude_cap_m",
             "amplitude cap must be in (0, 3] m")
    _require(0 <= block.amplitude_min_fraction < 1, "optimizer.amplitude_min_fraction",
             "amplitude_min_fraction must be in [0, 1)")
    _require(block.control_F >= 2, "optimizer.control_F",
             "control grid F must be >= 2")
    _require(block.slope_rule in ("ponding", "strict"), "optimizer.slope_rule",
             f"unknown slope rule {block.slope_rule!r}")
    _require(block.min_slope >= 0, "optimizer.min_slope",
             "min slope must be non-negative")
    _require(block.headroom_m >= 0, "optimizer.headroom_m",
             "headroom must be non-negative")
    _require(block.column_section_side_m > 0, "optimizer.column_section_side_m",
             "column section side must be positive")
    _require(block.reduction_tolerance >= 0, "optimizer.reduction_tolerance",
             "reduction tolerance must be non-negative")
    _require(config.threads >= 1, "threads", "threads must be >= 1")
    for key, cost in cost_estimates(config).items():
        section, name = key.split(".")
        _require(cost <= COST_BUDGET_BYTES, key,
                 f"{key} = {getattr(getattr(config, section), name)} needs an estimated "
                 f"{cost / 2**30:.3g} GiB at once, past the {COST_BUDGET_BYTES >> 30} GiB "
                 "budget")
    return config


def _coerce(raw: str, to_type: type, key: str):
    try:
        return to_type(raw)
    except ValueError:
        raise ConfigError(f"cannot parse {raw!r} as {to_type.__name__}",
                          key=key) from None


def parse_config(text: str) -> PipelineConfig:
    """Parse flat key-value config with [section] headers.

    Unknown sections or keys are rejected with the offending name.
    """
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (control_F)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None

    config = PipelineConfig()
    updates: Dict[str, object] = {}
    for section in parser.sections():
        if section == "run":
            for key, raw in parser.items("run"):
                if key == "seed":
                    updates["seed"] = _coerce(raw, int, "run.seed")
                elif key == "threads":
                    updates["threads"] = _coerce(raw, int, "run.threads")
                else:
                    raise ConfigError(f"unknown key {key!r} in [run]",
                                      key=f"run.{key}")
            continue
        if section not in _BLOCK_NAMES:
            raise ConfigError(f"unknown section [{section}]", key=section)
        block = getattr(config, section)
        block_fields = {f.name: f for f in fields(block)}
        block_updates = {}
        for key, raw in parser.items(section):
            if key not in block_fields:
                raise ConfigError(f"unknown key {key!r} in [{section}]",
                                  key=f"{section}.{key}")
            current = getattr(block, key)
            block_updates[key] = _coerce(raw, type(current), f"{section}.{key}")
        updates[section] = replace(block, **block_updates)
    return validate(replace(config, **updates))


def load_config(path: Optional[str]) -> PipelineConfig:
    if path is None:
        return validate(PipelineConfig())
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def dump_config(config: PipelineConfig) -> str:
    """Canonical text form; hashing this pins the run's configuration."""
    out = io.StringIO()
    out.write("[run]\n")
    out.write(f"seed = {config.seed}\n")
    out.write(f"threads = {config.threads}\n")
    for name in _BLOCK_NAMES:
        block = getattr(config, name)
        out.write(f"\n[{name}]\n")
        for f in fields(block):
            out.write(f"{f.name} = {getattr(block, f.name)}\n")
    return out.getvalue()


def config_hash(config: PipelineConfig) -> str:
    return hashlib.sha256(dump_config(config).encode("utf-8")).hexdigest()
