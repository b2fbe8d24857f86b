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

from .errors import ConfigError
from .profile2d import FREQUENCY_MIN, default_envelope
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
_SHAPES = ("triangular", "circular", "rectangular")


def _require(ok: bool, key: str, message: str) -> None:
    if not ok:
        raise ConfigError(message, key=key)


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
    _require(0 < config.unit.target_ratio < 1, "unit.target_ratio",
             "target ratio must be in (0, 1)")
    _require(config.unit.density_g_cm3 > 0, "unit.density_g_cm3",
             "density must be positive")
    _require(config.sweep2d.span_mm > 0, "sweep2d.span_mm", "span must be positive")
    # sweep_2d needs an envelope entry for every frequency it sweeps
    f_top = max(default_envelope(Shape.parse(config.sweep2d.shape)).frequencies())
    _require(FREQUENCY_MIN <= config.sweep2d.frequency_max <= f_top,
             "sweep2d.frequency_max",
             f"frequency_max must be in {FREQUENCY_MIN}..{f_top}, "
             f"got {config.sweep2d.frequency_max}")
    _require(config.gen3d.iterations >= 1, "gen3d.iterations",
             "iterations must be >= 1")
    _require(1 <= config.gen3d.groups <= 5, "gen3d.groups", "groups must be in 1..5")
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
