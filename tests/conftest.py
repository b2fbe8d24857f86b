from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

import pytest

from chainshell.config import PipelineConfig
from chainshell.optimizer import OptimizeResult, optimize
from chainshell.pipeline import run_pipeline, structure_spec
from chainshell.shell3d import ShellSurface, group_parameters

from helpers import pool_surfaces


@dataclass(frozen=True)
class GroupPool:
    amplitude: float
    frequency: int
    surfaces: List[ShellSurface]


@pytest.fixture(scope="session")
def pools42() -> Dict[int, GroupPool]:
    """Twenty seeded iterations per group, interpolated once for the session."""
    pools = {}
    for group in range(1, 5):
        amplitude, frequency = group_parameters(group)
        pools[group] = GroupPool(amplitude, frequency,
                                 pool_surfaces(amplitude, frequency, n=20, seed=42))
    return pools


@pytest.fixture(scope="session")
def optimize_result() -> OptimizeResult:
    config = PipelineConfig()
    return optimize(config, structure_spec(config), 11)


@pytest.fixture(scope="session")
def default_run(tmp_path_factory) -> tuple:
    config = PipelineConfig()
    run_dir = run_pipeline(config, tmp_path_factory.mktemp("run-default") / "out")
    return config, run_dir
