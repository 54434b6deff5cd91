"""Shared fixtures: synthetic datasets and pipeline runs reused across tests.

Dataset generation and full pipeline runs are the expensive parts of the
suite, so they are session-scoped and shared between the module tests and the
acceptance criteria.
"""

from __future__ import annotations

import numpy as np
import pytest

from flowsep.advect import AdvectionConfig
from flowsep.dataset_io import SyntheticScenario, generate_scenario, write_dataset
from flowsep.runtime import PipelineConfig, run_pipeline


def pytest_configure(config):
    # the micro-benchmarks (tests/bench_*.py) are collected with the tests and
    # run once, untimed; --benchmark-only or --benchmark-enable times them
    if config.pluginmanager.hasplugin("benchmark") and not config.getoption("benchmark_only"):
        config.option.benchmark_disable = True


def pytest_collection_modifyitems(config, items):
    # without pytest-benchmark there is no `benchmark` fixture: skip its users
    if not config.pluginmanager.hasplugin("benchmark"):
        skip = pytest.mark.skip(reason="needs pytest-benchmark")
        for item in items:
            if "benchmark" in getattr(item, "fixturenames", ()):
                item.add_marker(skip)


@pytest.fixture(scope="session")
def data_root(tmp_path_factory):
    return tmp_path_factory.mktemp("datasets")


def _materialize(data_root, name, scenario):
    ds = generate_scenario(scenario)
    manifest = write_dataset(ds, data_root / name)
    return ds, manifest


@pytest.fixture(scope="session")
def split64(data_root):
    """The split-sphere end-to-end dataset: 64^3 cells, 20 steps."""
    return _materialize(
        data_root,
        "split64",
        SyntheticScenario(kind="split-sphere", cells=64, steps=20, radius=0.2, speed=0.25),
    )


@pytest.fixture(scope="session")
def split64_result(split64):
    _, manifest = split64
    cfg = PipelineConfig(
        manifest=manifest, t0=0, tf=19, advection=AdvectionConfig(refinement=1)
    )
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def split64_partitioned_result(split64):
    _, manifest = split64
    cfg = PipelineConfig(
        manifest=manifest,
        t0=0,
        tf=19,
        advection=AdvectionConfig(refinement=1),
        partitions=(2, 2, 2),
    )
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def split32(data_root):
    """Smaller split-sphere for enclosure/degenerate-interval tests."""
    return _materialize(
        data_root,
        "split32",
        SyntheticScenario(kind="split-sphere", cells=32, steps=10, radius=0.2, speed=0.25),
    )


@pytest.fixture(scope="session")
def split32_result(split32):
    _, manifest = split32
    cfg = PipelineConfig(
        manifest=manifest, t0=0, tf=9, advection=AdvectionConfig(refinement=1)
    )
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def split_coarse(data_root):
    """Split-sphere with the step count cut 8x (20 -> 3 steps, same physics)."""
    return _materialize(
        data_root,
        "split_coarse",
        SyntheticScenario(kind="split-sphere", cells=64, steps=3, radius=0.2, speed=0.25),
    )


@pytest.fixture(scope="session")
def merge48(data_root):
    """Merge-then-split: two balls overlapping at both ends of the run."""
    return _materialize(
        data_root,
        "merge48",
        SyntheticScenario(
            kind="merge-then-split",
            cells=48,
            steps=16,
            radius=0.18,
            offset=0.12,
            speed=0.18,
        ),
    )


@pytest.fixture(scope="session")
def merge48_result(merge48):
    _, manifest = merge48
    cfg = PipelineConfig(
        manifest=manifest, t0=0, tf=15, advection=AdvectionConfig(refinement=1)
    )
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def merge48_partitioned_result(merge48):
    _, manifest = merge48
    cfg = PipelineConfig(
        manifest=manifest,
        t0=0,
        tf=15,
        advection=AdvectionConfig(refinement=1),
        partitions=(2, 2, 2),
    )
    return run_pipeline(cfg)


@pytest.fixture(scope="session")
def rotation32(data_root):
    """Rigid rotation over one full period, for convergence-order tests."""
    return _materialize(
        data_root,
        "rotation32",
        SyntheticScenario(
            kind="rigid-rotation",
            cells=32,
            steps=5,
            span=float(2.0 * np.pi),
            radius=0.12,
            speed=1.0,
            offset=0.25,
        ),
    )
