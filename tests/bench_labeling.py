"""Micro-benchmarks for feature labeling.

The test suite runs each benchmark once, untimed; to time them, run:

    pytest tests/bench_labeling.py --benchmark-only

Two steps on 48^3 cells, each labeled at 1x1x1 and 2x2x2: a binary mask of
1266 random balls of radius 0.8-2.2 cells (the droplet density and radii of
droplets-r0; they touch into about 470 features) and the last step of a
split sphere (radius 0.2, as split-r1: two features and an interface shell).
"""

from __future__ import annotations

import numpy as np
import pytest

from flowsep.dataset_io import SyntheticScenario, generate_scenario
from flowsep.grid import CellField, TimeStep, uniform_grid
from flowsep.labeling import PartitionLayout, label_features_partitioned

CELLS = 48


def droplet_step(n: int, count: int, seed: int = 7) -> TimeStep:
    """Binary f of `count` random balls of radius 0.8-2.2 cells."""
    rng = np.random.default_rng(seed)
    mask = np.zeros((n, n, n), dtype=bool)
    centres = rng.uniform(0.0, n, (count, 3))
    radii = rng.uniform(0.8, 2.2, count)
    for c, r in zip(centres, radii):
        lo = np.maximum(np.floor(c - r).astype(int), 0)
        hi = np.minimum(np.ceil(c + r).astype(int) + 1, n)
        i, j, k = np.ogrid[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
        d2 = (i + 0.5 - c[0]) ** 2 + (j + 0.5 - c[1]) ** 2 + (k + 0.5 - c[2]) ** 2
        mask[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] |= d2 <= r * r
    g = uniform_grid(n)
    f = mask.astype(np.float64).reshape(-1, order="F")
    return TimeStep(time=0.0, f=CellField(g, f), u=CellField(g, np.zeros((3, g.ncells)), ncomp=3))


@pytest.fixture(scope="module")
def droplets():
    return droplet_step(CELLS, 1266)


@pytest.fixture(scope="module")
def split():
    ds = generate_scenario(
        SyntheticScenario(kind="split-sphere", cells=CELLS, steps=4, radius=0.2, speed=0.25)
    )
    return ds.steps[-1]


@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 2, 2)], ids=["serial", "2x2x2"])
def test_label_droplets(benchmark, droplets, counts):
    layout = PartitionLayout(counts=counts, shape=droplets.grid.shape)
    lf = benchmark(label_features_partitioned, droplets, 0.0, layout)
    assert lf.count > 400


@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 2, 2)], ids=["serial", "2x2x2"])
def test_label_split_sphere(benchmark, split, counts):
    layout = PartitionLayout(counts=counts, shape=split.grid.shape)
    lf = benchmark(label_features_partitioned, split, 0.0, layout)
    assert lf.count == 2
