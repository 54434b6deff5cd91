"""Micro-benchmarks for marching cubes.

The test suite runs each benchmark once, untimed; to time them, run:

    pytest tests/bench_marching.py --benchmark-only

Three lattices: a ball of radius 40 node spacings on 100^3 nodes, closed (a
boundary mesh) and with every node outside the ball invalid and only its
lower-x half inside (the open disc of a separation surface), and one ball of
radius 2.2 on 7^3 nodes, the size of a droplets-r0 boundary lattice.
"""

from __future__ import annotations

import numpy as np
import pytest

from flowsep.marching import marching_cubes


def ball_lattice(n: int, radius: float):
    """Nodes within `radius` of the lattice centre, on unit-spaced axes."""
    x = np.arange(n, dtype=np.float64)
    c = 0.5 * (n - 1)
    d2 = (x[:, None, None] - c) ** 2 + (x[None, :, None] - c) ** 2 + (x[None, None, :] - c) ** 2
    return d2 <= radius * radius, (x, x, x)


@pytest.fixture(scope="module")
def ball100():
    return ball_lattice(100, 40.0)


def test_closed_ball(benchmark, ball100):
    inside, axes = ball100
    verts, tris = benchmark(marching_cubes, inside, axes)
    assert tris.shape[0] > 0


def test_open_disc(benchmark, ball100):
    ball, axes = ball100
    plus = ball & (axes[0] < 49.5)[:, None, None]
    verts, tris = benchmark(marching_cubes, plus, axes, invalid=~ball)
    assert tris.shape[0] > 0


def test_droplet(benchmark):
    inside, axes = ball_lattice(7, 2.2)
    verts, tris = benchmark(marching_cubes, inside, axes)
    assert tris.shape[0] > 0
