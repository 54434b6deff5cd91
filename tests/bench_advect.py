"""Micro-benchmarks for the particle kernels: RK4 integration and the corrector.

Run explicitly (the file name keeps it out of the default test collection):

    pytest tests/bench_advect.py --benchmark-only

Both run on one interval of the orbit shape: a ball of radius 0.2 orbiting
the domain center at radius 0.25 in a rigid rotation, 32^3 cells, refinement
2 (64 subcells per liquid cell, about 70k particles), over a 1/76 turn. The
corrector benchmark reuses the step's PLIC table, as a run does.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from flowsep.advect import AdvectionConfig, correct_strays, rk4_positions, seed_particles
from flowsep.dataset_io import SyntheticScenario, generate_scenario
from flowsep.plic import plic_table


@pytest.fixture(scope="module")
def orbit_interval():
    ds = generate_scenario(
        SyntheticScenario(
            kind="rigid-rotation", cells=32, steps=2, span=np.pi / 2 / 19, speed=1.0,
            offset=0.25, radius=0.2, center=(0.50938, 0.49375, 0.50313),
        )
    )
    step0, step1 = ds.steps
    particles = seed_particles(step0, refinement=2)
    pre_pos = particles.pos.copy()
    particles.pos = rk4_positions(step0, step1, pre_pos)
    plic_table(step1)
    return step0, step1, particles, pre_pos


def test_rk4_positions(benchmark, orbit_interval):
    step0, step1, _, pre_pos = orbit_interval
    pos = benchmark(rk4_positions, step0, step1, pre_pos)
    assert pos.shape == pre_pos.shape


def test_correct_strays(benchmark, orbit_interval):
    step0, step1, particles, pre_pos = orbit_interval
    config = AdvectionConfig(corrector="full", refinement=2)

    def fresh():
        return (copy.deepcopy(particles), pre_pos, step0, step1, config, 0.0), {}

    strays = benchmark.pedantic(correct_strays, setup=fresh, rounds=20)
    assert strays.size > 0
