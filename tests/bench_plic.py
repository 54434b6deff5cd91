"""Micro-benchmarks for the PLIC table build and the batched corrector.

Run explicitly (the file name keeps it out of the default test collection):

    pytest tests/bench_plic.py --benchmark-only

Both run on one interval of a split sphere on 48^3 cells with refinement 1
(29 589 particles, 1 375 of them strays), the interface-bound case.
The corrector benchmark excludes the table build, which is timed on its own.
"""

from __future__ import annotations

import copy

import pytest

from flowsep.advect import AdvectionConfig, correct_strays, rk4_positions, seed_particles
from flowsep.dataset_io import SyntheticScenario, generate_scenario
from flowsep.plic import _build_table, plic_table


@pytest.fixture(scope="module")
def split_interval():
    ds = generate_scenario(
        SyntheticScenario(
            kind="split-sphere", cells=48, steps=2, span=1 / 19, radius=0.2, speed=0.25,
            center=(0.50625, 0.49583, 0.50625),
        )
    )
    step0, step1 = ds.steps
    particles = seed_particles(step0, refinement=1)
    pre_pos = particles.pos.copy()
    particles.pos = rk4_positions(step0, step1, pre_pos)
    plic_table(step1)  # the corrector rounds below reuse the table, as a run does
    return step0, step1, particles, pre_pos


def test_table_build(benchmark, split_interval):
    _, step1, _, _ = split_interval
    table = benchmark(_build_table, step1)
    assert table.cells.size > 0


def test_correct_strays(benchmark, split_interval):
    _, step1, particles, pre_pos = split_interval
    config = AdvectionConfig(corrector="full", refinement=1)

    def fresh():
        return (copy.deepcopy(particles), pre_pos, step1, config, 0.0), {}

    strays = benchmark.pedantic(correct_strays, setup=fresh, rounds=20)
    assert strays.size > 0
