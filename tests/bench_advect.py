"""Micro-benchmarks for the particle kernels: RK4 integration and the corrector.

The test suite runs each benchmark once, untimed; to time them, run:

    pytest tests/bench_advect.py --benchmark-only

The orbit cases run on one interval of the orbit shape: a ball of radius 0.2
orbiting the domain center at radius 0.25 in a rigid rotation, 32^3 cells,
refinement 2 (64 subcells per liquid cell, about 70k particles), over a 1/76
turn. `test_rk4_positions` integrates all rows in one call, `test_rk4_blocks`
in `RK4_BLOCK` blocks as a run does, and `test_sample_velocity` samples one
block at the time weights 0, 1/2 and 1. The corrector benchmark reuses the
step's PLIC table, as a run does.
The r = 3 case is the stage-1 search of the first interval of the split
sphere on 32^3 cells over 10 steps (centre offset 0.3/-0.2/0.3 cells): about
560k particles, 37k of them strays. It also records, in `extra_info`, the
traced peak of that whole interval (`advance_interval`, corrector `full`)
and the peak's bytes per particle and per stray.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from flowsep import advect
from flowsep.advect import (
    AdvectionConfig,
    advance_interval,
    correct_strays,
    rk4_positions,
    seed_particles,
)
from flowsep.dataset_io import SyntheticScenario, generate_scenario
from flowsep.grid import sample_velocity
from flowsep.plic import is_liquid_many, plic_table

from .oracles import traced_peak
from .test_advect import orbit_steps


def _advected(step0, step1, refinement):
    particles = seed_particles(step0, refinement=refinement)
    pre_pos = particles.pos.copy()
    particles.pos = rk4_positions(step0, step1, pre_pos)
    plic_table(step1)
    return particles, pre_pos


def _stage1_args(step1, particles, pre_pos):
    """Arguments of the stage-1 search as `correct_strays` passes them: the
    phase mask and the strays (every particle stays in the domain over these
    intervals)."""
    valid = is_liquid_many(step1, particles.pos, 0.0)
    return step1.grid, pre_pos, valid, np.nonzero(~valid)[0], particles.refinement


@pytest.fixture(scope="module")
def orbit_interval():
    step0, step1 = orbit_steps()
    particles, pre_pos = _advected(step0, step1, 2)
    return step0, step1, particles, pre_pos


@pytest.fixture(scope="module")
def split32_r3_interval():
    h = 1.0 / 32
    ds = generate_scenario(
        SyntheticScenario(
            kind="split-sphere", cells=32, steps=2, span=1.0 / 9, radius=0.2, speed=0.25,
            center=tuple(0.5 + h * np.array([0.3, -0.2, 0.3])),
        )
    )
    step0, step1 = ds.steps
    particles, pre_pos = _advected(step0, step1, 3)
    return step0, step1, particles, pre_pos


def test_rk4_positions(benchmark, orbit_interval):
    step0, step1, _, pre_pos = orbit_interval
    pos = benchmark(rk4_positions, step0, step1, pre_pos)
    assert pos.shape == pre_pos.shape


def test_rk4_blocks(benchmark, orbit_interval):
    """The orbit interval's RK4 as `advance_interval` walks it: one
    `rk4_positions` call per `alive_blocks` block. Records the traced peak of
    one full block's call per row."""
    step0, step1, particles, pre_pos = orbit_interval
    blocks = list(particles.alive_blocks())

    def walk():
        return [rk4_positions(step0, step1, pre_pos[idx]) for idx in blocks]

    out = benchmark(walk)
    assert sum(len(p) for p in out) == len(pre_pos)
    block = pre_pos[blocks[0]]
    assert len(block) == advect.RK4_BLOCK
    peak = traced_peak(rk4_positions, step0, step1, block)
    benchmark.extra_info["bytes_per_row"] = peak / len(block)


@pytest.mark.parametrize("theta", ["0", "1/2", "1"])
def test_sample_velocity(benchmark, orbit_interval, theta):
    """One `RK4_BLOCK` of orbit rows sampled at time weight theta: one stored
    field at 0 and 1, both blended at 1/2."""
    step0, step1, _, pre_pos = orbit_interval
    t = {"0": step0.time, "1/2": 0.5 * (step0.time + step1.time), "1": step1.time}[theta]
    v = benchmark(sample_velocity, step0, step1, pre_pos[: advect.RK4_BLOCK], t)
    assert v.shape == (advect.RK4_BLOCK, 3)


def test_correct_strays(benchmark, orbit_interval):
    _, step1, particles, pre_pos = orbit_interval
    config = AdvectionConfig(corrector="full", refinement=2)

    def fresh():
        return (copy.deepcopy(particles), pre_pos, step1, config, 0.0), {}

    strays = benchmark.pedantic(correct_strays, setup=fresh, rounds=20)
    assert strays.size > 0


def test_nearest_neighbors(benchmark, orbit_interval):
    _, step1, particles, pre_pos = orbit_interval
    args = _stage1_args(step1, particles, pre_pos)
    best = benchmark(advect._nearest_neighbors, *args)
    assert best.size == args[3].size > 0


def test_nearest_neighbors_r3(benchmark, split32_r3_interval):
    step0, step1, particles, pre_pos = split32_r3_interval
    args = _stage1_args(step1, particles, pre_pos)
    best = benchmark.pedantic(advect._nearest_neighbors, args=args, rounds=3)
    assert best.size == args[3].size > 30000
    seeded = seed_particles(step0, refinement=3)
    peak = traced_peak(advance_interval, seeded, step0, step1, AdvectionConfig(refinement=3))
    benchmark.extra_info["interval_peak_bytes"] = peak
    benchmark.extra_info["interval_bytes_per_particle"] = peak / len(seeded)
    benchmark.extra_info["interval_bytes_per_stray"] = peak / args[3].size
