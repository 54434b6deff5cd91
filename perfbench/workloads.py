"""Benchmark workloads: what each one runs and how its input is generated.

Every workload is generated from the benchmark seed alone and written through
the public `write_dataset`, so the measured process only ever sees files.
The seed jitters the orbit centre by at most half a cell and the split-sphere
centre by 1 % of a cell (see SPLIT_OFFSET), and places the droplets of
`droplets-r0`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from flowsep import (
    AdvectionConfig,
    CellField,
    PipelineConfig,
    SyntheticScenario,
    TimeSeriesDataset,
    TimeStep,
    generate_scenario,
    uniform_grid,
    write_dataset,
)


@dataclass(frozen=True)
class Workload:
    name: str
    cells: int
    steps: int
    dt: float  # time between stored steps
    refinement: int
    partitions: tuple[int, int, int] | None

    @property
    def span(self) -> float:
        return (self.steps - 1) * self.dt

    def describe(self) -> dict:
        return {
            "cells": self.cells,
            "steps": self.steps,
            "refinement": self.refinement,
            "partitions": "x".join(map(str, self.partitions)) if self.partitions else "serial",
        }

    def config(self, manifest: Path, output: Path | None) -> PipelineConfig:
        return PipelineConfig(
            manifest=manifest,
            t0=0,
            tf=self.steps - 1,
            output=output,
            advection=AdvectionConfig(refinement=self.refinement),
            partitions=self.partitions,
        )


# Each workload keeps the interval length of a longer run (20 steps over unit
# time, a quarter turn in 20 steps, 16 steps over unit time) and stores fewer
# steps on a coarser grid, so one run takes 2.5-4.5 s on a 2-core host and a
# 35-s benchmark run takes the median of six to nine of them: the median of
# three 9-s runs moved with the host's load by up to a quarter.
# Interface-bound: corrector + PLIC dominate; one or two features.
SPLIT = Workload("split-r1", cells=48, steps=4, dt=1 / 19, refinement=1, partitions=None)
# Particle-bound, and the only family whose particles cross partition faces
# (split-sphere and merge-then-split hand off 0 particles on 2x2x2). This
# interval length keeps one interval's displacement (1.3 cells) within the
# ghost width of 2 cells.
ORBIT = Workload(
    "orbit-r2-p8", cells=32, steps=4, dt=np.pi / 2 / 19, refinement=2, partitions=(2, 2, 2)
)
# Feature-bound: binary f has no interface cells, so PLIC and the corrector
# are bypassed while labeling, marching cubes and split detection carry the run.
DROPLETS = Workload("droplets-r0", cells=48, steps=6, dt=1 / 15, refinement=0, partitions=None)

WORKLOADS = {w.name: w for w in (SPLIT, ORBIT, DROPLETS)}

DROPLET_COUNT = 1266  # the density of 3000 droplets on 64^3 cells
DROPLET_RADII = (0.8, 2.2)  # in cells


# The split sphere sits at a fixed off-grid offset from the domain centre and
# the seed jitters it by 1 % of a cell. A jitter of up to half a cell changed
# the corrector's stray count fivefold between seeds (897 to 4957 strays on
# seeds 1-10, 64^3 cells), so the seed, not the code, set the run time. Around
# this offset the count stays within 2 % (2726-2770 strays on seeds 1-6, 48^3
# cells), at a typical stray load.
SPLIT_OFFSET = np.array([0.3, -0.2, 0.3])  # in cells
SPLIT_JITTER = 0.01  # in cells


def _jittered_centre(
    rng: np.random.Generator, cells: int, offset=0.0, jitter: float = 0.5
) -> tuple[float, float, float]:
    """Domain centre plus `offset` plus a uniform jitter, all in cells."""
    h = 1.0 / cells
    centre = 0.5 + h * (np.asarray(offset) + rng.uniform(-jitter, jitter, 3))
    return tuple(float(v) for v in centre)


def droplet_dataset(
    rng: np.random.Generator, cells: int, steps: int, dt: float
) -> TimeSeriesDataset:
    """Binary f of random balls; each half-domain moves one cell per interval
    away from x = 0.5, so droplets straddling the mid-plane split."""
    n = cells
    mask = np.zeros((n, n, n), dtype=bool)
    centres = rng.uniform(0.0, n, (DROPLET_COUNT, 3))
    radii = rng.uniform(*DROPLET_RADII, DROPLET_COUNT)
    for c, r in zip(centres, radii):
        lo = np.maximum(np.floor(c - r).astype(int), 0)
        hi = np.minimum(np.ceil(c + r).astype(int) + 1, n)
        i, j, k = np.ogrid[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]]
        d2 = (i + 0.5 - c[0]) ** 2 + (j + 0.5 - c[1]) ** 2 + (k + 0.5 - c[2]) ** 2
        mask[lo[0] : hi[0], lo[1] : hi[1], lo[2] : hi[2]] |= d2 <= r * r

    grid = uniform_grid(n)
    times = np.arange(steps) * dt
    half = n // 2
    speed = (1.0 / n) / dt  # one cell per interval
    ux = np.where(np.arange(n) < half, -speed, speed)
    u = np.zeros((3, n, n, n))
    u[0] = ux[:, None, None]
    u_flat = np.stack([u[c].reshape(-1, order="F") for c in range(3)])
    out = []
    for k, t in enumerate(times):
        f = np.zeros((n, n, n))
        if k < half:
            f[: half - k] = mask[k:half]
            f[half + k :] = mask[half : n - k]
        out.append(
            TimeStep(
                time=float(t),
                f=CellField(grid, f.reshape(-1, order="F")),
                u=CellField(grid, u_flat.copy(), ncomp=3),
            )
        )
    return TimeSeriesDataset(grid=grid, steps=out)


def generate(workload: Workload, seed: int, out_dir: Path) -> Path:
    """Write the workload's dataset for `seed` into out_dir; returns the manifest."""
    rng = np.random.default_rng(seed)
    if workload is SPLIT:
        ds = generate_scenario(
            SyntheticScenario(
                kind="split-sphere", cells=workload.cells, steps=workload.steps,
                span=workload.span, radius=0.2, speed=0.25,
                center=_jittered_centre(rng, workload.cells, SPLIT_OFFSET, SPLIT_JITTER),
            )
        )
    elif workload is ORBIT:
        ds = generate_scenario(
            SyntheticScenario(
                kind="rigid-rotation", cells=workload.cells, steps=workload.steps,
                span=workload.span, speed=1.0, offset=0.25, radius=0.2,
                center=_jittered_centre(rng, workload.cells),
            )
        )
    else:
        ds = droplet_dataset(rng, workload.cells, workload.steps, workload.dt)
    return write_dataset(ds, out_dir)
