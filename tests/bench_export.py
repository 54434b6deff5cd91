"""Micro-benchmarks for the run tail: boundary extraction, mesh smoothing, OBJ
export, the contribution table and `epsilon.tsv`.

Run explicitly (the file name keeps it out of the default test collection):

    pytest tests/bench_export.py --benchmark-only

Two mesh sets: 460 small ball meshes (radius 2.2 on 7^3 nodes, 152 triangles
each, about the count and size of the B and S meshes of a droplets-r0 run) and
one ball mesh of about 25k triangles (radius 26 on 60^3 nodes, the size of an
orbit-r2-p8 boundary). Smoothing goes through `smooth_meshes` with the
pipeline defaults (10 iterations, lambda 0.5).

The boundary case extracts 460 boundaries at once, each around a ball of
radius 2.2 nodes in a 7^3-node box (`droplet_seed_set` of the extraction
tests), as the B step of a droplets-r0 run does. The separation case
extracts 80 surfaces in one call, each between the two halves of such a
ball (`droplet_split_events`): about the pair count and box size of the S
meshes of a droplets-r0 run, whose 77 pairs come in five calls, one per
interval (13 marching-cubes calls at the default `PACK_NODES`).

The table and `epsilon.tsv` cases use the seeds of the orbit ball (radius 0.2
on 32^3 cells, refinement 2, about 70k seeds on a per-axis lattice) with 2 %
of them carrying a nonzero eps, and 3 % of the final labels set to -1. Both
also record, in `extra_info`, their traced peak per particle.
"""

from __future__ import annotations

import numpy as np
import pytest

from flowsep.advect import seed_particles
from flowsep.dataset_io import SyntheticScenario, generate_scenario
from flowsep.extract import (
    TriangleMesh,
    export_meshes,
    extract_boundaries,
    extract_separation_surface,
    smooth_meshes,
)
from flowsep.labeling import label_features
from flowsep.marching import marching_cubes
from flowsep.segment import SeedLabeling, assign_labels, contribution_table, write_epsilon

from .bench_marching import ball_lattice
from .oracles import traced_peak
from .test_extract import droplet_seed_set, droplet_split_events


def ball_mesh(n: int, radius: float, label: int) -> TriangleMesh:
    verts, tris = marching_cubes(*ball_lattice(n, radius))
    return TriangleMesh(vertices=verts, triangles=tris, kind="boundary", label=label)


@pytest.fixture(scope="module")
def droplets():
    mesh = ball_mesh(7, 2.2, 0)
    return [
        TriangleMesh(vertices=mesh.vertices + k, triangles=mesh.triangles, kind="boundary", label=k)
        for k in range(460)
    ]


@pytest.fixture(scope="module")
def large():
    mesh = ball_mesh(60, 26.0, 0)
    assert 20_000 < mesh.triangles.shape[0] < 30_000
    return [mesh]


@pytest.fixture(scope="module")
def orbit_seeds():
    ds = generate_scenario(
        SyntheticScenario(
            kind="rigid-rotation", cells=32, steps=2, span=np.pi / 2 / 19, speed=1.0,
            offset=0.25, radius=0.2, center=(0.50938, 0.49375, 0.50313),
        )
    )
    step0 = ds.steps[0]
    particles = seed_particles(step0, refinement=2)
    rng = np.random.default_rng(0)
    n = len(particles)
    moved = rng.random(n) < 0.02
    particles.eps[moved] = rng.uniform(0.0, 0.05, moved.sum())
    initial = assign_labels(particles, label_features(step0), step0)
    final = np.where(rng.random(n) < 0.03, -1, initial.labels).astype(np.int32)
    return particles, initial, SeedLabeling(labels=final, time=1.0)


def smooth_all(meshes):
    return list(smooth_meshes(meshes, 10, 0.5))


def test_boundaries_many_boxes(benchmark):
    _, particles, labeling = droplet_seed_set()
    out = benchmark(extract_boundaries, particles, labeling, range(460))
    assert sum(not m.empty for m in out) == 460


def test_separation_many_pairs(benchmark):
    _, particles, next_labeling, events = droplet_split_events(80)
    out = benchmark(extract_separation_surface, particles, events, next_labeling)
    assert sum(not m.empty for m in out) == 80


def test_smooth_droplets(benchmark, droplets):
    out = benchmark(smooth_all, droplets)
    assert len(out) == len(droplets)


def test_smooth_large(benchmark, large):
    (out,) = benchmark(smooth_all, large)
    assert out.vertices.shape == large[0].vertices.shape


def test_export_droplets(benchmark, droplets, tmp_path):
    meshes = smooth_all(droplets)
    manifest = benchmark(export_meshes, meshes, tmp_path / "meshes")
    assert len(manifest.read_text().splitlines()) == 1 + len(meshes)


def test_export_large(benchmark, large, tmp_path):
    meshes = smooth_all(large)
    manifest = benchmark(export_meshes, meshes, tmp_path / "meshes")
    assert len(manifest.read_text().splitlines()) == 2


def test_write_epsilon(benchmark, orbit_seeds, tmp_path):
    particles, _, _ = orbit_seeds
    path = tmp_path / "epsilon.tsv"
    benchmark(write_epsilon, particles, path)
    assert path.read_text().count("\n") == 1 + len(particles)
    peak = traced_peak(write_epsilon, particles, path)
    benchmark.extra_info["peak_bytes_per_particle"] = peak / len(particles)


def test_contribution_table(benchmark, orbit_seeds):
    particles, initial, final = orbit_seeds
    table = benchmark(contribution_table, initial, final, particles)
    assert sum(c for _, _, c, _ in table.rows) == len(particles)
    peak = traced_peak(contribution_table, initial, final, particles)
    benchmark.extra_info["peak_bytes_per_particle"] = peak / len(particles)
