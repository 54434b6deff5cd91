"""Micro-benchmarks for the export tail: mesh smoothing and OBJ export.

Run explicitly (the file name keeps it out of the default test collection):

    pytest tests/bench_export.py --benchmark-only

Two mesh sets: 460 small ball meshes (radius 2.2 on 7^3 nodes, 152 triangles
each, about the count and size of the B and S meshes of a droplets-r0 run) and
one ball mesh of about 25k triangles (radius 26 on 60^3 nodes, the size of an
orbit-r2-p8 boundary). Smoothing uses the pipeline defaults (10 iterations,
lambda 0.5).
"""

from __future__ import annotations

import numpy as np
import pytest

from flowsep.extract import TriangleMesh, export_meshes, smooth_mesh
from flowsep.marching import marching_cubes

from .bench_marching import ball_lattice


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


def smooth_all(meshes):
    return [smooth_mesh(m, 10, 0.5) for m in meshes]


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
