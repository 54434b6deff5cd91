from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsep.advect import ParticleSet
from flowsep.extract import (
    TriangleMesh,
    boundary_vertices,
    edge_incidence,
    export_meshes,
    extract_boundary,
    extract_separation_surface,
    filter_small_components,
    is_watertight,
    read_obj,
    seed_axis_coords,
    smooth_mesh,
    triangle_components,
    write_obj,
)
from flowsep.grid import uniform_grid
from flowsep.marching import marching_cubes
from flowsep.segment import SeedLabeling, SplitEvent

from .oracles import (
    count_components,
    edge_incidence_rows,
    obj_text_fstrings,
    points_in_mesh,
    points_in_mesh_full,
    smooth_vertices_add_at,
)
from .test_marching import lattices


def lattice_particle_set(grid, refinement, lattice_pts):
    """ParticleSet stub with seeds at given global subcell lattice coordinates."""
    lattice = np.atleast_2d(np.asarray(lattice_pts, dtype=np.int64))
    coords = seed_axis_coords(grid, refinement)
    seeds = np.stack([coords[d][lattice[:, d]] for d in range(3)], axis=1)
    n = lattice.shape[0]
    return ParticleSet(
        seeds=seeds,
        lattice=lattice,
        pos=seeds.copy(),
        alive=np.ones(n, dtype=bool),
        eps=np.zeros(n),
        seed_volume=np.ones(n),
        refinement=refinement,
    )


def euler_characteristic(mesh):
    edges, _ = edge_incidence(mesh)
    return mesh.vertices.shape[0] - edges.shape[0] + mesh.triangles.shape[0]


class TestSeedAxisCoords:
    def test_node_spacing_is_cell_size_over_refinement(self):
        g = uniform_grid(4)
        for r in (0, 1, 2):
            coords = seed_axis_coords(g, r)
            for d in range(3):
                assert coords[d].size == 4 * 2**r
                assert np.allclose(np.diff(coords[d]), 0.25 / 2**r)


class TestExtractBoundary:
    def test_single_seed_octahedron(self):
        g = uniform_grid(4)
        ps = lattice_particle_set(g, 0, [[2, 2, 2]])
        labeling = SeedLabeling(labels=np.zeros(1, dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 0)
        assert mesh.vertices.shape[0] == 6
        assert mesh.triangles.shape[0] == 8
        assert is_watertight(mesh)
        assert euler_characteristic(mesh) == 2

    def test_block_encloses_exactly_its_seeds(self):
        g = uniform_grid(4)
        block = [[i, j, k] for i in (1, 2) for j in (1, 2) for k in (1, 2)]
        ps = lattice_particle_set(g, 0, block)
        labeling = SeedLabeling(labels=np.zeros(8, dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 0)
        assert is_watertight(mesh)
        assert euler_characteristic(mesh) == 2
        # oracle: parity ray casting classifies the seeds inside and the
        # surrounding lattice points outside
        inside = points_in_mesh(ps.seeds, mesh.vertices, mesh.triangles)
        assert inside.all()
        coords = seed_axis_coords(g, 0)
        outside_pts = np.array(
            [
                [coords[0][0], coords[1][0], coords[2][0]],
                [coords[0][3], coords[1][3], coords[2][3]],
                [coords[0][0], coords[1][2], coords[2][2]],
            ]
        )
        assert not points_in_mesh(outside_pts, mesh.vertices, mesh.triangles).any()
        pts = np.vstack([ps.seeds, outside_pts, mesh.vertices])
        assert np.array_equal(
            points_in_mesh(pts, mesh.vertices, mesh.triangles),
            points_in_mesh_full(pts, mesh.vertices, mesh.triangles),
        )

    def test_no_seeds_empty_mesh(self):
        g = uniform_grid(4)
        ps = lattice_particle_set(g, 0, [[0, 0, 0]])
        labeling = SeedLabeling(labels=np.zeros(1, dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 7)
        assert mesh.empty
        assert mesh.kind == "boundary"

    def test_vertices_at_lattice_edge_midpoints(self):
        g = uniform_grid(2)
        ps = lattice_particle_set(g, 1, [[1, 1, 1], [2, 1, 1]])
        labeling = SeedLabeling(labels=np.zeros(2, dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 0)
        coords = seed_axis_coords(g, 1)
        spacing = coords[0][1] - coords[0][0]
        # every vertex coordinate is either a lattice coordinate or a midpoint
        for v in mesh.vertices:
            rel = (v - coords[0][0]) / spacing
            frac = np.abs(rel - np.round(rel * 2) / 2)
            assert np.all(frac < 1e-9)

    def test_disconnected_contribution_components(self):
        # one label in two separated blobs: mesh component count matches a
        # 6-connectivity component count of the seed lattice
        g = uniform_grid(8)
        blob_a = [[1, 1, 1], [2, 1, 1]]
        blob_b = [[5, 5, 5], [5, 6, 5], [5, 5, 6]]
        pts = blob_a + blob_b
        ps = lattice_particle_set(g, 0, pts)
        labeling = SeedLabeling(labels=np.zeros(len(pts), dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 0)
        comp = triangle_components(mesh)
        node_mask = np.zeros((8, 8, 8), dtype=bool)
        for i, j, k in pts:
            node_mask[i, j, k] = True
        assert comp.max() + 1 == count_components(node_mask)

    def test_watertight_on_random_seed_sets(self):
        rng = np.random.default_rng(33)
        g = uniform_grid(6)
        for _ in range(20):
            n = rng.integers(1, 40)
            pts = np.unique(rng.integers(0, 6, size=(n, 3)), axis=0)
            ps = lattice_particle_set(g, 0, pts)
            labeling = SeedLabeling(labels=np.zeros(pts.shape[0], dtype=np.int32), time=0.0)
            mesh = extract_boundary(g, ps, labeling, 0)
            assert is_watertight(mesh)


def _separation_inputs(grid, plus_pts, minus_pts, extra_invalid=()):
    pts = list(plus_pts) + list(minus_pts) + list(extra_invalid)
    ps = lattice_particle_set(grid, 0, pts)
    labels = np.full(len(pts), 5, dtype=np.int32)
    labels[: len(plus_pts)] = 0
    labels[len(plus_pts) : len(plus_pts) + len(minus_pts)] = 1
    nxt = SeedLabeling(labels=labels, time=1.0)
    event = SplitEvent(
        initial_label=0,
        group_label=0,
        next_labels=(0, 1),
        seed_indices=np.arange(len(pts)),
        time_prev=0.0,
        time_next=1.0,
    )
    return ps, event, nxt


class TestSeparationSurface:
    def test_isolated_pair_fully_discarded(self):
        # single +/- node pair: every candidate triangle touches an edge with
        # an invalid node, so nothing survives (single-cube case enumeration)
        g = uniform_grid(6)
        ps, event, nxt = _separation_inputs(g, [[2, 2, 2]], [[3, 2, 2]])
        mesh = extract_separation_surface(g, ps, event, (0, 1), nxt)
        assert mesh.empty

    def test_slab_pair_keeps_midplane(self):
        g = uniform_grid(6)
        plus = [[2, j, k] for j in range(1, 5) for k in range(1, 5)]
        minus = [[3, j, k] for j in range(1, 5) for k in range(1, 5)]
        ps, event, nxt = _separation_inputs(g, plus, minus)
        mesh = extract_separation_surface(g, ps, event, (0, 1), nxt)
        assert not mesh.empty
        coords = seed_axis_coords(g, 0)
        midplane = 0.5 * (coords[0][2] + coords[0][3])
        assert np.allclose(mesh.vertices[:, 0], midplane)
        assert mesh.kind == "separation"
        assert mesh.timestamp == 1.0
        assert mesh.label == (0, 1)

    def test_open_surface_properties(self):
        g = uniform_grid(6)
        plus = [[2, j, k] for j in range(1, 5) for k in range(1, 5)]
        minus = [[3, j, k] for j in range(1, 5) for k in range(1, 5)]
        ps, event, nxt = _separation_inputs(g, plus, minus)
        mesh = extract_separation_surface(g, ps, event, (0, 1), nxt)
        edges, counts = edge_incidence(mesh)
        assert counts.max() <= 2
        assert np.any(counts == 1)  # has an open rim

    def test_other_labels_are_invalid(self):
        # a third label between the pair blocks the surface there
        g = uniform_grid(8)
        plus = [[2, j, k] for j in range(2, 6) for k in range(2, 6)]
        minus = [[4, j, k] for j in range(2, 6) for k in range(2, 6)]
        middle = [[3, j, k] for j in range(2, 6) for k in range(2, 6)]
        ps, event, nxt = _separation_inputs(g, plus, minus, extra_invalid=middle)
        mesh = extract_separation_surface(g, ps, event, (0, 1), nxt)
        assert mesh.empty


class TestSmoothing:
    def _ball_mesh(self, r=0.35, cells=16):
        g = uniform_grid(cells)
        coords = seed_axis_coords(g, 0)
        pts = np.stack(np.meshgrid(*coords, indexing="ij"), axis=-1).reshape(-1, 3)
        inside = np.sum((pts - 0.5) ** 2, axis=1) <= r * r
        lattice = np.argwhere(inside.reshape(cells, cells, cells))
        ps = lattice_particle_set(g, 0, lattice)
        labeling = SeedLabeling(labels=np.zeros(lattice.shape[0], dtype=np.int32), time=0.0)
        return extract_boundary(g, ps, labeling, 0), g

    def test_zero_iterations_identity(self):
        mesh, _ = self._ball_mesh()
        out = smooth_mesh(mesh, iterations=0)
        assert np.array_equal(out.vertices, mesh.vertices)
        assert np.array_equal(out.triangles, mesh.triangles)

    def test_contraction_of_closed_mesh(self):
        mesh, _ = self._ball_mesh()
        out = smooth_mesh(mesh, iterations=40, lam=0.5)
        r_before = np.linalg.norm(mesh.vertices - 0.5, axis=1).max()
        r_after = np.linalg.norm(out.vertices - 0.5, axis=1).max()
        assert r_after < r_before

    def test_sphere_distance_not_worsened(self):
        # oracle: distance to the analytic sphere; smoothing may not move the
        # mesh away from it by more than one lattice cell
        mesh, g = self._ball_mesh(r=0.35, cells=16)
        cell = 1.0 / 16
        out = smooth_mesh(mesh, iterations=10, lam=0.5)
        d_before = np.abs(np.linalg.norm(mesh.vertices - 0.5, axis=1) - 0.35).max()
        d_after = np.abs(np.linalg.norm(out.vertices - 0.5, axis=1) - 0.35).max()
        assert d_after <= max(d_before, cell)

    def test_connectivity_preserved(self):
        mesh, _ = self._ball_mesh()
        out = smooth_mesh(mesh, iterations=5)
        assert out.vertices.shape == mesh.vertices.shape
        assert np.array_equal(out.triangles, mesh.triangles)

    def test_open_boundary_vertices_fixed(self):
        g = uniform_grid(6)
        plus = [[2, j, k] for j in range(1, 5) for k in range(1, 5)]
        minus = [[3, j, k] for j in range(1, 5) for k in range(1, 5)]
        ps, event, nxt = _separation_inputs(g, plus, minus)
        mesh = extract_separation_surface(g, ps, event, (0, 1), nxt)
        out = smooth_mesh(mesh, iterations=10)
        rim = boundary_vertices(mesh)
        assert 0 < rim.size < mesh.vertices.shape[0]
        assert np.array_equal(out.vertices[rim], mesh.vertices[rim])
        # interior vertices are free to move but must stay on the flat surface
        coords = seed_axis_coords(g, 0)
        midplane = 0.5 * (coords[0][2] + coords[0][3])
        assert np.allclose(out.vertices[:, 0], midplane)

    def test_lambda_validated(self):
        mesh, _ = self._ball_mesh()
        with pytest.raises(ValueError):
            smooth_mesh(mesh, iterations=1, lam=0.0)


class TestExport:
    def test_empty_list_manifest_header_only(self, tmp_path):
        manifest = export_meshes([], tmp_path / "meshes")
        assert manifest.read_text() == "file\tkind\tlabels\ttimestamp\n"

    def test_single_triangle_obj(self, tmp_path):
        mesh = TriangleMesh(
            vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]]),
            triangles=np.array([[0, 1, 2]], dtype=np.int32),
            kind="boundary",
            label=0,
        )
        path = tmp_path / "tri.obj"
        write_obj(mesh, path)
        lines = path.read_text().splitlines()
        assert sum(ln.startswith("v ") for ln in lines) == 3
        assert sum(ln.startswith("f ") for ln in lines) == 1

    def test_roundtrip_counts(self, tmp_path):
        g = uniform_grid(4)
        ps = lattice_particle_set(g, 0, [[1, 1, 1], [2, 1, 1], [2, 2, 1]])
        labeling = SeedLabeling(labels=np.zeros(3, dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 0)
        path = tmp_path / "mesh.obj"
        write_obj(mesh, path)
        verts, tris = read_obj(path)
        assert verts.shape == mesh.vertices.shape
        assert tris.shape == mesh.triangles.shape

    def test_manifest_contents(self, tmp_path):
        b = TriangleMesh(
            vertices=np.zeros((3, 3)),
            triangles=np.array([[0, 1, 2]], dtype=np.int32),
            kind="boundary",
            label=4,
        )
        s = TriangleMesh(
            vertices=np.zeros((3, 3)),
            triangles=np.array([[0, 1, 2]], dtype=np.int32),
            kind="separation",
            label=(0, 2),
            timestamp=0.75,
        )
        manifest = export_meshes([b, s], tmp_path / "meshes")
        lines = manifest.read_text().splitlines()
        assert lines[0] == "file\tkind\tlabels\ttimestamp"
        assert lines[1].split("\t")[1:] == ["boundary", "4", "-"]
        assert lines[2].split("\t")[1:] == ["separation", "0,2", "0.75"]

    def test_small_component_filter(self, tmp_path):
        g = uniform_grid(8)
        pts = [[1, 1, 1]] + [[i, j, 5] for i in (4, 5) for j in (4, 5)]
        ps = lattice_particle_set(g, 0, pts)
        labeling = SeedLabeling(labels=np.zeros(len(pts), dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 0)
        filtered = filter_small_components(mesh, min_triangles=10)
        assert triangle_components(mesh).max() + 1 == 2
        assert triangle_components(filtered).max() + 1 == 1

    def test_no_degenerate_triangles(self):
        rng = np.random.default_rng(44)
        g = uniform_grid(6)
        pts = np.unique(rng.integers(0, 6, size=(30, 3)), axis=0)
        ps = lattice_particle_set(g, 0, pts)
        labeling = SeedLabeling(labels=np.zeros(pts.shape[0], dtype=np.int32), time=0.0)
        mesh = extract_boundary(g, ps, labeling, 0)
        v = mesh.vertices
        t = mesh.triangles
        areas = 0.5 * np.linalg.norm(
            np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]]), axis=1
        )
        assert areas.min() > 1e-12


@st.composite
def lattice_meshes(draw):
    """Marching-cubes mesh of a random closed lattice, or of a random open one
    with an `invalid` mask (open rims)."""
    closed = draw(st.booleans())
    inside, axes, rng = draw(lattices(closed=closed))
    invalid = None
    if not closed:
        invalid = (rng.random(inside.shape) < draw(st.floats(0.0, 0.6))) & ~inside
    verts, tris = marching_cubes(inside, axes, invalid=invalid)
    kind = "boundary" if closed else "separation"
    return TriangleMesh(vertices=verts, triangles=tris, kind=kind, label=0)


class TestExportKernelsMatchOracles:
    @settings(max_examples=200, deadline=None)
    @given(mesh=lattice_meshes())
    def test_edge_incidence_equals_row_unique(self, mesh):
        for got, want in zip(edge_incidence(mesh), edge_incidence_rows(mesh.triangles)):
            assert got.dtype == want.dtype
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(
        mesh=lattice_meshes(),
        iterations=st.integers(0, 12),
        lam=st.floats(0.0, 1.0, exclude_min=True),
    )
    def test_smoothing_bit_equal_to_scatter_add(self, mesh, iterations, lam):
        got = smooth_mesh(mesh, iterations, lam).vertices
        want = smooth_vertices_add_at(mesh.vertices, mesh.triangles, iterations, lam)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(mesh=lattice_meshes(), iterations=st.integers(0, 3))
    def test_obj_text_equals_fstrings(self, mesh, iterations):
        mesh = smooth_mesh(mesh, iterations)  # vertices with full-length mantissas
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mesh.obj"
            write_obj(mesh, path)
            got = path.read_bytes()
        assert got == obj_text_fstrings(mesh.vertices, mesh.triangles).encode()
