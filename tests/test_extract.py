from __future__ import annotations

import itertools
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsep import extract
from flowsep.advect import ParticleSet
from flowsep.extract import (
    TriangleMesh,
    edge_incidence,
    export_meshes,
    extract_boundaries,
    extract_separation_surface,
    is_watertight,
    smooth_meshes,
    write_obj,
)
from flowsep.grid import RectilinearGrid, subcell_lattice, uniform_grid
from flowsep.labeling import connected_components
from flowsep.marching import marching_cubes
from flowsep.segment import EXPORT_ROWS, SeedLabeling, SplitEvent

from .oracles import (
    boundary_mesh_loop,
    boundary_vertices,
    count_components,
    edge_incidence_rows,
    obj_text_fstrings,
    points_in_mesh,
    points_in_mesh_full,
    read_obj,
    seed_axis_coords,
    separation_mesh_loop,
    smooth_vertices_add_at,
    traced_peak,
)
from .test_marching import lattices


def lattice_particle_set(grid, refinement, lattice_pts):
    """ParticleSet stub with seeds at given global subcell lattice coordinates,
    each particle at its seed."""
    lattice = np.atleast_2d(np.asarray(lattice_pts, dtype=np.int32))
    centres, _ = subcell_lattice(grid, refinement)
    n = lattice.shape[0]
    return ParticleSet(
        lattice=lattice,
        pos=np.stack([centres[d][lattice[:, d]] for d in range(3)], axis=1),
        alive=np.ones(n, dtype=bool),
        eps=np.zeros(n),
        refinement=refinement,
        grid=grid,
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
        mesh = extract_boundaries(ps, labeling, [0])[0]
        assert mesh.vertices.shape[0] == 6
        assert mesh.triangles.shape[0] == 8
        assert is_watertight(mesh)
        assert euler_characteristic(mesh) == 2

    def test_block_encloses_exactly_its_seeds(self):
        g = uniform_grid(4)
        block = [[i, j, k] for i in (1, 2) for j in (1, 2) for k in (1, 2)]
        ps = lattice_particle_set(g, 0, block)
        labeling = SeedLabeling(labels=np.zeros(8, dtype=np.int32), time=0.0)
        mesh = extract_boundaries(ps, labeling, [0])[0]
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

    def test_no_seeds_empty_mesh(self, tmp_path):
        g = uniform_grid(4)
        ps = lattice_particle_set(g, 0, [[0, 0, 0]])
        labeling = SeedLabeling(labels=np.zeros(1, dtype=np.int32), time=0.0)
        mesh = extract_boundaries(ps, labeling, [7])[0]
        assert mesh.empty and mesh.vertices.shape == (0, 3) and mesh.triangles.shape == (0, 3)
        assert (mesh.vertices.dtype, mesh.triangles.dtype) == (np.float64, np.int32)
        assert (mesh.kind, mesh.label, mesh.timestamp) == ("boundary", 7, None)
        # a mesh without rows is written as one empty line
        write_obj(mesh, tmp_path / "empty.obj")
        assert (tmp_path / "empty.obj").read_text() == "\n"

    def test_vertices_at_lattice_edge_midpoints(self):
        g = uniform_grid(2)
        ps = lattice_particle_set(g, 1, [[1, 1, 1], [2, 1, 1]])
        labeling = SeedLabeling(labels=np.zeros(2, dtype=np.int32), time=0.0)
        mesh = extract_boundaries(ps, labeling, [0])[0]
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
        mesh = extract_boundaries(ps, labeling, [0])[0]
        t = mesh.triangles
        root = connected_components(
            mesh.vertices.shape[0], np.r_[t[:, 0], t[:, 1]], np.r_[t[:, 1], t[:, 2]]
        )
        node_mask = np.zeros((8, 8, 8), dtype=bool)
        for i, j, k in pts:
            node_mask[i, j, k] = True
        assert np.unique(root[t[:, 0]]).size == count_components(node_mask)

    def test_watertight_on_random_seed_sets(self):
        rng = np.random.default_rng(33)
        g = uniform_grid(6)
        for _ in range(20):
            n = rng.integers(1, 40)
            pts = np.unique(rng.integers(0, 6, size=(n, 3)), axis=0)
            ps = lattice_particle_set(g, 0, pts)
            labeling = SeedLabeling(labels=np.zeros(pts.shape[0], dtype=np.int32), time=0.0)
            mesh = extract_boundaries(ps, labeling, [0])[0]
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
        time_next=1.0,
    )
    return ps, event, nxt


class TestSeparationSurface:
    def test_isolated_pair_fully_discarded(self):
        # single +/- node pair: every candidate triangle touches an edge with
        # an invalid node, so nothing survives (single-cube case enumeration)
        g = uniform_grid(6)
        ps, event, nxt = _separation_inputs(g, [[2, 2, 2]], [[3, 2, 2]])
        mesh = extract_separation_surface(ps, [event], nxt)[0]
        assert mesh.empty

    def test_slab_pair_keeps_midplane(self):
        g = uniform_grid(6)
        plus = [[2, j, k] for j in range(1, 5) for k in range(1, 5)]
        minus = [[3, j, k] for j in range(1, 5) for k in range(1, 5)]
        ps, event, nxt = _separation_inputs(g, plus, minus)
        mesh = extract_separation_surface(ps, [event], nxt)[0]
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
        mesh = extract_separation_surface(ps, [event], nxt)[0]
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
        mesh = extract_separation_surface(ps, [event], nxt)[0]
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
        return extract_boundaries(ps, labeling, [0])[0], g

    def test_zero_iterations_identity(self):
        mesh, _ = self._ball_mesh()
        out = next(smooth_meshes([mesh], iterations=0))
        assert np.array_equal(out.vertices, mesh.vertices)
        assert np.array_equal(out.triangles, mesh.triangles)

    def test_contraction_of_closed_mesh(self):
        mesh, _ = self._ball_mesh()
        out = next(smooth_meshes([mesh], iterations=40, lam=0.5))
        r_before = np.linalg.norm(mesh.vertices - 0.5, axis=1).max()
        r_after = np.linalg.norm(out.vertices - 0.5, axis=1).max()
        assert r_after < r_before

    def test_sphere_distance_not_worsened(self):
        # oracle: distance to the analytic sphere; smoothing may not move the
        # mesh away from it by more than one lattice cell
        mesh, g = self._ball_mesh(r=0.35, cells=16)
        cell = 1.0 / 16
        out = next(smooth_meshes([mesh], iterations=10, lam=0.5))
        d_before = np.abs(np.linalg.norm(mesh.vertices - 0.5, axis=1) - 0.35).max()
        d_after = np.abs(np.linalg.norm(out.vertices - 0.5, axis=1) - 0.35).max()
        assert d_after <= max(d_before, cell)

    def test_connectivity_preserved(self):
        mesh, _ = self._ball_mesh()
        out = next(smooth_meshes([mesh], iterations=5))
        assert out.vertices.shape == mesh.vertices.shape
        assert np.array_equal(out.triangles, mesh.triangles)

    def test_open_boundary_vertices_fixed(self):
        g = uniform_grid(6)
        plus = [[2, j, k] for j in range(1, 5) for k in range(1, 5)]
        minus = [[3, j, k] for j in range(1, 5) for k in range(1, 5)]
        ps, event, nxt = _separation_inputs(g, plus, minus)
        mesh = extract_separation_surface(ps, [event], nxt)[0]
        out = next(smooth_meshes([mesh], iterations=10))
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
            next(smooth_meshes([mesh], iterations=1, lam=0.0))


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
        mesh = extract_boundaries(ps, labeling, [0])[0]
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

    def test_no_degenerate_triangles(self):
        rng = np.random.default_rng(44)
        g = uniform_grid(6)
        pts = np.unique(rng.integers(0, 6, size=(30, 3)), axis=0)
        ps = lattice_particle_set(g, 0, pts)
        labeling = SeedLabeling(labels=np.zeros(pts.shape[0], dtype=np.int32), time=0.0)
        mesh = extract_boundaries(ps, labeling, [0])[0]
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
        got = next(smooth_meshes([mesh], iterations, lam)).vertices
        want = smooth_vertices_add_at(mesh.vertices, mesh.triangles, iterations, lam)
        assert got.dtype == want.dtype
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @settings(max_examples=100, deadline=None)
    @given(mesh=lattice_meshes(), iterations=st.integers(0, 3))
    def test_obj_text_equals_fstrings(self, mesh, iterations):
        mesh = next(smooth_meshes([mesh], iterations))  # vertices with full-length mantissas
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "mesh.obj"
            write_obj(mesh, path)
            got = path.read_bytes()
        assert got == obj_text_fstrings(mesh.vertices, mesh.triangles).encode()


@st.composite
def labeled_seed_sets(draw, min_density=0.05):
    """A rectilinear grid (1-4 cells per axis, unequal widths), refinement
    0-2, a random subset of its seed lattice (at least `min_density` of it)
    and labels -1..5: blocks of the lattice share a label, some seeds get a
    random one, and the label list holds every label once in random order
    plus one that no seed carries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    refinement = draw(st.integers(0, 2))
    cells = [draw(st.integers(1, 4)) for _ in range(3)]
    grid = RectilinearGrid(tuple(np.cumsum(rng.uniform(0.2, 2.0, n + 1)) for n in cells))
    n = [c * 2**refinement for c in cells]
    pts = np.stack(np.meshgrid(*map(np.arange, n), indexing="ij"), axis=-1).reshape(-1, 3)
    pts = pts[rng.random(pts.shape[0]) < draw(st.floats(min_density, 1.0))]
    if pts.shape[0] == 0:
        pts = np.zeros((1, 3), dtype=np.int64)
    block = draw(st.integers(1, 4))
    labels = (pts // block) @ np.array([1, 2, 3]) % 6 - 1
    noisy = rng.random(pts.shape[0]) < draw(st.floats(0.0, 0.3))
    labels[noisy] = rng.integers(-1, 6, noisy.sum())
    ps = lattice_particle_set(grid, refinement, pts)
    labeling = SeedLabeling(labels=labels.astype(np.int32), time=0.0)
    wanted = rng.permutation(np.append(np.unique(labels[labels >= 0]), 9)).tolist()
    return grid, ps, labeling, wanted


@st.composite
def split_events(draw):
    """A dense `labeled_seed_sets` seed set whose labels are read as next
    labels, its seeds dealt to 1-3 events by bands along x. Each event lists
    2-4 of the labels its seeds carry and 8 and 9, which no seed carries, so
    an event's seeds include dead (-1) seeds and seeds of third labels, and
    some of its pairs are one-sided or hold no seed at all."""
    grid, ps, labeling, _ = draw(labeled_seed_sets(min_density=0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_events = draw(st.integers(1, 3))
    x = ps.lattice[:, 0]
    dealt = x * n_events // (x.max() + 1)
    events = []
    for e in range(n_events):
        seeds = np.nonzero(dealt == e)[0]
        carried = labeling.labels[seeds]
        listed = np.append(np.unique(carried[carried >= 0]), [8, 9])
        size = draw(st.integers(2, min(4, listed.size)))
        events.append(
            SplitEvent(
                initial_label=e,
                group_label=e,
                next_labels=tuple(rng.choice(listed, size, replace=False).tolist()),
                seed_indices=seeds,
                time_next=e + 1.0,
            )
        )
    return grid, ps, SeedLabeling(labels=labeling.labels, time=1.0), events


def separation_mesh_objects(grid, ps, events, nxt):
    """The per-pair oracle's meshes as the `TriangleMesh` list it stands for."""
    return [
        TriangleMesh(v, t, "separation", pair, ev.time_next)
        for (v, t), (ev, pair) in zip(
            separation_mesh_loop(grid, ps, events, nxt), event_pairs(events)
        )
    ]


def event_pairs(events):
    return [(ev, pair) for ev in events for pair in itertools.combinations(ev.next_labels, 2)]


def droplet_split_events(count):
    """`count` splits, one per ball of `droplet_seed_set`: the ball's seeds
    below its centre in x carry next label 2b and the others 2b + 1, so each
    pair's box is the ball's 7^3 nodes and its surface a disc."""
    g, ps, labeling = droplet_seed_set(count)
    x = ps.lattice[:, 0]
    labels = labeling.labels
    nxt = np.where(labels >= 0, 2 * labels + (x >= x // 6 * 6 + 3), -1).astype(np.int32)
    events = [
        SplitEvent(
            initial_label=b,
            group_label=b,
            next_labels=(2 * b, 2 * b + 1),
            seed_indices=np.nonzero(labels == b)[0],
            time_next=1.0,
        )
        for b in range(count)
    ]
    return g, ps, SeedLabeling(labels=nxt, time=1.0), events


def assert_mesh_bits(got: TriangleMesh, want_vertices, want_triangles):
    assert got.vertices.dtype == want_vertices.dtype
    assert got.triangles.dtype == want_triangles.dtype
    assert got.vertices.shape == want_vertices.shape
    assert np.array_equal(got.vertices.view(np.int64), want_vertices.view(np.int64))
    assert np.array_equal(got.triangles, want_triangles)


def droplet_seed_set(count=460):
    """`count` balls of radius 2.2 nodes on a 6-node spacing, each in a box
    of 7^3 nodes: about the box and mesh sizes of the boundaries of a
    droplets-r0 run."""
    g = uniform_grid(48)
    pts = np.stack(np.meshgrid(*[np.arange(48)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    centre = pts // 6 * 6 + 3
    keep = np.sum((pts - centre) ** 2, axis=1) <= 2.2**2
    pts, centre = pts[keep], centre[keep]
    ball = (centre // 6) @ np.array([64, 8, 1])
    labels = np.where(ball < count, ball, -1).astype(np.int32)
    return g, lattice_particle_set(g, 0, pts), SeedLabeling(labels=labels, time=0.0)


class TestBatchedTailMatchesPerMesh:
    @settings(max_examples=200, deadline=None)
    @given(case=labeled_seed_sets(), pack=st.sampled_from(["one", "few", "default"]))
    def test_boundaries_bit_equal_to_per_label_loop(self, case, pack):
        grid, ps, labeling, wanted = case
        want = boundary_mesh_loop(grid, ps, labeling, wanted)
        # "few": any two boxes fit one lattice, usually not many more do
        box = max(
            (int(np.prod(np.ptp(ps.lattice[labeling.labels == j], axis=0) + 3))
             for j in wanted if np.any(labeling.labels == j)),
            default=1,
        )
        nodes = {"one": 1, "few": 2 * box, "default": extract.PACK_NODES}[pack]
        with mock.patch.object(extract, "PACK_NODES", nodes):
            got = extract_boundaries(ps, labeling, wanted)
        assert [m.label for m in got] == wanted
        for mesh, (v, t), label in zip(got, want, wanted):
            assert mesh.kind == "boundary"
            assert mesh.empty == (label == 9)
            assert_mesh_bits(mesh, v, t)

    def test_packing_makes_fewer_marching_cubes_calls(self):
        g, ps, labeling = droplet_seed_set(count=40)
        labels = list(range(40))
        want = boundary_mesh_loop(g, ps, labeling, labels)
        # one box per call, three boxes per call, all 40 in one call
        for nodes, calls in ((1, 40), (3 * 7**3, 14), (extract.PACK_NODES, 1)):
            with mock.patch.object(extract, "PACK_NODES", nodes), mock.patch.object(
                extract, "marching_cubes", wraps=marching_cubes
            ) as mc:
                got = extract_boundaries(ps, labeling, labels)
            assert mc.call_count == calls
            for mesh, (v, t) in zip(got, want):
                assert_mesh_bits(mesh, v, t)

    @settings(max_examples=200, deadline=None)
    @given(case=split_events(), pack=st.sampled_from(["one", "few", "default"]))
    def test_separation_bit_equal_to_per_pair_loop(self, case, pack):
        grid, ps, nxt, events = case
        want = separation_mesh_loop(grid, ps, events, nxt)
        pairs = event_pairs(events)
        # "few": any two pair boxes fit one lattice, usually not many more do
        boxes = [ps.lattice[ev.seed_indices[np.isin(nxt.labels[ev.seed_indices], pair)]]
                 for ev, pair in pairs]
        box = max((int(np.prod(np.ptp(b, axis=0) + 3)) for b in boxes if b.size), default=1)
        nodes = {"one": 1, "few": 2 * box, "default": extract.PACK_NODES}[pack]
        with mock.patch.object(extract, "PACK_NODES", nodes):
            got = extract_separation_surface(ps, events, nxt)
        assert len(got) == len(pairs)
        for mesh, (v, t), (ev, pair) in zip(got, want, pairs):
            assert (mesh.kind, mesh.label, mesh.timestamp) == ("separation", pair, ev.time_next)
            assert_mesh_bits(mesh, v, t)

    def test_packing_makes_fewer_separation_marching_cubes_calls(self):
        g, ps, nxt, events = droplet_split_events(40)
        want = separation_mesh_loop(g, ps, events, nxt)
        assert all(t.shape[0] > 0 for _, t in want)
        # one pair box per call, three per call, all 40 in one call
        for nodes, calls in ((1, 40), (3 * 7**3, 14), (extract.PACK_NODES, 1)):
            with mock.patch.object(extract, "PACK_NODES", nodes), mock.patch.object(
                extract, "marching_cubes", wraps=marching_cubes
            ) as mc:
                got = extract_separation_surface(ps, events, nxt)
            assert mc.call_count == calls
            for mesh, (v, t) in zip(got, want):
                assert_mesh_bits(mesh, v, t)

    def test_no_events_make_no_meshes_and_no_calls(self):
        g, ps, nxt, _ = droplet_split_events(1)
        with mock.patch.object(extract, "marching_cubes", wraps=marching_cubes) as mc:
            assert extract_separation_surface(ps, [], nxt) == []
        assert mc.call_count == 0

    @settings(max_examples=100, deadline=None)
    @given(
        meshes=st.lists(
            st.one_of(lattice_meshes(), st.integers(0, 3)), min_size=0, max_size=8
        ),
        iterations=st.integers(0, 12),
        lam=st.floats(0.0, 1.0, exclude_min=True),
        bound=st.sampled_from([1, 16, 64, 4096]),
    )
    def test_grouped_smoothing_bit_equal_to_scatter_add(self, meshes, iterations, lam, bound):
        # an int k stands for an empty mesh of k vertices (no triangles);
        # bound 1 makes every mesh exceed it
        meshes = [
            TriangleMesh(np.full((m, 3), 0.5 + m), np.zeros((0, 3), np.int32), "boundary", 3)
            if isinstance(m, int) else m
            for m in meshes
        ]
        with mock.patch.object(extract, "SMOOTH_VERTICES", bound):
            got = list(smooth_meshes(meshes, iterations, lam))
        assert len(got) == len(meshes)
        for mesh, out in zip(meshes, got):
            want = smooth_vertices_add_at(mesh.vertices, mesh.triangles, iterations, lam)
            assert_mesh_bits(out, want, mesh.triangles)
            assert (out.kind, out.label, out.timestamp) == (mesh.kind, mesh.label, mesh.timestamp)
            assert not np.shares_memory(out.vertices, mesh.vertices)

    def test_grouped_smoothing_checks_lambda_at_the_call(self):
        with pytest.raises(ValueError):
            smooth_meshes([], iterations=1, lam=1.5)
        with pytest.raises(ValueError):
            smooth_meshes([], iterations=1, lam=0.0)

    @pytest.mark.parametrize("rows", [0, EXPORT_ROWS, EXPORT_ROWS + 1])
    def test_obj_block_edges_equal_fstrings(self, rows, tmp_path):
        rng = np.random.default_rng(rows)
        verts = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-6, 6, (rows, 1))
        tris = rng.integers(0, max(rows, 1), size=(rows, 3)).astype(np.int32)
        mesh = TriangleMesh(vertices=verts, triangles=tris, kind="boundary", label=0)
        write_obj(mesh, tmp_path / "mesh.obj")
        assert (tmp_path / "mesh.obj").read_bytes() == obj_text_fstrings(verts, tris).encode()


class TestTailMemoryBound:
    """The batched tail holds at most twice the traced peak of the per-mesh
    path on droplet-size boxes and meshes; one batch of all of them holds
    several times more."""

    def test_boundary_extraction_peak(self):
        g, ps, labeling = droplet_seed_set()
        labels = list(range(460))
        boundary_mesh_loop(g, ps, labeling, labels[:2])
        extract_boundaries(ps, labeling, labels[:2])
        per_label = traced_peak(boundary_mesh_loop, g, ps, labeling, labels)
        batched = traced_peak(extract_boundaries, ps, labeling, labels)
        assert batched <= 2 * per_label

    def test_separation_extraction_peak(self):
        g, ps, nxt, events = droplet_split_events(460)
        # full warm-up calls: the per-pair peak falls over its first calls in
        # a process, so a cold reference would leave the bound looser
        separation_mesh_objects(g, ps, events, nxt)
        extract_separation_surface(ps, events, nxt)
        per_pair = traced_peak(separation_mesh_objects, g, ps, events, nxt)
        batched = traced_peak(extract_separation_surface, ps, events, nxt)
        assert batched <= 2 * per_pair

    def test_smoothing_peak(self):
        g, ps, labeling = droplet_seed_set()
        meshes = extract_boundaries(ps, labeling, range(460))
        assert 50 < np.mean([m.vertices.shape[0] for m in meshes]) < 150
        list(smooth_meshes(meshes[:2]))
        per_mesh = traced_peak(lambda: [next(smooth_meshes([m])) for m in meshes])
        grouped = traced_peak(lambda: list(smooth_meshes(meshes)))
        assert grouped <= 2 * per_mesh
