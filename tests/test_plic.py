from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsep.advect import seed_particles
from flowsep.grid import CellField, TimeStep, uniform_grid
from flowsep.plic import (
    PlicTable,
    anchor_corner,
    is_liquid_many,
    liquid_capable,
    plic_table,
    project_many,
)

from .oracles import (
    bisect_offset,
    exact_corner_fraction,
    flat_index,
    solve_patch_offset,
    subvoxel_fraction,
    subvoxel_fraction_points,
    truncated_volume,
)

# round-trip tolerance |truncated_volume(solve_patch_offset(f)) - f| of the offsets
VOLUME_TOL = 1e-6

UNIT_LO = np.zeros(3)
UNIT_HI = np.ones(3)


def random_unit_normals(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def three_cell_row(f_values, widths=1.0):
    """1x1 cells in a row along x with the given fractions; zero velocity."""
    g = uniform_grid((3, 1, 1), hi=(3.0 * widths, widths, widths))
    f = np.asarray(f_values, dtype=float)
    return TimeStep(time=0.0, f=CellField(g, f), u=CellField(g, np.zeros((3, 3)), ncomp=3))


class TestTruncatedVolume:
    def test_zero_offset_is_zero(self):
        n = np.array([1.0, 0.5, 0.25])
        n /= np.linalg.norm(n)
        a = anchor_corner(UNIT_LO, UNIT_HI, n)
        assert truncated_volume(UNIT_LO, UNIT_HI, n, a, 0.0) == 0.0

    def test_full_extent_is_one(self):
        n = np.array([0.3, -0.8, 0.52])
        n /= np.linalg.norm(n)
        a = anchor_corner(UNIT_LO, UNIT_HI, n)
        extent = np.sum(np.abs(n))
        assert np.isclose(truncated_volume(UNIT_LO, UNIT_HI, n, a, extent), 1.0)

    def test_matches_subvoxel_counting(self):
        rng = np.random.default_rng(20)
        normals = random_unit_normals(rng, 60)
        for n in normals:
            a = anchor_corner(UNIT_LO, UNIT_HI, n)
            l = rng.uniform(0, np.sum(np.abs(n)))
            exact = truncated_volume(UNIT_LO, UNIT_HI, n, a, l)
            dense = subvoxel_fraction(n, a, l, n_sub=1024)
            assert abs(exact - dense) <= 2e-4

    def test_counting_oracle_variants_agree(self):
        # the closed-form column counter equals the materialized-point counter
        rng = np.random.default_rng(21)
        for n in random_unit_normals(rng, 10):
            a = anchor_corner(UNIT_LO, UNIT_HI, n)
            l = rng.uniform(0, np.sum(np.abs(n)))
            assert np.isclose(
                subvoxel_fraction(n, a, l, n_sub=32),
                subvoxel_fraction_points(n, a, l, n_sub=32),
                atol=1e-12,
            )

    def test_monotone_in_offset(self):
        rng = np.random.default_rng(22)
        for n in random_unit_normals(rng, 25):
            a = anchor_corner(UNIT_LO, UNIT_HI, n)
            ls = np.linspace(0, np.sum(np.abs(n)), 40)
            vols = [truncated_volume(UNIT_LO, UNIT_HI, n, a, l) for l in ls]
            assert np.all(np.diff(vols) >= -1e-15)

    def test_anchor_on_nonunit_cell(self):
        lo = np.array([1.0, 2.0, 3.0])
        hi = np.array([3.0, 2.5, 4.0])
        n = np.array([-0.6, 0.64, 0.48])
        n /= np.linalg.norm(n)
        a = anchor_corner(lo, hi, n)
        assert np.all((a == lo) | (a == hi))
        extent = np.sum(np.abs(n) * (hi - lo))
        assert np.isclose(truncated_volume(lo, hi, n, a, extent), 1.0)


class TestSolveOffset:
    def test_axis_aligned_half_cell(self):
        l = solve_patch_offset(UNIT_LO, UNIT_HI, np.array([1.0, 0, 0]), 0.5)
        assert abs(l - 0.5) < 1e-6

    def test_diagonal_half_cell(self):
        n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        l = solve_patch_offset(UNIT_LO, UNIT_HI, n, 0.5)
        assert abs(l - np.sqrt(3) / 2) < 1e-5

    def test_corner_tetrahedron(self):
        # oracle: corner tetrahedron volume c^3/6 with c = sqrt(3) * l,
        # so f = 1/48 puts the plane at l = 1 / (2 sqrt(3))
        n = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        l = solve_patch_offset(UNIT_LO, UNIT_HI, n, 1.0 / 48.0)
        assert abs(l - 1.0 / (2.0 * np.sqrt(3))) < 1e-4

    def test_volume_consistency_random(self):
        rng = np.random.default_rng(23)
        normals = random_unit_normals(rng, 200)
        fractions = rng.uniform(1e-3, 1 - 1e-3, 200)
        for n, f in zip(normals, fractions):
            a = anchor_corner(UNIT_LO, UNIT_HI, n)
            l = solve_patch_offset(UNIT_LO, UNIT_HI, n, f)
            assert abs(truncated_volume(UNIT_LO, UNIT_HI, n, a, l) - f) <= 1e-6


def table_row(step, cell):
    """The PLIC table and the row of one interface cell."""
    table = plic_table(step)
    flat = flat_index(step.grid, cell)
    row = int(table.rows(flat))
    assert table.cells[row] == flat
    return table, row


class TestReconstructPatch:
    def test_axis_aligned_row(self):
        step = three_cell_row([1.0, 0.5, 0.0])
        table, row = table_row(step, (1, 0, 0))
        normal = table.normals[row]
        assert np.allclose(normal, (1.0, 0.0, 0.0), atol=1e-12)
        assert np.isclose(np.linalg.norm(normal), 1.0, atol=1e-12)
        assert np.isclose(table.anchors[row][0], 1.0)
        assert abs(table.offsets[row] - 0.5) < 1e-6

    def test_requires_interface_cell(self):
        # only cells with 0 < f < 1 get a row
        step = three_cell_row([1.0, 0.5, 0.0])
        assert plic_table(step).cells.tolist() == [flat_index(step.grid, (1, 0, 0))]

    def test_degenerate_gradient(self):
        step = three_cell_row([0.5, 0.5, 0.5])
        table, row = table_row(step, (1, 0, 0))
        # f = 0.5 is not above one half: the whole-cell gas offset
        assert np.all(table.normals[row] == 0.0)
        assert table.offsets[row] == -np.inf


class TestIsLiquid:
    def test_pure_cells(self):
        step = three_cell_row([1.0, 0.5, 0.0])
        assert is_liquid_many(step, [(0.5, 0.5, 0.5), (2.5, 0.5, 0.5)]).tolist() == [True, False]

    def test_interface_cell_gas_side(self):
        # d = 0.75 > l = 0.5 on the middle cell's patch
        step = three_cell_row([1.0, 0.5, 0.0])
        assert not is_liquid_many(step, [(1.75, 0.5, 0.5)])[0]

    def test_interface_cell_liquid_side(self):
        # d = 0.25 < 0.5 by hand projection
        step = three_cell_row([1.0, 0.5, 0.0])
        assert is_liquid_many(step, [(1.25, 0.5, 0.5)])[0]

    def test_outside_domain_false(self):
        step = three_cell_row([1.0, 0.5, 0.0])
        assert not is_liquid_many(step, [(-0.5, 0.5, 0.5)])[0]

    def test_degenerate_cell_majority_fallback(self):
        step = three_cell_row([0.6, 0.6, 0.6])
        assert is_liquid_many(step, [(1.5, 0.5, 0.5)])[0]
        step = three_cell_row([0.4, 0.4, 0.4])
        assert not is_liquid_many(step, [(1.5, 0.5, 0.5)])[0]

    @pytest.mark.parametrize(
        "f, liquid, seeds", [(0.5, False, 0), (np.nextafter(0.5, 1.0), True, 24)]
    )
    def test_degenerate_fallback_edge_for_every_reader(self, f, liquid, seeds):
        # uniform f: every cell is degenerate; whole-cell liquid iff f > 0.5,
        # read alike by the phase test, the capable-cell mask and seeding
        step = three_cell_row([f, f, f])
        assert is_liquid_many(step, [(1.5, 0.5, 0.5)])[0] == liquid
        assert liquid_capable(step)[flat_index(step.grid, (1, 0, 0))] == liquid
        assert len(seed_particles(step, refinement=1)) == seeds

    def test_matches_dense_classification_on_interface_cell(self):
        # within one subvoxel of a 32^3 classification of the middle cell
        step = three_cell_row([1.0, 0.42, 0.0])
        table, row = table_row(step, (1, 0, 0))
        n_sub = 32
        g = (np.arange(n_sub) + 0.5) / n_sub
        pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
        pts[:, 0] += 1.0  # shift into the middle cell
        ours = is_liquid_many(step, pts)
        dense = (pts - table.anchors[row]) @ table.normals[row] <= table.offsets[row]
        assert np.mean(ours != dense) == 0.0


def project_row(table, row, x):
    """project_many on one point against one table row."""
    return project_many(table, np.array([row]), np.asarray(x, dtype=np.float64)[None, :])[0]


class TestProjectToPatch:
    def test_axis_case(self):
        step = three_cell_row([1.0, 0.5, 0.0])
        table, row = table_row(step, (1, 0, 0))
        # anchor is (1, 0, 0); choose x with matching y, z so motion is pure x
        p = project_row(table, row, [2.0, 0.0, 0.0])
        assert np.allclose(p, (1.0 + table.offsets[row], 0.0, 0.0), atol=1e-9)

    def test_point_on_plane_fixed(self):
        step = three_cell_row([1.0, 0.5, 0.0])
        table, row = table_row(step, (1, 0, 0))
        x = np.array([1.0 + table.offsets[row], 0.3, 0.7])
        assert np.allclose(project_row(table, row, x), x)

    def test_oblique_case_parametric_oracle(self):
        n = np.array([1.0, 1.0, 0.0]) / np.sqrt(2)
        anchor, offset = np.zeros(3), np.sqrt(2) / 2
        x = np.array([1.0, 1.0, 1.0])
        table = PlicTable(
            cells=np.zeros(1, dtype=np.int64), normals=n[None, :], anchors=anchor[None, :],
            offsets=np.array([offset]), tol=np.zeros(1),
        )
        p = project_row(table, 0, x)
        # oracle: solve (x + s (a - x) - a) . n = l for s
        d = (x - anchor) @ n
        s = 1.0 - offset / d
        expect = x + s * (anchor - x)
        assert np.allclose(p, expect, atol=1e-15)
        assert abs((p - anchor) @ n - offset) < 1e-12
        assert 0.0 <= s <= 1.0


class TestSeedingGeometry:
    def test_half_cell_accepts_low_x_points(self):
        # mirrors the rejected-sample picture: points past the patch stay unseeded
        step = three_cell_row([1.0, 0.5, 0.0])
        pts = np.array([[1.25, 0.25, 0.25], [1.25, 0.75, 0.75], [1.75, 0.25, 0.25], [1.75, 0.75, 0.75]])
        got = is_liquid_many(step, pts)
        assert got.tolist() == [True, True, False, False]


class TestExactClipOracle:
    def test_matches_convex_hull_volume(self):
        # independent exact oracle: qhull volume of the clipped box polytope
        from itertools import product

        from scipy.spatial import ConvexHull

        def hull_clip_volume(n, a, l):
            corners = np.array(list(product([0, 1], repeat=3)), dtype=float)
            d = (corners - a) @ n
            pts = [c for c, dd in zip(corners, d) if dd <= l + 1e-15]
            for i in range(8):
                for j in range(i + 1, 8):
                    if np.sum(np.abs(corners[i] - corners[j])) != 1:
                        continue
                    di, dj = d[i] - l, d[j] - l
                    if di * dj < 0:
                        t = di / (di - dj)
                        pts.append(corners[i] + t * (corners[j] - corners[i]))
            if len(pts) < 4:
                return 0.0
            return ConvexHull(np.array(pts), qhull_options="QJ").volume

        rng = np.random.default_rng(31)
        for _ in range(100):
            n = random_unit_normals(rng, 1)[0]
            a = anchor_corner(UNIT_LO, UNIT_HI, n)
            l = rng.uniform(0, np.sum(np.abs(n)))
            exact = truncated_volume(UNIT_LO, UNIT_HI, n, a, l)
            assert abs(exact - hull_clip_volume(n, a, l)) < 1e-9


def _signed(magnitude):
    return st.tuples(st.sampled_from([-1.0, 1.0]), magnitude).map(lambda t: t[0] * t[1])


@st.composite
def unit_normals(draw):
    """Axis-aligned, near-axis and general unit normals, so the solve sees one,
    two and three non-zero components, the small ones down to 1e-13."""
    kind = draw(st.sampled_from(["axis", "near-axis", "general"]))
    axis = draw(st.integers(0, 2))
    n = np.zeros(3)
    n[axis] = draw(st.sampled_from([-1.0, 1.0]))
    if kind == "near-axis":
        tilt = st.one_of(st.floats(0.0, 0.1), st.floats(-13.0, -1.0).map(lambda e: 10.0**e))
        for d in range(3):
            if d != axis:
                n[d] = draw(_signed(tilt))
    elif kind == "general":
        for d in range(3):
            n[d] = draw(_signed(st.one_of(st.just(0.0), st.floats(1e-3, 1.0))))
        n[axis] = draw(_signed(st.floats(0.5, 1.0)))
    return n / np.sqrt(n @ n)


def near_axis_cells(count=300, seed=41):
    """Cells with widths 0.1-10 and normals (+-1 on one axis) tilted by 1e-13..1e-3
    (log-uniform, or exactly 0) on the other two, with fractions in (0, 1)."""
    rng = np.random.default_rng(seed)
    widths = rng.uniform(0.1, 10.0, (count, 3))
    tilts = 10.0 ** rng.uniform(-13.0, -3.0, (count, 3))
    normals = rng.choice([-1.0, 1.0], (count, 3)) * np.where(rng.random((count, 3)) < 0.8, tilts, 0.0)
    normals[np.arange(count), rng.integers(0, 3, count)] = rng.choice([-1.0, 1.0], count)
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    return widths, normals, rng.uniform(0.0, 1.0, count)


def split32_rows(split32):
    """(widths, normal, fraction, table offset) of every non-degenerate interface
    cell of the 10 split32 steps."""
    ds, _ = split32
    for step in ds.steps:
        table = plic_table(step)
        lo, hi = step.grid.cell_boxes(table.cells)
        for row in np.nonzero(np.isfinite(table.offsets))[0]:
            f = float(step.f.values[table.cells[row]])
            yield hi[row] - lo[row], table.normals[row], f, table.offsets[row]


class TestTableProperties:
    @settings(max_examples=300, deadline=None)
    @given(
        widths=st.tuples(*[st.floats(0.1, 10.0)] * 3),
        normal=unit_normals(),
        fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    def test_offset_volume_round_trip(self, widths, normal, fraction):
        lo = np.array([0.5, -2.0, 1.0])
        hi = lo + np.array(widths)
        offset = solve_patch_offset(lo, hi, normal, fraction)
        a = anchor_corner(lo, hi, normal)
        assert abs(truncated_volume(lo, hi, normal, a, offset) - fraction) <= VOLUME_TOL

    def test_offsets_match_bisection_in_volume(self, split32):
        # the closed form and the former scalar bisection give the same volume
        # within the bisection's stopping tolerance
        checked = 0
        for w, normal, f, offset in split32_rows(split32):
            want = bisect_offset(np.zeros(3), w, normal, f, volume_tol=VOLUME_TOL)
            c = np.abs(normal)
            got = exact_corner_fraction(w, c, offset) - exact_corner_fraction(w, c, want)
            assert abs(got) <= VOLUME_TOL
            checked += 1
        assert checked > 1000


class TestExactVolume:
    """The exact rational volume below every offset equals the cell's fraction."""

    def test_split32_table_offsets(self, split32):
        for w, normal, f, offset in split32_rows(split32):
            assert abs(float(exact_corner_fraction(w, np.abs(normal), offset)) - f) <= 1e-12

    def test_near_axis_offsets(self):
        lo = np.zeros(3)
        for w, normal, f in zip(*near_axis_cells()):
            offset = solve_patch_offset(lo, w, normal, f)
            assert abs(float(exact_corner_fraction(w, np.abs(normal), offset)) - f) <= 1e-12
