from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsep.advect import seed_particles
from flowsep.extract import padded_seed_coords
from flowsep.grid import (
    CellField,
    GridError,
    RectilinearGrid,
    TimeSeriesDataset,
    TimeStep,
    flat_indices,
    fraction_gradients,
    locate_cells,
    sample_cell_field,
    sample_velocity,
    subcell_lattice,
    uniform_grid,
)

from .oracles import (
    _padded_axis,
    bin_faces,
    flat_index,
    locate_cell,
    locate_cells_passes,
    sample_cell_field_loop,
    sample_velocity_reference,
    seed_axis_coords,
    subcell_seeds,
)


def make_step(grid, f, u, time=0.0):
    return TimeStep(time=time, f=CellField(grid, f), u=CellField(grid, u, ncomp=3))


def constant_step(grid, fval, uvec, time=0.0):
    n = grid.ncells
    f = np.full(n, fval)
    u = np.tile(np.asarray(uvec, dtype=float)[:, None], (1, n))
    return make_step(grid, f, u, time)


def cell_center_coords(grid):
    """(ncells, 3) cell centers in flat x-fastest order."""
    nx, ny, nz = grid.shape
    cx, cy, cz = grid.centers
    return np.stack(
        [
            np.tile(cx, ny * nz),
            np.tile(np.repeat(cy, nx), nz),
            np.repeat(cz, nx * ny),
        ],
        axis=1,
    )


class TestRectilinearGrid:
    def test_rejects_non_increasing_axis(self):
        with pytest.raises(GridError):
            RectilinearGrid((np.array([0.0, 0.0, 1.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])))

    def test_rejects_single_node_axis(self):
        with pytest.raises(GridError):
            RectilinearGrid((np.array([0.0]), np.array([0.0, 1.0]), np.array([0.0, 1.0])))

    @pytest.mark.parametrize("axis", [[-np.inf, 0.5, 1.0], [0.0, 0.5, np.inf], [0.0, np.nan, 1.0]])
    def test_rejects_non_finite_node(self, axis):
        # infinite end nodes are strictly increasing, so only the finiteness check rejects them
        with pytest.raises(GridError):
            RectilinearGrid((np.array(axis), np.array([0.0, 1.0]), np.array([0.0, 1.0])))

    def test_shape_and_volume(self):
        g = uniform_grid((4, 2, 3))
        assert g.shape == (4, 2, 3)
        assert g.ncells == 24
        volume = g.widths[0][0] * g.widths[1][0] * g.widths[2][0]
        assert np.isclose(volume, (1 / 4) * (1 / 2) * (1 / 3))

    def test_flat_unflat_roundtrip(self):
        g = uniform_grid((3, 4, 5))
        flat = np.arange(g.ncells)
        ijk = np.stack(g.unflat(flat), axis=1)
        assert np.array_equal(flat_indices(g, ijk), flat)
        assert [flat_index(g, cell) for cell in ijk] == flat.tolist()


@st.composite
def locate_cases(draw):
    """A rectilinear grid of 1-6 cells per axis and up to 30 points whose
    coordinates are nodes (both domain faces included), their float
    neighbours, NaN, +-inf, or uniform draws inside and around the domain."""
    axes = []
    for _ in range(3):
        widths = draw(st.lists(st.floats(0.01, 2.0), min_size=1, max_size=6))
        axes.append(draw(st.floats(-1.0, 1.0)) + np.concatenate([[0.0], np.cumsum(widths)]))
    coords = [
        st.one_of(
            st.sampled_from(
                [*a, *np.nextafter(a, -np.inf), *np.nextafter(a, np.inf), np.nan, np.inf, -np.inf]
            ),
            st.floats(a[0] - 1.0, a[-1] + 1.0),
        )
        for a in axes
    ]
    n = draw(st.integers(0, 30))
    pts = np.array([[draw(c) for c in coords] for _ in range(n)]).reshape(n, 3)
    return RectilinearGrid(tuple(axes)), pts


def locate(grid, x):
    """One point through locate_cells: its cell, or None outside the domain."""
    idx, inside = locate_cells(grid, x)
    return tuple(int(i) for i in idx[0]) if inside[0] else None


class TestLocateCell:
    def test_first_cell(self):
        g = uniform_grid(2)
        assert locate(g, (0.1, 0.1, 0.1)) == (0, 0, 0)

    def test_mixed_cell(self):
        g = uniform_grid(2)
        assert locate(g, (0.6, 0.1, 0.9)) == (1, 0, 1)

    def test_outside(self):
        g = uniform_grid(2)
        assert locate(g, (1.5, 0.0, 0.0)) is None

    def test_domain_max_maps_to_last_cell(self):
        g = uniform_grid(2)
        assert locate(g, (1.0, 1.0, 1.0)) == (1, 1, 1)

    def test_roundtrip_bounds_contain_point(self):
        rng = np.random.default_rng(7)
        axes = tuple(np.sort(rng.uniform(0, 1, 6)) + np.arange(6) * 0.05 for _ in range(3))
        g = RectilinearGrid(axes)
        pts = rng.uniform(g.lo, g.hi, size=(200, 3))
        idx, inside = locate_cells(g, pts)
        assert inside.all()
        lo, hi = g.cell_boxes(flat_indices(g, idx))
        last = idx == np.array(g.shape) - 1
        assert np.all(lo <= pts)
        assert np.all(np.where(last, pts <= hi, pts < hi))

    @settings(max_examples=300, deadline=None)
    @given(case=locate_cases())
    def test_bitwise_equal_to_masked_passes(self, case):
        # every row, also those outside the domain, equals the former body's
        grid, pts = case
        idx, inside = locate_cells(grid, pts)
        want_idx, want_inside = locate_cells_passes(grid, pts)
        assert idx.dtype == want_idx.dtype and idx.shape == want_idx.shape
        assert np.array_equal(idx, want_idx)
        assert np.array_equal(inside, want_inside)

    def test_vectorized_matches_scalar(self):
        g = uniform_grid((3, 4, 5))
        rng = np.random.default_rng(3)
        pts = rng.uniform(-0.2, 1.2, size=(300, 3))
        idx, inside = locate_cells(g, pts)
        for row, p in enumerate(pts):
            cell = locate_cell(g, p)
            if cell is None:
                assert not inside[row]
            else:
                assert inside[row]
                assert tuple(idx[row]) == cell


class TestSampleVelocity:
    def test_constant_field(self):
        g = uniform_grid(4)
        a = constant_step(g, 0.5, (1.0, 0.0, 0.0), time=0.0)
        b = constant_step(g, 0.5, (1.0, 0.0, 0.0), time=1.0)
        v = sample_velocity(a, b, np.array([[0.3, 0.77, 0.51]]), 0.4)
        assert np.allclose(v, (1.0, 0.0, 0.0))

    def test_linear_time_blend(self):
        g = uniform_grid(4)
        a = constant_step(g, 0.5, (0.0, 0.0, 0.0), time=0.0)
        b = constant_step(g, 0.5, (2.0, 0.0, 0.0), time=1.0)
        v = sample_velocity(a, b, np.array([[0.5, 0.5, 0.5]]), 0.5)
        assert np.allclose(v, (1.0, 0.0, 0.0))

    def test_reproduces_cell_center_values(self):
        # oracle: direct array lookup at the sampled cell center
        g = uniform_grid(8)
        centers = cell_center_coords(g)
        u = np.zeros((3, g.ncells))
        u[0] = centers[:, 0]
        step = make_step(g, np.full(g.ncells, 0.5), u)
        for flat in (0, 77, 300, 511):
            v = sample_velocity(step, step, centers[flat : flat + 1], 0.0)
            assert np.isclose(v[0, 0], u[0, flat], atol=1e-14)

    def test_exact_for_affine_fields(self):
        g = uniform_grid(6)
        centers = cell_center_coords(g)
        rng = np.random.default_rng(11)
        coeff = rng.normal(size=(3, 4))  # per component: a + b.x
        u = coeff[:, :1] + coeff[:, 1:] @ centers.T
        step_a = make_step(g, np.full(g.ncells, 0.5), u, time=0.0)
        step_b = make_step(g, np.full(g.ncells, 0.5), 2.0 * u, time=1.0)
        # stay strictly inside the cell-center hull where no clamping occurs
        pts = rng.uniform(1.5 / 6, 4.5 / 6, size=(50, 3))
        for t in (0.0, 0.25, 1.0):
            expect = (1.0 + t) * (coeff[:, :1] + coeff[:, 1:] @ pts.T).T
            got = sample_velocity(step_a, step_b, pts, t)
            assert np.allclose(got, expect, atol=1e-12)

    def test_time_outside_interval_rejected(self):
        g = uniform_grid(2)
        a = constant_step(g, 0.5, (1.0, 0.0, 0.0), time=0.0)
        b = constant_step(g, 0.5, (1.0, 0.0, 0.0), time=1.0)
        with pytest.raises(ValueError):
            sample_velocity(a, b, np.array([[0.5, 0.5, 0.5]]), 2.0)


finite = st.floats(-10.0, 10.0, allow_nan=False)


@st.composite
def sampling_cases(draw):
    """Two steps on a rectilinear grid with 1-6 cells per axis, points inside
    and outside the center lattice (some exactly on centers or nodes), and a
    time at either end of the interval or between; sometimes one step twice,
    and sometimes a step whose velocity is -0.0 in every component."""
    axes = []
    for _ in range(3):
        n = draw(st.integers(1, 6))
        steps = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
        axes.append(np.concatenate([[0.0], np.cumsum(steps)]))
    grid = RectilinearGrid(tuple(axes))
    n = grid.ncells

    def velocity():
        # sometimes -0.0 everywhere: a sample of it must still be +0.0
        if draw(st.integers(0, 4)) == 0:
            return np.full((3, n), -0.0)
        return np.array(draw(st.lists(finite, min_size=3 * n, max_size=3 * n))).reshape(3, n)

    ta = draw(st.floats(-5.0, 5.0))
    step_a = make_step(
        grid,
        np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))),
        velocity(),
        time=ta,
    )
    if draw(st.booleans()):
        step_b, t = step_a, ta
    else:
        tb = ta + draw(st.floats(0.01, 5.0))
        step_b = make_step(grid, step_a.f.values, velocity(), time=tb)
        t = draw(st.sampled_from([ta, tb]) | st.floats(ta, tb))
    coord = [
        st.floats(-1.0, float(a[-1]) + 1.0) | st.sampled_from(grid.centers[d].tolist() + a.tolist())
        for d, a in enumerate(axes)
    ]
    count = draw(st.integers(1, 8))
    pts = np.array([[draw(coord[d]) for d in range(3)] for _ in range(count)])
    return step_a, step_b, t, pts


def negative_zero_case():
    """Velocity -0.0 everywhere in both steps, time at the first, and a point
    at -0.0 on every axis: a sample must be +0.0, so that the first step's
    sample alone equals its blend with the second (1 * va + 0 * vb), and RK4
    keeps the point's -0.0 where a -0.0 sample would too."""
    g = uniform_grid((2, 1, 3))
    u = np.full((3, g.ncells), -0.0)
    f = np.full(g.ncells, 0.5)
    return make_step(g, f, u, 0.0), make_step(g, f, u, 1.0), 0.0, np.full((1, 3), -0.0)


class TestSamplerMatchesLoop:
    @settings(max_examples=200, deadline=None)
    @given(case=sampling_cases())
    @example(case=negative_zero_case())
    def test_bitwise_equal_to_per_corner_loop(self, case):
        step_a, step_b, t, pts = case
        assert np.array_equal(sample_cell_field(step_a.f, pts), sample_cell_field_loop(step_a.f, pts))
        assert np.array_equal(sample_cell_field(step_a.u, pts), sample_cell_field_loop(step_a.u, pts))
        want = sample_velocity_reference(step_a, step_b, pts, t)
        # array_equal does not tell -0.0 from +0.0; the bytes do
        got = sample_velocity(step_a, step_b, pts, t)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert sample_velocity(step_a, step_b, pts[:1], t).tobytes() == want[:1].tobytes()


class TestGradient:
    def test_constant_field_zero(self):
        g = uniform_grid(4)
        step = constant_step(g, 0.5, (0.0, 0.0, 0.0))
        assert np.allclose(fraction_gradients(step, [flat_index(g, (2, 1, 3))]), 0.0)

    def test_linear_field_interior(self):
        g = uniform_grid(6)
        f = np.clip(cell_center_coords(g)[:, 0], 0, 1)
        step = make_step(g, f, np.zeros((3, g.ncells)))
        assert np.allclose(fraction_gradients(step, [flat_index(g, (3, 2, 2))]), (1.0, 0.0, 0.0))

    def test_linear_field_boundary_one_sided(self):
        # hand-computed one-sided stencil: (f[1] - f[0]) / (c1 - c0) = 1
        g = uniform_grid(6)
        f = np.clip(cell_center_coords(g)[:, 0], 0, 1)
        step = make_step(g, f, np.zeros((3, g.ncells)))
        got = fraction_gradients(step, [flat_index(g, (0, 2, 2)), flat_index(g, (5, 2, 2))])
        assert np.allclose(got, (1.0, 0.0, 0.0))

    def test_affine_exact_on_nonuniform_grid(self):
        rng = np.random.default_rng(5)
        axes = tuple(np.cumsum(np.concatenate([[0.0], rng.uniform(0.5, 2.0, 5)])) for _ in range(3))
        g = RectilinearGrid(axes)
        centers = cell_center_coords(g)
        coef = rng.normal(size=4)
        raw = coef[0] + centers @ coef[1:]
        span = raw.max() - raw.min()
        fvals = (raw - raw.min()) / span  # into [0, 1], still affine in centers
        step = make_step(g, fvals, np.zeros((3, g.ncells)))
        expect = coef[1:] / span
        cells = [flat_index(g, cell) for cell in [(2, 2, 2), (0, 0, 0), (4, 3, 1)]]
        got = fraction_gradients(step, cells)
        assert got.shape == (3, 3)
        assert np.allclose(got, expect, atol=1e-12)


class TestValidation:
    def test_fraction_range_enforced(self):
        g = uniform_grid(2)
        with pytest.raises(GridError):
            make_step(g, np.full(g.ncells, 1.5), np.zeros((3, g.ncells)))

    def test_field_length_enforced(self):
        g = uniform_grid(2)
        with pytest.raises(GridError):
            CellField(g, np.zeros(5))

    def test_dataset_times_increasing(self):
        g = uniform_grid(2)
        s0 = constant_step(g, 0.5, (0, 0, 0), time=0.0)
        s1 = constant_step(g, 0.5, (0, 0, 0), time=0.0)
        with pytest.raises(GridError):
            TimeSeriesDataset(grid=g, steps=[s0, s1])


@st.composite
def subcell_cases(draw):
    """A rectilinear grid of 1-7 unequal cells per axis, a fraction field whose
    cells are empty, full or mixed (some at f = 0.5), and a refinement 0-3."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes = tuple(
        rng.uniform(-1.0, 1.0) + np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 2.0, n))])
        for n in (draw(st.integers(1, 7)) for _ in range(3))
    )
    grid = RectilinearGrid(axes)
    f = rng.choice([0.0, 0.0, 1.0, 1.0, 0.5, rng.uniform()], grid.ncells)
    return grid, f, draw(st.integers(0, 3))


class TestSubcellLattice:
    @settings(max_examples=200, deadline=None)
    @given(case=subcell_cases())
    def test_bitwise_equal_to_former_derivations(self, case):
        grid, f, r = case
        s = 2**r
        centres, faces = subcell_lattice(grid, r)
        want_centres, want_faces = seed_axis_coords(grid, r), bin_faces(grid, s)
        padded = padded_seed_coords(grid, r)
        for d in range(3):
            assert centres[d].tobytes() == want_centres[d].tobytes()
            assert faces[d].tobytes() == want_faces[d].tobytes()
            assert faces[d][::s].tobytes() == grid.axes[d].tobytes()
            want = _padded_axis(want_centres[d], 0, centres[d].size - 1, grid.widths[d][0] / s)
            assert padded[d].tobytes() == want.tobytes()

        ps = seed_particles(make_step(grid, f, np.zeros((3, grid.ncells))), r)
        at = np.stack([centres[d][ps.lattice[:, d]] for d in range(3)], axis=1)
        assert at.tobytes() == ps.seeds.tobytes()
        wx, wy, wz = (grid.widths[d][ps.lattice[:, d] // s] for d in range(3))
        assert (wx * wy * wz / 8**r).tobytes() == ps.seed_volume.tobytes()

        # the seeds are the former cell-box seeds in their order, less
        # subcells of mixed cells only
        cells = np.nonzero(f > 0.0)[0]
        seeds, lattice, volume = subcell_seeds(grid, cells, r)
        dims = [n * s for n in grid.shape]
        key = np.ravel_multi_index(lattice.T, dims)
        order = np.argsort(key)
        pos = order[np.searchsorted(key, np.ravel_multi_index(ps.lattice.T, dims), sorter=order)]
        assert np.all(np.diff(pos) > 0)
        assert seeds[pos].tobytes() == ps.seeds.tobytes()
        assert volume[pos].tobytes() == ps.seed_volume.tobytes()
        dropped = np.ones(key.size, dtype=bool)
        dropped[pos] = False
        assert np.all(f[np.repeat(cells, s**3)][dropped] < 1.0)
