from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsep.advect import seed_particles
from flowsep.grid import (
    CellField,
    RectilinearGrid,
    TimeStep,
    locate_cells,
    sample_cell_field,
    subcell_lattice,
    uniform_grid,
)
from flowsep.labeling import LabelField, label_features
from flowsep.segment import (
    EXPORT_ROWS,
    GRADIENT_WALK_MAX,
    SeedLabeling,
    assign_labels,
    contribution_table,
    detect_splits,
    labels_for_positions,
    read_table,
    write_epsilon,
    write_table,
)

from .oracles import (
    contribution_rows_add_at,
    detect_splits_loop,
    epsilon_text_fstrings,
    walk_up_gradient,
)
from .test_advect import probes_particle_set
from .test_extract import lattice_particle_set


def make_step(grid, f, time=0.0):
    return TimeStep(
        time=time, f=CellField(grid, f), u=CellField(grid, np.zeros((3, grid.ncells)), ncomp=3)
    )


def two_ball_step(cells=16):
    g = uniform_grid(cells)
    nx, ny, nz = g.shape
    f3 = np.zeros((nx, ny, nz))
    cx, cy, cz = g.centers
    pts = np.stack(np.meshgrid(cx, cy, cz, indexing="ij"), axis=-1)
    for center in ((0.25, 0.5, 0.5), (0.75, 0.5, 0.5)):
        d2 = np.sum((pts - np.array(center)) ** 2, axis=-1)
        f3[d2 <= 0.15**2] = 1.0
    return make_step(g, f3.reshape(-1, order="F"))


class TestAssignLabels:
    def test_particle_in_labeled_cell(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = probes_particle_set([[0.25, 0.5, 0.5], [0.75, 0.5, 0.5]])
        sl = assign_labels(ps, labels, step)
        assert sl.labels.tolist() == [0, 1]

    def test_particle_outside_features(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = probes_particle_set([[0.5, 0.05, 0.05]])
        assert assign_labels(ps, labels, step).labels.tolist() == [-1]

    def test_dead_particles_get_invalid(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = probes_particle_set([[0.25, 0.5, 0.5]])
        ps.alive[0] = False
        assert assign_labels(ps, labels, step).labels.tolist() == [-1]

    def test_gradient_walk_finds_uphill_label(self):
        # unlabeled cell (f = 0.4 <= tau) but the interpolated fraction at the
        # particle exceeds tau; the walk climbs one cell up-gradient
        g = uniform_grid((2, 1, 1), hi=(2.0, 1.0, 1.0))
        step = make_step(g, np.array([0.4, 0.8]))
        labels = label_features(step, tau=0.5)
        assert labels.labels.tolist() == [-1, 0]
        ps = probes_particle_set([[0.9, 0.5, 0.5]])
        sl = assign_labels(ps, labels, step, tau=0.5)
        assert sl.labels.tolist() == [0]

    def test_gradient_walk_respects_interpolated_threshold(self):
        g = uniform_grid((2, 1, 1), hi=(2.0, 1.0, 1.0))
        step = make_step(g, np.array([0.4, 0.8]))
        labels = label_features(step, tau=0.5)
        # interpolated fraction at x = 0.6 is 0.44 <= tau: stays invalid
        ps = probes_particle_set([[0.6, 0.5, 0.5]])
        assert assign_labels(ps, labels, step, tau=0.5).labels.tolist() == [-1]

    def test_gradient_walk_stops_after_max_steps(self):
        # f rises along x; only cell GRADIENT_WALK_MAX + 1 is labeled, so the walk
        # reaches it from cell 1 but not from cell 0
        n = GRADIENT_WALK_MAX + 3
        g = uniform_grid((n, 1, 1), hi=(float(n), 1.0, 1.0))
        step = make_step(g, np.linspace(0.1, 0.9, n))
        lab = np.full(n, -1, dtype=np.int32)
        lab[GRADIENT_WALK_MAX + 1] = 4
        labels = LabelField(grid=g, labels=lab, count=1)
        pos = np.array([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
        assert labels_for_positions(pos, labels, step).tolist() == [-1, 4]

    def test_assignment_is_pure(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = probes_particle_set(np.random.default_rng(0).uniform(0, 1, (50, 3)))
        a = assign_labels(ps, labels, step).labels
        b = assign_labels(ps, labels, step).labels
        assert np.array_equal(a, b)


@st.composite
def labeled_fields(draw):
    """Random fraction field and independent random labels (most cells
    unlabeled, so walks run long). Uniform spacing with f on five levels makes
    gradient ties and zero gradients common; unequal spacing and continuous f
    cover the general case."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = tuple(draw(st.integers(1, 7)) for _ in range(3))
    if draw(st.booleans()):
        g = uniform_grid(shape, hi=shape)
        f = rng.integers(0, 5, g.ncells) / 4.0
    else:
        g = RectilinearGrid(tuple(np.cumsum(rng.uniform(0.2, 2.0, n + 1)) for n in shape))
        f = rng.random(g.ncells)
    f[rng.random(g.ncells) < 0.3] = 0.0
    labeled = rng.random(g.ncells) < draw(st.floats(0.0, 0.5))
    lab = np.where(labeled, rng.integers(0, 3, g.ncells), -1).astype(np.int32)
    labels = LabelField(grid=g, labels=lab, count=3)
    lo, hi = g.lo, g.hi
    pos = rng.uniform(lo - 0.1 * (hi - lo), hi + 0.1 * (hi - lo), size=(60, 3))
    return make_step(g, f), labels, pos, draw(st.floats(0.0, 0.9))


class TestGradientWalkProperty:
    @settings(max_examples=200, deadline=None)
    @given(case=labeled_fields())
    def test_batched_walk_equals_scalar_walk(self, case):
        step, labels, pos, tau = case
        grid = step.grid
        idx, inside = locate_cells(grid, pos)
        fvals = sample_cell_field(step.f, pos)
        f3 = step.f.view3d()
        lab3 = labels.view3d()
        want = []
        for row in range(pos.shape[0]):
            if not inside[row]:
                want.append(-1)
                continue
            cell = tuple(int(v) for v in idx[row])
            found = int(lab3[cell])
            if found < 0 and fvals[row] > tau:
                found = walk_up_gradient(f3, grid.centers, lab3, cell, GRADIENT_WALK_MAX)
            want.append(found)
        assert labels_for_positions(pos, labels, step, tau).tolist() == want


class TestContributionTable:
    def test_dt_zero_diagonal(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = seed_particles(step, refinement=0)
        sl = assign_labels(ps, labels, step)
        table = contribution_table(sl, sl, ps)
        pairs = [(i, j) for i, j, _, _ in table.rows]
        assert pairs == [(0, 0), (1, 1)]

    def test_conservation_per_initial_feature(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = seed_particles(step, refinement=1)
        initial = assign_labels(ps, labels, step)
        rng = np.random.default_rng(1)
        final = SeedLabeling(labels=rng.choice([-1, 0, 1], size=len(ps)).astype(np.int32), time=1.0)
        table = contribution_table(initial, final, ps)
        for i in (0, 1):
            total = sum(c for ii, _, c, _ in table.rows if ii == i)
            assert total == int(np.sum(initial.labels == i))

    def test_all_dead_single_invalid_row(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = seed_particles(step, refinement=0)
        initial = assign_labels(ps, labels, step)
        ps.alive[:] = False
        final = assign_labels(ps, labels, step)
        table = contribution_table(initial, final, ps)
        assert all(j == -1 for _, j, _, _ in table.rows)

    def test_volume_estimate(self):
        step = two_ball_step()
        labels = label_features(step)
        ps = seed_particles(step, refinement=1)
        sl = assign_labels(ps, labels, step)
        table = contribution_table(sl, sl, ps)
        vols = table.volumes()
        cellvol = np.prod([w[0] for w in step.grid.widths])
        for (i, j), v in vols.items():
            count = table.counts()[(i, j)]
            assert np.isclose(v, count * cellvol / 8.0)

    def test_roundtrip_file(self, tmp_path):
        step = two_ball_step()
        labels = label_features(step)
        ps = seed_particles(step, refinement=0)
        sl = assign_labels(ps, labels, step)
        table = contribution_table(sl, sl, ps)
        path = tmp_path / "contributions.tsv"
        write_table(table, path)
        back = read_table(path)
        assert back.rows == table.rows
        header = path.read_text().splitlines()[0]
        assert header == "i\tj\tcount\tvolume"

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from([0, 1, 2, 7, 60, 500]),
        top=st.sampled_from([0, 1, 5, 2**20]),
        minus_one=st.tuples(st.booleans(), st.booleans()),
        dead=st.sampled_from([0.0, 0.3, 1.0]),
    )
    def test_rows_equal_scatter_add(self, seed, n, top, minus_one, dead):
        rng = np.random.default_rng(seed)
        # a few distinct labels per column, each heavily repeated; -1 in the
        # pool on request, and a `dead` share of final labels forced to -1
        pools = [
            np.append(rng.integers(0, top + 1, rng.integers(1, 6)), [-1] if neg else [])
            for neg in minus_one
        ]
        li, lf = (rng.choice(pool, n).astype(np.int32) for pool in pools)
        lf[rng.random(n) < dead] = -1
        # seeds on a grid of random widths: full-mantissa volumes expose the
        # summation order
        g = RectilinearGrid(tuple(np.cumsum(rng.uniform(0.01, 10.0, 6)) for _ in range(3)))
        ps = lattice_particle_set(g, 1, rng.integers(0, 10, (n, 3)))
        got = contribution_table(SeedLabeling(li, 0.0), SeedLabeling(lf, 1.0), ps).rows
        want = contribution_rows_add_at(li, lf, ps.seed_volume)
        assert [r[:3] for r in got] == [r[:3] for r in want]
        assert [tuple(map(type, r)) for r in got] == [tuple(map(type, r)) for r in want]
        assert [r[3].hex() for r in got] == [r[3].hex() for r in want]


class TestDetectSplits:
    def test_identical_labelings_no_splits(self):
        labels = np.array([0, 0, 1, 1], dtype=np.int32)
        a = SeedLabeling(labels=labels, time=0.0)
        b = SeedLabeling(labels=labels.copy(), time=1.0)
        assert detect_splits(a, b, a) == []

    def test_simple_split_detected(self):
        initial = SeedLabeling(labels=np.zeros(6, dtype=np.int32), time=0.0)
        prev = SeedLabeling(labels=np.zeros(6, dtype=np.int32), time=1.0)
        nxt = SeedLabeling(labels=np.array([0, 0, 0, 1, 1, -1], dtype=np.int32), time=2.0)
        events = detect_splits(prev, nxt, initial)
        assert len(events) == 1
        ev = events[0]
        assert ev.initial_label == 0 and ev.group_label == 0
        assert ev.next_labels == (0, 1)
        assert ev.seed_indices.tolist() == [0, 1, 2, 3, 4, 5]
        assert ev.time_next == 2.0

    def test_invalid_next_labels_ignored(self):
        initial = SeedLabeling(labels=np.zeros(4, dtype=np.int32), time=0.0)
        prev = SeedLabeling(labels=np.zeros(4, dtype=np.int32), time=1.0)
        nxt = SeedLabeling(labels=np.array([0, 0, -1, -1], dtype=np.int32), time=2.0)
        assert detect_splits(prev, nxt, initial) == []

    def test_groups_tracked_per_initial_feature(self):
        initial = SeedLabeling(labels=np.array([0, 0, 1, 1], dtype=np.int32), time=0.0)
        prev = SeedLabeling(labels=np.array([0, 0, 0, 0], dtype=np.int32), time=1.0)
        nxt = SeedLabeling(labels=np.array([0, 1, 0, 0], dtype=np.int32), time=2.0)
        events = detect_splits(prev, nxt, initial)
        assert len(events) == 1
        assert events[0].initial_label == 0
        assert events[0].seed_indices.tolist() == [0, 1]

    def test_mismatched_sizes_rejected(self):
        a = SeedLabeling(labels=np.zeros(3, dtype=np.int32), time=0.0)
        b = SeedLabeling(labels=np.zeros(4, dtype=np.int32), time=1.0)
        with pytest.raises(ValueError):
            detect_splits(a, b, a)

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(0, 300),
        counts=st.tuples(st.integers(1, 6), st.integers(1, 6), st.integers(1, 6)),
        invalid=st.floats(0.0, 0.5),
    )
    def test_matches_per_group_loop(self, seed, n, counts, invalid):
        # random (initial, prev, next) label triples, -1 drawn at a given rate
        rng = np.random.default_rng(seed)
        labs = []
        for c in counts:
            lab = rng.integers(0, c, n).astype(np.int32)
            lab[rng.random(n) < invalid] = -1
            labs.append(lab)
        li, lp, ln = labs
        events = detect_splits(
            SeedLabeling(lp, 1.0), SeedLabeling(ln, 2.0), SeedLabeling(li, 0.0)
        )
        want = detect_splits_loop(lp, ln, li)
        assert len(events) == len(want)
        for ev, (i0, jk, nxt, members) in zip(events, want):
            assert (ev.initial_label, ev.group_label, ev.next_labels) == (i0, jk, nxt)
            assert all(type(v) is int for v in ev.next_labels)
            assert ev.seed_indices.dtype == members.dtype
            assert np.array_equal(ev.seed_indices, members)
            assert ev.time_next == 2.0


class TestConservationProperty:
    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        refinement=st.integers(0, 1),
        dead=st.floats(0.0, 1.0),
    )
    def test_rows_of_feature_sum_to_its_seeded_volume(self, seed, refinement, dead):
        # sum_j volume(i, j) is the volume seeded in feature i, whatever becomes
        # of its seeds (other features, j = -1, dead)
        rng = np.random.default_rng(seed)
        shape = tuple(int(v) for v in rng.integers(2, 7, 3))
        g = RectilinearGrid(tuple(np.cumsum(rng.uniform(0.2, 2.0, n + 1)) for n in shape))
        f = np.where(rng.random(g.ncells) < 0.4, 1.0, 0.0)
        f[rng.random(g.ncells) < 0.2] = 0.5
        step = make_step(g, f)
        ps = seed_particles(step, refinement=refinement)
        initial = assign_labels(ps, label_features(step), step)
        ps.alive &= rng.random(len(ps)) >= dead
        final_labels = np.where(ps.alive, rng.integers(-1, 4, len(ps)), -1).astype(np.int32)
        final = SeedLabeling(labels=final_labels, time=1.0)
        table = contribution_table(initial, final, ps)
        for i in np.unique(initial.labels):
            seeded = ps.seed_volume[initial.labels == i]
            rows = [(c, v) for ii, _, c, v in table.rows if ii == i]
            assert sum(c for c, _ in rows) == seeded.size
            assert np.isclose(sum(v for _, v in rows), seeded.sum(), rtol=1e-12, atol=0.0)


# -0.0 beside 0.0, NaNs with other payloads and signs, infinities, subnormals
_NAN_BITS = np.array([0x7FF8000000000000, 0x7FF0000000000001, -0x0008000000000000], dtype=np.int64)
SPECIAL_FLOATS = np.concatenate(
    [[0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072e-308], _NAN_BITS.view(np.float64)]
)


class TestWriteEpsilon:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.sampled_from([0, 1, EXPORT_ROWS - 1, EXPORT_ROWS, EXPORT_ROWS + 1]),
        seed=st.integers(0, 2**32 - 1),
        drawn=st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=8),
        nodes=st.integers(1, 64),
    )
    def test_file_equals_fstrings(self, n, seed, drawn, nodes):
        rng = np.random.default_rng(seed)
        # seeds on a lattice of `nodes` subcells per axis, so coordinates
        # repeat; the cells have random widths and sit around a random origin
        refinement = int(rng.integers(0, 3))
        cells = max(1, nodes >> refinement)
        origin = rng.uniform(-1e3, 1e3, 3)
        g = RectilinearGrid(
            tuple(o + np.cumsum(rng.uniform(0.01, 2.0, cells + 1)) for o in origin)
        )
        lattice = rng.integers(0, cells << refinement, (n, 3))
        ps = lattice_particle_set(g, refinement, lattice)
        centres, _ = subcell_lattice(g, refinement)
        seeds = np.stack([centres[d][lattice[:, d]] for d in range(3)], axis=1)
        pool = np.concatenate([SPECIAL_FLOATS, np.array(drawn, dtype=np.float64), seeds.ravel()])
        ps.eps = pool[rng.integers(0, pool.size, n)]
        if n >= SPECIAL_FLOATS.size:  # every special value in the eps column
            ps.eps[rng.permutation(n)[: SPECIAL_FLOATS.size]] = SPECIAL_FLOATS
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "epsilon.tsv"
            write_epsilon(ps, path)
            got = path.read_bytes()
        assert got == epsilon_text_fstrings(seeds, ps.eps).encode()
