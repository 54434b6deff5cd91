from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowsep.grid import CellField, RectilinearGrid, TimeStep, uniform_grid
from flowsep.labeling import (
    PartitionLayout,
    _face_pairs,
    connected_components,
    label_features,
    label_features_partitioned,
)

from .oracles import (
    UnionFind,
    blocks_of_cells,
    face_pairs_loop,
    owners_of_cells,
    union_find_label,
)


def mask_step(mask3, time=0.0):
    g = uniform_grid(mask3.shape)
    f = mask3.astype(float).reshape(-1, order="F")
    return TimeStep(time=time, f=CellField(g, f), u=CellField(g, np.zeros((3, g.ncells)), ncomp=3))


def random_mask(rng, n=32, p=0.4):
    return rng.random((n, n, n)) < p


class TestSerialLabeling:
    def test_empty_mask(self):
        step = mask_step(np.zeros((4, 4, 4), dtype=bool))
        lf = label_features(step)
        assert lf.count == 0
        assert np.all(lf.labels == -1)

    def test_two_disjoint_blobs(self):
        mask = np.zeros((8, 8, 8), dtype=bool)
        mask[1:3, 1:3, 1:3] = True
        mask[5:7, 5:7, 5:7] = True
        lf = label_features(mask_step(mask))
        assert lf.count == 2

    def test_matches_union_find_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            mask = random_mask(rng)
            lf = label_features(mask_step(mask))
            oracle_labels, oracle_count = union_find_label(mask)
            assert lf.count == oracle_count
            assert np.array_equal(lf.view3d(), oracle_labels)

    def test_matches_scipy_oracle_counts(self):
        from scipy import ndimage

        rng = np.random.default_rng(18)
        structure = ndimage.generate_binary_structure(3, 1)  # face connectivity
        for _ in range(5):
            mask = random_mask(rng, p=0.3)
            lf = label_features(mask_step(mask))
            _, n = ndimage.label(mask, structure=structure)
            assert lf.count == n

    def test_labeled_cells_match_mask(self):
        rng = np.random.default_rng(19)
        mask = random_mask(rng, n=16)
        lf = label_features(mask_step(mask))
        assert np.array_equal(lf.view3d() >= 0, mask)

    def test_deterministic(self):
        rng = np.random.default_rng(20)
        mask = random_mask(rng, n=16)
        a = label_features(mask_step(mask))
        b = label_features(mask_step(mask))
        assert np.array_equal(a.labels, b.labels)

    def test_canonical_order_by_smallest_flat_index(self):
        mask = np.zeros((4, 4, 4), dtype=bool)
        mask[3, 3, 3] = True  # large flat index
        mask[0, 0, 0] = True  # flat index 0
        lf = label_features(mask_step(mask))
        assert lf.view3d()[0, 0, 0] == 0
        assert lf.view3d()[3, 3, 3] == 1

    def test_tau_thresholding(self):
        g = uniform_grid((3, 1, 1), hi=(3.0, 1.0, 1.0))
        f = np.array([0.2, 0.6, 0.0])
        step = TimeStep(time=0.0, f=CellField(g, f), u=CellField(g, np.zeros((3, 3)), ncomp=3))
        lf = label_features(step, tau=0.5)
        assert lf.labels.tolist() == [-1, 0, -1]


class TestPartitionLayout:
    def test_tiles_exactly(self):
        layout = PartitionLayout(counts=(2, 3, 2), shape=(10, 9, 7))
        covered = np.zeros((10, 9, 7), dtype=int)
        ranges = [list(zip(e[:-1].tolist(), e[1:].tolist())) for e in layout.edges]
        blocks = list(itertools.product(*ranges))
        assert len(blocks) == layout.nparts
        for blk in blocks:
            assert all(lo < hi for lo, hi in blk)
            covered[tuple(slice(lo, hi) for lo, hi in blk)] += 1
        assert np.all(covered == 1)

    def test_owner_lookup(self):
        # the lower domain corner, the last x node, a cell centre, the cut
        # plane x = 0.5 (owned by the block above it) and the upper corner
        layout = PartitionLayout(counts=(2, 1, 1), shape=(8, 4, 4))
        pos = np.array(
            [[0, 0, 0], [1, 0, 0], [0.4375, 0.375, 0.375], [0.5, 0, 0], [1, 1, 1]], dtype=float
        )
        assert layout.owners(uniform_grid((8, 4, 4)), pos).tolist() == [0, 1, 0, 1, 1]

    def test_too_many_partitions_rejected(self):
        with pytest.raises(ValueError):
            PartitionLayout(counts=(9, 1, 1), shape=(8, 8, 8))


class TestPartitionedLabeling:
    def test_single_partition_identical(self):
        rng = np.random.default_rng(21)
        mask = random_mask(rng, n=16)
        step = mask_step(mask)
        serial = label_features(step)
        layout = PartitionLayout(counts=(1, 1, 1), shape=mask.shape)
        part = label_features_partitioned(step, 0.0, layout)
        assert np.array_equal(serial.labels, part.labels)
        assert serial.count == part.count

    def test_component_spanning_four_partitions(self):
        # a flat cross through the partition corner joins all four blocks
        mask = np.zeros((8, 8, 2), dtype=bool)
        mask[:, 4, 0] = True
        mask[4, :, 0] = True
        step = mask_step(mask)
        layout = PartitionLayout(counts=(2, 2, 1), shape=mask.shape)
        part = label_features_partitioned(step, 0.0, layout)
        serial = label_features(step)
        assert part.count == 1
        assert np.array_equal(serial.labels, part.labels)

    def test_random_masks_match_serial(self):
        rng = np.random.default_rng(22)
        layout = None
        for _ in range(10):
            mask = random_mask(rng, n=16, p=0.45)
            step = mask_step(mask)
            if layout is None:
                layout = PartitionLayout(counts=(2, 2, 2), shape=mask.shape)
            serial = label_features(step)
            part = label_features_partitioned(step, 0.0, layout)
            assert np.array_equal(serial.labels, part.labels)
            assert serial.count == part.count

    def test_uneven_partition_sizes(self):
        rng = np.random.default_rng(23)
        mask = random_mask(rng, n=13, p=0.5)
        step = mask_step(mask)
        layout = PartitionLayout(counts=(3, 2, 2), shape=mask.shape)
        serial = label_features(step)
        part = label_features_partitioned(step, 0.0, layout)
        assert np.array_equal(serial.labels, part.labels)


@st.composite
def masks_with_layouts(draw):
    """Random masks of 1-12 cells per axis, fill 0-0.6, with partition counts
    up to the shape (so single-cell axes and one-cell-wide blocks occur)."""
    shape = tuple(draw(st.integers(1, 12)) for _ in range(3))
    counts = tuple(draw(st.integers(1, n)) for n in shape)
    fill = draw(st.floats(0.0, 0.6))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).random(shape) < fill, counts


@st.composite
def layouts_with_points(draw):
    """Unequally spaced axes of 1-9 cells, 1 to n blocks per axis, and points
    whose coordinates lie on nodes (the cut planes and both domain faces among
    them), one ulp either side of a node within the domain, or inside cells."""
    shape = tuple(draw(st.integers(1, 9)) for _ in range(3))
    counts = tuple(draw(st.integers(1, n)) for n in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axes, coords = [], []
    for n in shape:
        a = np.cumsum(np.concatenate([[rng.uniform(-2.0, 2.0)], rng.uniform(0.05, 3.0, n)]))
        ulp = np.concatenate([np.nextafter(a, -np.inf), np.nextafter(a, np.inf)])
        inner = a[:-1] + rng.random(n) * np.diff(a)
        pool = np.concatenate([a, ulp[(ulp >= a[0]) & (ulp <= a[-1])], inner])
        axes.append(a)
        coords.append(rng.choice(pool, 200))
    return RectilinearGrid(tuple(axes)), counts, np.stack(coords, axis=1)


@st.composite
def edge_lists(draw):
    """Random graphs whose edge lists always hold self-loops and duplicates."""
    n = draw(st.integers(1, 40))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=60))
    loops = [(a, a) for a in draw(st.lists(node, min_size=1, max_size=3))]
    return n, edges + edges[: len(edges) // 2] + loops


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(masks_with_layouts())
    def test_partitioned_labeling_matches_oracle(self, case):
        mask, counts = case
        layout = PartitionLayout(counts=counts, shape=mask.shape)
        lf = label_features_partitioned(mask_step(mask), 0.0, layout)
        oracle_labels, oracle_count = union_find_label(mask)
        assert lf.count == oracle_count
        assert np.array_equal(lf.view3d(), oracle_labels)

    @settings(max_examples=60, deadline=None)
    @given(masks_with_layouts())
    def test_face_pairs_split_at_the_cuts(self, case):
        # labels cannot tell a pair put in the wrong list, since both lists
        # reach a union-find; the split itself is checked here
        mask, counts = case
        layout = PartitionLayout(counts=counts, shape=mask.shape)
        within, across = _face_pairs(mask, [e[1:-1] for e in layout.edges])
        block = blocks_of_cells(layout)
        assert np.all(block[within[0]] == block[within[1]])
        assert np.all(block[across[0]] != block[across[1]])
        pairs = np.concatenate([within, across], axis=1).T.tolist()
        assert sorted(map(tuple, pairs)) == face_pairs_loop(mask)

    @settings(max_examples=100, deadline=None)
    @given(layouts_with_points())
    def test_owners_match_cell_lookup(self, case):
        grid, counts, pos = case
        layout = PartitionLayout(counts=counts, shape=grid.shape)
        want = owners_of_cells(layout, grid, pos)
        assert np.all(want >= 0)  # every point lies in the domain
        assert np.array_equal(layout.owners(grid, pos), want)

    @settings(max_examples=100, deadline=None)
    @given(edge_lists())
    def test_connected_components_matches_oracle(self, case):
        n, edges = case
        uf = UnionFind(n)
        for a, b in edges:
            uf.union(a, b)
        a, b = np.array(edges, dtype=np.int64).T
        assert connected_components(n, a, b).tolist() == [uf.find(x) for x in range(n)]
