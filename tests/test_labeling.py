from __future__ import annotations

import numpy as np
import pytest

from flowsep.grid import CellField, TimeStep, uniform_grid
from flowsep.labeling import (
    PartitionLayout,
    label_features,
    label_features_partitioned,
)

from .oracles import union_find_label


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
        for pid in range(layout.nparts):
            (i0, i1), (j0, j1), (k0, k1) = layout.block(pid)
            covered[i0:i1, j0:j1, k0:k1] += 1
        assert np.all(covered == 1)

    def test_ghost_width_minimum(self):
        with pytest.raises(ValueError):
            PartitionLayout(counts=(2, 2, 2), shape=(8, 8, 8), ghost_width=1)

    def test_owner_lookup(self):
        layout = PartitionLayout(counts=(2, 1, 1), shape=(8, 4, 4))
        idx = np.array([[0, 0, 0], [7, 0, 0], [3, 1, 1], [4, 0, 0], [7, 3, 3]])
        assert layout.owners_of_cells(idx).tolist() == [0, 1, 0, 1, 1]

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
