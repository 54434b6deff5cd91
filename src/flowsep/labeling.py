"""Connected components: the package's one union-find, feature labeling on
the f > tau mask (serial labeling is the 1x1x1 partitioning), and the
partition layout whose cut planes split the labeling's face pairs and give
each particle its owner block.

Features are 6-connected (face neighbors only). Labels are dense and canonical:
components are numbered by ascending smallest flat cell index, so serial and
partitioned labeling produce identical arrays. Any layout labels in two
union-find calls: one over the face pairs within blocks, one over the local
components joined by the pairs across cuts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import RectilinearGrid, TimeStep


@dataclass
class LabelField:
    """Per-cell feature id, -1 background, grid-congruent flat layout."""

    grid: RectilinearGrid
    labels: np.ndarray  # flat int32, x-fastest
    count: int

    def view3d(self) -> np.ndarray:
        return self.labels.reshape(self.grid.shape, order="F")


def connected_components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Components of the graph on nodes 0..n-1 with edges (a[i], b[i]).

    Returns, for each node, the smallest node index in its component. This is
    an array union-find (Wu, Otoo & Suzuki, PAA 2009): each round hooks the
    larger of each edge's two roots onto the smaller, then jumps pointers until
    every node points at a root. Edges whose ends share a root are dropped; the
    loop ends when none is left.
    """
    parent = np.arange(n, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    while True:
        ra, rb = parent[a], parent[b]
        apart = ra != rb
        if not apart.any():
            return parent
        a, b, ra, rb = a[apart], b[apart], ra[apart], rb[apart]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


def _face_pairs(mask3: np.ndarray, cuts) -> tuple[np.ndarray, np.ndarray]:
    """Flat (x-fastest) indices of the face-adjacent cell pairs inside a 3D
    mask, as two (2, n) arrays of (lower, upper) cells: the pairs within a
    block and the pairs across a cut. `cuts[d]` holds the interior block edges
    along axis d; a pair crosses a cut when its upper cell sits on one."""
    flat3 = np.arange(mask3.size).reshape(mask3.shape, order="F")
    strides = (1, mask3.shape[0], mask3.shape[0] * mask3.shape[1])
    within, across = [], []
    for axis in range(3):
        lo = [slice(None)] * 3
        hi = [slice(None)] * 3
        lo[axis] = slice(0, -1)
        hi[axis] = slice(1, None)
        both = mask3[tuple(lo)] & mask3[tuple(hi)]
        lower = flat3[tuple(lo)]
        lo[axis] = cuts[axis] - 1  # the slabs of pairs whose upper cell is on a cut
        slab = tuple(lo)
        a = lower[slab][both[slab]]
        across.append(np.stack([a, a + strides[axis]]))
        both[slab] = False
        a = lower[both]
        within.append(np.stack([a, a + strides[axis]]))
    return np.concatenate(within, axis=1), np.concatenate(across, axis=1)


def label_features(step: TimeStep, tau: float = 0.0) -> LabelField:
    """Label connected features of the f > tau mask (the 1x1x1 partitioning)."""
    layout = PartitionLayout(counts=(1, 1, 1), shape=step.grid.shape)
    return label_features_partitioned(step, tau, layout)


@dataclass
class PartitionLayout:
    """Axis-aligned partitioning of the cell grid into blocks.

    `edges[d]` holds the `counts[d] + 1` cell indices that bound the blocks
    along axis d, from 0 to `shape[d]`. Blocks are numbered x-fastest.
    """

    counts: tuple[int, int, int]
    shape: tuple[int, int, int]
    edges: tuple[np.ndarray, np.ndarray, np.ndarray] = field(init=False)

    def __post_init__(self):
        for d in range(3):
            if not 1 <= self.counts[d] <= self.shape[d]:
                raise ValueError(
                    f"axis {d}: cannot split {self.shape[d]} cells into "
                    f"{self.counts[d]} partitions"
                )
        self.edges = tuple(
            np.linspace(0, self.shape[d], self.counts[d] + 1).astype(np.int64) for d in range(3)
        )

    @property
    def nparts(self) -> int:
        px, py, pz = self.counts
        return px * py * pz

    def owners(self, grid: RectilinearGrid, pos: np.ndarray) -> np.ndarray:
        """Block of each in-domain position (n, 3): per axis, the number of
        cut planes (the nodes at interior block edges) at or below the
        coordinate. This is the block of the cell `locate_cells` gives it,
        the last node included; a 1x1x1 layout has no cut planes."""
        coords = [
            np.searchsorted(grid.axes[d][self.edges[d][1:-1]], pos[:, d], side="right")
            for d in range(3)
        ]
        return np.ravel_multi_index(coords, self.counts, order="F")


def label_features_partitioned(
    step: TimeStep, tau: float, layout: PartitionLayout
) -> LabelField:
    """Partitioned labeling: one union-find over the face pairs within blocks
    gives each cell the smallest flat index of its component in its block, a
    second one merges these local components over the pairs across the cut
    planes, then dense ids in canonical order."""
    grid = step.grid
    if layout.shape != grid.shape:
        raise ValueError(f"layout shape {layout.shape} does not match grid {grid.shape}")
    mask3 = step.f.view3d() > tau
    within, across = _face_pairs(mask3, [e[1:-1] for e in layout.edges])
    root = connected_components(grid.ncells, *within)

    # number the local components of all blocks by their roots, then merge
    # the ones that touch across a cut
    mask = mask3.reshape(-1, order="F")
    roots, comp = np.unique(root[mask], return_inverse=True)
    a, b = np.searchsorted(roots, root[across])
    merged = connected_components(roots.size, a, b)

    # dense ids: rank of each feature's smallest flat index
    ids, dense = np.unique(merged, return_inverse=True)
    labels = np.full(grid.ncells, -1, dtype=np.int32)
    labels[mask] = dense[comp]
    return LabelField(grid=grid, labels=labels, count=ids.size)
