"""Connected-component feature extraction on the f > tau mask (serial and partitioned).

Features are 6-connected (face neighbors only). Labels are dense and canonical:
components are numbered by ascending smallest flat cell index, so serial and
partitioned labeling produce identical arrays.
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


class _UnionFind:
    """Union-find over hashable keys, used for cross-partition label merging."""

    def __init__(self):
        self.parent = {}

    def find(self, x):
        root = self.parent.setdefault(x, x)
        while root != self.parent[root]:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


def _bfs_label_flat(mask: np.ndarray, shape) -> tuple[np.ndarray, int]:
    """Flood-fill (BFS) region growing over a flat boolean mask, 6-connectivity.

    The frontier expands one neighbor ring per pass. Seeds are scanned in
    ascending flat order, so label ids equal the rank of each component's
    smallest flat cell index.
    """
    nx, ny, nz = shape
    nxy = nx * ny
    labels = np.full(mask.size, -1, dtype=np.int32)
    nxt = 0
    for start in np.nonzero(mask)[0]:
        if labels[start] >= 0:
            continue
        labels[start] = nxt
        frontier = np.array([start], dtype=np.int64)
        while frontier.size:
            i = frontier % nx
            j = (frontier // nx) % ny
            k = frontier // nxy
            cands = np.concatenate(
                [
                    frontier[i > 0] - 1,
                    frontier[i < nx - 1] + 1,
                    frontier[j > 0] - nx,
                    frontier[j < ny - 1] + nx,
                    frontier[k > 0] - nxy,
                    frontier[k < nz - 1] + nxy,
                ]
            )
            cands = cands[mask[cands] & (labels[cands] < 0)]
            if cands.size:
                cands = np.unique(cands)
                labels[cands] = nxt
            frontier = cands
        nxt += 1
    return labels, nxt


def label_features(step: TimeStep, tau: float = 0.0) -> LabelField:
    """Label connected features of the f > tau mask."""
    grid = step.grid
    labels, count = _bfs_label_flat(step.f.values > tau, grid.shape)
    return LabelField(grid=grid, labels=labels, count=count)


def _split_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    bounds = np.linspace(0, n, parts + 1).astype(int)
    return [(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]


@dataclass
class PartitionLayout:
    """Axis-aligned partitioning of the cell grid with ghost halos."""

    counts: tuple[int, int, int]
    shape: tuple[int, int, int]
    ghost_width: int = 2
    ranges: list[list[tuple[int, int]]] = field(init=False)

    def __post_init__(self):
        if self.ghost_width < 2:
            raise ValueError("ghost width must be >= 2")
        for d in range(3):
            if not 1 <= self.counts[d] <= self.shape[d]:
                raise ValueError(
                    f"axis {d}: cannot split {self.shape[d]} cells into "
                    f"{self.counts[d]} partitions"
                )
        self.ranges = [_split_ranges(self.shape[d], self.counts[d]) for d in range(3)]

    @property
    def nparts(self) -> int:
        px, py, pz = self.counts
        return px * py * pz

    def part_coords(self, pid: int) -> tuple[int, int, int]:
        px, py, _ = self.counts
        return (pid % px, (pid // px) % py, pid // (px * py))

    def part_id(self, coords):
        """Partition id of block coordinates (ints or per-axis index arrays)."""
        px, py, _ = self.counts
        return coords[0] + px * (coords[1] + py * coords[2])

    def block(self, pid: int) -> list[tuple[int, int]]:
        """Core cell index range [start, stop) per axis for one partition."""
        a, b, c = self.part_coords(pid)
        return [self.ranges[0][a], self.ranges[1][b], self.ranges[2][c]]

    def owners_of_cells(self, idx: np.ndarray) -> np.ndarray:
        """Vectorized owner lookup for an (n, 3) cell-index array."""
        coords = []
        for d in range(3):
            starts = np.array([r[0] for r in self.ranges[d]])
            coords.append(np.searchsorted(starts, idx[:, d], side="right") - 1)
        return self.part_id(coords)


def label_features_partitioned(
    step: TimeStep, tau: float, layout: PartitionLayout
) -> LabelField:
    """Partitioned labeling: local BFS per block, boundary-face equivalence merge,
    then relabeling to the same canonical dense order as label_features."""
    grid = step.grid
    nx, ny, nz = grid.shape
    if layout.shape != grid.shape:
        raise ValueError(f"layout shape {layout.shape} does not match grid {grid.shape}")
    mask3 = np.ascontiguousarray(step.f.view3d() > tau)
    local3 = np.full((nx, ny, nz), -1, dtype=np.int64)
    owner3 = np.full((nx, ny, nz), -1, dtype=np.int32)
    gi, gj, gk = np.meshgrid(np.arange(nx), np.arange(ny), np.arange(nz), indexing="ij")
    gflat3 = gi + nx * (gj + ny * gk)

    # local labeling per partition (independent; runs concurrently in spirit)
    min_flat: dict[tuple[int, int], int] = {}
    part_counts = []
    for pid in range(layout.nparts):
        (i0, i1), (j0, j1), (k0, k1) = layout.block(pid)
        sub = mask3[i0:i1, j0:j1, k0:k1]
        sub_flat = sub.reshape(-1, order="F")
        loc, cnt = _bfs_label_flat(sub_flat, sub.shape)
        part_counts.append(cnt)
        loc3 = loc.reshape(sub.shape, order="F")
        local3[i0:i1, j0:j1, k0:k1] = loc3
        owner3[i0:i1, j0:j1, k0:k1] = pid
        fg = loc3 >= 0
        if cnt:
            mins = np.full(cnt, np.iinfo(np.int64).max)
            np.minimum.at(mins, loc3[fg], gflat3[i0:i1, j0:j1, k0:k1][fg])
            for lab in range(cnt):
                min_flat[(pid, lab)] = int(mins[lab])

    # collect cross-partition equivalences along internal partition faces
    uf = _UnionFind()
    for key in min_flat:
        uf.find(key)
    for axis in range(3):
        for rng in layout.ranges[axis][1:]:
            cut = rng[0]
            lo_sl = [slice(None)] * 3
            hi_sl = [slice(None)] * 3
            lo_sl[axis] = cut - 1
            hi_sl[axis] = cut
            both = mask3[tuple(lo_sl)] & mask3[tuple(hi_sl)]
            if not both.any():
                continue
            pairs = np.stack(
                [
                    owner3[tuple(lo_sl)][both],
                    local3[tuple(lo_sl)][both],
                    owner3[tuple(hi_sl)][both],
                    local3[tuple(hi_sl)][both],
                ],
                axis=1,
            )
            for pa, la, pb, lb in np.unique(pairs, axis=0):
                uf.union((int(pa), int(la)), (int(pb), int(lb)))

    # canonical dense ids: rank of each merged component's smallest flat index
    root_min: dict[tuple[int, int], int] = {}
    for key, mf in min_flat.items():
        root = uf.find(key)
        if root not in root_min or mf < root_min[root]:
            root_min[root] = mf
    order = sorted(root_min, key=lambda r: root_min[r])
    root_id = {root: i for i, root in enumerate(order)}

    labels3 = np.full((nx, ny, nz), -1, dtype=np.int32)
    for pid in range(layout.nparts):
        cnt = part_counts[pid]
        if cnt == 0:
            continue
        (i0, i1), (j0, j1), (k0, k1) = layout.block(pid)
        remap = np.array(
            [root_id[uf.find((pid, lab))] for lab in range(cnt)], dtype=np.int32
        )
        loc3 = local3[i0:i1, j0:j1, k0:k1]
        blk = labels3[i0:i1, j0:j1, k0:k1]
        fg = loc3 >= 0
        blk[fg] = remap[loc3[fg]]
    return LabelField(grid=grid, labels=labels3.reshape(-1, order="F"), count=len(order))
