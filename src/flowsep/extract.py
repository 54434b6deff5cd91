"""Geometry output: closed contribution boundaries, open separation surfaces,
mesh smoothing, small utilities, and OBJ export.

All geometry lives at the initial time in seed space: the indicator lattices
are built on the seed positions of one feature or label pair (node spacing =
cell size / 2^r), padded by one node so closed surfaces actually close, and
both kinds of mesh come from one builder that packs many such lattices into
each marching-cubes call.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import advect, segment
from .advect import ParticleSet
from .grid import RectilinearGrid, subcell_lattice
from .marching import marching_cubes

PACK_NODES = 1 << 14  # lattice nodes per marching-cubes call of mesh extraction
SMOOTH_VERTICES = 1 << 12  # vertices per group of meshes smoothed together


@dataclass
class TriangleMesh:
    """Indexed triangle set; `label` is an int for boundaries and a label pair
    for separation surfaces, which additionally carry a timestamp."""

    vertices: np.ndarray  # (v, 3)
    triangles: np.ndarray  # (t, 3) int32
    kind: str  # "boundary" | "separation"
    label: int | tuple[int, int]
    timestamp: float | None = None

    @property
    def empty(self) -> bool:
        return self.triangles.shape[0] == 0


def padded_seed_coords(grid: RectilinearGrid, refinement: int) -> tuple[np.ndarray, ...]:
    """The `subcell_lattice` centres (the global seed lattice) with one node
    extrapolated at each end: entry m is the coordinate of lattice index
    m - 1, so a box over lattice indices [lo, hi] and its padding shell reads
    `C[d][lo : hi + 3]`. A one-node axis extrapolates by its cell width."""
    s = 2**refinement
    out = []
    for d, coords in enumerate(subcell_lattice(grid, refinement)[0]):
        if coords.size >= 2:
            first_step = coords[1] - coords[0]
            last_step = coords[-1] - coords[-2]
        else:
            first_step = last_step = grid.widths[d][0] / s
        out.append(np.concatenate([[coords[0] - first_step], coords, [coords[-1] + last_step]]))
    return tuple(out)


def _pack_groups(shape: np.ndarray) -> list[int]:
    """Start indices of runs of consecutive boxes (plus the end) whose lattices,
    laid side by side along x and padded to the largest y and z extent, have
    at most `PACK_NODES` nodes; a larger box is a run of its own."""
    bounds = []
    nx = ny = nz = 0
    for b, (sx, sy, sz) in enumerate(shape.tolist()):
        my, mz = max(ny, sy), max(nz, sz)
        if not bounds or (nx + sx) * my * mz > PACK_NODES:
            bounds.append(b)
            nx, my, mz = 0, sy, sz
        nx, ny, nz = nx + sx, my, mz
    return bounds + [shape.shape[0]]


def _lattice_meshes(particles: ParticleSet, sel, count, plus=None) -> list[tuple]:
    """(vertices, triangles) of each run of seeds, run i being the next
    `count[i]` seed indices of `sel`: the closed boundary of its seeds or,
    with the mask `plus` over `sel`, the open surface between its plus seeds
    and its others, every node that holds none of its seeds invalid. A run
    of no seeds has no box and gives empty arrays.

    Consecutive runs' boxes of lattice nodes, each with a padding shell, are
    laid side by side along x in one lattice of at most `PACK_NODES` nodes
    and triangulated by one `marching_cubes` call on index axes. The shells
    keep every mixed cube inside one box, so a box's triangles and
    first-visit vertex ids form one run, in the order a lattice of that box
    alone gives; the ids are rebased to the run's first and each vertex is
    read as the midpoint of its lattice edge in the `padded_seed_coords`.
    """
    coords = padded_seed_coords(particles.grid, particles.refinement)
    out = [None] * count.size
    full = np.flatnonzero(count)
    first, count = (np.cumsum(count) - count)[full], count[full]
    lo = np.empty((count.size, 3), dtype=np.int64)
    hi = np.empty((count.size, 3), dtype=np.int64)
    for d in range(3):
        col = particles.lattice[sel, d]
        lo[:, d] = np.minimum.reduceat(col, first)
        hi[:, d] = np.maximum.reduceat(col, first)
    del col
    shape = hi - lo + 3

    bounds = _pack_groups(shape)
    for b0, b1 in zip(bounds, bounds[1:]):
        dims = shape[b0:b1]
        x0 = np.cumsum(dims[:, 0]) - dims[:, 0]  # each box's first x node
        base = lo[b0:b1].copy()  # packed node p is padded-coords index p + base
        base[:, 0] -= x0
        size = (int(x0[-1] + dims[-1, 0]), *dims[:, 1:].max(axis=0).tolist())
        rows = slice(int(first[b0]), int(first[b0] + count[b0:b1].sum()))
        pts = particles.lattice[sel[rows]]
        pts -= np.repeat(base - 1, count[b0:b1], axis=0)
        member = np.zeros(size, bool)
        member[pts[:, 0], pts[:, 1], pts[:, 2]] = True
        if plus is None:
            inside, invalid = member, None
        else:
            inside, invalid = np.zeros(size, bool), ~member
            pts = pts[plus[rows]]
            inside[pts[:, 0], pts[:, 1], pts[:, 2]] = True
        del pts, member
        index_axes = tuple(np.arange(n) for n in size)
        verts, tris = marching_cubes(inside, index_axes, invalid=invalid)
        del inside, invalid
        # a vertex at index position x lies on the lattice edge between
        # nodes floor(x) and ceil(x), in the box whose x range holds it
        box = np.searchsorted(x0, verts[:, 0], side="right") - 1
        for d in range(3):
            x = verts[:, d]
            lower = x.astype(np.int64)
            upper = lower + (x != lower)
            shift = base[box, d]
            lower += shift
            upper += shift
            verts[:, d] = 0.5 * (coords[d][lower] + coords[d][upper])
        nv = np.bincount(box, minlength=b1 - b0)
        nt = np.bincount(box[tris[:, 0]], minlength=b1 - b0)
        v0 = np.cumsum(nv) - nv
        t0 = np.cumsum(nt) - nt
        tris -= np.repeat(v0.astype(tris.dtype), nt)[:, None]
        for i, va, vb, ta, tb in zip(
            full[b0:b1].tolist(), v0.tolist(), (v0 + nv).tolist(), t0.tolist(), (t0 + nt).tolist()
        ):
            out[i] = (verts[va:vb], tris[ta:tb])
    return [(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int32)) if m is None else m for m in out]


def extract_boundaries(
    particles: ParticleSet,
    labeling: segment.SeedLabeling,
    labels: Iterable[int],
) -> list[TriangleMesh]:
    """Closed boundary around the seeds of each label in `labels`, in that
    order; an empty mesh for a label that no seed carries."""
    labels = [int(j) for j in labels]
    order = np.argsort(labeling.labels, kind="stable")
    ranked = labeling.labels[order]
    start = np.searchsorted(ranked, labels, side="left")
    count = np.searchsorted(ranked, labels, side="right") - start
    # the seeds of each label, label after label
    rows = np.repeat(start - (np.cumsum(count) - count), count)
    rows += np.arange(rows.size)
    sel = order[rows]
    del order, ranked, rows
    meshes = _lattice_meshes(particles, sel, count)
    return [TriangleMesh(v, t, kind="boundary", label=j) for j, (v, t) in zip(labels, meshes)]


def extract_separation_surface(
    particles: ParticleSet,
    events: list[segment.SplitEvent],
    next_labeling: segment.SeedLabeling,
) -> list[TriangleMesh]:
    """Open surface between the two sub-segments of each pair of next labels
    of each split, stamped t_{k+1}: one mesh per (event, pair), in event
    order and each event's pairs in `itertools.combinations` order. The
    event's seeds of the pair's first label are +, of its second -; every
    other node is invalid, which both drives the case lookup and prunes
    triangles on the invalid rim.
    """
    pairs, sel, plus = [], [], []
    for ev in events:
        nxt = next_labeling.labels[ev.seed_indices]
        for j1, j2 in itertools.combinations(ev.next_labels, 2):
            run = (nxt == j1) | (nxt == j2)
            pairs.append((j1, j2))
            sel.append(ev.seed_indices[run])
            plus.append(nxt[run] == j1)
    if not pairs:
        return []
    count = np.array([s.size for s in sel])
    sel, plus = np.concatenate(sel), np.concatenate(plus)
    meshes = _lattice_meshes(particles, sel, count, plus)
    return [
        TriangleMesh(v, t, kind="separation", label=pair, timestamp=next_labeling.time)
        for pair, (v, t) in zip(pairs, meshes)
    ]


def _edge_incidence(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    if t.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    a = t.astype(np.int64).T.ravel()
    b = t[:, [1, 2, 0]].astype(np.int64).T.ravel()
    n = int(t.max()) + 1
    keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    return np.stack([keys // n, keys % n], axis=1), counts


def edge_incidence(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges (a < b, in lexicographic order) of the mesh with their
    triangle incidence counts.

    Each edge is keyed as a * n + b with n above every vertex index, so one
    1-D unique gives the rows in the same order as a row-wise unique.
    """
    return _edge_incidence(mesh.triangles)


def is_watertight(mesh: TriangleMesh) -> bool:
    """Every undirected edge incident to exactly two triangles."""
    if mesh.empty:
        return False
    _, counts = edge_incidence(mesh)
    return bool(np.all(counts == 2))


def _smooth_vertices(meshes: list[TriangleMesh], iterations: int, lam: float):
    """Smoothed vertices of meshes, smoothed as one vertex array.

    Mesh m's vertices are numbered from the sum of the earlier meshes' vertex
    counts, so the group's edges, in lexicographic order, are mesh 0's edges,
    then mesh 1's, and so on. Every bin of the neighbour sums therefore gets
    the same terms in the same order as when its mesh is smoothed alone.
    """
    sizes = [m.vertices.shape[0] for m in meshes]
    starts = np.cumsum(sizes) - sizes
    # one row per axis, so each gather and sum reads contiguous values
    v = np.concatenate([m.vertices.T for m in meshes], axis=1)
    tris = np.concatenate([m.triangles + s for m, s in zip(meshes, starts.tolist())])
    edges, counts = _edge_incidence(tris)
    del tris
    nv = v.shape[1]
    fixed = edges[counts == 1].ravel()  # open-rim vertices, some twice
    # Each edge adds its far end to both of its ends: first over edges[:, 0],
    # then over edges[:, 1]. bincount sums every bin in array order, so the
    # sums carry the same bits as two sequential scatter-adds would.
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    other = np.concatenate([edges[:, 1], edges[:, 0]])
    del edges, counts
    degree = np.bincount(ends, minlength=nv).astype(np.float64)
    lone = degree == 0  # vertices of no edge have no neighbours to move towards
    fixed = np.concatenate([fixed, np.flatnonzero(lone)])
    degree[lone] = 1.0
    moved = np.empty_like(v)
    for _ in range(iterations):
        for d in range(3):  # one axis at a time bounds the temporaries
            moved[d] = np.bincount(ends, weights=v[d].take(other), minlength=nv)
        # v + lam * (acc / degree - v), in place
        moved /= degree
        moved -= v
        moved *= lam
        moved += v
        moved[:, fixed] = v[:, fixed]
        v, moved = moved, v
    del moved
    return np.split(v.T.copy(), starts[1:].tolist())


def _smooth_groups(meshes, iterations: int, lam: float) -> Iterator[TriangleMesh]:
    group: list[TriangleMesh] = []
    size = 0
    for mesh in itertools.chain(meshes, [None]):  # None, of infinite size, flushes the last group
        nv = np.inf if mesh is None else mesh.vertices.shape[0]
        if group and size + nv > SMOOTH_VERTICES:
            for done, vertices in zip(group, _smooth_vertices(group, iterations, lam)):
                yield replace(done, vertices=vertices, triangles=done.triangles.copy())
            group, size = [], 0
        group.append(mesh)
        size += nv


def smooth_meshes(
    meshes: Iterable[TriangleMesh], iterations: int = 10, lam: float = 0.5
) -> Iterator[TriangleMesh]:
    """Uniform-umbrella Laplacian smoothing of each mesh, in order; open-boundary
    vertices and vertices of no triangle stay fixed, connectivity is
    unchanged and 0 iterations is the identity.

    Consecutive meshes are smoothed together in groups of at most
    `SMOOTH_VERTICES` vertices (a larger mesh is a group of its own), with the
    bits of smoothing each alone. The meshes are yielded group by group, as
    the iterator is consumed; `lam` is checked at the call.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("smoothing factor must be in (0, 1]")
    return _smooth_groups(meshes, iterations, lam)


def write_obj(mesh: TriangleMesh, path) -> None:
    """`v` rows (floats as `repr`), then 1-based `f` rows, formatted through
    one format string per block of `advect.BLOCK_ROWS` rows and written
    block by block; a mesh without rows is one empty line."""
    verts = np.asarray(mesh.vertices, dtype=np.float64)
    tris = mesh.triangles
    rows = advect.BLOCK_ROWS
    with open(path, "w") as fh:
        if not (len(verts) or len(tris)):
            fh.write("\n")
        for a in range(0, len(verts), rows):
            block = verts[a : a + rows]
            fh.write("v %r %r %r\n" * len(block) % tuple(block.ravel().tolist()))
        for a in range(0, len(tris), rows):
            block = tris[a : a + rows] + 1
            fh.write("f %d %d %d\n" * len(block) % tuple(block.ravel().tolist()))


def export_meshes(meshes: Iterable[TriangleMesh], out_dir) -> Path:
    """One OBJ per mesh plus a manifest line each; returns the manifest path.
    Each mesh is written as the iteration reaches it."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        lines = ["file\tkind\tlabels\ttimestamp"]
        for seq, mesh in enumerate(meshes):
            if mesh.kind == "boundary":
                name = f"b_{seq:03d}_label{mesh.label:04d}.obj"
                labels = str(mesh.label)
            else:
                j1, j2 = mesh.label
                name = f"s_{seq:03d}_labels{j1:04d}_{j2:04d}.obj"
                labels = f"{j1},{j2}"
            write_obj(mesh, out / name)
            ts = "-" if mesh.timestamp is None else repr(mesh.timestamp)
            lines.append(f"{name}\t{mesh.kind}\t{labels}\t{ts}")
        manifest = out / "meshes.manifest"
        manifest.write_text("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"mesh export to {out} failed: {exc}") from exc
    return manifest
