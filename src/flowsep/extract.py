"""Geometry output: closed contribution boundaries, open separation surfaces,
mesh smoothing, small utilities, and OBJ export.

All geometry lives at the initial time in seed space: the indicator lattices
are built on the seed positions of one feature (node spacing = cell size / 2^r),
padded by one node so closed surfaces actually close.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .advect import ParticleSet
from .grid import RectilinearGrid
from .labeling import connected_components
from .marching import marching_cubes
from .segment import EXPORT_ROWS, SeedLabeling, SplitEvent


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


def seed_axis_coords(grid: RectilinearGrid, refinement: int) -> tuple[np.ndarray, ...]:
    """Per-axis coordinates of all subcell centers (the global seed lattice)."""
    s = 2**refinement
    out = []
    for d in range(3):
        lo = grid.axes[d][:-1]
        w = grid.widths[d]
        rel = (np.arange(s) + 0.5) / s
        out.append((np.repeat(lo, s) + np.tile(rel, lo.size) * np.repeat(w, s)))
    return tuple(out)


def _padded_axis(coords: np.ndarray, lo: int, hi: int, fallback_spacing: float):
    """Coordinates for lattice indices [lo-1, hi+1], extrapolating one step out."""
    n = coords.size
    core = coords[max(lo, 0) : hi + 1]
    if n >= 2:
        first_step = coords[1] - coords[0]
        last_step = coords[-1] - coords[-2]
    else:
        first_step = last_step = fallback_spacing
    head = coords[lo - 1] if lo - 1 >= 0 else coords[0] - first_step
    tail = coords[hi + 1] if hi + 1 < n else coords[-1] + last_step
    return np.concatenate([[head], core, [tail]])


def _lattice_box(grid, refinement, lattice_pts: np.ndarray, coords):
    """Indicator array shape/offset plus padded node coordinates for a seed set;
    `coords` are the grid's seed lattice coordinates, computed here if None."""
    lo = lattice_pts.min(axis=0)
    hi = lattice_pts.max(axis=0)
    shape = tuple(int(h - l + 3) for l, h in zip(lo, hi))
    if coords is None:
        coords = seed_axis_coords(grid, refinement)
    s = 2**refinement
    axes = tuple(
        _padded_axis(coords[d], int(lo[d]), int(hi[d]), grid.widths[d][0] / s)
        for d in range(3)
    )
    return lo, shape, axes


def _empty_mesh(kind, label, timestamp=None) -> TriangleMesh:
    return TriangleMesh(
        vertices=np.zeros((0, 3)),
        triangles=np.zeros((0, 3), dtype=np.int32),
        kind=kind,
        label=label,
        timestamp=timestamp,
    )


def extract_boundary(
    grid: RectilinearGrid,
    particles: ParticleSet,
    labeling: SeedLabeling,
    label: int,
    coords: tuple[np.ndarray, ...] | None = None,
) -> TriangleMesh:
    """Closed boundary around the seeds carrying `label`; empty mesh if none do.

    `coords` is `seed_axis_coords(grid, particles.refinement)`, passed in by
    callers that extract many meshes so it is built once.
    """
    sel = np.nonzero(labeling.labels == label)[0]
    if sel.size == 0:
        return _empty_mesh("boundary", label)
    pts = particles.lattice[sel]
    lo, shape, axes = _lattice_box(grid, particles.refinement, pts, coords)
    inside = np.zeros(shape, dtype=bool)
    off = pts - lo + 1
    inside[off[:, 0], off[:, 1], off[:, 2]] = True
    verts, tris = marching_cubes(inside, axes)
    return TriangleMesh(vertices=verts, triangles=tris, kind="boundary", label=label)


def extract_separation_surface(
    grid: RectilinearGrid,
    particles: ParticleSet,
    event: SplitEvent,
    pair: tuple[int, int],
    next_labeling: SeedLabeling,
    coords: tuple[np.ndarray, ...] | None = None,
) -> TriangleMesh:
    """Open surface between the two sub-segments of a split, stamped t_{k+1}.

    Nodes of the splitting group take +/- for the two labels; everything else
    (other labels, other groups, empty lattice points) is invalid, which both
    drives the case lookup and prunes triangles on the invalid rim. `coords`
    is as for `extract_boundary`.
    """
    j1, j2 = pair
    members = event.seed_indices
    nxt = next_labeling.labels[members]
    plus_pts = particles.lattice[members[nxt == j1]]
    minus_pts = particles.lattice[members[nxt == j2]]
    if plus_pts.shape[0] == 0 or minus_pts.shape[0] == 0:
        return _empty_mesh("separation", (j1, j2), event.time_next)
    all_pts = np.concatenate([plus_pts, minus_pts])
    lo, shape, axes = _lattice_box(grid, particles.refinement, all_pts, coords)
    plus = np.zeros(shape, dtype=bool)
    minus = np.zeros(shape, dtype=bool)
    po = plus_pts - lo + 1
    mo = minus_pts - lo + 1
    plus[po[:, 0], po[:, 1], po[:, 2]] = True
    minus[mo[:, 0], mo[:, 1], mo[:, 2]] = True
    invalid = ~(plus | minus)
    verts, tris = marching_cubes(plus, axes, invalid=invalid)
    return TriangleMesh(
        vertices=verts, triangles=tris, kind="separation", label=(j1, j2),
        timestamp=event.time_next,
    )


def edge_incidence(mesh: TriangleMesh) -> tuple[np.ndarray, np.ndarray]:
    """Undirected edges (a < b, in lexicographic order) of the mesh with their
    triangle incidence counts.

    Each edge is keyed as a * n + b with n above every vertex index, so one
    1-D unique gives the rows in the same order as a row-wise unique.
    """
    t = mesh.triangles
    if t.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    a = t.astype(np.int64).T.ravel()
    b = t[:, [1, 2, 0]].astype(np.int64).T.ravel()
    n = int(t.max()) + 1
    keys, counts = np.unique(np.minimum(a, b) * n + np.maximum(a, b), return_counts=True)
    return np.stack([keys // n, keys % n], axis=1), counts


def is_watertight(mesh: TriangleMesh) -> bool:
    """Every undirected edge incident to exactly two triangles."""
    if mesh.empty:
        return False
    _, counts = edge_incidence(mesh)
    return bool(np.all(counts == 2))


def smooth_mesh(mesh: TriangleMesh, iterations: int = 10, lam: float = 0.5) -> TriangleMesh:
    """Uniform-umbrella Laplacian smoothing; open-boundary vertices stay fixed.

    Connectivity is unchanged; 0 iterations is the identity.
    """
    if not 0.0 < lam <= 1.0:
        raise ValueError("smoothing factor must be in (0, 1]")
    if mesh.empty or iterations == 0:
        return TriangleMesh(
            vertices=mesh.vertices.copy(),
            triangles=mesh.triangles.copy(),
            kind=mesh.kind,
            label=mesh.label,
            timestamp=mesh.timestamp,
        )
    edges, counts = edge_incidence(mesh)
    nv = mesh.vertices.shape[0]
    fixed = np.zeros(nv, dtype=bool)
    fixed[edges[counts == 1].ravel()] = True
    # Each edge adds its far end to both of its ends: first over edges[:, 0],
    # then over edges[:, 1]. bincount sums every bin in array order, so the
    # sums carry the same bits as two sequential scatter-adds would.
    ends = np.concatenate([edges[:, 0], edges[:, 1]])
    other = np.concatenate([edges[:, 1], edges[:, 0]])
    degree = np.bincount(ends, minlength=nv).astype(np.float64)
    degree[degree == 0] = 1.0
    v = mesh.vertices.copy()
    moved = np.empty_like(v)
    for _ in range(iterations):
        for d in range(3):  # one axis at a time bounds the temporaries
            moved[:, d] = np.bincount(ends, weights=v[other, d], minlength=nv)
        # v + lam * (acc / degree - v), in place
        moved /= degree[:, None]
        moved -= v
        moved *= lam
        moved += v
        moved[fixed] = v[fixed]
        v, moved = moved, v
    return TriangleMesh(
        vertices=v, triangles=mesh.triangles.copy(), kind=mesh.kind,
        label=mesh.label, timestamp=mesh.timestamp,
    )


def triangle_components(mesh: TriangleMesh) -> np.ndarray:
    """Connected-component id per triangle (components share vertices)."""
    t = mesh.triangles
    edges = np.concatenate([t[:, [0, 1]], t[:, [0, 2]]])
    root = connected_components(mesh.vertices.shape[0], edges[:, 0], edges[:, 1])
    _, comp = np.unique(root[t[:, 0]], return_inverse=True)
    return comp


def filter_small_components(mesh: TriangleMesh, min_triangles: int) -> TriangleMesh:
    """Drop connected mesh components with fewer than `min_triangles` triangles."""
    if min_triangles <= 0 or mesh.empty:
        return mesh
    comp = triangle_components(mesh)
    sizes = np.bincount(comp)
    keep = sizes[comp] >= min_triangles
    tris = mesh.triangles[keep]
    if tris.shape[0] == 0:
        return _empty_mesh(mesh.kind, mesh.label, mesh.timestamp)
    used = np.unique(tris)
    remap = np.full(mesh.vertices.shape[0], -1, dtype=np.int32)
    remap[used] = np.arange(used.size, dtype=np.int32)
    return TriangleMesh(
        vertices=mesh.vertices[used], triangles=remap[tris], kind=mesh.kind,
        label=mesh.label, timestamp=mesh.timestamp,
    )


def write_obj(mesh: TriangleMesh, path) -> None:
    """`v` rows (floats as `repr`), then 1-based `f` rows, formatted and
    written `EXPORT_ROWS` at a time; a mesh without rows is one empty line."""
    verts = np.asarray(mesh.vertices, dtype=np.float64)
    tris = mesh.triangles
    with open(path, "w") as fh:
        if not (len(verts) or len(tris)):
            fh.write("\n")
        for a in range(0, len(verts), EXPORT_ROWS):
            rows = verts[a : a + EXPORT_ROWS].tolist()
            fh.write("".join(["v %r %r %r\n" % tuple(r) for r in rows]))
        for a in range(0, len(tris), EXPORT_ROWS):
            rows = (tris[a : a + EXPORT_ROWS] + 1).tolist()
            fh.write("".join(["f %d %d %d\n" % tuple(r) for r in rows]))


def export_meshes(meshes: list[TriangleMesh], out_dir, min_triangles: int = 0) -> Path:
    """One OBJ per mesh plus a manifest line each; returns the manifest path."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        lines = ["file\tkind\tlabels\ttimestamp"]
        for seq, mesh in enumerate(meshes):
            mesh = filter_small_components(mesh, min_triangles)
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
