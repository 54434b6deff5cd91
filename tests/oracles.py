"""Independent oracles used by the tests.

Everything here is deliberately implemented without reusing the library's own
code paths: brute-force counting, raster-scan union-find, parity ray casting,
closed-form kinematics, and the scalar loops and per-group or scatter-add
forms that the library replaced with array code (the marching-cubes loop
shares only the case table with the library).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from flowsep.marching import CASE_TRIS, CORNERS, EDGES

# --- half-space / box volume oracles ---------------------------------------


def subvoxel_fraction(normal, anchor, offset, n_sub=64) -> float:
    """Midpoint subvoxel counting on the unit cell: the fraction of the n³
    subvoxel centers with (p - anchor) . normal <= offset.

    Counts are evaluated exactly per center column along the dominant normal
    axis, so large n stays cheap.
    """
    n = np.asarray(normal, dtype=np.float64)
    a = np.asarray(anchor, dtype=np.float64)
    m = int(np.argmax(np.abs(n)))
    others = [d for d in range(3) if d != m]
    g = (np.arange(n_sub) + 0.5) / n_sub
    u = g[:, None]
    v = g[None, :]
    rhs = (
        float(offset)
        + a @ n
        - n[others[0]] * u
        - n[others[1]] * v
    )
    nm = n[m]
    if nm == 0.0:
        counts = np.where(rhs >= 0.0, n_sub, 0)
    elif nm > 0.0:
        counts = np.clip(np.floor(n_sub * rhs / nm + 0.5), 0, n_sub)
    else:
        counts = n_sub - np.clip(np.floor(n_sub * rhs / nm + 0.5), 0, n_sub)
    return float(np.sum(counts)) / n_sub**3


def subvoxel_fraction_points(normal, anchor, offset, n_sub=64) -> float:
    """Literal materialized-points variant of subvoxel_fraction (small n only)."""
    g = (np.arange(n_sub) + 0.5) / n_sub
    pts = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1).reshape(-1, 3)
    d = (pts - np.asarray(anchor)) @ np.asarray(normal)
    return float(np.mean(d <= offset))


def corner_fraction(w: tuple, c: tuple, rhs: float) -> float:
    """The volume fraction of {y in prod [0, w_i] : sum c_i y_i <= rhs} for
    c_i >= 0, by inclusion-exclusion over box corners in floating point with
    near-zero coefficients dropped: the form the library used before its
    closed-form solve. It cancels badly when the kept c_i w_i span many orders
    of magnitude; `exact_corner_fraction` is the exact reference.
    """
    cmax = max(c)
    if cmax <= 0.0:
        return 1.0 if rhs >= 0.0 else 0.0
    thresh = 1e-12 * cmax
    cw = [(ci, wi) for ci, wi in zip(c, w) if ci > thresh]
    k = len(cw)
    if k == 0:
        return 1.0 if rhs >= 0.0 else 0.0
    if k == 1:
        cut = rhs / (cw[0][0] * cw[0][1])
        return min(max(cut, 0.0), 1.0)
    if k == 2:
        (c0, w0), (c1, w1) = cw
        total = 0.0
        for b0 in (0, 1):
            for b1 in (0, 1):
                corner = rhs - b0 * c0 * w0 - b1 * c1 * w1
                if corner > 0.0:
                    total += (-1.0) ** (b0 + b1) * corner * corner
        return total / (2.0 * c0 * c1 * w0 * w1)
    (c0, w0), (c1, w1), (c2, w2) = cw
    total = 0.0
    for b0 in (0, 1):
        for b1 in (0, 1):
            for b2 in (0, 1):
                corner = rhs - b0 * c0 * w0 - b1 * c1 * w1 - b2 * c2 * w2
                if corner > 0.0:
                    total += (-1.0) ** (b0 + b1 + b2) * corner**3
    return total / (6.0 * c0 * c1 * c2 * w0 * w1 * w2)


def bisect_offset(lo, hi, normal, fraction: float, max_bisect=60, volume_tol=1e-6) -> float:
    """The former plane-offset solve: bisection on corner_fraction from
    [0, sum |n_i| w_i], stopping once |volume - fraction| <= volume_tol."""
    w = tuple(float(v) for v in np.asarray(hi, dtype=np.float64) - np.asarray(lo, dtype=np.float64))
    c = tuple(abs(float(v)) for v in normal)
    extent = c[0] * w[0] + c[1] * w[1] + c[2] * w[2]
    l_lo, l_hi = 0.0, extent
    l_mid = 0.5 * extent
    for _ in range(max_bisect):
        l_mid = 0.5 * (l_lo + l_hi)
        v = corner_fraction(w, c, l_mid)
        if abs(v - fraction) <= volume_tol:
            return l_mid
        if v < fraction:
            l_lo = l_mid
        else:
            l_hi = l_mid
    return l_mid


def exact_corner_fraction(w, c, rhs) -> Fraction:
    """Exact volume fraction of {y in prod [0, w_i] : sum c_i y_i <= rhs} for c_i >= 0,
    by inclusion-exclusion over the box corners in rational arithmetic.

    Every float converts to a Fraction exactly and no coefficient is dropped:
    an exactly zero coefficient leaves its axis out of the sum, which is exact.
    """
    p = [Fraction(float(ci)) * Fraction(float(wi)) for ci, wi in zip(c, w) if ci != 0.0]
    r = Fraction(float(rhs))
    total = Fraction(0)
    for bits in itertools.product((0, 1), repeat=len(p)):
        corner = r - sum(pi for pi, b in zip(p, bits) if b)
        if corner >= 0:
            total += (-1) ** sum(bits) * corner ** len(p)
    return total / (math.factorial(len(p)) * math.prod(p))


def ball_volume(radius: float) -> float:
    return 4.0 / 3.0 * np.pi * radius**3


# --- connected components (union-find raster scan) -------------------------


class UnionFind:
    def __init__(self, n: int):
        self.parent = np.arange(n, dtype=np.int64)

    def find(self, x: int) -> int:
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra < rb:
                self.parent[rb] = ra
            else:
                self.parent[ra] = rb


def union_find_label(mask3: np.ndarray) -> tuple[np.ndarray, int]:
    """6-connected components of a 3D boolean mask by union-find over face pairs.

    Returns (labels3, count) with canonical dense labels ordered by each
    component's smallest flat index (x-fastest layout).
    """
    mask3 = np.asarray(mask3, dtype=bool)
    nx, ny, nz = mask3.shape
    flat3 = (
        np.arange(nx)[:, None, None]
        + nx * (np.arange(ny)[None, :, None] + ny * np.arange(nz)[None, None, :])
    )
    uf = UnionFind(nx * ny * nz)
    for axis in range(3):
        sl_a = [slice(None)] * 3
        sl_b = [slice(None)] * 3
        sl_a[axis] = slice(0, -1)
        sl_b[axis] = slice(1, None)
        both = mask3[tuple(sl_a)] & mask3[tuple(sl_b)]
        fa = flat3[tuple(sl_a)][both]
        fb = flat3[tuple(sl_b)][both]
        for a, b in zip(fa.tolist(), fb.tolist()):
            uf.union(a, b)
    labels3 = np.full((nx, ny, nz), -1, dtype=np.int32)
    roots: dict[int, int] = {}
    fg = np.argwhere(mask3)
    fg_flat = flat3[mask3]
    scan = np.argsort(fg_flat)  # canonical order: ascending flat index
    for row in scan:
        root = uf.find(int(fg_flat[row]))
        if root not in roots:
            roots[root] = len(roots)
        i, j, k = fg[row]
        labels3[i, j, k] = roots[root]
    return labels3, len(roots)


def count_components(mask3: np.ndarray) -> int:
    return union_find_label(mask3)[1]


def first_disconnection_step(fraction_masks: list[np.ndarray]) -> int | None:
    """Index of the first mask whose foreground has 2 or more components."""
    for i, mask in enumerate(fraction_masks):
        if count_components(mask) >= 2:
            return i
    return None


# --- point-in-mesh parity ray casting ---------------------------------------

_RAY_DIR = np.array([0.5234589234, 0.7162039485, 0.4612345721])
_RAY_DIR = _RAY_DIR / np.linalg.norm(_RAY_DIR)


def _plane_basis() -> np.ndarray:
    """(2, 3) orthonormal basis of the plane normal to _RAY_DIR."""
    a = np.cross(_RAY_DIR, [1.0, 0.0, 0.0])
    a /= np.linalg.norm(a)
    return np.stack([a, np.cross(_RAY_DIR, a)])


def _ray_hits(p, v0, e1, e2) -> np.ndarray:
    """Moller-Trumbore along _RAY_DIR, row by row over (point, triangle) pairs."""
    d = _RAY_DIR
    h = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    svec = p - v0
    u = np.einsum("ij,ij->i", svec, h) * inv_det
    q = np.cross(svec, e1)
    v = (q @ d) * inv_det
    t = np.einsum("ij,ij->i", q, e2) * inv_det
    return ok & (u >= 0.0) & (v >= 0.0) & (u + v <= 1.0) & (t > 1e-12)


def _concat_ranges(start: np.ndarray, count: np.ndarray):
    """The ranges start[i] .. start[i] + count[i] - 1, concatenated, and the i of each."""
    owner = np.repeat(np.arange(start.size), count)
    return owner, np.arange(owner.size) - np.repeat(np.cumsum(count) - count - start, count)


def points_in_mesh(points: np.ndarray, vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Parity ray casting along a fixed skew direction, culled: each point is cast
    only against the triangles whose bounding boxes in the plane normal to the
    ray (widened by a margin) contain its projection.

    The boxes are binned on a square 2-D lattice of about one mean box per bin;
    a point's candidates are the triangles listed in its bin.
    """
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if triangles.shape[0] == 0:
        return np.zeros(points.shape[0], dtype=bool)
    basis = _plane_basis()
    pp = points @ basis.T
    tv = (vertices @ basis.T)[triangles]
    margin = 1e-9 * (1.0 + np.abs(tv).max() + np.abs(pp).max(initial=0.0))
    lo = tv.min(axis=1) - margin
    hi = tv.max(axis=1) + margin
    size = (hi - lo).mean()
    origin = np.minimum(lo.min(axis=0), pp.min(axis=0, initial=np.inf))
    b_lo, b_hi, b_pt = (((x - origin) // size).astype(np.int64) for x in (lo, hi, pp))
    ncol = max(b_hi[:, 1].max(), b_pt[:, 1].max(initial=0)) + 1
    # (bin, triangle) for every bin a triangle's box touches, sorted by bin
    span = b_hi - b_lo + 1
    tri, k = _concat_ranges(np.zeros(triangles.shape[0], dtype=np.int64), span[:, 0] * span[:, 1])
    bins = (b_lo[tri, 0] + k // span[tri, 1]) * ncol + b_lo[tri, 1] + k % span[tri, 1]
    order = np.argsort(bins, kind="stable")
    bins, tri = bins[order], tri[order]
    # each point against the triangles of its bin whose box holds it
    key = b_pt[:, 0] * ncol + b_pt[:, 1]
    start = np.searchsorted(bins, key, side="left")
    pt, j = _concat_ranges(start, np.searchsorted(bins, key, side="right") - start)
    cand = tri[j]
    held = np.all((lo[cand] <= pp[pt]) & (pp[pt] <= hi[cand]), axis=1)
    pt, cand = pt[held], triangles[cand[held]]
    v0 = vertices[cand[:, 0]]
    hit = _ray_hits(points[pt], v0, vertices[cand[:, 1]] - v0, vertices[cand[:, 2]] - v0)
    return np.bincount(pt[hit], minlength=points.shape[0]) % 2 == 1


def points_in_mesh_full(points: np.ndarray, vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Parity ray casting (Moller-Trumbore) along a fixed skew direction, every
    point against every triangle: the reference for `points_in_mesh`."""
    points = np.atleast_2d(points)
    v0 = vertices[triangles[:, 0]]
    e1 = vertices[triangles[:, 1]] - v0
    e2 = vertices[triangles[:, 2]] - v0
    d = _RAY_DIR
    h = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, h)
    ok = np.abs(det) > 1e-12
    inv_det = np.where(ok, 1.0 / np.where(ok, det, 1.0), 0.0)
    out = np.zeros(points.shape[0], dtype=bool)
    chunk = max(1, int(2e6 // max(triangles.shape[0], 1)))
    for s in range(0, points.shape[0], chunk):
        p = points[s : s + chunk]
        svec = p[:, None, :] - v0[None, :, :]
        u = np.einsum("pij,ij->pi", svec, h) * inv_det
        q = np.cross(svec, e1[None, :, :])
        v = np.einsum("pij,j->pi", q, d) * inv_det
        t = np.einsum("pij,ij->pi", q, e2) * inv_det
        hit = (
            ok[None, :]
            & (u >= 0.0)
            & (v >= 0.0)
            & (u + v <= 1.0)
            & (t > 1e-12)
        )
        out[s : s + chunk] = np.sum(hit, axis=1) % 2 == 1
    return out


# --- corrector stage-2 target ------------------------------------------------


def nearest_capable_cell(axes, capable, x):
    """Brute-force stage-2 target: the flat index of the lexicographic minimum,
    over all liquid-capable cells, of (Chebyshev cell distance from the cell
    holding x clamped into the domain, squared center distance to x, flat
    index); None when no cell is capable. `capable` is flat, x-fastest."""
    shape = [len(a) - 1 for a in axes]
    start = []
    for d in range(3):
        a = axes[d]
        xc = min(max(float(x[d]), float(a[0])), float(a[-1]))
        i = 0
        while i + 1 < shape[d] and a[i + 1] <= xc:
            i += 1
        start.append(i)
    best = None
    for flat in np.nonzero(capable)[0].tolist():
        cell = (flat % shape[0], (flat // shape[0]) % shape[1], flat // (shape[0] * shape[1]))
        cheb = max(abs(cell[d] - start[d]) for d in range(3))
        diff = [0.5 * (float(axes[d][cell[d]]) + float(axes[d][cell[d] + 1])) - float(x[d]) for d in range(3)]
        d2 = diff[0] * diff[0] + diff[1] * diff[1] + diff[2] * diff[2]
        key = (cheb, d2, flat)
        if best is None or key < best:
            best = key
    return None if best is None else best[2]


# --- label search up the fraction gradient ------------------------------------


def walk_up_gradient(f3: np.ndarray, centers, labels3: np.ndarray, cell, max_steps: int) -> int:
    """Scalar gradient walk from one cell: step to the face neighbor along the
    axis of the largest |grad f| component (central differences on cell
    centers, one-sided at the boundary; first axis on ties), toward higher f,
    at most max_steps times; the first labeled cell's label, or -1 on a zero
    gradient, at the domain boundary or when the steps run out."""
    shape = f3.shape
    cur = list(cell)
    for _ in range(max_steps):
        g = []
        for d in range(3):
            n = shape[d]
            if n == 1:
                g.append(0.0)
                continue
            lo, hi = list(cur), list(cur)
            lo[d] = max(cur[d] - 1, 0)
            hi[d] = min(cur[d] + 1, n - 1)
            g.append((f3[tuple(hi)] - f3[tuple(lo)]) / (centers[d][hi[d]] - centers[d][lo[d]]))
        axis = 0
        for d in (1, 2):
            if abs(g[d]) > abs(g[axis]):
                axis = d
        if g[axis] == 0.0:
            return -1
        cur[axis] += 1 if g[axis] > 0 else -1
        if not 0 <= cur[axis] < shape[axis]:
            return -1
        found = int(labels3[tuple(cur)])
        if found >= 0:
            return found
    return -1


# --- kinematics -------------------------------------------------------------


def rotate_about_z(points: np.ndarray, center, angle: float) -> np.ndarray:
    """Rigid rotation of points about the z axis through `center`."""
    c = np.asarray(center)
    rel = np.atleast_2d(points) - c
    ca, sa = np.cos(angle), np.sin(angle)
    out = rel.copy()
    out[:, 0] = ca * rel[:, 0] - sa * rel[:, 1]
    out[:, 1] = sa * rel[:, 0] + ca * rel[:, 1]
    return out + c


def segment_box_entry(x, target, lo, hi) -> np.ndarray:
    """Independent slab-method entry point of segment x -> target into box."""
    x = np.asarray(x, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    d = target - x
    t_lo, t_hi = 0.0, 1.0
    for ax in range(3):
        if d[ax] == 0.0:
            continue
        a = (lo[ax] - x[ax]) / d[ax]
        b = (hi[ax] - x[ax]) / d[ax]
        if a > b:
            a, b = b, a
        t_lo = max(t_lo, a)
        t_hi = min(t_hi, b)
    return x + t_lo * d


# --- marching cubes (scalar loop) ---------------------------------------------


def _empty():
    return np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int32)


def marching_cubes_loop(
    inside: np.ndarray,
    axes: tuple[np.ndarray, np.ndarray, np.ndarray],
    invalid: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reference for `flowsep.marching.marching_cubes`: the per-cube,
    per-triangle, per-edge loop the library used before its table gather.
    It shares only the case table (CORNERS, EDGES, CASE_TRIS) with the library.

    Triangulates the 0.5-level set of a binary node lattice.

    inside:  (ni, nj, nk) bool node values
    axes:    node coordinate arrays per axis
    invalid: optional bool mask of outer nodes; these count as outside for the
             case lookup and every triangle touching an edge with an invalid
             endpoint is discarded (open-surface extraction)

    Returns (vertices, triangles).
    """
    inside = np.asarray(inside, dtype=bool)
    ni, nj, nk = inside.shape
    if min(ni, nj, nk) < 2 or not inside.any():
        return _empty()

    case = np.zeros((ni - 1, nj - 1, nk - 1), dtype=np.uint16)
    for c, (cx, cy, cz) in enumerate(CORNERS):
        case += inside[cx : cx + ni - 1, cy : cy + nj - 1, cz : cz + nk - 1].astype(
            np.uint16
        ) << c
    mixed = np.argwhere((case > 0) & (case < 255))
    if mixed.size == 0:
        return _empty()

    ax, ay, az = (np.asarray(a, dtype=np.float64) for a in axes)
    inv_flat = None
    if invalid is not None:
        inv_flat = np.asarray(invalid, dtype=bool).reshape(-1, order="F")

    verts: list[np.ndarray] = []
    vert_nodes: list[tuple[int, int]] = []
    tris: list[tuple[int, int, int]] = []
    vmap: dict[tuple[int, int], int] = {}

    def node_flat(i, j, k) -> int:
        return i + ni * (j + nj * k)

    for i, j, k in mixed:
        for tri in CASE_TRIS[case[i, j, k]]:
            ids = []
            bad = False
            for e in tri:
                u, v = EDGES[e]
                nu = node_flat(i + CORNERS[u][0], j + CORNERS[u][1], k + CORNERS[u][2])
                nv = node_flat(i + CORNERS[v][0], j + CORNERS[v][1], k + CORNERS[v][2])
                key = (nu, nv) if nu < nv else (nv, nu)
                if inv_flat is not None and (inv_flat[key[0]] or inv_flat[key[1]]):
                    bad = True
                    break
                vid = vmap.get(key)
                if vid is None:
                    vid = vmap[key] = len(verts)
                    pa = _node_coords(key[0], ni, nj, ax, ay, az)
                    pb = _node_coords(key[1], ni, nj, ax, ay, az)
                    verts.append(0.5 * (pa + pb))
                    vert_nodes.append(key)
                ids.append(vid)
            if not bad:
                tris.append(tuple(ids))

    if not tris:
        return _empty()
    vert_arr = np.array(verts)
    tri_arr = np.array(tris, dtype=np.int32)
    # drop vertices that only supported discarded triangles
    used = np.unique(tri_arr)
    if used.size != vert_arr.shape[0]:
        remap = np.full(vert_arr.shape[0], -1, dtype=np.int32)
        remap[used] = np.arange(used.size, dtype=np.int32)
        vert_arr = vert_arr[used]
        tri_arr = remap[tri_arr]
    return vert_arr, tri_arr


def _node_coords(flat: int, ni: int, nj: int, ax, ay, az) -> np.ndarray:
    i = flat % ni
    j = (flat // ni) % nj
    k = flat // (ni * nj)
    return np.array([ax[i], ay[j], az[k]])


# --- mesh export tail (row-unique edges, scatter-add smoothing, f-strings) ----


def edge_incidence_rows(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Reference for `flowsep.extract.edge_incidence`: sorted edge rows and
    their incidence counts from one row-wise unique."""
    t = triangles
    if t.shape[0] == 0:
        return np.zeros((0, 2), dtype=np.int64), np.zeros(0, dtype=np.int64)
    edges = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]).astype(np.int64)
    edges.sort(axis=1)
    return np.unique(edges, axis=0, return_counts=True)


def smooth_vertices_add_at(vertices, triangles, iterations: int, lam: float) -> np.ndarray:
    """Reference for the vertices of `flowsep.extract.smooth_mesh`: umbrella
    smoothing with two `np.add.at` scatter-adds per iteration and the
    open-boundary vertices held fixed."""
    v = np.array(vertices, dtype=np.float64)
    if triangles.shape[0] == 0 or iterations == 0:
        return v
    edges, counts = edge_incidence_rows(triangles)
    nv = v.shape[0]
    fixed = np.zeros(nv, dtype=bool)
    fixed[np.unique(edges[counts == 1])] = True
    degree = np.zeros(nv)
    np.add.at(degree, edges[:, 0], 1.0)
    np.add.at(degree, edges[:, 1], 1.0)
    degree[degree == 0] = 1.0
    for _ in range(iterations):
        acc = np.zeros_like(v)
        np.add.at(acc, edges[:, 0], v[edges[:, 1]])
        np.add.at(acc, edges[:, 1], v[edges[:, 0]])
        moved = v + lam * (acc / degree[:, None] - v)
        moved[fixed] = v[fixed]
        v = moved
    return v


def obj_text_fstrings(vertices, triangles) -> str:
    """Reference for the text `flowsep.extract.write_obj` writes: one f-string
    per numpy scalar row."""
    lines = [f"v {float(x)!r} {float(y)!r} {float(z)!r}" for x, y, z in vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in triangles]
    return "\n".join(lines) + "\n"


# --- split detection (one mask per group) ------------------------------------


def detect_splits_loop(prev_labels, next_labels, initial_labels):
    """Reference for `flowsep.segment.detect_splits`: one full-array mask per
    (initial, prev) group. Returns (initial, prev, next labels, members) per
    event, ordered by (initial, prev)."""
    events = []
    group_keys = np.stack([initial_labels, prev_labels], axis=1)
    for i0, jk in np.unique(group_keys, axis=0):
        if i0 < 0 or jk < 0:
            continue
        members = np.nonzero((initial_labels == i0) & (prev_labels == jk))[0]
        nxt = np.unique(next_labels[members])
        nxt = nxt[nxt >= 0]
        if nxt.size >= 2:
            events.append((int(i0), int(jk), tuple(int(v) for v in nxt), members))
    return events


# --- scalar grid lookups ---------------------------------------------------------


def locate_cell(grid, x):
    """Scalar reference for `flowsep.grid.locate_cells`: the cell containing
    point x, or None outside the domain. Cells are half-open
    [node_i, node_{i+1}) with the final cell closed on the right."""
    cell = []
    for d in range(3):
        a = grid.axes[d]
        if x[d] < a[0] or x[d] > a[-1]:
            return None
        i = int(np.searchsorted(a, x[d], side="right") - 1)
        if i == a.size - 1:  # x exactly on the last node
            i -= 1
        cell.append(i)
    return tuple(cell)


def flat_index(grid, cell) -> int:
    """Flat index of one cell in the x-fastest layout."""
    nx, ny, _ = grid.shape
    return cell[0] + nx * (cell[1] + ny * cell[2])


# --- per-field, per-corner trilinear sampling -----------------------------------


def sample_cell_field_loop(field, pts) -> np.ndarray:
    """Reference for `flowsep.grid.sample_cell_field`: one pass per corner and
    component, each recomputing its weight and flat index. Returns (n,) for
    scalar fields, (n, ncomp) else."""
    grid = field.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    n = pts.shape[0]
    nx, ny, _ = grid.shape
    loc = []
    for d in range(3):
        c = grid.centers[d]
        if c.size == 1:
            loc.append((np.zeros(n, dtype=np.int64), np.zeros(n)))
            continue
        lo = np.clip(np.searchsorted(c, pts[:, d], side="right") - 1, 0, c.size - 2)
        w = np.clip((pts[:, d] - c[lo]) / (c[lo + 1] - c[lo]), 0.0, 1.0)
        loc.append((lo, w))
    (i0, wx), (j0, wy), (k0, wz) = loc
    values = field.values.reshape(field.ncomp, -1)
    out = np.zeros((n, field.ncomp))
    for bits in range(8):
        bx, by, bz = bits & 1, (bits >> 1) & 1, (bits >> 2) & 1
        wgt = (wx if bx else 1.0 - wx) * (wy if by else 1.0 - wy) * (wz if bz else 1.0 - wz)
        ii = np.minimum(i0 + bx, grid.shape[0] - 1)
        jj = np.minimum(j0 + by, grid.shape[1] - 1)
        kk = np.minimum(k0 + bz, grid.shape[2] - 1)
        flat = ii + nx * (jj + ny * kk)
        for c in range(field.ncomp):
            out[:, c] += wgt * values[c][flat]
    return out[:, 0] if field.ncomp == 1 else out


# --- per-group lexicographic minimum ---------------------------------------------


def first_per_group_lexsort(group, *keys) -> np.ndarray:
    """Reference for `flowsep.advect._first_per_group`: one lexsort over
    (group, keys...), then the first row of each group; full ties go to the
    first position because lexsort is stable."""
    order = np.lexsort(keys[::-1] + (group,))
    g = group[order]
    return order[np.r_[True, g[1:] != g[:-1]]]
