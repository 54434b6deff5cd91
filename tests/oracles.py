"""Independent oracles used by the tests.

Everything here is deliberately implemented without reusing the library's own
code paths: brute-force counting, raster-scan union-find, parity ray casting,
and closed-form kinematics.
"""

from __future__ import annotations

import numpy as np

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
    """Scalar reference for the library's batched corner fraction: the volume
    fraction of {y in prod [0, w_i] : sum c_i y_i <= rhs} for c_i >= 0, by
    inclusion-exclusion over box corners with near-zero coefficients dropped.

    This is the scalar form the library used before its PLIC solve was
    batched; the batched solve must reproduce its offsets bit for bit.
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
    """Scalar reference for the plane-offset solve: bisection on corner_fraction
    from [0, sum |n_i| w_i], stopping once |volume - fraction| <= volume_tol."""
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


def points_in_mesh(points: np.ndarray, vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """Parity ray casting (Moller-Trumbore) along a fixed skew direction."""
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
