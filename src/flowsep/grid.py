"""Rectilinear grids and cell-centered fields: cell location, interpolation, gradients."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    """Malformed grid or field definition."""


@dataclass(frozen=True, eq=False)
class RectilinearGrid:
    """Axis-aligned 3D grid defined by strictly increasing node coordinates per axis.

    Axis i carries ``len(axes[i]) - 1`` cells. Cell data is stored flat with the
    x index running fastest: ``flat = i + nx * (j + ny * k)``.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        axes = tuple(np.ascontiguousarray(a, dtype=np.float64) for a in self.axes)
        if len(axes) != 3:
            raise GridError(f"expected 3 coordinate axes, got {len(axes)}")
        for a in axes:
            if a.ndim != 1 or a.size < 2:
                raise GridError("each axis needs at least 2 node coordinates (1 cell)")
            if not np.all(np.isfinite(a)):
                raise GridError("axis node coordinates must be finite")
            if not np.all(np.diff(a) > 0.0):
                raise GridError("axis node coordinates must be strictly increasing")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "centers", tuple(0.5 * (a[:-1] + a[1:]) for a in axes))
        object.__setattr__(self, "widths", tuple(np.diff(a) for a in axes))
        object.__setattr__(self, "lo", np.array([a[0] for a in axes]))
        object.__setattr__(self, "hi", np.array([a[-1] for a in axes]))

    @property
    def ndim(self) -> int:
        return 3

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(a.size - 1 for a in self.axes)

    @property
    def ncells(self) -> int:
        nx, ny, nz = self.shape
        return nx * ny * nz

    def cell_boxes(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lower and upper corners (m, 3) of the cells with the given flat indices."""
        ijk = self.unflat(np.asarray(flat))
        lo = np.stack([self.axes[d][ijk[d]] for d in range(3)], axis=1)
        hi = np.stack([self.axes[d][ijk[d] + 1] for d in range(3)], axis=1)
        return lo, hi

    def unflat(self, flat: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(i, j, k) index arrays of the cells with the given flat indices."""
        nx, ny, _ = self.shape
        i = flat % nx
        j = (flat // nx) % ny
        k = flat // (nx * ny)
        return (i, j, k)


def uniform_grid(cells, lo=(0.0, 0.0, 0.0), hi=(1.0, 1.0, 1.0)) -> RectilinearGrid:
    """Uniform grid with `cells` cells per axis (int or triple) over a box."""
    if np.isscalar(cells):
        cells = (int(cells),) * 3
    axes = tuple(np.linspace(lo[d], hi[d], cells[d] + 1) for d in range(3))
    return RectilinearGrid(axes)


@dataclass
class CellField:
    """Cell-centered field. `values` has shape (ncells,) or (ncomp, ncells)."""

    grid: RectilinearGrid
    values: np.ndarray
    ncomp: int = 1

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if self.ncomp == 1:
            v = v.reshape(-1)
        else:
            v = v.reshape(self.ncomp, -1)
        if v.shape[-1] != self.grid.ncells:
            raise GridError(
                f"field length {v.shape[-1]} does not match cell count {self.grid.ncells}"
            )
        self.values = v

    def component(self, c: int) -> np.ndarray:
        return self.values if self.ncomp == 1 else self.values[c]

    def view3d(self, c: int = 0) -> np.ndarray:
        """(nx, ny, nz)-indexed view of one component (x-fastest flat layout)."""
        return self.component(c).reshape(self.grid.shape, order="F")


@dataclass
class TimeStep:
    """One stored simulation step: fraction field f and velocity field u at `time`."""

    time: float
    f: CellField
    u: CellField
    # the step's PLIC table, built by plic.plic_table on first use; it assumes
    # that f is not modified afterwards
    plic: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not np.isfinite(self.time):  # NaN passes every order and match check
            raise GridError(f"step time must be finite, got {self.time}")
        if self.f.grid is not self.u.grid:
            raise GridError("f and u must share one grid")
        if self.f.ncomp != 1:
            raise GridError("fraction field must be scalar")
        if self.u.ncomp != 3:
            raise GridError("velocity field must have 3 components")
        fv = self.f.values
        if not np.all((fv >= 0.0) & (fv <= 1.0)):
            raise GridError("fraction values must lie in [0, 1]")
        if not np.all(np.isfinite(self.u.values)):
            raise GridError("velocity values must be finite")

    @property
    def grid(self) -> RectilinearGrid:
        return self.f.grid


@dataclass
class TimeSeriesDataset:
    """Ordered time steps sharing one grid, with strictly increasing times."""

    grid: RectilinearGrid
    steps: list[TimeStep]

    def __post_init__(self):
        times = [s.time for s in self.steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise GridError("time steps must be strictly increasing in time")
        for s in self.steps:
            if s.grid is not self.grid:
                raise GridError("all steps must share the dataset grid")

    def __len__(self) -> int:
        return len(self.steps)


def locate_cells(grid: RectilinearGrid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cells containing the points (n, 3): `locate_bins` on the grid nodes."""
    return locate_bins(grid.axes, pts)


def locate_bins(faces, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bins containing the points (n, 3), given per axis the non-decreasing
    faces of its bins (the grid nodes, or `subcell_lattice` faces).

    Bins are half-open [face_i, face_{i+1}) with the final bin closed on the
    right, so every in-domain point maps to exactly one bin (the last of
    several equal faces). Returns (idx, inside): idx with shape (n, 3)
    (undefined rows where not inside) and a boolean inside mask.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    n = pts.shape[0]
    idx = np.empty((n, 3), dtype=np.int64)
    inside = np.ones(n, dtype=bool)
    for d in range(3):
        a = faces[d]
        x = pts[:, d]
        i = np.searchsorted(a, x, side="right")  # NaN sorts past the last face
        inside &= (i > 0) & (x <= a[-1])  # i > 0 iff x >= a[0]
        np.minimum(i, a.size - 1, out=i)  # last face belongs to the final bin
        np.subtract(i, 1, out=idx[:, d])
    return idx, inside


def subcell_lattice(
    grid: RectilinearGrid, refinement: int
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per axis, the centres (n * s,) and faces (n * s + 1,) of the subcells
    that split each of its n cells into s = 2^refinement equal parts.

    Subcell k of cell i has lattice index i * s + k and spans k / s to
    (k + 1) / s of the cell width, with its centre halfway. Faces at
    multiples of s are the grid nodes exactly, and interior faces are clipped
    into their cell, so the faces never decrease and `bin // s` of a
    `locate_bins` bin is the cell `locate_cells` gives.
    """
    s = 2**refinement
    centres, faces = [], []
    for a, w in zip(grid.axes, grid.widths):
        # every half subcell: even columns are lower faces, odd ones centres
        at = a[:-1, None] + (np.arange(2 * s) / (2 * s))[None, :] * w[:, None]
        low = np.minimum(at[:, 0::2], a[1:, None])
        low[:, 0] = a[:-1]
        centres.append(at[:, 1::2].ravel())
        faces.append(np.append(low.ravel(), a[-1]))
    return tuple(centres), tuple(faces)


def flat_indices(grid: RectilinearGrid, idx: np.ndarray) -> np.ndarray:
    nx, ny, _ = grid.shape
    return idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2])


def _sample_cells(
    grid: RectilinearGrid, pts: np.ndarray, *values: np.ndarray
) -> list[np.ndarray]:
    """Trilinear samples (ncomp, n) at points (n, 3) of each (ncomp, ncells) array
    in `values`, all through one stencil.

    Cell centers act as sample nodes; outside the center lattice the weight
    is clamped, so values are held at the nearest center. One locate per axis
    gives the lower center and the upper one's weight w (the lower one's is
    1 - w; w = 0 on a single-cell axis). Corner 0's flat index is computed
    once and the other corners add a constant offset (1, nx, nx * ny, or 0
    along a single-cell axis), exact as the lower center is at most n - 2.
    Each corner's weight is (wx * wy) * wz from the four x-y products, and
    the corners are summed in the order 0..7 into accumulators that start
    at +0.0, so no sample is -0.0 (`sample_velocity` relies on it).
    """
    n = pts.shape[0]
    nx, ny, _ = grid.shape
    strides = [1, nx, nx * ny]  # the upper corner's offset per axis
    flat = np.zeros(n, dtype=np.int64)
    wgt = []
    for d in range(3):
        c = grid.centers[d]
        if c.size == 1:
            wgt.append((np.ones(n), np.zeros(n)))
            strides[d] = 0
            continue
        lo = np.searchsorted(c, pts[:, d], side="right")
        lo -= 1
        np.clip(lo, 0, c.size - 2, out=lo)
        w = pts[:, d] - c[lo]
        w /= np.diff(c)[lo]
        np.clip(w, 0.0, 1.0, out=w)
        wgt.append((1.0 - w, w))
        lo *= strides[d]
        flat += lo
    (wx, wy, wz), (sx, sy, sz) = wgt, strides
    wxy = [wx[b & 1] * wy[b >> 1] for b in range(4)]
    del wgt, wx, wy  # the corner loop holds the products only
    out = [np.zeros((v.shape[0], n)) for v in values]
    w = np.empty(n)
    at = np.empty(n, dtype=np.int64)
    for b in range(8):
        np.multiply(wxy[b & 3], wz[b >> 2], out=w)
        np.add(flat, (b & 1) * sx + (b >> 1 & 1) * sy + (b >> 2) * sz, out=at)
        for v, acc in zip(values, out):
            g = v.take(at, axis=1)
            g *= w
            acc += g
    return out


def sample_cell_field(field: CellField, pts: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a cell-centered field at points (n, 3).

    Cell centers act as sample nodes; outside the center lattice values clamp
    to the nearest center. Returns (n,) for scalar fields, (n, ncomp) else.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    (out,) = _sample_cells(field.grid, pts, field.values.reshape(field.ncomp, -1))
    return out[0] if field.ncomp == 1 else out.T


def sample_velocity(step_a: TimeStep, step_b: TimeStep, x, t: float) -> np.ndarray:
    """Velocities (n, 3) at points x (n, 3), time t: trilinear, blended linearly in time.

    Requires step_a.time <= t <= step_b.time. With time weight theta in
    (0, 1) both stored fields are sampled through one stencil and blended as
    (1 - theta) * va + theta * vb. At theta 0 or 1 only the field of weight 1
    is sampled, which gives the same bits: the blend adds +-0.0 to a sample
    that is never -0.0, of finite data. The result is the transposed view of
    a (3, n) array.
    """
    ta, tb = step_a.time, step_b.time
    span = tb - ta
    slack = 1e-9 * max(abs(ta), abs(tb), 1.0)
    if t < ta - slack or t > tb + slack:
        raise ValueError(f"time {t} outside step interval [{ta}, {tb}]")
    pts = np.asarray(x, dtype=np.float64)
    theta = 0.0 if span == 0.0 else min(max((t - ta) / span, 0.0), 1.0)
    if theta == 0.0 or theta == 1.0:
        (v,) = _sample_cells(step_a.grid, pts, (step_b if theta else step_a).u.values)
        return v.T
    va, vb = _sample_cells(step_a.grid, pts, step_a.u.values, step_b.u.values)
    va *= 1.0 - theta
    vb *= theta
    va += vb
    return va.T


def fraction_gradients(step: TimeStep, flat: np.ndarray) -> np.ndarray:
    """Gradients (m, 3) of f at the cells with the given flat indices: central
    differences on neighbor centers, one-sided at domain boundaries (exact for
    fields affine in the centers)."""
    grid = step.grid
    f = step.f.values
    flat = np.asarray(flat, dtype=np.int64)
    nx, ny, _ = grid.shape
    ijk = grid.unflat(flat)
    strides = (1, nx, nx * ny)
    g = np.zeros((flat.size, 3))
    for d in range(3):
        n = grid.shape[d]
        if n == 1:
            continue
        c = grid.centers[d]
        i = ijk[d]
        ilo = np.maximum(i - 1, 0)
        ihi = np.minimum(i + 1, n - 1)
        g[:, d] = (f[flat + (ihi - i) * strides[d]] - f[flat + (ilo - i) * strides[d]]) / (
            c[ihi] - c[ilo]
        )
    return g
