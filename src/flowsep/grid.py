"""Rectilinear grids and cell-centered fields: cell location, interpolation, gradients."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Cell = tuple[int, int, int]


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
            if not np.all(np.diff(a) > 0.0):
                raise GridError("axis node coordinates must be strictly increasing")
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "centers", tuple(0.5 * (a[:-1] + a[1:]) for a in axes))
        object.__setattr__(self, "widths", tuple(np.diff(a) for a in axes))

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

    @property
    def lo(self) -> np.ndarray:
        return np.array([a[0] for a in self.axes])

    @property
    def hi(self) -> np.ndarray:
        return np.array([a[-1] for a in self.axes])

    def cell_bounds(self, cell: Cell) -> tuple[np.ndarray, np.ndarray]:
        lo = np.array([self.axes[d][cell[d]] for d in range(3)])
        hi = np.array([self.axes[d][cell[d] + 1] for d in range(3)])
        return lo, hi

    def cell_widths(self, cell: Cell) -> np.ndarray:
        return np.array([self.widths[d][cell[d]] for d in range(3)])

    def cell_volume(self, cell: Cell) -> float:
        w = self.cell_widths(cell)
        return float(w[0] * w[1] * w[2])

    def flat(self, cell: Cell) -> int:
        nx, ny, _ = self.shape
        return cell[0] + nx * (cell[1] + ny * cell[2])

    def unflat(self, flat: int) -> Cell:
        nx, ny, _ = self.shape
        i = flat % nx
        j = (flat // nx) % ny
        k = flat // (nx * ny)
        return (i, j, k)

    def in_bounds(self, cell) -> bool:
        return all(0 <= cell[d] < self.shape[d] for d in range(3))


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

    def __post_init__(self):
        if self.f.grid is not self.u.grid:
            raise GridError("f and u must share one grid")
        if self.f.ncomp != 1:
            raise GridError("fraction field must be scalar")
        if self.u.ncomp != 3:
            raise GridError("velocity field must have 3 components")
        fv = self.f.values
        if fv.size and (fv.min() < 0.0 or fv.max() > 1.0):
            raise GridError("fraction values must lie in [0, 1]")

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


def locate_cell(grid: RectilinearGrid, x) -> Cell | None:
    """Cell containing point x, or None if outside the domain.

    Cells are half-open [node_i, node_{i+1}) with the final cell closed on the
    right, so every in-domain point maps to exactly one cell.
    """
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


def locate_cells(grid: RectilinearGrid, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized locate_cell.

    Returns (idx, inside): idx with shape (n, 3) (undefined rows where not
    inside) and a boolean inside mask.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    n = pts.shape[0]
    idx = np.zeros((n, 3), dtype=np.int64)
    inside = np.ones(n, dtype=bool)
    for d in range(3):
        a = grid.axes[d]
        i = np.searchsorted(a, pts[:, d], side="right") - 1
        np.minimum(i, a.size - 2, out=i)  # last node belongs to the final cell
        inside &= (pts[:, d] >= a[0]) & (pts[:, d] <= a[-1])
        idx[:, d] = i
    return idx, inside


def flat_indices(grid: RectilinearGrid, idx: np.ndarray) -> np.ndarray:
    nx, ny, _ = grid.shape
    return idx[:, 0] + nx * (idx[:, 1] + ny * idx[:, 2])


def _axis_weights(centers: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower sample index and interpolation weight along one center lattice.

    Outside the center lattice the weight is clamped, i.e. values are held at
    the nearest center (constant extrapolation in the half-cell rim).
    """
    n = centers.size
    if n == 1:
        return np.zeros(x.size, dtype=np.int64), np.zeros(x.size)
    lo = np.searchsorted(centers, x, side="right") - 1
    np.clip(lo, 0, n - 2, out=lo)
    w = (x - centers[lo]) / (centers[lo + 1] - centers[lo])
    np.clip(w, 0.0, 1.0, out=w)
    return lo, w


def sample_cell_field(field: CellField, pts: np.ndarray) -> np.ndarray:
    """Trilinear interpolation of a cell-centered field at points (n, 3).

    Cell centers act as sample nodes; outside the center lattice values clamp
    to the nearest center. Returns (n,) for scalar fields, (n, ncomp) else.
    """
    grid = field.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    n = pts.shape[0]
    nx, ny, _ = grid.shape
    loc = []
    for d in range(3):
        loc.append(_axis_weights(grid.centers[d], pts[:, d]))
    out = np.zeros((n, field.ncomp))
    i0, wx = loc[0]
    j0, wy = loc[1]
    k0, wz = loc[2]
    for bits in range(8):
        bx, by, bz = bits & 1, (bits >> 1) & 1, (bits >> 2) & 1
        wgt = (wx if bx else 1.0 - wx) * (wy if by else 1.0 - wy) * (wz if bz else 1.0 - wz)
        # clamp index growth on single-cell axes
        ii = np.minimum(i0 + bx, grid.shape[0] - 1)
        jj = np.minimum(j0 + by, grid.shape[1] - 1)
        kk = np.minimum(k0 + bz, grid.shape[2] - 1)
        flat = ii + nx * (jj + ny * kk)
        for c in range(field.ncomp):
            out[:, c] += wgt * field.component(c)[flat]
    return out[:, 0] if field.ncomp == 1 else out


def sample_velocity(step_a: TimeStep, step_b: TimeStep, x, t: float) -> np.ndarray:
    """Velocity at (x, t): trilinear in space, linear blend in time.

    Requires step_a.time <= t <= step_b.time.
    """
    ta, tb = step_a.time, step_b.time
    span = tb - ta
    slack = 1e-9 * max(abs(ta), abs(tb), 1.0)
    if t < ta - slack or t > tb + slack:
        raise ValueError(f"time {t} outside step interval [{ta}, {tb}]")
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    va = sample_cell_field(step_a.u, x)
    if span == 0.0:
        v = va
    else:
        theta = min(max((t - ta) / span, 0.0), 1.0)
        vb = sample_cell_field(step_b.u, x)
        v = (1.0 - theta) * va + theta * vb
    return v[0] if single else v


def sample_fraction(step: TimeStep, pts) -> np.ndarray:
    """Trilinear interpolation of the fraction field at points."""
    pts = np.asarray(pts, dtype=np.float64)
    single = pts.ndim == 1
    v = sample_cell_field(step.f, pts)
    return float(v[0]) if single else v


def gradient_f(step: TimeStep, cell: Cell) -> np.ndarray:
    """Gradient of f at a cell center: central differences on neighbor centers,
    one-sided at domain boundaries (exact for fields affine in the centers)."""
    grid = step.grid
    f3 = step.f.view3d()
    g = np.zeros(3)
    idx = list(cell)
    for d in range(3):
        n = grid.shape[d]
        c = grid.centers[d]
        i = cell[d]
        if n == 1:
            g[d] = 0.0
            continue
        ilo = max(i - 1, 0)
        ihi = min(i + 1, n - 1)
        idx_lo = idx.copy()
        idx_hi = idx.copy()
        idx_lo[d] = ilo
        idx_hi[d] = ihi
        g[d] = (f3[tuple(idx_hi)] - f3[tuple(idx_lo)]) / (c[ihi] - c[ilo])
    return g
