"""Piecewise linear interface reconstruction: one table of patches per time step.

Conventions: the patch normal n points from liquid to gas (n = -grad f / |grad f|),
the attachment corner a is the cell corner deepest in the liquid (minimal
projection onto n, ties broken toward the lexicographically smallest corner),
and the plane offset l >= 0 is measured from a along n. A point x of the cell
is on the liquid side iff d = (x - a) . n <= l.

Every interface cell (0 < f < 1) of a step is one row of the step's
`PlicTable`, built on first use by `plic_table` and kept on the step. All
offsets come from the closed-form relations of Scardovelli & Zaleski (2000);
the phase test, seeding and the corrector read the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import TimeStep, flat_indices, fraction_gradients, locate_cells

# phase-test slack so particles projected exactly onto the patch plane count
# as liquid (relative to the cell diagonal)
PHASE_TOL = 1e-9


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis (length 3) of two broadcastable arrays,
    summed x, y, z in that order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


# ---------------------------------------------------------------------------
# closed-form volumes and offsets (Scardovelli & Zaleski, "Analytical relations
# connecting linear interfaces and volume fractions in rectangular grids",
# JCP 164, 2000). The box prod [0, w_i] cut by sum c_i y_i <= l (c_i >= 0) in
# unit form: m = sort(c_i w_i) / sum c_i w_i, alpha = l / sum c_i w_i. For
# alpha <= 1/2 the volume fraction V has five regions split at m1, m2 and
# min(m3, m1 + m2); V(alpha) = 1 - V(1 - alpha) above:
#   0  V0 = alpha^3 / (6 m1 m2 m3)
#   1  V1 = (3 alpha (alpha - m1) + m1^2) / (6 m2 m3)
#   2  V2 = V1 - (alpha - m2)^3 / (6 m1 m2 m3)
#   3  V3 = (alpha - (m1 + m2) / 2) / m3          if m1 + m2 <= m3, else
#   4  V4 = V2 - (alpha - m3)^3 / (6 m1 m2 m3)
# V1 has the m1 corner expanded, so nothing cancels when m1 << m2. Each
# region runs only on its own rows, where none of its denominators is zero.


def _unit_form(w: np.ndarray, c: np.ndarray):
    """Rows of m = sort(c_i w_i) / sum c_i w_i, and the sums sum c_i w_i."""
    extent = row_dot(c, w)
    return np.sort(c * w, axis=1) / extent[:, None], extent


def _knots(m: np.ndarray) -> np.ndarray:
    """Per-row alpha at the region boundaries m1, m2 and min(m3, m1 + m2)."""
    return np.minimum(m, m[:, :1] + m[:, 1:2])


def _by_region(piece, x: np.ndarray, bounds: np.ndarray, m: np.ndarray) -> np.ndarray:
    """piece(k, x, m1, m2, m3) on the rows of each region k (found from the row's
    three region boundaries in x), mirrored as 1 - piece(1 - x) above x = 1/2."""
    upper = x > 0.5
    x = np.where(upper, 1.0 - x, x)
    region = (x[:, None] >= bounds).sum(axis=1)
    region[(region == 3) & (m[:, 2] < m[:, 0] + m[:, 1])] = 4
    out = np.empty(x.shape)
    for k in range(5):
        rows = region == k
        out[rows] = piece(k, x[rows], *m[rows].T)
    return np.where(upper, 1.0 - out, out)


def _volume_piece(k, a, m1, m2, m3):
    def cube(d):  # d^3 / (6 m1 m2 m3) as ratios, none above 1 where used
        return (d / m1) * (d / m2) * (d / m3) / 6.0

    if k == 0:
        return cube(a)
    if k == 3:
        return (a - 0.5 * (m1 + m2)) / m3
    v = (3.0 * (a / m2) * (a - m1) + m1 * (m1 / m2)) / (6.0 * m3)
    if k >= 2:
        v -= cube(a - m2)
    if k == 4:
        v -= cube(a - m3)
    return v


def _unit_fractions(m: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """Row-wise volume fraction of the unit cube below sum m_i x_i <= alpha."""
    return _by_region(_volume_piece, np.clip(alpha, 0.0, 1.0), _knots(m), m)


def _middle_root(r, cos3):
    """Middle root of t^3 - 3 r^2 t + q = 0, given cos3 = -q / (2 r^3)."""
    return 2.0 * r * np.cos(np.arccos(np.clip(cos3, -1.0, 1.0)) / 3.0 - 2.0 * np.pi / 3.0)


def _alpha_piece(k, v, m1, m2, m3):
    if k == 0:
        return np.cbrt(6.0 * m1 * m2 * m3 * v)
    if k == 1:
        return 0.5 * m1 + np.sqrt(np.maximum(2.0 * m2 * m3 * v - m1 * m1 / 12.0, 0.0))
    if k == 2:  # alpha = m1 + m2 + t, t^3 - 6 m1 m2 t + 3 m1 m2 (2 m3 v - m1 - m2) = 0
        r = np.sqrt(2.0 * m1) * np.sqrt(m2)
        return m1 + m2 + _middle_root(r, 0.75 * (m1 + m2 - 2.0 * m3 * v) / r)
    if k == 3:
        return m3 * v + 0.5 * (m1 + m2)
    # alpha = 1/2 + t, t^3 - 3 (m1 m2 - (1/2 - m3)^2) t + 3 m1 m2 m3 (v - 1/2) = 0
    r = np.sqrt(m1 * m2 - (0.5 - m3) ** 2)
    return 0.5 + _middle_root(r, 1.5 * m1 * m2 * m3 * (0.5 - v) / r**3)


def _solve_offsets(w: np.ndarray, c: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Row-wise plane offsets l with volume fraction == fraction (sum c_i w_i > 0);
    each row's region comes from the volume fractions at its boundaries."""
    m, extent = _unit_form(w, c)
    bounds = _unit_fractions(np.repeat(m, 3, axis=0), _knots(m).ravel()).reshape(-1, 3)
    return _by_region(_alpha_piece, fractions, bounds, m) * extent


def anchor_corner(lo, hi, normal) -> np.ndarray:
    """Deepest-liquid corner: minimal projection onto the normal, ties toward lo."""
    return np.where(np.asarray(normal) < 0.0, hi, lo)


# ---------------------------------------------------------------------------
# the per-step table


@dataclass(frozen=True)
class PlicTable:
    """PLIC patches of every interface cell (0 < f < 1) of one step.

    Row r belongs to the cell with flat index `cells[r]` (ascending). A cell
    whose fraction gradient vanishes has zero normal, so d = 0 in all of it,
    and offset +inf where f > 0.5, -inf elsewhere: its half-space d <= l is
    the whole cell or none of it, and only finite offsets have a patch.
    """

    cells: np.ndarray  # (m,) ascending flat indices
    normals: np.ndarray  # (m, 3)
    anchors: np.ndarray  # (m, 3)
    offsets: np.ndarray  # (m,), +-inf on degenerate rows
    tol: np.ndarray  # (m,) phase-test slack, PHASE_TOL times the cell diagonal

    def rows(self, flat: np.ndarray) -> np.ndarray:
        """Table rows of interface cells given by flat index."""
        return np.searchsorted(self.cells, flat)

    def depth(self, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Signed depth d = (x - a) . n of points x at the patches of `rows`."""
        return row_dot(x - self.anchors[rows], self.normals[rows])


def _build_table(step: TimeStep) -> PlicTable:
    grid = step.grid
    f = step.f.values
    cells = np.nonzero((f > 0.0) & (f < 1.0))[0]
    g = fraction_gradients(step, cells)
    norm = np.sqrt(row_dot(g, g))
    ok = norm > 0.0
    normals = np.zeros_like(g)
    normals[ok] = -g[ok] / norm[ok, None]
    lo, hi = grid.cell_boxes(cells)
    w = hi - lo
    offsets = np.where(f[cells] > 0.5, np.inf, -np.inf)
    offsets[ok] = _solve_offsets(w[ok], np.abs(normals[ok]), f[cells[ok]])
    return PlicTable(
        cells=cells,
        normals=normals,
        anchors=anchor_corner(lo, hi, normals),
        offsets=offsets,
        tol=PHASE_TOL * np.sqrt(row_dot(w, w)),
    )


def plic_table(step: TimeStep) -> PlicTable:
    """The step's PLIC table, built on first use and kept on the step."""
    if step.plic is None:
        step.plic = _build_table(step)
    return step.plic


# ---------------------------------------------------------------------------
# phase test and projection


def liquid_capable(step: TimeStep, tau: float = 0.0) -> np.ndarray:
    """Per-cell mask (ncells,) of the cells where the phase test accepts some point.

    These are the cells with f >= 1 and the interface cells with tau < f < 1,
    except degenerate-normal rows of offset -inf (f <= 0.5), which count as gas.
    """
    f = step.f.values
    capable = (f >= 1.0) | ((f > tau) & (f < 1.0))
    table = plic_table(step)
    capable[table.cells[table.offsets == -np.inf]] = False
    return capable


def interface_rows(step: TimeStep, pts: np.ndarray, tau: float = 0.0) -> tuple[np.ndarray, ...]:
    """(fractions, mixed, rows) of points (n, 3): each point's cell fraction (0
    outside the domain), the points in interface cells (tau < f < 1), and
    their table rows (the table is built only when some point has one)."""
    grid = step.grid
    idx, inside = locate_cells(grid, pts)
    flat = np.where(inside, flat_indices(grid, idx), 0)
    fvals = np.where(inside, step.f.values[flat], 0.0)
    mixed = np.nonzero((fvals > tau) & (fvals < 1.0))[0]
    return fvals, mixed, plic_table(step).rows(flat[mixed]) if mixed.size else mixed


def is_liquid_many(step: TimeStep, pts: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """Whether each point lies in the feature phase; points outside the domain are False.

    Pure cells resolve by thresholding f; interface cells by the PLIC test
    d <= l (with a tiny slack so points on the patch plane count as liquid),
    which the infinite offsets of degenerate rows make whole-cell.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    fvals, mixed, rows = interface_rows(step, pts, tau)
    out = fvals >= 1.0
    if mixed.size:
        table = plic_table(step)
        out[mixed] = table.depth(rows, pts[mixed]) <= table.offsets[rows] + table.tol[rows]
    return out


def project_many(table: PlicTable, rows: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Row-wise intersection of the segment x -> anchor with the row's patch plane.

    Rows must have a finite offset; those already on the liquid side (d <= l)
    are returned unchanged. Since the anchor has d = 0 <= l, the segment from
    any outside point always crosses the plane.
    """
    out = x.copy()
    d = table.depth(rows, x)
    far = d > table.offsets[rows]
    s = 1.0 - table.offsets[rows[far]] / d[far]
    out[far] = x[far] + s[:, None] * (table.anchors[rows[far]] - x[far])
    return out
