"""Piecewise linear interface reconstruction: one table of patches per time step.

Conventions: the patch normal n points from liquid to gas (n = -grad f / |grad f|),
the attachment corner a is the cell corner deepest in the liquid (minimal
projection onto n, ties broken toward the lexicographically smallest corner),
and the plane offset l >= 0 is measured from a along n. A point x of the cell
is on the liquid side iff d = (x - a) . n <= l.

Every interface cell (0 < f < 1) of a step is one row of the step's
`PlicTable`, built on first use by `plic_table` and kept on the step. All
offsets come from one batched bisection; the phase test, seeding and the
corrector read the table.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .grid import TimeStep, flat_indices, fraction_gradients, locate_cells

MAX_BISECT = 60
VOLUME_TOL = 1e-6
# phase-test slack so particles projected exactly onto the patch plane count
# as liquid (relative to the cell diagonal)
PHASE_TOL = 1e-9


def row_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products along the last axis (length 3) of two broadcastable arrays,
    summed x, y, z in that order."""
    return a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1] + a[..., 2] * b[..., 2]


# ---------------------------------------------------------------------------
# batched truncated-box volumes and offset solve


def _kept_terms(w: np.ndarray, c: np.ndarray):
    """Per-row terms of the corner fraction of {y in prod [0, w_i] : sum c_i y_i <= rhs}.

    Near-zero coefficients (c_i <= 1e-12 max c) drop out of the constraint:
    their tilt contributes O(1e-12) volume but would wreck the conditioning.
    Returns the kept count k, the kept products c_i w_i moved to the front in
    axis order, and the inclusion-exclusion denominator (c_0 w_0 for k = 1,
    k! c_0 .. c_{k-1} w_0 .. w_{k-1} for k >= 2, multiplied in that order).
    """
    keep = c > (1e-12 * c.max(axis=1, initial=0.0))[:, None]
    k = keep.sum(axis=1)
    order = np.argsort(~keep, axis=1, kind="stable")
    ck = np.take_along_axis(np.where(keep, c, 0.0), order, axis=1)
    wk = np.take_along_axis(w, order, axis=1)
    cw = ck * wk
    c0, c1, c2 = ck.T
    w0, w1, w2 = wk.T
    denom = np.select(
        [k == 1, k == 2, k == 3],
        [cw[:, 0], 2.0 * c0 * c1 * w0 * w1, 6.0 * c0 * c1 * c2 * w0 * w1 * w2],
        1.0,
    )
    return k, cw, denom


def _corner_fractions(k: np.ndarray, cw: np.ndarray, denom: np.ndarray, rhs: np.ndarray):
    """Row-wise volume fraction for the terms of `_kept_terms`, by inclusion-exclusion
    over the box corners (b_0 outermost, the sum taken in corner order)."""
    out = np.where(rhs >= 0.0, 1.0, 0.0)  # no kept coefficient: all or nothing
    one = k == 1
    out[one] = np.clip(rhs[one] / denom[one], 0.0, 1.0)
    for kk in (2, 3):
        rows = np.nonzero(k == kk)[0]
        if rows.size == 0:
            continue
        r = rhs[rows]
        t = cw[rows]
        total = np.zeros(rows.size)
        for bits in itertools.product((0, 1), repeat=kk):
            corner = r
            for axis, b in enumerate(bits):
                if b:
                    corner = corner - t[:, axis]
            term = corner * corner if kk == 2 else corner**3
            if sum(bits) % 2:
                term = -term
            total += np.where(corner > 0.0, term, 0.0)
        out[rows] = total / denom[rows]
    return out


def _solve_offsets(w: np.ndarray, c: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Row-wise plane offsets l with corner fraction == fraction, by bisection.

    Each row bisects [0, sum c_i w_i] until |volume - fraction| <= VOLUME_TOL
    (then it stops and keeps that midpoint) or MAX_BISECT iterations pass.
    """
    k, cw, denom = _kept_terms(w, c)
    extent = row_dot(c, w)
    l_lo = np.zeros(extent.size)
    l_hi = extent.copy()
    l_mid = 0.5 * extent
    act = np.arange(extent.size)
    for _ in range(MAX_BISECT):
        if act.size == 0:
            break
        mid = 0.5 * (l_lo[act] + l_hi[act])
        l_mid[act] = mid
        v = _corner_fractions(k[act], cw[act], denom[act], mid)
        f = fractions[act]
        going = np.abs(v - f) > VOLUME_TOL
        low = v < f
        l_lo[act[going & low]] = mid[going & low]
        l_hi[act[going & ~low]] = mid[going & ~low]
        act = act[going]
    return l_mid


def truncated_volume(lo, hi, normal, anchor, offset: float) -> float:
    """Exact fraction of the box [lo, hi] inside {(x - anchor) . n <= offset}.

    `anchor` must be a corner of the box. Monotone non-decreasing in offset;
    0 at offset 0 (up to the degenerate corner) and 1 beyond the projected extent.
    """
    lo = np.asarray(lo, dtype=np.float64)[None, :]
    hi = np.asarray(hi, dtype=np.float64)[None, :]
    n = np.asarray(normal, dtype=np.float64)[None, :]
    a = np.asarray(anchor, dtype=np.float64)[None, :]
    # substitute y_i in [0, w_i] measured from the anchor into the box; axes
    # where the constraint coefficient is negative are reflected so all
    # coefficients become non-negative
    w = hi - lo
    c = np.where(np.abs(a - lo) <= np.abs(a - hi), n, -n)
    rhs = np.array([float(offset)])
    for d in range(3):
        rhs = np.where(c[:, d] < 0.0, rhs - c[:, d] * w[:, d], rhs)
    return float(_corner_fractions(*_kept_terms(w, np.abs(c)), rhs)[0])


def anchor_corner(lo, hi, normal) -> np.ndarray:
    """Deepest-liquid corner: minimal projection onto the normal, ties toward lo."""
    return np.where(np.asarray(normal) < 0.0, hi, lo)


def solve_patch_offset(lo, hi, normal, fraction: float) -> float:
    """Plane offset l with truncated_volume == fraction, by bisection.

    Converges to |volume - fraction| <= VOLUME_TOL within MAX_BISECT iterations
    (the volume is continuous and monotone in l).
    """
    w = (np.asarray(hi, dtype=np.float64) - np.asarray(lo, dtype=np.float64))[None, :]
    c = np.abs(np.asarray(normal, dtype=np.float64))[None, :]
    return float(_solve_offsets(w, c, np.array([float(fraction)]))[0])


# ---------------------------------------------------------------------------
# the per-step table


@dataclass(frozen=True)
class PlicTable:
    """PLIC patches of every interface cell (0 < f < 1) of one step.

    Row r belongs to the cell with flat index `cells[r]` (ascending). Rows
    flagged `degenerate` (vanishing fraction gradient) have zero normal and
    offset; the phase test counts such a cell as liquid iff f > 0.5.
    """

    cells: np.ndarray  # (m,) ascending flat indices
    normals: np.ndarray  # (m, 3)
    anchors: np.ndarray  # (m, 3)
    offsets: np.ndarray  # (m,)
    degenerate: np.ndarray  # (m,) bool
    tol: np.ndarray  # (m,) phase-test slack, PHASE_TOL times the cell diagonal

    def rows(self, flat: np.ndarray) -> np.ndarray:
        """Table rows of interface cells given by flat index."""
        return np.searchsorted(self.cells, flat)


def _build_table(step: TimeStep) -> PlicTable:
    grid = step.grid
    f = step.f.values
    cells = np.nonzero((f > 0.0) & (f < 1.0))[0]
    g = fraction_gradients(step, cells)
    norm = np.sqrt(row_dot(g, g))
    degenerate = norm == 0.0
    normals = -g / np.where(degenerate, 1.0, norm)[:, None]
    normals[degenerate] = 0.0
    lo, hi = grid.cell_boxes(cells)
    w = hi - lo
    offsets = np.zeros(cells.size)
    ok = ~degenerate
    offsets[ok] = _solve_offsets(w[ok], np.abs(normals[ok]), f[cells[ok]])
    return PlicTable(
        cells=cells,
        normals=normals,
        anchors=anchor_corner(lo, hi, normals),
        offsets=offsets,
        degenerate=degenerate,
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
    except degenerate-normal cells with f <= 0.5, which count as gas.
    """
    f = step.f.values
    capable = (f >= 1.0) | ((f > tau) & (f < 1.0))
    table = plic_table(step)
    gas = table.cells[table.degenerate]
    capable[gas[f[gas] <= 0.5]] = False
    return capable


def is_liquid_many(step: TimeStep, pts: np.ndarray, tau: float = 0.0) -> np.ndarray:
    """Whether each point lies in the feature phase; points outside the domain are False.

    Pure cells resolve by thresholding f; interface cells by the PLIC test
    d <= l (with a tiny slack so points on the patch plane count as liquid).
    Cells with a degenerate gradient fall back to whole-cell liquid iff f > 0.5.
    """
    grid = step.grid
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    idx, inside = locate_cells(grid, pts)
    flat = np.where(inside, flat_indices(grid, idx), 0)
    fvals = np.where(inside, step.f.values[flat], 0.0)
    out = inside & (fvals >= 1.0)
    mixed = np.nonzero(inside & (fvals > tau) & (fvals < 1.0))[0]
    if mixed.size:
        table = plic_table(step)
        rows = table.rows(flat[mixed])
        d = row_dot(pts[mixed] - table.anchors[rows], table.normals[rows])
        out[mixed] = np.where(
            table.degenerate[rows],
            fvals[mixed] > 0.5,
            d <= table.offsets[rows] + table.tol[rows],
        )
    return out


def project_many(
    x: np.ndarray, anchors: np.ndarray, normals: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """Row-wise intersection of the segment x -> anchor with the patch plane.

    Rows already on the liquid side (d <= l) are returned unchanged. Since the
    anchor has d = 0 <= l, the segment from any outside point always crosses
    the plane.
    """
    out = x.copy()
    d = row_dot(x - anchors, normals)
    far = d > offsets
    s = 1.0 - offsets[far] / d[far]
    out[far] = x[far] + s[:, None] * (anchors[far] - x[far])
    return out
