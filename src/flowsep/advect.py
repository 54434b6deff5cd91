"""Particle seeding, RK4 flow-map integration, and the phase-consistency corrector.

Particles represent the feature volume: each cell with f > tau is subdivided
r times into (2^3)^r subcells and a particle is seeded at every subcell center
that passes the phase test. Integration uses classic RK4 between consecutive
stored steps with linear time interpolation of the velocity. After each
interval an optional corrector moves stray particles back into the feature
phase and accumulates the introduced displacement per particle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    RectilinearGrid,
    TimeStep,
    flat_indices,
    locate_bins,
    locate_cells,
    sample_velocity,
    subcell_lattice,
)
from .plic import interface_rows, is_liquid_many, liquid_capable, plic_table, project_many, row_dot

CORRECTOR_MODES = ("off", "stages-2-3", "full")
# relative inward nudge so a particle placed on a cell face is unambiguously
# inside the target cell under half-open cell intervals
BOUNDARY_NUDGE = 1e-9
# rows taken at once by every per-particle pass (RK4, the phase test, the
# stage-1 table, seeding, label transfer), which bounds their temporaries
# whatever the particle count
RK4_BLOCK = 1 << 13


class PhaseConsistencyError(RuntimeError):
    """The corrector failed to return every alive particle to the feature phase."""


@dataclass
class AdvectionConfig:
    refinement: int = 0
    substeps: int = 1
    corrector: str = "full"

    def __post_init__(self):
        if self.refinement < 0:
            raise ValueError("refinement must be >= 0")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.corrector not in CORRECTOR_MODES:
            raise ValueError(f"corrector must be one of {CORRECTOR_MODES}")


@dataclass
class ParticleSet:
    """One seed record per particle, its current state, and its correction budget.

    A particle's seed record is its subcell on the global seed lattice of
    `grid` (`subcell_lattice` at `refinement`), an int32 index per axis. The
    seed position (the subcell centre) and the represented volume are
    derived from it: `seeds` and `seed_volume` are read-only, and
    `seed_positions` gathers the positions of a row range for block-wise
    readers. Particle indices are stable for the whole run; dead particles
    keep their arrays but are excluded from integration and segmentation.
    """

    lattice: np.ndarray  # (n, 3) int32 global subcell indices of the seeds
    pos: np.ndarray  # (n, 3) current positions
    alive: np.ndarray  # (n,) bool
    eps: np.ndarray  # (n,) accumulated correction displacement
    refinement: int
    grid: RectilinearGrid  # the grid the seeds were placed on

    def __len__(self) -> int:
        return self.lattice.shape[0]

    @property
    def seeds(self) -> np.ndarray:
        """(n, 3) seed positions s_p."""
        return self.seed_positions(0, len(self))

    @property
    def seed_volume(self) -> np.ndarray:
        """(n,) represented volume per seed: its cell's width product over (2^3)^r."""
        s = 2**self.refinement
        wx, wy, wz = (w[i // s] for w, i in zip(self.grid.widths, self.lattice.T))
        return wx * wy * wz / s**3

    def seed_positions(self, a: int, b: int) -> np.ndarray:
        """Seed positions of particles a..b-1: the subcell centres at their indices."""
        centres, _ = subcell_lattice(self.grid, self.refinement)
        return _gather(centres, self.lattice[a:b])

    def alive_blocks(self):
        """`_blocks` of the alive mask."""
        return _blocks(self.alive)


def _gather(axes, lattice: np.ndarray) -> np.ndarray:
    """(k, 3) points with coordinate `axes[d][lattice[:, d]]` on axis d,
    gathered one axis at a time."""
    out = np.empty(lattice.shape)
    for d, a in enumerate(axes):
        out[:, d] = a[lattice[:, d]]
    return out


def _blocks(mask: np.ndarray):
    """Indices of the set entries of `mask` in index order, one block per
    `RK4_BLOCK` consecutive entries (empty blocks skipped), so no index array
    over the whole mask is built. `mask` is read block by block, so a block
    may clear its own entries while the walk goes on."""
    for a in range(0, mask.size, RK4_BLOCK):
        idx = a + np.nonzero(mask[a : a + RK4_BLOCK])[0]
        if idx.size:
            yield idx


def seed_particles(step: TimeStep, refinement: int = 0, tau: float = 0.0) -> ParticleSet:
    """Seed subcell centers of every cell with f > tau that pass the phase test.

    Each candidate cell takes the lattice indices of its (2^3)^r subcells, and
    the `subcell_lattice` centres gathered at them serve the phase test and
    the positions. Pure-liquid cells keep all of them; interface cells keep
    only centers strictly on the liquid side of the PLIC patch (d < l), which
    for a degenerate-normal cell (offset +-inf) is all of them or none. Seeds are
    ordered by cell flat index, then by subcell (x fastest). The particle set
    stores each seed's int32 lattice index; its initial position is the
    seed's centre, gathered once, and its volume is derived on demand. The
    candidate cells are tested in order, in chunks of at most `RK4_BLOCK`
    subcells (at least one cell), so only the output grows with the seed
    count.
    """
    grid = step.grid
    r = int(refinement)
    s = 2**r
    centres, _ = subcell_lattice(grid, r)
    fvals = step.f.values
    cand_cells = np.nonzero(fvals > tau)[0]
    sub = np.arange(s**3)
    chunk = max(1, RK4_BLOCK // s**3)
    kept = []
    # one empty chunk when no cell is a candidate keeps the output shapes
    for a in range(0, max(cand_cells.size, 1), chunk):
        cells = cand_cells[a : a + chunk]
        # (cells, subcells) lattice index per axis; subcell m of a cell is
        # (m % s, m // s % s, m // s^2) within it, x fastest
        lattice = [i[:, None] * s + sub // s**d % s for d, i in enumerate(grid.unflat(cells))]

        keep = np.ones((cells.size, s**3), dtype=bool)
        fc = fvals[cells]
        mixed = np.nonzero(fc < 1.0)[0]
        if mixed.size:
            table = plic_table(step)
            rows = table.rows(cells[mixed])
            at = np.stack([c[i[mixed]] for c, i in zip(centres, lattice)], axis=2)
            keep[mixed] = table.depth(rows[:, None], at) < table.offsets[rows][:, None]
        kept.append(np.stack([i[keep] for i in lattice], axis=1, dtype=np.int32))

    lattice_arr = np.concatenate(kept)
    del kept  # before the positions are gathered, so the peak is the output
    n = lattice_arr.shape[0]
    return ParticleSet(
        lattice=lattice_arr,
        pos=_gather(centres, lattice_arr),
        alive=np.ones(n, dtype=bool),
        eps=np.zeros(n),
        refinement=r,
        grid=grid,
    )


def rk4_positions(
    step_from: TimeStep, step_to: TimeStep, pts: np.ndarray, substeps: int = 1
) -> np.ndarray:
    """Integrate points over [step_from.time, step_to.time] in `substeps` RK4 steps.

    The step order defines the integration direction; velocity samples always
    interpolate between the two stored fields in chronological order. Each
    step makes 4 `sample_velocity` calls; the stage points go to one reused
    buffer and the stages are summed in place, in the order and with the
    bits of x + (h / 6) * (((k1 + 2 k2) + 2 k3) + k4), with k1 and k3
    released before k4 is sampled.
    """
    step_a, step_b = (
        (step_from, step_to) if step_from.time <= step_to.time else (step_to, step_from)
    )
    dt = step_to.time - step_from.time
    h = dt / substeps
    x = np.array(pts, dtype=np.float64, copy=True)
    t = step_from.time
    for _ in range(substeps):
        k1 = sample_velocity(step_a, step_b, x, t)
        y = k1 * (0.5 * h)
        y += x
        k2 = sample_velocity(step_a, step_b, y, t + 0.5 * h)
        np.multiply(k2, 0.5 * h, out=y)
        y += x
        k3 = sample_velocity(step_a, step_b, y, t + 0.5 * h)
        np.multiply(k3, h, out=y)
        y += x
        k2 *= 2.0
        k2 += k1
        k3 *= 2.0
        k2 += k3
        del k1, k3
        k2 += sample_velocity(step_a, step_b, y, t + h)
        k2 *= h / 6.0
        x += k2
        t += h
    return x


def advance_interval(
    particles: ParticleSet,
    step_from: TimeStep,
    step_to: TimeStep,
    config: AdvectionConfig,
    tau: float = 0.0,
) -> ParticleSet:
    """Integrate all alive particles over one stored-data interval.

    The alive particles are integrated in index order, block by block
    (`ParticleSet.alive_blocks`); RK4 treats every particle alone, so the
    blocks never change a result.
    Particles leaving the domain are marked dead (never corrected). With the
    corrector enabled, stray particles are repositioned afterwards and the
    phase invariant re-checked.
    """
    grid = step_from.grid
    pre_pos = particles.pos.copy()
    for idx in particles.alive_blocks():
        pos = rk4_positions(step_from, step_to, particles.pos[idx], config.substeps)
        particles.pos[idx] = pos
        inside = np.all((pos >= grid.lo) & (pos <= grid.hi), axis=1)
        particles.alive[idx[~inside]] = False

    if config.corrector != "off":
        correct_strays(particles, pre_pos, step_to, config, tau)
    return particles


def phase_violations(particles: ParticleSet, step: TimeStep, tau: float = 0.0) -> np.ndarray:
    """Indices (ascending) of the alive particles whose position fails the
    phase test, tested block by block (`ParticleSet.alive_blocks`)."""
    bad = [idx[~is_liquid_many(step, particles.pos[idx], tau)] for idx in particles.alive_blocks()]
    return np.concatenate([np.zeros(0, dtype=np.intp), *bad])


def correct_strays(
    particles: ParticleSet,
    pre_pos: np.ndarray,
    step_to: TimeStep,
    config: AdvectionConfig,
    tau: float,
) -> np.ndarray:
    """Apply the three-stage corrector to all stray alive particles at once.

    The strays are the `phase_violations` of the alive particles; the others
    are the valid candidates of stage 1. Stage candidates and tie-breaks are
    deterministic (distance, then index), and stage 1 reads only the frozen
    pre-interval particle snapshot. Returns the indices that were corrected.
    """
    grid = step_to.grid
    strays = phase_violations(particles, step_to, tau)
    if strays.size == 0:
        return strays

    # the strays' one position array: each stage overwrites the rows it moves
    # and adds their displacement to eps (a row it leaves adds nothing)
    x = particles.pos[strays]
    eps = np.zeros(strays.size)

    # stage 1: displacement vector of the nearest phase-consistent neighbor,
    # searched in the 3x3x3 cell neighborhood of the pre-step position
    if config.corrector == "full":
        valid = particles.alive.copy()
        valid[strays] = False
        best = _nearest_neighbors(grid, pre_pos, valid, strays, particles.refinement)
        hit = np.nonzero(best >= 0)[0]
        nb = best[hit]
        _move(x, eps, hit, pre_pos[strays[hit]] + (particles.pos[nb] - pre_pos[nb]))

    # stage 2: move to the boundary of the nearest liquid-capable cell
    capable = liquid_capable(step_to, tau)
    start, _ = locate_cells(grid, np.clip(x, grid.lo, grid.hi))
    inside = np.all((x >= grid.lo) & (x <= grid.hi), axis=1)
    need = np.nonzero(~(inside & capable[flat_indices(grid, start)]))[0]
    target = _nearest_capable_cells(grid, capable, start[need], x[need])
    # no liquid-capable cell in the whole domain: those particles are dropped
    dropped = need[target < 0]
    moved = need[target >= 0]
    lo, hi = grid.cell_boxes(target[target >= 0])
    center = 0.5 * (lo + hi)
    entry = _slab_entry_points(x[moved], center, lo, hi)
    _move(x, eps, moved, entry + BOUNDARY_NUDGE * (center - entry))

    # stage 3: project onto the PLIC patch if outside it in an interface cell
    # (one of finite offset: a degenerate cell has no patch)
    kept = np.ones(strays.size, dtype=bool)
    kept[dropped] = False
    _, mixed, rows = interface_rows(step_to, x, tau)
    table = plic_table(step_to)
    on = kept[mixed] & np.isfinite(table.offsets[rows])
    mixed, rows = mixed[on], rows[on]
    _move(x, eps, mixed, project_many(table, rows, x[mixed]))

    particles.pos[strays[kept]] = x[kept]
    particles.alive[strays[dropped]] = False
    particles.eps[strays] += eps

    # phase invariant: every alive particle is phase-consistent after
    # correction; only the kept strays moved, so only they are tested again
    kept_ids = strays[kept]
    still = kept_ids[~is_liquid_many(step_to, particles.pos[kept_ids], tau)]
    if still.size:
        raise PhaseConsistencyError(
            f"corrector left {still.size} phase-inconsistent particles (first: {still[:5]})"
        )
    return strays


def _move(x: np.ndarray, eps: np.ndarray, rows: np.ndarray, to: np.ndarray) -> None:
    """Move the rows `rows` of `x` to `to`, adding each row's displacement to `eps`."""
    step = to - x[rows]
    eps[rows] += np.sqrt(row_dot(step, step))
    x[rows] = to


# (query, ring offset) pairs examined at once by `_ring_search` (stray and bin
# in stage 1, point and cell in stage 2): this bounds the temporaries of both
# stages whatever the refinement and ring radius
RING_BLOCK = 1 << 16


def _ring_search(n: int, scan, retired) -> np.ndarray:
    """Per query 0..n-1, the index of the row with the lexicographic minimum
    (d^2, index) over every row `scan` gives it (-1 where none).

    Chebyshev rings 0, 1, 2, ... are expanded around every query not yet
    retired, in blocks of at most `RING_BLOCK` (query, offset) pairs:
    `scan(part, offsets)` returns the rows (query, d^2, index) of the queries
    `part` at the ring's `offsets`, in any order. After each ring,
    `retired(todo, ring, d2)` marks the queries `todo` (with best d^2 `d2`)
    that stop. Each block folds into the running minimum with two
    `minimum.at`: one over d^2, then, after a strictly nearer row reset a
    query's index, one over the indices of the rows that tie its best d^2.
    """
    best_d2 = np.full(n, np.inf)
    best = np.full(n, -1, dtype=np.int64)
    todo = np.arange(n)
    ring = 0
    while todo.size:
        offsets = _ring_offsets(ring)
        block = max(1, RING_BLOCK // offsets.shape[0])
        for b in range(0, todo.size, block):
            q, d2, idx = scan(todo[b : b + block], offsets)
            before = best_d2[q]
            np.minimum.at(best_d2, q, d2)
            now = best_d2[q]
            best[q[now < before]] = np.iinfo(np.int64).max
            tie = d2 == now
            np.minimum.at(best, q[tie], idx[tie])
        todo = todo[~retired(todo, ring, best_d2[todo])]
        ring += 1
    return best


def _nearest_neighbors(
    grid, pre_pos: np.ndarray, valid: np.ndarray, strays: np.ndarray, refinement: int
) -> np.ndarray:
    """Per stray, the valid particle nearest to it in the pre-interval snapshot
    among the 3x3x3 cells around the stray's pre-interval cell (-1 where there
    is none); `valid` is the phase mask over all particles.

    Ties go to the lowest particle index. Positions are binned on the seed
    lattice (`locate_bins` on the `subcell_lattice` faces): every cell splits
    into 2^refinement bins per axis, and a bin's key is its flat index on
    that lattice, x fastest. The valid particles are binned block by block
    (`_blocks`); only those in cells around strays enter the table, sorted by
    key, so a bin's candidates are found by `searchsorted` and only occupied
    bins take memory. `_ring_search` expands rings of bins around each
    stray's bin, clipped to its 3x3x3 cells. A stray retires once its best
    d^2 is strictly below the squared distance to the nearest unsearched bin
    face (an equal candidate could hold a lower index), or when its cells are
    exhausted; the bound uses the faces the positions were binned by, so no
    nearer candidate is skipped.
    """
    best = np.full(strays.size, -1, dtype=np.int64)
    s = 2**refinement
    shape = np.array(grid.shape)
    _, faces = subcell_lattice(grid, refinement)
    dims = tuple(shape * s)  # the seed lattice
    last = shape * s - 1
    xs = pre_pos[strays]
    sbin, sin = locate_bins(faces, xs)
    rows = np.nonzero(sin)[0]
    if rows.size == 0 or not valid.any():
        return best
    sbin, xs = sbin[rows], xs[rows]
    scell = sbin // s
    blo = np.maximum(scell - 1, 0) * s  # bins of the 3x3x3 cells, clipped to the grid
    bhi = np.minimum(scell + 2, shape) * s - 1

    # the table takes only the cells around strays: mark stray cells, dilate by one
    region = np.zeros(grid.shape, dtype=bool)
    region[scell[:, 0], scell[:, 1], scell[:, 2]] = True
    for d in range(3):  # in place: numpy buffers overlapping ufunc operands
        along = np.moveaxis(region, d, 0)
        along[1:] |= along[:-1]
        along[:-1] |= along[1:]

    # the region's candidates in key order (by index within a key), binned one
    # block at a time; each O(candidates) temporary goes as soon as it is used
    keys, ids = [], []
    for part in _blocks(valid):
        cbin, cin = locate_bins(faces, pre_pos[part])
        part, cbin = part[cin], cbin[cin]
        near = region[tuple((cbin // s).T)]
        keys.append(np.ravel_multi_index(tuple(cbin[near].T), dims, order="F"))
        ids.append(part[near])
    key = np.concatenate(keys)
    del keys
    order = np.argsort(key, kind="stable")
    key = key[order]
    cands = np.concatenate(ids)[order]
    del ids, order
    if cands.size == 0:  # the lookup in `scan` needs an occupied key
        return best
    # the occupied keys ascending; those of occupied[k] are cands[ends[k]:ends[k + 1]]
    change = np.ones(key.size + 1, dtype=bool)
    change[1:-1] = key[1:] != key[:-1]
    ends = np.flatnonzero(change)
    occupied = key[ends[:-1]]
    del key, change

    def scan(part, offsets):
        """The candidates of the bins at `offsets` around the strays `part`."""
        bins = sbin[part][:, None, :] + offsets[None, :, :]
        ok = np.all((bins >= blo[part][:, None, :]) & (bins <= bhi[part][:, None, :]), axis=2)
        hit = np.nonzero(ok.ravel())[0]
        key = np.ravel_multi_index(tuple(bins.reshape(-1, 3)[hit].T), dims, order="F")
        # the last occupied key at or below each key; -1 (below them all)
        # wraps to the largest one, which cannot equal the key either
        k = np.searchsorted(occupied, key, side="right") - 1
        first = ends[k]
        n = np.where(occupied[k] == key, ends[k + 1] - first, 0)
        owner = np.repeat(part[hit // offsets.shape[0]], n)
        at = cands[np.arange(owner.size) + np.repeat(first - (np.cumsum(n) - n), n)]
        return owner, np.sum((pre_pos[at] - xs[owner]) ** 2, axis=1), at

    def retired(todo, ring, d2):
        """Strays whose best d^2 is below the squared distance to the nearest
        face of an unsearched bin in the clip, or with no such bin left."""
        sb, x = sbin[todo], xs[todo]
        bound = np.full(todo.size, np.inf)
        left = np.zeros(todo.size, dtype=bool)
        for d in range(3):
            up = sb[:, d] + ring + 1
            down = sb[:, d] - ring - 1
            for more, gap in (
                (up <= bhi[todo, d], faces[d][np.minimum(up, last[d])] - x[:, d]),
                (down >= blo[todo, d], x[:, d] - faces[d][np.maximum(down + 1, 0)]),
            ):
                bound = np.where(more, np.minimum(bound, gap * gap), bound)
                left |= more
        return ~left | (d2 < bound)

    best[rows] = _ring_search(rows.size, scan, retired)
    return best


def _ring_offsets(ring: int) -> np.ndarray:
    """Cell offsets (k, 3) at Chebyshev distance exactly `ring`, built face by face."""
    if ring == 0:
        return np.zeros((1, 3), dtype=np.int64)
    full = np.arange(-ring, ring + 1)
    inner = np.arange(-ring + 1, ring)
    parts = []
    # the two faces normal to `axis`; the other two axes span (a, b)
    for axis, a, b in ((2, full, full), (1, full, inner), (0, inner, inner)):
        u, v = np.meshgrid(a, b, indexing="ij")
        others = [d for d in range(3) if d != axis]
        for side in (-ring, ring):
            face = np.empty((u.size, 3), dtype=np.int64)
            face[:, axis] = side
            face[:, others[0]] = u.ravel()
            face[:, others[1]] = v.ravel()
            parts.append(face)
    return np.concatenate(parts)


def _nearest_capable_cells(
    grid, capable: np.ndarray, start: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Flat index of the liquid-capable cell nearest to each point (-1 if none).

    `_ring_search` expands rings of cells around `start`, the (n, 3) cells
    containing the points clamped into the domain (ring 0 matters when the
    point lies outside). Within the first ring that holds a capable cell, the
    smallest center distance to the point wins, ties by flat index. Without
    any capable cell no ring is scanned.
    """
    if not capable.any():
        return np.full(x.shape[0], -1, dtype=np.int64)
    shape = np.array(grid.shape)
    cx, cy, cz = grid.centers

    def scan(part, offsets):
        """The capable cells at `offsets` around the cells of the points `part`."""
        cells = (start[part][:, None, :] + offsets[None, :, :]).reshape(-1, 3)
        inb = np.all((cells >= 0) & (cells < shape), axis=1)
        flat = np.where(inb, flat_indices(grid, cells), 0)
        hit = np.nonzero(inb & capable[flat])[0]
        owner = part[hit // offsets.shape[0]]
        hc = cells[hit]
        centers = np.stack([cx[hc[:, 0]], cy[hc[:, 1]], cz[hc[:, 2]]], axis=1)
        return owner, np.sum((centers - x[owner]) ** 2, axis=1), flat[hit]

    # a point retires at its first ring with a capable cell; the rings around
    # any cell cover the domain, so every point retires
    return _ring_search(x.shape[0], scan, lambda todo, ring, d2: d2 < np.inf)


def _slab_entry_points(x, center, lo, hi) -> np.ndarray:
    """Row-wise entry point of the segment x -> center into the box [lo, hi] (slab method)."""
    d = center - x
    moving = d != 0.0  # where d == 0 the center is inside the slab on that axis
    step = np.where(moving, d, 1.0)
    t_near = np.minimum((lo - x) / step, (hi - x) / step)
    t_in = np.where(moving, t_near, 0.0).max(axis=1, initial=0.0)
    return x + np.clip(t_in, 0.0, 1.0)[:, None] * d
