"""Particle seeding, RK4 flow-map integration, and the phase-consistency corrector.

Particles represent the feature volume: each cell with f > tau is subdivided
r times into (2^3)^r subcells and a particle is seeded at every subcell center
that passes the phase test. Integration uses classic RK4 between consecutive
stored steps with linear time interpolation of the velocity. After each
interval an optional corrector moves stray particles back into the feature
phase and accumulates the introduced displacement per particle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid import (
    TimeStep,
    flat_indices,
    locate_cells,
    sample_velocity,
)
from .plic import DegenerateNormalError, is_liquid_many, project_to_patch, reconstruct_patch

CORRECTOR_MODES = ("off", "stages-2-3", "full")
# relative inward nudge so a particle placed on a cell face is unambiguously
# inside the target cell under half-open cell intervals
BOUNDARY_NUDGE = 1e-9


class PhaseConsistencyError(RuntimeError):
    """The corrector failed to return every alive particle to the feature phase."""


@dataclass
class AdvectionConfig:
    refinement: int = 0
    substeps: int = 1
    corrector: str = "full"
    trail_stride: int = 8
    direction: str = "forward"

    def __post_init__(self):
        if self.refinement < 0:
            raise ValueError("refinement must be >= 0")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")
        if self.corrector not in CORRECTOR_MODES:
            raise ValueError(f"corrector must be one of {CORRECTOR_MODES}")
        if self.trail_stride < 1:
            raise ValueError("trail stride must be >= 1")
        if self.direction not in ("forward", "backward"):
            raise ValueError("direction must be 'forward' or 'backward'")


@dataclass
class TrailFrame:
    time: float
    positions: np.ndarray
    alive: np.ndarray
    labels: np.ndarray | None = None


@dataclass
class ParticleSet:
    """Seed positions, current state, and per-particle correction budget.

    Particle indices are stable for the whole run; dead particles keep their
    arrays but are excluded from integration and segmentation.
    """

    seeds: np.ndarray  # (n, 3) seed positions s_p
    lattice: np.ndarray  # (n, 3) global subcell indices of the seeds
    pos: np.ndarray  # (n, 3) current positions
    alive: np.ndarray  # (n,) bool
    label: np.ndarray  # (n,) int32, -1 until assigned
    eps: np.ndarray  # (n,) accumulated correction displacement
    seed_volume: np.ndarray  # (n,) represented volume per seed
    refinement: int
    trail: list[TrailFrame] = field(default_factory=list)
    intervals_done: int = 0

    def __len__(self) -> int:
        return self.seeds.shape[0]

    def record_trail(self, time: float) -> TrailFrame:
        frame = TrailFrame(time=time, positions=self.pos.copy(), alive=self.alive.copy())
        self.trail.append(frame)
        return frame


def seed_particles(step: TimeStep, refinement: int = 0, tau: float = 0.0) -> ParticleSet:
    """Seed subcell centers of every cell with f > tau that pass the phase test.

    Pure-liquid cells take all (2^3)^r seeds; interface cells keep only centers
    on the liquid side of the PLIC patch.
    """
    grid = step.grid
    r = int(refinement)
    s = 2**r
    nx, ny, _ = grid.shape
    fvals = step.f.values
    cand_cells = np.nonzero(fvals > tau)[0]

    # subcell offsets within a cell, x-fastest order
    oi, oj, ok = np.meshgrid(np.arange(s), np.arange(s), np.arange(s), indexing="ij")
    sub_idx = np.stack(
        [oi.reshape(-1, order="F"), oj.reshape(-1, order="F"), ok.reshape(-1, order="F")],
        axis=1,
    )

    seeds = []
    lattice = []
    volumes = []
    cache: dict = {}
    f3 = step.f.view3d()
    for flat in cand_cells:
        i = int(flat % nx)
        j = int((flat // nx) % ny)
        k = int(flat // (nx * ny))
        lo, hi = grid.cell_bounds((i, j, k))
        w = hi - lo
        centers = lo + (sub_idx + 0.5) / s * w
        fc = float(f3[i, j, k])
        if fc >= 1.0:
            keep = np.ones(centers.shape[0], dtype=bool)
        else:
            try:
                patch = reconstruct_patch(step, (i, j, k))
                cache[(i, j, k)] = patch
                d = (centers - patch.anchor) @ patch.normal
                keep = d < patch.offset
            except DegenerateNormalError:
                keep = np.full(centers.shape[0], fc > 0.5)
        if not keep.any():
            continue
        seeds.append(centers[keep])
        lattice.append(np.array([i, j, k]) * s + sub_idx[keep])
        volumes.append(np.full(int(keep.sum()), grid.cell_volume((i, j, k)) / s**3))

    if seeds:
        seeds_arr = np.concatenate(seeds)
        lattice_arr = np.concatenate(lattice).astype(np.int64)
        vol_arr = np.concatenate(volumes)
    else:
        seeds_arr = np.zeros((0, 3))
        lattice_arr = np.zeros((0, 3), dtype=np.int64)
        vol_arr = np.zeros(0)
    n = seeds_arr.shape[0]
    return ParticleSet(
        seeds=seeds_arr,
        lattice=lattice_arr,
        pos=seeds_arr.copy(),
        alive=np.ones(n, dtype=bool),
        label=np.full(n, -1, dtype=np.int32),
        eps=np.zeros(n),
        seed_volume=vol_arr,
        refinement=r,
    )


def rk4_positions(
    step_from: TimeStep, step_to: TimeStep, pts: np.ndarray, substeps: int = 1
) -> np.ndarray:
    """Integrate points over [step_from.time, step_to.time] in `substeps` RK4 steps.

    The step order defines the integration direction; velocity samples always
    interpolate between the two stored fields in chronological order.
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
        k2 = sample_velocity(step_a, step_b, x + 0.5 * h * k1, t + 0.5 * h)
        k3 = sample_velocity(step_a, step_b, x + 0.5 * h * k2, t + 0.5 * h)
        k4 = sample_velocity(step_a, step_b, x + h * k3, t + h)
        x += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return x


def advance_interval(
    particles: ParticleSet,
    step_from: TimeStep,
    step_to: TimeStep,
    config: AdvectionConfig,
    patch_cache: dict | None = None,
    tau: float = 0.0,
    batches: list[np.ndarray] | None = None,
) -> ParticleSet:
    """Integrate all alive particles over one stored-data interval.

    `batches` are particle-id arrays integrated one at a time (default: one
    batch of all particles), which bounds the RK4 temporaries by the batch
    size. Particles leaving the domain are marked dead (never corrected). With
    the corrector enabled, stray particles are repositioned afterwards and the
    phase invariant re-checked.
    """
    grid = step_from.grid
    if batches is None:
        batches = [np.arange(len(particles))]
    pre_pos = particles.pos.copy()
    for ids in batches:
        idx = ids[particles.alive[ids]]
        if idx.size == 0:
            continue
        pos = rk4_positions(step_from, step_to, particles.pos[idx], config.substeps)
        particles.pos[idx] = pos
        inside = np.all((pos >= grid.lo) & (pos <= grid.hi), axis=1)
        particles.alive[idx[~inside]] = False

    if config.corrector != "off":
        cache = {} if patch_cache is None else patch_cache
        correct_strays(particles, pre_pos, step_from, step_to, config, tau, cache)

    particles.intervals_done += 1
    if particles.intervals_done % config.trail_stride == 0:
        particles.record_trail(step_to.time)
    return particles


def phase_violations(
    particles: ParticleSet, step: TimeStep, tau: float = 0.0, cache: dict | None = None
) -> np.ndarray:
    """Indices of alive particles whose position fails the phase test."""
    idx = np.nonzero(particles.alive)[0]
    if idx.size == 0:
        return idx
    ok = is_liquid_many(step, particles.pos[idx], tau, cache)
    return idx[~ok]


def _cell_buckets(grid, positions: np.ndarray, which: np.ndarray) -> dict[tuple, list[int]]:
    idx, inside = locate_cells(grid, positions[which])
    buckets: dict[tuple, list[int]] = {}
    for row, p in enumerate(which):
        if inside[row]:
            buckets.setdefault(tuple(idx[row]), []).append(int(p))
    return buckets


def correct_strays(
    particles: ParticleSet,
    pre_pos: np.ndarray,
    step_from: TimeStep,
    step_to: TimeStep,
    config: AdvectionConfig,
    tau: float,
    cache: dict,
) -> np.ndarray:
    """Apply the three-stage corrector to every stray alive particle.

    Stage candidates and tie-breaks are deterministic (distance, then index),
    and stage 1 reads only the frozen pre-interval particle snapshot.
    Returns the indices that were corrected.
    """
    grid = step_from.grid
    alive_idx = np.nonzero(particles.alive)[0]
    if alive_idx.size == 0:
        return alive_idx
    valid = np.zeros(len(particles), dtype=bool)
    valid[alive_idx] = is_liquid_many(step_to, particles.pos[alive_idx], tau, cache)
    strays = alive_idx[~valid[alive_idx]]
    if strays.size == 0:
        return strays

    buckets = None
    if config.corrector == "full":
        candidates = np.nonzero(particles.alive & valid)[0]
        buckets = _cell_buckets(grid, pre_pos, candidates)

    for p in strays:
        _correct_one(particles, int(p), pre_pos, step_to, config, tau, cache, buckets)

    # phase invariant: every alive particle is phase-consistent after correction
    still = phase_violations(particles, step_to, tau, cache)
    if still.size:
        raise PhaseConsistencyError(
            f"corrector left {still.size} phase-inconsistent particles (first: {still[:5]})"
        )
    return strays


def _correct_one(particles, p, pre_pos, step_to, config, tau, cache, buckets) -> None:
    grid = step_to.grid
    x = particles.pos[p]
    eps = 0.0

    # stage 1: displacement vector of the nearest phase-consistent neighbor,
    # searched in the 3x3x3 cell neighborhood of the pre-step position
    x1 = x
    if config.corrector == "full" and buckets is not None:
        idx, inside = locate_cells(grid, pre_pos[p][None, :])
        if inside[0]:
            ci, cj, ck = idx[0]
            cand: list[int] = []
            for dk in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    for di in (-1, 0, 1):
                        cand.extend(buckets.get((ci + di, cj + dj, ck + dk), ()))
            if cand:
                cand_arr = np.array(sorted(cand))
                d2 = np.sum((pre_pos[cand_arr] - pre_pos[p]) ** 2, axis=1)
                best = cand_arr[int(np.argmin(d2))]  # argmin takes first -> lowest index
                dx = particles.pos[best] - pre_pos[best]
                x1 = pre_pos[p] + dx
                eps += float(np.linalg.norm(x1 - x))

    # stage 2: move to the boundary of the nearest cell with f > tau
    x2 = x1
    idx1, inside1 = locate_cells(grid, x1[None, :])
    in_feature_cell = bool(inside1[0]) and float(
        step_to.f.values[flat_indices(grid, idx1)[0]]
    ) > tau
    if not in_feature_cell:
        start_flat = _containing_or_clamped_cell(grid, x1)
        target = _nearest_feature_cell(step_to, x1, start_flat, tau)
        if target is None:
            # feature vanished from the whole domain; the particle cannot be
            # corrected and is dropped
            particles.alive[p] = False
            particles.eps[p] += eps
            return
        lo, hi = grid.cell_bounds(target)
        center = 0.5 * (lo + hi)
        entry = _slab_entry_point(x1, center, lo, hi)
        x2 = entry + BOUNDARY_NUDGE * (center - entry)
        eps += float(np.linalg.norm(x2 - x1))

    # stage 3: project onto the PLIC patch if outside it in an interface cell
    x3 = x2
    idx, inside = locate_cells(grid, x2[None, :])
    if inside[0]:
        cell = tuple(int(v) for v in idx[0])
        fc = float(step_to.f.values[grid.flat(cell)])
        if tau < fc < 1.0:
            try:
                patch = cache.get(cell)
                if patch is None:
                    patch = cache[cell] = reconstruct_patch(step_to, cell)
            except DegenerateNormalError:
                patch = None
            if patch is not None and patch.distance(x2) > patch.offset:
                x3 = project_to_patch(patch, x2)
                eps += float(np.linalg.norm(x3 - x2))

    particles.pos[p] = x3
    particles.eps[p] += eps


def _containing_or_clamped_cell(grid, x) -> int:
    """Flat index of the containing cell, clamping x into the domain box first."""
    xc = np.clip(x, grid.lo, grid.hi)
    idx, _ = locate_cells(grid, xc[None, :])
    return int(flat_indices(grid, idx)[0])


def _nearest_feature_cell(step, x, start_flat: int, tau: float):
    """Nearest cell with f > tau by expanding Chebyshev rings around the start cell.

    Within the first non-empty ring the cell with minimal center distance wins,
    ties by flat index. Returns None when the whole domain has no feature cell.
    """
    grid = step.grid
    nx, ny, nz = grid.shape
    f = step.f.values
    si = start_flat % nx
    sj = (start_flat // nx) % ny
    sk = start_flat // (nx * ny)
    max_ring = max(si, nx - 1 - si, sj, ny - 1 - sj, sk, nz - 1 - sk)
    cx, cy, cz = grid.centers
    # ring 0 matters when x was clamped into the domain from outside
    for ring in range(0, max_ring + 1):
        cells = _ring_cells(si, sj, sk, ring, nx, ny, nz)
        if cells.size == 0:
            continue
        flats = cells[:, 0] + nx * (cells[:, 1] + ny * cells[:, 2])
        hit = f[flats] > tau
        if not hit.any():
            continue
        cells = cells[hit]
        flats = flats[hit]
        centers = np.stack([cx[cells[:, 0]], cy[cells[:, 1]], cz[cells[:, 2]]], axis=1)
        d2 = np.sum((centers - x) ** 2, axis=1)
        best = np.lexsort((flats, d2))[0]
        return tuple(int(v) for v in cells[best])
    return None


def _ring_cells(si, sj, sk, ring, nx, ny, nz) -> np.ndarray:
    """In-bounds cells at Chebyshev distance exactly `ring` from (si, sj, sk)."""
    rng = np.arange(-ring, ring + 1)
    di, dj, dk = np.meshgrid(rng, rng, rng, indexing="ij")
    on_ring = np.maximum(np.abs(di), np.maximum(np.abs(dj), np.abs(dk))) == ring
    cells = np.stack([si + di[on_ring], sj + dj[on_ring], sk + dk[on_ring]], axis=1)
    ok = (
        (cells[:, 0] >= 0)
        & (cells[:, 0] < nx)
        & (cells[:, 1] >= 0)
        & (cells[:, 1] < ny)
        & (cells[:, 2] >= 0)
        & (cells[:, 2] < nz)
    )
    return cells[ok]


def _slab_entry_point(x, center, lo, hi) -> np.ndarray:
    """Entry point of the segment x -> center into the box [lo, hi] (slab method)."""
    d = center - x
    t_in = 0.0
    for ax in range(3):
        if d[ax] == 0.0:
            continue  # center is inside the slab on this axis
        t0 = (lo[ax] - x[ax]) / d[ax]
        t1 = (hi[ax] - x[ax]) / d[ax]
        if t0 > t1:
            t0, t1 = t1, t0
        t_in = max(t_in, t0)
    t_in = min(max(t_in, 0.0), 1.0)
    return x + t_in * d
