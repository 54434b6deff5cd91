"""Seed-label transfer, volumetric contribution tables, the per-seed epsilon
file, and split detection.

The label a particle acquires at a later time is transferred back to its seed
point; grouping seeds by (initial label, final label) estimates how the volume
of each initial feature is distributed among the features it turns into.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .advect import ParticleSet
from .grid import TimeStep, flat_indices, fraction_gradients, locate_cells, sample_cell_field
from .labeling import LabelField

GRADIENT_WALK_MAX = 8  # cap on the label search walk up the fraction gradient
EXPORT_ROWS = 1 << 14  # rows of epsilon.tsv and of OBJ files formatted per block


@dataclass
class SeedLabeling:
    """Per-seed feature label at one instant (-1 invalid/unlabeled)."""

    labels: np.ndarray  # (n,) int32
    time: float


@dataclass
class ContributionTable:
    """Rows (i, j, seed count, volume estimate), one per populated label pair."""

    rows: list[tuple[int, int, int, float]]

    def counts(self) -> dict[tuple[int, int], int]:
        return {(i, j): c for i, j, c, _ in self.rows}

    def volumes(self) -> dict[tuple[int, int], float]:
        return {(i, j): v for i, j, _, v in self.rows}


def assign_labels(
    particles: ParticleSet, labels: LabelField, step: TimeStep, tau: float = 0.0
) -> SeedLabeling:
    """Label of the feature bounding each alive particle; dead particles get -1.

    A particle in an unlabeled cell whose interpolated fraction still exceeds
    tau walks up the fraction gradient one face neighbor at a time (at most
    GRADIENT_WALK_MAX cells) and takes the first labeled cell's label; see
    `labels_for_positions`. The alive particles are labelled block by block
    (`ParticleSet.alive_blocks`); every particle walks alone, so the blocks
    never change a label.
    """
    if labels.grid is not step.grid:
        raise ValueError("label field and step must share one grid")
    out = np.full(len(particles), -1, dtype=np.int32)
    for idx in particles.alive_blocks():
        out[idx] = labels_for_positions(particles.pos[idx], labels, step, tau)
    return SeedLabeling(labels=out, time=step.time)


def labels_for_positions(
    pos: np.ndarray, labels: LabelField, step: TimeStep, tau: float = 0.0
) -> np.ndarray:
    """Feature label per position (-1 outside all features), gradient walk included.

    The stragglers (in the domain, in an unlabeled cell, interpolated f > tau)
    walk together. Each round moves every walker one cell along the axis of
    its cell's largest |grad f| component, toward higher f; a walker stops
    with -1 on a zero gradient or at the domain boundary, and with the label
    of the first labeled cell it enters.
    """
    grid = step.grid
    pos = np.atleast_2d(pos)
    idx, inside = locate_cells(grid, pos)
    lab = np.full(pos.shape[0], -1, dtype=np.int32)
    lab[inside] = labels.labels[flat_indices(grid, idx[inside])]

    rows = np.nonzero(inside & (lab < 0))[0]
    rows = rows[sample_cell_field(step.f, pos[rows]) > tau]
    cells = idx[rows]
    shape = np.array(grid.shape)
    for _ in range(GRADIENT_WALK_MAX):
        if rows.size == 0:
            break
        g = fraction_gradients(step, flat_indices(grid, cells))
        walker = np.arange(rows.size)
        axis = np.argmax(np.abs(g), axis=1)
        slope = g[walker, axis]
        cells[walker, axis] += np.where(slope > 0.0, 1, -1)
        moved = cells[walker, axis]
        go = (slope != 0.0) & (moved >= 0) & (moved < shape[axis])
        rows, cells = rows[go], cells[go]
        lab[rows] = labels.labels[flat_indices(grid, cells)]
        left = lab[rows] < 0
        rows, cells = rows[left], cells[left]
    return lab


def contribution_table(
    initial: SeedLabeling, final: SeedLabeling, particles: ParticleSet
) -> ContributionTable:
    """Group seeds by (initial label, final label).

    The volume estimate of a row is the summed represented volume of its seeds
    (cell volume / (2^3)^r per seed, derived from its lattice index, one
    `bincount` in seed order); invalid-label seeds are retained as
    j = -1 rows so mass loss stays visible. Rows are sorted by (i, j).
    """
    li = initial.labels.astype(np.int64)
    lf = final.labels.astype(np.int64)
    # labels are >= -1, so the key (i + 1) * base + (j + 1) sorts as (i, j)
    base = int(lf.max()) + 2 if lf.size else 1
    keys, inv, counts = np.unique(
        (li + 1) * base + (lf + 1), return_inverse=True, return_counts=True
    )
    # bincount sums every bin in array order, as a sequential scatter-add would
    vols = np.bincount(inv, weights=particles.seed_volume, minlength=keys.size)
    rows = list(
        zip((keys // base - 1).tolist(), (keys % base - 1).tolist(), counts.tolist(), vols.tolist())
    )
    return ContributionTable(rows=rows)


def write_table(table: ContributionTable, path) -> None:
    lines = ["i\tj\tcount\tvolume"]
    lines += [f"{i}\t{j}\t{c}\t{v!r}" for i, j, c, v in table.rows]
    Path(path).write_text("\n".join(lines) + "\n")


def read_table(path) -> ContributionTable:
    lines = Path(path).read_text().splitlines()
    rows = []
    for ln in lines[1:]:
        i, j, c, v = ln.split("\t")
        rows.append((int(i), int(j), int(c), float(v)))
    return ContributionTable(rows=rows)


def _repr_column(col: np.ndarray) -> list[str]:
    """`repr` of each float, called once per distinct float64 bit pattern.

    Keying on bits keeps -0.0 apart from 0.0, which compare equal.
    """
    bits, inv = np.unique(col.view(np.int64), return_inverse=True)
    text = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    return text[inv].tolist()


def write_epsilon(particles: ParticleSet, path) -> None:
    """`seed x y z eps` rows, one per seed in seed order; floats as `repr`.
    Each block of `EXPORT_ROWS` rows gathers its own seed positions."""
    with open(path, "w") as fh:
        fh.write("seed\tx\ty\tz\teps\n")
        for a in range(0, len(particles), EXPORT_ROWS):
            b = min(a + EXPORT_ROWS, len(particles))
            cols = [*particles.seed_positions(a, b).T, particles.eps[a:b]]
            text = [_repr_column(c) for c in cols]
            fh.write("\n".join(map("\t".join, zip(map(str, range(a, b)), *text))) + "\n")


@dataclass(frozen=True)
class SplitEvent:
    """A segment (seeds of one initial feature sharing a label at t_k) whose
    seeds carry two or more distinct valid labels at t_{k+1}."""

    initial_label: int
    group_label: int
    next_labels: tuple[int, ...]
    seed_indices: np.ndarray
    time_next: float


def detect_splits(
    prev: SeedLabeling, next_: SeedLabeling, initial: SeedLabeling
) -> list[SplitEvent]:
    """Splits between two consecutive labelings, grouped per initial feature."""
    if prev.labels.shape != next_.labels.shape or prev.labels.shape != initial.labels.shape:
        raise ValueError("labelings must cover the same particle set")
    li, lp, ln = initial.labels, prev.labels, next_.labels
    order = np.nonzero((li >= 0) & (lp >= 0))[0]
    if order.size == 0:
        return []
    # one sort by (initial, prev, next); a group is a run of equal (initial, prev)
    order = order[np.lexsort((ln[order], lp[order], li[order]))]
    gi, gp, gn = li[order], lp[order], ln[order]
    start = np.concatenate([[True], (gi[1:] != gi[:-1]) | (gp[1:] != gp[:-1])])
    starts = np.nonzero(start)[0]
    stops = np.append(starts[1:], order.size)
    first_next = (gn >= 0) & np.concatenate([[True], start[1:] | (gn[1:] != gn[:-1])])
    n_next = np.bincount(np.cumsum(start)[first_next] - 1, minlength=starts.size)
    events: list[SplitEvent] = []
    for g in np.nonzero(n_next >= 2)[0]:
        s, e = starts[g], stops[g]
        events.append(
            SplitEvent(
                initial_label=int(gi[s]),
                group_label=int(gp[s]),
                next_labels=tuple(gn[s:e][first_next[s:e]].tolist()),
                seed_indices=np.sort(order[s:e]),
                time_next=next_.time,
            )
        )
    return events
