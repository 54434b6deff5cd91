"""Output checks and accuracy figures for one finished pipeline run.

Every check returns a message on failure; an empty list means the run is
correct. The checks need the run's dataset in memory, so callers take their
memory and time measurements before loading it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from flowsep import label_features, phase_violations
from flowsep.extract import edge_incidence, is_watertight
from flowsep.segment import read_table

from workloads import DROPLETS, ORBIT, SPLIT, Workload

VOLUME_RTOL = 1e-9


def accuracy(result, grid) -> dict[str, float]:
    """Volume lost to j = -1 rows, and mean per-seed correction in cell widths."""
    cell_width = float(min(w.min() for w in grid.widths))
    seeded = float(result.particles.seed_volume.sum())
    lost = sum(v for _, j, _, v in result.table.rows if j == -1)
    return {
        "lost_volume_frac": lost / seeded if seeded else 0.0,
        "mean_eps_cells": float(result.particles.eps.mean()) / cell_width,
    }


def _conserves_volume(result) -> list[str]:
    errors = []
    init = result.initial_labeling.labels
    vol = result.particles.seed_volume
    per_i: dict[int, tuple[int, float]] = {}
    for i, _, c, v in result.table.rows:
        n0, v0 = per_i.get(i, (0, 0.0))
        per_i[i] = (n0 + c, v0 + v)
    for i in np.unique(init):
        seeded = float(vol[init == i].sum())
        count, got = per_i.get(int(i), (0, 0.0))
        lost = abs(got - seeded) > VOLUME_RTOL * max(seeded, 1e-300)
        if count != int(np.sum(init == i)) or lost:
            errors.append(f"feature {i}: table holds {got!r} of seeded volume {seeded!r}")
    return errors


def _meshes(result) -> list[str]:
    errors = []
    for m in result.b_meshes:
        if not is_watertight(m):
            errors.append(f"B mesh {m.label} is not watertight")
    for m in result.s_meshes:
        _, counts = edge_incidence(m)
        if not np.any(counts == 1):
            errors.append(f"S mesh {m.label} at t={m.timestamp} has no open-boundary edge")
    return errors


def _artifacts(result, output: Path) -> list[str]:
    errors = []
    for name in ("contributions.tsv", "epsilon.tsv", "report.tsv", "meshes/meshes.manifest"):
        if not (output / name).is_file():
            errors.append(f"artifact {name} missing")
    if errors:
        return errors
    if read_table(output / "contributions.tsv").rows != result.table.rows:
        errors.append("contributions.tsv does not round-trip the contribution table")
    eps_lines = (output / "epsilon.tsv").read_text().count("\n")
    if eps_lines != len(result.particles) + 1:
        errors.append(f"epsilon.tsv has {eps_lines} lines for {len(result.particles)} seeds")
    entries = (output / "meshes/meshes.manifest").read_text().splitlines()[1:]
    if len(entries) != len(result.b_meshes) + len(result.s_meshes):
        errors.append(f"meshes.manifest lists {len(entries)} meshes")
    for ln in entries:
        name = ln.split("\t")[0]
        if not (output / "meshes" / name).is_file():
            errors.append(f"mesh file {name} missing")
    return errors


def _workload(workload: Workload, result, ds) -> list[str]:
    final = result.final_labeling.labels
    n_final = np.unique(final[final >= 0]).size
    errors = []
    if workload is SPLIT:
        if n_final != 2:
            errors.append(f"ends with {n_final} features, expected 2")
        counts = [label_features(step).count for step in ds.steps]
        first = next((k for k, c in enumerate(counts) if c >= 2), None)
        stamps = [m.timestamp for m in result.s_meshes]
        if first is None or not stamps:
            errors.append("no disconnection step or no S mesh")
        elif min(stamps) != ds.steps[first].time:
            errors.append(
                f"earliest S timestamp {min(stamps)!r} is not the first "
                f"disconnection time {ds.steps[first].time!r}"
            )
    elif workload is ORBIT:
        if n_final != 1:
            errors.append(f"ends with {n_final} features, expected 1")
        if sum(result.report.handoffs) == 0:
            errors.append("no particle handoffs")
    elif workload is DROPLETS:
        if len(result.b_meshes) != n_final:
            errors.append(f"{len(result.b_meshes)} B meshes for {n_final} final labels")
        if not result.report.splits:
            errors.append("no split events")
    else:
        errors.append(f"no checks for workload {workload.name}")
    return errors


def check_run(workload: Workload, result, ds, output: Path) -> list[str]:
    final_step = ds.steps[result.config.tf]
    errors = _conserves_volume(result)
    bad = phase_violations(result.particles, final_step, result.config.tau)
    if bad.size:
        errors.append(f"{bad.size} alive particles violate the phase at the final step")
    errors += _meshes(result)
    errors += _artifacts(result, output)
    errors += _workload(workload, result, ds)
    return errors
