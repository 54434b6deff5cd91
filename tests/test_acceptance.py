"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -rA tests/test_acceptance.py` (or `-s`) to see the lines.
"""

from __future__ import annotations

import functools

import numpy as np

from flowsep.advect import (
    AdvectionConfig,
    advance_interval,
    phase_violations,
    seed_particles,
)
from flowsep.extract import edge_incidence, is_watertight, smooth_meshes
from flowsep.grid import CellField, TimeStep, uniform_grid
from flowsep.labeling import PartitionLayout, label_features, label_features_partitioned
from flowsep.plic import anchor_corner
from flowsep.runtime import PipelineConfig, run_pipeline

from .oracles import (
    count_components,
    first_disconnection_step,
    points_in_mesh,
    rotate_about_z,
    solve_patch_offset,
    subvoxel_fraction,
    truncated_volume,
    union_find_label,
)

UNIT_LO = np.zeros(3)
UNIT_HI = np.ones(3)


def criterion(num, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:02d} FAIL  {title}")
                raise
            print(f"criterion {num:02d} PASS  {title}" + (f"  [{detail}]" if detail else ""))

        return run

    return wrap


@criterion(1, "PLIC volume consistency vs counting oracle")
def test_criterion_01_plic_volume_consistency():
    rng = np.random.default_rng(101)
    worst_solve = 0.0
    worst_count = 0.0
    for _ in range(1000):
        v = rng.normal(size=3)
        n = v / np.linalg.norm(v)
        f = rng.uniform(1e-3, 1.0 - 1e-3)
        a = anchor_corner(UNIT_LO, UNIT_HI, n)
        l = solve_patch_offset(UNIT_LO, UNIT_HI, n, f)
        vol = truncated_volume(UNIT_LO, UNIT_HI, n, a, l)
        worst_solve = max(worst_solve, abs(vol - f))
        # subvoxel counting oracle; 512^3 keeps the counter's own quantization
        # noise inside the stated tolerance (see decisions ledger)
        counted = subvoxel_fraction(n, a, l, n_sub=512)
        worst_count = max(worst_count, abs(vol - counted))
    assert worst_solve <= 1e-6
    assert worst_count <= 2e-4
    return f"max|V-f|={worst_solve:.2e}, max|V-count|={worst_count:.2e}"


@criterion(2, "seed-count law on a fully liquid 8^3 block")
def test_criterion_02_seed_count_law():
    g = uniform_grid(8)
    step = TimeStep(
        time=0.0,
        f=CellField(g, np.ones(g.ncells)),
        u=CellField(g, np.zeros((3, g.ncells)), ncomp=3),
    )
    counts = {}
    for r in (0, 1, 2):
        counts[r] = len(seed_particles(step, refinement=r))
        assert counts[r] == 512 * 8**r
    return f"counts={counts}"


@criterion(3, "RK4 observed convergence order in [3.5, 4.5]")
def test_criterion_03_rk4_order(rotation32):
    ds, _ = rotation32
    rng = np.random.default_rng(103)
    seeds = np.array([0.5, 0.5, 0.5]) + rng.uniform(-0.05, 0.05, size=(16, 3))
    seeds[:, 0] += 0.25
    errors = []
    for substeps in (2, 4, 8, 16):
        from .test_advect import probes_particle_set

        ps = probes_particle_set(seeds)
        cfg = AdvectionConfig(corrector="off", substeps=substeps)
        for k in range(len(ds) - 1):
            advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
        exact = rotate_about_z(seeds, (0.5, 0.5, 0.5), 2.0 * np.pi)
        errors.append(np.max(np.linalg.norm(ps.pos - exact, axis=1)))
    orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(3)]
    for order in orders:
        assert 3.5 <= order <= 4.5
    return "orders=" + ", ".join(f"{o:.2f}" for o in orders)


@criterion(4, "CCL parity: 100 random masks, partitioned == serial == oracle")
def test_criterion_04_ccl_parity():
    rng = np.random.default_rng(104)
    g = uniform_grid(32)
    layout = PartitionLayout(counts=(2, 2, 2), shape=g.shape)
    zero_u = np.zeros((3, g.ncells))
    for trial in range(100):
        mask = rng.random((32, 32, 32)) < rng.uniform(0.15, 0.5)
        step = TimeStep(
            time=0.0,
            f=CellField(g, mask.astype(float).reshape(-1, order="F")),
            u=CellField(g, zero_u, ncomp=3),
        )
        serial = label_features(step)
        part = label_features_partitioned(step, 0.0, layout)
        assert np.array_equal(serial.labels, part.labels)
        oracle_labels, oracle_count = union_find_label(mask)
        assert serial.count == oracle_count
        assert np.array_equal(serial.view3d(), oracle_labels)
    return "100 masks"


@criterion(5, "split-sphere end-to-end: features, table, meshes, S timestamp")
def test_criterion_05_split_sphere_end_to_end(split64, split64_result):
    ds, _ = split64
    result = split64_result
    # exactly 2 features at the final step
    final_mask = ds.steps[-1].f.view3d() > 0
    assert count_components(final_mask) == 2
    assert result.report.intervals[-1].features == 2
    # contribution rows within 2% of half the seeds
    total = result.report.particles
    counts = result.table.counts()
    for pair in ((0, 0), (0, 1)):
        assert pair in counts
        assert abs(counts[pair] - total / 2) <= 0.02 * (total / 2)
    # watertight boundaries
    assert len(result.b_meshes) == 2
    for mesh in result.b_meshes:
        assert is_watertight(mesh)
    # a separation surface within one cell width of the analytic split plane
    cell = 1.0 / 64
    assert result.s_meshes
    near_plane = [
        m for m in result.s_meshes if np.all(np.abs(m.vertices[:, 0] - 0.5) <= cell)
    ]
    assert near_plane
    # S timestamp equals the first interval where the voxel halves disconnect
    masks = [s.f.view3d() > 0 for s in ds.steps]
    first_idx = first_disconnection_step(masks)
    assert first_idx is not None
    t_expected = ds.steps[first_idx].time
    t_earliest = min(m.timestamp for m in result.s_meshes)
    assert t_earliest == t_expected
    return f"counts={counts[(0, 0)]}/{counts[(0, 1)]}, S at t={t_earliest:.4f}"


@criterion(6, "dt=0 degeneracy: B bounds whole features, no cross-feature B")
def test_criterion_06_dt_zero(split32):
    _, manifest = split32
    cfg = PipelineConfig(
        manifest=manifest, t0=9, tf=9, advection=AdvectionConfig(refinement=1)
    )
    result = run_pipeline(cfg)
    pairs = [(i, j) for i, j, _, _ in result.table.rows]
    assert pairs == [(0, 0), (1, 1)]
    assert result.s_meshes == []
    assert len(result.b_meshes) == 2
    for mesh in result.b_meshes:
        inside = points_in_mesh(result.particles.seeds, mesh.vertices, mesh.triangles)
        member = result.final_labeling.labels == mesh.label
        assert np.array_equal(inside, member)
    return f"{len(result.particles)} seeds enclosed exactly"


@criterion(7, "corrector efficacy at 8x reduced step count")
def test_criterion_07_corrector_efficacy(split_coarse):
    ds, manifest = split_coarse
    results = {}
    for mode in ("off", "stages-2-3", "full"):
        cfg = PipelineConfig(
            manifest=manifest,
            t0=0,
            tf=len(ds) - 1,
            advection=AdvectionConfig(refinement=1, corrector=mode),
        )
        results[mode] = run_pipeline(cfg)
    final = ds.steps[-1]
    bad_off = phase_violations(results["off"].particles, final).size
    bad_s23 = phase_violations(results["stages-2-3"].particles, final).size
    bad_full = phase_violations(results["full"].particles, final).size
    assert bad_off > 0
    assert bad_full == 0
    assert bad_s23 == 0
    # corrections localized near the split plane (within 2 cells)
    ps = results["full"].particles
    touched = ps.eps > 0
    assert touched.any()
    assert np.all(np.abs(ps.seeds[touched, 0] - 0.5) <= 2.0 / 64 + 1e-12)
    eps_full = float(results["full"].particles.eps.sum())
    eps_s23 = float(results["stages-2-3"].particles.eps.sum())
    return (
        f"off={bad_off} strays, full=0, s23=0; total eps full={eps_full:.4g} "
        f"s23={eps_s23:.4g} ({'s23 > full' if eps_s23 > eps_full else 's23 <= full'})"
    )


@criterion(8, "merge-then-split: intermediate S, re-merged final table")
def test_criterion_08_merge_then_split(merge48, merge48_result):
    ds, _ = merge48
    result = merge48_result
    # a split was detected and produced a time-stamped surface strictly inside the run
    assert result.report.splits
    assert result.s_meshes
    t0, tf = ds.steps[0].time, ds.steps[-1].time
    assert all(t0 < m.timestamp <= tf for m in result.s_meshes)
    # the contribution table at t_F shows the re-merged single feature
    valid_pairs = {(i, j) for i, j, _, _ in result.table.rows if j >= 0}
    assert valid_pairs == {(0, 0)}
    # closed-loop analysis over the labeling history: two segments mid-run,
    # one segment again afterwards
    history = [np.unique(sl.labels[sl.labels >= 0]).size for sl in result.labelings]
    assert history[0] == 1
    assert max(history) == 2
    assert history[-1] == 1
    split_at = next(k for k, n in enumerate(history) if n == 2)
    merged_back = next(k for k in range(split_at, len(history)) if history[k] == 1)
    assert split_at < merged_back
    return f"split at step {split_at}, re-merged by step {merged_back}"


@criterion(9, "mode equivalence: serial vs partitioned bitwise")
def test_criterion_09_mode_equivalence(
    split64_result, split64_partitioned_result, merge48_result, merge48_partitioned_result
):
    for serial, part in (
        (split64_result, split64_partitioned_result),
        (merge48_result, merge48_partitioned_result),
    ):
        assert len(serial.labelings) == len(part.labelings)
        for a, b in zip(serial.labelings, part.labelings):
            assert np.array_equal(a.labels, b.labels)
        assert serial.table.rows == part.table.rows
        assert np.array_equal(serial.particles.pos, part.particles.pos)
        assert np.array_equal(serial.particles.eps, part.particles.eps)
    return "split-sphere and merge-then-split"


@criterion(10, "mesh topology: B watertight, S open, smoothing preserves counts")
def test_criterion_10_mesh_topology(split64_result, merge48_result):
    n_b = n_s = 0
    for result in (split64_result, merge48_result):
        for mesh in result.b_meshes:
            _, counts = edge_incidence(mesh)
            assert np.all(counts == 2)
            n_b += 1
        for mesh in result.s_meshes:
            _, counts = edge_incidence(mesh)
            assert counts.max() <= 2
            assert np.any(counts == 1)
            n_s += 1
        for mesh in result.b_meshes + result.s_meshes:
            smoothed = next(smooth_meshes([mesh], iterations=10, lam=0.5))
            assert smoothed.vertices.shape == mesh.vertices.shape
            assert np.array_equal(smoothed.triangles, mesh.triangles)
    return f"{n_b} boundary + {n_s} separation meshes"
