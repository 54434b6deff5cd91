from __future__ import annotations

import numpy as np
import pytest

from flowsep.advect import (
    AdvectionConfig,
    ParticleSet,
    advance_interval,
    correct_strays,
    phase_violations,
    rk4_positions,
    seed_particles,
)
from flowsep.grid import CellField, TimeStep, uniform_grid

from .oracles import rotate_about_z, segment_box_entry


def make_step(grid, f, u, time=0.0):
    return TimeStep(time=time, f=CellField(grid, f), u=CellField(grid, u, ncomp=3))


def liquid_block_step(cells, time=0.0, u=(0.0, 0.0, 0.0)):
    g = uniform_grid(cells)
    uarr = np.tile(np.asarray(u, dtype=float)[:, None], (1, g.ncells))
    return make_step(g, np.ones(g.ncells), uarr, time)


def probes_particle_set(points):
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    return ParticleSet(
        seeds=pts.copy(),
        lattice=np.zeros((n, 3), dtype=np.int64),
        pos=pts.copy(),
        alive=np.ones(n, dtype=bool),
        label=np.full(n, -1, dtype=np.int32),
        eps=np.zeros(n),
        seed_volume=np.ones(n),
        refinement=0,
    )


class TestSeeding:
    def test_full_cell_r0_center(self):
        step = liquid_block_step(1)
        ps = seed_particles(step, refinement=0)
        assert len(ps) == 1
        assert np.allclose(ps.seeds[0], (0.5, 0.5, 0.5))

    def test_full_cell_r2_count(self):
        step = liquid_block_step(1)
        assert len(seed_particles(step, refinement=2)) == 64

    def test_seed_count_law_block(self):
        for cells, r in [(2, 0), (2, 1), (3, 2)]:
            step = liquid_block_step(cells)
            assert len(seed_particles(step, r)) == cells**3 * 8**r

    def test_interface_cell_half_seeded(self):
        # middle cell has an x-aligned patch at l = 0.5: only low-x subcell
        # centers are in the liquid
        g = uniform_grid((3, 1, 1), hi=(3.0, 1.0, 1.0))
        step = make_step(g, np.array([1.0, 0.5, 0.0]), np.zeros((3, 3)))
        ps = seed_particles(step, refinement=1)
        in_middle = (ps.seeds[:, 0] > 1.0) & (ps.seeds[:, 0] < 2.0)
        assert int(in_middle.sum()) == 4
        assert np.all(ps.seeds[in_middle, 0] < 1.5)

    def test_cells_below_tau_not_seeded(self):
        g = uniform_grid((2, 1, 1), hi=(2.0, 1.0, 1.0))
        step = make_step(g, np.array([0.3, 0.8]), np.zeros((3, 2)))
        ps = seed_particles(step, refinement=0, tau=0.5)
        assert len(ps) == 8**0 * 1
        assert ps.seeds[0, 0] > 1.0

    def test_lattice_coordinates(self):
        step = liquid_block_step(2)
        ps = seed_particles(step, refinement=1)
        assert len(ps) == 2**3 * 8
        # lattice spans 4 subcells per axis with every slot filled exactly once
        assert ps.lattice.min() == 0 and ps.lattice.max() == 3
        flat = ps.lattice[:, 0] + 4 * (ps.lattice[:, 1] + 4 * ps.lattice[:, 2])
        assert np.array_equal(np.sort(flat), np.arange(64))

    def test_seed_volume(self):
        step = liquid_block_step(2)
        ps = seed_particles(step, refinement=1)
        assert np.allclose(ps.seed_volume, (0.5**3) / 8.0)


class TestIntegration:
    def test_constant_field_exact_shift(self):
        step_a = liquid_block_step(4, time=0.0, u=(1.0, 0.0, 0.0))
        step_b = liquid_block_step(4, time=0.5, u=(1.0, 0.0, 0.0))
        ps = probes_particle_set([[0.25, 0.5, 0.5], [0.1, 0.3, 0.8]])
        advance_interval(ps, step_a, step_b, AdvectionConfig(corrector="off"))
        assert np.allclose(ps.pos[:, 0] - np.array([0.25, 0.1]), 0.5, atol=1e-14)
        assert np.allclose(ps.pos[:, 1:], [[0.5, 0.5], [0.3, 0.8]], atol=1e-14)

    def test_backward_reverses_constant_field(self):
        step_a = liquid_block_step(4, time=0.0, u=(0.7, -0.2, 0.1))
        step_b = liquid_block_step(4, time=0.5, u=(0.7, -0.2, 0.1))
        start = np.array([[0.25, 0.5, 0.5], [0.4, 0.6, 0.3]])
        fwd = rk4_positions(step_a, step_b, start, substeps=2)
        back = rk4_positions(step_b, step_a, fwd, substeps=2)
        assert np.allclose(back, start, atol=1e-14)

    def test_out_of_domain_particles_die(self):
        step_a = liquid_block_step(2, time=0.0, u=(2.0, 0.0, 0.0))
        step_b = liquid_block_step(2, time=1.0, u=(2.0, 0.0, 0.0))
        ps = probes_particle_set([[0.9, 0.5, 0.5], [0.1, 0.5, 0.5]])
        advance_interval(ps, step_a, step_b, AdvectionConfig(corrector="off"))
        assert not ps.alive[0]

    def test_rk4_convergence_order(self, rotation32):
        ds, _ = rotation32
        rng = np.random.default_rng(9)
        # probes on the orbiting ball, away from the clamped rim
        seeds = np.array([0.5, 0.5, 0.5]) + rng.uniform(-0.05, 0.05, size=(10, 3))
        seeds[:, 0] += 0.25
        errors = []
        for substeps in (2, 4, 8, 16):
            ps = probes_particle_set(seeds)
            cfg = AdvectionConfig(corrector="off", substeps=substeps)
            for k in range(len(ds) - 1):
                advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
            exact = rotate_about_z(seeds, (0.5, 0.5, 0.5), 2.0 * np.pi)
            errors.append(np.max(np.linalg.norm(ps.pos - exact, axis=1)))
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(3)]
        for order in orders:
            assert 3.5 <= order <= 4.5

    def test_trail_recording_stride(self):
        step_times = [liquid_block_step(2, time=float(t)) for t in range(5)]
        ps = probes_particle_set([[0.5, 0.5, 0.5]])
        cfg = AdvectionConfig(corrector="off", trail_stride=2)
        for k in range(4):
            advance_interval(ps, step_times[k], step_times[k + 1], cfg)
        assert [frame.time for frame in ps.trail] == [2.0, 4.0]


class TestCorrector:
    def test_valid_particles_untouched(self):
        step_a = liquid_block_step(4, time=0.0)
        step_b = liquid_block_step(4, time=1.0)
        ps = probes_particle_set([[0.5, 0.5, 0.5], [0.25, 0.75, 0.5]])
        advance_interval(ps, step_a, step_b, AdvectionConfig(corrector="full"))
        assert np.all(ps.eps == 0.0)

    def test_stage2_moves_to_nearest_cell_boundary(self):
        # 3-cell row, only the left cell is liquid; the stray sits one cell to
        # the right and must land on that cell's right face
        g = uniform_grid((3, 1, 1), hi=(3.0, 1.0, 1.0))
        step = make_step(g, np.array([1.0, 0.0, 0.0]), np.zeros((3, 3)), time=1.0)
        step0 = make_step(g, np.array([1.0, 0.0, 0.0]), np.zeros((3, 3)), time=0.0)
        ps = probes_particle_set([[1.6, 0.5, 0.5]])
        pre = np.array([[1.6, 0.5, 0.5]])
        corrected = correct_strays(
            ps, pre, step0, step, AdvectionConfig(corrector="stages-2-3"), 0.0, {}
        )
        assert corrected.tolist() == [0]
        entry = segment_box_entry((1.6, 0.5, 0.5), (0.5, 0.5, 0.5), (0, 0, 0), (1, 1, 1))
        assert np.allclose(ps.pos[0], entry, atol=1e-6)
        assert np.isclose(ps.eps[0], np.linalg.norm(entry - np.array([1.6, 0.5, 0.5])), atol=1e-6)
        assert phase_violations(ps, step).size == 0

    def test_stage3_projects_to_patch(self):
        # interface cell with an axis-aligned patch; x chosen so the projection
        # toward the anchor is pure x motion and eps equals the gap distance
        g = uniform_grid((3, 1, 1), hi=(3.0, 1.0, 1.0))
        f = np.array([1.0, 0.5, 0.0])
        step = make_step(g, f, np.zeros((3, 3)), time=1.0)
        step0 = make_step(g, f, np.zeros((3, 3)), time=0.0)
        ps = probes_particle_set([[1.75, 0.0, 0.0]])
        pre = ps.pos.copy()
        correct_strays(ps, pre, step0, step, AdvectionConfig(corrector="stages-2-3"), 0.0, {})
        assert np.allclose(ps.pos[0], (1.5, 0.0, 0.0), atol=1e-6)
        assert np.isclose(ps.eps[0], 0.25, atol=1e-6)

    def test_stage1_uses_nearest_neighbor_displacement(self):
        # two-cell liquid row: the left particle moves normally; the right one
        # is teleported into gas, and stage 1 reuses its neighbor's displacement
        g = uniform_grid((4, 1, 1), hi=(4.0, 1.0, 1.0))
        f = np.array([1.0, 1.0, 0.0, 0.0])
        u = np.zeros((3, 4))
        step0 = make_step(g, f, u, time=0.0)
        step1 = make_step(g, f, u, time=1.0)
        ps = probes_particle_set([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
        pre = ps.pos.copy()
        # simulate an integration that left particle 1 stranded in gas
        ps.pos[1] = [2.5, 0.5, 0.5]
        correct_strays(ps, pre, step0, step1, AdvectionConfig(corrector="full"), 0.0, {})
        # neighbor displacement is zero, so the stray returns to its pre position
        assert np.allclose(ps.pos[1], pre[1], atol=1e-12)
        assert np.isclose(ps.eps[1], 1.0, atol=1e-12)

    def test_phase_consistency_after_each_interval(self, split32):
        ds, _ = split32
        step0 = ds.steps[0]
        ps = seed_particles(step0, refinement=1)
        cfg = AdvectionConfig(corrector="full", refinement=1)
        for k in range(len(ds) - 1):
            cache: dict = {}
            advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg, cache)
            assert phase_violations(ps, ds.steps[k + 1], 0.0, cache).size == 0

    def test_eps_monotone_nondecreasing(self, split_coarse):
        ds, _ = split_coarse
        ps = seed_particles(ds.steps[0], refinement=0)
        cfg = AdvectionConfig(corrector="full")
        prev = ps.eps.copy()
        for k in range(len(ds) - 1):
            advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
            assert np.all(ps.eps >= prev - 1e-15)
            prev = ps.eps.copy()

    def test_determinism_bitwise(self, split32):
        ds, _ = split32
        runs = []
        for _ in range(2):
            ps = seed_particles(ds.steps[0], refinement=1)
            cfg = AdvectionConfig(corrector="full")
            for k in range(len(ds) - 1):
                advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
            runs.append((ps.pos.copy(), ps.eps.copy()))
        assert np.array_equal(runs[0][0], runs[1][0])
        assert np.array_equal(runs[0][1], runs[1][1])


class TestDisplacementField:
    def test_corrector_off_all_zero(self, split_coarse):
        ds, _ = split_coarse
        ps = seed_particles(ds.steps[0], refinement=0)
        cfg = AdvectionConfig(corrector="off")
        for k in range(len(ds) - 1):
            advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
        assert np.all(ps.eps == 0.0)
        assert ps.eps.shape == (len(ps),)
        assert ps.seeds.shape == ps.pos.shape

    def test_resolved_rotation_needs_no_correction(self, rotation32):
        # oracle: a direct validity scan never fires on the resolved flow
        ds, _ = rotation32
        ps = seed_particles(ds.steps[0], refinement=0)
        cfg = AdvectionConfig(corrector="full", substeps=4)
        for k in range(len(ds) - 1):
            advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
        assert np.all(ps.eps == 0.0)


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            AdvectionConfig(refinement=-1)
        with pytest.raises(ValueError):
            AdvectionConfig(substeps=0)
        with pytest.raises(ValueError):
            AdvectionConfig(corrector="sometimes")
        with pytest.raises(ValueError):
            AdvectionConfig(direction="sideways")


class TestSingleStrayCorrection:
    def test_single_particle_stage2(self):
        g = uniform_grid((3, 1, 1), hi=(3.0, 1.0, 1.0))
        f = np.array([1.0, 0.0, 0.0])
        step0 = make_step(g, f, np.zeros((3, 3)), time=0.0)
        step1 = make_step(g, f, np.zeros((3, 3)), time=1.0)
        ps = probes_particle_set([[1.6, 0.5, 0.5]])
        pre = ps.pos.copy()
        corrected = correct_strays(
            ps, pre, step0, step1, AdvectionConfig(corrector="full"), 0.0, {}
        )
        assert corrected.tolist() == [0]
        assert np.allclose(ps.pos[0], (1.0, 0.5, 0.5), atol=1e-6)
        assert np.isclose(ps.eps[0], 0.6, atol=1e-6)
        assert ps.alive[0]
