from __future__ import annotations

import copy
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsep import advect
from flowsep.advect import (
    AdvectionConfig,
    ParticleSet,
    advance_interval,
    correct_strays,
    phase_violations,
    rk4_positions,
    seed_particles,
)
from flowsep.dataset_io import SyntheticScenario, generate_scenario
from flowsep.grid import CellField, RectilinearGrid, TimeStep, locate_cells, uniform_grid
from flowsep.labeling import label_features
from flowsep.plic import is_liquid_many, plic_table
from flowsep.segment import assign_labels

from .oracles import (
    first_per_group_lexsort,
    nearest_capable_cell,
    nearest_neighbors_cell_keys,
    particle_bytes,
    rk4_positions_reference,
    rotate_about_z,
    segment_box_entry,
    traced_peak,
)
from .test_grid import negative_zero_case, sampling_cases


def make_step(grid, f, u, time=0.0):
    return TimeStep(time=time, f=CellField(grid, f), u=CellField(grid, u, ncomp=3))


def liquid_block_step(cells, time=0.0, u=(0.0, 0.0, 0.0)):
    g = uniform_grid(cells)
    uarr = np.tile(np.asarray(u, dtype=float)[:, None], (1, g.ncells))
    return make_step(g, np.ones(g.ncells), uarr, time)


def probes_particle_set(points):
    """Alive particles at `points`, every one seeded in the one cell of the
    unit grid: a stand-in for tests that read only the current state."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = pts.shape[0]
    return ParticleSet(
        lattice=np.zeros((n, 3), dtype=np.int32),
        pos=pts.copy(),
        alive=np.ones(n, dtype=bool),
        eps=np.zeros(n),
        refinement=0,
        grid=uniform_grid(1),
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


class TestRk4MatchesReference:
    """`rk4_positions` samples one stored field where the time weight is 0 or
    1 and does its stage arithmetic in place; every bit stays that of the
    reference, which blends both fields at every stage and allocates an
    array per operation (including -0.0 velocities, whose samples are +0.0)."""

    @settings(max_examples=200, deadline=None)
    @given(case=sampling_cases(), substeps=st.integers(1, 3), backward=st.booleans())
    @example(case=negative_zero_case(), substeps=1, backward=False)
    def test_bitwise_equal_to_reference(self, case, substeps, backward):
        step_a, step_b, _, pts = case
        steps = (step_b, step_a) if backward else (step_a, step_b)
        got = rk4_positions(*steps, pts, substeps)
        want = rk4_positions_reference(*steps, pts, substeps)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def rotation_steps(cells=8, angle=1.0):
    """Rigid rotation about the z axis through the domain centre by `angle`
    over one interval. The first step is liquid everywhere; the second only
    below x = 0.5, so integration strands particles in gas for the corrector,
    and the particles near the x-y corners rotate out of the domain."""
    g = uniform_grid(cells)
    cx, cy, _ = (c.ravel(order="F") for c in np.meshgrid(*g.centers, indexing="ij"))
    u = np.zeros((3, g.ncells))
    u[0] = -angle * (cy - 0.5)
    u[1] = angle * (cx - 0.5)
    f_to = (cx < 0.5).astype(float)
    return make_step(g, np.ones(g.ncells), u, 0.0), make_step(g, f_to, u, 1.0)


class TestBlockedIntegration:
    @pytest.mark.parametrize("corrector", ["off", "full"])
    def test_block_size_never_changes_a_bit(self, monkeypatch, corrector):
        step_a, step_b = rotation_steps()
        seeded = seed_particles(step_a, refinement=1)
        cfg = AdvectionConfig(corrector=corrector)
        runs = []
        for block in (7, len(seeded)):
            ps = copy.deepcopy(seeded)
            monkeypatch.setattr(advect, "RK4_BLOCK", block)
            advance_interval(ps, step_a, step_b, cfg)
            runs.append(ps)
        # the leavers fall into many blocks of 7
        left = np.nonzero(~runs[0].alive)[0]
        assert np.unique(left // 7).size > 1
        for name in ("pos", "alive", "eps"):
            assert np.array_equal(getattr(runs[0], name), getattr(runs[1], name))

    def test_phase_violations_block_invariant(self, monkeypatch, split32):
        # uncorrected split32 interval with every 7th particle dead: the
        # blocked stray finder equals one unblocked phase test of the alive
        ds, _ = split32
        ps = seed_particles(ds.steps[0], refinement=1)
        advance_interval(ps, ds.steps[0], ds.steps[1], AdvectionConfig(corrector="off"))
        ps.alive[::7] = False
        alive = np.nonzero(ps.alive)[0]
        want = alive[~is_liquid_many(ds.steps[1], ps.pos[alive])]
        assert want.size > 0
        for block in (1, 5, advect.RK4_BLOCK):
            monkeypatch.setattr(advect, "RK4_BLOCK", block)
            assert np.array_equal(phase_violations(ps, ds.steps[1]), want)

    def test_peak_memory_bounded_by_one_block(self):
        # one interval in x by 0.1 over a 4^3 grid whose cells x < 0.25 turn
        # to gas: the 64 particles that start there are strays, the others
        # start in x > 0.5, outside the strays' 3x3x3 cells, and stay valid
        g = uniform_grid(4)
        u = np.tile([[0.1], [0.0], [0.0]], (1, g.ncells))
        cx = g.centers[0][g.unflat(np.arange(g.ncells))[0]]
        step_a = make_step(g, np.ones(g.ncells), u, 0.0)
        step_b = make_step(g, (cx > 0.25).astype(float), u, 1.0)
        rng = np.random.default_rng(3)
        strays = rng.uniform([0.0, 0.25, 0.25], [0.1, 0.75, 0.75], size=(64, 3))

        def particles(n):
            rest = rng.uniform([0.5, 0.25, 0.25], 0.75, size=(n - strays.shape[0], 3))
            return probes_particle_set(np.vstack([strays, rest]))

        for corrector in ("off", "full"):
            cfg = AdvectionConfig(corrector=corrector)
            one, many = particles(advect.RK4_BLOCK), particles(16 * advect.RK4_BLOCK)
            advance_interval(particles(100), step_a, step_b, cfg)
            per_block = traced_peak(advance_interval, one, step_a, step_b, cfg)
            blocked = traced_peak(advance_interval, many, step_a, step_b, cfg)
            # what the interval must hold for all n: the pre_pos copy, and
            # for the corrector the phase mask and the stage-1 candidates
            n = len(many)
            state = many.pos.nbytes
            if corrector == "full":
                state += n * (1 + np.dtype(np.intp).itemsize)
            assert np.all(many.alive)
            assert np.count_nonzero(many.eps) == (len(strays) if corrector == "full" else 0)
            assert blocked <= state + 2 * per_block, corrector

    def test_seeding_peak_bounded_by_one_block(self):
        # r = 3 on interface cells: 16 cells fill one block of subcells, 128
        # cells eight; about half of the subcells are seeds
        rng = np.random.default_rng(5)

        def step(cells):
            g = uniform_grid(cells)
            s = make_step(g, rng.uniform(0.3, 0.7, g.ncells), np.zeros((3, g.ncells)))
            plic_table(s)
            return s

        one, many = step((4, 2, 2)), step((8, 4, 4))
        assert one.grid.ncells * 8**3 == advect.RK4_BLOCK
        seed_particles(one, 3)
        per_block = traced_peak(seed_particles, one, 3)
        seeded = seed_particles(many, 3)
        blocked = traced_peak(seed_particles, many, 3)
        # what seeding must hold for all n: its output
        out = particle_bytes(seeded)
        assert blocked <= out + 2 * per_block

    def test_label_transfer_peak_bounded_by_one_block(self):
        # a random fraction field labelled at tau = 0.5, so some particles sit
        # in unlabelled cells and walk up the gradient
        g = uniform_grid(4)
        rng = np.random.default_rng(7)
        step = make_step(g, rng.uniform(0.0, 1.0, g.ncells), np.zeros((3, g.ncells)))
        labels = label_features(step, 0.5)

        def particles(n):
            return probes_particle_set(rng.uniform(0.0, 1.0, size=(n, 3)))

        one, many = particles(advect.RK4_BLOCK), particles(8 * advect.RK4_BLOCK)
        assign_labels(particles(100), labels, step, 0.5)
        per_block = traced_peak(assign_labels, one, labels, step, 0.5)
        blocked = traced_peak(assign_labels, many, labels, step, 0.5)
        # what the transfer must hold for all n: the int32 labels
        assert blocked <= 4 * len(many) + 2 * per_block


class TestAliveInsideDomain:
    """After an interval every alive particle lies in the closed domain box,
    so the run's owner lookup never meets a particle outside every block."""

    CORRECTORS = ["off", "stages-2-3", "full"]

    @pytest.mark.parametrize("corrector", CORRECTORS)
    def test_rotation_with_leavers(self, corrector):
        step_a, step_b = rotation_steps()
        ps = seed_particles(step_a, refinement=1)
        advance_interval(ps, step_a, step_b, AdvectionConfig(corrector=corrector))
        assert not ps.alive.all()  # the corner particles left
        assert (ps.eps > 0).any() == (corrector != "off")  # and strays were moved
        assert locate_cells(step_b.grid, ps.pos[ps.alive])[1].all()

    @pytest.mark.parametrize("corrector", CORRECTORS)
    def test_split_with_strays(self, split32, corrector):
        ds, _ = split32
        ps = seed_particles(ds.steps[0], refinement=1)
        cfg = AdvectionConfig(corrector=corrector, refinement=1)
        strays = 0
        for k in range(len(ds) - 1):
            advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
            strays += phase_violations(ps, ds.steps[k + 1]).size
            assert locate_cells(ds.grid, ps.pos[ps.alive])[1].all()
        assert (strays > 0 if corrector == "off" else (ps.eps > 0).any())


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
        ps = probes_particle_set([[1.6, 0.5, 0.5]])
        pre = np.array([[1.6, 0.5, 0.5]])
        corrected = correct_strays(ps, pre, step, AdvectionConfig(corrector="stages-2-3"), 0.0)
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
        ps = probes_particle_set([[1.75, 0.0, 0.0]])
        pre = ps.pos.copy()
        correct_strays(ps, pre, step, AdvectionConfig(corrector="stages-2-3"), 0.0)
        assert np.allclose(ps.pos[0], (1.5, 0.0, 0.0), atol=1e-6)
        assert np.isclose(ps.eps[0], 0.25, atol=1e-6)

    def test_stage1_uses_nearest_neighbor_displacement(self):
        # two-cell liquid row: the left particle moves normally; the right one
        # is teleported into gas, and stage 1 reuses its neighbor's displacement
        g = uniform_grid((4, 1, 1), hi=(4.0, 1.0, 1.0))
        f = np.array([1.0, 1.0, 0.0, 0.0])
        u = np.zeros((3, 4))
        step1 = make_step(g, f, u, time=1.0)
        ps = probes_particle_set([[0.5, 0.5, 0.5], [1.5, 0.5, 0.5]])
        pre = ps.pos.copy()
        # simulate an integration that left particle 1 stranded in gas
        ps.pos[1] = [2.5, 0.5, 0.5]
        correct_strays(ps, pre, step1, AdvectionConfig(corrector="full"), 0.0)
        # neighbor displacement is zero, so the stray returns to its pre position
        assert np.allclose(ps.pos[1], pre[1], atol=1e-12)
        assert np.isclose(ps.eps[1], 1.0, atol=1e-12)

    def test_phase_consistency_after_each_interval(self, split32):
        ds, _ = split32
        step0 = ds.steps[0]
        ps = seed_particles(step0, refinement=1)
        cfg = AdvectionConfig(corrector="full", refinement=1)
        for k in range(len(ds) - 1):
            advance_interval(ps, ds.steps[k], ds.steps[k + 1], cfg)
            assert phase_violations(ps, ds.steps[k + 1], 0.0).size == 0

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


class TestSingleStrayCorrection:
    def test_single_particle_stage2(self):
        g = uniform_grid((3, 1, 1), hi=(3.0, 1.0, 1.0))
        f = np.array([1.0, 0.0, 0.0])
        step1 = make_step(g, f, np.zeros((3, 3)), time=1.0)
        ps = probes_particle_set([[1.6, 0.5, 0.5]])
        pre = ps.pos.copy()
        corrected = correct_strays(ps, pre, step1, AdvectionConfig(corrector="full"), 0.0)
        assert corrected.tolist() == [0]
        assert np.allclose(ps.pos[0], (1.0, 0.5, 0.5), atol=1e-6)
        assert np.isclose(ps.eps[0], 0.6, atol=1e-6)
        assert ps.alive[0]


class TestDegenerateGasCell:
    @pytest.mark.parametrize("corrector", ["stages-2-3", "full"])
    def test_degenerate_cell_below_half_is_not_a_target(self, corrector):
        # step 1 holds a single interface cell whose gradient vanishes and whose
        # f <= 0.5, so the phase test counts it as gas: no cell can take the
        # stray back, and it is dropped instead of failing the invariant
        g = uniform_grid((3, 1, 1), hi=(3.0, 1.0, 1.0))
        step0 = make_step(g, np.array([1.0, 0.0, 0.0]), np.zeros((3, 3)), time=0.0)
        step1 = make_step(g, np.array([0.0, 0.3, 0.0]), np.zeros((3, 3)), time=1.0)
        ps = seed_particles(step0)
        advance_interval(ps, step0, step1, AdvectionConfig(corrector=corrector))
        assert ps.alive.tolist() == [False]
        assert phase_violations(ps, step1).size == 0


@st.composite
def stage2_cases(draw):
    """A small rectilinear grid with unequal spacing, a liquid-capable mask
    (possibly empty), points in and around the domain and a ring block size."""
    shape = [draw(st.integers(1, 6)) for _ in range(3)]
    axes = []
    for n in shape:
        steps = draw(st.lists(st.floats(0.1, 3.0), min_size=n, max_size=n))
        axes.append(np.concatenate([[0.0], np.cumsum(steps)]))
    ncells = shape[0] * shape[1] * shape[2]
    capable = np.array(draw(st.lists(st.booleans(), min_size=ncells, max_size=ncells)))
    thin = draw(st.integers(0, 3))  # make sparse masks likely, so targets lie rings away
    capable &= np.arange(ncells) % (thin + 1) == 0
    pts = np.array(
        [
            [draw(st.floats(-2.0, float(a[-1]) + 2.0)) for a in axes]
            for _ in range(draw(st.integers(1, 8)))
        ]
    )
    block = draw(st.sampled_from([1, 5, advect.RING_BLOCK]))
    return axes, capable, pts, block


# a target 13 rings away: only the far end of a 14-cell row is capable
_FAR_AXES = [np.linspace(0.0, 14.0, 15), np.array([0.0, 1.0, 1.5]), np.array([0.0, 0.7])]
_FAR_CASE = (_FAR_AXES, np.arange(28) == 13, np.array([[0.2, 0.5, 0.3], [-3.0, 1.2, 0.1]]), 5)


class TestStage2Target:
    @settings(max_examples=150, deadline=None)
    @given(case=stage2_cases())
    @example(case=_FAR_CASE)
    def test_ring_search_matches_brute_force(self, case):
        axes, capable, pts, block = case
        grid = RectilinearGrid(tuple(axes))
        start, _ = locate_cells(grid, np.clip(pts, grid.lo, grid.hi))
        with mock.patch.object(advect, "RING_BLOCK", block):
            got = advect._nearest_capable_cells(grid, capable, start, pts)
        want = [nearest_capable_cell(axes, capable, p) for p in pts]
        assert got.tolist() == [-1 if w is None else w for w in want]


@st.composite
def stage1_cases(draw):
    """A rectilinear grid with unequal spacing, some cells only a few ulps wide,
    a refinement 0-3, positions drawn from a small per-axis pool (bin faces, so
    cell faces and both domain faces, bin midpoints, points outside the
    domain), so that equal d^2 ties are common, a candidate / stray / dead role
    per position and a bin block size."""
    r = draw(st.integers(0, 3))
    s = 2**r
    axes, pools = [], []
    for _ in range(3):
        node = draw(st.sampled_from([-1.0, 0.0, 0.25]))
        nodes = [node]
        for _ in range(draw(st.integers(1, 4))):
            kind = draw(st.sampled_from(["dyadic", "dyadic", "float", "ulps"]))
            if kind == "ulps":
                for _ in range(draw(st.integers(1, 3))):
                    node = np.nextafter(node, np.inf)
            elif kind == "float":
                node += draw(st.floats(0.05, 2.0))
            else:
                node += draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
            nodes.append(node)
        a = np.array(nodes)
        axes.append(a)
        w = np.diff(a)
        faces = (a[:-1, None] + (np.arange(s) / s)[None, :] * w[:, None]).ravel()
        mids = (a[:-1, None] + ((np.arange(s) + 0.5) / s)[None, :] * w[:, None]).ravel()
        pools.append(np.concatenate([faces, mids, [a[-1], a[0] - 0.5, a[-1] + 0.5]]))
    n = draw(st.integers(1, 30))
    pos = np.array([[p[draw(st.integers(0, p.size - 1))] for p in pools] for _ in range(n)])
    role = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 2]), min_size=n, max_size=n)))
    if (role == 1).any() and draw(st.booleans()):
        # two candidates mirrored about a stray along one axis, the upper one
        # first: on a uniform lattice they tie, and the upper one can lie on
        # the bin face that bounds the search when the lower one is found
        x = pos[draw(st.sampled_from(np.nonzero(role == 1)[0].tolist()))]
        d = draw(st.integers(0, 2))
        upper, lower = x.copy(), x.copy()
        upper[d] = pools[d][draw(st.integers(0, pools[d].size - 1))]
        lower[d] = x[d] - (upper[d] - x[d])
        pos = np.vstack([upper, lower, pos])
        role = np.r_[0, 0, role]
    block = draw(st.sampled_from([1, 3, advect.RING_BLOCK]))
    return axes, r, pos, np.nonzero(role == 0)[0], np.nonzero(role == 1)[0], block


_UNIT4 = [np.arange(5.0), np.array([0.0, 1.0]), np.array([0.0, 1.0])]  # 4 x 1 x 1 cells
# the nearest candidates tie at d^2 = 0.25: index 2 in the stray's own cell,
# index 0 on the lower face of the next cell, exactly at the retirement bound
_TIE_ON_FACE = (_UNIT4, 0, np.array([[2.0, 0.5, 0.5], [1.5, 0.5, 0.5], [1.5, 0.5, 0.0]]),
                np.array([0, 2]), np.array([1]), advect.RING_BLOCK)
# the only candidate lies in the first bin above (below) the first stray's
# 3x3x3 cells, and in range of the second stray
_ABOVE_RANGE = (_UNIT4, 1, np.array([[2.25, 0.5, 0.5], [0.25, 0.5, 0.5], [3.75, 0.5, 0.5]]),
                np.array([0]), np.array([1, 2]), 1)
_BELOW_RANGE = (_UNIT4, 1, np.array([[1.75, 0.5, 0.5], [3.75, 0.5, 0.5], [0.25, 0.5, 0.5]]),
                np.array([0]), np.array([1, 2]), 1)
# one cell; a candidate below the domain on every axis is out of range
_BELOW_DOMAIN = ([np.array([0.0, 1.0])] * 3, 1,
                 np.array([[-0.5, -0.5, -0.5], [0.5, 0.5, 0.5], [0.25, 0.5, 0.5]]),
                 np.array([0, 2]), np.array([1]), advect.RING_BLOCK)
# the two early returns: no valid particle at all, and valid particles only
# outside the cells around the strays (one beyond them, one outside the domain)
_NO_CANDIDATES = (_UNIT4, 1, np.array([[0.5, 0.5, 0.5], [3.25, 0.5, 0.5]]),
                  np.array([], dtype=np.int64), np.array([0, 1]), advect.RING_BLOCK)
_OUTSIDE_REGION = (_UNIT4, 1, np.array([[0.5, 0.5, 0.5], [3.5, 0.5, 0.5], [5.0, 0.5, 0.5]]),
                   np.array([1, 2]), np.array([0]), advect.RING_BLOCK)


class TestStage1Search:
    @settings(max_examples=300, deadline=None)
    @given(case=stage1_cases())
    @example(case=_TIE_ON_FACE)
    @example(case=_ABOVE_RANGE)
    @example(case=_BELOW_RANGE)
    @example(case=_BELOW_DOMAIN)
    @example(case=_NO_CANDIDATES)
    @example(case=_OUTSIDE_REGION)
    def test_bin_search_equals_cell_key_search(self, case):
        axes, r, pos, candidates, strays, block = case
        grid = RectilinearGrid(tuple(axes))
        valid = np.zeros(pos.shape[0], dtype=bool)
        valid[candidates] = True
        with mock.patch.object(advect, "RING_BLOCK", block):
            got = advect._nearest_neighbors(grid, pos, valid, strays, r)
        want = nearest_neighbors_cell_keys(grid, pos, candidates, strays)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


@st.composite
def ring_rows(draw):
    """Rows (query, ring, d^2, index) of a few queries over a few rings in
    drawn (unsorted) order, with quantised d^2 and few indices so that d^2
    ties and full ties are common; each query's retiring ring and a ring
    block size."""
    n = draw(st.integers(1, 8))
    rings = draw(st.integers(1, 3))
    m = draw(st.integers(0, 40))

    def ints(lo, hi, size):
        return np.array(draw(st.lists(st.integers(lo, hi), min_size=size, max_size=size)),
                        dtype=np.int64)

    rows = (ints(0, n - 1, m), ints(0, rings - 1, m), ints(0, 4, m) * 0.125, ints(0, 5, m))
    block = draw(st.sampled_from([1, 30, 100, 300, advect.RING_BLOCK]))
    return n, rows, ints(0, rings - 1, n), block


# query 0: a d^2 tie and a full tie at ring 0, then a strictly nearer row at
# ring 1; query 1: a tie across rings won by the later ring's lower index;
# query 2: no rows
_NEARER_AFTER_TIE = (
    3,
    (np.array([0, 1, 0, 0, 1, 0, 0]), np.array([0, 0, 0, 0, 1, 1, 1]),
     np.array([0.5, 0.5, 0.5, 0.5, 0.5, 0.25, 0.25]), np.array([4, 5, 2, 2, 1, 9, 7])),
    np.array([1, 1, 1]),
    1,
)


class TestRingSearchFold:
    @settings(max_examples=200, deadline=None)
    @given(case=ring_rows())
    @example(case=_NEARER_AFTER_TIE)
    def test_fold_matches_lexsort(self, case):
        n, (query, ring, d2, index), stop, block = case
        scanned = []

        def scan(part, offsets):
            k = int(np.abs(offsets).max())
            assert part.size <= max(1, block // offsets.shape[0])
            scanned.append((k, part))
            sel = np.nonzero(np.isin(query, part) & (ring == k))[0]
            return query[sel], d2[sel], index[sel]

        with mock.patch.object(advect, "RING_BLOCK", block):
            got = advect._ring_search(n, scan, lambda todo, k, best_d2: stop[todo] <= k)
        # every query is scanned once per ring up to its retiring ring
        for k in range(int(stop.max()) + 1):
            parts = [part for kk, part in scanned if kk == k]
            assert np.sort(np.concatenate(parts)).tolist() == np.nonzero(stop >= k)[0].tolist()
        keep = ring <= stop[query]
        q, i = query[keep], index[keep]
        want = np.full(n, -1, dtype=np.int64)
        win = first_per_group_lexsort(q, d2[keep], i)
        want[q[win]] = i[win]
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()


def offgrid_split16():
    """The steps of the split sphere on 16^3 cells over 4 steps, its centre
    off the grid by 0.3/-0.2/0.3 cells: the refinement ladder of the work and
    memory guards."""
    h = 1.0 / 16
    return generate_scenario(
        SyntheticScenario(kind="split-sphere", cells=16, steps=4, radius=0.2, speed=0.25,
                          center=tuple(0.5 + h * np.array([0.3, -0.2, 0.3])))
    ).steps


def orbit_steps():
    """The first interval of the orbit: a ball of radius 0.2 orbiting the
    domain centre at radius 0.25 in a rigid rotation, 32^3 cells, over a
    1/76 turn."""
    return generate_scenario(
        SyntheticScenario(
            kind="rigid-rotation", cells=32, steps=2, span=np.pi / 2 / 19, speed=1.0,
            offset=0.25, radius=0.2, center=(0.50938, 0.49375, 0.50313),
        )
    ).steps


class TestSearchWork:
    """Stage-1 search work does not grow with refinement: on the off-grid split
    sphere, every stage-1 stray is a query of the ring search, and the rows
    (stray, candidate) it scans per stray stay within a constant: 10.0, 11.6,
    8.9 and 18.8 per stray for r = 0..3. A search over every candidate of the
    3x3x3 cells scans a number of rows per stray that grows as 8^r."""

    ROWS_PER_STRAY = 64

    def test_stage1_rows_per_stray_bounded(self):
        steps = offgrid_split16()
        ring_search, nearest = advect._ring_search, advect._nearest_neighbors
        strays, queries, rows = [], [], []

        def spy_nearest(grid, pre_pos, valid, s, refinement):
            strays.append(s.size)
            return nearest(grid, pre_pos, valid, s, refinement)

        def spy_ring(n, scan, retired):
            if scan.__qualname__ != "_nearest_neighbors.<locals>.scan":
                return ring_search(n, scan, retired)
            queries.append(n)
            rows.append(0)

            def counted(part, offsets):
                out = scan(part, offsets)
                rows[-1] += out[0].size
                return out

            return ring_search(n, counted, retired)

        for r in range(4):
            del strays[:], queries[:], rows[:]
            particles = seed_particles(steps[0], refinement=r)
            with mock.patch.object(advect, "_nearest_neighbors", spy_nearest), \
                    mock.patch.object(advect, "_ring_search", spy_ring):
                for step_from, step_to in zip(steps[:-1], steps[1:]):
                    advance_interval(particles, step_from, step_to, AdvectionConfig(refinement=r))
            assert sum(strays) > 0
            assert queries == strays, f"r={r}"
            per_stray = sum(rows) / sum(strays)
            assert per_stray <= self.ROWS_PER_STRAY, f"r={r}: {per_stray} rows per stray"


class TestWorkingSet:
    """The working set of an interval's per-particle passes does not grow with
    refinement: on the off-grid split sphere (16^3, r = 0..3, the first
    interval), the traced peaks of `advance_interval` and `assign_labels`,
    less the state each must hold for all particles (the pre_pos copy; the
    int32 labels), stay within a fixed allowance plus a constant per
    particle. The blocks shrink to 256 rows and 2048 ring pairs, which changes
    no bit, so that from r = 2 on one block's temporaries are small next to
    the particle count, as on large grids. Measured: 22 and 66 B per particle
    over the fixed allowance at r = 2 and 3 for the interval (most of it per
    stray, 458 B per stray at r = 3: 13-16 % of the particles are strays) and
    5 and 0 for the label transfer. Passes over all particles at once fail
    it: with the phase test and the label transfer unblocked, the two read
    157 and 93 B per particle at r = 3, and a corrector that keeps a copy of
    the strays' positions per stage reads 76 B for the interval. Within the
    interval, one RK4 block call stays within a bound per row."""

    FIXED = 1 << 19  # cells-sized arrays and one block of each kind
    INTERVAL = 72  # B per particle: phase mask, stage-1 table, per-stray state
    TRANSFER = 16
    RK4_PER_ROW = 286  # B per row of one RK4 block call: 272 measured, plus 5 %

    def test_peak_per_particle_flat_across_r(self, monkeypatch):
        steps = offgrid_split16()
        monkeypatch.setattr(advect, "RK4_BLOCK", 256)
        monkeypatch.setattr(advect, "RING_BLOCK", 2048)
        labels = label_features(steps[1])
        plic_table(steps[1])
        for r in range(4):
            particles = seed_particles(steps[0], refinement=r)
            n = len(particles)
            cfg = AdvectionConfig(refinement=r)
            interval = traced_peak(advance_interval, particles, steps[0], steps[1], cfg)
            transfer = traced_peak(assign_labels, particles, labels, steps[1])
            assert np.count_nonzero(particles.eps) > (n // 10 if r else 0)
            interval -= particles.pos.nbytes
            transfer -= 4 * n
            assert interval <= self.FIXED + self.INTERVAL * n, f"r={r}: {interval / n:.0f} B"
            assert transfer <= self.FIXED + self.TRANSFER * n, f"r={r}: {transfer / n:.0f} B"

    def test_rk4_block_peak_per_row(self):
        # one block of orbit rows holds the result, two stages, the stage
        # point and one two-field stencil; an RK4 that allocates an array per
        # operation and blends both fields at every stage reads 329 B per row
        step0, step1 = orbit_steps()
        pts = seed_particles(step0, refinement=2).pos[: advect.RK4_BLOCK]
        assert len(pts) == advect.RK4_BLOCK
        rk4_positions(step0, step1, pts)
        peak = traced_peak(rk4_positions, step0, step1, pts)
        assert peak <= self.RK4_PER_ROW * len(pts), f"{peak / len(pts):.0f} B per row"


class TestResidentState:
    """What a particle set holds for the whole run is one seed record per
    particle (the int32 seed-lattice index, 12 B) and its state (position,
    alive flag, eps: 33 B); seed positions and volumes are derived from the
    record. On the off-grid split sphere, r = 0..3, that is 45 B per
    particle; a set that also stores the seeds, the seed volumes and int64
    indices holds 89."""

    PER_PARTICLE = 45

    def test_bytes_per_particle(self):
        step = offgrid_split16()[0]
        for r in range(4):
            particles = seed_particles(step, refinement=r)
            n = len(particles)
            assert n > 0
            held = particle_bytes(particles)
            assert held <= self.PER_PARTICLE * n, f"r={r}: {held / n:.0f} B"
            assert particles.lattice.dtype == np.int32
