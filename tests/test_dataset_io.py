from __future__ import annotations

import struct
from types import SimpleNamespace

import numpy as np
import pytest

from flowsep import dataset_io
from flowsep.dataset_io import (
    SCENARIO_KINDS,
    BadMagicError,
    DatasetError,
    DatasetManifest,
    DimensionMismatchError,
    SyntheticScenario,
    TruncatedPayloadError,
    dataset_files,
    generate_scenario,
    load_dataset,
    read_grid,
    read_manifest,
    read_timestep,
    scan_dataset,
    write_dataset,
    write_grid,
    write_manifest,
    write_timestep,
)
from flowsep.grid import CellField, TimeStep, uniform_grid

from .oracles import ball_volume, count_components, traced_peak


def random_step(grid, rng, time=0.0):
    f = rng.uniform(0, 1, grid.ncells)
    u = rng.normal(size=(3, grid.ncells))
    return TimeStep(time=time, f=CellField(grid, f), u=CellField(grid, u, ncomp=3))


class TestBinaryRoundTrip:
    def test_step_roundtrip_bitwise(self, tmp_path):
        g = uniform_grid((5, 3, 4))
        step = random_step(g, np.random.default_rng(0), time=0.625)
        path = tmp_path / "step.bin"
        write_timestep(step, path)
        back = read_timestep(path, g)
        assert back.time == step.time
        assert np.array_equal(back.f.values, step.f.values)
        assert np.array_equal(back.u.values, step.u.values)

    def test_grid_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(1)
        axes = tuple(np.cumsum(np.concatenate([[0.0], rng.uniform(0.1, 1, 5)])) for _ in range(3))
        from flowsep.grid import RectilinearGrid

        g = RectilinearGrid(axes)
        path = tmp_path / "grid.bin"
        write_grid(g, path)
        back = read_grid(path)
        for d in range(3):
            assert np.array_equal(back.axes[d], g.axes[d])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(BadMagicError):
            read_timestep(path, uniform_grid(2))
        with pytest.raises(BadMagicError):
            read_grid(path)

    def test_dimension_mismatch(self, tmp_path):
        g = uniform_grid(2)
        step = random_step(g, np.random.default_rng(2))
        path = tmp_path / "step.bin"
        write_timestep(step, path)
        with pytest.raises(DimensionMismatchError):
            read_timestep(path, uniform_grid(3))

    def test_truncated_payload(self, tmp_path):
        g = uniform_grid(2)
        step = random_step(g, np.random.default_rng(3))
        path = tmp_path / "step.bin"
        write_timestep(step, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 40])
        with pytest.raises(TruncatedPayloadError):
            read_timestep(path, g)

    @pytest.mark.parametrize(
        "keep, what",
        [(32 + 10, "fraction payload (10 of 64 bytes)"),
         (32 + 2 * 64 + 10, "velocity component 1 (10 of 64 bytes)"),
         (32 + 4 * 64 - 40, "velocity component 2 (24 of 64 bytes)")],
        ids=["fraction", "velocity-1", "velocity-2"],
    )
    def test_truncated_payload_message(self, tmp_path, keep, what):
        # 32 header bytes, then f and the three velocity components, 64 bytes each
        g = uniform_grid(2)
        step = random_step(g, np.random.default_rng(3))
        path = tmp_path / "step.bin"
        write_timestep(step, path)
        path.write_bytes(path.read_bytes()[:keep])
        with pytest.raises(TruncatedPayloadError) as exc:
            read_timestep(path, g)
        assert str(exc.value) == f"{path}: truncated {what}"

    def test_huge_grid_node_count_is_checked_before_reading(self, tmp_path):
        # grid file: 8 magic bytes, the u32 dimension count, then the x node count
        path = tmp_path / "grid.bin"
        write_grid(uniform_grid(8), path)
        with open(path, "r+b") as fh:
            fh.seek(12)
            fh.write(struct.pack("<I", 0xFFFFFFFF))
        # left after the x count: 3 axes of 9 nodes and the y and z counts
        left = 3 * 9 * 8 + 2 * 4

        def read():
            with pytest.raises(TruncatedPayloadError) as exc:
                read_grid(path)
            assert str(exc.value) == (
                f"{path}: truncated axis coordinates ({left} of {8 * 0xFFFFFFFF} bytes)"
            )

        assert traced_peak(read) < 1 << 20

    def test_read_shorter_than_checked_is_truncation(self, tmp_path):
        # a file that shrinks between the size check and the read
        path = tmp_path / "grid.bin"
        write_grid(uniform_grid(2), path)
        with open(path, "rb") as fh:
            short = SimpleNamespace(fileno=fh.fileno, tell=fh.tell, read=lambda n: fh.read(n)[:-8])
            with pytest.raises(TruncatedPayloadError) as exc:
                dataset_io._read_exact(short, 24, path, "axis coordinates")
        assert str(exc.value) == f"{path}: truncated axis coordinates (16 of 24 bytes)"


class TestManifest:
    def test_roundtrip(self, tmp_path):
        m = DatasetManifest(grid_path="grid.bin", steps=[(0.0, "a.bin"), (1.5, "b.bin")])
        path = tmp_path / "ds.manifest"
        write_manifest(m, path)
        back = read_manifest(path)
        assert back.grid_path == m.grid_path
        assert back.steps == m.steps

    def test_times_must_increase(self):
        with pytest.raises(DatasetError):
            DatasetManifest(grid_path="g", steps=[(1.0, "a"), (0.5, "b")])

    def test_missing_step_file(self, tmp_path, monkeypatch):
        # the second of two step files is missing: no step is read before the
        # error, not even the first one, which exists
        g = uniform_grid(2)
        step = random_step(g, np.random.default_rng(4))
        write_grid(g, tmp_path / "grid.bin")
        write_timestep(step, tmp_path / "a.bin")
        write_manifest(
            DatasetManifest(grid_path="grid.bin", steps=[(0.0, "a.bin"), (1.0, "gone.bin")]),
            tmp_path / "ds.manifest",
        )
        reads = []
        read = dataset_io.read_timestep
        monkeypatch.setattr(dataset_io, "read_timestep", lambda *a: reads.append(a) or read(*a))
        with pytest.raises(DatasetError, match="gone.bin does not exist"):
            load_dataset(tmp_path / "ds.manifest")
        assert reads == []

    def test_byte_order_mark_is_skipped(self, tmp_path):
        m = DatasetManifest(grid_path="grid.bin", steps=[(0.0, "a.bin"), (1.5, "b.bin")])
        path = tmp_path / "ds.manifest"
        write_manifest(m, path)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert read_manifest(path) == m

    def test_dataset_roundtrip(self, tmp_path):
        sc = SyntheticScenario(kind="rigid-rotation", cells=8, steps=3)
        ds = generate_scenario(sc)
        manifest = write_dataset(ds, tmp_path / "ds")
        back = load_dataset(manifest)
        assert len(back) == 3
        for a, b in zip(ds.steps, back.steps):
            assert np.array_equal(a.f.values, b.f.values)
            assert np.array_equal(a.u.values, b.u.values)


class TestScanDataset:
    def test_records_every_step_and_keeps_the_asked_ones(self, tmp_path):
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=5)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        full = load_dataset(manifest)
        series = scan_dataset(*dataset_files(manifest), keep=(3, 1))
        assert len(series) == 5 and sorted(series.kept) == [1, 3]
        assert series.times == [s.time for s in full.steps]
        kept = series.kept[1]
        assert series.take(1) is kept and 1 not in series.kept  # handed over once
        for k in (1, 2):  # read again from its file
            step = series.take(k)
            assert step.time == full.steps[k].time
            assert np.array_equal(step.f.values, full.steps[k].f.values)
            assert np.array_equal(step.u.values, full.steps[k].u.values)

    def test_prepass_holds_only_the_kept_steps_and_one_more(self, tmp_path):
        # 24^3 cells, 5 steps, 2 kept: the pass may hold the kept payloads plus
        # the one step it is reading (32 B per cell each), and 5 % more
        sc = SyntheticScenario(kind="rigid-rotation", cells=24, steps=5)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        grid, entries = dataset_files(manifest)
        keep = (0, 3)
        scan_dataset(grid, entries, keep)  # warm-up
        peak = traced_peak(scan_dataset, grid, entries, keep)
        assert peak <= (len(keep) + 1) * 32 * grid.ncells * 1.05

    def test_step_times_must_increase(self, tmp_path):
        # manifest times 1 and 1 + 1e-13 increase and each step time matches
        # its own within the tolerance, but the two step times are equal
        g = uniform_grid(2)
        write_grid(g, tmp_path / "grid.bin")
        for name in ("a.bin", "b.bin"):
            write_timestep(random_step(g, np.random.default_rng(6), time=1.0), tmp_path / name)
        write_manifest(
            DatasetManifest(grid_path="grid.bin", steps=[(1.0, "a.bin"), (1.0 + 1e-13, "b.bin")]),
            tmp_path / "ds.manifest",
        )
        manifest = tmp_path / "ds.manifest"
        with pytest.raises(DatasetError, match="b.bin"):
            load_dataset(manifest)
        with pytest.raises(DatasetError, match="b.bin"):
            scan_dataset(*dataset_files(manifest))


class TestScenarios:
    def test_split_sphere_initial_volume_and_connectivity(self):
        sc = SyntheticScenario(kind="split-sphere", cells=24, steps=4, radius=0.2, speed=0.25)
        ds = generate_scenario(sc)
        step = ds.steps[0]
        cellvol = np.prod([w[0] for w in ds.grid.widths])
        vol = step.f.values.sum() * cellvol
        interface_cells = int(np.sum((step.f.values > 0) & (step.f.values < 1)))
        assert abs(vol - ball_volume(0.2)) <= interface_cells * cellvol
        assert count_components(step.f.view3d() > 0) == 1

    def test_split_sphere_final_two_components(self):
        sc = SyntheticScenario(kind="split-sphere", cells=24, steps=4, radius=0.2, speed=0.25)
        ds = generate_scenario(sc)
        assert count_components(ds.steps[-1].f.view3d() > 0) == 2

    def test_rigid_rotation_volume_constant(self):
        sc = SyntheticScenario(
            kind="rigid-rotation", cells=24, steps=5, span=2.0, radius=0.15, offset=0.2
        )
        ds = generate_scenario(sc)
        vols = [s.f.values.sum() for s in ds.steps]
        assert np.max(np.abs(np.array(vols) - vols[0])) / vols[0] < 0.01

    def test_fraction_bounds_and_pure_cells(self):
        sc = SyntheticScenario(kind="merge-then-split", cells=20, steps=4, radius=0.18)
        ds = generate_scenario(sc)
        for step in ds.steps:
            f = step.f.values
            assert f.min() >= 0.0 and f.max() <= 1.0
            assert np.any(f == 1.0) and np.any(f == 0.0)

    def test_merge_then_split_connectivity_sequence(self):
        sc = SyntheticScenario(
            kind="merge-then-split", cells=24, steps=9, radius=0.18, offset=0.12, speed=0.18
        )
        ds = generate_scenario(sc)
        counts = [count_components(s.f.view3d() > 0) for s in ds.steps]
        assert counts[0] == 1
        assert max(counts) == 2
        assert counts[-1] == 1

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_velocity_is_the_scenario_field_at_the_cell_centres(self, kind):
        # the centres in the x-fastest flat layout, built apart from the
        # generator: every step's u is the scenario's velocity there, bit for bit
        sc = SyntheticScenario(kind=kind, cells=6, steps=3)
        ds = generate_scenario(sc)
        mesh = np.meshgrid(*ds.grid.centers, indexing="ij")
        pts = np.stack([c.ravel(order="F") for c in mesh], axis=1)
        for step in ds.steps:
            want = sc.velocity(pts, step.time).T
            assert step.u.values.shape == want.shape
            assert step.u.values.tobytes() == want.tobytes()
        assert any(step.u.values.any() for step in ds.steps)

    def test_unknown_kind_rejected(self):
        with pytest.raises(DatasetError):
            SyntheticScenario(kind="vortex", cells=8, steps=2)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("cells", 8.0),
            ("cells", 1),
            ("steps", 2.5),
            pytest.param("steps", "4", id="steps-text"),
        ],
    )
    def test_bad_integer_field_rejected(self, field, value):
        kw = {"cells": 8, "steps": 2, field: value}
        with pytest.raises(DatasetError, match=field):
            SyntheticScenario(kind="split-sphere", **kw)

    def test_step_order_checked_before_any_step_is_built(self, monkeypatch):
        # 20 times over a span of one subnormal: the linspace repeats times,
        # which fails before the first step is subsampled
        sc = SyntheticScenario(kind="split-sphere", cells=8, steps=20, span=5e-324)
        times = np.linspace(0.0, sc.span, sc.steps)
        first = 1 + int(np.argmin(np.diff(times) > 0))
        calls = []
        inside = SyntheticScenario.inside
        monkeypatch.setattr(
            SyntheticScenario, "inside", lambda self, *a: calls.append(a) or inside(self, *a)
        )
        with pytest.raises(DatasetError, match=f"scenario step {first} .*strictly increasing"):
            generate_scenario(sc)
        assert calls == []

    def test_velocity_discontinuous_at_split_plane(self):
        sc = SyntheticScenario(kind="split-sphere", cells=8, steps=2, speed=0.3)
        pts = np.array([[0.4, 0.5, 0.5], [0.6, 0.5, 0.5]])
        u = sc.velocity(pts, 1.0)
        assert np.allclose(u[:, 0], [-0.3, 0.3])


class TestShearStretch:
    def test_volume_preserved_and_velocity_field(self):
        sc = SyntheticScenario(kind="shear-stretch", cells=24, steps=4, radius=0.15, speed=0.5)
        ds = generate_scenario(sc)
        vols = [s.f.values.sum() for s in ds.steps]
        assert np.max(np.abs(np.array(vols) - vols[0])) / vols[0] < 0.02
        pts = np.array([[0.5, 0.7, 0.5], [0.5, 0.3, 0.5]])
        u = sc.velocity(pts, 0.5)
        assert np.allclose(u, [[0.5 * 0.2, 0, 0], [-0.5 * 0.2, 0, 0]])

    def test_region_advects_with_field(self):
        # the sheared region at time t is exactly the flow-map image of the ball
        sc = SyntheticScenario(kind="shear-stretch", cells=16, steps=3, radius=0.2, speed=0.4)
        t = 1.0
        y = 0.7
        shift = 0.4 * t * (y - 0.5)
        probe_in = np.array([[0.5 + shift, y, 0.5]])
        probe_out = np.array([[0.5 - 0.19, y, 0.5]])
        assert sc.inside(probe_in, t).all()
        assert not sc.inside(probe_out, t).any()
