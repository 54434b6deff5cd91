from __future__ import annotations

import dataclasses
import struct
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowsep.advect import AdvectionConfig, PhaseConsistencyError
from flowsep import advect, cli, dataset_io, extract, runtime, segment
from flowsep.cli import main
from flowsep.dataset_io import (
    DatasetError,
    SyntheticScenario,
    generate_scenario,
    write_dataset,
)
from flowsep.grid import CellField, TimeSeriesDataset, TimeStep, uniform_grid
from flowsep.runtime import (
    ConfigError,
    PipelineConfig,
    parse_config,
    run_pipeline,
)
from flowsep.segment import read_table

from .oracles import flat_index, points_in_mesh, points_in_mesh_full, read_obj, traced_peak


def write_config(path, **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


SECONDS_COLUMN = 1 + [f.name for f in dataclasses.fields(runtime.IntervalStats)].index("seconds")


def untimed_artifacts(out):
    """Every artifact under `out` as text, keyed by its relative path, with the
    timing fields of report.tsv (each interval's `seconds`, `b_seconds`) blanked."""
    texts = {p.relative_to(out): p.read_text() for p in out.rglob("*") if p.is_file()}
    rows = [ln.split("\t") for ln in texts[Path("report.tsv")].splitlines()]
    for row in rows:
        if row[:2] == ["summary", "b_seconds"]:
            row[2] = "-"
        elif row[0] == "interval" and row[1] != "index":
            row[SECONDS_COLUMN] = "-"
    texts[Path("report.tsv")] = rows
    return texts


@pytest.fixture(scope="module")
def small_split(tmp_path_factory):
    """A 12^3 split sphere, 4 steps, off the grid by (0.3, -0.2, 0.3) cells: at
    r = 1 the corrector moves 150 strays in its first interval."""
    sc = SyntheticScenario(
        kind="split-sphere", cells=12, steps=4, radius=0.3, center=(0.525, 0.483, 0.525)
    )
    return write_dataset(generate_scenario(sc), tmp_path_factory.mktemp("small_split"))


def small_split_config(manifest, output, partitions=None):
    return PipelineConfig(
        manifest=manifest,
        t0=0,
        tf=3,
        output=output,
        advection=AdvectionConfig(refinement=1, corrector="full"),
        partitions=partitions,
    )


class TestConfigParsing:
    def test_full_roundtrip(self, tmp_path):
        cfg_path = write_config(
            tmp_path / "run.cfg",
            manifest="data/dataset.manifest",
            t0=0,
            tf=5,
            tau=0.0,
            refinement=1,
            substeps=2,
            corrector="stages-2-3",
            partitions="2x1x1",
            output="out",
            smooth_iterations=5,
            smooth_lambda=0.4,
            min_triangles=10,
        )
        cfg = parse_config(cfg_path)
        assert cfg.t0 == 0 and cfg.tf == 5
        assert cfg.advection.refinement == 1
        assert cfg.advection.substeps == 2
        assert cfg.advection.corrector == "stages-2-3"
        assert cfg.partitions == (2, 1, 1)
        assert cfg.manifest == (tmp_path / "data/dataset.manifest").resolve()
        assert cfg.output == (tmp_path / "out").resolve()
        assert cfg.min_triangles == 10

    def test_missing_keys_take_dataclass_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.cfg", manifest="m", t0=0, tf=3))
        want = PipelineConfig(manifest=(tmp_path / "m").resolve(), t0=0, tf=3)
        for f in dataclasses.fields(PipelineConfig):
            assert getattr(cfg, f.name) == getattr(want, f.name), f.name

    @pytest.mark.parametrize(
        "key, value",
        [
            ("partitions", "2x1"),
            ("partitions", "0x1x1"),
            ("partitions", "ax1x1"),
            ("corrector", "sometimes"),
            ("refinement", "-1"),
            ("substeps", "1.5"),
            ("tau", "1.5"),
            ("smooth_lambda", "0"),
            ("min_triangles", "-2"),
            ("partitions", ""),
            ("output", ""),
            ("manifest", ""),
        ],
    )
    def test_bad_optional_value(self, tmp_path, key, value):
        kv = {"manifest": "m", "t0": 0, "tf": 1, key: value}
        path = write_config(tmp_path / "c.cfg", **kv)
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_backward_direction_derived(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.cfg", manifest="m", t0=9, tf=2))
        assert list(runtime._step_sequence(cfg.t0, cfg.tf)) == [9, 8, 7, 6, 5, 4, 3, 2]

    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", manifest="m", t0=0, tf=1, turbo="yes")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_missing_required_key(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", manifest="m", t0=0)
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_bad_value(self, tmp_path):
        path = write_config(tmp_path / "c.cfg", manifest="m", t0="zero", tf=1)
        with pytest.raises(ConfigError):
            parse_config(path)

    @pytest.mark.parametrize(
        "key, value, where",
        [
            ("tau", "abc", "c.cfg:4: tau:"),
            ("refinement", "1.5", "c.cfg:4: refinement:"),
            ("partitions", "2x2", "c.cfg:4: partitions:"),
            ("smooth_lambda", "2", "c.cfg: smooth_lambda must"),
        ],
    )
    def test_value_error_names_file_line_and_key(self, tmp_path, key, value, where):
        path = write_config(tmp_path / "c.cfg", manifest="m", t0=0, tf=1, **{key: value})
        with pytest.raises(ConfigError, match=where):
            parse_config(path)

    def test_duplicate_key(self, tmp_path):
        (tmp_path / "c.cfg").write_text("manifest = m\nt0 = 0\nt0 = 1\ntf = 2\n")
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "c.cfg")

    def test_comments_and_blanks_ignored(self, tmp_path):
        (tmp_path / "c.cfg").write_text("# run\nmanifest = m\n\nt0 = 0\ntf = 1\n")
        cfg = parse_config(tmp_path / "c.cfg")
        assert cfg.tf == 1


class TestDegenerateRun:
    def test_dt_zero(self, split32):
        ds, manifest = split32
        cfg = PipelineConfig(
            manifest=manifest, t0=9, tf=9, advection=AdvectionConfig(refinement=1)
        )
        result = run_pipeline(cfg)
        # no intervals, no separation surfaces, diagonal table
        assert result.report.intervals == []
        assert result.s_meshes == []
        pairs = [(i, j) for i, j, _, _ in result.table.rows]
        assert pairs == [(0, 0), (1, 1)]
        assert len(result.b_meshes) == 2
        # every boundary encloses exactly its own seeds
        for mesh in result.b_meshes:
            inside = points_in_mesh(result.particles.seeds, mesh.vertices, mesh.triangles)
            assert np.array_equal(inside, result.final_labeling.labels == mesh.label)

    def test_index_out_of_range(self, split32):
        _, manifest = split32
        cfg = PipelineConfig(manifest=manifest, t0=0, tf=99)
        with pytest.raises(ConfigError):
            run_pipeline(cfg)

    def test_far_tf_rejected_without_building_its_steps(self, tmp_path):
        # the range check must not first list the million step indices up to tf
        sc = SyntheticScenario(kind="rigid-rotation", cells=4, steps=2)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")

        def run():
            with pytest.raises(ConfigError, match="tf index 1000000"):
                run_pipeline(PipelineConfig(manifest=manifest, t0=0, tf=10**6))

        assert traced_peak(run) < 2 * 2**20

    def test_tf_checked_before_any_step_file(self, tmp_path, monkeypatch, capsys):
        sc = SyntheticScenario(kind="rigid-rotation", cells=4, steps=3)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=99)
        reads = []
        read = dataset_io.read_timestep
        monkeypatch.setattr(dataset_io, "read_timestep", lambda *a: reads.append(a) or read(*a))
        assert main(["run", "--config", str(path)]) == 1
        assert reads == []
        # a truncated step file does not turn the config typo into a data error
        step = tmp_path / "ds" / "step_0002.bin"
        step.write_bytes(step.read_bytes()[:-8])
        assert main(["run", "--config", str(path)]) == 1
        assert reads == []
        assert "tf index 99 outside dataset of 3 steps" in capsys.readouterr().err

    def bad_partitions_run(self, tmp_path):
        sc = SyntheticScenario(kind="split-sphere", cells=8, steps=3)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        return write_config(
            tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=2, partitions="99x1x1"
        )

    def test_partitions_checked_before_any_step_file(self, tmp_path, monkeypatch):
        path = self.bad_partitions_run(tmp_path)
        reads = []
        read = dataset_io.read_timestep
        monkeypatch.setattr(dataset_io, "read_timestep", lambda *a: reads.append(a) or read(*a))
        assert main(["run", "--config", str(path)]) == 1
        assert reads == []

    def test_partitions_error_beats_truncated_step(self, tmp_path, capsys):
        # a truncated step file does not turn the layout error into a data error
        path = self.bad_partitions_run(tmp_path)
        step = tmp_path / "ds" / "step_0002.bin"
        step.write_bytes(step.read_bytes()[:-8])
        assert main(["run", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: partitions:")


class TestBackwardRun:
    def test_split_sphere_reversed_contributions(self, split32):
        ds, manifest = split32
        cfg = PipelineConfig(
            manifest=manifest,
            t0=9,
            tf=0,
            advection=AdvectionConfig(refinement=1),
        )
        result = run_pipeline(cfg)
        # two initial features flow back into the single initial ball
        init_labels = np.unique(result.initial_labeling.labels)
        assert set(init_labels[init_labels >= 0].tolist()) == {0, 1}
        valid_final = result.final_labeling.labels[result.final_labeling.labels >= 0]
        assert set(np.unique(valid_final).tolist()) == {0}
        pairs = {(i, j) for i, j, _, _ in result.table.rows if i >= 0 and j >= 0}
        assert pairs == {(0, 0), (1, 0)}


class TestPartitionedRuntime:
    @pytest.mark.parametrize(
        "partitions, handoffs",
        [((2, 2, 1), [1, 1, 1]), ((3, 2, 1), [1, 4, 4])],
        ids=["2x2x1", "3x2x1"],
    )
    def test_handoffs_count_block_pairs(self, tmp_path, partitions, handoffs):
        # one handoff per (source, destination) block pair per interval, not
        # one per moved particle: 30-52 particles cross a cut each interval,
        # between one pair of blocks on 2x2x1 and up to four on 3x2x1
        sc = SyntheticScenario(
            kind="rigid-rotation", cells=16, steps=4, span=1.0, radius=0.15, offset=0.2
        )
        manifest = write_dataset(generate_scenario(sc), tmp_path / "rot")
        cfg = PipelineConfig(
            manifest=manifest,
            t0=0,
            tf=3,
            advection=AdvectionConfig(refinement=1),
            partitions=partitions,
        )
        assert run_pipeline(cfg).report.handoffs == handoffs

    def test_static_particles_no_messages(self, tmp_path):
        sc = SyntheticScenario(kind="rigid-rotation", cells=12, steps=3, speed=0.0)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "static")
        cfg = PipelineConfig(manifest=manifest, t0=0, tf=2, partitions=(2, 2, 1))
        result = run_pipeline(cfg)
        assert result.report.handoffs == [0, 0]

    def test_single_crossing_particle_single_message(self, tmp_path):
        # one seed next to the partition cut, constant +x velocity, no corrector
        g = uniform_grid((4, 2, 2))
        f = np.zeros(g.ncells)
        f[flat_index(g, (1, 0, 0))] = 1.0
        u = np.zeros((3, g.ncells))
        u[0] = 0.3
        steps = [
            TimeStep(time=float(t), f=CellField(g, f), u=CellField(g, u, ncomp=3))
            for t in (0.0, 1.0)
        ]
        manifest = write_dataset(TimeSeriesDataset(grid=g, steps=steps), tmp_path / "cross")
        cfg = PipelineConfig(
            manifest=manifest,
            t0=0,
            tf=1,
            partitions=(2, 1, 1),
            advection=AdvectionConfig(corrector="off"),
        )
        result = run_pipeline(cfg)
        assert result.report.particles == 1
        assert result.report.handoffs == [1]

    @pytest.mark.parametrize("data", ["rotation", "box"])
    def test_fast_flow_bitwise_equal_serial(self, tmp_path, data):
        # one interval moves particles 16 to 22 cells, past any block: RK4
        # samples the global fields, owners come from global positions and
        # labels merge across cut faces, so no layout needs a halo
        if data == "rotation":
            sc = SyntheticScenario(kind="rigid-rotation", cells=16, steps=3, speed=6.0)
            ds = generate_scenario(sc)
        else:
            g = uniform_grid((8, 4, 4))
            u = np.zeros((3, g.ncells))
            u[0] = 2.0
            ds = TimeSeriesDataset(
                grid=g,
                steps=[
                    TimeStep(time=t, f=CellField(g, np.ones(g.ncells)), u=CellField(g, u, ncomp=3))
                    for t in (0.0, 1.0)
                ],
            )
        manifest = write_dataset(ds, tmp_path / data)
        tf = len(ds) - 1

        def run(partitions):
            return run_pipeline(
                PipelineConfig(
                    manifest=manifest,
                    t0=0,
                    tf=tf,
                    advection=AdvectionConfig(refinement=1),
                    partitions=partitions,
                )
            )

        def bits(a):
            return np.ascontiguousarray(a).view(np.uint8)

        serial = run(None)
        for partitions in ((2, 2, 2), (4, 2, 1)):
            part = run(partitions)
            assert np.array_equal(bits(serial.particles.pos), bits(part.particles.pos))
            assert np.array_equal(bits(serial.particles.eps), bits(part.particles.eps))
            assert np.array_equal(serial.particles.alive, part.particles.alive)
            assert len(serial.labelings) == len(part.labelings) == tf + 1
            for a, b in zip(serial.labelings, part.labelings):
                assert np.array_equal(a.labels, b.labels)
            assert serial.table.rows == part.table.rows
            meshes = serial.b_meshes + serial.s_meshes, part.b_meshes + part.s_meshes
            assert len(meshes[0]) == len(meshes[1])
            for a, b in zip(*meshes):
                assert (a.kind, a.label, a.timestamp) == (b.kind, b.label, b.timestamp)
                assert np.array_equal(bits(a.vertices), bits(b.vertices))
                assert np.array_equal(a.triangles, b.triangles)

    def test_mode_equivalence_on_rotation(self, tmp_path):
        sc = SyntheticScenario(
            kind="rigid-rotation", cells=16, steps=4, span=1.0, radius=0.15, offset=0.2
        )
        manifest = write_dataset(generate_scenario(sc), tmp_path / "rot")
        serial = run_pipeline(
            PipelineConfig(manifest=manifest, t0=0, tf=3, advection=AdvectionConfig(refinement=1))
        )
        part = run_pipeline(
            PipelineConfig(
                manifest=manifest,
                t0=0,
                tf=3,
                advection=AdvectionConfig(refinement=1),
                partitions=(2, 2, 1),
            )
        )
        assert np.array_equal(serial.final_labeling.labels, part.final_labeling.labels)
        assert serial.table.rows == part.table.rows
        assert np.array_equal(serial.particles.pos, part.particles.pos)
        assert np.array_equal(serial.particles.eps, part.particles.eps)
        assert sum(part.report.handoffs) > 0  # rotation does cross the cuts


    def test_serial_and_partitioned_record_the_same_intervals(self, tmp_path):
        # the only particle leaves the domain in the first interval; the second
        # interval still labels the (all-dead) set
        g = uniform_grid((4, 2, 2))
        f = np.zeros(g.ncells)
        f[flat_index(g, (3, 0, 0))] = 1.0
        u = np.zeros((3, g.ncells))
        u[0] = 1.5 * 0.25  # 1.5 cells per interval
        steps = [
            TimeStep(time=float(t), f=CellField(g, f), u=CellField(g, u, ncomp=3))
            for t in (0.0, 1.0, 2.0)
        ]
        manifest = write_dataset(TimeSeriesDataset(grid=g, steps=steps), tmp_path / "leave")
        results = []
        for partitions in (None, (2, 1, 1)):
            cfg = PipelineConfig(
                manifest=manifest,
                t0=0,
                tf=2,
                partitions=partitions,
                advection=AdvectionConfig(corrector="off"),
            )
            result = run_pipeline(cfg)
            assert result.report.particles == 1
            assert not result.particles.alive.any()
            results.append(result)
        serial, part = results
        assert len(serial.labelings) == len(part.labelings) == 3
        for a, b in zip(serial.labelings, part.labelings):
            assert a.time == b.time
            assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(serial.particles.pos, part.particles.pos)
        assert np.array_equal(serial.particles.alive, part.particles.alive)


class TestStepWindow:
    """The run checks every step in a pre-pass, then holds two at a time."""

    @pytest.fixture(scope="class")
    def rotation6(self, tmp_path_factory):
        sc = SyntheticScenario(
            kind="rigid-rotation", cells=16, steps=6, span=1.0, radius=0.15, offset=0.2
        )
        return write_dataset(generate_scenario(sc), tmp_path_factory.mktemp("rot6") / "ds")

    @pytest.mark.parametrize(
        "t0, tf, partitions",
        [(0, 5, None), (0, 5, (2, 2, 2)), (5, 0, None)],
        ids=["serial", "2x2x2", "backward"],
    )
    def test_at_most_two_resident_steps(self, rotation6, monkeypatch, t0, tf, partitions):
        refs = []
        init = TimeStep.__post_init__

        def tracked(step):
            init(step)
            refs.append(weakref.ref(step))

        def resident():
            return sum(r() is not None for r in refs)

        def counting(name, module, counts):
            fn = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: counts.append(resident()) or fn(*a, **k))

        intervals, reads = [], []
        monkeypatch.setattr(TimeStep, "__post_init__", tracked)
        counting("advance_interval", runtime, intervals)
        counting("read_timestep", dataset_io, reads)
        cfg = PipelineConfig(
            manifest=rotation6, t0=t0, tf=tf, partitions=partitions,
            advection=AdvectionConfig(refinement=1),
        )
        result = run_pipeline(cfg)
        assert len(result.report.intervals) == 5
        assert len(intervals) == 5 and max(intervals) <= 2
        # the pre-pass reads all six steps holding at most the two it keeps;
        # in the loop, the step leaving the window is gone before each read
        assert len(reads) == 6 + 4
        assert max(reads[:6]) <= 2 and reads[6:] == [1, 1, 1, 1]
        assert resident() == 0

    def test_manifest_and_grid_are_read_once(self, rotation6, monkeypatch):
        calls = {"read_manifest": 0, "read_grid": 0}
        for name in calls:
            fn = getattr(dataset_io, name)

            def counted(*a, _fn=fn, _name=name, **k):
                calls[_name] += 1
                return _fn(*a, **k)

            monkeypatch.setattr(dataset_io, name, counted)
        run_pipeline(PipelineConfig(manifest=rotation6, t0=0, tf=2))
        assert calls == {"read_manifest": 1, "read_grid": 1}
        dataset_io.load_dataset(rotation6)
        assert calls == {"read_manifest": 2, "read_grid": 2}

    @pytest.mark.parametrize("tf", [5, 1], ids=["in-run", "past-tf"])
    def test_bad_last_step_fails_before_seeding(self, tmp_path, monkeypatch, capsys, tf):
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=6)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        with open(tmp_path / "ds" / "step_0005.bin", "r+b") as fh:
            fh.seek(32)  # the first fraction value
            fh.write(struct.pack("<d", float("nan")))
        seeded = []
        monkeypatch.setattr(runtime, "seed_particles", lambda *a, **k: seeded.append(a))
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=tf)
        assert main(["run", "--config", str(path)]) == 2
        assert "step_0005.bin" in capsys.readouterr().err
        assert seeded == []

    @pytest.mark.parametrize(
        "time", [0.9, float(np.nextafter(1.0, 2.0))], ids=["other", "one-ulp"]
    )
    def test_step_time_changed_after_prepass(self, tmp_path, monkeypatch, time):
        # the manifest check would let one ulp pass; the re-read must match bit for bit
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=4)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        seed = runtime.seed_particles

        def rewrite_then_seed(*a, **k):
            with open(tmp_path / "ds" / "step_0003.bin", "r+b") as fh:
                fh.seek(24)  # the step time, after 8 magic bytes and 4 u32 dims
                fh.write(struct.pack("<d", time))
            return seed(*a, **k)

        monkeypatch.setattr(runtime, "seed_particles", rewrite_then_seed)
        with pytest.raises(DatasetError, match="step_0003.bin"):
            run_pipeline(PipelineConfig(manifest=manifest, t0=0, tf=3))


class TestReportAndArtifacts:
    def test_interval_stats_cover_each_interval_once(self, split32_result):
        report = split32_result.report
        assert len(report.intervals) == 9
        assert [s.index for s in report.intervals] == list(range(9))
        assert all(s.seconds >= 0 for s in report.intervals)

    def test_artifact_files(self, split32, tmp_path):
        _, manifest = split32
        out = tmp_path / "artifacts"
        cfg = PipelineConfig(
            manifest=manifest,
            t0=0,
            tf=9,
            advection=AdvectionConfig(refinement=1),
            output=out,
            smooth_iterations=2,
        )
        result = run_pipeline(cfg)
        assert (out / "contributions.tsv").exists()
        assert (out / "epsilon.tsv").exists()
        assert (out / "report.tsv").exists()
        mesh_manifest = out / "meshes" / "meshes.manifest"
        lines = mesh_manifest.read_text().splitlines()
        assert len(lines) == 1 + len(result.b_meshes) + len(result.s_meshes)
        # exported meshes parse back with matching counts
        name = lines[1].split("\t")[0]
        verts, tris = read_obj(out / "meshes" / name)
        assert verts.shape[1] == 3 and tris.shape[1] == 3
        # epsilon.tsv parses back to the seeds and eps bit for bit
        header, *rows = (out / "epsilon.tsv").read_text().splitlines()
        assert header == "seed\tx\ty\tz\teps"
        fields = [r.split("\t") for r in rows]
        assert [int(f[0]) for f in fields] == list(range(len(result.particles)))
        values = np.array([[float(v) for v in f[1:]] for f in fields]).reshape(-1, 4)
        assert np.array_equal(values[:, :3].view(np.int64), result.particles.seeds.view(np.int64))
        assert np.array_equal(values[:, 3].view(np.int64), result.particles.eps.view(np.int64))
        assert read_table(out / "contributions.tsv").rows == result.table.rows


class TestCli:
    def test_gen_run_report(self, tmp_path, capsys):
        data_dir = tmp_path / "ds"
        rc = main(
            [
                "gen",
                "--scenario",
                "split-sphere",
                "--cells",
                "16",
                "--steps",
                "4",
                "--out",
                str(data_dir),
                "--radius",
                "0.2",
            ]
        )
        assert rc == 0
        cfg_path = write_config(
            tmp_path / "run.cfg",
            manifest="ds/dataset.manifest",
            t0=0,
            tf=3,
            refinement=1,
            output="out",
        )
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert main(["report", "--run", str(tmp_path / "out")]) == 0
        out = capsys.readouterr().out
        assert "summary\tparticles" in out

    def test_gen_non_numeric_center_exit_code(self, tmp_path, capsys):
        out = tmp_path / "ds"
        argv = ["gen", "--scenario", "split-sphere", "--cells", "8", "--steps", "2"]
        assert main(argv + ["--out", str(out), "--center", "a,b,c"]) == 1
        assert "--center" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--span", "0"),
            ("--span", "-1"),
            ("--span", "nan"),
            ("--span", "inf"),
            ("--radius", "nan"),
            ("--radius", "inf"),
            ("--speed", "nan"),
            ("--offset", "inf"),
            ("--t-split", "nan"),
            ("--center", "0.5,nan,0.5"),
        ],
    )
    def test_gen_bad_scenario_value_exit_code(self, tmp_path, capsys, flag, value):
        # rejected before any step is generated or written
        out = tmp_path / "ds"
        argv = ["gen", "--scenario", "split-sphere", "--cells", "8", "--steps", "2"]
        assert main(argv + ["--out", str(out), flag, value]) == 2
        assert flag.lstrip("-").replace("-", "_") in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--scenario", "merge-then-split", "--speed", "1e308"], "velocity values must be finite"),
            (["--scenario", "split-sphere", "--span", "5e-324"], "strictly increasing"),
        ],
        ids=["velocity-overflow", "times-underflow"],
    )
    def test_gen_unrepresentable_step_exit_code(self, tmp_path, capsys, flags, message):
        # valid scenario values whose steps the grid cannot hold: an infinite
        # velocity, and three times of which two round to the same float
        out = tmp_path / "ds"
        argv = ["gen", "--cells", "4", "--steps", "3", "--out", str(out)]
        assert main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: scenario step") and message in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("cells", [3_000_000, 800_000])
    def test_gen_unaddressable_cells_exit_code(self, tmp_path, monkeypatch, capsys, cells):
        # 24 * cells^3 bytes of velocity is more than numpy can address: the
        # scenario is rejected before any array is built
        monkeypatch.setattr(cli, "generate_scenario", lambda sc: pytest.fail("generated"))
        out = tmp_path / "ds"
        argv = ["gen", "--scenario", "split-sphere", "--cells", str(cells), "--steps", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"data error: cells {cells}") and "Traceback" not in err
        assert not out.exists()

    def test_gen_out_of_memory_exit_code(self, tmp_path, capsys):
        # addressable, but its cell centres alone want 2.38 EiB: numpy's
        # request exceeds any address space, so it is refused before any
        # memory is touched
        out = tmp_path / "ds"
        argv = ["gen", "--scenario", "split-sphere", "--cells", "700000", "--steps", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: out of memory (") and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("refinement", [29, 40, 70])
    def test_unindexable_refinement_exit_code(self, tmp_path, monkeypatch, capsys, refinement):
        # 4 cells per axis: from r = 29 on the seed lattice needs more than
        # int32 indices per axis, so the run stops before any step is read
        sc = SyntheticScenario(kind="rigid-rotation", cells=4, steps=2)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        path = write_config(
            tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1, refinement=refinement
        )
        reads = []
        read = dataset_io.read_timestep
        monkeypatch.setattr(dataset_io, "read_timestep", lambda *a: reads.append(a) or read(*a))
        assert main(["run", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: refinement {refinement} is too fine")
        assert "Traceback" not in err
        assert reads == []

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", manifest="m", t0=0, tf=1, bogus="x")
        assert main(["run", "--config", str(path)]) == 1

    def test_removed_trail_stride_exit_code(self, tmp_path, capsys):
        # trails are gone; a config that still sets their stride is an unknown key
        path = write_config(tmp_path / "old.cfg", manifest="m", t0=0, tf=1, trail_stride=8)
        assert main(["run", "--config", str(path)]) == 1
        assert "trail_stride" in capsys.readouterr().err

    def test_removed_ghost_width_exit_code(self, tmp_path, capsys):
        # there is no halo to size; a config that still sets its width is an unknown key
        path = write_config(tmp_path / "old.cfg", manifest="m", t0=0, tf=1, ghost_width=3)
        assert main(["run", "--config", str(path)]) == 1
        assert "ghost_width" in capsys.readouterr().err

    def test_internal_invariant_exit_code(self, tmp_path, monkeypatch, capsys):
        sc = SyntheticScenario(kind="rigid-rotation", cells=4, steps=2)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1)

        def fail(*args, **kwargs):
            raise PhaseConsistencyError("corrector left 1 phase-inconsistent particles")

        monkeypatch.setattr(runtime, "advance_interval", fail)
        assert main(["run", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("internal invariant violation:")
        assert "Traceback" not in err

    def test_data_error_exit_code(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", manifest="missing.manifest", t0=0, tf=1)
        assert main(["run", "--config", str(path)]) == 2

    def test_report_missing_run_dir(self, tmp_path):
        assert main(["report", "--run", str(tmp_path / "nope")]) == 2

    @pytest.mark.parametrize(
        "target, code, prefix",
        [("config", 1, "config error:"), ("manifest", 2, "data error:"), ("report", 2, "data error:")],
        ids=["config", "manifest", "report"],
    )
    def test_undecodable_text_exit_code(self, tmp_path, capsys, target, code, prefix):
        # a stray Latin-1 byte (0xe9) in a config file, manifest or report.tsv
        sc = SyntheticScenario(kind="rigid-rotation", cells=4, steps=2)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1)
        if target == "report":
            (tmp_path / "out").mkdir()
            (tmp_path / "out" / "report.tsv").write_bytes(b"summary\tparticles\t\xe9\n")
            argv = ["report", "--run", str(tmp_path / "out")]
        else:
            bad = path if target == "config" else manifest
            bad.write_bytes(bad.read_bytes() + b"# caf\xe9\n")
            argv = ["run", "--config", str(path)]
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix)
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "key, value",
        [
            ("tau", -1),
            ("tau", 1.5),
            ("smooth_iterations", -3),
            ("smooth_lambda", 2),
            ("min_triangles", -5),
        ],
    )
    def test_out_of_range_value_exit_code(self, tmp_path, key, value):
        # the manifest does not exist: the value must be rejected before any load
        path = write_config(tmp_path / "run.cfg", manifest="m", t0=0, tf=1, **{key: value})
        assert main(["run", "--config", str(path)]) == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("time", "abc"),
            ("time", "nan"),
            ("fraction", "nan"),
            ("fraction", "2.0"),
            ("velocity", "inf"),
        ],
    )
    def test_bad_data_file_exit_code(self, tmp_path, field, value):
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=2)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        if field == "time":
            manifest.write_text(manifest.read_text().replace("0.0\t", f"{value}\t", 1))
        else:
            # step payload: 32 header bytes, then f, then u, 8 bytes per cell
            offset = 32 + (8 * 6**3 if field == "velocity" else 0)
            with open(tmp_path / "ds" / "step_0001.bin", "r+b") as fh:
                fh.seek(offset)
                fh.write(struct.pack("<d", float(value)))
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1)
        assert main(["run", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "fault, named",
        [
            ("no-steps", "dataset.manifest"),
            ("step-tail", "step_0001.bin"),
            ("grid-tail", "grid.bin"),
            ("step-nan-time", "step_0001.bin"),
        ],
        ids=["no-steps", "step-tail", "grid-tail", "step-nan-time"],
    )
    def test_malformed_dataset_exit_code(self, tmp_path, capsys, fault, named):
        # a manifest without steps, a step or grid file with bytes past its
        # payload, or a step file whose time is NaN
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=2)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        if fault == "no-steps":
            manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
        elif fault == "step-nan-time":
            # step header: 8 magic bytes, 4 u32 dims, then the f64 time
            with open(tmp_path / "ds" / named, "r+b") as fh:
                fh.seek(24)
                fh.write(struct.pack("<d", float("nan")))
        else:
            with open(tmp_path / "ds" / named, "ab") as fh:
                fh.write(b"\0" * 8)
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1)
        assert main(["run", "--config", str(path)]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "node, value",
        [(6, 0.75), (3, "nan"), (6, "inf"), (0, "-inf")],
        ids=["decreasing", "nan", "last-inf", "first-neg-inf"],
    )
    def test_bad_grid_file_exit_code(self, tmp_path, capsys, node, value):
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=2)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        # grid file: 12 header bytes, the x axis node count, then its 7 nodes
        with open(tmp_path / "ds" / "grid.bin", "r+b") as fh:
            fh.seek(16 + 8 * node)
            fh.write(struct.pack("<d", float(value)))
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1)
        assert main(["run", "--config", str(path)]) == 2
        assert "grid.bin" in capsys.readouterr().err

    def test_huge_grid_node_count_exit_code(self, tmp_path, capsys):
        # the x node count 0xFFFFFFFF asks for 32 GiB; it must fail on the file size
        sc = SyntheticScenario(kind="rigid-rotation", cells=8, steps=2)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        with open(tmp_path / "ds" / "grid.bin", "r+b") as fh:
            fh.seek(12)
            fh.write(struct.pack("<I", 0xFFFFFFFF))
        path = write_config(tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert "grid.bin: truncated axis coordinates" in err and "Traceback" not in err

    def test_byte_order_marks_give_the_same_artifacts(self, tmp_path):
        sc = SyntheticScenario(kind="split-sphere", cells=12, steps=3, radius=0.3)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        (tmp_path / "ds" / "bom.manifest").write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        for name, listed in (("plain", "dataset"), ("bom", "bom")):
            path = write_config(
                tmp_path / f"{name}.cfg", manifest=f"ds/{listed}.manifest", t0=0, tf=2,
                output=f"out-{name}",
            )
            if name == "bom":
                path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            assert main(["run", "--config", str(path)]) == 0
        plain = untimed_artifacts(tmp_path / "out-plain")
        assert any(f.name.startswith("s_") for f in plain)
        assert untimed_artifacts(tmp_path / "out-bom") == plain

    def test_unusable_output_path_exit_code(self, tmp_path, monkeypatch, capsys):
        # the output's parent is a regular file: rejected before any data loads
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=2)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        (tmp_path / "notadir").write_text("")
        loads = []
        scan = runtime.scan_dataset
        monkeypatch.setattr(runtime, "scan_dataset", lambda *a: loads.append(a) or scan(*a))
        path = write_config(
            tmp_path / "run.cfg", manifest="ds/dataset.manifest", t0=0, tf=1, output="notadir/out"
        )
        assert main(["run", "--config", str(path)]) == 1
        assert "notadir" in capsys.readouterr().err
        assert loads == []

    def test_more_partitions_than_cells_exit_code(self, tmp_path):
        sc = SyntheticScenario(kind="rigid-rotation", cells=12, steps=2)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        path = write_config(
            tmp_path / "run.cfg",
            manifest="ds/dataset.manifest",
            t0=0,
            tf=1,
            partitions="20x1x1",
        )
        assert main(["run", "--config", str(path)]) == 1


@pytest.fixture(scope="module")
def default_artifacts(small_split, tmp_path_factory):
    """`untimed_artifacts` of `small_split` at the default batching constants,
    serial and 2x2x2 (which hands off particles), keyed by the partitioning."""
    want = {}
    for partitions in (None, (2, 2, 2)):
        out = tmp_path_factory.mktemp("default")
        result = run_pipeline(small_split_config(small_split, out, partitions))
        assert result.report.intervals[0].corrected > 0 and result.s_meshes
        assert any(result.report.handoffs) == (partitions is not None)
        want[partitions] = untimed_artifacts(out)
    return want


class TestBatchingConstants:
    # each constant is also tested alone in its own layer; here all of them
    # are drawn at once. The run's lattices have 2 312, 2 601 and 4 913 nodes
    # and its meshes 244 to 722 vertices, so PACK_NODES and SMOOTH_VERTICES
    # range from one lattice or mesh per batch to all of them in one.
    @settings(max_examples=5, deadline=None)
    @example(rk4=7, ring=5, pack=64, smooth=5, rows=3)
    @given(
        rk4=st.integers(16, 256),
        ring=st.integers(1, 256),
        pack=st.integers(1, 10_000),
        smooth=st.integers(1, 2_000),
        rows=st.integers(1, 64),
    )
    def test_all_small_at_once_change_no_artifact_byte(
        self, small_split, default_artifacts, tmp_path_factory, rk4, ring, pack, smooth, rows
    ):
        with pytest.MonkeyPatch.context() as mp:
            for module, name, value in (
                (advect, "RK4_BLOCK", rk4),
                (advect, "RING_BLOCK", ring),
                (extract, "PACK_NODES", pack),
                (extract, "SMOOTH_VERTICES", smooth),
                (segment, "EXPORT_ROWS", rows),
            ):
                mp.setattr(module, name, value)
            for partitions, want in default_artifacts.items():
                out = tmp_path_factory.mktemp("small")
                run_pipeline(small_split_config(small_split, out, partitions))
                assert untimed_artifacts(out) == want, partitions


# module attributes that the benchmark harness (perfbench/measure.py) wraps
# by name to time a layer: a refactor must keep calling each of them
PROBE_TARGETS = {
    runtime: (
        "advance_interval",
        "seed_particles",
        "label_features_partitioned",
        "assign_labels",
        "detect_splits",
        "contribution_table",
        "extract_boundaries",
        "extract_separation_surface",
        "export_meshes",
    ),
    advect: ("rk4_positions", "sample_velocity", "correct_strays", "is_liquid_many"),
    extract: ("marching_cubes",),
}


class TestProbeTargets:
    def test_every_probe_target_is_called(self, small_split, tmp_path, monkeypatch):
        calls = {}
        for module, names in PROBE_TARGETS.items():
            for name in names:
                key = f"{module.__name__}.{name}"
                calls[key] = 0

                def counted(*args, _fn=getattr(module, name), _key=key, **kwargs):
                    calls[_key] += 1
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, counted)
        result = run_pipeline(small_split_config(small_split, tmp_path / "out"))
        assert result.report.splits
        assert [key for key, n in calls.items() if n == 0] == []


class TestEnclosureOnAdvectedRun:
    def test_b_meshes_classify_seeds_by_label(self, split32_result):
        result = split32_result
        for mesh in result.b_meshes:
            inside = points_in_mesh(result.particles.seeds, mesh.vertices, mesh.triangles)
            member = result.final_labeling.labels == mesh.label
            assert np.array_equal(inside, member)

    def test_culled_ray_cast_equals_full_cast(self, split32_result):
        # the oracle's box culling drops no crossing: a fixed sample of the seeds
        # and every fourth mesh vertex (points on the surface) against the full cast
        seeds = split32_result.particles.seeds
        rng = np.random.default_rng(5)
        for mesh in split32_result.b_meshes:
            pts = np.vstack([seeds[rng.choice(len(seeds), 1500, replace=False)], mesh.vertices[::4]])
            inside = points_in_mesh(pts, mesh.vertices, mesh.triangles)
            assert np.array_equal(inside, points_in_mesh_full(pts, mesh.vertices, mesh.triangles))
            assert inside.any() and not inside.all()
