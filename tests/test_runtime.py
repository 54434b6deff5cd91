from __future__ import annotations

import struct

import numpy as np
import pytest

from flowsep.advect import AdvectionConfig
from flowsep import runtime
from flowsep.cli import main
from flowsep.dataset_io import (
    SyntheticScenario,
    generate_scenario,
    write_dataset,
)
from flowsep.extract import read_obj
from flowsep.grid import CellField, TimeSeriesDataset, TimeStep, uniform_grid
from flowsep.runtime import (
    ConfigError,
    GhostWidthError,
    PipelineConfig,
    parse_config,
    run_pipeline,
)

from .oracles import flat_index, points_in_mesh, points_in_mesh_full


def write_config(path, **kv):
    lines = [f"{k} = {v}" for k, v in kv.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


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
            trail_stride=4,
            partitions="2x1x1",
            ghost_width=3,
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
        assert cfg.ghost_width == 3
        assert cfg.manifest == (tmp_path / "data/dataset.manifest").resolve()
        assert cfg.output == (tmp_path / "out").resolve()
        assert cfg.min_triangles == 10

    def test_backward_direction_derived(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "c.cfg", manifest="m", t0=9, tf=2))
        assert runtime._step_sequence(cfg.t0, cfg.tf) == [9, 8, 7, 6, 5, 4, 3, 2]

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

    def test_ghost_width_violation_aborts(self, tmp_path):
        g = uniform_grid((8, 4, 4))
        f = np.ones(g.ncells)
        u = np.zeros((3, g.ncells))
        u[0] = 5.0  # 40 cells of displacement per unit interval
        steps = [
            TimeStep(time=float(t), f=CellField(g, f), u=CellField(g, u, ncomp=3))
            for t in (0.0, 1.0)
        ]
        manifest = write_dataset(TimeSeriesDataset(grid=g, steps=steps), tmp_path / "fast")
        cfg = PipelineConfig(manifest=manifest, t0=0, tf=1, partitions=(2, 1, 1))
        with pytest.raises(GhostWidthError):
            run_pipeline(cfg)

    def test_ghost_width_checked_before_any_interval(self, tmp_path, monkeypatch):
        # only the second of two intervals is too fast; the run must fail
        # before integrating the first one
        g = uniform_grid((8, 4, 4))
        f = np.ones(g.ncells)
        slow = np.zeros((3, g.ncells))
        fast = np.zeros((3, g.ncells))
        fast[0] = 5.0  # 40 cells of displacement per unit interval
        steps = [
            TimeStep(time=float(t), f=CellField(g, f), u=CellField(g, u, ncomp=3))
            for t, u in ((0.0, slow), (1.0, slow), (2.0, fast))
        ]
        manifest = write_dataset(TimeSeriesDataset(grid=g, steps=steps), tmp_path / "late")
        calls = []
        monkeypatch.setattr(runtime, "advance_interval", lambda *a, **k: calls.append(k))
        cfg = PipelineConfig(manifest=manifest, t0=0, tf=2, partitions=(2, 1, 1))
        with pytest.raises(GhostWidthError):
            run_pipeline(cfg)
        assert calls == []

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
        eps_lines = (out / "epsilon.tsv").read_text().splitlines()
        assert len(eps_lines) == 1 + len(result.particles)


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

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path / "bad.cfg", manifest="m", t0=0, tf=1, bogus="x")
        assert main(["run", "--config", str(path)]) == 1

    def test_data_error_exit_code(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", manifest="missing.manifest", t0=0, tf=1)
        assert main(["run", "--config", str(path)]) == 2

    def test_report_missing_run_dir(self, tmp_path):
        assert main(["report", "--run", str(tmp_path / "nope")]) == 2

    def test_ghost_width_below_two_exit_code(self, tmp_path):
        path = write_config(tmp_path / "run.cfg", manifest="m", t0=0, tf=1, ghost_width=1)
        assert main(["run", "--config", str(path)]) == 1

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
        [("no-steps", "dataset.manifest"), ("step-tail", "step_0001.bin"), ("grid-tail", "grid.bin")],
        ids=["no-steps", "step-tail", "grid-tail"],
    )
    def test_malformed_dataset_exit_code(self, tmp_path, capsys, fault, named):
        # a manifest without steps, or a step or grid file with bytes past its payload
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=2)
        manifest = write_dataset(generate_scenario(sc), tmp_path / "ds")
        if fault == "no-steps":
            manifest.write_text(manifest.read_text().splitlines()[0] + "\n")
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

    def test_unusable_output_path_exit_code(self, tmp_path, monkeypatch, capsys):
        # the output's parent is a regular file: rejected before any data loads
        sc = SyntheticScenario(kind="rigid-rotation", cells=6, steps=2)
        write_dataset(generate_scenario(sc), tmp_path / "ds")
        (tmp_path / "notadir").write_text("")
        loads = []
        load = runtime.load_dataset
        monkeypatch.setattr(runtime, "load_dataset", lambda m: loads.append(m) or load(m))
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


class TestTrailFrames:
    def test_stride_and_labels(self, split32_result):
        trail = split32_result.particles.trail
        assert len(trail) == 1  # 9 intervals, stride 8
        frame = trail[0]
        assert frame.labels is not None
        assert frame.positions.shape == split32_result.particles.pos.shape
        assert set(np.unique(frame.labels)).issubset({-1, 0, 1})

    def test_serial_and_partitioned_record_the_same_frames(self, tmp_path):
        # the only particle leaves the domain in the first interval; the
        # second interval still records its (all-dead) frame
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
        trails = []
        for partitions in (None, (2, 1, 1)):
            cfg = PipelineConfig(
                manifest=manifest,
                t0=0,
                tf=2,
                partitions=partitions,
                advection=AdvectionConfig(corrector="off", trail_stride=1),
            )
            result = run_pipeline(cfg)
            assert result.report.particles == 1
            assert not result.particles.alive.any()
            trails.append(result.particles.trail)
        serial, part = trails
        assert [fr.time for fr in serial] == [1.0, 2.0]
        assert [fr.time for fr in part] == [1.0, 2.0]
        for a, b in zip(serial, part):
            assert np.array_equal(a.positions, b.positions)
            assert np.array_equal(a.alive, b.alive)
            assert np.array_equal(a.labels, b.labels)
