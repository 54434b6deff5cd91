"""Child process of the benchmark: generates one dataset, or runs the pipeline.

    python3 measure.py gen   --workload W --seed N --data DIR --result FILE
    python3 measure.py run   --workload W --data DIR --out DIR --result FILE [--traced]

`gen` writes the workload's dataset. `run` makes exactly one full pipeline
run with export, so the process's peak RSS is that run's, then checks its
output. With `--traced` the run carries the per-layer probes below. Each mode
writes one JSON result.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(SRC), str(HERE)]

import flowsep  # noqa: E402
import numpy as np  # noqa: E402
from flowsep import load_dataset, runtime  # noqa: E402

from checks import accuracy, check_run  # noqa: E402
from tracer import Probe, Tracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

# The first call of either name starts the first interval's integration:
# `advance_interval` in the serial loop, `rk4_positions` in the partitioned one.
INTEGRATION_ENTRIES = ("advance_interval", "rk4_positions")


class SetupMarker:
    """The single boundary marker: time of the first integration call."""

    def __init__(self):
        self.at: float | None = None
        self._saved: list[tuple[str, object]] = []

    def __enter__(self) -> SetupMarker:
        for name in INTEGRATION_ENTRIES:
            fn = getattr(runtime, name, None)
            if callable(fn):
                self._saved.append((name, fn))
                setattr(runtime, name, self._wrap(fn))
        return self

    def __exit__(self, *exc) -> None:
        for name, fn in self._saved:
            setattr(runtime, name, fn)

    def _wrap(self, fn):
        def marked(*args, **kwargs):
            if self.at is None:
                self.at = time.perf_counter()
            return fn(*args, **kwargs)

        return marked


# -- per-layer probes ---------------------------------------------------------


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count(key: str, measure):
    def after(t, args, kwargs, result, pre):
        t.add(key, measure(args, kwargs, result))

    return after


def _alive_before(t, args, kwargs):
    return int(_arg(args, kwargs, 0, "particles").alive.sum())


def _strays(t, args, kwargs, result, checked):
    t.add("advect.strays", len(result))
    t.add("advect.checked", checked)


def _solve_key(t, args, kwargs):
    step = _arg(args, kwargs, 0, "step")
    cell = _arg(args, kwargs, 1, "cell")
    t.keys["plic.solve"].add((float(step.time), tuple(int(v) for v in cell)))


def _handoffs(t, args, kwargs, result, pre):
    messages = _arg(args, kwargs, 1, "messages")
    t.add("runtime.handoff_messages", len(messages))
    t.add("runtime.handoff_particles", sum(int(m.ids.size) for m in messages))


_rk4_points = _count("advect.rk4_points", lambda a, k, r: len(_arg(a, k, 2, "pts")))
_components = _count("labeling.components", lambda a, k, r: r.count)

R, A, P = "flowsep.runtime", "flowsep.advect", "flowsep.plic"
PROBES = [
    Probe(R, "load_dataset", "dataset_io.load"),
    Probe(R, "seed_particles", "advect.seed",
          after=_count("advect.seeds", lambda a, k, r: len(r))),
    Probe(A, "rk4_positions", "advect.rk4", after=_rk4_points),
    Probe(R, "rk4_positions", "advect.rk4", after=_rk4_points),
    Probe(A, "sample_velocity", "grid.sample_velocity"),
    Probe(A, "correct_strays", "advect.correct", before=_alive_before, after=_strays),
    Probe(R, "correct_strays", "advect.correct", before=_alive_before, after=_strays),
    Probe(A, "is_liquid_many", "plic.is_liquid_many",
          after=_count("plic.points_tested", lambda a, k, r: len(r))),
    Probe(P, "reconstruct_patch", "plic.solve", before=_solve_key),
    Probe(A, "reconstruct_patch", "plic.solve", before=_solve_key),
    Probe(R, "label_features", "labeling.label", after=_components),
    Probe(R, "label_features_partitioned", "labeling.label", after=_components),
    Probe(R, "assign_labels", "segment.assign"),
    Probe(R, "labels_for_positions", "segment.assign"),
    Probe(R, "detect_splits", "segment.split_detect",
          after=_count("segment.split_events", lambda a, k, r: len(r))),
    Probe(R, "contribution_table", "segment.table",
          after=_count("segment.table_rows", lambda a, k, r: len(r.rows))),
    Probe(R, "extract_boundary", "extract.b"),
    Probe(R, "extract_separation_surface", "extract.s"),
    Probe(R, "smooth_mesh", "extract.smooth"),
    Probe(R, "export_meshes", "extract.export"),
    Probe("flowsep.extract", "marching_cubes", "marching.mc",
          after=_count("marching.triangles", lambda a, k, r: len(r[1]))),
    Probe(R, "partition_exchange", "runtime.exchange", after=_handoffs),
]


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def layer_metrics(tracer: Tracer, data: Path, output: Path) -> dict[str, float]:
    """Per-layer metrics from the spans and counts; byte counts are computed
    from the sizes of the dataset and output files."""
    total, self_time, calls = tracer.totals()
    c = tracer.counts
    checked = c["advect.checked"]
    solves = calls["plic.solve"]
    return {
        "dataset_io.load_s": total["dataset_io.load"],
        "dataset_io.bytes_read": _tree_bytes(data),
        "advect.seed_s": total["advect.seed"],
        "advect.seeds": c["advect.seeds"],
        "advect.rk4_s": total["advect.rk4"],
        "advect.rk4_points": c["advect.rk4_points"],
        "grid.sample_velocity_s": total["grid.sample_velocity"],
        "grid.sample_velocity_calls": calls["grid.sample_velocity"],
        "advect.correct_s": total["advect.correct"],
        "advect.correct_self_s": self_time["advect.correct"],
        "advect.strays": c["advect.strays"],
        "advect.stray_ratio": c["advect.strays"] / checked if checked else 0.0,
        "plic.is_liquid_many_s": total["plic.is_liquid_many"],
        "plic.points_tested": c["plic.points_tested"],
        "plic.solve_s": total["plic.solve"],
        "plic.solves": solves,
        "plic.unique_solve_ratio": len(tracer.keys["plic.solve"]) / solves if solves else 0.0,
        "labeling.label_s": total["labeling.label"],
        "labeling.calls": calls["labeling.label"],
        "labeling.components": c["labeling.components"],
        "segment.assign_s": total["segment.assign"],
        "segment.split_detect_s": total["segment.split_detect"],
        "segment.split_events": c["segment.split_events"],
        "segment.table_s": total["segment.table"],
        "segment.table_rows": c["segment.table_rows"],
        "extract.b_s": total["extract.b"],
        "extract.s_s": total["extract.s"],
        "extract.smooth_s": total["extract.smooth"],
        "extract.export_s": total["extract.export"],
        "extract.output_bytes": _tree_bytes(output),
        "marching.mc_s": total["marching.mc"],
        "marching.mc_calls": calls["marching.mc"],
        "marching.triangles": c["marching.triangles"],
        "runtime.self_s": self_time["runtime.run_pipeline"],
        "runtime.exchange_s": total["runtime.exchange"],
        "runtime.handoff_messages": c["runtime.handoff_messages"],
        "runtime.handoff_particles": c["runtime.handoff_particles"],
        "runtime.handoff_bytes": 8 * c["runtime.handoff_particles"],
    }


# -- modes --------------------------------------------------------------------


def do_gen(args) -> dict:
    workload = WORKLOADS[args.workload]
    t0 = time.perf_counter()
    generate(workload, args.seed, args.data)
    return {
        "gen_s": time.perf_counter() - t0,
        "numpy": np.__version__,
        "workload": workload.describe(),
    }


def do_run(args) -> dict:
    workload = WORKLOADS[args.workload]
    manifest = args.data / "dataset.manifest"
    cfg = workload.config(manifest, args.out)
    # The untraced run carries only the set-up marker; the traced run only probes.
    tracer = Tracer(PROBES)
    marker = SetupMarker()
    with tracer if args.traced else marker:
        start = time.perf_counter()
        if args.traced:
            result = tracer.span("runtime.run_pipeline", flowsep.run_pipeline, cfg)
        else:
            result = flowsep.run_pipeline(cfg)
        run_s = time.perf_counter() - start
    # Read peak RSS before the checks load the dataset again.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ds = load_dataset(manifest)
    rep = result.report
    alive_before = [rep.particles] + [s.alive for s in rep.intervals[:-1]]
    out = {
        "run_s": run_s,
        "setup_s": None if marker.at is None else marker.at - start,
        "peak_rss_mb": peak_rss_mb,
        "particles": rep.particles,
        "particle_intervals": int(sum(alive_before)),
        **accuracy(result, ds.grid),
        "errors": check_run(workload, result, ds, args.out),
    }
    if args.traced:
        out["layers"] = layer_metrics(tracer, args.data, args.out)
        out["trace"] = tracer.dump()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("gen", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--data", type=Path, required=True)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--result", type=Path, required=True)
    args = ap.parse_args(argv)
    if not Path(flowsep.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"flowsep imported from {flowsep.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    modes = {"gen": do_gen, "run": do_run}
    try:
        out = {"ok": True, **modes[args.mode](args)}
        if out.get("errors"):
            out["ok"] = False
    except Exception:  # boundary: the parent counts this run as failed
        out = {"ok": False, "errors": [traceback.format_exc()]}
    args.result.write_text(json.dumps(out))
    return 0 if out["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
