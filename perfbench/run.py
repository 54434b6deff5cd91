"""flowsep benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload split-r1 --seed 1 --seconds 35 --trace 0

Run from the repository root; flowsep is imported from ./src. The workload's
dataset is generated from the seed in a separate process first, so neither
generation time nor generation memory reaches any metric. Every measured
process runs with one BLAS/OpenMP thread.

--trace 0 makes full pipeline runs with export, one fresh process per run,
as many as fit in --seconds, and prints the end-to-end metrics as medians
over the runs. Each run also marks where its set-up ends, so set-up is timed
once per run.
--trace 1 makes untraced runs for half of --seconds, then one traced run, and
prints the per-layer metrics, including the tracing overhead.

Every run's output is checked (see checks.py); a run that raises or fails a
check counts as failed. The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics. Details of each invocation,
including the trace spans, are written under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
BUDGET_S = 165.0  # the whole invocation must end within 180 s


class Session:
    """One benchmark invocation: its work directory, child runs and deadline."""

    def __init__(self, workload: str, seed: int, trace: int):
        self.workload = workload
        self.seed = seed
        self.dir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
        self.data = self.dir / "data"
        self.started = time.monotonic()
        self.env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.particles = 0
        self._runs = 0

    def left(self) -> float:
        return BUDGET_S - (time.monotonic() - self.started)

    def child(self, mode: str, *extra: str, count: bool = True) -> dict:
        """Run measure.py in a fresh process and return its result."""
        self._runs += 1
        result = self.dir / f"{mode}-{self._runs}.json"
        cmd = [
            sys.executable, str(HERE / "measure.py"), mode, "--workload", self.workload,
            "--seed", str(self.seed), "--data", str(self.data), "--result", str(result), *extra,
        ]
        try:
            subprocess.run(
                cmd, env=self.env, stdout=sys.stderr, timeout=max(self.left(), 1.0), check=False
            )
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            out = {"ok": False, "errors": [f"{mode} exceeded the time budget"]}
        else:
            out = json.loads(result.read_text()) if result.is_file() else {
                "ok": False, "errors": [f"{mode} wrote no result"]}
        if count:
            self.attempted += 1
            self.failed += not out["ok"]
        self.errors += out.get("errors", [])
        return out

    def run(self, traced: bool = False) -> dict | None:
        """One full pipeline run; None if it raised. A run that only failed
        an output check still returns its measurements."""
        out = self.dir / f"out-{self._runs + 1}"
        res = self.child("run", "--out", str(out), *(["--traced"] if traced else []))
        shutil.rmtree(out, ignore_errors=True)
        if "run_s" not in res:
            return None
        self.particles = res["particles"]
        return res


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile that has at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"no percentile has 10 samples beyond it (n={n})"
    k = n - 11  # sorted[k] has n - 1 - k = 10 samples above it
    return f"p{100.0 * (k + 1) / n:.1f}={sorted(samples)[k]:.6g} (n={n})"


def git_revision() -> str:
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def timed_runs(s: Session, seconds: float) -> list[dict]:
    """Untraced full runs, one after another, while the next one is expected
    to end within `seconds`."""
    runs: list[dict] = []
    spent = longest = 0.0
    n = 0
    while s.left() > 1.5 * longest + 10.0:
        if n and spent * (n + 1) / n > seconds:
            break
        t0 = time.monotonic()
        res = s.run()
        longest = max(longest, time.monotonic() - t0)
        spent += time.monotonic() - t0
        n += 1
        if res is not None:
            runs.append(res)
    return runs


def measure_end_to_end(s: Session, seconds: float) -> tuple[dict, list[str], dict]:
    runs = timed_runs(s, seconds)
    setup_samples = [r["setup_s"] for r in runs if r["setup_s"] is not None]
    if not runs or not setup_samples:
        return {}, [], {}
    run_s = [r["run_s"] for r in runs]
    metrics = {
        "run_s": statistics.median(run_s),
        "particle_intervals_per_s": statistics.median(
            r["particle_intervals"] / r["run_s"] for r in runs),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    lines = [
        f"run_s                     {metrics['run_s']:.6g} s  median; "
        f"{tail_percentile(run_s)}",
        f"particle_intervals_per_s  {metrics['particle_intervals_per_s']:.6g} 1/s  median "
        f"({runs[0]['particle_intervals']} particle-intervals, "
        f"{runs[0]['particles']} particles)",
        f"setup_s                   {metrics['setup_s']:.6g} s  median; "
        f"{tail_percentile(setup_samples)}",
        f"peak_rss_mb               {metrics['peak_rss_mb']:.6g} MB  median of {len(runs)} runs",
        f"error_rate                {s.failed / max(s.attempted, 1):.6g} ratio  "
        f"({s.failed} of {s.attempted} runs failed)",
        f"lost_volume_frac          {runs[0]['lost_volume_frac']:.6g} ratio",
        f"mean_eps_cells            {runs[0]['mean_eps_cells']:.6g} cells",
    ]
    return metrics, lines, {"run_s": run_s, "setup_s": setup_samples, "runs": runs}


def measure_layers(
    s: Session, seconds: float, units: dict[str, str]
) -> tuple[dict, list[str], dict]:
    """Per-layer metrics of one traced run, and the trace itself. Untraced
    runs for half of `seconds` give the run time the tracing overhead is
    measured against."""
    plain = [r["run_s"] for r in timed_runs(s, seconds / 2)]
    traced = s.run(traced=True) if plain else None
    if traced is None:
        return {}, [], {}
    metrics = dict(traced["layers"])
    metrics["advect.mean_eps_cells"] = traced["mean_eps_cells"]
    metrics["segment.lost_volume_frac"] = traced["lost_volume_frac"]
    metrics["trace.overhead_s"] = traced["run_s"] - statistics.median(plain)
    lines = [f"{k:28s} {metrics[k]:.6g} {unit}" for k, unit in units.items()]
    lines.append(
        f"traced run_s {traced['run_s']:.6g} s; untraced run_s median "
        f"{statistics.median(plain):.6g} s of {len(plain)} runs"
    )
    trace = traced["trace"]
    if trace["absent"]:
        lines.append("absent (not wrapped): " + ", ".join(trace["absent"]))
    for name, err in trace["counter_errors"].items():
        lines.append(f"counter unavailable for {name}: {err}")
    return metrics, lines, trace


def main(argv=None) -> int:
    # Workload and metric names, and the metrics' units, are declared once,
    # in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flowsep" / "__init__.py").is_file():
        print(f"flowsep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    s = Session(args.workload, args.seed, args.trace)
    s.dir.mkdir(parents=True, exist_ok=True)
    try:
        gen = s.child("gen", count=False)
        if not gen["ok"]:
            print("dataset generation failed:\n" + "\n".join(s.errors), file=sys.stderr)
            return 1
        units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
        if args.trace:
            metrics, lines, details = measure_layers(s, args.seconds, units)
        else:
            metrics, lines, details = measure_end_to_end(s, args.seconds)
    finally:
        shutil.rmtree(s.dir, ignore_errors=True)
    if not metrics:
        print("no run gave every metric:\n" + "\n".join(s.errors), file=sys.stderr)
        return 1

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "numpy": gen["numpy"],
        "nproc": os.cpu_count(),
        "threads": {v: s.env[v] for v in THREAD_VARS},
        **gen["workload"],
        "particles": s.particles,
        "gen_s": gen["gen_s"],
    }
    for e in s.errors[:10]:
        print(f"FAILED: {e}")
    if len(s.errors) > 10:
        print(f"FAILED: ... and {len(s.errors) - 10} more")
    print("# " + " ".join(f"{k}={v}" for k, v in info.items() if k != "threads"))
    print("# threads " + " ".join(f"{k}={v}" for k, v in info["threads"].items()))
    for ln in lines:
        print(ln)

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"info": info, "metrics": metrics, "errors": s.errors, "details": details}))

    print(json.dumps({
        "correct": s.failed == 0,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
