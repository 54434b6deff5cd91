"""Pipeline orchestration: seed, per-interval advect/label/assign/split loop,
final boundary extraction, and the partitioned execution of that loop.

There is one execution loop. Partitioning splits the grid into blocks and
gives every particle one owner, the block that holds its position; ownership
is a single int32 array that `PartitionLayout.owners` updates from the layout's
cut planes after each interval, one `alive_blocks` block at a time, and each
block adds its handoff pairs as it goes. A dead particle keeps its last
owner, which is never read again. The layout only labels and counts
handoffs: labels are merged across block faces, and a handoff is counted per
(source, destination) block pair that particles moved between. Ownership
never kills: `advance_interval` has already killed every particle that left
the domain. Integration ignores the layout: RK4 samples the global fields
and takes the alive particles in fixed blocks of `advect.RK4_BLOCK`. A
serial run is the 1x1x1 partitioning of the same loop: one block, no cut
planes, no faces to merge and no handoffs. Runs under any partitioning
produce identical labelings, tables, and meshes.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .advect import (
    AdvectionConfig,
    ParticleSet,
    advance_interval,
    seed_particles,
)
from .dataset_io import StepSeries, dataset_files, read_utf8, scan_dataset
from .extract import (
    TriangleMesh,
    export_meshes,
    extract_boundaries,
    extract_separation_surface,
    smooth_meshes,
)
from .labeling import PartitionLayout, label_features_partitioned
from .segment import (
    ContributionTable,
    SeedLabeling,
    assign_labels,
    contribution_table,
    detect_splits,
    write_epsilon,
    write_table,
)


class ConfigError(ValueError):
    """Bad pipeline configuration (unknown key, missing field, bad value)."""


@dataclass
class PipelineConfig:
    manifest: Path
    t0: int
    tf: int
    output: Path | None = None
    tau: float = 0.0
    advection: AdvectionConfig = field(default_factory=AdvectionConfig)
    partitions: tuple[int, int, int] | None = None
    smooth_iterations: int = 10
    smooth_lambda: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.tau < 1.0:
            raise ConfigError(f"tau must lie in [0, 1), got {self.tau}")
        if self.smooth_iterations < 0:
            raise ConfigError(f"smooth_iterations must be >= 0, got {self.smooth_iterations}")
        if not 0.0 < self.smooth_lambda <= 1.0:
            raise ConfigError(f"smooth_lambda must lie in (0, 1], got {self.smooth_lambda}")


def _partitions(text: str) -> tuple[int, int, int] | None:
    if text == "none":
        return None
    parts = tuple(int(v) for v in text.split("x"))
    if len(parts) != 3 or any(p < 1 for p in parts):
        raise ConfigError(f"bad partitions spec {text!r}")
    return parts


# config key -> converter of its text; a missing key takes the dataclass default
_CONFIG_KEYS = {
    "manifest": Path,
    "t0": int,
    "tf": int,
    "tau": float,
    "refinement": int,
    "substeps": int,
    "corrector": str,
    "partitions": _partitions,
    "output": Path,
    "smooth_iterations": int,
    "smooth_lambda": float,
}
_ADVECTION_KEYS = {f.name for f in fields(AdvectionConfig)}


def parse_config(path) -> PipelineConfig:
    """Parse a line-oriented `key = value` config file; unknown keys are errors.
    Paths are relative to the config file's directory."""
    path = Path(path)
    kwargs: dict[str, object] = {}
    for lineno, ln in enumerate(read_utf8(path, ConfigError).splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in kwargs:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"{path}:{lineno}: empty value for key {key!r}")
        try:
            kwargs[key] = _CONFIG_KEYS[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {key}: {exc}") from exc
    for required in ("manifest", "t0", "tf"):
        if required not in kwargs:
            raise ConfigError(f"{path}: missing required key {required!r}")
    for key in ("manifest", "output"):
        if key in kwargs:
            kwargs[key] = (path.parent / kwargs[key]).resolve()
    try:
        advection = AdvectionConfig(
            **{key: kwargs.pop(key) for key in _ADVECTION_KEYS & kwargs.keys()}
        )
        return PipelineConfig(advection=advection, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


@dataclass
class IntervalStats:
    index: int
    t_from: float
    t_to: float
    seconds: float  # advection + S extraction, the per-step measurement
    alive: int
    corrected: int
    features: int


@dataclass
class RunReport:
    particles: int
    intervals: list[IntervalStats] = field(default_factory=list)
    b_seconds: float = 0.0
    max_eps: float = 0.0
    mean_eps: float = 0.0
    corrected_fraction: float = 0.0
    # (interval, time, initial, group, next labels), one per split event
    splits: list[tuple[int, float, int, int, tuple[int, ...]]] = field(default_factory=list)
    handoffs: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        """One summary line per scalar field, one interval column per `IntervalStats` field."""
        lines = [
            f"summary\t{f.name}\t{getattr(self, f.name)!r}"
            for f in fields(self)
            if not isinstance(getattr(self, f.name), list)
        ]
        columns = [f.name for f in fields(IntervalStats)]
        lines.append("\t".join(["interval", *columns]))
        for s in self.intervals:
            lines.append("\t".join(["interval", *(repr(getattr(s, c)) for c in columns)]))
        lines.append("split\tinterval\ttime\tinitial\tgroup\tnext_labels")
        for k, time, initial, group, labels in self.splits:
            labels = ",".join(map(str, labels))
            lines.append(f"split\t{k}\t{time!r}\t{initial}\t{group}\t{labels}")
        lines.append("exchange\tinterval\tmessages")
        for k, n in enumerate(self.handoffs):
            lines.append(f"exchange\t{k}\t{n}")
        return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    config: PipelineConfig
    particles: ParticleSet
    initial_labeling: SeedLabeling
    final_labeling: SeedLabeling
    labelings: list[SeedLabeling]
    table: ContributionTable
    b_meshes: list[TriangleMesh]
    s_meshes: list[TriangleMesh]
    report: RunReport


def _step_sequence(t0: int, tf: int) -> range:
    step = 1 if tf >= t0 else -1
    return range(t0, tf + step, step)


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute the full pipeline and (optionally) export its artifacts."""
    if config.output is not None:
        try:  # an unusable output path fails before any data is read
            Path(config.output).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"output {config.output}: {exc}") from exc
    grid, entries = dataset_files(config.manifest)  # before any step file is read
    for name, idx in (("t0", config.t0), ("tf", config.tf)):
        if not 0 <= idx < len(entries):
            raise ConfigError(f"{name} index {idx} outside dataset of {len(entries)} steps")
    try:
        layout = PartitionLayout(counts=config.partitions or (1, 1, 1), shape=grid.shape)
    except ValueError as exc:
        raise ConfigError(f"partitions: {exc}") from exc
    # the seed lattice's per-axis indices are int32 (no grid has room for
    # r >= 31) and stage 1's flat keys int64
    r = config.advection.refinement
    if (
        r >= 31
        or max(grid.shape) << r > np.iinfo(np.int32).max
        or grid.ncells << 3 * r > np.iinfo(np.int64).max
    ):
        raise ConfigError(
            f"refinement {r} is too fine for {'x'.join(map(str, grid.shape))} cells: "
            "its seed lattice outgrows 32-bit indices per axis or 64-bit flat keys"
        )
    # every step is read and checked here; only the run's first two stay
    series = scan_dataset(config.manifest, grid, entries, _step_sequence(config.t0, config.tf)[:2])

    result = _run(config, series, layout)
    if config.output is not None:
        _export(result)
    return result


def _run(config: PipelineConfig, series: StepSeries, layout: PartitionLayout) -> RunResult:
    """The loop holds two steps, `step_from` and `step_to`; the step that
    leaves the window, and its PLIC table, are freed before the next is read."""
    seq = _step_sequence(config.t0, config.tf)
    grid = series.grid
    step_to = series.take(seq[0])
    labels0 = label_features_partitioned(step_to, config.tau, layout)
    particles = seed_particles(step_to, config.advection.refinement, config.tau)
    initial_labeling = assign_labels(particles, labels0, step_to, config.tau)
    del labels0  # a label field lives only until its transfer
    # every particle is alive at its seed; its block is the first owner
    owner = np.empty(len(particles), dtype=np.int32)
    for idx in particles.alive_blocks():
        owner[idx] = layout.owners(grid, particles.pos[idx])

    report = RunReport(particles=len(particles))
    labelings = [initial_labeling]
    s_meshes: list[TriangleMesh] = []

    for k in range(len(seq) - 1):
        step_from = step_to  # drops the previous step_from
        step_to = series.take(seq[k + 1])
        t_start = _time.perf_counter()
        eps_before = particles.eps > 0.0

        # integrate, then correct against the frozen pre-interval snapshot
        advance_interval(particles, step_from, step_to, config.advection, config.tau)

        # ownership follows position; every alive particle is in the domain
        pairs = set()
        for idx in particles.alive_blocks():
            now, was = layout.owners(grid, particles.pos[idx]), owner[idx]
            pairs.update((was * layout.nparts + now)[now != was].tolist())
            owner[idx] = now
        report.handoffs.append(len(pairs))

        labels_k1 = label_features_partitioned(step_to, config.tau, layout)
        cur_labeling = assign_labels(particles, labels_k1, step_to, config.tau)
        features = labels_k1.count
        del labels_k1

        # split detection and separation surfaces
        events = detect_splits(labelings[-1], cur_labeling, initial_labeling)
        report.splits += [
            (k, ev.time_next, ev.initial_label, ev.group_label, ev.next_labels) for ev in events
        ]
        meshes = extract_separation_surface(particles, events, cur_labeling)
        s_meshes += [mesh for mesh in meshes if not mesh.empty]

        labelings.append(cur_labeling)
        report.intervals.append(
            IntervalStats(
                index=k,
                t_from=step_from.time,
                t_to=step_to.time,
                seconds=_time.perf_counter() - t_start,
                alive=int(particles.alive.sum()),
                corrected=int(np.sum((particles.eps > 0.0) & ~eps_before)),
                features=features,
            )
        )
    step_from = step_to = None  # no step is needed past the loop

    # run tail: contribution table, boundary extraction, report statistics
    final_labeling = labelings[-1]
    table = contribution_table(initial_labeling, final_labeling, particles)
    t_b = _time.perf_counter()
    final_labels = sorted({j for _, j, _, _ in table.rows if j >= 0})
    b_meshes = extract_boundaries(particles, final_labeling, final_labels)
    report.b_seconds = _time.perf_counter() - t_b
    if len(particles):
        report.max_eps = float(particles.eps.max())
        report.mean_eps = float(particles.eps.mean())
        report.corrected_fraction = float(np.mean(particles.eps > 0.0))
    return RunResult(
        config=config,
        particles=particles,
        initial_labeling=initial_labeling,
        final_labeling=final_labeling,
        labelings=labelings,
        table=table,
        b_meshes=b_meshes,
        s_meshes=s_meshes,
        report=report,
    )


def _export(result: RunResult) -> None:
    out = Path(result.config.output)
    cfg = result.config
    # smoothed group by group as the export reaches them
    meshes = smooth_meshes(
        result.b_meshes + result.s_meshes, cfg.smooth_iterations, cfg.smooth_lambda
    )
    export_meshes(meshes, out / "meshes")
    write_table(result.table, out / "contributions.tsv")
    write_epsilon(result.particles, out / "epsilon.tsv")
    (out / "report.tsv").write_text(result.report.to_text())
