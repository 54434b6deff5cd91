"""Pipeline orchestration: seed, per-interval advect/label/assign/split loop,
final boundary extraction, and the partitioned execution of that loop.

There is one execution loop. It emulates process-level data parallelism
in-process: workers own the particles inside their subdomain and all
cross-worker state flows through typed messages (particle handoffs,
seed-label triples) plus the partitioned label merge. A serial run is the
1x1x1 partitioning of the same loop: one worker, no faces to merge, no
handoffs and no ghost-width check. Runs under any partitioning produce
identical labelings, tables, and meshes.
"""

from __future__ import annotations

import itertools
import time as _time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .advect import (
    AdvectionConfig,
    ParticleSet,
    advance_interval,
    seed_particles,
)
from .dataset_io import DatasetError, load_dataset
from .extract import (
    TriangleMesh,
    export_meshes,
    extract_boundary,
    extract_separation_surface,
    smooth_mesh,
)
from .grid import TimeSeriesDataset, TimeStep, locate_cells
from .labeling import PartitionLayout, label_features_partitioned
from .segment import (
    ContributionTable,
    SeedLabeling,
    SplitEvent,
    assign_labels,
    contribution_table,
    detect_splits,
    labels_for_positions,
    write_table,
)


class ConfigError(ValueError):
    """Bad pipeline configuration (unknown key, missing field, bad value)."""


class GhostWidthError(DatasetError):
    """Configured ghost width cannot cover one interval's particle displacement."""


@dataclass
class PipelineConfig:
    manifest: Path
    t0: int
    tf: int
    output: Path | None = None
    tau: float = 0.0
    advection: AdvectionConfig = field(default_factory=AdvectionConfig)
    partitions: tuple[int, int, int] | None = None
    ghost_width: int = 2
    smooth_iterations: int = 10
    smooth_lambda: float = 0.5
    min_triangles: int = 0

    def __post_init__(self):
        if self.ghost_width < 2:
            raise ConfigError(f"ghost_width must be >= 2, got {self.ghost_width}")


_CONFIG_KEYS = {
    "manifest",
    "t0",
    "tf",
    "tau",
    "refinement",
    "substeps",
    "corrector",
    "trail_stride",
    "partitions",
    "ghost_width",
    "output",
    "smooth_iterations",
    "smooth_lambda",
    "min_triangles",
}


def parse_config(path) -> PipelineConfig:
    """Parse a line-oriented `key = value` config file; unknown keys are errors."""
    path = Path(path)
    raw: dict[str, str] = {}
    for lineno, ln in enumerate(path.read_text().splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if "=" not in ln:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {ln!r}")
        key, value = (part.strip() for part in ln.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    for required in ("manifest", "t0", "tf"):
        if required not in raw:
            raise ConfigError(f"{path}: missing required key {required!r}")
    base = path.parent
    try:
        t0 = int(raw["t0"])
        tf = int(raw["tf"])
        advection = AdvectionConfig(
            refinement=int(raw.get("refinement", "0")),
            substeps=int(raw.get("substeps", "1")),
            corrector=raw.get("corrector", "full"),
            trail_stride=int(raw.get("trail_stride", "8")),
            direction="backward" if tf < t0 else "forward",
        )
        partitions = None
        if raw.get("partitions", "none") not in ("none", ""):
            parts = tuple(int(v) for v in raw["partitions"].split("x"))
            if len(parts) != 3 or any(p < 1 for p in parts):
                raise ConfigError(f"bad partitions spec {raw['partitions']!r}")
            partitions = parts
        return PipelineConfig(
            manifest=(base / raw["manifest"]).resolve(),
            t0=t0,
            tf=tf,
            output=(base / raw["output"]).resolve() if "output" in raw else None,
            tau=float(raw.get("tau", "0")),
            advection=advection,
            partitions=partitions,
            ghost_width=int(raw.get("ghost_width", "2")),
            smooth_iterations=int(raw.get("smooth_iterations", "10")),
            smooth_lambda=float(raw.get("smooth_lambda", "0.5")),
            min_triangles=int(raw.get("min_triangles", "0")),
        )
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ConfigError):
            raise
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
    splits: list[tuple[int, SplitEvent]] = field(default_factory=list)
    handoffs: list[int] = field(default_factory=list)

    def to_text(self) -> str:
        lines = [
            f"summary\tparticles\t{self.particles}",
            f"summary\tb_seconds\t{self.b_seconds!r}",
            f"summary\tmax_eps\t{self.max_eps!r}",
            f"summary\tmean_eps\t{self.mean_eps!r}",
            f"summary\tcorrected_fraction\t{self.corrected_fraction!r}",
            "interval\tindex\tt_from\tt_to\tseconds\talive\tcorrected\tfeatures",
        ]
        for s in self.intervals:
            lines.append(
                f"interval\t{s.index}\t{s.t_from!r}\t{s.t_to!r}\t{s.seconds!r}"
                f"\t{s.alive}\t{s.corrected}\t{s.features}"
            )
        lines.append("split\tinterval\ttime\tinitial\tgroup\tnext_labels")
        for k, ev in self.splits:
            labels = ",".join(str(v) for v in ev.next_labels)
            lines.append(
                f"split\t{k}\t{ev.time_next!r}\t{ev.initial_label}\t{ev.group_label}\t{labels}"
            )
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


def _step_sequence(t0: int, tf: int) -> list[int]:
    if tf >= t0:
        return list(range(t0, tf + 1))
    return list(range(t0, tf - 1, -1))


def _check_ghost_width(step_a: TimeStep, step_b: TimeStep, layout: PartitionLayout) -> None:
    grid = step_a.grid
    dt = abs(step_b.time - step_a.time)
    needed = 0.0
    for d in range(3):
        umax = max(
            float(np.abs(step_a.u.component(d)).max(initial=0.0)),
            float(np.abs(step_b.u.component(d)).max(initial=0.0)),
        )
        wmin = float(grid.widths[d].min())
        needed = max(needed, umax * dt / wmin)
    if int(np.ceil(needed)) > layout.ghost_width:
        raise GhostWidthError(
            f"interval displacement spans {needed:.2f} cells, ghost width is "
            f"{layout.ghost_width}; increase ghost_width or the partition size"
        )


# ---------------------------------------------------------------------------
# the execution loop: workers and messages (serial runs have one worker)


@dataclass
class ParticleHandoff:
    """Particles that left `src`'s core region and now belong to `dst`."""

    src: int
    dst: int
    ids: np.ndarray


@dataclass
class SeedLabelTriples:
    """Seed-label transfer batch: labels for `home`'s seeds, addressed by the
    particles' seed ids within their home subdomain."""

    home: int
    local_idx: np.ndarray
    labels: np.ndarray


@dataclass
class PartitionWorker:
    pid: int
    owned: np.ndarray  # sorted global particle ids currently owned
    home_ids: np.ndarray  # global ids seeded in this worker's subdomain


def partition_exchange(workers: list[PartitionWorker], messages: list[ParticleHandoff]) -> int:
    """Apply handoff messages: move particle ownership between workers."""
    for msg in messages:
        src = workers[msg.src]
        dst = workers[msg.dst]
        src.owned = np.setdiff1d(src.owned, msg.ids, assume_unique=True)
        dst.owned = np.union1d(dst.owned, msg.ids)
    return len(messages)


def _owners_for_positions(layout: PartitionLayout, grid, pos: np.ndarray) -> np.ndarray:
    """Owner pid per position; -1 for positions outside the domain."""
    idx, inside = locate_cells(grid, pos)
    owners = np.full(pos.shape[0], -1, dtype=np.int64)
    if inside.any():
        owners[inside] = layout.owners_of_cells(idx[inside])
    return owners


def run_pipeline(config: PipelineConfig) -> RunResult:
    """Execute the full pipeline and (optionally) export its artifacts."""
    ds = load_dataset(config.manifest)
    for name, idx in (("t0", config.t0), ("tf", config.tf)):
        if not 0 <= idx < len(ds):
            raise ConfigError(f"{name} index {idx} outside dataset of {len(ds)} steps")
    try:
        layout = PartitionLayout(
            counts=config.partitions or (1, 1, 1),
            shape=ds.grid.shape,
            ghost_width=config.ghost_width,
        )
    except ValueError as exc:
        raise ConfigError(f"partitions: {exc}") from exc

    result = _run(config, ds, layout)
    if config.output is not None:
        _export(result)
    return result


def _finish(config, ds, particles, initial_labeling, labelings, splits, s_meshes, report):
    """Run tail: contribution table, boundary extraction, report statistics."""
    final_labeling = labelings[-1]
    table = contribution_table(initial_labeling, final_labeling, particles)

    t_b = _time.perf_counter()
    b_meshes = []
    final_labels = np.unique(final_labeling.labels)
    for j in final_labels[final_labels >= 0]:
        b_meshes.append(extract_boundary(ds.grid, particles, final_labeling, int(j)))
    report.b_seconds = _time.perf_counter() - t_b

    if len(particles):
        report.max_eps = float(particles.eps.max())
        report.mean_eps = float(particles.eps.mean())
        report.corrected_fraction = float(np.mean(particles.eps > 0.0))
    report.splits = splits
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


def _run(config: PipelineConfig, ds: TimeSeriesDataset, layout: PartitionLayout) -> RunResult:
    seq = _step_sequence(config.t0, config.tf)
    step0 = ds.steps[seq[0]]
    labels0 = label_features_partitioned(step0, config.tau, layout)
    particles = seed_particles(step0, config.advection.refinement, config.tau)
    initial_labeling = assign_labels(particles, labels0, step0, config.tau)
    particles.label = initial_labeling.labels.copy()

    # distribute particles to their home workers by seed position
    owners = _owners_for_positions(layout, ds.grid, particles.seeds)
    workers = []
    for pid in range(layout.nparts):
        ids = np.nonzero(owners == pid)[0]
        workers.append(PartitionWorker(pid=pid, owned=ids.copy(), home_ids=ids))
    home_of = owners.copy()
    local_of = np.zeros(len(particles), dtype=np.int64)
    for w in workers:
        local_of[w.home_ids] = np.arange(w.home_ids.size)

    report = RunReport(particles=len(particles))
    labelings = [initial_labeling]
    splits: list[tuple[int, SplitEvent]] = []
    s_meshes: list[TriangleMesh] = []
    prev_labeling = initial_labeling

    for k in range(len(seq) - 1):
        step_from = ds.steps[seq[k]]
        step_to = ds.steps[seq[k + 1]]
        if layout.nparts > 1:  # a single block has no neighbouring halo
            _check_ghost_width(step_from, step_to, layout)
        t_start = _time.perf_counter()
        eps_before = particles.eps > 0.0

        # phases A+B: every worker integrates its own particles, then the
        # corrector runs against the frozen pre-interval snapshot
        advance_interval(
            particles, step_from, step_to, config.advection, None, config.tau,
            [w.owned for w in workers],
        )

        # phase C: ownership exchange
        messages: list[ParticleHandoff] = []
        for w in workers:
            alive_ids = w.owned[particles.alive[w.owned]]
            dead_ids = w.owned[~particles.alive[w.owned]]
            if dead_ids.size:  # left the domain: claimed by no worker
                w.owned = np.setdiff1d(w.owned, dead_ids, assume_unique=True)
            if alive_ids.size == 0:
                continue
            now_owner = _owners_for_positions(layout, ds.grid, particles.pos[alive_ids])
            for dst in np.unique(now_owner):
                if dst == w.pid:
                    continue
                moved = alive_ids[now_owner == dst]
                if dst < 0:
                    particles.alive[moved] = False
                    w.owned = np.setdiff1d(w.owned, moved, assume_unique=True)
                    continue
                messages.append(ParticleHandoff(src=w.pid, dst=int(dst), ids=moved))
        partition_exchange(workers, messages)
        report.handoffs.append(len(messages))
        owned_all = np.concatenate([w.owned for w in workers])
        if owned_all.size != np.unique(owned_all).size:
            raise AssertionError("a particle is owned by two workers after exchange")
        if owned_all.size != int(particles.alive.sum()):
            raise AssertionError("alive particles and worker ownership went out of sync")

        # phase D: partitioned labeling, per-worker assignment, label transfer
        labels_k1 = label_features_partitioned(step_to, config.tau, layout)
        triples: list[SeedLabelTriples] = []
        for w in workers:
            ids = w.owned[particles.alive[w.owned]]
            if ids.size == 0:
                continue
            lab = labels_for_positions(particles.pos[ids], labels_k1, step_to, config.tau)
            homes = home_of[ids]
            for home in np.unique(homes):
                sel = homes == home
                triples.append(
                    SeedLabelTriples(home=int(home), local_idx=local_of[ids[sel]], labels=lab[sel])
                )
        seed_labels = np.full(len(particles), -1, dtype=np.int32)
        for msg in triples:
            gids = workers[msg.home].home_ids[msg.local_idx]
            seed_labels[gids] = msg.labels
        cur_labeling = SeedLabeling(labels=seed_labels, time=step_to.time)

        # split detection, separation surfaces, trail label attachment
        particles.label = cur_labeling.labels.copy()
        events = detect_splits(prev_labeling, cur_labeling, initial_labeling)
        for ev in events:
            splits.append((k, ev))
            for pair in itertools.combinations(ev.next_labels, 2):
                mesh = extract_separation_surface(ds.grid, particles, ev, pair, cur_labeling)
                if not mesh.empty:
                    s_meshes.append(mesh)
        if particles.trail and particles.trail[-1].time == step_to.time:
            particles.trail[-1].labels = cur_labeling.labels.copy()

        prev_labeling = cur_labeling
        labelings.append(cur_labeling)
        report.intervals.append(
            IntervalStats(
                index=k,
                t_from=step_from.time,
                t_to=step_to.time,
                seconds=_time.perf_counter() - t_start,
                alive=int(particles.alive.sum()),
                corrected=int(np.sum((particles.eps > 0.0) & ~eps_before)),
                features=labels_k1.count,
            )
        )
    return _finish(config, ds, particles, initial_labeling, labelings, splits, s_meshes, report)


def _export(result: RunResult) -> None:
    out = Path(result.config.output)
    out.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    meshes = [
        smooth_mesh(m, cfg.smooth_iterations, cfg.smooth_lambda)
        for m in result.b_meshes + result.s_meshes
    ]
    export_meshes(meshes, out / "meshes", min_triangles=cfg.min_triangles)
    write_table(result.table, out / "contributions.tsv")
    lines = ["seed\tx\ty\tz\teps"]
    for p, (s, e) in enumerate(zip(result.particles.seeds, result.particles.eps)):
        lines.append(f"{p}\t{float(s[0])!r}\t{float(s[1])!r}\t{float(s[2])!r}\t{float(e)!r}")
    (out / "epsilon.tsv").write_text("\n".join(lines) + "\n")
    (out / "report.tsv").write_text(result.report.to_text())
