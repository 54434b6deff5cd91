"""Dataset files (bit-exact binary steps, grid, manifest), the one pass that
reads and checks a dataset's steps, and synthetic test datasets.

`scan_dataset` reads every step file once, runs every check on it and keeps
only the steps it is asked for; `load_dataset` is that pass keeping them all.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import (
    CellField,
    GridError,
    RectilinearGrid,
    TimeSeriesDataset,
    TimeStep,
    gather,
    uniform_grid,
)

STEP_MAGIC = b"FSEP0001"
GRID_MAGIC = b"FSEPGRID"


class DatasetError(Exception):
    """Base class for dataset file problems."""


class BadMagicError(DatasetError):
    pass


class DimensionMismatchError(DatasetError):
    pass


class TruncatedPayloadError(DatasetError):
    pass


def _read_exact(fh, n: int, path, what: str) -> bytes:
    # n may come from the file: check it against the bytes left before reading
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise TruncatedPayloadError(f"{path}: truncated {what} ({left} of {n} bytes)")
    buf = fh.read(n)
    if len(buf) != n:  # the file shrank since the size was read
        raise TruncatedPayloadError(f"{path}: truncated {what} ({len(buf)} of {n} bytes)")
    return buf


def _read_into(fh, out: np.ndarray, path, what: str) -> None:
    """Fill the contiguous array `out` straight from the file."""
    got = fh.readinto(out)
    if got != out.nbytes:
        raise TruncatedPayloadError(f"{path}: truncated {what} ({got} of {out.nbytes} bytes)")


def _expect_end(fh, path) -> None:
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise DatasetError(f"{path}: {extra} trailing bytes after the payload")


def write_grid(grid: RectilinearGrid, path) -> None:
    """Grid file: magic, u32 d, then per axis u32 node count + f64 coordinates."""
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<I", 3))
        for a in grid.axes:
            fh.write(struct.pack("<I", a.size))
            fh.write(a.astype("<f8").tobytes())


def read_grid(path) -> RectilinearGrid:
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, path, "grid header")
        if magic != GRID_MAGIC:
            raise BadMagicError(f"{path}: bad grid magic {magic!r}")
        (d,) = struct.unpack("<I", _read_exact(fh, 4, path, "grid header"))
        if d != 3:
            raise DimensionMismatchError(f"{path}: expected 3 dimensions, file has {d}")
        axes = []
        for _ in range(d):
            (n,) = struct.unpack("<I", _read_exact(fh, 4, path, "axis header"))
            buf = _read_exact(fh, 8 * n, path, "axis coordinates")
            axes.append(np.frombuffer(buf, dtype="<f8").copy())
        _expect_end(fh, path)
    try:
        return RectilinearGrid(tuple(axes))
    except GridError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


def write_timestep(step: TimeStep, path) -> None:
    """Step file: magic, u32 d, u32 cell counts, f64 time, then f and u arrays
    (x-fastest, velocity as d consecutive component arrays)."""
    grid = step.grid
    nx, ny, nz = grid.shape
    with open(path, "wb") as fh:
        fh.write(STEP_MAGIC)
        fh.write(struct.pack("<IIII", 3, nx, ny, nz))
        fh.write(struct.pack("<d", step.time))
        # (3, n) velocity in C order is the file's component-after-component layout
        fh.write(np.ascontiguousarray(step.f.values, dtype="<f8"))
        fh.write(np.ascontiguousarray(step.u.values, dtype="<f8"))


def read_timestep(path, grid: RectilinearGrid) -> TimeStep:
    """The step file at `path`, every check run."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 8, path, "step header")
        if magic != STEP_MAGIC:
            raise BadMagicError(f"{path}: bad step magic {magic!r}")
        d, nx, ny, nz = struct.unpack("<IIII", _read_exact(fh, 16, path, "step header"))
        if d != 3 or (nx, ny, nz) != grid.shape:
            raise DimensionMismatchError(
                f"{path}: step dims {(nx, ny, nz)} (d={d}) do not match grid {grid.shape}"
            )
        (time,) = struct.unpack("<d", _read_exact(fh, 8, path, "step header"))
        f, u = np.empty(grid.ncells, dtype="<f8"), np.empty((3, grid.ncells), dtype="<f8")
        _read_into(fh, f, path, "fraction payload")
        for c in range(3):
            _read_into(fh, u[c], path, f"velocity component {c}")
        _expect_end(fh, path)
    try:
        return TimeStep(time=time, f=CellField(grid, f), u=CellField(grid, u, ncomp=3))
    except GridError as exc:
        raise DatasetError(f"{path}: {exc}") from exc


@dataclass
class DatasetManifest:
    """Manifest: grid file plus the ordered (time, step path) list."""

    grid_path: str
    steps: list[tuple[float, str]]

    def __post_init__(self):
        times = [t for t, _ in self.steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DatasetError("manifest times must be strictly increasing")


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"grid\t{manifest.grid_path}"]
    lines += [f"{float(t)!r}\t{p}" for t, p in manifest.steps]
    Path(path).write_text("\n".join(lines) + "\n")


def read_utf8(path, error: type[Exception] = DatasetError) -> str:
    """A text file's contents minus any byte-order mark; non-UTF-8 bytes raise `error`."""
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def read_manifest(path) -> DatasetManifest:
    lines = [ln for ln in read_utf8(path).splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("grid\t"):
        raise DatasetError(f"{path}: manifest must start with a 'grid\\t<path>' header line")
    grid_path = lines[0].split("\t", 1)[1]
    steps = []
    for ln in lines[1:]:
        parts = ln.split("\t")
        if len(parts) != 2:
            raise DatasetError(f"{path}: bad manifest line {ln!r}")
        try:
            t = float(parts[0])
        except ValueError:
            t = np.nan
        if not np.isfinite(t):
            raise DatasetError(f"{path}: bad manifest time {parts[0]!r}")
        steps.append((t, parts[1]))
    if not steps:
        raise DatasetError(f"{path}: manifest lists no steps")
    return DatasetManifest(grid_path=grid_path, steps=steps)


def write_dataset(ds: TimeSeriesDataset, out_dir) -> Path:
    """Write grid, all steps, and the manifest into a directory; returns manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_grid(ds.grid, out / "grid.bin")
    entries = []
    for i, step in enumerate(ds.steps):
        name = f"step_{i:04d}.bin"
        write_timestep(step, out / name)
        entries.append((step.time, name))
    manifest = DatasetManifest(grid_path="grid.bin", steps=entries)
    mpath = out / "dataset.manifest"
    write_manifest(manifest, mpath)
    return mpath


def dataset_files(manifest_path) -> tuple[RectilinearGrid, list[tuple[float, Path]]]:
    """The dataset grid and the manifest's (time, step path) entries."""
    mpath = Path(manifest_path)
    manifest = read_manifest(mpath)
    base = mpath.parent
    grid_file = base / manifest.grid_path
    if not grid_file.exists():
        raise DatasetError(f"{manifest_path}: grid file {grid_file} does not exist")
    return read_grid(grid_file), [(t, base / rel) for t, rel in manifest.steps]


@dataclass
class StepSeries:
    """A checked dataset whose steps are read when they are needed.

    `scan_dataset` fills it in one validating pass over every step file and
    keeps only the steps it is asked for. `take(k)` hands a kept step over
    and forgets it, or reads step k again; a step read again must carry the
    time the pass recorded, bit for bit.
    """

    grid: RectilinearGrid
    paths: list[Path]
    times: list[float]
    kept: dict[int, TimeStep]

    def __len__(self) -> int:
        return len(self.paths)

    def take(self, k: int) -> TimeStep:
        step = self.kept.pop(k, None)
        if step is not None:
            return step
        path, t = self.paths[k], self.times[k]
        step = read_timestep(path, self.grid)
        if struct.pack("<d", step.time) != struct.pack("<d", t):
            raise DatasetError(f"{path}: step time {step.time!r} differs from {t!r} read before")
        return step


def scan_dataset(grid, entries, keep=()) -> StepSeries:
    """Validating pass over a dataset's `grid` and (time, step path)
    `entries` (`dataset_files`): check that every step file exists before
    reading any, then read and check every step, each against its manifest
    time and to come strictly after the step before, record its time, and
    keep only the steps whose indices are in `keep`. A step not kept is freed
    before the next one is read."""
    for _, spath in entries:
        if not spath.exists():
            raise DatasetError(f"step file {spath} does not exist")
    times, kept = [], {}
    for k, (t, spath) in enumerate(entries):
        step = read_timestep(spath, grid)
        if abs(step.time - t) > 1e-12 * max(1.0, abs(t)):
            raise DatasetError(f"{spath}: step time {step.time} disagrees with manifest {t}")
        if times and step.time <= times[-1]:
            raise DatasetError(f"{spath}: step time {step.time} does not follow {times[-1]}")
        times.append(step.time)
        if k in keep:
            kept[k] = step
        del step  # an unkept step goes before the next read allocates its arrays
    return StepSeries(grid, [spath for _, spath in entries], times, kept)


def load_dataset(manifest_path) -> TimeSeriesDataset:
    """`scan_dataset` keeping every step, as one in-memory dataset."""
    grid, entries = dataset_files(manifest_path)
    series = scan_dataset(grid, entries, range(len(entries)))
    return TimeSeriesDataset(grid=series.grid, steps=[series.take(k) for k in range(len(series))])


SCENARIO_KINDS = ("split-sphere", "rigid-rotation", "merge-then-split", "shear-stretch")
SUBSAMPLES = 4  # subsample points per cell and axis that voxelize f


@dataclass
class SyntheticScenario:
    """Analytic liquid region + velocity field voxelized onto a unit-cube grid.

    kinds:
      split-sphere      one ball whose halves translate apart with opposite
                        x-velocities (speed) once t > t_split
      rigid-rotation    ball orbiting the domain center (angular speed `speed`,
                        orbit radius `offset`) in the rigid rotation field
      merge-then-split  two balls at center +- s(t) along x with
                        s(t) = offset + speed * sin(pi t / span); they overlap
                        at both ends of the run and separate in the middle
      shear-stretch     ball advected by the steady shear u = (speed*(y-cy), 0, 0)
    """

    kind: str
    cells: int
    steps: int
    span: float = 1.0
    center: tuple[float, float, float] = (0.5, 0.5, 0.5)
    radius: float = 0.2
    speed: float = 0.25
    offset: float = 0.25
    t_split: float = 0.0

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise DatasetError(f"unknown scenario kind {self.kind!r}")
        for name in ("radius", "span"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise DatasetError(f"{name} must be finite and positive, got {value}")
        for name in ("center", "speed", "offset", "t_split"):
            value = getattr(self, name)
            if not np.all(np.isfinite(value)):
                raise DatasetError(f"{name} must be finite, got {value}")
        for name in ("cells", "steps"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 2:
                raise DatasetError(f"{name} must be an integer >= 2, got {value!r}")
        if 24 * int(self.cells) ** 3 > np.iinfo(np.intp).max:
            raise DatasetError(f"cells {self.cells}: numpy cannot address (3, cells^3) float64")

    # --- analytic definitions -------------------------------------------------

    def inside(self, pts: np.ndarray, t: float) -> np.ndarray:
        """Boolean mask: which points lie in the liquid region at time t."""
        cx, cy, cz = self.center
        r2 = self.radius * self.radius
        x = pts[:, 0]
        yz2 = (pts[:, 1] - cy) ** 2 + (pts[:, 2] - cz) ** 2
        if self.kind == "split-sphere":
            d = self.speed * max(0.0, t - self.t_split)
            xl = x - (cx - d)  # left half, pulled back to the original ball
            xr = x - (cx + d)
            return ((xl * xl + yz2 <= r2) & (xl <= 0.0)) | (
                (xr * xr + yz2 <= r2) & (xr >= 0.0)
            )
        if self.kind == "rigid-rotation":
            ang = self.speed * t
            bx = cx + self.offset * np.cos(ang)
            by = cy + self.offset * np.sin(ang)
            dyz2 = (pts[:, 1] - by) ** 2 + (pts[:, 2] - cz) ** 2
            dx = x - bx
            return dx * dx + dyz2 <= r2
        if self.kind == "merge-then-split":
            s = self.offset + self.speed * np.sin(np.pi * t / self.span)
            xa = x - (cx + s)
            xb = x - (cx - s)
            return (xa * xa + yz2 <= r2) | (xb * xb + yz2 <= r2)
        # shear-stretch: pull back through the shear flow map
        x0 = x - self.speed * t * (pts[:, 1] - cy) - cx
        return x0 * x0 + yz2 <= r2

    def velocity(self, pts: np.ndarray, t: float) -> np.ndarray:
        """Analytic velocity at points, shape (n, 3)."""
        c = np.asarray(self.center)
        u = np.zeros_like(pts)
        if self.kind == "split-sphere":
            if t >= self.t_split:
                u[:, 0] = self.speed * np.sign(pts[:, 0] - c[0])
            return u
        if self.kind == "rigid-rotation":
            u[:, 0] = -self.speed * (pts[:, 1] - c[1])
            u[:, 1] = self.speed * (pts[:, 0] - c[0])
            return u
        if self.kind == "merge-then-split":
            ds = self.speed * np.pi / self.span * np.cos(np.pi * t / self.span)
            u[:, 0] = ds * np.sign(pts[:, 0] - c[0])
            return u
        u[:, 0] = self.speed * (pts[:, 1] - c[1])
        return u


def generate_scenario(scenario: SyntheticScenario) -> TimeSeriesDataset:
    """Voxelize a scenario: f by regular subsampling per cell, u at cell centers."""
    grid = uniform_grid(scenario.cells)
    centers = gather(grid.centers, np.stack(grid.unflat(np.arange(grid.ncells)), axis=1))
    w = grid.widths[0][0]  # uniform cells
    # offsets of the SUBSAMPLES^3 subsample points relative to the cell center
    rel = (np.arange(SUBSAMPLES) + 0.5) / SUBSAMPLES - 0.5
    offs = np.stack(np.meshgrid(rel, rel, rel, indexing="ij"), axis=-1).reshape(-1, 3) * w

    steps = []
    times = np.linspace(0.0, scenario.span, scenario.steps)
    # the times are known before any step is built: the first out of order fails
    rising = np.diff(times) > 0
    if not rising.all():
        k = 1 + int(np.argmin(rising))
        raise DatasetError(
            f"scenario step {k} (t = {float(times[k])!r}): "
            "time steps must be strictly increasing in time"
        )
    try:
        for t in times:
            count = np.zeros(grid.ncells)
            for o in offs:
                count += scenario.inside(centers + o, float(t))
            f = count / offs.shape[0]
            u = scenario.velocity(centers, float(t)).T.copy()
            steps.append(
                TimeStep(time=float(t), f=CellField(grid, f), u=CellField(grid, u, ncomp=3))
            )
    except GridError as exc:
        k = len(steps)  # the step that failed
        raise DatasetError(f"scenario step {k} (t = {float(times[k])!r}): {exc}") from exc
    return TimeSeriesDataset(grid=grid, steps=steps)
