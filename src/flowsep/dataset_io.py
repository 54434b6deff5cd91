"""Dataset files (bit-exact binary steps, grid, manifest) and synthetic test datasets."""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import CellField, GridError, RectilinearGrid, TimeSeriesDataset, TimeStep, uniform_grid

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
    buf = fh.read(n)
    if len(buf) != n:
        raise TruncatedPayloadError(f"{path}: truncated {what} ({len(buf)} of {n} bytes)")
    return buf


def _expect_end(fh, path) -> None:
    extra = os.fstat(fh.fileno()).st_size - fh.tell()
    if extra:
        raise DatasetError(f"{path}: {extra} trailing bytes after the payload")


def write_grid(grid: RectilinearGrid, path) -> None:
    """Grid file: magic, u32 d, then per axis u32 node count + f64 coordinates."""
    with open(path, "wb") as fh:
        fh.write(GRID_MAGIC)
        fh.write(struct.pack("<I", grid.ndim))
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
        fh.write(struct.pack("<IIII", grid.ndim, nx, ny, nz))
        fh.write(struct.pack("<d", step.time))
        fh.write(step.f.values.astype("<f8").tobytes())
        for c in range(3):
            fh.write(step.u.component(c).astype("<f8").tobytes())


def read_timestep(path, grid: RectilinearGrid) -> TimeStep:
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
        n = grid.ncells
        fbuf = _read_exact(fh, 8 * n, path, "fraction payload")
        f = np.frombuffer(fbuf, dtype="<f8").copy()
        u = np.empty((3, n))
        for c in range(3):
            ubuf = _read_exact(fh, 8 * n, path, f"velocity component {c}")
            u[c] = np.frombuffer(ubuf, dtype="<f8")
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
    version: int = 1

    def __post_init__(self):
        times = [t for t, _ in self.steps]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise DatasetError("manifest times must be strictly increasing")


def write_manifest(manifest: DatasetManifest, path) -> None:
    lines = [f"grid\t{manifest.grid_path}"]
    lines += [f"{float(t)!r}\t{p}" for t, p in manifest.steps]
    Path(path).write_text("\n".join(lines) + "\n")


def read_manifest(path) -> DatasetManifest:
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
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


def load_dataset(manifest_path) -> TimeSeriesDataset:
    mpath = Path(manifest_path)
    manifest = read_manifest(mpath)
    base = mpath.parent
    grid_file = base / manifest.grid_path
    if not grid_file.exists():
        raise DatasetError(f"{manifest_path}: grid file {grid_file} does not exist")
    grid = read_grid(grid_file)
    steps = []
    for t, rel in manifest.steps:
        spath = base / rel
        if not spath.exists():
            raise DatasetError(f"{manifest_path}: step file {spath} does not exist")
        step = read_timestep(spath, grid)
        if abs(step.time - t) > 1e-12 * max(1.0, abs(t)):
            raise DatasetError(f"{spath}: step time {step.time} disagrees with manifest {t}")
        steps.append(step)
    return TimeSeriesDataset(grid=grid, steps=steps)


SCENARIO_KINDS = ("split-sphere", "rigid-rotation", "merge-then-split", "shear-stretch")


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
    subsamples: int = 4

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
        if self.steps < 2:
            raise DatasetError("need at least 2 steps")
        if self.cells < 2:
            raise DatasetError("need at least 2 cells per axis")

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
    nx, ny, nz = grid.shape
    cx, cy, cz = grid.centers
    centers = np.stack(
        [
            np.tile(cx, ny * nz),
            np.tile(np.repeat(cy, nx), nz),
            np.repeat(cz, nx * ny),
        ],
        axis=1,
    )
    s = scenario.subsamples
    w = grid.widths[0][0]  # uniform cells
    # offsets of the s^3 subsample points relative to the cell center
    rel = (np.arange(s) + 0.5) / s - 0.5
    offs = np.stack(np.meshgrid(rel, rel, rel, indexing="ij"), axis=-1).reshape(-1, 3) * w

    steps = []
    times = np.linspace(0.0, scenario.span, scenario.steps)
    for t in times:
        count = np.zeros(grid.ncells)
        for o in offs:
            count += scenario.inside(centers + o, float(t))
        f = count / offs.shape[0]
        u = scenario.velocity(centers, float(t)).T.copy()
        steps.append(
            TimeStep(time=float(t), f=CellField(grid, f), u=CellField(grid, u, ncomp=3))
        )
    return TimeSeriesDataset(grid=grid, steps=steps)
