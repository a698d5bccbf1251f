"""Planar sets and scalar fields on dyadic grids.

A raster lives on a square window split into N x N cells, N a power of two
so that coarser dyadic squares always align with cell boundaries.  Sets are
one bit per cell, fields one float per cell.  Arrays are indexed
``[iy, ix]`` with row 0 at the bottom of the window.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "GridSpec",
    "RasterSet",
    "ScalarField",
    "RasterParseError",
    "axis_swap",
    "cells_of_points",
    "complement_in_window",
    "generate_random",
    "indicator",
    "integral",
    "load_raster",
    "measure",
    "sample_values",
    "save_raster",
]


class RasterParseError(ValueError):
    """Malformed raster file; carries the byte offset of the defect."""

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def _is_pow2(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Square window of side `side` at `origin`, split into n x n cells."""

    n: int
    origin: tuple[float, float] = (0.0, 0.0)
    side: float = 1.0

    def __post_init__(self):
        if not _is_pow2(self.n):
            raise ValueError(f"resolution must be a power of two, got {self.n}")
        if not (math.isfinite(self.side) and self.side > 0):
            raise ValueError(f"window side must be positive, got {self.side}")
        object.__setattr__(self, "origin", (float(self.origin[0]), float(self.origin[1])))
        object.__setattr__(self, "side", float(self.side))

    @property
    def h(self) -> float:
        """Cell size."""
        return self.side / self.n


def _check_grid(grid: GridSpec, arr: np.ndarray, dtype) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.shape != (grid.n, grid.n):
        raise ValueError(f"array shape {arr.shape} does not match grid n={grid.n}")
    if arr.dtype != dtype or not arr.flags.c_contiguous or arr.flags.writeable:
        arr = np.array(arr, dtype=dtype, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RasterSet:
    """Measurable subset of the window: cell (ix, iy) set iff bitmap[iy, ix]."""

    grid: GridSpec
    bitmap: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bitmap", _check_grid(self.grid, self.bitmap, bool))

    @property
    def cell_count(self) -> int:
        return int(self.bitmap.sum())


@dataclass(frozen=True)
class ScalarField:
    """Real-valued grid function on the window."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        vals = _check_grid(self.grid, self.values, np.float64)
        if not np.isfinite(vals).all():
            raise ValueError("field contains non-finite values")
        object.__setattr__(self, "values", vals)


def measure(a: RasterSet) -> float:
    """Lebesgue measure of the set: cell area times set-cell count, exact."""
    h = a.grid.h
    return a.cell_count * (h * h)


def indicator(a: RasterSet) -> ScalarField:
    return ScalarField(a.grid, a.bitmap.astype(np.float64))


def complement_in_window(a: RasterSet) -> ScalarField:
    """The field g with g + indicator(a) == 1 cell-wise on the window."""
    return ScalarField(a.grid, 1.0 - a.bitmap.astype(np.float64))


def integral(field: ScalarField) -> float:
    h = field.grid.h
    return float(field.values.sum()) * (h * h)


def cells_of_points(grid: GridSpec, xs: np.ndarray, ys: np.ndarray):
    """Canonical cell lookup for arbitrary points: the one sampling convention.

    Cell ix covers the half-open interval [x0 + ix h, x0 + (ix + 1) h), and
    likewise in y.  The window itself is closed: a point on its far edge
    x = x0 + side (or y = y0 + side) is inside and clamps to the last cell.
    Curve averages, arc carving, the ladder search, the block-hypothesis
    check and certificate verification all follow it (the search and the
    check through integer offsets kept exact by a tie guard).  The extremal
    field engine in ``fields`` uses bare integer shifts, which read 0 on the
    far edge; they serve only float fields, and no set-membership answer
    uses them.
    Returns integer index arrays ``(ix, iy)`` plus a boolean mask of points
    inside the closed window.
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    x0, y0 = grid.origin
    s = grid.side
    h = grid.h
    inside = (xs >= x0) & (xs <= x0 + s) & (ys >= y0) & (ys <= y0 + s)
    # NaN would survive the clip and warn in the cast; infinities clip
    ix = np.clip(np.nan_to_num(np.floor((xs - x0) / h)), 0, grid.n - 1).astype(np.int64)
    iy = np.clip(np.nan_to_num(np.floor((ys - y0) / h)), 0, grid.n - 1).astype(np.int64)
    return ix, iy, inside


def sample_values(obj, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Evaluate a set indicator or field at points; outside the window reads 0."""
    if isinstance(obj, RasterSet):
        grid, data = obj.grid, obj.bitmap
    else:
        grid, data = obj.grid, obj.values
    ix, iy, inside = cells_of_points(grid, xs, ys)
    out = np.where(inside, data[iy, ix].astype(np.float64), 0.0)
    return out


def axis_swap(a: RasterSet) -> RasterSet:
    """Reflect the set across the diagonal: (x, y) in A iff (y, x) in swap(A)."""
    x0, y0 = a.grid.origin
    grid = GridSpec(a.grid.n, (y0, x0), a.grid.side)
    return RasterSet(grid, np.ascontiguousarray(a.bitmap.T))


def generate_random(grid: GridSpec, delta: float, seed: int) -> RasterSet:
    """Random set with exactly ceil(delta * n^2) cells, deterministic in seed."""
    if not (0.0 < delta <= 1.0):
        raise ValueError(f"delta must be in (0, 1], got {delta}")
    n2 = grid.n * grid.n
    k = math.ceil(delta * n2)
    rng = np.random.default_rng(seed)
    idx = rng.choice(n2, size=k, replace=False)
    bitmap = np.zeros(n2, dtype=bool)
    bitmap[idx] = True
    return RasterSet(grid, bitmap.reshape(grid.n, grid.n))


# ---------------------------------------------------------------------------
# Plain-bitmap file format: first line "PB <N>", then N rows of N chars
# '0'/'1', row 0 at the bottom of the window.  Optional sidecar
# "<name>.meta.json" with keys window_origin: [x, y], window_side: S.
# ---------------------------------------------------------------------------


def _sidecar_path(path: Path) -> Path:
    return path.with_suffix(".meta.json")


def _tmp_path(path: Path) -> Path:
    return path.with_name(path.name + ".tmp")


def save_raster(a: RasterSet, path, write_sidecar: bool | None = None) -> None:
    """Write the bitmap, and its window to a sidecar, each via a temp file.

    Both files are complete before either is moved into place, so a failed
    write leaves an earlier raster at ``path`` as it was.  On failure the
    temp files are removed before the error propagates.
    """
    path = Path(path)
    n = a.grid.n
    body = np.full((n, n + 1), ord("\n"), dtype=np.uint8)
    body[:, :n] = np.where(a.bitmap, ord("1"), ord("0"))
    default_window = a.grid.origin == (0.0, 0.0) and a.grid.side == 1.0
    sidecar = _sidecar_path(path)
    body_tmp, sidecar_tmp = _tmp_path(path), _tmp_path(sidecar)
    try:
        body_tmp.write_bytes(f"PB {n}\n".encode() + body.tobytes())
        if write_sidecar or (write_sidecar is None and not default_window):
            meta = {"window_origin": list(a.grid.origin), "window_side": a.grid.side}
            sidecar_tmp.write_text(json.dumps(meta))
            os.replace(body_tmp, path)
            os.replace(sidecar_tmp, sidecar)
        else:
            os.replace(body_tmp, path)
            # A sidecar left by an earlier save would give this raster its window.
            sidecar.unlink(missing_ok=True)
    except BaseException:
        body_tmp.unlink(missing_ok=True)
        sidecar_tmp.unlink(missing_ok=True)
        raise


def load_raster(path) -> RasterSet:
    path = Path(path)
    raw = path.read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise RasterParseError("missing header line", 0)
    header = raw[:nl]
    parts = header.split()
    if len(parts) != 2 or parts[0] != b"PB":
        raise RasterParseError(f"bad header {header!r}, expected 'PB <N>'", 0)
    try:
        n = int(parts[1])
    except ValueError:
        raise RasterParseError(f"bad resolution field {parts[1]!r}", len(parts[0]) + 1) from None
    if not _is_pow2(n):
        raise ValueError(f"resolution must be a power of two, got {n}")

    # Row iy runs from just after the iy-th newline of the body to the next
    # newline, or to the end of the file once newlines run out.  Rows are
    # checked in order: a row's length first, then its characters.
    body = np.frombuffer(raw, dtype=np.uint8, offset=nl + 1)
    breaks = np.flatnonzero(body == ord("\n"))[:n]
    ends = np.full(n, body.size)
    ends[: breaks.size] = breaks
    starts = np.full(n, body.size)
    starts[0] = 0
    starts[1 : breaks.size + 1] = breaks[: n - 1] + 1
    lengths = ends - starts
    short = np.flatnonzero(lengths != n)
    k = int(short[0]) if short.size else n  # rows before k are n chars + newline
    if body.size < k * (n + 1):  # the last of them ends the file
        body = np.append(body, np.uint8(ord("\n")))
    cells = body[: k * (n + 1)].reshape(k, n + 1)[:, :n]
    bad = np.flatnonzero((cells != ord("0")) & (cells != ord("1")))
    if bad.size:
        iy, ix = divmod(int(bad[0]), n)
        offset = nl + 1 + iy * (n + 1) + ix
        raise RasterParseError(f"invalid character {chr(cells[iy, ix])!r} in row {iy}", offset)
    if k < n:
        raise RasterParseError(
            f"row {k} has {int(lengths[k])} characters, expected {n}", nl + 1 + int(starts[k])
        )
    bitmap = cells == ord("1")

    grid = GridSpec(n)
    sidecar = _sidecar_path(path)
    if sidecar.exists():
        meta = json.loads(sidecar.read_text())
        if not isinstance(meta, dict):
            raise ValueError(f"sidecar {sidecar}: expected a JSON object, got {meta!r}")
        origin, side = meta.get("window_origin"), meta.get("window_side")
        if not (isinstance(origin, list) and len(origin) == 2
                and all(type(v) in (int, float) for v in origin)):
            raise ValueError(f"sidecar {sidecar}: window_origin must be [x, y], got {origin!r}")
        if type(side) not in (int, float):
            raise ValueError(f"sidecar {sidecar}: window_side must be a number, got {side!r}")
        grid = GridSpec(n, tuple(origin), side)
    return RasterSet(grid, bitmap)
