"""Field-wide extrema of curve averages over a scale grid.

Evaluating the averaging operator at every cell center reduces to summing
integer-shifted copies of the input: a sample offset (t*u, t*u^beta) moves
every cell center by the same whole number of cells.  For each scale the
node shifts are grouped (summing weights of nodes that share a cell shift),
and the engine accumulates one weighted shifted copy per group, then folds
the scale's average into a running per-cell extremum.

The engine adds each group with one BLAS daxpy.  Each call copies q once
into a zero-padded buffer whose rows are widened by the largest column
shifts either way.  Viewed flat, the shifted copy that one group adds over
a run of output rows is then a single contiguous slice of that buffer, so
daxpy updates the accumulator in place from contiguous memory: a cell whose
shifted sample falls outside q reads a padded zero and adds +0.0, which
leaves the sum unchanged, and the accumulator columns past the window are
computed and discarded.  Output rows whose shifted row lies outside q
receive no term from that group, and groups shifted by a whole window or
more are dropped.  One pass over all rows runs the scale loop; OpenBLAS
threads inside each daxpy (daxpy holds the interpreter lock, so Python
threads would gain nothing).  Terms are added in sorted group order, and
each element of a daxpy is computed on its own, so how OpenBLAS splits the
vector among its threads changes no bit.

Rounding: on x86-64 CPUs with fused multiply-add (Haswell and later)
OpenBLAS's daxpy kernels compute acc + w*q with one rounding per group term,
where two numpy passes (multiply, then add) round twice.  On 0/1 inputs
(indicators, lhs) w*q is exact, so the field is bit-identical
to the two-pass sum.  On smoothed inputs a cell may differ from the two-pass
sum by about one unit in the last place (at most 4.4e-16 absolute in the
harness's quantities on N=256 decompose runs).  A CPU whose kernel has no
fused multiply-add rounds as the two-pass sum does, so output bits are
reproducible per machine, not across machines.

Results are reused by value.  A computed field is kept in a least-recently-
used store of FIELD_CACHE_SIZE entries, keyed by the mode, the grid, the
cutoff's curve parameters and one 128-bit blake2b digest over the shape,
dtype and bytes of q, of base (None is hashed apart from an array of
zeros), of the cutoff's nodes and weights, and of the scale grid ts.  Those
are all the engine reads, and the engine is deterministic on a given
machine, so a stored field is the field a fresh run would return; a hit
returns a copy, so callers may mutate what they get.  The shift table,
which depends only on the grid, the cutoff and ts, is likewise built once
per (grid, cutoff, ts) and stored with read-only arrays.

The size 6 covers the harness flow of one block at two values of rho: the
small-scale check computes the deviation field D(rho) for both values, then
each decomposition asks for term 4 (equal to D(rho)) first, then lhs (which
does not depend on rho), then terms 1-3.  Between D(rho2) and its reuse as
term 4 of the second decomposition the store takes in D(rho1), lhs and the
first decomposition's terms 1-3, which with D(rho2) is six fields (3 MB at
N=256), so all three repeats are hits.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .cache import LRUCache
from .kernel import Cutoff, cell_shifts, support_radius, t_grid
from .raster import GridSpec

__all__ = ["extremal_conv_field", "field_cache", "shift_table"]

MODE_MAX = 0
MODE_ABSMAX = 1

_MODES = {"max": MODE_MAX, "absmax": MODE_ABSMAX}

# Fields kept for reuse; the module docstring says where 6 comes from.
FIELD_CACHE_SIZE = 6

field_cache = LRUCache(FIELD_CACHE_SIZE)
_shift_tables = LRUCache(4)


def shift_table(cutoff: Cutoff, grid: GridSpec, ts: np.ndarray):
    """Grouped integer cell shifts for each scale in ts.

    Returns flat arrays (dx, dy, w) and a pointer array tptr such that the
    groups of scale k occupy slice tptr[k]:tptr[k+1], sorted by (dx, dy).
    Weights of nodes falling in the same cell are summed in node order.
    """
    ts = np.asarray(ts, dtype=np.float64)
    m = cutoff.nodes.shape[0]
    fx, fy = cell_shifts(cutoff, ts, grid.h)
    key = np.stack(
        [
            np.repeat(np.arange(ts.shape[0], dtype=np.int64), m),
            np.floor(fx).astype(np.int64).ravel(),
            np.floor(fy).astype(np.int64).ravel(),
        ],
        axis=1,
    )
    uniq, inv = np.unique(key, axis=0, return_inverse=True)
    w = np.bincount(inv.ravel(), weights=np.tile(cutoff.weights, ts.shape[0]), minlength=uniq.shape[0])
    tptr = np.searchsorted(uniq[:, 0], np.arange(ts.shape[0] + 1))
    return np.ascontiguousarray(uniq[:, 1]), np.ascontiguousarray(uniq[:, 2]), w, tptr


def _extremal(q, dx, dy, w, tptr, base, mode, out):
    """Fill out with the per-cell extremum over scales.

    Group g adds w[g] * q[r + dy[g], c + dx[g]] to cell (r, c).  `base` may
    be None (subtracting zero changes no value).  Groups whose shift is at
    least the window size in either direction are skipped.
    """
    # Loaded on the first run, not at import: scipy.linalg would add about
    # 6 MB of memory and 0.1 s of start-up (x86-64, scipy 1.17) to every
    # command, including those that compute no field.
    from scipy.linalg.blas import daxpy

    n = q.shape[0]
    keep = (np.abs(dx) < n) & (np.abs(dy) < n)
    tptr = np.concatenate([[0], np.cumsum(keep)])[tptr].tolist()
    dx, dy, w = dx[keep], dy[keep], w[keep]
    lo = -int(dx.min(initial=0))
    width = lo + n + int(dx.max(initial=0))
    # Rows of q with lo zeros before and the rest of width after each, plus
    # one zero row so that a window starting in the last row stays inside.
    qf = np.zeros((n + 1, width))
    qf[:n, lo : lo + n] = q
    qf = qf.ravel()
    acc = np.empty(n * width)
    ext = np.empty(n * width)
    if base is not None:
        b = np.zeros((n, width))
        b[:, :n] = base
        b = b.ravel()
    groups = list(zip((dx + lo).tolist(), dy.tolist(), w.tolist()))
    for k in range(len(tptr) - 1):
        acc.fill(0.0)
        for sx, sy, wg in groups[tptr[k] : tptr[k + 1]]:
            r0 = max(0, -sy)
            daxpy(qf, acc, n=(n - abs(sy)) * width, a=wg, offx=(r0 + sy) * width + sx, offy=r0 * width)
        if base is not None:
            np.subtract(acc, b, out=acc)
        if mode == MODE_ABSMAX:
            np.abs(acc, out=acc)
        if k == 0:
            ext[:] = acc
        else:
            np.maximum(ext, acc, out=ext)
    out[:] = ext.reshape(n, width)[:, :n]


def _feed(hsh, arr: np.ndarray | None) -> None:
    """Hash an array's shape, dtype and bytes, or a marker for None."""
    if arr is None:
        hsh.update(b"none;")
        return
    hsh.update(f"array {arr.shape} {arr.dtype.str};".encode())
    hsh.update(memoryview(np.ascontiguousarray(arr)).cast("B"))


def _read_only_table(cutoff: Cutoff, grid: GridSpec, ts: np.ndarray):
    table = shift_table(cutoff, grid, ts)
    for arr in table:
        arr.setflags(write=False)
    return table


def extremal_conv_field(
    q: np.ndarray,
    grid: GridSpec,
    cutoff: Cutoff,
    interval,
    mode: str,
    base: np.ndarray | None = None,
    min_per_octave: int = 16,
    ts: np.ndarray | None = None,
) -> np.ndarray:
    """Per-cell extremum over scales of the curve average of q (minus base).

    mode 'max' tracks the signed maximum of the average, 'absmax' the
    maximum of |average - base|.  `base` defaults to zero.  Evaluation is at
    cell centers through bare integer shifts: samples outside the window, and
    on its far edge, read 0.
    Repeated requests are answered from the store described in the module
    docstring.
    """
    c, b = interval
    if ts is None:
        ts = t_grid(c, b, grid.h, support_radius(cutoff.params), min_per_octave)
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    q = np.ascontiguousarray(q, dtype=np.float64)
    if base is not None:
        base = np.ascontiguousarray(base, dtype=np.float64)
    mode_id = _MODES[mode]
    hsh = hashlib.blake2b(digest_size=16)
    for arr in (cutoff.nodes, cutoff.weights, ts):
        _feed(hsh, arr)
    table_key = (grid, cutoff.params, hsh.digest())
    for arr in (q, base):
        _feed(hsh, arr)

    def compute():
        dx, dy, w, tptr = _shift_tables.get(
            table_key, lambda: _read_only_table(cutoff, grid, ts)
        )
        out = np.empty_like(q)
        _extremal(q, dx, dy, w, tptr, base, mode_id, out)
        out.setflags(write=False)
        return out

    return field_cache.get((mode, grid, cutoff.params, hsh.digest()), compute).copy()
