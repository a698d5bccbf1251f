"""Field-wide extrema of curve averages over a scale grid.

Evaluating the averaging operator at every cell center reduces to summing
integer-shifted copies of the input: a sample offset (t*u, t*u^beta) moves
every cell center by the same whole number of cells.  For each scale the
node shifts are grouped (summing weights of nodes that share a cell shift),
and the engine accumulates one weighted shifted copy per group, then folds
the scale's average into a running per-cell extremum.

The engine is numpy only.  Each call copies q once into a zero-padded
buffer whose rows are widened by the largest column shifts either way.
Viewed flat, the shifted copy that one group adds over a run of output rows
is then a single contiguous slice of that buffer, so every array operation
works on contiguous memory: a cell whose shifted sample falls outside q
reads a padded zero and adds +0.0, which leaves the sum unchanged, and the
accumulator columns past the window are computed and discarded.  Output
rows whose shifted row lies outside q receive no term from that group, and
groups shifted by a whole window or more are dropped.  Products, sums and
the running extremum go into buffers that each band allocates once per call.

The output rows are split into contiguous bands, one per usable CPU (at
most one per 64 rows), and each band runs the whole scale loop on its own
thread with its own buffers; numpy releases the interpreter lock inside
each array operation.  Every output cell belongs to exactly one band, and
within a band its terms are added in the same sorted group order as in a
single pass, so results are bit-identical whatever the band count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .kernel import Cutoff, support_radius, t_grid
from .raster import GridSpec

__all__ = ["extremal_conv_field", "shift_table"]

MODE_MAX = 0
MODE_ABSMAX = 1
MODE_MIN = 2

_MODES = {"max": MODE_MAX, "absmax": MODE_ABSMAX, "min": MODE_MIN}

# Fewest output rows per band: on thinner bands each array operation is too
# short for a second thread to gain anything.
_MIN_BAND_ROWS = 64


def shift_table(cutoff: Cutoff, grid: GridSpec, ts: np.ndarray):
    """Grouped integer cell shifts for each scale in ts.

    Returns flat arrays (dx, dy, w) and a pointer array tptr such that the
    groups of scale k occupy slice tptr[k]:tptr[k+1], sorted by (dx, dy).
    Weights of nodes falling in the same cell are summed in node order.
    """
    ts = np.asarray(ts, dtype=np.float64)
    m = cutoff.nodes.shape[0]
    tk = (ts / grid.h)[:, None]
    key = np.stack(
        [
            np.repeat(np.arange(ts.shape[0], dtype=np.int64), m),
            np.floor(0.5 + tk * cutoff.nodes).astype(np.int64).ravel(),
            np.floor(0.5 + tk * cutoff.node_powers).astype(np.int64).ravel(),
        ],
        axis=1,
    )
    uniq, inv = np.unique(key, axis=0, return_inverse=True)
    w = np.bincount(inv.ravel(), weights=np.tile(cutoff.weights, ts.shape[0]), minlength=uniq.shape[0])
    tptr = np.searchsorted(uniq[:, 0], np.arange(ts.shape[0] + 1))
    return np.ascontiguousarray(uniq[:, 1]), np.ascontiguousarray(uniq[:, 2]), w, tptr


def _row_bands(n: int) -> list[tuple[int, int]]:
    """Contiguous [r0, r1) row bands, one per usable CPU and at most n // 64."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    k = max(1, min(cpus, n // _MIN_BAND_ROWS))
    return [(i * n // k, (i + 1) * n // k) for i in range(k)]


def _extremal_rows(qf, width, dx, dy, w, tptr, base, mode, out, r0, r1):
    """Rows r0:r1 of the extremum.

    Group g adds w[g] * qf[(r + dy[g]) * width + dx[g] + c] to cell (r, c).
    """
    n = out.shape[1]
    size = (r1 - r0) * width
    acc = np.empty(size)
    tmp = np.empty(size)
    ext = np.empty(size)
    if base is not None:
        b = np.zeros((r1 - r0, width))
        b[:, :n] = base[r0:r1]
        b = b.ravel()
    for k in range(len(tptr) - 1):
        acc.fill(0.0)
        for g in range(tptr[k], tptr[k + 1]):
            sy = dy[g]
            a0, a1 = max(r0, -sy), min(r1, n - sy)
            if a0 >= a1:
                continue
            m = (a1 - a0) * width
            s = (a0 + sy) * width + dx[g]
            t = tmp[:m]
            np.multiply(qf[s : s + m], w[g], out=t)
            o = (a0 - r0) * width
            acc[o : o + m] += t
        if base is not None:
            np.subtract(acc, b, out=acc)
        if mode == MODE_ABSMAX:
            np.abs(acc, out=acc)
        if k == 0:
            ext[:] = acc
        elif mode == MODE_MIN:
            np.minimum(ext, acc, out=ext)
        else:
            np.maximum(ext, acc, out=ext)
    out[r0:r1] = ext.reshape(r1 - r0, width)[:, :n]


def _extremal_bands(q, dx, dy, w, tptr, base, mode, out, bands):
    """Fill out with the per-cell extremum over scales, one thread per row band.

    `base` may be None (subtracting zero changes no value).  Groups whose
    shift is at least the window size in either direction are skipped.
    """
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
    args = (qf.ravel(), width, (dx + lo).tolist(), dy.tolist(), w.tolist(), tptr, base, mode, out)
    if len(bands) == 1:
        _extremal_rows(*args, *bands[0])
        return
    with ThreadPoolExecutor(max_workers=len(bands)) as ex:
        for f in [ex.submit(_extremal_rows, *args, r0, r1) for r0, r1 in bands]:
            f.result()


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

    mode 'max' tracks the signed maximum of the average, 'min' the signed
    minimum, 'absmax' the maximum of |average - base|.  `base` defaults to
    zero.  Evaluation is at cell centers; samples outside the window read 0.
    """
    c, b = interval
    if ts is None:
        ts = t_grid(c, b, grid.h, support_radius(cutoff.params), min_per_octave)
    q = np.ascontiguousarray(q, dtype=np.float64)
    if base is not None:
        base = np.ascontiguousarray(base, dtype=np.float64)
    dx, dy, w, tptr = shift_table(cutoff, grid, ts)
    out = np.empty_like(q)
    _extremal_bands(q, dx, dy, w, tptr, base, _MODES[mode], out, _row_bands(q.shape[0]))
    return out
