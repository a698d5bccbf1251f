"""Field-wide extrema of curve averages over a scale grid.

Evaluating the averaging operator at every cell center reduces to summing
integer-shifted copies of the input: a sample offset (t*u, t*u^beta) moves
every cell center by the same whole number of cells.  For each scale, nodes
that share a cell shift form one group weighted by their summed weights, and
the engine accumulates one weighted shifted copy per group, then folds the
scale's average into a running per-cell extremum.  The shifts and their
runs of adjacent nodes come from ``kernel.cell_shifts``, which states the
sampling rule: shifts are nonnegative for the positive scales the engine
takes, and a sample on the window's far edge reads 0.  A scale's groups come
in (dx, dy) order, and one bincount sums each run's weights in node order.
The engine adds each group with
one BLAS daxpy.  Each call copies q once into a zero-padded buffer whose
rows are widened on the far side by the largest column shift.  Viewed flat,
the shifted copy that one group adds over a run of output rows is then a
single contiguous slice of that buffer, so daxpy updates the accumulator in
place from contiguous memory: a cell whose shifted sample falls outside q
reads a padded zero and adds +0.0, which leaves the sum unchanged, and the
accumulator columns past the window are computed and discarded.  Output
rows whose shifted row lies past q receive no term from that group, and
groups shifted by a whole window or more are dropped.  One pass over all
rows runs the scale loop; OpenBLAS threads inside each daxpy (daxpy holds
the interpreter lock, so Python threads would gain nothing).  Terms are
added in sorted group order, and each element of a daxpy is computed on its
own, so how OpenBLAS splits the vector among its threads changes no bit.

Rounding: on x86-64 CPUs with fused multiply-add (Haswell and later)
OpenBLAS's daxpy kernels compute acc + w*q with one rounding per group term,
where two numpy passes (multiply, then add) round twice.  On 0/1 inputs
(indicators, lhs) w*q is exact, so the field is bit-identical
to the two-pass sum.  On smoothed inputs a cell may differ from the two-pass
sum by about one unit in the last place (at most 4.4e-16 absolute in the
harness's quantities on N=256 decompose runs).  A CPU whose kernel has no
fused multiply-add rounds as the two-pass sum does, so output bits are
reproducible per machine, not across machines.
"""

from __future__ import annotations

import numpy as np

from .kernel import Cutoff, cell_shifts, support_radius, t_grid
from .raster import GridSpec

__all__ = ["extremal_conv_field", "shift_table"]

# Engine runs since import, one per extremal_conv_field call.
runs = 0


def shift_table(cutoff: Cutoff, grid: GridSpec, ts: np.ndarray):
    """Grouped integer cell shifts for each scale in ts.

    Returns flat arrays (dx, dy, w) and a pointer array tptr such that the
    groups of scale k occupy slice tptr[k]:tptr[k+1], sorted by (dx, dy).
    Weights of nodes falling in the same cell are summed in node order.
    """
    sx, sy, first, _ = cell_shifts(cutoff, ts, grid)
    w = np.bincount(np.cumsum(first.ravel()) - 1, weights=np.tile(cutoff.weights, sx.shape[0]))
    tptr = np.concatenate([[0], np.cumsum(first.sum(axis=1))])
    return sx[first], sy[first], w, tptr


def _extremal(q, dx, dy, w, tptr, base, absolute, out):
    """Fill out with the per-cell extremum over scales.

    Group g adds w[g] * q[r + dy[g], c + dx[g]] to cell (r, c); the shifts
    dx, dy are nonnegative.  `base` may be None (subtracting zero changes no
    value).  With `absolute` the extremum is of |average - base|.  Groups
    shifted by at least the window size in either direction are skipped.
    """
    # Loaded on the first run, not at import: scipy.linalg would add about
    # 6 MB of memory and 0.1 s of start-up (x86-64, scipy 1.17) to every
    # command, including those that compute no field.
    from scipy.linalg.blas import daxpy

    n = q.shape[0]
    keep = (dx < n) & (dy < n)
    tptr = np.concatenate([[0], np.cumsum(keep)])[tptr].tolist()
    dx, dy, w = dx[keep], dy[keep], w[keep]
    width = n + int(dx.max(initial=0))
    # Rows of q with zeros after each up to width, plus one zero row so that
    # a window starting in the last row stays inside.
    qf = np.zeros((n + 1, width))
    qf[:n, :n] = q
    qf = qf.ravel()
    acc = np.empty(n * width)
    ext = np.empty(n * width)
    if base is not None:
        b = np.zeros((n, width))
        b[:, :n] = base
        b = b.ravel()
    groups = list(zip(dx.tolist(), dy.tolist(), w.tolist()))
    for k in range(len(tptr) - 1):
        acc.fill(0.0)
        for sx, sy, wg in groups[tptr[k] : tptr[k + 1]]:
            daxpy(qf, acc, n=(n - sy) * width, a=wg, offx=sy * width + sx, offy=0)
        if base is not None:
            np.subtract(acc, b, out=acc)
        if absolute:
            np.abs(acc, out=acc)
        if k == 0:
            ext[:] = acc
        else:
            np.maximum(ext, acc, out=ext)
    out[:] = ext.reshape(n, width)[:, :n]


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
    on its far edge, read 0.  `ts` needs at least one scale, each positive.
    Every call runs the engine and returns a fresh writable array.
    """
    global runs
    c, b = interval
    if ts is None:
        ts = t_grid(c, b, grid.h, support_radius(cutoff.params), min_per_octave)
    ts = np.ascontiguousarray(ts, dtype=np.float64)
    if not ts.size:
        raise ValueError("need at least one scale")
    if not (ts > 0).all():
        raise ValueError(f"scales must be positive, got {ts[~(ts > 0)][0]}")
    q = np.ascontiguousarray(q, dtype=np.float64)
    if base is not None:
        base = np.ascontiguousarray(base, dtype=np.float64)
    if mode not in ("max", "absmax"):
        raise ValueError(f"mode must be 'max' or 'absmax', got {mode!r}")
    out = np.empty_like(q)
    _extremal(q, *shift_table(cutoff, grid, ts), base, mode == "absmax", out)
    runs += 1
    return out
