"""Poisson smoothing, dyadic martingale averages, and Lp norms.

The Poisson kernel is sampled at cell-center displacements, truncated, and
renormalized so its discrete mass is exactly 1.  Convolution takes one
path: a zero-padded real transform of the field, shared by every scale of a
call, times the kernel spectra, which are cached per (grid, scale, transform
length).  Martingale averages are computed by a cascade of 2x2 block means
so that coarsening a block-constant field is bit-exact, which makes
E_k E_m = E_min an identity rather than a tolerance.

Kernel spectra.  The kernel is even in x and in y, so only its (R + 1)^2
quarter, displacements 0 .. R cells, is built; R is the kernel radius.  Its
mass is that of the full kernel, 4 sum q - 2 (sum q[0, :] + sum q[:, 0]) +
q[0, 0].  Centred at index 0 with wrap-around, the kernel's length-L DFT is
real and even, and equals the DCT-I of the quarter zero-padded to
(L/2 + 1)^2.  That real (L/2 + 1)^2 array is what the cache stores: 8 MB
at L = 2048, against 32 MB for the complex (L, L/2 + 1) spectrum.  Row
L - k of the spectrum is row k, so the product with the field's transform
is two slice multiplies, and the full spectrum is never built.

Transform length.  A call transforms at the even length
L = 2 next_fast_len(ceil((n + R) / 2)), R the largest kernel radius of the
call.  With the kernel centred at 0 the cyclic convolution's output index i
sums field index j at kernel offset (i - j) mod L.  For i, j in the window
[0, n), i - j lies in (-n, n); a wrapped offset i - j + L is at least
L - n + 1 > R as L >= n + R, so it misses the kernel, and the kept window
is [0, n).  L depends on R alone, so a scale smoothed alone and the same
scale smoothed beside smaller ones give the same bytes.  As R <= n - 1,
R < L/2, so the quarter always fits.

Pruned passes.  The field's forward 2-d transform runs as its two 1-d
passes: a real transform along axis 1 of the n rows that hold data, then a
complex one along axis 0, zero-padded to L.  Inverse: an unscaled complex
transform along axis 0, then an unscaled real one along axis 1 of the kept
rows [0, n) only, in blocks of rows (each row transforms alone, so blocks
change no bit), then one multiply by fl(1/L^2), then by h^2.  The bits
equal rfft2/irfft2 at (L, L) with the same spectrum: the skipped rows are
zeros, which transform to exact zeros, or are dropped; pocketfft's own 2-d
inverse runs the same 1-d passes unscaled and applies its factor fl(1/L^2),
rounded from long double, once, after its last pass.

Start-up.  scipy.fft is loaded by the first transform, not at import.  It
brings in 311 modules, scipy.special, numpy.ma, numpy.testing and numpy.f2py
among them: about 0.3 s and 21 MB (x86-64, scipy 1.17, numpy 2.4), which
would double the start-up of every command, though of the commands only
harness and bench smooth.  A fresh `import pinbeam.cli` takes about 0.2 s
and 33 MB without it, against 0.6 s and 56 MB with it.

Threads.  Every transform runs on as many pocketfft threads as the process
may use.  pocketfft hands whole 1-d transforms to its threads, so the
thread count changes no bit.

Tolerance.  Rounding depends on the transform length and on how the
spectrum is computed.  Against direct convolution every smoothed field
agrees to 1e-12 absolute.  Each change of length rule or of spectrum has
moved a [0, 1]-valued field by under 1e-15 absolute: the earlier n + 2R
length to n + R, and the complex spectrum of the kernel at [0, 2R + 1) to
the DCT-I of the quarter at the even length.  The quarter's mass differs
from the full kernel's pairwise sum by a few ulps (under 2e-15 relative).
Output bits are reproducible per machine, not across these rules.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .cache import LRUCache
from .raster import GridSpec, ScalarField

__all__ = [
    "lp_norm",
    "martingale_average",
    "martingale_difference",
    "poisson_smooth",
    "poisson_smooth_multi",
]

TRUNCATION_FACTOR = 50.0


def _kernel_radius(grid: GridSpec, t: float) -> int:
    """Half-width in cells of the scale-t kernel: 50 t, capped at n - 1."""
    if not t > 0:
        raise ValueError(f"Poisson scale must be positive, got {t}")
    return min(math.ceil(TRUNCATION_FACTOR * t / grid.h), grid.n - 1)


def _transform_length(n: int, rad: int) -> int:
    """The even transform length 2 next_fast_len(ceil((n + rad) / 2))."""
    from scipy import fft as sfft

    return 2 * sfft.next_fast_len(-(-(n + rad) // 2))


def _kernel_quarter(grid: GridSpec, t: float) -> np.ndarray:
    """The renormalized kernel at displacements (i h, j h), 0 <= i, j <= R."""
    h = grid.h
    r_tr = TRUNCATION_FACTOR * t
    rad = _kernel_radius(grid, t)
    d = np.arange(rad + 1) * h
    d2 = d * d
    # the closed form t / (2 pi (t^2 + x^2 + y^2)^(3/2)), in its order of
    # operations, built in one quarter-sized array
    q = np.add(t * t, d2[:, None], out=np.empty((d.size, d.size)))
    q += d2
    q **= 1.5
    q *= 2.0 * math.pi
    np.divide(t, q, out=q)
    r2 = r_tr * r_tr
    if 2.0 * d2[-1] > r2:  # else the disc covers the square and nothing is cut
        for row, x2 in zip(q, d2):
            row[x2 + d2 > r2] = 0.0
    # the full kernel's mass: four quarters, less the axes counted twice over
    mass = 4.0 * q.sum() - 2.0 * (q[0].sum() + q[:, 0].sum()) + q[0, 0]
    q /= mass * (h * h)
    return q


_kernel_spectra = LRUCache()
_FFT_WORKERS = len(os.sched_getaffinity(0))


def _kernel_spectrum(grid: GridSpec, t: float, size: int) -> np.ndarray:
    """Rows and columns 0 .. size/2 of the real length-`size` kernel DFT."""
    from scipy import fft as sfft

    m = size // 2 + 1
    return sfft.dctn(_kernel_quarter(grid, t), type=1, s=(m, m), workers=_FFT_WORKERS)


def _padded_rfft2(x: np.ndarray, size: int) -> np.ndarray:
    """sfft.rfft2(x, (size, size)), transforming only the rows x has."""
    from scipy import fft as sfft

    rows = sfft.rfft(x, size, axis=1, workers=_FFT_WORKERS)
    return sfft.fft(rows, size, axis=0, overwrite_x=True, workers=_FFT_WORKERS)


def poisson_smooth_multi(field: ScalarField, scales) -> list[ScalarField]:
    """Poisson-smooth one field at several scales, sharing the field transform."""
    from scipy import fft as sfft

    grid = field.grid
    n, h = grid.n, grid.h
    size = _transform_length(n, max(_kernel_radius(grid, t) for t in scales))
    half = size // 2
    # The inverse passes run unscaled (norm="forward"); 1/L^2 is applied once,
    # rounded from long double as pocketfft's own 2-d inverse rounds it.
    inv_area = float(np.longdouble(1) / np.longdouble(size * size))
    f_hat = _padded_rfft2(field.values, size)
    prod = np.empty_like(f_hat)
    block = max(1, (1 << 18) // size)  # 2 MB of rows, not a whole (n, L) array
    outs = []
    for t in scales:
        key = (grid.n, grid.origin, grid.side, float(t), size)
        k_hat = _kernel_spectra.get(key, lambda: _kernel_spectrum(grid, t, size))
        # rows half + 1 .. size - 1 of the even spectrum are rows half - 1 .. 1
        np.multiply(f_hat[: half + 1], k_hat, out=prod[: half + 1])
        np.multiply(f_hat[half + 1 :], k_hat[half - 1 : 0 : -1], out=prod[half + 1 :])
        cols = sfft.ifft(prod, axis=0, norm="forward", overwrite_x=True, workers=_FFT_WORKERS)[:n]
        out = np.empty((n, n))
        for r in range(0, n, block):
            conv = sfft.irfft(cols[r : r + block], size, axis=1, norm="forward",
                              workers=_FFT_WORKERS)
            np.multiply(conv[:, :n], inv_area, out=out[r : r + block])
        out *= h * h
        out.setflags(write=False)  # ScalarField keeps a read-only array uncopied
        outs.append(ScalarField(grid, out))
    return outs


def poisson_smooth(field: ScalarField, t: float) -> ScalarField:
    """Convolve with the truncated renormalized Poisson kernel at scale t."""
    return poisson_smooth_multi(field, [t])[0]


# ---------------------------------------------------------------------------
# Dyadic martingale averages.
# ---------------------------------------------------------------------------


def _level_depth(grid: GridSpec, k: int) -> int:
    """Cells-per-square doubling depth for level k, with alignment checks."""
    side = 2.0 ** (-k)
    cells = side / grid.h
    depth = round(math.log2(cells)) if cells > 0 else -1
    if depth < 0 or depth > round(math.log2(grid.n)) or 2.0**depth != cells:
        raise ValueError(
            f"level {k} (squares of side {side:g}) not resolvable on grid h={grid.h:g}"
        )
    for coord in grid.origin:
        ratio = coord / side
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"window origin {grid.origin} not aligned to level {k} squares")
    return depth


def _downsample_once(v: np.ndarray) -> np.ndarray:
    a = v.reshape(v.shape[0] // 2, 2, v.shape[1] // 2, 2)
    s = (a[:, 0, :, 0] + a[:, 0, :, 1]) + (a[:, 1, :, 0] + a[:, 1, :, 1])
    return s * 0.25


def martingale_average(field: ScalarField, k: int) -> ScalarField:
    """Conditional expectation onto dyadic squares of side 2^-k.

    Constant on each square, equal to the cell-exact mean there; idempotent
    and integral-preserving.
    """
    depth = _level_depth(field.grid, k)
    v = field.values
    for _ in range(depth):
        v = _downsample_once(v)
    f = 2**depth
    if f > 1:
        v = np.repeat(np.repeat(v, f, axis=0), f, axis=1)
        v.setflags(write=False)  # ScalarField keeps a read-only array uncopied
    return ScalarField(field.grid, v)


def martingale_difference(field: ScalarField, i: int) -> ScalarField:
    """Detail between consecutive dyadic levels: E_{i+1} h - E_i h."""
    fine = martingale_average(field, i + 1)
    coarse = martingale_average(field, i)
    return ScalarField(field.grid, fine.values - coarse.values)


# ---------------------------------------------------------------------------
# Norms.
# ---------------------------------------------------------------------------


def lp_norm(field: ScalarField, p: float) -> float:
    """(h^2 * sum |v|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    h = field.grid.h
    return float((np.abs(field.values) ** p).sum() * h * h) ** (1.0 / p)
