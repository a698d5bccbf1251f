"""Poisson smoothing, dyadic martingale averages, and square functions.

The Poisson kernel is sampled at cell-center displacements, truncated, and
renormalized so its discrete mass is exactly 1.  Convolution takes one
path: a zero-padded real transform of the field, shared by every scale of a
call, times the kernel spectra, which are cached per (grid, scale, transform
length).  Martingale averages are computed by a cascade of 2x2 block means
so that coarsening a block-constant field is bit-exact, which makes
E_k E_m = E_min an identity rather than a tolerance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import fft as sfft

from .cache import LRUCache
from .raster import GridSpec, ScalarField

__all__ = [
    "lp_norm",
    "martingale_average",
    "martingale_difference",
    "poisson_kernel",
    "poisson_smooth",
    "poisson_smooth_multi",
    "square_function_s1",
    "square_function_s2",
]

TRUNCATION_FACTOR = 50.0


def poisson_point(t: float, x, y):
    """Closed-form kernel value t / (2 pi (t^2 + x^2 + y^2)^(3/2))."""
    return t / (2.0 * math.pi * (t * t + np.asarray(x) ** 2 + np.asarray(y) ** 2) ** 1.5)


def _kernel_radius(grid: GridSpec, t: float) -> int:
    """Half-width in cells of the scale-t kernel: 50 t, capped at n - 1."""
    if not t > 0:
        raise ValueError(f"Poisson scale must be positive, got {t}")
    return min(math.ceil(TRUNCATION_FACTOR * t / grid.h), grid.n - 1)


def poisson_kernel(grid: GridSpec, t: float) -> np.ndarray:
    """Truncated, renormalized Poisson kernel sampled at cell displacements.

    phi_t(x, y) = t / (2 pi (t^2 + x^2 + y^2)^(3/2)), kept on the disc of
    radius 50 t (capped at the window extent, beyond which displacements
    cannot occur between window cells) and rescaled so the discrete mass
    h^2 * sum equals 1.
    """
    h = grid.h
    r_tr = TRUNCATION_FACTOR * t
    rad = _kernel_radius(grid, t)
    d = np.arange(-rad, rad + 1) * h
    x, y = d[:, None], d[None, :]
    ker = poisson_point(t, x, y)
    ker[x * x + y * y > r_tr * r_tr] = 0.0
    ker /= ker.sum() * (h * h)
    return ker


_kernel_spectra = LRUCache()


def poisson_smooth_multi(field: ScalarField, scales) -> list[ScalarField]:
    """Poisson-smooth one field at several scales, sharing the field transform."""
    grid = field.grid
    n, h = grid.n, grid.h
    rads = [_kernel_radius(grid, t) for t in scales]
    size = sfft.next_fast_len(n + 2 * max(rads))
    f_hat = sfft.rfft2(field.values, (size, size))
    outs = []
    for t, rad in zip(scales, rads):
        key = (grid.n, grid.origin, grid.side, float(t), size)
        k_hat = _kernel_spectra.get(key, lambda: sfft.rfft2(poisson_kernel(grid, t), (size, size)))
        conv = sfft.irfft2(f_hat * k_hat, (size, size), overwrite_x=True)
        outs.append(ScalarField(grid, conv[rad : rad + n, rad : rad + n] * (h * h)))
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
    return ScalarField(field.grid, v)


def martingale_difference(field: ScalarField, i: int) -> ScalarField:
    """Detail between consecutive dyadic levels: E_{i+1} h - E_i h."""
    fine = martingale_average(field, i + 1)
    coarse = martingale_average(field, i)
    return ScalarField(field.grid, fine.values - coarse.values)


# ---------------------------------------------------------------------------
# Square functions and norms.
# ---------------------------------------------------------------------------


def square_function_s1(field: ScalarField, i_lo: int, i_hi: int) -> ScalarField:
    """Pointwise l2 aggregate of consecutive Poisson differences.

    sqrt(sum_{i=i_lo}^{i_hi} |P_{2^{-i+1}} h - P_{2^{-i}} h|^2).
    """
    if i_lo > i_hi:
        raise ValueError(f"empty level range [{i_lo}, {i_hi}]")
    scales = [2.0 ** (-i + 1) for i in range(i_lo, i_hi + 1)] + [2.0 ** (-i_hi)]
    smooth = poisson_smooth_multi(field, scales)
    acc = np.zeros_like(field.values)
    for j in range(len(scales) - 1):
        diff = smooth[j].values - smooth[j + 1].values
        acc += diff * diff
    return ScalarField(field.grid, np.sqrt(acc))


def square_function_s2(field: ScalarField, i_lo: int, i_hi: int) -> ScalarField:
    """Pointwise l2 aggregate of Poisson-vs-martingale differences.

    sqrt(sum_{i=i_lo}^{i_hi} |P_{2^{-i}} h - E_i h|^2).
    """
    if i_lo > i_hi:
        raise ValueError(f"empty level range [{i_lo}, {i_hi}]")
    levels = list(range(i_lo, i_hi + 1))
    smooth = poisson_smooth_multi(field, [2.0 ** (-i) for i in levels])
    acc = np.zeros_like(field.values)
    for sm, i in zip(smooth, levels):
        diff = sm.values - martingale_average(field, i).values
        acc += diff * diff
    return ScalarField(field.grid, np.sqrt(acc))


def lp_norm(field: ScalarField, p: float) -> float:
    """(h^2 * sum |v|^p)^(1/p)."""
    if p < 1:
        raise ValueError(f"need p >= 1, got {p}")
    h = field.grid.h
    return float((np.abs(field.values) ** p).sum() * h * h) ** (1.0 / p)
