"""Constructed raster sets: stripe patterns that kill whole scale blocks,
arc carvings, and block checkerboards.

These are the counter-instances the inequality harness and the search are
exercised against.  The stripe construction is the workhorse: vertical dead
strips placed so that from every column some scale in the block has its
whole arc span inside a strip, making the block's infimum vanish at every
set cell by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .kernel import Cutoff, CurveParams
from .prospect import _GATHER_ELEMS, ScaleLadder, _block, _padded
from .raster import GridSpec, RasterSet, cells_of_points

__all__ = [
    "carve_block_arcs",
    "checkerboard",
    "dead_strip_set",
]


def dead_strip_set(
    n: int,
    params: CurveParams,
    ladder: ScaleLadder,
    j: int,
    pad_cells: int = 2,
    phase_cells: int = 0,
) -> RasterSet:
    """Unit-window set of full-height columns with periodic dead strips.

    Strips of width ceil(b_j (theta - eta) / h) + 2 * pad_cells repeat with
    period floor(eta * c_j / h), so every pinned point has a scale t in
    [c_j, b_j] whose arc samples all fall in dead columns (or outside the
    window).  Requires beta > 1 and a grid fine enough that the period
    exceeds the strip width.
    """
    if params.beta <= 1:
        raise ValueError("strip construction works in the beta > 1 system")
    grid = GridSpec(n)
    h = grid.h
    b, c = ladder.block(j)
    period = math.floor(params.eta * c / h)
    width = math.ceil(b * (params.theta - params.eta) / h) + 2 * pad_cells
    if width >= period:
        raise ValueError(
            f"strip width {width} cells exceeds period {period}; "
            "increase n or narrow theta - eta"
        )
    cols = np.ones(n, dtype=bool)
    for start in range(phase_cells % period, n + period, period):
        cols[max(0, start) : min(n, start + width)] = False
    bitmap = np.broadcast_to(cols, (n, n))
    return RasterSet(grid, np.ascontiguousarray(bitmap))


def carve_block_arcs(
    a: RasterSet,
    region_mask: np.ndarray,
    ladder: ScaleLadder,
    j: int,
    cutoff: Cutoff,
    min_per_octave: int = 16,
) -> RasterSet:
    """Delete every cell hit by block-j arcs pinned at cells of the region.

    The carve is the ladder scan's gather run as a scatter: it clears the
    scan's own block-j cell offsets (``prospect._block``) from every region
    cell, those of the non-tie nodes at tie scales among them, and only the
    block's tie samples through ``cells_of_points``, as the scan looks them
    up.  So the carved set is exactly the one on which those points fail
    block j, by construction.
    """
    grid = a.grid
    n, h = grid.n, grid.h
    region = RasterSet(grid, region_mask)  # refuses a mask of another shape
    padded, width = _padded(a, ladder.block(j)[0], cutoff)
    blk = _block(grid, cutoff, ladder, j, min_per_octave, width)
    iy, ix = np.divmod(np.flatnonzero(region.bitmap), n)
    flat = iy * width + ix
    step = max(1, _GATHER_ELEMS // max(1, blk.distinct.size))
    for lo in range(0, len(flat), step):
        padded[blk.distinct[:, None] + flat[lo : lo + step]] = False
    bitmap = padded.reshape(width, width)[:n, :n]
    x0, y0 = grid.origin
    xc, yc = x0 + (ix + 0.5) * h, y0 + (iy + 0.5) * h
    step = max(1, _GATHER_ELEMS // max(1, blk.ties.size))
    for lo in range(0, len(flat), step):
        jx, jy, inside = cells_of_points(grid, *blk.tie_points(xc[lo : lo + step],
                                                                yc[lo : lo + step]))
        bitmap[jy[inside], jx[inside]] = False
    return RasterSet(grid, bitmap)


def checkerboard(n: int, block_cells: int) -> RasterSet:
    """Alternating blocks of the given cell size on the unit window, solid at the origin."""
    if block_cells < 1:
        raise ValueError(f"need block_cells >= 1, got {block_cells}")
    if n % block_cells != 0:
        raise ValueError(f"block size {block_cells} must divide n = {n}")
    k = n // block_cells
    tile = (np.add.outer(np.arange(k), np.arange(k)) % 2) == 0
    bitmap = np.kron(tile, np.ones((block_cells, block_cells), dtype=bool))
    return RasterSet(GridSpec(n), bitmap)
