"""Dyadic-ladder search for pinned beams, with verifiable certificates.

The search scans set cells in row-major order; for each point it walks the
scale blocks [c_j, b_j] in ascending j and certifies the first pair whose
arcs meet the set at every scale sample.  The certificate translates the
scale block into an interval of curve coefficients and records one witness
per sampled scale, so its claim is finitely checkable by direct membership
lookups.  Exponents below 1 route through the coordinate swap and the
certificate is expressed back in the caller's system.

Sample points follow the one convention of ``raster.cells_of_points``.  A
sample at offset (t u, t u^beta) from the centre of cell (ix, iy) lies in
cell (ix + sx, iy + sy) with (sx, sy) = floor(1/2 + (t / h) (u, u^beta)),
the rounding rule of ``kernel.cell_shifts``, so the scan reads integer
offsets from a zero-padded bitmap, one gather per batch of cells.  This is
a shortcut, kept exact by a tie guard: a scale with some 1/2 + (t / h) u or
1/2 + (t / h) u^beta within rounding distance of an integer (a sample on or
next to a cell edge, the window's far edge among them) is looked up through
``cells_of_points`` instead.  The scan's outcome is therefore the one that
per-point lookups give, bit for bit.  Without a certificate, the scan's
centres and violating scales fill the exhaustion file's columns directly
(``ExhaustionReport``).  The same scan answers the decomposition's block
hypothesis (every set point has a block scale whose arc misses the set).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .kernel import (
    CurveParams,
    Cutoff,
    build_cutoff,
    cell_shifts,
    param_from_scale,
    scale_from_param,
    support_radius,
    t_grid,
    validate_params,
)
from .raster import GridSpec, RasterSet, axis_swap, cells_of_points

__all__ = [
    "BeamCertificate",
    "BeamSample",
    "DenseWindowResult",
    "ExhaustionReport",
    "ResolutionError",
    "SamplingConfig",
    "ScaleLadder",
    "block_hypothesis_holds",
    "check_arc_resolution",
    "default_ladder",
    "dyadic_round_down",
    "dyadic_round_up",
    "find_dense_window",
    "is_dyadic",
    "j_bound",
    "ladder_from_coefficients",
    "normalize_window",
    "prospect",
    "verify_certificate",
]


class ResolutionError(ValueError):
    """Requested scales are below what the grid resolves."""

    def __init__(self, message: str, min_resolution: int):
        super().__init__(f"{message}; minimal admissible resolution N = {min_resolution}")
        self.min_resolution = min_resolution


def is_dyadic(x: float) -> bool:
    """True iff x is an exact power of two."""
    if not (x > 0 and math.isfinite(x)):
        return False
    return math.frexp(x)[0] == 0.5


def dyadic_round_up(x: float) -> float:
    """Smallest power of two >= x."""
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    m, e = math.frexp(x)
    return x if m == 0.5 else math.ldexp(1.0, e)


def dyadic_round_down(x: float) -> float:
    """Largest power of two <= x."""
    if not x > 0:
        raise ValueError(f"need x > 0, got {x}")
    m, e = math.frexp(x)
    return x if m == 0.5 else math.ldexp(0.5, e)


@dataclass(frozen=True)
class ScaleLadder:
    """Interleaved dyadic scale pairs 1 > b_1 > c_1 > ... > b_J > c_J > 0."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        entries = tuple((float(b), float(c)) for b, c in self.entries)
        if not entries:
            raise ValueError("ladder must have at least one block")
        seq = [1.0]
        for b, c in entries:
            seq.extend((b, c))
        for hi, lo in zip(seq, seq[1:]):
            if not lo < hi:
                raise ValueError(f"ladder not strictly interleaved: {lo} >= {hi}")
        if seq[-1] <= 0:
            raise ValueError("ladder scales must be positive")
        for b, c in entries:
            if not (is_dyadic(b) and is_dyadic(c)):
                raise ValueError(f"ladder scales must be dyadic, got ({b}, {c})")
        object.__setattr__(self, "entries", entries)

    @property
    def depth(self) -> int:
        return len(self.entries)

    def block(self, j: int) -> tuple[float, float]:
        """(b_j, c_j) for 1-based block index j."""
        if not 1 <= j <= self.depth:
            raise ValueError(f"block index {j} outside 1..{self.depth}")
        return self.entries[j - 1]


def default_ladder(depth: int) -> ScaleLadder:
    """Consecutive dyadic scales b_j = 2^(-2j+1), c_j = 2^(-2j)."""
    if depth < 1:
        raise ValueError(f"need depth >= 1, got {depth}")
    return ScaleLadder(tuple((2.0 ** (-2 * j + 1), 2.0 ** (-2 * j)) for j in range(1, depth + 1)))


def j_bound(delta: float, cprime: float) -> int:
    """Ladder depth floor(delta^-cprime) + 1 that forces a certified block."""
    if not (0 < delta <= 0.5):
        raise ValueError(f"need 0 < delta <= 1/2, got {delta}")
    if cprime < 1:
        raise ValueError(f"need cprime >= 1, got {cprime}")
    return int(math.floor(delta**-cprime)) + 1


def ladder_from_coefficients(b_coeffs, c_coeffs, r: float, beta: float) -> ScaleLadder:
    """Ladder induced by coefficient bounds C_1 > B_1 > ... on a 2R window.

    Block j takes the scale of B_{J+1-j} rounded up to a dyadic and the
    scale of C_{J+1-j} rounded down, after normalizing lengths by 2R.  The
    interleaving invariant is enforced post-rounding.
    """
    if len(b_coeffs) != len(c_coeffs):
        raise ValueError("coefficient lists must have equal length")
    depth = len(b_coeffs)
    entries = []
    for j in range(1, depth + 1):
        t_hi = scale_from_param(b_coeffs[depth - j], beta)
        t_lo = scale_from_param(c_coeffs[depth - j], beta)
        entries.append((dyadic_round_up(t_hi / (2 * r)), dyadic_round_down(t_lo / (2 * r))))
    return ScaleLadder(tuple(entries))


# ---------------------------------------------------------------------------
# Prospecting.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SamplingConfig:
    nodes: int = 128
    plateau_frac: float = 0.5
    min_per_octave: int = 16
    subsample: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class BeamSample:
    t: float
    a: float
    u: float
    hit: tuple[float, float]


@dataclass(frozen=True)
class BeamCertificate:
    """A pinned point and a coefficient interval whose curves all meet the set."""

    beta: float
    eta: float
    theta: float
    point: tuple[float, float]
    j: int
    t_interval: tuple[float, float]  # (c_j, b_j)
    a_interval: tuple[float, float]
    t_grid_ratio: float
    samples: tuple[BeamSample, ...]
    gap: tuple[float, float]


@dataclass(frozen=True)
class ExhaustionReport:
    """Per scanned point, one violating scale per block: no beam was found.

    The exhaustion file's columns: point k is (x[k], y[k]), ``t[j-1][k]`` its
    violating scale in block j.  ``points`` is a cached read-only nested view.
    """

    ladder: ScaleLadder
    x: tuple[float, ...]
    y: tuple[float, ...]
    t: tuple[tuple[float, ...], ...]
    scanned: int

    def __post_init__(self):
        lengths = [len(col) for col in (self.x, self.y, *self.t)]
        if len(self.t) != self.ladder.depth or len(set(lengths)) != 1:
            raise ValueError(f"need x, y and {self.ladder.depth} t columns, one length: {lengths}")

    @cached_property
    def points(self) -> tuple[tuple[tuple[float, float], tuple[tuple[int, float], ...]], ...]:
        js = range(1, self.ladder.depth + 1)
        return tuple(((x, y), tuple(zip(js, row))) for x, y, *row in zip(self.x, self.y, *self.t))


@dataclass(frozen=True)
class _WorkingSystem:
    raster: RasterSet
    params: CurveParams
    cutoff: Cutoff
    swapped: bool


def _working_system(a: RasterSet, params: CurveParams, sampling: SamplingConfig) -> _WorkingSystem:
    verdict = validate_params(params)
    if not verdict.ok:
        raise ValueError(f"inadmissible curve parameters: {verdict.reason}")
    if params.requires_swap:
        work_params = params.swapped()
        work_raster = axis_swap(a)
        swapped = True
    else:
        work_params, work_raster, swapped = params, a, False
    cutoff = build_cutoff(work_params, sampling.nodes, sampling.plateau_frac)
    return _WorkingSystem(work_raster, work_params, cutoff, swapped)


def check_arc_resolution(grid: GridSpec, theta: float, b: float, what: str) -> None:
    """Raise ResolutionError if arcs at scale b (length about theta * b) are below a cell."""
    if theta * b < grid.h:
        n_min = 2 ** math.ceil(math.log2(grid.side / (theta * b)))
        raise ResolutionError(f"{what} arcs are below cell size {grid.h:g}", n_min)


def _scan_cells(work: RasterSet, sampling: SamplingConfig) -> np.ndarray:
    cells = np.flatnonzero(work.bitmap)  # iy * n + ix, row-major order
    if sampling.subsample is not None and cells.shape[0] > sampling.subsample:
        rng = np.random.default_rng(sampling.seed)
        keep = rng.choice(cells.shape[0], size=sampling.subsample, replace=False)
        cells = cells[np.sort(keep)]
    return cells


# Elements of one gather's index matrix (cells x offsets, int64): a batch of
# cells meets a block in chunks of about this size, which bounds peak memory.
_GATHER_ELEMS = 2**18


@dataclass(frozen=True)
class _Block:
    """One ladder block's scale samples and their integer cell offsets.

    ``distinct`` holds the block's distinct in-range offsets sy * width + sx
    into the padded bitmap.  ``rows`` lists, scale by scale, the distinct
    offsets each scale reads, and ``starts`` indexes the first entry of each
    scale in ``filled`` (scales with no in-range offset read 0).  ``ties``
    lists the scales that take the float lookup.
    """

    ts: np.ndarray
    ox: np.ndarray
    oy: np.ndarray
    ratio: float
    distinct: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    filled: np.ndarray
    ties: np.ndarray


def _block(
    work: _WorkingSystem, ladder: ScaleLadder, j: int, min_per_octave: int, width: int
) -> _Block:
    grid = work.raster.grid
    n, h = grid.n, grid.h
    b, c = ladder.block(j)
    ts = t_grid(c, b, h, support_radius(work.params), min_per_octave)
    ox = np.outer(ts, work.cutoff.nodes)
    oy = np.outer(ts, work.cutoff.node_powers)
    ratio = (b / c) ** (1.0 / (len(ts) - 1)) if len(ts) > 1 else 1.0
    # Bound on the gap between floor(1/2 + (t / h) u), the field engine's
    # rounding rule, and the per-point lookup's float path,
    # floor((x0 + (ix + 1/2) h + t u - x0) / h) - ix, and likewise in y; a
    # scale with a sample this close to an edge is a tie.  The margin also
    # covers the few ulps between (t / h) u and (t u) / h.
    x0, y0 = grid.origin
    extent = abs(x0) + abs(y0) + grid.side + max(ox.max(), oy.max())
    margin = 8.0 * np.finfo(np.float64).eps * extent / h
    near = np.zeros(len(ts), dtype=bool)
    shifts = []
    for f in cell_shifts(work.cutoff, ts, h):
        s = np.floor(f)
        f -= s
        f -= 0.5
        near |= (np.abs(f, out=f) >= 0.5 - margin).any(axis=1)
        shifts.append(s.astype(np.int64))
    sx, sy = shifts
    keep = (sx < n) & (sy < n)
    # Nodes and their powers ascend for any beta > 0, so repeated offsets
    # within a scale are adjacent.
    keep[:, 1:] &= (sx[:, 1:] != sx[:, :-1]) | (sy[:, 1:] != sy[:, :-1])
    counts = keep.sum(axis=1)
    filled = counts > 0
    # Neighbouring scales move arcs by at most half a cell, so they share most
    # offsets: gathering each distinct offset once saves most of the reads.
    distinct, rows = np.unique((sy * width + sx)[keep], return_inverse=True)
    return _Block(
        ts=ts,
        ox=ox,
        oy=oy,
        ratio=ratio,
        distinct=distinct,
        rows=rows,
        starts=(np.cumsum(counts) - counts)[filled],
        filled=filled,
        ties=np.flatnonzero(near),
    )


def _padded(raster: RasterSet, b: float, cutoff: Cutoff) -> tuple[np.ndarray, int]:
    """The raster's bitmap zero-padded for offsets up to scale b, flat, and its width.

    Offsets are nonnegative (arc nodes are positive) and below scale b's
    reach, so padding the far sides by that reach, at most n, lets every
    in-range offset read a zero instead of leaving the window.
    """
    n, h = raster.grid.n, raster.grid.h
    reach = b * max(cutoff.nodes.max(), cutoff.node_powers.max()) / h
    width = n + min(n, math.ceil(reach) + 1)
    padded = np.zeros((width, width), dtype=bool)
    padded[:n, :n] = raster.bitmap
    return padded.ravel(), width


def _batches(cells: np.ndarray, grid: GridSpec, width: int):
    """Batches of cells doubling from one: (padded offsets, centre x, centre y)."""
    n, h = grid.n, grid.h
    x0, y0 = grid.origin
    start, size = 0, 1
    while start < len(cells):
        iy, ix = np.divmod(cells[start : start + size], n)
        yield iy * width + ix, x0 + (ix + 0.5) * h, y0 + (iy + 0.5) * h
        start, size = start + size, 2 * size


def _hits_matrix(work_raster: RasterSet, xc, yc, ox, oy) -> np.ndarray:
    ix, iy, inside = cells_of_points(work_raster.grid, xc + ox, yc + oy)
    return inside & work_raster.bitmap[iy, ix]


def _first_misses(
    blk: _Block, padded: np.ndarray, flat: np.ndarray, xc, yc, work_raster: RasterSet
) -> np.ndarray:
    """Per cell, the index of the first scale without a witness (len(ts) if none)."""
    n_scales = len(blk.ts)
    out = np.empty(len(flat), dtype=np.intp)
    step = max(1, _GATHER_ELEMS // max(1, blk.distinct.size))
    for lo in range(0, len(flat), step):
        hi = min(lo + step, len(flat))
        hit = np.zeros((n_scales, hi - lo), dtype=bool)
        if blk.rows.size:
            # Cells are packed 8 to a byte, so the OR over each scale's offsets
            # runs along whole rows of bytes.
            bits = np.packbits(padded[blk.distinct[:, None] + flat[lo:hi]], axis=1)
            anyhit = np.bitwise_or.reduceat(bits[blk.rows], blk.starts, axis=0)
            hit[blk.filled] = np.unpackbits(anyhit, axis=1, count=hi - lo).view(bool)
        for k in blk.ties:
            xs, ys = xc[lo:hi, None], yc[lo:hi, None]
            hit[k] = _hits_matrix(work_raster, xs, ys, blk.ox[k], blk.oy[k]).any(axis=1)
        out[lo:hi] = np.where(hit.all(axis=0), n_scales, hit.argmin(axis=0))
    return out


def _certificate(
    params: CurveParams,
    swapped: bool,
    xc: float,
    yc: float,
    j: int,
    ts: np.ndarray,
    ox: np.ndarray,
    oy: np.ndarray,
    ratio: float,
    hits: np.ndarray,
) -> BeamCertificate:
    rows = np.arange(len(ts))
    first = hits.argmax(axis=1)
    u_work = ox[rows, first]
    v_work = oy[rows, first]
    if swapped:
        point = (yc, xc)
        u_orig, v_orig = v_work, u_work
    else:
        point = (xc, yc)
        u_orig, v_orig = u_work, v_work
    hits_x = point[0] + u_orig
    hits_y = point[1] + v_orig
    samples = tuple(
        BeamSample(float(t), param_from_scale(float(t), params.beta), float(u), (float(hx), float(hy)))
        for t, u, hx, hy in zip(ts, u_orig, hits_x, hits_y)
    )
    c, b = float(ts[0]), float(ts[-1])
    ends = sorted((param_from_scale(b, params.beta), param_from_scale(c, params.beta)))
    return BeamCertificate(
        beta=params.beta,
        eta=params.eta,
        theta=params.theta,
        point=(float(point[0]), float(point[1])),
        j=j,
        t_interval=(c, b),
        a_interval=(ends[0], ends[1]),
        t_grid_ratio=float(ratio),
        samples=samples,
        gap=(float(u_orig.min()), float(u_orig.max())),
    )


def prospect(
    a: RasterSet,
    ladder: ScaleLadder,
    params: CurveParams,
    sampling: SamplingConfig = SamplingConfig(),
) -> BeamCertificate | ExhaustionReport:
    """Search for a pinned point and block whose arcs all meet the set.

    Scans set cells in row-major order and blocks in ascending j; returns a
    certificate for the first (point, j) such that every scale sample in
    [c_j, b_j] has a witness, else an exhaustion report whose columns hold
    each scanned point and its violating scale per block.
    """
    if a.cell_count == 0:
        raise ValueError("cannot prospect an empty set")
    work = _working_system(a, params, sampling)
    grid = work.raster.grid
    b_last = ladder.block(ladder.depth)[0]
    check_arc_resolution(grid, work.params.theta, b_last, f"finest ladder block (b_J={b_last:g})")
    cells = _scan_cells(work.raster, sampling)
    padded, width = _padded(work.raster, ladder.block(1)[0], work.cutoff)

    # Batches double from one cell, so an early certificate costs little; a
    # later block only sees the cells before the batch's first certified one.
    blocks: dict[int, _Block] = {}
    xs, ys = np.empty(len(cells)), np.empty(len(cells))
    t_cols = np.empty((ladder.depth, len(cells)))
    done = 0
    for flat, xc, yc in _batches(cells, grid, width):
        limit, cert_j = len(flat), 0
        for j in range(1, ladder.depth + 1):
            if limit == 0:
                break
            if j not in blocks:
                blocks[j] = _block(work, ladder, j, sampling.min_per_octave, width)
            blk = blocks[j]
            miss = _first_misses(blk, padded, flat[:limit], xc[:limit], yc[:limit], work.raster)
            passed = miss == len(blk.ts)
            if passed.any():
                limit, cert_j = int(passed.argmax()), j
            t_cols[j - 1, done : done + limit] = blk.ts[miss[:limit]]
        if cert_j:
            blk = blocks[cert_j]
            hits = _hits_matrix(work.raster, xc[limit], yc[limit], blk.ox, blk.oy)
            return _certificate(
                params, work.swapped, xc[limit], yc[limit], cert_j, blk.ts, blk.ox, blk.oy,
                blk.ratio, hits,
            )
        xs[done : done + len(flat)], ys[done : done + len(flat)] = xc, yc
        done += len(flat)
    if work.swapped:
        xs, ys = ys, xs
    t = tuple(map(tuple, t_cols.tolist()))
    return ExhaustionReport(ladder, tuple(xs.tolist()), tuple(ys.tolist()), t, len(cells))


def block_hypothesis_holds(
    a: RasterSet, ladder: ScaleLadder, j: int, cutoff: Cutoff, min_per_octave: int = 16
) -> bool:
    """True iff every set cell has a scale of block j whose arc misses the set.

    The arcs are the cutoff's own (no coordinate swap), sampled on the scale
    grid of ``t_grid`` for the block, and membership follows
    ``cells_of_points``.  Stops at the first batch of cells that holds a
    cell with a witness at every scale.
    """
    work = _WorkingSystem(a, cutoff.params, cutoff, False)
    padded, width = _padded(a, ladder.block(j)[0], cutoff)
    blk = _block(work, ladder, j, min_per_octave, width)
    return all(
        (_first_misses(blk, padded, flat, xc, yc, a) < len(blk.ts)).all()
        for flat, xc, yc in _batches(np.flatnonzero(a.bitmap), a.grid, width)
    )


# ---------------------------------------------------------------------------
# Certificate verification (independent oracle).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    failures: tuple[str, ...] = ()


def verify_certificate(
    a: RasterSet,
    cert: BeamCertificate,
    refinement: int = 1,
    sampling: SamplingConfig = SamplingConfig(),
) -> VerificationResult:
    """Re-check a certificate against the raster.

    Every claimed hit is re-tested by direct cell lookup; the scale interval
    is re-scanned on a grid `refinement` times finer; the coefficient
    interval is re-derived from the scale interval.  Any discrepancy is
    reported with the offending sample or scale.
    """
    failures = []
    params = CurveParams(cert.beta, cert.eta, cert.theta)
    if params.requires_swap:
        work_params = params.swapped()
        work_raster = axis_swap(a)
        px, py = cert.point[1], cert.point[0]
    else:
        work_params = params
        work_raster = a
        px, py = cert.point

    hxs = np.array([s.hit[0] for s in cert.samples], dtype=np.float64)
    hys = np.array([s.hit[1] for s in cert.samples], dtype=np.float64)
    ix, iy, in_set = cells_of_points(a.grid, hxs, hys)
    in_set[in_set] = a.bitmap[iy[in_set], ix[in_set]]
    for idx in np.flatnonzero(~in_set).tolist():
        hx, hy = cert.samples[idx].hit
        failures.append(f"sample {idx}: claimed hit ({hx:.17g}, {hy:.17g}) is not in the set")

    cutoff = build_cutoff(work_params, sampling.nodes, sampling.plateau_frac)
    c, b = cert.t_interval
    ts_std = t_grid(c, b, work_raster.grid.h, support_radius(work_params), sampling.min_per_octave)
    n_fine = (len(ts_std) - 1) * max(1, int(refinement)) + 1
    ts_fine = np.geomspace(c, b, n_fine) if n_fine > 1 else np.array([c])
    ox = np.outer(ts_fine, cutoff.nodes)
    oy = np.outer(ts_fine, cutoff.node_powers)
    hits = _hits_matrix(work_raster, px, py, ox, oy)
    ok_t = hits.any(axis=1)
    if not ok_t.all():
        t_bad = float(ts_fine[int(ok_t.argmin())])
        failures.append(f"refined scan: no witness at scale t = {t_bad:.17g}")

    ends = sorted((param_from_scale(b, cert.beta), param_from_scale(c, cert.beta)))
    for want, got, name in zip(ends, cert.a_interval, ("low", "high")):
        if abs(want - got) > 1e-12 * max(abs(want), abs(got), 1.0):
            failures.append(f"coefficient interval {name} end {got!r} != derived {want!r}")

    return VerificationResult(ok=not failures, failures=tuple(failures))


# ---------------------------------------------------------------------------
# Dense-window extraction (positive-density reduction).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DenseWindowResult:
    found: bool
    r: float
    center: tuple[float, float]
    ratio: float


def _summed_area(bitmap: np.ndarray) -> np.ndarray:
    """Integer summed-area table: sat[i, j] counts the set cells of bitmap[:i, :j]."""
    n = bitmap.shape[0]
    sat = np.zeros((n + 1, n + 1), dtype=np.int64)
    np.cumsum(bitmap, axis=1, out=sat[1:, 1:])
    # Row by row: a cumsum down axis 0 strides across rows and is over 20x slower.
    for i in range(2, n + 1):
        np.add(sat[i], sat[i - 1], out=sat[i])
    return sat


def _window_counts(sat: np.ndarray, m: int) -> np.ndarray:
    """Set cells in every m x m window, from a summed-area table."""
    return sat[m:, m:] - sat[:-m, m:] - sat[m:, :-m] + sat[:-m, :-m]


def find_dense_window(big_a: RasterSet, delta: float, r_list) -> DenseWindowResult:
    """Largest listed R whose best cell-aligned 2R-window has density >= delta.

    The maximization over translates is exact; on a miss the result carries
    the best ratio seen (found=False).
    """
    grid = big_a.grid
    h = grid.h
    best = DenseWindowResult(False, 0.0, (math.nan, math.nan), -1.0)
    sat = _summed_area(big_a.bitmap)
    for r in sorted(r_list, reverse=True):
        m_f = 2.0 * r / h
        m = round(m_f)
        if m < 1 or m > grid.n or abs(m_f - m) > 1e-9:
            raise ValueError(f"window half-side {r} is not resolvable on grid h={h:g}")
        counts = _window_counts(sat, m)
        flat = int(np.argmax(counts))
        iy0, ix0 = divmod(flat, counts.shape[1])
        ratio = counts[iy0, ix0] / (m * m)
        center = (grid.origin[0] + (ix0 + m / 2.0) * h, grid.origin[1] + (iy0 + m / 2.0) * h)
        if ratio >= delta:
            return DenseWindowResult(True, r, center, float(ratio))
        if ratio > best.ratio:
            best = DenseWindowResult(False, r, center, float(ratio))
    return best


def normalize_window(big_a: RasterSet, r: float, center) -> RasterSet:
    """Window content re-indexed onto the unit square.

    The window [-R, R]^2 + center is mapped by (p - corner) / 2R so that the
    result's measure equals the window density exactly.
    """
    grid = big_a.grid
    h = grid.h
    m_f = 2.0 * r / h
    m = round(m_f)
    if abs(m_f - m) > 1e-9 or m < 1:
        raise ValueError(f"window side 2R = {2 * r} is not a whole number of cells")
    cx_f = (center[0] - r - grid.origin[0]) / h
    cy_f = (center[1] - r - grid.origin[1]) / h
    cx, cy = round(cx_f), round(cy_f)
    if abs(cx_f - cx) > 1e-6 or abs(cy_f - cy) > 1e-6:
        raise ValueError("window corner is not cell-aligned")
    if cx < 0 or cy < 0 or cx + m > grid.n or cy + m > grid.n:
        raise ValueError("window extends outside the raster domain")
    block = np.ascontiguousarray(big_a.bitmap[cy : cy + m, cx : cx + m])
    return RasterSet(GridSpec(m, (0.0, 0.0), 1.0), block)
