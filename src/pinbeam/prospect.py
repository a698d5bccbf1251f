"""Dyadic-ladder search for pinned beams, with verifiable certificates.

The search scans set cells in row-major order; for each point it walks the
scale blocks [c_j, b_j] in ascending j and certifies the first pair whose
arcs meet the set at every scale sample.  The certificate translates the
scale block into an interval of curve coefficients and records one witness
(scale, offset, hit) per sampled scale, so its claim is finitely checkable
by direct membership lookups.  Exponents below 1 route through the
coordinate swap and the certificate is expressed back in the caller's system.

The scan reads arc samples as integer offsets into a zero-padded bitmap,
by the sampling rule of ``kernel.cell_shifts``.  It gathers each block in
runs of consecutive scales, 16, 32, 64, ... long, each run over the cells
that have no miss in the runs before it, so a cell stops at the run of its
first scale without a witness.  The runs double because a cell that passes
the block goes through all of them: fixed runs would cost it one gather per
16 scales, doubling ones about log2(scales / 16).  The tie samples of that
rule, one (scale, node) at a time, are looked up through
``raster.sample_values`` instead, and the other nodes of their scales keep
their offsets.  A scale's run of equal offsets
keeps the node that starts it or follows a tie, when that node is no tie
itself, so the keep rule needs no sort.  The scan's outcome is therefore
the one that per-point lookups give, bit for bit.  Without a certificate,
the scan's centres and violating scales fill the exhaustion file's columns
directly (``ExhaustionReport``).  The same scan answers the decomposition's block
hypothesis (every set point has a block scale whose arc misses the set),
and ``constructions.carve_block_arcs`` runs its gather as a scatter.
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
    sample_points,
    support_radius,
    t_grid,
    validate_params,
)
from .raster import GridSpec, RasterSet, axis_swap, sample_values

__all__ = [
    "BeamCertificate",
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
    "normalize_window",
    "prospect",
    "verify_certificate",
]


class ResolutionError(ValueError):
    """Requested scales are below what the grid resolves."""

    def __init__(self, message: str, min_resolution: int):
        # Resolutions are powers of two; one past 2^32, which no raster
        # reaches, is printed as one.
        shown = f"2^{min_resolution.bit_length() - 1}" if min_resolution > 2**32 else min_resolution
        super().__init__(f"{message}; minimal admissible resolution N = {shown}")
        self.min_resolution = min_resolution


def is_dyadic(x: float) -> bool:
    """True iff x is an exact power of two."""
    if not (x > 0 and math.isfinite(x)):
        return False
    return math.frexp(x)[0] == 0.5


def dyadic_round_up(x: float) -> float:
    """Smallest power of two >= x."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"need finite x > 0, got {x}")
    m, e = math.frexp(x)
    return x if m == 0.5 else math.ldexp(1.0, e)


def dyadic_round_down(x: float) -> float:
    """Largest power of two <= x."""
    if not (x > 0 and math.isfinite(x)):
        raise ValueError(f"need finite x > 0, got {x}")
    m, e = math.frexp(x)
    return x if m == 0.5 else math.ldexp(0.5, e)


@dataclass(frozen=True)
class ScaleLadder:
    """The dyadic scale blocks b_j = 2^(-2j+1) > c_j = 2^(-2j), j = 1..depth."""

    MAX_DEPTH = 537  # c_537 = 2^-1074 is the least positive float
    depth: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError(f"need depth >= 1, got {self.depth}")
        if self.depth > self.MAX_DEPTH:
            raise ValueError(f"ladder depth {self.depth} is too deep: "
                             "c_J = 2^(-2J) is 0 past J = 537")

    @property
    def entries(self) -> tuple[tuple[float, float], ...]:
        return tuple(self.block(j) for j in range(1, self.depth + 1))

    def block(self, j: int) -> tuple[float, float]:
        """(b_j, c_j) for 1-based block index j."""
        if not 1 <= j <= self.depth:
            raise ValueError(f"block index {j} outside 1..{self.depth}")
        return 2.0 ** (-2 * j + 1), 2.0 ** (-2 * j)


def default_ladder(depth: int) -> ScaleLadder:
    """The ladder of blocks 1..depth."""
    return ScaleLadder(depth)


def j_bound(delta: float, cprime: float) -> int:
    """Ladder depth floor(delta^-cprime) + 1 that forces a certified block."""
    if not (0 < delta <= 0.5):
        raise ValueError(f"need 0 < delta <= 1/2, got {delta}")
    if not cprime >= 1:
        raise ValueError(f"need cprime >= 1, got {cprime}")
    try:
        return math.floor(delta**-cprime) + 1
    except OverflowError:
        raise ValueError(f"ladder depth overflows at delta={delta}, cprime={cprime}") from None


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

    def __post_init__(self):
        if self.subsample is not None and self.subsample < 1:
            raise ValueError(f"need subsample >= 1, got {self.subsample}")


@dataclass(frozen=True)
class BeamCertificate:
    """A pinned point and a coefficient interval whose curves all meet the set.

    ``a_interval`` is the image of block j's ``t_interval`` under
    a = t^(1-beta).  The witnesses are columns, one entry per scale of the
    block's t_grid: the arc sample at scale t[k] and offset u[k] from the
    point lies in the set at (hit_x[k], hit_y[k]).
    """

    beta: float
    eta: float
    theta: float
    point: tuple[float, float]
    j: int
    t_interval: tuple[float, float]  # (c_j, b_j)
    a_interval: tuple[float, float]
    t: tuple[float, ...]
    u: tuple[float, ...]
    hit_x: tuple[float, ...]
    hit_y: tuple[float, ...]

    def __post_init__(self):
        lengths = [len(col) for col in (self.t, self.u, self.hit_x, self.hit_y)]
        if len(set(lengths)) != 1:
            raise ValueError(f"need t, u, hit_x and hit_y columns of one length: {lengths}")


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


def _working_system(
    a: RasterSet, params: CurveParams, sampling: SamplingConfig
) -> tuple[RasterSet, Cutoff]:
    """The raster and cutoff of the beta > 1 system: swapped iff params.requires_swap."""
    verdict = validate_params(params)
    if not verdict.ok:
        raise ValueError(f"inadmissible curve parameters: {verdict.reason}")
    if params.requires_swap:
        a, params = axis_swap(a), params.swapped()
    return a, build_cutoff(params, sampling.nodes, sampling.plateau_frac)


def check_arc_resolution(grid: GridSpec, theta: float, b: float, what: str) -> None:
    """Raise ResolutionError if arcs at scale b (length about theta * b) are below a cell."""
    if theta * b < grid.h:
        # Binary exponents apart, since side / (theta b) overflows for a vast window.
        (ms, es), (mt, et) = math.frexp(grid.side), math.frexp(theta * b)
        n_min = 2 ** (es - et + (ms > mt))
        raise ResolutionError(f"{what} arcs are below cell size {grid.h:g}", n_min)


def _scan_cells(work: RasterSet, sampling: SamplingConfig) -> np.ndarray:
    cells = np.flatnonzero(work.bitmap)  # iy * n + ix, row-major order
    if sampling.subsample is not None and cells.shape[0] > sampling.subsample:
        rng = np.random.default_rng(sampling.seed)
        keep = rng.choice(cells.shape[0], size=sampling.subsample, replace=False)
        cells = cells[np.sort(keep)]
    return cells


# Elements of one gather's index matrix (cells x offsets, int64): a batch of
# cells meets a run in chunks of about this size, which bounds peak memory.
_GATHER_ELEMS = 2**18

# Scales in a block's first run; each later run holds twice as many.
_RUN_SCALES = 16


@dataclass(frozen=True)
class _Block:
    """One run of a ladder block: consecutive scale samples and their cell offsets.

    ``ts`` is the block's scale grid from index ``first`` on, for the run's
    length.  ``distinct`` holds the distinct in-range offsets sy * width + sx
    into the padded bitmap of every sample but the tie samples.  ``rows``
    lists, scale by scale, the distinct offsets each scale reads, and
    ``starts`` indexes the first entry of each scale in ``filled`` (scales
    with no such offset read 0).  The tie samples take the float lookup:
    ``ties`` holds the run's scale index of each, ascending, and ``tie_dx``,
    ``tie_dy`` its offset (t u, t u^beta) from the pinned point.
    """

    first: int
    ts: np.ndarray
    distinct: np.ndarray
    rows: np.ndarray
    starts: np.ndarray
    filled: np.ndarray
    ties: np.ndarray
    tie_dx: np.ndarray
    tie_dy: np.ndarray

    def tie_points(self, xc: np.ndarray, yc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The tie samples pinned at each centre, (tie samples, cells), with
        the bits of ``kernel.sample_points``: x + t u, one product and one sum."""
        return xc + self.tie_dx[:, None], yc + self.tie_dy[:, None]


def _block(
    grid: GridSpec, cutoff: Cutoff, ladder: ScaleLadder, j: int, min_per_octave: int, width: int
) -> tuple[np.ndarray, tuple[_Block, ...]]:
    """Block j's scale grid and its runs of _RUN_SCALES, 2 _RUN_SCALES, ... scales."""
    b, c = ladder.block(j)
    ts = t_grid(c, b, grid.h, support_radius(cutoff.params), min_per_octave)
    # One call over the whole grid: the tie margin depends on the largest scale.
    sx, sy, starts, ties = cell_shifts(cutoff, ts, grid)
    # An entry for every run of equal offsets that has an in-range non-tie
    # node: its first such node starts the run or follows a tie, so no sort.
    after_tie = np.zeros_like(ties)
    after_tie[:, 1:] = ties[:, :-1]
    keep = (starts | after_tie) & ~ties & (sx < grid.n) & (sy < grid.n)
    offsets = sy * width + sx
    runs = []
    lo, size = 0, _RUN_SCALES
    while lo < len(ts):
        run = slice(lo, lo + size)
        counts = keep[run].sum(axis=1)
        filled = counts > 0
        # Neighbouring scales move arcs by at most half a cell, so they share
        # most offsets: gathering each distinct offset once saves most reads.
        distinct, rows = np.unique(offsets[run][keep[run]], return_inverse=True)
        k, i = np.nonzero(ties[run])
        runs.append(_Block(
            first=lo,
            ts=ts[run],
            distinct=distinct,
            rows=rows,
            starts=(np.cumsum(counts) - counts)[filled],
            filled=filled,
            ties=k,
            tie_dx=ts[run][k] * cutoff.nodes[i],
            tie_dy=ts[run][k] * cutoff.node_powers[i],
        ))
        lo, size = lo + size, 2 * size
    return ts, tuple(runs)


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


def _first_misses(
    runs: tuple[_Block, ...], padded: np.ndarray, flat: np.ndarray, xc, yc, raster: RasterSet
) -> np.ndarray:
    """Per cell, the index of the first block scale without a witness (the
    block's scale count if none).

    The runs go in order, each over the cells with no miss in the runs
    before it, so a cell stops at the run of its first miss.  A cell that
    passes the block goes through every run; as the runs double, that is
    about log2(scales / _RUN_SCALES) gathers, which together read little
    more than one gather of the whole block.
    """
    n_scales = runs[-1].first + len(runs[-1].ts)
    out = np.full(len(flat), n_scales, dtype=np.intp)
    live = np.arange(len(flat))
    for run in runs:
        step = max(1, _GATHER_ELEMS // max(1, run.distinct.size + run.ties.size))
        tie_starts = np.flatnonzero(np.diff(run.ties, prepend=-1))  # each tie scale's first
        for lo in range(0, len(live), step):
            cells = live[lo : lo + step]
            hit = np.zeros((len(run.ts), len(cells)), dtype=bool)
            if run.rows.size:
                # Cells are packed 8 to a byte, so the OR over each scale's
                # offsets runs along whole rows of bytes.
                bits = np.packbits(padded[run.distinct[:, None] + flat[cells]], axis=1)
                anyhit = np.bitwise_or.reduceat(bits[run.rows], run.starts, axis=0)
                hit[run.filled] = np.unpackbits(anyhit, axis=1, count=len(cells)).view(bool)
            if run.ties.size:
                looked = sample_values(raster, *run.tie_points(xc[cells], yc[cells]))
                hit[run.ties[tie_starts]] |= np.logical_or.reduceat(looked, tie_starts, axis=0)
            missed = ~hit.all(axis=0)
            out[cells[missed]] = run.first + hit.argmin(axis=0)[missed]
        live = live[out[live] == n_scales]
        if not live.size:
            break
    return out


def _certificate(
    params: CurveParams, cutoff: Cutoff, xc: float, yc: float, j: int, ts: np.ndarray,
    hits: np.ndarray,
) -> BeamCertificate:
    """The certificate of block j at (xc, yc), from the working system's hits.

    hits[k, i] tells whether node i's sample at scale ts[k] lies in the set;
    each scale's witness is its first such node.
    """
    first = hits.argmax(axis=1)
    u, v = ts * cutoff.nodes[first], ts * cutoff.node_powers[first]
    point = (float(xc), float(yc))
    if params.requires_swap:
        point, u, v = point[::-1], v, u
    t = ts.tolist()
    c, b = t[0], t[-1]
    beta = params.beta
    ends = sorted((param_from_scale(b, beta), param_from_scale(c, beta)))
    return BeamCertificate(
        beta=beta,
        eta=params.eta,
        theta=params.theta,
        point=point,
        j=j,
        t_interval=(c, b),
        a_interval=(ends[0], ends[1]),
        t=tuple(t),
        u=tuple(u.tolist()),
        hit_x=tuple((point[0] + u).tolist()),
        hit_y=tuple((point[1] + v).tolist()),
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
    raster, cutoff = _working_system(a, params, sampling)
    # Before the scan: the deepest block's coefficients, the largest for beta > 1, are floats.
    for t in ladder.block(ladder.depth):
        param_from_scale(t, params.beta)
    grid = raster.grid
    b_last = ladder.block(ladder.depth)[0]
    check_arc_resolution(grid, cutoff.params.theta, b_last, f"finest ladder block (b_J={b_last:g})")
    cells = _scan_cells(raster, sampling)
    padded, width = _padded(raster, ladder.block(1)[0], cutoff)

    # Batches double from one cell, so an early certificate costs little; a
    # later block only sees the cells before the batch's first certified one.
    blocks: dict[int, tuple[np.ndarray, tuple[_Block, ...]]] = {}
    xs, ys = np.empty(len(cells)), np.empty(len(cells))
    t_cols = np.empty((ladder.depth, len(cells)))
    done = 0
    for flat, xc, yc in _batches(cells, grid, width):
        limit, cert_j = len(flat), 0
        for j in range(1, ladder.depth + 1):
            if limit == 0:
                break
            if j not in blocks:
                blocks[j] = _block(grid, cutoff, ladder, j, sampling.min_per_octave, width)
            ts, runs = blocks[j]
            miss = _first_misses(runs, padded, flat[:limit], xc[:limit], yc[:limit], raster)
            passed = miss == len(ts)
            if passed.any():
                limit, cert_j = int(passed.argmax()), j
            t_cols[j - 1, done : done + limit] = ts[miss[:limit]]
        if cert_j:
            ts = blocks[cert_j][0]
            hits = sample_values(raster, *sample_points(cutoff, ts, (xc[limit], yc[limit])))
            return _certificate(params, cutoff, xc[limit], yc[limit], cert_j, ts, hits)
        xs[done : done + len(flat)], ys[done : done + len(flat)] = xc, yc
        done += len(flat)
    if params.requires_swap:
        xs, ys = ys, xs
    t = tuple(map(tuple, t_cols.tolist()))
    return ExhaustionReport(ladder, tuple(xs.tolist()), tuple(ys.tolist()), t, len(cells))


def block_hypothesis_holds(
    a: RasterSet, ladder: ScaleLadder, j: int, cutoff: Cutoff, min_per_octave: int = 16
) -> bool:
    """True iff every set cell has a scale of block j whose arc misses the set.

    The arcs are the cutoff's own (no coordinate swap), sampled on the scale
    grid of ``t_grid`` for the block, and read by the sampling rule of
    ``kernel.cell_shifts``.  Stops at the first batch of cells that holds a
    cell with a witness at every scale.
    """
    padded, width = _padded(a, ladder.block(j)[0], cutoff)
    ts, runs = _block(a.grid, cutoff, ladder, j, min_per_octave, width)
    return all(
        (_first_misses(runs, padded, flat, xc, yc, a) < len(ts)).all()
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
    """Re-check a certificate against the raster, exactly.

    Each sample is derived again: its scale is the t_grid's, its offset and
    hit one node's arc sample from the point (swapped for beta < 1 as
    ``prospect`` swaps), and its hit lies in the set.  The scale interval
    must be block j's and is re-scanned on a grid `refinement` times finer;
    the coefficient interval is derived again.  Each discrepancy is reported
    with the offending sample or scale.
    """
    if not refinement >= 1:
        raise ValueError(f"need refinement >= 1, got {refinement}")
    failures = []
    # The certificate's parameters are checked as prospect checks its own.
    params = CurveParams(cert.beta, cert.eta, cert.theta)
    raster, cutoff = _working_system(a, params, sampling)
    px, py = cert.point[::-1] if params.requires_swap else cert.point
    c, b = cert.t_interval
    ts_std = t_grid(c, b, raster.grid.h, support_radius(cutoff.params), sampling.min_per_octave)

    # Every node's sample at each claimed scale, in the caller's system; a
    # forged scale may overflow, which the scale check reports.
    t, u, hx, hy = np.array([cert.t, cert.u, cert.hit_x, cert.hit_y], dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        xs, ys = sample_points(cutoff, t, (px, py))
        us = t[:, None] * (cutoff.node_powers if params.requires_swap else cutoff.nodes)
    if params.requires_swap:
        xs, ys = ys, xs
    claimed = np.stack([u, hx, hy], axis=1)[:, :, None]
    is_sample = (np.stack([us, xs, ys], axis=1) == claimed).all(axis=1).any(axis=1)
    m = min(len(t), len(ts_std))
    checks = (t[:m] == ts_std[:m], sample_values(a, hx[:m], hy[:m]), is_sample[:m])
    # Each failing sample is named by its first failing check.
    for k in np.flatnonzero(~np.logical_and.reduce(checks)).tolist():
        tk, uk, hit = cert.t[k], cert.u[k], f"({cert.hit_x[k]:.17g}, {cert.hit_y[k]:.17g})"
        if not checks[0][k]:
            failures.append(f"sample {k}: scale {tk!r} is not scale {k} of the t_grid on [c, b]")
        elif not checks[1][k]:
            failures.append(f"sample {k}: claimed hit {hit} is not in the set")
        else:
            failures.append(f"sample {k}: offset {uk!r} and hit {hit} are not "
                            f"one node's sample at scale {tk!r}")
    if len(t) != len(ts_std):
        failures.append(f"{len(t)} samples for the {len(ts_std)} scales of the t_grid on [c, b]")

    n_fine = (len(ts_std) - 1) * int(refinement) + 1
    ts_fine = np.geomspace(c, b, n_fine) if n_fine > 1 else np.array([c])
    ok_t = sample_values(raster, *sample_points(cutoff, ts_fine, (px, py))).any(axis=1)
    if not ok_t.all():
        t_bad = float(ts_fine[int(ok_t.argmin())])
        failures.append(f"refined scan: no witness at scale t = {t_bad:.17g}")

    ends = sorted((param_from_scale(b, cert.beta), param_from_scale(c, cert.beta)))
    for want, got, name in zip(ends, cert.a_interval, ("low", "high")):
        if want != got:
            failures.append(f"coefficient interval {name} end {got!r} != derived {want!r}")
    j = cert.j
    if not (1 <= j <= ScaleLadder.MAX_DEPTH and cert.t_interval == ScaleLadder(j).block(j)[::-1]):
        failures.append(f"t_interval {cert.t_interval!r} is not (c_j, b_j) of block j = {j!r}")

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
