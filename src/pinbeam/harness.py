"""Numerical evaluation of the scale-block decomposition and its inequalities.

Given a set A with indicator f and complement g on the unit window, the
supremum over a scale block of the curve average of g splits into four
maximal terms plus a smoothed tail:

    sup_t (avg_t g) <= sup_t |avg_t (g - E_k g)|
                     + sup_t |avg_t (E_k g - P_lo g)|
                     + sup_t |avg_t (P_lo g - P_hi g)|
                     + sup_t |avg_t (P_hi g) - P_hi g|
                     + P_hi g,

pointwise, with E_k the martingale average at the block's fine smoothing
scale rho*c_j and P_lo, P_hi the Poisson smoothings at rho*c_j and b_j/rho.
Pairing each side against f gives hard, tolerance-checkable inequalities;
constants the analysis leaves ineffective are reported as empirical ratios
instead of asserted.

Two fields of a block repeat by construction: lhs does not depend on rho,
and term 4 is the small-t deviation field D(rho).  ``_block_field`` builds
them and ``block_fields`` keeps them, keyed by what they are computed from
(the raster's grid and bitmap, the cutoff, the block, min_per_octave, and
rho or None for lhs); its 4 entries hold lhs and D for three values of rho.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .cache import LRUCache
from .fields import extremal_conv_field
from .kernel import Cutoff, CurveParams, support_radius
from .prospect import (
    ResolutionError,
    ScaleLadder,
    block_hypothesis_holds,
    check_arc_resolution,
    dyadic_round_down,
    is_dyadic,
)
from .raster import RasterSet, ScalarField, complement_in_window, measure
from .smoothing import lp_norm, martingale_average, poisson_smooth_multi

__all__ = [
    "DecompositionReport",
    "HarnessConstants",
    "SmallTReport",
    "SqSumReport",
    "compute_decomposition",
    "compute_j0",
    "compute_sq_sums",
    "check_smallt_scaling",
    "decay_sweep",
    "empirical_decay",
    "pairing",
]


@dataclass(frozen=True)
class HarnessConstants:
    """Concrete stand-ins for the ineffective constants of the analysis.

    tau is the boundary-margin allowance, rho the dyadic smoothing split, p
    the square sums' exponent; alpha and c0 enter only ``for_density``.
    """

    tau: float
    rho: float
    p: float = 3.0

    def __post_init__(self):
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not is_dyadic(self.rho):
            raise ValueError(f"rho must be a power of two, got {self.rho}")
        if not 2 < self.p < math.inf:
            raise ValueError(f"need finite p > 2, got {self.p}")

    @classmethod
    def for_density(cls, delta: float, p: float = 3.0, alpha: float = 0.1,
                    c0: float = 0.25, tau: float | None = None,
                    rho: float | None = None) -> "HarnessConstants":
        """Default rules: tau = c0*delta^2/8, rho = largest dyadic below
        min(delta^(2/alpha), delta^2)/8."""
        if not (0 < delta <= 1):
            raise ValueError(f"need 0 < delta <= 1, got {delta}")
        if not alpha > 0:
            raise ValueError(f"need alpha > 0, got {alpha}")
        if tau is None:
            tau = c0 * delta * delta / 8.0
        if rho is None:
            rho = dyadic_round_down(min(delta ** (2.0 / alpha), delta * delta) / 8.0)
        return cls(tau=tau, rho=rho, p=p)


block_fields = LRUCache(4)


def _block_field(a: RasterSet, cutoff: Cutoff, interval, min_per_octave, rho, q: np.ndarray):
    """lhs (rho None, q = g: "max" of avg q) or D(rho) (q = P_{b_j/rho} g: "absmax"
    of avg q - q), built once per key and shared uncopied, as it is read-only."""
    key = (a.grid, hashlib.blake2b(a.bitmap.tobytes(), digest_size=16).digest(),
           cutoff.params, cutoff.nodes.tobytes(), cutoff.weights.tobytes(),
           interval, min_per_octave, rho)
    mode, base = ("max", None) if rho is None else ("absmax", q)
    return block_fields.get(key, lambda: _field(a.grid, extremal_conv_field(
        q, a.grid, cutoff, interval, mode, base=base, min_per_octave=min_per_octave)))


def _block_arcs(grid, params: CurveParams, j: int, b: float) -> tuple[int, int]:
    """Cells (mx, my) that block j's arcs reach in x and y; refuses arcs below
    a cell or spanning the whole window.

    Arcs of reach r span the window at resolution N while ceil(r N / side)
    + 1 >= N, so a resolution that resolves them exists iff r < side; the
    advice names the least one, a power of two as every resolution is.
    """
    check_arc_resolution(grid, params.theta, b, f"block {j}")
    mx = math.ceil(params.theta * b / grid.h) + 1
    my = math.ceil(params.theta ** params.beta * b / grid.h) + 1
    if max(mx, my) < grid.n:
        return mx, my
    reach = max(params.theta, params.theta ** params.beta) * b
    if not reach < grid.side:
        raise ValueError(f"block {j} arcs reach {reach:g}, not below the window side "
                         f"{grid.side:g}: no resolution resolves block {j}")
    n_min = 2 * grid.n
    while math.ceil(reach / (grid.side / n_min)) + 1 >= n_min:
        n_min *= 2
    raise ResolutionError(f"block {j} arcs span the whole window at resolution {grid.n}", n_min)


def _field(grid, values: np.ndarray) -> ScalarField:
    """Wrap a fresh array read-only, which ScalarField keeps uncopied."""
    values.setflags(write=False)
    return ScalarField(grid, values)


def pairing(a: RasterSet, field: ScalarField) -> float:
    """Integral of the field against the set indicator: h^2 * sum over set cells."""
    if a.grid != field.grid:
        raise ValueError("raster and field grids are incompatible")
    h = a.grid.h
    return float(field.values[a.bitmap].sum()) * (h * h)


def compute_j0(tau: float, params: CurveParams) -> int:
    """Smallest block index past which whole arcs stay within a tau margin.

    Uses the support radius D = sqrt(theta^2 + theta^(2 beta)) of the
    unit-scale arc: the smallest integer with 2^(-2 J0) * D < tau, so for
    j > J0 and t <= b_j every arc sample from a point of [tau, 1-tau]^2
    stays inside the unit window.
    """
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    d = support_radius(params)
    k = 0
    while 2.0 ** (-2 * k) * d >= tau:
        k += 1
    return k


def _block_scales(grid, ladder: ScaleLadder, j: int, rho: float):
    b, c = ladder.block(j)
    s_lo, s_hi = rho * c, b / rho
    if s_lo < grid.h:
        n_min = 2 ** math.ceil(math.log2(grid.side / s_lo))
        raise ResolutionError(
            f"smoothing scale rho*c_j = {s_lo:g} is below cell size {grid.h:g}", n_min
        )
    return b, c, s_lo, s_hi, round(-math.log2(s_lo)), 2 * j  # k_j; d_j = -log2(c_j)


@dataclass(frozen=True)
class DecompositionReport:
    j: int
    k_j: int
    d_j: int
    rho: float
    tau: float
    integral_f: float
    lhs: float
    term1: float
    term2: float
    term3: float
    term4: float
    tail: float
    taubelow_bound: float
    triangle_ok: bool
    triangle_slack: float
    hypothesis_holds: bool | None = None
    taubelow_ok: bool | None = None

    @property
    def terms_total(self) -> float:
        return self.term1 + self.term2 + self.term3 + self.term4 + self.tail


TRIANGLE_TOL = 1e-9
TAUBELOW_TOL = 1e-9


def compute_decomposition(
    a: RasterSet,
    j: int,
    ladder: ScaleLadder,
    cutoff: Cutoff,
    constants: HarnessConstants,
    min_per_octave: int = 16,
    check_hypothesis: bool = False,
) -> DecompositionReport:
    """Evaluate the five-term block decomposition paired against the set.

    All suprema run over the same scale grid of [c_j, b_j], so the triangle
    inequality lhs <= terms + tail is an arithmetic consequence rather than
    an analytic estimate; its violation beyond 1e-9 indicates a bug.  With
    check_hypothesis=True the report also tests whether every set point has
    a scale in the block whose arc misses the set entirely, in which case
    (for j > J0) lhs must reach integral_f - 4 tau.  The ladder scan answers
    that test on the same scale grid (``prospect.block_hypothesis_holds``).
    """
    grid = a.grid
    b, c, s_lo, s_hi, k_j, d_j = _block_scales(grid, ladder, j, constants.rho)
    j0 = compute_j0(constants.tau, cutoff.params)
    if j <= j0:
        raise ValueError(f"block index {j} must exceed J0 = {j0} for tau = {constants.tau:g}")

    g = complement_in_window(a)
    f_int = measure(a)
    eg = martingale_average(g, k_j)
    p_lo, p_hi = poisson_smooth_multi(g, [s_lo, s_hi])

    interval = (c, b)

    def sup(q):
        return _field(grid, extremal_conv_field(q, grid, cutoff, interval, "absmax",
                                                min_per_octave=min_per_octave))

    lhs_field = _block_field(a, cutoff, interval, min_per_octave, None, g.values)
    t1 = sup(g.values - eg.values)
    t2 = sup(eg.values - p_lo.values)
    t3 = sup(p_lo.values - p_hi.values)
    t4 = _block_field(a, cutoff, interval, min_per_octave, constants.rho, p_hi.values)

    lhs, *terms = (pairing(a, f) for f in (lhs_field, t1, t2, t3, t4))
    tail = pairing(a, p_hi)

    total = sum(terms) + tail
    slack = total - lhs
    bound = f_int - 4.0 * constants.tau

    hypothesis = None
    tb_ok = None
    if check_hypothesis:
        hypothesis = block_hypothesis_holds(a, ladder, j, cutoff, min_per_octave)
        tb_ok = (not hypothesis) or lhs >= bound - TAUBELOW_TOL

    return DecompositionReport(
        j=j, k_j=k_j, d_j=d_j, rho=constants.rho, tau=constants.tau,
        integral_f=f_int, lhs=lhs,
        term1=terms[0], term2=terms[1], term3=terms[2], term4=terms[3],
        tail=tail, taubelow_bound=bound,
        triangle_ok=slack >= -TRIANGLE_TOL, triangle_slack=slack,
        hypothesis_holds=hypothesis, taubelow_ok=tb_ok,
    )


@dataclass(frozen=True)
class SmallTReport:
    j: int
    rows: tuple[tuple[float, float, float], ...]  # (rho, s_value, s_value / rho)

    @property
    def ratio_spread(self) -> float:
        """Max over min of s(rho)/rho across the list (inf if any ratio is 0)."""
        ratios = [r for _, _, r in self.rows]
        lo = min(ratios)
        hi = max(ratios)
        if lo <= 0:
            return math.inf if hi > 0 else 1.0
        return hi / lo


def check_smallt_scaling(
    a: RasterSet,
    j: int,
    ladder: ScaleLadder,
    rho_list,
    cutoff: Cutoff,
    min_per_octave: int = 16,
) -> SmallTReport:
    """Deviation of curve averages of a heavily smoothed field from itself.

    For each rho computes s(rho) = max over cells and block scales of
    |avg_t(P_{b_j/rho} g) - P_{b_j/rho} g| and reports s(rho)/rho; linear
    scaling in rho shows as a flat ratio column.

    The max runs over cells whose arcs stay inside the window at every block
    scale; at cells nearer the top/right edges the average reads the zero
    extension instead of the smoothed field's off-window tail, which measures
    the window crop rather than the operator.
    """
    grid = a.grid
    g = complement_in_window(a)
    b, c = ladder.block(j)
    mx, my = _block_arcs(grid, cutoff.params, j, b)
    rows = []
    for rho in rho_list:
        if not is_dyadic(rho):
            raise ValueError(f"rho must be a power of two, got {rho}")
        (p_hi,) = poisson_smooth_multi(g, [b / rho])
        dev = _block_field(a, cutoff, (c, b), min_per_octave, rho, p_hi.values).values
        s_val = float(dev[: grid.n - my, : grid.n - mx].max())
        rows.append((float(rho), s_val, s_val / rho))
    return SmallTReport(j=j, rows=tuple(rows))


@dataclass(frozen=True)
class SqSumReport:
    rho: float
    j_range: tuple[int, int]  # (j0 + 1, j_hi) inclusive
    sum_poisson: float
    sum_martingale: float
    per_j_poisson: tuple[float, ...]
    per_j_martingale: tuple[float, ...]
    selected_j: int
    pigeonhole_threshold: float
    k_poisson: float
    k_martingale: float


def compute_sq_sums(
    a: RasterSet,
    ladder: ScaleLadder,
    j0: int,
    j_hi: int,
    constants: HarnessConstants,
) -> SqSumReport:
    """Block sums of p-th powers of smoothing differences, with pigeonhole.

    Computes sum_j ||P_{b_j/rho} g - P_{rho c_j} g||_p^p and
    sum_j ||P_{rho c_j} g - E_{k_j} g||_p^p over j in (j0, j_hi], the
    empirical constants normalizing them, and an index j whose two summands
    are both at most 2 * max(sums) / (j_hi - j0) — an averaging consequence.
    """
    if not j0 < j_hi <= ladder.depth:
        raise ValueError(f"need j0 < j_hi <= ladder depth, got {j0}, {j_hi}, {ladder.depth}")
    grid = a.grid
    g = complement_in_window(a)
    p = constants.p
    rho = constants.rho
    # (s_lo, s_hi, k_j) per block; one call transforms g for every block's scales
    blocks = [_block_scales(grid, ladder, j, rho)[2:5] for j in range(j0 + 1, j_hi + 1)]
    smooth = poisson_smooth_multi(g, [s for s_lo, s_hi, _ in blocks for s in (s_lo, s_hi)])
    s1, s2 = [], []
    for (_, _, k_j), p_lo, p_hi in zip(blocks, smooth[::2], smooth[1::2]):
        eg = martingale_average(g, k_j)
        s1.append(lp_norm(_field(grid, p_hi.values - p_lo.values), p) ** p)
        s2.append(lp_norm(_field(grid, p_lo.values - eg.values), p) ** p)
    sum1, sum2 = sum(s1), sum(s2)
    thresh = 2.0 * max(sum1, sum2) / (j_hi - j0)
    selected = next(
        j for j, (v1, v2) in enumerate(zip(s1, s2), start=j0 + 1)
        if v1 <= thresh and v2 <= thresh
    )
    g_norm_p = lp_norm(g, p) ** p
    log_rho_inv = math.log2(1.0 / rho)
    k1 = sum1 / (log_rho_inv**p * g_norm_p) if g_norm_p > 0 and log_rho_inv > 0 else 0.0
    k2 = sum2 / g_norm_p if g_norm_p > 0 else 0.0
    return SqSumReport(
        rho=rho, j_range=(j0 + 1, j_hi), sum_poisson=sum1, sum_martingale=sum2,
        per_j_poisson=tuple(s1), per_j_martingale=tuple(s2),
        selected_j=selected, pigeonhole_threshold=thresh,
        k_poisson=k1, k_martingale=k2,
    )


def empirical_decay(
    h_field: ScalarField,
    i: int,
    n: int,
    p: float,
    cutoff: Cutoff,
    min_per_octave: int = 16,
) -> float:
    """Operator decay ratio on a mean-zero-at-level-i input.

    ||sup over t in [2^-n, 2^(-n+1)] of |avg_t h| ||_p / ||h||_p, for h with
    E_i h = 0 and n <= i.  The analysis bounds this by a constant times
    2^(-alpha (i - n)); the artifact only measures it.
    """
    if n > i:
        raise ValueError(f"need n <= i, got n={n}, i={i}")
    if n < 1:
        raise ValueError(f"need n >= 1 so scales stay below 1, got {n}")
    ei = martingale_average(h_field, i)
    h_scale = max(1.0, float(np.abs(h_field.values).max()))
    if float(np.abs(ei.values).max()) > 1e-9 * h_scale:
        raise ValueError("input must satisfy E_i h = 0; subtract the level-i average first")
    denom = lp_norm(h_field, p)
    if denom == 0.0:
        raise ValueError("undefined ratio: ||h||_p = 0")
    sup = extremal_conv_field(
        h_field.values, h_field.grid, cutoff, (2.0 ** (-n), 2.0 ** (-n + 1)),
        "absmax", min_per_octave=min_per_octave,
    )
    return lp_norm(_field(h_field.grid, sup), p) / denom


def decay_sweep(
    h_field: ScalarField,
    i: int,
    gaps,
    p: float,
    cutoff: Cutoff,
    min_per_octave: int = 16,
):
    """Ratios over gaps s = i - n plus the fitted decay exponent.

    Returns (rows, alpha) where rows are (gap, ratio) and alpha is minus the
    least-squares slope of log2(ratio) against the gap.
    """
    rows = []
    for s in gaps:
        ratio = empirical_decay(h_field, i, i - s, p, cutoff, min_per_octave)
        rows.append((int(s), ratio))
    xs = np.array([r[0] for r in rows], dtype=float)
    ys = np.log2(np.maximum([r[1] for r in rows], 1e-300))
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(rows) > 1 else 0.0
    return rows, -slope
