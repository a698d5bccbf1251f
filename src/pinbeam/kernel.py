"""Normalized measures on power-curve arcs and their averaging operators.

The basic object is a unit-mass quadrature for a smooth cutoff supported on
the arc ``{(u, u^beta) : eta <= u <= theta}``.  Dilating by ``t`` and
reflecting turns it into an averaging operator: the value at a pinned point
``(x, y)`` is the weighted average of the input over the sample points
``(x + t*u_i, y + t*u_i^beta)``, which all lie on the curve ``v = a u^beta``
with coefficient ``a = t^(1-beta)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .raster import GridSpec, RasterSet, sample_values

__all__ = [
    "AdmissibilityVerdict",
    "CurveParams",
    "Cutoff",
    "arc_hits_set",
    "build_cutoff",
    "cell_shifts",
    "curve_average",
    "param_from_scale",
    "sample_points",
    "support_radius",
    "t_grid",
    "validate_params",
]


@dataclass(frozen=True)
class CurveParams:
    """Power-curve family v = a u^beta with arc support bounds eta < theta.

    For beta < 1 the instance stores the pre-swap values; computations route
    through the axis-swapped system ``swapped()`` whose exponent exceeds 1.
    """

    beta: float
    eta: float
    theta: float

    def __post_init__(self):
        if not (self.beta > 0 and math.isfinite(self.beta)):
            raise ValueError(f"beta must be positive, got {self.beta}")
        if self.beta == 1.0:
            raise ValueError("linear case excluded: beta = 1 admits no nontrivial beam")
        if not (0 < self.eta < self.theta < math.inf):
            raise ValueError(f"need 0 < eta < theta < inf, got eta={self.eta}, theta={self.theta}")

    @property
    def requires_swap(self) -> bool:
        return self.beta < 1.0

    def swapped(self) -> "CurveParams":
        """Parameters of the coordinate-swapped system.

        Swapping axes turns a beta-curve with witness range (eta*t, theta*t)
        into a (1/beta)-curve whose support bounds are eta^beta, theta^beta.
        """
        b = 1.0 / self.beta
        return CurveParams(b, self.eta**self.beta, self.theta**self.beta)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    ok: bool
    slack: float
    reason: str = ""


def validate_params(p: CurveParams) -> AdmissibilityVerdict:
    """Check the tangent-closure admissibility condition.

    For beta > 1 the arc extends to the boundary of a convex body iff
    (theta/eta)^beta - beta*(theta/eta) < beta - 1.  The verdict's slack is
    the margin by which the inequality holds (negative on rejection).
    For beta < 1 the swapped system is validated.
    """
    if p.beta < 1.0:
        inner = validate_params(p.swapped())
        reason = inner.reason or "validated via axis-swapped system"
        return AdmissibilityVerdict(inner.ok, inner.slack, reason)
    r = p.theta / p.eta
    try:
        value = r**p.beta - p.beta * r
        support_radius(p)
    except OverflowError:
        return AdmissibilityVerdict(False, -math.inf, "the arc's reach overflows a float")
    slack = (p.beta - 1.0) - value
    if not slack > 0:
        return AdmissibilityVerdict(
            False, slack, f"(theta/eta)^beta - beta*(theta/eta) = {value:.6g} >= beta - 1"
        )
    return AdmissibilityVerdict(True, slack)


def support_radius(p: CurveParams) -> float:
    """Farthest support point of the unit-scale arc from the pinned point."""
    return math.sqrt(p.theta**2 + p.theta ** (2 * p.beta))


def _pow_dyadic_aware(x: float, e: float) -> float:
    """x**e, exact when x is a power of two and the result exponent is integral."""
    m, ex = math.frexp(x)
    if m == 0.5:
        k = (ex - 1) * e
        if k == int(k):
            return math.ldexp(1.0, int(k))
    return x**e


def param_from_scale(t: float, beta: float) -> float:
    """Curve coefficient a = t^(1-beta) selected by the dilation scale t."""
    if beta == 1.0:
        raise ValueError("linear case excluded: beta = 1")
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    try:
        return _pow_dyadic_aware(t, 1.0 - beta)
    except OverflowError:
        raise ValueError(f"coefficient a = t^(1-beta) overflows a float at t = {t:g}, "
                         f"beta = {beta:g}") from None


# ---------------------------------------------------------------------------
# Cutoff: smooth plateau bump on [eta, theta], discretized by the midpoint
# rule and normalized to unit mass.
# ---------------------------------------------------------------------------


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1, exp(-1/x)-type ramps."""
    x = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(x)
    out[x >= 1.0] = 1.0
    mid = (x > 0.0) & (x < 1.0)
    xm = x[mid]
    e0 = np.exp(-1.0 / xm)
    e1 = np.exp(-1.0 / (1.0 - xm))
    out[mid] = e0 / (e0 + e1)
    return out


def plateau_bump(u: np.ndarray, eta: float, theta: float, plateau_frac: float) -> np.ndarray:
    """Smooth bump: 1 on the centered plateau, 0 outside (eta, theta)."""
    ramp = 0.5 * (1.0 - plateau_frac) * (theta - eta)
    left = _smooth_step((np.asarray(u) - eta) / ramp)
    right = _smooth_step((theta - np.asarray(u)) / ramp)
    return left * right


@dataclass(frozen=True)
class Cutoff:
    """Quadrature nodes and positive, unit-mass weights for the arc cutoff."""

    params: CurveParams
    nodes: np.ndarray
    weights: np.ndarray
    plateau_frac: float
    node_powers: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=np.float64, order="C")
        weights = np.array(self.weights, dtype=np.float64, order="C")
        if nodes.shape != weights.shape or nodes.ndim != 1 or nodes.size == 0:
            raise ValueError("nodes and weights must be matching nonempty 1-d arrays")
        if not np.all(weights > 0):
            raise ValueError(
                "weights must be positive: a zero-weight node's sample would count as a "
                "witness in arc_hits_set while adding nothing to curve_average"
            )
        if np.any(nodes <= 0):
            raise ValueError("nodes must be positive: the arc lies in u > 0")
        if np.any(np.diff(nodes) <= 0):
            raise ValueError("nodes must ascend: equal cell shifts are grouped as runs of nodes")
        powers = nodes ** self.params.beta
        for arr in (nodes, weights, powers):
            arr.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "node_powers", powers)

    @property
    def node_count(self) -> int:
        return int(self.nodes.size)


def build_cutoff(p: CurveParams, nodes: int = 128, plateau_frac: float = 0.5) -> Cutoff:
    """Midpoint-rule discretization of the plateau bump, normalized to mass 1.

    Nodes whose bump value underflows to zero are dropped so that every
    retained weight is strictly positive; this keeps "some witness exists"
    equivalent to "the average is positive".
    """
    if nodes < 8:
        raise ValueError(f"need at least 8 nodes, got {nodes}")
    if not (0.0 < plateau_frac < 1.0):
        raise ValueError(f"plateau fraction must be in (0, 1), got {plateau_frac}")
    du = (p.theta - p.eta) / nodes
    u = p.eta + (np.arange(nodes) + 0.5) * du
    w = plateau_bump(u, p.eta, p.theta, plateau_frac) * du
    keep = w > 0.0
    u, w = u[keep], w[keep]
    w = w / w.sum()
    return Cutoff(p, u, w, plateau_frac)


# ---------------------------------------------------------------------------
# Averages along dilated arcs.
# ---------------------------------------------------------------------------


def sample_points(cutoff: Cutoff, t, pt) -> tuple[np.ndarray, np.ndarray]:
    """Arc samples (x + t u_i, y + t u_i^beta) at scale t pinned at pt = (x, y).

    t, x and y broadcast together; the nodes run along a new last axis.
    """
    t = np.asarray(t, dtype=np.float64)[..., None]
    x, y = (np.asarray(c, dtype=np.float64)[..., None] for c in pt)
    return x + t * cutoff.nodes, y + t * cutoff.node_powers


def curve_average(f, t: float, pt, cutoff: Cutoff) -> float:
    """Average of f over the t-dilated reflected arc pinned at pt.

    Equals sum_i w_i * f(x + t*u_i, y + t*u_i^beta); samples outside the
    window of f read as 0.
    """
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    vals = sample_values(f, *sample_points(cutoff, t, pt))
    return float(np.dot(cutoff.weights, vals))


def arc_hits_set(a: RasterSet, pt, t: float, cutoff: Cutoff) -> np.ndarray:
    """All quadrature offsets u = t*u_i whose sample point lies in the set.

    Nonempty exactly when curve_average(indicator, t, pt) > 0; every witness
    satisfies eta*t < u < theta*t.
    """
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    return t * cutoff.nodes[sample_values(a, *sample_points(cutoff, t, pt))]


def cell_shifts(cutoff: Cutoff, ts: np.ndarray, grid: GridSpec):
    """Where each arc sample falls on the raster, over (scale, node): the sampling rule.

    From the centre of cell (ix, iy), the sample at offset (t u, t u^beta)
    lies in cell (ix + sx, iy + sy), (sx, sy) = floor(1/2 + (t / h) (u, u^beta)),
    and inside the window iff ix + sx < n and iy + sy < n, as
    ``raster.cells_of_points`` reads it, except at a tie sample: one whose
    1/2 + (t / h) u or 1/2 + (t / h) u^beta lies within rounding distance of
    an integer (a sample on or next to a cell edge, the window's far edge
    among them).  The ladder scan, the block-hypothesis check and the arc
    carving look tie samples up by point and read every other sample by its
    shift, at the same scale too; the field engine, which serves only float
    fields, takes the shifts as they are, so it reads a far-edge sample as 0.

    Shifts are nonnegative (t, u > 0), and a scale's equal shifts are runs of
    adjacent nodes (nodes and their powers ascend).  Returns int64 ``sx``,
    ``sy`` of shape (scales, nodes), bool ``starts`` of that shape marking
    each run's first node, and bool ``ties`` of that shape marking the tie
    samples.  A run may hold tie and non-tie nodes alike; its first non-tie
    node starts it or follows a tie, so a reader that skips the ties keeps a
    shift of every run with a non-tie node by ``(starts | tie of the previous
    node) & ~ties``, with no sort.
    """
    h = grid.h
    ts = np.asarray(ts, dtype=np.float64)
    tk = (ts / h)[:, None]
    # Bound, in cells, on the gap between floor(1/2 + (t / h) u) and the float
    # lookup floor((x0 + (ix + 1/2) h + t u - x0) / h) - ix, and likewise in
    # y; it also covers the few ulps between (t / h) u and (t u) / h.
    x0, y0 = grid.origin
    reach = ts.max(initial=0.0) * max(cutoff.nodes.max(), cutoff.node_powers.max())
    margin = 8.0 * np.finfo(np.float64).eps * (abs(x0) + abs(y0) + grid.side + reach) / h
    ties = np.zeros((len(ts), cutoff.node_count), dtype=bool)
    shifts = []
    for f in (0.5 + tk * cutoff.nodes, 0.5 + tk * cutoff.node_powers):
        s = np.floor(f)
        f -= s
        f -= 0.5
        ties |= np.abs(f, out=f) >= 0.5 - margin
        shifts.append(s.astype(np.int64))
    sx, sy = shifts
    starts = np.ones(sx.shape, dtype=bool)
    starts[:, 1:] = (sx[:, 1:] != sx[:, :-1]) | (sy[:, 1:] != sy[:, :-1])
    return sx, sy, starts, ties


def t_grid(c: float, b: float, h: float, radius: float, min_per_octave: int = 16) -> np.ndarray:
    """Geometric scale grid on [c, b] fine enough that consecutive arcs
    displace by at most half a cell, with at least `min_per_octave` samples
    per dyadic octave."""
    if not (0 < c <= b < math.inf):
        raise ValueError(f"need 0 < c <= b < inf, got c={c}, b={b}")
    if min_per_octave < 1:
        raise ValueError(f"need min_per_octave >= 1, got {min_per_octave}")
    if c == b:
        return np.array([c])
    ratio_cap = 1.0 + h / (2.0 * b * radius)
    if ratio_cap == 1.0:
        raise ValueError(f"scale step ratio rounds to 1 at b={b}, h={h}")
    n_disp = math.ceil(math.log(b / c) / math.log(ratio_cap))
    n_oct = math.ceil(min_per_octave * math.log2(b / c))
    n = max(n_disp, n_oct, 1) + 1
    return np.geomspace(c, b, n)
