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

from .raster import RasterSet, sample_values

__all__ = [
    "AdmissibilityVerdict",
    "CurveParams",
    "Cutoff",
    "arc_hits_set",
    "build_cutoff",
    "cell_shifts",
    "curve_average",
    "param_from_scale",
    "scale_from_param",
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
        if not (0 < self.eta < self.theta):
            raise ValueError(f"need 0 < eta < theta, got eta={self.eta}, theta={self.theta}")

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
    value = r**p.beta - p.beta * r
    slack = (p.beta - 1.0) - value
    if slack <= 0:
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
    return _pow_dyadic_aware(t, 1.0 - beta)


def scale_from_param(a: float, beta: float) -> float:
    """Inverse of param_from_scale: t = a^(1/(1-beta))."""
    if beta == 1.0:
        raise ValueError("linear case excluded: beta = 1")
    if not a > 0:
        raise ValueError(f"coefficient must be positive, got {a}")
    return _pow_dyadic_aware(a, 1.0 / (1.0 - beta))


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
    """Quadrature nodes and unit-mass weights for the arc cutoff."""

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
        if np.any(weights < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(nodes <= 0):
            raise ValueError("nodes must be positive: the arc lies in u > 0")
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


def _sample_points(cutoff: Cutoff, t: float, pt) -> tuple[np.ndarray, np.ndarray]:
    x, y = float(pt[0]), float(pt[1])
    return x + t * cutoff.nodes, y + t * cutoff.node_powers


def curve_average(f, t: float, pt, cutoff: Cutoff) -> float:
    """Average of f over the t-dilated reflected arc pinned at pt.

    Equals sum_i w_i * f(x + t*u_i, y + t*u_i^beta); samples outside the
    window of f read as 0.
    """
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    xs, ys = _sample_points(cutoff, t, pt)
    vals = sample_values(f, xs, ys)
    return float(np.dot(cutoff.weights, vals))


def arc_hits_set(a: RasterSet, pt, t: float, cutoff: Cutoff) -> np.ndarray:
    """All quadrature offsets u = t*u_i whose sample point lies in the set.

    Nonempty exactly when curve_average(indicator, t, pt) > 0; every witness
    satisfies eta*t < u < theta*t.
    """
    if not t > 0:
        raise ValueError(f"scale must be positive, got {t}")
    xs, ys = _sample_points(cutoff, t, pt)
    vals = sample_values(a, xs, ys)
    return t * cutoff.nodes[vals > 0]


def cell_shifts(cutoff: Cutoff, ts: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """1/2 + (t/h) * u and 1/2 + (t/h) * u^beta over (scale, node).

    Their floors are the whole-cell shifts of each arc sample from a cell
    centre; the one rounding rule that the field engine and the ladder scan
    share.
    """
    tk = (np.asarray(ts, dtype=np.float64) / h)[:, None]
    return 0.5 + tk * cutoff.nodes, 0.5 + tk * cutoff.node_powers


def t_grid(c: float, b: float, h: float, radius: float, min_per_octave: int = 16) -> np.ndarray:
    """Geometric scale grid on [c, b] fine enough that consecutive arcs
    displace by at most half a cell, with at least `min_per_octave` samples
    per dyadic octave."""
    if not (0 < c <= b):
        raise ValueError(f"need 0 < c <= b, got c={c}, b={b}")
    if c == b:
        return np.array([c])
    ratio_cap = 1.0 + h / (2.0 * b * radius)
    n_disp = math.ceil(math.log(b / c) / math.log(ratio_cap))
    n_oct = math.ceil(min_per_octave * math.log2(b / c))
    n = max(n_disp, n_oct, 1) + 1
    return np.geomspace(c, b, n)
