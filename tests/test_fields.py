"""Field-engine correctness against an independent per-cell reimplementation."""

import math
import sys

import numpy as np
import pytest

import pinbeam.fields as fields
from pinbeam import CurveParams, GridSpec, build_cutoff, support_radius
from pinbeam.fields import (
    _MODES,
    MODE_ABSMAX,
    MODE_MAX,
    MODE_MIN,
    _extremal_bands,
    extremal_conv_field,
    field_cache,
    shift_table,
)
from pinbeam.kernel import Cutoff, t_grid

P = CurveParams(2.0, 1.0, 2.4)


@pytest.fixture(autouse=True)
def empty_field_cache():
    """Every test starts with no stored field, so each call runs the engine."""
    field_cache.clear()


def brute_extremum(q, grid, cutoff, ts, mode, base=None):
    """Node-by-node recomputation of the cell-center extremum."""
    n = grid.n
    h = grid.h
    base = np.zeros((n, n)) if base is None else base
    out = np.empty((n, n))
    for r in range(n):
        for c in range(n):
            best = None
            for t in ts:
                acc = 0.0
                for u, up, w in zip(cutoff.nodes, cutoff.node_powers, cutoff.weights):
                    cc = c + math.floor(0.5 + t * u / h)
                    rr = r + math.floor(0.5 + t * up / h)
                    if 0 <= cc < n and 0 <= rr < n:
                        acc += w * q[rr, cc]
                v = acc - base[r, c]
                if mode == "absmax":
                    v = abs(v)
                if best is None:
                    best = v
                elif mode == "min":
                    best = min(best, v)
                else:
                    best = max(best, v)
            out[r, c] = best
    return out


@pytest.fixture(scope="module")
def small_case():
    n = 16
    grid = GridSpec(n)
    cutoff = build_cutoff(P, 16, 0.5)
    rng = np.random.default_rng(8)
    q = rng.random((n, n))
    interval = (0.0625, 0.125)
    ts = t_grid(*interval, grid.h, support_radius(P))
    return grid, cutoff, q, interval, ts


@pytest.mark.parametrize("mode", ["max", "absmax", "min"])
def test_engine_matches_brute_force(small_case, mode):
    grid, cutoff, q, interval, ts = small_case
    got = extremal_conv_field(q, grid, cutoff, interval, mode)
    want = brute_extremum(q, grid, cutoff, ts, mode)
    assert np.abs(got - want).max() < 1e-12


def test_engine_with_base_matches_brute_force(small_case):
    grid, cutoff, q, interval, ts = small_case
    base = np.full_like(q, 0.3)
    got = extremal_conv_field(q, grid, cutoff, interval, "absmax", base=base)
    want = brute_extremum(q, grid, cutoff, ts, "absmax", base=base)
    assert np.abs(got - want).max() < 1e-12


def reference_shift_table(cutoff, grid, ts):
    """Per-scale grouping: one np.unique and one bincount per scale."""
    h = grid.h
    dxs, dys, ws, tptr = [], [], [], [0]
    for t in ts:
        sx = np.floor(0.5 + (t / h) * cutoff.nodes).astype(np.int64)
        sy = np.floor(0.5 + (t / h) * cutoff.node_powers).astype(np.int64)
        uniq, inv = np.unique(np.stack([sx, sy], axis=1), axis=0, return_inverse=True)
        ws.append(np.bincount(inv.ravel(), weights=cutoff.weights, minlength=uniq.shape[0]))
        dxs.append(uniq[:, 0])
        dys.append(uniq[:, 1])
        tptr.append(tptr[-1] + uniq.shape[0])
    return np.concatenate(dxs), np.concatenate(dys), np.concatenate(ws), np.asarray(tptr)


def reference_extremal(q, dx, dy, w, tptr, base, mode, out):
    """Unpadded per-group accumulation: the summation order the engine must keep."""
    n = q.shape[0]
    acc = np.empty_like(q)
    for k in range(tptr.shape[0] - 1):
        acc[:] = 0.0
        for g in range(tptr[k], tptr[k + 1]):
            sx, sy, wg = int(dx[g]), int(dy[g]), w[g]
            if sy >= n or sx >= n or sy < -n or sx < -n:
                continue
            r0, r1 = max(0, -sy), min(n, n - sy)
            c0, c1 = max(0, -sx), min(n, n - sx)
            if r0 < r1 and c0 < c1:
                acc[r0:r1, c0:c1] += wg * q[r0 + sy : r1 + sy, c0 + sx : c1 + sx]
        val = acc - base
        if mode == MODE_ABSMAX:
            np.abs(val, out=val)
        if k == 0:
            out[:] = val
        elif mode == MODE_MIN:
            np.minimum(out, val, out=out)
        else:
            np.maximum(out, val, out=out)


def hand_table(n):
    """Three scales of shifts, negative ones and ones at n - 1, n and beyond
    included; the last scale has no group inside the window."""
    dx = np.array([-3, 0, 0, 2, n - 1, n, -(n - 1), 1, -n, 5, n + 4, -(n + 2)])
    dy = np.array([1, -2, 0, n - 1, 0, 3, -1, -(n - 1), 0, n + 1, 0, 2])
    tptr = np.array([0, 5, 9, 12])
    w = np.random.default_rng(3).random(dx.shape[0])
    return dx, dy, w, tptr


@pytest.mark.parametrize(
    "mode, with_base", [(MODE_MAX, False), (MODE_ABSMAX, True), (MODE_MIN, False), (MODE_MIN, True)]
)
@pytest.mark.parametrize(
    "bands", [[(0, 13)], [(0, 7), (7, 13)], [(0, 1), (1, 3), (3, 4), (4, 9), (9, 12), (12, 13)]]
)
def test_bands_match_reference_bitwise(mode, with_base, bands):
    n = 13
    rng = np.random.default_rng(5)
    q = rng.random((n, n)) - 0.25
    q[2, :4] = -0.0  # products of -0.0 must not leave a signed zero in the sum
    base = rng.random((n, n)) if with_base else None
    dx, dy, w, tptr = hand_table(n)
    want = np.empty((n, n))
    reference_extremal(q, dx, dy, w, tptr, np.zeros((n, n)) if base is None else base, mode, want)
    got = np.empty((n, n))
    # switch threads as often as possible, so that bands interleave
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _extremal_bands(q, dx, dy, w, tptr, base, mode, got, bands)
    finally:
        sys.setswitchinterval(interval)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("mode", ["max", "absmax", "min"])
def test_engine_matches_reference_bitwise(small_case, mode):
    grid, cutoff, q, interval, ts = small_case
    base = np.full_like(q, 0.3) if mode == "absmax" else np.zeros_like(q)
    want = np.empty_like(q)
    reference_extremal(q, *reference_shift_table(cutoff, grid, ts), base, _MODES[mode], want)
    got = extremal_conv_field(q, grid, cutoff, interval, mode, base=base)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n, nodes, interval", [(16, 16, (0.0625, 0.125)), (256, 64, (2.0**-6, 2.0**-5))])
def test_shift_table_matches_per_scale_table(n, nodes, interval):
    grid = GridSpec(n)
    cutoff = build_cutoff(P, nodes, 0.5)
    ts = t_grid(*interval, grid.h, support_radius(P))
    got = shift_table(cutoff, grid, ts)
    want = reference_shift_table(cutoff, grid, ts)
    for g, e in zip(got, want):
        assert g.dtype == e.dtype and g.tobytes() == e.tobytes()


def test_shift_weights_sum_to_one(small_case):
    grid, cutoff, q, interval, ts = small_case
    dx, dy, w, tptr = shift_table(cutoff, grid, ts)
    for k in range(len(ts)):
        assert math.fsum(w[tptr[k] : tptr[k + 1]]) == pytest.approx(1.0, abs=1e-12)


def test_constant_field_sup_is_one_in_interior():
    # away from the boundary every shifted copy stays inside, so the grouped
    # average of a constant-1 field is exactly the weight total
    n = 64
    grid = GridSpec(n)
    cutoff = build_cutoff(P, 32, 0.5)
    q = np.ones((n, n))
    out = extremal_conv_field(q, grid, cutoff, (0.01, 0.02), "max")
    d = support_radius(P)
    margin = math.ceil(0.02 * d / grid.h) + 1
    interior = out[: n - margin, : n - margin]
    assert np.abs(interior - 1.0).max() < 1e-12


def test_hit_is_byte_equal_to_fresh_run(small_case, engine_runs):
    grid, cutoff, q, interval, ts = small_case
    base = np.full_like(q, 0.3)
    first = extremal_conv_field(q, grid, cutoff, interval, "absmax", base=base)
    hit = extremal_conv_field(q, grid, cutoff, interval, "absmax", base=base)
    assert len(engine_runs) == 1
    field_cache.clear()
    fresh = extremal_conv_field(q, grid, cutoff, interval, "absmax", base=base)
    assert len(engine_runs) == 2
    assert hit.tobytes() == fresh.tobytes() == first.tobytes()


def test_mutating_a_returned_field_leaves_later_hits_intact(small_case, engine_runs):
    grid, cutoff, q, interval, ts = small_case
    first = extremal_conv_field(q, grid, cutoff, interval, "max")
    want = first.copy()
    first[:] = 7.0
    hit = extremal_conv_field(q, grid, cutoff, interval, "max")
    hit[0, 0] = -1.0
    again = extremal_conv_field(q, grid, cutoff, interval, "max")
    assert len(engine_runs) == 1
    assert again.tobytes() == want.tobytes()


def _one_cell(q):
    q = q.copy()
    q[3, 5] += 0.5
    return q


def _one_weight(cutoff):
    w = cutoff.weights.copy()
    w[len(w) // 2] *= 1.0 + 2.0**-40
    return Cutoff(cutoff.params, cutoff.nodes, w, cutoff.plateau_frac)


def _one_scale(ts):
    ts = ts.copy()
    ts[-1] = np.nextafter(ts[-1], 0.0)
    return ts


VARIANTS = {
    "one cell of q": lambda k: {**k, "q": _one_cell(k["q"])},
    "base zeros instead of None": lambda k: {**k, "base": np.zeros_like(k["q"])},
    "mode": lambda k: {**k, "mode": "min"},
    "ts": lambda k: {**k, "ts": _one_scale(k["ts"])},
    "a weight": lambda k: {**k, "cutoff": _one_weight(k["cutoff"])},
    "grid origin": lambda k: {**k, "grid": GridSpec(16, (0.5, 0.0))},
    "grid side": lambda k: {**k, "grid": GridSpec(16, side=2.0)},
}


@pytest.mark.parametrize("change", list(VARIANTS))
def test_any_changed_input_misses(small_case, engine_runs, change):
    grid, cutoff, q, interval, ts = small_case
    kwargs = dict(q=q, grid=grid, cutoff=cutoff, interval=interval, mode="max",
                  base=None, ts=ts)
    extremal_conv_field(**kwargs)
    extremal_conv_field(**kwargs)
    assert len(engine_runs) == 1
    extremal_conv_field(**VARIANTS[change](kwargs))
    assert len(engine_runs) == 2


def test_stored_shift_tables_are_read_only(small_case):
    grid, cutoff, q, interval, ts = small_case
    extremal_conv_field(q, grid, cutoff, interval, "max")
    tables = list(fields._shift_tables._store.values())
    assert tables
    for table in tables:
        assert not any(arr.flags.writeable for arr in table)
