"""Field-engine correctness against an independent per-cell reimplementation."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pinbeam.fields as fields
from pinbeam import CurveParams, GridSpec, build_cutoff, support_radius
from pinbeam.fields import (
    _MODES,
    MODE_ABSMAX,
    MODE_MAX,
    _extremal,
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
                best = v if best is None else max(best, v)
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


@pytest.mark.parametrize("mode", ["max", "absmax"])
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


def fma_bound(q, dx, dy, w, tptr, base):
    """Largest per-cell |engine - reference| when w * q is inexact.

    The reference rounds each group term twice (product, then sum), the
    engine's fused multiply-add once.  For a scale with G groups let M be
    the cell's sum of |w_g q_g| plus |base|.  Each side then lies within
    gamma_(G+2) * M of the exact value (G products or fused terms, G sums
    and the subtraction of base; gamma_k = k u / (1 - k u), u = 2^-53),
    and abs and max add no error.  The two sides thus differ by at
    most 2 gamma_(G+2) M, which (G + 3) * eps * M covers (eps = 2u; the
    extra eps * M absorbs the 1 / (1 - k u) factor and the rounding in
    computing M).  G is the largest group count of any scale, M the largest
    over scales.
    """
    m = np.empty_like(q)
    reference_extremal(np.abs(q), dx, dy, np.abs(w), tptr, -np.abs(base), MODE_MAX, m)
    return (int(np.diff(tptr).max()) + 3) * np.finfo(np.float64).eps * m


def assert_matches_reference(got, want, q, dx, dy, w, tptr, base):
    """Bit-identical on 0/1 q (w * q is exact), else within fma_bound with
    zeros of the same sign."""
    if np.isin(q, (0.0, 1.0)).all():
        assert got.tobytes() == want.tobytes()
        return
    assert (np.abs(got - want) <= fma_bound(q, dx, dy, w, tptr, base)).all()
    zero = want == 0.0
    assert (np.signbit(got[zero]) == np.signbit(want[zero])).all()


@pytest.mark.parametrize(
    "mode, with_base", [(MODE_MAX, False), (MODE_ABSMAX, True)]
)
@pytest.mark.parametrize("indicator", [True, False], ids=["q01", "qrandom"])
def test_single_pass_matches_reference(mode, with_base, indicator):
    n = 13
    rng = np.random.default_rng(5)
    q = rng.random((n, n))
    q = (q < 0.5).astype(np.float64) if indicator else q - 0.25
    q[2, :4] = -0.0  # products of -0.0 must not leave a signed zero in the sum
    base = rng.random((n, n)) if with_base else None
    dx, dy, w, tptr = hand_table(n)
    zeros_or_base = np.zeros((n, n)) if base is None else base
    want = np.empty((n, n))
    reference_extremal(q, dx, dy, w, tptr, zeros_or_base, mode, want)
    got = np.empty((n, n))
    _extremal(q, dx, dy, w, tptr, base, mode, got)
    assert_matches_reference(got, want, q, dx, dy, w, tptr, zeros_or_base)


@pytest.mark.parametrize(
    "mode, with_base", [(MODE_MAX, False), (MODE_ABSMAX, True)]
)
@pytest.mark.parametrize(
    "bands", [[(0, 13)], [(0, 7), (7, 13)], [(0, 1), (1, 3), (3, 4), (4, 9), (9, 12), (12, 13)]]
)
def test_bands_match_reference_bitwise(monkeypatch, mode, with_base, bands):
    """Splitting every daxpy at row-band boundaries changes no bit.

    OpenBLAS threads split each daxpy's vector into chunks, and its kernels
    treat a chunk's body and tail apart.  Here each call is cut into one
    call per band of output rows (single rows included), so the cuts fall at
    fixed places; the field must equal the single-pass field byte for byte
    and match the reference as assert_matches_reference states.
    """
    import scipy.linalg.blas

    n = 13
    rng = np.random.default_rng(5)
    q_random = rng.random((n, n)) - 0.25
    q_random[2, :4] = -0.0  # products of -0.0 must not leave a signed zero in the sum
    base = rng.random((n, n)) if with_base else None
    dx, dy, w, tptr = hand_table(n)
    zeros_or_base = np.zeros((n, n)) if base is None else base
    daxpy = scipy.linalg.blas.daxpy
    pieces = []

    def banded_daxpy(x, y, n, a, offx, offy):
        width = y.shape[0] // q_random.shape[0]
        for b0, b1 in bands:
            lo, hi = max(offy, b0 * width), min(offy + n, b1 * width)
            if lo < hi:
                pieces.append(hi - lo)
                daxpy(x, y, n=hi - lo, a=a, offx=offx + lo - offy, offy=lo)
        return y

    for q in ((q_random < 0.5).astype(np.float64), q_random):
        want = np.empty((n, n))
        reference_extremal(q, dx, dy, w, tptr, zeros_or_base, mode, want)
        single = np.empty((n, n))
        _extremal(q, dx, dy, w, tptr, base, mode, single)
        got = np.empty((n, n))
        with monkeypatch.context() as m:
            m.setattr(scipy.linalg.blas, "daxpy", banded_daxpy)
            _extremal(q, dx, dy, w, tptr, base, mode, got)
        assert got.tobytes() == single.tobytes()
        assert_matches_reference(got, want, q, dx, dy, w, tptr, zeros_or_base)
    assert len(pieces) > 2 * len(bands)


@pytest.mark.parametrize("mode", ["max", "absmax"])
def test_engine_matches_reference_bitwise(small_case, mode):
    grid, cutoff, q_random, interval, ts = small_case
    base = np.full_like(q_random, 0.3) if mode == "absmax" else np.zeros_like(q_random)
    table = reference_shift_table(cutoff, grid, ts)
    for q in ((q_random < 0.5).astype(np.float64), q_random):
        want = np.empty_like(q)
        reference_extremal(q, *table, base, _MODES[mode], want)
        got = extremal_conv_field(q, grid, cutoff, interval, mode, base=base)
        assert_matches_reference(got, want, q, *table, base)


def test_field_bits_do_not_depend_on_blas_thread_count():
    # a smoothed q and base make every product inexact; at N=128 most daxpy
    # calls are long enough for OpenBLAS to split them between threads
    code = """
import hashlib
import numpy as np
from pinbeam import CurveParams, GridSpec, ScalarField, build_cutoff
from pinbeam.fields import extremal_conv_field
from pinbeam.smoothing import poisson_smooth_multi

grid = GridSpec(128)
ind = ScalarField(grid, (np.random.default_rng(4).random((128, 128)) < 0.5).astype(float))
q, base = (f.values for f in poisson_smooth_multi(ind, [1 / 64, 1 / 16]))
cutoff = build_cutoff(CurveParams(2.0, 1.0, 2.4), 64, 0.5)
out = extremal_conv_field(q, grid, cutoff, (2.0**-5, 2.0**-4), "absmax", base=base)
print(hashlib.sha256(out.tobytes()).hexdigest())
"""
    src = Path(__file__).resolve().parents[1] / "src"
    digests = [
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": threads},
            capture_output=True, text=True, check=True, timeout=120,
        ).stdout.strip()
        for threads in ("1", "2")
    ]
    assert len(digests[0]) == 64 and digests[0] == digests[1]


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
    "mode": lambda k: {**k, "mode": "absmax"},
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
