import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pinbeam import (
    BeamCertificate,
    CurveParams,
    Cutoff,
    ExhaustionReport,
    GridSpec,
    RasterSet,
    SamplingConfig,
    ScaleLadder,
    arc_hits_set,
    axis_swap,
    build_cutoff,
    default_ladder,
    dyadic_round_down,
    dyadic_round_up,
    find_dense_window,
    generate_random,
    j_bound,
    ladder_from_coefficients,
    measure,
    normalize_window,
    param_from_scale,
    prospect,
    verify_certificate,
)
from pinbeam.constructions import carve_block_arcs, checkerboard, dead_strip_set
from pinbeam.kernel import support_radius, t_grid
from pinbeam.prospect import (
    DenseWindowResult,
    ResolutionError,
    _certificate,
    _hits_matrix,
    _summed_area,
    _window_counts,
    _working_system,
    block_hypothesis_holds,
)
from pinbeam.raster import cells_of_points

from conftest import full_square

P24 = CurveParams(2.0, 1.0, 2.4)


class TestLadder:
    def test_default_two_blocks(self):
        lad = default_ladder(2)
        assert lad.entries == ((0.5, 0.25), (0.125, 0.0625))

    def test_interleaving_at_depth_64(self):
        lad = default_ladder(64)
        seq = [1.0]
        for b, c in lad.entries:
            seq += [b, c]
        assert all(x > y for x, y in zip(seq, seq[1:]))
        assert seq[-1] > 0

    def test_a_intervals_beta2(self):
        for j, want in [(1, (2.0, 4.0)), (2, (8.0, 16.0))]:
            b, c = default_ladder(j).block(j)
            assert (param_from_scale(b, 2.0), param_from_scale(c, 2.0)) == want

    def test_rejects_non_interleaved(self):
        with pytest.raises(ValueError, match="interleaved"):
            ScaleLadder(((0.25, 0.5),))

    def test_rejects_non_dyadic(self):
        with pytest.raises(ValueError, match="dyadic"):
            ScaleLadder(((0.5, 0.3),))

    def test_from_coefficient_bounds(self):
        # coefficient pairs C_1 > B_1 > C_2 > B_2 map to an interleaved
        # scale ladder, big scales first
        lad = ladder_from_coefficients([300.0, 10.0], [1000.0, 30.0], r=0.5, beta=2.0)
        assert lad.depth == 2
        assert lad.entries == ((0.125, 1.0 / 32), (1.0 / 256, 1.0 / 1024))
        seq = [1.0]
        for b, c in lad.entries:
            seq += [b, c]
        assert all(x > y for x, y in zip(seq, seq[1:]))


class TestJBound:
    def test_reference_values(self):
        assert j_bound(0.5, 1.0) == 3
        assert j_bound(0.25, 1.0) == 5
        assert j_bound(0.5, 2.0) == 5

    def test_preconditions(self):
        with pytest.raises(ValueError):
            j_bound(0.6, 1.0)
        with pytest.raises(ValueError):
            j_bound(0.4, 0.5)


class TestDyadicRounding:
    def test_reference_values(self):
        assert dyadic_round_up(0.3) == 0.5
        assert dyadic_round_down(0.3) == 0.25
        assert dyadic_round_up(0.25) == 0.25
        assert dyadic_round_down(0.25) == 0.25

    def test_positive_required(self):
        with pytest.raises(ValueError):
            dyadic_round_up(0.0)
        with pytest.raises(ValueError):
            dyadic_round_down(-1.0)

    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-300, max_value=1e300))
    def test_bracketing_property(self, x):
        up, down = dyadic_round_up(x), dyadic_round_down(x)
        assert down <= x <= up
        assert up / down in (1.0, 2.0)
        assert up <= 2 * down


class TestProspect:
    def test_full_square_certifies_first_block(self):
        a = full_square(64)
        cert = prospect(a, default_ladder(2), P24, SamplingConfig(nodes=64))
        assert isinstance(cert, BeamCertificate)
        assert cert.j == 1
        h = 1.0 / 64
        assert cert.point == (h / 2, h / 2)  # first cell in scan order
        assert cert.a_interval == (2.0, 4.0)
        assert verify_certificate(a, cert, 1, SamplingConfig(nodes=64)).ok
        assert verify_certificate(a, cert, 4, SamplingConfig(nodes=64)).ok

    def test_certificate_samples_are_consistent(self):
        a = generate_random(GridSpec(128), 0.5, 3)
        cert = prospect(a, default_ladder(2), P24, SamplingConfig(nodes=64))
        assert isinstance(cert, BeamCertificate)
        c, b = cert.t_interval
        for s in cert.samples:
            assert c <= s.t <= b
            assert s.a == param_from_scale(s.t, cert.beta)
            assert cert.eta * s.t < s.u < cert.theta * s.t
            assert s.hit[0] == pytest.approx(cert.point[0] + s.u, abs=1e-15)
            assert s.hit[1] == pytest.approx(cert.point[1] + s.a * s.u**cert.beta, rel=1e-12)
        assert cert.gap[0] >= cert.eta * c
        assert cert.gap[1] <= cert.theta * b

    def test_carved_quadrant_skips_to_second_block(self):
        # delete everything block-1 arcs from the lower-left quadrant can
        # reach; the first scanned point then certifies at block 2
        n = 64
        cut = build_cutoff(P24, 64, 0.5)
        region = np.zeros((n, n), dtype=bool)
        region[: n // 2, : n // 2] = True
        a = carve_block_arcs(full_square(n), region, default_ladder(1), 1, cut)
        cert = prospect(a, default_ladder(2), P24, SamplingConfig(nodes=64))
        assert isinstance(cert, BeamCertificate)
        assert cert.j == 2
        assert verify_certificate(a, cert, 2, SamplingConfig(nodes=64)).ok

    def test_empty_set_rejected(self):
        empty = RasterSet(GridSpec(16), np.zeros((16, 16), dtype=bool))
        with pytest.raises(ValueError, match="empty"):
            prospect(empty, default_ladder(1), P24)

    def test_resolution_error_names_minimal_n(self):
        a = full_square(16)
        with pytest.raises(ResolutionError) as exc:
            prospect(a, default_ladder(4), P24)  # theta * 2^-8 < 1/16
        assert exc.value.min_resolution >= 16
        assert 2.4 * 2.0**-7 >= 1.0 / exc.value.min_resolution

    def test_deterministic(self):
        a = generate_random(GridSpec(128), 0.3, 9)
        cfg = SamplingConfig(nodes=64)
        assert prospect(a, default_ladder(2), P24, cfg) == prospect(
            a, default_ladder(2), P24, cfg
        )

    def test_subsample_deterministic_and_scan_ordered(self):
        a = generate_random(GridSpec(128), 0.3, 10)
        cfg = SamplingConfig(nodes=64, subsample=40, seed=5)
        r1 = prospect(a, default_ladder(2), P24, cfg)
        r2 = prospect(a, default_ladder(2), P24, cfg)
        assert r1 == r2

    def test_tampered_certificate_rejected_with_offender(self):
        a = full_square(64)
        cert = prospect(a, default_ladder(1), P24, SamplingConfig(nodes=64))
        # cell (63, 0) lies below every arc from the pinned point (0.5 h, 0.5 h)
        bitmap = a.bitmap.copy()
        bitmap[0, 63] = False
        holed = RasterSet(a.grid, bitmap)
        assert verify_certificate(holed, cert, 1, SamplingConfig(nodes=64)).ok
        bad_samples = list(cert.samples)
        s0, s1 = bad_samples[3], bad_samples[5]
        bad_samples[3] = type(s0)(s0.t, s0.a, s0.u, (1.5, 1.5))  # off the window
        bad_samples[5] = type(s1)(s1.t, s1.a, s1.u, (63.5 / 64, 0.5 / 64))  # unset cell
        import dataclasses

        tampered = dataclasses.replace(cert, samples=tuple(bad_samples))
        res = verify_certificate(holed, tampered, 1, SamplingConfig(nodes=64))
        assert not res.ok
        assert res.failures == (
            "sample 3: claimed hit (1.5, 1.5) is not in the set",
            "sample 5: claimed hit (0.9921875, 0.0078125) is not in the set",
        )
        # a non-finite hit is reported, not looked up
        bad_samples[5] = type(s1)(s1.t, s1.a, s1.u, (math.nan, 0.5))
        tampered = dataclasses.replace(cert, samples=tuple(bad_samples))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = verify_certificate(holed, tampered, 1, SamplingConfig(nodes=64))
        assert res.failures[1] == "sample 5: claimed hit (nan, 0.5) is not in the set"
        no_samples = dataclasses.replace(cert, samples=())
        assert verify_certificate(holed, no_samples, 1, SamplingConfig(nodes=64)).ok

    def test_interval_mismatch_rejected(self):
        a = full_square(64)
        cert = prospect(a, default_ladder(1), P24, SamplingConfig(nodes=64))
        import dataclasses

        tampered = dataclasses.replace(cert, a_interval=(2.0, 4.0001))
        res = verify_certificate(a, tampered, 1, SamplingConfig(nodes=64))
        assert not res.ok
        assert any("interval" in f for f in res.failures)


def oracle_scan(a, ladder, params, nodes):
    """Independent brute-force pass map over all points, blocks, scales."""
    cut = build_cutoff(params, nodes, 0.5)
    grid = a.grid
    h = grid.h
    n = grid.n
    radius = support_radius(params)
    blocks = []
    for j in range(1, ladder.depth + 1):
        b, c = ladder.block(j)
        blocks.append(t_grid(c, b, h, radius))
    for iy, ix in np.argwhere(a.bitmap):
        xc, yc = (ix + 0.5) * h, (iy + 0.5) * h
        for j, ts in enumerate(blocks, start=1):
            ok = True
            for t in ts:
                xs = xc + t * cut.nodes
                ys = yc + t * cut.node_powers
                inside = (xs >= 0) & (xs <= 1) & (ys >= 0) & (ys <= 1)
                jx = np.minimum(np.floor(xs / h).astype(int), n - 1)
                jy = np.minimum(np.floor(ys / h).astype(int), n - 1)
                if not (inside & a.bitmap[jy, jx]).any():
                    ok = False
                    break
            if ok:
                return ("certificate", (xc, yc), j)
    return ("exhaustion", None, None)


class TestOracleAgreement:
    @pytest.mark.parametrize("delta,seed", [(0.005, 0), (0.02, 1), (0.1, 2), (0.4, 3)])
    def test_outcome_matches_brute_force(self, delta, seed):
        a = generate_random(GridSpec(64), delta, seed)
        ladder = default_ladder(2)
        got = prospect(a, ladder, P24, SamplingConfig(nodes=32))
        want = oracle_scan(a, ladder, P24, nodes=32)
        if want[0] == "certificate":
            assert isinstance(got, BeamCertificate)
            assert got.point == want[1]
            assert got.j == want[2]
        else:
            assert isinstance(got, ExhaustionReport)
            assert got.scanned == a.cell_count


class TestCompleteness:
    def test_planted_beam_is_always_found(self):
        # plant a passing (point, block) pair inside a sparse set by adding
        # one arc cell per scale sample; a full scan must then never exhaust
        n = 64
        grid = GridSpec(n)
        cut = build_cutoff(P24, 32, 0.5)
        ladder = default_ladder(2)
        for seed in range(5):
            a = generate_random(grid, 0.005, 40 + seed)
            iy, ix = 10 + seed, 7
            bm = a.bitmap.copy()
            bm[iy, ix] = True
            xc, yc = (ix + 0.5) * grid.h, (iy + 0.5) * grid.h
            b, c = ladder.block(2)
            ts = t_grid(c, b, grid.h, support_radius(P24))
            for t in ts:
                xs = np.array([xc + t * cut.nodes[5]])
                ys = np.array([yc + t * cut.node_powers[5]])
                from pinbeam.raster import cells_of_points

                jx, jy, inside = cells_of_points(grid, xs, ys)
                assert inside[0]
                bm[jy[0], jx[0]] = True
            planted = RasterSet(grid, bm)
            outcome = prospect(planted, ladder, P24, SamplingConfig(nodes=32))
            assert isinstance(outcome, BeamCertificate)
            assert verify_certificate(planted, outcome, 1, SamplingConfig(nodes=32)).ok


def reference_prospect(a, ladder, params, sampling=SamplingConfig()):
    """The per-cell, per-block point-lookup scan that the batched scan replaced."""
    work = _working_system(a, params, sampling)
    grid = work.raster.grid
    radius = support_radius(work.params)
    tables = []
    for j in range(1, ladder.depth + 1):
        b, c = ladder.block(j)
        ts = t_grid(c, b, grid.h, radius, sampling.min_per_octave)
        ox = np.outer(ts, work.cutoff.nodes)
        oy = np.outer(ts, work.cutoff.node_powers)
        ratio = (b / c) ** (1.0 / (len(ts) - 1)) if len(ts) > 1 else 1.0
        tables.append((ts, ox, oy, ratio))
    cells = np.argwhere(work.raster.bitmap)
    if sampling.subsample is not None and cells.shape[0] > sampling.subsample:
        rng = np.random.default_rng(sampling.seed)
        keep = rng.choice(cells.shape[0], size=sampling.subsample, replace=False)
        cells = cells[np.sort(keep)]
    h = grid.h
    x0, y0 = grid.origin
    xs, ys, t_cols = [], [], [[] for _ in tables]
    for iy, ix in cells:
        xc = x0 + (ix + 0.5) * h
        yc = y0 + (iy + 0.5) * h
        for j, (ts, ox, oy, ratio) in enumerate(tables, start=1):
            hits = _hits_matrix(work.raster, xc, yc, ox, oy)
            ok_t = hits.any(axis=1)
            if ok_t.all():
                return _certificate(params, work.swapped, xc, yc, j, ts, ox, oy, ratio, hits)
            t_cols[j - 1].append(float(ts[int(ok_t.argmin())]))
        point = (yc, xc) if work.swapped else (xc, yc)
        xs.append(float(point[0]))
        ys.append(float(point[1]))
    return ExhaustionReport(ladder, tuple(xs), tuple(ys), tuple(map(tuple, t_cols)), len(cells))


def _plant_beam(bm, grid, ix, iy, ladder, j, cut):
    """Add one witness per block-j scale for the pinned cell (ix, iy)."""
    b, c = ladder.block(j)
    ts = t_grid(c, b, grid.h, support_radius(cut.params))
    xc, yc = (ix + 0.5) * grid.h, (iy + 0.5) * grid.h
    jx, jy, inside = cells_of_points(grid, xc + ts * cut.nodes[3], yc + ts * cut.node_powers[3])
    assert inside.all()
    bm[jy, jx] = True
    return xc, yc


def _certifies_at(position, n=64, nodes=32):
    """A set whose scan certifies block 2 at the given 1-based scan position.

    The cells before it sit in the four rightmost columns, where every arc
    sample leaves the window, so they fail every block.  The certifying cell
    has planted block-2 witnesses; the next cell in scan order has planted
    block-1 witnesses, so a scan that stopped at the first block some cell
    of a batch passes would certify the wrong cell.
    """
    bm = np.zeros((n, n), dtype=bool)
    q, r = divmod(position - 1, 4)
    bm[:q, n - 4 :] = True
    bm[q, n - 4 : n - 4 + r] = True
    grid = GridSpec(n)
    cut = build_cutoff(P24, nodes, 0.5)
    ladder = default_ladder(2)
    iy = q + 1
    bm[iy, [1, 20]] = True
    point = _plant_beam(bm, grid, 1, iy, ladder, 2, cut)
    _plant_beam(bm, grid, 20, iy, ladder, 1, cut)
    return RasterSet(grid, bm), point


class TestBatchedScanMatchesReference:
    """The batched integer-offset scan returns the reference result with ==."""

    @pytest.mark.parametrize("theta", [1.04, 1.05, 1.06])
    def test_dead_strips(self, theta):
        params = CurveParams(2.0, 1.0, theta)
        ladder = default_ladder(2)
        for phase in (0, 3, 7, 11):
            a = dead_strip_set(64, params, ladder, 1, phase_cells=phase)
            sampling = SamplingConfig(nodes=64)
            want = reference_prospect(a, ladder, params, sampling)
            assert prospect(a, ladder, params, sampling) == want

    @pytest.mark.parametrize(
        "n,seed,params",
        [(64, 1, CurveParams(2.0, 1.0, 2.4)), (128, 0, CurveParams(3.0, 1.0, 1.5))],
    )
    def test_tie_cases_on_non_dyadic_window(self, n, seed, params):
        # samples within rounding distance of a cell edge, where the integer
        # offset alone disagrees with the point lookup
        a = generate_random(GridSpec(n, (0.125, -2.0), 0.75), 0.1, seed=seed)
        ladder, sampling = default_ladder(1), SamplingConfig(nodes=64)
        want = reference_prospect(a, ladder, params, sampling)
        assert isinstance(want, ExhaustionReport)
        assert prospect(a, ladder, params, sampling) == want

    def test_swap_route(self):
        # beta < 1: the scan runs on the swapped raster, points come back swapped
        params = CurveParams(0.5, 1.0, 1.05**2)
        work = params.swapped()
        ladder = default_ladder(2)
        a = axis_swap(dead_strip_set(64, work, ladder, 1, phase_cells=5))
        sampling = SamplingConfig(nodes=64)
        want = reference_prospect(a, ladder, params, sampling)
        assert prospect(a, ladder, params, sampling) == want
        sparse = generate_random(GridSpec(64), 0.02, 4)
        p24 = CurveParams(0.5, 1.0, 2.4)
        assert prospect(sparse, ladder, p24, sampling) == reference_prospect(
            sparse, ladder, p24, sampling
        )

    @pytest.mark.parametrize("subsample", [1, 7, 40])
    def test_subsample(self, subsample):
        a = generate_random(GridSpec(64), 0.02, 6)
        sampling = SamplingConfig(nodes=32, subsample=subsample, seed=3)
        ladder = default_ladder(2)
        assert prospect(a, ladder, P24, sampling) == reference_prospect(a, ladder, P24, sampling)

    @pytest.mark.parametrize(
        "position", [1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65]
    )
    def test_certificate_at_batch_edges(self, position):
        # batches cover scan positions 1, 2-3, 4-7, 8-15, ...
        a, point = _certifies_at(position)
        ladder, sampling = default_ladder(2), SamplingConfig(nodes=32)
        want = reference_prospect(a, ladder, P24, sampling)
        assert isinstance(want, BeamCertificate) and (want.point, want.j) == (point, 2)
        assert prospect(a, ladder, P24, sampling) == want


EDGE_WINDOWS = [((0.0, 0.0), 1.0), ((0.125, -2.0), 0.75)]

EDGE_CASES = dict(
    window=st.sampled_from(EDGE_WINDOWS),
    n=st.sampled_from([16, 32]),
    ms=st.lists(st.integers(32, 76), min_size=4, max_size=16, unique=True),
    density=st.sampled_from([0.02, 0.1, 0.3]),
    seed=st.integers(0, 2**16),
    last_column=st.integers(0, 2**16),
)


def _edge_case(window, n, ms, density, seed, last_column, params=P24):
    """A random set and an equal-weight cutoff whose samples sit on cell edges.

    Nodes on multiples of side/32 put t u / h on half-integers at the dyadic
    scales t of default_ladder(2), so samples land exactly on interior cell
    edges and on the window's far edge.
    """
    origin, side = window
    nodes = np.array(sorted(ms), dtype=np.float64) * (side / 32)
    cutoff = Cutoff(params, nodes, np.full(nodes.size, 1.0 / nodes.size), 0.5)
    grid = GridSpec(n, origin, side)
    bm = generate_random(grid, density, seed).bitmap.copy()
    bm[:, n - 1] |= (last_column >> (np.arange(n) % 16)) & 1 == 1  # far-edge samples read these
    return RasterSet(grid, bm), cutoff


@settings(max_examples=60, deadline=None)
@given(**EDGE_CASES)
def test_edge_samples_follow_one_convention(window, n, ms, density, seed, last_column):
    a, cutoff = _edge_case(window, n, ms, density, seed, last_column)
    ladder, sampling = default_ladder(2), SamplingConfig(nodes=cutoff.node_count)
    with mock.patch("pinbeam.prospect.build_cutoff", return_value=cutoff):
        got = prospect(a, ladder, P24, sampling)
        assert got == reference_prospect(a, ladder, P24, sampling)
        if isinstance(got, BeamCertificate):
            assert verify_certificate(a, got, 1, sampling).ok
    if isinstance(got, ExhaustionReport):
        for pt, violations in got.points:
            for _, t in violations:
                assert arc_hits_set(a, pt, t, cutoff).size == 0


def hypothesis_by_lookups(a, ladder, j, cutoff):
    """Every set cell has a block-j scale at which arc_hits_set finds nothing."""
    grid = a.grid
    b, c = ladder.block(j)
    ts = t_grid(c, b, grid.h, support_radius(cutoff.params))
    x0, y0 = grid.origin
    return all(
        any(arc_hits_set(a, (x0 + (ix + 0.5) * grid.h, y0 + (iy + 0.5) * grid.h), t, cutoff).size == 0
            for t in ts)
        for iy, ix in np.argwhere(a.bitmap)
    )


@settings(max_examples=60, deadline=None)
@given(**EDGE_CASES, j=st.sampled_from([1, 2]), beta=st.sampled_from([2.0, 0.5]))
# Sets where some cell's only witness at one scale lies on the window's far
# edge: a sample read there as 0 would report the hypothesis as holding.
@example(window=EDGE_WINDOWS[0], n=16, ms=[48, 51, 38, 50, 62, 40], density=0.3, seed=286,
         last_column=286, j=1, beta=2.0)
@example(window=EDGE_WINDOWS[1], n=16, ms=[48, 60, 40, 49, 63], density=0.02, seed=990,
         last_column=990, j=2, beta=2.0)
@example(window=EDGE_WINDOWS[0], n=16, ms=[50, 58, 40, 41, 70], density=0.1, seed=8074,
         last_column=8074, j=2, beta=0.5)
def test_block_hypothesis_matches_point_lookups(window, n, ms, density, seed, last_column, j, beta):
    # beta < 1: the harness passes such cutoffs unswapped, and so does the check
    params = CurveParams(beta, 1.0, 2.4)
    a, cutoff = _edge_case(window, n, ms, density, seed, last_column, params)
    ladder = default_ladder(2)
    want = hypothesis_by_lookups(a, ladder, j, cutoff)
    assert block_hypothesis_holds(a, ladder, j, cutoff) == want


class TestAxisSwapRoute:
    def test_beta_below_one_certificate(self):
        a = generate_random(GridSpec(128), 0.5, 8)
        params = CurveParams(0.5, 1.0, 2.4)
        cert = prospect(a, default_ladder(2), params, SamplingConfig(nodes=64))
        assert isinstance(cert, BeamCertificate)
        assert cert.beta == 0.5
        # coefficient interval ascends: a = t^(1-beta) increases with t
        c, b = cert.t_interval
        assert cert.a_interval == (param_from_scale(c, 0.5), param_from_scale(b, 0.5))
        # witnesses live in the caller's system: u in (eta t, theta t) and the
        # hit sits on the curve through the pinned point
        from pinbeam.raster import cells_of_points

        for s in cert.samples:
            assert 1.0 * s.t < s.u < 2.4 * s.t
            assert s.hit[1] == pytest.approx(cert.point[1] + s.a * s.u**0.5, rel=1e-9)
            ix, iy, inside = cells_of_points(
                a.grid, np.array([s.hit[0]]), np.array([s.hit[1]])
            )
            assert inside[0] and a.bitmap[iy[0], ix[0]]
        assert verify_certificate(a, cert, 2, SamplingConfig(nodes=64)).ok

    def test_swap_relation_with_direct_run(self):
        # running on the swapped raster with the swapped exponent finds the
        # same beam, coordinate-swapped
        a = generate_random(GridSpec(128), 0.5, 8)
        params = CurveParams(0.5, 1.0, 2.4)
        cert = prospect(a, default_ladder(2), params, SamplingConfig(nodes=64))
        cert_sw = prospect(
            axis_swap(a), default_ladder(2), params.swapped(), SamplingConfig(nodes=64)
        )
        assert cert.point == (cert_sw.point[1], cert_sw.point[0])
        assert cert.j == cert_sw.j
        for s, ssw in zip(cert.samples, cert_sw.samples):
            assert s.t == ssw.t
            assert s.hit == (ssw.hit[1], ssw.hit[0])


class TestDenseWindow:
    def test_full_set_ratio_one(self):
        big = full_square(64)
        res = find_dense_window(big, 0.9, [0.25])
        assert res.found and res.ratio == 1.0

    def test_left_half_reaches_delta(self):
        n = 64
        bm = np.zeros((n, n), dtype=bool)
        bm[:, : n // 2] = True
        res = find_dense_window(RasterSet(GridSpec(n), bm), 0.4, [0.25])
        assert res.found and res.ratio >= 0.4
        assert res.center[0] < 0.5 + 0.25  # window sits in the left part

    def test_checkerboard_finds_solid_block(self):
        # blocks of side 2R at density 1/2: a solid block window has ratio 1
        n, bc = 32, 8
        big = checkerboard(n, bc)
        r = bc / (2 * n)  # half-side R with 2R = block side
        res = find_dense_window(big, 0.45, [r])
        assert res.found and res.ratio == 1.0
        # exhaustive oracle over all translates
        m = bc
        best = 0
        for iy in range(n - m + 1):
            for ix in range(n - m + 1):
                best = max(best, big.bitmap[iy : iy + m, ix : ix + m].sum())
        assert best == m * m

    def test_miss_carries_best_ratio(self):
        a = generate_random(GridSpec(64), 0.2, 0)
        res = find_dense_window(a, 0.99, [0.25, 0.125])
        assert not res.found
        assert 0.0 < res.ratio < 0.99

    def test_largest_listed_r_wins(self):
        big = full_square(64)
        res = find_dense_window(big, 0.5, [0.125, 0.25])
        assert res.r == 0.25


def double_cumsum_counts(bitmap, m):
    """Window counts as first built: one table per R from two cumsums."""
    n = bitmap.shape[0]
    sat = np.zeros((n + 1, n + 1), dtype=np.int64)
    np.cumsum(np.cumsum(bitmap, axis=0), axis=1, out=sat[1:, 1:])
    return sat[m:, m:] - sat[:-m, m:] - sat[m:, :-m] + sat[:-m, :-m]


def per_r_dense_window(big_a, delta, r_list):
    """find_dense_window as it was, rebuilding the table for every R."""
    grid, h = big_a.grid, big_a.grid.h
    best = DenseWindowResult(False, 0.0, (math.nan, math.nan), -1.0)
    for r in sorted(r_list, reverse=True):
        m = round(2.0 * r / h)
        counts = double_cumsum_counts(big_a.bitmap, m)
        iy0, ix0 = divmod(int(np.argmax(counts)), counts.shape[1])
        ratio = counts[iy0, ix0] / (m * m)
        center = (grid.origin[0] + (ix0 + m / 2.0) * h, grid.origin[1] + (iy0 + m / 2.0) * h)
        if ratio >= delta:
            return DenseWindowResult(True, r, center, float(ratio))
        if ratio > best.ratio:
            best = DenseWindowResult(False, r, center, float(ratio))
    return best


class TestSummedAreaTable:
    @pytest.mark.parametrize("n", [1, 2, 16, 64, 256])
    def test_window_counts_equal_double_cumsum(self, n):
        rng = np.random.default_rng(n)
        for density in (0.0, 0.3, 0.9):
            bm = rng.random((n, n)) < density
            sat = _summed_area(bm)
            for m in sorted({1, max(1, n // 2), n}):
                got = _window_counts(sat, m)
                assert got.dtype == np.int64
                assert np.array_equal(got, double_cumsum_counts(bm, m))

    def test_miss_then_hit_over_three_radii(self):
        # side 4, N=64: R = 1, 1/2, 1/4 are windows of 32, 16 and 8 cells;
        # a solid 16-cell patch in a sparse background misses at R = 1 and
        # hits at R = 1/2
        n = 64
        rng = np.random.default_rng(3)
        bm = rng.random((n, n)) < 0.1
        bm[20:36, 37:53] = True
        big = RasterSet(GridSpec(n, (-2.0, 1.0), 4.0), bm)
        r_list = [0.25, 1.0, 0.5]
        res = find_dense_window(big, 0.6, r_list)
        assert res.found and res.r == 0.5 and res.ratio == 1.0
        assert res == per_r_dense_window(big, 0.6, r_list)
        miss = find_dense_window(big, 1.01, r_list)
        assert not miss.found
        assert miss == per_r_dense_window(big, 1.01, r_list)


class TestNormalizeWindow:
    def test_full_window_gives_full_unit_square(self):
        big = full_square(64)
        a1 = normalize_window(big, 0.25, (0.5, 0.5))
        assert a1.grid == GridSpec(32)
        assert measure(a1) == 1.0

    def test_density_window_measure_exact(self):
        n = 64
        rng = np.random.default_rng(7)
        bm = rng.random((n, n)) < 0.5
        big = RasterSet(GridSpec(n), bm)
        res = find_dense_window(big, 0.3, [0.25])
        a1 = normalize_window(big, res.r, res.center)
        assert measure(a1) == res.ratio

    def test_out_of_domain_rejected(self):
        with pytest.raises(ValueError):
            normalize_window(full_square(64), 0.25, (0.1, 0.5))

    def test_non_power_of_two_window_rejected(self):
        with pytest.raises(ValueError):
            normalize_window(full_square(64), 3 / 32, (0.5, 0.5))
