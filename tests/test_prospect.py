import dataclasses
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
    measure,
    normalize_window,
    param_from_scale,
    prospect,
    verify_certificate,
)
from pinbeam.constructions import carve_block_arcs, checkerboard, dead_strip_set
from pinbeam.kernel import cell_shifts, sample_points, support_radius, t_grid
from pinbeam.prospect import (
    DenseWindowResult,
    ResolutionError,
    _block,
    _certificate,
    _padded,
    _summed_area,
    _window_counts,
    _working_system,
    block_hypothesis_holds,
)
from pinbeam.raster import cells_of_points, sample_values

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

    def test_the_ladder_is_its_depth(self):
        assert ScaleLadder(3) == default_ladder(3) != default_ladder(2)
        assert default_ladder(3).entries == tuple(default_ladder(3).block(j) for j in (1, 2, 3))
        with pytest.raises(ValueError, match="need depth >= 1, got 0"):
            ScaleLadder(0)

    def test_deepest_ladder_ends_at_the_least_subnormal(self):
        assert default_ladder(537).block(537) == (2.0**-1073, 2.0**-1074)

    @pytest.mark.parametrize("depth", [538, 9537, 10**12])
    def test_depth_whose_c_underflows_refused_before_building(self, depth):
        # 10**12 blocks would not fit in memory: the check must come first
        with pytest.raises(ValueError, match=f"ladder depth {depth} is too deep"):
            default_ladder(depth)


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

    @pytest.mark.parametrize("cprime", [1e6, math.inf])
    def test_overflowing_depth_refused(self, cprime):
        with pytest.raises(ValueError, match="overflows"):
            j_bound(0.4, cprime)


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
        for rounding in (dyadic_round_up, dyadic_round_down):
            with pytest.raises(ValueError):
                rounding(math.inf)

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

    def test_refinement_below_one_refused(self):
        a = full_square(64)
        cert = prospect(a, default_ladder(1), P24, SamplingConfig(nodes=64))
        for refinement in (0, -2, float("nan")):
            with pytest.raises(ValueError, match="refinement >= 1"):
                verify_certificate(a, cert, refinement, SamplingConfig(nodes=64))

    def test_certificate_samples_are_consistent(self):
        a = generate_random(GridSpec(128), 0.5, 3)
        cert = prospect(a, default_ladder(2), P24, SamplingConfig(nodes=64))
        assert isinstance(cert, BeamCertificate)
        c, b = cert.t_interval
        for t, u, hx, hy in zip(cert.t, cert.u, cert.hit_x, cert.hit_y):
            assert c <= t <= b
            a_k = param_from_scale(t, cert.beta)
            assert cert.eta * t < u < cert.theta * t
            assert hx == pytest.approx(cert.point[0] + u, abs=1e-15)
            assert hy == pytest.approx(cert.point[1] + a_k * u**cert.beta, rel=1e-12)

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

    @pytest.mark.parametrize("subsample", [0, -3])
    def test_subsample_below_one_refused(self, subsample):
        with pytest.raises(ValueError, match=f"need subsample >= 1, got {subsample}"):
            SamplingConfig(subsample=subsample)

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
        hit_x, hit_y = list(cert.hit_x), list(cert.hit_y)
        hit_x[3], hit_y[3] = 1.5, 1.5  # off the window
        hit_x[5], hit_y[5] = 63.5 / 64, 0.5 / 64  # unset cell
        import dataclasses

        tampered = dataclasses.replace(cert, hit_x=tuple(hit_x), hit_y=tuple(hit_y))
        res = verify_certificate(holed, tampered, 1, SamplingConfig(nodes=64))
        assert not res.ok
        assert res.failures == (
            "sample 3: claimed hit (1.5, 1.5) is not in the set",
            "sample 5: claimed hit (0.9921875, 0.0078125) is not in the set",
        )
        # a non-finite hit is reported, not looked up
        hit_x[5], hit_y[5] = math.nan, 0.5
        tampered = dataclasses.replace(cert, hit_x=tuple(hit_x), hit_y=tuple(hit_y))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = verify_certificate(holed, tampered, 1, SamplingConfig(nodes=64))
        assert res.failures[1] == "sample 5: claimed hit (nan, 0.5) is not in the set"
        # every scale of the grid needs its witness
        no_samples = dataclasses.replace(cert, t=(), u=(), hit_x=(), hit_y=())
        res = verify_certificate(holed, no_samples, 1, SamplingConfig(nodes=64))
        assert res.failures == ("0 samples for the 279 scales of the t_grid on [c, b]",)

    def test_interval_mismatch_rejected(self):
        a = full_square(64)
        cert = prospect(a, default_ladder(1), P24, SamplingConfig(nodes=64))
        import dataclasses

        tampered = dataclasses.replace(cert, a_interval=(2.0, 4.0001))
        res = verify_certificate(a, tampered, 1, SamplingConfig(nodes=64))
        assert not res.ok
        assert any("interval" in f for f in res.failures)


class TestVerifyWitnesses:
    """verify derives every witness column again; a forged column fails."""

    SAMPLING = SamplingConfig(nodes=64)

    @pytest.fixture(scope="class")
    def setup(self):
        a = generate_random(GridSpec(256), 0.4, 7)
        cert = prospect(a, default_ladder(3), P24, self.SAMPLING)
        assert isinstance(cert, BeamCertificate) and len(cert.t) == 1109
        assert verify_certificate(a, cert, 4, self.SAMPLING).ok
        return a, cert

    def test_forged_witnesses_refused(self, setup):
        a, cert = setup
        iy, ix = np.argwhere(a.bitmap)[0]
        h, k = a.grid.h, len(cert.t)
        forged = dataclasses.replace(
            cert, u=(123.0,) * k, hit_x=((ix + 0.5) * h,) * k, hit_y=((iy + 0.5) * h,) * k,
        )
        res = verify_certificate(a, forged, 4, self.SAMPLING)
        assert not res.ok
        assert [f.split(":")[0] for f in res.failures] == [f"sample {i}" for i in range(k)]

    @pytest.mark.parametrize("column, message", [
        ("t", "sample 554: scale 0.35355339059327384 is not scale 554 of the t_grid on [c, b]"),
        ("u", "sample 554: offset 0.3574203808028878 and hit"),
        ("hit_x", "sample 554: offset 0.35742038080288774 and hit (0.36327975580288779,"),
        ("hit_y", "sample 554: offset 0.35742038080288774 and hit (0.36327975580288774, "
                  "0.3632827912179194)"),
    ], ids=["t", "u", "hit_x", "hit_y"])
    def test_one_ulp_in_any_column_is_named(self, setup, column, message):
        # each forgery keeps every hit in the set, so only the new checks see it
        a, cert = setup
        value = list(getattr(cert, column))
        value[554] = math.nextafter(value[554], math.inf)
        res = verify_certificate(a, dataclasses.replace(cert, **{column: tuple(value)}), 4,
                                 self.SAMPLING)
        assert len(res.failures) == 1 and res.failures[0].startswith(message)

    @pytest.mark.parametrize("j", [2, 7, -1, 0, 538, 10**6])
    def test_another_block_index_is_named(self, j):
        # block 1's certificate, its samples intact, under another block index
        a = generate_random(GridSpec(256), 0.5, 3)
        cert = prospect(a, default_ladder(2), P24, self.SAMPLING)
        assert cert.j == 1 and verify_certificate(a, cert, 1, self.SAMPLING).ok
        res = verify_certificate(a, dataclasses.replace(cert, j=j), 1, self.SAMPLING)
        assert res.failures == (f"t_interval (0.25, 0.5) is not (c_j, b_j) of block j = {j}",)

    def test_swapped_witness_is_checked_in_the_callers_system(self):
        a = generate_random(GridSpec(128), 0.5, 8)
        params = CurveParams(0.5, 1.0, 2.4)
        cert = prospect(a, default_ladder(2), params, self.SAMPLING)
        assert cert.beta == 0.5 and verify_certificate(a, cert, 2, self.SAMPLING).ok
        # the working system's offset t u_i in place of the caller's t u_i^(1/beta)
        u = list(cert.u)
        u[3] = cert.hit_y[3] - cert.point[1]
        res = verify_certificate(a, dataclasses.replace(cert, u=tuple(u)), 2, self.SAMPLING)
        assert len(res.failures) == 1 and res.failures[0].startswith("sample 3: offset")


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
    raster, cutoff = _working_system(a, params, sampling)
    grid = raster.grid
    radius = support_radius(cutoff.params)
    tables = [t_grid(c, b, grid.h, radius, sampling.min_per_octave) for b, c in ladder.entries]
    cells = np.argwhere(raster.bitmap)
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
        for j, ts in enumerate(tables, start=1):
            hits = sample_values(raster, *sample_points(cutoff, ts, (xc, yc)))
            ok_t = hits.any(axis=1)
            if ok_t.all():
                return _certificate(params, cutoff, xc, yc, j, ts, hits)
            t_cols[j - 1].append(float(ts[int(ok_t.argmin())]))
        point = (yc, xc) if params.requires_swap else (xc, yc)
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


def tie_scales_by_old_rule(cutoff, ts, grid):
    """The per-scale tie flag that preceded per-sample ties: some sample within the margin."""
    h = grid.h
    x0, y0 = grid.origin
    reach = ts.max(initial=0.0) * max(cutoff.nodes.max(), cutoff.node_powers.max())
    margin = 8.0 * np.finfo(np.float64).eps * (abs(x0) + abs(y0) + grid.side + reach) / h
    flags = np.zeros(len(ts), dtype=bool)
    for f in (0.5 + (ts / h)[:, None] * cutoff.nodes, 0.5 + (ts / h)[:, None] * cutoff.node_powers):
        flags |= (np.abs(f - np.floor(f) - 0.5) >= 0.5 - margin).any(axis=1)
    return flags


@settings(max_examples=60, deadline=None)
@given(**EDGE_CASES, j=st.sampled_from([1, 2]), beta=st.sampled_from([2.0, 0.5]))
@example(window=EDGE_WINDOWS[1], n=16, ms=[36, 40, 42, 64, 68], density=0.3, seed=46960,
         last_column=56024, j=1, beta=2.0)
def test_tie_samples_flag_the_old_tie_scales(window, n, ms, density, seed, last_column, j,
                                             beta):
    a, cutoff = _edge_case(window, n, ms, density, seed, last_column, CurveParams(beta, 1.0, 2.4))
    b, c = default_ladder(2).block(j)
    ts = t_grid(c, b, a.grid.h, support_radius(cutoff.params))
    ties = cell_shifts(cutoff, ts, a.grid)[3]
    assert ties.shape == (len(ts), cutoff.node_count)
    assert np.array_equal(ties.any(axis=1), tie_scales_by_old_rule(cutoff, ts, a.grid))


@settings(max_examples=60, deadline=None)
@given(**EDGE_CASES, j=st.sampled_from([1, 2]), beta=st.sampled_from([2.0, 0.5]))
def test_block_reads_each_non_tie_sample_by_offset(window, n, ms, density, seed, last_column, j,
                                                   beta):
    # A run of equal offsets may start with a tie sample: its non-tie nodes
    # must still be read, and only the tie samples looked up by point.
    a, cutoff = _edge_case(window, n, ms, density, seed, last_column, CurveParams(beta, 1.0, 2.4))
    ladder = default_ladder(2)
    _, width = _padded(a, ladder.block(1)[0], cutoff)
    blk = _block(a.grid, cutoff, ladder, j, 16, width)
    sx, sy, _, ties = cell_shifts(cutoff, blk.ts, a.grid)
    off = ~ties & (sx < n) & (sy < n)
    want = {(k, int(sy[k, i]) * width + int(sx[k, i])) for k, i in np.argwhere(off)}
    bounds = np.append(blk.starts, blk.rows.size)
    got = {(k, int(blk.distinct[r])) for k, lo, hi in zip(np.flatnonzero(blk.filled), bounds,
                                                          bounds[1:])
           for r in blk.rows[lo:hi]}
    assert got == want
    k, i = np.nonzero(ties)
    assert np.array_equal(blk.ties, k)
    assert np.array_equal(blk.tie_dx, blk.ts[k] * cutoff.nodes[i])
    assert np.array_equal(blk.tie_dy, blk.ts[k] * cutoff.node_powers[i])


def test_only_tie_samples_take_point_lookups():
    # theta = 1.04, 64 nodes: one block-1 scale holds 3 tie samples among its
    # 64 nodes, and the other 61 keep their offsets
    params, ladder, sampling = CurveParams(2.0, 1.0, 1.04), default_ladder(2), SamplingConfig(64)
    a = dead_strip_set(128, params, ladder, 2)
    cutoff = build_cutoff(params, 64, 0.5)
    _, width = _padded(a, ladder.block(1)[0], cutoff)
    ties = [_block(a.grid, cutoff, ladder, j, 16, width).ties.tolist() for j in (1, 2)]
    assert ties == [[134, 134, 134], []]
    with mock.patch("pinbeam.prospect.sample_values", wraps=sample_values) as looked_up:
        got = prospect(a, ladder, params, sampling)
    assert isinstance(got, ExhaustionReport) and got.scanned == 6144
    assert sum(np.size(call.args[1]) for call in looked_up.call_args_list) == 3 * 6144
    assert got == reference_prospect(a, ladder, params, sampling)


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


def carve_by_lookups(a, region_mask, ladder, j, cutoff, min_per_octave=16):
    """The per-cell point-lookup carve that the scatter over block offsets replaced."""
    grid = a.grid
    b, c = ladder.block(j)
    ts = t_grid(c, b, grid.h, support_radius(cutoff.params), min_per_octave)
    ox = np.outer(ts, cutoff.nodes).ravel()
    oy = np.outer(ts, cutoff.node_powers).ravel()
    bitmap = a.bitmap.copy()
    h = grid.h
    x0, y0 = grid.origin
    for iy, ix in np.argwhere(region_mask):
        xc = x0 + (ix + 0.5) * h
        yc = y0 + (iy + 0.5) * h
        jx, jy, inside = cells_of_points(grid, xc + ox, yc + oy)
        bitmap[jy[inside], jx[inside]] = False
    return bitmap


@settings(max_examples=40, deadline=None)
@given(**EDGE_CASES, j=st.sampled_from([1, 2]), beta=st.sampled_from([2.0, 0.5]),
       region_seed=st.integers(0, 2**16))
def test_carve_matches_point_lookups(window, n, ms, density, seed, last_column, j, beta,
                                     region_seed):
    a, cutoff = _edge_case(window, n, ms, density, seed, last_column, CurveParams(beta, 1.0, 2.4))
    rng = np.random.default_rng(region_seed)
    region = rng.random((n, n)) < rng.random()
    ladder = default_ladder(2)
    got = carve_block_arcs(a, region, ladder, j, cutoff)
    assert np.array_equal(got.bitmap, carve_by_lookups(a, region, ladder, j, cutoff))


class TestCarve:
    def test_tie_scales_follow_point_lookups(self):
        # some block-1 samples land on the window's far edge, where the point
        # lookup reads the last cell and the bare integer offset reads nothing
        a, cutoff = _edge_case(EDGE_WINDOWS[1], 16, [36, 40, 42, 64, 68], 0.3, 46960, 56024)
        ladder = default_ladder(2)
        _, width = _padded(a, ladder.block(1)[0], cutoff)
        assert _block(a.grid, cutoff, ladder, 1, 16, width).ties.size > 0
        region = np.random.default_rng(0).random((16, 16)) < 0.3
        got = carve_block_arcs(a, region, ladder, 1, cutoff)
        assert np.array_equal(got.bitmap, carve_by_lookups(a, region, ladder, 1, cutoff))

    def test_quadrant_as_gen_builds_it(self):
        # `pinbeam gen --kind carved` at N=128 with its default block and nodes
        n = 128
        cut = build_cutoff(P24, 128, 0.5)
        region = np.zeros((n, n), dtype=bool)
        region[: n // 2, : n // 2] = True
        ladder = default_ladder(2)
        got = carve_block_arcs(full_square(n), region, ladder, 2, cut)
        assert np.array_equal(got.bitmap, carve_by_lookups(full_square(n), region, ladder, 2, cut))

    @pytest.mark.parametrize("side", [8, 32])
    def test_region_of_another_shape_refused(self, side):
        cut = build_cutoff(P24, 32, 0.5)
        region = np.ones((side, side), dtype=bool)
        with pytest.raises(ValueError, match=rf"shape \({side}, {side}\) does not match grid n=16"):
            carve_block_arcs(full_square(16), region, default_ladder(1), 1, cut)


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

        for t, u, hy in zip(cert.t, cert.u, cert.hit_y):
            assert 1.0 * t < u < 2.4 * t
            a_k = param_from_scale(t, 0.5)
            assert hy == pytest.approx(cert.point[1] + a_k * u**0.5, rel=1e-9)
        ix, iy, inside = cells_of_points(a.grid, np.array(cert.hit_x), np.array(cert.hit_y))
        assert inside.all() and a.bitmap[iy, ix].all()
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
        assert cert.t == cert_sw.t
        assert (cert.hit_x, cert.hit_y) == (cert_sw.hit_y, cert_sw.hit_x)


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

    def test_checkerboard_block_cells_below_one_refused(self):
        for cells in (0, -1):
            with pytest.raises(ValueError, match="block_cells"):
                checkerboard(32, cells)

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
