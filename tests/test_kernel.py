import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinbeam import (
    CurveParams,
    Cutoff,
    GridSpec,
    RasterSet,
    ScalarField,
    arc_hits_set,
    axis_swap,
    build_cutoff,
    curve_average,
    generate_random,
    indicator,
    param_from_scale,
    support_radius,
    validate_params,
)
from pinbeam.constructions import carve_block_arcs
from pinbeam.kernel import cell_shifts, sample_points, t_grid
from pinbeam.prospect import default_ladder
from pinbeam.raster import cells_of_points

from conftest import empty_square, full_square

P24 = CurveParams(2.0, 1.0, 2.4)


class TestAdmissibility:
    def test_accepts_at_value_below_one(self):
        # (2.4)^2 - 2*2.4 = 0.96 < 1
        v = validate_params(P24)
        assert v.ok
        assert v.slack == pytest.approx(1.0 - 0.96, abs=1e-12)

    def test_rejects_at_value_above_one(self):
        # (2.5)^2 - 2*2.5 = 1.25 >= 1
        v = validate_params(CurveParams(2.0, 1.0, 2.5))
        assert not v.ok
        assert v.slack == pytest.approx(1.0 - 1.25, abs=1e-12)

    def test_theta_must_exceed_eta(self):
        with pytest.raises(ValueError):
            CurveParams(2.0, 1.0, 1.0)

    def test_linear_case_excluded(self):
        with pytest.raises(ValueError, match="linear case"):
            CurveParams(1.0, 1.0, 2.0)

    @pytest.mark.parametrize("theta", [math.inf, math.nan])
    def test_theta_must_be_finite(self, theta):
        with pytest.raises(ValueError, match="theta < inf"):
            CurveParams(2.0, 1.0, theta)

    @pytest.mark.parametrize("params", [
        CurveParams(2.0, 1.0, 1e200),  # r**beta overflows
        CurveParams(1e10, 1.0, 2.4),  # r**beta overflows
        CurveParams(1.5, 1e200, 1.1e200),  # admissible ratio, but theta**2 overflows
        CurveParams(2.0, 5e-324, 2.4),  # r = inf, so the slack is NaN
    ], ids=["huge-theta", "huge-beta", "huge-reach", "nan-slack"])
    def test_overflow_is_inadmissible(self, params):
        v = validate_params(params)
        assert not v.ok and not v.slack > 0

    def test_beta_below_one_validates_swapped_system(self):
        # swapped exponent 2, swapped bounds (1, sqrt(2.4))
        v = validate_params(CurveParams(0.5, 1.0, 2.4))
        sw = validate_params(CurveParams(2.0, 1.0, math.sqrt(2.4)))
        assert v.ok == sw.ok
        assert v.slack == pytest.approx(sw.slack, rel=1e-12)


class TestCutoff:
    def test_weights_sum_to_one(self):
        cut = build_cutoff(P24, 64, 0.5)
        assert abs(math.fsum(cut.weights) - 1.0) < 1e-12

    def test_nodes_strictly_inside_support(self):
        cut = build_cutoff(P24, 64, 0.5)
        assert (cut.nodes > P24.eta).all() and (cut.nodes < P24.theta).all()

    def test_weights_strictly_positive(self):
        cut = build_cutoff(P24, 128, 0.5)
        assert (cut.weights > 0).all()

    def test_midpoint_rule_convergence(self):
        # quadrature of a smooth function against a fine-reference oracle:
        # doubling the node count must shrink the error at least 4x
        ref = build_cutoff(P24, 8192, 0.5)
        phi = lambda u: np.sin(3.0 * u) + u * u
        target = float(ref.weights @ phi(ref.nodes))
        errs = {}
        for m in (16, 32):
            cut = build_cutoff(P24, m, 0.5)
            errs[m] = abs(float(cut.weights @ phi(cut.nodes)) - target)
        assert errs[32] <= errs[16] / 4.0

    def test_preconditions(self):
        with pytest.raises(ValueError):
            build_cutoff(P24, 4, 0.5)
        with pytest.raises(ValueError):
            build_cutoff(P24, 64, 1.0)

    def test_hand_built_nodes_must_be_positive(self):
        # the ladder scan reads nonnegative cell offsets t * u / h
        with pytest.raises(ValueError, match="positive"):
            Cutoff(P24, [0.0, 1.5], [0.5, 0.5], 0.5)

    def test_hand_built_nodes_must_ascend(self):
        # the field engine and the ladder scan group equal shifts as runs
        for nodes in ([1.0, 1.5, 1.2], [1.0, 1.5, 1.5]):
            with pytest.raises(ValueError, match="ascend"):
                Cutoff(P24, nodes, [0.25, 0.25, 0.5], 0.5)

    def test_hand_built_weights_must_be_positive(self):
        # a zero-weight node would be a witness that adds nothing to the average
        with pytest.raises(ValueError, match="positive"):
            Cutoff(P24, [0.5, 1.0, 1.5], [0.0, 0.5, 0.5], 0.5)


class TestScaleParamMap:
    def test_beta2_direct_powers(self):
        assert param_from_scale(0.5, 2.0) == 2.0
        assert param_from_scale(1.0, 2.0) == 1.0

    def test_default_ladder_a_intervals_beta2(self):
        # block j maps to [2^(2j-1), 2^(2j)]
        for j in (1, 2, 3, 4):
            c, b = 2.0 ** (-2 * j), 2.0 ** (-2 * j + 1)
            assert param_from_scale(b, 2.0) == 2.0 ** (2 * j - 1)
            assert param_from_scale(c, 2.0) == 2.0 ** (2 * j)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-6, 1e6), st.sampled_from([1.5, 2.0, 3.0, 0.5]))
    def test_roundtrip(self, t, beta):
        assert param_from_scale(t, beta) == pytest.approx(t ** (1 - beta), rel=1e-12)

    def test_monotone_decreasing_for_beta_above_one(self):
        ts = np.geomspace(1e-3, 1e3, 50)
        vals = [param_from_scale(float(t), 2.5) for t in ts]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            param_from_scale(0.5, 1.0)


class TestCurveAverage:
    def test_zero_field(self):
        cut = build_cutoff(P24, 64, 0.5)
        assert curve_average(indicator(empty_square(32)), 0.1, (0.2, 0.2), cut) == 0.0

    def test_unit_mass_when_samples_inside(self):
        cut = build_cutoff(P24, 128, 0.5)
        ones = ScalarField(GridSpec(64), np.ones((64, 64)))
        d = support_radius(P24)
        for t, pt in [(0.01, (0.3, 0.3)), (0.05, (0.1, 0.2)), (0.02, (0.6, 0.5))]:
            assert t * d < min(1 - pt[0], 1 - pt[1])
            assert curve_average(ones, t, pt, cut) == pytest.approx(1.0, abs=1e-9)

    def test_rasterized_arc_dilated_one_cell_gives_unit_average(self):
        # rasterize the arc with the same sampling, thicken by one cell,
        # then every sample hits
        n = 128
        grid = GridSpec(n)
        cut = build_cutoff(P24, 128, 0.5)
        t, pt = 0.11, (0.17, 0.05)
        xs = pt[0] + t * cut.nodes
        ys = pt[1] + t * cut.node_powers
        ix, iy, inside = cells_of_points(grid, xs, ys)
        assert inside.all()
        bm = np.zeros((n, n), dtype=bool)
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                bm[np.clip(iy + dy, 0, n - 1), np.clip(ix + dx, 0, n - 1)] = True
        a = RasterSet(grid, bm)
        assert curve_average(indicator(a), t, pt, cut) == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_field(self):
        rng = np.random.default_rng(3)
        grid = GridSpec(64)
        f1 = rng.random((64, 64))
        f2 = f1 + rng.random((64, 64))
        cut = build_cutoff(P24, 64, 0.5)
        for _ in range(20):
            pt = tuple(rng.random(2))
            t = float(rng.uniform(0.01, 0.3))
            a1 = curve_average(ScalarField(grid, f1), t, pt, cut)
            a2 = curve_average(ScalarField(grid, f2), t, pt, cut)
            assert a1 <= a2 + 1e-15

    def test_value_in_range(self):
        rng = np.random.default_rng(4)
        grid = GridSpec(64)
        vals = rng.random((64, 64)) * 3.0
        f = ScalarField(grid, vals)
        cut = build_cutoff(P24, 64, 0.5)
        for _ in range(20):
            v = curve_average(f, float(rng.uniform(0.01, 0.4)), tuple(rng.random(2)), cut)
            assert 0.0 <= v <= vals.max() + 1e-12

    def test_isotropic_scale_covariance_exact(self):
        # curve_average(f, t, pt) == curve_average(f_stretched, 2t, 2pt) where
        # f_stretched doubles the window isotropically; power-of-two scaling
        # commutes with the float cell arithmetic, so this is bit-exact
        n = 64
        rng = np.random.default_rng(5)
        vals = rng.random((n, n))
        f = ScalarField(GridSpec(n), vals)
        big = ScalarField(GridSpec(2 * n, side=2.0), np.repeat(np.repeat(vals, 2, 0), 2, 1))
        cut = build_cutoff(P24, 64, 0.5)
        for _ in range(20):
            pt = tuple(rng.random(2))
            t = float(rng.uniform(0.01, 0.3))
            v1 = curve_average(f, t, pt, cut)
            v2 = curve_average(big, 2.0 * t, (2.0 * pt[0], 2.0 * pt[1]), cut)
            assert v1 == v2


class TestArcHits:
    def test_full_square_all_witnesses(self):
        cut = build_cutoff(P24, 64, 0.5)
        hits = arc_hits_set(full_square(64), (0.05, 0.05), 0.05, cut)
        assert len(hits) == cut.node_count

    def test_empty_set_no_witnesses(self):
        cut = build_cutoff(P24, 64, 0.5)
        assert len(arc_hits_set(empty_square(64), (0.2, 0.2), 0.1, cut)) == 0

    def test_witness_bounds(self):
        cut = build_cutoff(P24, 64, 0.5)
        a = generate_random(GridSpec(64), 0.5, 9)
        t = 0.07
        hits = arc_hits_set(a, (0.3, 0.2), t, cut)
        assert (hits > P24.eta * t).all() and (hits < P24.theta * t).all()

    def test_single_cell_placement(self):
        # set one cell at the node-5 sample; witnesses are exactly the nodes
        # whose samples land in that cell
        n = 128
        grid = GridSpec(n)
        cut = build_cutoff(P24, 128, 0.5)
        t, pt = 0.13, (0.21, 0.08)
        xs = pt[0] + t * cut.nodes
        ys = pt[1] + t * cut.node_powers
        ix, iy, _ = cells_of_points(grid, xs, ys)
        bm = np.zeros((n, n), dtype=bool)
        bm[iy[5], ix[5]] = True
        a = RasterSet(grid, bm)
        expected = t * cut.nodes[(ix == ix[5]) & (iy == iy[5])]
        got = arc_hits_set(a, pt, t, cut)
        assert np.array_equal(got, expected)
        assert 5 in np.flatnonzero((ix == ix[5]) & (iy == iy[5]))

    def test_positivity_link(self):
        rng = np.random.default_rng(11)
        cut = build_cutoff(P24, 64, 0.5)
        for seed in range(30):
            a = generate_random(GridSpec(64), float(rng.uniform(0.005, 0.3)), seed)
            pt = tuple(rng.random(2))
            t = float(rng.uniform(0.02, 0.4))
            hits = arc_hits_set(a, pt, t, cut)
            avg = curve_average(indicator(a), t, pt, cut)
            assert (len(hits) > 0) == (avg > 0.0)


class TestScaleExtrema:
    def test_carved_slab_inf_zero_with_finer_oracle(self):
        # delete all cells hit from a pinned cell center over a block; the
        # infimum over the block's scale grid there is 0, confirmed by an
        # exhaustive 4x finer scan
        n = 64
        grid = GridSpec(n)
        cut = build_cutoff(P24, 64, 0.5)
        ladder = default_ladder(2)
        region = np.zeros((n, n), dtype=bool)
        region[19, 19] = True
        a = carve_block_arcs(full_square(n), region, ladder, 2, cut)
        pt = (19.5 * grid.h, 19.5 * grid.h)
        c, b = ladder.block(2)[1], ladder.block(2)[0]
        from pinbeam.kernel import t_grid

        ts = t_grid(c, b, grid.h, support_radius(P24))
        avgs = [curve_average(indicator(a), float(t), pt, cut) for t in ts]
        assert min(avgs) == 0.0
        # oracle: exhaustive scan at 4x finer ratio still finds the zero
        fine = np.geomspace(c, b, (len(ts) - 1) * 4 + 1)
        avgs = [curve_average(indicator(a), float(t), pt, cut) for t in fine]
        assert min(avgs) == 0.0


class TestScaleGrid:
    @pytest.mark.parametrize("per_octave", [0, -5])
    def test_fewer_than_one_scale_per_octave_refused(self, per_octave):
        with pytest.raises(ValueError, match=f"need min_per_octave >= 1, got {per_octave}"):
            t_grid(0.25, 0.5, 1 / 64, support_radius(P24), per_octave)


    @pytest.mark.parametrize("c, b, match", [
        (0.25, math.inf, "b < inf"),
        (0.25, math.nan, "b < inf"),
        (0.25, 1e300, "step ratio rounds to 1"),
    ], ids=["inf", "nan", "1e300"])
    def test_unbounded_or_flat_step_refused(self, c, b, match):
        # log(1 + h/(2 b r)) is 0 once b is large enough, which divided by zero
        with pytest.raises(ValueError, match=match):
            t_grid(c, b, 1 / 64, support_radius(P24))

@settings(max_examples=300, deadline=None)
@given(
    x0=st.floats(-3.0, 3.0), y0=st.floats(-3.0, 3.0), side=st.floats(0.3, 4.0),
    n=st.sampled_from([8, 16, 64]),
    params=st.sampled_from([CurveParams(2.0, 1.0, 2.4), CurveParams(1.5, 0.5, 1.7),
                            CurveParams(3.0, 1.0, 1.3), CurveParams(0.5, 1.0, 2.4)]),
    nodes=st.integers(8, 40),
    fracs=st.lists(st.floats(1e-3, 0.5), min_size=1, max_size=6),
    ix=st.integers(0, 63), iy=st.integers(0, 63),
)
def test_cell_shifts_agree_with_float_lookup_off_ties(x0, y0, side, n, params, nodes, fracs,
                                                       ix, iy):
    # beta < 1 cutoffs are used unswapped by the block-hypothesis check
    grid = GridSpec(n, (x0, y0), side)
    cutoff = build_cutoff(params, nodes, 0.5)
    ts = np.array(fracs) * side
    ix, iy = ix % n, iy % n
    sx, sy, starts, ties = cell_shifts(cutoff, ts, grid)
    assert (sx >= 0).all() and (sy >= 0).all()
    assert starts[:, 0].all()
    assert (starts[:, 1:] == ((sx[:, 1:] != sx[:, :-1]) | (sy[:, 1:] != sy[:, :-1]))).all()
    xc, yc = x0 + (ix + 0.5) * grid.h, y0 + (iy + 0.5) * grid.h
    jx, jy, inside = cells_of_points(grid, *sample_points(cutoff, ts, (xc, yc)))
    # every non-tie sample, those at scales with a tie sample among them
    assert ties.shape == sx.shape
    off = ~ties
    assert (((ix + sx < n) & (iy + sy < n)) == inside)[off].all()
    ok = off & inside
    assert (jx == ix + sx)[ok].all() and (jy == iy + sy)[ok].all()


def test_cell_shifts_flags_every_scale_where_rounding_and_lookup_part():
    # Within 6 ulps of each breakpoint t = (m - 1/2) h / u, floor(1/2 + (t / h) u)
    # and the float lookup of the sample can name different cells (or sides
    # of the far edge); the parting sample itself must be a tie, even alone.
    grid = GridSpec(64, (0.1, 0.3), 0.7)
    cutoff = build_cutoff(CurveParams(2.0, 1.0, 2.4), 8, 0.5)
    n, h = grid.n, grid.h
    centres = (np.arange(n) + 0.5) * h
    parted, triples = set(), 0
    for axis, offsets in ((0, cutoff.nodes), (1, cutoff.node_powers)):
        for node, u in enumerate(offsets.tolist()):
            m = np.arange(1, math.floor(u / h + 0.5) + 1)  # scales up to 1
            bits = ((m - 0.5) * h / u).view(np.int64)[:, None] + np.arange(-6, 7)
            ts = bits.view(np.float64).ravel()
            cell = np.arange(n) + np.floor(0.5 + (ts / h)[:, None] * u)
            p = grid.origin[axis] + centres + (ts * u)[:, None]
            q = np.full(p.shape, grid.origin[1 - axis] + h / 2)
            ix, iy, inside = cells_of_points(grid, *((p, q) if axis == 0 else (q, p)))
            looked_up = ix if axis == 0 else iy
            bad = ((cell < n) != inside) | (inside & (looked_up != cell))
            triples += int(bad.sum())
            parted.update((t, node) for t in ts[bad.any(axis=1)].tolist())
    assert triples == 69694 and len({t for t, _ in parted}) == 5822
    assert all(cell_shifts(cutoff, np.array([t]), grid)[3][0, node] for t, node in parted)


class TestAxisSwapCurves:
    def test_curve_point_membership_under_swap(self):
        # a point on v = a u^beta maps to a point on the (1/beta)-curve with
        # coefficient a^(-1/beta)
        rng = np.random.default_rng(21)
        beta = 2.0
        for _ in range(20):
            a_coef = float(rng.uniform(0.5, 4.0))
            u = float(rng.uniform(0.05, 0.5))
            v = a_coef * u**beta
            swapped_coef = a_coef ** (-1.0 / beta)
            assert swapped_coef * v ** (1.0 / beta) == pytest.approx(u, rel=1e-12)

    def test_membership_on_raster(self):
        rng = np.random.default_rng(22)
        a = generate_random(GridSpec(64), 0.4, 2)
        sw = axis_swap(a)
        from pinbeam.raster import sample_values

        for _ in range(20):
            x, y = rng.random(2) * 0.4
            u = float(rng.uniform(0.05, 0.3))
            coef = float(rng.uniform(0.5, 2.0))
            px, py = x + u, y + coef * u * u
            assert sample_values(a, np.array([px]), np.array([py]))[0] == sample_values(
                sw, np.array([py]), np.array([px])
            )[0]
