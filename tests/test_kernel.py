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
    scale_from_param,
    support_radius,
    validate_params,
)
from pinbeam.constructions import carve_block_arcs
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
        a = param_from_scale(t, beta)
        back = scale_from_param(a, beta)
        assert back == pytest.approx(t, rel=1e-12)

    def test_monotone_decreasing_for_beta_above_one(self):
        ts = np.geomspace(1e-3, 1e3, 50)
        vals = [param_from_scale(float(t), 2.5) for t in ts]
        assert all(x > y for x, y in zip(vals, vals[1:]))

    def test_beta_one_rejected(self):
        with pytest.raises(ValueError):
            param_from_scale(0.5, 1.0)
        with pytest.raises(ValueError):
            scale_from_param(0.5, 1.0)


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
