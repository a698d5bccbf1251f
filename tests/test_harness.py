import json
import math

import numpy as np
import pytest

from pinbeam import (
    CurveParams,
    Cutoff,
    GridSpec,
    HarnessConstants,
    RasterSet,
    ScalarField,
    arc_hits_set,
    build_cutoff,
    check_smallt_scaling,
    compute_decomposition,
    compute_j0,
    compute_sq_sums,
    curve_average,
    empirical_decay,
    generate_random,
    indicator,
    martingale_average,
    measure,
    pairing,
    support_radius,
)
import pinbeam.harness as harness
from pinbeam.constructions import dead_strip_set
from pinbeam.fields import extremal_conv_field, field_cache
from pinbeam.harness import decay_sweep
from pinbeam.kernel import t_grid
from pinbeam.prospect import ResolutionError, default_ladder
from pinbeam.raster import complement_in_window
from pinbeam.reports import grid_csv, harness_to_dict

from conftest import empty_square, full_square

P24 = CurveParams(2.0, 1.0, 2.4)


class TestConstants:
    def test_default_rules(self):
        c = HarnessConstants.for_density(0.4)
        assert c.tau == pytest.approx(0.25 * 0.4**2 / 8.0, rel=1e-12)
        assert c.rho <= min(0.4 ** (2 / 0.1), 0.4**2) / 8.0
        assert 2 * c.rho > min(0.4 ** (2 / 0.1), 0.4**2) / 8.0  # largest such dyadic
        assert math.frexp(c.rho)[0] == 0.5  # dyadic

    def test_validation(self):
        with pytest.raises(ValueError):
            HarnessConstants(tau=0.0, rho=0.5)
        with pytest.raises(ValueError):
            HarnessConstants(tau=0.1, rho=0.3)
        with pytest.raises(ValueError):
            HarnessConstants(tau=0.1, rho=0.5, p=2.0)


class TestPairing:
    def test_full_window_constant(self):
        ones = ScalarField(GridSpec(32), np.ones((32, 32)))
        assert pairing(full_square(32), ones) == pytest.approx(1.0, abs=1e-12)

    def test_empty_set(self):
        ones = ScalarField(GridSpec(32), np.ones((32, 32)))
        assert pairing(empty_square(32), ones) == 0.0

    def test_bilinear_in_field(self):
        rng = np.random.default_rng(0)
        a = generate_random(GridSpec(32), 0.4, 1)
        u = ScalarField(GridSpec(32), rng.random((32, 32)))
        v = ScalarField(GridSpec(32), rng.random((32, 32)))
        s = ScalarField(GridSpec(32), 2.0 * u.values + v.values)
        assert pairing(a, s) == pytest.approx(2 * pairing(a, u) + pairing(a, v), rel=1e-12)

    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError):
            pairing(full_square(32), ScalarField(GridSpec(64), np.zeros((64, 64))))
        with pytest.raises(ValueError):
            pairing(full_square(32), ScalarField(GridSpec(32, side=2.0), np.zeros((32, 32))))


class TestComputeJ0:
    def test_tau_at_least_radius_gives_zero(self):
        d = math.sqrt(2.4**2 + 2.4**4)
        assert compute_j0(d, P24) == 0
        assert compute_j0(10.0, P24) == 0

    def test_reference_value(self):
        # D = sqrt(5.76 + 33.1776) = 6.24, tau = 0.1: ceil(log2(62.4)/2) = 3
        assert compute_j0(0.1, P24) == 3

    def test_defining_property(self):
        d = math.sqrt(2.4**2 + 2.4**4)
        for tau in (0.03, 0.1, 0.7, 2.0):
            j0 = compute_j0(tau, P24)
            assert 2.0 ** (-2 * j0) * d < tau or j0 == 0
            if j0 > 0:
                assert 2.0 ** (-2 * (j0 - 1)) * d >= tau

    def test_margin_guarantee(self):
        # for 100 random points of the tau-margin and t = c_{J0+1}, whole
        # arcs stay inside, so the window average is exactly the unit mass
        tau = 0.1
        j0 = compute_j0(tau, P24)
        t = 2.0 ** (-2 * (j0 + 1))
        cut = build_cutoff(P24, 128, 0.5)
        ones = ScalarField(GridSpec(256), np.ones((256, 256)))
        rng = np.random.default_rng(4)
        for _ in range(100):
            pt = tuple(tau + (1 - 2 * tau) * rng.random(2))
            assert curve_average(ones, t, pt, cut) == pytest.approx(1.0, abs=1e-9)


def _tau_for_block(params: CurveParams, j: int) -> float:
    # smallest margin making J0 = j - 1, so block j is admissible
    d = math.sqrt(params.theta**2 + params.theta ** (2 * params.beta))
    return d * 2.0 ** (2 - 2 * j) * 1.001


class TestDecomposition:
    def test_full_window_all_terms_vanish(self):
        a = full_square(64)
        cut = build_cutoff(P24, 64, 0.5)
        const = HarnessConstants(tau=_tau_for_block(P24, 2), rho=0.25)
        rep = compute_decomposition(a, 2, default_ladder(2), cut, const)
        for v in (rep.lhs, rep.term1, rep.term2, rep.term3, rep.term4, rep.tail):
            assert abs(v) < 1e-9
        assert rep.triangle_ok

    def test_triangle_inequality_random_instances(self):
        cut = build_cutoff(P24, 32, 0.5)
        for seed in range(8):
            a = generate_random(GridSpec(64), 0.2 + 0.08 * seed, seed)
            const = HarnessConstants(tau=_tau_for_block(P24, 2), rho=0.25)
            rep = compute_decomposition(a, 2, default_ladder(2), cut, const)
            assert rep.triangle_ok, rep
            assert rep.lhs <= rep.terms_total + 1e-9

    def test_block_must_exceed_j0(self):
        cut = build_cutoff(P24, 32, 0.5)
        const = HarnessConstants(tau=0.1, rho=0.25)  # J0 = 3
        with pytest.raises(ValueError, match="J0"):
            compute_decomposition(full_square(64), 2, default_ladder(2), cut, const)

    def test_unresolvable_scale_names_minimal_resolution(self):
        cut = build_cutoff(P24, 32, 0.5)
        const = HarnessConstants(tau=_tau_for_block(P24, 3), rho=2.0**-4)
        with pytest.raises(ResolutionError) as exc:
            compute_decomposition(generate_random(GridSpec(64), 0.4, 0), 3,
                                  default_ladder(3), cut, const)
        assert exc.value.min_resolution == 2**10

    def test_deterministic_across_runs(self):
        cut = build_cutoff(P24, 32, 0.5)
        a = generate_random(GridSpec(64), 0.35, 17)
        const = HarnessConstants(tau=_tau_for_block(P24, 2), rho=0.25)
        r1 = compute_decomposition(a, 2, default_ladder(2), cut, const, check_hypothesis=True)
        field_cache.clear()  # recompute every field rather than reuse r1's
        r2 = compute_decomposition(a, 2, default_ladder(2), cut, const, check_hypothesis=True)
        assert r1 == r2

    def test_taubelow_on_strip_instance(self):
        # strips kill block 2 at every set point, so the paired supremum
        # reaches the measure minus the margin allowance
        n, j = 256, 2
        params = CurveParams(2.0, 1.0, 1.1)
        ladder = default_ladder(j)
        a = dead_strip_set(n, params, ladder, j)
        cut = build_cutoff(params, 64, 0.5)
        const = HarnessConstants(tau=_tau_for_block(params, j), rho=2.0**-4)
        rep = compute_decomposition(a, j, ladder, cut, const, check_hypothesis=True)
        assert rep.hypothesis_holds
        assert rep.taubelow_ok
        assert rep.lhs >= rep.integral_f - 4 * const.tau - 1e-9
        assert rep.lhs > 0.01  # genuinely positive pairing, not vacuous

    def test_far_edge_witness_breaks_the_hypothesis(self):
        # At t = 1/8 node 72/32 puts the sample of cell (11, 2) exactly on
        # the window's far edge x = 1, inside set cell (15, 12) by the one
        # convention.  With that witness the cell meets the set at every
        # block scale, so the hypothesis fails.
        nodes = np.array([48, 49, 50, 55, 66, 72, 74]) / 32
        cut = Cutoff(P24, nodes, np.full(nodes.size, 1.0 / nodes.size), 0.5)
        grid = GridSpec(16)
        bm = generate_random(grid, 0.02, 18803).bitmap.copy()
        bm[[2, 7, 8, 9, 10, 12, 13, 15], 15] = True
        a = RasterSet(grid, bm)
        ladder = default_ladder(2)
        b, c = ladder.block(2)
        pt = ((11 + 0.5) * grid.h, (2 + 0.5) * grid.h)
        assert bm[2, 11]
        assert pt[0] + (1.0 / 8) * (72 / 32) == 1.0 and bm[12, 15]
        for t in t_grid(c, b, grid.h, support_radius(P24)):
            assert arc_hits_set(a, pt, t, cut).size > 0
        const = HarnessConstants(tau=1.7, rho=1.0)
        rep = compute_decomposition(a, 2, ladder, cut, const, check_hypothesis=True)
        assert rep.hypothesis_holds is False


def _two_rho_flow(a, cut):
    """The harness flow for one block: small-t check, then one decomposition per rho."""
    j, ladder = 2, default_ladder(2)
    smallt = check_smallt_scaling(a, j, ladder, [0.25, 0.5], cut)
    decs, rows = [], []
    for rho, s_val, s_ratio in smallt.rows:
        const = HarnessConstants(tau=_tau_for_block(P24, j), rho=rho)
        rep = compute_decomposition(a, j, ladder, cut, const, check_hypothesis=True)
        decs.append(rep)
        rows.append({
            "j": j, "rho": rho, "lhs": rep.lhs,
            "term1": rep.term1, "term2": rep.term2, "term3": rep.term3,
            "term4": rep.term4, "tail": rep.tail,
            "triangle_ok": rep.triangle_ok, "triangle_slack": rep.triangle_slack,
            "smallt_s": s_val, "smallt_s_over_rho": s_ratio,
        })
    return json.dumps(harness_to_dict(decs, [smallt], None), indent=2), grid_csv(rows)


class TestFieldReuse:
    def test_two_rho_flow_computes_nine_fields_with_unchanged_outputs(
        self, monkeypatch, engine_runs
    ):
        a = generate_random(GridSpec(64), 0.4, 21)
        cut = build_cutoff(P24, 32, 0.5)
        field_cache.clear()
        reused = _two_rho_flow(a, cut)
        # 12 requests: 2 deviation fields, 2 x 5 decomposition fields
        assert len(engine_runs) == 9

        field = harness.extremal_conv_field

        def uncached(*args, **kwargs):
            field_cache.clear()
            return field(*args, **kwargs)

        monkeypatch.setattr(harness, "extremal_conv_field", uncached)
        engine_runs.clear()
        fresh = _two_rho_flow(a, cut)
        assert len(engine_runs) == 12
        assert reused == fresh


class TestSmallT:
    def test_full_square_complement_zero(self):
        cut = build_cutoff(P24, 32, 0.5)
        rep = check_smallt_scaling(full_square(64), 2, default_ladder(2),
                                   [0.5, 0.25], cut)
        for _, s, _ in rep.rows:
            assert s == 0.0

    def test_linear_scaling_spread(self):
        cut = build_cutoff(P24, 64, 0.5)
        a = generate_random(GridSpec(256), 0.4, 7)
        rep = check_smallt_scaling(a, 3, default_ladder(3),
                                   [2.0**-3, 2.0**-4, 2.0**-5], cut)
        assert rep.ratio_spread <= 2.0

    def test_non_dyadic_rho_rejected(self):
        cut = build_cutoff(P24, 32, 0.5)
        with pytest.raises(ValueError, match="power of two"):
            check_smallt_scaling(full_square(64), 2, default_ladder(2), [0.3], cut)


class TestSqSums:
    def test_full_window_zero_sums(self):
        const = HarnessConstants(tau=0.1, rho=0.25)
        rep = compute_sq_sums(full_square(256), default_ladder(3), 0, 3, const)
        assert rep.sum_poisson == 0.0 and rep.sum_martingale == 0.0
        assert rep.selected_j == 1

    def test_pigeonhole_selection_bound(self):
        const = HarnessConstants(tau=0.1, rho=0.25, p=3.0)
        a = generate_random(GridSpec(256), 0.35, 3)
        rep = compute_sq_sums(a, default_ladder(3), 0, 3, const)
        k = rep.selected_j - rep.j_range[0]
        assert rep.per_j_poisson[k] <= rep.pigeonhole_threshold
        assert rep.per_j_martingale[k] <= rep.pigeonhole_threshold
        assert rep.pigeonhole_threshold == 2.0 * max(rep.sum_poisson, rep.sum_martingale) / 3
        assert rep.k_poisson > 0 and rep.k_martingale > 0

    def test_range_validation(self):
        const = HarnessConstants(tau=0.1, rho=0.25)
        with pytest.raises(ValueError):
            compute_sq_sums(full_square(64), default_ladder(2), 2, 2, const)


@pytest.fixture(scope="module")
def detail_field():
    n, i = 128, 6
    rng = np.random.default_rng(5)
    noise = ScalarField(GridSpec(n), rng.random((n, n)))
    return ScalarField(GridSpec(n), noise.values - martingale_average(noise, i).values), i


class TestEmpiricalDecay:
    def test_zero_field_rejected(self):
        cut = build_cutoff(P24, 32, 0.5)
        zero = ScalarField(GridSpec(64), np.zeros((64, 64)))
        with pytest.raises(ValueError, match="undefined ratio"):
            empirical_decay(zero, 5, 3, 3.0, cut)

    def test_nonzero_mean_rejected(self):
        cut = build_cutoff(P24, 32, 0.5)
        ones = ScalarField(GridSpec(64), np.ones((64, 64)))
        with pytest.raises(ValueError, match="E_i h = 0"):
            empirical_decay(ones, 5, 3, 3.0, cut)

    def test_gap_sign_enforced(self, detail_field):
        h, i = detail_field
        cut = build_cutoff(P24, 32, 0.5)
        with pytest.raises(ValueError):
            empirical_decay(h, i, i + 1, 3.0, cut)

    def test_octave_sup_dominated_by_full_range_sup(self, detail_field):
        # the per-octave maximal ratio never exceeds the ratio of the
        # maximal operator over all block scales down to 2^-i
        h, i = detail_field
        cut = build_cutoff(CurveParams(2.0, 1.0, 1.5), 32, 0.5)
        from pinbeam.smoothing import lp_norm

        full_sup = extremal_conv_field(
            h.values, h.grid, cut, (2.0**-i, 1.0), "absmax"
        )
        full_ratio = lp_norm(ScalarField(h.grid, full_sup), 3.0) / lp_norm(h, 3.0)
        for n in (i, i - 2, i - 4):
            r = empirical_decay(h, i, n, 3.0, cut)
            assert np.isfinite(r)
            assert r <= full_ratio + 1e-12

    def test_sweep_shows_decay_trend(self, detail_field):
        h, i = detail_field
        cut = build_cutoff(CurveParams(2.0, 1.0, 1.5), 32, 0.5)
        rows, alpha = decay_sweep(h, i, range(5), 3.0, cut)
        assert len(rows) == 5
        assert alpha > 0.0
        assert rows[-1][1] < rows[0][1]
