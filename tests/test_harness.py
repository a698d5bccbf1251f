import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
    lp_norm,
    martingale_average,
    measure,
    pairing,
    support_radius,
)
import pinbeam.harness as harness
import pinbeam.smoothing as smoothing
from pinbeam.constructions import dead_strip_set
from pinbeam.cache import LRUCache
from pinbeam.fields import extremal_conv_field
from pinbeam.harness import _block_arcs, decay_sweep
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

    def test_alpha_must_be_positive(self):
        for alpha in (0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="alpha"):
                HarnessConstants.for_density(0.4, alpha=alpha)

    def test_validation(self):
        with pytest.raises(ValueError):
            HarnessConstants(tau=0.0, rho=0.5)
        with pytest.raises(ValueError):
            HarnessConstants(tau=0.1, rho=0.3)
        with pytest.raises(ValueError):
            HarnessConstants(tau=0.1, rho=0.5, p=2.0)

    @pytest.mark.parametrize("tau, p, match", [
        (math.inf, 3.0, "tau must be positive and finite, got inf"),
        (math.nan, 3.0, "tau must be positive and finite, got nan"),
        (0.1, math.inf, "need finite p > 2, got inf"),
    ], ids=["inf-tau", "nan-tau", "inf-p"])
    def test_non_finite_constants_refused(self, tau, p, match):
        with pytest.raises(ValueError, match=match):
            HarnessConstants(tau=tau, rho=0.5, p=p)


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
    def test_tau_above_radius_gives_zero(self):
        d = support_radius(P24)
        assert compute_j0(math.nextafter(d, math.inf), P24) == 0
        assert compute_j0(10.0, P24) == 0

    def test_tau_at_radius_gives_one(self):
        # 2^0 D < D fails and 2^-2 D < D holds, as one ulp below D
        d = support_radius(P24)
        assert compute_j0(d, P24) == 1
        assert compute_j0(math.nextafter(d, 0.0), P24) == 1

    @pytest.mark.parametrize("tau", [1e-308, 5e-324])
    def test_tiny_tau_follows_the_definition(self, tau):
        # D / tau overflows a float here; J0 comes from its defining loop
        d = support_radius(P24)
        j0 = compute_j0(tau, P24)
        assert 2.0 ** (-2 * j0) * d < tau <= 2.0 ** (-2 * (j0 - 1)) * d

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

    @given(n=st.sampled_from([2**k for k in range(2, 10)]), side=st.sampled_from([1.0, 0.75, 3.0]),
           theta=st.floats(1.01, 3.0), beta=st.sampled_from([2.0, 3.0, 1.5]))
    @settings(max_examples=200, deadline=None)
    @example(n=4, side=1.0, theta=2.2, beta=2.0)  # advice N = 8
    @example(n=4, side=1.0, theta=2.5, beta=3.0)  # no resolution
    def test_arcs_span_advice_names_the_least_power_of_two(self, n, side, theta, beta):
        # the advice is the least resolution past n at which the arcs no longer
        # span the window, or none where their reach is the side or more
        params, b = CurveParams(beta, 1.0, theta), 0.125
        assume(theta * b >= side / n)  # the arcs span a cell

        def spans(m):
            try:
                _block_arcs(GridSpec(m, side=side), params, 2, b)
                return False
            except ValueError as exc:
                return "span" in str(exc) or "no resolution" in str(exc)

        try:
            _block_arcs(GridSpec(n, side=side), params, 2, b)
        except ResolutionError as exc:
            m = exc.min_resolution
            assert "span the whole window" in str(exc)
            assert m > n and m & (m - 1) == 0 and not spans(m)
            assert m == 2 * n or spans(m // 2)
        except ValueError as exc:
            assert str(exc) == (f"block 2 arcs reach {theta**beta * b:g}, not below the window "
                                f"side {side:g}: no resolution resolves block 2")
            assert theta**beta * b >= side and spans(2**40)

    def test_deterministic_across_runs(self):
        cut = build_cutoff(P24, 32, 0.5)
        a = generate_random(GridSpec(64), 0.35, 17)
        const = HarnessConstants(tau=_tau_for_block(P24, 2), rho=0.25)
        r1 = compute_decomposition(a, 2, default_ladder(2), cut, const, check_hypothesis=True)
        harness.block_fields.clear()  # recompute every field rather than reuse r1's
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
        reused = _two_rho_flow(a, cut)
        # 12 requests: 2 deviation fields, 2 x 5 decomposition fields
        assert len(engine_runs) == 9

        monkeypatch.setattr(harness, "block_fields", LRUCache(0))
        engine_runs.clear()
        fresh = _two_rho_flow(a, cut)
        assert len(engine_runs) == 12
        assert reused == fresh


def test_harness_dict_stamps_its_schema_and_keeps_null_square_sums():
    assert harness_to_dict([], [], None) == {
        "schema": 2, "decompositions": [], "smallt": [], "sq_sums": None,
    }


def _one_cell_flipped(a):
    bm = a.bitmap.copy()
    bm[5, 7] = not bm[5, 7]
    return RasterSet(a.grid, bm)


def _reweighted(cut):
    w = cut.weights.copy()
    w[len(w) // 2] *= 1.0 + 2.0**-40
    return Cutoff(cut.params, cut.nodes, w, cut.plateau_frac)


def _last_node_moved(cut):
    nodes = cut.nodes.copy()
    nodes[-1] = np.nextafter(nodes[-1], 0.0)
    return Cutoff(cut.params, nodes, cut.weights, cut.plateau_frac)


# Each changes one thing that lhs or D(rho) is computed from.
DETERMINANTS = {
    "one raster cell": lambda k: {**k, "a": _one_cell_flipped(k["a"])},
    "rho": lambda k: {**k, "rho_list": [0.5]},
    "block": lambda k: {**k, "j": 3},
    "a cutoff weight": lambda k: {**k, "cutoff": _reweighted(k["cutoff"])},
    "a cutoff node": lambda k: {**k, "cutoff": _last_node_moved(k["cutoff"])},
    "curve parameters": lambda k: {**k, "cutoff": Cutoff(
        CurveParams(2.0, 1.0, 2.5), k["cutoff"].nodes, k["cutoff"].weights, 0.5)},
    "min_per_octave": lambda k: {**k, "min_per_octave": 8},
    "grid origin": lambda k: {**k, "a": RasterSet(GridSpec(64, (0.5, 0.0)), k["a"].bitmap)},
    "grid side": lambda k: {**k, "a": RasterSet(GridSpec(64, side=2.0), k["a"].bitmap)},
}


class TestBlockFields:
    @pytest.fixture(autouse=True)
    def empty_store(self, monkeypatch):
        """Each test starts from an empty store of the harness's own size."""
        monkeypatch.setattr(harness, "block_fields", LRUCache(harness.block_fields.maxsize))

    def test_repeats_return_the_bytes_of_a_fresh_run(self, monkeypatch, engine_runs):
        a = generate_random(GridSpec(64), 0.4, 29)
        cut = build_cutoff(P24, 32, 0.5)
        ladder = default_ladder(2)
        const = HarnessConstants(tau=_tau_for_block(P24, 2), rho=0.25)
        paired = []
        pair = harness.pairing

        def recording(a, field):
            paired.append(field.values.tobytes())
            return pair(a, field)

        monkeypatch.setattr(harness, "pairing", recording)
        check_smallt_scaling(a, 2, ladder, [0.25], cut)
        first = compute_decomposition(a, 2, ladder, cut, const)  # term 4 is D(0.25)
        second = compute_decomposition(a, 2, ladder, cut, const)  # and lhs repeats
        assert len(engine_runs) == 1 + 4 + 3
        reused = list(paired)
        harness.block_fields.clear()
        paired.clear()
        fresh = compute_decomposition(a, 2, ladder, cut, const)
        assert len(engine_runs) == 8 + 5
        # lhs, terms 1-4 and the tail, paired in that order
        assert reused[:6] == reused[6:] == paired
        assert first == second == fresh

    @pytest.mark.parametrize("change", list(DETERMINANTS))
    def test_each_determinant_computes_afresh(self, engine_runs, change):
        kwargs = dict(a=generate_random(GridSpec(64), 0.4, 31), j=2, ladder=default_ladder(3),
                      rho_list=[0.25], cutoff=build_cutoff(P24, 32, 0.5), min_per_octave=16)
        first = check_smallt_scaling(**kwargs)
        assert check_smallt_scaling(**kwargs) == first
        assert len(engine_runs) == 1
        check_smallt_scaling(**DETERMINANTS[change](kwargs))
        assert len(engine_runs) == 2


class TestCallOrder:
    def test_kept_fields_do_not_depend_on_call_order(self, monkeypatch, engine_runs):
        # lhs and D(rho) are built in one place, so whichever call fills the store
        # keeps the same bits
        monkeypatch.setattr(harness, "block_fields", LRUCache(harness.block_fields.maxsize))
        a = generate_random(GridSpec(64), 0.4, 37)
        cut = build_cutoff(P24, 32, 0.5)
        ladder, rhos = default_ladder(2), [0.25, 0.5]
        paired = []
        pair = harness.pairing

        def recording(a, field):
            paired.append(field.values.tobytes())
            return pair(a, field)

        monkeypatch.setattr(harness, "pairing", recording)

        def decompositions():
            return [compute_decomposition(a, 2, ladder, cut, HarnessConstants(
                tau=_tau_for_block(P24, 2), rho=rho)) for rho in rhos]

        def smallt():
            return check_smallt_scaling(a, 2, ladder, rhos, cut)

        outcomes = []
        for first, second in ((decompositions, smallt), (smallt, decompositions)):
            harness.block_fields.clear()
            paired.clear()
            engine_runs.clear()
            results = {f.__name__: f() for f in (first, second)}
            outcomes.append((results, list(paired), len(engine_runs)))
        assert outcomes[0] == outcomes[1]
        # lhs, then D(rho) and terms 1-3 per rho
        assert outcomes[0][2] == 1 + 2 * 4


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

    def test_one_call_equals_per_block_calls_when_radii_capped(self):
        # the reduce flow's shape: depth 3, rho = 1/4, every s_hi radius is
        # n - 1, so every block keeps its transform length and its bytes
        const = HarnessConstants(tau=0.1, rho=0.25, p=3.0)
        ladder = default_ladder(3)
        for n, seed in ((256, 1), (256, 2), (512, 3)):
            a = generate_random(GridSpec(n), 0.4, seed)
            assert {s_hi_radius(a.grid, ladder, j, const.rho) for j in (2, 3)} == {n - 1}
            got = compute_sq_sums(a, ladder, 1, 3, const)
            assert got == per_block_sq_sums(a, ladder, 1, 3, const)
            assert repr(got) == repr(per_block_sq_sums(a, ladder, 1, 3, const))

    def test_one_call_within_1e12_when_radii_differ(self):
        # at N=512, rho = 1/2, block 4's s_hi radius is 400 cells against
        # block 3's 511: one call transforms block 4 at L = 1024, not 924
        const = HarnessConstants(tau=0.1, rho=0.5, p=3.0)
        ladder = default_ladder(4)
        a = generate_random(GridSpec(512), 0.4, 4)
        assert [s_hi_radius(a.grid, ladder, j, const.rho) for j in (3, 4)] == [511, 400]
        got = compute_sq_sums(a, ladder, 2, 4, const)
        want = per_block_sq_sums(a, ladder, 2, 4, const)
        assert got.selected_j == want.selected_j and got.j_range == want.j_range
        for name in ("sum_poisson", "sum_martingale", "pigeonhole_threshold",
                     "k_poisson", "k_martingale", "per_j_poisson", "per_j_martingale"):
            for x, y in zip(np.atleast_1d(getattr(got, name)), np.atleast_1d(getattr(want, name))):
                assert abs(x - y) <= 1e-12 * abs(y), name


def s_hi_radius(grid, ladder, j, rho):
    return smoothing._kernel_radius(grid, harness._block_scales(grid, ladder, j, rho)[3])


def per_block_sq_sums(a, ladder, j0, j_hi, constants):
    """compute_sq_sums as it was: one poisson_smooth_multi call per block."""
    grid = a.grid
    g = complement_in_window(a)
    p, rho = constants.p, constants.rho
    s1, s2 = [], []
    for j in range(j0 + 1, j_hi + 1):
        _, _, s_lo, s_hi, k_j, _ = harness._block_scales(grid, ladder, j, rho)
        p_lo, p_hi = smoothing.poisson_smooth_multi(g, [s_lo, s_hi])
        eg = martingale_average(g, k_j)
        s1.append(lp_norm(ScalarField(grid, p_hi.values - p_lo.values), p) ** p)
        s2.append(lp_norm(ScalarField(grid, p_lo.values - eg.values), p) ** p)
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
    return harness.SqSumReport(
        rho=rho, j_range=(j0 + 1, j_hi), sum_poisson=sum1, sum_martingale=sum2,
        per_j_poisson=tuple(s1), per_j_martingale=tuple(s2),
        selected_j=selected, pigeonhole_threshold=thresh,
        k_poisson=k1, k_martingale=k2,
    )


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
