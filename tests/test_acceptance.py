"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances are pinned here; instance parameters (resolutions, scale blocks,
smoothing splits, margins) are chosen so every requested scale is resolvable
on the stated grids.
"""

import json
import math

import numpy as np
import pytest

from pinbeam import (
    BeamCertificate,
    CurveParams,
    ExhaustionReport,
    GridSpec,
    HarnessConstants,
    SamplingConfig,
    ScalarField,
    build_cutoff,
    check_smallt_scaling,
    compute_decomposition,
    compute_j0,
    curve_average,
    default_ladder,
    dyadic_round_down,
    dyadic_round_up,
    find_dense_window,
    generate_random,
    indicator,
    j_bound,
    martingale_average,
    martingale_difference,
    measure,
    normalize_window,
    pairing,
    param_from_scale,
    poisson_smooth,
    prospect,
    verify_certificate,
)
from pinbeam.constructions import dead_strip_set
from pinbeam.harness import decay_sweep
from pinbeam.kernel import support_radius
from pinbeam.raster import RasterSet, sample_values
from pinbeam.reports import decay_csv

from test_prospect import oracle_scan

P24 = CurveParams(2.0, 1.0, 2.4)


def report(num: int, ok: bool, detail: str) -> None:
    print(f"\n[ACCEPTANCE] criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_normalization_and_boundary_identity():
    cut = build_cutoff(P24, 128, 0.5)
    wsum_err = abs(math.fsum(cut.weights) - 1.0)
    ok = wsum_err <= 1e-12

    tau = 0.2
    bound = tau / support_radius(P24)
    ones = ScalarField(GridSpec(256), np.ones((256, 256)))
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        pt = tuple(tau + (1 - 2 * tau) * rng.random(2))
        t = float(rng.uniform(0.2, 1.0)) * bound
        worst = max(worst, abs(curve_average(ones, t, pt, cut) - 1.0))
    ok = ok and worst <= 1e-9
    report(1, ok, f"weight-sum err {wsum_err:.2e} (<=1e-12), worst |avg-1| {worst:.2e} (<=1e-9)")


def test_criterion_02_martingale_algebra():
    n = 128
    grid = GridSpec(n)
    rng = np.random.default_rng(202)
    worst_int, worst_orth, worst_tel = 0.0, 0.0, 0.0
    bit_exact = True
    for _ in range(100):
        h = ScalarField(grid, rng.random((n, n)))
        e3 = martingale_average(h, 3)
        bit_exact &= bool((martingale_average(e3, 3).values == e3.values).all())
        e2 = martingale_average(h, 2)
        e5 = martingale_average(h, 5)
        bit_exact &= bool((martingale_average(e5, 2).values == e2.values).all())
        bit_exact &= bool((martingale_average(e2, 5).values == e2.values).all())
        worst_int = max(
            worst_int,
            abs(float(e3.values.sum() - h.values.sum())) * grid.h**2,
        )
        d2 = martingale_difference(h, 2)
        d5 = martingale_difference(h, 5)
        worst_orth = max(worst_orth, abs(float((d2.values * d5.values).sum())) * grid.h**2)
        acc = e2.values.copy()
        for m in range(4):
            acc += martingale_difference(h, 2 + m).values
        worst_tel = max(worst_tel, float(np.abs(acc - martingale_average(h, 6).values).max()))
    ok = bit_exact and worst_int <= 1e-12 and worst_orth <= 1e-10 and worst_tel <= 1e-12
    report(2, ok, f"idempotence/composition bit-exact={bit_exact}, integral {worst_int:.2e}"
                  f" (<=1e-12), orthogonality {worst_orth:.2e} (<=1e-10),"
                  f" telescoping {worst_tel:.2e} (<=1e-12), 100 fields at N=128")


def test_criterion_03_est_chain():
    n = 128
    grid = GridSpec(n)
    ones = ScalarField(grid, np.ones((n, n)))
    rng = np.random.default_rng(303)
    worst_cs, worst_est1 = 0.0, 0.0
    c0_min = math.inf
    for seed in range(100):
        a = generate_random(grid, float(rng.uniform(0.05, 0.95)), seed)
        f = indicator(a)
        f_int = measure(a)
        k = int(rng.integers(0, 8))
        cs_slack = pairing(a, martingale_average(f, k)) - f_int**2
        worst_cs = min(worst_cs, cs_slack) if False else max(worst_cs, -cs_slack)
        s = float(rng.uniform(grid.h, 2.0))
        est1_excess = pairing(a, poisson_smooth(ones, s)) - f_int
        worst_est1 = max(worst_est1, est1_excess)
        c0_min = min(c0_min, pairing(a, poisson_smooth(f, s)) / f_int**2)
    ok = worst_cs <= 1e-12 and worst_est1 <= 1e-9 and c0_min > 0
    report(3, ok, f"Cauchy-Schwarz deficit {worst_cs:.2e} (<=1e-12), smoothed-window "
                  f"excess {worst_est1:.2e} (<=1e-9), empirical c0 >= {c0_min:.4f} > 0,"
                  f" 100 instances")


def _tau_for_block(params: CurveParams, j: int) -> float:
    d = support_radius(params)
    return d * 2.0 ** (2 - 2 * j) * 1.001


def test_criterion_04_decomposition_inequality():
    n = 256
    grid = GridSpec(n)
    cut = build_cutoff(P24, 64, 0.5)
    combos = [(2, 0.25), (3, 0.5), (3, 0.25), (2, 0.125)]
    deltas = [0.2, 0.3, 0.4, 0.5]
    violations = 0
    worst_slack = math.inf
    for i in range(50):
        j, rho = combos[i % len(combos)]
        a = generate_random(grid, deltas[i % len(deltas)], 400 + i)
        const = HarnessConstants(tau=_tau_for_block(P24, j), rho=rho)
        rep = compute_decomposition(a, j, default_ladder(j), cut, const)
        if not rep.triangle_ok:
            violations += 1
        worst_slack = min(worst_slack, rep.triangle_slack)
    ok = violations == 0
    report(4, ok, f"{violations} violations over 50 (A, j, rho) instances at N=256, "
                  f"min slack {worst_slack:.3e} (tolerance -1e-9)")


def test_criterion_05_taubelow_on_constructed_instances():
    n, j, tau, rho = 1024, 3, 0.1, 2.0**-4
    ladder = default_ladder(j)
    fails = []
    instances = [(theta, phase) for theta in (1.04, 1.05, 1.06) for phase in (0, 3, 7)]
    instances.append((1.05, 11))
    min_margin = math.inf
    for theta, phase in instances[:10]:
        params = CurveParams(2.0, 1.0, theta)
        assert compute_j0(tau, params) < j
        a = dead_strip_set(n, params, ladder, j, phase_cells=phase)
        cutoff = build_cutoff(params, 64, 0.5)
        const = HarnessConstants(tau=tau, rho=rho)
        rep = compute_decomposition(a, j, ladder, cutoff, const, check_hypothesis=True)
        bound = rep.integral_f - 4 * tau
        if not (rep.hypothesis_holds and rep.lhs >= bound - 1e-9):
            fails.append((theta, phase))
        assert bound > 0.2  # non-vacuous instances
        min_margin = min(min_margin, rep.lhs - bound)
    ok = not fails
    report(5, ok, f"10 strip sets at N=1024: hypothesis holds and lhs >= measure - 4*tau"
                  f" - 1e-9 on all; min margin {min_margin:.4f}; failures: {fails}")


def test_criterion_06_smallt_linear_scaling():
    n, j = 512, 4
    grid = GridSpec(n)
    cut = build_cutoff(P24, 64, 0.5)
    ladder = default_ladder(j)
    rhos = [2.0**-3, 2.0**-4, 2.0**-5]
    spreads = []
    for seed in range(5):
        a = generate_random(grid, 0.4, 600 + seed)
        rep = check_smallt_scaling(a, j, ladder, rhos, cut)
        spreads.append(rep.ratio_spread)
    ok = all(s <= 2.0 for s in spreads)
    report(6, ok, f"s(rho)/rho spreads {[f'{s:.3f}' for s in spreads]} (each <= 2.0), "
                  f"rho in {{1/8,1/16,1/32}} at N=512, 5 random sets")


def test_criterion_07_prospector_soundness(tmp_path):
    n = 512
    grid = GridSpec(n)
    systems = [
        (CurveParams(2.0, 1.0, 2.4), 17),
        (CurveParams(3.0, 1.0, 1.9), 17),
        (CurveParams(0.5, 1.0, 2.4), 16),
    ]
    deltas = [0.2, 0.3, 0.4, 0.5]
    sampling = SamplingConfig(nodes=64)
    failures = []
    run = 0
    for params, count in systems:
        for k in range(count):
            a = generate_random(grid, deltas[run % 4], 700 + run)
            outcome = prospect(a, default_ladder(2), params, sampling)
            if not isinstance(outcome, BeamCertificate):
                failures.append((params.beta, run, "exhaustion"))
            else:
                res = verify_certificate(a, outcome, 4, sampling)
                if not res.ok:
                    failures.append((params.beta, run, res.failures[:1]))
                if params.beta < 1:
                    for t, u, hit_y in zip(outcome.t, outcome.u, outcome.hit_y):
                        if not (params.eta * t < u < params.theta * t):
                            failures.append((params.beta, run, "witness bound"))
                            break
                        a_k = param_from_scale(t, params.beta)
                        hy = outcome.point[1] + a_k * u**params.beta
                        if abs(hy - hit_y) > 1e-9 * max(1.0, abs(hy)):
                            failures.append((params.beta, run, "conversion"))
                            break
            run += 1
    ok = not failures
    report(7, ok, f"50 runs at N=512 (beta in {{2, 3, 1/2}}): all certificates verified "
                  f"at refinement 4; failures: {failures}")


def test_criterion_08_prospector_vs_exhaustive_oracle():
    n = 64
    grid = GridSpec(n)
    deltas = [0.005, 0.01, 0.03, 0.08, 0.2]
    sampling = SamplingConfig(nodes=32)
    mismatches = []
    outcomes = {"certificate": 0, "exhaustion": 0}
    for i in range(50):
        a = generate_random(grid, deltas[i % len(deltas)], 800 + i)
        got = prospect(a, default_ladder(2), P24, sampling)
        want = oracle_scan(a, default_ladder(2), P24, nodes=32)
        if want[0] == "certificate":
            outcomes["certificate"] += 1
            if not (
                isinstance(got, BeamCertificate)
                and got.point == want[1]
                and got.j == want[2]
            ):
                mismatches.append(i)
        else:
            outcomes["exhaustion"] += 1
            if not isinstance(got, ExhaustionReport):
                mismatches.append(i)
    ok = not mismatches
    report(8, ok, f"50 sets at N=64 vs brute-force scan: outcomes {outcomes}, "
                  f"mismatches {mismatches}")


def test_criterion_09_interval_arithmetic():
    beta = 2.0
    ok = True
    details = []
    for j in range(1, 9):
        b, c = default_ladder(j).block(j)
        lo, hi = param_from_scale(b, beta), param_from_scale(c, beta)
        ok &= lo == 2.0 ** ((beta - 1) * (2 * j - 1))
        ok &= hi == 2.0 ** ((beta - 1) * 2 * j)
        width = hi - lo
        ok &= width >= 2.0 ** (beta - 1) - 1.0
        ok &= width == lo * (2.0 ** (beta - 1) - 1.0)  # equality at the growth factor
    report(9, ok, "default-ladder coefficient intervals match 2^((beta-1)(2j-1)), "
                  "2^((beta-1)2j) exactly for beta=2, j=1..8; width identity exact")


def test_criterion_10_empirical_sweep(tmp_path):
    n = 512
    grid = GridSpec(n)
    sampling = SamplingConfig(nodes=64)
    theta_over_h = P24.theta * n
    j_max_resolvable = int((math.log2(theta_over_h) + 1) // 2)
    shortfalls = []
    total = 0
    for delta in (0.5, 0.3, 0.2):
        bound = j_bound(delta, 1.0)
        depth = min(bound, j_max_resolvable)
        for k in range(20):
            a = generate_random(grid, delta, 1000 + total)
            outcome = prospect(a, default_ladder(depth), P24, sampling)
            if isinstance(outcome, BeamCertificate) and outcome.j <= bound:
                pass
            else:
                tag = f"delta={delta}-run={k}"
                path = tmp_path / f"shortfall-{tag}.json"
                from pinbeam.reports import exhaustion_to_dict, write_json

                if isinstance(outcome, ExhaustionReport):
                    write_json(path, exhaustion_to_dict(outcome))
                shortfalls.append(tag)
            total += 1
    rate = 1.0 - len(shortfalls) / total
    ok = rate >= 0.95
    report(10, ok, f"certificates with j <= floor(delta^-1)+1 in {rate:.1%} of {total} runs "
                   f"(need >= 95%); shortfalls logged: {shortfalls or 'none'}")


def test_criterion_11_density_reduction_and_rounding():
    # positive-density set on a 4096-wide window
    n_big = 4096
    big_grid = GridSpec(n_big, origin=(-8.0, -8.0), side=16.0)
    rng = np.random.default_rng(1111)
    bitmap = rng.random((n_big, n_big)) < 0.05
    # one 512-cell patch of high but non-trivial density (2R = 2.0)
    bitmap[1024:1536, 2048:2560] = rng.random((512, 512)) < 0.8
    big = RasterSet(big_grid, bitmap)

    res = find_dense_window(big, 0.4, [1.0, 0.5])
    ok = res.found
    a1 = normalize_window(big, res.r, res.center)
    ok = ok and measure(a1) == res.ratio and measure(a1) >= 0.4
    cert = prospect(a1, default_ladder(2), P24, SamplingConfig(nodes=64))
    ok = ok and isinstance(cert, BeamCertificate)
    ok = ok and verify_certificate(a1, cert, 2, SamplingConfig(nodes=64)).ok

    rounding_ok = True
    vals = np.exp(rng.uniform(np.log(1e-9), np.log(1e9), size=1000))
    for x in vals:
        up, down = dyadic_round_up(float(x)), dyadic_round_down(float(x))
        rounding_ok &= down <= x <= up <= 2 * down
    ok = ok and rounding_ok
    report(11, ok, f"dense window R={res.r} ratio={res.ratio:.4f} -> unit set measure "
                   f"{measure(a1):.4f} >= 0.4 exactly; beam certified and verified; "
                   f"dyadic rounding bracketing holds on 1000 samples: {rounding_ok}")


def test_criterion_12_empirical_decay(tmp_path):
    n, i = 256, 7
    grid = GridSpec(n)
    params = CurveParams(2.0, 1.0, 1.5)
    cut = build_cutoff(params, 64, 0.5)
    gaps = range(7)
    all_rows = []
    alphas = []
    csv_rows = []
    for seed in range(20):
        rng = np.random.default_rng(1200 + seed)
        noise = ScalarField(grid, rng.random((n, n)))
        detail = ScalarField(grid, noise.values - martingale_average(noise, i).values)
        rows, alpha = decay_sweep(detail, i, gaps, 3.0, cut)
        alphas.append(alpha)
        all_rows.append([r for _, r in rows])
        csv_rows.extend(rows)
    mean_ratios = np.mean(all_rows, axis=0)
    slope = np.polyfit(np.arange(7), np.log2(mean_ratios), 1)[0]
    fitted_alpha = -float(slope)
    csv_text = decay_csv(csv_rows, 3.0, 1200)
    (tmp_path / "decay.csv").write_text(csv_text)
    n_rows = len(csv_text.strip().splitlines()) - 1
    ok = fitted_alpha > 0.0 and n_rows == 20 * 7
    report(12, ok, f"fitted decay exponent {fitted_alpha:.3f} > 0 over gaps 0..6, "
                   f"20 mean-zero fields at N=256 (per-field alpha in "
                   f"[{min(alphas):.3f}, {max(alphas):.3f}]); CSV rows {n_rows}")
