import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import fft as sfft
from scipy.signal import convolve as direct_convolve

from pinbeam import (
    GridSpec,
    ScalarField,
    generate_random,
    indicator,
    integral,
    lp_norm,
    martingale_average,
    martingale_difference,
    measure,
    poisson_kernel,
    poisson_smooth,
    poisson_smooth_multi,
    square_function_s1,
    square_function_s2,
)
import pinbeam.smoothing as smoothing
from pinbeam.smoothing import poisson_point

from conftest import full_square


def rand_field(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(GridSpec(n), rng.random((n, n)) * scale)


class TestPoissonKernel:
    def test_center_value_closed_form(self):
        for t in (0.05, 0.3, 1.7):
            assert poisson_point(t, 0.0, 0.0) == pytest.approx(1.0 / (2 * math.pi * t * t))

    def test_unit_mass_and_positivity(self):
        g = GridSpec(128)
        for t in (0.004, 0.05, 0.9, 3.0):
            k = poisson_kernel(g, t)
            assert (k >= 0).all()
            assert k.sum() * g.h**2 == pytest.approx(1.0, abs=1e-12)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            poisson_kernel(GridSpec(32), 0.0)

    @pytest.mark.parametrize("n", [64, 256, 1024])
    @pytest.mark.parametrize("side", [1.0, 4.0])
    def test_equals_meshgrid_kernel(self, n, side):
        # the kernel as first built, from two full coordinate grids
        def meshgrid_kernel(grid, t):
            h = grid.h
            r_tr = 50.0 * t
            rad = min(math.ceil(r_tr / h), grid.n - 1)
            d = np.arange(-rad, rad + 1) * h
            xx, yy = np.meshgrid(d, d, indexing="ij")
            ker = poisson_point(t, xx, yy)
            ker[xx * xx + yy * yy > r_tr * r_tr] = 0.0
            ker /= ker.sum() * (h * h)
            return ker

        g = GridSpec(n, side=side)
        for t in (1e-3, 0.003, 0.05, 0.3, 3.0):
            assert poisson_kernel(g, t).tobytes() == meshgrid_kernel(g, t).tobytes()


class TestPoissonSmooth:
    def test_constant_field_preserved(self):
        # mass-1 kernel reproduces constants wherever its truncated support
        # stays inside the window
        g = GridSpec(64)
        c = ScalarField(g, np.full((64, 64), 2.5))
        t = 0.002  # truncation radius 0.1
        out = poisson_smooth(c, t)
        margin = math.ceil(50 * t / g.h) + 1
        interior = out.values[margin:-margin, margin:-margin]
        assert np.abs(interior - 2.5).max() < 1e-9

    def test_direct_and_fft_paths_agree(self):
        # the transform path against direct convolution with the same kernel:
        # sub-cell to block scales, and kernels spanning the whole window
        for n, t, seed in ((64, 0.01, 3), (64, 0.002, 4), (256, 1.0 / 512, 5),
                           (16, 0.5, 6), (32, 0.5, 7)):
            g = GridSpec(n)
            h = rand_field(n, seed)
            k = poisson_kernel(g, t)
            if n <= 32:
                assert k.shape == (2 * n - 1, 2 * n - 1)
            ref = direct_convolve(h.values, k, mode="same", method="direct") * g.h**2
            assert np.abs(poisson_smooth(h, t).values - ref).max() <= 1e-12

    def test_integral_preserved_for_interior_support(self):
        # field supported well inside; truncated kernel keeps every
        # contribution in-window, so the window integral is conserved
        n = 128
        g = GridSpec(n)
        vals = np.zeros((n, n))
        vals[48:80, 48:80] = 1.0
        h = ScalarField(g, vals)
        t = 0.002  # truncation radius 0.1 stays inside
        out = poisson_smooth(h, t)
        assert integral(out) == pytest.approx(integral(h), abs=1e-9)

    def test_semigroup_deviation_shrinks_with_grid(self):
        # the two-step vs one-step deviation is sampling-dominated at
        # near-cell scales; doubling the resolution must shrink it >= 1.5x
        t = s = 1.0 / 512
        devs = {}
        for n in (256, 512):
            h = rand_field(n, 1)
            two = poisson_smooth(poisson_smooth(h, t), s)
            one = poisson_smooth(h, s + t)
            devs[n] = float(np.abs(two.values - one.values).max())
        assert devs[256] >= 1.5 * devs[512]

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_multi_equals_kernel_first_version(self, n):
        # the function as it was when it built every kernel before looking
        # up the spectrum cache, and inverted into a fresh array
        def kernel_first_multi(field, scales):
            grid = field.grid
            kernels = [poisson_kernel(grid, t) for t in scales]
            rads = [(k.shape[0] - 1) // 2 for k in kernels]
            size = sfft.next_fast_len(n + 2 * max(rads))
            f_hat = sfft.rfft2(field.values, (size, size))
            outs = []
            for ker, rad in zip(kernels, rads):
                # named, as the cache holds it: numpy would multiply an unnamed
                # temporary in place with the operands swapped, which rounds
                # differently
                k_hat = sfft.rfft2(ker, (size, size))
                conv = sfft.irfft2(f_hat * k_hat, (size, size))
                outs.append(conv[rad : rad + n, rad : rad + n] * (grid.h * grid.h))
            return outs

        h = rand_field(n, 11)
        for scales in ([0.5], [1 / 64, 1 / 4, 1 / 16], [0.003, 2.0]):
            want = [v.tobytes() for v in kernel_first_multi(h, scales)]
            smoothing._kernel_spectra.clear()
            for _ in range(2):  # the first call fills the spectrum cache, the second reads it
                assert [f.values.tobytes() for f in poisson_smooth_multi(h, scales)] == want

    def test_cached_call_builds_no_kernel(self, monkeypatch):
        h = rand_field(64, 12)
        scales = [1 / 64, 1 / 8]
        poisson_smooth_multi(h, scales)
        built = []
        kernel = smoothing.poisson_kernel

        def counted(grid, t):
            built.append(t)
            return kernel(grid, t)

        monkeypatch.setattr(smoothing, "poisson_kernel", counted)
        poisson_smooth_multi(h, scales)
        assert built == []
        smoothing._kernel_spectra.clear()
        poisson_smooth_multi(h, scales)
        assert built == scales

    def test_multi_matches_single(self):
        h = rand_field(64, 9)
        a, b = poisson_smooth_multi(h, [0.05, 0.2])
        assert np.abs(a.values - poisson_smooth(h, 0.05).values).max() < 1e-12
        assert np.abs(b.values - poisson_smooth(h, 0.2).values).max() < 1e-12


def loaded_by_import(module: str) -> bool:
    """Whether a fresh `import pinbeam` loads `module`."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, pinbeam; print({module!r} in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True,
    )
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_signal_unloaded():
    # every command pays the package import; scipy.signal alone costs more
    # than the rest of it
    assert not loaded_by_import("scipy.signal")


def test_import_leaves_scipy_linalg_unloaded():
    # the field engine loads its BLAS on first use, so commands that compute
    # no field do not pay scipy.linalg's memory and start-up time
    assert not loaded_by_import("scipy.linalg")


class TestMartingale:
    def test_constant_field_fixed(self):
        g = GridSpec(32)
        c = ScalarField(g, np.full((32, 32), 3.25))
        for k in (0, 2, 5):
            assert (martingale_average(c, k).values == 3.25).all()

    def test_left_half_level_one(self):
        n = 16
        vals = np.zeros((n, n))
        vals[:, : n // 2] = 1.0
        e1 = martingale_average(ScalarField(GridSpec(n), vals), 1)
        assert (e1.values[:, : n // 2] == 1.0).all()
        assert (e1.values[:, n // 2 :] == 0.0).all()

    def test_idempotent_bit_exact(self):
        h = rand_field(128, 4)
        e = martingale_average(h, 3)
        assert (martingale_average(e, 3).values == e.values).all()

    def test_composition_is_coarser_level_bit_exact(self):
        h = rand_field(128, 5)
        e2 = martingale_average(h, 2)
        e5 = martingale_average(h, 5)
        assert (martingale_average(e5, 2).values == e2.values).all()
        assert (martingale_average(e2, 5).values == e2.values).all()

    def test_integral_preserved(self):
        h = rand_field(128, 6)
        for k in (0, 3, 7):
            ek = martingale_average(h, k)
            assert abs(integral(ek) - integral(h)) < 1e-12

    def test_level_must_be_resolvable(self):
        h = rand_field(16, 0)
        with pytest.raises(ValueError):
            martingale_average(h, 5)  # squares smaller than cells

    def test_misaligned_window_rejected(self):
        g = GridSpec(16, origin=(0.3, 0.0))
        h = ScalarField(g, np.zeros((16, 16)))
        with pytest.raises(ValueError, match="aligned"):
            martingale_average(h, 1)

    def test_difference_constant_is_zero(self):
        g = GridSpec(32)
        c = ScalarField(g, np.full((32, 32), 1.5))
        assert (martingale_difference(c, 2).values == 0.0).all()

    def test_difference_orthogonality(self):
        h = rand_field(128, 7)
        d2 = martingale_difference(h, 2)
        d5 = martingale_difference(h, 5)
        inner = float((d2.values * d5.values).sum()) * h.grid.h**2
        assert abs(inner) <= 1e-10

    def test_difference_integrates_to_zero_per_square(self):
        h = rand_field(64, 8)
        i = 2
        d = martingale_difference(h, i)
        m = round(2.0 ** (-i) / h.grid.h)
        blocks = d.values.reshape(64 // m, m, 64 // m, m).sum(axis=(1, 3))
        assert np.abs(blocks).max() < 1e-12

    def test_telescoping(self):
        h = rand_field(128, 9)
        k, steps = 2, 4
        acc = martingale_average(h, k).values.copy()
        for m in range(steps):
            acc += martingale_difference(h, k + m).values
        assert np.abs(acc - martingale_average(h, k + steps).values).max() <= 1e-12


class TestSquareFunctions:
    def test_constant_gives_zero(self):
        # fields are zero-extended outside the window, so the constant claim
        # holds where every truncated kernel support stays inside: levels
        # 8..9 keep the radius at 50 * 2^-7 < 0.4 of the center cells
        n = 512
        g = GridSpec(n)
        c = ScalarField(g, np.full((n, n), 2.0))
        margin = math.ceil(50 * 2.0**-7 / g.h) + 1
        s1 = square_function_s1(c, 8, 9).values[margin:-margin, margin:-margin]
        s2 = square_function_s2(c, 8, 9).values[margin:-margin, margin:-margin]
        assert s1.max() < 1e-9
        assert s2.max() < 1e-9

    def test_nonnegative(self):
        h = rand_field(64, 10)
        assert (square_function_s1(h, 1, 6).values >= 0).all()
        assert (square_function_s2(h, 1, 6).values >= 0).all()

    def test_single_cell_s2_finite(self):
        n = 64
        bm = np.zeros((n, n), dtype=bool)
        bm[10, 10] = True
        from pinbeam import RasterSet

        f = indicator(RasterSet(GridSpec(n), bm))
        s2 = square_function_s2(f, 1, 6)
        assert np.isfinite(s2.values).all()

    def test_s1_norm_ratio_finite_and_stable_under_refinement(self):
        ratios = {}
        for n in (128, 256):
            worst = 0.0
            for seed in range(5):
                h = rand_field(n, seed)
                s1 = square_function_s1(h, 1, round(math.log2(n)))
                worst = max(worst, lp_norm(s1, 3.0) / lp_norm(h, 3.0))
            ratios[n] = worst
        assert all(np.isfinite(r) for r in ratios.values())
        assert ratios[256] == pytest.approx(ratios[128], rel=0.25)

    def test_s2_norm_ratio_stable_across_three_resolutions(self):
        ratios = {}
        for n in (128, 256, 512):
            h = rand_field(n, 1)
            s2 = square_function_s2(h, 1, round(math.log2(n)))
            ratios[n] = lp_norm(s2, 3.0) / lp_norm(h, 3.0)
        base = ratios[128]
        assert ratios[256] == pytest.approx(base, rel=0.25)
        assert ratios[512] == pytest.approx(base, rel=0.25)


class TestLpNorm:
    def test_indicator_measure_root(self):
        a = generate_random(GridSpec(64), 0.37, 1)
        m = measure(a)
        for p in (1.0, 2.0, 3.0):
            assert lp_norm(indicator(a), p) == pytest.approx(m ** (1 / p), rel=1e-12)

    def test_scaling(self):
        h = rand_field(32, 2)
        scaled = ScalarField(h.grid, -3.0 * h.values)
        assert lp_norm(scaled, 3.0) == pytest.approx(3.0 * lp_norm(h, 3.0), rel=1e-12)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(0)
        g = GridSpec(32)
        for _ in range(100):
            u = ScalarField(g, rng.standard_normal((32, 32)))
            v = ScalarField(g, rng.standard_normal((32, 32)))
            s = ScalarField(g, u.values + v.values)
            for p in (1.0, 2.0, 3.0):
                assert lp_norm(s, p) <= lp_norm(u, p) + lp_norm(v, p) + 1e-12

    def test_p_below_one_rejected(self):
        with pytest.raises(ValueError):
            lp_norm(rand_field(16, 0), 0.5)


class TestEstInequalities:
    def test_martingale_cauchy_schwarz(self):
        # integral of f * E_k f dominates (integral f)^2 on the unit window
        rng = np.random.default_rng(5)
        from pinbeam import pairing

        for seed in range(30):
            a = generate_random(GridSpec(64), float(rng.uniform(0.05, 0.95)), seed)
            f = indicator(a)
            k = int(rng.integers(0, 7))
            lhs = pairing(a, martingale_average(f, k))
            assert lhs >= measure(a) ** 2 - 1e-12

    def test_smoothed_window_bound(self):
        # f paired with P_s 1_window never exceeds the measure of f
        from pinbeam import pairing

        rng = np.random.default_rng(6)
        ones = indicator(full_square(64))
        for seed in range(20):
            a = generate_random(GridSpec(64), float(rng.uniform(0.1, 0.9)), seed)
            s = float(rng.uniform(GridSpec(64).h, 2.0))
            assert pairing(a, poisson_smooth(ones, s)) <= measure(a) + 1e-9
