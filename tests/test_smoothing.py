import itertools
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
    poisson_smooth,
    poisson_smooth_multi,
)
import pinbeam.smoothing as smoothing

from conftest import full_square


def poisson_point(t, x, y):
    """Closed-form kernel value t / (2 pi (t^2 + x^2 + y^2)^(3/2))."""
    return t / (2.0 * math.pi * (t * t + np.asarray(x) ** 2 + np.asarray(y) ** 2) ** 1.5)


def poisson_kernel(grid, t):
    """The full (2R + 1)^2 kernel, displacement 0 at [R, R], mirrored from the
    quarter that smoothing builds."""
    q = smoothing._kernel_quarter(grid, t)
    idx = np.abs(np.arange(1 - q.shape[0], q.shape[0]))
    return q[idx[:, None], idx]


def rand_field(n, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return ScalarField(GridSpec(n), rng.random((n, n)) * scale)


def row_product_convolve(values, ker):
    """'same'-mode convolution summed term by term, with no transform.

    One matrix product per kernel row: row offset d adds values[i] times the
    Toeplitz matrix of kernel row d into output row i + d.  scipy's direct
    method computes the same sums but takes minutes at N=256.
    """
    n, r = values.shape[0], (ker.shape[0] - 1) // 2
    padded = np.pad(ker, ((0, 0), (n - 1, n - 1)))
    cols = np.arange(n)
    toeplitz = cols[None, :] - cols[:, None] + r + n - 1  # [j, b] -> column b - j
    out = np.zeros((n, n))
    for d in range(max(-r, 1 - n), min(r, n - 1) + 1):
        lo, hi = max(0, -d), min(n, n - d)
        out[lo + d : hi + d] += values[lo:hi] @ padded[d + r][toeplitz]
    return out


def full_spectrum(rows):
    """The (L, L/2 + 1) rfft2 layout of an even spectrum from its rows 0 .. L/2."""
    return np.concatenate([rows, rows[-2:0:-1]])


def wrapped_kernel(grid, t, size):
    """The full kernel on a size x size torus, displacement 0 at [0, 0]."""
    ker = poisson_kernel(grid, t)
    rad = (ker.shape[0] - 1) // 2
    wrapped = np.zeros((size, size))
    wrapped[: ker.shape[0], : ker.shape[0]] = ker
    return np.roll(wrapped, (-rad, -rad), axis=(0, 1))


def irfft2_smooth(field, scales):
    """poisson_smooth_multi without pruned passes or half-spectrum products:
    full 2-d rfft2/irfft2 at L x L times the mirrored (L, L/2 + 1) spectrum,
    the kept window sliced out afterwards."""
    grid = field.grid
    n, h = grid.n, grid.h
    size = smoothing._transform_length(n, max(smoothing._kernel_radius(grid, t) for t in scales))
    shape = (size, size)
    workers = smoothing._FFT_WORKERS
    f_hat = sfft.rfft2(field.values, shape, workers=workers)
    outs = []
    for t in scales:
        k_hat = full_spectrum(smoothing._kernel_spectrum(grid, t, size))
        conv = sfft.irfft2(f_hat * k_hat, shape, workers=workers)
        outs.append(conv[:n, :n] * (h * h))
    return outs


def quarter_mass(ker):
    """The full kernel's sum from its quarter, as the quarter builder takes it."""
    rad = (ker.shape[0] - 1) // 2
    q = np.ascontiguousarray(ker[rad:, rad:])  # numpy sums a strided view in another order
    return 4.0 * q.sum() - 2.0 * (q[0].sum() + q[:, 0].sum()) + q[0, 0]


PRUNED_SWEEP_NS = (16, 64, 128, 256)


def pruned_sweep_radii(n):
    """Every radius at n <= 64; every 11th, and n - 1, above."""
    return range(1, n) if n <= 64 else [*range(1, n, 11), n - 1]


def scale_of_radius(grid, rad):
    """A scale whose kernel radius is exactly rad cells."""
    t = (rad - 0.5) * grid.h / smoothing.TRUNCATION_FACTOR
    assert smoothing._kernel_radius(grid, t) == rad
    return t


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
        # the kernel as first built, from two full coordinate grids, and
        # renormalized by the full kernel's mass summed from its quarter
        def meshgrid_kernel(grid, t):
            h = grid.h
            r_tr = 50.0 * t
            rad = min(math.ceil(r_tr / h), grid.n - 1)
            d = np.arange(-rad, rad + 1) * h
            xx, yy = np.meshgrid(d, d, indexing="ij")
            ker = poisson_point(t, xx, yy)
            ker[xx * xx + yy * yy > r_tr * r_tr] = 0.0
            mass = quarter_mass(ker)
            assert mass == pytest.approx(ker.sum(), rel=2e-15)
            ker /= mass * (h * h)
            return ker

        g = GridSpec(n, side=side)
        for t in (1e-3, 0.003, 0.05, 0.3, 3.0):
            assert poisson_kernel(g, t).tobytes() == meshgrid_kernel(g, t).tobytes()

    @pytest.mark.parametrize("n", [16, 64, 256, 1024])
    def test_equals_broadcast_kernel(self, n):
        # the kernel as built before it was computed in place: broadcast
        # coordinates, a full-size x^2 + y^2 array and a boolean mask; the
        # mass summed from the quarter
        def broadcast_kernel(grid, t):
            h = grid.h
            r_tr = 50.0 * t
            rad = min(math.ceil(r_tr / h), grid.n - 1)
            d = np.arange(-rad, rad + 1) * h
            x, y = d[:, None], d[None, :]
            ker = poisson_point(t, x, y)
            ker[x * x + y * y > r_tr * r_tr] = 0.0
            mass = quarter_mass(ker)
            assert mass == pytest.approx(ker.sum(), rel=2e-15)
            ker /= mass * (h * h)
            return ker

        g = GridSpec(n)
        for t in (1e-3, 0.008, 0.011, 0.05, 0.5, 3.0):
            assert poisson_kernel(g, t).tobytes() == broadcast_kernel(g, t).tobytes()


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
        cases = [(rand_field(n, seed), t, None) for n, t, seed in (
            (64, 0.01, 3), (64, 0.002, 4), (256, 1.0 / 512, 5), (16, 0.5, 6), (32, 0.5, 7))]
        # n + rad is already twice a fast length (16 + 8 = 24, 32 + 16 = 48),
        # so the transform has no slack: the far corners' mass wraps to the
        # cells n .. L - 1, just past the kept window; 50 t is rad cells, so
        # the kernel is nonzero out to offset rad
        for n, t, length in ((16, 0.01, 24), (32, 0.01, 48)):
            corners = np.zeros((n, n))
            corners[:: n - 1, :: n - 1] = 1.0
            cases.append((ScalarField(GridSpec(n), corners), t, length))
        for h, t, length in cases:
            g = h.grid
            k = poisson_kernel(g, t)
            if t == 0.5:
                assert k.shape == (2 * g.n - 1, 2 * g.n - 1)
            smoothing._kernel_spectra.clear()
            ref = direct_convolve(h.values, k, mode="same", method="direct") * g.h**2
            assert np.abs(poisson_smooth(h, t).values - ref).max() <= 1e-12
            if length is not None:
                (key,) = smoothing._kernel_spectra._store
                assert key[-1] == length

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
    def test_multi_matches_direct_convolution(self, n):
        h = rand_field(n, 11)
        for scales in ([0.5], [1 / 64, 1 / 4, 1 / 16], [0.003, 2.0]):
            smoothing._kernel_spectra.clear()
            # the first call fills the spectrum cache, the second reads it
            first, cached = (poisson_smooth_multi(h, scales) for _ in range(2))
            for t, a, b in zip(scales, first, cached):
                assert a.values.tobytes() == b.values.tobytes()
                k = poisson_kernel(h.grid, t)
                if n <= 64:
                    ref = direct_convolve(h.values, k, mode="same", method="direct")
                else:
                    ref = row_product_convolve(h.values, k)
                assert np.abs(a.values - ref * h.grid.h**2).max() <= 1e-12

    def test_fft_thread_count_changes_no_bit(self, monkeypatch):
        for n, scales in ((256, [1 / 64, 1 / 2]), (64, [1 / 64, 1 / 2])):
            h = rand_field(n, 13)
            outs = []
            for workers in (1, 2):
                monkeypatch.setattr(smoothing, "_FFT_WORKERS", workers)
                smoothing._kernel_spectra.clear()
                outs.append([f.values.tobytes() for f in poisson_smooth_multi(h, scales)])
            assert outs[0] == outs[1]

    def test_cached_call_builds_no_kernel(self, monkeypatch):
        h = rand_field(64, 12)
        scales = [1 / 64, 1 / 8]
        poisson_smooth_multi(h, scales)
        built = []
        quarter = smoothing._kernel_quarter

        def counted(grid, t):
            built.append(t)
            return quarter(grid, t)

        monkeypatch.setattr(smoothing, "_kernel_quarter", counted)
        poisson_smooth_multi(h, scales)
        assert built == []
        smoothing._kernel_spectra.clear()
        poisson_smooth_multi(h, scales)
        assert built == scales

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_padded_forward_transform_equals_rfft2(self, n):
        # rows of zeros transform to exact zeros, so skipping them changes no value
        g = GridSpec(n)
        rng = np.random.default_rng(n)
        inputs = [rng.random((n, n)), (rng.random((n, n)) < 0.3).astype(float)]
        inputs += [poisson_kernel(g, scale_of_radius(g, rad)) for rad in (1, n // 3, n - 1)]
        for x in inputs:
            for size in {sfft.next_fast_len(n + r) for r in (1, n // 3, n - 1)}:
                size = max(size, x.shape[0])
                got = smoothing._padded_rfft2(x, size)
                assert got.shape == (size, size // 2 + 1)
                assert (got == sfft.rfft2(x, (size, size))).all()

    @pytest.mark.parametrize("n", [16, 64, 256])
    def test_cached_spectrum_is_the_even_kernel_dft(self, n):
        # the stored rows 0 .. L/2 of the real spectrum, mirrored, against the
        # complex transform of the full kernel wrapped around index 0
        g = GridSpec(n)
        for rad in (1, n // 3, n - 1):
            t = scale_of_radius(g, rad)
            size = smoothing._transform_length(n, rad)
            smoothing._kernel_spectra.clear()
            poisson_smooth_multi(rand_field(n, rad), [t])
            (k_hat,) = smoothing._kernel_spectra._store.values()
            assert k_hat.dtype == np.float64
            assert k_hat.shape == (size // 2 + 1, size // 2 + 1)
            ref = sfft.rfft2(wrapped_kernel(g, t, size))
            mass = poisson_kernel(g, t).sum()
            assert np.abs(full_spectrum(k_hat) - ref).max() <= 1e-15 * mass

    @pytest.mark.parametrize("n", PRUNED_SWEEP_NS)
    def test_pruned_transforms_equal_full_2d_path(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        fields = {"bits": (rng.random((n, n)) < 0.4).astype(float), "real": rng.random((n, n))}
        for side, (kind, values), workers in itertools.product(
            (1.0, 4.0), fields.items(), (1, 2)
        ):
            monkeypatch.setattr(smoothing, "_FFT_WORKERS", workers)
            field = ScalarField(GridSpec(n, side=side), values)
            for rad in pruned_sweep_radii(n):
                scales = [scale_of_radius(field.grid, r) for r in (rad, max(1, rad // 3))]
                smoothing._kernel_spectra.clear()
                got = poisson_smooth_multi(field, scales)
                for a, b in zip(got, irfft2_smooth(field, scales)):
                    assert (a.values == b).all(), (side, kind, workers, rad)

    def test_row_blocks_of_the_real_inverse_pass_change_no_bit(self):
        # n = 512 runs the pass in blocks: 364 + 148 rows at L = 720, 2 x 256 at L = 1024
        field = rand_field(512, 5)
        for rad, size in ((200, 720), (511, 1024)):
            scales = [scale_of_radius(field.grid, rad)]
            assert smoothing._transform_length(512, rad) == size
            (got,) = poisson_smooth_multi(field, scales)
            assert (got.values == irfft2_smooth(field, scales)[0]).all(), rad

    def test_pruned_sweep_covers_fifty_odd_lengths(self):
        odd = {
            size
            for n in PRUNED_SWEEP_NS
            for size in (smoothing._transform_length(n, rad) for rad in pruned_sweep_radii(n))
            if size & (size - 1)
        }
        assert len(odd) >= 50

    def test_multi_matches_single(self):
        h = rand_field(64, 9)
        a, b = poisson_smooth_multi(h, [0.05, 0.2])
        assert np.abs(a.values - poisson_smooth(h, 0.05).values).max() < 1e-12
        assert np.abs(b.values - poisson_smooth(h, 0.2).values).max() < 1e-12


def scipy_loaded_after(code: str) -> list[str]:
    """The scipy modules loaded after running `code` in a fresh interpreter."""
    src = Path(__file__).resolve().parents[1] / "src"
    code += "\nimport sys; print(*sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return out.stdout.split()


def test_import_loads_no_scipy():
    # every command pays the package import; scipy.fft alone would double it
    # and scipy.linalg or scipy.signal add more, so each loads on first use
    for code in ("import pinbeam", "import pinbeam.cli"):
        assert scipy_loaded_after(code) == [], code


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal alone costs more than the rest of the package import
    assert "scipy.signal" not in scipy_loaded_after("import pinbeam")


def test_import_leaves_scipy_linalg_unloaded():
    # the field engine loads its BLAS on first use, so commands that compute
    # no field do not pay scipy.linalg's memory and start-up time
    assert "scipy.linalg" not in scipy_loaded_after("import pinbeam")


def test_search_and_verify_load_no_scipy():
    # gen -> prospect -> verify smooth nothing and compute no field
    code = """
from pinbeam import CurveParams, GridSpec, SamplingConfig, default_ladder, generate_random
from pinbeam import prospect, verify_certificate
from pinbeam.constructions import dead_strip_set
from pinbeam.reports import certificate_to_dict, exhaustion_to_dict
s = SamplingConfig(nodes=32)
p = CurveParams(2.0, 1.0, 2.4)
a = generate_random(GridSpec(64), 0.5, 1)
cert = prospect(a, default_ladder(2), p, s)
assert verify_certificate(a, cert, 2, s).ok
certificate_to_dict(cert)
q = CurveParams(2.0, 1.0, 1.05)
exhaustion_to_dict(prospect(dead_strip_set(64, q, default_ladder(1), 1), default_ladder(1), q, s))
"""
    assert scipy_loaded_after(code) == []


def peak_kb_in_fresh_interpreter(code: str) -> int:
    """VmHWM after running `code` in a fresh interpreter that imports src/."""
    src = Path(__file__).resolve().parents[1] / "src"
    # VmHWM, not ru_maxrss: Linux carries the parent's peak into a child's
    # ru_maxrss across exec, so under pytest it reads the test process's peak
    code += """
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=120,
    )
    return int(out.stdout)


def test_smoothing_peak_memory_at_n1024():
    # a kernel spanning the window (rad = n - 1) at N=1024: the pruned passes
    # with stored DCT-I quarter spectra peak near 165 MB in a fresh
    # interpreter, with complex (L, L/2 + 1) spectra near 198 MB, full 2-d
    # transforms near 225 MB, and the old n + 2 rad length near 430 MB
    code = """
import numpy as np
from pinbeam import GridSpec, ScalarField, poisson_smooth
poisson_smooth(ScalarField(GridSpec(1024), np.random.default_rng(0).random((1024, 1024))), 0.5)
"""
    assert peak_kb_in_fresh_interpreter(code) < 320 * 1024


def test_square_sum_smoothing_peak_memory_at_n1024():
    # the square sums' call in the reduce flow: blocks 2..3 at rho = 1/4, four
    # scales, two of them with rad = n - 1; near 250 MB with stored DCT-I
    # quarter spectra, near 393 MB with complex (L, L/2 + 1) spectra
    code = """
import numpy as np
from pinbeam import GridSpec, ScalarField, default_ladder, poisson_smooth_multi
from pinbeam.harness import _block_scales
g = GridSpec(1024)
scales = [s for j in (2, 3) for s in _block_scales(g, default_ladder(3), j, 0.25)[2:4]]
poisson_smooth_multi(ScalarField(g, np.random.default_rng(0).random((1024, 1024))), scales)
"""
    assert peak_kb_in_fresh_interpreter(code) < 300 * 1024


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
