import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinbeam import (
    GridSpec,
    RasterParseError,
    RasterSet,
    axis_swap,
    complement_in_window,
    generate_random,
    indicator,
    integral,
    load_raster,
    measure,
    save_raster,
)
from pinbeam.raster import cells_of_points, sample_values

from conftest import empty_square, full_square, single_cell


class TestGridSpec:
    def test_power_of_two_enforced(self):
        with pytest.raises(ValueError):
            GridSpec(3)
        with pytest.raises(ValueError):
            GridSpec(0)
        GridSpec(1)
        GridSpec(4096)

    def test_cell_size(self):
        assert GridSpec(256).h == 1.0 / 256
        assert GridSpec(4, side=2.0).h == 0.5

    def test_compatibility_is_field_equality(self):
        assert GridSpec(8) == GridSpec(8)
        assert GridSpec(8) != GridSpec(16)
        assert GridSpec(8) != GridSpec(8, side=2.0)


class TestMeasure:
    def test_half_plane_at_16(self):
        n = 16
        bm = np.zeros((n, n), dtype=bool)
        bm[:, : n // 2] = True  # x < 1/2
        assert measure(RasterSet(GridSpec(n), bm)) == 0.5

    def test_single_cell_at_16(self):
        assert measure(single_cell(16, 3, 5)) == 1.0 / 256

    def test_disjoint_union_additivity(self):
        n = 32
        rng = np.random.default_rng(0)
        cells = rng.permutation(n * n)
        bm1 = np.zeros(n * n, dtype=bool)
        bm2 = np.zeros(n * n, dtype=bool)
        bm1[cells[:200]] = True
        bm2[cells[200:500]] = True
        a = RasterSet(GridSpec(n), bm1.reshape(n, n))
        b = RasterSet(GridSpec(n), bm2.reshape(n, n))
        union = RasterSet(GridSpec(n), (bm1 | bm2).reshape(n, n))
        assert measure(union) == measure(a) + measure(b)

    def test_bounds(self):
        assert measure(empty_square(8)) == 0.0
        assert measure(full_square(8)) == 1.0


class TestComplement:
    def test_full_gives_zero_field(self):
        g = complement_in_window(full_square(8))
        assert not g.values.any()

    def test_empty_gives_ones(self):
        g = complement_in_window(empty_square(8))
        assert (g.values == 1.0).all()

    def test_complement_identity_exact(self):
        a = generate_random(GridSpec(32), 0.3, 7)
        g = complement_in_window(a)
        assert (g.values + indicator(a).values == 1.0).all()
        assert measure(a) + integral(g) == 1.0


class TestGenerateRandom:
    def test_forced_count(self):
        a = generate_random(GridSpec(8), 0.5, 1)
        assert a.cell_count == 32
        assert measure(a) == 0.5

    def test_full_at_delta_one(self):
        assert generate_random(GridSpec(8), 1.0, 99).bitmap.all()

    def test_deterministic_in_seed(self):
        g = GridSpec(8)
        a = generate_random(g, 0.37, 5)
        b = generate_random(g, 0.37, 5)
        assert (a.bitmap == b.bitmap).all()
        c = generate_random(g, 0.37, 6)
        assert (a.bitmap != c.bitmap).any()

    def test_measure_within_one_cell_of_target(self):
        g = GridSpec(16, side=2.0)
        a = generate_random(g, 0.3, 0)
        assert 0.3 * 4.0 <= measure(a) <= 0.3 * 4.0 + g.h * g.h

    def test_delta_range(self):
        with pytest.raises(ValueError):
            generate_random(GridSpec(8), 0.0, 1)
        with pytest.raises(ValueError):
            generate_random(GridSpec(8), 1.5, 1)


class TestFileFormat:
    def test_two_by_two_example(self, tmp_path):
        p = tmp_path / "t.pb"
        p.write_text("PB 2\n10\n01\n")
        a = load_raster(p)
        # row 0 is the bottom: cells (0,0)-set means bitmap[0,0]
        assert a.bitmap[0, 0] and a.bitmap[1, 1]
        assert not a.bitmap[0, 1] and not a.bitmap[1, 0]
        assert measure(a) == 0.5

    def test_all_ones_n4(self, tmp_path):
        p = tmp_path / "t.pb"
        p.write_text("PB 4\n" + "\n".join(["1111"] * 4) + "\n")
        assert measure(load_raster(p)) == 1.0

    def test_not_power_of_two_rejected(self, tmp_path):
        p = tmp_path / "t.pb"
        p.write_text("PB 3\n111\n111\n111\n")
        with pytest.raises(ValueError, match="power of two"):
            load_raster(p)

    def test_malformed_header_names_offset(self, tmp_path):
        p = tmp_path / "t.pb"
        p.write_text("XX 2\n10\n01\n")
        with pytest.raises(RasterParseError) as exc:
            load_raster(p)
        assert exc.value.byte_offset == 0

    def test_bad_character_names_offset(self, tmp_path):
        p = tmp_path / "t.pb"
        p.write_text("PB 2\n10\n0x\n")
        with pytest.raises(RasterParseError) as exc:
            load_raster(p)
        assert exc.value.byte_offset == 9  # header(5) + row(3) + col 1

    def test_short_row_names_offset(self, tmp_path):
        p = tmp_path / "t.pb"
        p.write_text("PB 2\n10\n0\n")
        with pytest.raises(RasterParseError) as exc:
            load_raster(p)
        assert exc.value.byte_offset == 8

    def test_sidecar_window(self, tmp_path):
        p = tmp_path / "t.pb"
        a = RasterSet(GridSpec(4, (2.0, -1.0), 8.0), np.eye(4, dtype=bool))
        save_raster(a, p)
        back = load_raster(p)
        assert back.grid == a.grid
        assert (back.bitmap == a.bitmap).all()

    def test_default_window_save_removes_stale_sidecar(self, tmp_path):
        p = tmp_path / "t.pb"
        save_raster(RasterSet(GridSpec(8, (1.0, 2.0), 4.0), np.eye(8, dtype=bool)), p)
        a = generate_random(GridSpec(8), 0.3, 5)
        save_raster(a, p)
        back = load_raster(p)
        assert back.grid == GridSpec(8)
        assert (back.bitmap == a.bitmap).all()

    def test_missing_sidecar_defaults_to_unit_window(self, tmp_path):
        p = tmp_path / "t.pb"
        p.write_text("PB 2\n11\n00\n")
        assert load_raster(p).grid == GridSpec(2)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**16 - 1), st.sampled_from([2, 4, 8]))
    def test_roundtrip_bit_exact(self, bits, n):
        import tempfile
        from pathlib import Path

        rng = np.random.default_rng(bits)
        bm = rng.random((n, n)) < 0.5
        a = RasterSet(GridSpec(n), bm)
        with tempfile.TemporaryDirectory() as d:
            p = Path(d) / "t.pb"
            save_raster(a, p)
            back = load_raster(p)
        assert (back.bitmap == a.bitmap).all()
        assert back.grid == a.grid


class TestSampling:
    def test_far_edge_clamps_to_last_cell(self):
        a = full_square(4)
        ix, iy, inside = cells_of_points(a.grid, np.array([1.0]), np.array([1.0]))
        assert inside[0] and ix[0] == 3 and iy[0] == 3

    def test_outside_reads_zero(self):
        a = full_square(4)
        vals = sample_values(a, np.array([-0.01, 0.5, 1.01]), np.array([0.5, 0.5, 0.5]))
        assert list(vals) == [0.0, 1.0, 0.0]


class TestAxisSwap:
    def test_involution(self):
        a = generate_random(GridSpec(16), 0.4, 3)
        back = axis_swap(axis_swap(a))
        assert (back.bitmap == a.bitmap).all()
        assert back.grid == a.grid

    def test_symmetric_set_fixed(self):
        n = 8
        bm = np.zeros((n, n), dtype=bool)
        bm[2, 2] = bm[5, 5] = bm[3, 6] = bm[6, 3] = True
        a = RasterSet(GridSpec(n), bm)
        assert (axis_swap(a).bitmap == a.bitmap).all()

    def test_single_cell_transposes(self):
        a = single_cell(8, 2, 5)  # (ix=2, iy=5)
        sw = axis_swap(a)
        assert sw.bitmap[2, 5] and sw.cell_count == 1

    def test_membership_relation(self):
        a = generate_random(GridSpec(32), 0.3, 11)
        sw = axis_swap(a)
        rng = np.random.default_rng(0)
        xs, ys = rng.random(50), rng.random(50)
        assert (sample_values(a, xs, ys) == sample_values(sw, ys, xs)).all()
