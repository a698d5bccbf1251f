import csv
import hashlib
import json
import math
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pinbeam import (
    BeamCertificate,
    CurveParams,
    GridSpec,
    RasterSet,
    SamplingConfig,
    default_ladder,
    generate_random,
    prospect,
)
from pinbeam import cli, reports
from pinbeam.cli import EXIT_ERROR, EXIT_EXHAUSTION, EXIT_OK, EXIT_VERIFY_FAIL, main
from pinbeam.constructions import dead_strip_set
from pinbeam.harness import HarnessConstants, block_fields, compute_sq_sums
from pinbeam.prospect import (
    ExhaustionReport,
    ResolutionError,
    _batches,
    _block,
    _first_misses,
    _padded,
    _working_system,
)
from pinbeam.raster import axis_swap, load_raster, sample_values, save_raster
from pinbeam.reports import (
    RunConfig,
    certificate_from_dict,
    certificate_to_dict,
    encode_real,
    exhaustion_from_dict,
    exhaustion_to_dict,
    write_json,
)

from conftest import full_square, single_cell


def hand_certificate(**columns):
    fields = dict(beta=2.0, eta=1.0, theta=2.4, point=(0.5, 0.25), j=1, t_interval=(0.25, 0.5),
                  a_interval=(2.0, 4.0), t=(), u=(), hit_x=(), hit_y=())
    return BeamCertificate(**{**fields, **columns})


class TestReportsRoundTrip:
    def test_real_encoding_is_17_significant_digits(self):
        x = 1.0 / 3.0
        s = encode_real(x)
        assert float(s) == x
        assert len(s.replace("0.", "")) >= 16

    def test_certificate_round_trip_bit_exact(self):
        a = generate_random(GridSpec(64), 0.5, 2)
        cert = prospect(a, default_ladder(1), CurveParams(2.0, 1.0, 2.4),
                        SamplingConfig(nodes=32))
        d = json.loads(json.dumps(certificate_to_dict(cert)))
        assert certificate_from_dict(d) == cert

    def test_certificate_schema_reals_are_strings(self):
        a = full_square(64)
        cert = prospect(a, default_ladder(1), CurveParams(2.0, 1.0, 2.4),
                        SamplingConfig(nodes=32))
        d = certificate_to_dict(cert)
        assert set(d) == {"schema", "outcome", "beta", "eta", "theta", "point", "j",
                          "t_interval", "a_interval", "t", "u", "hit_x", "hit_y"}
        assert (d["schema"], d["outcome"]) == (2, "certificate")
        assert isinstance(d["beta"], str) and isinstance(d["j"], int)
        assert all(isinstance(v, str) for v in d["point"])
        for k in ("t", "u", "hit_x", "hit_y"):
            assert len(d[k]) == len(cert.t) and all(isinstance(v, str) for v in d[k])

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from([16, 32, 64]), st.floats(0.3, 1.0), st.integers(0, 2**16),
           st.sampled_from([0.5, 2.0]), st.integers(1, 2))
    def test_certificate_file_round_trips(self, n, delta, seed, beta, depth):
        a = generate_random(GridSpec(n), delta, seed)
        cert = prospect(a, default_ladder(depth), CurveParams(beta, 1.0, 2.4),
                        SamplingConfig(nodes=16))
        assume(isinstance(cert, BeamCertificate))
        d = json.loads(json.dumps(certificate_to_dict(cert)))
        assert (d["schema"], d["outcome"]) == (2, "certificate")
        assert {"t", "u", "hit_x", "hit_y"} <= set(d)
        assert certificate_from_dict(d) == cert

    def test_readme_certificate_example_has_the_written_keys(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("**Certificate JSON", 1)[1].split("```json\n", 1)[1]
        example = json.loads(block.split("```", 1)[0])
        assert list(example) == list(certificate_to_dict(hand_certificate()))

    def test_signed_zeros_and_non_finite_witnesses_encode_as_before(self):
        cert = hand_certificate(t=(0.25, 0.5, 0.5), u=(0.0, -0.0, math.inf),
                                hit_x=(math.nan, 0.5, -0.0), hit_y=(0.25, -math.inf, 0.0))
        d = certificate_to_dict(cert)
        assert (d["t"], d["u"]) == (["0.25", "0.5", "0.5"], ["0", "-0", "inf"])
        assert (d["hit_x"], d["hit_y"]) == (["nan", "0.5", "-0"], ["0.25", "-inf", "0"])
        back = certificate_from_dict(json.loads(json.dumps(d)))
        assert [math.copysign(1.0, v) for v in back.u[:2] + back.hit_x[1:]] == [1, -1, 1, -1]
        assert math.isnan(back.hit_x[0]) and back.hit_y[1:] == cert.hit_y[1:]

    def test_empty_certificate_round_trips(self):
        cert = hand_certificate()
        d = json.loads(json.dumps(certificate_to_dict(cert)))
        assert (d["t"], d["u"], d["hit_x"], d["hit_y"]) == ([], [], [], [])
        assert certificate_from_dict(d) == cert

    @pytest.mark.parametrize("column", ["t", "u", "hit_x", "hit_y"])
    def test_unequal_columns_refused(self, column):
        columns = dict(t=(0.25, 0.5), u=(0.3, 0.6), hit_x=(0.8, 1.1), hit_y=(0.6, 0.97))
        columns[column] = columns[column][:1]
        with pytest.raises(ValueError, match="columns of one length"):
            hand_certificate(**columns)

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError, match="schema"):
            certificate_from_dict({"beta": "2.0"})

    def test_per_sample_certificate_is_schema_1(self):
        d = {k: v for k, v in certificate_to_dict(hand_certificate()).items()
             if k not in ("schema", "outcome", "t", "u", "hit_x", "hit_y")}
        d |= {"t_grid_ratio": "1.5", "samples": [], "gap": ["0.3", "1.1"]}
        with pytest.raises(ValueError, match="certificate JSON has schema 1; only schema 2 is read"):
            certificate_from_dict(d)

    def test_reader_names_the_outcome_it_found(self):
        rep = ExhaustionReport(default_ladder(1), (0.5,), (0.5,), ((0.375,),), 1)
        with pytest.raises(ValueError, match="certificate JSON expected, the file holds "
                                             "outcome 'exhaustion'"):
            certificate_from_dict(exhaustion_to_dict(rep))
        with pytest.raises(ValueError, match="exhaustion JSON expected, the file holds "
                                             "outcome 'certificate'"):
            exhaustion_from_dict(certificate_to_dict(hand_certificate()))

    @pytest.mark.parametrize("j", [1.7, 1.0, "1", True, None])
    def test_block_index_must_be_a_json_integer(self, j):
        d = json.loads(json.dumps(certificate_to_dict(hand_certificate())))
        with pytest.raises(ValueError, match=f"schema 2: j must be an integer, got {j!r}"):
            certificate_from_dict({**d, "j": j})

    @pytest.mark.parametrize("edit", [
        dict(t="3", u="4", hit_x="5", hit_y="6"),
        dict(point="12"),
        dict(point=["1", "2", "3"]),
        dict(t_interval=["0.25", "0.5", "1"]),
    ], ids=["string-columns", "string-point", "long-point", "long-t-interval"])
    def test_certificate_columns_and_pairs_must_be_lists(self, edit):
        # a string where a list belongs was read one character per entry
        d = json.loads(json.dumps(certificate_to_dict(hand_certificate())))
        with pytest.raises(ValueError,
                           match=r"does not match schema 2: \w+ must (be a list|hold 2)"):
            certificate_from_dict({**d, **edit})

    @pytest.mark.parametrize("edit", [
        dict(x="1", y="2", t=["3"]),
        dict(t="3"),
        dict(ladder=[["0.5", "0.25", "0"]]),
        dict(scanned="1"),
        dict(scanned=1.0),
        dict(scanned=True),
    ], ids=["string-columns", "string-t", "long-ladder-entry", "string-scanned",
            "real-scanned", "bool-scanned"])
    def test_exhaustion_columns_and_pairs_must_be_lists(self, edit):
        rep = ExhaustionReport(default_ladder(1), (0.5,), (0.5,), ((0.375,),), 1)
        d = json.loads(json.dumps(exhaustion_to_dict(rep)))
        with pytest.raises(ValueError, match="does not match schema 2: "
                                             "[a-z ]+ must (be a list|hold 2|be an integer)"):
            exhaustion_from_dict({**d, **edit})

    def test_exhaustion_round_trip(self):
        a = single_cell(64, 5, 5)
        rep = prospect(a, default_ladder(1), CurveParams(2.0, 1.0, 2.4),
                       SamplingConfig(nodes=32))
        d = json.loads(json.dumps(exhaustion_to_dict(rep)))
        assert exhaustion_from_dict(d) == rep

    @staticmethod
    def _file_round_trip(rep, path):
        write_json(path, exhaustion_to_dict(rep))
        return exhaustion_from_dict(json.loads(path.read_text()))

    def test_dead_strip_exhaustion_file_round_trip(self, tmp_path):
        params, ladder = CurveParams(2.0, 1.0, 1.05), default_ladder(2)
        a = dead_strip_set(128, params, ladder, 2)
        rep = prospect(a, ladder, params, SamplingConfig(nodes=64))
        assert isinstance(rep, ExhaustionReport) and len(rep.points) == 6144
        path = tmp_path / "exhaustion.json"
        assert self._file_round_trip(rep, path) == rep
        text = path.read_text()
        assert text.count("\n") == 1 and text.endswith("\n")

    def test_swapped_exhaustion_file_round_trip(self, tmp_path):
        params, ladder = CurveParams(0.5, 1.0, 1.05**2), default_ladder(2)
        a = axis_swap(dead_strip_set(128, params.swapped(), ladder, 2))
        rep = prospect(a, ladder, params, SamplingConfig(nodes=64))
        assert isinstance(rep, ExhaustionReport) and len(rep.points) == 6144
        assert self._file_round_trip(rep, tmp_path / "exhaustion.json") == rep

    def test_empty_exhaustion_writes_empty_columns(self, tmp_path):
        rep = ExhaustionReport(default_ladder(2), (), (), ((), ()), 0)
        d = exhaustion_to_dict(rep)
        assert (d["x"], d["y"], d["t"]) == ([], [], [[], []])
        assert self._file_round_trip(rep, tmp_path / "exhaustion.json") == rep

    def test_signed_zeros_encode_apart(self):
        rep = ExhaustionReport(default_ladder(1), (0.0, -0.0), (-0.0, 0.0), ((0.375, 0.375),), 2)
        d = exhaustion_to_dict(rep)
        assert d["x"] == ["0", "-0"] and d["y"] == ["-0", "0"]
        back = exhaustion_from_dict(d)
        assert [math.copysign(1.0, v) for v in back.x + back.y] == [1, -1, -1, 1]

    def test_each_distinct_real_is_formatted_once(self, monkeypatch):
        params, ladder = CurveParams(2.0, 1.0, 1.05), default_ladder(2)
        rep = prospect(dead_strip_set(128, params, ladder, 2), ladder, params,
                       SamplingConfig(nodes=64))
        calls = []
        monkeypatch.setattr(reports, "encode_real", lambda x: calls.append(x) or encode_real(x))
        d = exhaustion_to_dict(rep)
        reals = [v for col in (rep.x, rep.y, *rep.t) for v in col]
        distinct = set(np.array(reals).view(np.int64).tolist())
        assert len(calls) == len(distinct) + 2 * ladder.depth
        assert len(distinct) < len(reals) // 10
        assert d["t"][1][7] == encode_real(rep.t[1][7])

    def test_exhaustion_without_schema_raises(self):
        rep = ExhaustionReport(default_ladder(1), (0.5,), (0.5,), ((0.375,),), 1)
        d = exhaustion_to_dict(rep)
        del d["schema"]
        with pytest.raises(ValueError, match="schema"):
            exhaustion_from_dict(d)

    def test_non_object_exhaustion_json_raises(self):
        with pytest.raises(ValueError, match="schema None"):
            exhaustion_from_dict([{"schema": 2}])

    @pytest.mark.parametrize("y,t", [
        ((0.5, 0.5), ((0.375, 0.375), (0.125, 0.125), (0.0625,))),
        ((0.5,), ((0.375, 0.375), (0.125, 0.125), (0.0625, 0.0625))),
        ((0.5, 0.5), ((0.375, 0.375), (0.125, 0.125))),
        ((0.5, 0.5), ((0.375, 0.375), (0.125, 0.125), (0.0625, 0.0625), (0.03, 0.03))),
    ], ids=["short-column", "short-y", "too-few-columns", "too-many-columns"])
    def test_columns_must_fit_the_ladder(self, y, t):
        with pytest.raises(ValueError, match="3 t columns, one length"):
            ExhaustionReport(default_ladder(3), (0.5, 0.25), y, t, 2)

    @pytest.mark.parametrize("column", ["x", "y", "t"])
    def test_ragged_exhaustion_file_raises_schema_error(self, column):
        rep = ExhaustionReport(default_ladder(2), (0.5, 0.25), (0.5, 0.5),
                               ((0.375, 0.375), (0.125, 0.125)), 2)
        d = exhaustion_to_dict(rep)
        if column == "t":
            d["t"][1].pop()
        else:
            d[column].pop()
        with pytest.raises(ValueError, match="does not match schema 2"):
            exhaustion_from_dict(d)

    @pytest.mark.parametrize("ladder", [
        [["0.25", "0.125"], ["0.0625", "0.03125"]],
        [["0.5", "0.25"], ["0.03125", "0.015625"]],
        [],
    ], ids=["shifted", "gap", "empty"])
    def test_exhaustion_file_with_another_ladder_refused(self, ladder):
        # interleaved dyadic ladders that are not 2^(-2j+1) > 2^(-2j), j = 1..J
        rep = ExhaustionReport(default_ladder(2), (0.5,), (0.5,), ((0.375,), (0.1,)), 1)
        d = exhaustion_to_dict(rep)
        d["ladder"] = ladder
        with pytest.raises(ValueError, match="does not match schema 2: (ladder|need depth)"):
            exhaustion_from_dict(d)

    def test_points_view_is_the_nested_form(self):
        # sha256 of repr(points) for this report, as the scan built it when
        # the report stored nested per-point tuples
        params, ladder = CurveParams(2.0, 1.0, 1.05), default_ladder(2)
        rep = prospect(dead_strip_set(128, params, ladder, 2), ladder, params,
                       SamplingConfig(nodes=64))
        assert rep.points[0] == ((0.04296875, 0.00390625),
                                 ((1, 0.2698620694398723), (2, 0.08246924442330589)))
        digest = hashlib.sha256(repr(rep.points).encode()).hexdigest()
        assert digest == "363df97d0a255e41033699a42f9489f5131cdba29e9ec3c9dc8a808d4dda0922"
        with pytest.raises(AttributeError):
            rep.points = ()
        # built once and kept; equality still compares the columns only
        assert rep.points is rep.points
        assert exhaustion_from_dict(exhaustion_to_dict(rep)) == rep

    @pytest.mark.parametrize("fail_at", ["write", "replace"])
    def test_failed_atomic_write_leaves_no_temp_file(self, tmp_path, monkeypatch, fail_at):
        path = tmp_path / "report.json"
        reports.write_json(path, {"a": 1})
        before = path.read_bytes()

        write_text = reports.Path.write_text

        def write_part(self, text):
            write_text(self, text[:2])  # a partial temp file, then a full disk
            raise OSError("write refused")

        def refuse(src, dst):
            raise OSError("replace refused")

        if fail_at == "write":
            monkeypatch.setattr(reports.Path, "write_text", write_part)
        else:
            monkeypatch.setattr(reports.os, "replace", refuse)
        with pytest.raises(OSError, match="refused"):
            reports.write_json(path, {"a": 2})
        monkeypatch.undo()
        assert sorted(f.name for f in tmp_path.iterdir()) == ["report.json"]
        assert path.read_bytes() == before

    def test_config_round_trip(self):
        cfg = RunConfig(beta=3.0, n=128, rho=0.125)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match="unknown config"):
            RunConfig.from_dict({"bogus": 1})

    @pytest.mark.parametrize("body,message", [
        ({"n": "512"}, "config key 'n' must be int, got '512'"),
        ({"beta": True}, "config key 'beta' must be float, got True"),
        ({"outdir": None}, "config key 'outdir' must be str, got None"),
    ], ids=["string-int", "bool-real", "null-str"])
    def test_config_from_dict_checks_types(self, body, message):
        with pytest.raises(ValueError) as exc:
            RunConfig.from_dict(body)
        assert str(exc.value) == message

    @pytest.mark.parametrize("key", ["tau", "delta", "cprime", "beta"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_config_refuses_non_finite_reals(self, key, value):
        with pytest.raises(ValueError, match=f"config key '{key}' must be finite"):
            RunConfig(**{key: value})
        with pytest.raises(ValueError, match=f"config key '{key}' must be finite"):
            RunConfig.from_dict({key: value})

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_write_json_refuses_non_finite_reals(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(ValueError, match="Out of range float"):
            write_json(path, {"bound": [1.0, value]})
        assert list(tmp_path.iterdir()) == []

    def test_config_keys_and_types_come_from_run_config(self):
        types = RunConfig.key_types()
        assert list(types) == list(RunConfig.__dataclass_fields__)
        assert (types["n"], types["rho"], types["subsample"], types["outdir"]) == (
            int, float, int, str)

    def test_run_report_version_is_the_project_version(self):
        import tomllib

        import pinbeam

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        version = tomllib.loads(pyproject.read_text())["project"]["version"]
        assert pinbeam.__version__ == version
        assert reports.RunReport(RunConfig(), "certificate").version == version


class TestGen:
    def test_deterministic_byte_identical(self, tmp_path):
        f1, f2 = tmp_path / "a1.pb", tmp_path / "a2.pb"
        args = ["gen", "--kind", "random", "--n", "64", "--delta", "0.4", "--seed", "7"]
        assert main(args + ["--out", str(f1)]) == EXIT_OK
        assert main(args + ["--out", str(f2)]) == EXIT_OK
        assert f1.read_bytes() == f2.read_bytes()

    def test_random_measure(self, tmp_path):
        out = tmp_path / "a.pb"
        assert main(["gen", "--kind", "random", "--n", "512", "--delta", "0.4",
                     "--seed", "7", "--out", str(out)]) == EXIT_OK
        from pinbeam import measure

        assert measure(load_raster(out)) == pytest.approx(0.4, abs=1e-5)

    def test_full_kind(self, tmp_path):
        out = tmp_path / "f.pb"
        assert main(["gen", "--kind", "full", "--n", "64", "--out", str(out)]) == EXIT_OK
        assert load_raster(out).bitmap.all()

    def test_unit_window_writes_no_sidecar(self, tmp_path):
        out = tmp_path / "f.pb"
        assert main(["gen", "--kind", "full", "--n", "64", "--out", str(out)]) == EXIT_OK
        assert sorted(f.name for f in tmp_path.iterdir()) == ["f.pb"]
        assert load_raster(out).grid == GridSpec(64)

    def test_zero_block_cells_refused(self, tmp_path, capsys):
        # 0 is a value, not a request for the n/8 default
        out = tmp_path / "b.pb"
        rc = main(["gen", "--kind", "blocks", "--n", "64", "--block-cells", "0",
                   "--out", str(out)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == "error: need block_cells >= 1, got 0\n"
        assert not out.exists()

    def test_stripes_kind(self, tmp_path):
        out = tmp_path / "s.pb"
        rc = main(["gen", "--kind", "stripes", "--n", "256", "--theta", "1.05",
                   "--block", "2", "--out", str(out)])
        assert rc == EXIT_OK
        a = load_raster(out)
        assert 0 < a.cell_count < 256 * 256

    def test_carved_kind(self, tmp_path):
        out = tmp_path / "c.pb"
        rc = main(["gen", "--kind", "carved", "--n", "64", "--block", "1",
                   "--nodes", "32", "--out", str(out)])
        assert rc == EXIT_OK

    def test_stripes_below_beta_one_are_the_swapped_strips(self, tmp_path):
        # horizontal strips, on which prospect exhausts as on the transposed
        # set in the beta > 1 system, with x and y exchanged
        flags = ["--beta", "0.5", "--eta", "1", "--theta", "1.1025"]
        out, ex = tmp_path / "s.pb", tmp_path / "e.json"
        assert main(["gen", "--kind", "stripes", "--n", "128", "--block", "2", "--out", str(out),
                     *flags]) == EXIT_OK
        assert main(["prospect", "--input", str(out), "--out", str(ex), "--ladder-depth", "2",
                     "--nodes", "64", *flags]) == EXIT_EXHAUSTION
        a, params = load_raster(out), CurveParams(0.5, 1.0, 1.1025)
        assert params.swapped() == CurveParams(2.0, 1.0, 1.05)
        strips = axis_swap(dead_strip_set(128, params.swapped(), default_ladder(2), 2))
        assert a.grid == strips.grid and np.array_equal(a.bitmap, strips.bitmap)
        got = exhaustion_from_dict(json.loads(ex.read_text()))
        want = prospect(axis_swap(a), default_ladder(2), params.swapped(),
                        SamplingConfig(nodes=64))
        assert (got.x, got.y, got.t, got.scanned) == (want.y, want.x, want.t, 6144)

    def test_carved_below_beta_one_kills_block_one_in_prospects_system(self, tmp_path):
        # carved in the caller's system, the quadrant kept the point
        # (0.00390625, 0.49609375), which has a witness at every block-1 scale
        # of prospect's scan in the swapped system
        out = tmp_path / "c.pb"
        assert main(["gen", "--kind", "carved", "--beta", "0.3", "--eta", "0.3", "--theta", "2",
                     "--nodes", "8", "--n", "128", "--block", "1", "--out", str(out)]) == EXIT_OK
        sampling = SamplingConfig(nodes=8)
        work, cutoff = _working_system(load_raster(out), CurveParams(0.3, 0.3, 2.0), sampling)
        ladder, low = default_ladder(1), np.arange(128) < 64
        padded, width = _padded(work, ladder.block(1)[0], cutoff)
        ts, runs = _block(work.grid, cutoff, ladder, 1, sampling.min_per_octave, width)
        cells = np.flatnonzero(work.bitmap & np.logical_and.outer(low, low))
        assert cells.size
        for flat, xc, yc in _batches(cells, work.grid, width):
            assert (_first_misses(runs, padded, flat, xc, yc, work) < len(ts)).all()


class TestProspectCmd:
    def test_full_square_certifies(self, tmp_path):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert_path = tmp_path / "cert.json"
        rc = main(["prospect", "--input", str(raster), "--out", str(cert_path),
                   "--nodes", "64", "--ladder-depth", "2"])
        assert rc == EXIT_OK
        d = json.loads(cert_path.read_text())
        assert d["j"] == 1
        run = json.loads((tmp_path / "cert.json.run.json").read_text())
        assert run["outcome"] == "certificate"
        assert run["version"]
        assert list(run["input_digests"].values())[0]

    def test_beta_one_refused(self, tmp_path):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        rc = main(["prospect", "--input", str(raster), "--out", str(tmp_path / "c.json"),
                   "--beta", "1.0"])
        assert rc == EXIT_ERROR

    def test_zero_ladder_depth_refused(self, tmp_path, capsys):
        # 0 is a value, not a request for j_bound's depth
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        out = tmp_path / "c.json"
        rc = main(["prospect", "--input", str(raster), "--out", str(out),
                   "--nodes", "32", "--ladder-depth", "0"])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == "error: need depth >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,name", [
        ("--subsample", "0", "subsample"),
        ("--subsample", "-3", "subsample"),
        ("--t-per-octave", "0", "min_per_octave"),
        ("--t-per-octave", "-5", "min_per_octave"),
    ])
    def test_sampling_below_one_refused(self, tmp_path, capsys, flag, value, name):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        out = tmp_path / "c.json"
        rc = main(["prospect", "--input", str(raster), "--out", str(out),
                   "--nodes", "32", "--ladder-depth", "1", flag, value])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == f"error: need {name} >= 1, got {value}\n"
        assert not out.exists()

    def test_non_finite_delta_refused(self, tmp_path, capsys):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        out = tmp_path / "c.json"
        rc = main(["prospect", "--input", str(raster), "--out", str(out),
                   "--nodes", "32", "--ladder-depth", "1", "--delta", "inf"])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == "error: config key 'delta' must be finite, got inf\n"
        assert list(tmp_path.iterdir()) == [raster]

    @pytest.mark.parametrize("flags, message", [
        (["--cprime", "1e6"], "ladder depth overflows at delta=0.4, cprime=1000000.0"),
        (["--cprime", "10"], "ladder depth 9537 is too deep"),
        (["--cprime", "25"], "ladder depth 8881784198 is too deep"),
        (["--ladder-depth", "1000000000000"], "ladder depth 1000000000000 is too deep"),
    ], ids=["overflow", "cprime-10", "cprime-25", "huge-depth"])
    def test_unbuildable_ladder_depth_is_one_error_line(self, tmp_path, capsys, flags, message):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        out = tmp_path / "c.json"
        rc = main(["prospect", "--input", str(raster), "--out", str(out), "--nodes", "32", *flags])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

    def test_exhaustion_exit_code(self, tmp_path):
        raster = tmp_path / "a.pb"
        save_raster(single_cell(64, 5, 5), raster)
        out = tmp_path / "c.json"
        rc = main(["prospect", "--input", str(raster), "--out", str(out),
                   "--nodes", "32", "--ladder-depth", "1"])
        assert rc == EXIT_EXHAUSTION
        d = json.loads(out.read_text())
        assert d["outcome"] == "exhaustion"
        assert d["schema"] == 2
        assert len(d["x"]) == 1


class TestMalformedInputs:
    """Malformed sidecars, config and certificate files end in one error line and exit 1."""

    @staticmethod
    def _prospect(tmp_path, *extra):
        raster = tmp_path / "a.pb"
        if not raster.exists():
            save_raster(single_cell(64, 5, 5), raster)
        return main(["prospect", "--input", str(raster), "--out", str(tmp_path / "c.json"),
                     "--nodes", "32", "--ladder-depth", "1", *extra])

    @pytest.mark.parametrize("meta,key", [
        ({"window_side": 1.0}, "window_origin"),
        ({"window_origin": [0.0, 0.0]}, "window_side"),
        ([[0.0, 0.0], 1.0], "JSON object"),
        ({"window_origin": [0.0], "window_side": 1.0}, "window_origin"),
        ({"window_origin": 0.5, "window_side": 1.0}, "window_origin"),
        ({"window_origin": [0.0, "0"], "window_side": 1.0}, "window_origin"),
        ({"window_origin": [0.0, 0.0], "window_side": "1"}, "window_side"),
        ({"window_origin": [0.0, 0.0], "window_side": True}, "window_side"),
        ({"window_origin": [math.nan, 0.0], "window_side": 1.0}, "window corners"),
        ({"window_origin": [math.inf, 0.0], "window_side": 1.0}, "window corners"),
        ({"window_origin": [0.0, 1e308], "window_side": 1e308}, "window corners"),
        ({"window_origin": [0.0, 0.0], "window_side": -1.0}, "window side"),
    ], ids=["no-origin", "no-side", "non-object", "short-origin", "scalar-origin",
            "string-in-origin", "string-side", "bool-side", "nan-origin", "inf-origin",
            "far-edge-overflows", "negative-side"])
    def test_malformed_sidecar(self, tmp_path, capsys, meta, key):
        save_raster(single_cell(64, 5, 5), tmp_path / "a.pb")
        sidecar = tmp_path / "a.meta.json"
        sidecar.write_text(json.dumps(meta))
        assert self._prospect(tmp_path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: sidecar {sidecar}: ") and key in err
        assert err.count("\n") == 1 and not (tmp_path / "c.json").exists()

    def test_vast_window_is_below_resolution(self, tmp_path, capsys):
        # side / (theta b) overflows a float; the least admissible N does not
        save_raster(single_cell(64, 5, 5), tmp_path / "a.pb")
        (tmp_path / "a.meta.json").write_text('{"window_origin": [0, 0], "window_side": 1e308}')
        assert self._prospect(tmp_path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: finest ladder block (b_J=0.5) arcs are below cell size ")
        assert err.endswith("; minimal admissible resolution N = 2^1023\n")

    def test_truncated_sidecar(self, tmp_path, capsys):
        save_raster(single_cell(64, 5, 5), tmp_path / "a.pb")
        sidecar = tmp_path / "a.meta.json"
        sidecar.write_text('{"window_origin": [0, 0], ')
        assert self._prospect(tmp_path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: sidecar {sidecar}: not valid JSON: ")
        assert err.count("\n") == 1 and not (tmp_path / "c.json").exists()

    def test_well_formed_sidecar_with_int_reals_loads(self, tmp_path):
        save_raster(single_cell(64, 5, 5), tmp_path / "a.pb")
        (tmp_path / "a.meta.json").write_text('{"window_origin": [1, -2], "window_side": 2}')
        assert load_raster(tmp_path / "a.pb").grid == GridSpec(64, (1.0, -2.0), 2.0)

    @pytest.mark.parametrize("body,key", [
        ([1], "JSON object"),
        ({"n": "x"}, "'n' must be int"),
        ({"n": True}, "'n' must be int"),
        ({"seed": 1.5}, "'seed' must be int"),
        ({"theta": "2.4"}, "'theta' must be float"),
        ({"outdir": None}, "'outdir' must be str"),
    ], ids=["non-object", "string-int", "bool-int", "real-int", "string-real", "null-str"])
    def test_malformed_config(self, tmp_path, capsys, body, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(body))
        assert self._prospect(tmp_path, "--config", str(cfg)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: config") and key in err and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    def test_truncated_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"n": 64,')
        assert self._prospect(tmp_path, "--config", str(cfg)) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: config {cfg}: not valid JSON: ") and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    def test_truncated_certificate(self, tmp_path, capsys):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        cert.write_text('{"beta": "2.0", ')
        assert main(["verify", "--cert", str(cert), "--raster", str(raster)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: certificate {cert}: not valid JSON: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ["--theta", "1e200"],
        ["--beta", "1e10"],
        ["--theta", "inf"],
        ["--beta", "1.5", "--eta", "1e200", "--theta", "1.1e200"],
    ], ids=["huge-theta", "huge-beta", "inf-theta", "huge-reach"])
    def test_overflowing_parameters_refused(self, tmp_path, capsys, flags):
        assert self._prospect(tmp_path, *flags) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "c.json").exists()

    def test_overflowing_coefficient_refused_before_the_scan(self, tmp_path, capsys):
        # beta = 600 is admissible, but a = (1/4)^(1 - 600) = 2^1198 is no float
        save_raster(full_square(64), tmp_path / "a.pb")
        with mock.patch("pinbeam.prospect._first_misses") as scan:
            assert self._prospect(tmp_path, "--beta", "600", "--eta", "1", "--theta", "1.001",
                                  "--nodes", "16") == EXIT_ERROR
        assert scan.call_count == 0
        assert capsys.readouterr().err == (
            "error: coefficient a = t^(1-beta) overflows a float at t = 0.25, beta = 600\n"
        )
        assert not (tmp_path / "c.json").exists()

    def test_overflowing_certificate_coefficient_is_an_error(self, tmp_path, capsys):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        assert main(["prospect", "--input", str(raster), "--out", str(cert), "--theta", "1.001",
                     "--nodes", "16", "--ladder-depth", "1"]) == EXIT_OK
        body = json.loads(cert.read_text())
        body["beta"] = "600"
        cert.write_text(json.dumps(body))
        capsys.readouterr()
        assert main(["verify", "--cert", str(cert), "--raster", str(raster), "--theta", "1.001",
                     "--nodes", "16"]) == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: coefficient a = t^(1-beta) overflows a float at t = 0.25, beta = 600\n"
        )

    def test_overflowing_certificate_parameters_refused(self, tmp_path, capsys):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        assert main(["prospect", "--input", str(raster), "--out", str(cert),
                     "--nodes", "32", "--ladder-depth", "1"]) == EXIT_OK
        body = json.loads(cert.read_text())
        body["theta"] = "1e200"
        cert.write_text(json.dumps(body))
        capsys.readouterr()
        assert main(["verify", "--cert", str(cert), "--raster", str(raster),
                     "--nodes", "32"]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: inadmissible curve parameters: ") and err.count("\n") == 1

    def test_config_takes_ints_for_reals_and_null_where_default_is_null(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 2, "rho": None, "subsample": None, "seed": 4}))
        assert self._prospect(tmp_path, "--config", str(cfg)) == EXIT_EXHAUSTION
        echo = json.loads((tmp_path / "c.json.run.json").read_text())["config"]
        assert (echo["tau"], echo["rho"], echo["subsample"], echo["seed"]) == (2, None, None, 4)


class TestVerifyCmd:
    def test_fresh_certificate_verifies(self, tmp_path):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        assert main(["prospect", "--input", str(raster), "--out", str(cert),
                     "--nodes", "64", "--ladder-depth", "1"]) == EXIT_OK
        assert main(["verify", "--cert", str(cert), "--raster", str(raster),
                     "--nodes", "64", "--refinement", "4"]) == EXIT_OK

    def test_zero_refinement_refused(self, tmp_path, capsys):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        assert main(["prospect", "--input", str(raster), "--out", str(cert),
                     "--nodes", "64", "--ladder-depth", "1"]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "--cert", str(cert), "--raster", str(raster),
                     "--nodes", "64", "--refinement", "0"]) == EXIT_ERROR
        out = capsys.readouterr()
        assert out.err == "error: need refinement >= 1, got 0\n"
        assert "verified" not in out.out

    def test_non_numeric_real_is_a_schema_error(self, tmp_path, capsys):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        cert.write_text('{"schema": 2, "outcome": "certificate", "j": 1, "beta": "x"}')
        rc = main(["verify", "--cert", str(cert), "--raster", str(raster), "--nodes", "64"])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: certificate JSON does not match schema 2: ")
        assert "'x'" in err and err.count("\n") == 1

    def test_string_columns_are_a_schema_error(self, tmp_path, capsys):
        raster, cert = self._edited_certificate(tmp_path, t="3", u="4", hit_x="5", hit_y="6")
        capsys.readouterr()
        rc = main(["verify", "--cert", str(cert), "--raster", str(raster), "--nodes", "64"])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == ("error: certificate JSON does not match schema 2: "
                                           "t must be a list, got str\n")

    @staticmethod
    def _edited_certificate(tmp_path, **fields):
        """A full-square N=64 raster and its certificate with `fields` replaced."""
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        assert main(["prospect", "--input", str(raster), "--out", str(cert),
                     "--nodes", "64", "--ladder-depth", "1"]) == EXIT_OK
        cert.write_text(json.dumps({**json.loads(cert.read_text()), **fields}))
        return raster, cert

    def test_nan_coefficient_interval_fails(self, tmp_path, capsys):
        raster, cert = self._edited_certificate(tmp_path, a_interval=["nan", "nan"])
        capsys.readouterr()
        rc = main(["verify", "--cert", str(cert), "--raster", str(raster), "--nodes", "64"])
        assert rc == EXIT_VERIFY_FAIL
        out = capsys.readouterr().out
        assert "coefficient interval low end nan" in out and "verified" not in out

    @pytest.mark.parametrize("end", ["inf", "1e300"])
    def test_unbounded_scale_interval_is_an_error(self, tmp_path, capsys, end):
        raster, cert = self._edited_certificate(tmp_path, t_interval=["0.25", end])
        capsys.readouterr()
        rc = main(["verify", "--cert", str(cert), "--raster", str(raster), "--nodes", "64"])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_refinement_too_large_to_allocate_is_an_error(self, tmp_path, capsys):
        # 10^15 refined scales would take petabytes, which numpy refuses
        # before allocating anything
        raster, cert = self._edited_certificate(tmp_path)
        capsys.readouterr()
        rc = main(["verify", "--cert", str(cert), "--raster", str(raster), "--nodes", "64",
                   "--refinement", str(10**15)])
        assert rc == EXIT_ERROR
        out = capsys.readouterr()
        assert out.err.startswith("error: Unable to allocate") and "verified" not in out.out

    def test_wrong_raster_fails_with_code_2(self, tmp_path):
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        cert = tmp_path / "cert.json"
        main(["prospect", "--input", str(raster), "--out", str(cert),
              "--nodes", "64", "--ladder-depth", "1"])
        other = tmp_path / "b.pb"
        save_raster(single_cell(64, 60, 60), other)
        rc = main(["verify", "--cert", str(cert), "--raster", str(other), "--nodes", "64"])
        assert rc == EXIT_VERIFY_FAIL

    def test_exhaustion_file_is_named(self, tmp_path, capsys):
        params, ladder = CurveParams(2.0, 1.0, 1.05), default_ladder(1)
        raster = tmp_path / "s.pb"
        save_raster(dead_strip_set(64, params, ladder, 1), raster)
        out = tmp_path / "e.json"
        assert main(["prospect", "--input", str(raster), "--out", str(out), "--theta", "1.05",
                     "--ladder-depth", "1", "--nodes", "64"]) == EXIT_EXHAUSTION
        capsys.readouterr()
        assert main(["verify", "--cert", str(out), "--raster", str(raster)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: certificate JSON expected, the file holds outcome 'exhaustion'\n"

    @pytest.mark.parametrize("j", [3, 1.7])
    def test_another_block_index_is_refused(self, tmp_path, capsys, j):
        raster, cert = self._edited_certificate(tmp_path, j=j)
        capsys.readouterr()
        rc = main(["verify", "--cert", str(cert), "--raster", str(raster), "--nodes", "64"])
        out = capsys.readouterr()
        if j == 3:
            assert rc == EXIT_VERIFY_FAIL
            assert out.out == "FAIL: t_interval (0.25, 0.5) is not (c_j, b_j) of block j = 3\n"
        else:
            assert rc == EXIT_ERROR
            assert out.err == ("error: certificate JSON does not match schema 2: "
                               "j must be an integer, got 1.7\n")

    def test_schema_mismatch_is_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"beta": "2.0"}))
        raster = tmp_path / "a.pb"
        save_raster(full_square(64), raster)
        assert main(["verify", "--cert", str(bad), "--raster", str(raster)]) == EXIT_ERROR


class TestHarnessCmd:
    def test_smoke_outputs(self, tmp_path, capsys, engine_runs):
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(128), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--blocks", "2",
                   "--rhos", "0.25", "0.125", "--tau", "1.7", "--nodes", "32",
                   "--check-hypothesis", "--outdir", str(outdir)])
        assert rc == EXIT_OK
        # 2 deviation fields, 2 x 5 decomposition fields (3 of them repeats)
        # and 6 decay octaves
        assert len(engine_runs) == 15
        assert "fields: computed 15 of 18 requested\n" in capsys.readouterr().err
        payload = json.loads((outdir / "harness.json").read_text())
        assert len(payload["decompositions"]) == 2
        assert all(r["triangle_ok"] for r in payload["decompositions"])
        assert all(r["hypothesis_holds"] is not None for r in payload["decompositions"])
        assert payload["decay"]["rows"]
        with open(outdir / "grid.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "j"
        assert len(rows) - 1 == 1 * 2  # blocks x rhos
        with open(outdir / "decay.csv") as fh:
            drows = list(csv.reader(fh))
        assert drows[0] == ["i_minus_n", "ratio", "p", "seed"]

    def test_readme_line_runs_square_sums_per_rho(self, tmp_path):
        # the README's harness line at N=256: one rho list serves the square
        # sums, the small-t rows and the decompositions
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(256), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--blocks", "2", "3",
                   "--rhos", "0.5", "0.25", "--tau", "1.7", "--nodes", "32",
                   "--outdir", str(outdir)])
        assert rc == EXIT_OK
        payload = json.loads((outdir / "harness.json").read_text())
        assert payload["schema"] == reports.HARNESS_SCHEMA == 2
        want = [
            json.loads(json.dumps(asdict(compute_sq_sums(
                load_raster(raster), default_ladder(3), 1, 3, HarnessConstants(tau=1.7, rho=rho)
            ))))
            for rho in (0.5, 0.25)
        ]
        assert payload["sq_sums"] == want
        assert [r["rho"] for r in payload["decompositions"]] == [0.5, 0.25] * 2

    def test_density_rule_rho_fails_before_any_field(self, tmp_path, capsys, engine_runs):
        # without --rhos the density rule's rho for delta 0.4 is 2^-30, which
        # no block resolves: refused before the square sums or any field
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(128), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--blocks", "2", "3",
                   "--tau", "1.7", "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        assert engine_runs == []
        assert not outdir.exists()
        constants = HarnessConstants.for_density(0.4, tau=1.7)
        with pytest.raises(ResolutionError) as exc:
            compute_sq_sums(load_raster(raster), default_ladder(3), 1, 3, constants)
        assert capsys.readouterr().err == f"error: {exc.value}\n"

    @pytest.mark.parametrize("grid", [GridSpec(128, side=2.0), GridSpec(128, (0.3, 0.0))],
                             ids=["side-2", "origin-0.3"])
    def test_non_unit_window_fails_before_any_field(self, tmp_path, capsys, engine_runs,
                                                    grid):
        # J0's rule and the decay sweep's level assume the unit square
        raster = tmp_path / "a.pb"
        save_raster(RasterSet(grid, generate_random(GridSpec(128), 0.4, 3).bitmap), raster)
        outdir = tmp_path / "out"
        block_fields.clear()  # a field kept from another test would run no engine
        rc = main(["harness", "--input", str(raster), "--blocks", "2", "--rhos", "0.25",
                   "--tau", "1.7", "--nodes", "32", "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == f"error: harness needs the unit window, got {grid}\n"
        assert engine_runs == []
        assert not outdir.exists()

    def test_zero_alpha_refused(self, tmp_path, capsys, engine_runs):
        # delta^(2/alpha) sets the default rho; alpha = 0 must not divide by zero
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(64), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--alpha", "0",
                   "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == "error: need alpha > 0, got 0.0\n"
        assert engine_runs == []
        assert not outdir.exists()

    @pytest.mark.parametrize("flags, key", [
        (["--tau", "inf"], "tau"), (["--c0", "inf"], "c0"), (["--p", "nan"], "p"),
    ], ids=["tau", "c0", "p"])
    def test_non_finite_flag_refused(self, tmp_path, capsys, engine_runs, flags, key):
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(64), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--blocks", "2", "--rhos", "0.25",
                   "--nodes", "32", "--outdir", str(outdir), *flags])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: config key '{key}' must be finite")
        assert engine_runs == []
        assert not outdir.exists()

    def test_non_finite_config_file_value_refused(self, tmp_path, capsys):
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(64), 0.4, 3), raster)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"tau": Infinity}')
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--config", str(cfg),
                   "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == "error: config key 'tau' must be finite, got inf\n"
        assert not outdir.exists()

    def test_overflowing_bound_is_an_error_not_a_json_token(self, tmp_path, capsys,
                                                             engine_runs):
        # the bound integral - 4 tau overflows to -inf at tau = 1e308: refused
        # before any field, so no outdir is made
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(64), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--blocks", "2", "--rhos", "0.25",
                   "--nodes", "32", "--tau", "1e308", "--c0", "1", "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        err = capsys.readouterr().err
        assert err == "error: the bound integral(f) - 4 tau is -inf at tau = 1e+308\n"
        assert engine_runs == []
        assert not outdir.exists()

    def test_tiny_tau_is_one_error_line(self, tmp_path, capsys, engine_runs):
        # J0 is about 512 at tau = 1e-308, so no block up to 8 is admissible
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(64), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--tau", "1e-308",
                   "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == (
            "error: no admissible blocks: raise the resolution, lower rho, or raise tau\n"
        )
        assert engine_runs == []
        assert not outdir.exists()

    @pytest.mark.parametrize("blocks", [["2"], ["2", "3"], ["4", "3"]])
    def test_blocks_at_or_below_j0_fail_before_any_field(self, tmp_path, capsys, engine_runs,
                                                         blocks):
        # J0 = 3 at tau = 0.1 (2^-6 D < 0.1 <= 2^-4 D, D = 6.24)
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(64), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--blocks", *blocks, "--rho", "0.25",
                   "--rhos", "0.25", "0.125", "--tau", "0.1", "--nodes", "32",
                   "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        first = min(map(int, blocks))
        assert capsys.readouterr().err == (
            f"error: block index {first} must exceed J0 = 3 for tau = 0.1\n"
        )
        assert engine_runs == []
        assert not outdir.exists()

    @pytest.mark.parametrize("flags, message", [
        (["--blocks", "2", "--rhos", "0.125"],
         "smoothing scale rho*c_j = 0.0078125 is below cell size 0.015625; "
         "minimal admissible resolution N = 128"),
        (["--blocks", "2", "5", "--rhos", "0.25"],
         "block 5 arcs are below cell size 0.015625; minimal admissible resolution N = 256"),
        (["--blocks", "2", "--rhos", "0.25", "0.3"], "rho must be a power of two, got 0.3"),
        (["--blocks", "2", "1", "--rhos", "0.25", "--tau", "7"],
         "block 1 arcs reach 2.88, not below the window side 1: "
         "no resolution resolves block 1"),
    ], ids=["rho-c_j", "arcs", "rho-not-dyadic", "arcs-span"])
    def test_block_rules_fail_before_any_field(self, tmp_path, capsys, engine_runs, flags,
                                               message):
        # each of these once failed only after the fields of an earlier rho or block ran
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(64), 0.4, 3), raster)
        outdir = tmp_path / "out"
        block_fields.clear()  # a field kept from another test would run no engine
        rc = main(["harness", "--input", str(raster), "--tau", "1.7", "--nodes", "32",
                   "--outdir", str(outdir), *flags])
        assert rc == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert engine_runs == []
        assert not outdir.exists()

    @pytest.mark.parametrize("n, blocks, rhos", [(64, ["2"], ["0.25"]), (128, ["2", "3"], ["0.5"])],
                             ids=["N=64", "N=128-sq-sums"])
    def test_beta_below_one_runs_in_the_swapped_system(self, tmp_path, n, blocks, rhos):
        # (0.5, 1, 5.76) swaps to (2, 1, 2.4) exactly, so the run on a set is
        # the run on its transpose in the beta > 1 system
        a = generate_random(GridSpec(n), 0.4, 7)
        assert CurveParams(0.5, 1.0, 5.76).swapped() == CurveParams(2.0, 1.0, 2.4)
        outs = []
        for name, raster, theta, beta in [("lo", a, "5.76", "0.5"),
                                          ("hi", axis_swap(a), "2.4", "2")]:
            save_raster(raster, tmp_path / f"{name}.pb")
            block_fields.clear()  # the second run would reuse the first run's fields
            assert main(["harness", "--input", str(tmp_path / f"{name}.pb"), "--beta", beta,
                         "--eta", "1", "--theta", theta, "--blocks", *blocks, "--rhos", *rhos,
                         "--tau", "1.7", "--nodes", "32", "--check-hypothesis",
                         "--outdir", str(tmp_path / name)]) == EXIT_OK
            outs.append(tmp_path / name)
        lo, hi = outs
        for name in ("grid.csv", "decay.csv"):
            assert (lo / name).read_bytes() == (hi / name).read_bytes()
        lo_json, hi_json = (json.loads((d / "harness.json").read_text()) for d in outs)
        for key in ("decompositions", "smallt", "sq_sums", "decay"):
            assert lo_json[key] == hi_json[key]
        assert (lo_json["sq_sums"] is None) == (n == 64)
        assert lo_json["config"]["beta"] == 0.5  # the caller's config echo

    def test_config_file_with_flag_override(self, tmp_path):
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(128), 0.4, 3), raster)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau": 1.7, "nodes": 64, "seed": 5}))
        outdir = tmp_path / "out2"
        rc = main(["harness", "--input", str(raster), "--blocks", "2",
                   "--rhos", "0.25", "--config", str(cfg), "--nodes", "32",
                   "--outdir", str(outdir)])
        assert rc == EXIT_OK
        payload = json.loads((outdir / "harness.json").read_text())
        assert payload["config"]["nodes"] == 32  # flag wins over file
        assert payload["config"]["seed"] == 5  # file wins over default


class TestBench:
    def test_bench_runs(self, capsys, monkeypatch):
        # each prospect row's point lookups and outcome, in row order
        calls, scan = [], cli.prospect

        def recorded(*args):
            with mock.patch("pinbeam.prospect.sample_values", wraps=sample_values) as looked_up:
                outcome = scan(*args)
            calls.append((sum(np.size(c.args[1]) for c in looked_up.call_args_list), outcome))
            return outcome

        monkeypatch.setattr(cli, "prospect", recorded)
        assert main(["bench", "--n", "64", "--nodes", "32", "--delta", "0.3"]) == EXIT_OK
        out = capsys.readouterr().out
        names = [line[:36].strip() for line in out.splitlines() if line.startswith("prospect")]
        lookups, outcome = dict(zip(names, calls))["prospect exhaustion tie scale"]
        assert lookups == 6144 and isinstance(outcome, ExhaustionReport)
        assert "prospect" in out
        assert "sq sums N=1024" in out
        assert "spectra N=2048" in out
        assert "dense window N=2048" in out
        assert "carve block 2" in out
        assert "certificate JSON" in out
        assert "verify refinement 4" in out
        assert "prospect exhaustion tie scale" in out
        assert "prospect exhaustion N=1024 stacked" in out
        cold = [line.split() for line in out.splitlines() if line.startswith("cold start")]
        assert [(row[-1], float(row[-2]) > 0) for row in cold] == [("ms", True), ("MB", True)]

    def test_bench_json_holds_the_printed_rows(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        assert main(["bench", "--n", "64", "--nodes", "32", "--delta", "0.3",
                     "--json", str(path)]) == EXIT_OK
        printed = [line[:36].strip() for line in capsys.readouterr().out.splitlines()]
        d = json.loads(path.read_text())
        assert set(d) == {"rows", "cold_start_vmhwm_mb", "versions", "cpu_count", "git_sha",
                          "blas", "fft_workers", "thread_env"}
        assert [row["name"] for row in d["rows"]] == printed[:-1]
        assert all(set(row) == {"name", "ms"} for row in d["rows"])
        assert set(d["versions"]) == {"python", "numpy", "scipy"}
        assert d["git_sha"] is None or len(d["git_sha"]) == 40
        assert set(d["thread_env"]) == {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}

    def test_blas_is_null_where_scipy_cannot_report_it(self, monkeypatch):
        import scipy

        def old_show_config(mode=None):  # SciPy before 1.11 takes no mode
            if mode is not None:
                raise TypeError("show_config() got an unexpected keyword argument 'mode'")

        monkeypatch.setattr(scipy, "show_config", old_show_config)
        assert cli._blas() is None
        monkeypatch.setattr(scipy, "show_config", lambda mode=None: {"Build Dependencies": {}})
        assert cli._blas() is None

    def test_git_sha_is_null_outside_a_repository_or_without_git(self, tmp_path,
                                                                      monkeypatch):
        assert cli._git_sha(str(tmp_path)) is None
        monkeypatch.setenv("PATH", "")
        assert cli._git_sha(str(tmp_path)) is None

    def test_bench_times_the_exhaustion_report(self, capsys):
        assert main(["bench", "--n", "64", "--nodes", "32", "--delta", "0.3"]) == EXIT_OK
        assert "exhaustion report" in capsys.readouterr().out


class TestReplayability:
    def test_prospect_replay_from_config_echo_is_bit_identical(self, tmp_path):
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(128), 0.4, 11), raster)
        first = tmp_path / "c1.json"
        assert main(["prospect", "--input", str(raster), "--out", str(first),
                     "--nodes", "32", "--ladder-depth", "2", "--seed", "3"]) == EXIT_OK
        echo = json.loads((tmp_path / "c1.json.run.json").read_text())["config"]
        cfg_file = tmp_path / "echo.json"
        cfg_file.write_text(json.dumps(echo))
        second = tmp_path / "c2.json"
        assert main(["prospect", "--input", str(raster), "--out", str(second),
                     "--config", str(cfg_file), "--ladder-depth", "2"]) == EXIT_OK
        assert first.read_bytes() == second.read_bytes()
