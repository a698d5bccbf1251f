import csv
import hashlib
import json
import math

import numpy as np
import pytest

from pinbeam import CurveParams, GridSpec, SamplingConfig, default_ladder, generate_random, prospect
from pinbeam import reports
from pinbeam.cli import EXIT_ERROR, EXIT_EXHAUSTION, EXIT_OK, EXIT_VERIFY_FAIL, main
from pinbeam.constructions import dead_strip_set
from pinbeam.fields import field_cache
from pinbeam.harness import HarnessConstants, compute_sq_sums
from pinbeam.prospect import ExhaustionReport, ResolutionError
from pinbeam.raster import axis_swap, load_raster, save_raster
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
        assert set(d) == {"beta", "eta", "theta", "point", "j", "t_interval",
                          "a_interval", "t_grid_ratio", "samples", "gap"}
        assert isinstance(d["beta"], str) and isinstance(d["j"], int)
        assert all(isinstance(v, str) for v in d["point"])
        s = d["samples"][0]
        assert set(s) == {"t", "a", "u", "hit"}
        assert all(isinstance(s[k], str) for k in ("t", "a", "u"))

    def test_schema_mismatch_raises(self):
        with pytest.raises(ValueError, match="schema"):
            certificate_from_dict({"beta": "2.0"})

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
    """Malformed sidecars and config files end in one error line and exit 1."""

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
    ], ids=["no-origin", "no-side", "non-object", "short-origin", "scalar-origin",
            "string-in-origin", "string-side", "bool-side"])
    def test_malformed_sidecar(self, tmp_path, capsys, meta, key):
        save_raster(single_cell(64, 5, 5), tmp_path / "a.pb")
        sidecar = tmp_path / "a.meta.json"
        sidecar.write_text(json.dumps(meta))
        assert self._prospect(tmp_path) == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"error: sidecar {sidecar}: ") and key in err
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
        field_cache.clear()
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

    def test_readme_line_fails_before_any_field(self, tmp_path, capsys, engine_runs):
        # the README's harness line: the default rho for delta 0.4 is 2^-30,
        # which the square sums over blocks 2..3 cannot resolve
        raster = tmp_path / "a.pb"
        save_raster(generate_random(GridSpec(128), 0.4, 3), raster)
        outdir = tmp_path / "out"
        rc = main(["harness", "--input", str(raster), "--blocks", "2", "3",
                   "--rhos", "0.25", "0.125", "--tau", "1.7", "--outdir", str(outdir)])
        assert rc == EXIT_ERROR
        assert engine_runs == []
        assert not outdir.exists()
        constants = HarnessConstants.for_density(0.4, tau=1.7)
        with pytest.raises(ResolutionError) as exc:
            compute_sq_sums(load_raster(raster), default_ladder(3), 1, 3, constants)
        assert capsys.readouterr().err == f"error: {exc.value}\n"

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
    def test_bench_runs(self, capsys):
        assert main(["bench", "--n", "64", "--nodes", "32", "--delta", "0.3"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "prospect" in out
        assert "sq sums N=1024" in out
        assert "dense window N=2048" in out

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
