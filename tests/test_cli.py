import csv
import json
import math

import numpy as np
import pytest

from pinbeam import CurveParams, GridSpec, SamplingConfig, default_ladder, generate_random, prospect
from pinbeam.cli import EXIT_ERROR, EXIT_EXHAUSTION, EXIT_OK, EXIT_VERIFY_FAIL, main
from pinbeam.fields import field_cache
from pinbeam.harness import HarnessConstants, compute_sq_sums
from pinbeam.prospect import ResolutionError
from pinbeam.raster import load_raster, save_raster
from pinbeam.reports import (
    RunConfig,
    certificate_from_dict,
    certificate_to_dict,
    encode_real,
    exhaustion_from_dict,
    exhaustion_to_dict,
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
        assert len(d["points"]) == 1


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
