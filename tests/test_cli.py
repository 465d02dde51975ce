"""Command-line interface: artifacts, determinism, config precedence, exit codes."""

import json

import pytest

from npshell.cli import main


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


class TestSpectrum:
    def test_t_family_values(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--n-max", "3", "--families", "T", "--out", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["family", "n", "eigenvalue_re", "eigenvalue_im", "limit_value"]
        vals = [float(r[2]) for r in rows]
        assert vals == pytest.approx([0.5, 0.3, 3 / 14], rel=1e-15)

    def test_m_limit_column(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--n-max", "4", "--families", "M", "--out", str(out)])
        _, rows = _read_rows(out)
        assert all(float(r[4]) == pytest.approx(-1 / 6) for r in rows)

    def test_empty_range_header_only(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--n-min", "5", "--n-max", "4", "--out", str(out)])
        assert rc == 0
        _, rows = _read_rows(out)
        assert rows == []

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["spectrum", "--n-max", "6", "--out", str(a)])
        main(["spectrum", "--n-max", "6", "--out", str(b)])
        assert a.read_bytes().replace(b"a.csv", b"") == b.read_bytes().replace(b"b.csv", b"")

    def test_header_echoes_config(self, tmp_path):
        out = tmp_path / "spec.csv"
        main(["spectrum", "--n-max", "2", "--mu", "2.5", "--out", str(out)])
        assert "# mu = 2.5" in out.read_text()


class TestValidate:
    def test_np_suite_passes(self, tmp_path):
        out = tmp_path / "v.jsonl"
        rc = main(
            ["validate", "--suite", "np", "--n-max", "2",
             "--quad-theta", "48", "--quad-phi", "96", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["failures"] == 0
        recs = [json.loads(l) for l in lines[1:-1]]
        assert all(r["rel_error"] <= 1e-6 for r in recs)

    def test_fault_injection_detected(self, tmp_path):
        out = tmp_path / "v.jsonl"
        rc = main(
            ["validate", "--suite", "np", "--n-max", "2", "--inject-fault",
             "--quad-theta", "48", "--quad-phi", "96", "--out", str(out)]
        )
        assert rc == 1

    def test_lame_suite(self, tmp_path):
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", "lame", "--n-max", "4", "--out", str(out)])
        assert rc == 0

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["validate", "--suite", "bogus", "--out", str(tmp_path / "v.jsonl")])


class TestCalr:
    def test_resonant_sweep_artifacts(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rc = main(
            ["calr", "--rs", "2.5", "--delta-grid", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
             "--no-quad-energy", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        summary = json.loads(lines[-1])
        assert summary["verdict"] == "resonant"
        records = [json.loads(l) for l in lines[1:-1]]
        energies = [float(r["energy_modal"]) for r in records]
        assert energies == sorted(energies)
        csv = tmp_path / "sweep.csv"
        header, rows = _read_rows(csv)
        assert header == ["delta", "n0", "energy", "farfield_sample"]
        assert len(rows) == 6

    def test_bounded_sweep(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rc = main(
            ["calr", "--rs", "3.5", "--delta-grid", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
             "--no-quad-energy", "--out", str(out)]
        )
        assert rc == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["verdict"] == "bounded"

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rc = main(["calr", "--rs", "2.5", "--delta-grid", "1e-3",
                   "--no-quad-energy", "--out", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["verdict"] == "insufficient-grid"


class TestField:
    def test_slice_artifact(self, tmp_path):
        out = tmp_path / "field.csv"
        rc = main(
            ["field", "--rs", "2.5", "--delta", "1e-3", "--resolution", "7",
             "--extent", "3.0", "--out", str(out)]
        )
        assert rc == 0
        header, rows = _read_rows(out)
        assert header == ["u", "v", "x", "y", "z", "abs_u"]
        assert 0 < len(rows) <= 49
        # guard band strips interface-adjacent samples
        import numpy as np

        for r in rows:
            rad = np.linalg.norm([float(r[2]), float(r[3]), float(r[4])])
            assert abs(rad - 1.0) > 0.02 and abs(rad - 2.0) > 0.02

    def test_single_sample(self, tmp_path):
        out = tmp_path / "field.csv"
        rc = main(["field", "--rs", "2.5", "--delta", "1e-2", "--resolution", "1",
                   "--offset", "3.0", "--axis", "z", "--out", str(out)])
        assert rc == 0
        _, rows = _read_rows(out)
        assert len(rows) == 1


class TestConfigHandling:
    def test_config_file_and_precedence(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("# comment\nmu = 2.0\nn_max = 2\nfamilies = T\n")
        out = tmp_path / "spec.csv"
        rc = main(["spectrum", "--config", str(cfgfile), "--mu", "3.0", "--out", str(out)])
        assert rc == 0
        text = out.read_text()
        assert "# mu = 3" in text  # flag wins over file
        assert "# n_max = 2" in text

    def test_malformed_config(self, tmp_path):
        cfgfile = tmp_path / "bad.cfg"
        cfgfile.write_text("this is not a key value line\n")
        rc = main(["spectrum", "--config", str(cfgfile), "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_unknown_config_key(self, tmp_path, capsys):
        cfgfile = tmp_path / "typo.cfg"
        cfgfile.write_text("muu = 2.0\n")
        out = tmp_path / "s.jsonl"
        rc = main(["calr", "--config", str(cfgfile), "--delta-grid", "1e-1,1e-2",
                   "--no-quad-energy", "--out", str(out)])
        assert rc == 2
        assert "error: unknown config key 'muu'" in capsys.readouterr().err
        assert not out.exists()

    def test_config_value_typed_by_its_flag(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("delta_grid = 1e-1, 1e-2,\nkappa = 2\n")
        out = tmp_path / "s.jsonl"
        rc = main(["calr", "--config", str(cfgfile), "--no-quad-energy", "--out", str(out)])
        assert rc == 0
        assert "# delta_grid = 0.10000000000000001,0.01" in out.with_suffix(".csv").read_text()
        assert "# kappa = 2" in out.with_suffix(".csv").read_text()
        cfgfile.write_text("resolution = 7.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["field", "--config", str(cfgfile), "--out", str(tmp_path / "f.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["calr", "--quad-theta", "48", "--n-max", "5", "--no-quad-energy"],
        ["spectrum", "--rs", "3"],
    ], ids=["calr-quadrature-flags", "spectrum-source-radius"])
    def test_flag_of_another_subcommand_rejected(self, tmp_path, argv, capsys):
        out = tmp_path / "a.out"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_config_key_of_another_subcommand_rejected(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("n_max = 5\n")
        rc = main(["calr", "--config", str(cfgfile), "--out", str(tmp_path / "s.jsonl")])
        assert rc == 2
        assert "error: unknown config key 'n_max'" in capsys.readouterr().err

    def test_bad_geometry_exit_code(self, tmp_path):
        rc = main(["calr", "--ri", "3.0", "--re", "2.0", "--delta-grid", "1e-1,1e-2",
                   "--no-quad-energy", "--out", str(tmp_path / "s.jsonl")])
        assert rc == 2


class TestDeterminism:
    def test_calr_artifacts_byte_identical(self, tmp_path):
        argsets = []
        for name in ("a", "b"):
            out = tmp_path / f"{name}.jsonl"
            main(["calr", "--rs", "2.5", "--delta-grid", "1e-1,1e-2,1e-3,1e-4,1e-5",
                  "--no-quad-energy", "--out", str(out)])
            argsets.append(out)
        a, b = argsets
        assert a.read_bytes().replace(b"a.jsonl", b"") == b.read_bytes().replace(b"b.jsonl", b"")
        assert (
            a.with_suffix(".csv").read_bytes().replace(b"a.jsonl", b"")
            == b.with_suffix(".csv").read_bytes().replace(b"b.jsonl", b"")
        )


class TestFieldLocalization:
    def test_resonant_slice_confines_oscillation(self, tmp_path):
        # at small loss the field is large only inside r_e^2/r_i
        import numpy as np

        out = tmp_path / "field.csv"
        rc = main(["field", "--rs", "2.5", "--delta", "1e-5", "--axis", "y",
                   "--extent", "5.0", "--resolution", "41", "--out", str(out)])
        assert rc == 0
        header, rows = _read_rows(out)
        r = np.array([np.linalg.norm([float(a[2]), float(a[3]), float(a[4])]) for a in rows])
        v = np.array([float(a[5]) for a in rows])
        inside = v[r < 4.0].max()
        beyond = v[r >= 4.0].max()
        assert inside > 10 * beyond
