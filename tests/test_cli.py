"""Command-line interface: artifacts, determinism, config precedence, exit codes."""

import argparse
import importlib.util
import io
import json
import math
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from npshell import cli, harmonics
from npshell.cli import _worst_error, main
from npshell.oracle import ValidationRecord

ROOT = Path(__file__).resolve().parent.parent


def _strict_json(line):
    """json.loads that rejects NaN and Infinity, which strict JSON lacks."""
    def reject(const):
        raise ValueError(f"non-strict JSON constant {const}")

    return json.loads(line, parse_constant=reject)


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [l.split(",") for l in lines[1:]]


def _mostly(valid, edge):
    """`valid` three times in four, else `edge`."""
    return st.integers(0, 3).flatmap(lambda k: edge if k == 0 else valid)


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

    @pytest.mark.parametrize("flags", [["--n-min", "5", "--n-max", "4"], ["--families", ","],
                                       ["--families", "T,T"], ["--families", "M, N,M"],
                                       ["--n-min", "3100000000", "--n-max", "3100000000"]],
                             ids=["empty-range", "no-family", "repeated-family", "repeated-spaced-family",
                                  "past-degree-cap"])
    def test_rejected_table_exits_2(self, tmp_path, capsys, flags):
        # the first four used to write an empty table, or every row twice, and
        # exit 0; past the cap, 4 n^2 would wrap around in int64
        out = tmp_path / "spec.csv"
        assert main(["spectrum", *flags, "--out", str(out)]) == 2 and not out.exists()
        assert capsys.readouterr().err.count("error:") == 1

    def test_unknown_family_exits_2_before_writing(self, tmp_path, capsys):
        # an empty degree range used to hide the bad family behind a header-only CSV
        out = tmp_path / "spec.csv"
        for extra in (["--n-min", "5", "--n-max", "4"], []):
            rc = main(["spectrum", "--families", "T,X", *extra, "--out", str(out)])
            assert rc == 2 and not out.exists()
            err = capsys.readouterr().err
            assert err.count("error:") == 1 and "unknown family 'X'" in err

    @seed(20261019)
    @settings(max_examples=150, deadline=None)
    @given(
        n_min=_mostly(st.integers(1, 40), st.sampled_from([-2, -1, 0, 999_999, 10**6, 10**6 + 1])),
        span=_mostly(st.integers(0, 30), st.sampled_from([-3, -1, "nan", "inf", "2.5", "-0", ""])),
        families=_mostly(st.sampled_from(["T", "M", "N", "T,M,N", "N,T", "M,", "T,,N", " M , N "]),
                         st.sampled_from(["", ",", " , ", "T,T", "M,N,M", "X", "t", "T,M,N,X"])),
        lam=_mostly(st.floats(-0.6, 1e3), st.one_of(st.floats(), st.sampled_from(
            [-0.0, -0.66, -0.67, 5e-324, 1e300, 1e308, -1e308]))),
        mu=_mostly(st.floats(1e-3, 1e3), st.one_of(st.floats(), st.sampled_from([0.0, -1.0, 5e-324, 1e300, 1e308]))),
    )
    @example(n_min=1, span=3, families="M", lam=1e308, mu=1.0)  # M and N overflow to nan
    @example(n_min=1, span=3, families="N,T", lam=1e308, mu=1e308)
    @example(n_min=10**6, span=0, families="T,M,N", lam=0.0, mu=5e-324)  # the cap, a subnormal mu
    @example(n_min=5, span=-1, families="T", lam=1.0, mu=1.0)
    @example(n_min=1, span=3, families="T,T", lam=1.0, mu=1.0)
    def test_input_contract(self, tmp_path_factory, n_min, span, families, lam, mu):
        # exit 0 with a non-empty CSV of finite numbers and distinct rows, or
        # exit 2 with one `error:` line and no CSV; never a warning
        out = tmp_path_factory.getbasetemp() / "contract.csv"
        out.unlink(missing_ok=True)
        n_max = n_min + span if isinstance(span, int) else span  # a text span is the --n-max value
        argv = ["spectrum", f"--n-min={n_min}", f"--n-max={n_max}", f"--families={families}",
                f"--lambda={lam!r}", f"--mu={mu!r}", f"--out={out}"]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stderr(err), redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a value its type cannot parse
                rc = exc.code
        assert not caught, [str(w.message) for w in caught]
        if rc == 0:
            assert err.getvalue() == ""
            lines = out.read_text().splitlines()
            echo = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("# "))
            rows = [l.split(",") for l in lines if not l.startswith("#")][1:]
            assert rows and echo.keys() == {"families", "lam", "mu", "n_max", "n_min", "out"}
            assert len({(r[0], r[1]) for r in rows}) == len(rows)  # no (family, n) row twice
            for cell in [c for row in rows for c in row[1:]] + [echo[k] for k in ("lam", "mu", "n_max", "n_min")]:
                assert math.isfinite(float(cell)), cell
        else:
            assert rc == 2
            assert sum("error:" in l for l in err.getvalue().splitlines()) == 1, err.getvalue()
            assert not out.exists()

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
        config = _strict_json(lines[0])
        assert (config["type"], config["quad_theta"]) == ("config", 48)
        summary = _strict_json(lines[-1])
        assert summary["failures"] == 0
        recs = [_strict_json(l) for l in lines[1:-1]]
        assert all(r["rel_error"] <= 1e-6 for r in recs)
        rec = recs[0]
        assert (rec["operation"], rec["passed"]) == ("np_eigenvalue", True)
        assert rec["params"] == {"family": "T", "n": 1, "m": 1, "residual": rec["params"]["residual"],
                                 "n_theta": 48, "n_phi": 96}
        assert rec["closed_form"] == {"re": 0.5, "im": 0.0}

    def test_fault_injection_detected(self, tmp_path, monkeypatch):
        # a reference eigenvalue off by 1% (M, n = 2) fails its record
        closed_form = cli.np_eigenvalue
        monkeypatch.setattr(cli, "np_eigenvalue", lambda fam, n, lame: closed_form(fam, n, lame)
                            * (1.01 if (fam, n) == ("M", 2) else 1.0))
        out = tmp_path / "v.jsonl"
        rc = main(
            ["validate", "--suite", "np", "--n-max", "2",
             "--quad-theta", "48", "--quad-phi", "96", "--out", str(out)]
        )
        assert rc == 1
        assert _strict_json(out.read_text().splitlines()[-1])["failures"] == 1

    @pytest.mark.parametrize("suite", ["gram", "energy"])
    def test_records_name_the_rule_they_used(self, tmp_path, suite):
        # both suites use 24 x 48 here while the config echoes 64 x 128
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", suite, "--n-max", "2", "--out", str(out)])
        assert rc == 0
        config, *records, _ = [_strict_json(l) for l in out.read_text().splitlines()]
        assert (config["quad_theta"], config["quad_phi"]) == (64, 128)
        assert records and all((r["params"]["n_theta"], r["params"]["n_phi"]) == (24, 48) for r in records)

    def test_layers_suite_checks_both_single_layers(self, tmp_path):
        # every mode at every radius: one scalar and one elastic record, each with a residual
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", "layers", "--n-max", "2",
                   "--quad-theta", "24", "--quad-phi", "48", "--out", str(out)])
        assert rc == 0
        recs = [_strict_json(l) for l in out.read_text().splitlines()[1:-1]]
        keys = {(r["operation"], r["params"]["family"], r["params"]["n"], r["params"]["r0"]) for r in recs}
        assert len(recs) == len(keys) == 2 * 3 * 2 * 3
        assert {k[0] for k in keys} == {"scalar_single_layer", "elastic_single_layer"}
        assert all(r["passed"] and 0 <= r["params"]["residual"] < 1e-14 for r in recs)

    def test_layers_record_fails_on_its_residual(self, tmp_path, monkeypatch):
        # the exact multiplier with a residual of 1e-5 of it: the shape is
        # wrong, so the record fails although its gap is zero
        def off_shape(idx, lame, rule, r0):
            closed = r0 * cli.elastic_sl_coeff(idx.family, idx.n, lame)
            return complex(closed), 1e-5 * abs(closed)

        monkeypatch.setattr(cli, "quad_elastic_sl", off_shape)
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", "layers", "--n-max", "1",
                   "--quad-theta", "24", "--quad-phi", "48", "--out", str(out)])
        assert rc == 1
        recs = [_strict_json(l) for l in out.read_text().splitlines()[1:-1]]
        assert {r["operation"] for r in recs if not r["passed"]} == {"elastic_single_layer"}
        assert all(r["oracle"] == r["closed_form"] for r in recs if not r["passed"])

    def test_lame_suite(self, tmp_path):
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", "lame", "--n-max", "4", "--out", str(out)])
        assert rc == 0

    def test_suite_registry(self, tmp_path, capsys, monkeypatch):
        # the parser, the dispatcher and scripts/validate_all.py all read cli.SUITES
        for suite in cli.SUITES:
            out = tmp_path / f"{suite}.jsonl"
            assert main(["validate", "--suite", suite, "--n-max", "2", "--out", str(out)]) == 0
            assert _strict_json(out.read_text().splitlines()[-1])["suite"] == suite
        (commands,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        (suite_flag,) = [a for a in commands.choices["validate"]._actions if a.dest == "suite"]
        assert suite_flag.choices == list(cli.SUITES)
        spec = importlib.util.spec_from_file_location("validate_all", ROOT / "scripts" / "validate_all.py")
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        calls = []
        monkeypatch.setattr(script, "cli", lambda argv: calls.append(argv[argv.index("--suite") + 1]) or 0)
        assert script.run(tmp_path / "all") == 0
        assert calls == list(cli.SUITES)
        # the flag rule is checked for every suite, also one that reads no rule
        capsys.readouterr()
        rc = main(["validate", "--suite", "lame", "--quad-theta", "64", "--quad-phi", "100",
                   "--out", str(tmp_path / "v.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.strip() == "error: need n_phi >= 2 n_theta for azimuthal resolution"

    def test_unknown_suite(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["validate", "--suite", "bogus", "--out", str(tmp_path / "v.jsonl")])

    @pytest.mark.parametrize("argv, mode", [
        (["--n-max", "1", "--quad-theta", "1", "--quad-phi", "2"], "T n=1 m=1"),
        (["--n-max", "7", "--quad-theta", "4", "--quad-phi", "8"], "T n=7 m=1"),
    ], ids=["1x2", "4x8"])
    def test_non_eigenfunction_is_a_validation_failure(self, tmp_path, capsys, argv, mode):
        # an under-resolved rule mixes modes: one error line, exit 1
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", "np", *argv, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: N-P mode {mode}: projection residual ")
        assert not out.exists()

    def test_worst_error_keeps_nan(self):
        # max() skips a NaN that is not first: "18 failures, worst rel error 1.5e-14"
        records = [ValidationRecord("op", {}, 1.0, 1.0, e, 1e-6) for e in (1.5e-14, math.nan, 2e-15)]
        assert math.isnan(_worst_error(records))
        assert _worst_error(records[::2]) == 1.5e-14
        assert _worst_error([]) == 0.0

    @pytest.mark.parametrize("n_theta", ["0", "-1"])
    def test_colatitude_nodes_below_one_rejected(self, tmp_path, capsys, n_theta):
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", "np", "--quad-theta", n_theta, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.strip() == f"error: need n_theta >= 1 colatitude nodes, got n_theta={n_theta}"

    @pytest.mark.parametrize("suite", ["np", "gram"])
    def test_degree_below_one_rejected(self, tmp_path, capsys, suite):
        # n_max = 0 would run no check at all and still exit 0
        out = tmp_path / "v.jsonl"
        rc = main(["validate", "--suite", suite, "--n-max", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == "error: n_max must be >= 1"
        assert not out.exists()


class TestCalr:
    def test_resonant_sweep_artifacts(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rc = main(
            ["calr", "--rs", "2.5", "--delta-grid", "1e-1,1e-2,1e-3,1e-4,1e-5,1e-6",
             "--no-quad-energy", "--out", str(out)]
        )
        assert rc == 0
        lines = out.read_text().splitlines()
        summary = _strict_json(lines[-1])
        assert summary["verdict"] == "resonant"
        records = [_strict_json(l) for l in lines[1:-1]]
        energies = [r["energy_modal"] for r in records]
        assert all(isinstance(e, float) for e in energies)
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

    def test_zero_source_is_bounded(self, tmp_path):
        # kappa = 0 gives an empty spectrum: zero energy at every loss
        out = tmp_path / "sweep.jsonl"
        rc = main(["calr", "--kappa", "0", "--no-quad-energy", "--out", str(out)])
        assert rc == 0
        lines = [_strict_json(l) for l in out.read_text().splitlines()]
        assert [r["energy_modal"] for r in lines[1:-1]] == [0.0] * 6
        # a spectrum with no energy keeps no degree
        assert [(r["n_trunc"], r["dominant_n"]) for r in lines[1:-1]] == [(0, 0)] * 6
        assert lines[-1]["verdict"] == "bounded"
        # 0/0 is no ratio: not "inf", which would read as unbounded growth
        assert lines[-1]["energy_ratio"] == "nan"
        assert lines[-1]["farfield_ratio"] == "nan"

    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "sweep.jsonl"
        rc = main(["calr", "--rs", "2.5", "--delta-grid", "1e-3",
                   "--no-quad-energy", "--out", str(out)])
        assert rc == 0
        summary = json.loads(out.read_text().splitlines()[-1])
        assert summary["verdict"] == "insufficient-grid"

    def test_empty_grid_rejected(self, tmp_path, capsys):
        rc = main(["calr", "--delta-grid", ",", "--no-quad-energy", "--out", str(tmp_path / "s.jsonl")])
        assert rc == 2
        assert capsys.readouterr().err.strip() == "error: delta grid is empty"


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

    @pytest.mark.parametrize("axis, offset", [("y", 0.0), ("x", 0.3), ("z", -1.1)])
    def test_samples_are_the_plane_grid_in_loop_order(self, tmp_path, axis, offset):
        import numpy as np

        out = tmp_path / "field.csv"
        assert main(["field", "--resolution", "9", "--axis", axis, "--offset", str(offset),
                     "--out", str(out)]) == 0
        _, rows = _read_rows(out)
        kept = {"x": (1, 2), "y": (0, 2), "z": (0, 1)}[axis]
        expected = []
        for u in np.linspace(-5.0, 5.0, 9):
            for v in np.linspace(-5.0, 5.0, 9):
                p = [offset] * 3
                p[kept[0]], p[kept[1]] = u, v
                rad = np.linalg.norm(p)
                if abs(rad - 1.0) > 0.04 and abs(rad - 2.0) > 0.04:  # guard 0.02 r_e
                    expected.append([u, v, *p])
        assert [[float(c) for c in row[:5]] for row in rows] == expected

    def test_single_sample(self, tmp_path):
        out = tmp_path / "field.csv"
        rc = main(["field", "--rs", "2.5", "--delta", "1e-2", "--resolution", "1",
                   "--offset", "3.0", "--axis", "z", "--out", str(out)])
        assert rc == 0
        _, rows = _read_rows(out)
        assert len(rows) == 1

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_resolution_below_one_rejected(self, tmp_path, capsys, resolution):
        out = tmp_path / "field.csv"
        rc = main(["field", "--resolution", resolution, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.strip() == f"error: resolution must be >= 1, got {resolution}"
        assert not out.exists()

    def test_resolution_checked_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # this shell is too thin for the degree cap; the bad flag is reported, not the cap
        args = ["field", "--resolution", "0", "--ri", "0.999", "--re", "1", "--rs", "1.2",
                "--out", str(tmp_path / "field.csv")]
        assert main(args) == 2
        assert capsys.readouterr().err.strip() == "error: resolution must be >= 1, got 0"
        monkeypatch.setattr(cli, "solve_sweep_point", lambda *a, **k: pytest.fail("solved before the flag check"))
        assert main(args) == 2


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
        config = _strict_json(out.read_text().splitlines()[0])
        assert (config["delta_grid"], config["kappa"]) == ([0.1, 0.01], 2.0)
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

    @pytest.mark.parametrize("argv, flag, name", [
        (["calr", "--kappa", "0"], "--no-quad-energy", "a.jsonl"),
        (["field", "--resolution", "3"], "--include-source", "a.csv"),
    ], ids=["calr", "field"])
    def test_header_echoes_boolean_flag(self, tmp_path, argv, flag, name):
        out = tmp_path / name
        key = flag[2:].replace("-", "_")
        headers = []
        for on in (False, True):
            assert main(argv + [flag] * on + ["--out", str(out)]) == 0
            lines = out.read_text().splitlines()
            if name.endswith(".jsonl"):
                headers.append(_strict_json(lines[0]))
                assert headers[-1][key] is on
            else:
                headers.append([l for l in lines if l.startswith("# ")])
                assert f"# {key} = {json.dumps(on)}" in headers[-1]
        assert headers[0] != headers[1]

    def test_config_file_cannot_set_a_boolean_flag(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("no_quad_energy = true\n")
        rc = main(["calr", "--config", str(cfgfile), "--out", str(tmp_path / "s.jsonl")])
        assert rc == 2
        assert "error: unknown config key 'no_quad_energy'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, message", [
        ("validate", "suite = bogus", "error: unknown suite 'bogus'"),
        ("field", "axis = w", "error: axis must be one of x, y, z"),
    ], ids=["suite", "axis"])
    def test_config_value_outside_choices(self, tmp_path, capsys, command, line, message):
        # argparse checks choices on the command line only, not on defaults
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(line + "\n")
        out = tmp_path / "a.out"
        assert main([command, "--config", str(cfgfile), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    def test_config_does_not_reach_the_next_call(self, tmp_path, capsys):
        # the parser is built once per process, and a config file sets the defaults of its own call only
        assert cli.build_parser() is cli.build_parser()
        cfgfile, out = tmp_path / "run.cfg", tmp_path / "calr.jsonl"

        def calr(*flags):
            rc = main(["calr", *flags, "--delta-grid", "1e-1,1e-2", "--no-quad-energy", "--out", str(out)])
            return rc, out.read_text(), out.with_suffix(".csv").read_text()

        plain = calr()
        cfgfile.write_text("rs = 3.0\nmu = 2.0\n")
        configured = calr("--config", str(cfgfile))
        assert configured[0] == 0
        assert "# mu = 2" in configured[2] and "# rs = 3" in configured[2]
        cfgfile.write_text("rs = 3.0\nmuu = 2.0\n")
        assert calr("--config", str(cfgfile))[0] == 2  # an unknown key
        cfgfile.write_text("rs = 3.0\nkappa = one\n")
        with pytest.raises(SystemExit) as exc:  # a value its flag's type rejects
            calr("--config", str(cfgfile))
        assert exc.value.code == 2
        after = calr()
        config = _strict_json(after[1].splitlines()[0])
        assert (config["rs"], config["mu"], config["kappa"]) == (2.5, 1.0, 1.0)  # the defaults
        assert after == plain

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # the shell energy grows as kappa^2, so kappa = 1e200 overflows it
        # in solve_sweep, before the quadrature cross-check; every rescaled
        # shell and material now exits 0 (TestScaledRuns)
        out = tmp_path / "s.jsonl"
        rc = main(["calr", "--kappa", "1e200", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        assert "Traceback" not in err
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.parametrize("argv, names", [
        (["--rs", "nan"], "r_s=nan"),
        (["--rs", "2.5", "--mu", "0"], "mu = 0"),
        (["--ri", "0.999", "--re", "1", "--rs", "1.2", "--delta-grid", "1e-1,1e-2,1e-3,1e-4"],
         "n0=2302 (rho=0.999, delta=0.1)"),
    ], ids=["nan-source", "zero-mu", "thin-shell"])
    def test_bad_input_exit_code(self, tmp_path, capsys, argv, names):
        # each once exited 0: verdict "bounded" for the first two, and a
        # sweep past the degree cap (n_trunc up to 9226) for the thin shell
        out = tmp_path / "s.jsonl"
        rc = main(["calr", *argv, "--no-quad-energy", "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and names in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, names", [
        (["calr", "--mu", "nan"], "mu=nan"),
        (["calr", "--mu", "-1"], "mu=-1.0"),
        (["calr", "--lambda", "-5"], "lambda=-5.0"),
        (["calr", "--kappa", "inf"], "kappa=inf"),
        (["calr", "--rs", "inf"], "r_s=inf"),
        (["field", "--extent", "nan"], "extent=nan"),
        (["spectrum", "--lambda", "nan"], "lambda=nan"),
    ], ids=["calr-mu-nan", "calr-mu-negative", "calr-lambda-nonconvex", "calr-kappa-inf",
            "calr-rs-inf", "field-extent-nan", "spectrum-lambda-nan"])
    def test_non_finite_or_non_physical_input_exit_code(self, tmp_path, capsys, argv, names):
        # each once exited 0 with a NaN, empty or non-physical artifact
        out = tmp_path / "a.out"
        extra = ["--no-quad-energy"] if argv[0] == "calr" else []
        rc = main([*argv, *extra, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and names in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, names", [
        (["--suite", "layers", "--lambda", "1e308", "--n-max", "2"], "lambda=1e+308"),
        (["--suite", "gram", "--lambda", "1e308", "--mu", "1e308", "--n-max", "2"], "lambda=1e+308"),
    ], ids=["layers-huge-lambda", "gram-huge-lambda-mu"])
    def test_overflowing_material_exit_code(self, tmp_path, capsys, argv, names):
        # a_coeff divided inf by inf: a RuntimeWarning and NaN N-family
        # records (layers), a NaN gram record (gram), and exit 1
        out = tmp_path / "v.jsonl"
        rc = main(["validate", *argv, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and names in err
        assert "overflows" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [["calr", "--no-quad-energy"], ["calr"], ["field", "--resolution", "5"]],
                             ids=["calr-modal", "calr-with-quadrature", "field"])
    def test_overflowing_energy_exit_code(self, tmp_path, capsys, argv):
        # the shell energies grow as kappa^2 and overflow: with lambda = mu =
        # 1e200, whose energies once overflowed the same way, calr printed
        # three RuntimeWarnings and exited 0 with "verdict: bounded (energy
        # ratio nan ...)"
        out = tmp_path / "a.out"
        rc = main([*argv, "--kappa", "1e200", "--rs", "2.5", "--out", str(out)])
        assert rc == 2
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and captured.err.startswith("error: ")
        assert "overflow" in captured.err and "verdict" not in captured.out
        assert not out.exists() and not out.with_suffix(".csv").exists()

    @pytest.mark.filterwarnings("error")
    def test_huge_material_lame_suite(self, tmp_path):
        # the FD Lame residual once squared L u ~ 1e200 in its norm: 17 `inf`
        # records, a RuntimeWarning and exit 1; the material scale is now
        # divided out first, and a_coeff reads only lambda / mu, so the
        # records are those of lambda = mu = 1
        records = {}
        for scale in ("1", "1e200"):
            out = tmp_path / f"lame-{scale}.jsonl"
            assert main(["validate", "--suite", "lame", "--lambda", scale, "--mu", scale, "--out", str(out)]) == 0
            records[scale] = [_strict_json(l) for l in out.read_text().splitlines()[1:-1]]
        assert len(records["1e200"]) == 18
        for huge, unit in zip(records["1e200"], records["1"]):
            assert huge["passed"] and huge["params"] == unit["params"]
            assert abs(huge["rel_error"] - unit["rel_error"]) <= 1e-12

    @pytest.mark.filterwarnings("error")
    def test_huge_material_energy_suite_exit_code(self, tmp_path):
        # |elastic_sl_coeff|^2 ~ 4e-402 once underflowed, so closed form and
        # quadrature both read exactly 0 (the suite passed 5/5 records
        # comparing 0 with 0, and later exited 2); the source amplitude is
        # now mu, so the energies are mu times the unit-material ones; at 2e301 the
        # quadrature once weighted its densities by lam and mu before summing and overflowed
        records = {}
        for scale in ("1", "1e200", "2e301"):
            out = tmp_path / f"energy-{scale}.jsonl"
            assert main(["validate", "--suite", "energy", "--lambda", scale, "--mu", scale, "--out", str(out)]) == 0
            records[scale] = [_strict_json(l) for l in out.read_text().splitlines()[1:-1]]
        for scale in ("1e200", "2e301"):
            assert len(records[scale]) == 5
            for huge, unit in zip(records[scale], records["1"]):
                assert huge["passed"] and huge["params"] == unit["params"]
                assert huge["closed_form"] > 0.1 * float(scale) and huge["oracle"] > 0.1 * float(scale)
                assert abs(huge["rel_error"] - unit["rel_error"]) <= 1e-12

    def test_bad_geometry_exit_code(self, tmp_path):
        rc = main(["calr", "--ri", "3.0", "--re", "2.0", "--delta-grid", "1e-1,1e-2",
                   "--no-quad-energy", "--out", str(tmp_path / "s.jsonl")])
        assert rc == 2


class TestScaledRuns:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["calr", "--ri", "1e-3", "--re", "2e-3", "--rs", "2.05e-3", "--lambda", "1e-150", "--mu", "1e-150"],
        ["calr", "--ri", "1e3", "--re", "2e3", "--rs", "2.5e3", "--lambda", "1e150", "--mu", "1e150"],
        ["field", "--ri", "1e-3", "--re", "2e-3", "--rs", "2.1e-3", "--extent", "5e-3", "--lambda", "1e150",
         "--mu", "1e150"],
        ["field", "--ri", "1e3", "--re", "2e3", "--rs", "2.1e3", "--extent", "5e3", "--lambda", "1e-150",
         "--mu", "1e-150"],
        ["field", "--rs", "2.05", "--extent", "1000"],
        ["calr", "--ri", "0.1", "--re", "1", "--rs", "1.025"],
        ["calr", "--ri", "0.1", "--re", "1", "--rs", "1.025", "--no-quad-energy"],
        ["field", "--ri", "0.1", "--re", "1", "--rs", "1.025", "--extent", "1.2", "--resolution", "21"],
    ], ids=["calr-small", "calr-large", "field-small", "field-large", "field-far-extent", "calr-rho-0.1",
            "calr-rho-0.1-modal", "field-rho-0.1"])
    def test_exit_0_with_finite_artifacts(self, tmp_path, capsys, argv):
        # all but the modal run at rho = 0.1 once exited 2 (overflow) or ended
        # in a traceback on a RuntimeWarning: radius powers past the float
        # range, |phi|^2 ~ mu^2, r^(k+1) of the far slice's decaying terms,
        # and at rho = 0.1 a core coefficient over a subnormal rho^(n-1) and
        # decaying factors (1/r)^(k+1) past the float range on rows that are 0
        out = tmp_path / "a.out"
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        csv = out.with_suffix(".csv") if argv[0] == "calr" else out
        _, *rows = [line.split(",") for line in csv.read_text().splitlines() if not line.startswith("# ")]
        assert rows and all(math.isfinite(float(cell)) for row in rows for cell in row)
        if argv[0] == "calr" and "--no-quad-energy" not in argv:
            assert all(math.isfinite(_strict_json(line)["energy_quadrature"])
                       for line in out.read_text().splitlines()[1:-1])


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


    def test_calr_after_the_cap_sweep_matches_a_fresh_process(self, tmp_path, empty_grid_tables):
        # the cap sweep grows the kept probe, rule and weight tables to degree 400; `calr --rs 2.5`
        # then reads slices of them and writes what it writes with no table kept, byte for byte
        out = tmp_path / "calr.jsonl"

        def run():
            assert main(["calr", "--rs", "2.5", "--out", str(out)]) == 0
            return out.read_bytes(), out.with_suffix(".csv").read_bytes()

        fresh = run()
        assert main(["calr", "--re", "2.5", "--rs", "2.6", "--kappa", "2", "--out", str(tmp_path / "cap.jsonl")]) == 0
        assert min(held[0] for held, _, _ in harmonics._grid_tables.values()) >= 400
        assert harmonics._weights[1] >= 400  # the degrees of `_series_orders`' weight table
        assert run() == fresh


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
