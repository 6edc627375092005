"""CLI: config ingestion, CSV contract, exit codes, determinism."""

import builtins

import numpy as np
import pytest

from qfeedback import cli, errors, loop
from qfeedback import atom_squash as at

# CLI exit status of every error type: 2 invalid parameters, 3 numerical failure
EXIT_CODES = {
    "ValueError": 2, "TypeError": 2,
    "DimensionMismatch": 2, "InvalidState": 2, "DegenerateSplit": 2,
    "TooShort": 2, "SemiclassicalInexpressible": 2, "UnphysicalBath": 2,
    "UnreachableSqueezing": 2, "ParseError": 2, "UnknownKey": 2,
    "QFeedbackError": 3, "JumpFromDarkState": 3, "PositivityViolation": 3,
    "DegenerateSteadyState": 3, "UnstableLoop": 3, "MarginalStability": 3,
    "NyquistUnresolved": 3,
    "DivergenceDetected": 3,
}


def no_contour(*args, **kwargs):
    raise AssertionError("the Nyquist contour was sampled")


def read_csv(path):
    header, rows = [], []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            else:
                rows.append(line.split(","))
    return header, rows[0], rows[1:]


class TestSpectraCsv:
    def test_column_contract_and_header(self, tmp_path):
        out = tmp_path / "s.csv"
        assert cli.run(["spectra", "--output", str(out)]) == 0
        header, cols, rows = read_csv(out)
        assert cols == ["omega", "s2x", "s3x", "s2y", "s3y"]
        assert header[0].startswith("# qfeedback ")
        assert "# subcommand: spectra" in header
        assert any(h.startswith("# seed:") for h in header)
        assert len(rows) == 512

    def test_effective_config_echo(self, tmp_path):
        out = tmp_path / "s.csv"
        cli.run(["spectra", "--g", "-2.5", "--output", str(out)])
        echo = (tmp_path / "s.csv.config").read_text()
        assert echo.startswith("[spectra]\n")
        assert "g = -2.5  ; flag" in echo
        assert "gamma = 1  ; default" in echo

    def test_seventeen_digit_roundtrip(self, tmp_path):
        out = tmp_path / "a.csv"
        assert cli.run(["atom", "--lambda-opt", "--output", str(out)]) == 0
        _, _, rows = read_csv(out)
        table = {name: float(val) for name, val in rows}
        p = at.AtomLoopParams.from_lambda(0.8, 0.95, -0.8 * 0.95)
        gx, gy, gz, c = at.decay_rates(p)
        assert table["gamma_x"] == gx          # exact bit-level round trip
        assert table["gamma_z"] == gz
        assert abs(table["gamma_x"] - 0.12) < 1e-12


class TestConfigFile:
    def write_ini(self, tmp_path, body):
        path = tmp_path / "cfg.ini"
        path.write_text(body)
        return str(path)

    def test_flag_wins_over_file(self, tmp_path):
        ini = self.write_ini(tmp_path, "[spectra]\ng = -3.0\ngamma = 2.0\n")
        out = tmp_path / "s.csv"
        assert cli.run(["spectra", "--config", ini, "--g", "-1.5",
                        "--output", str(out)]) == 0
        echo = (tmp_path / "s.csv.config").read_text()
        assert "g = -1.5  ; flag" in echo
        assert "gamma = 2  ; file" in echo
        assert "eta2 = 0.5  ; default" in echo

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        ini = self.write_ini(tmp_path, "[spectra]\nbogus = 1\n")
        assert cli.run(["spectra", "--config", ini,
                        "--output", str(tmp_path / "s.csv")]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_removed_workers_key_exits_2(self, tmp_path, capsys):
        ini = self.write_ini(tmp_path, "[trajectory]\nworkers = 2\n")
        with pytest.raises(errors.UnknownKey, match="workers"):
            cli.load_config(ini, "trajectory")
        assert cli.run(["trajectory", "--config", ini,
                        "--output", str(tmp_path / "t.csv")]) == 2
        assert "unknown keys for [trajectory]: workers" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path):
        ini = self.write_ini(tmp_path, "not an ini line\n")
        assert cli.run(["spectra", "--config", ini,
                        "--output", str(tmp_path / "s.csv")]) == 2

    def test_boolean_words(self, tmp_path, capsys):
        for word, value in (("yes", True), ("On", True), ("1", True),
                            ("off", False), ("no", False), ("0", False)):
            ini = self.write_ini(tmp_path, f"[atom]\nlambda-opt = {word}\n")
            assert cli.load_config(ini, "atom") == {"lambda_opt": value}
        ini = self.write_ini(tmp_path, "[atom]\nlambda-opt = maybe\n")
        with pytest.raises(errors.ParseError, match="lambda-opt"):
            cli.load_config(ini, "atom")
        out = tmp_path / "a.csv"
        assert cli.run(["atom", "--config", ini, "--output", str(out)]) == 2
        assert "lambda-opt" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_section_uses_defaults(self, tmp_path):
        ini = self.write_ini(tmp_path, "[other]\ng = 9\n")
        out = tmp_path / "s.csv"
        assert cli.run(["spectra", "--config", ini, "--output", str(out)]) == 0
        assert "g = -4  ; default" in (tmp_path / "s.csv.config").read_text()


class TestExitCodes:
    def test_invalid_parameters(self, tmp_path, capsys):
        code = cli.run(["spectra", "--eta2", "1.5",
                        "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "invalid parameters" in capsys.readouterr().err

    def test_numerical_failure(self, tmp_path, capsys):
        code = cli.run(["spectra", "--g", "-10", "--T", "1.0",
                        "--output", str(tmp_path / "s.csv")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_undamped_intracavity_mean_exits_3(self, tmp_path, capsys):
        # lambda = -2 < -k0 = -0.75: the fed-back mean grows, an unstable loop
        out = tmp_path / "i.csv"
        assert cli.run(["intracavity", "--lam-min", "-2",
                        "--output", str(out)]) == 3
        assert "numerical failure" in capsys.readouterr().err
        assert not out.exists()

    def test_fractional_delay_rejected(self, tmp_path, capsys):
        out = tmp_path / "sc.csv"
        code = cli.run(["semiclassical", "--T", "0.205", "--dt", "0.01",
                        "--duration", "200", "--segments", "8",
                        "--output", str(out)])
        assert code == 2
        assert "whole number" in capsys.readouterr().err
        assert not out.exists()

    # every float option is checked once, where flags and config merge
    @pytest.mark.parametrize("args, flag", [
        pytest.param(["intracavity"], "l", id="intracavity-l"),
        pytest.param(["trajectory"], "dt", id="trajectory-dt"),
        pytest.param(["intracavity"], "lam-min", id="intracavity-lam-min"),
        pytest.param(["intracavity", "--mode", "series"], "t-max",
                     id="intracavity-series-t-max"),
        pytest.param(["spectra"], "wmax", id="spectra-wmax"),
        pytest.param(["qnd"], "wmax", id="qnd-wmax"),
    ])
    def test_nan_parameter_exits_2(self, args, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.run(args + [f"--{flag}", "nan", "--output", str(out)]) == 2
        assert f"invalid parameters: {flag} = nan" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, flag", [
        pytest.param(["stability"], "gamma", id="stability-gamma"),
        pytest.param(["qnd"], "kappa", id="qnd-kappa"),
        pytest.param(["intracavity"], "lam-max", id="intracavity-lam-max"),
        pytest.param(["trajectory", "--preset", "atom-feedback"], "lam",
                     id="trajectory-atom-feedback-lam"),
    ])
    def test_inf_parameter_exits_2(self, args, flag, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert cli.run(args + [f"--{flag}", "inf", "--output", str(out)]) == 2
        assert f"invalid parameters: {flag} = inf" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_from_config_file_exits_2(self, tmp_path, capsys):
        ini = tmp_path / "c.ini"
        ini.write_text("[intracavity]\nlam-max = nan\n")
        out = tmp_path / "x.csv"
        assert cli.run(["intracavity", "--config", str(ini),
                        "--output", str(out)]) == 2
        assert "invalid parameters: lam-max = nan" in capsys.readouterr().err
        assert not out.exists()

    def test_atom_invalid_lambda(self, tmp_path):
        assert cli.run(["atom", "--lam", "-0.9",
                        "--output", str(tmp_path / "a.csv")]) == 2

    # lambda = -eta divided by zero before its check ran
    @pytest.mark.parametrize("args", [
        pytest.param(["--lam", "-0.8"], id="lam-at-minus-eta"),
        pytest.param(["--eta", "0", "--lam", "0"], id="eta-and-lam-zero"),
    ])
    def test_atom_lambda_at_minus_eta(self, args, tmp_path, capsys):
        out = tmp_path / "a.csv"
        assert cli.run(["atom"] + args + ["--output", str(out)]) == 2
        assert "must exceed -eta" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_series_exits_2(self, tmp_path, capsys):
        out = tmp_path / "i.csv"
        assert cli.run(["intracavity", "--mode", "series", "--n", "0",
                        "--output", str(out)]) == 2
        assert "t_grid must be a non-empty" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", sorted(EXIT_CODES))
    def test_every_error_class(self, name, tmp_path, monkeypatch, capsys):
        exc_type = getattr(errors, name, None) or getattr(builtins, name)

        def fail(values):
            raise exc_type("boom")

        monkeypatch.setitem(cli._RUNNERS, "spectra", fail)
        code = EXIT_CODES[name]
        assert cli.run(["spectra", "--output", str(tmp_path / "s.csv")]) == code
        kind = "invalid parameters" if code == 2 else "numerical failure"
        assert kind in capsys.readouterr().err

    def test_table_covers_errors_module(self):
        defined = {name for name, obj in vars(errors).items()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and not issubclass(obj, Warning)}
        assert defined <= set(EXIT_CODES)


def _zero_int_runs():
    """Every subcommand with one integer option other than seed set to 0,
    under every choice of its string options (their help lists the choices
    as 'a | b | c')."""
    runs = []
    for sub, opts in cli._OPTIONS.items():
        choices = [[]]
        for opt, typ, _, hlp in opts:
            if typ is str:
                words = [w.strip() for w in hlp.split("|")]
                assert len(words) > 1, (sub, opt)
                choices = [c + [f"--{opt}", w] for c in choices for w in words]
        for opt, typ, _, _ in opts:
            if typ is int and opt != "seed":
                runs += [pytest.param([sub] + c + [f"--{opt}", "0"],
                                      id="-".join([sub] + c[1::2] + [opt]))
                         for c in choices]
    return runs


class TestExitCodeContract:
    """A zero count anywhere is an invalid parameter: exit 2, never a
    traceback or an empty table."""

    @pytest.mark.parametrize("args", _zero_int_runs())
    def test_zero_integer_option(self, args, tmp_path):
        out = tmp_path / "x.csv"
        assert cli.run(args + ["--output", str(out)]) == 2
        assert not out.exists()

    def test_descending_series_exits_2(self, tmp_path, capsys):
        # a negative duration would run the Riccati closed form backwards,
        # below the homodyne floor
        out = tmp_path / "i.csv"
        assert cli.run(["intracavity", "--mode", "series", "--t-max", "-5",
                        "--u-init", "0.5", "--output", str(out)]) == 2
        assert "ascending" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_segments_exit_before_simulating(self, tmp_path,
                                                  monkeypatch, capsys):
        from qfeedback import semiclassical

        def refuse(sim):
            raise AssertionError("simulated before the segment check")

        monkeypatch.setattr(semiclassical, "simulate", refuse)
        out = tmp_path / "sc.csv"
        assert cli.run(["semiclassical", "--segments", "0",
                        "--output", str(out)]) == 2
        assert "n_segments must be >= 1" in capsys.readouterr().err
        assert not out.exists()


def per_value_files(subcommand, values, source, colnames, columns):
    """The CSV and .config text of a run with every value formatted on its
    own by cli._fmt: the reference of the CSV writer."""
    fmt = cli._fmt
    csv = [f"# qfeedback {cli.__version__}", f"# subcommand: {subcommand}"]
    csv += [f"# config: {key} = {fmt(values[key])} [{source[key]}]"
            for key in sorted(values)]
    csv += [f"# seed: {values.get('seed', 'none')}", ",".join(colnames)]
    cols = [np.atleast_1d(np.asarray(c)) for c in columns]
    csv += [",".join(fmt(v) for v in row) for row in zip(*cols)]
    config = [f"[{subcommand}]"] + [
        f"{key} = {fmt(values[key])}  ; {source[key]}" for key in sorted(values)]
    return "\n".join(csv) + "\n", "\n".join(config) + "\n"


class TestCsvWriter:
    @pytest.mark.parametrize("args", [[sub] for sub in cli._OPTIONS] + [
        ["atom", "--compare-l", "0.3", "--lambda-opt"],
        ["intracavity", "--mode", "series"]],
        ids=lambda args: "-".join(a.lstrip("-") for a in args))
    def test_matches_the_per_value_formatter(self, args, tmp_path,
                                             monkeypatch):
        # one format string per row writes the bytes that formatting each
        # value on its own wrote
        write, runs = cli._write_csv, []

        def recorded(path, *run):
            runs.append(run)
            write(path, *run)

        monkeypatch.setattr(cli, "_write_csv", recorded)
        out = tmp_path / "x.csv"
        assert cli.run(args + ["--output", str(out)]) == 0
        csv, config = per_value_files(*runs[0])
        assert out.read_bytes() == csv.encode()
        assert (tmp_path / "x.csv.config").read_bytes() == config.encode()


class TestOutdirEnv:
    def test_env_var_controls_default_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTDIR_ENV, str(tmp_path))
        assert cli.run(["stability"]) == 0
        assert (tmp_path / "stability.csv").exists()
        assert (tmp_path / "stability.csv.config").exists()


class TestTrajectorySubcommand:
    def test_deterministic_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["trajectory", "--preset", "atom-homodyne", "--n-traj", "8",
                "--steps", "100", "--snapshot-every", "50"]
        assert cli.run(args + ["--output", str(a)]) == 0
        assert cli.run(args + ["--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_counting_preset_runs(self, tmp_path):
        out = tmp_path / "t.csv"
        assert cli.run(["trajectory", "--preset", "damped-cavity",
                        "--n-traj", "16", "--steps", "200",
                        "--snapshot-every", "100", "--output", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols == ["time", "mean_n", "xbar_variance"]
        assert len(rows) == 2

    def test_unknown_preset(self, tmp_path):
        assert cli.run(["trajectory", "--preset", "nope",
                        "--output", str(tmp_path / "t.csv")]) == 2


class TestOtherSubcommands:
    def test_semiclassical_runs(self, tmp_path):
        out = tmp_path / "sc.csv"
        assert cli.run(["semiclassical", "--duration", "200", "--segments",
                        "16", "--output", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols[:3] == ["omega", "psd2", "psd2_err"]
        vals = np.array([[float(x) for x in r] for r in rows])
        assert np.all(np.isfinite(vals))

    def test_stability_default_marks_only_unit_gain_marginal(self, tmp_path):
        out = tmp_path / "st.csv"
        assert cli.run(["stability", "--output", str(out)]) == 0
        _, cols, rows = read_csv(out)
        assert cols[:5] == ["g", "gamma", "T", "stable", "marginal"]
        vals = np.array([[float(x) for x in r] for r in rows])
        g, stable, marginal = vals[:, 0], vals[:, 3], vals[:, 4]
        assert len(g) == 49
        assert np.array_equal(marginal, (g == 1.0).astype(float))
        assert np.array_equal(stable, (g < 1.0).astype(float))

    @staticmethod
    def check_no_contour(sub, tmp_path, monkeypatch):
        # the single pole, alone or times the QND cavity pair, is judged by
        # the closed form, so a contour that raises leaves the rows as they
        # were and NyquistUnresolved cannot reach the exit status
        ref, out = tmp_path / "ref.csv", tmp_path / "out.csv"
        assert cli.run([sub, "--output", str(ref)]) == 0
        monkeypatch.setattr(loop, "_nyquist_winding", no_contour)
        assert cli.run([sub, "--output", str(out)]) == 0
        assert read_csv(out)[1:] == read_csv(ref)[1:]

    def test_qnd_takes_no_contour(self, tmp_path, monkeypatch):
        self.check_no_contour("qnd", tmp_path, monkeypatch)

    def test_stability_takes_no_contour(self, tmp_path, monkeypatch):
        self.check_no_contour("stability", tmp_path, monkeypatch)

    def test_qnd_runs(self, tmp_path):
        out = tmp_path / "q.csv"
        assert cli.run(["qnd", "--g", "-0.5", "--output", str(out)]) == 0
        _, cols, _ = read_csv(out)
        assert cols == ["omega", "s_out_x", "s_out_y", "large_gain_floor"]

    def test_intracavity_sweep_and_series(self, tmp_path):
        for mode, first_col in (("sweep", "lam"), ("series", "t")):
            out = tmp_path / f"{mode}.csv"
            assert cli.run(["intracavity", "--mode", mode,
                            "--output", str(out)]) == 0
            _, cols, _ = read_csv(out)
            assert cols[0] == first_col

    def test_atom_compare(self, tmp_path):
        out = tmp_path / "a.csv"
        assert cli.run(["atom", "--lambda-opt", "--compare-l", "0.05",
                        "--output", str(out)]) == 0
        _, _, rows = read_csv(out)
        table = {name: float(val) for name, val in rows}
        assert abs(table["free_gamma_y"] - 8.1) < 1e-12
        assert abs(table["gamma_x"] - table["free_gamma_x"]) < 1e-12
