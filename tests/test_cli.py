import argparse
import multiprocessing
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import dfgof.harness as harness
from dfgof.cli import _build_parser, echo_config, parse_config, run
from dfgof.errors import ConfigError
from dfgof.harness import AlternativeSpec, ExperimentConfig, covariate_design
from dfgof.process import Ecdf, ecdf_vs_cdf_sup, kolmogorov_cdf


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CONFIGS = sorted(CONFIG_DIR.glob("*.cfg"))


def write_config(path, text):
    path.write_text(text)
    return str(path)


BASIC = """
[experiment]
design = uniform_0_2
model = simple_linear
n = 40
reps = 6
seed = 11
"""

BIVARIATE = BASIC.replace("uniform_0_2", "beta_indep").replace("simple_linear", "bilinear2d")

TWO_DESIGNS = """
[experiment]
design = uniform_0_2, normal_1_2
model = simple_linear
n = 40
reps = 8
seed = 12
statistic = ks_abs
"""

TWO_DESIGN_ALTERNATIVE = """
[experiment]
design = uniform_0_2, normal_1_2
model = simple_linear
n = 30
reps = 70
seed = 14

[alternative]
psi = x_squared
amplitude = 0.5
"""

WITH_ALTERNATIVE = """
[experiment]
design = uniform_0_2
model = simple_linear
n = 40
reps = 6
seed = 13

[alternative]
psi = x_squared
amplitude = 0.5
"""


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "a.cfg", BASIC))
        assert cfg.design == ("uniform_0_2",)
        assert cfg.statistic == "ks_abs"
        assert cfg.process == "transformed"
        assert cfg.error_law == "normal"
        assert cfg.alternative is None

    def test_unknown_key_named_in_error(self, tmp_path):
        text = BASIC.replace("design =", "dessign =")
        with pytest.raises(ConfigError, match="dessign"):
            parse_config(write_config(tmp_path / "a.cfg", text))

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="extras"):
            parse_config(write_config(tmp_path / "a.cfg", BASIC + "\n[extras]\nfoo = 1\n"))

    def test_type_errors_are_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="integer"):
            parse_config(write_config(tmp_path / "a.cfg", BASIC.replace("n = 40", "n = forty")))

    def test_missing_seed_rejected(self, tmp_path):
        text = BASIC.replace("seed = 11", "")
        with pytest.raises(ConfigError, match="seed"):
            parse_config(write_config(tmp_path / "a.cfg", text))

    def test_flag_overrides_replace_file_values(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "a.cfg", BASIC), {"reps": 99, "seed": 5})
        assert cfg.reps == 99
        assert cfg.seed == 5

    def test_alternative_section(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE))
        assert cfg.alternative == AlternativeSpec(psi="x_squared", amplitude=0.5)

    def test_echo_round_trips(self, tmp_path):
        cfg = parse_config(write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE))
        echoed = parse_config(write_config(tmp_path / "b.cfg", echo_config(cfg)))
        assert echo_config(echoed) == echo_config(cfg)

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    def test_manifest_is_the_config(self, tmp_path, path):
        cfg = parse_config(path)
        assert parse_config(write_config(tmp_path / "m.cfg", echo_config(cfg))) == cfg

    def test_flag_defaults_are_the_config_defaults(self):
        defaults = {f.name: f.default for f in fields(ExperimentConfig)}
        test = _build_parser().parse_args(["test", "data.csv", "--model", "simple_linear"])
        for key in ("statistic", "process", "error_law"):
            assert getattr(test, key) == defaults[key], key

    def test_alternative_flags_override_file_values(self, tmp_path):
        path = write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE)
        cfg = parse_config(path, {"amplitude": 2.0, "psi": None})
        assert cfg.alternative == AlternativeSpec(psi="x_squared", amplitude=2.0)


class TestSimulateCommand:
    def test_two_designs_write_two_ecdf_files_and_summary(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", TWO_DESIGNS)
        out = tmp_path / "out"
        code = run(["simulate", cfg, "-o", str(out)])
        assert code == 0
        assert (out / "ecdf_uniform_0_2.csv").exists()
        assert (out / "ecdf_normal_1_2.csv").exists()
        assert (out / "manifest.cfg").exists()
        summary = (out / "summary.txt").read_text()
        assert "sup_distance uniform_0_2 vs normal_1_2" in summary
        assert "basis:" in summary

    def test_kolmogorov_distance_only_where_it_is_the_limit_law(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", TWO_DESIGNS)
        out = tmp_path / "out"
        assert run(["simulate", cfg, "-o", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        for design in ("uniform_0_2", "normal_1_2"):
            values = np.loadtxt(out / f"ecdf_{design}.csv", delimiter=",", skiprows=1)[:, 0]
            reported = float(summary.split(f"kolmogorov_sup {design}: ")[1].split()[0])
            assert reported == ecdf_vs_cdf_sup(Ecdf(values), kolmogorov_cdf)
            # beside it, the law of the maximum over the n = 40 scan times
            corrected = float(summary.split(f"kolmogorov_corrected_sup {design}: ")[1].split()[0])
            assert corrected == ecdf_vs_cdf_sup(Ecdf(values), lambda v: kolmogorov_cdf(v + 0.5826 / np.sqrt(40)))
        assert summary.index("kolmogorov_sup uniform_0_2") < summary.index("kolmogorov_corrected_sup uniform_0_2")
        for flags in (["--statistic", "ks_plus"], ["--process", "raw"]):
            other = tmp_path / flags[1]
            assert run(["simulate", cfg, "-o", str(other), *flags]) == 0
            lines = (other / "summary.txt").read_text().splitlines()
            assert not [line for line in lines if line.startswith(("kolmogorov_sup", "kolmogorov_corrected_sup"))]

    def test_plot_data_flag(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASIC)
        out = tmp_path / "out"
        assert run(["simulate", cfg, "-o", str(out), "--plot-data"]) == 0
        header = (out / "plot_uniform_0_2.csv").read_text().splitlines()[0]
        assert header == "value,kolmogorov_cdf,level"

    def test_manifest_round_trip_reproduces_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASIC)
        out1 = tmp_path / "out1"
        out2 = tmp_path / "out2"
        assert run(["simulate", cfg, "-o", str(out1)]) == 0
        assert run(["simulate", str(out1 / "manifest.cfg"), "-o", str(out2)]) == 0
        a = (out1 / "ecdf_uniform_0_2.csv").read_bytes()
        b = (out2 / "ecdf_uniform_0_2.csv").read_bytes()
        assert a == b

    def test_worker_count_does_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASIC)
        out1 = tmp_path / "w1"
        out2 = tmp_path / "w2"
        assert run(["simulate", cfg, "-o", str(out1), "--workers", "1"]) == 0
        assert run(["simulate", cfg, "-o", str(out2), "--workers", "2"]) == 0
        assert (out1 / "ecdf_uniform_0_2.csv").read_bytes() == (out2 / "ecdf_uniform_0_2.csv").read_bytes()

    def test_missing_seed_exits_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", BASIC.replace("seed = 11", ""))
        assert run(["simulate", cfg, "-o", str(tmp_path / "o")]) == 1
        assert "seed" in capsys.readouterr().err

    def test_probe_times_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "a.cfg", BASIC + "probe_times = 0.25, 0.5\n")
        assert run(["simulate", cfg, "-o", str(tmp_path / "o")]) == 1
        assert "unknown key 'probe_times' in [experiment]" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unknown_flag_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASIC)
        assert run(["simulate", cfg, "--frobnicate"]) == 1

    def test_alternative_config_rejected(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE)
        assert run(["simulate", cfg, "-o", str(tmp_path / "o")]) == 1

    def test_flag_override_recorded_in_manifest(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASIC)
        out = tmp_path / "out"
        assert run(["simulate", cfg, "-o", str(out), "--reps", "9"]) == 0
        assert "reps = 9" in (out / "manifest.cfg").read_text()
        assert "overrides: reps=9" in (out / "summary.txt").read_text()


class TestPowerCommand:
    def test_power_outputs(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE)
        out = tmp_path / "out"
        assert run(["power", cfg, "-o", str(out)]) == 0
        assert (out / "ecdf_alt_uniform_0_2.csv").exists()
        assert (out / "ecdf_null_uniform_0_2.csv").exists()
        rates = (out / "rejection_rates_uniform_0_2.csv").read_text().splitlines()
        assert rates[0] == "level,rejection_rate"
        assert len(rates) == 4

    def test_power_without_alternative_exits_one(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASIC)
        assert run(["power", cfg, "-o", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("config", ["null_univariate", "null_bivariate"])
    def test_amplitude_flag_alone_needs_psi(self, tmp_path, capsys, config):
        cfg = str(CONFIG_DIR / f"{config}.cfg")
        assert run(["power", cfg, "--reps", "5", "--amplitude", "2", "-o", str(tmp_path / "o")]) == 1
        assert "requires both psi and amplitude" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_psi_and_amplitude_flags_make_the_alternative(self, tmp_path):
        cfg = str(CONFIG_DIR / "null_bivariate.cfg")
        out = tmp_path / "out"
        argv = ["power", cfg, "--reps", "5", "--n", "30", "--psi", "x2_squared", "--amplitude", "2", "-o", str(out)]
        assert run(argv) == 0
        manifest = (out / "manifest.cfg").read_text()
        assert "psi = x2_squared" in manifest and "amplitude = 2\n" in manifest
        assert parse_config(out / "manifest.cfg").alternative == AlternativeSpec(psi="x2_squared", amplitude=2.0)

    def test_flags_override_the_alternative_section(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE)
        out = tmp_path / "out"
        assert run(["power", cfg, "--amplitude", "1.25", "-o", str(out)]) == 0
        manifest = (out / "manifest.cfg").read_text()
        assert "psi = x_squared" in manifest and "amplitude = 1.25\n" in manifest

    def test_amplitude_flag_alone_is_applied(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE)
        out = tmp_path / "out"
        assert run(["power", cfg, "-o", str(out), "--amplitude", "3"]) == 0
        assert "amplitude = 3\n" in (out / "manifest.cfg").read_text()
        summary = (out / "summary.txt").read_text()
        assert "overrides: amplitude=3.0" in summary
        assert summary.split("alternative: ")[1].splitlines()[0] == "psi=x_squared amplitude=3"


class TestFitCommand:
    def test_fit_writes_theta_and_residuals(self, tmp_path, capsys):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        data = tmp_path / "d.csv"
        data.write_text("x,y\n" + "\n".join(f"{a},{2 * a}" for a in x) + "\n")
        out = tmp_path / "out"
        assert run(["fit", str(data), "--model", "simple_linear", "-o", str(out)]) == 0
        theta = (out / "theta.csv").read_text().splitlines()
        assert float(theta[1].split(",")[1]) == pytest.approx(2.0, abs=1e-12)
        assert "theta_hat = [" in capsys.readouterr().out
        residuals = (out / "residuals.csv").read_text().splitlines()[1:]
        assert all(abs(float(line.split(",")[1])) < 1e-12 for line in residuals)

    def test_index_columns_print_as_integers(self, tmp_path):
        # the tables go through the float-array writer; their index column
        # keeps the bytes str() gives the int
        out = tmp_path / "out"
        assert run(["fit", str(_bilinear_file(tmp_path)), "--model", "bilinear2d", "-o", str(out)]) == 0
        for name, rows in [("theta", 4), ("residuals", 30)]:
            lines = (out / f"{name}.csv").read_text().splitlines()
            assert [line.split(",")[0] for line in lines[1:]] == [str(i) for i in range(rows)]

    def test_rank_deficient_data_exits_two(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("\n".join("0.0,1.0" for _ in range(5)) + "\n")
        assert run(["fit", str(data), "--model", "simple_linear", "-o", str(tmp_path / "o")]) == 2


def _seed_flag(command):
    # only the commands that draw random numbers take --seed
    return ["--seed", "1"] if command == "test" else []


def _bilinear_file(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.uniform(0, 1, size=(30, 2))
    y = 1 + x[:, 0] + x[:, 1] + x[:, 0] * x[:, 1] + 0.1 * rng.standard_normal(30)
    data = tmp_path / "d.csv"
    data.write_text("\n".join(f"{a},{b},{c}" for (a, b), c in zip(x, y)) + "\n")
    return data


def _constant_x2_file(tmp_path):
    rng = np.random.default_rng(5)
    x1 = rng.uniform(0, 1, 100)
    y = 1 + x1 + 0.1 * rng.standard_normal(100)
    data = tmp_path / "d.csv"
    data.write_text("\n".join(f"{a},0.3,{c}" for a, c in zip(x1, y)) + "\n")
    return data


class TestTestCommand:
    def test_exact_fit_exits_two(self, tmp_path, capsys):
        # the residuals are rounding noise: studentizing them would test
        # the rounding, so the command refuses before any output
        x = np.linspace(0.5, 2.0, 24)
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{a},{3 * a}" for a in x) + "\n")
        out = tmp_path / "out"
        code = run(
            ["test", str(data), "--model", "simple_linear", "--seed", "4", "--reps", "39", "-o", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: NumericalError: the simple_linear model fits the data to rounding")
        assert not out.exists()

    @pytest.mark.parametrize(
        ("model", "response"),
        [
            ("centered_linear", lambda x: 3 + 2 * x[:, 0]),
            ("centered_linear", lambda x: 1e13 + x[:, 0]),
            ("bilinear2d", lambda x: 1 + x[:, 0] + x[:, 1] + x[:, 0] * x[:, 1]),
        ],
        ids=["centered", "mean-1e13", "bilinear2d"],
    )
    def test_exact_fits_exit_two(self, tmp_path, capsys, model, response):
        x = np.random.default_rng(8).uniform(0.0, 2.0, size=(200, 2 if model == "bilinear2d" else 1))
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(f"{v:.17g}" for v in (*row, y)) + "\n" for row, y in zip(x, response(x))))
        out = tmp_path / "out"
        assert run(["test", str(data), "--model", model, "--seed", "4", "--reps", "9", "-o", str(out)]) == 2
        assert "fits the data to rounding" in capsys.readouterr().err
        assert not out.exists()

    def test_noise_on_a_large_mean_is_tested(self, tmp_path):
        # unit noise on a mean of 1e13 is far above the rounding of the fit
        rng = np.random.default_rng(9)
        x = rng.uniform(0.0, 2.0, 200)
        data = tmp_path / "d.csv"
        data.write_text("".join(f"{a:.17g},{1e13 + a + e:.17g}\n" for a, e in zip(x, rng.standard_normal(200))))
        out = tmp_path / "out"
        argv = ["test", str(data), "--model", "centered_linear", "--seed", "4", "--reps", "19", "-o", str(out)]
        assert run(argv) == 0
        sigma_hat = float((out / "summary.txt").read_text().split("sigma_hat: ")[1].split()[0])
        assert sigma_hat == pytest.approx(1.0, abs=0.15)

    def test_outputs_and_the_residual_scale(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        x = np.linspace(0.5, 2.0, 24)
        e = rng.standard_normal(24)
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{a},{3 * a + b}" for a, b in zip(x, e)) + "\n")
        out = tmp_path / "out"
        code = run(
            ["test", str(data), "--model", "simple_linear", "--seed", "4", "--reps", "39", "-o", str(out)]
        )
        assert code == 0
        assert (out / "statistics.csv").exists()
        assert (out / "null_ecdf.csv").exists()
        dump = (out / "process_transformed.csv").read_text().splitlines()
        assert dump[0] == "x1,value"
        assert len(dump) == 26  # header + t=0 baseline + 24 jump times
        residuals = 3 * x + e - (x @ (3 * x + e)) / (x @ x) * x
        sigma_hat = float((out / "summary.txt").read_text().split("sigma_hat: ")[1].split()[0])
        assert sigma_hat == pytest.approx(np.linalg.norm(residuals) / np.sqrt(23), rel=1e-12)
        assert "sigma_hat:" in capsys.readouterr().out

    @pytest.mark.parametrize(
        ("model", "design"),
        [("centered_linear", "untied"), ("centered_linear", "tied"), ("bilinear2d", "beta_dep_a")],
    )
    def test_outputs_do_not_depend_on_the_scale_of_the_response(self, tmp_path, model, design):
        # every residual column is studentized, and a power of two scales
        # every floating-point step exactly: Y, 4 Y and Y / 4 give the same bytes
        rng = np.random.default_rng(17)
        n = 60
        if design == "beta_dep_a":
            x = covariate_design(design, n, seed=17)
        else:
            x = rng.uniform(0.0, 2.0, size=(n, 1))
            if design == "tied":
                x = np.round(4.0 * x) / 4.0
        y = x.sum(axis=1) + x.prod(axis=1) + rng.standard_normal(n)
        outputs = {}
        for scale in (1.0, 4.0, 0.25):
            data = tmp_path / f"d{scale}.csv"
            data.write_text("".join(",".join(f"{v:.17g}" for v in (*row, scale * yi)) + "\n" for row, yi in zip(x, y)))
            out = tmp_path / f"out{scale}"
            argv = ["test", str(data), "--model", model, "--seed", "3", "--reps", "19", "-o", str(out)]
            assert run(argv) == 0
            outputs[scale] = {
                name: (out / name).read_bytes()
                for name in ("statistics.csv", "null_ecdf.csv", "process_transformed.csv", "process_raw.csv")
            }
            summary = (out / "summary.txt").read_text()
            outputs[scale]["sigma_hat"] = float(summary.split("sigma_hat: ")[1].split()[0]) / scale
        assert outputs[4.0] == outputs[1.0]
        assert outputs[0.25] == outputs[1.0]

    def test_seed_required(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n2,4\n3,6\n4,8\n")
        assert run(["test", str(data), "--model", "simple_linear", "-o", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize(
        ("model", "x", "distinct"),
        [("simple_linear", np.full(300, 3.0), 1), ("centered_linear", np.arange(300) % 2.0, 2)],
    )
    def test_too_few_distinct_covariate_values_exit_two(self, tmp_path, capsys, model, x, distinct):
        y = 1.0 + x + np.random.default_rng(3).standard_normal(x.shape[0])
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{a},{b}" for a, b in zip(x, y)) + "\n")
        code = run(["test", str(data), "--model", model, "--seed", "1", "--reps", "9", "-o", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "RankDeficiencyError" in err
        assert f"takes {distinct} distinct values" in err

    def test_two_dimensional_pipeline_runs(self, tmp_path):
        data = _bilinear_file(tmp_path)
        out = tmp_path / "out"
        assert run(["test", str(data), "--model", "bilinear2d", "--seed", "9", "--reps", "19", "-o", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "pvalue:" in summary

    @pytest.mark.parametrize(
        ("flags", "message"),
        [
            (["--reps", "0"], "--reps must be >= 1, got 0"),
            (["--reps", "-1"], "--reps must be >= 1, got -1"),
        ],
    )
    def test_bad_bootstrap_flags_exit_one(self, tmp_path, capsys, flags, message):
        argv = ["test", str(_bilinear_file(tmp_path)), "--model", "bilinear2d", "--seed", "9", *flags]
        assert run(argv + ["-o", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err

    def test_two_dimensional_bootstrap_solves_one_assignment(self, tmp_path, monkeypatch):
        import dfgof.harness as harness

        calls = []
        solve = harness.solve_assignment

        def counting(x, anchors):
            calls.append(x.shape)
            return solve(x, anchors)

        monkeypatch.setattr(harness, "solve_assignment", counting)
        argv = ["test", str(_bilinear_file(tmp_path)), "--model", "bilinear2d", "--seed", "9", "--reps", "19"]
        assert run(argv + ["-o", str(tmp_path / "out")]) == 0
        assert calls == [(30, 2)]

    def test_bootstrap_sets_up_each_scan_geometry_once(self, tmp_path, monkeypatch):
        # 20 columns are built in 5 process builds of 2 scan-point sets
        import dfgof.process as process

        sweeps = []
        sweep = process._sweep

        def counting(scan):
            sweeps.append(scan.shape)
            return sweep(scan)

        monkeypatch.setattr(process, "_sweep", counting)
        argv = ["test", str(_bilinear_file(tmp_path)), "--model", "bilinear2d", "--seed", "9", "--reps", "19"]
        assert run(argv + ["-o", str(tmp_path / "out")]) == 0
        assert sweeps == [(30, 2), (30, 2)]

    @pytest.mark.parametrize("command", ["test", "fit"])
    def test_constant_second_covariate_exits_two(self, tmp_path, capsys, command):
        argv = [command, str(_constant_x2_file(tmp_path)), "--model", "bilinear2d", *_seed_flag(command)]
        assert run(argv + ["-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "RankDeficiencyError" in err
        assert "design matrix has rank 2 < d = 4" in err

    @pytest.mark.parametrize("command", ["test", "fit"])
    def test_unknown_model_exits_one(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n2,4\n3,6\n4,8\n")
        assert run([command, str(data), "--model", "foo", *_seed_flag(command), "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "foo" in err

    @pytest.mark.parametrize("command", ["test", "fit"])
    @pytest.mark.parametrize(
        ("model", "columns", "message"),
        [
            ("simple_linear", 2, "simple_linear needs 1 covariate column, the data have 2"),
            ("centered_linear", 2, "centered_linear needs 1 covariate column, the data have 2"),
            ("bilinear2d", 1, "bilinear2d needs 2 covariate columns, the data have 1"),
        ],
        ids=["simple_linear", "centered_linear", "bilinear2d"],
    )
    def test_wrong_covariate_column_count_exits_one(self, tmp_path, capsys, command, model, columns, message):
        x = np.random.default_rng(4).uniform(0, 1, size=(12, columns))
        data = tmp_path / "d.csv"
        data.write_text("".join(",".join(map(str, row)) + f",{2 * row[0] + 1}\n" for row in x))
        out = tmp_path / "o"
        assert run([command, str(data), "--model", model, *_seed_flag(command), "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: {message}\n"
        assert not out.exists()


class TestAssignCommand:
    def test_two_point_file_matches_brute_force(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0.0\n1.0\n")
        out = tmp_path / "out"
        assert run(["assign", str(data), "-o", str(out)]) == 0
        lines = (out / "assignment.csv").read_text().splitlines()
        assert lines[0] == "index,anchor_index,cost"
        # rescaled points are {0, 1}; halton anchors are {1/2, 1/4}:
        # optimum pairs 0 -> 1/4 and 1 -> 1/2, total cost 0.75
        assert lines[-1] == "# total_cost=0.75"
        pairs = {tuple(line.split(",")[:2]) for line in lines[1:3]}
        assert pairs == {("0", "1"), ("1", "0")}
        # every sample is matched to the Halton net: the summary names no net
        keys = [line.split(":")[0] for line in (out / "summary.txt").read_text().splitlines()]
        assert keys == ["command", "data", "n", "rescale_low", "rescale_high", "total_cost"]


    def test_index_columns_print_as_integers(self, tmp_path):
        rng = np.random.default_rng(4)
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{a},{b}" for a, b in rng.uniform(size=(120, 2))) + "\n")
        out = tmp_path / "out"
        assert run(["assign", str(data), "-o", str(out)]) == 0
        rows = [line.split(",") for line in (out / "assignment.csv").read_text().splitlines()[1:-1]]
        assert [row[0] for row in rows] == [str(i) for i in range(120)]
        assert sorted(row[1] for row in rows) == sorted(str(i) for i in range(120))


class TestLimitsCommand:
    def test_tables_written(self, tmp_path):
        out = tmp_path / "out"
        assert run(["limits", "--p", "1", "--d", "2", "--steps", "10", "-o", str(out)]) == 0
        cdf_lines = (out / "kolmogorov_cdf.csv").read_text().splitlines()
        assert cdf_lines[0] == "x,cdf"
        assert len(cdf_lines) == 12
        cov_lines = (out / "limit_covariance.csv").read_text().splitlines()
        assert cov_lines[0] == "s,t,cov"
        assert "basis:" in (out / "summary.txt").read_text()


NON_FINITE_P1 = "0.1,1\n0.2,nan\n0.3,2\n0.5,3\n"
NON_FINITE_P2 = "0.1,0.2,1\n0.2,0.3,inf\n0.3,0.1,2\n0.5,0.4,3\n0.6,0.9,1\n"
TWO_ROWS_P2 = "0.1,0.2,1\n0.2,0.3,2\n"
FOUR_ROWS_P2 = "0.1,0.2,1\n0.2,0.3,2\n0.3,0.1,2\n0.5,0.4,3\n"
# one column more than the Halton net has primes
SIXTEEN_COLUMNS = "".join(
    ",".join(f"{v:.6f}" for v in row) + "\n" for row in np.random.default_rng(0).uniform(size=(20, 16))
)


class TestInputErrorsExitOne:
    """Bad data files and bad ``limits`` arguments are usage errors with a
    message, and leave no output directory behind."""

    @pytest.mark.parametrize(
        ("text", "argv", "message"),
        [
            (NON_FINITE_P1, ["fit", "DATA", "--model", "centered_linear"], "d.csv: sample contains non-finite entries"),
            (NON_FINITE_P1, ["test", "DATA", "--model", "simple_linear"], "d.csv: sample contains non-finite entries"),
            (NON_FINITE_P2, ["fit", "DATA", "--model", "bilinear2d"], "d.csv: sample contains non-finite entries"),
            (NON_FINITE_P2, ["test", "DATA", "--model", "bilinear2d"], "d.csv: sample contains non-finite entries"),
            (TWO_ROWS_P2, ["fit", "DATA", "--model", "bilinear2d"], "d.csv: need n >= p + 1 observations, got n=2"),
            (TWO_ROWS_P2, ["test", "DATA", "--model", "bilinear2d"], "d.csv: need n >= p + 1 observations, got n=2"),
            (FOUR_ROWS_P2, ["fit", "DATA", "--model", "bilinear2d"], "need n >= d + 1 observations, got n=4, d=4"),
            (FOUR_ROWS_P2, ["test", "DATA", "--model", "bilinear2d"], "need n >= d + 1 observations, got n=4, d=4"),
            ("0.1,0.2\ninf,0.3\n0.3,0.1\n", ["assign", "DATA"], "d.csv: covariate points must be finite"),
            (SIXTEEN_COLUMNS, ["assign", "DATA"], "d.csv: halton anchors support p <= 15, got 16"),
            ("", ["limits", "--steps", "0"], "--steps must be >= 1, got 0"),
            ("", ["limits", "--steps", "-3"], "--steps must be >= 1, got -3"),
            ("", ["limits", "--p", "0"], "p must be >= 1, got 0"),
            ("", ["limits", "--d", "0"], "d must be >= 1, got 0"),
            ("", ["limits", "--p", "2", "--d", "200"], "d=200 exceeds the 144 tensor products available for p=2"),
            ("", ["limits", "--p", "5"], "--p 5 gives 16^5 covariance rows, more than the 1000000 guard"),
        ],
        ids=[
            "fit-nan",
            "test-nan",
            "fit-inf",
            "test-inf",
            "fit-2-rows",
            "test-2-rows",
            "fit-4-rows",
            "test-4-rows",
            "assign-inf",
            "assign-16-columns",
            "limits-steps-0",
            "limits-steps-negative",
            "limits-p-0",
            "limits-d-0",
            "limits-d-200",
            "limits-p-5",
        ],
    )
    def test_exits_one_with_a_usage_error(self, tmp_path, capsys, text, argv, message):
        data = tmp_path / "d.csv"
        data.write_text(text)
        out = tmp_path / "o"
        argv = [str(data) if arg == "DATA" else arg for arg in argv] + [*_seed_flag(argv[0]), "-o", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and message in err
        assert not out.exists()


class TestUnreadableInputsExitOne:
    """A data file that cannot be opened or decoded and a config file that
    does not parse are usage errors with a one-line message, and leave no
    output directory behind."""

    @staticmethod
    def _refused(argv, tmp_path, capsys, message):
        out = tmp_path / "o"
        assert run(argv + ["-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: " + message) and err.count("\n") == 1
        assert not out.exists()
        return err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    @pytest.mark.parametrize(
        "flags",
        [["fit", "--model", "bilinear2d"], ["test", "--model", "bilinear2d", "--seed", "1"], ["assign"]],
        ids=["fit", "test", "assign"],
    )
    def test_unreadable_data_file(self, tmp_path, capsys, flags, kind):
        data = tmp_path / "d.csv"
        if kind == "missing":
            reason = "No such file or directory"
        elif kind == "directory":
            data.mkdir()
            reason = "Is a directory"
        else:
            data.write_bytes(b"x1,x2,y\n" + b"0.5,0.25,\xff1\n" * 10)
            reason = "'utf-8' codec can't decode byte 0xff"
        argv = [flags[0], str(data), *flags[1:]]
        self._refused(argv, tmp_path, capsys, f"cannot read data file {data}: {reason}")

    @pytest.mark.parametrize(
        ("text", "reason"),
        [
            (BASIC + "n = 50\n", "option 'n' in section 'experiment' already exists"),
            (BASIC + "[experiment]\n", "section 'experiment' already exists"),
            (BASIC.replace("[experiment]\n", ""), "File contains no section headers"),
            (BASIC + "statistic\n", "Source contains parsing errors"),
            (BASIC + "# caf\xe9\n", "'utf-8' codec can't decode byte 0xe9"),
        ],
        ids=["key-twice", "section-twice", "no-section-header", "line-without-equals", "not-utf8"],
    )
    def test_malformed_config_file(self, tmp_path, capsys, text, reason):
        cfg = tmp_path / "a.cfg"
        cfg.write_bytes(text.encode("latin-1"))
        err = self._refused(["simulate", str(cfg)], tmp_path, capsys, f"cannot parse config file {cfg}: ")
        assert reason in err


class TestOutputDirectoryThatIsNotOne:
    """An output directory that is a file, or lies below one, named by -o
    or by $DFGOF_OUTPUT_DIR, is a usage error found before the command
    does any work: nothing is read or run, and no directory is made."""

    @staticmethod
    def _argv(command, tmp_path):
        data = str(_bilinear_file(tmp_path))
        return {
            "simulate": ["simulate", write_config(tmp_path / "a.cfg", BASIC)],
            "power": ["power", write_config(tmp_path / "a.cfg", WITH_ALTERNATIVE)],
            "fit": ["fit", data, "--model", "bilinear2d"],
            "test": ["test", data, "--model", "bilinear2d", "--seed", "1", "--reps", "9"],
            "assign": ["assign", data],
            "limits": ["limits"],
        }[command]

    @pytest.mark.parametrize("via", ["flag", "environment"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
    @pytest.mark.parametrize("command", ["simulate", "power", "fit", "test", "assign", "limits"])
    def test_refused_before_any_work(self, tmp_path, capsys, monkeypatch, command, below, via):
        import dfgof.cli as cli

        def no_work(*args, **kwargs):
            raise AssertionError("the command started its work")

        for name in ("run_experiments", "load_sample", "load_points", "make_basis"):
            monkeypatch.setattr(cli, name, no_work)
        argv = self._argv(command, tmp_path)
        blocker = tmp_path / "afile"
        blocker.write_text("kept\n")
        out = blocker / "sub" if below else blocker
        if via == "flag":
            argv += ["-o", str(out)]
        else:
            monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err == f"usage error: output directory {out}: {blocker} is not a directory\n"
        assert blocker.read_text() == "kept\n"

    def test_directory_that_cannot_be_made(self, tmp_path, capsys):
        # a dangling link passes the check of the nearest existing parent,
        # and making the directory fails once the command has its results
        out = tmp_path / "link"
        out.symlink_to(tmp_path / "nowhere" / "dir")
        assert run(["limits", "-o", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: cannot make output directory {out}: File exists\n"
        assert not (tmp_path / "nowhere").exists()


class TestSeedsOutside64BitsExitOne:
    """Streams are addressed by labels in [0, 2**64), so a seed outside
    that range is a usage error, and nothing is written."""

    SEEDS = ["-1", str(2**64)]

    @staticmethod
    def _refused(argv, tmp_path, capsys, seed):
        out = tmp_path / "o"
        assert run(argv + ["-o", str(out)]) == 1
        assert capsys.readouterr().err == f"usage error: seed must be an integer in [0, 2**64), got {seed}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_config_key(self, tmp_path, capsys, seed):
        cfg = write_config(tmp_path / "a.cfg", BASIC.replace("seed = 11", f"seed = {seed}"))
        self._refused(["simulate", cfg], tmp_path, capsys, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(("command", "text"), [("simulate", BASIC), ("power", WITH_ALTERNATIVE)])
    def test_seed_flag(self, tmp_path, capsys, command, text, seed):
        cfg = write_config(tmp_path / "a.cfg", text)
        self._refused([command, cfg, f"--seed={seed}"], tmp_path, capsys, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_seed_flag_of_test(self, tmp_path, capsys, seed):
        argv = ["test", str(_bilinear_file(tmp_path)), "--model", "bilinear2d", f"--seed={seed}", "--reps", "9"]
        self._refused(argv, tmp_path, capsys, seed)

    def test_largest_seed_runs(self, tmp_path):
        cfg = write_config(tmp_path / "a.cfg", BASIC)
        out = tmp_path / "o"
        assert run(["simulate", cfg, f"--seed={2**64 - 1}", "-o", str(out)]) == 0
        assert f"seed = {2**64 - 1}" in (out / "manifest.cfg").read_text().splitlines()


class TestRemovedOptions:
    """Every sample of a size is matched to one Halton net, the lattice is
    fixed by the dimension, simulations draw at theta = (1, ..., 1), an
    alternative shifts the mean by amplitude * psi, only the commands
    that draw random numbers take a seed, and every file is
    comma-separated: the keys and flags that chose otherwise are usage
    errors, which write nothing."""

    @pytest.mark.parametrize(
        ("command", "text", "line", "section"),
        [
            ("simulate", BASIC, "anchors = halton", "experiment"),
            ("simulate", BASIC, "theta_true = 2", "experiment"),
            ("simulate", BASIC, "grid = 16", "experiment"),
            ("simulate", BIVARIATE, "grid = 64", "experiment"),
            ("power", WITH_ALTERNATIVE, "local_scaling = false", "alternative"),
        ],
        ids=["anchors", "theta_true", "grid-p1", "grid-p2", "local_scaling"],
    )
    def test_removed_keys_are_unknown(self, tmp_path, capsys, command, text, line, section):
        cfg = write_config(tmp_path / "a.cfg", text + line + "\n")
        out = tmp_path / "out"
        assert run([command, cfg, "-o", str(out)]) == 1
        key = line.split(" = ")[0]
        assert capsys.readouterr().err == f"usage error: unknown key {key!r} in [{section}]\n"
        assert not out.exists()

    def test_old_manifest_is_rejected(self, tmp_path, capsys):
        manifest = echo_config(parse_config(CONFIG_DIR / "power_cubic.cfg"))
        manifest = manifest.replace("error_law =", "anchors = halton\nerror_law =")
        cfg = write_config(tmp_path / "manifest.cfg", manifest)
        assert run(["power", cfg, "-o", str(tmp_path / "out")]) == 1
        assert "unknown key 'anchors'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["test", "DATA", "--model", "bilinear2d", "--seed", "1", "--anchors", "halton"],
            ["test", "DATA", "--model", "bilinear2d", "--seed", "1", "--grid", "16"],
            ["assign", "DATA", "--anchors", "halton"],
            ["fit", "DATA", "--model", "bilinear2d", "--seed", "1"],
            ["assign", "DATA", "--seed", "1"],
            ["limits", "--seed", "1"],
        ],
        ids=["test-anchors", "test-grid", "assign-anchors", "fit-seed", "assign-seed", "limits-seed"],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, argv):
        data = str(_bilinear_file(tmp_path))
        out = tmp_path / "out"
        assert run([data if arg == "DATA" else arg for arg in argv] + ["-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error: unrecognized arguments:") and argv[-2] in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", str(CONFIG_DIR / "null_univariate.cfg")],
            ["power", str(CONFIG_DIR / "power_cubic.cfg")],
            ["fit", "DATA", "--model", "bilinear2d"],
            ["test", "DATA", "--model", "bilinear2d", "--seed", "1"],
            ["assign", "DATA"],
            ["limits"],
        ],
        ids=["simulate", "power", "fit", "test", "assign", "limits"],
    )
    def test_delimiter_flag_is_a_usage_error(self, tmp_path, capsys, argv):
        data = str(_bilinear_file(tmp_path))
        out = tmp_path / "out"
        argv = [data if arg == "DATA" else arg for arg in argv] + ["--delimiter", ",", "-o", str(out)]
        assert run(argv) == 1
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --delimiter ,\n"
        assert not out.exists()

    def test_local_scaling_flag_is_a_usage_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(["power", str(CONFIG_DIR / "power_cubic.cfg"), "--local-scaling", "-o", str(out)]) == 1
        assert capsys.readouterr().err == "usage error: unrecognized arguments: --local-scaling\n"
        assert not out.exists()


def _usage_flags():
    """The flags that each usage line of the README's command-line block
    names, by command."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    lines = [line.split() for line in block.splitlines() if line.startswith("dfgof ")]
    return {words[1]: set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", " ".join(words[2:]))) for words in lines}


USAGE_FLAGS = _usage_flags()


def _subcommands():
    return next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices


@pytest.mark.parametrize("command", sorted(USAGE_FLAGS))
def test_readme_usage_line_names_only_accepted_flags(command):
    assert USAGE_FLAGS[command] <= set(_subcommands()[command]._option_string_actions)


def test_readme_has_a_usage_line_per_command():
    assert sorted(USAGE_FLAGS) == sorted(_subcommands())


class TestExitCodes:
    def test_no_command_exits_one(self):
        assert run([]) == 1

    def test_unknown_command_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


class TestImportCost:
    def test_cli_import_leaves_scipy_solvers_and_numpy_random_unloaded(self):
        # scipy.optimize and scipy.spatial cost most of a CLI start-up and
        # only the p >= 2 assignment needs them; numpy.random is needed from
        # the first stream on; they load on first use
        import os
        import subprocess
        import sys
        from pathlib import Path

        import dfgof

        src = str(Path(dfgof.__file__).resolve().parent.parent)
        probe = (
            "import sys, dfgof.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.spatial', 'numpy.random'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"


def _outputs(out: Path) -> dict[str, bytes]:
    """Every file of an output directory, with the timings and the worker
    count of the summary masked."""
    files = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    if "summary.txt" in files:
        files["summary.txt"] = re.sub(rb"elapsed=\S+|workers: \d+", b"", files["summary.txt"])
    return files


class _CountingPool(harness.ProcessPoolExecutor):
    opened = 0

    def __init__(self, *args, **kwargs):
        type(self).opened += 1
        super().__init__(*args, **kwargs)


class TestOnePoolPerCommand:
    """simulate and power send every design's blocks, and power both the
    null and the alternative runs, through one task list."""

    COMMANDS = [("simulate", TWO_DESIGNS), ("power", TWO_DESIGN_ALTERNATIVE)]

    @pytest.mark.parametrize("command, text", COMMANDS, ids=["simulate", "power"])
    def test_outputs_do_not_depend_on_worker_count(self, tmp_path, command, text):
        cfg = write_config(tmp_path / "a.cfg", text)
        extra = ["--plot-data"] if command == "simulate" else []
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / "out"  # one path: the summary names it
            assert run([command, cfg, "--reps", "70", "-o", str(out), "--workers", workers, *extra]) == 0
            outputs.append(_outputs(out))
            for path in out.iterdir():
                path.unlink()
        assert len(outputs[0]) == (6 if command == "simulate" else 8)
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]

    @pytest.mark.parametrize("command, text", COMMANDS, ids=["simulate", "power"])
    @pytest.mark.parametrize("workers, pools", [("1", 0), ("2", 1), ("3", 1)])
    def test_one_pool_per_command(self, tmp_path, monkeypatch, command, text, workers, pools):
        monkeypatch.setattr(_CountingPool, "opened", 0)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", _CountingPool)
        cfg = write_config(tmp_path / "a.cfg", text)
        assert run([command, cfg, "-o", str(tmp_path / "out"), "--workers", workers]) == 0
        assert _CountingPool.opened == pools
        assert multiprocessing.active_children() == []

    @pytest.mark.usefixtures("first_replication_fails")
    @pytest.mark.parametrize("command, text", COMMANDS, ids=["simulate", "power"])
    def test_failure_guard_leaves_no_worker_running(self, tmp_path, capsys, command, text):
        # replication 0 of every run fails: 1 of 70 is more than 1%
        cfg = write_config(tmp_path / "a.cfg", text)
        out = tmp_path / "out"
        assert run([command, cfg, "--reps", "70", "-o", str(out), "--workers", "2"]) == 2
        assert "numerical failure: NumericalError: 1 of 70 replications failed to fit" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command, text", COMMANDS, ids=["simulate", "power"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_exit_one(self, tmp_path, capsys, command, text, workers):
        cfg = write_config(tmp_path / "a.cfg", text)
        out = tmp_path / "out"
        assert run([command, cfg, "-o", str(out), f"--workers={workers}"]) == 1
        assert f"usage error: workers must be >= 1, got {workers}" in capsys.readouterr().err
        assert not out.exists()


class TestParserReuse:
    """One parser serves every run() call of a process: a mix of commands,
    usage errors and --help gives the same exit codes, messages and files
    as calls that each build a fresh parser."""

    @staticmethod
    def _calls(tmp_path):
        basic = write_config(tmp_path / "basic.cfg", BASIC)
        alt = write_config(tmp_path / "alt.cfg", WITH_ALTERNATIVE)
        out = str(tmp_path / "out")
        return [
            (["power", alt, "-o", out, "--amplitude", "3"], 0),
            (["power", alt, "-o", out], 0),
            (["simulate", basic, "--frobnicate"], 1),
            (["--help"], 0),
            (["simulate", basic, "-o", out, "--reps", "9", "--design", "normal_1_2"], 0),
            (["simulate", basic, "-o", out], 0),
            (["power", "--help"], 0),
            (["test", "data.csv"], 1),
            ([], 1),
            (["limits", "-o", out, "--steps", "4"], 0),
            (["power", alt, "-o", out, "--amplitude", "oops"], 1),
            (["power", alt, "-o", out, "--amplitude", "2"], 0),
        ]

    @staticmethod
    def _run(argv, out: Path, capsys, fresh: bool):
        if fresh:
            _build_parser.cache_clear()
        code = run(argv)
        captured = capsys.readouterr()
        files = _outputs(out) if out.exists() else {}
        for path in out.glob("*"):
            path.unlink()
        return code, re.sub(r"elapsed=\S+", "elapsed=", captured.out), captured.err, files

    def test_shared_parser_gives_what_fresh_parsers_give(self, tmp_path, capsys):
        out = tmp_path / "out"
        calls = self._calls(tmp_path)
        fresh = [self._run(argv, out, capsys, fresh=True) for argv, _ in calls]
        _build_parser.cache_clear()
        shared = [self._run(argv, out, capsys, fresh=False) for argv, _ in calls]
        assert _build_parser.cache_info().misses == 1
        assert [result[0] for result in shared] == [code for _, code in calls]
        for argv_code, a, b in zip(calls, fresh, shared):
            assert a == b, argv_code[0]
        # the flag of the first call does not stay set for the second
        assert "alternative: psi=x_squared amplitude=3\n" in shared[0][1]
        assert "alternative: psi=x_squared amplitude=0.5\n" in shared[1][1]

    def test_parse_leaves_no_default_behind(self):
        parser = _build_parser()
        first = parser.parse_args(["power", "a.cfg", "--amplitude", "3", "--reps", "5", "--workers", "3"])
        again = parser.parse_args(["power", "a.cfg"])
        assert (first.amplitude, first.reps, first.workers) == (3.0, 5, 3)
        assert (again.amplitude, again.reps, again.workers) == (None, None, 1)
        assert not hasattr(parser.parse_args(["limits"]), "amplitude")
