import numpy as np
import pytest

from dfgof.cli import echo_config, parse_config, run
from dfgof.errors import ConfigError
from dfgof.harness import AlternativeSpec
from dfgof.process import Ecdf, ecdf_vs_cdf_sup, kolmogorov_cdf


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

TWO_DESIGNS = """
[experiment]
design = uniform_0_2, normal_1_2
model = simple_linear
n = 40
reps = 8
seed = 12
statistic = ks_abs
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
        assert cfg.anchors == "halton"
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
        for flags in (["--statistic", "ks_plus"], ["--process", "raw"]):
            other = tmp_path / flags[1]
            assert run(["simulate", cfg, "-o", str(other), *flags]) == 0
            assert "kolmogorov_sup" not in (other / "summary.txt").read_text()

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

    def test_rank_deficient_data_exits_two(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("\n".join("0.0,1.0" for _ in range(5)) + "\n")
        assert run(["fit", str(data), "--model", "simple_linear", "-o", str(tmp_path / "o")]) == 2


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
    def test_noiseless_linear_data_gives_pvalue_one(self, tmp_path, capsys):
        x = np.linspace(0.5, 2.0, 24)
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{a},{3 * a}" for a in x) + "\n")
        out = tmp_path / "out"
        code = run(
            ["test", str(data), "--model", "simple_linear", "--seed", "4", "--reps", "39", "-o", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "pvalue: 1 " in text
        assert (out / "statistics.csv").exists()
        assert (out / "null_ecdf.csv").exists()
        dump = (out / "process_transformed.csv").read_text().splitlines()
        assert dump[0] == "x1,value"
        assert len(dump) == 26  # header + t=0 baseline + 24 jump times

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
        code = run(
            ["test", str(data), "--model", "bilinear2d", "--seed", "9", "--reps", "19", "--grid", "16", "-o", str(out)]
        )
        assert code == 0
        summary = (out / "summary.txt").read_text()
        assert "pvalue:" in summary

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

    @pytest.mark.parametrize("command", ["test", "fit"])
    def test_constant_second_covariate_exits_two(self, tmp_path, capsys, command):
        argv = [command, str(_constant_x2_file(tmp_path)), "--model", "bilinear2d", "--seed", "1"]
        assert run(argv + ["-o", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "RankDeficiencyError" in err
        assert "design matrix has rank 2 < d = 4" in err

    @pytest.mark.parametrize("command", ["test", "fit"])
    def test_unknown_model_exits_one(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("1,2\n2,4\n3,6\n4,8\n")
        assert run([command, str(data), "--model", "foo", "--seed", "1", "-o", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "foo" in err

    @pytest.mark.parametrize("command", ["test", "fit"])
    def test_model_needing_more_covariate_columns_exits_one(self, tmp_path, capsys, command):
        data = tmp_path / "d.csv"
        data.write_text("\n".join(f"{a},{2 * a + 1}" for a in np.linspace(0, 1, 12)) + "\n")
        argv = [command, str(data), "--model", "bilinear2d", "--seed", "1", "-o", str(tmp_path / "o")]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and "2 covariate columns" in err


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

    def test_random_anchors_require_seed(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("0.0\n1.0\n")
        assert run(["assign", str(data), "--anchors", "random", "-o", str(tmp_path / "o")]) == 1


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


class TestExitCodes:
    def test_no_command_exits_one(self):
        assert run([]) == 1

    def test_unknown_command_exits_one(self):
        assert run(["frobnicate"]) == 1

    def test_help_exits_zero(self):
        assert run(["--help"]) == 0


class TestImportCost:
    def test_cli_import_leaves_scipy_solvers_unloaded(self):
        # scipy.optimize and scipy.spatial cost most of a CLI start-up and
        # only the p >= 2 assignment needs them; they load on first use
        import os
        import subprocess
        import sys
        from pathlib import Path

        import dfgof

        src = str(Path(dfgof.__file__).resolve().parent.parent)
        probe = (
            "import sys, dfgof.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.spatial'))))"
        )
        out = subprocess.run(
            [sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "[]"
