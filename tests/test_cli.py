import subprocess
import sys

import pytest

from rmdn import gradients
from rmdn.cli import main
from rmdn.data import load_csv
from rmdn.garch import fit_garch
from rmdn.harness import (METHOD_PLAIN, METHOD_PRETRAINED, arm_setup, save_garch_model,
                          save_model)
from rmdn.network import RmdnConfig, initial_state, unroll
from rmdn.optim import TrainSchedule, train


def run_cli(args, cwd=None):
    return subprocess.run([sys.executable, "-m", "rmdn.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


@pytest.fixture(scope="module")
def garch_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "sim.csv"
    code = main(["simulate", "garch", "--alpha0", "0.05", "--alpha1", "0.1",
                 "--beta1", "0.85", "-T", "300", "--seed", "7", "-o", str(path)])
    assert code == 0
    return path


class TestSimulate:
    def test_writes_requested_rows(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["simulate", "garch", "--alpha0", "0.05", "--alpha1", "0.1",
                     "--beta1", "0.85", "-T", "50", "--seed", "3", "-o", str(out)])
        assert code == 0
        series = load_csv(out)
        assert len(series) == 50

    def test_deterministic_files(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["simulate", "garch", "--alpha0", "0.05", "--alpha1", "0.1",
                "--beta1", "0.85", "-T", "40", "--seed", "9"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_nonstationary_rejected_with_exit_2(self, tmp_path):
        out = tmp_path / "x.csv"
        result = run_cli(["simulate", "garch", "--alpha0", "0.05", "--alpha1", "0.5",
                          "--beta1", "0.5", "-T", "10", "-o", str(out)])
        assert result.returncode == 2
        assert "stationarity" in result.stderr

    def test_mixture_process(self, tmp_path):
        out = tmp_path / "m.csv"
        code = main(["simulate", "mixture", "--var1", "0.25", "--var2", "4.0",
                     "--switch-prob", "0.05", "-T", "60", "--seed", "1",
                     "-o", str(out)])
        assert code == 0
        assert len(load_csv(out)) == 60


class TestFit:
    def test_garch_summary_has_five_parameters(self, garch_csv, capsys):
        assert main(["fit", "--model", "garch", str(garch_csv)]) == 0
        out = capsys.readouterr().out
        for token in ("a0=", "a1=", "alpha0=", "alpha1=", "beta1=", "loglik=",
                      "status="):
            assert token in out

    def test_garch_save_writes_coefficients(self, garch_csv, tmp_path, capsys):
        import json

        path = tmp_path / "garch.json"
        assert main(["fit", "--model", "garch", "--save", str(path),
                     str(garch_csv)]) == 0
        payload = json.loads(path.read_text())
        assert list(payload) == ["schema_version", "model", "params", "loglik"]
        assert payload["model"] == "garch"
        assert list(payload["params"]) == ["a0", "a1", "alpha0", "alpha1", "beta1"]
        expected = tmp_path / "expected.json"
        save_garch_model(*fit_garch(load_csv(garch_csv)), expected)
        assert path.read_bytes() == expected.read_bytes()

    def test_rmdn_schedule_flags(self, garch_csv, capsys):
        code = main(["fit", "--model", "rmdn", "--pretrain-epochs", "2",
                     "--epochs", "5", "--lr", "0.02", "--components", "1",
                     "--hidden", "1", str(garch_csv)])
        assert code == 0
        out = capsys.readouterr().out
        assert "status=" in out and "loglik=" in out

    def test_rmdn_plain_arm(self, garch_csv, capsys):
        code = main(["fit", "--model", "rmdn", "--pretrain-epochs", "0",
                     "--epochs", "4", "--components", "1", "--hidden", "1",
                     str(garch_csv)])
        assert code == 0
        assert "epochs=4" in capsys.readouterr().out

    def test_saves_loadable_model(self, garch_csv, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        code = main(["fit", "--model", "rmdn", "--pretrain-epochs", "1",
                     "--epochs", "2", "--components", "2", "--hidden", "2",
                     "--save", str(model_path), str(garch_csv)])
        assert code == 0
        from rmdn.harness import load_model
        params, config, state = load_model(model_path)
        assert config.n_components == 2 and config.k_hidden == 2

    @pytest.mark.parametrize("pretrain_epochs", [1, 0])
    def test_saved_model_holds_the_unrolled_final_state(self, garch_csv, tmp_path, capsys,
                                                        pretrain_epochs):
        """The saved file is byte for byte what save_model writes for the
        parameters trained on the harness's setup of the same arm and the
        final state of a full unroll."""
        model_path = tmp_path / "model.json"
        code = main(["fit", "--model", "rmdn", "--pretrain-epochs", str(pretrain_epochs),
                     "--epochs", "2", "--components", "2", "--hidden", "2",
                     "--seed", "3", "--save", str(model_path), str(garch_csv)])
        assert code == 0
        series = load_csv(garch_csv)
        config = RmdnConfig(n_components=2, k_hidden=2)
        method = METHOD_PRETRAINED if pretrain_epochs else METHOD_PLAIN
        params, mask, schedule = arm_setup(method, config,
                                           TrainSchedule(pretrain_epochs, 2, 0.01), 3)
        report = train(series, params, config, schedule, mask=mask)
        _, state = unroll(series, report.final_params, config, initial_state(series, config))
        expected = tmp_path / "expected.json"
        save_model(report.final_params, config, state, expected)
        assert model_path.read_bytes() == expected.read_bytes()

    def test_unreadable_data_exit_2(self, tmp_path):
        result = run_cli(["fit", "--model", "garch", str(tmp_path / "missing.csv")])
        assert result.returncode == 2

    def test_malformed_data_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("return\nnot-a-number\n")
        result = run_cli(["fit", "--model", "garch", str(bad)])
        assert result.returncode == 2
        assert "row 2" in result.stderr

    def test_infinite_learning_rate_exit_2(self, garch_csv, capsys):
        assert main(["fit", "--model", "rmdn", "--epochs", "1", "--lr", "inf", str(garch_csv)]) == 2
        assert "learning_rate must be finite and positive" in capsys.readouterr().err

    def test_garch_on_identical_values_exit_2(self, tmp_path, capsys):
        flat = tmp_path / "flat.csv"
        flat.write_text("return\n" + "0.3\n" * 80)
        assert main(["fit", "--model", "garch", str(flat)]) == 2
        assert "constant series" in capsys.readouterr().err


class TestBenchmark:
    def test_writes_both_reports(self, garch_csv, tmp_path, capsys):
        prefix = tmp_path / "rep"
        code = main(["benchmark", "--seeds", "1", "--meta-seed", "4",
                     "--pretrain-epochs", "2", "--epochs", "3",
                     "--components", "1", "--hidden", "1",
                     "--out", str(prefix), str(garch_csv)])
        assert code == 0
        text = (tmp_path / "rep.txt").read_text()
        csv_text = (tmp_path / "rep.csv").read_text()
        assert "Converged" in text
        assert csv_text.startswith("series,method,")

    def test_worker_counts_give_identical_files(self, garch_csv, tmp_path):
        outputs = {}
        for workers in (1, 2):
            prefix = tmp_path / f"w{workers}"
            code = main(["benchmark", "--seeds", "1", "--meta-seed", "3",
                         "--pretrain-epochs", "1", "--epochs", "2",
                         "--components", "1", "--hidden", "1",
                         "--workers", str(workers),
                         "--out", str(prefix), str(garch_csv)])
            assert code == 0
            outputs[workers] = (
                (tmp_path / f"w{workers}.txt").read_bytes(),
                (tmp_path / f"w{workers}.csv").read_bytes(),
            )
        assert outputs[1] == outputs[2]

    def test_files_of_one_name_are_an_error(self, garch_csv, tmp_path, capsys):
        """Two files named x.csv in different directories would pool their
        runs into one row ``x``; the benchmark refuses them and writes no
        report."""
        for folder, path in (("a", garch_csv), ("b", garch_csv)):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "x.csv").write_bytes(path.read_bytes())
        code = main(["benchmark", "--seeds", "1", "--pretrain-epochs", "0", "--epochs", "1",
                     "--out", str(tmp_path / "rep"), str(tmp_path / "a" / "x.csv"),
                     str(tmp_path / "b" / "x.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: two series are named 'x'")
        assert not list(tmp_path.glob("rep*"))

    def test_zero_input_files_is_usage_error(self):
        result = run_cli(["benchmark", "--seeds", "1"])
        assert result.returncode == 2

    def test_help_shows_protocol_defaults(self):
        result = run_cli(["benchmark", "--help"])
        assert result.returncode == 0
        assert "20" in result.stdout and "300" in result.stdout
        assert "50000" in result.stdout


class TestGradcheck:
    def test_default_passes(self, capsys):
        assert main(["gradcheck"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_ignores_workers_environment_variable(self, monkeypatch, capsys):
        monkeypatch.setenv("RMDN_WORKERS", "two")
        assert main(["gradcheck"]) == 0

    def test_corrupt_fails(self, capsys, monkeypatch):
        exact = gradients.gradient

        def corrupted(*args):
            loss, grad = exact(*args)
            return loss, grad + 0.1

        monkeypatch.setattr(gradients, "gradient", corrupted)
        assert main(["gradcheck"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_reports_deviation_at_tight_tolerance(self, capsys):
        code = main(["gradcheck", "--tol", "1e-12"])
        out = capsys.readouterr().out
        assert "FAIL" in out and "max deviation" in out
        assert code == 1


class TestUsage:
    def test_no_command_exits_2(self):
        result = run_cli([])
        assert result.returncode == 2

    def test_unknown_command_exits_2(self):
        result = run_cli(["frobnicate"])
        assert result.returncode == 2

    @pytest.mark.parametrize("flag", [["--alpha", "0.5"], ["--eps", "1e-5"]])
    @pytest.mark.parametrize("command", ["fit", "benchmark", "gradcheck"])
    def test_variance_unit_flags_are_usage_errors(self, command, flag, garch_csv, tmp_path,
                                                  capsys):
        """The variance unit is fixed; these runs would succeed without the flag."""
        args = {"fit": ["fit", "--model", "rmdn", "--pretrain-epochs", "0", "--epochs", "1",
                        str(garch_csv)],
                "benchmark": ["benchmark", "--seeds", "1", "--pretrain-epochs", "0",
                              "--epochs", "1", "--out", str(tmp_path / "report"),
                              str(garch_csv)],
                "gradcheck": ["gradcheck", "-T", "5"]}[command]
        with pytest.raises(SystemExit) as exit_info:
            main([*args, *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
