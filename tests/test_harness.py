import csv
import io
import json
import math
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rmdn import harness
from rmdn.data import ReturnSeries, sample_seeds
from rmdn.garch import GarchParams, simulate_garch
from rmdn.gradients import flatten_params, nonlinear_node_mask
from rmdn.harness import (ALL_METHODS, METHOD_GARCH, METHOD_PLAIN,
                          METHOD_PRETRAINED, BenchmarkReport, ModelFileError,
                          RunRecord, arm_setup, derive_run_seed, load_model,
                          render_report, run_benchmark, save_model)
from rmdn.mixture import nll
from rmdn.network import (SCHEMES, RecurrentState, RmdnConfig, RmdnParams,
                          init_params, initial_state, unroll)
from rmdn.optim import CONVERGED, NOT_CONVERGED, TrainSchedule, classify_convergence


FIXTURES = Path(__file__).resolve().parents[1] / "perfbench" / "fixtures"

DROP = object()


def edit_entry(section, key, value):
    """A model-file edit: set payload[section][key] to ``value``, or remove
    the entry when ``value`` is DROP."""
    def edit(payload):
        if value is DROP:
            del payload[section][key]
        else:
            payload[section][key] = value
        return payload
    return edit


def tiny_benchmark(workers=1, meta_seed=5):
    gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.80)
    series = [simulate_garch(gp, 120, seed=s, name=f"sim{s}") for s in (1, 2)]
    config = RmdnConfig(n_components=2, k_hidden=2)
    schedule = TrainSchedule(3, 8, 0.02)
    return run_benchmark(series, 2, config, schedule, meta_seed=meta_seed,
                         workers=workers)


class TestRunBenchmark:
    def test_single_seed_single_series_gives_three_records(self):
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.80)
        series = [simulate_garch(gp, 100, seed=3, name="one")]
        report = run_benchmark(series, 1, RmdnConfig(1, 1),
                               TrainSchedule(2, 3, 0.02), meta_seed=0)
        assert len(report.records) == 3
        assert sorted(r.method for r in report.records) == sorted(ALL_METHODS)

    def test_counts_sum_to_seeds(self):
        report = tiny_benchmark()
        for series in report.series_names():
            for method in (METHOD_PRETRAINED, METHOD_PLAIN):
                nc, c = report.counts(series, method)
                assert nc + c == 2
            nc, c = report.counts(series, METHOD_GARCH)
            assert nc + c == 1

    def test_status_matches_classification_rule(self):
        report = tiny_benchmark()
        for r in report.records:
            expected = NOT_CONVERGED if (math.isnan(r.loglik) or r.loglik < -100000) \
                else CONVERGED
            assert r.status == expected

    def test_averages_recomputable_from_records(self):
        report = tiny_benchmark()
        for series in report.series_names():
            for method in ALL_METHODS:
                conv = [r.loglik for r in report.select(series, method)
                        if r.status == CONVERGED]
                avg = report.average_loglik(series, method)
                if conv:
                    assert avg == pytest.approx(float(np.mean(conv)))
                else:
                    assert avg is None

    def test_deterministic_rerun(self):
        a = tiny_benchmark()
        b = tiny_benchmark()
        assert [(r.series, r.method, r.seed, r.loglik, r.status, r.epochs)
                for r in a.records] == \
               [(r.series, r.method, r.seed, r.loglik, r.status, r.epochs)
                for r in b.records]

    def test_parallel_matches_serial(self):
        serial = tiny_benchmark(workers=1)
        parallel = tiny_benchmark(workers=2)
        assert render_report(serial, "text") == render_report(parallel, "text")
        assert render_report(serial, "csv") == render_report(parallel, "csv")

    def test_derived_streams_differ_across_arms(self):
        a = derive_run_seed(0, "x", 123, METHOD_PRETRAINED)
        b = derive_run_seed(0, "x", 123, METHOD_PLAIN)
        c = derive_run_seed(1, "x", 123, METHOD_PRETRAINED)
        d = derive_run_seed(0, "y", 123, METHOD_PRETRAINED)
        assert len({a, b, c, d}) == 4

    def test_arm_setup(self):
        config = RmdnConfig(n_components=2, k_hidden=3)
        schedule = TrainSchedule(4, 9, 0.03)
        params, mask, run_schedule = arm_setup(METHOD_PRETRAINED, config, schedule, 17)
        np.testing.assert_array_equal(flatten_params(params, config),
                                      flatten_params(init_params(config, 17, "pretrain"), config))
        np.testing.assert_array_equal(mask, nonlinear_node_mask(config))
        assert run_schedule == schedule
        params, mask, run_schedule = arm_setup(METHOD_PLAIN, config, schedule, 17)
        np.testing.assert_array_equal(flatten_params(params, config),
                                      flatten_params(init_params(config, 17, "plain"), config))
        assert mask is None
        assert run_schedule == TrainSchedule(0, 9, 0.03)

    def test_config_echo_names_every_setting(self):
        report = tiny_benchmark(meta_seed=5)
        assert report.config_echo == {
            "n_components": 2, "k_hidden": 2,
            "pretrain_epochs": 3, "train_epochs": 8, "learning_rate": 0.02,
            "meta_seed": 5, "seeds": sample_seeds(2, 0, 50000, meta_seed=5),
        }

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            run_benchmark([], 1)
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.80)
        with pytest.raises(ValueError):
            run_benchmark([simulate_garch(gp, 100, seed=1)], 0)

    def test_repeated_series_name_rejected(self, monkeypatch):
        """Series that share a name would draw the same run seeds and pool
        into one report row, so no run starts."""
        monkeypatch.setattr(harness, "_run_task", lambda task: pytest.fail("a run started"))
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.80)
        series = [simulate_garch(gp, 100, seed=seed, name=name)
                  for seed, name in ((1, "x"), (2, "y"), (3, "x"))]
        with pytest.raises(ValueError, match="two series are named 'x'"):
            run_benchmark(series, 1, RmdnConfig(1, 1), TrainSchedule(1, 1, 0.02))

    def test_constant_series_gives_not_converged_garch_record(self):
        for values in [np.zeros(100)] + [np.full(80, v) for v in (0.3, 0.1, 1 / 3,
                                                                  1e-300, 1e300)]:
            flat = ReturnSeries(values, name="flat")
            report = run_benchmark([flat], 1, RmdnConfig(1, 1), TrainSchedule(1, 1, 0.02))
            (record,) = report.select("flat", METHOD_GARCH)
            assert record.status == NOT_CONVERGED and math.isnan(record.loglik), values[0]

    def test_extreme_scale_gives_not_converged_garch_record(self):
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        values = simulate_garch(gp, 300, seed=3).values
        for scale in (1e-300, 1e-160, 1e155, 1e300):
            scaled = ReturnSeries(scale * values, name="scaled")
            with np.errstate(all="ignore"):
                report = run_benchmark([scaled], 1, RmdnConfig(1, 1), TrainSchedule(1, 1, 0.02))
            (record,) = report.select("scaled", METHOD_GARCH)
            assert record.status == NOT_CONVERGED and math.isnan(record.loglik), scale

    def test_unexpected_garch_error_propagates(self, monkeypatch):
        def broken_fit(series):
            raise TypeError("a bug, not an unfittable series")

        monkeypatch.setattr(harness, "fit_garch", broken_fit)
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.80)
        with pytest.raises(TypeError, match="a bug"):
            run_benchmark([simulate_garch(gp, 100, seed=1)], 1, RmdnConfig(1, 1),
                          TrainSchedule(1, 1, 0.02))


class TestModelFiles:
    def setup_method(self):
        self.config = RmdnConfig(n_components=2, k_hidden=3)
        self.params = init_params(self.config, 77, "plain")
        self.state = RecurrentState([1.5, 2.5], 0.7)

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.params, self.config, self.state, path)
        params, config, state = load_model(path)
        assert config == self.config
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.80)
        series = simulate_garch(gp, 60, seed=4)
        init = initial_state(series, self.config)
        steps_a, _ = unroll(series, self.params, self.config, init)
        steps_b, _ = unroll(series, params, config, init)
        assert nll(series, steps_a) == nll(series, steps_b)
        for a, b in zip(steps_a, steps_b):
            assert np.array_equal(a.sigma2, b.sigma2)
        np.testing.assert_array_equal(state.sigma2_prev, self.state.sigma2_prev)
        assert state.e2_prev == self.state.e2_prev

    def test_diverged_state_loads(self, tmp_path):
        # NaN is data: the state a diverged run saves reads back as it was
        path = tmp_path / "model.json"
        save_model(self.params, self.config, RecurrentState([np.nan, 2.5], np.nan), path)
        _, _, state = load_model(path)
        np.testing.assert_array_equal(state.sigma2_prev, [np.nan, 2.5])
        assert np.isnan(state.e2_prev)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_round_trip_at_every_shape(self, n, k, tmp_path):
        path = tmp_path / "model.json"
        config = RmdnConfig(n_components=n, k_hidden=k)
        rng = np.random.default_rng(10 * n + k)
        for scheme in SCHEMES:
            params = init_params(config, 10 * n + k, scheme)
            state = RecurrentState(rng.uniform(0.5, 2.0, n), rng.uniform(0.0, 3.0))
            save_model(params, config, state, path)
            loaded_params, loaded_config, loaded_state = load_model(path)
            assert loaded_config == config
            for f in fields(RmdnParams):
                a, b = getattr(params, f.name), getattr(loaded_params, f.name)
                assert a.shape == b.shape and a.tobytes() == b.tobytes(), f.name
            assert loaded_state.sigma2_prev.tobytes() == state.sigma2_prev.tobytes()
            assert loaded_state.e2_prev.hex() == state.e2_prev.hex()
            assert list(json.loads(path.read_text())["config"].items()) == [
                ("n_components", n), ("k_hidden", k), ("elu_alpha", 1.0), ("elu_eps", 1e-06)]

    @pytest.mark.parametrize("edit,field", [
        pytest.param(edit_entry("config", "n_components", "2"), "config.n_components",
                     id="n_components-str"),
        pytest.param(edit_entry("config", "n_components", 2.5), "config.n_components",
                     id="n_components-float"),
        pytest.param(edit_entry("config", "n_components", True), "config.n_components",
                     id="n_components-bool"),
        pytest.param(edit_entry("config", "k_hidden", None), "config.k_hidden",
                     id="k_hidden-null"),
        pytest.param(lambda payload: [payload], "JSON object", id="top-level-array"),
        pytest.param(edit_entry("state", "e2_prev", [1, 2]), "state.e2_prev",
                     id="e2_prev-list"),
        pytest.param(edit_entry("state", "e2_prev", "abc"), "state.e2_prev",
                     id="e2_prev-str"),
        pytest.param(edit_entry("params", "var_out_b", ["abc", 1.0]), "params.var_out_b",
                     id="param-entry-str"),
        pytest.param(edit_entry("config", "elu_alpha", 0.5), "config.elu_alpha",
                     id="elu_alpha-other"),
        pytest.param(edit_entry("config", "elu_eps", 1e-5), "config.elu_eps",
                     id="elu_eps-other"),
        pytest.param(edit_entry("config", "elu_eps", DROP), "config.elu_eps",
                     id="elu_eps-missing"),
        pytest.param(lambda payload: {**payload, "schema_version": True}, "schema_version",
                     id="schema_version-bool"),
        pytest.param(edit_entry("state", "sigma2_prev", [1.0, 0.0]), "state.sigma2_prev",
                     id="sigma2_prev-zero"),
        pytest.param(edit_entry("state", "sigma2_prev", [-1.0, 1.0]), "state.sigma2_prev",
                     id="sigma2_prev-negative"),
        pytest.param(edit_entry("state", "e2_prev", -0.5), "state.e2_prev",
                     id="e2_prev-negative"),
        pytest.param(edit_entry("state", "e2_prev", DROP), "missing field state.e2_prev",
                     id="e2_prev-missing"),
        pytest.param(lambda payload: {k: v for k, v in payload.items() if k != "state"},
                     "missing field 'state'", id="section-missing"),
        pytest.param(lambda payload: {**payload, "params": [1.0]},
                     "field 'params' must be a JSON object", id="section-not-object"),
        pytest.param(edit_entry("params", "var_out_w", [[1.0] * 6, [1.0] * 5]),
                     "params.var_out_w must hold only numbers", id="ragged-lists"),
    ])
    def test_malformed_file_names_the_field(self, edit, field, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.params, self.config, self.state, path)
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ModelFileError, match=field):
            load_model(path)

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.params, self.config, self.state, path)
        payload = json.loads(path.read_text())
        del payload["params"]["var_out_w"]
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match="var_out_w"):
            load_model(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.params, self.config, self.state, path)
        payload = json.loads(path.read_text())
        payload["schema_version"] = 99
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match="schema_version"):
            load_model(path)

    def test_shape_mismatch_from_other_config(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(self.params, self.config, self.state, path)
        payload = json.loads(path.read_text())
        payload["config"]["k_hidden"] = 2  # params arrays still K=3
        path.write_text(json.dumps(payload))
        with pytest.raises(ModelFileError, match="shape mismatch"):
            load_model(path)

    @pytest.mark.parametrize("fixture", sorted(FIXTURES.glob("pretrained-seed*.json")),
                             ids=lambda path: path.name)
    def test_committed_model_file_rewrites_byte_identically(self, fixture, tmp_path):
        path = tmp_path / "model.json"
        save_model(*load_model(fixture), path)
        # the fixture is save_model's file with a "provenance" member appended
        head, sep, _ = fixture.read_bytes().partition(b',\n "provenance": ')
        assert sep
        assert path.read_bytes() == head + b"\n}\n"

    def test_not_json(self, tmp_path):
        path = tmp_path / "model.json"
        for content in (b"definitely: not json {", b"\xff\xfe not UTF-8"):
            path.write_bytes(content)
            with pytest.raises(ModelFileError, match="JSON"):
                load_model(path)


class TestRender:
    def make_report(self, logliks_pre, logliks_plain, garch_ll=-150.0):
        records = [
            RunRecord("demo", METHOD_GARCH, None, garch_ll,
                      CONVERGED if garch_ll > -100000 else NOT_CONVERGED, 0, 0.1)
        ]
        for i, ll in enumerate(logliks_pre):
            status = NOT_CONVERGED if math.isnan(ll) else CONVERGED
            records.append(RunRecord("demo", METHOD_PRETRAINED, i, ll, status, 5, 0.1))
        for i, ll in enumerate(logliks_plain):
            status = NOT_CONVERGED if math.isnan(ll) else CONVERGED
            records.append(RunRecord("demo", METHOD_PLAIN, i, ll, status, 5, 0.1))
        echo = {"n_components": 2, "k_hidden": 3,
                "learning_rate": 0.01, "pretrain_epochs": 20, "train_epochs": 300,
                "meta_seed": 0, "seeds": list(range(len(logliks_pre)))}
        return BenchmarkReport(records, echo)

    def test_text_counts_row(self):
        report = self.make_report([-100.0] * 10, [math.nan] * 10)
        text = render_report(report, "text")
        row = next(line for line in text.splitlines() if line.startswith("demo"))
        # plain: 10 NotConverged 0 Converged; pretrained: 0 / 10
        assert row.split()[1:] == ["10", "0", "0", "10"]
        assert "Total%" in text

    def test_text_na_for_empty_converged_set(self):
        report = self.make_report([-100.0], [math.nan])
        text = render_report(report, "text")
        assert "n/a" in text
        assert "nan" not in text.lower().replace("n/a", "")

    def test_csv_round_trip(self):
        report = self.make_report([-100.0, -110.0, math.nan], [-120.0])
        csv_text = render_report(report, "csv")
        lines = csv_text.strip().splitlines()
        assert lines[0] == "series,method,n_runs,n_not_converged,n_converged,avg_loglik"
        parsed = {}
        for line in lines[1:]:
            series, method, n, nc, c, avg = line.split(",")
            parsed[method] = (int(n), int(nc), int(c), avg)
        assert parsed[METHOD_PRETRAINED][:3] == (3, 1, 2)
        assert float(parsed[METHOD_PRETRAINED][3]) == pytest.approx(-105.0)
        assert parsed[METHOD_PLAIN] == (1, 0, 1, repr(-120.0))
        assert parsed[METHOD_GARCH][:3] == (1, 0, 1)

    def test_csv_quotes_names_holding_separators(self):
        """A series name holding a comma or a double quote reads back whole
        through ``csv.reader``."""
        report = self.make_report([-100.0], [-120.0])
        for record in report.records:
            record.series = "a,b" if record.method == METHOD_PLAIN else 'say "hi"'
        rows = list(csv.reader(io.StringIO(render_report(report, "csv"))))
        assert [len(row) for row in rows] == [6] * 7
        assert ["a,b", METHOD_PLAIN, "1", "0", "1", "-120.0"] in rows
        assert {row[0] for row in rows[1:]} == {"a,b", 'say "hi"'}

    def test_csv_na_for_empty(self):
        report = self.make_report([math.nan], [math.nan])
        csv_text = render_report(report, "csv")
        for line in csv_text.strip().splitlines()[1:]:
            if f",{METHOD_PRETRAINED}," in line or f",{METHOD_PLAIN}," in line:
                assert line.endswith(",n/a")

    def test_golden_report_bytes(self):
        """Both formats, byte for byte, of a hand-built report: three series,
        one name longer than the 20-character column, NaN runs, a run below
        the -100000 floor, a series with no converged RMDN run and a GARCH
        fit that failed. Every log-likelihood is a dyadic fraction, so each
        average's sum is exact and its digits do not depend on the host."""
        runs = {
            "garch-path": {METHOD_GARCH: [-1402.5],
                           METHOD_PRETRAINED: [-1400.25, -1399.75, math.nan],
                           METHOD_PLAIN: [-1401.5, -250000.0, -1398.0]},
            "two-regime-mixture-long-name": {METHOD_GARCH: [-1600.125],
                                             METHOD_PRETRAINED: [math.nan, math.nan],
                                             METHOD_PLAIN: [-150000.5, math.nan]},
            "a": {METHOD_GARCH: [math.nan], METHOD_PRETRAINED: [-1.0, -2.0, -2.0],
                  METHOD_PLAIN: [-2.75]},
        }
        records = [RunRecord(series, method, None if method == METHOD_GARCH else seed, ll,
                             classify_convergence(ll), 0 if method == METHOD_GARCH else 320, 0.5)
                   for series, arms in runs.items() for method, lls in arms.items()
                   for seed, ll in enumerate(lls)]
        echo = {"n_components": 2, "k_hidden": 3, "learning_rate": 0.01, "pretrain_epochs": 20,
                "train_epochs": 300, "meta_seed": 42, "seeds": [0, 1, 2]}
        report = BenchmarkReport(records, echo)
        text = [
            "configuration: n_components=2 k_hidden=3 learning_rate=0.01 pretrain_epochs=20"
            " train_epochs=300 meta_seed=42",
            "seeds: [0, 1, 2]",
            "",
            "In-sample convergence counts",
            "series                       plain                  pretrained            ",
            "                      NotConverged   Converged    NotConverged   Converged",
            "a                                0           1               0           3",
            "garch-path                       1           2               1           2",
            "two-regime-mixture-long-name             2           0               2           0",
            "Total                            3           3               3           5",
            "Total%                         50%         50%             38%         62%",
            "",
            "Average log-likelihood over converged runs",
            "series                       garch    pretrained         plain",
            "a                              n/a         -1.67         -2.75",
            "garch-path                -1402.50      -1400.00      -1399.75",
            "two-regime-mixture-long-name      -1600.12           n/a           n/a",
            "",
            "averages use converged runs only; n/a = no converged runs",
        ]
        csv = [
            "series,method,n_runs,n_not_converged,n_converged,avg_loglik",
            "a,pretrained,3,0,3,-1.6666666666666667",
            "a,plain,1,0,1,-2.75",
            "a,garch,1,1,0,n/a",
            "garch-path,pretrained,3,1,2,-1400.0",
            "garch-path,plain,3,1,2,-1399.75",
            "garch-path,garch,1,0,1,-1402.5",
            "two-regime-mixture-long-name,pretrained,2,2,0,n/a",
            "two-regime-mixture-long-name,plain,2,2,0,n/a",
            "two-regime-mixture-long-name,garch,1,0,1,-1600.125",
        ]
        assert render_report(report, "text") == "\n".join(text) + "\n"
        assert render_report(report, "csv") == "\n".join(csv) + "\n"

    def test_unknown_format_rejected(self):
        report = self.make_report([-1.0], [-1.0])
        with pytest.raises(ValueError):
            render_report(report, "yaml")

    def test_no_wall_time_in_reports(self):
        report = tiny_benchmark()
        for r in report.records:
            r.wall_time = 123.456  # any timing leak would show up verbatim
        assert "123.45" not in render_report(report, "text")
        assert "123.45" not in render_report(report, "csv")
