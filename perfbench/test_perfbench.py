"""Self-tests of the benchmark, run with ``python3 -m pytest perfbench``.

They run the smoke mode end to end in both trace modes, show that a raising
library call counts as failed operations without ending the run, and show
that the output checks catch one perturbed fixture parameter.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from rmdn.data import ReturnSeries  # noqa: E402
from rmdn.network import RmdnConfig, init_params  # noqa: E402
from rmdn.optim import TrainSchedule, train  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def heavy_tailed():
    """A known defect (ROADMAP item 5): at lr 1.0 a plain run on this series
    reaches a finite loss with a non-finite gradient, and ``train`` raises."""
    return np.random.default_rng(0).standard_t(3, 400) * 3


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["fit", "sweep", "score"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, entry in result["metrics"].items():
        assert f"{name} = {entry['value']!r} {entry['unit']}" in proc.stdout


def test_train_raises_on_the_heavy_tailed_series():
    config = RmdnConfig(2, 3)
    losses = []
    with pytest.raises(ValueError, match="non-finite gradients"):
        train(heavy_tailed(), init_params(config, 1, "plain"), config,
              TrainSchedule(0, 60, 1.0), callback=lambda epoch, theta, loss: losses.append(loss))
    assert len(losses) == 41 and np.isfinite(losses[-1])


def test_raising_train_is_a_failed_call_and_the_run_goes_on():
    fit = workloads.Fit(heavy_tailed(), [1], TrainSchedule(0, 60, 1.0), scheme="plain")
    outcomes, _ = workloads.measure(fit, 0, trace=True, tracer=Tracer())
    assert [o.traced for o in outcomes] == [False, True]
    assert all("non-finite gradients" in o.error for o in outcomes)
    assert fit.check(outcomes) == [1, 1]
    import rmdn.optim
    assert not hasattr(rmdn.optim.train, "__wrapped__")


def test_raising_run_benchmark_fails_every_run_of_the_sweep():
    sweep = workloads.Sweep([ReturnSeries(heavy_tailed(), name="t3")], 1,
                            TrainSchedule(0, 60, 1.0), meta_seed=0, workers=1)
    outcomes, _ = workloads.measure(sweep, 0, trace=False)
    assert "non-finite gradients" in outcomes[0].error
    assert sweep.check(outcomes) == [sweep.units] == [3]


def test_perturbed_fixture_parameter_fails_its_calls(tmp_path):
    for path in workloads.FIXTURE_DIR.glob("*.json"):
        shutil.copy(path, tmp_path)
    first = json.loads((tmp_path / "reference.json").read_text())["models"][0]["file"]
    payload = json.loads((tmp_path / first).read_text())
    payload["params"]["var_out_b"][0] *= 1.0 + 1e-6
    (tmp_path / first).write_text(json.dumps(payload))

    def failed(fixture_dir):
        score = workloads.Score.from_seed(3, False, workloads.SMOKE, fixture_dir)
        assert score.units == 3
        return score.check([workloads.attempt(score, i, "default") for i in range(2)])

    assert failed(workloads.FIXTURE_DIR) == [0, 0]
    assert failed(tmp_path) == [1, 1]


def test_inputs_follow_the_seed_and_the_holdout_stream_is_disjoint():
    def series(seed, holdout):
        return workloads.Fit.from_seed(seed, holdout, workloads.SMOKE).series.values

    assert np.array_equal(series(5, False), series(5, False))
    assert not np.array_equal(series(5, False), series(6, False))
    assert not np.array_equal(series(5, False), series(5, True))


def test_tail_leaves_ten_samples_beyond_it():
    values = list(range(1, 51))
    assert run.tail(values) == (80, 40, 50)
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (75, 3.25, 4)
    assert run.upper_quartile([2.0]) == 2.0


def test_fit_rates_use_the_upper_quartile_of_epoch_times():
    """An epoch-time burst in one call moves neither the rates nor the run
    latency: each epoch counts at the upper quartile of all epoch times."""
    def fit_call(wall, epoch_s):
        outcome = workloads.Outcome(0, "default", False, wall)
        work = workloads.Work(runs=1, obs=10, obs_epochs=10 * (len(epoch_s) + 1),
                              latencies=[wall], epoch_s=epoch_s)
        return outcome, work

    calm = fit_call(4.5, [1.0, 1.0, 1.0, 1.0])
    burst = fit_call(2.7, [0.1, 0.1, 1.0, 1.0])
    metrics = run.end_to_end(*zip(calm, burst), [0.5], 100.0, {})
    assert metrics["run_s.p75"] == (4.5, "s")
    assert metrics["obs_epochs_per_s"] == (50 / 4.5, "1/s")
    assert metrics["runs_per_s"] == (1 / 4.5, "1/s")


def test_without_a_source_tree_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "fit", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
