"""The benchmark's workloads: inputs derived from the seed, the timed call,
and the checks every call's output must pass.

Each workload calls rmdn only through module attributes (``optim.train``,
``harness.run_benchmark``, ...), so a ``Tracer`` that replaces those
attributes sees every call. The library receives only generated inputs.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rmdn import data, garch, gradients, harness, mixture, network, optim
from rmdn.garch import GarchParams
from rmdn.optim import CONVERGED, TrainSchedule

FIXTURE_DIR = Path(__file__).resolve().parent / "fixtures"

GARCH_TRUE = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)        # acceptance criterion 3
TWO_REGIME = data.TwoRegimeSpec(mu1=0.0, var1=0.25, mu2=0.0, var2=4.0,
                                weight1=0.5, switch_prob=0.05)  # criterion 4
CONFIG = network.RmdnConfig(n_components=2, k_hidden=3)
EMBED_CONFIG = network.RmdnConfig(n_components=1, k_hidden=3)

# acceptance criterion 1's bounds for the nested-GARCH embedding
EMBED_STEP_ATOL = 1e-10
EMBED_LOGLIK_RTOL = 1e-8

WORKLOAD_KEYS = {"fit": 1, "sweep": 2, "score": 3}


@dataclass(frozen=True)
class Sizes:
    """Series lengths and schedules; FULL is the benchmark, SMOKE its self-test."""

    fit_t: int
    fit_schedule: TrainSchedule
    sweep_t: int
    sweep_seeds: int
    sweep_schedule: TrainSchedule
    score_t: int


FULL = Sizes(fit_t=1000, fit_schedule=TrainSchedule(20, 300, 0.01),
             sweep_t=300, sweep_seeds=3, sweep_schedule=TrainSchedule(5, 60, 0.01),
             score_t=20000)
SMOKE = Sizes(fit_t=120, fit_schedule=TrainSchedule(2, 3, 0.01),
              sweep_t=100, sweep_seeds=1, sweep_schedule=TrainSchedule(1, 2, 0.01),
              score_t=600)


def seed_stream(workload: str, seed: int, holdout: bool) -> np.random.Generator:
    """The generator all of a workload's inputs are drawn from. The held-out
    stream shares no input with the tuning stream for any seed."""
    return np.random.default_rng([int(holdout), WORKLOAD_KEYS[workload], seed])


def _draw(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


@dataclass
class Outcome:
    """One timed call: which inputs and setting it used, how long it took,
    and what it returned or raised."""

    index: int
    variant: str
    traced: bool
    wall: float
    value: object = None
    error: str | None = None


@dataclass
class Work:
    """What one completed call did, in the units the metrics count."""

    runs: int
    obs: int
    obs_epochs: int
    latencies: list[float]
    epochs_completed: int = 0
    epochs_planned: int = 0
    # arm -> [converged runs, runs]
    converged: dict[str, list[int]] = field(default_factory=dict)
    run_wall_s: float = 0.0
    # seconds between consecutive epoch ends, where the call reports them
    epoch_s: list[float] = field(default_factory=list)


@dataclass
class FitRun:
    """A training report and the wall time of each epoch after the first."""

    report: optim.TrainReport
    epoch_s: list[float]


class Fit:
    """``train`` of the pretrained arm, one seed after another."""

    name = "fit"
    units = 1
    trace_cycle = (("default", False), ("default", True))

    def __init__(self, series, init_seeds, schedule: TrainSchedule, scheme: str = "pretrain"):
        self.series = series
        self.init_seeds = list(init_seeds)
        self.schedule = schedule
        self.scheme = scheme
        self.mask = gradients.nonlinear_node_mask(CONFIG) if scheme == "pretrain" else None

    @classmethod
    def from_seed(cls, seed: int, holdout: bool, sizes: Sizes) -> "Fit":
        rng = seed_stream(cls.name, seed, holdout)
        series = garch.simulate_garch(GARCH_TRUE, sizes.fit_t, seed=_draw(rng), name="fit")
        init_seeds = data.sample_seeds(64, 0, 50000, meta_seed=_draw(rng))
        return cls(series, init_seeds, sizes.fit_schedule)

    def _train(self, seed: int, schedule: TrainSchedule, callback=None):
        params = network.init_params(CONFIG, seed, self.scheme)
        return optim.train(self.series, params, CONFIG, schedule, mask=self.mask,
                           callback=callback)

    def warm_up(self) -> None:
        self._train(self.init_seeds[0], TrainSchedule(0, 1, self.schedule.learning_rate))

    def run(self, index: int, variant: str) -> FitRun:
        """One training run; ``train``'s per-epoch callback stamps the end of
        every epoch, so the run also yields its epoch wall times."""
        ends: list[float] = []
        report = self._train(self.init_seeds[index % len(self.init_seeds)], self.schedule,
                             callback=lambda *_: ends.append(time.perf_counter()))
        return FitRun(report, [b - a for a, b in zip(ends, ends[1:])])

    def check(self, outcomes: list[Outcome]) -> list[int]:
        """A pretrained run must end Converged."""
        return [int(o.error is not None or o.value.report.status != CONVERGED)
                for o in outcomes]

    def work(self, o: Outcome) -> Work:
        report, t_len = o.value.report, len(self.series)
        return Work(runs=1, obs=t_len, obs_epochs=report.epochs_completed * t_len,
                    latencies=[o.wall], epochs_completed=report.epochs_completed,
                    epochs_planned=self.schedule.total_epochs,
                    converged={harness.METHOD_PRETRAINED:
                               [int(report.status == CONVERGED), 1]},
                    epoch_s=o.value.epoch_s)


class Sweep:
    """``run_benchmark`` over a GARCH path and a two-regime path, all arms."""

    name = "sweep"
    # the traced sweep runs serially: spans recorded in pool workers are lost
    trace_cycle = (("pool", False), ("serial", False), ("serial", True))

    def __init__(self, series_list, n_seeds: int, schedule: TrainSchedule,
                 meta_seed: int, workers: int):
        self.series_list = list(series_list)
        self.n_seeds = n_seeds
        self.schedule = schedule
        self.meta_seed = meta_seed
        self.workers = workers
        self.units = len(self.series_list) * (1 + len(harness.RMDN_METHODS) * n_seeds)
        self.lengths = {s.name: len(s) for s in self.series_list}

    @classmethod
    def from_seed(cls, seed: int, holdout: bool, sizes: Sizes) -> "Sweep":
        rng = seed_stream(cls.name, seed, holdout)
        series = [
            garch.simulate_garch(GARCH_TRUE, sizes.sweep_t, seed=_draw(rng), name="garch"),
            data.simulate_mixture_process(TWO_REGIME, sizes.sweep_t, seed=_draw(rng),
                                          name="mixture"),
        ]
        return cls(series, sizes.sweep_seeds, sizes.sweep_schedule, _draw(rng), nproc())

    def warm_up(self) -> None:
        short = [data.ReturnSeries(s.values[:100], name=s.name) for s in self.series_list]
        harness.run_benchmark(short, 1, CONFIG, TrainSchedule(1, 1, self.schedule.learning_rate),
                              meta_seed=self.meta_seed, workers=1)

    def run(self, index: int, variant: str):
        workers = 1 if variant == "serial" else self.workers
        return harness.run_benchmark(self.series_list, self.n_seeds, CONFIG, self.schedule,
                                     meta_seed=self.meta_seed, workers=workers)

    def check(self, outcomes: list[Outcome]) -> list[int]:
        """Pretrained and GARCH runs must end Converged (a NotConverged plain
        run is a result). Every sweep has the same inputs, so its report must
        match the first completed sweep's byte for byte, at any worker count;
        otherwise all of its runs count as failed."""
        reference = None
        failed = []
        for o in outcomes:
            if o.error is not None:
                failed.append(self.units)
                continue
            csv = harness.render_report(o.value, "csv")
            reference = reference or csv
            if len(o.value.records) != self.units or csv != reference:
                failed.append(self.units)
                continue
            failed.append(sum(1 for r in o.value.records
                              if r.method != harness.METHOD_PLAIN and r.status != CONVERGED))
        return failed

    def work(self, o: Outcome) -> Work:
        w = Work(runs=0, obs=0, obs_epochs=0, latencies=[])
        for r in o.value.records:
            t_len = self.lengths[r.series]
            w.runs += 1
            w.obs += t_len
            w.obs_epochs += r.epochs * t_len
            w.latencies.append(r.wall_time)
            w.run_wall_s += r.wall_time
            arm = w.converged.setdefault(r.method, [0, 0])
            arm[0] += int(r.status == CONVERGED)
            arm[1] += 1
            if r.method == harness.METHOD_PRETRAINED:
                w.epochs_planned += self.schedule.total_epochs
            elif r.method == harness.METHOD_PLAIN:
                w.epochs_planned += self.schedule.train_epochs
            w.epochs_completed += r.epochs
        return w


@dataclass
class Model:
    params: network.RmdnParams
    config: network.RmdnConfig
    init: network.RecurrentState


class Score:
    """Forward-only likelihood of one long held-out series, through
    ``unroll`` + ``nll``, for the committed fixture models and the nested
    GARCH embedding. One call scores the series under every model in turn,
    so every call does the same work; each model's pass is one operation."""

    name = "score"
    trace_cycle = (("default", False), ("default", True))

    def __init__(self, series, embedding: GarchParams, fixture_dir: Path = FIXTURE_DIR):
        self.series = series
        self.embedding = embedding
        self.reference = json.loads((fixture_dir / "reference.json").read_text(encoding="utf-8"))
        self.models = []
        for entry in self.reference["models"]:
            params, config, state = harness.load_model(fixture_dir / entry["file"])
            self.models.append(Model(params, config, state))
        self.models.append(Model(network.params_from_garch(embedding, EMBED_CONFIG),
                                 EMBED_CONFIG, network.initial_state(series, EMBED_CONFIG)))
        self.units = len(self.models)
        spec = self.reference["check_series"]
        self.check_series = data.simulate_mixture_process(
            data.TwoRegimeSpec(**spec["spec"]), spec["length"], seed=spec["seed"],
            name="fixture-check")

    @classmethod
    def from_seed(cls, seed: int, holdout: bool, sizes: Sizes,
                  fixture_dir: Path = FIXTURE_DIR) -> "Score":
        rng = seed_stream(cls.name, seed, holdout)
        series = garch.simulate_garch(GARCH_TRUE, sizes.score_t, seed=_draw(rng), name="heldout")
        # criterion 1's parameter ranges; alpha0 > 1 + eps keeps every variance
        # pre-activation positive, where the embedding is exact
        embedding = GarchParams(float(rng.normal(0.0, 0.2)), float(rng.uniform(-0.5, 0.5)),
                                float(rng.uniform(1.2, 3.0)), float(rng.uniform(0.02, 0.25)),
                                float(rng.uniform(0.3, 0.7)))
        return cls(series, embedding, fixture_dir)

    def _loglik(self, series, model: Model, init: network.RecurrentState) -> float:
        steps, _ = network.unroll(series, model.params, model.config, init)
        return -mixture.nll(series, steps)

    def warm_up(self) -> None:
        short = self.series.values[:1000]
        self._loglik(short, self.models[0], self.models[0].init)

    def run(self, index: int, variant: str) -> list[float]:
        return [self._loglik(self.series, model, model.init) for model in self.models]

    def _references(self) -> list[tuple[bool, float, float]]:
        """Per model: whether its fixed checks pass, the held-out reference
        log-likelihood, and the relative tolerance a call must meet."""
        values = self.series.values
        out = []
        tol = self.reference["heldout_tolerance"]["rel"]
        for model, entry in zip(self.models, self.reference["models"]):
            stored = entry["check_loglik"]
            check_init = network.initial_state(self.check_series, model.config)
            ok = abs(self._loglik(self.check_series, model, check_init) - stored) <= \
                self.reference["check_tolerance"]["rel"] * abs(stored)
            cache = network.forward_pass(values, model.params, model.config, model.init)
            out.append((ok, -mixture.nll_arrays(values, cache.eta, cache.mu, cache.sigma2), tol))

        model = self.models[-1]
        steps, _ = network.unroll(self.series, model.params, model.config, model.init)
        mu_g, s2_g = garch.garch_filter(self.series, self.embedding)
        ok = (np.max(np.abs(np.array([s.mu[0] for s in steps]) - mu_g)) <= EMBED_STEP_ATOL
              and np.max(np.abs(np.array([s.sigma2[0] for s in steps]) - s2_g)) <= EMBED_STEP_ATOL)
        out.append((bool(ok), -garch.garch_nll(self.series, self.embedding), EMBED_LOGLIK_RTOL))
        return out

    def check(self, outcomes: list[Outcome]) -> list[int]:
        """A model's pass fails when the model fails a fixed check (a
        fixture's stored log-likelihood on the check series, or the
        embedding's per-step match with the GARCH filter) or its
        log-likelihood misses the model's held-out reference. A raising call
        fails every pass."""
        refs = self._references()
        failed = []
        for o in outcomes:
            if o.error is not None:
                failed.append(self.units)
                continue
            failed.append(sum(int(not ok or not abs(value - ref) <= tol * abs(ref))
                              for (ok, ref, tol), value in zip(refs, o.value)))
        return failed

    def work(self, o: Outcome) -> Work:
        t_len = len(self.series)
        return Work(runs=1, obs=self.units * t_len, obs_epochs=self.units * t_len,
                    latencies=[o.wall])


WORKLOADS = {w.name: w for w in (Fit, Sweep, Score)}


def attempt(workload, index: int, variant: str, tracer=None) -> Outcome:
    """Run one call; an exception makes it a failed call, not the end of the run."""
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        try:
            value, error = workload.run(index, variant), None
        except Exception:  # noqa: BLE001 - any raise from the library is a failed call
            value, error = None, traceback.format_exc()
        return Outcome(index, variant, tracer is not None, time.perf_counter() - start,
                       value, error)
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure(workload, seconds: float, trace: bool, tracer=None) -> tuple[list[Outcome], float]:
    """Closed loop: each call starts when the previous one returns. The loop
    runs the number of whole cycles whose total comes closest to
    ``seconds``: it starts another cycle only if one as long as the last
    would end less than half a cycle past ``seconds``. Traced runs go
    through the workload's whole trace cycle each time, so traced and
    untraced calls see the same inputs."""
    cycle = workload.trace_cycle if trace else workload.trace_cycle[:1]
    outcomes = []
    start = time.perf_counter()
    index = 0
    while True:
        cycle_start = time.perf_counter()
        for variant, traced in cycle:
            outcomes.append(attempt(workload, index, variant, tracer if traced else None))
        index += 1
        now = time.perf_counter()
        if now - start + (now - cycle_start) / 2 >= seconds:
            return outcomes, now - start
