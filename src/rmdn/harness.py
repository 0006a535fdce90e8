"""Multi-seed benchmark orchestration, model persistence, report rendering.

A benchmark runs three method arms per series: ``pretrained`` (zero-start
tanh nodes, masked gradients for the pretraining phase, then full training),
``plain`` (random initialization, full training only) and ``garch`` (the
maximum-likelihood baseline, fit once per series). Every (series, seed,
method) run draws its initialization from an independent stream derived by
hashing that tuple together with the meta seed, so arms never share
randomness by accident.

Divergence is a recorded outcome: runs that end in NaN or an unreasonable
log-likelihood are counted as NotConverged, and per-method averages use
converged runs only. Rendered reports contain no wall-clock data, so a
benchmark rerun with the same meta seed (at any worker count) reproduces
them byte for byte; both formats read one table per series and method.
A model file's ``params`` and ``state`` hold the fields of ``RmdnParams``
and ``RecurrentState``, each read back by ``_float_array``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .data import sample_seeds
from .garch import GarchFitError, GarchParams, fit_garch
from .gradients import nonlinear_node_mask
from .network import (ELU_EPS, RecurrentState, RmdnConfig, RmdnParams,
                      init_params, param_layout)
from .optim import CONVERGED, TrainSchedule, classify_convergence, train

METHOD_PRETRAINED = "pretrained"
METHOD_PLAIN = "plain"
METHOD_GARCH = "garch"
RMDN_METHODS = (METHOD_PRETRAINED, METHOD_PLAIN)
ALL_METHODS = (METHOD_PRETRAINED, METHOD_PLAIN, METHOD_GARCH)

MODEL_SCHEMA_VERSION = 1
# the variance unit as model files record it: elu's alpha and the offset eps
_FILE_UNIT = {"elu_alpha": 1.0, "elu_eps": ELU_EPS}


class ModelFileError(ValueError):
    """Raised when a model file is missing, malformed, or inconsistent."""


@dataclass
class RunRecord:
    """One training (or fitting) outcome."""

    series: str
    method: str
    seed: int | None
    loglik: float
    status: str
    epochs: int
    wall_time: float


@dataclass
class BenchmarkReport:
    """All run records plus the configuration that produced them."""

    records: list[RunRecord]
    config_echo: dict

    def series_names(self) -> list[str]:
        return sorted({r.series for r in self.records})

    def select(self, series: str, method: str) -> list[RunRecord]:
        return [r for r in self.records if r.series == series and r.method == method]

    def counts(self, series: str, method: str) -> tuple[int, int]:
        """(not converged, converged) run counts."""
        runs = self.select(series, method)
        conv = sum(1 for r in runs if r.status == CONVERGED)
        return len(runs) - conv, conv

    def average_loglik(self, series: str, method: str) -> float | None:
        """Mean log-likelihood over converged runs; None when there are none."""
        vals = [r.loglik for r in self.select(series, method) if r.status == CONVERGED]
        if not vals:
            return None
        return float(np.mean(vals))


def derive_run_seed(meta_seed: int, series_name: str, seed: int, method: str) -> int:
    """Stable per-run stream: hash of (meta seed, series, seed, method)."""
    key = f"{meta_seed}|{series_name}|{seed}|{method}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:4], "big")


def arm_setup(method: str, config: RmdnConfig, schedule: TrainSchedule, seed: int
              ) -> tuple[RmdnParams, np.ndarray | None, TrainSchedule]:
    """Initial parameters, gradient mask and schedule of one RMDN arm.

    ``pretrained`` starts its tanh nodes at zero and masks them for the
    pretraining epochs; ``plain`` starts every node at random and skips
    pretraining.
    """
    if method == METHOD_PRETRAINED:
        return init_params(config, seed, "pretrain"), nonlinear_node_mask(config), schedule
    return init_params(config, seed, "plain"), None, replace(schedule, pretrain_epochs=0)


def _run_task(task) -> RunRecord:
    series, config, schedule, meta_seed, seed, method = task
    start = time.perf_counter()
    if method == METHOD_GARCH:
        try:
            _, loglik = fit_garch(series)
        except (GarchFitError, ValueError):
            # an unfittable series (constant, too short) is a NotConverged record
            loglik = math.nan
        return RunRecord(series.name, method, None, float(loglik),
                         classify_convergence(loglik), 0,
                         time.perf_counter() - start)

    params, mask, run_schedule = arm_setup(
        method, config, schedule, derive_run_seed(meta_seed, series.name, seed, method))
    report = train(series, params, config, run_schedule, mask=mask)
    return RunRecord(series.name, method, seed, report.final_loglik, report.status,
                     report.epochs_completed, time.perf_counter() - start)


def run_benchmark(series_list, n_seeds: int, config: RmdnConfig | None = None,
                  schedule: TrainSchedule | None = None, meta_seed: int = 0,
                  workers: int = 1) -> BenchmarkReport:
    """Run all three arms over every series.

    Seeds are sampled from [0, 50000] using the meta seed; the report is
    deterministic given (series, n_seeds, config, schedule, meta_seed) and
    independent of the worker count.
    """
    if not series_list:
        raise ValueError("need at least one series")
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    names = [series.name for series in series_list]
    if len(set(names)) < len(names):  # their runs would share seeds and one report row
        raise ValueError(f"two series are named {max(names, key=names.count)!r}; rename one")
    config = config or RmdnConfig()
    schedule = schedule or TrainSchedule()
    seeds = sample_seeds(n_seeds, 0, 50000, meta_seed=meta_seed)

    tasks = []
    for series in series_list:
        tasks.append((series, config, schedule, meta_seed, 0, METHOD_GARCH))
        for seed in seeds:
            for method in RMDN_METHODS:
                tasks.append((series, config, schedule, meta_seed, seed, method))

    if workers <= 1:
        records = [_run_task(t) for t in tasks]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(_run_task, tasks))

    records.sort(key=lambda r: (r.series, r.method, -1 if r.seed is None else r.seed))
    echo = {**asdict(config), **asdict(schedule), "meta_seed": meta_seed, "seeds": seeds}
    return BenchmarkReport(records, echo)


def _write_model_file(path, **sections) -> None:
    """Write a schema-versioned JSON model file; floats keep full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"schema_version": MODEL_SCHEMA_VERSION, **sections}, fh, indent=1)
        fh.write("\n")


def save_model(params: RmdnParams, config: RmdnConfig, state: RecurrentState,
               path) -> None:
    """Write an RMDN model file: config, parameters and recurrent state, the
    last two as JSON numbers and lists by field name."""
    _write_model_file(path, config={**asdict(config), **_FILE_UNIT}, **{
        section: {f.name: np.asarray(getattr(obj, f.name)).tolist() for f in fields(obj)}
        for section, obj in (("params", params), ("state", state))})


def save_garch_model(params: GarchParams, loglik: float, path) -> None:
    """Write a GARCH model file: the five coefficients and the log-likelihood."""
    _write_model_file(path, model="garch", params=asdict(params), loglik=loglik)


def _section(path, payload: dict, name: str) -> dict:
    """The model file's JSON object under ``name``."""
    if name not in payload:
        raise ModelFileError(f"{path}: missing field {name!r}")
    if not isinstance(payload[name], dict):
        raise ModelFileError(f"{path}: field {name!r} must be a JSON object")
    return payload[name]


def _float_array(path, section: str, entries: dict, key: str,
                 shape: tuple[int, ...]) -> np.ndarray:
    """The entry ``key`` of the model file's ``section``: a JSON number, or
    nested lists of numbers, as a float array of ``shape``."""
    name = f"{section}.{key}"
    if key not in entries:
        raise ModelFileError(f"{path}: missing field {name}")
    try:
        raw = np.asarray(entries[key])
        numeric = raw.dtype.kind in "iuf"  # not bool, str or a mix holding null
    except ValueError:  # ragged lists
        numeric = False
    if not numeric:
        raise ModelFileError(f"{path}: {name} must hold only numbers")
    if raw.shape != shape:
        raise ModelFileError(
            f"{path}: shape mismatch for {name}: file has {raw.shape}, needs {shape}")
    return raw.astype(float)


def load_model(path) -> tuple[RmdnParams, RmdnConfig, RecurrentState]:
    """Read a model file back; round-trips every parameter bit-exactly.

    A file that is malformed, or that records a variance unit other than
    the fixed one, raises ``ModelFileError`` naming the field.
    """
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # JSON is UTF-8
            raise ModelFileError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ModelFileError(f"{path}: a model file is a JSON object")

    version = payload.get("schema_version")
    if isinstance(version, bool) or version != MODEL_SCHEMA_VERSION:  # True == 1
        raise ModelFileError(
            f"{path}: unsupported schema_version {version!r} (expected {MODEL_SCHEMA_VERSION})"
        )
    cfg, params_in, st = (_section(path, payload, name) for name in ("config", "params", "state"))
    keys = [f.name for f in fields(RmdnConfig)]
    for key in (*keys, *_FILE_UNIT):
        if key not in cfg:
            raise ModelFileError(f"{path}: missing field config.{key}")
    for key, fixed in _FILE_UNIT.items():
        if isinstance(cfg[key], bool) or cfg[key] != fixed:
            raise ModelFileError(
                f"{path}: config.{key} is {cfg[key]!r}; the variance unit is fixed at {fixed!r}")
    try:
        config = RmdnConfig(**{key: cfg[key] for key in keys})
    except ValueError as exc:  # its message starts with the field's name
        raise ModelFileError(f"{path}: config.{exc}") from None

    layout = param_layout(config.n_components, config.k_hidden)
    params = RmdnParams(*(_float_array(path, "params", params_in, f.name, shape)
                          for f, shape in zip(fields(RmdnParams), layout.shapes)))
    shapes = {"sigma2_prev": (config.n_components,), "e2_prev": ()}
    state = RecurrentState(**{f.name: _float_array(path, "state", st, f.name, shapes[f.name])
                              for f in fields(RecurrentState)})
    # NaN is data (a diverged model's state), so only a number out of range is refused
    if np.any(state.sigma2_prev <= 0):
        raise ModelFileError(f"{path}: state.sigma2_prev must hold positive variances")
    if state.e2_prev < 0:
        raise ModelFileError(f"{path}: state.e2_prev must not be negative")
    return params, config, state


def _cell(value, spec: str = "") -> str:
    """A report cell: ``value`` formatted by ``spec``, or n/a for None."""
    return "n/a" if value is None else format(value, spec)


def _row(label: str, cells, widths, spec: str = "") -> str:
    """A text-report row: the label in 20 columns, each cell right-aligned."""
    return f"{label:<20}" + "".join(f"{_cell(c, spec):>{w}}" for c, w in zip(cells, widths))


def render_report(report: BenchmarkReport, format: str = "text") -> str:
    """Render the benchmark as a human-readable text table pair or as CSV,
    both from one table: (not converged, converged, average log-likelihood
    or None) per series and method."""
    if format not in ("text", "csv"):
        raise ValueError(f"unknown report format {format!r}")
    names = report.series_names()
    table = {(series, method): (*report.counts(series, method),
                                report.average_loglik(series, method))
             for series in names for method in ALL_METHODS}
    if format == "csv":
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(  # quotes a name holding , or "
            [("series", "method", "n_runs", "n_not_converged", "n_converged", "avg_loglik"),
             *(map(_cell, (series, method, nc + c, nc, c, avg))
               for (series, method), (nc, c, avg) in table.items())])
        return out.getvalue()

    counts = {series: (*table[series, METHOD_PLAIN][:2], *table[series, METHOD_PRETRAINED][:2])
              for series in names}
    total = [sum(row[i] for row in counts.values()) for i in range(4)]
    wholes = [sum(total[:2])] * 2 + [sum(total[2:])] * 2  # runs per arm
    shares = [f"{100.0 * part / whole:.0f}%" if whole else None
              for part, whole in zip(total, wholes)]
    echo, arms = report.config_echo, (METHOD_GARCH, METHOD_PRETRAINED, METHOD_PLAIN)
    count_w, avg_w = (14, 12, 16, 12), (14, 14, 14)  # column widths after the series label
    lines = [
        "configuration: "
        + " ".join(f"{k}={echo[k]}" for k in ("n_components", "k_hidden", "learning_rate",
                                              "pretrain_epochs", "train_epochs", "meta_seed")),
        f"seeds: {echo['seeds']}",
        "",
        "In-sample convergence counts",
        _row("series", (METHOD_PLAIN, "", METHOD_PRETRAINED, ""), count_w),
        _row("", ("NotConverged", "Converged") * 2, count_w),
        *(_row(series, row, count_w) for series, row in counts.items()),
        _row("Total", total, count_w),
        _row("Total%", shares, count_w),
        "",
        "Average log-likelihood over converged runs",
        _row("series", arms, avg_w),
        *(_row(series, [table[series, m][2] for m in arms], avg_w, ".2f") for series in names),
        "",
        "averages use converged runs only; n/a = no converged runs",
    ]
    return "\n".join(lines) + "\n"
