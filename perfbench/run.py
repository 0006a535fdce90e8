"""Benchmark for rmdn: one workload per run, closed loop, checked outputs.

    python3 perfbench/run.py --workload fit|sweep|score --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/``. ``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs a
separate traced cycle and prints the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, with the environment, goes to
``perfbench/out/``. ``--smoke`` shrinks every input for the self-test and
``--holdout`` draws the inputs from a second seed stream, kept for
validating claims. See README.md in this directory for the metrics.
"""

import os

# BLAS and OpenMP pools are sized when numpy is first imported, so pin them
# here, before any import of numpy; processes started from here inherit it,
# which bounds the thread count by workers <= nproc.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LayerTotals, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

SETUP_PROBES = {False: 3, True: 2}  # by --smoke


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fit", "sweep", "score"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for the benchmark's self-test")
    parser.add_argument("--holdout", action="store_true",
                        help="draw inputs from the held-out seed stream")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def upper_quartile(values) -> float:
    """The 75th percentile, interpolated between samples."""
    xs = list(values)
    if len(xs) < 2:
        return float(xs[0]) if xs else 0.0
    return float(statistics.quantiles(xs, n=4, method="inclusive")[2])


def tail(values) -> tuple[int, float, int]:
    """The highest whole percentile with at least ten samples beyond it, its
    nearest-rank value and the sample count. Below 40 samples that
    percentile falls under the upper quartile, which is reported as p75."""
    xs = sorted(values)
    n = len(xs)
    if n < 40:
        return 75, upper_quartile(xs), n
    p = 100 * (n - 10) // n
    return p, xs[-(-p * n // 100) - 1], n


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest child, in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def environment() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rmdn").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def setup_probe_seconds(args) -> list[float]:
    """Set-up time of fresh processes: from the start of the interpreter to
    the point where the first timed call would begin."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--probe-setup"]
    cmd += ["--smoke"] * args.smoke + ["--holdout"] * args.holdout
    times = []
    for _ in range(SETUP_PROBES[args.smoke]):
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def end_to_end(outcomes, works, setup_s: list[float], rss_mb: float, notes: dict) -> dict:
    """Every call of a workload does the same work, so the rates are one
    call's work over the upper quartile of the call wall times. Where a call
    reports its epoch times (``fit``), each call's wall time first has every
    epoch's time replaced by the upper quartile of all epoch times."""
    done = [(o, w) for o, w in zip(outcomes, works) if w is not None]
    epoch_s = [x for _, w in done for x in w.epoch_s]
    if epoch_s:
        epoch_q3 = upper_quartile(epoch_s)
        walls = [o.wall - sum(w.epoch_s) + len(w.epoch_s) * epoch_q3 for o, w in done]
        latencies = walls
        notes["obs_epochs_per_s"] = (f"epoch time p75 {epoch_q3!r} s of {len(epoch_s)} "
                                     f"epochs; calls {[o.wall for o, _ in done]} s")
    else:
        walls = [o.wall for o, _ in done]
        latencies = [x for _, w in done for x in w.latencies]
        notes["obs_epochs_per_s"] = f"call time p75 of {len(walls)} calls: {walls} s"
    call_s = upper_quartile(walls)

    def rate(attr: str) -> float:
        return ratio(sum(getattr(w, attr) for _, w in done), len(done) * call_s)

    pct, tail_s, n = tail(latencies)
    notes["run_s.tail"] = f"p{pct} of {n} runs"
    notes["run_s.p75"] = f"upper quartile of {n} runs"
    notes["setup_s"] = f"median of {len(setup_s)} fresh processes: {setup_s}"
    return {
        "setup_s": (median(setup_s), "s"),
        "obs_epochs_per_s": (rate("obs_epochs"), "1/s"),
        "obs_per_s": (rate("obs"), "1/s"),
        "run_s.p75": (upper_quartile(latencies), "s"),
        "run_s.tail": (tail_s, "s"),
        "runs_per_s": (rate("runs"), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(workload, outcomes, works, tracer, notes: dict) -> dict:
    totals = tracer.totals()

    def layer(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def per_obs_us(name: str) -> float:
        return 1e6 * ratio(layer(name).self_s, layer(name).obs)

    def per_call_us(name: str) -> float:
        return 1e6 * ratio(layer(name).total_s, layer(name).calls)

    # the untraced calls that the traced ones are compared with share their
    # setting: the last untraced variant of the cycle
    same = [v for v, traced in workload.trace_cycle if not traced][-1]
    traced_s = sum(o.wall for o in outcomes if o.traced)
    untraced_s = sum(o.wall for o in outcomes if not o.traced and o.variant == same)
    pool = [(o, w) for o, w in zip(outcomes, works)
            if w is not None and o.variant == "pool"]
    eff_num = sum(w.run_wall_s for _, w in pool)
    eff_den = sum(workload.workers * o.wall for o, _ in pool)

    done = [w for w in works if w is not None]
    epochs = sum(w.epochs_completed for w in done), sum(w.epochs_planned for w in done)
    arms = {}
    for w in done:
        for arm, (conv, runs) in w.converged.items():
            arms.setdefault(arm, [0, 0])
            arms[arm][0] += conv
            arms[arm][1] += runs
    pre = arms.get("pretrained", [0, 0])
    plain = arms.get("plain", [0, 0])
    notes["tracing.overhead_frac"] = f"{traced_s:.3f} s traced vs {untraced_s:.3f} s untraced"
    notes["harness.parallel_eff"] = f"{eff_num:.3f} run-seconds over {eff_den:.3f} worker-seconds"
    notes["optim.train.epochs_completed_frac"] = f"{epochs[0]} of {epochs[1]} epochs"
    notes["harness.converged_frac.pretrained"] = f"{pre[0]} of {pre[1]} runs"
    notes["harness.converged_frac.plain"] = f"{plain[0]} of {plain[1]} runs"

    fwd, grad = layer("network.forward_pass"), layer("gradients.gradient")
    return {
        "network.forward_pass.calls": (fwd.calls, "count"),
        "network.forward_pass.obs": (fwd.obs, "count"),
        "network.forward_pass.self_s": (fwd.self_s, "s"),
        "network.forward_pass.us_per_obs": (per_obs_us("network.forward_pass"), "us"),
        "gradients.gradient.calls": (grad.calls, "count"),
        "gradients.gradient.self_s": (grad.self_s, "s"),
        "gradients.gradient.us_per_obs": (per_obs_us("gradients.gradient"), "us"),
        "network.unroll.self_s": (layer("network.unroll").self_s, "s"),
        "mixture.nll.self_s": (layer("mixture.nll").self_s, "s"),
        "mixture.nll.us_per_obs": (per_obs_us("mixture.nll"), "us"),
        "mixture.nll_arrays.us_per_obs": (per_obs_us("mixture.nll_arrays"), "us"),
        "optim.adam_step.us_per_call": (per_call_us("optim.adam_step"), "us"),
        "gradients.flatten_params.us_per_call": (per_call_us("gradients.flatten_params"), "us"),
        "gradients.unflatten_params.us_per_call":
            (per_call_us("gradients.unflatten_params"), "us"),
        "gradients.apply_mask.us_per_call": (per_call_us("gradients.apply_mask"), "us"),
        "optim.train.self_s": (layer("optim.train").self_s, "s"),
        "garch.fit_garch.calls": (layer("garch.fit_garch").calls, "count"),
        "garch.fit_garch.s_per_call":
            (ratio(layer("garch.fit_garch").total_s, layer("garch.fit_garch").calls), "s"),
        "harness.run_benchmark.self_s": (layer("harness.run_benchmark").self_s, "s"),
        "harness.parallel_eff": (ratio(eff_num, eff_den), "ratio"),
        "garch.simulate_garch.s": (layer("garch.simulate_garch").total_s, "s"),
        "data.simulate_mixture_process.s":
            (layer("data.simulate_mixture_process").total_s, "s"),
        "data.sample_seeds.s": (layer("data.sample_seeds").total_s, "s"),
        "harness.load_model.s": (layer("harness.load_model").total_s, "s"),
        "tracing.overhead_frac": (ratio(traced_s, untraced_s) - 1.0 if untraced_s else 0.0,
                                  "ratio"),
        "optim.train.epochs_completed_frac": (ratio(*epochs), "ratio"),
        "harness.converged_frac.pretrained": (ratio(*pre), "ratio"),
        "harness.converged_frac.plain": (ratio(*plain), "ratio"),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rmdn" / "__init__.py").is_file():
        print(f"error: no rmdn source tree under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rmdn
    import workloads

    if Path(rmdn.__file__).resolve().parent != SRC / "rmdn":
        print(f"error: imported rmdn from {rmdn.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    cls = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        workload = cls.from_seed(args.seed, args.holdout, sizes)
    finally:
        if tracer is not None:
            tracer.uninstall()
    workload.warm_up()
    if args.probe_setup:
        print(f"ready {time.monotonic()!r}")
        return 0

    outcomes, wall = workloads.measure(workload, args.seconds, bool(args.trace), tracer)
    rss_mb = peak_rss_mb()
    failed = workload.check(outcomes)
    works = [workload.work(o) if o.error is None else None for o in outcomes]
    attempted = workload.units * len(outcomes)
    n_failed = sum(failed)

    notes = {"failed_frac": f"{n_failed / attempted!r} ({n_failed} of {attempted} operations)"}
    if args.trace:
        metrics = per_layer(workload, outcomes, works, tracer, notes)
    else:
        metrics = end_to_end(outcomes, works, setup_probe_seconds(args), rss_mb, notes)

    result = {
        "correct": n_failed == 0, "attempted": attempted, "failed": n_failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    env = environment()
    errors = [o.error for o in outcomes if o.error is not None]
    stem = (f"{args.workload}-seed{args.seed}{'-holdout' * args.holdout}"
            f"{'-smoke' * args.smoke}-trace{args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "args": vars(args), "env": env, "wall_s": wall,
        "calls": [{"index": o.index, "variant": o.variant, "traced": o.traced,
                   "wall_s": o.wall, "failed": f} for o, f in zip(outcomes, failed)],
        **result, "notes": notes, "errors": errors[:5],
    }
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}-spans.jsonl")

    for error in errors[:1]:
        print(f"first failed call:\n{error}", file=sys.stderr)
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload={args.workload} seed={args.seed} holdout={args.holdout} "
          f"calls={len(outcomes)} wall_s={wall!r}")
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {value!r} {unit}{note}")
    print(f"failed_frac = {notes['failed_frac']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
