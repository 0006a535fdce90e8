"""Command-line interface: simulate, fit, benchmark, gradcheck.

Exit codes: 0 for success (a training run that diverges is still a
successful experiment), 1 for a failed verification (gradcheck), 2 for
usage or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import (ParseError, ReturnSeries, TwoRegimeSpec, load_csv,
                   simulate_mixture_process, write_csv)
from .garch import GarchFitError, GarchParams, fit_garch, simulate_garch
from .gradients import finite_diff_check
from .harness import (METHOD_PLAIN, METHOD_PRETRAINED, ModelFileError, arm_setup,
                      render_report, run_benchmark, save_garch_model, save_model)
from .network import RmdnConfig, init_params, initial_state, unroll
from .optim import TrainSchedule, classify_convergence, train


def _add_model_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--components", type=int, default=2,
                        help="mixture components N (default: 2)")
    parser.add_argument("--hidden", type=int, default=3,
                        help="hidden nodes per subnetwork K (default: 3)")


def _add_schedule_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pretrain-epochs", type=int, default=20,
                        help="masked linear-only epochs before full training (default: 20)")
    parser.add_argument("--epochs", type=int, default=300,
                        help="full training epochs (default: 300)")
    parser.add_argument("--lr", type=float, default=0.01,
                        help="Adam learning rate (default: 0.01)")


def _add_column_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--value-column", default="return",
                        help="CSV column holding returns (default: return)")
    parser.add_argument("--label-column", default=None,
                        help="optional CSV column holding date labels")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmdn",
        description="Mixture density forecasting of return series with a GARCH baseline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="write a simulated return series to CSV")
    sim_sub = sim.add_subparsers(dest="process", required=True)

    sim_garch = sim_sub.add_parser("garch", help="AR(1)-GARCH(1,1) sample path")
    sim_garch.add_argument("--a0", type=float, default=0.0, help="mean intercept (default: 0)")
    sim_garch.add_argument("--a1", type=float, default=0.0, help="AR coefficient (default: 0)")
    sim_garch.add_argument("--alpha0", type=float, required=True, help="variance intercept")
    sim_garch.add_argument("--alpha1", type=float, required=True, help="squared-shock loading")
    sim_garch.add_argument("--beta1", type=float, required=True, help="variance persistence")
    sim_garch.add_argument("-T", "--length", type=int, required=True, help="observations")
    sim_garch.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    sim_garch.add_argument("-o", "--out", required=True, help="output CSV path")
    sim_garch.set_defaults(func=_cmd_simulate_garch)

    sim_mix = sim_sub.add_parser("mixture", help="two-regime Gaussian sample path")
    sim_mix.add_argument("--mu1", type=float, default=0.0, help="regime 1 mean (default: 0)")
    sim_mix.add_argument("--var1", type=float, default=1.0, help="regime 1 variance (default: 1)")
    sim_mix.add_argument("--mu2", type=float, default=0.0, help="regime 2 mean (default: 0)")
    sim_mix.add_argument("--var2", type=float, default=4.0, help="regime 2 variance (default: 4)")
    sim_mix.add_argument("--weight1", type=float, default=0.5,
                         help="stationary probability of regime 1 (default: 0.5)")
    sim_mix.add_argument("--switch-prob", type=float, default=1.0,
                         help="per-step regime redraw probability; 1 = i.i.d. (default: 1.0)")
    sim_mix.add_argument("-T", "--length", type=int, required=True, help="observations")
    sim_mix.add_argument("--seed", type=int, default=0, help="RNG seed (default: 0)")
    sim_mix.add_argument("-o", "--out", required=True, help="output CSV path")
    sim_mix.set_defaults(func=_cmd_simulate_mixture)

    fit = sub.add_parser("fit", help="fit one model to one series")
    fit.add_argument("data", help="input CSV path")
    fit.add_argument("--model", choices=("garch", "rmdn"), required=True)
    _add_column_flags(fit)
    _add_model_flags(fit)
    _add_schedule_flags(fit)
    fit.add_argument("--seed", type=int, default=0,
                     help="initialization seed for the mixture network (default: 0)")
    fit.add_argument("--save", default=None, help="write the fitted model to this path")
    fit.set_defaults(func=_cmd_fit)

    bench = sub.add_parser("benchmark", help="multi-seed convergence and likelihood comparison")
    bench.add_argument("data", nargs="+", help="input CSV paths")
    _add_column_flags(bench)
    _add_model_flags(bench)
    _add_schedule_flags(bench)
    bench.add_argument("--seeds", type=int, default=10,
                       help="training runs per arm, seeds sampled from [0, 50000] (default: 10)")
    bench.add_argument("--meta-seed", type=int, default=0,
                       help="seed for sampling the run seeds (default: 0)")
    bench.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (default: 1)")
    bench.add_argument("--out", default="benchmark_report",
                       help="output path prefix for .txt and .csv reports "
                            "(default: benchmark_report)")
    bench.set_defaults(func=_cmd_benchmark)

    grad = sub.add_parser("gradcheck",
                          help="verify analytic gradients against finite differences")
    grad.add_argument("--tol", type=float, default=1e-5,
                      help="max allowed relative deviation (default: 1e-5)")
    _add_model_flags(grad)
    grad.add_argument("-T", "--length", type=int, default=20,
                      help="length of the probe series (default: 20)")
    grad.add_argument("--seed", type=int, default=0, help="probe seed (default: 0)")
    grad.set_defaults(func=_cmd_gradcheck)

    return parser


def _cmd_simulate_garch(args) -> int:
    params = GarchParams(args.a0, args.a1, args.alpha0, args.alpha1, args.beta1)
    series = simulate_garch(params, args.length, args.seed)
    write_csv(series, args.out)
    print(f"wrote {len(series)} returns to {args.out}")
    return 0


def _cmd_simulate_mixture(args) -> int:
    spec = TwoRegimeSpec(args.mu1, args.var1, args.mu2, args.var2,
                         args.weight1, args.switch_prob)
    series = simulate_mixture_process(spec, args.length, args.seed)
    write_csv(series, args.out)
    print(f"wrote {len(series)} returns to {args.out}")
    return 0


def _load_series(path, args) -> ReturnSeries:
    return load_csv(path, value_column=args.value_column, label_column=args.label_column)


def _cmd_fit(args) -> int:
    series = _load_series(args.data, args)
    if args.model == "garch":
        params, loglik = fit_garch(series)
        print(
            f"garch fit on {series.name}: a0={params.a0:.6g} a1={params.a1:.6g} "
            f"alpha0={params.alpha0:.6g} alpha1={params.alpha1:.6g} "
            f"beta1={params.beta1:.6g} loglik={loglik:.4f} "
            f"status={classify_convergence(loglik)}"
        )
        if args.save:
            save_garch_model(params, loglik, args.save)
            print(f"model written to {args.save}")
        return 0

    config = RmdnConfig(args.components, args.hidden)
    method = METHOD_PRETRAINED if args.pretrain_epochs > 0 else METHOD_PLAIN
    params, mask, schedule = arm_setup(
        method, config, TrainSchedule(args.pretrain_epochs, args.epochs, args.lr), args.seed)
    report = train(series, params, config, schedule, mask=mask)
    print(
        f"rmdn fit on {series.name}: loglik={report.final_loglik:.4f} "
        f"status={report.status} epochs={report.epochs_completed}"
    )
    if args.save:
        _, final_state = unroll(series, report.final_params, config,
                                initial_state(series, config))
        save_model(report.final_params, config, final_state, args.save)
        print(f"model written to {args.save}")
    return 0


def _cmd_benchmark(args) -> int:
    series_list = [_load_series(path, args) for path in args.data]
    config = RmdnConfig(args.components, args.hidden)
    schedule = TrainSchedule(args.pretrain_epochs, args.epochs, args.lr)
    report = run_benchmark(series_list, args.seeds, config, schedule,
                           meta_seed=args.meta_seed, workers=args.workers)
    text = render_report(report, "text")
    csv_text = render_report(report, "csv")
    Path(f"{args.out}.txt").write_text(text, encoding="utf-8")
    Path(f"{args.out}.csv").write_text(csv_text, encoding="utf-8")
    print(text, end="")
    print(f"reports written to {args.out}.txt and {args.out}.csv")
    return 0


def _cmd_gradcheck(args) -> int:
    config = RmdnConfig(args.components, args.hidden)
    params = init_params(config, args.seed, "plain")
    probe = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
    series = simulate_garch(probe, args.length, args.seed)
    init = initial_state(series, config)
    report = finite_diff_check(series, params, config, init, tol=args.tol)
    max_dev = report.max_deviation
    if report.passed:
        print(f"gradcheck PASS: max deviation {max_dev:.3e} <= tol {args.tol:.1e}")
        return 0
    print(f"gradcheck FAIL: max deviation {max_dev:.3e} > tol {args.tol:.1e}")
    return 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, ModelFileError, GarchFitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
