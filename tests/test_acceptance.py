"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. The expensive criteria (3 and 4) train 10 seeds at
the full 20 + 300 epoch schedule and take several seconds each.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from rmdn.data import TwoRegimeSpec, sample_seeds, simulate_mixture_process
from rmdn.garch import GarchParams, fit_garch, garch_filter, garch_nll, simulate_garch
from rmdn.gradients import (finite_diff_check, flatten_params,
                            nonlinear_node_mask)
from rmdn.harness import render_report, run_benchmark
from rmdn.mixture import MixtureStep, log_density, logsumexp, nll
from rmdn.network import (RmdnConfig, init_params, initial_state,
                          params_from_garch, positive_elu, unroll)
from rmdn.optim import CONVERGED, TrainSchedule, train


@contextmanager
def criterion(number, title):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\ncriterion {number} [{title}]: FAIL ({time.perf_counter() - start:.1f}s)")
        raise
    print(f"\ncriterion {number} [{title}]: PASS ({time.perf_counter() - start:.1f}s)")


def test_criterion_1_nesting_equivalence():
    """50 random stationary GARCH models, T=500: the single-component
    linear-only network under the embedding matches the GARCH filter to
    1e-10 per step and the log-likelihood to 1e-8 relative."""
    with criterion(1, "nesting equivalence"):
        start = time.perf_counter()
        rng = np.random.default_rng(1234)
        config = RmdnConfig(n_components=1, k_hidden=3)
        for _ in range(50):
            # alpha0 > 1 + eps keeps every variance pre-activation positive
            gp = GarchParams(
                float(rng.normal(0.0, 0.2)), float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(1.2, 3.0)), float(rng.uniform(0.02, 0.25)),
                float(rng.uniform(0.3, 0.7)),
            )
            series = simulate_garch(gp, 500, seed=int(rng.integers(100000)))
            mu_g, s2_g = garch_filter(series, gp)
            steps, _ = unroll(series, params_from_garch(gp, config), config,
                              initial_state(series, config))
            mu_r = np.array([s.mu[0] for s in steps])
            s2_r = np.array([s.sigma2[0] for s in steps])
            assert np.max(np.abs(mu_r - mu_g)) <= 1e-10
            assert np.max(np.abs(s2_r - s2_g)) <= 1e-10
            ll_g = -garch_nll(series, gp)
            ll_r = -nll(series, steps)
            assert abs(ll_r - ll_g) <= 1e-8 * abs(ll_g)
        assert time.perf_counter() - start < 30.0


def test_criterion_2_gradient_correctness():
    """finite_diff_check passes at tol 1e-5 for 20 random configurations
    spanning N, K in {1, 2, 3} at T=20."""
    with criterion(2, "gradient correctness"):
        start = time.perf_counter()
        probe = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        rng = np.random.default_rng(20240901)
        for i in range(20):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            scheme = "plain" if i % 4 else "pretrain"
            config = RmdnConfig(n_components=n, k_hidden=k)
            series = simulate_garch(probe, 20, seed=int(rng.integers(100000)))
            params = init_params(config, int(rng.integers(100000)), scheme)
            report = finite_diff_check(series, params, config,
                                       initial_state(series, config), tol=1e-5)
            assert report.passed, (
                f"config {i} (N={n}, K={k}, {scheme}): "
                f"max deviation {report.max_deviation:.2e}"
            )
        assert time.perf_counter() - start < 60.0


def test_criterion_3_pretraining_robustness():
    """Simulated GARCH data (alpha0=0.05, alpha1=0.10, beta1=0.85, T=1000),
    10 seeds: every pretrained run converges (no NaN, loglik > -100000)."""
    with criterion(3, "pretraining robustness 10/10"):
        start = time.perf_counter()
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        series = simulate_garch(gp, 1000, seed=11)
        config = RmdnConfig()
        schedule = TrainSchedule()  # 20 masked + 300 full epochs, lr 0.01
        mask = nonlinear_node_mask(config)
        statuses = []
        for seed in sample_seeds(10, 0, 50000, meta_seed=42):
            params = init_params(config, seed, "pretrain")
            report = train(series, params, config, schedule, mask=mask)
            statuses.append(report.status)
            assert not math.isnan(report.final_loglik)
            assert report.final_loglik > -100000.0
        assert statuses.count(CONVERGED) == 10
        assert time.perf_counter() - start < 600.0


def test_criterion_4_mixture_dominance_over_garch():
    """Two-regime data (T=1000, N(0, 0.5^2) and N(0, 2^2), switch prob 0.05):
    at least 8 of 10 pretrained seeds reach the GARCH MLE likelihood, and the
    arm average strictly exceeds it."""
    with criterion(4, "mixture beats GARCH"):
        start = time.perf_counter()
        spec = TwoRegimeSpec(mu1=0.0, var1=0.25, mu2=0.0, var2=4.0,
                             weight1=0.5, switch_prob=0.05)
        series = simulate_mixture_process(spec, 1000, seed=42)
        _, garch_ll = fit_garch(series)
        config = RmdnConfig()
        schedule = TrainSchedule()
        mask = nonlinear_node_mask(config)
        logliks = []
        for seed in sample_seeds(10, 0, 50000, meta_seed=42):
            params = init_params(config, seed, "pretrain")
            report = train(series, params, config, schedule, mask=mask)
            assert report.status == CONVERGED
            logliks.append(report.final_loglik)
        beat = sum(1 for ll in logliks if ll >= garch_ll)
        average = float(np.mean(logliks))
        assert beat >= 8, f"only {beat}/10 seeds reached the GARCH likelihood"
        assert average > garch_ll
        assert average >= garch_ll - 1.0
        assert time.perf_counter() - start < 600.0


def test_criterion_5_pretraining_phase_exactness():
    """Masked parameters are bit-identical before and after every pretrain
    epoch, and the masked-phase loss trace equals a structurally linear
    model's trace within 1e-12 per epoch."""
    with criterion(5, "pretraining-phase exactness"):
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        series = simulate_garch(gp, 500, seed=7)
        cfg_full = RmdnConfig(n_components=2, k_hidden=3)
        cfg_linear = RmdnConfig(n_components=2, k_hidden=1)
        schedule = TrainSchedule(20, 1, 0.01)
        mask = nonlinear_node_mask(cfg_full)

        theta0 = flatten_params(init_params(cfg_full, 55, "pretrain"), cfg_full)
        snapshots = []
        rep_full = train(series, init_params(cfg_full, 55, "pretrain"), cfg_full,
                         schedule, mask=mask,
                         callback=lambda e, th, l: snapshots.append(th))
        previous = theta0
        for epoch in range(schedule.pretrain_epochs):
            after = snapshots[epoch]
            assert np.array_equal(after[mask], previous[mask]), f"epoch {epoch}"
            previous = after

        rep_linear = train(series, init_params(cfg_linear, 55, "pretrain"),
                           cfg_linear, schedule,
                           mask=nonlinear_node_mask(cfg_linear))
        full_trace = np.array(rep_full.loss_trace[:20])
        linear_trace = np.array(rep_linear.loss_trace[:20])
        assert np.max(np.abs(full_trace - linear_trace)) <= 1e-12


def test_criterion_6_garch_mle_recovery():
    """Simulate (alpha0=0.05, alpha1=0.10, beta1=0.85) at T=2000: the fitted
    persistence alpha1+beta1 is within 0.1 of 0.95 for at least 9/10 seeds."""
    with criterion(6, "GARCH MLE recovery"):
        start = time.perf_counter()
        true = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        hits = 0
        for seed in range(10):
            series = simulate_garch(true, 2000, seed=seed)
            fitted, _ = fit_garch(series)
            if abs((fitted.alpha1 + fitted.beta1) - 0.95) <= 0.1:
                hits += 1
        assert hits >= 9, f"only {hits}/10 within tolerance"
        assert time.perf_counter() - start < 120.0


def test_criterion_7_numerical_stability():
    """logsumexp at logit magnitude 1e3; strictly positive variance unit over
    [-1e5, 1e5]; finite likelihood on adversarially scaled variances."""
    with criterion(7, "numerical stability"):
        # logits of magnitude 1e3 (the naive form overflows at ~710)
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))
        assert logsumexp([-1000.0, -1000.0]) == pytest.approx(-1000.0 + math.log(2.0))
        assert math.isfinite(logsumexp([1000.0, -1000.0]))

        grid = np.concatenate([
            np.linspace(-1e5, 1e5, 20001), np.array([-1e5, -1.0, -1e-12, 0.0, 1e-12, 1e5]),
        ])
        out = positive_elu(grid, 1.0, 1e-6)
        assert np.all(out > 0.0)

        for sigma2 in (1e-8, 1e8):
            step = MixtureStep([0.5, 0.5], [0.0, 0.1], [sigma2, sigma2])
            for r in (-10.0, 0.0, 10.0):
                assert math.isfinite(log_density(r, step))
        mixed = MixtureStep([0.5, 0.5], [0.0, 0.0], [1e-8, 1e8])
        values = np.array([-10.0, 0.0, 1e-4, 10.0])
        total = nll(values, [mixed] * 4)
        assert math.isfinite(total)


def test_criterion_8_benchmark_determinism():
    """The same benchmark run twice, and at worker counts 1 vs 4, renders
    byte-identical text and CSV reports."""
    with criterion(8, "benchmark determinism"):
        gp = GarchParams(0.0, 0.0, 0.05, 0.10, 0.80)
        series = [simulate_garch(gp, 150, seed=s, name=f"sim{s}") for s in (1, 2)]
        config = RmdnConfig(n_components=2, k_hidden=2)
        schedule = TrainSchedule(3, 8, 0.02)

        def render(workers):
            report = run_benchmark(series, 2, config, schedule,
                                   meta_seed=99, workers=workers)
            return render_report(report, "text"), render_report(report, "csv")

        first = render(workers=1)
        second = render(workers=1)
        parallel = render(workers=4)
        assert first == second
        assert first == parallel
        assert first[0].encode() == parallel[0].encode()
        assert first[1].encode() == parallel[1].encode()
