import hashlib
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmdn.data import TwoRegimeSpec, simulate_mixture_process
from rmdn.garch import (_FIT_LOGIT_BOUNDS, GarchFitError, GarchParams, _constrain,
                        _nll_grad_unconstrained, _unconstrain, fit_garch,
                        garch_filter, garch_nll, simulate_garch)
from rmdn.mixture import LOG_2PI, MixtureStep, nll
from rmdn.network import (RmdnConfig, initial_state, params_from_garch,
                          presample_variances, unroll)


class TestParams:
    def test_valid(self):
        p = GarchParams(0.0, 0.1, 0.05, 0.1, 0.85)
        assert p.unconditional_variance == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a0=0, a1=0, alpha0=0.0, alpha1=0.1, beta1=0.8),
            dict(a0=0, a1=0, alpha0=0.1, alpha1=-0.1, beta1=0.8),
            dict(a0=0, a1=0, alpha0=0.1, alpha1=0.1, beta1=-0.1),
            dict(a0=0, a1=0, alpha0=0.1, alpha1=0.5, beta1=0.5),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            GarchParams(**kwargs)


class TestFilter:
    def test_constant_variance_reduction(self):
        p = GarchParams(0.0, 0.0, 0.3, 0.0, 0.0)
        values = np.random.default_rng(0).normal(0, 1, 20)
        _, sigma2 = garch_filter(values, p)
        np.testing.assert_allclose(sigma2, 0.3, rtol=1e-14)

    def test_geometric_recursion_closed_form(self):
        # zeros series: e2 terms vanish (presample e2 = population variance = 0),
        # leaving sigma2_t = alpha0*(1 - beta1^t)/(1 - beta1) + beta1^t * v with
        # v = 1.0, the presample variance of a constant series
        alpha0, beta1, v = 0.2, 0.6, 1.0
        p = GarchParams(0.0, 0.0, alpha0, 0.15, beta1)
        _, sigma2 = garch_filter(np.zeros(12), p)
        t = np.arange(1, 13)
        expected = alpha0 * (1 - beta1 ** t) / (1 - beta1) + beta1 ** t * v
        np.testing.assert_allclose(sigma2, expected, rtol=1e-12)

    def test_three_step_hand_recursion(self):
        # r = (1, -1, 2), a0 = a1 = 0: population variance is 14/9, then
        # sigma2_1 = 0.1 + 0.7*14/9, e2 = 1 afterwards
        p = GarchParams(0.0, 0.0, 0.1, 0.2, 0.5)
        values = np.array([1.0, -1.0, 2.0])
        mu, sigma2 = garch_filter(values, p)
        var = 14.0 / 9.0
        s1 = 0.1 + 0.2 * var + 0.5 * var
        s2 = 0.1 + 0.2 * 1.0 + 0.5 * s1
        s3 = 0.1 + 0.2 * 1.0 + 0.5 * s2
        np.testing.assert_allclose(mu, 0.0, atol=1e-15)
        np.testing.assert_allclose(sigma2, [s1, s2, s3], rtol=1e-14)

    def test_ar_mean_uses_lagged_return(self):
        p = GarchParams(0.5, 0.3, 1.0, 0.0, 0.0)
        values = np.array([1.0, 2.0, -1.0])
        mu, _ = garch_filter(values, p)
        np.testing.assert_allclose(mu, [0.5, 0.5 + 0.3, 0.5 + 0.6], rtol=1e-15)

    @given(st.integers(1, 2000), st.floats(0.0, 0.999), st.floats(0.0, 1.0),
           st.integers(0, 2 ** 32 - 1))
    @example(1, 0.9, 0.5, 0)
    @example(2, 0.999, 0.5, 1)
    @example(2000, 0.999, 0.0, 2)  # constant drive: the two roundings part furthest
    @settings(deadline=None, max_examples=40)
    def test_matches_sequential_loop(self, t_len, beta1, share, seed):
        # The recursion carries each step's rounding forward at rate beta1.
        # The banded solve fuses x_t + beta1 * sigma2_{t-1} into one rounding
        # where this loop rounds twice, so the two may part by up to about
        # eps * sum_k beta1^k sigma2_{t-k}: a few 1e-15 relative on GARCH
        # draws, up to about 8e-14 with a constant drive at beta1 = 0.999,
        # where the loop is the one further from the exact solution.
        rng = np.random.default_rng(seed)
        p = GarchParams(float(rng.normal(0.0, 0.1)), float(rng.uniform(-0.5, 0.5)),
                        float(rng.uniform(0.01, 1.0)), share * 0.99 * (1.0 - beta1), beta1)
        values = rng.standard_t(3, t_len)
        _, sigma2 = garch_filter(values, p)
        s_prev, e2_prev = presample_variances(values)
        r_prev, carried = 0.0, 0.0
        loop, bound = np.empty(t_len), np.empty(t_len)
        for t, r in enumerate(values.tolist()):
            s = p.alpha0 + p.alpha1 * e2_prev + p.beta1 * s_prev
            e = r - (p.a0 + p.a1 * r_prev)
            carried = s + beta1 * carried
            loop[t], bound[t] = s, 2.0 * np.finfo(float).eps * carried
            s_prev, e2_prev, r_prev = s, e * e, r
        assert np.all(np.abs(sigma2 - loop) <= bound)

    def test_all_variances_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = GarchParams(0.0, 0.0, float(rng.uniform(0.01, 1)),
                            float(rng.uniform(0, 0.3)), float(rng.uniform(0, 0.6)))
            values = rng.normal(0, 1, 50)
            _, sigma2 = garch_filter(values, p)
            assert np.all(sigma2 > 0)


class TestNll:
    def test_standard_normal_zeros(self):
        p = GarchParams(0.0, 0.0, 1.0, 0.0, 0.0)
        assert garch_nll(np.zeros(10), p) == pytest.approx(10 * 0.5 * LOG_2PI, rel=1e-13)

    def test_matches_mixture_nll_on_filter_steps(self):
        p = GarchParams(0.02, 0.1, 0.05, 0.1, 0.85)
        series = simulate_garch(p, 200, seed=2)
        mu, sigma2 = garch_filter(series, p)
        steps = [MixtureStep([1.0], [m], [s]) for m, s in zip(mu, sigma2)]
        assert garch_nll(series, p) == pytest.approx(nll(series, steps), abs=1e-12)

    def test_matches_nested_network_nll(self):
        p = GarchParams(0.05, 0.1, 1.8, 0.1, 0.8)
        series = simulate_garch(p, 300, seed=3)
        cfg = RmdnConfig(n_components=1, k_hidden=2)
        steps, _ = unroll(series, params_from_garch(p, cfg), cfg,
                          initial_state(series, cfg))
        assert nll(series, steps) == pytest.approx(garch_nll(series, p), rel=1e-8)


class TestFitGradient:
    def test_matches_finite_differences(self):
        p = GarchParams(0.01, 0.05, 0.08, 0.12, 0.8)
        series = simulate_garch(p, 150, seed=4)
        values = series.values
        var = float(np.var(values))
        theta = _unconstrain(p, var)
        loss, grads = _nll_grad_unconstrained(theta, values, var, var)
        h = 1e-6
        for i in range(5):
            up = theta.copy(); up[i] += h
            down = theta.copy(); down[i] -= h
            fd = (_nll_grad_unconstrained(up, values, var, var)[0]
                  - _nll_grad_unconstrained(down, values, var, var)[0]) / (2 * h)
            assert grads[i] == pytest.approx(fd, rel=1e-6, abs=1e-7), f"coordinate {i}"

    @given(st.sampled_from(["garch", "two-regime"]), st.integers(50, 400),
           st.floats(-3.0, 3.0), st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           st.integers(0, 2 ** 32 - 1))
    @settings(deadline=None, max_examples=40)
    def test_adjoint_matches_central_differences(self, kind, t_len, log10_scale,
                                                 fractions, seed):
        # theta anywhere inside fit_garch's bounds, except the logits: past
        # |logit| of about 12 the logistic saturates, a bump moves alpha1 and
        # beta1 by a few ulps and the differences read rounding noise
        values = 10.0 ** log10_scale * (
            simulate_garch(GarchParams(0.0, 0.1, 0.05, 0.10, 0.85), t_len, seed).values
            if kind == "garch" else
            simulate_mixture_process(TwoRegimeSpec(0.0, 0.25, 0.0, 4.0, 0.5, 0.05),
                                     t_len, seed).values)
        init_var, e2_0 = presample_variances(values)
        lo = [np.min(values) / math.sqrt(e2_0), -1.0, math.log(e2_0) - 40.0, -10.0, -10.0]
        hi = [np.max(values) / math.sqrt(e2_0), 1.0, math.log(e2_0) + 5.0, 10.0, 10.0]
        theta = np.array([a + f * (b - a) for a, b, f in zip(lo, hi, fractions)])
        loss, grads = _nll_grad_unconstrained(theta, values, init_var, e2_0)
        h = 1e-5

        def bumped(i, d):
            return _nll_grad_unconstrained(theta + d * np.eye(5)[i], values, init_var, e2_0)[0]

        for i in range(5):
            fd = (8.0 * (bumped(i, h) - bumped(i, -h))
                  - (bumped(i, 2 * h) - bumped(i, -2 * h))) / (12.0 * h)
            assert abs(grads[i] - fd) <= 1e-5 * abs(grads[i]) + 1e-8 * abs(loss), \
                f"coordinate {i}"

    @pytest.mark.parametrize("tp", _FIT_LOGIT_BOUNDS)
    @pytest.mark.parametrize("ts", _FIT_LOGIT_BOUNDS)
    def test_logit_bounds_stay_stationary_after_rounding(self, tp, ts):
        params = _constrain(np.array([0.0, 0.0, 0.0, tp, ts]), 1.0)
        assert params.alpha1 + params.beta1 < 1.0

    def test_loss_matches_public_nll(self):
        p = GarchParams(0.0, 0.0, 0.05, 0.1, 0.85)
        series = simulate_garch(p, 100, seed=5)
        var = float(np.var(series.values))
        loss, _ = _nll_grad_unconstrained(_unconstrain(p, var), series.values, var, var)
        assert loss == pytest.approx(garch_nll(series, p), rel=1e-12)


class TestFit:
    def test_simulation_recovery(self):
        true = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        series = simulate_garch(true, 2000, seed=6)
        fitted, loglik = fit_garch(series)
        assert abs((fitted.alpha1 + fitted.beta1) - 0.95) <= 0.1
        assert math.isfinite(loglik)

    def test_iid_data_gives_small_alpha1(self):
        rng = np.random.default_rng(7)
        series = rng.normal(0, 1, 2000)
        fitted, _ = fit_garch(series)
        assert fitted.alpha1 <= 0.05

    def test_mle_dominates_true_parameters(self):
        true = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        series = simulate_garch(true, 1000, seed=8)
        _, loglik = fit_garch(series)
        assert loglik >= -garch_nll(series, true)

    def test_mle_dominates_random_stationary_grid(self):
        true = GarchParams(0.0, 0.1, 0.05, 0.10, 0.85)
        series = simulate_garch(true, 500, seed=9)
        _, loglik = fit_garch(series)
        rng = np.random.default_rng(10)
        for _ in range(100):
            pers = rng.uniform(0.0, 0.99)
            share = rng.uniform(0.0, 1.0)
            p = GarchParams(
                float(rng.normal(0, 0.1)), float(rng.uniform(-0.5, 0.5)),
                float(rng.uniform(0.01, 1.0)), pers * share, pers * (1 - share),
            )
            assert loglik >= -garch_nll(series, p) - 1e-9

    @pytest.mark.parametrize("path", ["garch", "two-regime"])
    def test_loglik_is_minus_public_nll(self, path):
        """The fit's log-likelihood is -``garch_nll`` at the returned
        coefficients to the bit: both take the loss from one expression.
        Computed two ways, GARCH seed 6 and two-regime seed 4 differed by
        5.7e-14."""
        for seed in range(20):
            series = (simulate_garch(GarchParams(0.0, 0.0, 0.05, 0.10, 0.85), 300, seed=seed)
                      if path == "garch" else simulate_mixture_process(
                          TwoRegimeSpec(0.0, 0.25, 0.0, 4.0, 0.5, 0.05), 300, seed=seed))
            fitted, loglik = fit_garch(series)
            assert loglik == -garch_nll(series, fitted), seed

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            fit_garch(np.zeros(10) + np.arange(10) * 0.01)

    def test_constant_series_rejected(self):
        # 0.3, 0.1 and 1/3 have an inexact float mean, so np.var of 80 copies
        # is not 0; 1e300 overflows it
        for values in [np.ones(100)] + [np.full(80, v) for v in (0.3, 0.1, 1 / 3,
                                                                 1e-300, 1e300)]:
            with pytest.raises(GarchFitError, match="constant series"):
                fit_garch(values)

    def test_non_finite_series_rejected(self):
        values = simulate_garch(GarchParams(0.0, 0.0, 0.05, 0.10, 0.85), 100, seed=15).values
        values[40] = math.nan
        with pytest.raises(GarchFitError, match="non-finite values"):
            fit_garch(values)

    def test_deterministic(self):
        true = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        series = simulate_garch(true, 500, seed=11)
        a = fit_garch(series)
        b = fit_garch(series)
        assert a[1] == b[1] and a[0] == b[0]


# SHA-256 of ``simulate_garch(SIM_PARAMS[i], t_len, seed=i + 3).values.tobytes()``,
# keyed by (i, t_len). The acceptance criteria, the ``perfbench`` fixtures and
# every benchmark input are simulated paths, so a change to the simulator that
# moves any bit of them must show up here.
SIM_PARAMS = (GarchParams(0.0, 0.1, 0.05, 0.10, 0.85), GarchParams(0.05, -0.2, 0.2, 0.3, 0.6),
              GarchParams(0.0, 0.0, 1.5, 0.05, 0.9))
SIM_DIGESTS = {
    (0, 1): "834591abf94d2a2e01f26e688ee4ffff44ef4c5b90e6fb37189e55d960f9ed41",
    (0, 300): "e4b5397aad61c6c136ac423649b0f6688721d5132adaae83889c10e18cee2e62",
    (0, 20000): "23753f706c074782089f416f1f28844f6d010934f00ebe09fd44e7af7a01be62",
    (1, 1): "7b4ef262f5f9c0b8fcbaa899c605af9b29946f0469f60b420bc2834fa8792611",
    (1, 300): "e46a21126d8a318a2b23195203e9fe33e26d9fa93c1270d7e036b6c30c20770b",
    (1, 20000): "060c164392fb4b2e5a82c52be67cfb7f3a0cbf7326253a553588e5a87ae662e5",
    (2, 1): "112fdb2e26256940128ce7de8f84181604fad8bf328113e8e56dd436ab0ad7d4",
    (2, 300): "82f85f2bba54a18fee8440457fd07f03c6de5a3e24357986a2172b87ff063c24",
    (2, 20000): "1bfe43b2637835ea51f612f147c4e492c4cd2e42ae216f4257b5073e25a37ebd",
}


@pytest.mark.parametrize("key", sorted(SIM_DIGESTS))
def test_simulated_path_is_pinned(key):
    i, t_len = key
    values = simulate_garch(SIM_PARAMS[i], t_len, seed=i + 3).values
    assert hashlib.sha256(values.tobytes()).hexdigest() == SIM_DIGESTS[key]


def _t3_or_normal(kind, t_len, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_t(3, t_len) if kind == "t3" else rng.normal(0.0, 1.0, t_len)


class TestFitQuality:
    # Series on which a fit from a single variance-targeted start ends below
    # the log-likelihood that 2000 Adam steps (learning rate 0.05, best
    # iterate kept) reached from (alpha1, beta1) = (0.05, 0.90); the stored
    # values are those Adam fits.
    @pytest.mark.parametrize("kind, t_len, seed, adam_loglik", [
        ("t3", 300, 122, -569.6625897312958),
        ("normal", 300, 6, -423.89712535683293),
        ("t3", 300, 33, -564.5740070362776),
        ("t3", 1000, 34, -1907.7765496704433),
    ])
    def test_never_below_adam(self, kind, t_len, seed, adam_loglik):
        _, loglik = fit_garch(_t3_or_normal(kind, t_len, seed))
        assert loglik >= adam_loglik - 1e-6

    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e155, 1e300])
    def test_extreme_scale_raises_only_garch_fit_error(self, scale):
        values = simulate_garch(GarchParams(0.0, 0.0, 0.05, 0.10, 0.85), 300, seed=3).values
        with np.errstate(all="ignore"), pytest.raises(
                GarchFitError, match="non-finite objective at the variance-targeted"):
            fit_garch(scale * values)

    SCALE_PATHS = {
        "garch": simulate_garch(GarchParams(0.0, 0.0, 0.05, 0.10, 0.85), 1000, seed=3).values,
        "two-regime": simulate_mixture_process(
            TwoRegimeSpec(0.0, 0.25, 0.0, 4.0, 0.5, 0.05), 1000, seed=42).values,
    }

    @given(st.sampled_from(sorted(SCALE_PATHS)), st.floats(-4.0, 4.0))
    @example("garch", math.log10(1.36076325397525e-4))  # stopped 0.36 nats short with a0 in data units
    @settings(deadline=None, max_examples=20)
    def test_loglik_shifts_by_t_log_scale(self, path, log10_scale):
        values = self.SCALE_PATHS[path]
        scale = 10.0 ** log10_scale
        _, base = fit_garch(values)
        _, scaled = fit_garch(scale * values)
        assert scaled + values.size * math.log(scale) == pytest.approx(base, abs=1e-3)


class TestSimulate:
    def test_deterministic(self):
        p = GarchParams(0.0, 0.0, 0.05, 0.1, 0.85)
        a = simulate_garch(p, 100, seed=12)
        b = simulate_garch(p, 100, seed=12)
        np.testing.assert_array_equal(a.values, b.values)

    def test_iid_case_moments(self):
        # alpha1 = beta1 = 0 gives i.i.d. N(0, alpha0) draws
        alpha0 = 0.7
        p = GarchParams(0.0, 0.0, alpha0, 0.0, 0.0)
        series = simulate_garch(p, 10 ** 4, seed=13)
        se_var = math.sqrt(2 * alpha0 ** 2 / 10 ** 4)  # Var(s^2) = 2 sigma^4 / n
        assert abs(float(np.var(series.values)) - alpha0) < 3 * se_var
        assert abs(float(np.mean(series.values))) < 3 * math.sqrt(alpha0 / 10 ** 4)

    def test_long_run_variance(self):
        p = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)
        series = simulate_garch(p, 10 ** 5, seed=14)
        sample_var = float(np.var(series.values))
        assert abs(sample_var - p.unconditional_variance) / p.unconditional_variance < 0.10

    def test_length_validation(self):
        with pytest.raises(ValueError):
            simulate_garch(GarchParams(0, 0, 0.1, 0.1, 0.8), 0, seed=0)


def test_scipy_optimizer_and_filter_load_on_first_use():
    """The network path, training, scoring and the gradient check included,
    loads no scipy module and no process pool; the GARCH baseline loads the
    filter's BLAS wrappers and the optimizer when it first calls them, and no
    path loads scipy's signal or stats modules."""
    # a fresh process: this one has long since imported everything
    code = textwrap.dedent("""
        import sys
        import rmdn, rmdn.cli
        from rmdn import (GarchParams, RmdnConfig, TrainSchedule, fit_garch,
                          finite_diff_check, garch_filter, garch_nll, init_params,
                          initial_state, nll, nonlinear_node_mask, run_benchmark,
                          simulate_garch, train, unroll)
        unloaded = ("scipy.signal", "scipy.stats")
        true = GarchParams(0.0, 0.0, 0.05, 0.1, 0.85)
        short = simulate_garch(true, 20, seed=7)
        cfg = RmdnConfig(2, 3)
        report = train(short, init_params(cfg, 1, "pretrain"), cfg, TrainSchedule(1, 1),
                       mask=nonlinear_node_mask(cfg))
        init = initial_state(short, cfg)
        path, _ = unroll(short, report.final_params, cfg, init)
        assert nll(short, path) > 0
        assert finite_diff_check(short, report.final_params, cfg, init).passed
        assert not any(m.split(".")[0] == "scipy" for m in sys.modules), sorted(sys.modules)
        assert not any(m.split(".")[0] in ("multiprocessing", "concurrent")
                       for m in sys.modules), sorted(sys.modules)
        series = simulate_garch(true, 300, seed=7)
        mu, sigma2 = garch_filter(series, true)
        assert sigma2.shape == (300,) and garch_nll(series, true) > 0
        assert not any(m in sys.modules for m in unloaded), sorted(sys.modules)
        params, loglik = fit_garch(series)
        report = run_benchmark([series], 1, cfg, TrainSchedule(1, 1), workers=1)
        assert "scipy.optimize" in sys.modules and loglik < 0 and report.records
        assert not any(m in sys.modules for m in unloaded), sorted(sys.modules)
    """)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
