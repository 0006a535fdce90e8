import copy
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rmdn.garch import GarchParams, garch_filter, simulate_garch
from rmdn.mixture import MixturePath, nll
from rmdn.network import (ELU_EPS, RecurrentState, RmdnConfig, forward_pass,
                          init_params, initial_state, params_from_garch,
                          positive_elu, unroll)

import time_major_reference
from test_gradients import overflow_case

PROBE = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)


def weights_and_means_after(r, p, config):
    """Mixture weights and means predicted after input return r: step 1 of a
    forward pass over [r, 0]."""
    cache = forward_pass(np.array([r, 0.0]), p, config,
                         RecurrentState(np.ones(config.n_components), 1.0))
    return cache.eta[:, 1], cache.mu[:, 1]


def variances_after(state, p, config):
    """Component variances predicted from a recurrent state: step 0 of a
    one-step forward pass started there."""
    return forward_pass(np.array([0.0]), p, config, state).sigma2[:, 0]


def reference_forward(r_t, e2_prev, s2_prev, p, config):
    """Independent direct-formula implementation of all three subnetworks,
    following the architecture equations term by term."""
    n, k = config.n_components, config.k_hidden

    def hidden(x, w, b, j):
        a = w[j] * x + b[j]
        return a if j == 0 else math.tanh(a)

    logits = [
        sum(p.mix_out_w[i, j] * hidden(r_t, p.mix_in_w, p.mix_in_b, j) for j in range(k))
        + p.mix_out_b[i]
        for i in range(n)
    ]
    m = max(logits)
    exps = [math.exp(y - m) for y in logits]
    eta = [e / sum(exps) for e in exps]
    mu = [
        sum(p.mean_out_w[i, j] * hidden(r_t, p.mean_in_w, p.mean_in_b, j) for j in range(k))
        + p.mean_out_b[i]
        for i in range(n)
    ]
    sigma2 = []
    for i in range(n):
        z = p.var_out_b[i]
        for j in range(k):
            a = p.var_in_w[j] * e2_prev + p.var_in_b[j]
            h = a if j == 0 else math.tanh(a)
            z += p.var_out_w[i, j] * h
        for j in range(k, 2 * k):
            a = p.var_in_w[j] * s2_prev[i] + p.var_in_b[j]
            h = a if j == k else math.tanh(a)
            z += p.var_out_w[i, j] * h
        if z > 0:
            sigma2.append(z + 1 + ELU_EPS)
        else:
            sigma2.append((math.exp(z) - 1) + 1 + ELU_EPS)
    return np.array(eta), np.array(mu), np.array(sigma2)


class TestPositiveElu:
    def test_positive_branch(self):
        assert positive_elu(0.5, 1.0, 1e-6) == pytest.approx(1.500001, abs=1e-12)

    def test_continuity_at_zero(self):
        assert positive_elu(0.0, 1.0, 1e-6) == pytest.approx(1.0 + 1e-6, abs=1e-15)
        assert positive_elu(1e-12, 1.0, 1e-6) == pytest.approx(1.0 + 1e-6, abs=1e-10)

    def test_deep_saturation_value(self):
        # alpha*(e^x - 1) + 1 + eps at x = -20
        expected = math.exp(-20.0) + 1e-6
        assert positive_elu(-20.0, 1.0, 1e-6) == pytest.approx(expected, rel=1e-9)

    @given(st.floats(-1e5, 1e5), st.floats(1e-3, 1.0), st.floats(1e-9, 9.9e-4))
    @settings(deadline=None)
    def test_strictly_positive(self, x, alpha, eps):
        assert positive_elu(x, alpha, eps) > 0.0

    def test_vectorized(self):
        out = positive_elu(np.array([-1.0, 0.0, 1.0]), 1.0, 1e-6)
        assert out.shape == (3,)
        assert np.all(out > 0)


class TestConfig:
    def test_defaults_valid(self):
        cfg = RmdnConfig()
        assert cfg.n_components == 2 and cfg.k_hidden == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_components=0),
            dict(k_hidden=0),
            dict(n_components=True),
            dict(n_components=2.0),
            dict(n_components="2"),
            dict(n_components=np.int64(2)),
            dict(k_hidden=True),
            dict(k_hidden=3.0),
            dict(k_hidden="3"),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RmdnConfig(**kwargs)


class TestInitParams:
    def test_deterministic(self):
        cfg = RmdnConfig()
        a = init_params(cfg, 123, "plain")
        b = init_params(cfg, 123, "plain")
        for name in ("mix_in_w", "mix_out_w", "var_out_w", "mean_out_b"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_different_seeds_differ(self):
        cfg = RmdnConfig()
        a = init_params(cfg, 1, "plain")
        b = init_params(cfg, 2, "plain")
        assert not np.array_equal(a.mix_out_w, b.mix_out_w)

    def test_pinned_entries(self):
        cfg = RmdnConfig()
        for scheme in ("pretrain", "plain"):
            p = init_params(cfg, 5, scheme)
            k = cfg.k_hidden
            assert p.mix_in_w[0] == 1.0 and p.mix_in_b[0] == 0.0
            assert p.mean_in_w[0] == 1.0 and p.mean_in_b[0] == 0.0
            assert p.var_in_w[0] == 1.0 and p.var_in_b[0] == 0.0
            assert p.var_in_w[k] == 1.0 and p.var_in_b[k] == 0.0

    def test_ones_rule(self):
        p = init_params(RmdnConfig(), 5, "plain")
        assert np.all(p.var_out_w == 1.0) and np.all(p.var_out_b == 1.0)
        assert np.all(p.mix_out_b == 1.0) and np.all(p.mean_out_b == 1.0)
        assert np.all(p.mix_in_b[1:] == 1.0)

    def test_pretrain_zeroes_tanh_nodes(self):
        cfg = RmdnConfig()
        p = init_params(cfg, 5, "pretrain")
        k = cfg.k_hidden
        assert np.all(p.mix_in_w[1:] == 0.0) and np.all(p.mix_in_b[1:] == 0.0)
        assert np.all(p.mix_out_w[:, 1:] == 0.0)
        assert np.all(p.var_out_w[:, 1:k] == 0.0)
        assert np.all(p.var_out_w[:, k + 1:] == 0.0)

    def test_pretrain_matches_tanh_free_model(self):
        """A fresh pretrain model computes the same function as one built
        with no tanh nodes at all (same seed shares the linear draws)."""
        gp = GarchParams(0.0, 0.0, 0.05, 0.1, 0.8)
        series = simulate_garch(gp, 50, seed=0)
        cfg3 = RmdnConfig(n_components=2, k_hidden=3)
        cfg1 = RmdnConfig(n_components=2, k_hidden=1)
        steps3, _ = unroll(series, init_params(cfg3, 9, "pretrain"), cfg3,
                           initial_state(series, cfg3))
        steps1, _ = unroll(series, init_params(cfg1, 9, "pretrain"), cfg1,
                           initial_state(series, cfg1))
        for s3, s1 in zip(steps3, steps1):
            np.testing.assert_allclose(s3.eta, s1.eta, rtol=1e-13)
            np.testing.assert_allclose(s3.mu, s1.mu, rtol=1e-13)
            np.testing.assert_allclose(s3.sigma2, s1.sigma2, rtol=1e-13)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            init_params(RmdnConfig(), 0, "bogus")


class TestMixingForward:
    def test_identical_rows_give_uniform_weights(self):
        cfg = RmdnConfig(n_components=3, k_hidden=2)
        p = init_params(cfg, 0, "plain")
        p.mix_out_w[:] = p.mix_out_w[0]
        p.mix_out_b[:] = p.mix_out_b[0]
        eta, _ = weights_and_means_after(0.7, p, cfg)
        np.testing.assert_allclose(eta, np.full(3, 1 / 3), rtol=1e-14)

    def test_linear_only_matches_affine_softmax(self):
        cfg = RmdnConfig(n_components=2, k_hidden=3)
        p = init_params(cfg, 1, "pretrain")
        p.mix_out_w[:, 0] = [0.8, -0.3]
        p.mix_out_b[:] = [0.1, 0.4]
        r = 1.3
        logits = [0.8 * r + 0.1, -0.3 * r + 0.4]
        m = max(logits)
        exps = [math.exp(v - m) for v in logits]
        expected = np.array(exps) / sum(exps)
        eta, _ = weights_and_means_after(r, p, cfg)
        np.testing.assert_allclose(eta, expected, rtol=1e-14)

    def test_bias_shift_invariance(self):
        cfg = RmdnConfig()
        p = init_params(cfg, 2, "plain")
        eta, _ = weights_and_means_after(0.5, p, cfg)
        shifted = copy.deepcopy(p)
        shifted.mix_out_b += 17.0
        eta_shifted, _ = weights_and_means_after(0.5, shifted, cfg)
        np.testing.assert_allclose(eta_shifted, eta, rtol=1e-12)

    def test_weights_sum_to_one(self):
        cfg = RmdnConfig(n_components=3)
        p = init_params(cfg, 3, "plain")
        eta, _ = weights_and_means_after(-2.0, p, cfg)
        assert abs(float(eta.sum()) - 1.0) < 1e-12
        assert np.all(eta > 0)


class TestMeanForward:
    def test_linear_only_is_ar1_per_component(self):
        cfg = RmdnConfig(n_components=2, k_hidden=3)
        p = init_params(cfg, 4, "pretrain")
        p.mean_out_w[:, 0] = [0.5, -0.2]
        p.mean_out_b[:] = [0.1, 0.3]
        r = -0.8
        _, mu = weights_and_means_after(r, p, cfg)
        np.testing.assert_allclose(mu, [0.5 * r + 0.1, -0.2 * r + 0.3], rtol=1e-14)

    def test_all_zero_weights_give_zero(self):
        cfg = RmdnConfig()
        p = init_params(cfg, 0, "plain")
        p.mean_out_w[:] = 0.0
        p.mean_out_b[:] = 0.0
        _, mu = weights_and_means_after(1.7, p, cfg)
        np.testing.assert_array_equal(mu, np.zeros(2))


class TestVarianceForward:
    def test_linear_only_is_garch_recursion(self):
        cfg = RmdnConfig(n_components=1, k_hidden=2)
        p = init_params(cfg, 8, "pretrain")
        k = cfg.k_hidden
        p.var_out_w[0, 0] = 0.2   # squared-residual loading
        p.var_out_w[0, k] = 0.5   # variance persistence
        p.var_out_b[0] = 3.0
        state = RecurrentState([1.5], 2.0)
        expected = 0.2 * 2.0 + 0.5 * 1.5 + 3.0 + 1.0 + ELU_EPS
        assert variances_after(state, p, cfg)[0] == pytest.approx(expected, rel=1e-14)

    def test_all_zero_weights_give_one_plus_eps(self):
        cfg = RmdnConfig()
        p = init_params(cfg, 0, "plain")
        p.var_out_w[:] = 0.0
        p.var_out_b[:] = 0.0
        out = variances_after(RecurrentState(np.ones(2), 1.0), p, cfg)
        np.testing.assert_allclose(out, 1.0 + ELU_EPS, rtol=1e-15)

    def test_always_positive(self):
        rng = np.random.default_rng(10)
        cfg = RmdnConfig()
        for seed in range(5):
            p = init_params(cfg, seed, "plain")
            p.var_out_b[:] = -50.0  # drive the unit deep into saturation
            out = variances_after(
                RecurrentState(rng.uniform(0.1, 5, 2), float(rng.uniform(0, 5))), p, cfg
            )
            assert np.all(out > 0)


@st.composite
def variance_models(draw):
    """A random N, K in 1..4 model whose variance unit visits both pelu
    branches over a short series. The squared-residual and own-variance
    loadings are non-negative and the tanh-node output weights small, which
    keeps pre-activations above about -6, where the oracle's exp(z) - 1 still
    agrees with expm1 to 1e-12 relative."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 50000))
    cfg = RmdnConfig(n_components=n, k_hidden=k)
    rng = np.random.default_rng(seed)
    p = init_params(cfg, seed, "plain")
    p.var_in_w[:] = rng.uniform(-1.0, 1.0, 2 * k)
    p.var_in_b[:] = rng.uniform(-1.0, 1.0, 2 * k)
    p.var_in_w[[0, k]], p.var_in_b[[0, k]] = 1.0, 0.0  # the pinned linear nodes
    p.var_out_w[:] = rng.uniform(-0.5, 0.5, (n, 2 * k))
    p.var_out_w[:, [0, k]] = rng.uniform(0.0, 1.0, (n, 2))
    p.var_out_b[:] = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    series = simulate_garch(PROBE, draw(st.integers(2, 40)), seed=seed)
    return series.values, p, cfg


class TestUnroll:
    def test_single_step_uses_initial_state(self):
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        p = init_params(cfg, 0, "pretrain")
        init = RecurrentState([2.0], 3.0)
        steps, final = unroll([0.5], p, cfg, init)
        assert len(steps) == 1
        eta_ref, mu_ref, s2_ref = reference_forward(0.0, 3.0, [2.0], p, cfg)
        np.testing.assert_allclose(steps[0].eta, eta_ref, rtol=1e-14)
        np.testing.assert_allclose(steps[0].mu, mu_ref, rtol=1e-14)
        np.testing.assert_allclose(steps[0].sigma2, s2_ref, rtol=1e-14)
        # final state carries the new variance and the realized residual
        mu_bar = float(steps[0].eta @ steps[0].mu)
        assert final.e2_prev == pytest.approx((0.5 - mu_bar) ** 2, rel=1e-14)

    def test_matches_stepwise_reference(self):
        gp = GarchParams(0.0, 0.1, 0.05, 0.1, 0.8)
        series = simulate_garch(gp, 30, seed=1)
        cfg = RmdnConfig(n_components=2, k_hidden=3)
        p = init_params(cfg, 11, "plain")
        init = initial_state(series, cfg)
        steps, _ = unroll(series, p, cfg, init)

        r_prev, e2, s2 = 0.0, init.e2_prev, np.array(init.sigma2_prev)
        for t, r in enumerate(series.values):
            eta_ref, mu_ref, s2_ref = reference_forward(r_prev, e2, s2, p, cfg)
            np.testing.assert_allclose(steps[t].eta, eta_ref, atol=1e-13)
            np.testing.assert_allclose(steps[t].mu, mu_ref, atol=1e-13)
            np.testing.assert_allclose(steps[t].sigma2, s2_ref, atol=1e-13)
            mu_bar = float(eta_ref @ mu_ref)
            e2 = (r - mu_bar) ** 2
            s2 = s2_ref
            r_prev = r

    def test_nested_garch_equivalence(self):
        # alpha0 > 1 keeps every variance pre-activation positive
        rng = np.random.default_rng(12)
        for _ in range(5):
            gp = GarchParams(
                float(rng.normal(0, 0.1)), float(rng.uniform(-0.3, 0.3)),
                float(rng.uniform(1.2, 3.0)), float(rng.uniform(0.02, 0.2)),
                float(rng.uniform(0.4, 0.75)),
            )
            series = simulate_garch(gp, 200, seed=int(rng.integers(10000)))
            cfg = RmdnConfig(n_components=1, k_hidden=3)
            p = params_from_garch(gp, cfg)
            mu_g, s2_g = garch_filter(series, gp)
            steps, _ = unroll(series, p, cfg, initial_state(series, cfg))
            mu_r = np.array([s.mu[0] for s in steps])
            s2_r = np.array([s.sigma2[0] for s in steps])
            np.testing.assert_allclose(mu_r, mu_g, atol=1e-10)
            np.testing.assert_allclose(s2_r, s2_g, atol=1e-10)

    def test_garch_embedding_needs_one_component(self):
        with pytest.raises(ValueError, match="n_components == 1"):
            params_from_garch(GarchParams(0.0, 0.0, 0.05, 0.1, 0.8), RmdnConfig(2, 3))

    def test_component_permutation_symmetry(self):
        gp = GarchParams(0.0, 0.0, 0.05, 0.1, 0.8)
        series = simulate_garch(gp, 40, seed=2)
        cfg = RmdnConfig(n_components=3, k_hidden=2)
        p = init_params(cfg, 13, "plain")
        p.mix_out_w += np.random.default_rng(0).normal(0, 0.3, p.mix_out_w.shape)
        init = initial_state(series, cfg)
        steps, _ = unroll(series, p, cfg, init)

        perm = np.array([2, 0, 1])
        q = copy.deepcopy(p)
        q.mix_out_w = p.mix_out_w[perm]
        q.mix_out_b = p.mix_out_b[perm]
        q.mean_out_w = p.mean_out_w[perm]
        q.mean_out_b = p.mean_out_b[perm]
        q.var_out_w = p.var_out_w[perm]
        q.var_out_b = p.var_out_b[perm]
        init_p = RecurrentState(init.sigma2_prev[perm], init.e2_prev)
        steps_p, _ = unroll(series, q, cfg, init_p)

        for s, sp in zip(steps, steps_p):
            np.testing.assert_allclose(sp.eta, s.eta[perm], atol=1e-13)
            np.testing.assert_allclose(sp.sigma2, s.sigma2[perm], atol=1e-12)
        assert nll(series, steps_p) == pytest.approx(nll(series, steps), abs=1e-9)

    def test_deterministic_bit_identical(self):
        gp = GarchParams(0.0, 0.0, 0.05, 0.1, 0.8)
        series = simulate_garch(gp, 100, seed=3)
        cfg = RmdnConfig()
        p = init_params(cfg, 14, "plain")
        init = initial_state(series, cfg)
        a, _ = unroll(series, p, cfg, init)
        b, _ = unroll(series, p, cfg, init)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.eta, sb.eta)
            assert np.array_equal(sa.mu, sb.mu)
            assert np.array_equal(sa.sigma2, sb.sigma2)

    @given(variance_models())
    @example(overflow_case())
    @settings(deadline=None, max_examples=60)
    def test_path_holds_forward_pass_rows(self, model):
        """The scoring pass gives forward_pass's mixture and the final state
        of its last step, bit for bit, NaN and inf included, and warns of no
        overflow; its (T, N) path is a transposed view of the (N, T) rows."""
        values, p, cfg = model
        init = initial_state(values, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            steps, final = unroll(values, p, cfg, init)
            cache = forward_pass(values, p, cfg, init)
        t_len = values.size
        assert isinstance(steps, MixturePath) and len(steps) == t_len
        for name in ("eta", "mu", "sigma2"):
            assert np.array_equal(getattr(steps, name).T, getattr(cache, name), equal_nan=True)
        for t in (0, t_len // 2, -1, -t_len):
            assert np.array_equal(steps[t].sigma2, cache.sigma2[:, t], equal_nan=True)
        rows = list(steps)
        assert len(rows) == t_len
        assert all(np.array_equal(s.mu, row) for s, row in zip(rows, cache.mu.T))
        assert np.array_equal(final.sigma2_prev, cache.sigma2[:, -1], equal_nan=True)
        e2_last = cache.resid[-1] * cache.resid[-1]
        assert np.array_equal(final.e2_prev, e2_last, equal_nan=True)

    def test_divergence_flagged_not_raised(self):
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        p = init_params(cfg, 0, "pretrain")
        p.var_out_w[0, :] = 1e200  # force overflow in the recursion
        series = np.ones(10)
        steps, _ = unroll(series, p, cfg, RecurrentState([1.0], 1.0))
        assert len(steps) == 10
        assert not steps[-1].valid
        flags = [s.valid for s in steps]
        assert flags[0] and flags == list(np.all(np.isfinite(steps.sigma2), axis=1))


class TestForwardPassProperties:
    @given(variance_models())
    @settings(deadline=None, max_examples=60)
    def test_matches_stepwise_reference(self, model):
        """Each step agrees with the direct-formula oracle fed the same
        previous variances, and both pelu branches are exercised."""
        values, p, cfg = model
        init = initial_state(values, cfg)
        cache = forward_pass(values, p, cfg, init)
        positive = time_major_reference.forward_pass(values, p, cfg, init)["dpelu"] == 1.0
        assume(positive.any() and not positive.all())

        r_prev, e2, s2 = 0.0, init.e2_prev, np.array(init.sigma2_prev)
        for t, r in enumerate(values):
            eta_ref, mu_ref, s2_ref = reference_forward(r_prev, e2, s2, p, cfg)
            np.testing.assert_allclose(cache.sigma2[:, t], s2_ref, rtol=1e-12)
            # means can cross zero, where only an absolute bound is meaningful
            np.testing.assert_allclose(cache.eta[:, t], eta_ref, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(cache.mu[:, t], mu_ref, rtol=1e-12, atol=1e-14)
            e2 = (r - float(eta_ref @ mu_ref)) ** 2
            s2 = cache.sigma2[:, t]
            r_prev = r
        _, final = unroll(values, p, cfg, init)
        np.testing.assert_array_equal(final.sigma2_prev, cache.sigma2[:, -1])
        assert final.e2_prev == pytest.approx(e2, rel=1e-12, abs=1e-14)


class TestInitialState:
    def test_population_variance_convention(self):
        values = np.array([1.0, -1.0, 2.0])
        cfg = RmdnConfig(n_components=2)
        st_ = initial_state(values, cfg)
        var = float(np.var(values))
        np.testing.assert_allclose(st_.sigma2_prev, [var, var], rtol=1e-15)
        assert st_.e2_prev == pytest.approx(var, rel=1e-15)

    def test_constant_series_fallback(self):
        # the variance must stay positive; the squared residual may be 0. 0.3,
        # 0.1 and 1/3 have an inexact float mean, so np.var of 80 copies is not 0
        for values in [np.zeros(5)] + [np.full(80, v) for v in (0.3, 0.1, 1 / 3,
                                                                1e-300, 1e300)]:
            st_ = initial_state(values, RmdnConfig())
            assert st_.e2_prev == 0.0, values[0]
            assert np.all(st_.sigma2_prev == 1.0), values[0]

    @pytest.mark.parametrize("scale, expected", [
        (1e300, np.finfo(float).max), (1e-200, np.finfo(float).tiny)])
    def test_extreme_scales_give_the_nearest_positive_variance(self, scale, expected):
        values = simulate_garch(PROBE, 30, seed=5).values * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            st_ = initial_state(values, RmdnConfig())
        assert st_.e2_prev == expected
        assert np.all(st_.sigma2_prev == expected)

    @pytest.mark.parametrize("scale", [1e-150, 1e-20, 1.0, 1e20, 1e150])
    def test_finite_variance_is_exactly_np_var(self, scale):
        values = simulate_garch(PROBE, 30, seed=6).values * scale
        st_ = initial_state(values, RmdnConfig())
        assert st_.e2_prev == float(np.var(values))
        assert np.all(st_.sigma2_prev == float(np.var(values)))

    def test_nan_series_keeps_the_fallback(self):
        values = np.array([0.1, math.nan, -0.2])
        st_ = initial_state(values, RmdnConfig())
        assert math.isnan(st_.e2_prev)
        assert np.all(st_.sigma2_prev == 1.0)
