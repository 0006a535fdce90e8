import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rmdn.garch import GarchParams, simulate_garch
from rmdn.gradients import (GradientTape, apply_mask, finite_diff_check, flatten_params,
                            gradient, n_trainable, nonlinear_node_mask,
                            unflatten_params)
from rmdn.network import (SCHEMES, RecurrentState, RmdnConfig, RmdnParams,
                          _variance_recursion, forward_pass, init_params,
                          initial_state, param_layout, unroll)
from rmdn.optim import TrainSchedule, train

import time_major_reference

PROBE = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)


class TestFlattening:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 3), (2, 2), (3, 3)])
    def test_round_trip(self, n, k):
        cfg = RmdnConfig(n_components=n, k_hidden=k)
        p = init_params(cfg, 5, "plain")
        theta = flatten_params(p, cfg)
        assert theta.size == n_trainable(cfg)
        q = unflatten_params(theta, cfg)
        for name in ("mix_in_w", "mix_out_w", "mean_out_b", "var_in_b", "var_out_w"):
            np.testing.assert_array_equal(getattr(q, name), getattr(p, name))

    def test_unflatten_restores_pinned(self):
        cfg = RmdnConfig()
        theta = np.zeros(n_trainable(cfg))
        p = unflatten_params(theta, cfg)
        assert p.mix_in_w[0] == 1.0 and p.var_in_w[cfg.k_hidden] == 1.0

    def test_wrong_length_rejected(self):
        cfg = RmdnConfig()
        with pytest.raises(ValueError):
            unflatten_params(np.zeros(n_trainable(cfg) + 1), cfg)

    @pytest.mark.parametrize("n,k", [(1, 3), (2, 2), (3, 4)])
    def test_flatten_rejects_params_of_another_size(self, n, k):
        p = init_params(RmdnConfig(n_components=n, k_hidden=k), 5, "plain")
        with pytest.raises(ValueError, match=rf"\(N, K\) = \(2, 3\), got \d+ of \({n}, {k}\)"):
            flatten_params(p, RmdnConfig(n_components=2, k_hidden=3))


def oracle_flatten(p, k):
    """The flat order written out field by field: the pinned linear nodes
    (row 0, and row K of the variance network) are left out."""
    free_var = np.ones(2 * k, dtype=bool)
    free_var[[0, k]] = False
    return np.concatenate([
        p.mix_in_w[1:], p.mix_in_b[1:], p.mix_out_w.ravel(), p.mix_out_b,
        p.mean_in_w[1:], p.mean_in_b[1:], p.mean_out_w.ravel(), p.mean_out_b,
        p.var_in_w[free_var], p.var_in_b[free_var], p.var_out_w.ravel(), p.var_out_b,
    ])


def oracle_tanh_mask(n, k):
    """Tanh-node entries of the flat vector, written out field by field."""
    in_tanh = np.ones(k - 1, dtype=bool)
    out_tanh = np.zeros((n, k), dtype=bool)
    out_tanh[:, 1:] = True
    var_out_tanh = np.zeros((n, 2 * k), dtype=bool)
    var_out_tanh[:, 1:k] = True
    var_out_tanh[:, k + 1:] = True
    no_bias = np.zeros(n, dtype=bool)
    return np.concatenate([
        in_tanh, in_tanh, out_tanh.ravel(), no_bias,
        in_tanh, in_tanh, out_tanh.ravel(), no_bias,
        np.ones(2 * k - 2, dtype=bool), np.ones(2 * k - 2, dtype=bool),
        var_out_tanh.ravel(), no_bias,
    ])


def param_view(flat, cfg):
    """A vector over the trainable entries, such as a gradient or a mask, in
    parameter shape, with the pinned entries at 0."""
    layout = param_layout(cfg.n_components, cfg.k_hidden)
    full = np.zeros(layout.free.size)
    full[layout.free] = flat
    return layout.params(full)


def random_params(n, k, seed):
    """Every entry drawn at random, pinned entries included."""
    rng = np.random.default_rng(seed)
    shapes = [(k,), (k,), (n, k), (n,)] * 2 + [(2 * k,), (2 * k,), (n, 2 * k), (n,)]
    return RmdnParams(*(rng.normal(size=shape) for shape in shapes))


def pinned_entries(p, k):
    """The identity-pinned entries as (input weights, input biases)."""
    return (np.concatenate([p.mix_in_w[:1], p.mean_in_w[:1], p.var_in_w[[0, k]]]),
            np.concatenate([p.mix_in_b[:1], p.mean_in_b[:1], p.var_in_b[[0, k]]]))


class TestLayoutAgainstOracle:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_hand_coded_layout(self, n, k):
        cfg = RmdnConfig(n_components=n, k_hidden=k)
        assert n_trainable(cfg) == 8 * (k - 1) + 2 * n * (k + 1) + n * (2 * k + 1)

        p = random_params(n, k, seed=10 * n + k)
        np.testing.assert_array_equal(flatten_params(p, cfg), oracle_flatten(p, k))
        np.testing.assert_array_equal(nonlinear_node_mask(cfg), oracle_tanh_mask(n, k))

        theta = np.random.default_rng(n + 100 * k).normal(size=n_trainable(cfg))
        q = unflatten_params(theta, cfg)
        np.testing.assert_array_equal(oracle_flatten(q, k), theta)
        w, b = pinned_entries(q, k)
        assert np.all(w == 1.0) and np.all(b == 0.0)

    def test_cached_arrays_are_read_only(self):
        layout = param_layout(2, 3)
        for arr in (layout.free, layout.pinned, layout.tanh):
            with pytest.raises(ValueError):
                arr[0] = arr[0]
        assert param_layout(2, 3) is layout


class TestMask:
    def test_all_true_gives_zero_vector(self):
        g = np.arange(1.0, 6.0)
        out = apply_mask(g, np.ones(5, dtype=bool))
        assert np.all(out == 0.0)

    def test_all_false_is_identity(self):
        g = np.arange(1.0, 6.0)
        np.testing.assert_array_equal(apply_mask(g, np.zeros(5, dtype=bool)), g)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_mask(np.zeros(4), np.zeros(5, dtype=bool))

    def test_masked_entries_exactly_zero(self):
        cfg = RmdnConfig()
        mask = nonlinear_node_mask(cfg)
        g = np.random.default_rng(0).normal(0, 1, mask.size)
        out = apply_mask(g, mask)
        assert np.all(out[mask] == 0.0)
        np.testing.assert_array_equal(out[~mask], g[~mask])

    def test_mask_covers_exactly_the_tanh_parameters(self):
        cfg = RmdnConfig(n_components=2, k_hidden=3)
        mask = nonlinear_node_mask(cfg)
        # view the mask in parameter shape: pinned slots read as 0 (unmasked)
        m = param_view(mask.astype(float), cfg)
        k = cfg.k_hidden
        assert np.all(m.mix_in_w[1:] == 1) and np.all(m.mix_in_b[1:] == 1)
        assert np.all(m.mix_out_w[:, 1:] == 1) and np.all(m.mix_out_w[:, 0] == 0)
        assert np.all(m.mix_out_b == 0)
        assert np.all(m.mean_out_w[:, 1:] == 1) and np.all(m.mean_out_b == 0)
        assert np.all(m.var_out_w[:, 1:k] == 1) and np.all(m.var_out_w[:, k + 1:] == 1)
        assert m.var_out_w[:, 0].sum() == 0 and m.var_out_w[:, k].sum() == 0
        assert np.all(m.var_out_b == 0)

    def test_idempotent(self):
        cfg = RmdnConfig()
        mask = nonlinear_node_mask(cfg)
        g = np.random.default_rng(1).normal(0, 1, mask.size)
        once = apply_mask(g, mask)
        np.testing.assert_array_equal(apply_mask(once, mask), once)


class TestGradient:
    def test_single_gaussian_analytic_score(self):
        """All-linear N=1 model, T=1: d nll / d v0 = (mu - r) / sigma2 and the
        variance-side entries follow the closed-form Gaussian score."""
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        p = init_params(cfg, 3, "pretrain")
        r = 0.8
        init = RecurrentState([1.5], 2.0)
        steps, _ = unroll([r], p, cfg, init)
        mu, s2 = float(steps[0].mu[0]), float(steps[0].sigma2[0])
        _, grads = gradient([r], p, init)
        g = param_view(grads, cfg)
        assert g.mean_out_b[0] == pytest.approx((mu - r) / s2, rel=1e-12)
        # variance output bias: d nll / d sigma2 * dpelu, with positive branch
        dl_ds2 = 0.5 / s2 * (1.0 - (r - mu) ** 2 / s2)
        assert g.var_out_b[0] == pytest.approx(dl_ds2, rel=1e-12)

    def test_loss_matches_unroll_nll(self):
        from rmdn.mixture import nll

        cfg = RmdnConfig()
        series = simulate_garch(PROBE, 50, seed=4)
        p = init_params(cfg, 5, "plain")
        init = initial_state(series, cfg)
        loss, _ = gradient(series, p, init)
        steps, _ = unroll(series, p, cfg, init)
        assert loss == pytest.approx(nll(series, steps), rel=1e-12)

    @pytest.mark.parametrize("n,k,scheme", [
        (1, 1, "plain"), (1, 3, "plain"), (2, 2, "plain"),
        (3, 3, "plain"), (2, 3, "pretrain"),
    ])
    def test_finite_difference_agreement(self, n, k, scheme):
        cfg = RmdnConfig(n_components=n, k_hidden=k)
        series = simulate_garch(PROBE, 20, seed=n * 10 + k)
        p = init_params(cfg, n + k, scheme)
        report = finite_diff_check(series, p, cfg, initial_state(series, cfg))
        assert report.passed, f"max deviation {report.max_deviation:.2e}"

    def test_pretrain_init_gradient_vanishes_on_tanh_parameters(self):
        """With tanh nodes zeroed, their raw gradients are already zero, and
        the surviving support is exactly the linear-node and bias set."""
        cfg = RmdnConfig(n_components=2, k_hidden=3)
        series = simulate_garch(PROBE, 60, seed=6)
        p = init_params(cfg, 7, "pretrain")
        _, grads = gradient(series, p, initial_state(series, cfg))
        mask = nonlinear_node_mask(cfg)
        masked_part = grads[mask]
        # input weights/biases of tanh nodes get gradient 0 only through the
        # zeroed output weights; output weights see tanh(0) = 0 activations
        assert np.all(masked_part == 0.0)
        assert np.any(grads[~mask] != 0.0)

    def test_pretrain_init_matches_reduced_model_on_shared_coordinates(self):
        series = simulate_garch(PROBE, 60, seed=8)
        cfg3 = RmdnConfig(n_components=2, k_hidden=3)
        cfg1 = RmdnConfig(n_components=2, k_hidden=1)
        _, g3 = gradient(series, init_params(cfg3, 9, "pretrain"),
                         initial_state(series, cfg3))
        _, g1 = gradient(series, init_params(cfg1, 9, "pretrain"),
                         initial_state(series, cfg1))
        v3 = param_view(g3, cfg3)
        v1 = param_view(g1, cfg1)
        for name, col in (("mix_out_w", 0), ("mean_out_w", 0)):
            np.testing.assert_allclose(
                getattr(v3, name)[:, col], getattr(v1, name)[:, col], rtol=1e-11
            )
        np.testing.assert_allclose(v3.mean_out_b, v1.mean_out_b, rtol=1e-11)
        np.testing.assert_allclose(v3.var_out_b, v1.var_out_b, rtol=1e-11)
        np.testing.assert_allclose(
            v3.var_out_w[:, [0, 3]], v1.var_out_w[:, [0, 1]], rtol=1e-11
        )

    def test_non_finite_loss_yields_nan_gradients(self):
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        p = init_params(cfg, 0, "pretrain")
        p.var_out_w[0, :] = 1e200
        loss, grads = gradient(np.ones(10), p, RecurrentState([1.0], 1.0))
        assert not np.isfinite(loss)
        assert np.all(np.isnan(grads))


@st.composite
def gradient_cases(draw, max_len=40, bias=(-3.0, 3.0), zero_tanh=False):
    """N, K in 1..4, either init scheme, T <= max_len, and variance output
    biases drawn from ``bias``, which spreads pre-activations over both
    sides of the pelu kink. With ``zero_tanh`` a random subset of the
    variance network's tanh output weights is set to exactly 0."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    cfg = RmdnConfig(n_components=n, k_hidden=k)
    p = init_params(cfg, draw(st.integers(0, 50000)), draw(st.sampled_from(SCHEMES)))
    p.var_out_b[:] = draw(st.lists(st.floats(*bias), min_size=n, max_size=n))
    if zero_tanh:
        node = param_layout(n, k).params(param_layout(n, k).tanh).var_out_w
        size = int(node.sum())
        zero = draw(st.lists(st.booleans(), min_size=size, max_size=size))
        p.var_out_w[node] = np.where(zero, 0.0, p.var_out_w[node])
    series = simulate_garch(PROBE, draw(st.integers(2, max_len)), seed=draw(st.integers(0, 10000)))
    return series.values, p, cfg


def two_point_failure_case():
    """Two-point differences at h = 1e-6 deviate from the analytic gradient
    here by 1.28e-5 (truncation error), above the tol of 1e-5."""
    cfg = RmdnConfig(n_components=3, k_hidden=1)
    p = init_params(cfg, 77, "plain")
    p.var_out_b[:] = [0.0, -3.0, 2.0]
    return simulate_garch(PROBE, 36, seed=2924).values, p, cfg


def kink_crossing_case():
    """Component 4's pre-activation passes within 3.6e-4 of the pelu kink,
    and the 2h bumps of the fourth-order stencil at h = 1e-5 move it across
    the kink: that difference deviates from the analytic gradient by
    1.1e-4, above the tol of 1e-5, on one entry. A case hypothesis drew,
    rebuilt from its weights (its last bias is known to four decimals)."""
    cfg = RmdnConfig(n_components=4, k_hidden=1)
    p = init_params(cfg, 37, "plain")
    p.var_out_b[:] = [0.0, 0.0, 0.0, -2.2718]
    return simulate_garch(PROBE, 19, seed=1137).values, p, cfg


class TestGradientProperties:
    @given(gradient_cases())
    @example(two_point_failure_case())
    @example(kink_crossing_case())
    @settings(deadline=None, max_examples=30)
    def test_finite_difference_agreement(self, case):
        values, p, cfg = case
        report = finite_diff_check(values, p, cfg, initial_state(values, cfg), tol=1e-5)
        assert report.passed, f"max deviation {report.max_deviation:.2e}"

    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(SCHEMES),
           st.sampled_from([0.0, 0.5, 2.0, 10.0]),
           st.sampled_from([1.0, 1e-200, 1e150, 1e300, 1e-8, 1e8]), st.integers(0, 10000),
           st.integers(2, 300).flatmap(
               lambda t: st.tuples(st.just(t), st.none() | st.integers(0, t - 1))),
           st.booleans())
    @settings(deadline=None, max_examples=60)
    def test_extreme_inputs_neither_raise_nor_warn(self, n, k, scheme, noise, scale, seed,
                                                   length_and_nan, outlier):
        """Initial parameters plus normal noise of sd ``noise``, on a series
        of T steps, scaled, with an optional 40x outlier and NaN."""
        t_len, nan_at = length_and_nan
        cfg = RmdnConfig(n_components=n, k_hidden=k)
        theta = flatten_params(init_params(cfg, seed, scheme), cfg)
        p = unflatten_params(
            theta + np.random.default_rng(seed).normal(0.0, noise, theta.size), cfg)
        values = simulate_garch(PROBE, t_len, seed=seed).values
        if outlier:
            values[t_len // 2] *= 40.0
        values *= scale
        if nan_at is not None:
            values[nan_at] = math.nan
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            init = initial_state(values, cfg)
            cache = forward_pass(values, p, cfg, init)
            path, _ = unroll(values, p, cfg, init)
            loss, grads = gradient(values, p, init)
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert cache.sigma2.shape == (n, t_len) and grads.shape == (n_trainable(cfg),)
        assert np.array_equal(path.sigma2.T, cache.sigma2, equal_nan=True)
        if nan_at is not None:
            assert math.isnan(loss) and np.all(np.isnan(grads))


def loop_recursion(p, cfg, init, he):
    """The pre-activations and the variances, each (N, T), of the oracle's
    sequential loop, which evaluates every node reading the previous
    variance and the linear one as ``w0 * (a0 * s2 + b0)``, fed the drive
    ``forward_pass`` computes from its e2-side hidden activations ``he``."""
    k = cfg.k_hidden
    drive = p.var_out_w[:, :k] @ he + p.var_out_b[:, None]
    runs = [time_major_reference.variance_recursion(
        drive[i].tolist(), float(init.sigma2_prev[i]), p.var_out_w[i, k:].tolist(),
        p.var_in_w[k:].tolist(), p.var_in_b[k:].tolist(), time_major_reference.ALPHA,
        1.0 + time_major_reference.EPS) for i in range(cfg.n_components)]
    return np.array([z for z, _ in runs]), np.array([s2 for _, s2 in runs])


def loop_variances(p, cfg, init, he):
    """The variances of ``loop_recursion``."""
    return loop_recursion(p, cfg, init, he)[1]


def overflow_case():
    """A pretrain model whose first component's variance grows tenfold per
    step, so that it overflows to inf, read by tanh nodes of input weight 0."""
    cfg = RmdnConfig(n_components=2, k_hidden=3)
    p = init_params(cfg, 4, "pretrain")
    p.var_out_w[0, cfg.k_hidden] = 10.0
    # stated, not left to the init scheme: 0 * inf is the NaN these cases test
    p.var_in_w[cfg.k_hidden + 1:] = 0.0
    return simulate_garch(PROBE, 400, seed=5).values, p, cfg


def live_node_case(n, k, kept=()):
    """N components and K hidden nodes where component i keeps the output
    weights of its first min(i, K-1) tanh nodes reading s2 and has the rest
    at 0, so the variance loop runs with that many live nodes, and visits
    both pelu branches. Each (field, value) in ``kept`` sets the last tanh
    node's input weight or bias to a non-finite value, which keeps that
    node live at output weight 0."""
    cfg = RmdnConfig(n_components=n, k_hidden=k)
    p = init_params(cfg, 8, "plain")
    p.var_out_w[:] = np.random.default_rng(n * k).uniform(-0.5, 0.5, (n, 2 * k))
    p.var_out_w[:, [0, k]] = 0.5
    p.var_out_b[:] = -1.4
    for i in range(n):
        p.var_out_w[i, k + 1 + i:] = 0.0
    for field, value in kept:
        getattr(p, field)[-1] = value
    return simulate_garch(PROBE, 60, seed=9).values, p, cfg


KEPT_LIVE = [(), (("var_in_w", math.inf),), (("var_in_w", math.nan),),
             (("var_in_b", -math.inf),), (("var_in_w", -math.inf), ("var_in_b", math.inf))]


class TestAgainstTimeMajorOracle:
    """The forward pass and the gradient against the time-major (T, N)
    implementation with sequential loops. Fed the same drive, the variance
    loop gives the same variances to the bit, and so the same loss:
    skipping tanh nodes whose output weight is 0 and folding the linear
    node change no value. The time-major layout orders some sums
    differently and the scan sums the adjoint in another order, so against
    the whole oracle the loss agrees within 1e-13 relative and each
    gradient entry within 1e-11 of the largest."""

    # biases in [-6, 0] put steps in both branches in over half of the cases
    @given(gradient_cases(max_len=60, bias=(-6.0, 0.0), zero_tanh=True))
    @settings(deadline=None, max_examples=60)
    def test_loss_and_gradient_match(self, case):
        values, p, cfg = case
        init = initial_state(values, cfg)
        positive = time_major_reference.forward_pass(values, p, cfg, init)["dpelu"] == 1.0
        assume(positive.any() and not positive.all())
        cache = forward_pass(values, p, cfg, init)
        sigma2 = loop_variances(p, cfg, init, cache.he)
        loss_ref, g_ref = time_major_reference.gradient(values, p, cfg, init)
        loss, g = gradient(values, p, init)
        assert np.array_equal(cache.sigma2, sigma2)
        assert abs(loss - loss_ref) <= 1e-13 * abs(loss_ref)
        assert np.all(np.abs(g - g_ref) <= 1e-11 * np.max(np.abs(g_ref)))

    def test_infinite_variance_turns_nan_through_skipped_node(self):
        """A pretrain model whose first component's variance grows tenfold
        per step overflows to inf. Its tanh nodes read that variance with
        input weight 0, so the sequential loop gets 0 * inf = NaN at the
        next step and NaN from there on; the forward pass skips those nodes
        and must still give the same variances."""
        values, p, cfg = overflow_case()
        init = initial_state(values, cfg)
        cache = forward_pass(values, p, cfg, init)
        assert np.isinf(cache.sigma2[0]).any() and np.isnan(cache.sigma2[0, -1])
        assert np.array_equal(cache.sigma2, loop_variances(p, cfg, init, cache.he),
                              equal_nan=True)

    def test_infinite_presample_variance_turns_nan_through_skipped_node(self):
        """A component whose presample variance is infinite gets 0 * inf =
        NaN from its tanh nodes of input weight 0 at the first step, as the
        sequential loop does, though the forward pass skips those nodes
        elsewhere; the other component keeps its finite variances."""
        values, p, cfg = overflow_case()
        init = RecurrentState([math.inf, 1.0], initial_state(values, cfg).e2_prev)
        cache = forward_pass(values, p, cfg, init)
        assert np.isnan(cache.sigma2[0]).all() and np.isfinite(cache.sigma2[1]).all()
        assert np.array_equal(cache.sigma2, loop_variances(p, cfg, init, cache.he),
                              equal_nan=True)

    @pytest.mark.parametrize("case", [
        *(functools.partial(live_node_case, n, k, kept)
          for n, k in [(4, 4), (2, 3)] for kept in KEPT_LIVE),
        functools.partial(live_node_case, 1, 1), overflow_case])
    def test_generated_loop_matches_every_node_loop(self, case):
        """The loop generated for each count of live tanh nodes, 0 to 3,
        gives the variances of the loop over every node bit for bit, NaN
        and inf included, and is generated once per count."""
        values, p, cfg = case()
        init = initial_state(values, cfg)
        cache = forward_pass(values, p, cfg, init)
        assert np.array_equal(cache.sigma2, loop_variances(p, cfg, init, cache.he),
                              equal_nan=True)
        positive = cache.sigma2 > 1.0 + time_major_reference.EPS
        assert np.isnan(cache.sigma2).all() or (positive.any() and not positive.all())
        for n_nodes in range(4):
            assert _variance_recursion(n_nodes) is _variance_recursion(n_nodes)

    @pytest.mark.parametrize("field", ["var_in_w", "var_in_b"])
    def test_skipped_node_keeps_a_nan_input(self, field):
        """A tanh node with output weight 0 still makes z NaN at every step
        through a NaN input weight or bias, so the forward pass keeps it."""
        cfg = RmdnConfig(n_components=2, k_hidden=3)
        p = init_params(cfg, 4, "pretrain")
        getattr(p, field)[cfg.k_hidden + 1] = math.nan
        values = simulate_garch(PROBE, 50, seed=5).values
        init = initial_state(values, cfg)
        cache = forward_pass(values, p, cfg, init)
        assert np.isnan(cache.sigma2).all()
        assert np.array_equal(cache.sigma2, loop_variances(p, cfg, init, cache.he),
                              equal_nan=True)

    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(SCHEMES),
           st.integers(2, 400), st.floats(-4.0, 4.0), st.integers(0, 10000))
    @settings(deadline=None, max_examples=100)
    def test_gradient_finite_where_the_loop_is(self, n, k, scheme, t_len, log_scale, seed):
        """The scan multiplies the adjoint factors of distant steps, which can
        overflow where the loop's step-by-step product does not. Over series
        scales from 1e-4 to 1e4, T past eight doubling levels and every
        trainable parameter inflated by its own factor of up to 10^1.5, the
        gradient is finite exactly where the loop's is."""
        cfg = RmdnConfig(n_components=n, k_hidden=k)
        rng = np.random.default_rng(seed)
        theta = flatten_params(init_params(cfg, seed, scheme), cfg)
        p = unflatten_params(theta * 10.0 ** rng.uniform(0.0, 1.5, theta.size), cfg)
        values = simulate_garch(PROBE, t_len, seed=seed).values * 10.0 ** log_scale
        init = initial_state(values, cfg)
        _, g = gradient(values, p, init)
        _, g_ref = time_major_reference.gradient(values, p, cfg, init)
        assert np.isfinite(g).all() == np.isfinite(g_ref).all()


def trained_past_overflow():
    """At lr 1.0 a plain run on this heavy-tailed series reaches parameters
    where one variance overflows to inf: the loss stays finite through the
    other component, the gradient does not, and ``train`` refuses the
    update."""
    values = np.random.default_rng(0).standard_t(3, 400) * 3
    cfg = RmdnConfig(2, 3)
    thetas = []
    with pytest.raises(ValueError, match="non-finite gradients"):
        train(values, init_params(cfg, 1, "plain"), cfg, TrainSchedule(0, 60, 1.0),
              callback=lambda epoch, theta, loss: thetas.append(theta))
    return values, unflatten_params(thetas[-1], cfg), cfg


def drawn_on_a_huge_series():
    """Random parameters on a GARCH path scaled to a standard deviation of
    1.7e149: the loss is finite (about 2.09e306), and its derivative in
    the variances overflows."""
    values = simulate_garch(PROBE, 64, seed=0).values
    values = values * (1.7e149 / values.std())
    cfg = RmdnConfig(2, 1)
    theta = np.random.default_rng(0).normal(0.0, 2.0, n_trainable(cfg))
    return values, unflatten_params(theta, cfg), cfg


@pytest.mark.parametrize("case", [trained_past_overflow, drawn_on_a_huge_series])
def test_finite_loss_with_non_finite_gradient_is_returned_silently(case):
    """``gradient`` returns a finite loss with a non-finite gradient
    without a warning."""
    values, p, cfg = case()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        loss, grads = gradient(values, p, initial_state(values, cfg))
    assert np.isfinite(loss) and not np.all(np.isfinite(grads))


class TestPeluDerivative:
    """``gradient`` reads pelu'(z) = min(e^z, 1) from the variances it
    leaves on its tape, not from z: it lies in [0, 1] and within 4.5e-16
    of the oracle's expm1(z) + 1 (1 where z > 0), on both branches, deep in
    the saturating one and at an infinite variance. The oracle's formula
    reads the z of the loop that gave those variances: the oracle's own
    forward pass sums the drive in another order, and e^z carries the
    rounding of its z. A NaN variance makes the loss NaN, and ``gradient``
    returns before it takes pelu' (``test_extreme_inputs_neither_raise_nor_warn``)."""

    @staticmethod
    def check(values, p, cfg):
        init = initial_state(values, cfg)
        tape = GradientTape(cfg.n_components, cfg.k_hidden, values.size)
        loss, _ = gradient(values, p, init, tape)
        assert math.isfinite(loss)
        z, sigma2 = loop_recursion(p, cfg, init, tape.he)
        assert np.array_equal(tape.sigma2, sigma2)
        dpelu = tape.dpelu
        assert np.all((0.0 <= dpelu) & (dpelu <= 1.0))
        assert np.all(np.abs(dpelu - time_major_reference.pelu_derivative(z)) <= 4.5e-16)
        return tape

    # biases down to -40 put pre-activations far below the kink, where
    # e^z is below the rounding of 1 + eps
    @given(gradient_cases(max_len=60, bias=(-40.0, 3.0), zero_tanh=True))
    @example(live_node_case(4, 4))  # both branches
    @settings(deadline=None, max_examples=40)
    def test_matches_the_oracle(self, case):
        self.check(*case)

    def test_infinite_variance(self):
        tape = self.check(*trained_past_overflow())
        assert np.isinf(tape.sigma2).any()
        assert np.all(tape.dpelu[np.isinf(tape.sigma2)] == 1.0)


class TestFiniteDiffCheck:
    def test_linear_model_passes(self):
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        series = simulate_garch(PROBE, 30, seed=10)
        report = finite_diff_check(series, init_params(cfg, 1, "plain"), cfg,
                                   initial_state(series, cfg), tol=1e-5)
        assert report.passed

    def test_full_model_passes(self):
        cfg = RmdnConfig(n_components=2, k_hidden=3)
        series = simulate_garch(PROBE, 30, seed=11)
        report = finite_diff_check(series, init_params(cfg, 2, "plain"), cfg,
                                   initial_state(series, cfg), tol=1e-5)
        assert report.passed

    def test_corrupted_gradient_fails(self):
        cfg = RmdnConfig(n_components=2, k_hidden=2)
        series = simulate_garch(PROBE, 30, seed=12)
        report = finite_diff_check(series, init_params(cfg, 3, "plain"), cfg,
                                   initial_state(series, cfg), tol=1e-5)
        # inject a +0.1 fault into one analytic entry and re-apply the metric
        bad = report.analytic.copy()
        bad[0] += 0.1
        scale = np.maximum(np.abs(bad), np.abs(report.numeric)) + 1e-3
        deviations = np.abs(bad - report.numeric) / scale
        assert np.max(deviations) > report.tol

    def test_tight_tolerance_can_fail(self):
        cfg = RmdnConfig(n_components=2, k_hidden=2)
        series = simulate_garch(PROBE, 30, seed=13)
        report = finite_diff_check(series, init_params(cfg, 4, "plain"), cfg,
                                   initial_state(series, cfg), tol=1e-12)
        # central differences carry O(1e-9) roundoff; 1e-12 is unattainable
        assert not report.passed
        assert report.max_deviation > 1e-12
