import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rmdn.garch import GarchParams, fit_garch, simulate_garch
from rmdn.gradients import GradientTape, flatten_params, gradient, nonlinear_node_mask
from rmdn.harness import arm_setup
from rmdn.mixture import nll
from rmdn.network import SCHEMES, RmdnConfig, init_params, initial_state, unroll
from rmdn.optim import (CONVERGED, NOT_CONVERGED, AdamState, TrainSchedule,
                        adam_step, classify_convergence, train)

from test_gradients import live_node_case, overflow_case
from test_network import variance_models


class TestAdam:
    def test_first_step_magnitude(self):
        # bias correction makes the first update ~ -lr * sign(g)
        state = AdamState.fresh(1, learning_rate=0.01)
        theta, _ = adam_step(np.array([1.0]), np.array([2.5]), state)
        assert theta[0] == pytest.approx(1.0 - 0.01, rel=1e-6)
        theta, _ = adam_step(np.array([1.0]), np.array([-0.3]), state)
        assert theta[0] == pytest.approx(1.0 + 0.01, rel=1e-6)

    def test_zero_gradient_fresh_state_no_move(self):
        state = AdamState.fresh(3, learning_rate=0.1)
        theta = np.array([1.0, -2.0, 0.5])
        out, new_state = adam_step(theta, np.zeros(3), state)
        np.testing.assert_array_equal(out, theta)
        assert new_state.t == 1

    def test_quadratic_descent(self):
        # 100 steps on f(x) = x^2 from x = 1 at lr 0.1
        theta = np.array([1.0])
        state = AdamState.fresh(1, learning_rate=0.1)
        for _ in range(100):
            theta, state = adam_step(theta, 2.0 * theta, state)
        assert abs(theta[0]) < 0.05

    def test_refuses_non_finite_gradients(self):
        state = AdamState.fresh(2, learning_rate=0.01)
        with pytest.raises(ValueError):
            adam_step(np.zeros(2), np.array([1.0, math.nan]), state)

    def test_mismatched_lengths_rejected(self):
        state = AdamState.fresh(2, learning_rate=0.01)
        with pytest.raises(ValueError, match="does not match parameter length"):
            adam_step(np.zeros(2), np.zeros(3), state)

    def test_functional_update_leaves_inputs_alone(self):
        state = AdamState.fresh(1, learning_rate=0.01)
        theta = np.array([1.0])
        adam_step(theta, np.array([1.0]), state)
        assert theta[0] == 1.0 and state.t == 0 and state.m[0] == 0.0


class TestClassify:
    def test_nan_not_converged(self):
        assert classify_convergence(math.nan) == NOT_CONVERGED

    def test_unreasonable_not_converged(self):
        assert classify_convergence(-150000.0) == NOT_CONVERGED

    def test_reasonable_converged(self):
        assert classify_convergence(-2000.0) == CONVERGED

    def test_boundary_is_strict(self):
        assert classify_convergence(-100000.0) == CONVERGED
        assert classify_convergence(-100000.0 - 1e-9) == NOT_CONVERGED


class TestSchedule:
    def test_defaults(self):
        sched = TrainSchedule()
        assert sched.pretrain_epochs == 20
        assert sched.train_epochs == 300
        assert sched.learning_rate == 0.01

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainSchedule(pretrain_epochs=-1)
        with pytest.raises(ValueError):
            TrainSchedule(train_epochs=0)
        with pytest.raises(ValueError):
            TrainSchedule(learning_rate=0.0)


PROBE = GarchParams(0.0, 0.0, 0.05, 0.10, 0.85)


class TestTrain:
    def test_zero_pretrain_is_plain_training(self):
        series = simulate_garch(PROBE, 100, seed=1)
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        p = init_params(cfg, 2, "plain")
        sched = TrainSchedule(0, 10, 0.01)
        with_mask = train(series, p, cfg, sched, mask=nonlinear_node_mask(cfg))
        without = train(series, p, cfg, sched, mask=None)
        np.testing.assert_array_equal(with_mask.loss_trace, without.loss_trace)

    def test_deterministic(self):
        series = simulate_garch(PROBE, 120, seed=2)
        cfg = RmdnConfig()
        p = init_params(cfg, 3, "pretrain")
        sched = TrainSchedule(5, 10, 0.01)
        mask = nonlinear_node_mask(cfg)
        a = train(series, p, cfg, sched, mask=mask)
        b = train(series, p, cfg, sched, mask=mask)
        assert a.loss_trace == b.loss_trace
        assert a.final_loglik == b.final_loglik
        np.testing.assert_array_equal(
            flatten_params(a.final_params, cfg), flatten_params(b.final_params, cfg)
        )

    def test_masked_parameters_frozen_during_pretraining(self):
        # plain init gives the tanh nodes nonzero parameters, so any leak
        # through the mask would move them
        series = simulate_garch(PROBE, 150, seed=3)
        cfg = RmdnConfig()
        p = init_params(cfg, 4, "plain")
        mask = nonlinear_node_mask(cfg)
        theta0 = flatten_params(p, cfg)
        snapshots = []
        train(series, p, cfg, TrainSchedule(8, 1, 0.01), mask=mask,
              callback=lambda e, th, l: snapshots.append(th))
        for epoch, theta in enumerate(snapshots[:8]):
            assert np.array_equal(theta[mask], theta0[mask]), f"epoch {epoch}"
        # the final full epoch must move at least one tanh parameter
        assert not np.array_equal(snapshots[-1][mask], theta0[mask])

    def test_pretrain_init_zero_point_is_stationary_for_tanh_nodes(self):
        """With both sides of every tanh path initialized to exactly zero,
        those coordinates have exactly zero gradient and stay at zero through
        the full phase as well (the zero configuration is a stationary point
        of the tanh subspace)."""
        series = simulate_garch(PROBE, 150, seed=3)
        cfg = RmdnConfig()
        p = init_params(cfg, 4, "pretrain")
        mask = nonlinear_node_mask(cfg)
        rep = train(series, p, cfg, TrainSchedule(5, 20, 0.01), mask=mask)
        final = flatten_params(rep.final_params, cfg)
        assert np.all(final[mask] == 0.0)

    def test_pretrain_trace_matches_structurally_linear_model(self):
        series = simulate_garch(PROBE, 200, seed=4)
        cfg3 = RmdnConfig(n_components=2, k_hidden=3)
        cfg1 = RmdnConfig(n_components=2, k_hidden=1)
        sched = TrainSchedule(10, 1, 0.01)
        rep3 = train(series, init_params(cfg3, 5, "pretrain"), cfg3, sched,
                     mask=nonlinear_node_mask(cfg3))
        rep1 = train(series, init_params(cfg1, 5, "pretrain"), cfg1, sched,
                     mask=nonlinear_node_mask(cfg1))
        diffs = np.abs(np.array(rep3.loss_trace[:10]) - np.array(rep1.loss_trace[:10]))
        assert np.max(diffs) < 1e-12 * max(abs(rep1.loss_trace[0]), 1.0)

    def test_linear_model_reaches_garch_mle_likelihood(self):
        """Trained to convergence, the linear-only single-component model
        matches the GARCH maximum likelihood within 0.5%. The large variance
        scale keeps the output unit on its linear branch, where the model
        class contains the GARCH optimum exactly."""
        gp = GarchParams(0.1, 0.1, 2.0, 0.10, 0.80)
        series = simulate_garch(gp, 400, seed=9)
        _, garch_ll = fit_garch(series)
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        rep = train(series, init_params(cfg, 3, "pretrain"), cfg,
                    TrainSchedule(0, 800, 0.02))
        assert rep.status == CONVERGED
        assert abs(rep.final_loglik - garch_ll) / abs(garch_ll) < 0.005

    def test_divergence_stops_early_and_is_classified(self):
        series = simulate_garch(PROBE, 50, seed=6)
        cfg = RmdnConfig(n_components=1, k_hidden=1)
        p = init_params(cfg, 7, "pretrain")
        p.var_out_w[0, :] = 1e200  # overflow on the first forward pass
        rep = train(series, p, cfg, TrainSchedule(0, 10, 0.01))
        assert rep.status == NOT_CONVERGED
        assert rep.epochs_completed == 0
        assert len(rep.loss_trace) == 1
        assert math.isnan(rep.final_loglik)

    @pytest.mark.parametrize("arm", ["pretrained", "plain"])
    def test_trace_length_and_final_loglik_consistency(self, arm):
        series = simulate_garch(PROBE, 80, seed=8)
        cfg = RmdnConfig(n_components=1, k_hidden=2)
        params, mask, sched = arm_setup(arm, cfg, TrainSchedule(3, 7, 0.01), 9)
        rep = train(series, params, cfg, sched, mask=mask)
        assert len(rep.loss_trace) == sched.total_epochs
        assert rep.epochs_completed == sched.total_epochs
        assert rep.status == classify_convergence(rep.final_loglik)
        # training reduced the loss and the final value reflects the final params
        assert rep.loss_trace[-1] < rep.loss_trace[0]
        assert -rep.final_loglik <= rep.loss_trace[-1]
        # scored on the run's tape, bit for bit the scoring pass's value
        path, _ = unroll(series, rep.final_params, cfg, initial_state(series, cfg))
        assert rep.final_loglik == -nll(series, path)

    def test_pretrain_phase_loss_is_monotone_on_average(self):
        """10-epoch moving average of the masked-phase trace is non-increasing
        on simulated GARCH data at the default learning rate."""
        series = simulate_garch(PROBE, 300, seed=10)
        cfg = RmdnConfig()
        rep = train(series, init_params(cfg, 11, "pretrain"), cfg,
                    TrainSchedule(30, 1, 0.01), mask=nonlinear_node_mask(cfg))
        trace = np.array(rep.loss_trace[:30])
        moving = np.convolve(trace, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(moving) <= 1e-9)


def other_model(values, cfg, scheme, seed):
    """A model and series of the shape of ``values`` and ``cfg``, drawn
    from ``seed``: what a tape may hold from an earlier call."""
    p = init_params(cfg, seed, scheme)
    p.var_out_b[:] = np.random.default_rng(seed).uniform(-3.0, 3.0, cfg.n_components)
    return simulate_garch(PROBE, values.size, seed=seed).values, p


class TestGradientTape:
    @given(variance_models(), st.sampled_from(SCHEMES), st.integers(0, 50000))
    @example(overflow_case(), "pretrain", 1)
    @example(live_node_case(1, 1), "plain", 2)  # K = 1: dtanh_s has no rows
    @example((simulate_garch(PROBE, 200, seed=3).values, init_params(RmdnConfig(2, 3), 5, "plain"),
              RmdnConfig(2, 3)), "plain", 3)
    @settings(deadline=None, max_examples=60)
    def test_reused_tape_changes_nothing(self, model, scheme, seed):
        """``gradient`` on a tape last filled by another model and series of
        the same shape, the last of those calls with a non-finite loss, gives
        the loss and gradient of a fresh tape bit for bit. So does a tape
        whose every array holds NaN: no cell is read before this call writes
        it, the ones written only on some calls included (a[:, -1],
        gmu_bar[-1], e2_prev[0]). So does a tape
        reused after the series array it last saw changed in place."""
        values, p, cfg = model
        init = initial_state(values, cfg)
        loss, grads = gradient(values, p, init)

        tape = GradientTape(cfg.n_components, cfg.k_hidden, values.size)
        other, q = other_model(values, cfg, scheme, seed)
        gradient(other, q, initial_state(other, cfg), tape)
        broken = other.copy()
        broken[-1] = math.nan
        assert math.isnan(gradient(broken, q, initial_state(broken, cfg), tape)[0])
        # the poisoned tape meets the same series array it last saw
        for trial in ("refilled", "poisoned"):
            reused_loss, reused = gradient(values, p, init, tape)
            assert np.array_equal(reused_loss, loss, equal_nan=True), trial
            assert np.array_equal(reused, grads, equal_nan=True), trial
            # every array; the field views of tape.grad alias it, so they are poisoned too
            for arr in vars(tape).values():
                if isinstance(arr, np.ndarray):
                    arr.fill(math.nan)

        # and meets it once more after it changed in place
        values *= 2.0
        init = initial_state(values, cfg)
        reused_loss, reused = gradient(values, p, init, tape)
        fresh_loss, fresh = gradient(values, p, init)
        assert np.array_equal(reused_loss, fresh_loss, equal_nan=True), "changed in place"
        assert np.array_equal(reused, fresh, equal_nan=True), "changed in place"

    @given(st.integers(1, 4), st.integers(1, 4), st.sampled_from(SCHEMES),
           st.sampled_from([1000, 2000]), st.integers(0, 50000))
    @example(2, 3, "pretrain", 1000, 0)
    @example(4, 4, "plain", 1000, 0)
    @example(1, 1, "pretrain", 1000, 0)
    @example(3, 2, "plain", 2000, 0)
    @settings(deadline=None, max_examples=20)
    def test_epoch_on_a_reused_tape_allocates_little(self, n, k, scheme, t_len, seed):
        """One gradient call on a reused tape allocates at most 10 N T
        floats at a time: temporaries of single expressions, not one array
        per intermediate."""
        cfg = RmdnConfig(n_components=n, k_hidden=k)
        values = simulate_garch(PROBE, t_len, seed=seed).values
        p, init = init_params(cfg, seed, scheme), initial_state(values, cfg)
        tape = GradientTape(n, k, t_len)
        gradient(values, p, init, tape)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            gradient(values, p, init, tape)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - start <= 10 * n * t_len * 8, f"{(peak - start) / (8 * n * t_len):.1f} N T"
