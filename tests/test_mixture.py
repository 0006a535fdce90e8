import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rmdn.mixture import (MixturePath, MixtureStep, log_density, logsumexp, nll,
                          nll_arrays)


def gaussian_pdf(x, mu, var):
    """Direct density formula, the independent oracle for the log-space path."""
    return math.exp(-0.5 * (x - mu) ** 2 / var) / math.sqrt(2.0 * math.pi * var)


def random_step(rng, n):
    eta = rng.uniform(0.2, 1.0, n)
    eta /= eta.sum()
    return MixtureStep(eta, rng.normal(0, 1, n), rng.uniform(0.2, 3.0, n))


class TestLogsumexp:
    def test_two_equal_terms(self):
        assert logsumexp([0.0, 0.0]) == pytest.approx(math.log(2.0), abs=1e-12)

    @pytest.mark.parametrize("x", [-3.7, 0.0, 12.5, 700.0, -700.0])
    def test_singleton_identity(self, x):
        assert logsumexp([x]) == pytest.approx(x, abs=1e-12)

    def test_large_magnitude_no_overflow(self):
        # the naive form exp(1000) overflows float64
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2.0))
        assert math.isfinite(logsumexp([1e6, 1e6 - 1.0]))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            logsumexp([])

    def test_nan_propagates(self):
        assert math.isnan(logsumexp([0.0, math.nan]))

    def test_all_minus_inf(self):
        assert logsumexp([-math.inf, -math.inf]) == -math.inf

    @given(st.lists(st.floats(-500.0, 500.0), min_size=1, max_size=8))
    @settings(deadline=None)
    def test_matches_naive_sum(self, values):
        naive = math.log(sum(math.exp(v) for v in values))
        assert logsumexp(values) == pytest.approx(naive, rel=1e-12, abs=1e-12)

    @given(
        st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=8),
        st.floats(-1e5, 1e5),
    )
    @settings(deadline=None)
    def test_shift_equivariance(self, values, c):
        shifted = [v + c for v in values]
        assert logsumexp(shifted) == pytest.approx(logsumexp(values) + c, rel=1e-12, abs=1e-9)


class TestLogDensity:
    def test_standard_normal_at_zero(self):
        step = MixtureStep([1.0], [0.0], [1.0])
        assert log_density(0.0, step) == pytest.approx(-0.5 * math.log(2 * math.pi), abs=1e-12)

    def test_duplicate_components_collapse(self):
        one = MixtureStep([1.0], [0.0], [1.0])
        two = MixtureStep([0.5, 0.5], [0.0, 0.0], [1.0, 1.0])
        assert log_density(0.0, two) == pytest.approx(log_density(0.0, one), abs=1e-12)

    def test_two_scale_mixture_against_direct_formula(self):
        step = MixtureStep([0.5, 0.5], [0.0, 0.0], [1.0, 4.0])
        expected = math.log(0.5 * gaussian_pdf(0, 0, 1) + 0.5 * gaussian_pdf(0, 0, 4))
        assert log_density(0.0, step) == pytest.approx(expected, rel=1e-12)

    def test_nonpositive_variance_raises(self):
        with pytest.raises(ValueError):
            log_density(0.0, MixtureStep([1.0], [0.0], [0.0]))
        with pytest.raises(ValueError):
            log_density(0.0, MixtureStep([0.5, 0.5], [0.0, 0.0], [1.0, -1.0]))

    def test_component_permutation_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            step = random_step(rng, 3)
            perm = rng.permutation(3)
            permuted = MixtureStep(step.eta[perm], step.mu[perm], step.sigma2[perm])
            r = float(rng.normal())
            assert log_density(r, permuted) == pytest.approx(log_density(r, step), rel=1e-12)


class TestNll:
    def test_single_term_reduction(self):
        rng = np.random.default_rng(2)
        step = random_step(rng, 2)
        r = 0.37
        assert nll([r], [step]) == pytest.approx(-log_density(r, step), abs=1e-12)

    def test_iid_standard_normal_zeros(self):
        steps = [MixtureStep([1.0], [0.0], [1.0]) for _ in range(10)]
        expected = 10 * 0.5 * math.log(2 * math.pi)
        assert nll(np.zeros(10), steps) == pytest.approx(expected, rel=1e-12)

    def test_matches_naive_double_loop(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 5)
        steps = [random_step(rng, 3) for _ in range(5)]
        naive = 0.0
        for r, step in zip(values, steps):
            dens = sum(
                e * gaussian_pdf(r, m, v)
                for e, m, v in zip(step.eta, step.mu, step.sigma2)
            )
            naive -= math.log(dens)
        assert nll(values, steps) == pytest.approx(naive, abs=1e-10)

    def test_length_mismatch_raises(self):
        step = MixtureStep([1.0], [0.0], [1.0])
        with pytest.raises(ValueError):
            nll([0.0, 1.0], [step])

    def test_nan_propagates_not_raises(self):
        steps = [MixtureStep([1.0], [0.0], [1.0]), MixtureStep([1.0], [math.nan], [1.0])]
        assert math.isnan(nll([0.0, 0.0], steps))

    def test_nll_arrays_matches_step_path(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, 8)
        steps = [random_step(rng, 2) for _ in range(8)]
        # nll_arrays reads component-major (N, T) arrays
        eta = np.array([s.eta for s in steps]).T
        mu = np.array([s.mu for s in steps]).T
        s2 = np.array([s.sigma2 for s in steps]).T
        by_step = -sum(log_density(r, s) for r, s in zip(values, steps))
        assert nll_arrays(values, eta, mu, s2) == pytest.approx(by_step, rel=1e-13)
        assert nll_arrays(values, eta, mu, s2) == pytest.approx(nll(values, steps), rel=1e-13)


def as_path(steps, n=1):
    """The same steps as a MixturePath; no steps make a (0, n) path."""
    return MixturePath.of(steps) if steps else MixturePath(*np.empty((3, 0, n)))


@st.composite
def scored_steps(draw):
    """N in 1..4 and T in 1..50. Variances of at least 0.2 > 1/(2*pi) make
    every log density negative, so the sum has no cancellation and a
    reordered float64 sum stays within about T*eps relative."""
    n, t = draw(st.integers(1, 4)), draw(st.integers(1, 50))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(0, 2, t), [random_step(rng, n) for _ in range(t)]


@pytest.mark.parametrize("kind", [list, as_path])
class TestNllContract:
    """nll takes a list of steps or a MixturePath and keeps one contract."""

    def test_length_mismatch_raises(self, kind):
        with pytest.raises(ValueError, match="length mismatch"):
            nll([0.0, 1.0], kind([MixtureStep([1.0], [0.0], [1.0])]))

    @pytest.mark.parametrize("bad", [0.0, -1.0])
    @pytest.mark.parametrize("at", [0, 2])
    def test_nonpositive_variance_raises_despite_a_nan_step(self, kind, bad, at):
        steps = [MixtureStep([0.5, 0.5], [0.0, 0.0], [1.0, 2.0]) for _ in range(3)]
        steps[1].mu[0] = math.nan
        steps[at].sigma2[1] = bad
        with pytest.raises(ValueError, match="non-positive component variance"):
            nll(np.zeros(3), kind(steps))

    def test_nan_propagates(self, kind):
        steps = [MixtureStep([1.0], [0.0], [1.0]), MixtureStep([1.0], [0.0], [math.nan])]
        assert math.isnan(nll([0.0, 0.0], kind(steps)))

    def test_empty_series_scores_zero(self, kind):
        assert nll([], kind([])) == 0.0


class TestNllInputs:
    def test_unequal_component_counts_raise(self):
        steps = [MixtureStep([1.0], [0.0], [1.0]), MixtureStep([0.5, 0.5], [0.0, 0.0], [1.0, 1.0])]
        with pytest.raises(ValueError):
            nll([0.0, 0.0], steps)

    @given(scored_steps())
    @settings(deadline=None, max_examples=60)
    def test_list_and_path_match_the_per_step_oracle(self, case):
        values, steps = case
        oracle = -math.fsum(log_density(r, step) for r, step in zip(values, steps))
        assert nll(values, steps) == nll(values, MixturePath.of(steps))
        assert nll(values, steps) == pytest.approx(oracle, rel=1e-13)


class TestMixturePath:
    def test_indexing_gives_views_of_rows(self):
        rng = np.random.default_rng(6)
        eta, mu, s2 = rng.uniform(0.1, 1.0, (3, 5, 2))
        path = MixturePath(eta, mu, s2)
        assert len(path) == 5
        for t in (0, 3, -1, -5):
            step = path[t]
            assert np.array_equal(step.eta, eta[t]) and np.array_equal(step.mu, mu[t])
            assert np.array_equal(step.sigma2, s2[t])
        path[-1].sigma2[0] = 7.0
        assert s2[4, 0] == 7.0
        assert [np.array_equal(step.mu, row) for step, row in zip(path, mu)] == [True] * 5

    def test_out_of_range_and_non_integer_indices_raise(self):
        path = MixturePath(*np.ones((3, 2, 1)))
        with pytest.raises(IndexError):
            path[2]
        with pytest.raises(IndexError):
            path[-3]
        with pytest.raises(TypeError):
            path[0:1]

    def test_of_stacks_steps_and_passes_a_path_through(self):
        rng = np.random.default_rng(7)
        steps = [random_step(rng, 3) for _ in range(4)]
        path = MixturePath.of(steps)
        assert path.eta.shape == (4, 3)
        assert np.array_equal(path.sigma2, np.array([s.sigma2 for s in steps]))
        assert MixturePath.of(path) is path

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MixturePath(np.ones((2, 2)), np.ones((2, 1)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            MixturePath(np.ones(2), np.ones(2), np.ones(2))


class TestStepInvariants:
    def test_valid_flag(self):
        assert MixtureStep([1.0], [0.0], [1.0]).valid
        assert not MixtureStep([1.0], [math.nan], [1.0]).valid
        assert not MixtureStep([1.0], [0.0], [math.inf]).valid

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            MixtureStep([0.5, 0.5], [0.0], [1.0, 1.0])
