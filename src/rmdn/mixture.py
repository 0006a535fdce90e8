"""Gaussian mixture steps and the log-space likelihood objective.

A :class:`MixtureStep` holds the parameters of a one-dimensional Gaussian
mixture

    p(r) = sum_i eta_i * phi(r; mu_i, sigma2_i)

used as the conditional density of a return series at one forecast origin;
a :class:`MixturePath` holds them for a whole series as (T, N) arrays. The
per-observation log density is evaluated as

    log p(r) = logsumexp_i [ log eta_i - 0.5*log(2*pi)
                             - 0.5*log(sigma2_i) - 0.5*(r - mu_i)^2 / sigma2_i ]

so that far-tail observations underflow gracefully instead of rounding the
density to zero; ``log_joint`` evaluates it for every likelihood, over
component-major (N, T) arrays, and hands the gradient the residuals
r - mu_i and their squares; ``log_density`` restates it for one step, as
the tests' oracle. NaN values are propagated, never trapped: a diverged
model produces a NaN likelihood, which downstream convergence classification
treats as data.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

LOG_2PI = math.log(2.0 * math.pi)


def _as_values(series) -> np.ndarray:
    """Accept a ReturnSeries or any array-like of returns."""
    return np.asarray(getattr(series, "values", series), dtype=float)


def logsumexp(values) -> float:
    """log(sum_i exp(v_i)) computed with the max-shift trick.

    Never overflows for finite inputs of any magnitude; NaN inputs propagate
    to a NaN result. Raises ValueError on an empty input.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise ValueError("logsumexp of an empty sequence")
    m = float(np.max(v))
    if math.isnan(m):
        return math.nan
    if math.isinf(m):
        # all -inf -> log 0 = -inf; any +inf dominates
        return m
    return m + math.log(float(np.sum(np.exp(v - m))))


@dataclass
class MixtureStep:
    """Mixture parameters (weights, means, variances) for one time step."""

    eta: np.ndarray
    mu: np.ndarray
    sigma2: np.ndarray

    def __post_init__(self):
        self.eta = np.atleast_1d(np.asarray(self.eta, dtype=float))
        self.mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        self.sigma2 = np.atleast_1d(np.asarray(self.sigma2, dtype=float))
        if not (self.eta.shape == self.mu.shape == self.sigma2.shape):
            raise ValueError("eta, mu and sigma2 must have the same length")

    @property
    def valid(self) -> bool:
        """True when every field is finite. NaN/inf steps are kept, flagged invalid."""
        return bool(
            np.all(np.isfinite(self.eta))
            and np.all(np.isfinite(self.mu))
            and np.all(np.isfinite(self.sigma2))
        )


class MixturePath(Sequence):
    """Mixture parameters over a series as (T, N) arrays ``eta``, ``mu`` and
    ``sigma2``; row t is the mixture for observation t, and ``path[t]``
    (negative t too) a MixtureStep over views of that row.
    """

    def __init__(self, eta, mu, sigma2):
        self.eta, self.mu, self.sigma2 = (np.asarray(a, dtype=float) for a in (eta, mu, sigma2))
        if not (self.eta.ndim == 2 and self.eta.shape == self.mu.shape == self.sigma2.shape):
            raise ValueError("eta, mu and sigma2 must be (T, N) arrays of one shape")

    @classmethod
    def of(cls, steps) -> "MixturePath":
        """Stack a non-empty sequence of steps, which must have equal component
        counts (else ValueError); a MixturePath is returned as it is."""
        if isinstance(steps, cls):
            return steps
        return cls(*(np.stack([getattr(s, f) for s in steps]) for f in ("eta", "mu", "sigma2")))

    def __len__(self) -> int:
        return self.eta.shape[0]

    def __getitem__(self, t) -> MixtureStep:
        t = operator.index(t)
        return MixtureStep(self.eta[t], self.mu[t], self.sigma2[t])


def log_density(r: float, step: MixtureStep) -> float:
    """Log of the mixture density at r; the per-step oracle of ``log_joint``.

    Raises ValueError when a component variance is non-positive, which
    signals an upstream activation failure; NaN fields propagate to a NaN
    result instead.
    """
    if np.any(step.sigma2 <= 0.0):
        raise ValueError("non-positive component variance")
    return logsumexp(np.log(step.eta) - 0.5 * LOG_2PI - 0.5 * np.log(step.sigma2)
                     - 0.5 * (r - step.mu) ** 2 / step.sigma2)


def nll(series, steps) -> float:
    """Negative log-likelihood sum_t -log p(r_t | step_t) under a MixturePath
    or a sequence of steps, evaluated by ``log_joint``. Raises ValueError on a
    length mismatch, unequal component counts or a non-positive variance; NaN
    summands propagate, so divergence is observable. An empty series scores 0.
    """
    values = _as_values(series)
    if len(steps) != values.size:
        raise ValueError(f"length mismatch: {values.size} observations vs {len(steps)} steps")
    if values.size == 0:
        return 0.0
    path = MixturePath.of(steps)
    if np.any(path.sigma2 <= 0.0):
        raise ValueError("non-positive component variance")
    return nll_arrays(values, path.eta.T, path.mu.T, path.sigma2.T)


def log_joint(values: np.ndarray, eta: np.ndarray, mu: np.ndarray, sigma2: np.ndarray,
              d: np.ndarray | None = None,
              d2: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Log-space terms of the likelihood over (N, T) mixture parameter arrays.

    Returns q with q[i, t] = log(eta_i * phi(r_t; mu_i, sigma2_i)) and lse
    with lse[t] = logsumexp_i q[i, t] = log p(r_t), max-shifted per step. A
    step whose maximum is not finite keeps that maximum (-inf when every
    component underflows, NaN when one is NaN). The residuals r_t - mu_i,t
    and their squares are written into ``d`` and ``d2`` if given.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = (np.log(eta) - 0.5 * LOG_2PI - 0.5 * np.log(sigma2)
             - 0.5 * np.square(np.subtract(values, mu, out=d), out=d2) / sigma2)
        m = np.max(q, axis=0)
        shift = np.where(np.isfinite(m), m, 0.0)
        lse = shift + np.log(np.sum(np.exp(q - shift), axis=0))
        lse = np.where(np.isfinite(m), lse, m)
    return q, lse


def nll_arrays(values: np.ndarray, eta: np.ndarray, mu: np.ndarray, sigma2: np.ndarray) -> float:
    """Vectorized negative log-likelihood over (N, T) mixture parameter arrays."""
    _, lse = log_joint(values, eta, mu, sigma2)
    with np.errstate(invalid="ignore", over="ignore"):
        return float(-np.sum(lse))
