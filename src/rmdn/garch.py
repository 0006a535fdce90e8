"""AR(1)-GARCH(1,1) with Gaussian innovations: filter, likelihood, MLE, simulation.

Model:
    r_{t+1}      = mu_{t+1} + sigma_{t+1} * z_{t+1},   z ~ N(0, 1)
    mu_{t+1}     = a0 + a1 * r_t
    sigma2_{t+1} = alpha0 + alpha1 * e2_t + beta1 * sigma2_t,  e_t = r_t - mu_t

Presample conventions (shared with the network module so the nested models
agree step by step, and computed by ``network.presample_variances`` and
``network.lagged``): r_0 = 0, e2_0 = population variance of the series,
sigma2_0 = the same (1.0 for a constant series). The first filtered pair is
therefore mu_1 = a0 and sigma2_1 = alpha0 + alpha1*e2_0 + beta1*sigma2_0.
``fit_garch`` takes the same presample pair.

The filter and the likelihood gradient run one recursion over raw
coefficients, ``_recursion``, with the variance recursion solved as a lower
bidiagonal linear system by one BLAS banded triangular solve; the gradient's
adjoint recursion is the transposed solve on the same band.
Fitting runs bounded L-BFGS-B from several variance-targeted starts on the
unconstrained theta = (a0 / sqrt(e2_0), a1, log alpha0, logit p, logit s) with
(alpha1, beta1) = (p*s, p*(1-s)), which enforces alpha1 + beta1 < 1; a0 in
units of sqrt(e2_0) keeps the fit independent of the scale of the series.
The gradient is the exact adjoint of the variance recursion.

Only this baseline needs scipy, so every scipy module is imported on first
use, in the functions that call it: importing ``rmdn``, training and scoring
the network and checking its gradient never load scipy. The filter and the
likelihood load ``scipy.linalg``'s BLAS wrappers, the fit also
``scipy.optimize`` and ``scipy.special``; no path loads ``scipy.signal`` or
``scipy.stats``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .mixture import LOG_2PI, _as_values
from .network import lagged, presample_variances
from .optim import adam_step  # noqa: F401 -- unused here; perfbench's tracer wraps rmdn.garch.adam_step

# fit_garch's (alpha1, beta1) starts: on non-GARCH data the likelihood has local
# optima at high and at low persistence, and at alpha1 = 0 with the variance
# drifting from its presample value
_FIT_STARTS = ((0.05, 0.90), (0.03, 0.96), (0.10, 0.40), (0.001, 0.90))
# |logit| <= 30 keeps expit below 1, so alpha1 + beta1 < 1 holds in float64
_FIT_LOGIT_BOUNDS = (-30.0, 30.0)
_FIT_OPTIONS = {"ftol": 1e-12, "gtol": 1e-8, "maxiter": 500}


class GarchFitError(RuntimeError):
    """Raised when maximum-likelihood estimation cannot produce a finite fit."""


@dataclass(frozen=True)
class GarchParams:
    """AR(1)-GARCH(1,1) coefficients with stationarity enforced."""

    a0: float
    a1: float
    alpha0: float
    alpha1: float
    beta1: float

    def __post_init__(self):
        if not self.alpha0 > 0:
            raise ValueError("alpha0 must be positive")
        if self.alpha1 < 0 or self.beta1 < 0:
            raise ValueError("alpha1 and beta1 must be non-negative")
        if not self.alpha1 + self.beta1 < 1:
            raise ValueError("stationarity requires alpha1 + beta1 < 1")

    @property
    def unconditional_variance(self) -> float:
        return self.alpha0 / (1.0 - self.alpha1 - self.beta1)


def _recursion(values: np.ndarray, a0: float, a1: float, alpha0: float, alpha1: float,
               beta1: float, init_var: float, e2_0: float) -> tuple[np.ndarray, ...]:
    """The AR(1)-GARCH(1,1) recursion over raw coefficients: the lagged
    returns, means, residuals, squared residuals, lagged squared residuals
    and conditional variances, each (T,), and the band of the variance
    system, which the adjoint solves transposed.

    The variances solve (I - beta1 S) sigma2 = x, S the shift down one step
    and x_t = alpha0 + alpha1 * e2_{t-1}, with beta1 * init_var added to x_0.
    The band holds the system in LAPACK's lower band storage, Fortran-ordered
    so BLAS reads it in place: row 0 the unit diagonal, which ``diag=1``
    leaves unread, row 1 the subdiagonal -beta1."""
    from scipy.linalg.blas import dtbsv

    r_prev = lagged(0.0, values)
    mu = a0 + a1 * r_prev
    e = values - mu
    e2 = e * e
    e2_prev = lagged(e2_0, e2)
    x = alpha0 + alpha1 * e2_prev
    x[0] += beta1 * init_var
    band = np.empty((2, values.size), order="F")
    band[0] = 1.0
    band[1] = -beta1
    sigma2 = dtbsv(1, band, x, lower=1, diag=1, overwrite_x=1)
    return r_prev, mu, e, e2, e2_prev, sigma2, band


def _filtered(series, params: GarchParams) -> tuple[np.ndarray, ...]:
    """``_recursion`` over ``series`` with the coefficients of ``params``."""
    values = _as_values(series)
    return _recursion(values, params.a0, params.a1, params.alpha0, params.alpha1,
                      params.beta1, *presample_variances(values))


def garch_filter(series, params: GarchParams) -> tuple[np.ndarray, np.ndarray]:
    """Conditional means and variances for each observation, from the
    presample pair of ``presample_variances``."""
    _, mu, _, _, _, sigma2, _ = _filtered(series, params)
    return mu, sigma2


def _gaussian_nll(e2: np.ndarray, sigma2: np.ndarray) -> tuple[float, np.ndarray]:
    """sum_t 0.5*(log 2pi + log sigma2_t + e2_t * inv_s2_t), and inv_s2 = 1 / sigma2."""
    inv_s2 = 1.0 / sigma2
    return float(0.5 * np.sum(LOG_2PI + np.log(sigma2) + e2 * inv_s2)), inv_s2


def garch_nll(series, params: GarchParams) -> float:
    """Negative log-likelihood sum_t 0.5*(log 2pi + log sigma2_t + e2_t/sigma2_t)."""
    _, _, _, e2, _, sigma2, _ = _filtered(series, params)
    return _gaussian_nll(e2, sigma2)[0]


def _unconstrain(params: GarchParams, e2_0: float) -> np.ndarray:
    from scipy.special import logit

    p = params.alpha1 + params.beta1
    s = params.alpha1 / p if p > 0 else 0.5
    return np.array([params.a0 / math.sqrt(e2_0), params.a1, math.log(params.alpha0),
                     logit(p), logit(s)])


def _coefficients(theta: np.ndarray, e2_0: float) -> tuple[tuple[float, ...], float, float]:
    """(a0, a1, alpha0, alpha1, beta1) of ``theta``, and its logistic p and s."""
    from scipy.special import expit

    a0_unit, a1, t0, tp, ts = (float(v) for v in theta)
    p, s = float(expit(tp)), float(expit(ts))
    return (a0_unit * math.sqrt(e2_0), a1, math.exp(t0), p * s, p * (1.0 - s)), p, s


def _constrain(theta: np.ndarray, e2_0: float) -> GarchParams:
    return GarchParams(*_coefficients(theta, e2_0)[0])


def _nll_grad_unconstrained(theta: np.ndarray, values: np.ndarray,
                            init_var: float, e2_0: float) -> tuple[float, np.ndarray]:
    """Exact NLL and gradient on the unconstrained scale via the adjoint of
    the variance recursion."""
    from scipy.linalg.blas import dtbsv

    (a0, a1, alpha0, alpha1, beta1), p, s = _coefficients(theta, e2_0)
    r_prev, _, e, e2, e2_prev, sigma2, band = _recursion(values, a0, a1, alpha0, alpha1,
                                                         beta1, init_var, e2_0)

    loss, inv_s2 = _gaussian_nll(e2, sigma2)
    if not np.isfinite(loss):
        return loss, np.full(5, np.nan)

    d_s2 = 0.5 * (inv_s2 - e2 * inv_s2 * inv_s2)
    # total adjoint: g_t = d_t + beta1 * g_{t+1}, the transposed system
    g_s2 = dtbsv(1, band, d_s2, lower=1, trans=1, diag=1, overwrite_x=1)

    # e2_t drives sigma2_{t+1}; the last one drives nothing
    ge2 = 0.5 * inv_s2
    ge2[:-1] += alpha1 * g_s2[1:]
    gmu = -2.0 * e * ge2
    ga0 = float(np.sum(gmu)) * math.sqrt(e2_0)
    ga1 = float(np.sum(gmu * r_prev))
    galpha0 = float(np.sum(g_s2))
    galpha1 = float(np.sum(g_s2 * e2_prev))
    gbeta1 = float(np.sum(g_s2 * lagged(init_var, sigma2)))

    gt0 = galpha0 * alpha0
    gtp = (galpha1 * s + gbeta1 * (1.0 - s)) * p * (1.0 - p)
    gts = (galpha1 - gbeta1) * p * s * (1.0 - s)
    return loss, np.array([ga0, ga1, gt0, gtp, gts])


def fit_garch(series) -> tuple[GarchParams, float]:
    """Constrained MLE by bounded L-BFGS-B on the unconstrained scale.

    Minimizes from each variance-targeted start in ``_FIT_STARTS`` (a0 =
    sample mean, a1 = 0, alpha0 = (1 - alpha1 - beta1) * e2_0) and returns
    the best finite end point. Bounds: a0 within the range of the series,
    a1 in [-1, 1], log alpha0 in log e2_0 + [-40, 5], both logits in
    [-30, 30]. Deterministic given the series. Raises GarchFitError on a
    series holding NaN or inf, a constant one, one whose likelihood or
    gradient is not finite at the first start, or one with no finite end.
    """
    from scipy.optimize import minimize

    values = _as_values(series)
    if values.size < 50:
        raise ValueError("fit_garch needs at least 50 observations")
    if not np.all(np.isfinite(values)):
        raise GarchFitError("series holds non-finite values; GARCH needs finite returns")
    init_var, e2_0 = presample_variances(values)
    if not e2_0 > 0:
        raise GarchFitError("constant series has no GARCH likelihood")
    args = (values, init_var, e2_0)
    starts = [_unconstrain(GarchParams(float(np.mean(values)), 0.0, (1.0 - a1 - b1) * e2_0,
                                       a1, b1), e2_0) for a1, b1 in _FIT_STARTS]
    loss, grads = _nll_grad_unconstrained(starts[0], *args)
    if not (np.isfinite(loss) and np.all(np.isfinite(grads))):
        raise GarchFitError("non-finite objective at the variance-targeted starting point")

    bounds = [np.array([np.min(values), np.max(values)]) / math.sqrt(e2_0), (-1.0, 1.0),
              math.log(e2_0) + np.array([-40.0, 5.0]),
              _FIT_LOGIT_BOUNDS, _FIT_LOGIT_BOUNDS]
    ends = [minimize(_nll_grad_unconstrained, theta, args=args, jac=True, method="L-BFGS-B",
                     bounds=bounds, options=_FIT_OPTIONS) for theta in starts]
    best = min(ends, key=lambda res: res.fun if np.isfinite(res.fun) else math.inf)
    if not np.isfinite(best.fun):
        raise GarchFitError("likelihood is not finite at any fitted end point")
    return _constrain(best.x, e2_0), -float(best.fun)


def simulate_garch(params: GarchParams, t_len: int, seed: int, name: str | None = None):
    """Simulate a return path, starting from the unconditional variance.

    Presample state: e2 and sigma2 both equal the unconditional variance,
    r_0 = 0. Deterministic given the seed.
    """
    from .data import ReturnSeries

    if t_len < 1:
        raise ValueError("t_len must be >= 1")
    z = np.random.default_rng(seed).standard_normal(t_len)
    a0, a1, alpha0, alpha1, beta1 = (params.a0, params.a1, params.alpha0, params.alpha1,
                                     params.beta1)
    sigma2 = e2 = params.unconditional_variance
    r = 0.0
    values = []
    for z_t in z.tolist():
        sigma2 = alpha0 + alpha1 * e2 + beta1 * sigma2
        shock = math.sqrt(sigma2) * z_t
        r = a0 + a1 * r + shock
        values.append(r)
        e2 = shock * shock
    return ReturnSeries(np.array(values), name=name or f"garch-sim-{seed}")
