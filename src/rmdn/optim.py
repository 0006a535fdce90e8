"""Adam optimizer, the two-phase training schedule, and divergence handling.

Training minimizes the full-series negative log-likelihood with one Adam
step per epoch (no minibatching, no weight decay). The optional pretraining
phase zeroes the tanh-node gradients each epoch, so only the linear skeleton
(the GARCH-equivalent submodel) moves; the main phase then trains every
node. Adam moments carry over between phases: it is one continuous
optimization with the mask lifted, not two.

A run that produces a non-finite loss stops immediately and is classified
by the same rule used for finished runs: a final log-likelihood that is NaN
or below -100000 means "NotConverged". Divergence is a recorded outcome,
not an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .gradients import (GradientTape, apply_mask, flatten_params, gradient,
                        unflatten_params)
from .mixture import nll_arrays, _as_values
from .network import RmdnConfig, RmdnParams, forward_pass, initial_state, param_layout

CONVERGED = "Converged"
NOT_CONVERGED = "NotConverged"

LOGLIK_FLOOR = -100_000.0

# Adam's moment decay rates and denominator offset
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


@dataclass
class AdamState:
    """First/second moment vectors, step count and learning rate."""

    m: np.ndarray
    v: np.ndarray
    t: int
    learning_rate: float

    @classmethod
    def fresh(cls, size: int, learning_rate: float) -> "AdamState":
        return cls(np.zeros(size), np.zeros(size), 0, learning_rate)


def adam_step(theta: np.ndarray, grads: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update. Entries with zero gradient and zero
    moment history stay exactly where they are, which is what keeps masked
    parameters frozen during pretraining."""
    grads = np.asarray(grads, dtype=float)
    if grads.shape != theta.shape:
        raise ValueError("gradient length does not match parameter length")
    if not np.all(np.isfinite(grads)):
        raise ValueError("refusing to update through non-finite gradients")
    t = state.t + 1
    m = _BETA1 * state.m + (1.0 - _BETA1) * grads
    v = _BETA2 * state.v + (1.0 - _BETA2) * grads * grads
    m_hat = m / (1.0 - _BETA1 ** t)
    v_hat = v / (1.0 - _BETA2 ** t)
    new_theta = theta - state.learning_rate * m_hat / (np.sqrt(v_hat) + _EPS)
    return new_theta, replace(state, m=m, v=v, t=t)


@dataclass(frozen=True)
class TrainSchedule:
    """Epoch counts for the masked and full phases plus the learning rate."""

    pretrain_epochs: int = 20
    train_epochs: int = 300
    learning_rate: float = 0.01

    def __post_init__(self):
        if self.pretrain_epochs < 0:
            raise ValueError("pretrain_epochs must be >= 0")
        if self.train_epochs < 1:
            raise ValueError("train_epochs must be >= 1")
        if not 0 < self.learning_rate < math.inf:  # NaN fails both comparisons
            raise ValueError("learning_rate must be finite and positive")

    @property
    def total_epochs(self) -> int:
        return self.pretrain_epochs + self.train_epochs


def classify_convergence(final_loglik: float) -> str:
    """NotConverged iff the final log-likelihood is NaN or below -100000."""
    if math.isnan(final_loglik) or final_loglik < LOGLIK_FLOOR:
        return NOT_CONVERGED
    return CONVERGED


@dataclass
class TrainReport:
    """Outcome of one training run. ``epochs_completed`` is the schedule's
    total unless the loss went non-finite, in which case it is the epoch
    that produced that loss (the run stops there)."""

    loss_trace: list[float]
    final_params: RmdnParams
    final_loglik: float
    status: str
    epochs_completed: int


def train(series, params: RmdnParams, config: RmdnConfig, schedule: TrainSchedule,
          mask: np.ndarray | None = None, callback=None) -> TrainReport:
    """Run the two-phase schedule from the given starting parameters and the
    presample state of ``initial_state``.

    ``mask`` marks the gradient entries to zero during the pretraining
    phase (typically ``nonlinear_node_mask``). The loss trace records the
    objective at the start of each epoch; the reported log-likelihood is
    evaluated at the final parameters. ``callback(epoch, theta, loss)``,
    if given, observes the flat parameter vector after each update.
    Deterministic given its inputs. The run allocates one ``GradientTape``,
    which every epoch's gradient overwrites, and one layout-length parameter
    vector, whose pinned entries are set once and whose free entries every
    epoch fills with theta; the final log-likelihood is scored by one more
    forward pass on the same tape.
    """
    values = _as_values(series)
    init = initial_state(values, config)
    tape = GradientTape(config.n_components, config.k_hidden, values.size)
    theta = flatten_params(params, config)
    layout = param_layout(config.n_components, config.k_hidden)
    flat = layout.pinned.copy()
    epoch_params = layout.params(flat)  # views of flat, by field
    state = AdamState.fresh(theta.size, schedule.learning_rate)
    trace: list[float] = []
    epochs_completed = schedule.total_epochs

    for epoch in range(schedule.total_epochs):
        flat[layout.free] = theta
        loss, grads = gradient(values, epoch_params, init, tape)
        trace.append(float(loss))
        if not np.isfinite(loss):
            epochs_completed = epoch
            break
        if epoch < schedule.pretrain_epochs and mask is not None:
            grads = apply_mask(grads, mask)
        theta, state = adam_step(theta, grads, state)
        if callback is not None:
            callback(epoch, theta.copy(), float(loss))

    final_params = unflatten_params(theta, config)
    if epochs_completed == schedule.total_epochs:
        forward_pass(values, final_params, config, init, tape)
        final_loglik = -nll_arrays(values, tape.eta, tape.mu, tape.sigma2)
    else:
        final_loglik = math.nan
    return TrainReport(
        loss_trace=trace,
        final_params=final_params,
        final_loglik=float(final_loglik),
        status=classify_convergence(final_loglik),
        epochs_completed=epochs_completed,
    )
