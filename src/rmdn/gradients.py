"""Exact reverse-mode gradients of the unrolled negative log-likelihood.

Time steps are coupled through each component's predicted variance, which
feeds the next step's variance network. The squared residual
e2_t = (r_t - mubar_t)^2 feeds it too, but e2_t depends only on the mixing
and mean networks, which do not recur, so its adjoint at step t is a
function of step t+1 alone. The backward pass therefore carries one scalar
per component, d loss / d z_{t,i} for the variance pre-activation z. Its
recursion is linear, so a doubling scan solves it in ceil(log2 T) passes
over (N, T) arrays, and everything else (mixing and mean networks, the
squared-residual path, the loss itself) is vectorized over time too. The
mixing network, the mean network and the squared-residual side of the
variance network are each a hidden layer over one scalar input per step,
and ``_hidden_backward`` is the one backward step through them. Like
``forward_pass``, every adjoint is component-major, (N, T) or (K, T), so
reductions over components and hidden nodes are elementwise over rows.
The forward pass does not keep what only the gradient reads: ``gradient``
rebuilds the hidden nodes reading the previous variance and the output
unit's derivative pelu'(z) from the cache's ``drive`` and ``s2_prev``,
summing z in the order of the variance loop.

Two stability details:
  * the loss gradient is taken with respect to the mixing logits directly,
    d loss / d logit_n = eta_n - p_n with p the posterior responsibility,
    so underflowed weights (eta_n == 0) never produce 0/0;
  * a non-finite loss short-circuits to all-NaN gradients, which callers
    must treat as divergence rather than update through.

Trainable parameters live in a flat vector: the free entries of
``network.param_layout``, in ``RmdnParams`` field order (pinned entries
excluded). Freezing the tanh nodes is a mask over that vector: their input
weights and biases plus the output weights attached to them, across all
three subnetworks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .mixture import _as_values, log_joint, nll
from .network import (ELU_EPS, RecurrentState, RmdnConfig, RmdnParams,
                      _hidden_batch, forward_pass, param_layout, unroll)

# finite_diff_check's step h, and how often it halves h where a bump crosses the kink
_FD_STEP = 1e-5
_FD_HALVINGS = 10


def n_trainable(config: RmdnConfig) -> int:
    return int(np.count_nonzero(param_layout(config.n_components, config.k_hidden).free))


def flatten_params(params: RmdnParams, config: RmdnConfig) -> np.ndarray:
    """Trainable subset of the parameters as a flat vector."""
    free = param_layout(config.n_components, config.k_hidden).free
    return np.concatenate([getattr(params, f.name).ravel() for f in fields(params)])[free]


def unflatten_params(theta: np.ndarray, config: RmdnConfig) -> RmdnParams:
    """Inverse of ``flatten_params``: the pinned entries take their
    identifiability values."""
    layout = param_layout(config.n_components, config.k_hidden)
    theta = np.asarray(theta, dtype=float)
    if theta.size != n_trainable(config):
        raise ValueError(
            f"expected {n_trainable(config)} trainable parameters, got {theta.size}"
        )
    flat = layout.pinned.copy()
    flat[layout.free] = theta
    return RmdnParams(*layout.split(flat))


def nonlinear_node_mask(config: RmdnConfig) -> np.ndarray:
    """Boolean mask over the flat vector covering every tanh-node parameter:
    their input weights/biases and the output weights they feed."""
    layout = param_layout(config.n_components, config.k_hidden)
    return layout.tanh[layout.free]


def apply_mask(grads: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Zero the masked gradient entries exactly, leaving the rest unchanged."""
    grads = np.asarray(grads, dtype=float)
    mask = np.asarray(mask, dtype=bool)
    if grads.shape != mask.shape:
        raise ValueError(f"mask length {mask.size} does not match gradient length {grads.size}")
    out = grads.copy()
    out[mask] = 0.0
    return out


def _hidden_backward(g: np.ndarray, h: np.ndarray, x: np.ndarray, out_w: np.ndarray
                     ) -> tuple[tuple[np.ndarray, ...], np.ndarray]:
    """Backward twin of ``network._hidden_batch`` under a linear output layer.

    ``g`` (N, T) is the loss adjoint of the outputs ``out_w @ h + out_b``,
    ``h`` (K, T) the hidden activations computed from the scalar inputs
    ``x`` (T,). Returns the gradients of (in_w, in_b, out_w, out_b), in
    ``RmdnParams`` field order, and the hidden adjoint (K, T) at the
    pre-activations.
    """
    gh = out_w.T @ g
    gh[1:] *= 1.0 - h[1:] ** 2
    return (gh @ x, gh.sum(axis=1), g @ h.T, g.sum(axis=1)), gh


def gradient(series, params: RmdnParams, config: RmdnConfig,
             init: RecurrentState) -> tuple[float, np.ndarray]:
    """Loss and its exact derivative through the full unroll.

    Returns the negative log-likelihood and the gradient over the flat
    trainable vector. A non-finite loss yields all-NaN gradients; callers
    must not update through them. A finite loss can still come with a
    non-finite gradient, once the parameters have diverged far enough
    (inf * 0 in the adjoint); that is returned without a warning.
    """
    values = _as_values(series)
    cache = forward_pass(values, params, config, init)
    t_len = values.size
    k = config.k_hidden

    q, lse = log_joint(values, cache.eta, cache.mu, cache.sigma2)
    with np.errstate(invalid="ignore", over="ignore"):
        loss = float(-np.sum(lse))
    if not np.isfinite(loss):
        return loss, np.full(n_trainable(config), np.nan)

    p_post = np.exp(q - lse)                 # posterior responsibilities (N, T)
    d = values - cache.mu
    inv_s2 = 1.0 / cache.sigma2
    dl_dmu = -p_post * d * inv_s2            # (N, T)
    dl_ds2 = 0.5 * p_post * inv_s2 * (1.0 - d * d * inv_s2)

    # the hidden nodes reading s2_prev and pelu'(z), which only the gradient
    # reads, with z summed in the variance loop's order: a tanh node the loop
    # skips adds +-0 here (its 0 * inf = NaN at a step forward_pass marks lost
    # never gets here, since that step's NaN variance makes the loss NaN)
    ws = params.var_out_w[:, k:]             # (N, K)
    with np.errstate(invalid="ignore", over="ignore"):
        hs = _hidden_batch(cache.s2_prev, params.var_in_w[k:], params.var_in_b[k:])  # (K, N, T)
        z = cache.drive + ws[:, :1] * params.var_in_w[k] * cache.s2_prev
        for j in range(1, k):
            z += ws[:, j:j + 1] * hs[j]
    dpelu = np.where(z > 0.0, 1.0, np.expm1(np.minimum(z, 0.0)) + 1.0)
    dtanh_s = 1.0 - hs[1:] ** 2              # (K-1, N, T)

    # carry[i, t] = d z_{i,t} / d s2_prev_{i,t}, the only recurrent path
    ws_iw = (ws * params.var_in_w[k:]).T     # (K, N)
    carry = ws_iw[0, :, None] + (dtanh_s * ws_iw[1:, :, None]).sum(axis=0)
    # gz_t = dpelu_t * (dl_ds2_t + carry_{t+1} * gz_{t+1}) = b_t + a_t * gz_{t+1}
    # is linear in gz: a doubling scan solves it in ceil(log2 T) passes. It runs
    # over the components' rows end to end, since a_{T-1} = 0 cuts each chain
    # where its row ends. A variance that overflowed meets a zero or huge adjoint
    # here and in g_var: the NaN or inf it gives is the divergence signal, so it
    # must not warn
    gz = dpelu * dl_ds2                      # d loss / d z, per component
    a = np.zeros_like(gz)
    a[:, :-1] = dpelu[:, :-1] * carry[:, 1:]
    gz_flat, a_flat = gz.reshape(-1), a.reshape(-1)
    s = 1
    with np.errstate(invalid="ignore", over="ignore"):
        while s < t_len:
            gz_flat[:-s] += a_flat[:-s] * gz_flat[s:]
            if 2 * s < t_len:                # the last pass reads no product
                a_flat[:-s] *= a_flat[s:]
            s *= 2

    # the squared-residual path does not recur: e2_prev[t+1] only feeds z[t+1]
    (ge_in_w, ge_in_b, ge_out_w, g_var_out_b), ghe = _hidden_backward(
        gz, cache.he, cache.e2_prev, params.var_out_w[:, :k])
    gmu_bar = np.zeros(t_len)
    gmu_bar[:-1] = -2.0 * cache.resid[:-1] * (params.var_in_w[:k] @ ghe[:, 1:])

    # the hidden nodes reading each component's own previous variance
    ghs = ws.T[:, :, None] * gz              # (K, N, T)
    ghs[1:] *= dtanh_s
    with np.errstate(invalid="ignore", over="ignore"):
        g_var = (np.concatenate([ge_in_w, ghs.reshape(k, -1) @ cache.s2_prev.ravel()]),
                 np.concatenate([ge_in_b, ghs.sum(axis=(1, 2))]),
                 np.concatenate([ge_out_w, (hs * gz).sum(axis=2).T], axis=1),
                 g_var_out_b)

    # loss -> logits directly (eta - p), plus the residual path through mubar
    geta_path = gmu_bar * cache.mu
    glogit = (cache.eta - p_post) + cache.eta * (
        geta_path - (cache.eta * geta_path).sum(axis=0))
    g_mix, _ = _hidden_backward(glogit, cache.hm, cache.inputs, params.mix_out_w)
    gmu_tot = dl_dmu + gmu_bar * cache.eta
    g_mean, _ = _hidden_backward(gmu_tot, cache.hmu, cache.inputs, params.mean_out_w)

    # in RmdnParams field order, as flatten_params lays them out
    full = np.concatenate([g.ravel() for g in (*g_mix, *g_mean, *g_var)])
    return loss, full[param_layout(config.n_components, k).free]


@dataclass
class FiniteDiffReport:
    """Per-parameter deviation between analytic and finite-difference
    gradients: |a - f| / (max(|a|, |f|) + 1e-3). Passing at tol 1e-5 is
    equivalent to |a - f| <= 1e-5 * max(|a|, |f|) + 1e-8, i.e. a relative
    match with an absolute floor that absorbs difference-quotient roundoff
    on near-zero gradients."""

    deviations: np.ndarray
    tol: float
    analytic: np.ndarray
    numeric: np.ndarray

    @property
    def max_deviation(self) -> float:
        return float(np.max(self.deviations))

    @property
    def passed(self) -> bool:
        return bool(self.max_deviation <= self.tol)


def finite_diff_check(series, params: RmdnParams, config: RmdnConfig,
                      init: RecurrentState, tol: float = 1e-5) -> FiniteDiffReport:
    """Compare the analytic gradient against fourth-order central finite
    differences, (8*(f(+h) - f(-h)) - (f(+2h) - f(-2h))) / 12h, on every
    trainable parameter. Intended for short series (the cost is four
    forward passes per parameter).

    The truncation error falls as h^4 and the roundoff grows as 1/h; at
    h = ``_FD_STEP`` = 1e-5 both stay far below the default tol where the
    function is smooth. It is not where a bump moves a step across the kink
    of the variance unit, so an entry whose bumps change which branch of
    the unit any step takes is differenced again at half the step, up to
    ``_FD_HALVINGS`` times, and checked at the same tol against the last
    of those differences."""
    values = _as_values(series)
    _, analytic = gradient(values, params, config, init)
    theta = flatten_params(params, config)
    one_eps = 1.0 + ELU_EPS

    def nll_and_branches(i, offset):
        bumped = theta.copy()
        bumped[i] += offset
        path, _ = unroll(values, unflatten_params(bumped, config), config, init)
        return nll(values, path), path.sigma2 > one_eps

    branches = nll_and_branches(0, 0.0)[1]

    def stencil(i, h):
        (fp, bp), (fm, bm), (f2p, b2p), (f2m, b2m) = (
            nll_and_branches(i, offset) for offset in (h, -h, 2.0 * h, -2.0 * h))
        smooth = all(np.array_equal(b, branches) for b in (bp, bm, b2p, b2m))
        return (8.0 * (fp - fm) - (f2p - f2m)) / (12.0 * h), smooth

    numeric = np.empty(theta.size)
    for i in range(theta.size):
        for halvings in range(_FD_HALVINGS + 1):
            numeric[i], smooth = stencil(i, _FD_STEP / 2.0 ** halvings)
            if smooth:
                break
    scale = np.maximum(np.abs(analytic), np.abs(numeric)) + 1e-3
    deviations = np.abs(analytic - numeric) / scale
    return FiniteDiffReport(deviations, tol, analytic, numeric)
