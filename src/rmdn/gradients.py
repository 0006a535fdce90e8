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
with one hidden-layer step each way: ``network._hidden_layer`` forward and
``_hidden_backward`` back. Like ``forward_pass``, every adjoint is
component-major, (N, T) or (K, T), so reductions over components and hidden
nodes are elementwise over rows. The forward pass does not keep what only
the gradient reads: ``gradient`` rebuilds the hidden nodes reading the
previous variance from ``s2_prev``, reads pelu'(z) from the variances, as
tanh' from the nodes, and the residuals r - mu and their squares from
``mixture.log_joint``. It never rebuilds z, whose order of summation is
``network``'s alone.

Both passes write into a ``GradientTape``: the forward pass's ``Tape`` plus
every backward array that outlives one statement. The caller owns it:
``optim.train`` allocates one per run and every epoch overwrites all of it
in place, so an epoch allocates only the temporaries of single
expressions; a call without a tape allocates a fresh one.

Three stability details:
  * the loss gradient is taken with respect to the mixing logits directly,
    d loss / d logit_n = eta_n - p_n with p the posterior responsibility,
    so underflowed weights (eta_n == 0) never produce 0/0;
  * a non-finite loss short-circuits to all-NaN gradients, which callers
    must treat as divergence rather than update through;
  * everything after the forward pass, the loss included, runs under one
    error-state scope that ignores overflow and invalid operations, so a
    diverged model's inf and NaN come back as data, never as a warning.

Trainable parameters live in a flat vector: the free entries of
``network.param_layout``, in ``RmdnParams`` field order (pinned entries
excluded). The tape holds one layout-length array and, built once with
it, its ``RmdnParams`` of views (``ParamLayout.params``); the backward pass
writes each field's gradient into its view and returns the array's free
entries. Freezing the tanh nodes is a mask over that vector: their input
weights and biases plus the output weights attached to them, across all
three subnetworks.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .mixture import _as_values, log_joint, nll
from .network import (PELU_OFFSET, RecurrentState, RmdnConfig, RmdnParams, Tape, _hidden_batch,
                      forward_pass, param_layout, unroll)

# finite_diff_check's step h, and how often it halves h where a bump crosses the kink
_FD_STEP = 1e-5
_FD_HALVINGS = 10


def n_trainable(config: RmdnConfig) -> int:
    return int(np.count_nonzero(param_layout(config.n_components, config.k_hidden).free))


def flatten_params(params: RmdnParams, config: RmdnConfig) -> np.ndarray:
    """Trainable subset of the parameters as a flat vector. Parameters of
    another (N, K) than ``config``'s raise ValueError."""
    n, k = config.n_components, config.k_hidden
    layout = param_layout(n, k)
    arrays = [getattr(params, f.name) for f in fields(params)]
    if [a.shape for a in arrays] != list(layout.shapes):
        raise ValueError(
            f"expected the {layout.free.size} entries of (N, K) = ({n}, {k}), got "
            f"{sum(a.size for a in arrays)} of ({params.n_components}, {params.k_hidden})")
    return np.concatenate([a.ravel() for a in arrays])[layout.free]


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
    return layout.params(flat)


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


def _hidden_backward(g: np.ndarray, h: np.ndarray, x: np.ndarray, out_w: np.ndarray,
                     gh: np.ndarray, grads: tuple[np.ndarray, ...]) -> np.ndarray:
    """Backward twin of ``network._hidden_layer``.

    ``g`` (N, T) is the loss adjoint of the outputs ``out_w @ h + out_b``,
    ``h`` (K, T) the hidden activations computed from the scalar inputs
    ``x`` (T,). Writes the gradients of (in_w, in_b, out_w, out_b) into the
    four views ``grads`` and returns the hidden adjoint (K, T) at the
    pre-activations, written into ``gh``.
    """
    gh = np.matmul(out_w.T, g, out=gh)
    gh[1:] *= 1.0 - h[1:] ** 2
    for grad, value in zip(grads, (gh @ x, gh.sum(axis=1), g @ h.T, g.sum(axis=1))):
        grad[...] = value
    return gh


class GradientTape(Tape):
    """A forward ``Tape`` plus every array of the backward pass that outlives
    one statement, allocated once for N components, K hidden nodes and T
    steps. ``gradient`` overwrites each of them on every call before it
    reads them, so a training run allocates one and reuses it every epoch.
    """

    def __init__(self, n_components: int, k_hidden: int, t_len: int):
        super().__init__(n_components, k_hidden, t_len)
        n, k, t = n_components, k_hidden, t_len
        (self.p_post, self.inv_s2, self.dl_dmu, self.dl_ds2, self.dpelu, self.carry,
         self.gz, self.a, self.scan, self.glogit, self.gmu_tot) = (
            np.empty((n, t)) for _ in range(11))
        self.hs = np.empty((k, n, t))           # hidden nodes reading s2_prev
        self.dtanh_s = np.empty((k - 1, n, t))  # their tanh derivatives
        # numpy lays out the product ws.T[:, :, None] * gz that fills ghs in
        # (N, K, T) memory order, and its sum over axes (1, 2) rounds in
        # memory order: a C-ordered buffer would move the gradient's last bits
        self.ghs = np.empty((n, k, t)).transpose(1, 0, 2)
        self.gmu_bar = np.empty(t)
        self.gh = np.empty((k, t))              # a hidden layer's adjoint
        self.grad = np.empty(param_layout(n, k).pinned.size)  # every entry, free or pinned
        self.grads = param_layout(n, k).params(self.grad)     # its views, by field


def gradient(series, params: RmdnParams, init: RecurrentState,
             tape: GradientTape | None = None) -> tuple[float, np.ndarray]:
    """Loss and its exact derivative through the full unroll.

    Returns the negative log-likelihood and the gradient over the flat
    trainable vector. A non-finite loss yields all-NaN gradients; callers
    must not update through them. A finite loss can still come with a
    non-finite gradient, once the parameters have diverged far enough
    (inf * 0 in the adjoint); that is returned without a warning. Every
    array of ``tape`` is overwritten; without one, a fresh tape is
    allocated. The sizes come from ``params``.
    """
    values = _as_values(series)
    t_len = values.size
    n, k = params.n_components, params.k_hidden
    layout = param_layout(n, k)
    if tape is None:
        tape = GradientTape(n, k, t_len)
    forward_pass(values, params, None, init, tape)

    with np.errstate(invalid="ignore", over="ignore"):
        # log_joint leaves d = r - mu in dl_dmu and d * d in dl_ds2
        q, lse = log_joint(values, tape.eta, tape.mu, tape.sigma2, tape.dl_dmu, tape.dl_ds2)
        loss = float(-np.sum(lse))
        if not np.isfinite(loss):
            return loss, np.full(np.count_nonzero(layout.free), np.nan)

        # posterior responsibilities (N, T)
        p_post = np.exp(np.subtract(q, lse, out=tape.p_post), out=tape.p_post)
        del q, lse
        inv_s2 = np.divide(1.0, tape.sigma2, out=tape.inv_s2)
        # dl_ds2 = 0.5 * p_post * inv_s2 * (1.0 - d * d * inv_s2)
        dl_ds2 = np.multiply(tape.dl_ds2, inv_s2, out=tape.dl_ds2)
        np.subtract(1.0, dl_ds2, out=dl_ds2)
        np.multiply(0.5 * p_post * inv_s2, dl_ds2, out=dl_ds2)
        dl_dmu = np.multiply(-p_post, tape.dl_dmu, out=tape.dl_dmu)  # -p_post * d * inv_s2
        dl_dmu *= inv_s2

        # what only the gradient reads: the hidden nodes reading s2_prev, and pelu'(z) =
        # min(sigma2 - eps, 1), from the output as tanh' is from h. The sum - (1 + eps) + 1
        # is exactly 1 on the linear branch; the clip keeps underflow >= 0, NaN as NaN
        hs = _hidden_batch(tape.s2_prev, params.var_in_w[k:], params.var_in_b[k:], tape.hs)
        dpelu = np.clip(tape.sigma2 - PELU_OFFSET + 1.0, 0.0, 1.0, out=tape.dpelu)
        dtanh_s = np.square(hs[1:], out=tape.dtanh_s)  # (K-1, N, T)
        np.subtract(1.0, dtanh_s, out=dtanh_s)

        # carry[i, t] = d z_{i,t} / d s2_prev_{i,t}, the only recurrent path
        ws = params.var_out_w[:, k:]             # (N, K)
        ws_iw = (ws * params.var_in_w[k:]).T     # (K, N)
        carry = (dtanh_s * ws_iw[1:, :, None]).sum(axis=0, out=tape.carry)
        np.add(ws_iw[0, :, None], carry, out=carry)
        # gz_t = dpelu_t * (dl_ds2_t + carry_{t+1} * gz_{t+1}) = b_t + a_t * gz_{t+1}
        # is linear in gz: a doubling scan solves it in ceil(log2 T) passes. It
        # runs over the components' rows end to end, since a_{T-1} = 0 cuts each
        # chain where its row ends
        gz = np.multiply(dpelu, dl_ds2, out=tape.gz)  # d loss / d z, per component
        a = tape.a
        a[:, -1] = 0.0
        np.multiply(dpelu[:, :-1], carry[:, 1:], out=a[:, :-1])
        gz_flat, a_flat, scan = gz.reshape(-1), a.reshape(-1), tape.scan.reshape(-1)
        s = 1
        while s < t_len:
            head = scan[:-s]
            gz_flat[:-s] += np.multiply(a_flat[:-s], gz_flat[s:], out=head)
            if 2 * s < t_len:                # the last pass reads no product
                a_flat[:-s] = np.multiply(a_flat[:-s], a_flat[s:], out=head)
            s *= 2

        grads = tape.grads
        # the squared-residual path does not recur: e2_prev[t+1] only feeds z[t+1]
        ghe = _hidden_backward(gz, tape.he, tape.e2_prev, params.var_out_w[:, :k], tape.gh,
                               (grads.var_in_w[:k], grads.var_in_b[:k], grads.var_out_w[:, :k],
                                grads.var_out_b))
        gmu_bar = tape.gmu_bar
        gmu_bar[-1] = 0.0
        np.multiply(-2.0 * tape.resid[:-1], params.var_in_w[:k] @ ghe[:, 1:], out=gmu_bar[:-1])

        # the hidden nodes reading each component's own previous variance
        ghs = np.multiply(ws.T[:, :, None], gz, out=tape.ghs)  # (K, N, T)
        ghs[1:] *= dtanh_s
        grads.var_in_w[k:] = ghs.reshape(k, -1) @ tape.s2_prev.ravel()
        grads.var_in_b[k:] = ghs.sum(axis=(1, 2))
        grads.var_out_w[:, k:] = (hs * gz).sum(axis=2).T

        # loss -> logits directly (eta - p), plus the residual path through mubar:
        # glogit = (eta - p_post) + eta * (geta_path - (eta * geta_path).sum(axis=0))
        glogit = np.multiply(gmu_bar, tape.mu, out=tape.glogit)  # geta_path
        glogit -= (tape.eta * glogit).sum(axis=0)
        np.multiply(tape.eta, glogit, out=glogit)
        np.add(tape.eta - p_post, glogit, out=glogit)
        _hidden_backward(glogit, tape.hm, tape.inputs, params.mix_out_w, tape.gh,
                         (grads.mix_in_w, grads.mix_in_b, grads.mix_out_w, grads.mix_out_b))
        gmu_tot = np.multiply(gmu_bar, tape.eta, out=tape.gmu_tot)
        np.add(dl_dmu, gmu_tot, out=gmu_tot)
        _hidden_backward(gmu_tot, tape.hmu, tape.inputs, params.mean_out_w, tape.gh,
                         (grads.mean_in_w, grads.mean_in_b, grads.mean_out_w, grads.mean_out_b))
        return loss, tape.grad[layout.free]


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
    _, analytic = gradient(values, params, init)
    theta = flatten_params(params, config)

    def nll_and_branches(i, offset):
        bumped = theta.copy()
        bumped[i] += offset
        path, _ = unroll(values, unflatten_params(bumped, config), config, init)
        return nll(values, path), path.sigma2 > PELU_OFFSET

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
