"""The time-major (T, N) forward pass and gradient, kept as the oracle of
the component-major (N, T) implementation in ``rmdn``.

Both versions compute the same function; the array layout changes the
order of some floating-point sums, so the two agree to rounding. This one
keeps the two sequential loops over Python floats: the variance recursion
evaluates every hidden node reading the previous variance, the pinned
linear node as ``w0 * (a0 * s2 + b0)``, and the adjoint runs step by step
backwards in time. ``rmdn`` folds the linear node, skips tanh nodes that
cannot change z, and solves the adjoint by a doubling scan.
"""

from __future__ import annotations

import math

import numpy as np

from rmdn.gradients import flatten_params, n_trainable
from rmdn.mixture import LOG_2PI
from rmdn.network import RmdnParams

# the variance unit pelu(z) = elu(z, ALPHA) + 1 + EPS, written out here
ALPHA, EPS = 1.0, 1e-6


def variance_recursion(drive, s2, out_w, in_w, in_b, alpha, one_eps):
    """One component's variance recursion over Python floats: pre-activations
    z_t and variances pelu(z_t), node 0 linear."""
    w0, a0, b0 = out_w[0], in_w[0], in_b[0]
    tanh_nodes = list(zip(out_w[1:], in_w[1:], in_b[1:]))
    zs, s2s = [], []
    for d in drive:
        z = d + w0 * (a0 * s2 + b0)
        for w, a, b in tanh_nodes:
            z += w * math.tanh(a * s2 + b)
        s2 = (z if z > 0.0 else alpha * math.expm1(z)) + one_eps
        zs.append(z)
        s2s.append(s2)
    return zs, s2s


def pelu_derivative(z, alpha=ALPHA):
    """pelu'(z) from the pre-activations: 1 where z > 0, else alpha * e^z,
    taken as alpha * expm1(z) + alpha."""
    return np.where(z > 0.0, 1.0, alpha * np.expm1(np.minimum(z, 0.0)) + alpha)


def adjoint_recursion(dl_ds2, dpelu, carry):
    """One component's adjoint over Python floats,
    gz_t = (dl_ds2_t + carry_{t+1} * gz_{t+1}) * dpelu_t with gz_T = 0.
    Takes and returns every sequence in reverse time order."""
    out = []
    gz, carry_next = 0.0, 0.0
    for dl, dp, c in zip(dl_ds2, dpelu, carry):
        gz = (dl + carry_next * gz) * dp
        out.append(gz)
        carry_next = c
    return out


def lag_rows(first, x):
    """``x`` one step later along its first axis, ``first`` in row 0."""
    out = np.empty_like(x)
    out[0] = first
    out[1:] = x[:-1]
    return out


def hidden_rows(x, in_w, in_b):
    """Hidden activations for an array of scalar inputs: (...,) -> (..., K)."""
    h = x[..., None] * in_w + in_b
    h[..., 1:] = np.tanh(h[..., 1:])
    return h


def softmax_rows(y):
    m = np.max(y, axis=-1, keepdims=True)
    e = np.exp(y - m)
    return e / np.sum(e, axis=-1, keepdims=True)


def forward_pass(values, params, config, init):
    """The cache fields the gradient reads, every per-step array time-major:
    eta, mu, sigma2, dpelu and s2_prev (T, N), hm, hmu and he (T, K), hs
    (T, N, K)."""
    t_len = values.size
    n, k = config.n_components, config.k_hidden
    alpha, one_eps = ALPHA, 1.0 + EPS
    inputs = lag_rows(0.0, values)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hm = hidden_rows(inputs, params.mix_in_w, params.mix_in_b)
        eta = softmax_rows(hm @ params.mix_out_w.T + params.mix_out_b)
        hmu = hidden_rows(inputs, params.mean_in_w, params.mean_in_b)
        mu = hmu @ params.mean_out_w.T + params.mean_out_b
        resid = values - np.sum(eta * mu, axis=1)
        e2_prev = lag_rows(init.e2_prev, resid * resid)
        he = hidden_rows(e2_prev, params.var_in_w[:k], params.var_in_b[:k])
        drive = he @ params.var_out_w[:, :k].T + params.var_out_b
        z = np.empty((t_len, n))
        sigma2 = np.empty((t_len, n))
        in_w, in_b = params.var_in_w[k:].tolist(), params.var_in_b[k:].tolist()
        for i in range(n):
            z[:, i], sigma2[:, i] = variance_recursion(
                drive[:, i].tolist(), float(init.sigma2_prev[i]),
                params.var_out_w[i, k:].tolist(), in_w, in_b, alpha, one_eps)
        s2_prev = lag_rows(init.sigma2_prev, sigma2)
        hs = hidden_rows(s2_prev, params.var_in_w[k:], params.var_in_b[k:])
        dpelu = pelu_derivative(z, alpha)
    return dict(inputs=inputs, hm=hm, eta=eta, hmu=hmu, mu=mu, he=he, hs=hs,
                dpelu=dpelu, sigma2=sigma2, e2_prev=e2_prev, s2_prev=s2_prev, resid=resid)


def log_joint(values, eta, mu, sigma2):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        q = (np.log(eta) - 0.5 * LOG_2PI - 0.5 * np.log(sigma2)
             - 0.5 * (values[:, None] - mu) ** 2 / sigma2)
        m = np.max(q, axis=1)
        shift = np.where(np.isfinite(m), m, 0.0)
        lse = shift + np.log(np.sum(np.exp(q - shift[:, None]), axis=1))
        lse = np.where(np.isfinite(m), lse, m)
    return q, lse


def hidden_backward(g, h, x, out_w):
    gh = g @ out_w
    gh[:, 1:] *= 1.0 - h[:, 1:] ** 2
    return (gh.T @ x, gh.sum(axis=0), g.T @ h, g.sum(axis=0)), gh


def gradient(values, params, config, init):
    """Loss and flat gradient over the time-major forward pass; a non-finite
    loss gives all-NaN gradients."""
    c = forward_pass(values, params, config, init)
    t_len = values.size
    n, k = config.n_components, config.k_hidden
    q, lse = log_joint(values, c["eta"], c["mu"], c["sigma2"])
    with np.errstate(invalid="ignore", over="ignore"):
        loss = float(-np.sum(lse))
    if not np.isfinite(loss):
        return loss, np.full(n_trainable(config), np.nan)

    p_post = np.exp(q - lse[:, None])
    d = values[:, None] - c["mu"]
    inv_s2 = 1.0 / c["sigma2"]
    dl_dmu = -p_post * d * inv_s2
    dl_ds2 = 0.5 * p_post * inv_s2 * (1.0 - d * d * inv_s2)

    ws = params.var_out_w[:, k:]
    dtanh_s = 1.0 - c["hs"][:, :, 1:] ** 2
    ws_iw = ws * params.var_in_w[k:]
    carry = ws_iw[:, 0] + np.einsum("tnk,nk->tn", dtanh_s, ws_iw[:, 1:])
    gz_all = np.empty((t_len, n))
    for i in range(n):
        gz_all[::-1, i] = adjoint_recursion(
            dl_ds2[::-1, i].tolist(), c["dpelu"][::-1, i].tolist(), carry[::-1, i].tolist())

    (ge_in_w, ge_in_b, ge_out_w, g_var_out_b), ghe = hidden_backward(
        gz_all, c["he"], c["e2_prev"], params.var_out_w[:, :k])
    gmu_bar = np.zeros(t_len)
    gmu_bar[:-1] = -2.0 * c["resid"][:-1] * (ghe[1:] @ params.var_in_w[:k])

    ghs = gz_all[:, :, None] * ws
    ghs[:, :, 1:] *= dtanh_s
    g_var = (np.concatenate([ge_in_w, np.einsum("tnk,tn->k", ghs, c["s2_prev"])]),
             np.concatenate([ge_in_b, ghs.sum(axis=(0, 1))]),
             np.hstack([ge_out_w, np.einsum("tn,tnk->nk", gz_all, c["hs"])]),
             g_var_out_b)

    geta_path = gmu_bar[:, None] * c["mu"]
    glogit = (c["eta"] - p_post) + c["eta"] * (
        geta_path - np.sum(c["eta"] * geta_path, axis=1, keepdims=True))
    g_mix, _ = hidden_backward(glogit, c["hm"], c["inputs"], params.mix_out_w)
    gmu_tot = dl_dmu + gmu_bar[:, None] * c["eta"]
    g_mean, _ = hidden_backward(gmu_tot, c["hmu"], c["inputs"], params.mean_out_w)
    return loss, flatten_params(RmdnParams(*g_mix, *g_mean, *g_var), config)
