"""Recurrent mixture density network with a strictly positive variance unit.

The model predicts, for each time step, the parameters of an N-component
Gaussian mixture for the next return. It is built from three single-hidden-
layer subnetworks whose hidden node 1 is linear and whose nodes 2..K are
tanh:

  mixing network   r_t -> logits -> softmax -> eta_{t+1}        (N weights)
  mean network     r_t -> mu_{t+1, i}                           (N means)
  variance network (e2_t, sigma2_{i,t}) -> sigma2_{i,t+1}       (N variances)

The variance network is recurrent: it reads the previous squared residual
e2_t = (r_t - mubar_t)^2, where mubar_t is the previous step's mixture mean,
and each component's own previous conditional variance. Its output unit is
fixed:

    pelu(x) = elu(x) + 1 + eps,  eps = ``ELU_EPS`` = 1e-6

with elu's saturation scale alpha at 1. It is strictly positive for every
finite input (its infimum, as x -> -inf, is eps), so predicted variances can
never reach zero or go negative.

Only the N component variances truly recur. The mixing and mean networks
read lagged returns alone, so mubar_t, and with it e2_t, is known for every
step before the variance network runs; ``forward_pass`` evaluates all of
that at once and loops only over N independent scalar variance recursions.
Their steps fold the pinned linear node into one coefficient and skip tanh
nodes with output weight 0 (all of them under ``pretrain`` init); the loop
body is generated once per count of live tanh nodes, with those nodes
spelled out, and yields only the variances.

Two passes run the same stages. ``forward_pass`` is the gradient's tape: it
keeps every intermediate the backward pass reads, among them the
s2-independent part of each pre-activation (``drive``), from which the
gradient rebuilds the rest. ``unroll`` is the scoring pass: it keeps only
the mixture and the final recurrent state, and drops each intermediate once
the next stage has read it. The per-component arrays are component-major,
(N, T), and the hidden activations (K, T), so every sum, maximum or softmax
over components is an elementwise operation over contiguous rows of length
T.

With a single component and all tanh weights at zero the model collapses to
an AR(1) conditional mean and, whenever the variance pre-activation is
positive, a GARCH(1,1) conditional variance; ``params_from_garch`` builds
that embedding explicitly.

For identifiability, the linear hidden node of each subnetwork is pinned to
the identity (input weight 1, bias 0). Pinned entries are excluded from the
trainable parameter set. ``param_layout`` is the one table of which entries
are pinned, which are trainable and which belong to tanh nodes.

Presample conventions (shared with the GARCH baseline so the nested models
agree step by step): the input return before the sample starts is 0, the
presample squared residual is the population variance of the series, and the
presample conditional variance defaults to the same (``presample_variances``).
Every lagged input is ``lagged(presample value, series)``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .mixture import MixturePath, _as_values

SCHEMES = ("pretrain", "plain")

# the variance unit's positive offset: pelu(x) = elu(x) + 1 + ELU_EPS
ELU_EPS = 1e-6


@dataclass(frozen=True)
class RmdnConfig:
    """Architecture hyperparameters.

    n_components: mixture size N; k_hidden: hidden nodes per subnetwork
    (node 1 linear, nodes 2..K tanh). Both are integers >= 1. The variance
    output unit is fixed (``ELU_EPS``), so it has no setting here.
    """

    n_components: int = 2
    k_hidden: int = 3

    def __post_init__(self):
        for name in ("n_components", "k_hidden"):
            value = getattr(self, name)
            # exactly int: not bool (an int subclass), not a float that fails only
            # later in numpy, not a numpy integer that a model file cannot hold
            if type(value) is not int:
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1")


@dataclass
class RmdnParams:
    """All weight groups of the three subnetworks.

    ``*_in_w`` / ``*_in_b`` are input-to-hidden weights and biases, one per
    hidden node; ``*_out_w`` / ``*_out_b`` are hidden-to-output weights (one
    row per mixture component) and output biases. The variance network has
    2K hidden nodes: nodes 0..K-1 read the squared residual, nodes K..2K-1
    read the component's own previous variance; rows 0 and K are the pinned
    linear nodes.
    """

    mix_in_w: np.ndarray   # (K,)
    mix_in_b: np.ndarray   # (K,)
    mix_out_w: np.ndarray  # (N, K)
    mix_out_b: np.ndarray  # (N,)
    mean_in_w: np.ndarray  # (K,)
    mean_in_b: np.ndarray  # (K,)
    mean_out_w: np.ndarray  # (N, K)
    mean_out_b: np.ndarray  # (N,)
    var_in_w: np.ndarray   # (2K,)
    var_in_b: np.ndarray   # (2K,)
    var_out_w: np.ndarray  # (N, 2K)
    var_out_b: np.ndarray  # (N,)

    @property
    def n_components(self) -> int:
        return self.mix_out_w.shape[0]

    @property
    def k_hidden(self) -> int:
        return self.mix_in_w.shape[0]


class ParamLayout(NamedTuple):
    """Where every parameter sits in the concatenation of the raveled
    ``RmdnParams`` fields, in field order, and what kind of entry it is.

    ``free`` marks the trainable entries (the flat vector of
    ``flatten_params`` is that subset, in order), ``pinned`` holds the fixed
    values of the other entries (0 elsewhere) and ``tanh`` marks the
    parameters of tanh nodes: their input weights and biases and the output
    weights they feed. The arrays are cached and read-only.
    """

    shapes: tuple[tuple[int, ...], ...]
    slices: tuple[slice, ...]
    free: np.ndarray
    pinned: np.ndarray
    tanh: np.ndarray

    def split(self, flat: np.ndarray) -> list[np.ndarray]:
        """Views of a full-length vector, one per field, in field shape."""
        return [flat[s].reshape(shape) for s, shape in zip(self.slices, self.shapes)]


@functools.lru_cache(maxsize=32)
def param_layout(n_components: int, k_hidden: int) -> ParamLayout:
    """The parameter layout for N components and K hidden nodes."""
    n, k = n_components, k_hidden
    parts = {}  # field name -> (free mask, pinned values, tanh mask), in field shape
    for net, width in (("mix", k), ("mean", k), ("var", 2 * k)):
        # node 0 of each block of K hidden nodes is linear, pinned to the identity
        linear = np.arange(width) % k == 0
        out_tanh = np.broadcast_to(~linear, (n, width))
        parts[f"{net}_in_w"] = (~linear, linear.astype(float), ~linear)
        parts[f"{net}_in_b"] = (~linear, np.zeros(width), ~linear)
        parts[f"{net}_out_w"] = (np.ones((n, width), bool), np.zeros((n, width)), out_tanh)
        parts[f"{net}_out_b"] = (np.ones(n, bool), np.zeros(n), np.zeros(n, bool))
    names = [f.name for f in fields(RmdnParams)]
    shapes, slices, pos = [], [], 0
    for name in names:
        size = parts[name][0].size
        shapes.append(parts[name][0].shape)
        slices.append(slice(pos, pos + size))
        pos += size
    free, pinned, tanh = (np.concatenate([parts[name][i].ravel() for name in names])
                          for i in range(3))
    for arr in (free, pinned, tanh):
        arr.flags.writeable = False
    return ParamLayout(tuple(shapes), tuple(slices), free, pinned, tanh)


@dataclass
class RecurrentState:
    """Previous conditional variances (per component) and squared residual."""

    sigma2_prev: np.ndarray
    e2_prev: float

    def __post_init__(self):
        self.sigma2_prev = np.atleast_1d(np.asarray(self.sigma2_prev, dtype=float))
        self.e2_prev = float(self.e2_prev)


def positive_elu(x, alpha: float, eps: float):
    """elu(x, alpha) + 1 + eps: x + 1 + eps for x > 0, else alpha*(e^x - 1) + 1 + eps.

    Continuous at 0 and strictly positive for every finite x when alpha <= 1
    (the saturation value for x -> -inf is 1 - alpha + eps). The model's
    variance unit is ``positive_elu(x, 1.0, ELU_EPS)``.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0.0, x, alpha * np.expm1(np.minimum(x, 0.0))) + (1.0 + eps)
    return float(out) if out.ndim == 0 else out


def _hidden_batch(x: np.ndarray, in_w: np.ndarray, in_b: np.ndarray) -> np.ndarray:
    """Hidden activations for an array of scalar inputs: (...) -> (K, ...).

    Node 0 is linear, the rest are tanh.
    """
    shape = (-1,) + (1,) * x.ndim
    h = in_w.reshape(shape) * x + in_b.reshape(shape)
    h[1:] = np.tanh(h[1:])
    return h


def _softmax(y: np.ndarray) -> np.ndarray:
    """Softmax over the leading (component) axis."""
    e = np.exp(y - np.max(y, axis=0))
    return e / np.sum(e, axis=0)


def presample_variances(values: np.ndarray) -> tuple[float, float]:
    """Presample (sigma2_0, e2_0): the population variance of the series for
    both, except that a constant series (every value equal to the first)
    keeps e2_0 = 0 and falls back to sigma2_0 = 1.0. A variance that
    overflows, or underflows to 0, becomes the nearest positive float; NaN
    propagates to e2_0, with sigma2_0 = 1.0.
    """
    if np.all(values == values[:1]):  # NaN equals nothing, so it is never constant
        return 1.0, 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        var = float(np.var(values))
    var = min(var, float(np.finfo(float).max))  # NaN stays NaN
    if var == 0.0:
        var = float(np.finfo(float).tiny)
    return (var if var > 0.0 else 1.0), var


def lagged(first, x: np.ndarray) -> np.ndarray:
    """``x`` one step later along its last (time) axis, ``first`` in front:
    entry t is what step t reads from step t-1, and entry 0 is the presample
    value."""
    out = np.empty_like(x)
    out[..., 0] = first
    out[..., 1:] = x[..., :-1]
    return out


def initial_state(series, config: RmdnConfig) -> RecurrentState:
    """Presample state: ``presample_variances`` for every component."""
    sigma2_0, e2_0 = presample_variances(_as_values(series))
    return RecurrentState(np.full(config.n_components, sigma2_0), e2_0)


class ForwardCache(NamedTuple):
    """The gradient's tape: what one forward pass computes on the way to the
    variances, kept for the backward pass.

    Time is the last axis of every array: column t belongs to step t. The
    arrays only the backward pass reads, the hidden nodes reading s2_prev
    and the output unit's derivative, are not here: ``gradient`` rebuilds
    them from ``drive`` and ``s2_prev``. Scoring keeps none of it:
    ``unroll`` runs the same stages and keeps only the mixture.
    """

    inputs: np.ndarray    # (T,)  lag-1 inputs, inputs[0] = 0
    hm: np.ndarray        # (K, T)  mixing hidden activations
    eta: np.ndarray       # (N, T)
    hmu: np.ndarray       # (K, T)  mean hidden activations
    mu: np.ndarray        # (N, T)
    he: np.ndarray        # (K, T)  variance hidden nodes reading e2_prev
    drive: np.ndarray     # (N, T)  the pre-activation's terms that do not read s2_prev
    sigma2: np.ndarray    # (N, T)
    e2_prev: np.ndarray   # (T,)  squared residual fed at each step
    s2_prev: np.ndarray   # (N, T)  variances fed at each step
    resid: np.ndarray     # (T,)  r_t - mu_bar_t


_LOOP = """def loop(drive, s2, c0, {args}one_eps):
    for d in drive:
        z = d + c0 * s2{terms}
        # NaN compares false and takes the saturating branch, where it stays NaN
        s2 = (z if z > 0.0 else expm1(z)) + one_eps
        yield s2
"""


@functools.lru_cache(maxsize=32)
def _variance_recursion(n_nodes: int):
    """One component's variance recursion over Python floats, generated for
    ``n_nodes`` live tanh nodes and cached.

    ``loop(drive, s2, c0, w0, a0, b0, ..., one_eps)`` computes
    z_t = drive[t] + c0 * s2 + w0 * tanh(a0 * s2 + b0) + ..., adding the
    terms in that order: the previous variance s2 times its coefficient
    through the linear node, then each live tanh node reading it, with
    ``drive`` for the rest. It yields the variances pelu(z_t).
    """
    args = "".join(f"w{j}, a{j}, b{j}, " for j in range(n_nodes))
    terms = "".join(f" + w{j} * tanh(a{j} * s2 + b{j})" for j in range(n_nodes))
    namespace = {"tanh": math.tanh, "expm1": math.expm1}
    exec(_LOOP.format(args=args, terms=terms), namespace)
    return namespace["loop"]


# The stages of a forward pass. Each returns what the backward pass reads
# ahead of its output, so that ``unroll`` can drop it at once. They run with
# floating-point warnings off: non-finite values propagate as data.

def _mixing(inputs: np.ndarray, params: RmdnParams) -> tuple[np.ndarray, np.ndarray]:
    """Mixing hidden activations (K, T) and mixture weights eta (N, T)."""
    hm = _hidden_batch(inputs, params.mix_in_w, params.mix_in_b)
    return hm, _softmax(params.mix_out_w @ hm + params.mix_out_b[:, None])


def _means(inputs: np.ndarray, params: RmdnParams) -> tuple[np.ndarray, np.ndarray]:
    """Mean hidden activations (K, T) and component means mu (N, T)."""
    hmu = _hidden_batch(inputs, params.mean_in_w, params.mean_in_b)
    return hmu, params.mean_out_w @ hmu + params.mean_out_b[:, None]


def _residuals(values: np.ndarray, eta: np.ndarray, mu: np.ndarray
               ) -> tuple[np.ndarray, np.ndarray]:
    """Residuals r_t - mu_bar_t and their squares e2_t, both (T,)."""
    resid = values - (eta * mu).sum(axis=0)
    return resid, resid * resid


def _variance_drive(e2: np.ndarray, e2_0: float, params: RmdnParams
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The squared residual fed at each step (T,), the variance hidden nodes
    reading it (K, T) and ``drive`` (N, T), the pre-activation's terms that
    do not read the previous variance."""
    k = params.k_hidden
    e2_prev = lagged(e2_0, e2)
    he = _hidden_batch(e2_prev, params.var_in_w[:k], params.var_in_b[:k])
    # the linear node reading s2 folds in: at the pinned a0 = 1, b0 = 0,
    # w0 * (a0 * s2 + b0) is bit for bit w0 * b0, here, plus (w0 * a0) * s2,
    # which ``_variances`` adds
    bias = params.var_out_b + params.var_out_w[:, k] * params.var_in_b[k]
    return e2_prev, he, params.var_out_w[:, :k] @ he + bias[:, None]


def _variances(drive: np.ndarray, params: RmdnParams, s2_0: np.ndarray) -> np.ndarray:
    """The N scalar variance recursions (N, T), each run over Python floats
    by the loop ``_variance_recursion`` generates for its count of live tanh
    nodes, from the presample variances ``s2_0``."""
    n, t_len = drive.shape
    k = params.k_hidden
    one_eps = 1.0 + ELU_EPS
    ws, in_w, in_b = params.var_out_w[:, k:], params.var_in_w[k:], params.var_in_b[k:]
    sigma2 = np.empty_like(drive)
    in_w1, in_b1 = in_w[1:].tolist(), in_b[1:].tolist()
    for i in range(n):
        # a tanh node with output weight 0 and finite inputs adds +-0 to z ...
        live = [x for w, a, b in zip(ws[i, 1:].tolist(), in_w1, in_b1)
                if w != 0.0 or not (math.isfinite(a) and math.isfinite(b)) for x in (w, a, b)]
        loop = _variance_recursion(len(live) // 3)
        sigma2[i] = np.fromiter(loop(memoryview(drive[i]), float(s2_0[i]),
                                     float(ws[i, 0] * in_w[0]), *live, one_eps), float, t_len)
    inf = lagged(np.isinf(s2_0), np.isinf(sigma2))  # where s2_prev is inf
    if inf.any():
        # ... but 0 * inf is NaN if its input weight is 0 and s2 inf, and NaN recurs
        lost = (np.any((ws[:, 1:] == 0.0) & (in_w[1:] == 0.0), axis=1)[:, None]
                & np.logical_or.accumulate(inf, axis=1))
        sigma2[lost] = np.nan
    return sigma2


def forward_pass(values: np.ndarray, params: RmdnParams, config: RmdnConfig,
                 init: RecurrentState) -> ForwardCache:
    """Unroll the model over the whole series and keep the gradient's tape.

    Only each component's own variance recurs. The mixing and mean networks
    read lagged returns alone, so the mixture means, the residuals, the
    squared residuals fed to the variance network and that network's whole
    e2 side are evaluated for all steps at once. What is left is N
    independent scalar recursions, one per component. Non-finite values
    propagate (divergence is observable data). See ``ForwardCache`` for the
    shapes; ``unroll`` runs the same stages for scoring.
    """
    inputs = lagged(0.0, values)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        hm, eta = _mixing(inputs, params)
        hmu, mu = _means(inputs, params)
        resid, e2 = _residuals(values, eta, mu)
        e2_prev, he, drive = _variance_drive(e2, init.e2_prev, params)
        sigma2 = _variances(drive, params, init.sigma2_prev)
    return ForwardCache(inputs, hm, eta, hmu, mu, he, drive, sigma2,
                        e2_prev, lagged(init.sigma2_prev, sigma2), resid)


def unroll(series, params: RmdnParams, config: RmdnConfig,
           init: RecurrentState) -> tuple[MixturePath, RecurrentState]:
    """Run the model over a series; step t is the conditional mixture for r_t.

    The scoring pass: it runs ``forward_pass``'s stages, with the same
    values bit for bit, and drops each array only the gradient reads once
    the next stage has read it. Returns the MixturePath over (T, N) views
    of the (N, T) mixture arrays plus the final recurrent state. Steps that
    picked up NaN/inf are flagged via ``MixtureStep.valid`` rather than
    raising, so the likelihood can propagate the divergence.
    """
    values = _as_values(series)
    inputs = lagged(0.0, values)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        eta = _mixing(inputs, params)[1]
        mu = _means(inputs, params)[1]
        del inputs
        e2 = _residuals(values, eta, mu)[1]
        sigma2 = _variances(_variance_drive(e2, init.e2_prev, params)[2], params,
                            init.sigma2_prev)
    return (MixturePath(eta.T, mu.T, sigma2.T),
            RecurrentState(sigma2[:, -1].copy(), e2[-1]))


def _zeros_params(config: RmdnConfig) -> RmdnParams:
    """Pinned entries at their fixed values, every other entry 0."""
    layout = param_layout(config.n_components, config.k_hidden)
    return RmdnParams(*layout.split(layout.pinned.copy()))


def init_params(config: RmdnConfig, seed: int, scheme: str = "pretrain") -> RmdnParams:
    """Seeded parameter initialization.

    Common rules: pinned entries fixed; every variance-network output weight
    and every bias starts at 1; free linear-node output weights (mixing and
    mean) are uniform on [-0.5, 0.5].

    ``pretrain``: all tanh-node parameters (their input weights and biases
    and the output weights they feed) start at exactly 0, so the fresh model
    computes the same function as one with no tanh nodes at all.

    ``plain``: tanh input weights and tanh-side output weights of the mixing
    and mean networks are uniform on [-0.5, 0.5]; tanh input biases follow
    the bias rule (1).

    The linear-node draws come first in a fixed order, so models that share
    a seed share their linear starting point regardless of K or scheme.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown init scheme {scheme!r}; expected one of {SCHEMES}")
    n = config.n_components
    rng = np.random.default_rng(seed)
    p = _zeros_params(config)

    u_lin = rng.uniform(-0.5, 0.5, n)
    v_lin = rng.uniform(-0.5, 0.5, n)

    p.mix_out_b[:] = 1.0
    p.mean_out_b[:] = 1.0
    p.var_out_w[:, :] = 1.0
    p.var_out_b[:] = 1.0
    p.mix_out_w[:, 0] = u_lin
    p.mean_out_w[:, 0] = v_lin

    layout = param_layout(n, config.k_hidden)
    tanh = RmdnParams(*layout.split(layout.tanh))  # per-field tanh-node masks
    if scheme == "plain":
        for w, b, node in ((p.mix_in_w, p.mix_in_b, tanh.mix_in_w),
                           (p.mean_in_w, p.mean_in_b, tanh.mean_in_w),
                           (p.var_in_w, p.var_in_b, tanh.var_in_w)):
            w[node] = rng.uniform(-0.5, 0.5, np.count_nonzero(node))
            b[node] = 1.0
        for w, node in ((p.mix_out_w, tanh.mix_out_w), (p.mean_out_w, tanh.mean_out_w)):
            w[node] = rng.uniform(-0.5, 0.5, np.count_nonzero(node))
    else:
        # tanh nodes contribute tanh(0) * 0: structurally linear start
        p.var_out_w[tanh.var_out_w] = 0.0
    return p


def params_from_garch(garch_params, config: RmdnConfig) -> RmdnParams:
    """Embed an AR(1)-GARCH(1,1) into a single-component, linear-only model.

    mean:     mu_{t+1} = a1 * r_t + a0
    variance: sigma2_{t+1} = pelu(alpha1*e2_t + beta1*sigma2_t + alpha0 - 1 - eps)

    The embedding reproduces the GARCH recursion exactly on every step whose
    variance pre-activation is positive, i.e. whenever the filtered variance
    exceeds 1 + eps (guaranteed when alpha0 > 1 + eps).
    """
    if config.n_components != 1:
        raise ValueError("the nested GARCH embedding requires n_components == 1")
    k = config.k_hidden
    p = _zeros_params(config)
    p.mean_out_w[0, 0] = garch_params.a1
    p.mean_out_b[0] = garch_params.a0
    p.var_out_w[0, 0] = garch_params.alpha1
    p.var_out_w[0, k] = garch_params.beta1
    p.var_out_b[0] = garch_params.alpha0 - 1.0 - ELU_EPS
    return p
