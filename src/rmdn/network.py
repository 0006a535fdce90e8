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
Their steps fold the pinned linear node into one coefficient and skip the
tanh nodes ``_variances`` names; the loop body is generated once per count
of live tanh nodes and yields only the variances.

Two passes run the one stage sequence, ``_stages``. ``forward_pass`` has
it write the gradient's ``Tape``: every intermediate the backward pass
reads, and the loop's input, the s2-independent part of each
pre-activation (``drive``). The tape belongs to whoever allocates it:
``optim.train`` allocates one per run and every epoch overwrites it in
place, so an epoch allocates only expression temporaries;
a one-shot call gets a fresh one. ``unroll`` is the scoring pass: it passes
no tape, keeps only the mixture and the final recurrent state, and drops
each intermediate once the next stage has read it. The per-component
arrays are component-major, (N, T), and the hidden activations (K, T), so
every sum, maximum or softmax over components is an elementwise operation
over contiguous rows of length T.

With a single component and all tanh weights at zero the model collapses to
an AR(1) conditional mean and, whenever the variance pre-activation is
positive, a GARCH(1,1) conditional variance; ``params_from_garch`` builds
that embedding explicitly.

For identifiability, the linear hidden node of each subnetwork is pinned to
the identity (input weight 1, bias 0). Pinned entries are excluded from the
trainable parameter set. ``param_layout`` is the one table of which entries
are pinned, which are trainable and which belong to tanh nodes; its
``params`` views a layout-length vector as ``RmdnParams``.

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

# pelu(x) = elu(x) + 1 + ELU_EPS adds PELU_OFFSET, the sum 1 + ELU_EPS rounded once
ELU_EPS = 1e-6
PELU_OFFSET = 1.0 + ELU_EPS
_expm1 = np.vectorize(math.expm1, otypes=[float])  # the variance loop's expm1, per value


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
    free: np.ndarray
    pinned: np.ndarray
    tanh: np.ndarray

    def params(self, flat: np.ndarray) -> RmdnParams:
        """The fields as views of a full-length vector, each in its shape."""
        ends = np.cumsum([math.prod(shape) for shape in self.shapes])
        return RmdnParams(*(part.reshape(shape)
                            for part, shape in zip(np.split(flat, ends[:-1]), self.shapes)))


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
    free, pinned, tanh = (np.concatenate([parts[name][i].ravel() for name in names])
                          for i in range(3))
    for arr in (free, pinned, tanh):
        arr.flags.writeable = False
    return ParamLayout(tuple(parts[name][0].shape for name in names), free, pinned, tanh)


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
    variance unit is ``positive_elu(x, 1.0, ELU_EPS)``, bit for bit on every
    float: it runs the variance loop's arithmetic, ``math.expm1`` included.
    """
    x = np.asarray(x, dtype=float)
    out = np.where(x > 0.0, x, alpha * _expm1(np.minimum(x, 0.0))) + (1.0 + eps)
    return float(out) if out.ndim == 0 else out


def _hidden_batch(x: np.ndarray, in_w: np.ndarray, in_b: np.ndarray,
                  out: np.ndarray | None = None) -> np.ndarray:
    """Hidden activations for an array of scalar inputs: (...) -> (K, ...),
    written into ``out`` if given. Node 0 is linear, the rest are tanh.
    """
    column = in_w.shape + (1,) * x.ndim  # one row per node, broadcast over x
    h = np.multiply(in_w.reshape(column), x, out=out)
    h += in_b.reshape(column)
    np.tanh(h[1:], out=h[1:])
    return h


def _softmax(y: np.ndarray) -> np.ndarray:
    """Softmax over the leading (component) axis, in place."""
    y -= np.max(y, axis=0)
    np.exp(y, out=y)
    y /= np.sum(y, axis=0)
    return y


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


def lagged(first, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``x`` one step later along its last (time) axis, ``first`` in front:
    entry t is what step t reads from step t-1, and entry 0 is the presample
    value. Written into ``out`` if given."""
    if out is None:
        out = np.empty_like(x)
    out[..., 0] = first
    out[..., 1:] = x[..., :-1]
    return out


def initial_state(series, config: RmdnConfig) -> RecurrentState:
    """Presample state: ``presample_variances`` for every component."""
    sigma2_0, e2_0 = presample_variances(_as_values(series))
    return RecurrentState(np.full(config.n_components, sigma2_0), e2_0)


class Tape:
    """The gradient's tape: what one forward pass computes on the way to the
    variances, kept for the backward pass, in arrays allocated once for N
    components, K hidden nodes and T steps.

    ``forward_pass`` overwrites every array on every call, so one tape
    serves every epoch of a training run; ``gradients.GradientTape`` adds
    the backward pass's arrays. Time is the last axis of every array:
    column t belongs to step t. The arrays only the backward pass reads,
    the hidden nodes reading s2_prev and the output unit's derivative, are
    not here: ``gradient`` builds the nodes from ``s2_prev`` and reads the
    derivative from ``sigma2``.
    Scoring keeps none of it: ``unroll`` runs the same stages and keeps
    only the mixture. Nothing carries over from one call to the next, the
    lag-1 inputs included.
    """

    def __init__(self, n_components: int, k_hidden: int, t_len: int):
        n, k, t = n_components, k_hidden, t_len
        self.inputs = np.empty(t)        # lag-1 inputs, inputs[0] = 0
        self.hm = np.empty((k, t))       # mixing hidden activations
        self.eta = np.empty((n, t))
        self.hmu = np.empty((k, t))      # mean hidden activations
        self.mu = np.empty((n, t))
        self.he = np.empty((k, t))       # variance hidden nodes reading e2_prev
        self.drive = np.empty((n, t))    # the variance loop's input: z's terms not reading s2
        self.sigma2 = np.empty((n, t))
        self.e2_prev = np.empty(t)       # squared residual fed at each step
        self.s2_prev = np.empty((n, t))  # variances fed at each step
        self.resid = np.empty(t)         # r_t - mu_bar_t


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
    ``n_nodes`` live tanh nodes and cached: ``loop(drive, s2, c0, w0, a0,
    b0, ..., one_eps)`` yields the variances pelu(z_t), with z_t summed in
    this order: drive[t] + c0 * s2 + w0 * tanh(a0 * s2 + b0) + ...."""
    args = "".join(f"w{j}, a{j}, b{j}, " for j in range(n_nodes))
    terms = "".join(f" + w{j} * tanh(a{j} * s2 + b{j})" for j in range(n_nodes))
    namespace = {"tanh": math.tanh, "expm1": math.expm1}
    exec(_LOOP.format(args=args, terms=terms), namespace)
    return namespace["loop"]


def _hidden_layer(x: np.ndarray, in_w: np.ndarray, in_b: np.ndarray, out_w: np.ndarray,
                  out_b: np.ndarray, h: np.ndarray | None = None,
                  y: np.ndarray | None = None) -> np.ndarray:
    """One subnetwork over scalar inputs (T,): the outputs ``out_w @ h +
    out_b`` (N, T) of its hidden activations ``h`` (K, T), each written into
    its array if given."""
    h = _hidden_batch(x, in_w, in_b, h)
    y = np.matmul(out_w, h, out=y)
    y += out_b[:, None]
    return y


def _residuals(values: np.ndarray, eta: np.ndarray, mu: np.ndarray,
               resid: np.ndarray | None = None) -> np.ndarray:
    """Squared residuals e2_t (T,); the residuals r_t - mu_bar_t go into ``resid``."""
    resid = np.subtract(values, (eta * mu).sum(axis=0), out=resid)
    return resid * resid


def _variances(drive: np.ndarray, params: RmdnParams, s2_0: np.ndarray,
               sigma2: np.ndarray | None = None) -> np.ndarray:
    """The N scalar variance recursions (N, T) from the presample variances
    ``s2_0``, each run over Python floats by the loop ``_variance_recursion``
    generates for its count of live tanh nodes; every row is written. A tanh
    node with output weight 0 and finite inputs adds +-0 to z and is skipped,
    unless its component's presample or computed variance is infinite, where
    it can add 0 * tanh(0 * inf + b) = NaN: that component runs again with
    every node."""
    n, t_len = drive.shape
    k = params.k_hidden
    ws, in_w, in_b = params.var_out_w[:, k:], params.var_in_w[k:], params.var_in_b[k:]
    if sigma2 is None:
        sigma2 = np.empty_like(drive)
    in_w1, in_b1 = in_w[1:].tolist(), in_b[1:].tolist()
    for i in range(n):
        for every in (False, True):
            live = [x for w, a, b in zip(ws[i, 1:].tolist(), in_w1, in_b1)
                    if every or w != 0.0 or not (math.isfinite(a) and math.isfinite(b))
                    for x in (w, a, b)]
            loop = _variance_recursion(len(live) // 3)
            sigma2[i] = np.fromiter(loop(memoryview(drive[i]), float(s2_0[i]),
                                         float(ws[i, 0] * in_w[0]), *live, PELU_OFFSET), float, t_len)
            if not (math.isinf(s2_0[i]) or np.isinf(sigma2[i]).any()):
                break
    return sigma2


def _stages(values: np.ndarray, params: RmdnParams, init: RecurrentState,
            tape: Tape | None = None) -> tuple[np.ndarray, ...]:
    """The stages of a forward pass, in order: the lag-1 inputs (presample
    0), the mixing and mean layers, the residuals, the variance drive
    (presample ``init.e2_prev``) and the N variance recursions. Each writes
    into its ``tape`` array if given and allocates otherwise; without a
    tape, an array no later stage reads is dropped once the next stage has
    read it. Returns eta, mu, the squared residuals and sigma2.
    Floating-point warnings are off: non-finite values propagate as data."""
    arrays = {} if tape is None else vars(tape)
    k = params.k_hidden
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        inputs = lagged(0.0, values, arrays.get("inputs"))
        eta = _softmax(_hidden_layer(inputs, params.mix_in_w, params.mix_in_b, params.mix_out_w,
                                     params.mix_out_b, arrays.get("hm"), arrays.get("eta")))
        mu = _hidden_layer(inputs, params.mean_in_w, params.mean_in_b, params.mean_out_w,
                           params.mean_out_b, arrays.get("hmu"), arrays.get("mu"))
        del inputs
        e2 = _residuals(values, eta, mu, arrays.get("resid"))
        # the linear node reading s2 folds in: at the pinned a0 = 1, b0 = 0,
        # w0 * (a0 * s2 + b0) is bit for bit w0 * b0, here, plus (w0 * a0) * s2,
        # which ``_variances`` adds
        bias = params.var_out_b + params.var_out_w[:, k] * params.var_in_b[k]
        drive = _hidden_layer(lagged(init.e2_prev, e2, arrays.get("e2_prev")), params.var_in_w[:k],
                              params.var_in_b[:k], params.var_out_w[:, :k], bias,
                              arrays.get("he"), arrays.get("drive"))
        return eta, mu, e2, _variances(drive, params, init.sigma2_prev, arrays.get("sigma2"))


def forward_pass(values: np.ndarray, params: RmdnParams, config: RmdnConfig | None,
                 init: RecurrentState, tape: Tape | None = None) -> Tape:
    """Unroll the model over the whole series and write the gradient's tape.

    Only each component's own variance recurs. The mixing and mean networks
    read lagged returns alone, so the mixture means, the residuals, the
    squared residuals fed to the variance network and that network's whole
    e2 side are evaluated for all steps at once. What is left is N
    independent scalar recursions, one per component. Non-finite values
    propagate (divergence is observable data). Every array of ``tape`` is
    overwritten; without one, a fresh tape is allocated. See ``Tape`` for
    the shapes. ``config`` is not read: the sizes come from ``params``.
    """
    if tape is None:
        tape = Tape(params.n_components, params.k_hidden, values.size)
    _stages(values, params, init, tape)
    lagged(init.sigma2_prev, tape.sigma2, tape.s2_prev)
    return tape


def unroll(series, params: RmdnParams, config: RmdnConfig,
           init: RecurrentState) -> tuple[MixturePath, RecurrentState]:
    """Run the model over a series; step t is the conditional mixture for r_t.

    The scoring pass: it runs ``forward_pass``'s stages with no tape, so
    each array only the gradient reads is dropped once the next stage has
    read it. Returns the MixturePath over (T, N) views of the (N, T)
    mixture arrays plus the final recurrent state. Steps that picked up
    NaN/inf are flagged via ``MixtureStep.valid`` rather than raising, so
    the likelihood can propagate the divergence.
    """
    eta, mu, e2, sigma2 = _stages(_as_values(series), params, init)
    return (MixturePath(eta.T, mu.T, sigma2.T),
            RecurrentState(sigma2[:, -1].copy(), e2[-1]))


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
    layout = param_layout(n, config.k_hidden)
    p = layout.params(layout.pinned.copy())  # pinned entries fixed, the rest 0

    u_lin = rng.uniform(-0.5, 0.5, n)
    v_lin = rng.uniform(-0.5, 0.5, n)

    p.mix_out_b[:] = 1.0
    p.mean_out_b[:] = 1.0
    p.var_out_w[:, :] = 1.0
    p.var_out_b[:] = 1.0
    p.mix_out_w[:, 0] = u_lin
    p.mean_out_w[:, 0] = v_lin

    tanh = layout.params(layout.tanh)  # per-field tanh-node masks
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
    layout = param_layout(1, k)
    p = layout.params(layout.pinned.copy())
    p.mean_out_w[0, 0] = garch_params.a1
    p.mean_out_b[0] = garch_params.a0
    p.var_out_w[0, 0] = garch_params.alpha1
    p.var_out_w[0, k] = garch_params.beta1
    # not alpha0 - PELU_OFFSET: subtracting 1 and eps in turn rounds differently
    p.var_out_b[0] = garch_params.alpha0 - 1.0 - ELU_EPS
    return p
