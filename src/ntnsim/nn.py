"""Dense-network math used by the actor-critic stack: forward pass, exact
reverse-mode gradients, in-place Adam, soft target updates, and a small
binary checkpoint format.

forward_pass returns the output together with a cache of the layer
activations. The two backward passes read that cache instead of running the
forward pass again, and each forms only one kind of gradient:
param_grads the weight and bias gradients (a critic's TD step, an actor's
step), input_grad the gradient w.r.t. the input (the deterministic policy
gradient pushes a critic's action gradient into the actor through it).
mlp_backward runs all three and returns every gradient.

All functions accept a single sample (d,) or a minibatch (n, d); gradients
are summed over the batch, so mean-loss callers fold 1/n into the upstream
gradient themselves.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"NTNMLP\x00\x00"  # 8 bytes
FORMAT_VERSION = 1
_ACT_CODES = {"linear": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}


@dataclass
class MlpParams:
    """Fully-connected net: relu hidden layers, linear or tanh output.

    weights[l] has shape (layer_sizes[l], layer_sizes[l+1]); forward is
    x @ W + b per layer.
    """

    layer_sizes: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    out_act: str = "linear"

    def copy(self) -> "MlpParams":
        return MlpParams(
            layer_sizes=self.layer_sizes,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            out_act=self.out_act,
        )


def init_mlp(layer_sizes, out_act: str, rng: np.random.Generator) -> MlpParams:
    """Uniform ±1/sqrt(fan_in) init per layer."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    if out_act not in _ACT_CODES:
        raise ValueError(f"unknown output activation {out_act!r}")
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(layer_sizes=sizes, weights=weights, biases=biases, out_act=out_act)


def _check_input(params: MlpParams, x: np.ndarray) -> tuple[np.ndarray, bool]:
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input shape {x.shape} does not match first layer size {params.layer_sizes[0]}"
        )
    return x, single


def forward_pass(params: MlpParams, x):
    """Forward pass that keeps its intermediates: returns (output, cache).

    A single sample is a batch of one, so the output is always (n, d_out).
    The cache holds the pre-activations of every layer and the
    post-activations including the input (by reference, not copied);
    param_grads and input_grad read it instead of running the pass again.
    """
    x, _ = _check_input(params, x)
    acts = [x]
    zs = []
    h = x
    last = len(params.weights) - 1
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w
        z += b
        zs.append(z)
        if l < last:
            h = np.maximum(z, 0.0)
        elif params.out_act == "tanh":
            h = np.tanh(z)
        else:
            h = z
        acts.append(h)
    return h, (zs, acts)


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    y, _ = forward_pass(params, x)
    return y[0] if np.ndim(x) == 1 else y


def _output_grad(params: MlpParams, cache, upstream) -> np.ndarray:
    """The upstream gradient carried back through the output activation."""
    y = cache[1][-1]
    g = np.asarray(upstream, dtype=float)
    if g.shape != y.shape:
        raise ValueError(f"upstream shape {g.shape} does not match output {y.shape}")
    if params.out_act == "tanh":
        g = g * (1.0 - y * y)
    return g


def param_grads(params: MlpParams, cache, upstream):
    """Batch-summed gradients of sum(upstream * output) w.r.t. the weights
    and biases, from a forward_pass cache: (weight grads, bias grads)."""
    zs, acts = cache
    g = _output_grad(params, cache, upstream)
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    for l in range(len(params.weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ g
        grads_b[l] = g.sum(axis=0)
        if l > 0:
            g = g @ params.weights[l].T
            g *= zs[l - 1] > 0.0
    return grads_w, grads_b


def input_grad(params: MlpParams, cache, upstream) -> np.ndarray:
    """Per-sample gradient of sum(upstream * output) w.r.t. the input, from
    a forward_pass cache; no parameter gradient is formed."""
    zs, _ = cache
    g = _output_grad(params, cache, upstream)
    for l in range(len(params.weights) - 1, -1, -1):
        g = g @ params.weights[l].T
        if l > 0:
            g *= zs[l - 1] > 0.0
    return g


def mlp_backward(params: MlpParams, x, upstream):
    """Exact gradients of sum(upstream * forward(x)) w.r.t. params and input.

    Returns (weight grads, bias grads, input grad); batch inputs yield
    batch-summed parameter grads and a per-sample input grad.
    """
    single = np.ndim(x) == 1
    g = np.asarray(upstream, dtype=float)
    if single:
        g = g[None, :]
    _, cache = forward_pass(params, x)
    grads_w, grads_b = param_grads(params, cache, g)
    gx = input_grad(params, cache, g)
    return grads_w, grads_b, (gx[0] if single else gx)


@dataclass
class AdamState:
    t: int = 0
    m_w: list = field(default_factory=list)
    v_w: list = field(default_factory=list)
    m_b: list = field(default_factory=list)
    v_b: list = field(default_factory=list)


def init_adam(params: MlpParams) -> AdamState:
    return AdamState(
        t=0,
        m_w=[np.zeros_like(w) for w in params.weights],
        v_w=[np.zeros_like(w) for w in params.weights],
        m_b=[np.zeros_like(b) for b in params.biases],
        v_b=[np.zeros_like(b) for b in params.biases],
    )


def adam_step(
    params: MlpParams,
    grads_w,
    grads_b,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Bias-corrected Adam, in place; returns (params, state) for chaining.

    Per parameter array:
        m <- beta1*m + (1-beta1)*g
        v <- beta2*v + ((1-beta2)*g)*g
        p <- p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
    evaluated in exactly this order in two scratch arrays.
    """
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    for p, g, m, v in zip(
        params.weights + params.biases,
        list(grads_w) + list(grads_b),
        state.m_w + state.m_b,
        state.v_w + state.v_b,
    ):
        s = np.multiply(g, 1.0 - beta1)
        m *= beta1
        m += s
        np.multiply(g, 1.0 - beta2, out=s)
        s *= g
        v *= beta2
        v += s
        np.divide(m, bc1, out=s)
        s *= lr
        r = np.divide(v, bc2)
        np.sqrt(r, out=r)
        r += eps
        s /= r
        p -= s
    return params, state


def soft_update(target: MlpParams, online: MlpParams, tau: float) -> MlpParams:
    """target <- (1-tau)*target + tau*online, elementwise, in place."""
    if target.layer_sizes != online.layer_sizes:
        raise ValueError("target/online layer sizes differ")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau {tau} outside [0, 1]")
    for tw, ow in zip(target.weights, online.weights):
        tw *= 1.0 - tau
        tw += tau * ow
    for tb, ob in zip(target.biases, online.biases):
        tb *= 1.0 - tau
        tb += tau * ob
    return target


# Checkpoint layout (little-endian throughout):
#   bytes 0..7   magic "NTNMLP\0\0"
#   byte  8      format version (1)
#   byte  9      output activation code (0 = linear, 1 = tanh)
#   bytes 10..11 reserved, zero
#   bytes 12..15 uint32 layer count L
#   next 4*L     uint32 layer sizes
#   then per layer: weight matrix (fan_in x fan_out, row-major) float64,
#                   bias vector (fan_out) float64


def save_params(path, params: MlpParams) -> None:
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BBHI", FORMAT_VERSION, _ACT_CODES[params.out_act], 0,
                            len(params.layer_sizes)))
        f.write(struct.pack(f"<{len(params.layer_sizes)}I", *params.layer_sizes))
        for w, b in zip(params.weights, params.biases):
            f.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            f.write(np.ascontiguousarray(b, dtype="<f8").tobytes())


def load_params(path) -> MlpParams:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(raw) < 16:
        raise ValueError(f"{path}: header cut short")
    version, act_code, _, n_layers = struct.unpack("<BBHI", raw[8:16])
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format version {version}")
    if act_code not in _ACT_NAMES:
        raise ValueError(f"{path}: unknown activation code {act_code}")
    off = 16 + 4 * n_layers
    if len(raw) < off:
        raise ValueError(f"{path}: header cut short before its {n_layers} layer sizes")
    sizes = struct.unpack(f"<{n_layers}I", raw[16:off])
    if n_layers < 2 or 0 in sizes:
        raise ValueError(f"{path}: bad layer sizes {sizes}")
    payload = 8 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    if len(raw) - off != payload:
        raise ValueError(
            f"{path}: {len(raw) - off} parameter bytes where layer sizes {sizes} need {payload}"
        )
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        n = fan_in * fan_out
        weights.append(
            np.frombuffer(raw, dtype="<f8", count=n, offset=off).reshape(fan_in, fan_out).copy()
        )
        off += 8 * n
        biases.append(np.frombuffer(raw, dtype="<f8", count=fan_out, offset=off).copy())
        off += 8 * fan_out
    return MlpParams(layer_sizes=sizes, weights=weights, biases=biases,
                     out_act=_ACT_NAMES[act_code])
