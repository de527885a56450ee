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
gradient themselves. forward_pass also runs a stack of nets (see stack), one
net per slab of its input; no gradient is formed for a stack.

There is no dtype option: every function computes in the dtype of the
parameters it is given, and casts its input and upstream gradient to it.
init_mlp draws float64; the trainer casts its nets to float32 once. In
float32, Adam's moments of weights whose gradient stays zero and the
weight-decayed weights of the velocity critics decay into subnormals, and
x86-64 takes a slow microcode path for every operation on one: without a
flush, a tts-maddpg run of 300 episodes x 100 slots held 244k subnormals
at its end, its rounds slowed from 12 ms to 70-150 ms after round 1,500, and
it took 373 s instead of 96 s (2-vCPU x86-64, one BLAS thread).
flush_subnormals sets flush-to-zero for the span of an update round only, so
the float64 simulator never runs under it.
"""

from __future__ import annotations

import ctypes
import functools
import platform
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

MAGIC = b"NTNMLP\x00\x00"  # 8 bytes
FORMAT_VERSION = 2
_ACT_CODES = {"linear": 0, "tanh": 1}
_ACT_NAMES = {v: k for k, v in _ACT_CODES.items()}
_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}
_DTYPE_NAMES = {v: k for k, v in _DTYPE_CODES.items()}


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

    @property
    def dtype(self) -> np.dtype:
        return self.weights[0].dtype

    def astype(self, dtype) -> "MlpParams":
        """A copy with every array in dtype."""
        return MlpParams(
            layer_sizes=self.layer_sizes,
            weights=[w.astype(dtype) for w in self.weights],
            biases=[b.astype(dtype) for b in self.biases],
            out_act=self.out_act,
        )

    def copy(self) -> "MlpParams":
        return self.astype(self.dtype)

    def take(self, idx) -> "MlpParams":
        """The stack of the nets idx (indices into a stack's net axis; see
        stack), in that order."""
        return MlpParams(
            layer_sizes=self.layer_sizes,
            weights=[w.take(idx, axis=0) for w in self.weights],
            biases=[b.take(idx, axis=0) for b in self.biases],
            out_act=self.out_act,
        )


def stack(nets: list[MlpParams]) -> MlpParams:
    """Nets of equal layer sizes and output activation as one stack: each
    weight matrix gains a leading net axis (nets, fan_in, fan_out), each bias
    becomes (nets, 1, fan_out). forward_pass runs net i on slab i of an input
    (..., nets, rows, d), broadcasting the nets over the leading axes.

    A slab's product is the same BLAS call as the net's own on those rows,
    so each slab's output equals the net's forward of the slab bit for bit
    as long as every slab has the same number of rows (see tests/test_nn.py)."""
    first = nets[0]
    if any(n.layer_sizes != first.layer_sizes or n.out_act != first.out_act for n in nets):
        raise ValueError("stacked nets must share layer sizes and output activation")
    return MlpParams(
        layer_sizes=first.layer_sizes,
        weights=[np.stack(ws) for ws in zip(*(n.weights for n in nets))],
        biases=[np.stack(bs)[:, None, :] for bs in zip(*(n.biases for n in nets))],
        out_act=first.out_act,
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


def _check_input(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """x as a batch (n, d) for a net, or as slabs (..., nets, rows, d) for a
    stack, in the parameters' dtype."""
    x = np.asarray(x, dtype=params.dtype)
    if x.ndim == 1:
        x = x[None, :]
    stacked = params.weights[0].ndim == 3
    if (x.ndim < 3 if stacked else x.ndim != 2) or x.shape[-1] != params.layer_sizes[0]:
        raise ValueError(
            f"input shape {x.shape} does not match first layer size {params.layer_sizes[0]}"
            + (" of a stack, which reads (..., nets, rows, d)" if stacked else "")
        )
    return x


def forward_pass(params: MlpParams, x):
    """Forward pass that keeps its intermediates: returns (output, cache).

    A single sample is a batch of one, so the output of a net is always
    (n, d_out); that of a stack is (..., nets, rows, d_out).
    The cache holds the pre-activations of every layer and the
    post-activations including the input (by reference, not copied);
    param_grads and input_grad read it instead of running the pass again.
    """
    x = _check_input(params, x)
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
    if params.weights[0].ndim != 2:
        raise ValueError("gradients are formed for one net, not for a stack")
    y = cache[1][-1]
    g = np.asarray(upstream, dtype=y.dtype)
    if g.shape != y.shape:
        raise ValueError(f"upstream shape {g.shape} does not match output {y.shape}")
    if params.out_act == "tanh":
        g = g * (1.0 - y * y)
    return g


def _through(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g @ w.T; for a layer with one output unit (every critic and scorer
    head) the same products as a broadcast, which is faster than a gemm."""
    return g * w[:, 0] if w.shape[1] == 1 else g @ w.T


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
            g = _through(g, params.weights[l])
            g *= zs[l - 1] > 0.0
    return grads_w, grads_b


def input_grad(params: MlpParams, cache, upstream, cols=slice(None)) -> np.ndarray:
    """Per-sample gradient of sum(upstream * output) w.r.t. the input
    columns cols (all by default), from a forward_pass cache; no parameter
    gradient is formed. The last product reads only the rows cols of the
    first weight matrix, so a few columns cost a few columns of work; the
    result can differ in the last bit from slicing the full gradient."""
    zs, _ = cache
    g = _output_grad(params, cache, upstream)
    for l in range(len(params.weights) - 1, 0, -1):
        g = _through(g, params.weights[l])
        g *= zs[l - 1] > 0.0
    return _through(g, params.weights[0][cols])


def mlp_backward(params: MlpParams, x, upstream):
    """Exact gradients of sum(upstream * forward(x)) w.r.t. params and input.

    Returns (weight grads, bias grads, input grad); batch inputs yield
    batch-summed parameter grads and a per-sample input grad.
    """
    single = np.ndim(x) == 1
    g = np.asarray(upstream)
    if single:
        g = g[None, :]
    _, cache = forward_pass(params, x)
    grads_w, grads_b = param_grads(params, cache, g)
    gx = input_grad(params, cache, g)
    return grads_w, grads_b, (gx[0] if single else gx)


def keep_heap() -> bool:
    """Have glibc's malloc serve blocks below 4 MiB from the heap and keep up
    to 16 MiB of freed heap; returns whether the C library took both
    settings.

    An update round allocates and frees dozens of 100-300 KB temporaries
    (critic input rows, activations, gradients). With glibc's adaptive
    defaults such blocks are mapped afresh or the heap top is trimmed after
    they are freed, so every round faults the same pages in again: 300
    maddpg rounds took 1.0 M minor faults and 23 ms a round, against 857
    faults and 14 ms with fixed thresholds (2-core x86-64, one BLAS
    thread). No number changes. Where the C library has no mallopt this
    does nothing."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3  # glibc's malloc.h parameter numbers
    return bool(mallopt(m_mmap_threshold, 4 << 20)) and bool(mallopt(m_trim_threshold, 16 << 20))


# glibc's x86-64 fenv_t: the 28-byte x87 environment, then the SSE control
# and status register MXCSR, which fesetenv installs whole.
_FENV_WORDS, _MXCSR_WORD = 8, 7
_MXCSR_FTZ_DAZ = 0x8000 | 0x0040  # flush-to-zero, denormals-are-zero


@functools.cache
def _fenv_calls():
    """(fegetenv, fesetenv) from glibc on x86-64, else None."""
    if platform.machine() not in ("x86_64", "AMD64") or platform.libc_ver()[0] != "glibc":
        return None
    try:
        libc = ctypes.CDLL(None)
        calls = libc.fegetenv, libc.fesetenv
    except (OSError, AttributeError):
        return None
    for f in calls:
        f.argtypes, f.restype = [ctypes.POINTER(ctypes.c_uint32 * _FENV_WORDS)], ctypes.c_int
    return calls


@contextmanager
def flush_subnormals():
    """Flush subnormal results and operands to zero in this thread while the
    block runs, then restore the caller's floating-point environment; yields
    whether it could (glibc on x86-64 only; elsewhere it does nothing and
    yields False).

    Under it an update round never touches a float32 subnormal (see the
    module docstring). Only the calling thread's SSE state is set: a BLAS
    running its own threads computes their share without the flush, so
    results are reproducible with BLAS on one thread, as the harness runs."""
    calls = _fenv_calls()
    saved = (ctypes.c_uint32 * _FENV_WORDS)()
    if calls is None or calls[0](saved) != 0:
        yield False
        return
    flushed = (ctypes.c_uint32 * _FENV_WORDS)(*saved)
    flushed[_MXCSR_WORD] |= _MXCSR_FTZ_DAZ
    if calls[1](flushed) != 0:
        yield False
        return
    try:
        yield True
    finally:
        calls[1](saved)


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
#   byte  8      format version (2; version 1 is read too)
#   byte  9      output activation code (0 = linear, 1 = tanh)
#   byte  10     dtype code (0 = float64, 1 = float32); zero in version 1,
#                whose files are all float64
#   byte  11     reserved, zero
#   bytes 12..15 uint32 layer count L
#   next 4*L     uint32 layer sizes
#   then per layer: weight matrix (fan_in x fan_out, row-major),
#                   bias vector (fan_out), both in the dtype


def save_params(path, params: MlpParams) -> None:
    dtype = params.dtype.newbyteorder("<")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BBBBI", FORMAT_VERSION, _ACT_CODES[params.out_act],
                            _DTYPE_CODES[params.dtype], 0, len(params.layer_sizes)))
        f.write(struct.pack(f"<{len(params.layer_sizes)}I", *params.layer_sizes))
        for w, b in zip(params.weights, params.biases):
            f.write(np.ascontiguousarray(w, dtype=dtype).tobytes())
            f.write(np.ascontiguousarray(b, dtype=dtype).tobytes())


def load_params(path) -> MlpParams:
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:8] != MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(raw) < 16:
        raise ValueError(f"{path}: header cut short")
    version, act_code, dtype_code, _, n_layers = struct.unpack("<BBBBI", raw[8:16])
    if version not in (1, FORMAT_VERSION):
        raise ValueError(f"{path}: unsupported format version {version}")
    if act_code not in _ACT_NAMES:
        raise ValueError(f"{path}: unknown activation code {act_code}")
    if dtype_code not in _DTYPE_NAMES or (version == 1 and dtype_code != 0):
        raise ValueError(f"{path}: unknown dtype code {dtype_code}")
    dtype = _DTYPE_NAMES[dtype_code].newbyteorder("<")
    off = 16 + 4 * n_layers
    if len(raw) < off:
        raise ValueError(f"{path}: header cut short before its {n_layers} layer sizes")
    sizes = struct.unpack(f"<{n_layers}I", raw[16:off])
    if n_layers < 2 or 0 in sizes:
        raise ValueError(f"{path}: bad layer sizes {sizes}")
    n_floats = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))
    payload = dtype.itemsize * n_floats
    if len(raw) - off != payload:
        raise ValueError(
            f"{path}: {len(raw) - off} parameter bytes where layer sizes {sizes} need {payload}"
        )
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        n = fan_in * fan_out
        weights.append(
            np.frombuffer(raw, dtype=dtype, count=n, offset=off).reshape(fan_in, fan_out).copy()
        )
        off += dtype.itemsize * n
        biases.append(np.frombuffer(raw, dtype=dtype, count=fan_out, offset=off).copy())
        off += dtype.itemsize * fan_out
    return MlpParams(layer_sizes=sizes, weights=weights, biases=biases,
                     out_act=_ACT_NAMES[act_code])
