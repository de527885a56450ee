"""Dense-network math used by the actor-critic stack: forward pass, exact
reverse-mode gradients, in-place Adam, soft target updates, and a small
binary checkpoint format.

A net keeps all its parameters in one flat buffer, in checkpoint order (W0,
b0, W1, b1, ...); its weights and biases are views of that buffer (see
layer_views). A gradient is a flat array of the same layout, and so are
Adam's two moments. So adam_step, soft_update, save_params and load_params
each make one pass over a net, however many layers it has.

forward_pass returns the output together with a cache of the layer
activations. The two backward passes read that cache instead of running the
forward pass again, and each forms only one kind of gradient:
param_grads the flat parameter gradient (a critic's TD step, an actor's
step), input_grad the gradient w.r.t. the input (the deterministic policy
gradient pushes a critic's action gradient into the actor through it).
mlp_backward runs the forward pass and both backward passes.

A net reads a minibatch (n, d), and there is no single-sample path: one
sample is passed as x[None]. Gradients are summed over the batch, so
mean-loss callers fold 1/n into the upstream gradient themselves.
forward_pass also runs a stack of nets (see stack), one net per slab of its
input; no gradient is formed for a stack.

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


def param_count(layer_sizes) -> int:
    """Entries of a net's flat buffer: every weight and bias."""
    sizes = tuple(layer_sizes)
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(sizes[:-1], sizes[1:]))


def layer_views(layer_sizes, flat: np.ndarray) -> tuple[list, list]:
    """(weights, biases) as views of a flat buffer (..., param_count) in
    checkpoint order. A net's 1-D buffer gives weights (fan_in, fan_out) and
    biases (fan_out,); a stack's (nets, param_count) buffer gives weights
    (nets, fan_in, fan_out) and biases (nets, 1, fan_out)."""
    lead = flat.shape[:-1]
    bias_shape = lead + (1,) if lead else ()
    weights, biases, off = [], [], 0
    for fan_in, fan_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        weights.append(flat[..., off : off + fan_in * fan_out].reshape(lead + (fan_in, fan_out)))
        off += fan_in * fan_out
        biases.append(flat[..., off : off + fan_out].reshape(bias_shape + (fan_out,)))
        off += fan_out
    return weights, biases


@dataclass
class MlpParams:
    """Fully-connected net: relu hidden layers, linear or tanh output.

    flat holds every parameter in checkpoint order; weights[l] (shape
    (layer_sizes[l], layer_sizes[l+1])) and biases[l] are views of it (see
    layer_views), and forward is x @ W + b per layer. Copies and pickles
    rebuild the views over the copied buffer.
    """

    layer_sizes: tuple[int, ...]
    flat: np.ndarray
    out_act: str = "linear"
    weights: list = field(init=False, repr=False, compare=False)
    biases: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.flat.shape[-1:] != (param_count(self.layer_sizes),):
            raise ValueError(f"a buffer of shape {self.flat.shape} does not hold a net of "
                             f"layer sizes {self.layer_sizes}")
        self.weights, self.biases = layer_views(self.layer_sizes, self.flat)

    def __getstate__(self):
        return {"layer_sizes": self.layer_sizes, "flat": self.flat, "out_act": self.out_act}

    def __setstate__(self, state):
        self.__init__(**state)

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def astype(self, dtype) -> "MlpParams":
        """A copy with its buffer in dtype."""
        return MlpParams(self.layer_sizes, self.flat.astype(dtype), self.out_act)

    def copy(self) -> "MlpParams":
        return self.astype(self.dtype)

    def take(self, idx) -> "MlpParams":
        """The stack of the nets idx (indices into a stack's net axis; see
        stack), in that order."""
        return MlpParams(self.layer_sizes, self.flat.take(idx, axis=0), self.out_act)


def stack(nets: list[MlpParams]) -> MlpParams:
    """Nets of equal layer sizes and output activation as one stack: its
    buffer holds one net's buffer per row, so each weight matrix gains a
    leading net axis (nets, fan_in, fan_out) and each bias becomes (nets, 1,
    fan_out). forward_pass runs net i on slab i of an input (..., nets,
    rows, d), broadcasting the nets over the leading axes.

    A slab's product is the same BLAS call as the net's own on those rows,
    so each slab's output equals the net's forward of the slab bit for bit
    as long as every slab has the same number of rows (see tests/test_nn.py)."""
    first = nets[0]
    if any(n.layer_sizes != first.layer_sizes or n.out_act != first.out_act for n in nets):
        raise ValueError("stacked nets must share layer sizes and output activation")
    return MlpParams(first.layer_sizes, np.stack([n.flat for n in nets]), first.out_act)


def init_mlp(layer_sizes, out_act: str, rng: np.random.Generator) -> MlpParams:
    """Uniform ±1/sqrt(fan_in) init per layer, drawn W0, b0, W1, b1, ..."""
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2 or any(s <= 0 for s in sizes):
        raise ValueError(f"bad layer sizes {sizes}")
    if out_act not in _ACT_CODES:
        raise ValueError(f"unknown output activation {out_act!r}")
    parts = []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        parts.append(rng.uniform(-bound, bound, size=fan_in * fan_out))
        parts.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(sizes, np.concatenate(parts), out_act)


def _check_input(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """x as a batch (n, d) for a net, or as slabs (..., nets, rows, d) for a
    stack, in the parameters' dtype."""
    x = np.asarray(x, dtype=params.dtype)
    stacked = params.flat.ndim == 2
    if (x.ndim < 3 if stacked else x.ndim != 2) or x.shape[-1] != params.layer_sizes[0]:
        raise ValueError(
            f"input shape {x.shape} does not match first layer size {params.layer_sizes[0]}"
            + (" of a stack, which reads (..., nets, rows, d)" if stacked
               else " of a net, which reads (n, d)")
        )
    return x


def forward_pass(params: MlpParams, x):
    """Forward pass that keeps its intermediates: returns (output, cache).

    The output of a net is (n, d_out); that of a stack is (..., nets, rows,
    d_out). The cache is the list of post-activations of every layer, the
    input first (by reference, not copied) and the output last; ReLU is
    applied in place, and a hidden unit's backward mask reads its
    post-activation > 0, which is its pre-activation > 0. param_grads and
    input_grad read the cache instead of running the pass again.
    """
    acts = [_check_input(params, x)]
    _layers(params.weights, params.biases, params.out_act, acts)
    return acts[-1], acts


def _layers(weights, biases, out_act: str, acts: list) -> None:
    last = len(weights) - 1
    for l, (w, b) in enumerate(zip(weights, biases)):
        h = acts[-1] @ w
        h += b
        if l < last:
            np.maximum(h, 0.0, out=h)
        elif out_act == "tanh":
            np.tanh(h, out=h)
        acts.append(h)


def mlp_forward(params: MlpParams, x) -> np.ndarray:
    return forward_pass(params, x)[0]


def take_forward(params: MlpParams, idx, x) -> np.ndarray:
    """mlp_forward(params.take(idx), x) without building that stack: each
    layer's weights and biases of the nets idx are taken as it runs."""
    acts = [_check_input(params, x)]
    _layers([w.take(idx, axis=0) for w in params.weights],
            [b.take(idx, axis=0) for b in params.biases], params.out_act, acts)
    return acts[-1]


def _output_grad(params: MlpParams, acts, upstream) -> np.ndarray:
    """The upstream gradient carried back through the output activation."""
    if params.flat.ndim != 1:
        raise ValueError("gradients are formed for one net, not for a stack")
    y = acts[-1]
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


def param_grads(params: MlpParams, cache, upstream, out: np.ndarray | None = None) -> np.ndarray:
    """Batch-summed gradient of sum(upstream * output) w.r.t. the parameters,
    from a forward_pass cache: a flat array in the layout of params.flat
    (see layer_views). It is written into the first param_count entries of
    out, a 1-D buffer of the parameters' dtype, or into a new array."""
    g = _output_grad(params, cache, upstream)
    n = params.flat.size
    grad = np.empty(n, dtype=params.dtype) if out is None else out[:n]
    grads_w, grads_b = layer_views(params.layer_sizes, grad)
    for l in range(len(grads_w) - 1, -1, -1):
        np.matmul(cache[l].T, g, out=grads_w[l])
        g.sum(axis=0, out=grads_b[l])
        if l > 0:
            g = _through(g, params.weights[l])
            g *= cache[l] > 0.0
    return grad


def input_grad(params: MlpParams, cache, upstream, cols=slice(None)) -> np.ndarray:
    """Per-sample gradient of sum(upstream * output) w.r.t. the input
    columns cols (all by default), from a forward_pass cache; no parameter
    gradient is formed. The last product reads only the rows cols of the
    first weight matrix, so a few columns cost a few columns of work; the
    result can differ in the last bit from slicing the full gradient."""
    g = _output_grad(params, cache, upstream)
    for l in range(len(params.weights) - 1, 0, -1):
        g = _through(g, params.weights[l])
        g *= cache[l] > 0.0
    return _through(g, params.weights[0][cols])


def mlp_backward(params: MlpParams, x, upstream):
    """Exact gradients of sum(upstream * forward(x)) w.r.t. params and input:
    (flat parameter gradient summed over the batch, per-sample input
    gradient)."""
    _, cache = forward_pass(params, x)
    return param_grads(params, cache, upstream), input_grad(params, cache, upstream)


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
    """Adam's step count and first and second moments, flat in the layout of
    the net's buffer."""

    t: int
    m: np.ndarray
    v: np.ndarray


def init_adam(params: MlpParams) -> AdamState:
    return AdamState(t=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: MlpParams,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
):
    """Bias-corrected Adam on the flat gradient grad (see param_grads), in
    place and in one pass over the net's buffer; returns (params, state)
    for chaining.

    Per parameter:
        m <- beta1*m + (1-beta1)*g
        v <- beta2*v + ((1-beta2)*g)*g
        p <- p - (lr*(m/bc1)) / (sqrt(v/bc2) + eps)
    evaluated in exactly this order in two scratch arrays.
    """
    if grad.shape != params.flat.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match the net's buffer "
                         f"{params.flat.shape}")
    state.t += 1
    bc1 = 1.0 - beta1 ** state.t
    bc2 = 1.0 - beta2 ** state.t
    m, v = state.m, state.v
    s = np.multiply(grad, 1.0 - beta1)
    m *= beta1
    m += s
    np.multiply(grad, 1.0 - beta2, out=s)
    s *= grad
    v *= beta2
    v += s
    np.divide(m, bc1, out=s)
    s *= lr
    r = np.divide(v, bc2)
    np.sqrt(r, out=r)
    r += eps
    s /= r
    params.flat -= s
    return params, state


def soft_update(target: MlpParams, online: MlpParams, tau: float) -> MlpParams:
    """target <- (1-tau)*target + tau*online, elementwise, in place, for a
    net or a stack (see stack). A stack is blended one net at a time, so the
    temporary tau*online is one net's size, as for a net of its own."""
    if (target.layer_sizes, target.flat.shape) != (online.layer_sizes, online.flat.shape):
        raise ValueError("target/online layer sizes or net counts differ")
    if not 0.0 <= tau <= 1.0:
        raise ValueError(f"tau {tau} outside [0, 1]")
    n = target.flat.shape[-1]
    for t, o in zip(target.flat.reshape(-1, n), online.flat.reshape(-1, n)):
        t *= 1.0 - tau
        t += tau * o
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
#   then the net's flat buffer: per layer the weight matrix (fan_in x
#                fan_out, row-major) and the bias vector (fan_out), both in
#                the dtype


def save_params(path, params: MlpParams) -> None:
    dtype = params.dtype.newbyteorder("<")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(struct.pack("<BBBBI", FORMAT_VERSION, _ACT_CODES[params.out_act],
                            _DTYPE_CODES[params.dtype], 0, len(params.layer_sizes)))
        f.write(struct.pack(f"<{len(params.layer_sizes)}I", *params.layer_sizes))
        f.write(np.ascontiguousarray(params.flat, dtype=dtype).tobytes())


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
    n_floats = param_count(sizes)
    payload = dtype.itemsize * n_floats
    if len(raw) - off != payload:
        raise ValueError(
            f"{path}: {len(raw) - off} parameter bytes where layer sizes {sizes} need {payload}"
        )
    flat = np.frombuffer(raw, dtype=dtype, count=n_floats, offset=off).copy()
    return MlpParams(sizes, flat, _ACT_NAMES[act_code])
