"""Dense-net math: forward, exact gradients, Adam, soft updates, checkpoints."""

import copy
import pickle
import re
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ntnsim import nn
from ntnsim.harness import ExperimentConfig
from ntnsim.madrl import TrainConfig, Trainer

layer_sizes = st.lists(st.integers(1, 12), min_size=2, max_size=5)
out_acts = st.sampled_from(["linear", "tanh"])
seeds = st.integers(0, 2**32 - 1)


def test_init_shapes_and_bounds():
    rng = np.random.default_rng(0)
    p = nn.init_mlp((5, 16, 3), "tanh", rng)
    assert p.layer_sizes == (5, 16, 3)
    assert [w.shape for w in p.weights] == [(5, 16), (16, 3)]
    assert [b.shape for b in p.biases] == [(16,), (3,)]
    for w, fan_in in zip(p.weights, (5, 16)):
        assert np.all(np.abs(w) <= 1.0 / np.sqrt(fan_in))
    with pytest.raises(ValueError):
        nn.init_mlp((5,), "linear", rng)
    with pytest.raises(ValueError):
        nn.init_mlp((5, 3), "sigmoid", rng)


def test_forward_zero_params_and_identity():
    p = nn.init_mlp((3, 3), "linear", np.random.default_rng(0))
    p.weights[0][:] = 0.0
    p.biases[0][:] = 0.0
    assert np.array_equal(nn.mlp_forward(p, np.ones((1, 3))), np.zeros((1, 3)))
    p.weights[0][:] = np.eye(3)
    x = np.array([[0.3, -1.2, 4.0]])
    assert np.allclose(nn.mlp_forward(p, x), x)


def test_forward_matches_reference_implementation():
    rng = np.random.default_rng(1)
    p = nn.init_mlp((4, 8, 8, 2), "tanh", rng)
    for _ in range(20):
        x = rng.normal(size=(1, 4))
        h = x
        for l, (w, b) in enumerate(zip(p.weights, p.biases)):
            z = h @ w + b
            h = np.tanh(z) if l == 2 else np.maximum(z, 0.0)
        assert np.allclose(nn.mlp_forward(p, x), h, atol=1e-12)


def test_forward_batch_matches_single():
    rng = np.random.default_rng(2)
    p = nn.init_mlp((6, 12, 4), "tanh", rng)
    xs = rng.normal(size=(9, 6))
    batch = nn.mlp_forward(p, xs)
    for i in range(9):
        assert np.allclose(batch[i], nn.mlp_forward(p, xs[i][None])[0], atol=1e-12)


def test_forward_rejects_bad_shape():
    p = nn.init_mlp((4, 2), "linear", np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.mlp_forward(p, np.zeros((1, 5)))
    with pytest.raises(ValueError, match="reads"):
        nn.mlp_forward(p, np.zeros(4))  # one sample is a batch of one: x[None]


def test_net_is_one_flat_buffer_in_checkpoint_order():
    rng = np.random.default_rng(17)
    p = nn.init_mlp((3, 4, 2), "tanh", rng)
    assert p.flat.shape == (nn.param_count((3, 4, 2)),) == (3 * 4 + 4 + 4 * 2 + 2,)
    assert all(np.shares_memory(a, p.flat) for a in p.weights + p.biases)
    order = np.concatenate([a.ravel() for w, b in zip(p.weights, p.biases) for a in (w, b)])
    assert np.array_equal(order, p.flat)
    # the same draws as one uniform call per weight matrix and bias vector
    rng = np.random.default_rng(17)
    for w, b, fan_in in zip(p.weights, p.biases, (3, 4)):
        bound = 1.0 / np.sqrt(fan_in)
        assert np.array_equal(w, rng.uniform(-bound, bound, size=w.shape))
        assert np.array_equal(b, rng.uniform(-bound, bound, size=b.shape))
    # copies, deep copies and pickles keep the views on their own buffer
    for q in (p.copy(), p.astype(np.float32), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert all(np.shares_memory(a, q.flat) for a in q.weights + q.biases)
        assert not np.shares_memory(q.flat, p.flat)
        q.flat[:] = 0.0
        assert not any(a.any() for a in q.weights + q.biases)
    with pytest.raises(ValueError, match="layer sizes"):
        nn.MlpParams((3, 4, 2), np.zeros(5))


@pytest.mark.parametrize("sizes", [(6, 32, 1), (36, 128, 128, 2)])
def test_stacked_products_equal_each_items_own(sizes):
    # the rule a group of actors rests on (madrl.select_rank and
    # select_action, nn.stack): with the scorer and velocity-actor shapes in
    # float32, a stacked matmul, with one weight matrix per item or one
    # broadcast over the items, equals each item's 2-D product bit for bit
    # when every item has the same row count
    rng = np.random.default_rng(len(sizes))
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        w = rng.uniform(-1, 1, size=(25, fan_in, fan_out)).astype(np.float32)
        for rows in range(1, 9):
            x = rng.uniform(-1, 1, size=(25, rows, fan_in)).astype(np.float32)
            for items in range(1, 26):
                where = f"layer {fan_in}->{fan_out} of {sizes}, {rows} rows, {items} items"
                own = [x[i] @ w[i] for i in range(items)]
                assert np.array_equal(x[:items] @ w[:items], own), where
                shared = [x[i] @ w[0] for i in range(items)]
                assert np.array_equal(x[:items] @ w[0], shared), f"{where}, one matrix"


def test_stack_forward_runs_each_net_on_its_slab():
    rng = np.random.default_rng(4)
    nets = [nn.init_mlp((5, 7, 2), "tanh", rng).astype(np.float32) for _ in range(3)]
    group = nn.stack(nets)
    assert [w.shape for w in group.weights] == [(3, 5, 7), (3, 7, 2)]
    assert [b.shape for b in group.biases] == [(3, 1, 7), (3, 1, 2)]
    x = rng.normal(size=(4, 3, 6, 5))  # worlds x nets x rows x inputs
    y = nn.mlp_forward(group, x)
    assert y.shape == (4, 3, 6, 2) and y.dtype == np.float32
    for w in range(4):
        for i, net in enumerate(nets):
            assert np.array_equal(y[w, i], nn.mlp_forward(net, x[w, i]))
    picked = group.take(np.array([2, 0, 2]))
    assert np.array_equal(nn.mlp_forward(picked, x[0])[1], nn.mlp_forward(nets[0], x[0, 1]))
    assert all(np.shares_memory(a, group.flat) for a in group.weights + group.biases)
    with pytest.raises(ValueError):
        nn.mlp_forward(group, x[0, 0])  # a stack reads (..., nets, rows, d)
    with pytest.raises(ValueError):
        nn.mlp_forward(nets[0], x[0])  # a net reads (n, d)
    with pytest.raises(ValueError):
        nn.stack([nets[0], nn.init_mlp((5, 7, 2), "linear", rng)])
    _, cache = nn.forward_pass(group, x)
    with pytest.raises(ValueError, match="stack"):
        nn.param_grads(group, cache, np.ones_like(y))


def test_tanh_output_bounded():
    rng = np.random.default_rng(3)
    p = nn.init_mlp((4, 32, 2), "tanh", rng)
    for w in p.weights:
        w *= 50.0
    out = nn.mlp_forward(p, rng.normal(size=(100, 4)) * 10)
    assert np.all(np.abs(out) <= 1.0)


def _numeric_grads(p, x, upstream, h=1e-5):
    def loss():
        return float(np.sum(nn.mlp_forward(p, x) * upstream))

    gw = [np.zeros_like(w) for w in p.weights]
    gb = [np.zeros_like(b) for b in p.biases]
    for l, w in enumerate(p.weights):
        for idx in np.ndindex(w.shape):
            orig = w[idx]
            w[idx] = orig + h
            up = loss()
            w[idx] = orig - h
            dn = loss()
            w[idx] = orig
            gw[l][idx] = (up - dn) / (2 * h)
    for l, b in enumerate(p.biases):
        for idx in np.ndindex(b.shape):
            orig = b[idx]
            b[idx] = orig + h
            up = loss()
            b[idx] = orig - h
            dn = loss()
            b[idx] = orig
            gb[l][idx] = (up - dn) / (2 * h)
    gx = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        orig = x[idx]
        x[idx] = orig + h
        up = loss()
        x[idx] = orig - h
        dn = loss()
        x[idx] = orig
        gx[idx] = (up - dn) / (2 * h)
    return gw, gb, gx


def _assert_close(analytic, numeric, rel=1e-4, floor=1e-6):
    denom = np.maximum(np.abs(numeric), floor)
    assert np.all(np.abs(analytic - numeric) / denom < rel)


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(4)
    for out_act in ("linear", "tanh"):
        for _ in range(5):
            p = nn.init_mlp((3, 7, 5, 2), out_act, rng)
            x = rng.normal(size=(1, 3))
            upstream = rng.normal(size=(1, 2))
            grad, gx = nn.mlp_backward(p, x, upstream)
            gw, gb = nn.layer_views(p.layer_sizes, grad)
            nw, nb, nx = _numeric_grads(p, x, upstream)
            for a, n in zip(gw, nw):
                _assert_close(a, n)
            for a, n in zip(gb, nb):
                _assert_close(a, n)
            _assert_close(gx, nx)


def test_backward_zero_upstream():
    rng = np.random.default_rng(5)
    p = nn.init_mlp((3, 4, 2), "tanh", rng)
    grad, gx = nn.mlp_backward(p, rng.normal(size=(1, 3)), np.zeros((1, 2)))
    assert grad.shape == p.flat.shape and np.all(grad == 0)
    assert np.all(gx == 0)


def test_backward_batch_sums_parameter_grads():
    rng = np.random.default_rng(6)
    p = nn.init_mlp((3, 6, 2), "linear", rng)
    xs = rng.normal(size=(4, 3))
    ups = rng.normal(size=(4, 2))
    grad_batch, gx_batch = nn.mlp_backward(p, xs, ups)
    grad_sum = np.zeros_like(p.flat)
    for i in range(4):
        grad, gx = nn.mlp_backward(p, xs[i : i + 1], ups[i : i + 1])
        grad_sum += grad
        assert np.allclose(gx[0], gx_batch[i], atol=1e-12)
    assert np.allclose(grad_batch, grad_sum, atol=1e-10)


def _one_walk_backward(p, x, upstream):
    """Reference: the backward pass as one walk that reruns the forward pass
    and forms the parameter and input gradients together."""
    acts, zs, h = [x], [], x
    last = len(p.weights) - 1
    for l, (w, b) in enumerate(zip(p.weights, p.biases)):
        z = h @ w + b
        zs.append(z)
        if l < last:
            h = np.maximum(z, 0.0)
        else:
            h = np.tanh(z) if p.out_act == "tanh" else z
        acts.append(h)
    g = upstream * (1.0 - h * h) if p.out_act == "tanh" else upstream
    gw, gb = [None] * len(p.weights), [None] * len(p.biases)
    for l in range(last, -1, -1):
        gw[l] = acts[l].T @ g
        gb[l] = g.sum(axis=0)
        g = g @ p.weights[l].T
        if l > 0:
            g = g * (zs[l - 1] > 0.0)
    return h, gw, gb, g


def _all_equal(xs, ys):
    return len(xs) == len(ys) and all(np.array_equal(a, b) for a, b in zip(xs, ys))


@settings(max_examples=80, deadline=None)
@given(sizes=layer_sizes, batch=st.integers(1, 16), out_act=out_acts, seed=seeds,
       dtype=st.sampled_from([np.float64, np.float32]))
def test_split_gradients_equal_one_walk_backward(sizes, batch, out_act, seed, dtype):
    # layers of one unit take the broadcast form of g @ W.T in nn; the
    # reference walk keeps the gemm, so this also shows the two agree
    rng = np.random.default_rng(seed)
    p = nn.init_mlp(sizes, out_act, rng).astype(dtype)
    x = rng.normal(size=(batch, sizes[0])).astype(dtype)
    up = rng.normal(size=(batch, sizes[-1])).astype(dtype)
    up_before = up.copy()
    y_ref, gw_ref, gb_ref, gx_ref = _one_walk_backward(p, x, up)

    y, cache = nn.forward_pass(p, x)
    grad = nn.param_grads(p, cache, up)
    gw, gb = nn.layer_views(p.layer_sizes, grad)
    gx = nn.input_grad(p, cache, up)
    assert y.dtype == dtype and grad.dtype == dtype and gx.dtype == dtype
    assert np.array_equal(y, y_ref)
    assert _all_equal(gw, gw_ref) and _all_equal(gb, gb_ref)
    assert np.array_equal(gx, gx_ref)
    assert np.array_equal(up, up_before)  # upstream is read, never written
    assert np.array_equal(nn.mlp_forward(p, x), y_ref)

    grad2, gx2 = nn.mlp_backward(p, x, up)
    assert np.array_equal(grad2, grad) and np.array_equal(gx2, gx)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("rows,units", [(1024, 32), (128, 64), (128, 128)])
def test_one_unit_backward_broadcast_equals_gemm(rows, units, dtype):
    # the scorer, scheduler-critic and velocity-critic heads at their
    # training batch sizes
    rng = np.random.default_rng(rows + units)
    g = rng.normal(size=(rows, 1)).astype(dtype)
    w = rng.normal(size=(units, 1)).astype(dtype)
    assert np.array_equal(g * w[:, 0], g @ w.T)


def test_input_grad_columns_match_full_gradient():
    rng = np.random.default_rng(14)
    p = nn.init_mlp((9, 7, 5, 1), "linear", rng)
    _, cache = nn.forward_pass(p, rng.normal(size=(6, 9)))
    up = rng.normal(size=(6, 1))
    full = nn.input_grad(p, cache, up)
    for cols in (slice(None), slice(0, 1), slice(3, 7), slice(7, 9)):
        part = nn.input_grad(p, cache, up, cols)
        assert part.shape == full[:, cols].shape
        np.testing.assert_allclose(part, full[:, cols], rtol=1e-12, atol=1e-15)


def _trainer_net_shapes():
    """(layer sizes, output activation) of every distinct net the Trainer
    builds at the default scenario, under both learning methods."""
    env = ExperimentConfig().env_spec()
    shapes = set()
    for method in ("maddpg", "tts-maddpg"):
        tr = Trainer(env, TrainConfig(method=method, episodes=1, slots_per_episode=10))
        for ag in tr.sched_agents + tr.traj_agents:
            shapes |= {(net.layer_sizes, net.out_act) for net in (ag.actor, ag.critic)}
    return sorted(shapes)


TRAINER_NET_SHAPES = _trainer_net_shapes()
# Set from the float32 unit roundoff before the comparison was first run:
# every compared value is a sum of at most ~300 products of float32-rounded
# operands, whose error is below n * eps32 = 300 * 6e-8 = 1.8e-5 of the sum
# of the absolute terms. Errors are measured against the largest magnitude
# of the float64 array, with a margin of about 5 over that bound; an Adam
# step is compared by its size, which float32 rounds like any other value.
FLOAT32_REL_TOL = 1e-4


def _close_in_float32(a32, a64):
    scale = max(float(np.max(np.abs(a64))), np.finfo(np.float32).tiny)
    err = float(np.max(np.abs(a32.astype(np.float64) - a64))) / scale
    assert err <= FLOAT32_REL_TOL, f"float32 off by {err:.2e} of the float64 scale"


def test_trainer_builds_four_net_shapes():
    # scorer, scheduler critic, velocity actor, velocity critic
    assert len(TRAINER_NET_SHAPES) == 4


@pytest.mark.parametrize("sizes,out_act", TRAINER_NET_SHAPES)
def test_float32_passes_and_adam_step_track_float64(sizes, out_act):
    rng = np.random.default_rng(sum(sizes))
    p64 = nn.init_mlp(sizes, out_act, rng)
    p32 = p64.astype(np.float32)
    x = rng.uniform(-1, 1, size=(128, sizes[0]))
    up = rng.normal(size=(128, sizes[-1])) / 128
    y64, c64 = nn.forward_pass(p64, x)
    y32, c32 = nn.forward_pass(p32, x)
    assert y32.dtype == np.float32
    _close_in_float32(y32, y64)
    g64 = nn.param_grads(p64, c64, up)
    g32 = nn.param_grads(p32, c32, up)
    assert g32.dtype == np.float32
    for a, b in zip(*(sum(nn.layer_views(sizes, g), []) for g in (g32, g64))):
        _close_in_float32(a, b)
    _close_in_float32(nn.input_grad(p32, c32, up), nn.input_grad(p64, c64, up))
    cols = slice(sizes[0] - 2, sizes[0])
    _close_in_float32(nn.input_grad(p32, c32, up, cols), nn.input_grad(p64, c64, up, cols))

    # one Adam step from the same float64 gradients: the step and the moments
    before64, before32 = p64.copy(), p32.copy()
    s64, s32 = nn.init_adam(p64), nn.init_adam(p32)
    nn.adam_step(p64, g64, s64, 1e-3)
    nn.adam_step(p32, g64.astype(np.float32), s32, 1e-3)
    for a1, a0, b1, b0 in zip(p32.weights + p32.biases, before32.weights + before32.biases,
                              p64.weights + p64.biases, before64.weights + before64.biases):
        assert a1.dtype == np.float32
        _close_in_float32(a1.astype(np.float64) - a0, b1 - b0)
    for a, b in zip(*(sum(nn.layer_views(sizes, m), []) for m in (s32.m, s64.m))):
        _close_in_float32(a, b)
    for a, b in zip(*(sum(nn.layer_views(sizes, v), []) for v in (s32.v, s64.v))):
        _close_in_float32(a, b)


def test_split_gradients_reject_wrong_upstream_shape():
    rng = np.random.default_rng(13)
    p = nn.init_mlp((3, 4, 2), "tanh", rng)
    _, cache = nn.forward_pass(p, rng.normal(size=(5, 3)))
    for grad in (nn.param_grads, nn.input_grad):
        with pytest.raises(ValueError):
            grad(p, cache, np.zeros((5, 3)))


def test_adam_first_step_is_signed_lr():
    rng = np.random.default_rng(7)
    p = nn.init_mlp((2, 3), "linear", rng)
    before = p.copy()
    state = nn.init_adam(p)
    grad = np.concatenate([np.full(6, 0.5), np.full(3, -0.25)])
    nn.adam_step(p, grad, state, lr=1e-3)
    assert state.t == 1
    # bias-corrected first step: delta = -lr * g / (|g| + eps) ~ -lr * sign(g)
    assert np.allclose(p.weights[0] - before.weights[0], -1e-3, rtol=1e-4)
    assert np.allclose(p.biases[0] - before.biases[0], 1e-3, rtol=1e-4)


def test_adam_zero_gradient_and_zero_lr():
    rng = np.random.default_rng(8)
    p = nn.init_mlp((2, 3), "linear", rng)
    before = p.copy()
    state = nn.init_adam(p)
    nn.adam_step(p, np.zeros(9), state, lr=1e-3)
    assert np.array_equal(p.weights[0], before.weights[0])
    assert state.t == 1
    nn.adam_step(p, np.ones(9), state, lr=0.0)
    assert np.array_equal(p.weights[0], before.weights[0])
    with pytest.raises(ValueError, match="gradient shape"):
        nn.adam_step(p, np.ones(6), state, lr=1e-3)


def test_adam_descends_quadratic():
    rng = np.random.default_rng(9)
    p = nn.init_mlp((1, 1), "linear", rng)
    state = nn.init_adam(p)
    for _ in range(3000):
        w = p.weights[0][0, 0]
        b = p.biases[0][0]
        nn.adam_step(p, np.array([2 * (w - 3.0), 2 * (b + 1.0)]), state, 1e-2)
    assert abs(p.weights[0][0, 0] - 3.0) < 1e-3
    assert abs(p.biases[0][0] + 1.0) < 1e-3


def _flat(grads_w, grads_b):
    """Per-layer arrays as one flat gradient in checkpoint order."""
    return np.concatenate([a.ravel() for w, b in zip(grads_w, grads_b) for a in (w, b)])


def _reference_adam(arrays, grads, moments, t, lr, beta1, beta2, eps):
    """Reference: the Adam step written with one temporary per operation,
    array by array; moments holds one (m, v) pair per array."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, (m, v) in zip(arrays, grads, moments):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


@settings(max_examples=60, deadline=None)
@given(
    sizes=layer_sizes,
    out_act=out_acts,
    seed=seeds,
    steps=st.integers(1, 6),
    lr=st.sampled_from([0.0, 1e-4, 1e-3, 0.3]),
    beta1=st.sampled_from([0.0, 0.5, 0.9]),
    beta2=st.sampled_from([0.9, 0.999]),
    eps=st.sampled_from([1e-8, 1e-3]),
)
def test_adam_in_place_equals_reference(sizes, out_act, seed, steps, lr, beta1, beta2, eps):
    rng = np.random.default_rng(seed)
    p = nn.init_mlp(sizes, out_act, rng)
    ref = [a.copy() for a in p.weights + p.biases]
    ref_moments = [(np.zeros_like(a), np.zeros_like(a)) for a in ref]
    state = nn.init_adam(p)
    for t in range(1, steps + 1):
        # some exact zeros, some large values
        gw = [rng.normal(size=w.shape) * rng.choice([0.0, 1.0, 1e3], size=w.shape)
              for w in p.weights]
        gb = [rng.normal(size=b.shape) for b in p.biases]
        grad = _flat(gw, gb)
        snapshot = grad.copy()
        nn.adam_step(p, grad, state, lr, beta1, beta2, eps)
        _reference_adam(ref, gw + gb, ref_moments, t, lr, beta1, beta2, eps)
        assert np.array_equal(grad, snapshot)  # the gradient is read, never written
        assert state.t == t
        assert _all_equal(p.weights + p.biases, ref)
        for moment, k in ((state.m, 0), (state.v, 1)):
            assert _all_equal(sum(nn.layer_views(p.layer_sizes, moment), []),
                              [pair[k] for pair in ref_moments])


def _per_array_adam(arrays, grads, moments, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference: the in-place Adam step array by array, each in the order
    adam_step evaluates it, in two scratch arrays per array."""
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for p, g, (m, v) in zip(arrays, grads, moments):
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


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 12), min_size=2, max_size=4),  # 1-3 layers
    dtype=st.sampled_from([np.float64, np.float32]),
    steps=st.integers(1, 5),
    weight_decay=st.sampled_from([0.0, 1e-4, 0.1]),
    batch=st.integers(1, 16),
    seed=seeds,
)
def test_flat_buffer_steps_equal_per_array_steps(sizes, dtype, steps, weight_decay, batch, seed):
    # a gradient formed in a longer buffer (as the trainer's), weight decay
    # on the weights only (as update_critic), Adam, a soft target update and
    # the checkpoint bytes, each against the same step written array by array
    rng = np.random.default_rng(seed)
    p = nn.init_mlp(sizes, "tanh", rng).astype(dtype)
    target = nn.init_mlp(sizes, "tanh", rng).astype(dtype)
    ref = [a.copy() for a in p.weights + p.biases]
    ref_target = [a.copy() for a in target.weights + target.biases]
    moments = [(np.zeros_like(a), np.zeros_like(a)) for a in ref]
    state = nn.init_adam(p)
    n = nn.param_count(sizes)
    buf = np.full(n + 7, np.nan, dtype=dtype)
    layers = len(sizes) - 1
    for t in range(1, steps + 1):
        x = rng.normal(size=(batch, sizes[0])).astype(dtype)
        up = rng.normal(size=(batch, sizes[-1])).astype(dtype)
        _, cache = nn.forward_pass(p, x)
        grad = nn.param_grads(p, cache, up, buf)
        assert grad.shape == (n,) and np.shares_memory(grad, buf) and np.isnan(buf[n:]).all()
        _, gw_ref, gb_ref, _ = _one_walk_backward(p, x, up)  # p's arrays equal ref here
        grads_w, grads_b = nn.layer_views(sizes, grad)
        assert _all_equal(grads_w + grads_b, gw_ref + gb_ref)
        if weight_decay > 0.0:
            for g, w in zip(grads_w, p.weights):
                g += 2.0 * weight_decay * w
            for g, w in zip(gw_ref, ref[:layers]):
                g += 2.0 * weight_decay * w
        nn.adam_step(p, grad, state, 1e-3)
        _per_array_adam(ref, gw_ref + gb_ref, moments, t, 1e-3)
        assert _all_equal(p.weights + p.biases, ref)
        for moment, k in ((state.m, 0), (state.v, 1)):
            assert _all_equal(sum(nn.layer_views(sizes, moment), []), [m[k] for m in moments])
        nn.soft_update(target, p, 0.005)
        for tw, ow in zip(ref_target, ref):
            tw *= 1.0 - 0.005
            tw += 0.005 * ow
        assert _all_equal(target.weights + target.biases, ref_target)
    per_layer = b"".join(a.astype(np.dtype(dtype).newbyteorder("<")).tobytes()
                         for w, b in zip(ref[:layers], ref[layers:]) for a in (w, b))
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/net.bin"
        nn.save_params(path, p)
        raw = open(path, "rb").read()
        assert len(raw) == 16 + 4 * len(sizes) + len(per_layer)
        assert raw[-len(per_layer):] == per_layer
        q = nn.load_params(path)
        assert np.array_equal(q.flat, p.flat) and _all_equal(q.weights + q.biases, ref)


def _is_subnormal(a):
    a = np.asarray(a)
    return (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)


def _adam_subnormal_steps(steps):
    """Steps, out of one Adam step from gradients spanning 1e-30..1e3 and
    then `steps` zero-gradient steps, after which a float32 first moment
    held a subnormal."""
    p = nn.init_mlp((4, 16), "linear", np.random.default_rng(15)).astype(np.float32)
    state = nn.init_adam(p)
    g = np.logspace(-30, 3, 64, dtype=np.float32).reshape(4, 16)
    nn.adam_step(p, np.concatenate([g.ravel(), np.ones(16, np.float32)]), state, 1e-3)
    hits = 0
    for _ in range(steps):
        nn.adam_step(p, np.zeros(80, np.float32), state, 1e-3)
        hits += bool(_is_subnormal(state.m).any())
    return hits


def test_flush_subnormals_scoped_to_the_block():
    tiny = np.float32(1e-20)
    with nn.flush_subnormals() as flushed:
        if not flushed:
            pytest.skip("no flush-to-zero control on this platform")
        assert np.float32(1e-40) * np.float32(1) == 0.0  # subnormal operand
        assert (np.full(8, tiny) * tiny == 0.0).all()  # subnormal result
        assert _adam_subnormal_steps(1000) == 0
    # the caller's environment is back: subnormals are kept again
    assert _is_subnormal(np.float32(1e-40) * np.float32(1))
    assert _is_subnormal(np.full(8, tiny) * tiny).all()
    assert _adam_subnormal_steps(1000) > 0


def test_soft_update_endpoints_and_decay():
    rng = np.random.default_rng(10)
    online = nn.init_mlp((3, 4, 2), "tanh", rng)
    target = nn.init_mlp((3, 4, 2), "tanh", rng)

    frozen = target.copy()
    nn.soft_update(target, online, tau=0.0)
    assert all(np.array_equal(a, b) for a, b in zip(target.weights, frozen.weights))

    nn.soft_update(target, online, tau=1.0)
    assert all(np.array_equal(a, b) for a, b in zip(target.weights, online.weights))

    target = frozen.copy()
    gap0 = max(np.max(np.abs(a - b)) for a, b in zip(target.weights, online.weights))
    for _ in range(500):
        nn.soft_update(target, online, tau=0.01)
    gap = max(np.max(np.abs(a - b)) for a, b in zip(target.weights, online.weights))
    assert gap == pytest.approx(gap0 * 0.99**500, rel=1e-6)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(11)
    p = nn.init_mlp((7, 16, 16, 3), "tanh", rng)
    path = tmp_path / "actor.bin"
    nn.save_params(path, p)
    q = nn.load_params(path)
    assert q.layer_sizes == p.layer_sizes
    assert q.out_act == p.out_act
    assert all(np.array_equal(a, b) for a, b in zip(p.weights, q.weights))
    assert all(np.array_equal(a, b) for a, b in zip(p.biases, q.biases))


def test_checkpoint_keeps_float32_and_reads_version_1(tmp_path):
    rng = np.random.default_rng(16)
    p = nn.init_mlp((5, 9, 2), "tanh", rng)
    p32 = p.astype(np.float32)
    path = tmp_path / "net32.bin"
    nn.save_params(path, p32)
    raw = path.read_bytes()
    assert raw[8] == nn.FORMAT_VERSION == 2 and raw[10] == 1
    q = nn.load_params(path)
    assert all(a.dtype == np.float32 and np.array_equal(a, b)
               for a, b in zip(q.weights + q.biases, p32.weights + p32.biases))
    # a version-1 file: float64 payload, zero dtype byte
    v1 = tmp_path / "net64_v1.bin"
    payload = b"".join(np.asarray(a, "<f8").tobytes()
                       for w, b in zip(p.weights, p.biases) for a in (w, b))
    v1.write_bytes(nn.MAGIC + struct.pack("<BBHI", 1, 1, 0, 3)
                   + struct.pack("<3I", 5, 9, 2) + payload)
    q = nn.load_params(v1)
    assert q.out_act == "tanh" and q.layer_sizes == (5, 9, 2)
    assert all(a.dtype == np.float64 and np.array_equal(a, b)
               for a, b in zip(q.weights + q.biases, p.weights + p.biases))
    nn.save_params(path, p)
    assert path.read_bytes()[8:] == bytes([2]) + v1.read_bytes()[9:]  # only the version moved
    for version, code in ((1, 1), (2, 2)):
        bad = bytearray(raw)
        bad[8], bad[10] = version, code
        path.write_bytes(bytes(bad))
        with pytest.raises(ValueError, match="dtype code"):
            nn.load_params(path)


def test_checkpoint_rejects_corruption(tmp_path):
    rng = np.random.default_rng(12)
    p = nn.init_mlp((3, 4, 2), "linear", rng)
    path = tmp_path / "net.bin"
    nn.save_params(path, p)
    raw = bytearray(path.read_bytes())

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"WRONGMAG" + bytes(raw[8:]))
    with pytest.raises(ValueError):
        nn.load_params(bad)

    raw2 = bytearray(raw)
    raw2[8] = 99  # unsupported version
    bad.write_bytes(bytes(raw2))
    with pytest.raises(ValueError):
        nn.load_params(bad)

    bad.write_bytes(bytes(raw) + b"\x00")  # trailing garbage
    with pytest.raises(ValueError):
        nn.load_params(bad)

    bad.write_bytes(bytes(raw[:-8]))  # payload cut short
    with pytest.raises(ValueError, match=re.escape(str(bad))):
        nn.load_params(bad)

    for cut in (8, 12, 16, 20):  # header cut before or inside the layer sizes
        bad.write_bytes(bytes(raw[:cut]))
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            nn.load_params(bad)

    def checkpoint(sizes, n_floats):
        head = struct.pack("<BBHI", nn.FORMAT_VERSION, 0, 0, len(sizes))
        return nn.MAGIC + head + struct.pack(f"<{len(sizes)}I", *sizes) + bytes(8 * n_floats)

    # no layer, one layer (a net without weights), a zero layer size
    for sizes, n_floats in [((), 0), ((5,), 0), ((3, 0, 2), 2)]:
        bad.write_bytes(checkpoint(sizes, n_floats))
        with pytest.raises(ValueError, match=re.escape(str(bad))):
            nn.load_params(bad)
    bad.write_bytes(checkpoint((3, 1, 2), 3 + 1 + 2 + 2))
    assert nn.load_params(bad).layer_sizes == (3, 1, 2)
