import math
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import videostudio
from videostudio import numeric_core
from videostudio.cond_blocks import AdamW
from videostudio.errors import BadTensorFile, ShapeMismatch
from videostudio.numeric_core import (AttentionParams, Parameter, Rng, Tensor,
                                      attention, cross_attention, derive_seed,
                                      finite_diff_check, hash64,
                                      layer_norm, load_tensor, matmul, no_grad,
                                      save_tensor, temporal_conv1d, write_bytes,
                                      write_json)


# --- autograd basics ---------------------------------------------------------

def test_tensor_arithmetic_matches_numpy():
    rng = Rng(0)
    for i in range(10):
        a = rng.normal((3, 4))
        b = rng.normal((3, 4))
        out = (Tensor(a) * Tensor(b) + Tensor(a) - Tensor(b)).sum()
        assert np.allclose(out.data, (a * b + a - b).sum())


def test_backward_product_rule():
    rng = Rng(1)
    a = Parameter(rng.normal((4, 3)), name="a")
    b = Parameter(rng.normal((4, 3)), name="b")
    (a * b).sum().backward()
    assert np.allclose(a.grad, b.data)
    assert np.allclose(b.grad, a.data)


def test_finite_diff_on_composite_expression():
    rng = Rng(2)
    w = Parameter(rng.normal((5, 5)), name="w")
    x = Tensor(rng.normal((3, 5)))

    def fn():
        h = matmul(x, w)
        return (attention(h, h, h, 0.5) * h).sum()

    assert finite_diff_check(fn, [w]) < 1e-6


def _softmax(scores):
    # attention against identity keys and values returns softmax(scores) itself
    eye = np.eye(scores.shape[-1])
    return attention(Tensor(scores), Tensor(eye), Tensor(eye), 1.0).data


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = Rng(3)
    x = rng.normal((6, 9))
    p = _softmax(x)
    assert np.allclose(p.sum(axis=-1), 1.0)
    q = _softmax(x + 123.0)
    assert np.allclose(p, q)


def test_layer_norm_zero_mean_unit_var():
    rng = Rng(4)
    x = rng.normal((7, 11))
    gain = Parameter(np.ones(11), name="g")
    bias = Parameter(np.zeros(11), name="b")
    out = layer_norm(Tensor(x), gain, bias).data
    assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    assert np.allclose(out.var(axis=-1), 1.0, atol=1e-3)


# --- attention oracle ---------------------------------------------------------

def _hand_attention(x, ctx, p):
    """Single-head reference evaluation straight from the definition."""
    q = x @ p.w_q.data
    k = ctx @ p.w_k.data
    v = ctx @ p.w_v.data
    scores = q @ k.T / math.sqrt(q.shape[-1])
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)
    return (att @ v) @ p.w_o.data


def test_cross_attention_matches_hand_evaluation():
    rng = Rng(5)
    for i in range(5):
        r = rng.child(i)
        p = AttentionParams.init(r.child("p"), 4, 6, 4, heads=1)
        x = r.normal((3, 4))
        ctx = r.normal((5, 6))
        out = cross_attention(Tensor(x), Tensor(ctx), p).data
        assert np.allclose(out, _hand_attention(x, ctx, p), atol=1e-12)


def test_multihead_splits_channels():
    rng = Rng(6)
    with pytest.raises(ShapeMismatch):
        AttentionParams.init(rng, 4, 4, 6, heads=4)  # 6 % 4 != 0
    p = AttentionParams.init(rng, 4, 4, 8, heads=2)
    x = rng.normal((3, 4))
    out = cross_attention(Tensor(x), Tensor(x), p)
    assert out.data.shape == (3, 4)


def test_zero_length_context_gives_zero_output():
    rng = Rng(7)
    p = AttentionParams.init(rng, 4, 6, 4)
    x = rng.normal((3, 4))
    out = cross_attention(Tensor(x), Tensor(np.zeros((0, 6))), p).data
    assert np.array_equal(out, np.zeros((3, 4)))


def test_attention_gradients_flow_to_all_mats():
    rng = Rng(8)
    p = AttentionParams.init(rng, 4, 4, 4)
    x = Tensor(rng.normal((3, 4)))
    loss = cross_attention(x, x, p).sum()
    loss.backward()
    for _, param in p.parameters():
        assert param.grad is not None
        assert np.any(param.grad != 0.0)


def _composed_attention(q, k, v, scale, g):
    """Output and q/k/v gradients of attention, one numpy step at a time."""
    scores = np.matmul(q, np.swapaxes(k, -1, -2)) * scale
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    out = np.matmul(p, v)
    gp = np.matmul(g, np.swapaxes(v, -1, -2))
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    gq = np.matmul(gs, k)
    gk = np.matmul(np.swapaxes(gs, -1, -2), q)
    gv = np.matmul(np.swapaxes(p, -1, -2), g)
    while gk.ndim > k.ndim:  # a shared context collects every chunk's gradient
        gk, gv = gk.sum(axis=0), gv.sum(axis=0)
    return out, gq, gk, gv


def _check_against_composed(lead, heads, l_q, l_k, shared_context):
    d = 8
    rng = Rng(40)
    ctx_lead = (heads,) if shared_context else (lead, heads)
    q = Parameter(rng.normal((lead, heads, l_q, d)), name="q")
    k = Parameter(3.0 * rng.normal(ctx_lead + (l_k, d)), name="k")
    v = Parameter(rng.normal(ctx_lead + (l_k, d)), name="v")
    g = rng.normal((lead, heads, l_q, d))
    out = attention(q, k, v, 1.0 / math.sqrt(d))
    out.backward(g)
    want = _composed_attention(q.data, k.data, v.data, 1.0 / math.sqrt(d), g)
    # row sums come from the [v | 1] matmul, not np.sum's pairwise order
    assert np.allclose(out.data, want[0], rtol=1e-12, atol=1e-12)
    for got, ref in zip((q.grad, k.grad, v.grad), want[1:]):
        assert got.shape == ref.shape
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("shared_context", [False, True])
def test_attention_across_chunks_matches_composed_reference(shared_context):
    # tiles of whole leading slices
    lead, heads, l_q, l_k = 20, 2, 128, 128
    step = numeric_core._TILE_BYTES // (8 * heads * l_q * l_k)
    assert -(-lead // step) >= 3  # at least three tiles, the last one partial
    assert lead % step
    _check_against_composed(lead, heads, l_q, l_k, shared_context)


@pytest.mark.parametrize("shared_context", [False, True])
def test_attention_across_row_tiles_matches_composed_reference(shared_context):
    # one slice's scores exceed a tile, so a tile is a block of query rows
    lead, heads, l_q, l_k = 3, 2, 300, 700
    assert 8 * heads * l_q * l_k > numeric_core._TILE_BYTES
    rows = numeric_core._tile_plan((lead, heads), l_q, l_k, 8, 8)[0][1].stop
    assert -(-l_q // rows) >= 3  # at least three tiles per slice, the last one partial
    assert l_q % rows
    _check_against_composed(lead, heads, l_q, l_k, shared_context)


# (q, k) shapes at default model sizes: spatial, scene cross-attention (one
# context shared by every frame), temporal, and image attention over the
# scene latent and over the text
_DEFAULT_SHAPES = [((9, 4, 256, 8), (9, 4, 256, 8)), ((9, 4, 256, 8), (4, 256, 8)),
                   ((256, 4, 9, 8), (256, 4, 9, 8)), ((4, 256, 8), (4, 256, 8)),
                   ((4, 256, 8), (4, 77, 8))]


@pytest.mark.parametrize("q_shape,k_shape", _DEFAULT_SHAPES)
def test_attention_in_tiles_matches_one_tile_bit_for_bit(monkeypatch, q_shape, k_shape):
    # q, k and v are head-split views, as cross_attention makes them
    rng = Rng(45)

    def heads(shape):
        *lead, length, dh = shape
        return rng.normal(tuple(lead[:-1]) + (length, lead[-1] * dh)).reshape(
            *lead[:-1], length, lead[-1], dh).swapaxes(-2, -3)
    arrays = (heads(q_shape), 3.0 * heads(k_shape), heads(k_shape))
    g = rng.normal(q_shape)

    def run():
        with no_grad():
            free = attention(*arrays, 0.35).data
        q, k, v = (Parameter(a, name=n) for a, n in zip(arrays, "qkv"))
        taped = attention(q, k, v, 0.35)
        taped.backward(g)
        return free, taped.data, q.grad, k.grad, v.grad

    tiled = run()
    monkeypatch.setattr(numeric_core, "_TILE_BYTES", 2 ** 62)
    monkeypatch.setattr(numeric_core, "_SERIAL_MACS", 2 ** 62)
    assert len(numeric_core._tile_plan(q_shape[:-2], q_shape[-2], k_shape[-2], 8, 8)) == 1
    for got, ref in zip(tiled, run()):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("grid,l_q,l_k", [((9, 4), 256, 256), ((256, 4), 9, 9),
                                         ((4,), 256, 256), ((2, 2), 300, 700)])
def test_tile_plan_bounds_every_tile_buffer_and_matmul(grid, l_q, l_k):
    # spatial, temporal, image and a query-row split, with d = d_v = 8
    d = d_v = 8
    tiles = numeric_core._tile_plan(grid, l_q, l_k, d, d_v)
    inner = math.prod(grid[1:])
    seen = np.zeros((grid[0], l_q), dtype=int)
    for rows, q_rows in tiles:
        seen[rows, q_rows] += 1
        slices, height = rows.stop - rows.start, q_rows.stop - q_rows.start
        # scores, q * scale and the widened product, then [v | 1]
        for width in (l_k, d, d_v + 1):
            assert 8 * slices * inner * height * width <= numeric_core._TILE_BYTES
        assert 8 * slices * inner * l_k * (d_v + 1) <= numeric_core._TILE_BYTES
        # both matmuls of each head: (q * scale) @ k^T and scores @ [v | 1]
        assert height * l_k * max(d, d_v + 1) <= numeric_core._SERIAL_MACS
        assert height == l_q or height % 4 == 0 or q_rows.stop == l_q
    assert (seen == 1).all()
    # a score buffer larger than one tile is cut; one that fits is not
    scores = 8 * math.prod(grid) * l_q * l_k
    assert (len(tiles) >= 2) == (scores > numeric_core._TILE_BYTES)


@pytest.mark.parametrize("l_k", [1, 40])
def test_attention_with_large_scores_stays_finite(l_k):
    # k scaled so that scores reach about +-1e3, where exp overflows
    # unless the row max is subtracted first
    rng = Rng(43)
    q = Parameter(rng.normal((3, 2, 16, 8)), name="q")
    k = Parameter(300.0 * rng.normal((3, 2, l_k, 8)), name="k")
    v = Parameter(rng.normal((3, 2, l_k, 8)), name="v")
    scale = 1.0 / math.sqrt(8)
    scores = np.abs(np.matmul(q.data, np.swapaxes(k.data, -1, -2)) * scale)
    assert scores.max() > 700.0  # np.exp(710) overflows float64
    g = rng.normal((3, 2, 16, 8))
    out = attention(q, k, v, scale)
    out.backward(g)
    want = _composed_attention(q.data, k.data, v.data, scale, g)
    for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
        assert np.isfinite(got).all()
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)
    if l_k == 1:  # one key: every row's weight is exactly 1
        assert np.array_equal(out.data, np.broadcast_to(v.data, out.data.shape))


def _row_stats(out):
    """Whether a taped attention subtracted its row max, and its per-row
    (shift, sum) stats, read from the backward's closure."""
    back = out._backward
    cells = dict(zip(back.__code__.co_freevars, back.__closure__))
    return cells["shift"].cell_contents, cells["stats"].cell_contents


@pytest.mark.parametrize("l_k", [1, 40])
def test_attention_with_large_scores_takes_the_shifted_path(l_k):
    # the inputs of test_attention_with_large_scores_stays_finite
    rng = Rng(43)
    q = Parameter(rng.normal((3, 2, 16, 8)), name="q")
    k = Parameter(300.0 * rng.normal((3, 2, l_k, 8)), name="k")
    v = Parameter(rng.normal((3, 2, l_k, 8)), name="v")
    scale = 1.0 / math.sqrt(8)
    assert numeric_core._exp_bound(q.data, k.data, v.data, scale) > numeric_core._EXP_SAFE
    shifted, stats = _row_stats(attention(q, k, v, scale))
    assert shifted
    assert (stats[..., 1] >= 1.0).all()  # each row's max contributes exp(0)


@pytest.mark.parametrize("q_shape,k_shape", _DEFAULT_SHAPES)
def test_attention_without_the_row_max_matches_the_shifted_path(monkeypatch, q_shape, k_shape):
    # default shapes and scales sit far under the gate; forcing the row max
    # moves only last bits, forward and backward
    rng = Rng(50)
    arrays = (rng.normal(q_shape), 3.0 * rng.normal(k_shape), rng.normal(k_shape))
    g = rng.normal(q_shape)

    def run():
        with no_grad():
            free = attention(*arrays, 0.35).data
        q, k, v = (Parameter(a, name=n) for a, n in zip(arrays, "qkv"))
        out = attention(q, k, v, 0.35)
        out.backward(g)
        shifted, stats = _row_stats(out)
        return shifted, stats[..., 0], (free, out.data, q.grad, k.grad, v.grad)

    shifted, shifts, plain = run()
    assert not shifted and not shifts.any()
    monkeypatch.setattr(numeric_core, "_EXP_SAFE", -1.0)
    shifted, shifts, forced = run()
    assert shifted and shifts.any()
    for got, ref in zip(plain, forced):
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_attention_just_under_the_gate_stays_finite():
    # query rows of -1 and +1 against keys near b * ones: every score of a
    # negative row sits near -bound, of a positive one near +bound, and the
    # bound sits just under _EXP_SAFE, so the row max is skipped
    rng = Rng(51)
    d, l_q, l_k, scale = 8, 16, 40, 1.0 / math.sqrt(8)
    sign = np.where(np.arange(l_q) % 2, 1.0, -1.0)[:, None]
    qa = sign * (1.0 - 0.01 * rng.uniform((3, 2, l_q, d)))
    ka = 1.0 - 0.01 * rng.uniform((3, 2, l_k, d))
    qa[..., 0, 0], ka[..., 0, 0] = -1.0, 1.0  # max|q| = max|k| = 1 before scaling
    va = rng.normal((3, 2, l_k, d))
    room = numeric_core._EXP_SAFE - 0.5 - math.log(l_k * max(1.0, np.abs(va).max()))
    ka *= room / (scale * d)
    bound = numeric_core._exp_bound(qa, ka, va, scale)
    assert numeric_core._EXP_SAFE - 1.0 < bound <= numeric_core._EXP_SAFE
    scores = np.matmul(qa, np.swapaxes(ka, -1, -2)) * scale
    assert scores[..., 0::2, :].max() < -0.95 * room
    assert scores[..., 1::2, :].min() > 0.95 * room
    q, k, v = Parameter(qa, name="q"), Parameter(ka, name="k"), Parameter(va, name="v")
    g = rng.normal((3, 2, l_q, d))
    out = attention(q, k, v, scale)
    shifted, stats = _row_stats(out)
    assert not shifted and not stats[..., 0].any()
    sums = stats[..., 1]
    assert np.isfinite(sums).all() and (sums > 0.0).all()
    assert sums[..., 0::2].max() < 1e-200 and sums[..., 1::2].min() > 1e200
    out.backward(g)
    want = _composed_attention(qa, ka, va, scale, g)
    for got, ref in zip((out.data, q.grad, k.grad, v.grad), want):
        assert np.isfinite(got).all()
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


def test_attention_rejects_an_empty_key_axis():
    rng = Rng(44)
    q = Tensor(rng.normal((2, 5, 4)))
    with pytest.raises(ShapeMismatch):
        attention(q, Tensor(np.zeros((2, 0, 4))), Tensor(np.zeros((2, 0, 3))), 0.5)


def test_attention_without_tape_matches_taped_forward():
    rng = Rng(41)
    q, k, v = (Parameter(rng.normal((20, 2, 128, 8)), name=n) for n in "qkv")
    taped = attention(q, k, v, 0.3).data
    with no_grad():
        free = attention(q, k, v, 0.3).data
    assert np.array_equal(taped, free)


def test_taped_attention_keeps_row_stats_not_probabilities():
    # spatial attention at default shapes: the probabilities would be 18.9 MB
    rng = Rng(46)
    q, k, v = (Parameter(rng.normal((9, 4, 256, 8)), name=n) for n in "qkv")
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = attention(q, k, v, 0.35)
        kept = tracemalloc.get_traced_memory()[0] - before - out.data.nbytes
    finally:
        tracemalloc.stop()
    assert kept <= 2 ** 20
    assert out._backward is not None


class _RecordingNumpy:
    """numpy, except that matmul operand shapes and buffer sizes are recorded."""

    def __init__(self):
        self.matmuls, self.buffers = [], []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, **kwargs):
        self.matmuls.append((np.shape(a), np.shape(b)))
        return np.matmul(a, b, **kwargs)

    def empty(self, shape, *args, **kwargs):
        buf = np.empty(shape, *args, **kwargs)
        self.buffers.append(buf.nbytes)
        return buf

    def zeros_like(self, arr, *args, **kwargs):
        buf = np.zeros_like(arr, *args, **kwargs)
        self.buffers.append(buf.nbytes)
        return buf


@pytest.mark.parametrize("q_shape,k_shape", _DEFAULT_SHAPES)
def test_attention_backward_bounds_every_matmul_and_buffer(monkeypatch, q_shape, k_shape):
    rng = Rng(47)
    q = Parameter(rng.normal(q_shape), name="q")
    k, v = (Parameter(rng.normal(k_shape), name=n) for n in "kv")
    g = rng.normal(q_shape)
    out = attention(q, k, v, 0.35)
    record = _RecordingNumpy()
    monkeypatch.setattr(numeric_core, "np", record)
    out.backward(g)
    monkeypatch.undo()
    # each head's product stays on the calling thread, as the forward's tiles do
    assert record.matmuls
    for a, b in record.matmuls:
        assert a[-2] * a[-1] * b[-1] <= numeric_core._SERIAL_MACS
    # no buffer holds more than one tile, one leading slice's scores, or one
    # gradient of the broadcast shape; all of the scores would be far larger
    grid, l_q, l_k, d = q_shape[:-2], q_shape[-2], k_shape[-2], q_shape[-1]
    bound = max(numeric_core._TILE_BYTES, 8 * math.prod(grid[1:]) * l_q * l_k,
                8 * math.prod(grid) * max(l_q, l_k) * d)
    assert max(record.buffers) <= bound
    want = _composed_attention(q.data, k.data, v.data, 0.35, g)
    for got, ref in zip((q.grad, k.grad, v.grad), want[1:]):
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("wants", ["q", "k", "v", "kv"])
def test_attention_backward_for_each_subset_of_inputs(wants):
    rng = Rng(48)
    arrays = {n: rng.normal((3, 2, 40, 8)) for n in "qkv"}
    arrays["k"] *= 3.0
    t = {n: Parameter(a, name=n) if n in wants else Tensor(a) for n, a in arrays.items()}
    g = rng.normal((3, 2, 40, 8))
    attention(t["q"], t["k"], t["v"], 0.35).backward(g)
    want = dict(zip("qkv", _composed_attention(arrays["q"], arrays["k"], arrays["v"], 0.35, g)[1:]))
    for n in "qkv":
        if n in wants:
            assert np.allclose(t[n].grad, want[n], rtol=1e-12, atol=1e-12)
        else:
            assert t[n].grad is None


def test_attention_backward_twice_doubles_the_gradient():
    # the kept row stats are read, never overwritten, by a backward
    rng = Rng(49)
    q, k, v = (Parameter(rng.normal((9, 4, 64, 8)), name=n) for n in "qkv")
    g = rng.normal((9, 4, 64, 8))
    out = attention(q, k, v, 0.35)
    out.backward(g)
    once = [p.grad.copy() for p in (q, k, v)]
    out.grad = None  # the seed is accumulated on the output too
    out.backward(g)
    for p, first in zip((q, k, v), once):
        assert np.array_equal(p.grad, 2.0 * first)
    want = _composed_attention(q.data, k.data, v.data, 0.35, g)
    for first, ref in zip(once, want[1:]):
        assert np.allclose(first, ref, rtol=1e-12, atol=1e-12)


def test_no_grad_outputs_are_leaves():
    rng = Rng(42)
    p = AttentionParams.init(rng, 4, 4, 4, heads=2)
    x = Tensor(rng.normal((3, 4)))
    with no_grad():
        out = cross_attention(x, x, p)
        total = (out * out).sum()
    for t in (out, total):
        assert t.requires_grad is False
        assert t._prev == ()
        assert t._backward is None
    taped = cross_attention(x, x, p)
    assert taped.requires_grad and taped._prev


def test_no_grad_restores_recording_after_an_exception():
    w = Parameter(np.ones(3), name="w")
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("inside the block")
    loss = (w * w).sum()
    assert loss.requires_grad and loss._prev
    loss.backward()
    assert np.array_equal(w.grad, 2.0 * np.ones(3))


# --- convolutions -------------------------------------------------------------

def _tconv_reference(x, k, b):
    c_out, c_in, _ = k.shape
    _, f, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (0, 0), (0, 0)))
    out = np.zeros((c_out, f, h, w))
    for o in range(c_out):
        for i in range(c_in):
            for d in range(3):
                out[o] += k[o, i, d] * xp[i, d:d + f]
        if b is not None:
            out[o] += b[o]
    return out


def test_temporal_conv_matches_loop_reference():
    rng = Rng(10)
    x = rng.normal((2, 6, 3, 3))
    k = rng.normal((4, 2, 3))
    b = rng.normal(4)
    out = temporal_conv1d(Tensor(x), Parameter(k, name="k"), Parameter(b, name="b")).data
    assert np.allclose(out, _tconv_reference(x, k, b), atol=1e-12)


def test_conv_gradients_finite_diff():
    rng = Rng(11)
    k = Parameter(rng.normal((2, 2, 3)) / 2, name="k")
    b = Parameter(rng.normal(2), name="b")
    x = Tensor(rng.normal((2, 4, 3, 3)))
    w = Tensor(rng.normal((2, 4, 3, 3)))
    assert finite_diff_check(lambda: (temporal_conv1d(x, k, b) * w).sum(), [k, b]) < 1e-6


# --- optimizer ----------------------------------------------------------------

def _adamw_scalar_reference(grads, lr, beta1, beta2, eps, wd, x0):
    """Textbook AdamW recurrence on one scalar."""
    x, m, v = x0, 0.0, 0.0
    for i, g in enumerate(grads, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** i)
        vhat = v / (1 - beta2 ** i)
        x = x - lr * (mhat / (math.sqrt(vhat) + eps) + wd * x)
    return x


def test_adamw_matches_scalar_recurrence():
    p = Parameter(np.array(2.0), name="x")
    opt = AdamW([("x", p)], lr=0.01, beta1=0.9, beta2=0.99, eps=1e-8, weight_decay=0.1)
    grads = [0.3, -1.2, 0.7, 0.01, 2.0, -0.4]
    for g in grads:
        p.grad = np.array(g)
        opt.step()
    want = _adamw_scalar_reference(grads, 0.01, 0.9, 0.99, 1e-8, 0.1, 2.0)
    assert abs(float(p.data) - want) < 1e-12


def test_adamw_skips_frozen_parameters():
    frozen = Parameter(np.array([1.0, 2.0]), trainable=False, name="f")
    live = Parameter(np.array([1.0, 2.0]), trainable=True, name="l")
    frozen.grad = np.array([1.0, 1.0])
    live.grad = np.array([1.0, 1.0])
    AdamW([("f", frozen), ("l", live)], lr=0.5).step()
    assert np.array_equal(frozen.data, [1.0, 2.0])
    assert not np.array_equal(live.data, [1.0, 2.0])


def test_frozen_parameters_still_get_gradients():
    rng = Rng(12)
    p = Parameter(rng.normal((3, 3)), trainable=False, name="w")
    x = Tensor(rng.normal((2, 3)))
    matmul(x, p).sum().backward()
    assert p.grad is not None


# --- rng ------------------------------------------------------------------------

def test_rng_deterministic_and_children_independent():
    a = Rng(42).normal((8,))
    b = Rng(42).normal((8,))
    assert np.array_equal(a, b)
    c1 = Rng(42).child("x").normal((8,))
    c2 = Rng(42).child("y").normal((8,))
    assert not np.array_equal(c1, c2)
    assert np.array_equal(Rng(42).child("x", 3).normal((4,)),
                          Rng(42).child("x", 3).normal((4,)))


def test_derive_seed_and_hash64_stable():
    assert derive_seed(7, "scene", 1) == derive_seed(7, "scene", 1)
    assert derive_seed(7, "scene", 1) != derive_seed(7, "scene", 2)
    assert hash64("a", 1) == hash64("a", 1)
    assert hash64("a", 1) != hash64("a", 2)
    assert 0 <= hash64("anything") < 2 ** 64


def test_rng_integers_in_range():
    r = Rng(13)
    draws = [int(r.integers(2, 9)) for _ in range(200)]
    assert min(draws) >= 2 and max(draws) < 9


# --- tensor file format -----------------------------------------------------------

def test_vstn_round_trip_bitwise(tmp_path):
    rng = Rng(14)
    for shape in [(3,), (2, 5), (4, 8, 16, 16), ()]:
        arr = rng.normal(shape)
        path = tmp_path / "t.vstn"
        back = load_tensor(save_tensor(path, arr), path)
        assert back.shape == np.asarray(arr, dtype=np.float32).shape
        assert np.array_equal(back, np.asarray(arr, dtype=np.float32))


def test_save_tensor_returns_the_bytes_it_wrote(tmp_path):
    path = tmp_path / "new" / "t.vstn"  # the parent directory is made
    payload = save_tensor(path, np.arange(6.0).reshape(2, 3))
    assert payload == path.read_bytes()
    assert payload[:4] == b"VSTN" and len(payload) == 12 + 2 * 8 + 6 * 4


def test_writers_make_the_parent_and_share_one_json_format(tmp_path):
    write_bytes(tmp_path / "a" / "b" / "raw.bin", b"\x00\x01")
    assert (tmp_path / "a" / "b" / "raw.bin").read_bytes() == b"\x00\x01"
    write_json(tmp_path / "c" / "doc.json", {"b": [1, "\u00e9"], "a": None})
    assert (tmp_path / "c" / "doc.json").read_bytes() == \
        b'{\n  "a": null,\n  "b": [\n    1,\n    "\\u00e9"\n  ]\n}\n'


def test_module_walks_parameters_in_assignment_order():
    class Leaf(numeric_core.Module):
        def __init__(self, name):
            self.b = Parameter(np.zeros(1), name=f"{name}.b")
            self.a = Parameter(np.zeros(1), name=f"{name}.a")
            self.width = 3

    class Tree(numeric_core.Module):
        def __init__(self):
            self.first = Parameter(np.zeros(1), name="first")
            self.leaves = [Leaf("x"), Parameter(np.zeros(1), name="loose"), Leaf("y")]
            self.shape = (1, 2)
            self.last = Leaf("z")

    assert [name for name, _ in Tree().parameters()] == [
        "first", "x.b", "x.a", "loose", "y.b", "y.a", "z.b", "z.a"]


def _vstn_bytes(tmp_path, array):
    """The bytes ``save_tensor`` writes for ``array``."""
    return save_tensor(tmp_path / "t.vstn", array)


def test_vstn_rejects_corruption(tmp_path):
    raw = _vstn_bytes(tmp_path, np.arange(12.0).reshape(3, 4))
    with pytest.raises(BadTensorFile, match="magic.vstn: bad magic"):
        load_tensor(b"NOPE" + raw[4:], "magic.vstn")
    corrupt = bytearray(raw)
    corrupt[4] = 99
    with pytest.raises(BadTensorFile):
        load_tensor(bytes(corrupt), "version.vstn")
    with pytest.raises(BadTensorFile):
        load_tensor(raw + b"\x00\x00\x00\x00", "extra.vstn")


def test_vstn_truncation_detected(tmp_path):
    raw = _vstn_bytes(tmp_path, np.arange(10.0))
    with pytest.raises(BadTensorFile):
        load_tensor(raw[:len(raw) // 2], "t.vstn")


@pytest.mark.parametrize("cut", [6, 12, 19], ids=["in-version", "before-dims", "in-dims"])
def test_vstn_truncated_header_is_a_bad_tensor_file(tmp_path, cut):
    raw = _vstn_bytes(tmp_path, np.arange(6.0).reshape(2, 3))
    with pytest.raises(BadTensorFile, match="header"):
        load_tensor(raw[:cut], "t.vstn")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vstn_non_finite_payload_is_refused(tmp_path, bad):
    raw = _vstn_bytes(tmp_path, np.array([1.0, bad]))
    with pytest.raises(BadTensorFile, match="NaN or Inf"):
        load_tensor(raw, "t.vstn")


def _vstn(dims, payload=b""):
    """A VSTN file's bytes with a hand-written header."""
    return (b"VSTN" + struct.pack("<II", 1, len(dims))
            + struct.pack(f"<{len(dims)}Q", *dims) + payload)


@pytest.mark.parametrize("dims,payload", [
    ((1,) * 65, b"\0" * 4),
    ((0, 2 ** 63), b""),
    ((0, 2 ** 40, 2 ** 40, 2 ** 40), b""),
], ids=["rank-65", "dim-past-intp", "4d-array-too-big"])
def test_vstn_dims_numpy_cannot_shape_are_refused(dims, payload):
    # each header's payload length matches its dims, so only reshape can object
    with pytest.raises(BadTensorFile, match="cannot shape"):
        load_tensor(_vstn(dims, payload), "t.vstn")


# --- finite_diff_check plumbing -----------------------------------------------------

def test_finite_diff_check_reports_max_relative_error():
    rng = Rng(15)
    w = Parameter(rng.normal((3,)), name="w")
    err = finite_diff_check(lambda: (Tensor(np.ones(3)) * w).sum(), [w])
    assert err < 1e-8


def test_package_import_leaves_scipy_out():
    # numpy is the only runtime dependency; a fresh interpreter importing the
    # CLI, which reaches every module, proves it
    src = os.path.dirname(os.path.dirname(os.path.abspath(videostudio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, videostudio.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
