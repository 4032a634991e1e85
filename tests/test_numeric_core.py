import math
import os
import subprocess
import sys

import numpy as np
import pytest

import videostudio
from videostudio.cond_blocks import AdamW
from videostudio.errors import BadTensorFile, ShapeMismatch
from videostudio.numeric_core import (AttentionParams, Parameter, Rng, Tensor,
                                      conv2d_3x3, cross_attention, derive_seed,
                                      finite_diff_check, hash64,
                                      layer_norm, load_tensor, save_tensor,
                                      softmax_lastdim, temporal_conv1d)


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
        h = softmax_lastdim(x @ w)
        return (h * h).sum()

    assert finite_diff_check(fn, [w]) < 1e-6


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = Rng(3)
    x = rng.normal((6, 9))
    p = softmax_lastdim(Tensor(x)).data
    assert np.allclose(p.sum(axis=-1), 1.0)
    q = softmax_lastdim(Tensor(x + 123.0)).data
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


# --- convolutions -------------------------------------------------------------

def _conv2d_reference(x, k, b):
    c_out, c_in, _, _ = k.shape
    _, h, w = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    out = np.zeros((c_out, h, w))
    for o in range(c_out):
        for i in range(c_in):
            for dy in range(3):
                for dx in range(3):
                    out[o] += k[o, i, dy, dx] * xp[i, dy:dy + h, dx:dx + w]
        if b is not None:
            out[o] += b[o]
    return out


def test_conv2d_matches_loop_reference():
    rng = Rng(9)
    for i in range(4):
        r = rng.child(i)
        x = r.normal((2, 5, 4))
        k = r.normal((3, 2, 3, 3))
        b = r.normal(3)
        out = conv2d_3x3(Tensor(x), Parameter(k, name="k"), Parameter(b, name="b")).data
        assert np.allclose(out, _conv2d_reference(x, k, b), atol=1e-12)


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
    k = Parameter(rng.normal((2, 2, 3, 3)) / 3, name="k")
    b = Parameter(rng.normal(2), name="b")
    x = Tensor(rng.normal((2, 4, 4)))
    w = Tensor(rng.normal((2, 4, 4)))
    assert finite_diff_check(lambda: (conv2d_3x3(x, k, b) * w).sum(), [k, b]) < 1e-6


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
    (x @ p).sum().backward()
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
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == np.asarray(arr, dtype=np.float32).shape
        assert np.array_equal(back, np.asarray(arr, dtype=np.float32))


def test_vstn_rejects_corruption(tmp_path):
    path = tmp_path / "t.vstn"
    save_tensor(path, np.arange(12.0).reshape(3, 4))
    raw = bytearray(path.read_bytes())

    bad_magic = tmp_path / "magic.vstn"
    bad_magic.write_bytes(b"NOPE" + bytes(raw[4:]))
    with pytest.raises(BadTensorFile):
        load_tensor(bad_magic)

    bad_version = tmp_path / "version.vstn"
    corrupt = bytearray(raw)
    corrupt[4] = 99
    bad_version.write_bytes(bytes(corrupt))
    with pytest.raises(BadTensorFile):
        load_tensor(bad_version)

    extra = tmp_path / "extra.vstn"
    extra.write_bytes(bytes(raw) + b"\x00\x00\x00\x00")
    with pytest.raises(BadTensorFile):
        load_tensor(extra)


def test_vstn_truncation_detected(tmp_path):
    path = tmp_path / "t.vstn"
    save_tensor(path, np.arange(10.0))
    raw = path.read_bytes()
    path.write_bytes(raw[:len(raw) // 2])
    with pytest.raises(BadTensorFile):
        load_tensor(path)


@pytest.mark.parametrize("cut", [6, 12, 19], ids=["in-version", "before-dims", "in-dims"])
def test_vstn_truncated_header_is_a_bad_tensor_file(tmp_path, cut):
    path = tmp_path / "t.vstn"
    save_tensor(path, np.arange(6.0).reshape(2, 3))
    path.write_bytes(path.read_bytes()[:cut])
    with pytest.raises(BadTensorFile, match="header"):
        load_tensor(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_vstn_non_finite_payload_is_refused(tmp_path, bad):
    path = tmp_path / "t.vstn"
    save_tensor(path, np.array([1.0, bad]))
    with pytest.raises(BadTensorFile, match="NaN or Inf"):
        load_tensor(path)


# --- finite_diff_check plumbing -----------------------------------------------------

def test_finite_diff_check_reports_max_relative_error():
    rng = Rng(15)
    w = Parameter(rng.normal((3,)), name="w")
    err = finite_diff_check(lambda: (Tensor(np.ones(3)) * w).sum(), [w])
    assert err < 1e-8


def test_package_import_leaves_scipy_out():
    # numpy is the only runtime dependency; a fresh interpreter proves it
    src = os.path.dirname(os.path.dirname(os.path.abspath(videostudio.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = "import sys, videostudio; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
