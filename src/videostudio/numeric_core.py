"""Dense numeric kernels with handwritten backward passes.

Everything is stored in numpy arrays (double precision unless a caller
says otherwise).  The autograd surface is deliberately small: every op
wires its own backward closure onto the output tensor and ``backward``
replays the closures in reverse topological order, the same tape idiom
used by small research autograd stacks.  A central-difference checker
polices each analytic gradient.

Also home to the counter-based RNG wrapper, the binary tensor file
format used to persist latents and weights, the two readers every
outside file goes through and the two writers every output file goes
through.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import struct

import numpy as np

from .errors import BadTensorFile, ShapeMismatch, UnwritablePath

__all__ = [
    "Tensor", "Parameter", "Module", "Affine", "AttentionParams", "Rng",
    "matmul", "layer_norm", "temporal_conv1d",
    "attention", "cross_attention", "no_grad",
    "finite_diff_check", "hash64", "derive_seed",
    "save_tensor", "load_tensor", "make_dir", "write_bytes", "write_json",
]


def _unbroadcast(grad, shape):
    # collapse a broadcasted gradient back onto the original shape
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, (g, s) in enumerate(zip(grad.shape, shape)):
        if s == 1 and g != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """Array plus an optional gradient tape node."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype if dtype is not None else np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()

    # -- bookkeeping -------------------------------------------------

    def item(self):
        return self.data.item()

    def _accumulate(self, grad):
        if self.grad is None:  # in this tensor's layout, which later matmuls see
            self.grad = np.empty_like(self.data)
            np.copyto(self.grad, grad)
        else:
            self.grad += grad

    def backward(self, grad=None):
        if grad is None:
            if self.data.size != 1:
                raise ShapeMismatch("backward() without an explicit seed needs a scalar")
            grad = np.ones_like(self.data)
        # iterative topo sort; graphs from long rollouts overflow recursion
        order, seen, stack = [], set(), [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in seen:
                    stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=self.data.dtype))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- elementwise arithmetic ---------------------------------------

    def __add__(self, other):
        other = _ensure(other)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))
        return _node(self.data + other.data, (self, other), back)

    __radd__ = __add__

    def __neg__(self):
        def back(g):
            if self.requires_grad:
                self._accumulate(-g)
        return _node(-self.data, (self,), back)

    def __sub__(self, other):
        return self + (-_ensure(other))

    def __mul__(self, other):
        other = _ensure(other)

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        return _node(self.data * other.data, (self, other), back)

    __rmul__ = __mul__

    def __getitem__(self, key):
        def back(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[key] += g
                self._accumulate(full)
        return _node(self.data[key], (self,), back)

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        def back(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.data.shape))
        return _node(self.data.reshape(shape), (self,), back)

    def transpose(self, axes):
        axes = tuple(axes)
        inverse = tuple(np.argsort(axes))

        def back(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))
        return _node(self.data.transpose(axes), (self,), back)

    def swapaxes(self, a, b):
        perm = list(range(self.data.ndim))
        perm[a], perm[b] = perm[b], perm[a]
        return self.transpose(perm)

    def sum(self):
        def back(g):
            if self.requires_grad:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        return _node(self.data.sum(), (self,), back)

    def mean(self):
        return self.sum() * (1.0 / self.data.size)


def _ensure(value):
    return value if isinstance(value, Tensor) else Tensor(value)


# False inside ``no_grad()``: ops then build no tape.
_recording = True


@contextlib.contextmanager
def no_grad():
    """Run the block without a tape: every op output is a leaf that keeps
    no parents and no backward closure, so intermediates are freed as soon
    as nothing else holds them."""
    global _recording
    saved, _recording = _recording, False
    try:
        yield
    finally:
        _recording = saved


def _records(parents):
    return _recording and any(p.requires_grad for p in parents)


def _node(data, parents, backward):
    out = Tensor(data, dtype=data.dtype)
    if _records(parents):
        out.requires_grad = True
        out._prev = tuple(parents)
        out._backward = backward
    return out


class Parameter(Tensor):
    """A leaf tensor tracked by the optimizer."""

    __slots__ = ("trainable", "name")

    def __init__(self, data, trainable=True, name=""):
        super().__init__(data, requires_grad=True)
        self.trainable = bool(trainable)
        self.name = name


class Module:
    """Anything that holds parameters.

    ``parameters()`` lists them as ``(name, Parameter)`` pairs in the order
    the attributes were assigned, walking into sub-modules and into lists of
    parameters or modules.  AdamW's moment slots and ``save_weights``' layout
    follow that order.
    """

    def parameters(self):
        out = []
        for value in vars(self).values():
            for item in value if isinstance(value, list) else (value,):
                if isinstance(item, Parameter):
                    out.append((item.name, item))
                elif isinstance(item, Module):
                    out.extend(item.parameters())
        return out


# --- fused kernels -------------------------------------------------------


def matmul(a, b):
    a, b = _ensure(a), _ensure(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims {a.data.shape} @ {b.data.shape}")

    def back(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))
    return _node(np.matmul(a.data, b.data), (a, b), back)


class Affine(Module):
    """The linear map ``x @ w + b`` over the last axis: w [c_in, c_out] drawn
    from ``rng`` as N(0, 1/c_in), b zeros, both named under ``name``."""

    def __init__(self, rng, c_in, c_out, trainable, name):
        self.w = Parameter(rng.normal((c_in, c_out)) / np.sqrt(c_in), trainable=trainable,
                           name=f"{name}.w")
        self.b = Parameter(np.zeros(c_out), trainable=trainable, name=f"{name}.b")

    def __call__(self, x):
        return matmul(x, self.w) + self.b


_LAYER_NORM_EPS = 1e-5  # added to the variance before its square root


def layer_norm(t, gain, bias):
    """Normalize the last dim to zero mean / unit variance, then affine."""
    t, gain, bias = _ensure(t), _ensure(gain), _ensure(bias)
    x = t.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LAYER_NORM_EPS)
    xhat = (x - mu) * inv

    def back(g):
        if gain.requires_grad:
            reduce_axes = tuple(range(g.ndim - gain.data.ndim))
            gain._accumulate(_unbroadcast((g * xhat).sum(axis=reduce_axes), gain.data.shape))
        if bias.requires_grad:
            reduce_axes = tuple(range(g.ndim - bias.data.ndim))
            bias._accumulate(_unbroadcast(g.sum(axis=reduce_axes), bias.data.shape))
        if t.requires_grad:
            gy = g * gain.data
            term = gy - gy.mean(axis=-1, keepdims=True) - xhat * (gy * xhat).mean(axis=-1, keepdims=True)
            t._accumulate(term * inv)
    return _node(xhat * gain.data + bias.data, (t, gain, bias), back)


def temporal_conv1d(x, kernel, bias):
    """Width-3 cross-correlation along the frame axis, zero padding 1.

    x: [C, F, H, W]; kernel: [C_out, C, 3]; bias: [C_out].
    """
    x, kernel, bias = _ensure(x), _ensure(kernel), _ensure(bias)
    if x.data.ndim != 4 or kernel.data.ndim != 3 or kernel.data.shape[2] != 3:
        raise ShapeMismatch(f"temporal_conv1d got x{x.data.shape} kernel{kernel.data.shape}")
    if kernel.data.shape[1] != x.data.shape[0]:
        raise ShapeMismatch("temporal_conv1d channel mismatch")
    c, f, h, w = x.data.shape
    xp = np.pad(x.data, ((0, 0), (1, 1), (0, 0), (0, 0)))
    out_data = np.zeros((kernel.data.shape[0], f, h, w), dtype=x.data.dtype)
    for u in range(3):
        out_data += np.einsum("oc,cfhw->ofhw", kernel.data[:, :, u], xp[:, u:u + f])
    out_data += bias.data[:, None, None, None]

    def back(g):
        if kernel.requires_grad:
            gk = np.zeros_like(kernel.data)
            for u in range(3):
                gk[:, :, u] = np.einsum("ofhw,cfhw->oc", g, xp[:, u:u + f])
            kernel._accumulate(gk)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for u in range(3):
                gxp[:, u:u + f] += np.einsum("oc,ofhw->cfhw", kernel.data[:, :, u], g)
            x._accumulate(gxp[:, 1:1 + f])
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 2, 3)))
    return _node(out_data, (x, kernel, bias), back)


# --- attention -----------------------------------------------------------


class AttentionParams(Module):
    """Projection matrices for one (cross-)attention module, drawn from ``rng``
    in the order w_q, w_k, w_v, w_o, each N(0, 1/rows).

    w_q: [C_q, d], w_k/w_v: [C_ctx, d], w_o: [d, C_q].  ``heads`` must
    divide d.
    """

    def __init__(self, rng, query_channels, context_channels, inner_dim, heads=1,
                 trainable=True, name="attn"):
        def mk(rows, cols, label):
            w = rng.normal((rows, cols)) / np.sqrt(rows)
            return Parameter(w, trainable=trainable, name=f"{name}.{label}")

        self.w_q = mk(query_channels, inner_dim, "w_q")
        self.w_k = mk(context_channels, inner_dim, "w_k")
        self.w_v = mk(context_channels, inner_dim, "w_v")
        self.w_o = mk(inner_dim, query_channels, "w_o")
        self.heads = int(heads)
        if inner_dim % self.heads:
            raise ShapeMismatch("attention heads must divide the inner dim")


# Largest buffer an attention tile fills, and most multiply-adds in one of its matmuls:
# OpenBLAS runs a matmul that small on the calling thread, where it would split a larger
# one over its own threads, which then spin on the other core.  Blocks of 4k query rows
# (and the backward's blocks of 4k keys) get the same bits from OpenBLAS as whole matrices
# at the default shapes, which the tests pin; elsewhere a last bit may differ.  Default
# temporal attention is one tile.
_TILE_BYTES, _SERIAL_MACS = 768 * 1024, 4 * 65536

# Largest exponent bound at which the softmax skips subtracting its row max; exp
# overflows a double past 709.78.
_EXP_SAFE = 600.0


def _exp_bound(q, k, v, scale):
    """``|scale| * d * max|q| * max|k|``, which bounds every score's size, plus
    ``log(L_k * max(1, max|v|))``, the most a row's sum of L_k exps times v or 1
    adds to the log of its largest term.  NaN when q or k holds NaN."""
    def max_abs(a):  # two reductions, no temporary
        return max(a.max(), -a.min()) if a.size else 0.0
    d, l_k = q.shape[-1], k.shape[-2]
    return (abs(scale) * d * max_abs(q) * max_abs(k)
            + math.log(l_k * max(1.0, max_abs(v))))


def _tile_plan(grid, l_q, l_k, d, d_v):
    """Attention tiles as (leading slices, query rows): runs of slices, or blocks of
    query rows when one slice is too big.  A tile's buffers stay within ``_TILE_BYTES``
    and its matmuls within ``_SERIAL_MACS`` unless one query row, or one slice of
    ``[v | 1]``, is larger."""
    inner = 8 * math.prod(grid[1:])
    row_bytes, row_macs = inner * max(l_k, d, d_v + 1), l_k * max(d, d_v + 1)
    rows = min(_TILE_BYTES // max(1, row_bytes), _SERIAL_MACS // row_macs) // 4 * 4
    step = _TILE_BYTES // max(1, row_bytes * l_q, inner * l_k * (d_v + 1)) if rows >= l_q else 1
    rows, step = max(1, min(rows, l_q)), max(1, step)
    return [(slice(s, min(s + step, grid[0])), slice(r, min(r + rows, l_q)))
            for s in range(0, max(1, grid[0]), step) for r in range(0, max(1, l_q), rows)]


def attention(q, k, v, scale):
    """softmax(q @ k^T * scale) @ v over the last two axes.

    q: [..., L_q, d]; k: [..., L_k, d]; v: [..., L_k, d_v]; leading dims
    broadcast; L_k must be at least 1.  Each of ``_tile_plan``'s tiles
    (FlashAttention's query blocks) takes five passes over its scores:
    ``(q * scale) @ k^T``, minus the row max, exp in place, and a matmul
    against ``[v | 1]``, whose last column holds the row sums the output is
    divided by (deferred normalisation).  When ``_exp_bound`` is within
    ``_EXP_SAFE`` no exp can overflow, so the row max and its subtraction are
    skipped and three passes remain.  A tape keeps each query row's shift
    (its max, or 0) and sum, not the probabilities; the backward recomputes
    them tile by tile.
    """
    q, k, v = _ensure(q), _ensure(k), _ensure(v)
    if (q.data.shape[-1] != k.data.shape[-1] or k.data.shape[-2] != v.data.shape[-2]
            or k.data.shape[-2] == 0):
        raise ShapeMismatch(f"attention q{q.data.shape} k{k.data.shape} v{v.data.shape}")
    kt = np.swapaxes(k.data, -1, -2)
    lead = np.broadcast_shapes(q.data.shape[:-2], k.data.shape[:-2], v.data.shape[:-2])
    grid = lead or (1,)  # a leading axis to walk even for plain matrices
    l_q, l_k, d, d_v = q.data.shape[-2], k.data.shape[-2], q.data.shape[-1], v.data.shape[-1]
    out = np.empty(grid + (l_q, d_v))
    # Under the gate every score s has |s| <= 600, so each exp(s) lies in [e^-600, e^600],
    # inside the normal doubles, and no row sum can reach zero.  A row's sum and each
    # entry of its [v | 1] product add L_k terms of at most e^|s| * max(1, max|v|), so
    # they stay within e^600, far below e^709.78, where a double overflows.  A product
    # exp(s) * v that underflows moves the output by at most 2^-1074 * e^600 < 1e-62.
    # Above the gate, or with NaN in q or k, each row's max is subtracted first.
    shift = not _exp_bound(q.data, k.data, v.data, scale) <= _EXP_SAFE
    stats = np.empty(grid + (l_q, 2)) if _records((q, k, v)) else None  # row shift, row sum
    if stats is not None and not shift:
        stats[..., 0] = 0.0
    tiles = _tile_plan(grid, l_q, l_k, d, d_v)

    def tile_of(arr, rows):  # an operand without the walked axis is shared by every tile
        return arr[rows] if arr.ndim == len(grid) + 2 and arr.shape[0] != 1 else arr

    rows, q_rows = tiles[0]  # the largest tile
    n = math.prod(out[rows, ..., q_rows, :].shape[:-1])
    # one allocation, which malloc reuses call after call where smaller ones were faulted
    # in afresh; the row max and widened product reuse q * scale's spent buffer
    sizes = (n * max(d, d_v + 1), n * l_k,
             math.prod(tile_of(v.data, rows).shape[:-1]) * (d_v + 1))
    work, score_buf, v_buf = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
    v1 = v_rows = None
    for rows, q_rows in tiles:
        shape = out[rows, ..., q_rows, :].shape[:-1]
        qs = np.multiply(tile_of(q.data, rows)[..., q_rows, :], scale,
                         out=np.ndarray(shape + (d,), buffer=work))
        scores = np.ndarray(shape + (l_k,), buffer=score_buf)
        np.matmul(qs, tile_of(kt, rows), out=scores)
        if shift:
            scores -= scores.max(axis=-1, keepdims=True,
                                 out=np.ndarray(shape + (1,), buffer=work) if stats is None
                                 else stats[rows, ..., q_rows, :1])
        np.exp(scores, out=scores)
        vt = tile_of(v.data, rows)
        if v1 is None or (vt is not v.data and rows != v_rows):  # [v | 1] of a new slice
            v1, v_rows = np.ndarray(vt.shape[:-1] + (d_v + 1,), buffer=v_buf), rows
            v1[..., :d_v], v1[..., d_v] = vt, 1.0
        acc = np.matmul(scores, v1, out=np.ndarray(shape + (d_v + 1,), buffer=work))
        # shifted, each row's max contributes exp(0) = 1, so no row sum is below 1
        np.divide(acc[..., :d_v], acc[..., d_v:], out=out[rows, ..., q_rows, :])
        if stats is not None:
            stats[rows, ..., q_rows, 1:] = acc[..., d_v:]
    out = out.reshape(lead + out.shape[-2:])

    def back(g):
        # the unfused chain's arithmetic (probs @ v, softmax, * scale, q @ k^T) on the
        # forward's tiles: a run of leading slices recomputes its probabilities y one
        # row block at a time, then takes y^T @ g and q^T @ gs over all its rows in
        # blocks of 4k keys, so every matmul stays within _SERIAL_MACS
        g = g.reshape(grid + g.shape[-2:])
        gq = np.empty(grid + (l_q, d)) if q.requires_grad else None
        gkt = np.empty(grid + (d, l_k)) if k.requires_grad else None
        gv = np.empty(grid + (l_k, d_v)) if v.requires_grad else None
        need_gs = gq is not None or gkt is not None
        runs = [rows for rows, q_rows in tiles if q_rows.start == 0]
        blocks = [q_rows for rows, q_rows in tiles if rows == runs[0]]
        keys = max(1, _SERIAL_MACS // max(1, l_q * max(d, d_v)) // 4 * 4)
        size = (runs[0].stop - runs[0].start) * math.prod(grid[1:]) * l_q * l_k
        y_buf, work = np.empty(size), np.empty(n * max(d, l_k))
        gs_buf = np.empty(size) if need_gs else y_buf  # no gs without a q or k gradient
        for rows in runs:
            shape = (rows.stop - rows.start,) + grid[1:] + (l_q, l_k)
            y, gs = np.ndarray(shape, buffer=y_buf), np.ndarray(shape, buffer=gs_buf)
            for q_rows in blocks:
                y_blk = y[..., q_rows, :]
                st = stats[rows, ..., q_rows, :]
                qs = np.multiply(tile_of(q.data, rows)[..., q_rows, :], scale,
                                 out=np.ndarray(y_blk.shape[:-1] + (d,), buffer=work))
                np.matmul(qs, tile_of(kt, rows), out=y_blk)
                if shift:
                    y_blk -= st[..., :1]
                np.exp(y_blk, out=y_blk)
                y_blk /= st[..., 1:]
                if not need_gs:
                    continue
                gs_blk = gs[..., q_rows, :]
                np.matmul(g[rows, ..., q_rows, :], np.swapaxes(tile_of(v.data, rows), -1, -2),
                          out=gs_blk)
                gy = np.multiply(gs_blk, y_blk, out=np.ndarray(y_blk.shape, buffer=work))
                gs_blk -= gy.sum(axis=-1, keepdims=True)
                gs_blk *= y_blk
                gs_blk *= scale
                if gq is not None:
                    np.matmul(gs_blk, tile_of(k.data, rows), out=gq[rows, ..., q_rows, :])
            for kb in range(0, l_k, keys):
                cols = slice(kb, kb + keys)
                if gv is not None:
                    np.matmul(np.swapaxes(y[..., cols], -1, -2), g[rows],
                              out=gv[rows, ..., cols, :])
                if gkt is not None:
                    np.matmul(np.swapaxes(tile_of(q.data, rows), -1, -2), gs[..., cols],
                              out=gkt[rows, ..., cols])
        if gv is not None:
            v._accumulate(_unbroadcast(gv.reshape(lead + gv.shape[-2:]), v.data.shape))
        if gq is not None:
            q._accumulate(_unbroadcast(gq.reshape(lead + gq.shape[-2:]), q.data.shape))
        if gkt is not None:
            gkt = _unbroadcast(gkt.reshape(lead + gkt.shape[-2:]), kt.shape)
            k._accumulate(np.swapaxes(gkt, -1, -2))
    return _node(out, (q, k, v), back)


def _split_heads(t, heads):
    # [..., L, d] -> [..., heads, L, d/heads]
    *lead, length, dim = t.data.shape
    t = t.reshape(*lead, length, heads, dim // heads)
    return t.swapaxes(-2, -3)


def _merge_heads(t):
    # [..., heads, L, dh] -> [..., L, heads*dh]
    t = t.swapaxes(-2, -3)
    *lead, length, heads, dh = t.data.shape
    return t.reshape(*lead, length, heads * dh)


def cross_attention(x, ctx, params):
    """Scaled dot-product attention of x over ctx rows.

    x: [..., L_q, C_q]; ctx: [L_k, C_ctx] (or batched with broadcastable
    leading dims).  A zero-length context contributes exactly zero.
    """
    x = _ensure(x)
    ctx = _ensure(ctx)
    if ctx.data.shape[-2] == 0:
        lead = x.data.shape[:-1]
        return Tensor(np.zeros(lead + (params.w_o.data.shape[1],), dtype=x.data.dtype))
    if ctx.data.shape[-1] != params.w_k.data.shape[0]:
        raise ShapeMismatch(f"context channels {ctx.data.shape[-1]} vs w_k {params.w_k.data.shape}")
    if x.data.shape[-1] != params.w_q.data.shape[0]:
        raise ShapeMismatch(f"query channels {x.data.shape[-1]} vs w_q {params.w_q.data.shape}")
    heads = params.heads
    dh = params.w_q.data.shape[1] // heads
    q = _split_heads(matmul(x, params.w_q), heads)
    k = _split_heads(matmul(ctx, params.w_k), heads)
    v = _split_heads(matmul(ctx, params.w_v), heads)
    mixed = _merge_heads(attention(q, k, v, 1.0 / np.sqrt(dh)))
    return matmul(mixed, params.w_o)


# --- gradient checking ---------------------------------------------------


_FINITE_DIFF_STEP = 1e-5  # central-difference step in each parameter coordinate


def finite_diff_check(fn, params):
    """Max relative error between analytic and central-difference grads.

    ``fn`` rebuilds the forward pass and returns a scalar Tensor; it must
    read parameter values at call time.  Relative error is
    |a - n| / max(1, |a|, |n|), reported as the max over every coordinate
    of every parameter.
    """
    params = list(params)
    for p in params:
        p.grad = None
    loss = fn()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]
    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + _FINITE_DIFF_STEP
            up = fn().item()
            flat[i] = keep - _FINITE_DIFF_STEP
            down = fn().item()
            flat[i] = keep
            numeric = (up - down) / (2 * _FINITE_DIFF_STEP)
            err = abs(aflat[i] - numeric) / max(1.0, abs(aflat[i]), abs(numeric))
            worst = max(worst, err)
    return worst


# --- rng ------------------------------------------------------------------


def hash64(*parts):
    """Stable 64-bit hash of the string forms of ``parts``."""
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        h.update(str(part).encode("utf-8"))
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def derive_seed(seed, *labels):
    return hash64(int(seed), *labels)


class Rng:
    """Counter-based generator (Philox) with labelled substreams."""

    def __init__(self, seed):
        self.seed = int(seed) & (2 ** 64 - 1)
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def child(self, *labels):
        return Rng(derive_seed(self.seed, *labels))

    def normal(self, shape=()):
        return self._gen.standard_normal(size=shape)

    def uniform(self, shape=()):
        return self._gen.random(size=shape)

    def integers(self, low, high, shape=()):
        return self._gen.integers(low, high, size=shape)


# --- tensor file format ---------------------------------------------------

_MAGIC = b"VSTN"
_VERSION = 1


def read_bytes(path, error):
    """The bytes of the file at ``path``.  When it cannot be read, raises
    ``error(message)``: an exception class, or a callable that builds one."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise error(f"{path}: cannot read: {exc}") from exc


def read_json(path, error):
    """The JSON document in the file at ``path``; ``error`` if it cannot be
    read or is not UTF-8 JSON that Python can hold."""
    raw = read_bytes(path, error)
    try:
        return json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, a huge int or deep nesting
        raise error(f"{path}: not valid JSON: {exc}") from exc


def make_dir(path, named=None):
    """Make directory ``path`` and its parents; UnwritablePath naming ``named``
    (``path`` by default) if that fails."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise UnwritablePath(f"{named or path}: cannot write: {exc}") from exc


def write_bytes(path, payload):
    """Write ``payload`` to ``path``, making its parent directory first;
    UnwritablePath naming ``path`` if either fails."""
    make_dir(os.path.dirname(path) or ".", path)
    try:
        with open(path, "wb") as fh:
            fh.write(payload)
    except OSError as exc:
        raise UnwritablePath(f"{path}: cannot write: {exc}") from exc


def write_json(path, doc):
    """Write ``doc`` as JSON with indent 2, sorted keys and a trailing newline."""
    write_bytes(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8"))


def save_tensor(path, array):
    """Write a float32 little-endian tensor file and return its bytes.

    Layout: magic ``VSTN``, u32 version, u32 rank, rank u64 dims, then the
    C-order float32 payload.
    """
    # ascontiguousarray would promote rank-0 inputs to shape (1,)
    arr = np.asarray(array, dtype="<f4", order="C")
    payload = (_MAGIC + struct.pack(f"<II{arr.ndim}Q", _VERSION, arr.ndim, *arr.shape)
               + arr.tobytes())
    write_bytes(path, payload)
    return payload


def load_tensor(raw, path):
    """Decode ``raw``, bytes that ``save_tensor`` wrote; BadTensorFile naming
    ``path`` unless they are well formed and every value is finite."""
    if raw[:4] != _MAGIC:
        raise BadTensorFile(f"{path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise BadTensorFile(f"{path}: header is {len(raw)} bytes, expected at least 12")
    version, rank = struct.unpack_from("<II", raw, 4)
    if version != _VERSION:
        raise BadTensorFile(f"{path}: unsupported version {version}")
    if len(raw) < 12 + 8 * rank:
        raise BadTensorFile(f"{path}: header is truncated before its {rank} dims")
    dims = struct.unpack_from(f"<{rank}Q", raw, 12)
    payload = raw[12 + 8 * rank:]
    count = math.prod(dims)
    if len(payload) != 4 * count:
        raise BadTensorFile(f"{path}: payload is {len(payload)} bytes, expected {4 * count}")
    arr = np.frombuffer(payload, dtype="<f4")
    if not np.isfinite(arr).all():
        raise BadTensorFile(f"{path}: payload holds NaN or Inf")
    try:
        return arr.reshape(dims).copy()
    except ValueError as exc:  # over numpy's rank limit, or dims past its index range
        raise BadTensorFile(f"{path}: numpy cannot shape {rank} dims: {exc}") from None
