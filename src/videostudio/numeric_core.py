"""Dense numeric kernels with handwritten backward passes.

Everything is stored in numpy arrays (double precision unless a caller
says otherwise).  The autograd surface is deliberately small: every op
wires its own backward closure onto the output tensor and ``backward``
replays the closures in reverse topological order, the same tape idiom
used by small research autograd stacks.  A central-difference checker
polices each analytic gradient.

Also home to the counter-based RNG wrapper and the binary tensor file
format used to persist latents and weights.
"""

from __future__ import annotations

import hashlib
import math
import struct

import numpy as np

from .errors import BadTensorFile, ShapeMismatch

__all__ = [
    "Tensor", "Parameter", "AttentionParams", "Rng",
    "matmul", "softmax_lastdim", "layer_norm",
    "conv2d_3x3", "temporal_conv1d", "cross_attention",
    "finite_diff_check", "hash64", "derive_seed",
    "save_tensor", "load_tensor",
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
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=dtype if dtype is not None else np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev = ()

    # -- bookkeeping -------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return self.data.item()

    def _accumulate(self, grad):
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
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
        out = _node(self.data + other.data, (self, other))

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))
        out._backward = back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = _node(-self.data, (self,))

        def back(g):
            if self.requires_grad:
                self._accumulate(-g)
        out._backward = back
        return out

    def __sub__(self, other):
        return self + (-_ensure(other))

    def __rsub__(self, other):
        return _ensure(other) + (-self)

    def __mul__(self, other):
        other = _ensure(other)
        out = _node(self.data * other.data, (self, other))

        def back(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))
        out._backward = back
        return out

    __rmul__ = __mul__

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        out = _node(self.data[key], (self,))

        def back(g):
            if self.requires_grad:
                full = np.zeros_like(self.data)
                full[key] += g
                self._accumulate(full)
        out._backward = back
        return out

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = _node(self.data.reshape(shape), (self,))

        def back(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.data.shape))
        out._backward = back
        return out

    def transpose(self, axes):
        axes = tuple(axes)
        out = _node(self.data.transpose(axes), (self,))
        inverse = tuple(np.argsort(axes))

        def back(g):
            if self.requires_grad:
                self._accumulate(g.transpose(inverse))
        out._backward = back
        return out

    def swapaxes(self, a, b):
        perm = list(range(self.data.ndim))
        perm[a], perm[b] = perm[b], perm[a]
        return self.transpose(perm)

    def sum(self, axis=None, keepdims=False):
        out = _node(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def back(g):
            if not self.requires_grad:
                return
            if axis is None:
                self._accumulate(np.broadcast_to(g, self.data.shape).copy())
                return
            if not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())
        out._backward = back
        return out

    def mean(self, axis=None, keepdims=False):
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, grad={'yes' if self.requires_grad else 'no'})"


def _ensure(value):
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents):
    out = Tensor(data, dtype=data.dtype)
    out.requires_grad = any(p.requires_grad for p in parents)
    if out.requires_grad:
        out._prev = tuple(parents)
    return out


class Parameter(Tensor):
    """A leaf tensor tracked by the optimizer."""

    __slots__ = ("trainable", "name")

    def __init__(self, data, trainable=True, name=""):
        super().__init__(data, requires_grad=True)
        self.trainable = bool(trainable)
        self.name = name


# --- fused kernels -------------------------------------------------------


def matmul(a, b):
    a, b = _ensure(a), _ensure(b)
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeMismatch(f"matmul inner dims {a.data.shape} @ {b.data.shape}")
    out = _node(np.matmul(a.data, b.data), (a, b))

    def back(g):
        if a.requires_grad:
            ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
            a._accumulate(_unbroadcast(ga, a.data.shape))
        if b.requires_grad:
            gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
            b._accumulate(_unbroadcast(gb, b.data.shape))
    out._backward = back
    return out


def softmax_lastdim(t):
    t = _ensure(t)
    shifted = t.data - t.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)
    out = _node(y, (t,))

    def back(g):
        if t.requires_grad:
            inner = (g * y).sum(axis=-1, keepdims=True)
            t._accumulate(y * (g - inner))
    out._backward = back
    return out


def layer_norm(t, gain, bias, eps=1e-5):
    """Normalize the last dim to zero mean / unit variance, then affine."""
    t, gain, bias = _ensure(t), _ensure(gain), _ensure(bias)
    x = t.data
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = _node(xhat * gain.data + bias.data, (t, gain, bias))

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
    out._backward = back
    return out


def conv2d_3x3(x, kernel, bias=None):
    """2-D cross-correlation, stride 1, zero padding 1 (same size out).

    x: [C, H, W]; kernel: [C_out, C, 3, 3]; bias: [C_out] or None.
    """
    x, kernel = _ensure(x), _ensure(kernel)
    if x.data.ndim != 3 or kernel.data.ndim != 4 or kernel.data.shape[2:] != (3, 3):
        raise ShapeMismatch(f"conv2d_3x3 got x{x.data.shape} kernel{kernel.data.shape}")
    if kernel.data.shape[1] != x.data.shape[0]:
        raise ShapeMismatch("conv2d_3x3 channel mismatch")
    c, h, w = x.data.shape
    xp = np.pad(x.data, ((0, 0), (1, 1), (1, 1)))
    out_data = np.zeros((kernel.data.shape[0], h, w), dtype=x.data.dtype)
    for u in range(3):
        for v in range(3):
            out_data += np.einsum("oc,chw->ohw", kernel.data[:, :, u, v],
                                  xp[:, u:u + h, v:v + w])
    parents = (x, kernel) if bias is None else (x, kernel, _ensure(bias))
    if bias is not None:
        bias = parents[2]
        out_data = out_data + bias.data[:, None, None]
    out = _node(out_data, parents)

    def back(g):
        if kernel.requires_grad:
            gk = np.zeros_like(kernel.data)
            for u in range(3):
                for v in range(3):
                    gk[:, :, u, v] = np.einsum("ohw,chw->oc", g, xp[:, u:u + h, v:v + w])
            kernel._accumulate(gk)
        if x.requires_grad:
            gxp = np.zeros_like(xp)
            for u in range(3):
                for v in range(3):
                    gxp[:, u:u + h, v:v + w] += np.einsum("oc,ohw->chw",
                                                          kernel.data[:, :, u, v], g)
            x._accumulate(gxp[:, 1:1 + h, 1:1 + w])
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 2)))
    out._backward = back
    return out


def temporal_conv1d(x, kernel, bias=None):
    """Width-3 cross-correlation along the frame axis, zero padding 1.

    x: [C, F, H, W]; kernel: [C_out, C, 3]; bias: [C_out] or None.
    """
    x, kernel = _ensure(x), _ensure(kernel)
    if x.data.ndim != 4 or kernel.data.ndim != 3 or kernel.data.shape[2] != 3:
        raise ShapeMismatch(f"temporal_conv1d got x{x.data.shape} kernel{kernel.data.shape}")
    if kernel.data.shape[1] != x.data.shape[0]:
        raise ShapeMismatch("temporal_conv1d channel mismatch")
    c, f, h, w = x.data.shape
    xp = np.pad(x.data, ((0, 0), (1, 1), (0, 0), (0, 0)))
    out_data = np.zeros((kernel.data.shape[0], f, h, w), dtype=x.data.dtype)
    for u in range(3):
        out_data += np.einsum("oc,cfhw->ofhw", kernel.data[:, :, u], xp[:, u:u + f])
    parents = (x, kernel) if bias is None else (x, kernel, _ensure(bias))
    if bias is not None:
        bias = parents[2]
        out_data = out_data + bias.data[:, None, None, None]
    out = _node(out_data, parents)

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
        if bias is not None and bias.requires_grad:
            bias._accumulate(g.sum(axis=(1, 2, 3)))
    out._backward = back
    return out


# --- attention -----------------------------------------------------------


class AttentionParams:
    """Projection matrices for one (cross-)attention module.

    w_q: [C_q, d], w_k/w_v: [C_ctx, d], w_o: [d, C_q].  ``heads`` must
    divide d.
    """

    def __init__(self, w_q, w_k, w_v, w_o, heads=1):
        self.w_q, self.w_k, self.w_v, self.w_o = w_q, w_k, w_v, w_o
        self.heads = int(heads)
        if self.w_q.data.shape[1] % self.heads:
            raise ShapeMismatch("attention heads must divide the inner dim")

    @classmethod
    def init(cls, rng, query_channels, context_channels, inner_dim, heads=1,
             trainable=True, name="attn"):
        if inner_dim % heads:
            raise ShapeMismatch("attention heads must divide the inner dim")

        def mk(rows, cols, label):
            w = rng.normal((rows, cols)) / np.sqrt(rows)
            return Parameter(w, trainable=trainable, name=f"{name}.{label}")

        return cls(mk(query_channels, inner_dim, "w_q"),
                   mk(context_channels, inner_dim, "w_k"),
                   mk(context_channels, inner_dim, "w_v"),
                   mk(inner_dim, query_channels, "w_o"),
                   heads=heads)

    def parameters(self):
        return [(p.name, p) for p in (self.w_q, self.w_k, self.w_v, self.w_o)]


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
    scores = matmul(q, k.swapaxes(-1, -2)) * (1.0 / np.sqrt(dh))
    attn = softmax_lastdim(scores)
    mixed = _merge_heads(matmul(attn, v))
    return matmul(mixed, params.w_o)


# --- gradient checking ---------------------------------------------------


def finite_diff_check(fn, params, eps=1e-5):
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
            flat[i] = keep + eps
            up = fn().item()
            flat[i] = keep - eps
            down = fn().item()
            flat[i] = keep
            numeric = (up - down) / (2 * eps)
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


def save_tensor(path, array):
    """Write a float32 little-endian tensor file.

    Layout: magic ``VSTN``, u32 version, u32 rank, rank u64 dims, then the
    C-order float32 payload.
    """
    # ascontiguousarray would promote rank-0 inputs to shape (1,)
    arr = np.asarray(array, dtype="<f4", order="C")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", _VERSION, arr.ndim))
        fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        fh.write(arr.tobytes())


def load_tensor(path):
    """Read a file written by ``save_tensor``; BadTensorFile unless it is
    well formed and every value is finite."""
    with open(path, "rb") as fh:
        raw = fh.read()
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
    return arr.reshape(dims).copy()
