"""Conditioning blocks, toy denoisers, training step, oracles, and the
finite-difference audit of every block's handwritten backward pass.

Two block families carry all the conditioning:

* tri-context attention (image stage): three cross-attentions over text,
  foreground and background features feed one self-attention, wrapped in
  a residual.  Only the two added cross-attentions train by default.
* spatio-temporal attention (video stage): cross-attention over the
  scene-reference features plus a broadcast action embedding, then
  spatial self-attention within each frame and temporal self-attention
  across frames per spatial site.

Denoisers are single-resolution stacks: token embedding, K blocks,
un-embedding; epsilon-parameterized.  An analytic Gaussian oracle with
the same call surface makes sampler behavior exactly predictable.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .action_condition import embed_indicator
from .errors import BadRange, BadTensorFile, ShapeMismatch
from .numeric_core import (Affine, AttentionParams, Module, Parameter, Rng, Tensor,
                           cross_attention, derive_seed, finite_diff_check, hash64,
                           layer_norm, load_tensor, read_bytes, read_json,
                           save_tensor, temporal_conv1d, write_json)

DEFAULT_CONTEXT_CHANNELS = 32
TEXT_LEN = 77
IMAGE_TOKENS = 256  # a 16x16 grid of 4x4 patches on the 64x64 canvas
_GRID, _PATCH = 16, 4


# --- contexts --------------------------------------------------------------


class ContextBundle:
    """Text / foreground / background feature rows for the image stage."""

    def __init__(self, y_t, y_f, y_b):
        self.y_t = np.asarray(y_t, dtype=np.float64)
        self.y_f = np.asarray(y_f, dtype=np.float64)
        self.y_b = np.asarray(y_b, dtype=np.float64)
        for name, arr in (("y_t", self.y_t), ("y_f", self.y_f), ("y_b", self.y_b)):
            if arr.ndim != 2:
                raise ShapeMismatch(f"{name} must be [L, C], got {arr.shape}")

    def null_like(self):
        """Zero-length contexts: the classifier-free null condition."""
        return ContextBundle(np.zeros((0, self.y_t.shape[1])),
                             np.zeros((0, self.y_f.shape[1])),
                             np.zeros((0, self.y_b.shape[1])))


class VidContext:
    """Scene-reference features plus the action indicator for the video stage."""

    def __init__(self, y_s, y_a):
        self.y_s = np.asarray(y_s, dtype=np.float64)
        self.y_a = np.asarray(y_a, dtype=np.float64)
        if self.y_s.ndim != 2:
            raise ShapeMismatch(f"y_s must be [L, C], got {self.y_s.shape}")
        if self.y_a.ndim != 1:
            raise ShapeMismatch(f"y_a must be a vector, got {self.y_a.shape}")
        self.residuals = None  # per-block null-pass residuals, set by VidDenoiser.null_cond

    def null_like(self):
        """Zeroed (same-shape) scene features and indicator."""
        return VidContext(np.zeros_like(self.y_s), np.zeros_like(self.y_a))


# --- blocks ----------------------------------------------------------------


class TriContextBlock(Module):
    """CA over text (frozen), fg, bg (both trainable), then frozen SA."""

    def __init__(self, rng, channels, heads=4, text_channels=None,
                 fg_channels=None, bg_channels=None, name="tri"):
        self.channels = channels
        self.ca1 = AttentionParams(rng.child("ca1"), channels, text_channels or channels,
                                   channels, heads, trainable=False, name=f"{name}.ca1")
        self.ca2 = AttentionParams(rng.child("ca2"), channels, fg_channels or channels,
                                   channels, heads, trainable=True, name=f"{name}.ca2")
        self.ca3 = AttentionParams(rng.child("ca3"), channels, bg_channels or channels,
                                   channels, heads, trainable=True, name=f"{name}.ca3")
        self.sa = AttentionParams(rng.child("sa"), channels, channels, channels, heads,
                                  trainable=False, name=f"{name}.sa")


def tri_context_forward(x, bundle, block):
    """y = CA1(x, y_t) + CA2(x, y_f) + CA3(x, y_b); z = x + SA(y)."""
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if x.data.shape[-1] != block.channels:
        raise ShapeMismatch(f"tokens {x.data.shape} vs block channels {block.channels}")
    y = (cross_attention(x, Tensor(bundle.y_t), block.ca1)
         + cross_attention(x, Tensor(bundle.y_f), block.ca2)
         + cross_attention(x, Tensor(bundle.y_b), block.ca3))
    return x + cross_attention(y, y, block.sa)


class SpatioTemporalBlock(Module):
    """CA over scene features + action bias, then spatial and temporal SA."""

    def __init__(self, rng, channels, vocab_size, heads=4, scene_channels=None,
                 name="st"):
        self.ca = AttentionParams(rng.child("ca"), channels, scene_channels or channels,
                                  channels, heads, name=f"{name}.ca")
        self.sa_spatial = AttentionParams(rng.child("sas"), channels, channels, channels,
                                          heads, name=f"{name}.sa_spatial")
        self.sa_temporal = AttentionParams(rng.child("sat"), channels, channels, channels,
                                           heads, name=f"{name}.sa_temporal")
        self.f = Affine(rng.child("f"), vocab_size, channels, True, f"{name}.f")

    def residual(self, tokens, ctx):
        """What the block adds to tokens [F, HW, C]: spatial attention batches
        over frames, temporal attention over spatial sites.  The tokens are
        read only as the queries of the scene cross-attention."""
        y = cross_attention(tokens, Tensor(ctx.y_s), self.ca) + embed_indicator(ctx.y_a, self.f)
        spatial = cross_attention(y, y, self.sa_spatial)
        sites = spatial.swapaxes(0, 1)  # [HW, F, C]
        temporal = cross_attention(sites, sites, self.sa_temporal)
        return temporal.swapaxes(0, 1)

    def forward_tokens(self, tokens, ctx):
        return tokens + self.residual(tokens, ctx)


# --- denoisers --------------------------------------------------------------


def timestep_embedding(t, channels):
    """Sinusoidal embedding of an integer timestep."""
    half = channels // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / max(half, 1))
    angles = float(t) * freqs
    emb = np.zeros(channels, dtype=np.float64)
    emb[0:2 * half:2] = np.sin(angles)
    emb[1:2 * half:2] = np.cos(angles)
    return emb


class ImgDenoiser(Module):
    """Tri-context image denoiser: embed -> K tri-context blocks -> un-embed.

    ``trainable="adapters"`` (default) trains only the foreground and
    background cross-attentions; ``trainable="all"`` trains everything.
    """

    def __init__(self, rng, latent_shape=(4, 16, 16), channels=32, blocks=2,
                 heads=4, text_channels=DEFAULT_CONTEXT_CHANNELS,
                 fg_channels=DEFAULT_CONTEXT_CHANNELS,
                 bg_channels=DEFAULT_CONTEXT_CHANNELS, trainable="adapters"):
        if trainable not in ("adapters", "all"):
            raise ShapeMismatch("trainable must be 'adapters' or 'all'")
        base_trainable = trainable == "all"
        self.latent_shape = tuple(latent_shape)
        self.channels = channels
        self.embed = Affine(rng.child("embed"), latent_shape[0], channels, base_trainable, "embed")
        self.ln_gain = Parameter(np.ones(channels), trainable=base_trainable, name="ln.gain")
        self.ln_bias = Parameter(np.zeros(channels), trainable=base_trainable, name="ln.bias")
        self.blocks = [TriContextBlock(rng.child("block", i), channels, heads,
                                       text_channels=text_channels,
                                       fg_channels=fg_channels,
                                       bg_channels=bg_channels, name=f"block{i}")
                       for i in range(blocks)]
        if trainable == "all":
            for blk in self.blocks:
                for _, p in blk.parameters():
                    p.trainable = True
        self.out = Affine(rng.child("out"), channels, latent_shape[0], base_trainable, "out")

    def null_cond(self, cond):
        (bundle,) = cond
        return (bundle.null_like(),)

    def predict(self, latent, t, bundle):
        latent = np.asarray(latent, dtype=np.float64)
        if latent.shape != self.latent_shape:
            raise ShapeMismatch(f"latent {latent.shape} vs {self.latent_shape}")
        c_lat, h, w = latent.shape
        tokens = Tensor(latent).transpose((1, 2, 0)).reshape(h * w, c_lat)
        tokens = self.embed(tokens)
        tokens = tokens + Tensor(timestep_embedding(t, self.channels))
        tokens = layer_norm(tokens, self.ln_gain, self.ln_bias)
        for blk in self.blocks:
            tokens = tri_context_forward(tokens, bundle, blk)
        return self.out(tokens).reshape(h, w, c_lat).transpose((2, 0, 1))


class VidDenoiser(Module):
    """Spatio-temporal video denoiser with the reference frame prepended.

    The scene-reference latent rides along as frame 0 through embedding,
    temporal convolution and every block, and is stripped from the output.
    Every parameter trains.
    """

    def __init__(self, rng, latent_shape=(4, 8, 16, 16), channels=32, blocks=2,
                 heads=4, vocab_size=16, scene_channels=DEFAULT_CONTEXT_CHANNELS):
        self.latent_shape = tuple(latent_shape)
        self.channels = channels
        self.embed = Affine(rng.child("embed"), latent_shape[0], channels, True, "embed")
        self.k_temporal = Parameter(rng.normal((channels, channels, 3)) / np.sqrt(3 * channels),
                                    name="temporal.k")
        self.b_temporal = Parameter(np.zeros(channels), name="temporal.b")
        self.ln_gain = Parameter(np.ones(channels), name="ln.gain")
        self.ln_bias = Parameter(np.zeros(channels), name="ln.bias")
        self.blocks = [SpatioTemporalBlock(rng.child("block", i), channels, vocab_size,
                                           heads, scene_channels=scene_channels,
                                           name=f"block{i}")
                       for i in range(blocks)]
        self.out = Affine(rng.child("out"), channels, latent_shape[0], True, "out")

    def null_cond(self, cond):
        """The zeroed context, holding each block's residual.  Over zero y_s
        the cross-attention returns exactly 0, so no residual reads x or t,
        and all its rows are one row: the embedded zero indicator, passed
        through self-attentions over identical rows.  Each block runs on one
        token, and its row is broadcast to the ``[F+1, HW, C]`` grid in C
        order; a ``[1, 1, C]`` row added to the tokens would take their
        layout, which gives ``predict``'s later matmuls other last bits."""
        ctx, ref_latent = cond
        null = ctx.null_like()
        _, frames, h, w = self.latent_shape
        token = Tensor(np.zeros((1, 1, self.channels)))
        grid = Tensor(np.zeros((frames + 1, h * w, self.channels)))
        null.residuals = [blk.residual(token, null) + grid for blk in self.blocks]
        return (null, ref_latent)

    def predict(self, video_latent, t, ctx, ref_latent):
        video_latent = np.asarray(video_latent, dtype=np.float64)
        if video_latent.shape != self.latent_shape:
            raise ShapeMismatch(f"latent {video_latent.shape} vs {self.latent_shape}")
        c_lat, frames, h, w = video_latent.shape
        ref_latent = np.asarray(ref_latent, dtype=np.float64)
        if ref_latent.shape != (c_lat, 1, h, w):
            raise ShapeMismatch(f"reference latent {ref_latent.shape} vs {(c_lat, 1, h, w)}")
        stacked = np.concatenate([ref_latent, video_latent], axis=1)  # [4, F+1, H, W]
        tokens = Tensor(stacked).transpose((1, 2, 3, 0)).reshape(frames + 1, h * w, c_lat)
        tokens = self.embed(tokens)  # [F+1, HW, C]
        grid = tokens.reshape(frames + 1, h, w, self.channels).transpose((3, 0, 1, 2))
        grid = temporal_conv1d(grid, self.k_temporal, self.b_temporal)
        tokens = grid.transpose((1, 2, 3, 0)).reshape(frames + 1, h * w, self.channels)
        tokens = tokens + Tensor(timestep_embedding(t, self.channels))
        tokens = layer_norm(tokens, self.ln_gain, self.ln_bias)
        for i, blk in enumerate(self.blocks):
            # a held residual goes on the left: backward then walks its graph before
            # the stem's, which keeps backward's peak memory at the full path's
            tokens = ctx.residuals[i] + tokens if ctx.residuals else blk.forward_tokens(tokens, ctx)
        out = self.out(tokens).reshape(frames + 1, h, w, c_lat).transpose((3, 0, 1, 2))
        return out[:, 1:]  # strip the reference frame


# --- training ----------------------------------------------------------------


class AdamW:
    """AdamW over ``(name, Parameter)`` pairs; weight decay is decoupled
    from the moment update.

    Frozen parameters (trainable=False) and parameters with no gradient
    are skipped.  Moments are kept per position in ``named_params``.
    """

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        self.params = [p for _, p in named_params]
        self.lr, self.beta1, self.beta2 = lr, beta1, beta2
        self.eps, self.weight_decay = eps, weight_decay
        self.moments = [None] * len(self.params)
        self.steps = 0

    def step(self):
        self.steps += 1
        b1, b2 = self.beta1, self.beta2
        for i, p in enumerate(self.params):
            if not p.trainable or p.grad is None:
                continue
            m, v = self.moments[i] or (np.zeros_like(p.data), np.zeros_like(p.data))
            m = b1 * m + (1 - b1) * p.grad
            v = b2 * v + (1 - b2) * p.grad * p.grad
            self.moments[i] = (m, v)
            mhat = m / (1 - b1 ** self.steps)
            vhat = v / (1 - b2 ** self.steps)
            p.data = p.data - self.lr * (mhat / (np.sqrt(vhat) + self.eps)
                                         + self.weight_decay * p.data)


def train_step(denoiser, batch, schedule, rng, opt=None, p_drop=0.1):
    """One epsilon-prediction step over a batch of (clean latent, cond).

    Draws t uniform in [1, T] and unit noise per item, corrupts, predicts,
    and backpropagates the mean MSE.  With probability ``p_drop`` an
    item's conditioning is replaced by the denoiser's null condition.
    When ``opt`` is given, applies the AdamW update (frozen parameters
    never move).
    """
    for _, p in denoiser.parameters():
        p.grad = None
    total = None
    for x0, cond in batch:
        x0 = np.asarray(x0, dtype=np.float64)
        t = int(rng.integers(1, schedule.T + 1))
        eps = rng.normal(x0.shape)
        x_t = schedule.alpha_at(t) * x0 + schedule.sigma_at(t) * eps
        use = cond
        if p_drop > 0.0 and rng.uniform() < p_drop:
            use = denoiser.null_cond(cond) or cond  # None: conditioning has no effect
        pred = denoiser.predict(x_t, t, *use)
        diff = pred - Tensor(eps)
        term = (diff * diff).mean()
        total = term if total is None else total + term
    loss = total * (1.0 / len(batch))
    loss.backward()
    if opt is not None:
        opt.step()
    return float(loss.item())


# --- analytic oracle ----------------------------------------------------------


class GaussianPrior:
    """Diagonal Gaussian over clean latents: mean array + scalar/per-coord var."""

    def __init__(self, mean, variance):
        self.mean = np.asarray(mean, dtype=np.float64)
        self.variance = np.asarray(variance, dtype=np.float64)
        if np.any(self.variance < 0):
            raise ShapeMismatch("prior variance must be >= 0")


def analytic_gaussian_epsilon(x_t, t, prior, schedule):
    """Exact eps posterior for a diagonal Gaussian prior over x0.

    E[x0 | x_t] = mu + (alpha_t s0^2 / (alpha_t^2 s0^2 + sigma_t^2)) (x_t - alpha_t mu)
    eps_hat     = (x_t - alpha_t E[x0 | x_t]) / sigma_t
    """
    t = int(t)
    if t == 0:
        raise BadRange("sigma(0) = 0: eps is undefined on clean data")
    x_t = np.asarray(x_t, dtype=np.float64)
    alpha = schedule.alpha_at(t)
    sigma = schedule.sigma_at(t)
    s0 = prior.variance
    gain = alpha * s0 / (alpha * alpha * s0 + sigma * sigma)
    e_x0 = prior.mean + gain * (x_t - alpha * prior.mean)
    return (x_t - alpha * e_x0) / sigma


class AnalyticGaussianDenoiser:
    """Oracle denoiser: ignores conditioning, knows its prior exactly.

    Exposes the pure-noise boundary hook, where the posterior mean over
    clean data is the prior mean regardless of the state.
    """

    def __init__(self, prior, schedule, latent_shape):
        self.prior = prior
        self.schedule = schedule
        self.latent_shape = tuple(latent_shape)

    def null_cond(self, cond):
        return None  # predict ignores conditioning, so guidance needs no second call

    def predict(self, x, t, *_cond):
        return analytic_gaussian_epsilon(x, t, self.prior, self.schedule)

    def x0_at_pure_noise(self, x):
        return np.broadcast_to(self.prior.mean, np.asarray(x).shape).copy()


# --- toy feature extractor -----------------------------------------------------


class ToyFeatureExtractor:
    """Deterministic stand-in for text/image encoders.

    Text: TEXT_LEN rows, each a per-slot hash of (token identity, position)
    expanded to a unit pseudo-random vector.  Images: nearest-resize to a
    64x64 canvas, a 16x16 grid of 4x4 patches (IMAGE_TOKENS rows), each
    flattened patch pushed through one fixed random projection.
    """

    def __init__(self, channels=DEFAULT_CONTEXT_CHANNELS):
        self.channels = channels
        self._proj = Rng(hash64("patch-proj", channels)).normal((_PATCH * _PATCH * 3, channels))
        self._proj /= np.sqrt(_PATCH * _PATCH * 3)

    def text_features(self, prompt):
        rows = np.zeros((TEXT_LEN, self.channels))
        tokens = prompt.lower().split()
        for i in range(TEXT_LEN):
            token = tokens[i] if i < len(tokens) else f"<pad{i}>"
            vec = Rng(hash64("text-tok", token, i)).normal(self.channels)
            rows[i] = vec / np.sqrt(self.channels)
        return rows

    def image_features(self, image):
        """image: [H, W, 3] floats in [0, 1] -> [IMAGE_TOKENS, channels]."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ShapeMismatch(f"image must be [H, W, 3], got {image.shape}")
        canvas = _resize_nearest(image, 64, 64)
        # [gy, py, gx, px, 3] -> one row per patch in grid order, flattened as (py, px, 3)
        patches = canvas.reshape(_GRID, _PATCH, _GRID, _PATCH, 3).transpose(0, 2, 1, 3, 4)
        return patches.reshape(IMAGE_TOKENS, -1) @ self._proj


def _resize_nearest(image, out_h, out_w):
    h, w = image.shape[:2]
    ys = np.minimum((np.arange(out_h) * h) // out_h, h - 1).astype(np.intp)
    xs = np.minimum((np.arange(out_w) * w) // out_w, w - 1).astype(np.intp)
    return image[ys][:, xs]


# --- weight persistence ---------------------------------------------------------


def save_weights(denoiser, dirpath):
    """Write ``weights.vstn``, every parameter's values raveled into one
    float32 tensor in ``parameters()`` order, and ``weights.json``: one
    name/shape/trainable entry per parameter in that order, and the sha256
    of the float32 payload."""
    params = list(denoiser.parameters())
    flat = np.concatenate([p.data.ravel() for _, p in params], dtype="<f4")
    save_tensor(os.path.join(dirpath, "weights.vstn"), flat)
    write_json(os.path.join(dirpath, "weights.json"), {
        "params": [{"name": name, "shape": list(p.data.shape), "trainable": bool(p.trainable)}
                   for name, p in params],
        "sha256": hashlib.sha256(flat).hexdigest()})


def load_weights(denoiser, dirpath):
    """Read what ``save_weights`` wrote into ``denoiser``'s parameters.

    A weights.json that cannot be read or is not that structure, or whose
    entries do not name every parameter once in the denoiser's order, is
    BadTensorFile, and so is a weights.vstn that is malformed, is not as
    long as the parameters, or fails the sha256; a name the denoiser lacks
    or a shape that does not fit is ShapeMismatch.  Every check runs
    before any parameter changes.
    """
    path = os.path.join(dirpath, "weights.json")
    manifest = read_json(path, BadTensorFile)
    entries = manifest.get("params") if isinstance(manifest, dict) else None
    if not (isinstance(entries, list) and isinstance(manifest.get("sha256"), str)):
        raise BadTensorFile(f"{path}: needs a 'params' list and a 'sha256' string")
    for entry in entries:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and isinstance(entry.get("shape"), list)
                and isinstance(entry.get("trainable"), bool)):
            raise BadTensorFile(f"{path}: a params entry needs a string name, a shape "
                                "list and a boolean trainable")
    params = list(denoiser.parameters())
    names, expected = [entry["name"] for entry in entries], [name for name, _ in params]
    if names != expected:
        unknown = sorted(set(names) - set(expected))
        if unknown:
            raise ShapeMismatch(f"weights names {unknown} not in this denoiser")
        got, want = names + [None], expected + [None]
        at = next(i for i, (a, b) in enumerate(zip(got, want)) if a != b)
        raise BadTensorFile(f"{path}: must name every parameter once, in the denoiser's order; "
                            f"entry {at} is {got[at]!r} where the denoiser has {want[at]!r}")
    for entry, (name, p) in zip(entries, params):
        if entry["shape"] != list(p.data.shape):
            raise ShapeMismatch(f"weights shape {entry['shape']} vs {p.data.shape} for {name}")
    path = os.path.join(dirpath, "weights.vstn")
    loaded = load_tensor(read_bytes(path, BadTensorFile), path)
    sizes = [p.data.size for _, p in params]
    if loaded.shape != (sum(sizes),):
        raise BadTensorFile(f"{path}: holds shape {loaded.shape}, expected ({sum(sizes)},)")
    if hashlib.sha256(loaded).hexdigest() != manifest["sha256"]:
        raise BadTensorFile(f"{path}: sha256 does not match weights.json")
    for entry, (_, p), values in zip(entries, params, np.split(loaded, np.cumsum(sizes)[:-1])):
        p.data = values.reshape(p.data.shape).astype(np.float64)
        p.trainable = entry["trainable"]


# --- gradient audit ---------------------------------------------------------------

_GRADCHECK_TRIALS = 4


def _gradcheck_cases(rng):
    """``_GRADCHECK_TRIALS`` randomized shape draws each for cross-attention,
    the tri-context block, the spatio-temporal block, the temporal convolution
    and the action embedding, plus two layer norms, as (label, r, parameters,
    forward).  A case draws its shapes and inputs from its own generator ``r``,
    and ``forward()`` rebuilds its output from the parameters' current values."""
    for i in range(_GRADCHECK_TRIALS):
        r = rng.child("xattn", i)
        heads = 1 + i % 2
        cq = heads * (2 + int(r.integers(0, 2)))
        cc, inner = 2 + int(r.integers(0, 3)), heads * (2 + int(r.integers(0, 2)))
        n, m = 2 + int(r.integers(0, 2)), 1 + int(r.integers(0, 3))
        p = AttentionParams(r.child("p"), cq, cc, inner, heads)
        x, ctx = Tensor(r.normal((n, cq))), Tensor(r.normal((m, cc)))
        yield (f"cross-attention[{i}]", r, [q for _, q in p.parameters()],
               lambda: cross_attention(x, ctx, p))

    for i in range(_GRADCHECK_TRIALS):
        r = rng.child("tri", i)
        heads = 1 + i % 2
        ch = heads * (2 + int(r.integers(0, 2)))
        block = TriContextBlock(r.child("b"), ch, heads)
        n = 2 + int(r.integers(0, 2))
        x = Tensor(r.normal((n, ch)))
        bundle = ContextBundle(r.normal((3, ch)), r.normal((2, ch)), r.normal((2, ch)))
        yield (f"tri-context[{i}]", r, [q for _, q in block.parameters()],
               lambda: tri_context_forward(x, bundle, block))

    for i in range(_GRADCHECK_TRIALS):
        r = rng.child("st", i)
        heads = 1 + i % 2
        ch = heads * (2 + int(r.integers(0, 2)))
        vocab = 2 + int(r.integers(0, 3))
        block = SpatioTemporalBlock(r.child("b"), ch, vocab, heads)
        f, sites = 2 + int(r.integers(0, 2)), 4
        tokens = Tensor(r.normal((f, sites, ch)))
        ctx = VidContext(r.normal((2, ch)), r.uniform(vocab))
        yield (f"spatio-temporal[{i}]", r, [q for _, q in block.parameters()],
               lambda: block.forward_tokens(tokens, ctx))

    for i in range(_GRADCHECK_TRIALS):
        r = rng.child("tconv", i)
        cin, cout = 1 + int(r.integers(0, 3)), 1 + int(r.integers(0, 3))
        f = 2 + int(r.integers(0, 3))
        kernel = Parameter(r.normal((cout, cin, 3)) / 2.0, name="k")
        bias = Parameter(r.normal(cout), name="b")
        x = Tensor(r.normal((cin, f, 2, 2)))
        yield f"temporal-conv[{i}]", r, [kernel, bias], lambda: temporal_conv1d(x, kernel, bias)

    for i in range(_GRADCHECK_TRIALS):
        r = rng.child("act", i)
        vocab, ch = 2 + int(r.integers(0, 4)), 2 + int(r.integers(0, 4))
        f = Affine(r.child("f"), vocab, ch, True, "f")
        y_a = r.uniform(vocab)
        yield (f"action-embedding[{i}]", r, [q for _, q in f.parameters()],
               lambda: embed_indicator(y_a, f))

    for i in range(2):
        r = rng.child("ln", i)
        n, ch = 2 + i, 3 + i
        gain = Parameter(1.0 + 0.1 * r.normal(ch), name="g")
        bias = Parameter(0.1 * r.normal(ch), name="b")
        x = Tensor(r.normal((n, ch)))
        yield f"layer-norm[{i}]", r, [gain, bias], lambda: layer_norm(x, gain, bias)


def run_gradient_suite(seed=0):
    """Finite-difference audit of every differentiable block family, in double
    precision.  Each case is checked on ``(forward() * w).sum()``, with the
    weight ``w`` drawn last from the case's generator in the output's shape.
    Returns the worst relative error, the per-case table and the 1e-4
    verdict the CLI and the acceptance suite read.
    """
    cases = []
    for label, r, params, forward in _gradcheck_cases(Rng(derive_seed(seed, "gradcheck"))):
        w = Tensor(r.normal(forward().data.shape))
        err = finite_diff_check(lambda: (forward() * w).sum(), params)
        cases.append({"case": label, "rel_err": err})
    worst = max(case["rel_err"] for case in cases)
    return {"max_rel_err": worst, "threshold": 1e-4,
            "passed": worst < 1e-4, "cases": cases}
