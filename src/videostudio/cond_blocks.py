"""Conditioning blocks, toy denoisers, training step, and oracles.

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

import json
import os

import numpy as np

from .action_condition import ActionEmbedding, embed_indicator
from .errors import DivisionAtTZero, ShapeMismatch
from .numeric_core import (AttentionParams, Parameter, Rng, Tensor,
                           cross_attention, hash64, layer_norm, load_tensor,
                           matmul, save_tensor, temporal_conv1d)

DEFAULT_CONTEXT_CHANNELS = 32
DEFAULT_TEXT_LEN = 77
DEFAULT_IMAGE_FEATURE_LEN = 256


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

    def null_like(self):
        """Zeroed (same-shape) scene features and indicator."""
        return VidContext(np.zeros_like(self.y_s), np.zeros_like(self.y_a))


def concat_foreground_features(feature_blocks, channels=DEFAULT_CONTEXT_CHANNELS):
    """Stack per-entity [L, C] feature blocks along the length axis."""
    if not feature_blocks:
        return np.zeros((0, channels))
    blocks = [np.asarray(b, dtype=np.float64) for b in feature_blocks]
    width = blocks[0].shape[1]
    for b in blocks:
        if b.ndim != 2 or b.shape[1] != width:
            raise ShapeMismatch(f"feature block {b.shape} does not match width {width}")
    return np.concatenate(blocks, axis=0)


# --- blocks ----------------------------------------------------------------


class TriContextBlock:
    """CA over text (frozen), fg, bg (both trainable), then frozen SA."""

    def __init__(self, rng, channels, heads=4, text_channels=None,
                 fg_channels=None, bg_channels=None, name="tri"):
        self.channels = channels
        self.ca1 = AttentionParams.init(rng.child("ca1"), channels,
                                        text_channels or channels, channels, heads,
                                        trainable=False, name=f"{name}.ca1")
        self.ca2 = AttentionParams.init(rng.child("ca2"), channels,
                                        fg_channels or channels, channels, heads,
                                        trainable=True, name=f"{name}.ca2")
        self.ca3 = AttentionParams.init(rng.child("ca3"), channels,
                                        bg_channels or channels, channels, heads,
                                        trainable=True, name=f"{name}.ca3")
        self.sa = AttentionParams.init(rng.child("sa"), channels, channels, channels,
                                       heads, trainable=False, name=f"{name}.sa")

    def parameters(self):
        out = []
        for module in (self.ca1, self.ca2, self.ca3, self.sa):
            out.extend(module.parameters())
        return out


def tri_context_forward(x, bundle, block):
    """y = CA1(x, y_t) + CA2(x, y_f) + CA3(x, y_b); z = x + SA(y)."""
    x = x if isinstance(x, Tensor) else Tensor(np.asarray(x, dtype=np.float64))
    if x.data.shape[-1] != block.channels:
        raise ShapeMismatch(f"tokens {x.data.shape} vs block channels {block.channels}")
    y = (cross_attention(x, Tensor(bundle.y_t), block.ca1)
         + cross_attention(x, Tensor(bundle.y_f), block.ca2)
         + cross_attention(x, Tensor(bundle.y_b), block.ca3))
    return x + cross_attention(y, y, block.sa)


class SpatioTemporalBlock:
    """CA over scene features + action bias, then spatial and temporal SA."""

    def __init__(self, rng, channels, vocab_size, heads=4, scene_channels=None,
                 name="st"):
        self.channels = channels
        self.ca = AttentionParams.init(rng.child("ca"), channels,
                                       scene_channels or channels, channels, heads,
                                       name=f"{name}.ca")
        self.sa_spatial = AttentionParams.init(rng.child("sas"), channels, channels,
                                               channels, heads, name=f"{name}.sa_spatial")
        self.sa_temporal = AttentionParams.init(rng.child("sat"), channels, channels,
                                                channels, heads, name=f"{name}.sa_temporal")
        self.f = ActionEmbedding.init(rng.child("f"), vocab_size, channels,
                                      trainable=True, name=f"{name}.f")

    def parameters(self):
        out = []
        for module in (self.ca, self.sa_spatial, self.sa_temporal):
            out.extend(module.parameters())
        out.extend(self.f.parameters())
        return out

    def forward_tokens(self, tokens, ctx):
        """tokens: [F, HW, C] — spatial attention batches over frames,
        temporal attention batches over spatial sites."""
        y = cross_attention(tokens, Tensor(ctx.y_s), self.ca) + embed_indicator(ctx.y_a, self.f)
        spatial = cross_attention(y, y, self.sa_spatial)
        sites = spatial.swapaxes(0, 1)  # [HW, F, C]
        temporal = cross_attention(sites, sites, self.sa_temporal)
        return tokens + temporal.swapaxes(0, 1)


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


def _affine_params(rng, c_in, c_out, trainable, name):
    w = Parameter(rng.normal((c_in, c_out)) / np.sqrt(c_in), trainable=trainable,
                  name=f"{name}.w")
    b = Parameter(np.zeros(c_out), trainable=trainable, name=f"{name}.b")
    return w, b


class ImgDenoiser:
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
        self.w_embed, self.b_embed = _affine_params(rng.child("embed"),
                                                    latent_shape[0], channels,
                                                    base_trainable, "embed")
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
        self.w_out, self.b_out = _affine_params(rng.child("out"), channels,
                                                latent_shape[0], base_trainable, "out")

    def parameters(self):
        out = [(self.w_embed.name, self.w_embed), (self.b_embed.name, self.b_embed),
               (self.ln_gain.name, self.ln_gain), (self.ln_bias.name, self.ln_bias)]
        for blk in self.blocks:
            out.extend(blk.parameters())
        out.extend([(self.w_out.name, self.w_out), (self.b_out.name, self.b_out)])
        return out

    def null_cond(self, cond):
        (bundle,) = cond
        return (bundle.null_like(),)

    def predict(self, latent, t, bundle):
        latent = np.asarray(latent, dtype=np.float64)
        if latent.shape != self.latent_shape:
            raise ShapeMismatch(f"latent {latent.shape} vs {self.latent_shape}")
        c_lat, h, w = latent.shape
        tokens = Tensor(latent).transpose((1, 2, 0)).reshape(h * w, c_lat)
        tokens = matmul(tokens, self.w_embed) + self.b_embed
        tokens = tokens + Tensor(timestep_embedding(t, self.channels))
        tokens = layer_norm(tokens, self.ln_gain, self.ln_bias)
        for blk in self.blocks:
            tokens = tri_context_forward(tokens, bundle, blk)
        out = matmul(tokens, self.w_out) + self.b_out
        return out.reshape(h, w, c_lat).transpose((2, 0, 1))


class VidDenoiser:
    """Spatio-temporal video denoiser with the reference frame prepended.

    The scene-reference latent rides along as frame 0 through embedding,
    temporal convolution and every block, and is stripped from the output.
    Every parameter trains.
    """

    def __init__(self, rng, latent_shape=(4, 8, 16, 16), channels=32, blocks=2,
                 heads=4, vocab_size=16, scene_channels=DEFAULT_CONTEXT_CHANNELS):
        self.latent_shape = tuple(latent_shape)
        self.channels = channels
        self.w_embed, self.b_embed = _affine_params(rng.child("embed"),
                                                    latent_shape[0], channels, True, "embed")
        self.k_temporal = Parameter(rng.normal((channels, channels, 3)) / np.sqrt(3 * channels),
                                    name="temporal.k")
        self.b_temporal = Parameter(np.zeros(channels), name="temporal.b")
        self.ln_gain = Parameter(np.ones(channels), name="ln.gain")
        self.ln_bias = Parameter(np.zeros(channels), name="ln.bias")
        self.blocks = [SpatioTemporalBlock(rng.child("block", i), channels, vocab_size,
                                           heads, scene_channels=scene_channels,
                                           name=f"block{i}")
                       for i in range(blocks)]
        self.w_out, self.b_out = _affine_params(rng.child("out"), channels,
                                                latent_shape[0], True, "out")

    def parameters(self):
        out = [(self.w_embed.name, self.w_embed), (self.b_embed.name, self.b_embed),
               (self.k_temporal.name, self.k_temporal),
               (self.b_temporal.name, self.b_temporal),
               (self.ln_gain.name, self.ln_gain), (self.ln_bias.name, self.ln_bias)]
        for blk in self.blocks:
            out.extend(blk.parameters())
        out.extend([(self.w_out.name, self.w_out), (self.b_out.name, self.b_out)])
        return out

    def null_cond(self, cond):
        ctx, ref_latent = cond
        return (ctx.null_like(), ref_latent)

    def predict(self, video_latent, t, ctx, ref_latent=None):
        video_latent = np.asarray(video_latent, dtype=np.float64)
        if video_latent.shape != self.latent_shape:
            raise ShapeMismatch(f"latent {video_latent.shape} vs {self.latent_shape}")
        c_lat, frames, h, w = video_latent.shape
        if ref_latent is None:
            ref_latent = np.zeros((c_lat, 1, h, w))
        ref_latent = np.asarray(ref_latent, dtype=np.float64)
        if ref_latent.shape != (c_lat, 1, h, w):
            raise ShapeMismatch(f"reference latent {ref_latent.shape} vs {(c_lat, 1, h, w)}")
        stacked = np.concatenate([ref_latent, video_latent], axis=1)  # [4, F+1, H, W]
        tokens = Tensor(stacked).transpose((1, 2, 3, 0)).reshape(frames + 1, h * w, c_lat)
        tokens = matmul(tokens, self.w_embed) + self.b_embed  # [F+1, HW, C]
        grid = tokens.reshape(frames + 1, h, w, self.channels).transpose((3, 0, 1, 2))
        grid = temporal_conv1d(grid, self.k_temporal, self.b_temporal)
        tokens = grid.transpose((1, 2, 3, 0)).reshape(frames + 1, h * w, self.channels)
        tokens = tokens + Tensor(timestep_embedding(t, self.channels))
        tokens = layer_norm(tokens, self.ln_gain, self.ln_bias)
        for blk in self.blocks:
            tokens = blk.forward_tokens(tokens, ctx)
        out = matmul(tokens, self.w_out) + self.b_out
        out = out.reshape(frames + 1, h, w, c_lat).transpose((3, 0, 1, 2))
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
        raise DivisionAtTZero("sigma(0) = 0: eps is undefined on clean data")
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

    Text: per-slot hash of (token identity, position) expanded to a unit
    pseudo-random vector.  Images: nearest-resize to a 64x64 canvas, 4x4
    patch grid (256 tokens), each flattened patch pushed through one fixed
    random projection.
    """

    def __init__(self, channels=DEFAULT_CONTEXT_CHANNELS, text_len=DEFAULT_TEXT_LEN,
                 image_tokens=DEFAULT_IMAGE_FEATURE_LEN):
        self.channels = channels
        self.text_len = text_len
        self.image_tokens = image_tokens
        side = int(np.sqrt(image_tokens))
        if side * side != image_tokens:
            raise ShapeMismatch("image_tokens must be a perfect square")
        self._grid = side
        patch = 64 // side
        self._patch = patch
        self._proj = Rng(hash64("patch-proj", channels)).normal((patch * patch * 3, channels))
        self._proj /= np.sqrt(patch * patch * 3)

    def text_features(self, prompt):
        rows = np.zeros((self.text_len, self.channels))
        tokens = prompt.lower().split()
        for i in range(self.text_len):
            token = tokens[i] if i < len(tokens) else f"<pad{i}>"
            vec = Rng(hash64("text-tok", token, i)).normal(self.channels)
            rows[i] = vec / np.sqrt(self.channels)
        return rows

    def image_features(self, image):
        """image: [H, W, 3] floats in [0, 1] -> [image_tokens, channels]."""
        image = np.asarray(image, dtype=np.float64)
        if image.ndim != 3 or image.shape[2] != 3:
            raise ShapeMismatch(f"image must be [H, W, 3], got {image.shape}")
        canvas = _resize_nearest(image, 64, 64)
        rows = np.zeros((self.image_tokens, self.channels))
        p = self._patch
        for gy in range(self._grid):
            for gx in range(self._grid):
                patch = canvas[gy * p:(gy + 1) * p, gx * p:(gx + 1) * p, :]
                rows[gy * self._grid + gx] = patch.reshape(-1) @ self._proj
        return rows


def _resize_nearest(image, out_h, out_w):
    h, w = image.shape[:2]
    ys = np.minimum((np.arange(out_h) * h) // out_h, h - 1).astype(np.intp)
    xs = np.minimum((np.arange(out_w) * w) // out_w, w - 1).astype(np.intp)
    return image[ys][:, xs]


# --- weight persistence ---------------------------------------------------------


def save_weights(denoiser, dirpath):
    """Write every parameter as a VSTN tensor plus a JSON manifest."""
    os.makedirs(dirpath, exist_ok=True)
    manifest = {"params": []}
    for i, (name, p) in enumerate(denoiser.parameters()):
        fname = f"param_{i:03d}.vstn"
        save_tensor(os.path.join(dirpath, fname), p.data)
        manifest["params"].append({"name": name, "file": fname,
                                   "shape": list(p.data.shape),
                                   "trainable": bool(p.trainable)})
    with open(os.path.join(dirpath, "weights.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1)


def load_weights(denoiser, dirpath):
    with open(os.path.join(dirpath, "weights.json"), "r", encoding="utf-8") as fh:
        manifest = json.load(fh)
    by_name = {name: p for name, p in denoiser.parameters()}
    for entry in manifest["params"]:
        p = by_name.get(entry["name"])
        if p is None:
            raise ShapeMismatch(f"weights name {entry['name']!r} not in this denoiser")
        arr = load_tensor(os.path.join(dirpath, entry["file"]))
        if list(arr.shape) != entry["shape"] or arr.shape != p.data.shape:
            raise ShapeMismatch(f"weights shape {arr.shape} vs {p.data.shape} for {entry['name']}")
        p.data = arr.astype(np.float64)
        p.trainable = bool(entry["trainable"])
