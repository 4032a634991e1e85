import json

import numpy as np
import pytest

from videostudio import cond_blocks
from videostudio.cond_blocks import (AdamW, AnalyticGaussianDenoiser,
                                     ContextBundle, GaussianPrior,
                                     ImgDenoiser, SpatioTemporalBlock,
                                     ToyFeatureExtractor, TriContextBlock,
                                     VidContext, VidDenoiser,
                                     analytic_gaussian_epsilon, load_weights,
                                     save_weights, timestep_embedding,
                                     train_step, tri_context_forward)
from videostudio.errors import BadRange, BadTensorFile, ShapeMismatch
from videostudio.numeric_core import (Rng, Tensor, finite_diff_check, load_tensor, no_grad,
                                      save_tensor)
from videostudio.sampler import SamplerConfig, make_schedule, sample_video


def _bundle(rng, channels=8, text_len=3, fg_len=2, bg_len=2):
    return ContextBundle(rng.normal((text_len, channels)),
                         rng.normal((fg_len, channels)),
                         rng.normal((bg_len, channels)))


# --- context containers -----------------------------------------------------------

def test_bundle_null_is_zero_length():
    rng = Rng(0)
    b = _bundle(rng)
    n = b.null_like()
    assert n.y_t.shape == (0, 8) and n.y_f.shape == (0, 8) and n.y_b.shape == (0, 8)
    with pytest.raises(ShapeMismatch):
        ContextBundle(np.zeros(3), np.zeros((1, 3)), np.zeros((1, 3)))


def test_vid_context_null_zeroes_in_place():
    ctx = VidContext(np.ones((4, 8)), np.ones(16))
    n = ctx.null_like()
    assert n.y_s.shape == (4, 8) and np.count_nonzero(n.y_s) == 0
    assert n.y_a.shape == (16,) and np.count_nonzero(n.y_a) == 0
    with pytest.raises(ShapeMismatch):
        VidContext(np.ones(8), np.ones(16))
    with pytest.raises(ShapeMismatch):
        VidContext(np.ones((4, 8)), np.ones((2, 16)))


# --- tri-context block -------------------------------------------------------------

def test_tri_context_freezes_text_and_self_attention():
    block = TriContextBlock(Rng(2), channels=8, heads=2)
    by_name = dict(block.parameters())
    for name, p in by_name.items():
        if ".ca1." in name or ".sa." in name:
            assert not p.trainable, name
        else:
            assert p.trainable, name


def test_zeroed_adapters_reproduce_single_context_baseline():
    rng = Rng(3)
    block = TriContextBlock(rng.child("blk"), channels=8, heads=2)
    block.ca2.w_o.data = np.zeros_like(block.ca2.w_o.data)
    block.ca3.w_o.data = np.zeros_like(block.ca3.w_o.data)
    bundle = _bundle(rng.child("ctx"))
    text_only = ContextBundle(bundle.y_t, np.zeros((0, 8)), np.zeros((0, 8)))
    x = rng.normal((5, 8))
    tri = tri_context_forward(x, bundle, block).data
    single = tri_context_forward(x, text_only, block).data
    assert np.max(np.abs(tri - single)) < 1e-12


def test_tri_context_sums_three_attention_streams():
    rng = Rng(4)
    block = TriContextBlock(rng.child("blk"), channels=8, heads=1)
    bundle = _bundle(rng.child("ctx"))
    x = rng.normal((4, 8))
    from videostudio.numeric_core import cross_attention
    y = (cross_attention(Tensor(x), Tensor(bundle.y_t), block.ca1)
         + cross_attention(Tensor(x), Tensor(bundle.y_f), block.ca2)
         + cross_attention(Tensor(x), Tensor(bundle.y_b), block.ca3))
    want = x + cross_attention(y, y, block.sa).data
    got = tri_context_forward(x, bundle, block).data
    assert np.allclose(got, want, atol=1e-13)


def test_tri_context_rejects_wrong_token_width():
    block = TriContextBlock(Rng(5), channels=8)
    with pytest.raises(ShapeMismatch):
        empty = np.zeros((0, 8))
        tri_context_forward(np.zeros((3, 4)), ContextBundle(empty, empty, empty), block)


# --- spatio-temporal block -----------------------------------------------------------

def test_spatio_temporal_forward_shape_and_residual():
    rng = Rng(6)
    block = SpatioTemporalBlock(rng.child("blk"), channels=8, vocab_size=4, heads=2)
    ctx = VidContext(rng.child("ctx").normal((3, 8)), np.array([1.0, 0.0, 0.5, 0.0]))
    tokens = Tensor(rng.child("x").normal((3, 4, 8)))  # [F, HW, C]
    out = block.forward_tokens(tokens, ctx)
    assert out.data.shape == (3, 4, 8)
    # residual wiring: zeroing the temporal output projection keeps the tokens intact
    block.sa_temporal.w_o.data = np.zeros_like(block.sa_temporal.w_o.data)
    out = block.forward_tokens(tokens, ctx).data
    assert np.allclose(out, tokens.data, atol=1e-13)


def test_temporal_attention_mixes_across_frames():
    rng = Rng(8)
    block = SpatioTemporalBlock(rng.child("blk"), channels=8, vocab_size=4, heads=1)
    ctx = VidContext(rng.child("ctx").normal((2, 8)), np.zeros(4))
    x = rng.child("x").normal((4, 4, 8))  # [F, HW, C]
    base = block.forward_tokens(Tensor(x), ctx).data
    bumped = x.copy()
    bumped[3] += 10.0  # only the last frame changes
    moved = block.forward_tokens(Tensor(bumped), ctx).data
    # earlier frames must feel it through temporal self-attention
    assert np.max(np.abs(moved[0] - base[0])) > 1e-8


# --- timestep embedding ---------------------------------------------------------------

def test_timestep_embedding_structure():
    emb = timestep_embedding(0, 8)
    assert emb.shape == (8,)
    assert np.allclose(emb[0::2], 0.0)  # sin(0)
    assert np.allclose(emb[1::2], 1.0)  # cos(0)
    a, b = timestep_embedding(17, 16), timestep_embedding(17, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(timestep_embedding(17, 16), timestep_embedding(18, 16))
    assert timestep_embedding(5, 7).shape == (7,)


# --- denoisers -------------------------------------------------------------------------

def test_img_denoiser_output_shape_and_determinism():
    rng = Rng(9)
    den = ImgDenoiser(rng.child("m"), latent_shape=(4, 6, 6), channels=8,
                      blocks=2, heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    bundle = _bundle(Rng(10))
    x = Rng(11).normal((4, 6, 6))
    out = den.predict(x, 7, bundle)
    assert out.data.shape == (4, 6, 6)
    again = den.predict(x, 7, bundle)
    assert np.array_equal(out.data, again.data)
    with pytest.raises(ShapeMismatch):
        den.predict(np.zeros((4, 5, 5)), 7, bundle)


def test_img_denoiser_adapters_mode_freezes_backbone():
    den = ImgDenoiser(Rng(12), latent_shape=(4, 6, 6), channels=8, blocks=1,
                      heads=2, text_channels=8, fg_channels=8, bg_channels=8,
                      trainable="adapters")
    trainable = {name for name, p in den.parameters() if p.trainable}
    assert trainable  # the adapters exist
    for name in trainable:
        assert ".ca2." in name or ".ca3." in name, name
    den_all = ImgDenoiser(Rng(12), latent_shape=(4, 6, 6), channels=8, blocks=1,
                          heads=2, text_channels=8, fg_channels=8, bg_channels=8,
                          trainable="all")
    assert all(p.trainable for _, p in den_all.parameters())
    with pytest.raises(ShapeMismatch):
        ImgDenoiser(Rng(12), trainable="some")


_ATTENTION = ("w_q", "w_k", "w_v", "w_o")


def _layout(head, per_block, blocks=2):
    """Names in the documented order: embed and the other leading
    parameters, block{i} with its modules' weights, then out."""
    names = [f"embed.{p}" for p in "wb"] + head
    for i in range(blocks):
        for module, params in per_block:
            names += [f"block{i}.{module}.{p}" for p in params]
    return names + [f"out.{p}" for p in "wb"]


@pytest.mark.parametrize("trainable", ["adapters", "all"])
def test_img_denoiser_parameter_order(trainable):
    den = ImgDenoiser(Rng(0), trainable=trainable)
    names = _layout(["ln.gain", "ln.bias"],
                    [(m, _ATTENTION) for m in ("ca1", "ca2", "ca3", "sa")])
    flags = [trainable == "all" or ".ca2." in n or ".ca3." in n for n in names]
    assert [(n, p.name, p.trainable) for n, p in den.parameters()] == \
        [(n, n, f) for n, f in zip(names, flags)]


def test_vid_denoiser_parameter_order():
    den = VidDenoiser(Rng(0))
    names = _layout(["temporal.k", "temporal.b", "ln.gain", "ln.bias"],
                    [(m, _ATTENTION) for m in ("ca", "sa_spatial", "sa_temporal")]
                    + [("f", "wb")])
    assert [(n, p.name, p.trainable) for n, p in den.parameters()] == \
        [(n, n, True) for n in names]


def test_vid_denoiser_reference_frame_defaults_to_zeros():
    rng = Rng(13)
    den = VidDenoiser(rng.child("m"), latent_shape=(2, 3, 4, 4), channels=8,
                      blocks=1, heads=2, vocab_size=4, scene_channels=8)
    ctx = VidContext(Rng(14).normal((3, 8)), np.zeros(4))
    x = Rng(15).normal((2, 3, 4, 4))
    out_zero = den.predict(x, 5, ctx, np.zeros((2, 1, 4, 4)))
    assert out_zero.data.shape == (2, 3, 4, 4)
    ref = Rng(16).normal((2, 1, 4, 4))
    out_ref = den.predict(x, 5, ctx, ref)
    assert not np.array_equal(out_zero.data, out_ref.data)
    with pytest.raises(ShapeMismatch):
        den.predict(x, 5, ctx, np.zeros((2, 2, 4, 4)))


# --- the null pass ------------------------------------------------------------------------

def _full_null(cond):
    # the null condition without held residuals: predict runs every block in full
    ctx, ref_latent = cond
    return (ctx.null_like(), ref_latent)


def _with_action_bias(den, seed):
    # f.b starts at zero, which makes every null-pass residual zero; a nonzero
    # bias, as training leaves it, gives the null pass something to compute
    for i, blk in enumerate(den.blocks):
        blk.f.b.data = Rng(seed).child(i).normal(blk.f.b.data.shape)
    return den


def _tiny_vid(seed, blocks=1):
    return _with_action_bias(VidDenoiser(Rng(seed), latent_shape=(2, 2, 2, 2), channels=4,
                                         blocks=blocks, heads=2, vocab_size=3,
                                         scene_channels=4), seed)


def _tiny_cond(seed):
    rng = Rng(seed)
    return (VidContext(rng.normal((3, 4)), rng.uniform(3)), rng.normal((2, 1, 2, 2)))


def test_null_pass_residuals_read_neither_x_nor_t():
    # VidDenoiser.null_cond rests on this: over zeroed y_s and y_a the scene
    # cross-attention is exactly 0, so each block's residual depends only on
    # its parameters.  A block that fed its tokens in before the self-attention
    # would break this test.
    den = _with_action_bias(VidDenoiser(Rng(40)), 40)
    cond = (VidContext(Rng(41).normal((4, 32)), Rng(42).uniform(16)),
            Rng(43).normal((4, 1, 16, 16)))
    seen = []  # (tokens in, residual out) per block call

    def spy(inner):
        def residual(tokens, ctx):
            out = inner(tokens, ctx)
            seen.append((tokens.data, out.data))
            return out
        return residual

    for blk in den.blocks:
        blk.residual = spy(blk.residual)
    pairs = [(Rng(44).normal(den.latent_shape), 900), (Rng(45).normal(den.latent_shape), 37)]
    with no_grad():
        full = [den.predict(x, t, *_full_null(cond)).data for x, t in pairs]
    k = len(den.blocks)
    assert len(seen) == 2 * k
    for (tokens_a, res_a), (tokens_b, res_b) in zip(seen[:k], seen[k:]):
        assert not np.array_equal(tokens_a, tokens_b)
        assert np.array_equal(res_a, res_b) and np.any(res_a)
        # every token row is the same row: null_cond computes it from one token
        assert np.array_equal(res_a, np.broadcast_to(res_a[:1, :1], res_a.shape))
    for blk in den.blocks:
        del blk.residual
    # the one-token build sums one key where the full pass sums HW identical
    # ones, so the row's last bits may differ
    with no_grad():
        held = den.null_cond(cond)
        assert all(np.max(np.abs(r.data - res)) <= 1e-12
                   for r, (_, res) in zip(held[0].residuals, seen))
        for (x, t), want in zip(pairs, full):
            assert np.max(np.abs(den.predict(x, t, *held).data - want)) <= 1e-12


def test_guided_video_builds_the_null_residuals_once_per_clip(monkeypatch):
    steps, k = 5, 2
    den = _tiny_vid(46, blocks=k)
    cond = _tiny_cond(47)
    counts = {"null_cond": 0, "predict": 0, "xattn": 0}

    def counted(key, fn):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(den, "null_cond", counted("null_cond", den.null_cond))
    monkeypatch.setattr(den, "predict", counted("predict", den.predict))
    monkeypatch.setattr(cond_blocks, "cross_attention",
                        counted("xattn", cond_blocks.cross_attention))
    sched = make_schedule(100, 0.001, 0.02)
    cfg = SamplerConfig(steps=steps, eta=1.0, guidance_scale=12.0, t_m=2, seed=3)
    held = sample_video(den, cond, ("left", "fast"), sched, cfg)
    # three attentions per block: per step for the conditional pass, once for the null build
    assert counts == {"null_cond": 1, "predict": 2 * steps, "xattn": 3 * k * (steps + 1)}
    monkeypatch.setattr(den, "null_cond", _full_null)
    assert np.max(np.abs(held - sample_video(den, cond, ("left", "fast"), sched, cfg))) <= 1e-12


def test_null_cond_attends_from_one_token(monkeypatch):
    den = _tiny_vid(58, blocks=2)
    queries, xattn = [], cond_blocks.cross_attention

    def spy(x, ctx, params):
        queries.append(x.data.shape)
        return xattn(x, ctx, params)
    monkeypatch.setattr(cond_blocks, "cross_attention", spy)
    (null, _) = den.null_cond(_tiny_cond(59))
    assert queries == [(1, 1, den.channels)] * 3 * len(den.blocks)
    _, frames, h, w = den.latent_shape
    for r in null.residuals:
        assert r.data.shape == (frames + 1, h * w, den.channels)
        assert r.data.flags.c_contiguous


def test_untrained_null_pass_is_bit_identical_to_the_full_pass():
    # with the action bias at its initial zero every residual is exactly 0,
    # and the C-order broadcast leaves predict's matmuls their full-pass
    # layout; at default shapes a [1, 1, C] residual would not
    den = VidDenoiser(Rng(60))
    assert not any(np.any(blk.f.b.data) for blk in den.blocks)
    cond = (VidContext(Rng(61).normal((4, 32)), Rng(61).uniform(16)),
            Rng(61).normal((4, 1, 16, 16)))
    with no_grad():
        held = den.null_cond(cond)
        assert not any(np.any(r.data) for r in held[0].residuals)
        for x, t in ((Rng(62).normal(den.latent_shape), 80), (Rng(63).normal(den.latent_shape), 3)):
            assert np.array_equal(den.predict(x, t, *held).data,
                                  den.predict(x, t, *_full_null(cond)).data)
    sched = make_schedule(100, 0.001, 0.02)
    cfg = SamplerConfig(steps=3, eta=1.0, guidance_scale=12.0, t_m=2, seed=3)
    guided = sample_video(den, cond, ("left", "fast"), sched, cfg)
    den.null_cond = _full_null
    assert np.array_equal(guided, sample_video(den, cond, ("left", "fast"), sched, cfg))


def test_null_cond_residuals_carry_gradients():
    den = _tiny_vid(48)
    cond = _tiny_cond(49)
    x, w = Rng(50).normal((2, 2, 2, 2)), Tensor(Rng(51).normal((2, 2, 2, 2)))
    params = [p for _, p in den.parameters()]
    err = finite_diff_check(lambda: (den.predict(x, 7, *den.null_cond(cond)) * w).sum(), params)
    assert err < 1e-4  # the gradient audit's bound


def test_condition_dropout_gradients_match_the_full_null_path():
    sched = make_schedule(50, 0.001, 0.02)
    batch = [(Rng(52).normal((2, 2, 2, 2)), _tiny_cond(53)),
             (Rng(54).normal((2, 2, 2, 2)), _tiny_cond(55))]
    grads = []
    for full in (False, True):
        den = _tiny_vid(56)
        if full:
            den.null_cond = _full_null
        train_step(den, batch, sched, Rng(57), p_drop=1.0)
        grads.append({name: p.grad for name, p in den.parameters()})
    held, want = grads
    for name in want:
        assert np.max(np.abs(held[name] - want[name])) <= 1e-12, name
        if ".ca." in name:  # exactly zero over a zeroed context, but present for AdamW
            assert not np.any(held[name]), name
    for module in (".f.", ".sa_spatial.", ".sa_temporal."):
        assert any(np.any(g) for n, g in held.items() if module in n), module


# --- training --------------------------------------------------------------------------

def test_train_step_moves_only_adapters():
    sched = make_schedule(50, 0.001, 0.02)
    den = ImgDenoiser(Rng(17), latent_shape=(2, 4, 4), channels=8, blocks=1,
                      heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    before = {name: p.data.copy() for name, p in den.parameters()}
    opt = AdamW(den.parameters(), lr=1e-3)
    batch = [(Rng(18).normal((2, 4, 4)), (_bundle(Rng(19)),))]
    rng = Rng(20)
    for _ in range(5):
        train_step(den, batch, sched, rng, opt=opt)
    for name, p in den.parameters():
        if ".ca2." in name or ".ca3." in name:
            assert not np.array_equal(before[name], p.data), name
        else:
            assert np.array_equal(before[name], p.data), name


def test_train_step_returns_finite_scalar_loss():
    sched = make_schedule(50, 0.001, 0.02)
    den = ImgDenoiser(Rng(21), latent_shape=(2, 4, 4), channels=8, blocks=1,
                      heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    batch = [(Rng(22).normal((2, 4, 4)), (_bundle(Rng(23)),))]
    loss = train_step(den, batch, sched, Rng(24))
    assert isinstance(loss, float) and np.isfinite(loss)


def test_train_step_null_drop_path():
    sched = make_schedule(50, 0.001, 0.02)

    class Spy:
        latent_shape = (2, 4, 4)

        def __init__(self):
            self.saw_null = False
            self.saw_cond = False

        def parameters(self):
            return []

        def null_cond(self, cond):
            return ("null",)

        def predict(self, x, t, tag):
            if tag == "null":
                self.saw_null = True
            else:
                self.saw_cond = True
            return Tensor(np.zeros_like(x))

    spy = Spy()
    rng = Rng(25)
    for _ in range(30):
        train_step(spy, [(np.zeros((2, 4, 4)), ("cond",))], sched, rng, p_drop=1.0)
    assert spy.saw_null and not spy.saw_cond
    spy2 = Spy()
    rng = Rng(26)
    for _ in range(30):
        train_step(spy2, [(np.zeros((2, 4, 4)), ("cond",))], sched, rng, p_drop=0.0)
    assert spy2.saw_cond and not spy2.saw_null
    spy3 = Spy()
    spy3.null_cond = lambda cond: None  # conditioning has no effect: keep it
    train_step(spy3, [(np.zeros((2, 4, 4)), ("cond",))], sched, Rng(27), p_drop=1.0)
    assert spy3.saw_cond and not spy3.saw_null


# --- analytic oracle ---------------------------------------------------------------------

def test_analytic_epsilon_closed_form():
    sched = make_schedule(100, 0.001, 0.02)
    rng = Rng(27)
    mu = rng.normal((3,))
    prior = GaussianPrior(mu, 0.7)
    x_t = rng.normal((3,))
    t = 40
    a, s = sched.alpha_at(t), sched.sigma_at(t)
    gain = a * 0.7 / (a * a * 0.7 + s * s)
    e_x0 = mu + gain * (x_t - a * mu)
    want = (x_t - a * e_x0) / s
    got = analytic_gaussian_epsilon(x_t, t, prior, sched)
    assert np.allclose(got, want, atol=1e-14)


def test_analytic_epsilon_point_mass_recovers_exact_noise():
    sched = make_schedule(100, 0.001, 0.02)
    rng = Rng(28)
    mu = rng.normal((4, 4))
    eps = rng.normal((4, 4))
    t = 60
    x_t = sched.alpha_at(t) * mu + sched.sigma_at(t) * eps
    got = analytic_gaussian_epsilon(x_t, t, GaussianPrior(mu, 0.0), sched)
    assert np.allclose(got, eps, atol=1e-12)


def test_analytic_epsilon_rejects_t_zero():
    sched = make_schedule(100, 0.001, 0.02)
    with pytest.raises(BadRange, match=r"sigma\(0\) = 0"):
        analytic_gaussian_epsilon(np.zeros(3), 0, GaussianPrior(np.zeros(3), 1.0), sched)
    with pytest.raises(ShapeMismatch):
        GaussianPrior(np.zeros(3), -1.0)


def test_oracle_denoiser_boundary_hook():
    sched = make_schedule(100, 0.001, 0.02)
    mu = np.full((2, 3, 3), 1.5)
    den = AnalyticGaussianDenoiser(GaussianPrior(mu, 0.3), sched, (2, 3, 3))
    x = Rng(29).normal((2, 3, 3))
    assert np.array_equal(den.x0_at_pure_noise(x), mu)


# --- feature extractor ------------------------------------------------------------

def test_extractor_shapes_and_determinism():
    ex = ToyFeatureExtractor(channels=8)
    t1 = ex.text_features("a calico cat naps")
    t2 = ex.text_features("a calico cat naps")
    assert t1.shape == (77, 8)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, ex.text_features("a calico dog naps"))
    img = Rng(30).uniform((20, 24, 3))
    f1, f2 = ex.image_features(img), ex.image_features(img)
    assert f1.shape == (256, 8)
    assert np.array_equal(f1, f2)


def test_extractor_padding_and_validation():
    ex = ToyFeatureExtractor(channels=8)
    short = ex.text_features("cat")
    long = ex.text_features("cat sat on the mat and more words")
    assert short.shape == long.shape == (77, 8)
    assert np.array_equal(short[0], long[0])  # same first token
    assert not np.array_equal(short[1], long[1])  # pad vs real token
    assert np.array_equal(short[8:], long[8:])  # both padded past the long prompt
    with pytest.raises(ShapeMismatch):
        ex.image_features(np.zeros((8, 8)))


# --- weight persistence ------------------------------------------------------------

def test_weight_round_trip(tmp_path):
    den = ImgDenoiser(Rng(31), latent_shape=(2, 4, 4), channels=8, blocks=1,
                      heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    save_weights(den, tmp_path / "w")
    twin = ImgDenoiser(Rng(99), latent_shape=(2, 4, 4), channels=8, blocks=1,
                       heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    assert not all(np.array_equal(a.data, b.data)
                   for (_, a), (_, b) in zip(den.parameters(), twin.parameters()))
    load_weights(twin, tmp_path / "w")
    for (na, a), (nb, b) in zip(den.parameters(), twin.parameters()):
        assert na == nb
        assert np.allclose(a.data, b.data, atol=1e-7), na  # float32 storage
        assert a.trainable == b.trainable


def test_weight_load_rejects_mismatched_models(tmp_path):
    den = ImgDenoiser(Rng(32), latent_shape=(2, 4, 4), channels=8, blocks=2,
                      heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    save_weights(den, tmp_path / "w")
    # fewer blocks: saved block1.* names have nowhere to go
    small = ImgDenoiser(Rng(33), latent_shape=(2, 4, 4), channels=8, blocks=1,
                        heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    with pytest.raises(ShapeMismatch):
        load_weights(small, tmp_path / "w")
    # same names, different embed width
    wide = ImgDenoiser(Rng(34), latent_shape=(4, 4, 4), channels=8, blocks=2,
                       heads=2, text_channels=8, fg_channels=8, bg_channels=8)
    with pytest.raises(ShapeMismatch):
        load_weights(wide, tmp_path / "w")
    # swapped foreground/background widths: same names and the same total size
    save_weights(ImgDenoiser(Rng(32), latent_shape=(2, 4, 4), channels=8, blocks=1, heads=2,
                             text_channels=8, fg_channels=8, bg_channels=4), tmp_path / "fb")
    swapped = ImgDenoiser(Rng(33), latent_shape=(2, 4, 4), channels=8, blocks=1, heads=2,
                          text_channels=8, fg_channels=4, bg_channels=8)
    with pytest.raises(ShapeMismatch, match="weights shape"):
        load_weights(swapped, tmp_path / "fb")


def _small_img(seed):
    return ImgDenoiser(Rng(seed), latent_shape=(2, 4, 4), channels=8, blocks=1,
                       heads=2, text_channels=8, fg_channels=8, bg_channels=8)


_DEEP = "[" * 200_000 + "]" * 200_000
MALFORMED_WEIGHTS = {
    "empty-object": "{}",
    "params-not-a-list": '{"params": 5}',
    "entry-not-an-object": '{"params": [5]}',
    "entry-without-name": '{"params": [{"shape": [2, 8], "trainable": false}], "sha256": ""}',
    "sha256-not-a-string": '{"params": [], "sha256": 5}',
    "deep-nesting": _DEEP,
    "not-json": "weights",
}


@pytest.mark.parametrize("text", MALFORMED_WEIGHTS.values(), ids=MALFORMED_WEIGHTS.keys())
def test_weight_load_refuses_a_malformed_manifest(tmp_path, text):
    ckpt = tmp_path / "w"
    save_weights(_small_img(35), ckpt)
    (ckpt / "weights.json").write_text(text)
    with pytest.raises(BadTensorFile, match="weights.json"):
        load_weights(_small_img(36), ckpt)


def test_weight_load_of_a_missing_manifest_is_a_bad_tensor_file(tmp_path):
    with pytest.raises(BadTensorFile, match="weights.json: cannot read"):
        load_weights(_small_img(39), tmp_path)


def test_vstn_that_cannot_be_opened_is_a_bad_tensor_file(tmp_path):
    ckpt = tmp_path / "w"
    save_weights(_small_img(39), ckpt)
    (ckpt / "weights.vstn").unlink()
    with pytest.raises(BadTensorFile, match="weights.vstn: cannot read"):
        load_weights(_small_img(39), ckpt)
    (ckpt / "weights.vstn").mkdir()  # a directory in its place
    with pytest.raises(BadTensorFile, match="weights.vstn: cannot read"):
        load_weights(_small_img(39), ckpt)


def _truncate(params):
    return params[:3], params[3]["name"], BadTensorFile


def _repeat(params):
    return params + [params[0]], params[0]["name"], BadTensorFile


def _misshape_last(params):
    params[-1]["shape"] = [1]
    return params, params[-1]["name"], ShapeMismatch


def _swap_first_two(params):
    return [params[1], params[0]] + params[2:], params[1]["name"], BadTensorFile


@pytest.mark.parametrize("edit", [_truncate, _repeat, _misshape_last, _swap_first_two],
                         ids=["truncated", "repeated-entry", "last-entry-misshaped", "reordered"])
def test_a_refused_checkpoint_changes_no_parameter(tmp_path, edit):
    ckpt = tmp_path / "w"
    save_weights(_small_img(40), ckpt)
    manifest = json.loads((ckpt / "weights.json").read_text())
    manifest["params"], name, error = edit(manifest["params"])
    (ckpt / "weights.json").write_text(json.dumps(manifest))
    _refused_and_unchanged(ckpt, error, name.replace(".", r"\."))


def _refused_and_unchanged(ckpt, error, match):
    fresh = _small_img(41)
    before = [(p.data.copy(), p.trainable) for _, p in fresh.parameters()]
    with pytest.raises(error, match=match):
        load_weights(fresh, ckpt)
    for (data, trainable), (_, p) in zip(before, fresh.parameters()):
        assert np.array_equal(p.data, data) and p.trainable == trainable


def test_saving_a_model_twice_writes_the_same_two_files(tmp_path):
    den = _small_img(42)
    for name in ("a", "b"):
        save_weights(den, tmp_path / name)
    for name in ("a", "b"):
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == ["weights.json",
                                                                      "weights.vstn"]
    for fname in ("weights.json", "weights.vstn"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def _change_one_value(values):
    values[5] += 1.0  # still finite, so only the sha256 can tell
    return values


@pytest.mark.parametrize("edit, match", [(_change_one_value, "sha256"),
                                         (lambda values: values[:-1], "expected")],
                         ids=["one-value-changed", "one-value-short"])
def test_a_refused_payload_changes_no_parameter(tmp_path, edit, match):
    ckpt = tmp_path / "w"
    save_weights(_small_img(43), ckpt)
    path = ckpt / "weights.vstn"
    save_tensor(path, edit(load_tensor(path.read_bytes(), path)))
    _refused_and_unchanged(ckpt, BadTensorFile, match)
