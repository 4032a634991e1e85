import numpy as np
import pytest

from videostudio.cond_blocks import (AdamW, AnalyticGaussianDenoiser,
                                     ContextBundle, GaussianPrior,
                                     ImgDenoiser, SpatioTemporalBlock,
                                     ToyFeatureExtractor, TriContextBlock,
                                     VidContext, VidDenoiser,
                                     analytic_gaussian_epsilon,
                                     concat_foreground_features, load_weights,
                                     save_weights, timestep_embedding,
                                     train_step, tri_context_forward)
from videostudio.errors import DivisionAtTZero, ShapeMismatch
from videostudio.numeric_core import Rng, Tensor
from videostudio.sampler import make_schedule


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


def test_concat_foreground_features():
    rng = Rng(1)
    a, b = rng.normal((3, 8)), rng.normal((2, 8))
    out = concat_foreground_features([a, b])
    assert out.shape == (5, 8)
    assert np.array_equal(out[:3], a) and np.array_equal(out[3:], b)
    assert concat_foreground_features([], channels=8).shape == (0, 8)
    with pytest.raises(ShapeMismatch):
        concat_foreground_features([a, rng.normal((2, 4))])


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


def test_vid_denoiser_reference_frame_defaults_to_zeros():
    rng = Rng(13)
    den = VidDenoiser(rng.child("m"), latent_shape=(2, 3, 4, 4), channels=8,
                      blocks=1, heads=2, vocab_size=4, scene_channels=8)
    ctx = VidContext(Rng(14).normal((3, 8)), np.zeros(4))
    x = Rng(15).normal((2, 3, 4, 4))
    out_none = den.predict(x, 5, ctx, None)
    out_zero = den.predict(x, 5, ctx, np.zeros((2, 1, 4, 4)))
    assert np.array_equal(out_none.data, out_zero.data)
    assert out_none.data.shape == (2, 3, 4, 4)
    ref = Rng(16).normal((2, 1, 4, 4))
    out_ref = den.predict(x, 5, ctx, ref)
    assert not np.array_equal(out_none.data, out_ref.data)
    with pytest.raises(ShapeMismatch):
        den.predict(x, 5, ctx, np.zeros((2, 2, 4, 4)))


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
    with pytest.raises(DivisionAtTZero):
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
    ex = ToyFeatureExtractor(channels=8, text_len=5, image_tokens=16)
    t1 = ex.text_features("a calico cat naps")
    t2 = ex.text_features("a calico cat naps")
    assert t1.shape == (5, 8)
    assert np.array_equal(t1, t2)
    assert not np.array_equal(t1, ex.text_features("a calico dog naps"))
    img = Rng(30).uniform((20, 24, 3))
    f1, f2 = ex.image_features(img), ex.image_features(img)
    assert f1.shape == (16, 8)
    assert np.array_equal(f1, f2)


def test_extractor_padding_and_validation():
    ex = ToyFeatureExtractor(channels=8, text_len=4, image_tokens=16)
    short = ex.text_features("cat")
    long = ex.text_features("cat sat on the mat and more words")
    assert short.shape == long.shape == (4, 8)
    assert np.array_equal(short[0], long[0])  # same first token
    assert not np.array_equal(short[1], long[1])  # pad vs real token
    with pytest.raises(ShapeMismatch):
        ToyFeatureExtractor(channels=8, image_tokens=15)
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
