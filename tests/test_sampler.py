import numpy as np
import pytest

from videostudio.camera_motion import synthesize_flow, warp_clip
from videostudio.cond_blocks import AnalyticGaussianDenoiser, GaussianPrior
from videostudio.errors import (BadRange, BadTimestepOrder, NonFiniteField,
                                ShapeMismatch)
from videostudio.numeric_core import Rng
from videostudio.pipeline import load_config
from videostudio.sampler import (NoiseSchedule, SamplerConfig,
                                 apply_camera_intervention, cfg_epsilon,
                                 ddim_step, make_schedule, respaced_timesteps,
                                 sample_image, sample_video)


# --- schedule ------------------------------------------------------------------

def test_schedule_endpoints_are_exact_literals():
    sched = make_schedule(1000, 0.00085, 0.0120)
    assert sched.betas[0] == 0.00085
    assert sched.betas[-1] == 0.0120
    assert sched.T == 1000


def test_alpha_bar_matches_brute_force_product():
    sched = make_schedule(1000, 0.00085, 0.0120)
    running = 1.0
    for t in range(1, 1001):
        running *= 1.0 - sched.betas[t - 1]
        assert abs(sched.alpha_bar_at(t) - running) < 1e-12


def test_schedule_is_linear_in_sqrt_beta():
    sched = make_schedule(100, 0.001, 0.01)
    roots = np.sqrt(sched.betas)
    diffs = np.diff(roots[1:-1])  # endpoints get re-pinned, skip them
    assert np.allclose(diffs, diffs[0], atol=1e-12)


def test_schedule_accessors_and_bounds():
    sched = make_schedule(10, 0.001, 0.01)
    assert sched.alpha_bar_at(0) == 1.0
    assert sched.alpha_at(0) == 1.0
    assert sched.sigma_at(0) == 0.0
    for t in range(11):
        a, s = sched.alpha_at(t), sched.sigma_at(t)
        assert abs(a * a + s * s - 1.0) < 1e-12
    with pytest.raises(BadRange):
        sched.alpha_bar_at(-1)
    with pytest.raises(BadRange):
        sched.alpha_bar_at(11)


def test_schedule_validation():
    with pytest.raises(BadRange):
        make_schedule(0, 0.001, 0.01)
    with pytest.raises(BadRange):
        make_schedule(10, 0.0, 0.01)
    with pytest.raises(BadRange):
        make_schedule(10, 0.001, 1.0)
    with pytest.raises(BadRange):
        make_schedule(10, 0.01, 0.001)
    one = make_schedule(1, 0.5, 0.9)
    assert one.T == 1 and one.betas[0] == 0.5
    with pytest.raises(BadRange):
        NoiseSchedule(np.array([0.1, 1.5]))
    with pytest.raises(BadRange):
        NoiseSchedule(np.zeros((2, 2)))


# --- respacing -----------------------------------------------------------------

def test_respacing_grid_is_uniform_rounding():
    taus = respaced_timesteps(1000, 50)
    assert taus == [1000 - 20 * k for k in range(51)]
    assert taus[0] == 1000 and taus[-1] == 0


def test_respacing_full_grid_and_single_step():
    assert respaced_timesteps(10, 10) == list(range(10, -1, -1))
    assert respaced_timesteps(10, 1) == [10, 0]


def test_respacing_is_strictly_decreasing_across_sizes():
    for total in (7, 50, 1000):
        for steps in (1, 2, 3, total // 2 or 1, total):
            taus = respaced_timesteps(total, steps)
            assert len(taus) == steps + 1
            assert all(a > b for a, b in zip(taus, taus[1:]))


def test_respacing_rejects_bad_counts():
    with pytest.raises(BadRange):
        respaced_timesteps(10, 0)
    with pytest.raises(BadRange):
        respaced_timesteps(10, 11)


# --- guidance ------------------------------------------------------------------

def test_cfg_is_affine_extrapolation():
    u = np.array([1.0, 2.0])
    c = np.array([3.0, 0.0])
    out = cfg_epsilon(u, c, 12.0)
    assert np.allclose(out, u + 12.0 * (c - u))
    assert np.allclose(cfg_epsilon(u, c, 1.0), c)
    assert np.allclose(cfg_epsilon(u, c, 0.0), u)
    with pytest.raises(ShapeMismatch):
        cfg_epsilon(np.zeros(3), np.zeros(4), 2.0)


class _CountingDenoiser:
    """Returns zero eps and counts predict calls."""

    def __init__(self, shape):
        self.latent_shape = tuple(shape)
        self.calls = 0

    def predict(self, x, t, bundle):
        self.calls += 1
        return np.zeros_like(x)


def test_guidance_scale_one_skips_unconditional_pass():
    sched = make_schedule(100, 0.001, 0.02)
    den = _CountingDenoiser((2, 4, 4))
    sample_image(den, None, sched, SamplerConfig(steps=10, eta=0.0, guidance_scale=1.0, seed=0))
    assert den.calls == 10
    den.calls = 0
    sample_image(den, None, sched, SamplerConfig(steps=10, eta=0.0, guidance_scale=7.5, seed=0))
    assert den.calls == 20


# --- single DDIM update ----------------------------------------------------------

def test_ddim_step_scalar_arithmetic():
    sched = make_schedule(10, 0.01, 0.2)
    x0, eps = 1.7, -0.4
    t, t_prev = 8, 5
    a_t, s_t = sched.alpha_at(t), sched.sigma_at(t)
    a_p, s_p = sched.alpha_at(t_prev), sched.sigma_at(t_prev)
    x_t = a_t * x0 + s_t * eps
    out = ddim_step(np.array(x_t), np.array(eps), t, t_prev, sched, eta=0.0)
    assert np.allclose(out, a_p * x0 + s_p * eps, atol=1e-14)


def test_ddim_final_step_returns_x0_exactly():
    sched = make_schedule(10, 0.01, 0.2)
    rng = Rng(0)
    x0 = rng.normal((3, 3))
    eps = rng.normal((3, 3))
    t = 4
    x_t = sched.alpha_at(t) * x0 + sched.sigma_at(t) * eps
    out = ddim_step(x_t, eps, t, 0, sched, eta=0.0)
    assert np.allclose(out, x0, atol=1e-13)


def test_ddim_eta_zero_never_draws():
    sched = make_schedule(10, 0.01, 0.2)
    out = ddim_step(np.ones(4), np.zeros(4), 5, 3, sched, eta=0.0, rng=None)
    assert out.shape == (4,)


def test_ddim_eta_positive_needs_rng_except_at_zero():
    sched = make_schedule(10, 0.01, 0.2)
    with pytest.raises(BadRange):
        ddim_step(np.ones(4), np.zeros(4), 5, 3, sched, eta=1.0, rng=None)
    # t_prev = 0 collapses the noise share, no draw even at eta = 1
    out = ddim_step(np.ones(4), np.zeros(4), 5, 0, sched, eta=1.0, rng=None)
    assert out.shape == (4,)


def test_ddim_eta_one_noise_split():
    sched = make_schedule(20, 0.01, 0.1)
    rng_data = Rng(1)
    x_t = rng_data.normal((5,))
    eps = rng_data.normal((5,))
    t, t_prev = 15, 9
    abar_t = sched.alpha_bar_at(t)
    abar_p = sched.alpha_bar_at(t_prev)
    s = np.sqrt((1 - abar_p) / (1 - abar_t)) * np.sqrt(1 - abar_t / abar_p)
    carry = np.sqrt((1 - abar_p) - s * s)
    x0_hat = (x_t - sched.sigma_at(t) * eps) / sched.alpha_at(t)
    z = Rng(77).normal((5,))
    want = sched.alpha_at(t_prev) * x0_hat + carry * eps + s * z
    got = ddim_step(x_t, eps, t, t_prev, sched, eta=1.0, rng=Rng(77))
    assert np.allclose(got, want, atol=1e-13)


def test_ddim_rejects_bad_timestep_order():
    sched = make_schedule(10, 0.01, 0.2)
    for t, t_prev in [(3, 3), (3, 5), (0, 0), (11, 5), (5, -1)]:
        with pytest.raises(BadTimestepOrder):
            ddim_step(np.ones(2), np.zeros(2), t, t_prev, sched)
    with pytest.raises(ShapeMismatch):
        ddim_step(np.ones(2), np.zeros(3), 5, 3, sched)


# --- camera intervention ----------------------------------------------------------

def test_intervention_zero_field_is_exact_noop():
    sched = make_schedule(100, 0.001, 0.02)
    rng = Rng(2)
    x_t = rng.normal((2, 3, 4, 4))
    eps = rng.normal((2, 3, 4, 4))
    field = np.zeros((3, 4, 4, 2))
    out = apply_camera_intervention(x_t, eps, 60, sched, field)
    assert np.max(np.abs(out - x_t)) < 1e-12


def test_intervention_blends_half_warped_estimate():
    sched = make_schedule(100, 0.001, 0.02)
    rng = Rng(3)
    x0 = rng.normal((1, 4, 5, 5))
    eps = rng.normal((1, 4, 5, 5))
    t = 40
    a, s = sched.alpha_at(t), sched.sigma_at(t)
    x_t = a * x0 + s * eps
    field = synthesize_flow("right", "medium", 4, 5, 5)
    out = apply_camera_intervention(x_t, eps, t, sched, field)
    want = a * (0.5 * x0 + 0.5 * warp_clip(x0, field)) + s * eps
    assert np.allclose(out, want, atol=1e-12)


def test_intervention_validation():
    sched = make_schedule(10, 0.01, 0.2)
    x = np.zeros((1, 2, 3, 3))
    eps = np.zeros((1, 2, 3, 3))
    field = np.zeros((2, 3, 3, 2))
    with pytest.raises(ShapeMismatch):
        apply_camera_intervention(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), 5, sched, field)
    with pytest.raises(ShapeMismatch):
        apply_camera_intervention(x, np.zeros((1, 2, 3, 4)), 5, sched, field)
    with pytest.raises(BadTimestepOrder):
        apply_camera_intervention(x, eps, 0, sched, field)
    with pytest.raises(BadTimestepOrder):
        apply_camera_intervention(x, eps, 11, sched, field)
    bad = field.copy()
    bad[0, 0, 0, 0] = np.inf
    with pytest.raises(NonFiniteField):
        apply_camera_intervention(x, eps, 5, sched, bad)


# --- end-to-end sampling behavior ---------------------------------------------------

def test_sampling_is_seed_deterministic():
    sched = make_schedule(50, 0.001, 0.02)
    prior = GaussianPrior(np.zeros((2, 3, 3)), 1.0)
    den = AnalyticGaussianDenoiser(prior, sched, (2, 3, 3))
    cfg = SamplerConfig(steps=10, eta=0.0, seed=11)
    a = sample_image(den, None, sched, cfg)
    b = sample_image(den, None, sched, SamplerConfig(steps=10, eta=0.0, seed=11))
    assert np.array_equal(a, b)
    c = sample_image(den, None, sched, SamplerConfig(steps=10, eta=0.0, seed=12))
    assert not np.array_equal(a, c)


def test_point_mass_prior_recovered_by_deterministic_sampler():
    sched = make_schedule(200, 0.001, 0.02)
    mu = np.linspace(-1.0, 1.0, 8).reshape(2, 2, 2)
    prior = GaussianPrior(mu, 0.0)
    den = AnalyticGaussianDenoiser(prior, sched, (2, 2, 2))
    out = sample_image(den, None, sched, SamplerConfig(steps=10, eta=0.0, seed=5))
    assert np.max(np.abs(out - mu)) < 1e-6


def test_video_sampler_validates_latent_rank_and_tm():
    sched = make_schedule(50, 0.001, 0.02)
    prior = GaussianPrior(np.zeros((2, 3, 3)), 1.0)
    den = AnalyticGaussianDenoiser(prior, sched, (2, 3, 3))
    with pytest.raises(ShapeMismatch):
        sample_video(den, np.zeros((4, 8)), np.zeros(16), ("right", "medium"),
                     sched, SamplerConfig(steps=10, eta=1.0, t_m=2, seed=0))
    den4 = AnalyticGaussianDenoiser(GaussianPrior(np.zeros((2, 3, 4, 4)), 1.0),
                                    sched, (2, 3, 4, 4))
    with pytest.raises(BadRange):
        sample_video(den4, np.zeros((4, 8)), np.zeros(16), ("right", "medium"),
                     sched, SamplerConfig(steps=10, eta=1.0, t_m=10, seed=0))


def test_video_sampler_runs_with_intervention():
    sched = make_schedule(50, 0.001, 0.02)
    mu = Rng(6).normal((2, 3, 4, 4))
    den = AnalyticGaussianDenoiser(GaussianPrior(mu, 1e-4), sched, (2, 3, 4, 4))
    cfg = SamplerConfig(steps=12, eta=1.0, guidance_scale=1.0, t_m=3, seed=4)
    out = sample_video(den, np.zeros((4, 8)), np.zeros(16), ("right", "medium"), sched, cfg)
    assert out.shape == (2, 3, 4, 4)
    again = sample_video(den, np.zeros((4, 8)), np.zeros(16), ("right", "medium"), sched, cfg)
    assert np.array_equal(out, again)


def test_sampler_config_validation():
    with pytest.raises(BadRange):
        SamplerConfig(steps=0)
    with pytest.raises(BadRange):
        SamplerConfig(eta=1.5)
    with pytest.raises(BadRange):
        SamplerConfig(t_m=-1)
    img = load_config().image_sampler_config(3)
    assert (img.steps, img.eta, img.guidance_scale, img.seed) == (50, 0.0, 1.0, 3)
    vid = load_config().video_sampler_config(0)
    assert (vid.steps, vid.eta, vid.guidance_scale, vid.t_m) == (70, 1.0, 12.0, 5)
