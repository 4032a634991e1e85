"""Noise schedule and deterministic/stochastic DDIM sampling.

Timesteps are integers t in [0, T]: t=0 is clean data (alpha=1, sigma=0),
t>=1 reads the cumulative schedule at index t-1.  The signal/noise split
is x_t = alpha_t * x0 + sigma_t * eps with alpha_t^2 + sigma_t^2 = 1.

The initial latent of a sampling run is exact unit noise.  Denoisers that
can say something about clean data at that infinite-noise boundary (the
analytic oracles) expose ``x0_at_pure_noise``; the first update then uses
that estimate together with the identity eps = x, the alpha_bar -> 0
limit of the DDIM update.  Models without the hook get a standard first
step at t = T.
"""

from __future__ import annotations

import numpy as np

from .camera_motion import synthesize_flow, warp_clip
from .errors import BadRange, NonFiniteLatent, ShapeMismatch
from .numeric_core import Rng, no_grad

__all__ = [
    "NoiseSchedule", "make_schedule", "SamplerConfig",
    "cfg_epsilon", "ddim_step", "respaced_timesteps",
    "apply_camera_intervention", "sample_image", "sample_video",
]


class NoiseSchedule:
    """Cumulative products of a beta schedule plus indexed accessors."""

    def __init__(self, betas):
        betas = np.asarray(betas, dtype=np.float64)
        if betas.ndim != 1 or betas.size < 1:
            raise BadRange("betas must be a non-empty 1-D array")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise BadRange("betas must lie strictly inside (0, 1)")
        self.betas = betas
        self.alpha_bar = np.cumprod(1.0 - betas)
        self.T = betas.size

    def _check(self, t):
        t = int(t)
        if not 0 <= t <= self.T:
            raise BadRange(f"timestep {t} outside [0, {self.T}]")
        return t

    def alpha_bar_at(self, t):
        t = self._check(t)
        return 1.0 if t == 0 else float(self.alpha_bar[t - 1])

    def alpha_at(self, t):
        return float(np.sqrt(self.alpha_bar_at(t)))

    def sigma_at(self, t):
        return float(np.sqrt(1.0 - self.alpha_bar_at(t)))


def make_schedule(total_steps=1000, beta_start=0.00085, beta_end=0.0120):
    """Scaled-linear schedule: betas are squares of a linspace in sqrt space.

    Endpoints are pinned to the exact literals afterwards; sqrt followed
    by squaring can drift a couple of ulp.
    """
    if not (0.0 < beta_start < 1.0) or not (0.0 < beta_end < 1.0):
        raise BadRange("beta endpoints must lie in (0, 1)")
    if beta_end < beta_start:
        raise BadRange("beta_end must be >= beta_start")
    if total_steps < 1:
        raise BadRange("schedule needs at least one step")
    if total_steps == 1:
        return NoiseSchedule(np.array([beta_start]))
    roots = np.linspace(np.sqrt(beta_start), np.sqrt(beta_end), total_steps)
    betas = roots * roots
    betas[0] = beta_start
    betas[-1] = beta_end
    return NoiseSchedule(betas)


class SamplerConfig:
    """Knobs for one sampling run."""

    def __init__(self, steps=50, eta=0.0, guidance_scale=1.0, t_m=5, seed=0):
        if steps < 1:
            raise BadRange("need at least one sampling step")
        if not 0.0 <= eta <= 1.0:
            raise BadRange(f"eta {eta} outside [0, 1]")
        if not 0 <= t_m < steps:
            raise BadRange(f"t_m {t_m} is outside [0, {steps - 1}] for {steps} sampler steps")
        self.steps = int(steps)
        self.eta = float(eta)
        self.guidance_scale = float(guidance_scale)
        self.t_m = int(t_m)
        self.seed = int(seed)


def respaced_timesteps(total_steps, inference_steps):
    """Uniform respacing: tau_k = round(T * (1 - k/S)), k = 0..S."""
    if not 1 <= inference_steps <= total_steps:
        raise BadRange(f"inference steps {inference_steps} outside [1, {total_steps}]")
    taus = [int(round(total_steps * (1.0 - k / inference_steps)))
            for k in range(inference_steps + 1)]
    if taus[0] != total_steps or taus[-1] != 0:
        raise BadRange("respacing endpoints broke")
    for a, b in zip(taus, taus[1:]):
        if a <= b:
            raise BadRange(f"respaced grid is not strictly decreasing: {a} -> {b}")
    return taus


def cfg_epsilon(eps_uncond, eps_cond, scale):
    """Classifier-free guidance: uncond + scale * (cond - uncond)."""
    eps_uncond = np.asarray(eps_uncond)
    eps_cond = np.asarray(eps_cond)
    if eps_uncond.shape != eps_cond.shape:
        raise ShapeMismatch(f"cfg shapes differ: {eps_uncond.shape} vs {eps_cond.shape}")
    return eps_uncond + scale * (eps_cond - eps_uncond)


def ddim_step(x_t, eps_hat, t, t_prev, schedule, eta=0.0, rng=None):
    """One DDIM update from t to t_prev (t > t_prev >= 0).

    x0_hat = (x_t - sigma_t * eps_hat) / alpha_t
    s      = eta * sqrt((1-abar_prev)/(1-abar_t)) * sqrt(1 - abar_t/abar_prev)
    x_prev = alpha_prev * x0_hat + sqrt(sigma_prev^2 - s^2) * eps_hat + s * z

    With eta = 0 no random draw happens at all.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if x_t.shape != eps_hat.shape:
        raise ShapeMismatch(f"latent {x_t.shape} vs eps {eps_hat.shape}")
    t, t_prev = int(t), int(t_prev)
    if not (schedule.T >= t > t_prev >= 0):
        raise BadRange(f"need T >= t > t_prev >= 0, got t={t}, t_prev={t_prev}")
    abar_t = schedule.alpha_bar_at(t)
    x0_hat = (x_t - np.sqrt(1.0 - abar_t) * eps_hat) / np.sqrt(abar_t)
    return _ddim_update(x0_hat, eps_hat, abar_t, t_prev, schedule, eta, rng)


def _ddim_update(x0_hat, eps_hat, abar_t, t_prev, schedule, eta, rng):
    # the DDIM update from a clean estimate; abar_t = 0 is the pure-noise boundary
    abar_p = schedule.alpha_bar_at(t_prev)
    alpha_p, sigma_p = np.sqrt(abar_p), np.sqrt(1.0 - abar_p)
    s = 0.0
    if eta > 0.0 and t_prev > 0:
        s = eta * np.sqrt((1.0 - abar_p) / (1.0 - abar_t)) * np.sqrt(1.0 - abar_t / abar_p)
    carry = np.sqrt(max(sigma_p * sigma_p - s * s, 0.0))
    x_prev = alpha_p * x0_hat + carry * eps_hat
    if s > 0.0:
        if rng is None:
            raise BadRange("eta > 0 needs an rng")
        x_prev = x_prev + s * rng.normal(x0_hat.shape)
    return x_prev


def apply_camera_intervention(x_t, eps_hat, t, schedule, field):
    """Blend the current clean-clip estimate with its camera-warped copy.

    x0_hat  = (x_t - sigma_t * eps_hat) / alpha_t
    x0_bar  = 0.5 * x0_hat + 0.5 * warp(x0_hat, field)
    returns   alpha_t * x0_bar + sigma_t * eps_hat

    x_t: [C, F, H, W]; field: [F, H, W, 2].  The eps_hat that produced the
    current state is reused unchanged, so a zero field is an exact no-op.
    A NaN or Inf field raises NonFiniteField from ``warp_clip``.
    """
    x_t = np.asarray(x_t, dtype=np.float64)
    eps_hat = np.asarray(eps_hat, dtype=np.float64)
    if x_t.shape != eps_hat.shape:
        raise ShapeMismatch(f"latent {x_t.shape} vs eps {eps_hat.shape}")
    if x_t.ndim != 4:
        raise ShapeMismatch(f"intervention wants [C,F,H,W], got {x_t.shape}")
    t = int(t)
    if not 1 <= t <= schedule.T:
        raise BadRange(f"intervention timestep {t} outside [1, T]")
    alpha_t = schedule.alpha_at(t)
    sigma_t = schedule.sigma_at(t)
    x0_hat = (x_t - sigma_t * eps_hat) / alpha_t
    x0_bar = 0.5 * x0_hat + 0.5 * warp_clip(x0_hat, field)
    return alpha_t * x0_bar + sigma_t * eps_hat


def _values(pred, k, t):
    # trainable denoisers return autograd tensors; sampling wants raw values
    values = np.asarray(getattr(pred, "data", pred), dtype=np.float64)
    if not np.isfinite(values).all():
        raise NonFiniteLatent(f"denoiser output at step {k} (t={t}) is NaN or Inf")
    return values


def _predict_eps(denoiser, x, t, cond, null_cond, scale, k):
    # sampling never calls backward, so no predict builds a tape
    with no_grad():
        eps_c = _values(denoiser.predict(x, t, *cond), k, t)
        if null_cond is None:  # scale 1, or conditioning has no effect: no guidance
            return eps_c
        eps_u = _values(denoiser.predict(x, t, *null_cond), k, t)
    return cfg_epsilon(eps_u, eps_c, scale)


def _sample(denoiser, shape, cond, schedule, config, intervene_after=0, field=None):
    rng = Rng(config.seed)
    taus = respaced_timesteps(schedule.T, config.steps)
    x = rng.normal(shape)
    boundary = getattr(denoiser, "x0_at_pure_noise", None)
    scale = config.guidance_scale
    with no_grad():  # one null condition per run: it is a pure function of cond
        null_cond = None if scale == 1.0 else denoiser.null_cond(cond)
    for k in range(config.steps):
        t, t_next = taus[k], taus[k + 1]
        if k == 0 and boundary is not None:
            x0_hat = _values(boundary(x), k, t)
            if x0_hat.shape != x.shape:
                raise ShapeMismatch("pure-noise x0 estimate has the wrong shape")
            eps_hat = x  # the boundary state is its own noise
            x = _ddim_update(x0_hat, eps_hat, 0.0, t_next, schedule, config.eta, rng)
        else:
            eps_hat = _predict_eps(denoiser, x, t, cond, null_cond, scale, k)
            x = ddim_step(x, eps_hat, t, t_next, schedule, config.eta, rng)
        if k + 1 == intervene_after and t_next >= 1:
            x = apply_camera_intervention(x, eps_hat, t_next, schedule, field)
    return x


def sample_image(denoiser, cond, schedule, config):
    """Run the image-stage DDIM loop and return the final [C, H, W] latent.

    ``cond`` is the tuple ``denoiser.predict(x, t, *cond)`` takes; it must
    return an eps estimate of the latent's shape.  Guidance contrasts
    ``cond`` against ``denoiser.null_cond(cond)``, called once per run and
    reused at every step, so it must be a pure function of ``cond`` and may
    hold precomputed state; scale 1, or a None null condition, skips the
    unconditional call entirely.  A prediction that is NaN or Inf raises
    NonFiniteLatent naming the step.
    """
    return _sample(denoiser, tuple(denoiser.latent_shape), cond, schedule, config)


def sample_video(denoiser, cond, camera, schedule, config):
    """Run the video-stage loop with the camera intervention.

    camera: (direction, speed) pair.  After config.t_m completed updates
    the current latent is pushed toward its camera-warped clean estimate
    exactly once, reusing the latest (guided) eps.  The denoiser sees
    ``predict(x, t, *cond)``; guidance contrasts that with
    ``denoiser.null_cond(cond)``, built once per run as in ``sample_image``;
    scale 1 or a None null condition means one call per step.
    """
    shape = tuple(denoiser.latent_shape)
    if len(shape) != 4:
        raise ShapeMismatch(f"video latent must be [C,F,H,W], got {shape}")
    field = synthesize_flow(*camera, *shape[1:])  # direction, speed, F, H, W
    return _sample(denoiser, shape, cond, schedule, config,
                   intervene_after=config.t_m, field=field)
