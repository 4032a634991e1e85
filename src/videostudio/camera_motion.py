"""Camera moves realized as per-frame warp fields.

A flow field stores, for every destination pixel, the displacement to the
source sample: ``source = destination + displacement``.  Panning the
camera right therefore shifts the sampling window right and the content
drifts left.  Frame 0 is always the anchor frame with zero displacement;
motion accumulates linearly (or multiplicatively for zoom) against it.
"""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteField, ShapeMismatch, UnknownCameraToken

DIRECTIONS = ("static", "left", "right", "up", "down", "forward", "backward")
SPEEDS = ("slow", "medium", "fast")

_UNIT = {
    "left": (-1.0, 0.0),
    "right": (1.0, 0.0),
    "up": (0.0, -1.0),
    "down": (0.0, 1.0),
}


# Per-speed magnitudes: translation in px/frame, zoom in rate/frame.
TRANSLATION_PX = {"slow": 0.5, "medium": 1.0, "fast": 2.0}
ZOOM_RATE = {"slow": 0.01, "medium": 0.02, "fast": 0.04}


def synthesize_flow(direction, speed, frames, height, width):
    """Build the [F, H, W, 2] displacement field for one camera move.

    Channel order is (dx, dy).  Translations displace every pixel of
    frame f by f*v*unit; zooms contract (forward) or expand (backward)
    radially around the image center, leaving the exact center fixed.
    """
    if direction not in DIRECTIONS:
        raise UnknownCameraToken(f"unknown camera direction {direction!r}")
    if speed not in SPEEDS:
        raise UnknownCameraToken(f"unknown camera speed {speed!r}")
    if frames < 1 or height < 1 or width < 1:
        raise ShapeMismatch("flow field needs positive dims")
    field = np.zeros((frames, height, width, 2), dtype=np.float64)
    if direction == "static":
        return field
    f = np.arange(frames, dtype=np.float64)[:, None, None]
    if direction in _UNIT:
        field[:] = (f * TRANSLATION_PX[speed])[..., None] * np.array(_UNIT[direction])
        return field
    # zoom: source = center + r*scale, so displacement = r*(scale - 1)
    rho = ZOOM_RATE[speed]
    scale = 1.0 / (1.0 + f * rho) if direction == "forward" else 1.0 + f * rho
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    field[..., 0] = (xs - cx) * (scale - 1.0)
    field[..., 1] = (ys - cy) * (scale - 1.0)
    return field


def warp_clip(clip, field):
    """Bilinear warp of a [C, F, H, W] clip by its [F, H, W, 2] flow field.

    Frame f samples at pixel + field[f]; samples outside the frame clamp to
    the edge.  Every frame is gathered in one pass along a frame axis.
    """
    clip = np.asarray(clip, dtype=np.float64)
    field = np.asarray(field, dtype=np.float64)
    if clip.ndim != 4:
        raise ShapeMismatch(f"warp_clip wants [C,F,H,W], got {clip.shape}")
    if field.shape != clip.shape[1:] + (2,):
        raise ShapeMismatch(f"field {field.shape} does not match clip {clip.shape}")
    if not np.isfinite(field).all():
        raise NonFiniteField("flow field contains NaN or Inf")
    _, frames, h, w = clip.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    sx = np.clip(xs + field[..., 0], 0.0, w - 1.0)
    sy = np.clip(ys + field[..., 1], 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = sx - x0
    wy = sy - y0
    f = np.arange(frames)[:, None, None]
    top = clip[:, f, y0, x0] * (1.0 - wx) + clip[:, f, y0, x1] * wx
    bottom = clip[:, f, y1, x0] * (1.0 - wx) + clip[:, f, y1, x1] * wx
    return top * (1.0 - wy) + bottom * wy
