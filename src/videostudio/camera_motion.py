"""Camera moves realized as per-frame warp fields.

A flow field stores, for every destination pixel, the displacement to the
source sample: ``source = destination + displacement``.  Panning the
camera right therefore shifts the sampling window right and the content
drifts left.  Frame 0 is always the anchor frame with zero displacement;
motion accumulates linearly (or multiplicatively for zoom) against it.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonFiniteField, UnknownDirection, UnknownSpeed

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
        raise UnknownDirection(f"unknown camera direction {direction!r}")
    if speed not in SPEEDS:
        raise UnknownSpeed(f"unknown camera speed {speed!r}")
    if frames < 1 or height < 1 or width < 1:
        raise DimensionMismatch("flow field needs positive dims")
    field = np.zeros((frames, height, width, 2), dtype=np.float64)
    if direction == "static":
        return field
    if direction in _UNIT:
        v = TRANSLATION_PX[speed]
        ux, uy = _UNIT[direction]
        for f in range(frames):
            field[f, :, :, 0] = f * v * ux
            field[f, :, :, 1] = f * v * uy
        return field
    # zoom: source = center + r*scale, so displacement = r*(scale - 1)
    rho = ZOOM_RATE[speed]
    cy, cx = (height - 1) / 2.0, (width - 1) / 2.0
    ys, xs = np.mgrid[0:height, 0:width].astype(np.float64)
    rx, ry = xs - cx, ys - cy
    for f in range(frames):
        if direction == "forward":
            scale = 1.0 / (1.0 + f * rho)
        else:
            scale = 1.0 + f * rho
        field[f, :, :, 0] = rx * (scale - 1.0)
        field[f, :, :, 1] = ry * (scale - 1.0)
    return field


def warp_frame(frame, field):
    """Bilinear warp of one frame by one displacement field.

    frame: [C, H, W]; field: [H, W, 2].  Samples outside the frame clamp
    to the edge.
    """
    frame = np.asarray(frame, dtype=np.float64)
    field = np.asarray(field, dtype=np.float64)
    if frame.ndim != 3:
        raise DimensionMismatch(f"warp_frame wants [C,H,W], got {frame.shape}")
    if field.shape != frame.shape[1:] + (2,):
        raise DimensionMismatch(f"field {field.shape} does not match frame {frame.shape}")
    if not np.isfinite(field).all():
        raise NonFiniteField("flow field contains NaN or Inf")
    c, h, w = frame.shape
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    sx = np.clip(xs + field[:, :, 0], 0.0, w - 1.0)
    sy = np.clip(ys + field[:, :, 1], 0.0, h - 1.0)
    x0 = np.floor(sx).astype(np.intp)
    y0 = np.floor(sy).astype(np.intp)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    wx = sx - x0
    wy = sy - y0
    top = frame[:, y0, x0] * (1.0 - wx) + frame[:, y0, x1] * wx
    bottom = frame[:, y1, x0] * (1.0 - wx) + frame[:, y1, x1] * wx
    return top * (1.0 - wy) + bottom * wy


def warp_clip(clip, field):
    """Warp frame f of [C, F, H, W] by field[f]; frame 0 must be static."""
    clip = np.asarray(clip, dtype=np.float64)
    if clip.ndim != 4:
        raise DimensionMismatch(f"warp_clip wants [C,F,H,W], got {clip.shape}")
    if field.shape != (clip.shape[1],) + clip.shape[2:] + (2,):
        raise DimensionMismatch(f"field {field.shape} does not match clip {clip.shape}")
    out = np.empty_like(clip)
    for f in range(clip.shape[1]):
        out[:, f] = warp_frame(clip[:, f], field[f])
    return out
