import numpy as np
import pytest

from videostudio.camera_motion import (DIRECTIONS, SPEEDS, ZOOM_RATE,
                                       synthesize_flow, warp_clip)
from videostudio.errors import NonFiniteField, ShapeMismatch, UnknownCameraToken
from videostudio.numeric_core import Rng


# --- flow synthesis ----------------------------------------------------------

def test_frame_zero_is_always_static():
    for direction in DIRECTIONS:
        field = synthesize_flow(direction, "fast", 4, 6, 6)
        assert np.array_equal(field[0], np.zeros((6, 6, 2)))


def test_static_field_is_zero_everywhere():
    field = synthesize_flow("static", "medium", 5, 4, 7)
    assert field.shape == (5, 4, 7, 2)
    assert np.count_nonzero(field) == 0


def test_translation_displacement_is_linear_in_frame_index():
    # source = destination + displacement: panning right samples rightward
    field = synthesize_flow("right", "medium", 6, 3, 3)
    for f in range(6):
        assert np.allclose(field[f, :, :, 0], f * 1.0)
        assert np.allclose(field[f, :, :, 1], 0.0)
    field = synthesize_flow("up", "fast", 4, 3, 3)
    for f in range(4):
        assert np.allclose(field[f, :, :, 0], 0.0)
        assert np.allclose(field[f, :, :, 1], -f * 2.0)


def test_translation_speed_ladder():
    slow = synthesize_flow("left", "slow", 3, 2, 2)
    med = synthesize_flow("left", "medium", 3, 2, 2)
    fast = synthesize_flow("left", "fast", 3, 2, 2)
    assert np.allclose(med[2], 2 * slow[2])
    assert np.allclose(fast[2], 2 * med[2])


def test_zoom_center_stays_fixed():
    # odd dims put a pixel exactly at the center
    for direction in ("forward", "backward"):
        field = synthesize_flow(direction, "fast", 5, 9, 9)
        assert np.allclose(field[:, 4, 4, :], 0.0)


def test_zoom_forward_contracts_and_backward_expands():
    fwd = synthesize_flow("forward", "medium", 3, 9, 9)
    bwd = synthesize_flow("backward", "medium", 3, 9, 9)
    # right half of the image: dx sign tells sampling direction
    assert np.all(fwd[2, 4, 6:, 0] < 0)   # forward samples toward center
    assert np.all(bwd[2, 4, 6:, 0] > 0)   # backward samples away from it
    rho = ZOOM_RATE["medium"]
    rx = 8 - 4.0
    assert np.isclose(fwd[2, 4, 8, 0], rx * (1.0 / (1.0 + 2 * rho) - 1.0))
    assert np.isclose(bwd[2, 4, 8, 0], rx * (1.0 + 2 * rho - 1.0))


def test_flow_rejects_unknown_tokens_and_bad_dims():
    with pytest.raises(UnknownCameraToken, match="direction"):
        synthesize_flow("sideways", "slow", 2, 2, 2)
    with pytest.raises(UnknownCameraToken, match="speed"):
        synthesize_flow("left", "ludicrous", 2, 2, 2)
    with pytest.raises(ShapeMismatch):
        synthesize_flow("left", "slow", 0, 2, 2)
    with pytest.raises(ShapeMismatch):
        synthesize_flow("left", "slow", 2, 2, 0)


def test_direction_and_speed_vocabulary():
    assert set(SPEEDS) == {"slow", "medium", "fast"}
    assert set(DIRECTIONS) == {"static", "left", "right", "up", "down",
                               "forward", "backward"}


# --- warping -----------------------------------------------------------------

def warp_one(frame, field):
    """Warp a [C, H, W] frame by an [H, W, 2] field as a one-frame clip."""
    return warp_clip(frame[:, None], field[None])[:, 0]


def test_zero_field_warp_is_identity():
    rng = Rng(0)
    frame = rng.normal((3, 5, 7))
    out = warp_one(frame, np.zeros((5, 7, 2)))
    assert np.allclose(out, frame, atol=1e-15)


def test_integer_shift_matches_roll_in_the_interior():
    rng = Rng(1)
    frame = rng.normal((1, 6, 8))
    field = np.zeros((6, 8, 2))
    field[:, :, 0] = 2.0  # sample two pixels to the right
    out = warp_one(frame, field)
    assert np.allclose(out[:, :, :6], frame[:, :, 2:], atol=1e-12)


def test_half_pixel_shift_averages_neighbours():
    frame = np.zeros((1, 1, 4))
    frame[0, 0] = [0.0, 1.0, 2.0, 3.0]
    field = np.zeros((1, 4, 2))
    field[:, :, 0] = 0.5
    out = warp_one(frame, field)
    assert np.allclose(out[0, 0, :3], [0.5, 1.5, 2.5])


def test_bilinear_hand_case_interior_point():
    frame = np.zeros((1, 2, 2))
    frame[0] = [[1.0, 2.0], [3.0, 4.0]]
    field = np.zeros((2, 2, 2))
    field[0, 0] = [0.25, 0.75]  # sample at (x=0.25, y=0.75)
    out = warp_one(frame, field)
    want = (1.0 * 0.75 + 2.0 * 0.25) * 0.25 + (3.0 * 0.75 + 4.0 * 0.25) * 0.75
    assert np.isclose(out[0, 0, 0], want)


def test_out_of_range_samples_clamp_to_edge():
    frame = np.arange(4.0).reshape(1, 1, 4)
    field = np.zeros((1, 4, 2))
    field[:, :, 0] = 100.0
    out = warp_one(frame, field)
    assert np.allclose(out, 3.0)
    field[:, :, 0] = -100.0
    out = warp_one(frame, field)
    assert np.allclose(out, 0.0)


def test_warp_clip_equals_per_frame_warp():
    # the one-pass gather is bit for bit the warp of each frame on its own,
    # for every camera move, at the default latent shape and an odd one
    for shape in [(4, 8, 16, 16), (3, 5, 7, 9)]:
        clip = Rng(2).normal(shape)
        for direction in DIRECTIONS:
            for speed in SPEEDS:
                field = synthesize_flow(direction, speed, *shape[1:])
                whole = warp_clip(clip, field)
                for f in range(shape[1]):
                    assert np.array_equal(whole[:, f], warp_one(clip[:, f], field[f]))


def test_warp_validation_errors():
    rng = Rng(3)
    with pytest.raises(ShapeMismatch):
        warp_clip(rng.normal((1, 5, 5)), np.zeros((5, 5, 2)))
    with pytest.raises(ShapeMismatch):
        warp_clip(rng.normal((1, 1, 5, 5)), np.zeros((1, 4, 5, 2)))
    with pytest.raises(ShapeMismatch):
        warp_clip(rng.normal((1, 2, 5, 5)), np.zeros((3, 5, 5, 2)))
    bad = np.zeros((1, 5, 5, 2))
    bad[0, 0, 0, 0] = np.nan
    with pytest.raises(NonFiniteField):
        warp_clip(rng.normal((1, 1, 5, 5)), bad)


def test_pan_moves_content_opposite_to_camera():
    # a bright column at x=6; pan right -> content drifts left
    frame = np.zeros((1, 5, 9))
    frame[0, :, 6] = 1.0
    clip = np.repeat(frame[:, None], 4, axis=1)
    field = synthesize_flow("right", "medium", 4, 5, 9)
    out = warp_clip(clip, field)
    for f in range(4):
        col = out[0, f, 2].argmax()
        assert col == 6 - f
