import numpy as np
import pytest

from videostudio.errors import BackendError, DimensionMismatch
from videostudio.numeric_core import Rng
from videostudio.pipeline import PipelineBackends
from videostudio.ref_images import (LuminanceSegmenter, Mask, RgbImage,
                                    ToyTextToImageBackend, apply_mask,
                                    build_entity_references, decode_pgm,
                                    decode_ppm, encode_pgm, encode_ppm,
                                    segment_salient)
from videostudio.script_engine import parse_script

SCRIPT = parse_script(
    "[Scene 1: prompt: a fox trots | foreground: red fox | background: snowy forest | camera: right, slow]\n"
    "[Scene 2: prompt: the fox rests | foreground: red fox | background: snowy forest | camera: static, slow]")


# --- containers ---------------------------------------------------------------

def test_rgb_image_validation():
    RgbImage(np.zeros((8, 8, 3)))
    with pytest.raises(DimensionMismatch):
        RgbImage(np.zeros((8, 8)))
    with pytest.raises(DimensionMismatch):
        RgbImage(np.zeros((4, 8, 3)))  # below minimum side
    with pytest.raises(DimensionMismatch):
        RgbImage(np.full((8, 8, 3), 1.5))
    with pytest.raises(DimensionMismatch):
        RgbImage(np.full((8, 8, 3), -0.1))
    img = RgbImage(np.zeros((9, 12, 3)))
    assert img.data.shape == (9, 12, 3)


def test_mask_validation():
    Mask(np.ones((4, 4)))
    with pytest.raises(DimensionMismatch):
        Mask(np.ones((4, 4, 1)))
    with pytest.raises(DimensionMismatch):
        Mask(np.full((4, 4), 2.0))


def test_nan_pixels_are_refused():
    data = np.zeros((8, 8, 3))
    data[2, 3, 1] = np.nan
    with pytest.raises(DimensionMismatch):
        RgbImage(data)
    with pytest.raises(DimensionMismatch):
        Mask(data[:, :, 1])


# --- toy text-to-image -----------------------------------------------------------

def test_toy_t2i_deterministic_per_description_and_seed():
    backend = ToyTextToImageBackend(size=32)
    a = backend.generate("a crimson kettle", seed=5)
    b = backend.generate("a crimson kettle", seed=5)
    assert np.array_equal(a.data, b.data)
    c = backend.generate("a crimson kettle", seed=6)
    assert not np.array_equal(a.data, c.data)
    d = backend.generate("a teal kettle", seed=5)
    assert not np.array_equal(a.data, d.data)
    assert a.data.shape == (32, 32, 3)


def test_toy_t2i_rejects_empty_description_and_tiny_size():
    backend = ToyTextToImageBackend(size=16)
    with pytest.raises(BackendError):
        backend.generate("   ", seed=0)
    with pytest.raises(DimensionMismatch):
        ToyTextToImageBackend(size=4)


def test_toy_blob_clears_segmenter_threshold_at_any_hue():
    """The palette must keep blob and ground on opposite sides of 0.5."""
    backend = ToyTextToImageBackend(size=32)
    segmenter = LuminanceSegmenter()
    for i in range(40):
        img = backend.generate(f"probe object {i}", seed=1)
        mask = segmenter.segment(img)
        frac = mask.data.mean()
        assert 0.02 < frac < 0.95, f"degenerate mask for probe {i}: {frac}"


# --- segmentation ------------------------------------------------------------------

def test_luminance_segmenter_thresholds_rec709():
    img = RgbImage(np.stack([np.full((8, 8), 0.9),
                             np.full((8, 8), 0.9),
                             np.full((8, 8), 0.9)], axis=2))
    assert np.array_equal(LuminanceSegmenter(0.5).segment(img).data, np.ones((8, 8)))
    dark = RgbImage(np.full((8, 8, 3), 0.2))
    assert np.count_nonzero(LuminanceSegmenter(0.5).segment(dark).data) == 0
    # pure blue: luminance 0.0722, below any sane threshold
    blue = np.zeros((8, 8, 3))
    blue[:, :, 2] = 1.0
    assert np.count_nonzero(LuminanceSegmenter(0.5).segment(RgbImage(blue)).data) == 0


def test_smooth_segmenter_averages_neighbourhood():
    data = np.zeros((8, 8, 3))
    data[4, 4] = 1.0
    img = RgbImage(data)
    hard = LuminanceSegmenter(0.5).segment(img).data
    soft = LuminanceSegmenter(0.5, smooth=True).segment(img).data
    assert hard[4, 4] == 1.0 and hard.sum() == 1.0
    assert np.isclose(soft[4, 4], 1.0 / 9.0)
    assert np.isclose(soft.sum(), 1.0)  # box blur conserves mass away from edges
    assert set(np.unique(hard)) <= {0.0, 1.0}


def test_segment_salient_validates_shape():
    class BadSegmenter:
        def segment(self, image):
            return Mask(np.zeros((4, 4)))

    img = RgbImage(np.zeros((8, 8, 3)))
    with pytest.raises(DimensionMismatch):
        segment_salient(img, BadSegmenter())


# --- masking -----------------------------------------------------------------------

def test_apply_mask_fg_and_bg_partition():
    rng = Rng(0)
    img = RgbImage(rng.uniform((8, 8, 3)))
    mask = Mask((rng.uniform((8, 8)) > 0.5).astype(float))
    fg = apply_mask(img, mask, "fg")
    bg = apply_mask(img, mask, "bg")
    assert np.allclose(fg.data + bg.data, img.data, atol=1e-15)
    assert np.array_equal(fg.data[mask.data == 0], np.zeros_like(fg.data[mask.data == 0]))
    with pytest.raises(DimensionMismatch):
        apply_mask(img, mask, "both")
    with pytest.raises(DimensionMismatch):
        apply_mask(img, Mask(np.zeros((4, 4))), "fg")


# --- reference building -----------------------------------------------------------------

def _backends():
    return PipelineBackends(None, ToyTextToImageBackend(), LuminanceSegmenter())


def test_build_entity_references_covers_all_entities():
    backends = _backends()
    descriptions = {"red fox": "a compact auburn fox", "snowy forest": "white pines"}
    refs = build_entity_references(SCRIPT, descriptions, backends, seed=3)
    assert set(refs) == {"red fox", "snowy forest"}
    assert refs["red fox"].kind == "foreground"
    assert refs["snowy forest"].kind == "background"
    fox = refs["red fox"]
    # fg keeps only masked pixels
    assert np.array_equal(fox.image.data[fox.mask.data == 0],
                          np.zeros_like(fox.image.data[fox.mask.data == 0]))
    assert np.count_nonzero(fox.mask.data) > 0
    woods = refs["snowy forest"]
    # bg zeroes the salient hole
    assert np.array_equal(woods.image.data[woods.mask.data == 1],
                          np.zeros_like(woods.image.data[woods.mask.data == 1]))


def test_build_entity_references_deterministic_per_name():
    backends = _backends()
    descriptions = {"red fox": "a compact auburn fox", "snowy forest": "white pines"}
    a = build_entity_references(SCRIPT, descriptions, backends, seed=3)
    b = build_entity_references(SCRIPT, descriptions, backends, seed=3)
    assert np.array_equal(a["red fox"].image.data, b["red fox"].image.data)
    c = build_entity_references(SCRIPT, descriptions, backends, seed=4)
    assert not np.array_equal(a["red fox"].image.data, c["red fox"].image.data)


def test_build_entity_references_missing_description():
    backends = _backends()
    with pytest.raises(BackendError):
        build_entity_references(SCRIPT, {"red fox": "a fox"}, backends, seed=3)
    with pytest.raises(BackendError):  # blank, so the backend refuses it
        build_entity_references(SCRIPT, {"red fox": "a fox", "snowy forest": "  "},
                                backends, seed=3)


# --- PPM / PGM round trips ----------------------------------------------------------------

def test_ppm_round_trip_quantizes_to_8_bits():
    rng = Rng(1)
    img = RgbImage(rng.uniform((10, 14, 3)))
    back = decode_ppm(encode_ppm(img))
    assert back.data.shape == (10, 14, 3)
    assert np.max(np.abs(back.data - img.data)) <= 0.5 / 255.0 + 1e-12
    exact = RgbImage(np.round(img.data * 255.0) / 255.0)
    again = decode_ppm(encode_ppm(exact))
    assert np.array_equal(again.data, exact.data)


def test_pgm_round_trip():
    rng = Rng(2)
    mask = Mask((rng.uniform((9, 9)) > 0.4).astype(float))
    back = decode_pgm(encode_pgm(mask))
    assert np.array_equal(back.data, mask.data)


def test_ppm_header_structure():
    img = RgbImage(np.zeros((8, 10, 3)))
    raw = encode_ppm(img)
    assert raw.startswith(b"P6\n10 8\n255\n")
    assert len(raw) == len(b"P6\n10 8\n255\n") + 8 * 10 * 3


def test_decode_rejects_garbage():
    with pytest.raises(DimensionMismatch):
        decode_ppm(b"P3\n2 2\n255\n" + bytes(12))
    with pytest.raises(DimensionMismatch):
        decode_ppm(b"P6\n10 8\n255\n" + bytes(10))  # truncated payload
    with pytest.raises(DimensionMismatch):
        decode_pgm(b"P5\n2\n255\n" + bytes(4))
    with pytest.raises(DimensionMismatch):
        decode_pgm(b"P5\n0 4\n255\n")  # no pixels


@pytest.mark.parametrize("maxval", [0, 256, 65535])
def test_decode_refuses_maxval_outside_8_bits(maxval):
    with pytest.raises(DimensionMismatch, match="maxval"):
        decode_ppm(f"P6\n8 8\n{maxval}\n".encode() + bytes(2 * 8 * 8 * 3))
    with pytest.raises(DimensionMismatch, match="maxval"):
        decode_pgm(f"P5\n8 8\n{maxval}\n".encode() + bytes(2 * 8 * 8))