"""Property-based fuzzing of the untrusted-input decoders and the script parser.

Each target gets arbitrary bytes or text, plus well-formed headers and
records with random fields.  Whatever it is fed, only a VideoStudioError
may escape.  Runs are derandomized and keep no example database, so every
run draws the same examples.
"""

import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from videostudio.camera_motion import DIRECTIONS, SPEEDS
from videostudio.errors import VideoStudioError
from videostudio.numeric_core import load_tensor, save_tensor
from videostudio.ref_images import Mask, RgbImage, decode_pgm, decode_ppm
from videostudio.script_engine import parse_script, serialize_script

FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=300)


def _typed(fn, *args):
    """``fn(*args)``, or None when it raises a VideoStudioError; any other
    exception fails the test."""
    try:
        return fn(*args)
    except VideoStudioError:
        return None


# --- PPM / PGM ------------------------------------------------------------------

@st.composite
def netpbm_files(draw, magic, channels):
    """A Netpbm header with random fields, then a payload that is sometimes
    exactly the size the header declares."""
    w, h = draw(st.integers(-2, 24)), draw(st.integers(-2, 24))
    maxval = draw(st.one_of(st.integers(1, 255), st.integers(-1, 70000)))
    comment = draw(st.sampled_from([b"", b"# made by hand\n"]))
    header = magic + b"\n" + comment + f"{w} {h}\n{maxval}\n".encode("ascii")
    size = w * h * channels
    if size > 0 and draw(st.booleans()):
        return header + draw(st.binary(min_size=size, max_size=size))
    return header + draw(st.binary(max_size=64))


@FUZZ
@given(st.one_of(st.binary(max_size=96), netpbm_files(b"P6", 3), netpbm_files(b"P5", 1)))
def test_netpbm_decoders_raise_only_typed_errors(raw):
    image = _typed(decode_ppm, raw)
    assert image is None or isinstance(image, RgbImage)
    mask = _typed(decode_pgm, raw)
    assert mask is None or isinstance(mask, Mask)


# --- VSTN -------------------------------------------------------------------------

@st.composite
def vstn_files(draw):
    """A VSTN header with random version, rank and dims, then a payload that
    is sometimes exactly the size the dims declare."""
    version = draw(st.one_of(st.just(1), st.integers(0, 2 ** 32 - 1)))
    dim = st.one_of(st.integers(0, 4), st.integers(0, 2 ** 64 - 1))
    dims = draw(st.lists(dim, max_size=70))
    raw = b"VSTN" + struct.pack("<II", version, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
    count = math.prod(dims)
    if count <= 256 and draw(st.booleans()):
        return raw + draw(st.binary(min_size=4 * count, max_size=4 * count))
    return raw + draw(st.binary(max_size=64))


def test_load_tensor_raises_only_typed_errors(tmp_path):
    path = tmp_path / "t.vstn"

    @FUZZ
    @given(st.one_of(st.binary(max_size=96),
                     st.binary(max_size=64).map(lambda tail: b"VSTN" + tail),
                     vstn_files()))
    def check(raw):
        path.write_bytes(raw)
        arr = _typed(load_tensor, path)
        assert arr is None or (arr.dtype == np.dtype("<f4") and np.isfinite(arr).all())

    check()


def test_tensor_files_round_trip_finite_float32(tmp_path):
    path = tmp_path / "t.vstn"
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)

    @FUZZ
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                   max_side=5), elements=finite))
    def check(arr):
        save_tensor(path, arr)
        back = load_tensor(path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.astype("<f4").tobytes()  # bitwise, -0.0 included

    check()


# --- script grammar -----------------------------------------------------------------

_ANY = st.one_of(st.sampled_from(["red fox", "Snowy  Forest", "x"]), st.text(max_size=12))
# one line of text: no control characters and no line or paragraph separators
_ON_LINE = st.text(st.characters(exclude_categories=("Cc", "Zl", "Zp")), min_size=1, max_size=12)


@st.composite
def scene_records(draw):
    """Script text of 1-3 records with the grammar's shape and random fields.

    Half the scripts keep indices in order and camera tokens in the
    vocabulary, and draw every other field as one line of text, so they
    often parse; the rest draw every field from anything.
    """
    strict = draw(st.booleans())
    field = _ON_LINE if strict else _ANY
    lines = []
    for k in range(draw(st.integers(1, 3))):
        if strict:
            index = k + 1
            direction, speed = draw(st.sampled_from(DIRECTIONS)), draw(st.sampled_from(SPEEDS))
        else:
            index = draw(st.one_of(st.integers(0, 6), st.text("0123456789", min_size=1)))
            direction = draw(st.one_of(st.sampled_from(DIRECTIONS), _ANY))
            speed = draw(st.one_of(st.sampled_from(SPEEDS), _ANY))
        names = draw(st.lists(field, max_size=3))
        foreground = ", ".join(names) if names else draw(st.sampled_from(["none", "None", ""]))
        lines.append(f"[Scene {index}: prompt: {draw(field)} | foreground: {foreground} | "
                     f"background: {draw(field)} | camera: {direction}, {speed}]")
    return "\n".join(lines)


@FUZZ
@given(st.one_of(st.text(max_size=200), scene_records()))
def test_parse_script_raises_only_typed_errors_and_round_trips(text):
    script = _typed(parse_script, text)
    if script is not None:
        assert parse_script(serialize_script(script)).scenes == script.scenes
