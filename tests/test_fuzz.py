"""Property-based fuzzing of the untrusted-input decoders, the script parser,
the config loader and the loaders of exported trees and checkpoints.

Each target gets arbitrary bytes or text, plus well-formed headers and
records with random fields.  Whatever it is fed, only a VideoStudioError
may escape.  Runs are derandomized and keep no example database, so every
run draws the same examples.
"""

import hashlib
import json
import math
import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from videostudio.camera_motion import DIRECTIONS, SPEEDS
from videostudio.cond_blocks import ImgDenoiser, load_weights, save_weights
from videostudio.errors import VideoStudioError
from videostudio.numeric_core import Rng, load_tensor, save_tensor
from videostudio.pipeline import (PipelineConfig, build_mock_llm_fixture, compute_metrics,
                                  default_config, export_video, load_config, load_video,
                                  resolve_backends, run_pipeline)
from videostudio.ref_images import Mask, RgbImage, decode_pgm, decode_ppm
from videostudio.script_engine import parse_script, serialize_script

FUZZ = settings(database=None, derandomize=True, deadline=None, max_examples=300)

# Strategies are built once, at import or before a test's examples, not
# inside a draw, where every example would build and validate new ones.


def _put(path, raw):
    # a new file each time: ext4 flushes a file that was truncated and
    # rewritten in place when it is closed, ten times the cost of a new file
    path.unlink(missing_ok=True)
    path.write_bytes(raw)


def _typed(fn, *args):
    """``fn(*args)``, or None when it raises a VideoStudioError; any other
    exception fails the test."""
    try:
        return fn(*args)
    except VideoStudioError:
        return None


# --- PPM / PGM ------------------------------------------------------------------

_MAXVAL = st.one_of(st.integers(1, 255), st.integers(-1, 70000))
_COMMENT = st.sampled_from((b"", b"# made by hand\n"))


@st.composite
def netpbm_files(draw, magic, channels):
    """A Netpbm header with random fields, then a payload that is sometimes
    exactly the size the header declares."""
    w, h = draw(st.integers(-2, 24)), draw(st.integers(-2, 24))
    maxval = draw(_MAXVAL)
    comment = draw(_COMMENT)
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

_VSTN_VERSION = st.one_of(st.just(1), st.integers(0, 2 ** 32 - 1))
_HUGE_DIMS = st.lists(st.integers(0, 2 ** 64 - 1), max_size=3)
# one dim of 0-4 per byte; the long runs put the rank near or past numpy's 64
_SMALL_DIMS = st.one_of(st.binary(max_size=8), st.binary(min_size=60, max_size=70))


@st.composite
def vstn_files(draw):
    """A VSTN header with random version, rank and dims, up to three dims
    anywhere in 64 bits and the rest 0-4, then a payload that is sometimes
    exactly the size the dims declare."""
    version = draw(_VSTN_VERSION)
    dims = draw(_HUGE_DIMS) + [b % 5 for b in draw(_SMALL_DIMS)]
    raw = b"VSTN" + struct.pack("<II", version, len(dims)) + struct.pack(f"<{len(dims)}Q", *dims)
    count = math.prod(dims)
    if count <= 256 and draw(st.booleans()):
        return raw + draw(st.binary(min_size=4 * count, max_size=4 * count))
    return raw + draw(st.binary(max_size=64))


@FUZZ
@given(st.one_of(st.binary(max_size=96),
                 st.binary(max_size=64).map(lambda tail: b"VSTN" + tail),
                 vstn_files()))
def test_load_tensor_raises_only_typed_errors(raw):
    arr = _typed(load_tensor, raw, "t.vstn")
    assert arr is None or (arr.dtype == np.dtype("<f4") and np.isfinite(arr).all())


def test_tensor_files_round_trip_finite_float32(tmp_path):
    path = tmp_path / "t.vstn"
    finite = st.floats(width=32, allow_nan=False, allow_infinity=False)

    @FUZZ
    @given(hnp.arrays(np.float32, hnp.array_shapes(min_dims=0, max_dims=4, min_side=0,
                                                   max_side=5), elements=finite))
    def check(arr):
        path.unlink(missing_ok=True)  # see _put
        back = load_tensor(save_tensor(path, arr), path)
        assert back.shape == arr.shape
        assert back.tobytes() == arr.astype("<f4").tobytes()  # bitwise, -0.0 included

    check()


# --- script grammar -----------------------------------------------------------------

_ANY = st.one_of(st.sampled_from(["red fox", "Snowy  Forest", "x"]), st.text(max_size=12))
# one line of text: no control characters and no line or paragraph separators
_ON_LINE = st.text(st.characters(exclude_categories=("Cc", "Zl", "Zp")), min_size=1, max_size=12)
# prompt, background and 0-3 foreground names
_FIELDS = {field: st.lists(field, min_size=2, max_size=5) for field in (_ON_LINE, _ANY)}
_NO_NAMES = st.sampled_from(("none", "None", ""))
_DIRECTION, _SPEED = st.sampled_from(DIRECTIONS), st.sampled_from(SPEEDS)
_ANY_INDEX = st.one_of(st.integers(0, 6), st.text("0123456789", min_size=1))
_ANY_DIRECTION, _ANY_SPEED = st.one_of(_DIRECTION, _ANY), st.one_of(_SPEED, _ANY)


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
            direction, speed = draw(_DIRECTION), draw(_SPEED)
        else:
            index = draw(_ANY_INDEX)
            direction, speed = draw(_ANY_DIRECTION), draw(_ANY_SPEED)
        prompt, background, *names = draw(_FIELDS[field])
        foreground = ", ".join(names) if names else draw(_NO_NAMES)
        lines.append(f"[Scene {index}: prompt: {prompt} | foreground: {foreground} | "
                     f"background: {background} | camera: {direction}, {speed}]")
    return "\n".join(lines)


@FUZZ
@given(st.one_of(st.text(max_size=200), scene_records()))
def test_parse_script_raises_only_typed_errors_and_round_trips(text):
    script = _typed(parse_script, text)
    if script is not None:
        assert parse_script(serialize_script(script)).scenes == script.scenes


# --- config -------------------------------------------------------------------------

_BIG = "@big@"  # stands for a 5,000-digit integer literal, past what json.loads reads
_NUMBER = st.one_of(st.integers(-2, 70), st.integers(0, 80).map(lambda k: 2 ** k),
                    st.just(2 ** 1100), st.floats())
_LEAF = st.one_of(st.none(), st.booleans(), _NUMBER, st.text(max_size=8),
                  st.sampled_from(["oracle", "network", "mock", "http", "toy", "vocab.json"]))


def _nest(inner):
    return st.one_of(_LEAF, st.lists(inner, max_size=4),
                     st.dictionaries(st.text(max_size=6), inner, max_size=3))


# any JSON value, containers nested up to two deep (st.recursive costs twice as much)
_VALUE = _nest(_nest(_LEAF))
_VOCAB_ROW = st.fixed_dictionaries({
    "name": st.one_of(st.sampled_from(["waving", "Riding Bike", "riding  bike"]), _LEAF),
    "embedding": st.one_of(st.sampled_from([[1.0, 0.0], [0.0, 1.0]]),
                           st.lists(_NUMBER, min_size=2, max_size=2), _VALUE)})


def _leaf_paths(doc, prefix=()):
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


_SWAPS = st.dictionaries(st.sampled_from(tuple(_leaf_paths(default_config()))),
                         st.one_of(_NUMBER, _VALUE, st.lists(_NUMBER, max_size=4)), max_size=3)
_EXTRA = st.sampled_from(("none",) * 4 + ("big", "unknown", "section", "root"))
_UNKNOWN_IN = st.sampled_from((None, "model", "chat"))
_UNKNOWN_KEY = st.text(max_size=6)
_SECTION = st.sampled_from(("model", "video_sampler", "chat"))
_VOCAB = st.one_of(st.lists(_VOCAB_ROW, min_size=1, max_size=3), _VALUE)
_CUT = st.sampled_from((False, False, False, True))


def _json_text(doc, draw):
    # the text of doc, with each _BIG spelled out, one time in four cut short
    text = json.dumps(doc).replace(json.dumps(_BIG), "9" * 5000)
    return text[:draw(st.integers(0, len(text)))] if draw(_CUT) else text


@st.composite
def config_files(draw):
    """(config text, vocabulary text): the default config with random leaves
    replaced (model sizes and the latent often by small or power-of-two
    integers), sometimes an unknown key or a section replaced by a value.
    A ``"vocab.json"`` leaf names the well-formed vocabulary file."""
    doc = default_config()
    for path, value in draw(_SWAPS).items():
        section = doc
        for name in path[:-1]:
            section = section[name]
        section[path[-1]] = value
    extra = draw(_EXTRA)
    if extra == "big":
        doc["seed"] = _BIG
    elif extra == "unknown":
        section = draw(_UNKNOWN_IN)
        (doc[section] if section else doc)[draw(_UNKNOWN_KEY)] = 1
    elif extra == "section":
        doc[draw(_SECTION)] = draw(_LEAF)
    elif extra == "root":
        doc = draw(_VALUE)
    vocab = [{"name": "waving", "embedding": [1.0, 0.0]}]
    return _json_text(doc, draw), json.dumps(vocab)


@st.composite
def vocabulary_files(draw):
    """(config text, vocabulary text): a config naming the vocabulary file,
    whose rows have random names and embeddings."""
    vocab = draw(_VOCAB)
    return json.dumps({"vocabulary_path": "vocab.json"}), _json_text(vocab, draw)


def test_load_config_raises_only_typed_errors(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths in the config resolve in here

    @FUZZ
    @given(st.one_of(config_files(), vocabulary_files(),
                     st.tuples(st.binary(max_size=64), st.just("[]"))))
    def check(files):
        config_text, vocab_text = files
        _put(tmp_path / "vocab.json", vocab_text.encode())
        raw = config_text if isinstance(config_text, bytes) else config_text.encode()
        _put(tmp_path / "config.json", raw)
        config = _typed(load_config, "config.json")
        assert config is None or isinstance(config, PipelineConfig)

    check()


# --- exported trees and checkpoints ---------------------------------------------------

_PROMPT = "a red fox crosses a snowy forest"
_SCRIPT = ("[Scene 1: prompt: a red fox waving in the snowy forest | foreground: red fox | "
           "background: snowy forest | camera: right, fast]\n"
           "[Scene 2: prompt: the red fox riding bike at dusk | foreground: red fox | "
           "background: snowy forest | camera: static, slow]")


_EDIT_KIND = st.sampled_from(("flip", "cut", "splice", "replace"))
_FLIP = st.integers(1, 255)
_SPLICE, _SPLICE_OVER = st.binary(max_size=16), st.integers(0, 16)
_REPLACEMENT = st.binary(max_size=64)


def byte_edits(raw):
    """Copies of ``raw`` with one edit, often inside its header: a byte
    changed, the tail cut off, a run spliced in, or the whole file replaced."""
    where = st.one_of(st.integers(0, min(len(raw), 24)), st.integers(0, len(raw)))

    @st.composite
    def edited(draw):
        at = draw(where)
        kind = draw(_EDIT_KIND)
        if kind == "flip" and at < len(raw):
            return raw[:at] + bytes([raw[at] ^ draw(_FLIP)]) + raw[at + 1:]
        if kind == "cut":
            return raw[:at]
        if kind == "splice":
            return raw[:at] + draw(_SPLICE) + raw[at + draw(_SPLICE_OVER):]
        return draw(_REPLACEMENT)

    return edited()


def _json_paths(doc, prefix=()):
    yield prefix
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _json_paths(value, prefix + (key,))


def _lookup(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def json_edits(doc):
    """The JSON text of copies of ``doc`` with one node deleted or replaced,
    by any JSON value or by another of the document's own leaves (a file
    path for another)."""
    text = json.dumps(doc)
    paths = list(_json_paths(doc))
    where = st.sampled_from(paths)
    values = st.one_of(_VALUE, st.sampled_from([
        _lookup(doc, path) for path in paths if not isinstance(_lookup(doc, path), (dict, list))]))

    @st.composite
    def edited(draw):
        doc = json.loads(text)
        path = draw(where)
        value = draw(values)
        if not path:
            return json.dumps(value).encode()
        parent = _lookup(doc, path[:-1])
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return json.dumps(doc).encode()

    return edited()


def _files(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def tree_edits(files):
    """{relative path: new bytes}: one file of an exported tree edited, with
    the manifest checksum re-signed so the edit reaches the decoders, or the
    manifest edited as JSON or as bytes."""
    manifest = json.loads(files["manifest.json"])
    edits = {rel: byte_edits(raw) for rel, raw in files.items()}
    edits["manifest.json"] = st.one_of(json_edits(manifest), edits["manifest.json"])
    which = st.sampled_from(sorted(files) + ["manifest.json"] * 4)

    @st.composite
    def edited(draw):
        rel = draw(which)
        raw = draw(edits[rel])
        if rel == "manifest.json":
            return {rel: raw}
        checksums = {**manifest["checksums"], rel: hashlib.sha256(raw).hexdigest()}
        signed = json.dumps({**manifest, "checksums": checksums}).encode()
        return {rel: raw, "manifest.json": signed}

    return edited()


def _rewrite(root, files):
    for rel, raw in files.items():
        _put(root / rel, raw)


def test_load_video_raises_only_typed_errors(tmp_path):
    config = load_config(overrides={
        "seed": 3, "model": {"latent": [3, 8, 8], "frames": 2},
        "image_sampler": {"steps": 2}, "video_sampler": {"steps": 2, "t_m": 1}})
    backends = resolve_backends(config, mock_llm=build_mock_llm_fixture(_PROMPT, _SCRIPT))
    video, _ = run_pipeline(_PROMPT, config, backends)
    export_video(video, str(tmp_path))
    files = _files(tmp_path)

    @FUZZ
    @given(tree_edits(files))
    def check(edits):
        _rewrite(tmp_path, edits)
        try:
            loaded = _typed(load_video, str(tmp_path))
            if loaded is not None:  # what `videostudio metrics` does next
                _typed(compute_metrics, loaded)
        finally:
            _rewrite(tmp_path, {rel: files[rel] for rel in edits})

    check()


def _checkpoint_model(seed):
    return ImgDenoiser(Rng(seed), latent_shape=(2, 4, 4), channels=4, blocks=1, heads=2,
                       text_channels=4, fg_channels=4, bg_channels=4)


def checkpoint_edits(files):
    """{relative path: new bytes}: weights.json edited as JSON or as bytes,
    or weights.vstn edited as bytes, half the time with the sha256 in
    weights.json re-signed over what follows its 20-byte rank-1 header so
    the edit reaches the assignment."""
    manifest = json.loads(files["weights.json"])
    json_edit = st.one_of(byte_edits(files["weights.json"]), json_edits(manifest))
    payload_edit = byte_edits(files["weights.vstn"])

    @st.composite
    def edited(draw):
        if draw(st.booleans()):
            return {"weights.json": draw(json_edit)}
        raw = draw(payload_edit)
        if not draw(st.booleans()):
            return {"weights.vstn": raw}
        signed = {**manifest, "sha256": hashlib.sha256(raw[20:]).hexdigest()}
        return {"weights.vstn": raw, "weights.json": json.dumps(signed).encode()}

    return edited()


def test_load_weights_raises_only_typed_errors(tmp_path):
    save_weights(_checkpoint_model(1), tmp_path)
    files = _files(tmp_path)
    model = _checkpoint_model(2)

    @FUZZ
    @given(checkpoint_edits(files))
    def check(edits):
        _rewrite(tmp_path, edits)
        before = [p.data for _, p in model.parameters()]
        try:
            load_weights(model, tmp_path)
        except VideoStudioError:  # a refused checkpoint changes no parameter
            assert all(p.data is b for (_, p), b in zip(model.parameters(), before))
        finally:
            _rewrite(tmp_path, {rel: files[rel] for rel in edits})

    check()
