"""Entity reference images: generation, salient segmentation, masking.

The toy text-to-image backend draws a deterministic procedural picture:
the description's 64-bit hash picks a base hue and a blob shape, the seed
drives a noise texture.  Blobs are bright on a dark ground, so the toy
luminance segmenter isolates them cleanly.  FG references zero out the
background pixels; BG references keep the zeroed hole where the salient
object was removed.
"""

from __future__ import annotations

import base64
import colorsys
import json
import urllib.error
import urllib.request

import numpy as np

from .errors import BackendError, DimensionMismatch
from .numeric_core import Rng, derive_seed, hash64
from .script_engine import find_common_entities

MIN_SIDE = 8


class RgbImage:
    """H x W x 3 floats in [0, 1]."""

    def __init__(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 3 or data.shape[2] != 3:
            raise DimensionMismatch(f"image must be [H, W, 3], got {data.shape}")
        if data.shape[0] < MIN_SIDE or data.shape[1] < MIN_SIDE:
            raise DimensionMismatch(f"image sides must be >= {MIN_SIDE}, got {data.shape[:2]}")
        if not (data.min() >= 0.0 and data.max() <= 1.0):  # NaN fails too
            raise DimensionMismatch("image values must lie in [0, 1]")
        self.data = data


class Mask:
    """H x W floats in [0, 1]."""

    def __init__(self, data):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2:
            raise DimensionMismatch(f"mask must be [H, W], got {data.shape}")
        if not (data.min() >= 0.0 and data.max() <= 1.0):  # NaN fails too
            raise DimensionMismatch("mask values must lie in [0, 1]")
        self.data = data


class EntityReference:
    def __init__(self, entity, image, kind, mask):
        self.entity = entity
        self.image = image
        self.kind = kind
        self.mask = mask


# --- toy backends -----------------------------------------------------------


class ToyTextToImageBackend:
    """Procedural stand-in for a diffusion text-to-image service."""

    def __init__(self, size=64):
        if size < MIN_SIDE:
            raise DimensionMismatch(f"size must be >= {MIN_SIDE}")
        self.size = size

    def generate(self, description, seed):
        if not description or not description.strip():
            raise BackendError("text-to-image description is empty")
        h = hash64("t2i", description)
        hue = (h & 0xFFFF) / 0xFFFF
        # blob geometry from independent hash bits
        cx = 0.30 + 0.40 * (((h >> 16) & 0xFF) / 255.0)
        cy = 0.30 + 0.40 * (((h >> 24) & 0xFF) / 255.0)
        rx = 0.15 + 0.20 * (((h >> 32) & 0xFF) / 255.0)
        ry = 0.15 + 0.20 * (((h >> 40) & 0xFF) / 255.0)
        n = self.size
        ys, xs = np.mgrid[0:n, 0:n] / (n - 1.0)
        inside = ((xs - cx) / rx) ** 2 + ((ys - cy) / ry) ** 2 <= 1.0
        # blob luminance must clear the default 0.5 segmentation threshold
        # at every hue (worst case blue: sat 0.45 / val 0.95 -> 0.55), while
        # the background stays below it (val 0.25 caps luminance at 0.25)
        fg = np.array(colorsys.hsv_to_rgb(hue, 0.45, 0.95))
        bg = np.array(colorsys.hsv_to_rgb((hue + 0.5) % 1.0, 0.55, 0.25))
        img = np.where(inside[:, :, None], fg[None, None, :], bg[None, None, :])
        noise = Rng(derive_seed(seed, "t2i-noise", description)).normal((n, n, 1)) * 0.03
        return RgbImage(np.clip(img + noise, 0.0, 1.0))


class RemoteTextToImageBackend:
    """JSON-over-HTTP text-to-image: returns base64 PPM bytes."""

    def __init__(self, url, size=64, timeout=120.0):
        self.url = url
        self.size = size
        self.timeout = timeout

    def generate(self, description, seed):
        if not description or not description.strip():
            raise BackendError("text-to-image description is empty")
        request = {"prompt": description, "seed": int(seed),
                   "width": self.size, "height": self.size}
        body = json.dumps(request).encode("utf-8")
        req = urllib.request.Request(self.url, data=body,
                                     headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                payload = json.loads(resp.read().decode("utf-8"))
            ppm = base64.b64decode(payload["image_ppm_b64"])
        except (urllib.error.URLError, ValueError, KeyError) as exc:
            raise BackendError(f"text-to-image backend at {self.url} failed: {exc}") from exc
        return decode_ppm(ppm)


class LuminanceSegmenter:
    """Salient = brighter than a luminance threshold (Rec. 709 weights)."""

    def __init__(self, threshold=0.5, smooth=False):
        self.threshold = threshold
        self.smooth = smooth

    def segment(self, image):
        lum = (0.2126 * image.data[:, :, 0]
               + 0.7152 * image.data[:, :, 1]
               + 0.0722 * image.data[:, :, 2])
        mask = (lum > self.threshold).astype(np.float64)
        if self.smooth:
            padded = np.pad(mask, 1, mode="edge")
            acc = np.zeros_like(mask)
            for dy in range(3):
                for dx in range(3):
                    acc += padded[dy:dy + mask.shape[0], dx:dx + mask.shape[1]]
            mask = acc / 9.0
        return Mask(mask)


def segment_salient(image, segmenter):
    mask = segmenter.segment(image)
    if mask.data.shape != image.data.shape[:2]:
        raise DimensionMismatch(f"segmenter returned {mask.data.shape} for image "
                                f"{image.data.shape[:2]}")
    return mask


def apply_mask(image, mask, keep):
    """keep='fg' multiplies by the mask; keep='bg' by its complement."""
    if keep not in ("fg", "bg"):
        raise DimensionMismatch(f"keep must be 'fg' or 'bg', got {keep!r}")
    if mask.data.shape != image.data.shape[:2]:
        raise DimensionMismatch(f"mask {mask.data.shape} vs image {image.data.shape[:2]}")
    weights = mask.data if keep == "fg" else 1.0 - mask.data
    return RgbImage(image.data * weights[:, :, None])


def build_entity_references(script, descriptions, backends, seed):
    """One masked reference per unique entity, deterministic per name.

    ``backends`` carries .text_to_image and .segmenter; ``descriptions``
    maps entity name -> description text.
    """
    references = {}
    for record in find_common_entities(script):
        description = descriptions.get(record.name)
        if not description:
            raise BackendError(f"entity {record.name!r} has no description")
        entity_seed = derive_seed(seed, "entity", record.name)
        image = backends.text_to_image.generate(description, entity_seed)
        mask = segment_salient(image, backends.segmenter)
        keep = "fg" if record.kind == "foreground" else "bg"
        masked = apply_mask(image, mask, keep)
        references[record.name] = EntityReference(record, masked, record.kind, mask)
    return references


# --- PPM / PGM ----------------------------------------------------------------


def _encode_netpbm(magic, data):
    """Binary Netpbm with maxval 255 from [H, W] or [H, W, 3] floats in [0, 1]."""
    h, w = data.shape[:2]
    header = magic + f"\n{w} {h}\n255\n".encode("ascii")
    return header + np.round(data * 255.0).astype(np.uint8).tobytes()


def _decode_netpbm(raw, magic, channels):
    """[H, W, channels] floats in [0, 1] from binary 8-bit Netpbm bytes."""
    (w, h, maxval), offset = _read_header(raw, magic)
    if w < 1 or h < 1:
        raise DimensionMismatch(f"{magic.decode()} sides must be positive, got {w}x{h}")
    if not 1 <= maxval <= 255:  # 2-byte samples (maxval > 255) are not supported
        raise DimensionMismatch(f"{magic.decode()} maxval must lie in 1..255, got {maxval}")
    size = w * h * channels
    body = raw[offset:offset + size]
    if len(body) != size:
        raise DimensionMismatch(f"{magic.decode()} payload truncated")
    arr = np.frombuffer(body, dtype=np.uint8).reshape(h, w, channels)
    return arr.astype(np.float64) / maxval


def encode_ppm(image):
    """Binary P6, maxval 255."""
    return _encode_netpbm(b"P6", image.data)


def decode_ppm(raw):
    return RgbImage(_decode_netpbm(raw, b"P6", 3))


def encode_pgm(mask):
    """Binary P5, maxval 255."""
    return _encode_netpbm(b"P5", mask.data)


def decode_pgm(raw):
    return Mask(_decode_netpbm(raw, b"P5", 1)[:, :, 0])


def _read_header(raw, magic):
    if not raw.startswith(magic):
        raise DimensionMismatch(f"bad magic, expected {magic!r}")
    fields = []
    offset = len(magic)
    while len(fields) < 3:
        while offset < len(raw) and raw[offset:offset + 1].isspace():
            offset += 1
        if raw[offset:offset + 1] == b"#":  # comment line
            while offset < len(raw) and raw[offset:offset + 1] != b"\n":
                offset += 1
            continue
        start = offset
        while offset < len(raw) and not raw[offset:offset + 1].isspace():
            offset += 1
        try:
            fields.append(int(raw[start:offset]))
        except ValueError:
            raise DimensionMismatch(f"malformed header field {raw[start:offset]!r}") from None
    offset += 1  # single whitespace after maxval
    return fields, offset
