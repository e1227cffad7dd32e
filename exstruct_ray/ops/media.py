"""Multimodal-column stages: decode / feature-extract / resize over binary
payload columns.

Image/audio payloads are opaque ``binary`` columns with typed metadata
columns alongside (the input_hint's media representation). The decode
kernels are REAL for the formats the standard library can handle —

  - PNG (non-interlaced, 8-bit gray/RGB/RGBA) via zlib + vectorized
    scanline unfiltering,
  - BMP (uncompressed 24/32-bit BITMAPINFOHEADER),
  - WAV (PCM) via the stdlib ``wave`` module,

with PIL used instead when importable (it is not baked into this
container), and a clearly-marked deterministic stub ONLY for byte strings
in no recognized format. Resize is a real nearest-neighbor kernel.

Scale contract: payloads are large, so these run as task ``map_batches``
stages with small batches — batch × tasks per node must fit the worker
heap.
"""

from __future__ import annotations

import hashlib
import struct
import zlib

import numpy as np
import pandas as pd

MEDIA_COLUMNS = ("media_id", "payload", "media_type", "width", "height")

try:  # pragma: no cover - PIL absent in this container
    from PIL import Image as _PILImage
except ImportError:
    _PILImage = None


# ---------------------------------------------------------------------------
# Real decoders (stdlib-only)
# ---------------------------------------------------------------------------


def decode_png(data: bytes) -> np.ndarray:
    """Decode a non-interlaced 8-bit PNG to (H, W, 3) uint8.

    Supports color types 0 (gray), 2 (RGB), 6 (RGBA; alpha dropped). Raises
    ValueError on anything else — callers fall back explicitly.
    """
    if data[:8] != b"\x89PNG\r\n\x1a\n":
        raise ValueError("not a PNG")
    pos = 8
    width = height = None
    bit_depth = color_type = interlace = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        ctype = data[pos + 4 : pos + 8]
        body = data[pos + 8 : pos + 8 + length]
        if ctype == b"IHDR":
            width, height, bit_depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", body
            )
        elif ctype == b"IDAT":
            idat.extend(body)
        elif ctype == b"IEND":
            break
        pos += 12 + length
    if width is None or not idat:
        raise ValueError("malformed PNG")
    if bit_depth != 8 or interlace != 0:
        raise ValueError("unsupported PNG variant")
    channels = {0: 1, 2: 3, 6: 4}.get(color_type)
    if channels is None:
        raise ValueError(f"unsupported PNG color type {color_type}")

    raw = zlib.decompress(bytes(idat))
    stride = width * channels
    if len(raw) != height * (stride + 1):
        raise ValueError("PNG size mismatch")
    arr = np.frombuffer(raw, dtype=np.uint8).reshape(height, stride + 1)
    filters = arr[:, 0]
    scan = arr[:, 1:].astype(np.int32)

    out = np.zeros_like(scan)
    for y in range(height):
        f = filters[y]
        row = scan[y]
        prev = out[y - 1] if y > 0 else np.zeros(stride, dtype=np.int32)
        if f == 0:
            out[y] = row
        elif f == 2:  # Up
            out[y] = (row + prev) & 0xFF
        else:
            # Sub/Average/Paeth have an intra-row dependency — per-pixel.
            cur = out[y]
            for x in range(stride):
                a = cur[x - channels] if x >= channels else 0
                b = prev[x]
                c = prev[x - channels] if x >= channels else 0
                if f == 1:  # Sub
                    base = a
                elif f == 3:  # Average
                    base = (a + b) // 2
                elif f == 4:  # Paeth
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    base = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                else:
                    raise ValueError(f"bad PNG filter {f}")
                cur[x] = (row[x] + base) & 0xFF

    pixels = out.astype(np.uint8).reshape(height, width, channels)
    if channels == 1:
        return np.repeat(pixels, 3, axis=2)
    return pixels[:, :, :3]


def decode_bmp(data: bytes) -> np.ndarray:
    """Decode an uncompressed 24/32-bit BITMAPINFOHEADER BMP to (H, W, 3)."""
    if data[:2] != b"BM":
        raise ValueError("not a BMP")
    (offset,) = struct.unpack("<I", data[10:14])
    (hdr_size,) = struct.unpack("<I", data[14:18])
    if hdr_size < 40:
        raise ValueError("unsupported BMP header")
    width, height = struct.unpack("<ii", data[18:26])
    (bpp,) = struct.unpack("<H", data[28:30])
    (compression,) = struct.unpack("<I", data[30:34])
    if compression != 0 or bpp not in (24, 32):
        raise ValueError("unsupported BMP variant")
    flipped = height > 0
    height = abs(height)
    bytes_pp = bpp // 8
    stride = (width * bytes_pp + 3) & ~3
    rows = []
    for y in range(height):
        line = data[offset + y * stride : offset + y * stride + width * bytes_pp]
        row = np.frombuffer(line, dtype=np.uint8).reshape(width, bytes_pp)
        rows.append(row[:, 2::-1])  # BGR(A) → RGB
    pixels = np.stack(rows)
    return pixels[::-1] if flipped else pixels


def encode_png(pixels: np.ndarray) -> bytes:
    """Minimal PNG encoder (filter 0, RGB8) — test/datagen counterpart."""
    height, width, _ = pixels.shape
    raw = b"".join(
        b"\x00" + pixels[y].astype(np.uint8).tobytes() for y in range(height)
    )

    def chunk(ctype: bytes, body: bytes) -> bytes:
        crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
        return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        b"\x89PNG\r\n\x1a\n"
        + chunk(b"IHDR", ihdr)
        + chunk(b"IDAT", zlib.compress(raw))
        + chunk(b"IEND", b"")
    )


def resize_nearest(pixels: np.ndarray, target_w: int, target_h: int) -> np.ndarray:
    """Nearest-neighbor resize — a real vectorized kernel, no libraries."""
    h, w = pixels.shape[:2]
    ys = (np.arange(target_h) * h // target_h).clip(0, h - 1)
    xs = (np.arange(target_w) * w // target_w).clip(0, w - 1)
    return pixels[ys][:, xs]


def decode_wav(data: bytes) -> tuple[np.ndarray, int]:
    """Decode a PCM WAV payload → (samples float64 in [-1, 1], sample_rate)."""
    import io
    import wave

    with wave.open(io.BytesIO(data), "rb") as wf:
        rate = wf.getframerate()
        n = wf.getnframes()
        width = wf.getsampwidth()
        channels = wf.getnchannels()
        frames = wf.readframes(n)
    if width == 2:
        samples = np.frombuffer(frames, dtype="<i2").astype(np.float64) / 32768.0
    elif width == 1:
        samples = (
            np.frombuffer(frames, dtype=np.uint8).astype(np.float64) - 128.0
        ) / 128.0
    else:
        raise ValueError(f"unsupported WAV sample width {width}")
    if channels > 1:
        # Downmix interleaved channels to mono: duration and features are
        # per-frame, not per-interleaved-sample.
        usable = len(samples) - (len(samples) % channels)
        samples = samples[:usable].reshape(-1, channels).mean(axis=1)
    return samples, rate


def _decode_image_stub(payload: bytes, target_w: int, target_h: int) -> np.ndarray:
    """Deterministic FAKE decode for unrecognized byte strings.

    Loudly not a real decoder — used only when the payload is in no format
    the real decoders above handle; the output shape/dtype contract
    (H, W, 3) uint8 is the real one.
    """
    digest = hashlib.sha256(payload).digest()
    seed = int.from_bytes(digest[:8], "little") % (2**32)
    rng = np.random.RandomState(seed)
    return rng.randint(0, 256, size=(target_h, target_w, 3), dtype=np.uint8)


# Degrade-in-place contract: a CORRUPT payload with a valid magic raises
# struct.error (truncated header), zlib.error (bad IDAT), or IndexError —
# not just ValueError. All of them must route to the next decoder / the
# stub rather than crash the whole Ray task (one poison row, one block).
_DECODE_ERRORS = (ValueError, struct.error, zlib.error, IndexError, OverflowError)


def decode_image(payload: bytes, target_w: int, target_h: int) -> tuple[np.ndarray, str]:
    """Decode + resize any supported image payload.

    Returns (pixels (target_h, target_w, 3) uint8, decoder_name). Order:
    PIL if installed → stdlib PNG/BMP decoders → deterministic stub.
    Corrupt payloads (valid magic, malformed body) fall through to the
    stub — they never propagate an exception out of the stage.
    """
    if _PILImage is not None:  # pragma: no cover - PIL absent here
        import io

        try:
            with _PILImage.open(io.BytesIO(payload)) as img:
                pixels = np.asarray(img.convert("RGB"))
            return resize_nearest(pixels, target_w, target_h), "pil"
        except Exception:
            pass
    try:
        return resize_nearest(decode_png(payload), target_w, target_h), "png"
    except _DECODE_ERRORS:
        pass
    try:
        return resize_nearest(decode_bmp(payload), target_w, target_h), "bmp"
    except _DECODE_ERRORS:
        pass
    return _decode_image_stub(payload, target_w, target_h), "stub"


MULTIPNG_MAGIC = b"MPNG"


def encode_multipng(frames: list[np.ndarray]) -> bytes:
    """Pack frames as a length-prefixed concatenated-PNG container.

    A real (if minimal) multi-frame container for testing the video
    plumbing without ffmpeg: 4-byte magic, uint32 frame count, then
    (uint32 length, PNG bytes) per frame.
    """
    body = b"".join(
        struct.pack("<I", len(data)) + data
        for data in (encode_png(f) for f in frames)
    )
    return MULTIPNG_MAGIC + struct.pack("<I", len(frames)) + body


def decode_multipng(data: bytes) -> list[np.ndarray]:
    """Unpack a MULTIPNG container to decoded frames."""
    if data[:4] != MULTIPNG_MAGIC:
        raise ValueError("not a multipng container")
    (count,) = struct.unpack("<I", data[4:8])
    frames = []
    pos = 8
    for _ in range(count):
        (length,) = struct.unpack("<I", data[pos : pos + 4])
        frames.append(decode_png(data[pos + 4 : pos + 4 + length]))
        pos += 4 + length
    return frames


def extract_media_features(ds, target_w: int = 32, target_h: int = 32,
                           batch_size: int = 16):
    """Media decode/feature pipeline: decode + resize + feature-extract
    per media row, in small batches (large binary payloads)."""

    def features(batch: pd.DataFrame) -> pd.DataFrame:
        feats = []
        decoders = []
        for payload in batch["payload"]:
            data = bytes(payload) if payload is not None else b""
            pixels, decoder = decode_image(data, target_w, target_h)
            # Feature = per-channel mean — stand-in for a real embedding.
            feats.append(pixels.reshape(-1, 3).mean(axis=0).astype(np.float32))
            decoders.append(decoder)
        out = batch[["media_id"]].copy()
        out["feature"] = [f.tolist() for f in feats]
        out["feat_dim"] = 3
        out["decoder"] = decoders
        return out

    return ds.map_batches(features, batch_format="pandas", batch_size=batch_size)


# ---------------------------------------------------------------------------
# Perceptual hashing (average hash) — the image-dedup signature
# ---------------------------------------------------------------------------


def synth_bit_image(bits64: int, block: int = 8) -> np.ndarray:
    """Deterministic 8x8-block test image: block (r, c) is white when bit
    63-(r*8+c) of ``bits64`` is set (MSB-first row-major, so the aHash of
    the image round-trips to the same 64-bit value / hex string)."""
    bits = np.array(
        [(bits64 >> (63 - i)) & 1 for i in range(64)], dtype=np.uint8
    ).reshape(8, 8)
    img = np.repeat(np.repeat(bits * np.uint8(255), block, 0), block, 1)
    return np.repeat(img[:, :, None], 3, axis=2)


def ahash64(pixels: np.ndarray) -> int:
    """Average hash (aHash): 8x8 mean-pooled grayscale thresholded at the
    global mean, MSB-first row-major. All-integer: block b is set iff
    64 * block_sum(b) > total_sum — the exact cross-multiplied form of
    "block mean > image mean" (no float division, so the SQL oracle's
    bit-exact hex comparison holds). A constant image hashes to 0."""
    h, w = pixels.shape[0], pixels.shape[1]
    gray = pixels.astype(np.int64).sum(axis=2) if pixels.ndim == 3 else (
        pixels.astype(np.int64) * 3
    )
    bh, bw = h // 8, w // 8
    pooled = (
        gray[: bh * 8, : bw * 8]
        .reshape(8, bh, 8, bw)
        .sum(axis=(1, 3), dtype=np.int64)
    )
    # normalize unequal block sizes away by construction (h, w multiples
    # of 8 in this engine's media path); pooled holds per-block sums
    total = int(pooled.sum())
    bits = (pooled.reshape(-1) * 64 > total).astype(np.uint64)
    out = np.uint64(0)
    for b in bits:
        out = (out << np.uint64(1)) | b
    return int(out)


def encode_wav(samples_i16: np.ndarray, rate: int = 16000) -> bytes:
    """Minimal 16-bit mono PCM WAV encoder (stdlib wave) — datagen
    counterpart of decode_wav."""
    import io
    import wave

    buf = io.BytesIO()
    with wave.open(buf, "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(rate)
        wf.writeframes(np.asarray(samples_i16, dtype="<i2").tobytes())
    return buf.getvalue()


def synth_bit_audio(bits64: int, frame: int = 32) -> np.ndarray:
    """Deterministic test clip: 64 constant-amplitude frames; frame i is
    loud (8000) when bit 63-i of ``bits64`` is set, quiet (1000)
    otherwise — so the energy fingerprint round-trips to the same bits."""
    bits = np.array(
        [(bits64 >> (63 - i)) & 1 for i in range(64)], dtype=np.int64
    )
    return np.repeat(np.where(bits == 1, 8000, 1000), frame).astype(np.int16)


def audio_fingerprint64(samples: np.ndarray) -> int:
    """Energy fingerprint: 64 frames, frame bit set iff
    64 * frame_abs_sum > total_abs_sum (the exact integer form of
    "frame energy above the mean"). decode_wav's float64 samples are
    dyadic rationals (int16 / 32768), so scaling back to integers is
    lossless and the hex oracle comparison is exact."""
    x = np.abs(np.round(np.asarray(samples) * 32768.0)).astype(np.int64)
    usable = (len(x) // 64) * 64
    if usable == 0:
        return 0
    pooled = x[:usable].reshape(64, -1).sum(axis=1, dtype=np.int64)
    total = int(pooled.sum())
    out = np.uint64(0)
    for b in (pooled * 64 > total).astype(np.uint64):
        out = (out << np.uint64(1)) | b
    return int(out)


def video_fingerprint64(frames: list[np.ndarray], every_nth: int = 1) -> int:
    """64-bit video fingerprint: per-sampled-frame aHash, combined by
    per-bit MAJORITY vote (strict — ties clear to 0), so a handful of
    inserted/branded/noise frames can't move the signature. The video
    analogue of image aHash: two cuts of the same footage land within
    small hamming distance and feed the same pigeonhole banding
    (ops/dedup.hamming64_pairs) as image/text signatures."""
    step = max(1, every_nth)
    hashes = [ahash64(frames[i]) for i in range(0, len(frames), step)]
    if not hashes:
        return 0
    mat = np.array(hashes, dtype=np.uint64)
    shifts = np.arange(64, dtype=np.uint64)
    bits = ((mat[:, None] >> shifts[None, :]) & np.uint64(1)).astype(np.int64)
    ones = bits.sum(axis=0)
    maj = (2 * ones > len(hashes)).astype(np.uint64)
    return int((maj << shifts).sum())
