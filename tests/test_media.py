"""Real media decoders: PNG (all filters), BMP, WAV, resize, pipeline."""

import io
import struct
import wave
import zlib

import numpy as np
import pytest

from exstruct_ray.ops.media import (
    decode_bmp,
    decode_image,
    decode_png,
    decode_wav,
    encode_png,
    resize_nearest,
)


def _rand_pixels(h, w, seed=3):
    return np.random.RandomState(seed).randint(0, 256, size=(h, w, 3), dtype=np.uint8)


class TestPng:
    def test_roundtrip_filter0(self):
        px = _rand_pixels(13, 7)
        assert np.array_equal(decode_png(encode_png(px)), px)

    def _png_with_filters(self, px, filters):
        """Build a PNG applying the given per-row filter types forward."""
        h, w, _ = px.shape
        stride = w * 3
        flat = px.reshape(h, stride).astype(np.int32)
        raw = bytearray()
        for y, f in enumerate(filters):
            row = flat[y]
            prev = flat[y - 1] if y > 0 else np.zeros(stride, dtype=np.int32)
            enc = np.zeros(stride, dtype=np.int32)
            for x in range(stride):
                a = flat[y][x - 3] if x >= 3 else 0
                b = prev[x]
                c = prev[x - 3] if x >= 3 else 0
                if f == 0:
                    base = 0
                elif f == 1:
                    base = a
                elif f == 2:
                    base = b
                elif f == 3:
                    base = (a + b) // 2
                else:
                    p = a + b - c
                    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                    base = a if pa <= pb and pa <= pc else (b if pb <= pc else c)
                enc[x] = (row[x] - base) & 0xFF
            raw.append(f)
            raw.extend(enc.astype(np.uint8).tobytes())

        def chunk(ctype, body):
            crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
            return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

        ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
        return (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", ihdr)
            + chunk(b"IDAT", zlib.compress(bytes(raw)))
            + chunk(b"IEND", b"")
        )

    @pytest.mark.parametrize("filters", [[1, 2, 3, 4, 0], [4, 4, 4, 4, 4]])
    def test_all_filter_types_invert(self, filters):
        px = _rand_pixels(5, 6, seed=11)
        data = self._png_with_filters(px, filters)
        assert np.array_equal(decode_png(data), px)

    def test_grayscale_replicates_channels(self):
        h, w = 3, 4
        gray = np.arange(h * w, dtype=np.uint8).reshape(h, w)
        raw = b"".join(b"\x00" + gray[y].tobytes() for y in range(h))

        def chunk(ctype, body):
            crc = zlib.crc32(ctype + body) & 0xFFFFFFFF
            return struct.pack(">I", len(body)) + ctype + body + struct.pack(">I", crc)

        data = (
            b"\x89PNG\r\n\x1a\n"
            + chunk(b"IHDR", struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0))
            + chunk(b"IDAT", zlib.compress(raw))
            + chunk(b"IEND", b"")
        )
        out = decode_png(data)
        assert out.shape == (h, w, 3)
        assert np.array_equal(out[:, :, 0], gray)
        assert np.array_equal(out[:, :, 1], gray)

    def test_rejects_non_png(self):
        with pytest.raises(ValueError):
            decode_png(b"not a png at all")


class TestBmp:
    def test_24bit_bottom_up(self):
        px = _rand_pixels(3, 5, seed=9)
        h, w, _ = px.shape
        stride = (w * 3 + 3) & ~3
        body = bytearray()
        for y in range(h - 1, -1, -1):  # bottom-up
            row = bytearray()
            for x in range(w):
                r, g, b = px[y, x]
                row += bytes([b, g, r])
            row += b"\x00" * (stride - len(row))
            body += row
        header = (
            b"BM"
            + struct.pack("<IHHI", 54 + len(body), 0, 0, 54)
            + struct.pack("<IiiHHIIiiII", 40, w, h, 1, 24, 0, len(body), 0, 0, 0, 0)
        )
        assert np.array_equal(decode_bmp(bytes(header + body)), px)


class TestWav:
    def test_pcm16_roundtrip(self):
        rate = 8000
        t = np.arange(rate) / rate
        signal = (np.sin(2 * np.pi * 440 * t) * 30000).astype("<i2")
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(rate)
            wf.writeframes(signal.tobytes())
        samples, got_rate = decode_wav(buf.getvalue())
        assert got_rate == rate
        assert len(samples) == rate
        assert abs(float(np.max(samples)) - 30000 / 32768) < 1e-6


class TestResizeAndDispatch:
    def test_resize_nearest(self):
        px = _rand_pixels(4, 4)
        out = resize_nearest(px, 2, 2)
        assert out.shape == (2, 2, 3)
        assert np.array_equal(out[0, 0], px[0, 0])

    def test_decode_image_dispatch(self):
        px = _rand_pixels(8, 8)
        pixels, decoder = decode_image(encode_png(px), 4, 4)
        assert decoder in ("png", "pil")
        assert pixels.shape == (4, 4, 3)
        stub_pixels, stub_decoder = decode_image(b"\x00\x01garbage", 4, 4)
        assert stub_decoder == "stub"
        assert stub_pixels.shape == (4, 4, 3)

    def test_decode_image_corrupt_valid_magic_degrades(self):
        """Poison payloads with VALID magic but malformed bodies raise
        struct.error / zlib.error internally — they must degrade to the
        stub, never crash the stage (degrade-in-place contract)."""
        # BMP magic + truncated header -> struct.error inside decode_bmp
        px, dec = decode_image(b"BM" + b"\x00" * 6, 4, 4)
        assert dec == "stub" and px.shape == (4, 4, 3)
        # PNG magic + corrupt IDAT -> zlib.error inside decode_png
        good = encode_png(_rand_pixels(4, 4))
        idat = good.find(b"IDAT")
        corrupt = good[: idat + 4] + b"\xff\xff\xff\xff" + good[idat + 8 :]
        px, dec = decode_image(corrupt, 4, 4)
        assert dec == "stub" and px.shape == (4, 4, 3)
        # bare PNG magic, nothing else -> ValueError path
        px, dec = decode_image(b"\x89PNG\r\n\x1a\n", 4, 4)
        assert dec == "stub" and px.shape == (4, 4, 3)


class TestAudioPipeline:
    def test_image_pipeline_uses_real_decoder(self, ray_session):
        import ray.data

        from exstruct_ray.ops.media import extract_media_features

        px = _rand_pixels(16, 16, seed=5)
        ds = ray.data.from_items(
            [{"media_id": i, "payload": encode_png(px)} for i in range(4)]
        )
        out = extract_media_features(ds, batch_size=2).to_pandas()
        assert set(out["decoder"]) <= {"png", "pil"}
        expected = px.reshape(-1, 3).mean(axis=0)
        for feat in out["feature"]:
            assert np.allclose(feat, expected, atol=1.0)


class TestStereoWav:
    def test_stereo_downmix_duration(self):
        from exstruct_ray.ops.media import decode_wav

        rate = 4000
        t = np.arange(rate) / rate
        left = (np.sin(2 * np.pi * 220 * t) * 20000).astype("<i2")
        right = (np.sin(2 * np.pi * 220 * t) * 10000).astype("<i2")
        interleaved = np.empty(rate * 2, dtype="<i2")
        interleaved[0::2] = left
        interleaved[1::2] = right
        buf = io.BytesIO()
        with wave.open(buf, "wb") as wf:
            wf.setnchannels(2)
            wf.setsampwidth(2)
            wf.setframerate(rate)
            wf.writeframes(interleaved.tobytes())
        samples, got_rate = decode_wav(buf.getvalue())
        assert got_rate == rate
        assert len(samples) == rate  # per-frame, not per interleaved sample
        expected = (20000 / 32768 + 10000 / 32768) / 2
        assert abs(float(np.max(samples)) - expected) < 1e-3
