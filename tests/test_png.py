"""Stdlib PNG codec + the PNG annotated-page sink (reference S13 parity:
the reference writes real PNGs, pdf_visualizer.py:186-189). Round-trip
through our own decoder pins validity; a hand-built PNG with all five
filter types pins decode generality; the renderer test pins pixels."""

import hashlib
import struct
import zlib

import numpy as np
import pytest

from credit_ocr_backend_ray.functions.png import (
    _SIG, _chunk, decode_png, encode_png)


def test_png_roundtrip_random_and_flat():
    rng = np.random.default_rng(3)
    for arr in (rng.integers(0, 256, (37, 53, 3)).astype(np.uint8),
                np.full((20, 30, 3), 255, np.uint8),
                np.zeros((1, 1, 3), np.uint8)):
        assert (decode_png(encode_png(arr)) == arr).all()


def test_png_header_fields():
    png = encode_png(np.zeros((7, 5, 3), np.uint8))
    assert png.startswith(_SIG)
    w, h, depth, ctype = struct.unpack_from(">IIBB", png, 16)
    assert (w, h, depth, ctype) == (5, 7, 8, 2)
    # chunk CRCs are real (a flipped byte must fail zlib.crc32 check)
    ihdr_crc = struct.unpack_from(">I", png, 8 + 4 + 4 + 13)[0]
    assert ihdr_crc == zlib.crc32(png[12:12 + 4 + 13]) & 0xFFFFFFFF


def test_png_decode_all_filter_types():
    """Decode a PNG whose rows cycle filters 0..4 (our encoder only emits
    Up, but third-party RGB8 PNGs use all five)."""
    rng = np.random.default_rng(5)
    h, w = 10, 7
    arr = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    flat = arr.reshape(h, w * 3).astype(np.int16)

    def filt_row(ft, cur, prev):
        out = np.empty_like(cur)
        for i in range(cur.shape[0]):
            a = int(cur[i - 3]) if i >= 3 else 0
            b = int(prev[i])
            c = int(prev[i - 3]) if i >= 3 else 0
            if ft == 0:
                pred = 0
            elif ft == 1:
                pred = a
            elif ft == 2:
                pred = b
            elif ft == 3:
                pred = (a + b) >> 1
            else:
                p = a + b - c
                pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = (a if (pa_ <= pb and pa_ <= pc)
                        else (b if pb <= pc else c))
            out[i] = (int(cur[i]) - pred) & 0xFF
        return out

    lines = []
    prev = np.zeros(w * 3, np.int16)
    for y in range(h):
        ft = y % 5
        lines.append(bytes([ft])
                     + filt_row(ft, flat[y], prev).astype(np.uint8).tobytes())
        prev = flat[y]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    png = (_SIG + _chunk(b"IHDR", ihdr)
           + _chunk(b"IDAT", zlib.compress(b"".join(lines)))
           + _chunk(b"IEND", b""))
    assert (decode_png(png) == arr).all()


def test_png_rejects_non_png_and_unsupported():
    with pytest.raises(ValueError):
        decode_png(b"P6\n1 1\n255\n" + bytes(3))
    # grayscale (color type 0) is out of scope -> explicit error
    ihdr = struct.pack(">IIBBBBB", 1, 1, 8, 0, 0, 0, 0)
    png = (_SIG + _chunk(b"IHDR", ihdr)
           + _chunk(b"IDAT", zlib.compress(b"\x00\x00"))
           + _chunk(b"IEND", b""))
    with pytest.raises(ValueError):
        decode_png(png)


def test_render_annotation_png_pixels():
    """The PNG sink carries the exact raster: decode and assert the same
    pixels the PPM test pins (green border at the bbox, white corner)."""
    from credit_ocr_backend_ray.stages.multimodal import (
        PAGE_RENDER_DPI, render_annotation_png, render_annotation_ppm)

    fields = [{"name": "f", "page": 1, "confidence": 0.9,
               "bounding_box": [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": 1.0},
                                {"x": 2.0, "y": 1.5}, {"x": 1.0, "y": 1.5}]}]
    img = decode_png(render_annotation_png(fields))
    w, h = int(8.5 * PAGE_RENDER_DPI), int(11 * PAGE_RENDER_DPI)
    assert img.shape == (h, w, 3)
    y, x = int(1.0 * PAGE_RENDER_DPI), int(1.5 * PAGE_RENDER_DPI)
    assert tuple(img[y + 1, x]) == (0, 255, 0)
    assert tuple(img[0, 0]) == (255, 255, 255)
    # PNG and PPM encode the SAME raster bytes
    ppm = render_annotation_ppm(fields)
    hdr = f"P6\n{w} {h}\n255\n".encode()
    assert img.tobytes() == ppm[len(hdr):]
    # and the compressed page is orders of magnitude smaller
    assert len(render_annotation_png(fields)) < len(ppm) // 100


def test_resize_image_png_path():
    from credit_ocr_backend_ray.stages.multimodal import resize_image

    px = np.zeros((2, 4, 3), np.uint8)
    px[:, :2] = 10
    px[:, 2:] = 200
    out = decode_png(resize_image(encode_png(px), 2))
    assert out.shape == (1, 2, 3)
    assert (out[0, 0] == 10).all() and (out[0, 1] == 200).all()


def test_media_feature_extractor_real_png_decode(ray_session):
    """The feature extractor REALLY decodes PNG/PPM payloads (width/height
    from pixels); unknown formats keep the sha+size record."""
    import ray.data as rd
    from credit_ocr_backend_ray.stages.multimodal import MediaFeatureExtractor

    png = encode_png(np.zeros((12, 9, 3), np.uint8))
    ppm = b"P6\n4 2\n255\n" + bytes(24)
    rows = [
        {"media_id": "a", "media_type": "image", "payload": png,
         "meta": "{}"},
        {"media_id": "b", "media_type": "image", "payload": ppm,
         "meta": "{}"},
        {"media_id": "c", "media_type": "image", "payload": b"JPEGISH",
         "meta": "{}"},
    ]
    out = (rd.from_items(rows)
           .map_batches(MediaFeatureExtractor, batch_format="pyarrow",
                        batch_size=8, concurrency=1)
           .to_pandas().set_index("media_id"))
    assert (out.loc["a", "width"], out.loc["a", "height"]) == (9, 12)
    assert (out.loc["b", "width"], out.loc["b", "height"]) == (4, 2)
    assert out.loc["b", "n_frames"] == 1
    assert pd_isna(out.loc["c", "width"]) and out.loc["c", "decode_ok"]


def pd_isna(v):
    import pandas as pd
    return pd.isna(v)


def _png_of(w: int, h: int, idat: bytes, *, split: int = 0) -> bytes:
    """An RGB8 PNG around an already-deflated IDAT payload (``split`` > 0
    cuts it into IDAT chunks of that many bytes)."""
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    parts = ([idat[i:i + split] for i in range(0, len(idat), split)]
             if split else [idat])
    return (_SIG + _chunk(b"IHDR", ihdr)
            + b"".join(_chunk(b"IDAT", p) for p in parts)
            + _chunk(b"IEND", b""))


def _idat_of(png: bytes) -> bytes:
    """The (single) IDAT payload of one of ``encode_png``'s files."""
    at = png.index(b"IDAT")
    (n,) = struct.unpack_from(">I", png, at - 4)
    return png[at + 4:at + 4 + n]


def _png_parity_corpus() -> list[bytes]:
    """Seeded PNGs for the decoder parity guard: raster page renders at
    100, 200 and 300 dpi; rows that change only in G or only in B; an
    all-zero first row and an all-zero image; 1x1, 0-row and 0-column
    images; mixed-filter images; split, truncated, short, over-long and
    checksum-flipped IDAT streams; a bad filter byte."""
    from credit_ocr_backend_ray.sources.synth import raster_doc_bytes

    rng = np.random.default_rng(11)
    out = [raster_doc_bytes(0, 100), raster_doc_bytes(3, 200),
           raster_doc_bytes(5, 300)]
    gb = np.full((16, 9, 3), 255, np.uint8)
    gb[5:, 3, 1] = 0    # from row 5 on only G changes
    gb[9:, 7, 2] = 17   # from row 9 on only B changes
    gb[12, :, 1] = 40   # one row differs from both neighbours in G only
    zero_top = rng.integers(0, 256, (12, 7, 3)).astype(np.uint8)
    zero_top[0] = 0
    zero_top[4] = zero_top[3]
    out += [encode_png(a) for a in (
        gb, zero_top, np.zeros((9, 5, 3), np.uint8),
        np.array([[[9, 8, 7]]], np.uint8), np.zeros((0, 4, 3), np.uint8),
        np.zeros((3, 0, 3), np.uint8))]

    h, w = 14, 6
    arr = rng.integers(0, 256, (h, w, 3)).astype(np.uint8)
    arr[6:9] = arr[5]
    up = np.zeros((h, w * 3), np.uint8)
    up[0] = arr[0].reshape(-1)
    up[1:] = (arr[1:].astype(np.int16) - arr[:-1]).reshape(h - 1, -1)
    lines = np.concatenate([np.full((h, 1), 2, np.uint8), up], axis=1)
    mixed = lines.copy()
    mixed[7, 0] = 0  # an unfiltered row amid Up rows
    mixed[7, 1:] = arr[7].reshape(-1)
    bad = lines.copy()
    bad[10, 0] = 5
    for ls in (mixed, bad):
        out.append(_png_of(w, h, zlib.compress(ls.tobytes())))

    page = raster_doc_bytes(1, 100)
    (pw, ph) = struct.unpack_from(">II", page, 16)
    idat = _idat_of(page)
    raw = zlib.decompress(idat)
    flipped = bytearray(idat)
    flipped[-1] ^= 0x10  # the Adler-32 check
    out += [
        _png_of(pw, ph, idat, split=997),
        _png_of(pw, ph, idat[:len(idat) // 2]),  # truncated mid-stream
        _png_of(pw, ph, idat[:-4]),  # full payload, no Adler-32
        _png_of(pw, ph, idat[:-1]),
        _png_of(pw, ph, bytes(flipped)),
        _png_of(pw, ph, zlib.compress(raw[:-1])),  # one byte short
        _png_of(pw, ph, zlib.compress(raw + b"\x00")),  # one byte over
        _png_of(pw, ph, zlib.compress(raw + bytes(5 * len(raw)))),
        _png_of(pw, ph, idat + b"trailing bytes"),
        _png_of(pw, ph + 1, idat),  # IHDR claims one row more
    ]
    return out


def _png_outcome(data: bytes) -> bytes:
    try:
        a = decode_png(data)
    except Exception as e:  # noqa: BLE001 — the error is the outcome
        return f"{type(e).__name__}: {e}".encode()
    return str(a.shape).encode() + a.tobytes()


# sha256 over the outcomes of _png_parity_corpus(), from the decoder that
# un-filtered every row and inflated the whole IDAT at once
_PNG_PARITY_DIGEST = ("12f28847823c26c4e063a790ba6f02b5"
                      "d237d9172dd1b43fe72951cbc2b0bf2a")


def test_png_decoder_outcomes_match_row_by_row_decoder():
    """Every array and every (exception type, message) of the corpus is
    what un-filtering each row in turn produced; the raster renders are
    also OCR'd, so the channel-0 ink plane the raster reads is pinned."""
    from credit_ocr_backend_ray.functions.raster import extract_raster_layout

    hsh = hashlib.sha256()
    corpus = _png_parity_corpus()
    for d in corpus:
        hsh.update(hashlib.sha256(_png_outcome(d)).digest())
    for d in corpus[:3]:
        layout = repr(extract_raster_layout(d)).encode()
        hsh.update(hashlib.sha256(layout).digest())
    assert len(corpus) == 21
    assert hsh.hexdigest() == _PNG_PARITY_DIGEST


def test_decode_png_plane_is_the_rgb_channel():
    """``decode_png(d, c)`` is channel ``c`` of ``decode_png(d)``, as a
    contiguous (h, w) array, and fails as ``decode_png(d)`` fails."""
    for d in _png_parity_corpus():
        rgb = _png_outcome(d)
        for c in range(3):
            try:
                plane = decode_png(d, c)
            except Exception as e:  # noqa: BLE001
                assert rgb == f"{type(e).__name__}: {e}".encode()
                continue
            full = decode_png(d)
            assert plane.flags.c_contiguous and plane.dtype == np.uint8
            assert plane.shape == full.shape[:2]
            assert (plane == full[:, :, c]).all()


def test_png_inflate_bomb_is_a_bounded_error_row():
    """A 100x100 PNG whose IDAT inflates to 200 MB: inflate stops one
    byte past the declared size, so the row is a size-mismatch error and
    the decoder never holds the whole payload."""
    import tracemalloc

    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document
    from credit_ocr_backend_ray.functions.raster import _phys_chunk

    co = zlib.compressobj(9)
    zeros = bytes(1 << 20)
    idat = b"".join(co.compress(zeros) for _ in range(200)) + co.flush()
    bomb = _png_of(100, 100, idat)
    bomb = bomb[:33] + _phys_chunk(100) + bomb[33:]
    del zeros
    cfg = default_config()["credit_request"]
    tracemalloc.start()
    try:
        out = extract_document(bomb, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out["status"] == "Fehlerhaft"
    assert out["error"] == "ValueError: PNG scanline payload size mismatch"
    assert peak < 8 << 20, peak
