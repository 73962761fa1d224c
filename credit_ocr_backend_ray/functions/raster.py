"""Raster-image (PNG + baseline-JPEG) text channel: deterministic glyph
rasterizer + a real segmentation/template-matching decoder.

Closes the reference's last input type: ``.png/.jpg/.jpeg`` uploads are
accepted at /root/reference/src/api/main.py:331-338 and OCR'd by Azure at
src/ocr/azure_ocr_client.py:28-63 — scanned forms ARE images in the
reference's domain. The cloud OCR is out of scope in-sandbox, so the
decode half is a DETERMINISTIC OCR: the page is rendered in a synthetic
monospace glyph alphabet (see below), and the decoder performs the actual
OCR pipeline stages — binarization, line-band segmentation, x-gap run
segmentation, scale/baseline registration, per-cell template
classification, word grouping, bounding-box recovery in inches — with
exact-match templates instead of a learned classifier. All the Ray-side
plumbing (payload sniffing, schema, poison isolation, batch shape) is
real and shared with the PDF/layout/HTML channels.

The glyph alphabet
------------------

There are no font files in this container, so glyph bitmaps are derived
deterministically from the codepoint: a 12x8 cell whose bits come from
``sha256("cob-glyph-v1:<ord>")``, with four REGISTRATION constraints
forced onto every glyph:

- ink at cell row 0 and row 11 (so a text run's ink height is exactly
  ``12*s`` pixels and the integer scale ``s`` and cell top register
  without search);
- ink in cell column 0 (a run's leftmost ink column IS its cell left);
- every cell column carries ink (intra-word blank column runs are
  exactly ``8*s*n_spaces`` — spaces — so word segmentation is exact).

Distinctness over the supported charset is asserted at import; 96-bit
patterns make accidental collisions impossible in practice. A glyph set
this synthetic cannot read third-party scans — that limitation is
inherent to a no-network, no-font sandbox and is documented in SURVEY
§2.10a; everything around the classifier is the real algorithm.

Geometry: pixel coordinates are ``inches * dpi``; the DPI rides in the
PNG's standard ``pHYs`` chunk (pixels per metre), so the decoder needs no
side channel. A run of height ``h_in`` renders at integer scale
``s = h_in*dpi/12`` (raises if non-integral — the channel's documented
scope) with a glyph advance of ``8*s`` px = ``(2/3)*h_in`` inches.
"""

from __future__ import annotations

import hashlib
import struct
import zlib
from typing import Any

import numpy as np

from credit_ocr_backend_ray.functions.png import decode_png, encode_png

GLYPH_H, GLYPH_W = 12, 8
_GLYPH_SALT = "cob-glyph-v1"
# inter-run segments split at blank column runs >= this many pixels;
# the renderer enforces spaces (8*s px) stay below it and callers must
# place independent runs >= this far apart horizontally
SEG_GAP_PX = 64

# every character the synth corpus (sources/synth.py form_rows) can emit,
# plus headroom: printable ASCII + German letters + currency/measure marks
CHARSET = ([chr(c) for c in range(33, 127)]
           + list("ÄÖÜäöüß€²³§°–"))


def glyph_bitmap(ch: str) -> np.ndarray:
    """12x8 bool cell for one character (space has no bitmap — it is the
    absence of ink). Deterministic in the codepoint; registration marks
    forced per the module docstring."""
    if ch == " ":
        raise ValueError("space is rendered as a blank cell, not a glyph")
    h = hashlib.sha256(f"{_GLYPH_SALT}:{ord(ch)}".encode()).digest()
    bits = np.unpackbits(np.frombuffer(h[:12], dtype=np.uint8))
    cell = bits.reshape(GLYPH_H, GLYPH_W).astype(bool)
    cell[0, 0] = cell[GLYPH_H - 1, 0] = True  # scale/top registration
    for c in range(GLYPH_W):  # no blank columns inside a glyph
        if not cell[:, c].any():
            cell[(ord(ch) * 7 + c) % GLYPH_H, c] = True
    return cell


def _build_templates() -> dict[bytes, str]:
    t: dict[bytes, str] = {}
    for ch in CHARSET:
        key = np.packbits(glyph_bitmap(ch)).tobytes()
        if key in t:  # pragma: no cover — would be a salt-version bug
            raise RuntimeError(f"glyph collision: {t[key]!r} vs {ch!r}")
        t[key] = ch
    return t


# one dict per worker process (module import), the moral equivalent of
# actor-__init__ state for the stateless-task extraction path
_TEMPLATES = _build_templates()
_GLYPHS = {ch: glyph_bitmap(ch) for ch in CHARSET}


# ------------------------------------------------------------------ writer


def _phys_chunk(dpi: int) -> bytes:
    ppm = round(dpi / 0.0254)
    body = struct.pack(">IIB", ppm, ppm, 1)
    return (struct.pack(">I", len(body)) + b"pHYs" + body
            + struct.pack(">I", zlib.crc32(b"pHYs" + body) & 0xFFFFFFFF))


def _render_ink(runs: list[dict[str, Any]], dpi: int) -> np.ndarray:
    """Shared rasterizer: text runs -> boolean ink array (see
    ``render_page_png`` for the geometry contract)."""
    placed = []
    max_x = max_y = 0
    for r in runs:
        s_f = r["h_in"] * dpi / GLYPH_H
        s = round(s_f)
        if s < 1 or abs(s_f - s) > 1e-9:
            raise ValueError(
                f"h_in={r['h_in']} not an integer glyph scale at {dpi} dpi")
        if GLYPH_W * s >= SEG_GAP_PX:
            raise ValueError("glyph cell >= segment gap; lower h_in or dpi")
        x0, t = r["x_in"] * dpi, r["y_top_in"] * dpi
        if abs(x0 - round(x0)) > 1e-6 or abs(t - round(t)) > 1e-6:
            raise ValueError("run origin not integral in pixels")
        x0, t = round(x0), round(t)
        text = r["text"]
        if any(ch != " " and ch not in _GLYPHS for ch in text):
            bad = next(ch for ch in text if ch != " " and ch not in _GLYPHS)
            raise ValueError(f"character {bad!r} not in the glyph charset")
        placed.append((text, x0, t, s))
        max_x = max(max_x, x0 + GLYPH_W * s * len(text))
        max_y = max(max_y, t + GLYPH_H * s)

    pad = 4
    ink = np.zeros((max_y + pad, max_x + pad), dtype=bool)
    for text, x0, t, s in placed:
        base = np.zeros((GLYPH_H, GLYPH_W * len(text)), dtype=bool)
        for k, ch in enumerate(text):
            if ch != " ":
                base[:, k * GLYPH_W:(k + 1) * GLYPH_W] = _GLYPHS[ch]
        big = np.kron(base, np.ones((s, s), dtype=bool))
        ink[t:t + GLYPH_H * s, x0:x0 + GLYPH_W * s * len(text)] |= big
    return ink


def render_page_png(runs: list[dict[str, Any]], dpi: int = 200) -> bytes:
    """Render text runs (same shape as ``pdf.build_pdf``'s:
    ``{"text", "x_in", "y_top_in", "h_in"}``) onto a white page; returns
    PNG bytes carrying the DPI in a ``pHYs`` chunk. All geometry must be
    integral in pixels at this DPI and ``h_in*dpi`` divisible by 12."""
    ink = _render_ink(runs, dpi)
    page = np.full((*ink.shape, 3), 255, dtype=np.uint8)
    page[ink] = 0
    png = encode_png(page)
    # splice pHYs right after IHDR (8-byte sig + 25-byte IHDR chunk)
    return png[:33] + _phys_chunk(dpi) + png[33:]


def render_page_jpeg(runs: list[dict[str, Any]], dpi: int = 200) -> bytes:
    """The same page render as JPEG (r5: the reference's ``.jpg/.jpeg``
    upload channel, api/main.py:331-338): grayscale baseline JFIF at
    quality=100 — all-ones quant tables, so the round-trip error is the
    DCT rounding (±1-2 gray levels), which binarization at 128 absorbs
    exactly; the DPI rides in the JFIF APP0 density fields. Extraction
    through this channel is byte-identical to the PNG channel (pinned by
    tests/test_jpeg.py)."""
    from credit_ocr_backend_ray.functions.jpeg import encode_baseline_jpeg
    ink = _render_ink(runs, dpi)
    page = np.full(ink.shape, 255, dtype=np.uint8)
    page[ink] = 0
    return encode_baseline_jpeg(page, quality=100, dpi=dpi)


# ------------------------------------------------------------------ reader


def _read_dpi(data: bytes) -> int:
    pos = 8
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4:pos + 8]
        if tag == b"pHYs":
            ppx, _, unit = struct.unpack_from(">IIB", data, pos + 8)
            if unit != 1:
                break
            return round(ppx * 0.0254)
        if tag == b"IEND":
            break
        pos += 12 + length
    raise ValueError("PNG carries no pHYs DPI; not a page render")


def _runs_of_true(mask: np.ndarray) -> list[tuple[int, int]]:
    """Maximal [start, end] (inclusive) runs of True in a 1-D bool array."""
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return []
    cuts = np.flatnonzero(np.diff(idx) > 1)
    starts = np.concatenate(([idx[0]], idx[cuts + 1]))
    ends = np.concatenate((idx[cuts], [idx[-1]]))
    return list(zip(starts.tolist(), ends.tolist()))


def _split_segments(colmask: np.ndarray, gap: int) -> list[tuple[int, int]]:
    """Split a band's column-ink mask into segments at blank runs >= gap."""
    segs: list[tuple[int, int]] = []
    for c0, c1 in _runs_of_true(colmask):
        if segs and c0 - segs[-1][1] - 1 < gap:
            segs[-1] = (segs[-1][0], c1)
        else:
            segs.append((c0, c1))
    return segs


def extract_raster_layout(data: bytes) -> dict[str, Any]:
    """PNG or JPEG page bytes -> the shared layout-document shape
    (``{"pages": [{"page_number", "lines", "words"}]}``, the same schema
    the JSON/PDF channels feed into ``flatten_layout``). Decoding is
    exact: any unregistered geometry or unknown glyph raises, and
    ``extract_document`` maps that to the per-document "Fehlerhaft"
    poison state. Word/line confidence is 1.0 — template matching on a
    noise-free render is lossless, like the PDF text layer."""
    if data[:3] == b"\xff\xd8\xff":  # JPEG page (r5)
        from credit_ocr_backend_ray.functions.jpeg import (
            decode_baseline_jpeg, jpeg_dpi)
        dpi = jpeg_dpi(data)
        if not dpi:
            raise ValueError("JPEG carries no JFIF DPI; not a page render")
        arr = decode_baseline_jpeg(data)
        ink = (arr if arr.ndim == 2 else arr[:, :, 0]) < 128
    else:
        dpi = _read_dpi(data)
        ink = decode_png(data, 0) < 128

    lines: list[dict[str, Any]] = []
    words: list[dict[str, Any]] = []
    for r0, r1 in _runs_of_true(ink.any(axis=1)):
        band = ink[r0:r1 + 1]
        for c0, c1 in _split_segments(band.any(axis=0), SEG_GAP_PX):
            seg = ink[r0:r1 + 1, c0:c1 + 1]
            seg_rows = _runs_of_true(seg.any(axis=1))
            t = r0 + seg_rows[0][0]
            b = r0 + seg_rows[-1][1]
            span = b - t + 1
            if span % GLYPH_H:
                raise ValueError(f"segment height {span} is not a glyph "
                                 f"scale at rows {t}..{b}")
            s = span // GLYPH_H
            cw = GLYPH_W * s
            width = c1 - c0 + 1
            if width % cw:
                raise ValueError(f"segment width {width} not a multiple "
                                 f"of the cell at rows {t}..{b}")
            # one strided sample of the whole segment: cell k's sample
            # ``cell[::s, ::s]`` is columns 8k..8k+7 of it, because cell
            # k starts at c0 + k*cw and cw = 8*s; the (n, 12, 8) regroup
            # packs each cell's 96 bits row-major, as packbits(cell) does
            n = width // cw
            small = (ink[t:t + span:s, c0:c0 + width:s]
                     .reshape(GLYPH_H, n, GLYPH_W).transpose(1, 0, 2)
                     .reshape(n, GLYPH_H * GLYPH_W))
            blank = (~small.any(axis=1)).tolist()
            keys = np.packbits(small, axis=1).tobytes()
            nb = GLYPH_H * GLYPH_W // 8
            chars = []
            for k in range(n):
                if blank[k]:
                    chars.append(" ")
                    continue
                ch = _TEMPLATES.get(keys[k * nb:(k + 1) * nb])
                if ch is None:
                    raise ValueError(f"unrecognized glyph in cell {k} at "
                                     f"rows {t}..{b}")
                chars.append(ch)
            text = "".join(chars)

            def _poly(cl: int, cr: int) -> list[dict[str, float]]:
                x0, x1 = cl / dpi, cr / dpi
                y0, y1 = t / dpi, (b + 1) / dpi
                return [{"x": x0, "y": y0}, {"x": x1, "y": y0},
                        {"x": x1, "y": y1}, {"x": x0, "y": y1}]

            lines.append({"content": text, "polygon": _poly(c0, c1 + 1)})
            k = 0
            for tok in text.split(" "):
                if tok:
                    words.append({
                        "content": tok,
                        "polygon": _poly(c0 + k * cw,
                                         c0 + (k + len(tok)) * cw),
                        "confidence": 1.0,
                    })
                k += len(tok) + 1

    return {"doc_kind": "raster",
            "pages": [{"page_number": 1, "lines": lines, "words": words}]}
