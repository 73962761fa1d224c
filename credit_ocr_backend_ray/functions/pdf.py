"""Minimal real-PDF text-layer reader + single-font PDF writer (stdlib).

Closes the reference's M1 ingestion seam for actual ``application/pdf``
payloads (/root/reference/src/ocr/extraction.py:405-413 fetches raw PDF
bytes; the cloud OCR that rasterized them is out of scope in-sandbox, but
a digital PDF's TEXT LAYER needs no OCR): content streams are zlib
(FlateDecode — stdlib), text is shown by ``Tj``/``TJ``/``'`` operators
positioned by ``Tm``/``Td``/``TD``, and for the standard-14 **Courier**
font every glyph is exactly 600/1000 em wide (public AFM metric), so line
and word bounding boxes are computed EXACTLY, not estimated.

``extract_pdf_layout`` emits the same layout-document shape the JSON
channel uses ({"pages": [{"page_number", "lines", "words"}]}, see
functions/layout.py), so everything downstream — flatten, reading-order
sort, pairing, field mapping — is shared, and a PDF document and a layout
document with the same geometry produce the same pairs. Text-layer words
carry ``confidence = 1.0`` (a digital text layer is lossless; the
reference's sub-1.0 confidences come from raster OCR).

Geometry convention (both directions): PDF user space is points
(72/inch), y-up, origin bottom-left on a US-Letter 612x792 page; the
layout schema is inches, y-down, origin top-left. A text run at pen
``(x, y)`` with font size ``fs`` occupies the box x..x+0.6*fs*len(text)
horizontally and y..y+fs vertically (full-em ascent).

Scope: single-font (Courier), non-encrypted, Flate or raw content
streams, horizontal text (``Tm`` scale/translate — no rotation). Out of
scope: embedded-font /Widths tables, CID text, encryption.
"""

from __future__ import annotations

import re
import zlib
from typing import Any

from credit_ocr_backend_ray.functions.png import inflate

PAGE_W_PT, PAGE_H_PT = 612, 792
COURIER_EM = 0.6  # standard-14 Courier glyph advance (600/1000 em)

# ------------------------------------------------------------------ writer


def _esc(s: str) -> str:
    return s.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")


def build_pdf(pages: list[list[dict[str, Any]]]) -> bytes:
    """Write a valid single-font PDF. Each page is a list of text runs
    ``{"text": str, "x_in": float, "y_top_in": float, "h_in": float}`` in
    top-left-origin inches; a run renders at font size ``h_in * 72`` with
    its box top at ``y_top_in``. Content streams are FlateDecode; the xref
    table is real (byte-exact offsets), so any conforming reader accepts
    the file."""
    objs: list[bytes] = []
    page_ids = []
    n_fixed = 3  # 1=catalog, 2=pages, 3=font
    for pi, runs in enumerate(pages):
        parts = []
        for r in runs:
            fs = r["h_in"] * 72.0
            x = r["x_in"] * 72.0
            y = PAGE_H_PT - (r["y_top_in"] + r["h_in"]) * 72.0  # baseline
            parts.append(
                f"BT /F1 {fs:.4f} Tf 1 0 0 1 {x:.4f} {y:.4f} Tm "
                f"({_esc(r['text'])}) Tj ET")
        # WinAnsi (cp1252) is the standard-14 text encoding — covers the
        # Euro sign the latin-1 codec lacks
        stream = zlib.compress("\n".join(parts).encode("cp1252"))
        content_id = n_fixed + 2 * pi + 1
        page_id = n_fixed + 2 * pi + 2
        objs.append((f"{content_id} 0 obj\n<< /Length {len(stream)} "
                     f"/Filter /FlateDecode >>\nstream\n").encode()
                    + stream + b"\nendstream\nendobj\n")
        objs.append((f"{page_id} 0 obj\n<< /Type /Page /Parent 2 0 R "
                     f"/MediaBox [0 0 {PAGE_W_PT} {PAGE_H_PT}] "
                     f"/Resources << /Font << /F1 3 0 R >> >> "
                     f"/Contents {content_id} 0 R >>\nendobj\n").encode())
        page_ids.append(page_id)

    kids = " ".join(f"{p} 0 R" for p in page_ids)
    fixed = [
        b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n",
        (f"2 0 obj\n<< /Type /Pages /Kids [{kids}] "
         f"/Count {len(page_ids)} >>\nendobj\n").encode(),
        (b"3 0 obj\n<< /Type /Font /Subtype /Type1 "
         b"/BaseFont /Courier >>\nendobj\n"),
    ]
    body = fixed + objs
    out = bytearray(b"%PDF-1.4\n")
    offsets = [0]
    for o in body:
        offsets.append(len(out))
        out += o
    xref_at = len(out)
    out += f"xref\n0 {len(body) + 1}\n".encode()
    out += b"0000000000 65535 f \n"
    for off in offsets[1:]:
        out += f"{off:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {len(body) + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_at}\n%%EOF\n").encode()
    return bytes(out)


# ------------------------------------------------------------------ reader

_STREAM_RE = re.compile(rb"stream\r?\n(.*?)\r?\nendstream", re.S)

_STR_ESCAPES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b",
                b"f": b"\f", b"(": b"(", b")": b")", b"\\": b"\\"}
# the bytes a literal string treats specially; everything between two of
# them is copied in one slice
_STR_SPECIAL_RE = re.compile(rb"[()\\]")
_OCTAL_RE = re.compile(rb"[0-7]{1,3}")

# one content-stream token per match, after whitespace (which includes
# NUL): a string, array or hex/dict opener, a number, an operator run
# (NUL is part of a run), or one stray delimiter. The number comes before
# the operator run, so "-5" is a number and "-x" an operator. The
# whitespace run is possessive: trailing NULs never turn into an operator.
# Trailing whitespace matches as an empty token at the end, so it is
# scanned once, not again from each of its bytes.
_TOKEN_RE = re.compile(
    rb"[ \t\r\n\x00]*+(?:(\()|(\[)|(<)|([-+]?\d*\.?\d+)"
    rb"|([^ \t\r\n()\[\]<>/%]+)|.|\Z)", re.S)
_T_STR, _T_ARR, _T_HEX, _T_NUM, _T_OP = 1, 2, 3, 4, 5
# inside a TJ array: skip every byte that is no '(', ']' or number start
# (whitespace included), then a string, the closing ']', a number, or one
# stray number-start byte
_ARRAY_RE = re.compile(
    rb"[^(\]\-+.0-9]*+(?:(\()|(\])|([-+]?\d*\.?\d+)|.)?", re.S)


def _parse_string(data: bytes, i: int) -> tuple[bytes, int]:
    """Parse a ``(...)`` literal starting at ``data[i] == '('``; returns
    (decoded bytes, index past the closing paren). Balanced nested parens
    are kept; escapes follow ISO 32000-1 7.3.4.2: ``\\n \\r \\t \\b \\f
    \\( \\) \\\\``, one to three octal digits (0-7, value mod 256), a
    backslash before CR, LF or CR LF drops them all (line continuation),
    and a backslash before any other byte is dropped and the byte kept.
    An unterminated string runs to the end of ``data``."""
    out = bytearray()
    depth = 1
    i += 1
    n = len(data)
    search = _STR_SPECIAL_RE.search
    while depth:
        m = search(data, i)
        if m is None:  # unterminated (a trailing "\\" steps past the end)
            out += data[i:]
            return bytes(out), max(i, n)
        j = m.start()
        out += data[i:j]
        c = data[j]
        if c == 0x5C:  # backslash
            nxt = data[j + 1:j + 2]
            esc = _STR_ESCAPES.get(nxt)
            if esc is not None:
                out += esc
                i = j + 2
            elif (mo := _OCTAL_RE.match(data, j + 1)) is not None:
                out.append(int(mo.group(), 8) & 0xFF)
                i = mo.end()
            elif nxt == b"\r":
                i = j + 3 if data[j + 2:j + 3] == b"\n" else j + 2
            elif nxt == b"\n":
                i = j + 2
            else:
                out += nxt
                i = j + 2
        elif c == 0x28:  # (
            depth += 1
            out.append(c)
            i = j + 1
        else:  # )
            depth -= 1
            if depth:
                out.append(c)
            i = j + 1
    return bytes(out), i


def _parse_array(data: bytes, i: int) -> tuple[list[tuple[str, Any]], int]:
    """Parse a TJ array whose ``[`` ends just before ``data[i]``: strings
    and kerning numbers until ``]``; any other byte is skipped. Returns
    (items, index past the ``]``)."""
    arr: list[tuple[str, Any]] = []
    n = len(data)
    match = _ARRAY_RE.match
    while i < n:
        m = match(data, i)
        kind = m.lastindex
        if kind == 1:  # (
            s, i = _parse_string(data, m.start(1))
            arr.append(("str", s))
        elif kind == 2:  # ]
            return arr, m.end()
        elif kind == 3:  # number
            arr.append(("num", float(m[3])))
            i = m.end()
        else:  # skipped bytes only
            i = m.end()
    return arr, i + 1


def _tokenize_content(data: bytes):
    """Yield ('str', bytes) | ('num', float) | ('op', bytes) | ('arr',
    list) tokens from a decoded content stream. Hex strings and dicts
    (``<`` up to the first ``>``) and stray delimiters yield nothing."""
    i, n = 0, len(data)
    finditer = _TOKEN_RE.finditer
    while i < n:
        # numbers and operators stream from one scan; a string, array or
        # hex/dict opener ends it, and the scan resumes past that item
        for m in finditer(data, i):
            kind = m.lastindex
            if kind == _T_OP:
                yield ("op", m[_T_OP])
            elif kind == _T_NUM:
                yield ("num", float(m[_T_NUM]))
            elif kind is not None:
                break
        else:
            return
        if kind == _T_STR:
            s, i = _parse_string(data, m.start(1))
            yield ("str", s)
        elif kind == _T_ARR:
            arr, i = _parse_array(data, m.end())
            yield ("arr", arr)
        else:
            end = data.find(b">", m.end())
            i = (end + 1) if end >= 0 else n


_OBJ_HDR_RE = re.compile(rb"(\d+)\s+\d+\s+obj")
_STREAM_START_RE = re.compile(rb"stream\r?\n")


def _iter_objects(pdf: bytes):
    """Yield ``(obj_num, body)`` by scanning object headers and slicing
    stream-carrying objects by their /Length framing FIRST — a compressed
    (or raw) payload that happens to contain the byte sequence ``endobj``
    must not terminate the object early, so ``endobj`` is only searched
    after the framed payload. A stream object without a direct /Length
    (an indirect ``9 0 R`` one included) ends at the first ``endobj``
    after the ``endstream`` that follows its ``stream`` line."""
    pos, n = 0, len(pdf)
    while True:
        m = _OBJ_HDR_RE.search(pdf, pos)
        if not m:
            return
        start = m.end()
        end = pdf.find(b"endobj", start)
        ms = _STREAM_START_RE.search(pdf, start)
        if ms is not None and (end == -1 or ms.start() < end):
            # stream object: /Length lives in the dict BEFORE the
            # stream marker; re-locate endobj past the framed payload
            mlen = re.search(rb"/Length\s+(\d+)\b(?!\s+\d+\s+R)",
                             pdf[start:ms.start()])
            if mlen:
                end = pdf.find(b"endobj", ms.end() + int(mlen.group(1)))
            else:
                es = pdf.find(b"endstream", ms.end())
                if es != -1:
                    end = pdf.find(b"endobj", es + len(b"endstream"))
        if end == -1:
            end = n
        yield int(m.group(1)), pdf[start:end]
        pos = end + len(b"endobj")


_LENGTH_RE = re.compile(rb"/Length\s+(\d+)(?:\s+\d+\s+(R))?")
_INT_OBJ_RE = re.compile(rb"\s*(\d+)\s*")


def _stream_length(body: bytes, objects: dict[int, bytes]) -> int | None:
    """The /Length of a stream object: direct, or through the object an
    indirect reference names when that object is an integer; None when
    there is none to use (the caller falls back to ``endstream``)."""
    m = _LENGTH_RE.search(body)
    if m is None:
        return None
    if m.group(2) is None:
        return int(m.group(1))
    ref = _INT_OBJ_RE.fullmatch(objects.get(int(m.group(1)), b""))
    return int(ref.group(1)) if ref else None


# a content stream declares no decoded size, so inflate stops at a budget
MAX_CONTENT_BYTES = 8 << 20


def _page_content_streams(pdf: bytes) -> list[bytes]:
    """Decoded content stream per page, in page-tree order (the simple
    linear /Kids order our scope covers)."""
    objects: dict[int, bytes] = dict(_iter_objects(pdf))
    pages = []
    for num, body in sorted(objects.items()):
        if re.search(rb"/Type\s*/Page\b", body) and b"/Pages" not in body:
            m = re.search(rb"/Contents\s+(\d+)\s+\d+\s+R", body)
            if m:
                pages.append(int(m.group(1)))
    streams = []
    for cid in pages:
        body = objects.get(cid, b"")
        ms = re.search(rb"stream\r?\n", body)
        if not ms:
            streams.append(b"")
            continue
        start = ms.end()
        # honor /Length (the spec's framing): a delimiter regex would
        # truncate compressed payloads whose last byte happens to be \r
        # (it gets eaten as part of "\r?\nendstream") — found by the
        # hypothesis round-trip property. An indirect /Length (``9 0 R``)
        # is read from its object when that holds an integer.
        length = _stream_length(body, objects)
        if length is not None:
            raw = body[start:start + length]
        else:
            m = _STREAM_RE.search(body)
            raw = m.group(1) if m else b""
        if re.search(rb"/Filter\s*/FlateDecode", body):
            raw = inflate(raw, MAX_CONTENT_BYTES)
            if len(raw) > MAX_CONTENT_BYTES:
                raise ValueError(f"content stream inflates past "
                                 f"{MAX_CONTENT_BYTES} bytes")
        streams.append(raw)
    return streams


def _runs_from_stream(data: bytes) -> list[tuple[float, float, float, str]]:
    """(x_pt, y_pt_baseline, font_size_pt, text) per shown text run."""
    runs = []
    fs = 12.0
    tm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    lm = list(tm)  # line matrix (Td/TD move the LINE matrix)
    stack: list[Any] = []
    for kind, val in _tokenize_content(data):
        if kind in ("num", "str", "arr"):
            stack.append((kind, val))
            continue
        op = val
        if op == b"Tf" and len(stack) >= 1:
            fs = stack[-1][1] if stack[-1][0] == "num" else fs
            stack.clear()
        elif op == b"Tm" and len(stack) >= 6:
            tm = [s[1] for s in stack[-6:]]
            lm = list(tm)
            stack.clear()
        elif op in (b"Td", b"TD") and len(stack) >= 2:
            tx, ty = stack[-2][1], stack[-1][1]
            lm = [lm[0], lm[1], lm[2], lm[3],
                  lm[4] + tx * lm[0] + ty * lm[2],
                  lm[5] + tx * lm[1] + ty * lm[3]]
            tm = list(lm)
            stack.clear()
        elif op == b"T*":
            tm = list(lm)
            stack.clear()
        elif op == b"BT":
            tm = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
            lm = list(tm)
            stack.clear()
        elif op in (b"Tj", b"'") and stack and stack[-1][0] == "str":
            text = stack[-1][1].decode("cp1252", errors="replace")
            eff_fs = fs * tm[3]  # vertical scale
            runs.append((tm[4], tm[5], eff_fs, text))
            tm[4] += COURIER_EM * fs * tm[0] * len(text)
            stack.clear()
        elif op == b"TJ" and stack and stack[-1][0] == "arr":
            eff_fs = fs * tm[3]
            x0 = tm[4]
            parts = []
            adv = 0.0
            for k2, v2 in stack[-1][1]:
                if k2 == "str":
                    parts.append(v2.decode("cp1252", errors="replace"))
                    adv += COURIER_EM * fs * len(v2)
                else:  # kerning: thousandths of em, subtracts advance
                    adv -= v2 / 1000.0 * fs
            if parts:
                runs.append((x0, tm[5], eff_fs, "".join(parts)))
            tm[4] += adv * tm[0]
            stack.clear()
        else:
            stack.clear()
    return runs


def extract_pdf_layout(pdf: bytes) -> dict[str, Any]:
    """PDF bytes -> layout document (the JSON channel's shape), with exact
    Courier-metric line/word boxes and ``confidence = 1.0`` words."""
    if not pdf.lstrip()[:5].startswith(b"%PDF-"):
        raise ValueError("not a PDF payload")
    pages_out = []
    for pno, stream in enumerate(_page_content_streams(pdf), start=1):
        lines, words = [], []
        for x_pt, y_pt, fs, text in _runs_from_stream(stream):
            if not text.strip():
                continue
            h_in = fs / 72.0
            x0 = x_pt / 72.0
            y1 = (PAGE_H_PT - y_pt) / 72.0   # box bottom (baseline)
            y0 = y1 - h_in                    # box top (full-em ascent)
            ch_w = COURIER_EM * h_in
            x1 = x0 + ch_w * len(text)
            lines.append({"content": text, "polygon": [
                {"x": x0, "y": y0}, {"x": x1, "y": y0},
                {"x": x1, "y": y1}, {"x": x0, "y": y1}]})
            pos = 0
            for tok in text.split():
                at = text.index(tok, pos)
                pos = at + len(tok)
                wx0 = x0 + ch_w * at
                wx1 = wx0 + ch_w * len(tok)
                words.append({"content": tok, "confidence": 1.0,
                              "polygon": [
                                  {"x": wx0, "y": y0}, {"x": wx1, "y": y0},
                                  {"x": wx1, "y": y1}, {"x": wx0, "y": y1}]})
        pages_out.append({"page_number": pno, "lines": lines,
                          "words": words})
    return {"doc_kind": "pdf", "pages": pages_out}
