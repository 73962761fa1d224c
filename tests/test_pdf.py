"""Real-PDF text-layer extraction (functions/pdf.py): writer→reader
round-trip pins exact Courier geometry; the parity test pins that a PDF
and a JSON layout document with the same form geometry flow through the
SHARED downstream kernels (flatten → reading order → pairing → fields) to
identical pairs — the reference's M1 seam consuming actual
application/pdf payloads (src/ocr/extraction.py:405-413)."""

import json
import re
import zlib

import pytest

from credit_ocr_backend_ray.functions.pdf import (
    build_pdf, extract_pdf_layout)


def test_build_pdf_is_valid_pdf():
    pdf = build_pdf([[{"text": "Hallo", "x_in": 1.0, "y_top_in": 2.0,
                       "h_in": 0.18}]])
    assert pdf.startswith(b"%PDF-1.4")
    assert pdf.rstrip().endswith(b"%%EOF")
    assert b"/Type /Catalog" in pdf and b"/BaseFont /Courier" in pdf
    # xref offsets are byte-exact: each entry points at "N 0 obj"
    lines = pdf[pdf.index(b"xref"):].split(b"\n")
    n_objs = int(lines[1].split()[1]) - 1
    for k in range(1, n_objs + 1):
        off = int(lines[2 + k].split()[0])
        assert pdf[off:off + 20].startswith(f"{k} 0 obj".encode())


def test_pdf_roundtrip_exact_geometry():
    runs = [{"text": "Kreditbetrag", "x_in": 0.4, "y_top_in": 0.91,
             "h_in": 0.18},
            {"text": "700.000 Euro", "x_in": 2.9, "y_top_in": 0.92,
             "h_in": 0.18}]
    doc = extract_pdf_layout(build_pdf([runs]))
    assert len(doc["pages"]) == 1
    lines = doc["pages"][0]["lines"]
    assert [ln["content"] for ln in lines] == [r["text"] for r in runs]
    for ln, r in zip(lines, runs):
        p = ln["polygon"]
        assert p[0]["x"] == pytest.approx(r["x_in"], abs=1e-6)
        assert p[0]["y"] == pytest.approx(r["y_top_in"], abs=1e-6)
        assert p[2]["y"] == pytest.approx(r["y_top_in"] + 0.18, abs=1e-6)
        # exact Courier metric: 0.6 em per glyph
        assert p[1]["x"] == pytest.approx(
            r["x_in"] + 0.6 * 0.18 * len(r["text"]), abs=1e-6)
    # words: split with cumulative courier offsets, confidence 1.0
    words = doc["pages"][0]["words"]
    assert words[0]["content"] == "Kreditbetrag"
    assert all(w["confidence"] == 1.0 for w in words)
    w2 = [w for w in words if w["content"] == "Euro"][0]
    assert w2["polygon"][0]["x"] == pytest.approx(
        2.9 + 0.6 * 0.18 * len("700.000 "), abs=1e-6)


def test_pdf_string_escapes_and_multipage():
    runs1 = [{"text": "a(b)c\\d", "x_in": 1.0, "y_top_in": 1.0,
              "h_in": 0.2}]
    runs2 = [{"text": "page2", "x_in": 1.0, "y_top_in": 1.0, "h_in": 0.2}]
    doc = extract_pdf_layout(build_pdf([runs1, runs2]))
    assert [p["page_number"] for p in doc["pages"]] == [1, 2]
    assert doc["pages"][0]["lines"][0]["content"] == "a(b)c\\d"
    assert doc["pages"][1]["lines"][0]["content"] == "page2"


def test_pdf_td_tj_array_and_octal():
    """Hand-written content stream exercising Td line moves, TJ arrays
    with kerning, octal escapes — forms other writers emit."""
    content = (b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (first) Tj "
               b"0 -24 Td [(se) -50 (cond)] TJ ET "
               b"BT /F1 10 Tf 1 0 0 1 72 600 Tm (oct\\101l) Tj ET")
    stream = zlib.compress(content)
    pdf = (b"%PDF-1.4\n"
           b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
           b"2 0 obj\n<< /Type /Pages /Kids [4 0 R] /Count 1 >>\nendobj\n"
           b"3 0 obj\n<< /Type /Font /Subtype /Type1 /BaseFont /Courier >>"
           b"\nendobj\n"
           b"4 0 obj\n<< /Type /Page /Parent 2 0 R /Contents 5 0 R >>\n"
           b"endobj\n"
           + (b"5 0 obj\n<< /Length %d /Filter /FlateDecode >>\nstream\n"
              % len(stream)) + stream + b"\nendstream\nendobj\n"
           b"trailer\n<< /Root 1 0 R >>\n%%EOF\n")
    doc = extract_pdf_layout(pdf)
    texts = [ln["content"] for ln in doc["pages"][0]["lines"]]
    assert texts == ["first", "second", "octAl"]
    lines = doc["pages"][0]["lines"]
    # Td moved down 24pt from 700 -> second baseline at 676
    assert lines[1]["polygon"][2]["y"] == pytest.approx((792 - 676) / 72)
    assert lines[0]["polygon"][0]["x"] == pytest.approx(1.0)  # 72pt


def test_pdf_channel_pairs_match_layout_channel():
    """The planted-PDF fixture and the JSON layout fixture share geometry;
    both payload kinds must flow to the SAME extracted pairs/fields and
    the SAME reading-order text through extract_document."""
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document
    from credit_ocr_backend_ray.sources.synth import (
        _layout_doc, pdf_doc_bytes)

    cfg = default_config()["credit_request"]
    for i in (0, 7, 123):
        via_pdf = extract_document(pdf_doc_bytes(i), cfg)
        via_json = extract_document(_layout_doc(i).encode("utf-8"), cfg)
        assert via_pdf["status"] == via_json["status"] == "Fertig"
        assert via_pdf["extracted_text"] == via_json["extracted_text"]
        assert via_pdf["n_lines"] == via_json["n_lines"]
        assert via_pdf["n_pairs"] == via_json["n_pairs"]
        # same fields, same values (confidences differ by design: the
        # text layer is lossless -> 1.0; the OCR stand-in is sub-1.0)
        pairs_pdf = [(f["name"], f["value"]) for f in via_pdf["fields"]]
        pairs_json = [(f["name"], f["value"]) for f in via_json["fields"]]
        assert pairs_pdf == pairs_json
        assert via_pdf["missing_fields"] == via_json["missing_fields"]


def test_pdf_garbage_payload_is_poison_isolated():
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document

    cfg = default_config()["credit_request"]
    # the reference's own placeholder PDF (extraction.py:413) — no pages
    out = extract_document(b"%PDF-1.4\n%Sample PDF content\n%%EOF", cfg)
    assert out["status"] in ("Fertig", "Fehlerhaft")
    out2 = extract_document(b"%PDF-1.4\n" + bytes(range(256)) * 4, cfg)
    assert out2["status"] in ("Fertig", "Fehlerhaft")  # never raises


def test_object_scan_survives_endobj_in_stream_payload():
    """ADVICE r3: a stream payload containing the byte sequence 'endobj'
    (or 'endstream') must not truncate the object — the scanner slices
    by /Length framing before searching for the object terminator."""
    from credit_ocr_backend_ray.functions import pdf as P

    raw = b"hello endobj world endstream trailing"
    body = (b"%PDF-1.4\n"
            b"7 0 obj\n<< /Length " + str(len(raw)).encode()
            + b" >>\nstream\n" + raw + b"\nendstream\nendobj\n"
            b"8 0 obj\n<< /Foo /Bar >>\nendobj\n")
    objs = dict(P._iter_objects(body))
    assert set(objs) == {7, 8}
    assert raw in objs[7]
    assert b"/Foo" in objs[8]
    # indirect /Length (e.g. '/Length 9 0 R') must NOT be used as framing
    body2 = (b"5 0 obj\n<< /Length 9 0 R >>\nstream\nabc\nendstream\n"
             b"endobj\n")
    objs2 = dict(P._iter_objects(body2))
    assert b"abc" in objs2[5]


def _one_page_pdf(content: bytes) -> bytes:
    """A one-page PDF around a hand-written (uncompressed) content
    stream."""
    return (b"%PDF-1.4\n"
            b"1 0 obj\n<< /Type /Catalog /Pages 2 0 R >>\nendobj\n"
            b"2 0 obj\n<< /Type /Pages /Kids [4 0 R] /Count 1 >>\nendobj\n"
            b"4 0 obj\n<< /Type /Page /Parent 2 0 R /Contents 5 0 R >>\n"
            b"endobj\n"
            + b"5 0 obj\n<< /Length %d >>\nstream\n" % len(content)
            + content + b"\nendstream\nendobj\n%%EOF\n")


@pytest.mark.parametrize("literal, decoded", [
    (rb"(a\8b)", b"a8b"),            # not octal: the backslash is dropped
    (rb"(a\9)", b"a9"),
    (rb"(a\qb)", b"aqb"),            # unknown escape keeps the byte
    (b"(a\\\r\nb)", b"ab"),          # line continuation drops CR LF
    (b"(a\\\rb)", b"ab"),
    (b"(a\\\nb)", b"ab"),
    (rb"(\18)", b"\x018"),           # octal reads only the digits 0-7
    (rb"(\78)", b"\x078"),
    (rb"(\0053)", b"\x053"),         # at most three octal digits
    (rb"(\101\x)", b"Ax"),
    (rb"(\777)", b"\xff"),           # value mod 256
    (rb"(a(b\)c)d)", b"a(b)c)d"),    # nesting and escaped parens
])
def test_parse_string_escapes_follow_iso_32000(literal, decoded):
    from credit_ocr_backend_ray.functions.pdf import _parse_string

    assert _parse_string(literal + b" Tj", 0) == (decoded, len(literal))


def test_non_octal_escape_does_not_fail_the_document():
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document

    pdf = _one_page_pdf(
        b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (Kredit\\8 Nr\\q1) Tj ET")
    assert extract_pdf_layout(pdf)["pages"][0]["lines"][0]["content"] == (
        "Kredit8 Nrq1")
    out = extract_document(pdf, default_config()["credit_request"])
    assert out["status"] == "Fertig"


_TWO_LINES = [
    {"text": "Kreditbetrag", "x_in": 0.4, "y_top_in": 0.91, "h_in": 0.18},
    {"text": "700.000 Euro", "x_in": 2.9, "y_top_in": 0.92, "h_in": 0.18}]


def _indirect_length_pdf(length_obj: bytes | None) -> bytes:
    """The two-line ``build_pdf`` page with its content dict naming its
    /Length as object 9, followed by ``9 0 obj <length_obj> endobj``
    (no object 9 when ``length_obj`` is None)."""
    pdf = build_pdf([_TWO_LINES])
    pdf, n_sub = re.subn(rb"<< /Length \d+ /Filter /FlateDecode >>",
                         b"<< /Length 9 0 R /Filter /FlateDecode >>", pdf)
    assert n_sub == 1
    if length_obj is None:
        return pdf
    at = pdf.index(b"xref")
    return pdf[:at] + b"9 0 obj\n" + length_obj + b"\nendobj\n" + pdf[at:]


def _stream_length() -> int:
    m = re.search(rb"/Length (\d+)", build_pdf([_TWO_LINES]))
    return int(m.group(1))


def test_indirect_length_page_is_not_fehlerhaft():
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document

    pdf = _indirect_length_pdf(b"%d" % _stream_length())
    out = extract_document(pdf, default_config()["credit_request"])
    assert out["status"] == "Fertig", out.get("error")
    assert out["n_lines"] == 2


def test_indirect_length_resolves_or_falls_back_to_endstream():
    direct = extract_pdf_layout(build_pdf([_TWO_LINES]))
    n = _stream_length()
    for length_obj in (b"%d" % n, b"  %d " % n,  # resolved through obj 9
                       b"/NotANumber", None):    # endstream delimiter
        assert extract_pdf_layout(_indirect_length_pdf(length_obj)) == direct


@pytest.mark.parametrize("length_obj", [b"%d", None])
def test_indirect_length_stream_containing_endobj_is_not_cut(length_obj):
    """A stream with an indirect /Length whose payload holds the bytes
    ``endobj`` ends at its ``endstream``, not at that ``endobj``: its
    text survives whether the length object resolves or not."""
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions import pdf as P
    from credit_ocr_backend_ray.functions.document import extract_document

    content = b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (endobj) Tj ET"
    pdf = _one_page_pdf(content).replace(
        b"<< /Length %d >>" % len(content), b"<< /Length 9 0 R >>")
    if length_obj is not None:
        pdf = pdf.replace(b"%%EOF", b"9 0 obj\n" + length_obj % len(content)
                          + b"\nendobj\n%%EOF")
    assert content in dict(P._iter_objects(pdf))[5]
    out = extract_document(pdf, default_config()["credit_request"])
    assert out["status"] == "Fertig", out.get("error")
    assert out["n_lines"] == 1
    assert out["extracted_text"] == "endobj"


def _flate_pdf(compressed: bytes) -> bytes:
    """``_one_page_pdf`` with a FlateDecode content stream."""
    return _one_page_pdf(compressed).replace(
        b"<< /Length %d >>" % len(compressed),
        b"<< /Length %d /Filter /FlateDecode >>" % len(compressed))


def test_inflate_bomb_is_a_bounded_error_row():
    """A 195 KB payload whose content stream inflates to 200 MB stops at
    the inflate budget: a ``Fehlerhaft`` row with the budget error, and
    the inflate never holds much more than the budget."""
    import tracemalloc

    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions import pdf as P
    from credit_ocr_backend_ray.functions.document import extract_document

    c = zlib.compressobj(9)
    chunk = b"0" * 1_000_000
    stream = c.compress(b"<") + b"".join(c.compress(chunk)
                                         for _ in range(200))
    stream += c.flush()
    assert len(stream) < 200_000
    tracemalloc.start()
    try:
        out = extract_document(_flate_pdf(stream),
                               default_config()["credit_request"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out["status"] == "Fehlerhaft"
    assert out["error"] == (f"ValueError: content stream inflates past "
                            f"{P.MAX_CONTENT_BYTES} bytes")
    assert peak < 2.5 * P.MAX_CONTENT_BYTES


def test_truncated_flate_stream_keeps_zlib_error():
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document

    stream = zlib.compress(b"BT /F1 12 Tf 1 0 0 1 72 700 Tm (Hallo) Tj ET")
    cfg = default_config()["credit_request"]
    assert extract_document(_flate_pdf(stream), cfg)["n_lines"] == 1
    out = extract_document(_flate_pdf(stream[:-6]), cfg)
    assert out["error"] == ("error: Error -5 while decompressing data: "
                            "incomplete or truncated stream")
