"""Byte-identity of the whole per-document chain.

Two seeded corpora go through ``extract_document(..., with_result_json=
True)`` and the sha256 of every result's ``repr`` (error strings included:
they are the ``error`` column) is pinned:

- every channel the synthesizer writes: web forms and articles, the tiny
  recrawl form, JSON layout documents, PDF text layers, PNG and JPEG
  pages, plus empty, truncated and garbage payloads;
- malformed layout JSON: str, None, NaN and +-inf coordinates, missing
  keys, str/float/bool/None/NaN page numbers, empty and short polygons,
  None and str confidences, non-str contents, duplicated and shuffled
  lines.
"""

import hashlib
import json
import math
import random

from credit_ocr_backend_ray.config import default_config
from credit_ocr_backend_ray.functions.document import extract_document
from credit_ocr_backend_ray.sources import synth


def _digest(payloads: list[bytes]) -> str:
    cfg = default_config()["credit_request"]
    h = hashlib.sha256()
    for p in payloads:
        out = repr(extract_document(p, cfg, with_result_json=True))
        h.update(hashlib.sha256(out.encode()).digest())
    return h.hexdigest()


def _tiny_form(i: int) -> bytes:
    table = "".join(f"<tr><td>{label}</td><td>{value}</td></tr>"
                    for label, value in synth.form_rows(i))
    return (f"<html><body><h1>Kreditantrag</h1><table>{table}</table>"
            f"</body></html>").encode("utf-8")


def _channel_corpus() -> list[bytes]:
    r = random.Random(22)
    docs = [synth.page_row(i)["html"] for i in r.sample(range(5000), 120)]
    docs.append(synth.page_row(137)["html"])  # oversized form: two pages
    docs += [_tiny_form(i) for i in r.sample(range(5000), 60)]
    docs += [synth.pdf_doc_bytes(i) for i in r.sample(range(5000), 12)]
    docs += [synth.raster_doc_bytes(i) for i in r.sample(range(5000), 2)]
    docs.append(synth.raster_jpeg_doc_bytes(r.randrange(5000)))
    docs += [b"", b"   ", b"\x00\xff garbage", b'{"pages": [',
             b'{"doc_kind": "layout", "pages": []}', b"%PDF-1.4 truncated",
             b"<html><body><dl><dt>Firmenname</dt><dd>X GmbH</dd>"
             b"<dt>Laufzeit: 20 Jahre</dt></dl></body></html>"]
    return docs


def _malformed_layout(r: random.Random) -> bytes:
    """A two-column form in layout JSON with a seeded dose of damage."""
    p_bad = r.choice((0.0, 0.003, 0.01, 0.04))
    p_nan = r.choice((0.0, 0.02, 0.1))

    def coord(v):
        if r.random() < p_nan:
            return r.choice((math.nan, math.inf, -math.inf))
        if r.random() < p_bad / 8:
            return r.choice((str(v), None))
        return v

    def poly(x0, x1, y0, y1):
        u = r.random()
        if u < p_bad:
            return r.choice(([], None))
        pts = [{"x": coord(x0), "y": coord(y0)}, {"x": coord(x1), "y": coord(y0)},
               {"x": coord(x1), "y": coord(y1)}, {"x": coord(x0), "y": coord(y1)}]
        for p in pts:
            if r.random() < p_bad / 8:
                del p[r.choice(("x", "y"))]
        return pts[:r.randint(1, 3)] if r.random() < p_bad else pts

    def conf():
        if r.random() < p_bad / 3:
            return r.choice((None, None, "0.9"))
        return r.choice((0.91, 0.953, 1.0, 0.5))

    def damage(item):
        if r.random() < p_bad:
            del item[r.choice(list(item))]
        if r.random() < p_bad / 2:
            item["content"] = r.choice((7, None, ["a"], {"k": 1}))
        return item

    rows = synth.form_rows(r.randrange(1000))
    pages = []
    for pn in range(r.choice((1, 1, 2))):
        lines, words = [], []
        for k, (label, value) in enumerate(rows[:r.randint(1, 12)]):
            y = 1.0 + k + r.choice((0.0, 0.0, 0.01, 0.3))
            if r.random() < 0.15:
                label, value = f"{label}: {value}", None
            for text, x, dy in ((label, 0.5, 0.0), (value, 3.0, 0.01)):
                if text is None:
                    continue
                w = 0.08 * len(text)
                lines.append(damage({"content": text, "polygon": poly(
                    x - 0.1, x + w, y + dy - 0.09, y + dy + 0.09)}))
                cx = x - 0.1
                for tok in text.split():
                    words.append(damage({
                        "content": tok, "confidence": conf(),
                        "polygon": poly(cx, cx + 0.08 * len(tok),
                                        y + dy - 0.08, y + dy + 0.08)}))
                    cx += 0.08 * (len(tok) + 1)
        if lines and r.random() < 0.2:
            lines.append(dict(r.choice(lines)))
        if r.random() < 0.2:
            r.shuffle(lines)
        number = pn + 1
        if r.random() < p_bad * 3:
            number = r.choice((str(number), float(number), True, None,
                               math.nan))
        page = {"page_number": number, "lines": lines, "words": words}
        if r.random() < p_bad:
            del page[r.choice(list(page))]
        pages.append(page)
    return json.dumps({"doc_kind": "layout", "pages": pages},
                      ensure_ascii=False).encode()


def _edge_layouts() -> list[bytes]:
    """Cases where a stage order or a first-occurrence rule shows."""
    def line(text, x0, x1, y0, y1):
        return {"content": text, "polygon": [
            {"x": x0, "y": y0}, {"x": x1, "y": y0},
            {"x": x1, "y": y1}, {"x": x0, "y": y1}]}

    def word(text, x0, y0, conf=0.9):
        return {**line(text, x0, x0 + 0.2, y0 + 0.02, y0 + 0.16),
                "confidence": conf}

    def flat(y, text):  # a zero-height line at y, with no words
        return line(text, 0.5, 1.0, y, y)

    nan = math.nan
    row = [line("Firmenname", 0.5, 1.5, 1, 1.2), line("Demo", 3, 4, 1, 1.2),
           line("Rechtsform", 0.5, 1.5, 1, 1.2), line("Demo", 3, 4, 1, 1.2),
           line("Laufzeit", 0.5, 1.5, 1, 1.2)]
    docs = [
        # NaN centre ys: sorting all records and then keeping the lines
        # is not sorting the lines
        [{"page_number": 1,
          "lines": [flat(1.0, "a"), flat(4.0, "b"), flat(1.0, "c")],
          "words": [word("w", 5, 3.0), word("w", 5, nan), word("w", 5, nan)]},
         {"page_number": 2,
          "lines": [flat(2.0, "d"), flat(2.0, "e"), flat(nan, "f"),
                    flat(2.0, "g"), flat(1.0, "h")],
          "words": [word("w", 5, 2.0), word("w", 5, nan), word("w", 5, nan)]}],
        # str ys pass flattening (no words to compare) and fail the sort
        [{"page_number": 1, "words": [],
          "lines": [line("Firmenname", 0.5, 1.5, "1.0", "1.2")]}],
        # page 1's None-confidence pair fails before page 2's str xs
        [{"page_number": 1, "words": [],
          "lines": [line("Firmenname", 0.5, 1.5, 1, 1.2),
                    line("Demo", 3, 4, 1, 1.2)]},
         {"page_number": 2, "words": [],
          "lines": [line("Rechtsform", "0.5", "1.5", 1, 1.2)]}],
        # a list word content breaks the first-text index, needed or not
        [{"page_number": 1, "lines": [line("Firmenname: X", 0.5, 2, 1, 1.2)],
          "words": [{**word("w", 0.6, 1.0), "content": ["w"]}]}],
        # a value line equal to an earlier, used one: the earlier is
        # marked, so the later pairs twice
        [{"page_number": 1, "lines": row,
          "words": [word("w", x, 1.0) for x in (0.6, 3.1, 0.6, 3.1, 0.6)]}],
        # pages 1 and 1.0 are one pairing group; str pages sort as str
        [{"page_number": 1, "lines": [row[0]], "words": [word("w", 0.6, 1)]},
         {"page_number": 1.0, "lines": [row[1]],
          "words": [word("w", 3.1, 1)]}],
        [{"page_number": "2", "lines": [row[1]], "words": []},
         {"page_number": "1", "lines": [row[0]], "words": []}],
        [{"page_number": "1", "lines": [row[0]], "words": []},
         {"page_number": 2, "lines": [row[1]], "words": []}],
    ]
    return [json.dumps({"pages": d}).encode() for d in docs]


# sha256 digests of the two corpora, taken from the dict-per-line chain
# (one record dict per line and word, re-walked by every stage)
_CHANNEL_DIGEST = ("65c3f4d0618a50af30b83afc34ae5054"
                   "c3c89b12b0570779d7df83214140079c")
_MALFORMED_DIGEST = ("8cd708e94a503db7b4da2899b61ebdaf"
                     "f084c4a45a27abfaaa28cb6b257aaf65")


def test_every_channel_output_is_unchanged():
    assert _digest(_channel_corpus()) == _CHANNEL_DIGEST


def test_malformed_layout_outcomes_are_unchanged():
    r = random.Random(7)
    docs = [_malformed_layout(r) for _ in range(400)] + _edge_layouts()
    assert _digest(docs) == _MALFORMED_DIGEST
