"""Raster (PNG) text channel: render/decode round-trip pins exact cell
geometry; the parity test pins that a PNG page and a JSON layout document
with the same form semantics flow through the SHARED downstream kernels
(flatten -> reading order -> pairing -> fields) to identical pairs — the
reference's image-upload seam (src/api/main.py:331-338, OCR at
src/ocr/azure_ocr_client.py:28-63) restated as deterministic template
OCR (functions/raster.py)."""

import hashlib
import random

import numpy as np
import pytest

from credit_ocr_backend_ray.functions.raster import (
    CHARSET, GLYPH_H, GLYPH_W, extract_raster_layout, glyph_bitmap,
    render_page_png)


def test_glyph_alphabet_registration_and_distinctness():
    seen = set()
    for ch in CHARSET:
        g = glyph_bitmap(ch)
        assert g.shape == (GLYPH_H, GLYPH_W)
        assert g[0, 0] and g[GLYPH_H - 1, 0]      # scale/top registration
        assert all(g[:, c].any() for c in range(GLYPH_W))  # no blank cols
        key = np.packbits(g).tobytes()
        assert key not in seen
        seen.add(key)
    # the synth corpus charset is covered
    from credit_ocr_backend_ray.sources.synth import form_rows
    corpus = {c for i in (0, 50, 999) for label, value in form_rows(i)
              for c in label + value}
    assert corpus - {" "} <= set(CHARSET)


@pytest.mark.parametrize("dpi", [100, 200])
def test_render_decode_roundtrip_exact_geometry(dpi):
    runs = [{"text": "Kreditbetrag in EUR", "x_in": 0.4, "y_top_in": 0.91,
             "h_in": 0.12},
            {"text": "700.000 €", "x_in": 4.0, "y_top_in": 0.92,
             "h_in": 0.12}]
    doc = extract_raster_layout(render_page_png(runs, dpi=dpi))
    lines = doc["pages"][0]["lines"]
    assert [ln["content"] for ln in lines] == [r["text"] for r in runs]
    for ln, r in zip(lines, runs):
        p = ln["polygon"]
        assert p[0]["x"] == pytest.approx(r["x_in"], abs=1e-9)
        assert p[0]["y"] == pytest.approx(r["y_top_in"], abs=1e-9)
        assert p[2]["y"] == pytest.approx(r["y_top_in"] + 0.12, abs=1e-9)
        # synthetic-monospace metric: 2/3 em per glyph cell
        assert p[1]["x"] == pytest.approx(
            r["x_in"] + (2 / 3) * 0.12 * len(r["text"]), abs=1e-9)
    words = doc["pages"][0]["words"]
    assert [w["content"] for w in words] == ["Kreditbetrag", "in", "EUR",
                                             "700.000", "€"]
    assert all(w["confidence"] == 1.0 for w in words)
    w_eur = words[2]
    assert w_eur["polygon"][0]["x"] == pytest.approx(
        0.4 + (2 / 3) * 0.12 * len("Kreditbetrag in "), abs=1e-9)


def test_raster_channel_pairs_match_layout_channel():
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document
    from credit_ocr_backend_ray.sources.synth import (
        _layout_doc, raster_doc_bytes)

    cfg = default_config()["credit_request"]
    for i in (0, 7, 123):
        via_png = extract_document(raster_doc_bytes(i), cfg)
        via_json = extract_document(_layout_doc(i).encode("utf-8"), cfg)
        assert via_png["status"] == via_json["status"] == "Fertig"
        assert via_png["extracted_text"] == via_json["extracted_text"]
        assert via_png["n_lines"] == via_json["n_lines"]
        assert via_png["n_pairs"] == via_json["n_pairs"]
        pairs_png = [(f["name"], f["value"]) for f in via_png["fields"]]
        pairs_json = [(f["name"], f["value"]) for f in via_json["fields"]]
        assert pairs_png == pairs_json
        assert via_png["missing_fields"] == via_json["missing_fields"]


def test_raster_poison_payloads_are_isolated():
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document
    from credit_ocr_backend_ray.sources.synth import raster_doc_bytes

    cfg = default_config()["credit_request"]
    png = raster_doc_bytes(3)
    # truncated PNG: task survives, document goes terminal-error
    out = extract_document(png[: len(png) // 2], cfg)
    assert out["status"] == "Fehlerhaft"
    # pHYs stripped: a raster page without DPI is undecodable, by contract
    no_phys = png[:33] + png[33 + 21:]
    with pytest.raises(ValueError, match="pHYs"):
        extract_raster_layout(no_phys)
    assert extract_document(no_phys, cfg)["status"] == "Fehlerhaft"


def test_raster_unknown_glyph_raises():
    """Flip one pixel inside a glyph: template matching must refuse, not
    misread (exact-match OCR has no nearest-neighbour failure mode)."""
    from credit_ocr_backend_ray.functions.png import decode_png, encode_png

    png = render_page_png([{"text": "AB", "x_in": 1.0, "y_top_in": 1.0,
                            "h_in": 0.12}], dpi=100)
    arr = decode_png(png).copy()
    ys, xs = np.nonzero(arr[:, :, 0] < 128)
    arr[ys[0], xs[0] + 1] = 255 if arr[ys[0], xs[0] + 1, 0] < 128 else 0
    corrupted = encode_png(arr)
    # re-attach the pHYs chunk the re-encode dropped
    from credit_ocr_backend_ray.functions.raster import _phys_chunk
    corrupted = corrupted[:33] + _phys_chunk(100) + corrupted[33:]
    with pytest.raises(ValueError):
        extract_raster_layout(corrupted)


def test_render_rejects_out_of_scope_geometry():
    with pytest.raises(ValueError, match="integer glyph scale"):
        render_page_png([{"text": "x", "x_in": 1.0, "y_top_in": 1.0,
                          "h_in": 0.1}], dpi=100)
    with pytest.raises(ValueError, match="charset"):
        render_page_png([{"text": "☃", "x_in": 1.0, "y_top_in": 1.0,
                          "h_in": 0.12}], dpi=100)


def _parity_pages() -> list[bytes]:
    """Two renders (glyph scale 2 at 200 dpi; scales 1, 2 and 3 at 100
    dpi, with spaces and two segments on one band) and 20 copies with one
    to three pixels flipped: some inside a cell's sampled grid, some
    between its samples, some next to the ink."""
    from credit_ocr_backend_ray.functions.png import decode_png, encode_png
    from credit_ocr_backend_ray.functions.raster import _phys_chunk

    renders = [
        (200, [{"text": "Kreditbetrag in EUR", "x_in": 0.2, "y_top_in": 0.2,
                "h_in": 0.12},
               {"text": "700.000 €  ß²", "x_in": 2.5, "y_top_in": 0.21,
                "h_in": 0.12},
               {"text": "A: B", "x_in": 0.3, "y_top_in": 0.5,
                "h_in": 0.12}]),
        (100, [{"text": "Firmenname", "x_in": 0.2, "y_top_in": 0.2,
                "h_in": 0.12},
               {"text": "Demo GmbH", "x_in": 2.0, "y_top_in": 0.2,
                "h_in": 0.24},
               {"text": "x ÄÖÜ", "x_in": 0.2, "y_top_in": 0.6,
                "h_in": 0.36}]),
    ]
    pages = [render_page_png(runs, dpi=dpi) for dpi, runs in renders]
    r = random.Random(7)
    for (dpi, _), png in zip(renders, list(pages)):
        ink = decode_png(png)[:, :, 0] < 128
        ys, xs = np.nonzero(ink)
        for _ in range(10):
            flipped = ink.copy()
            for _ in range(r.choice((1, 1, 3))):
                i = r.randrange(len(ys))
                y = ys[i] + r.choice((0, 0, 1, -1, -3))
                x = xs[i] + r.choice((0, 0, 1, 2, -3))
                flipped[y, x] = not flipped[y, x]
            page = np.where(flipped[:, :, None], 0, 255).astype(np.uint8)
            page = np.repeat(page, 3, axis=2)
            enc = encode_png(page)
            pages.append(enc[:33] + _phys_chunk(dpi) + enc[33:])
    return pages


# sha256 over the outcomes of _parity_pages(), from the per-cell sample
# and packbits loop that preceded the one-pass segment sample
_PARITY_DIGEST = ("2d56044986d37aa3625893291e1ee4f0"
                  "7341d0c95abcf3f9f1439614303006fe")


def test_raster_outcomes_match_per_cell_decode():
    """Every layout document and every (exception type, message) of the
    seeded pages is what sampling and packing each cell on its own
    produced; the messages name the cell and rows that failed."""
    h = hashlib.sha256()
    pages = _parity_pages()
    for png in pages:
        try:
            out = repr(extract_raster_layout(png))
        except Exception as e:  # noqa: BLE001 — the error is the outcome
            out = f"{type(e).__name__}: {e}"
        h.update(hashlib.sha256(out.encode()).digest())
    assert len(pages) == 22
    assert h.hexdigest() == _PARITY_DIGEST
