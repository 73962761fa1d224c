"""Property-based tests (hypothesis) for the scalar kernels — the
reference has no randomized testing (SURVEY §5); these pin invariants of
clean_value / validate_field / the hashing sketches across the whole input
space, not just fixtures. All pure functions: no Ray session needed."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st

from credit_ocr_backend_ray.functions.values import clean_value


@given(st.integers(min_value=0, max_value=999), st.integers(0, 99))
def test_currency_single_separator_parses(whole, frac):
    # "NNN,FF €" → float NNN.FF (German decimal comma)
    s = f"{whole},{frac:02d} €"
    out = clean_value(s, "currency")
    assert out == float(f"{whole}.{frac:02d}")


@given(st.integers(min_value=1000, max_value=999_999))
def test_currency_single_thousand_dot_quirk(n):
    # reference quirk: "700.000€" parses the thousands dot as a decimal
    s = f"{n // 1000}.{n % 1000:03d}€"
    out = clean_value(s, "currency")
    assert out == float(f"{n // 1000}.{n % 1000:03d}")


@given(st.integers(min_value=1_000_000, max_value=999_999_999))
def test_currency_two_separator_quirk_raises(n):
    # reference quirk: two dots survive cleaning -> float() raises
    s = f"{n // 1_000_000}.{(n // 1000) % 1000:03d}.{n % 1000:03d}€"
    try:
        clean_value(s, "currency")
        raised = False
    except ValueError:
        raised = True
    assert raised


@given(st.dates())
def test_date_accepts_exactly_ddmmyyyy(d):
    s = d.strftime("%d.%m.%Y")
    if len(str(d.year)) == 4:
        assert clean_value(s, "date") == s
    assert clean_value(d.isoformat(), "date") is None  # ISO form dropped


@given(st.text(max_size=50))
def test_number_extracts_digits_or_none(s):
    digits = "".join(ch for ch in s if ch.isdigit())
    if not (s and digits):
        assert clean_value(s, "number") is None
        return
    # reference quirk: str.isdigit() admits some Unicode digits that int()
    # rejects (e.g. '²' — isdigit but not category Nd), which raise
    # ValueError caught per row by callers. Nd digits like Thai '๐' ARE
    # accepted by int() and must parse. The kernel's contract is exactly
    # int()'s: derive the expectation from int(digits) itself.
    try:
        expected = int(digits)
    except ValueError:
        expected = ValueError
    if expected is ValueError:
        try:
            clean_value(s, "number")
            raised = False
        except ValueError:
            raised = True
        assert raised
    else:
        assert clean_value(s, "number") == expected


@given(st.text(max_size=30))
def test_boolean_is_checkbox_containment(s):
    if s:
        assert clean_value(s, "boolean") == ("[x]" in s.lower())


@given(st.text(max_size=50))
def test_string_strips(s):
    if s:
        assert clean_value(s, "string") == s.strip()


@given(st.text(max_size=200), st.text(max_size=200))
@settings(max_examples=50, deadline=None)  # first call pays pandas hash-kernel warm-up
def test_jaccard_bounds_and_symmetry(a, b):
    from credit_ocr_backend_ray.functions.hashing import jaccard

    j = jaccard(a, b)
    assert 0.0 <= j <= 1.0
    assert j == jaccard(b, a)
    assert jaccard(a, a) == 1.0


@given(st.lists(st.text(min_size=1, max_size=8), min_size=0, max_size=40))
@settings(max_examples=50)
def test_minhash_signature_is_permutation_invariant(tokens):
    import numpy as np
    from credit_ocr_backend_ray.functions.hashing import minhash_signature

    text = " ".join(tokens)
    rev = " ".join(reversed(tokens))
    sig = minhash_signature(text)
    assert sig.shape == (128,)
    # signature depends on the shingle SET; reversing reorders shingles
    # but a single-token or empty text has the same set either way
    if len(tokens) <= 1:
        assert (sig == minhash_signature(rev)).all()
    # determinism
    assert (sig == minhash_signature(text)).all()


@given(st.integers(min_value=0, max_value=2**64 - 1),
       st.integers(min_value=0, max_value=2**64 - 1))
def test_hamming64_matches_popcount(a, b):
    from credit_ocr_backend_ray.functions.hashing import hamming64

    assert hamming64(a, b) == bin(a ^ b).count("1")
    assert hamming64(a, a) == 0


@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
@settings(max_examples=100)
def test_validate_number_range(v):
    from credit_ocr_backend_ray.functions.validate import validate_field

    rules = {"type": "number", "min": 0, "max": 1000}
    out = validate_field({"value": v}, rules)
    assert out["is_valid"] == (0 <= v <= 1000)
    # raw (non-dict) values are rejected as invalid format (reference
    # contract: the field must arrive wrapped as {"value": ...})
    assert validate_field(v, rules)["errors"] == ["Invalid field format"]


@given(st.text(alphabet="0123456789.,", min_size=1, max_size=12))
@settings(max_examples=100)
def test_validate_german_number_strings_never_crash(s):
    from credit_ocr_backend_ray.functions.validate import validate_field

    out = validate_field(s, {"type": "number", "min": 0})
    assert isinstance(out["is_valid"], bool)
    assert isinstance(out["errors"], list)


@given(st.binary(max_size=300))
@settings(max_examples=80, deadline=None)
def test_extract_document_never_raises(payload):
    """Total robustness: ANY byte payload (garbage, truncated JSON, partial
    UTF-8, empty) must produce a status row, never an exception — the
    poison-pill contract every block depends on."""
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document

    cfg = default_config()["credit_request"]
    out = extract_document(payload, cfg)
    assert out["status"] in ("Fertig", "Fehlerhaft")
    assert isinstance(out["missing_fields"], list)
    if out["status"] == "Fehlerhaft":
        assert out["error"]


@given(st.text(max_size=300).map(lambda s: ("{" + s).encode("utf-8")))
@settings(max_examples=40, deadline=None)
def test_extract_document_handles_jsonish_payloads(payload):
    # payloads sniffed as layout JSON (leading '{') take the json.loads
    # path; malformed ones must land in Fehlerhaft, valid-but-wrong-shape
    # ones too — never an exception
    from credit_ocr_backend_ray.config import default_config
    from credit_ocr_backend_ray.functions.document import extract_document

    cfg = default_config()["credit_request"]
    out = extract_document(payload, cfg)
    assert out["status"] in ("Fertig", "Fehlerhaft")


@given(st.lists(
    st.tuples(
        st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126)
                | st.sampled_from("ÄÖÜäöüß€"),
                min_size=1, max_size=20).filter(lambda s: s.strip()),
        st.floats(min_value=0.1, max_value=7.0, allow_nan=False),
        st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
        st.floats(min_value=0.05, max_value=0.5, allow_nan=False)),
    min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_pdf_roundtrip_property(runs):
    """Any single-page PDF of printable ASCII and the cp1252 letters the
    writer emits (umlauts, sharp s, Euro sign) we can read back with
    exact text and Courier-metric geometry."""
    from credit_ocr_backend_ray.functions.pdf import (
        build_pdf, extract_pdf_layout)

    spec = [{"text": t, "x_in": x, "y_top_in": y, "h_in": h}
            for t, x, y, h in runs]
    doc = extract_pdf_layout(build_pdf([spec]))
    lines = doc["pages"][0]["lines"]
    assert [ln["content"] for ln in lines] == [r["text"] for r in spec]
    # tolerance: the writer formats coordinates/font size as %.4f POINTS
    # -> up to 0.5e-4 pt (~7e-7 in) quantization, scaled by len() for the
    # width term
    for ln, r in zip(lines, spec):
        p = ln["polygon"]
        assert abs(p[0]["x"] - r["x_in"]) < 1e-5
        assert abs(p[0]["y"] - r["y_top_in"]) < 1e-5
        assert abs((p[2]["y"] - p[0]["y"]) - r["h_in"]) < 1e-5
        assert abs((p[1]["x"] - p[0]["x"])
                   - 0.6 * r["h_in"] * len(r["text"])) < 3e-5


@given(st.integers(1, 40), st.integers(1, 40), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_png_roundtrip_property(h, w, seed):
    import numpy as np
    from credit_ocr_backend_ray.functions.png import decode_png, encode_png

    arr = (np.random.default_rng(seed)
           .integers(0, 256, (h, w, 3)).astype(np.uint8))
    assert (decode_png(encode_png(arr)) == arr).all()
