"""Content-stream tokenizer of functions/pdf.py against a byte-at-a-time
oracle.

The oracle is the char-by-char ``_tokenize_content``/``_parse_string``
loop the compiled-pattern tokenizer replaced, with the ISO 32000-1
7.3.4.2 escape rules applied to its string decoder. Over a seeded corpus
of benchmark-style pages, their truncations and byte flips, and streams
built from the delimiter alphabet, the tokenizer must yield the oracle's
tokens, ``_parse_string`` its value and end index, and
``_runs_from_stream`` its runs or exception."""

import random
import re
from typing import Any

from credit_ocr_backend_ray.functions import pdf as P
from credit_ocr_backend_ray.sources.synth import pdf_doc_bytes

_NUM_RE = re.compile(rb"[-+]?\d*\.?\d+")


def _oracle_parse_string(data: bytes, i: int) -> tuple[bytes, int]:
    out = bytearray()
    depth = 1
    i += 1
    n = len(data)
    while i < n and depth:
        c = data[i:i + 1]
        if c == b"\\":
            nxt = data[i + 1:i + 2]
            if nxt in P._STR_ESCAPES:
                out += P._STR_ESCAPES[nxt]
                i += 2
            elif nxt and nxt in b"01234567":  # octal, up to 3 digits
                j = i + 1
                while j < min(i + 4, n) and data[j:j + 1] in b"01234567":
                    j += 1
                out.append(int(data[i + 1:j], 8) & 0xFF)
                i = j
            elif nxt == b"\r":  # line continuation: CR, LF or CR LF
                i += 3 if data[i + 2:i + 3] == b"\n" else 2
            elif nxt == b"\n":
                i += 2
            else:  # unknown escape: the backslash is dropped
                out += nxt
                i += 2
        elif c == b"(":
            depth += 1
            out += c
            i += 1
        elif c == b")":
            depth -= 1
            if depth:
                out += c
            i += 1
        else:
            out += c
            i += 1
    return bytes(out), i


def _oracle_tokenize(data: bytes):
    i, n = 0, len(data)
    while i < n:
        c = data[i:i + 1]
        if c in b" \t\r\n\x00":
            i += 1
        elif c == b"(":
            s, i = _oracle_parse_string(data, i)
            yield ("str", s)
        elif c == b"[":
            arr: list[tuple[str, Any]] = []
            i += 1
            while i < n and data[i:i + 1] != b"]":
                c2 = data[i:i + 1]
                if c2 == b"(":
                    s, i = _oracle_parse_string(data, i)
                    arr.append(("str", s))
                elif c2 in b" \t\r\n":
                    i += 1
                else:
                    m = _NUM_RE.match(data, i)
                    if m:
                        arr.append(("num", float(m.group())))
                        i = m.end()
                    else:
                        i += 1
            i += 1
            yield ("arr", arr)
        elif c == b"<":
            end = data.find(b">", i)
            i = (end + 1) if end >= 0 else n
        else:
            m = _NUM_RE.match(data, i)
            if m:
                yield ("num", float(m.group()))
                i = m.end()
            else:
                j = i
                while j < n and data[j:j + 1] not in b" \t\r\n()[]<>/%":
                    j += 1
                if j == i:
                    i += 1
                    continue
                yield ("op", data[i:j])
                i = j


_DELIMS = b"()[]<>/%\\ \t\r\n\x00-+.0123456789"
_FRAGMENTS = [
    b"(", b")", b"\\", b"[", b"]", b"<", b">", b"<<", b">>", b"/", b"%",
    b" ", b"  ", b"\n", b"\r\n", b"\t", b"\x00", b"\x00\x00",
    b"BT", b"ET", b"Tf", b"Tm", b"Td", b"TD", b"T*", b"Tj", b"TJ", b"'",
    b"/F1", b"12", b"-3.5", b".5", b"+7", b"-.", b"1.2.3", b"5x", b"x5",
    b"(abc)", b"(a(b)c)", b"(a\\)b)", b"(\\101)", b"(\\0053)", b"(\\18)",
    b"(\\8)", b"(\\q)", b"(a\\\r\nb)", b"(a\\\rb)", b"(a\\\nb)", b"(\\",
    b"(\\n\\t\\\\)", b"(\xe4\xf6\x80)", b"<414243>", b"<< /A 1 >>",
    b"[(ab) -50 (cd)]", b"[<41> 3 (x)]", b"[ (a\x00b) \x00 1 ]",
    b"[1 [2] x - + . 3]", b"{", b"}",
]


def _page_streams() -> list[bytes]:
    return [s for i in (0, 7, 123) for s in P._page_content_streams(
        pdf_doc_bytes(i))]


def _corpus(seed: int, n: int) -> list[bytes]:
    """``n`` streams: benchmark-style pages whole, slices of them
    truncated or flipped from the delimiter alphabet, and streams built
    from token fragments (escapes, nesting, NUL, hex, dicts, arrays)."""
    r = random.Random(seed)
    pages = _page_streams()
    out = list(pages)
    while len(out) < n:
        mode = r.randrange(3)
        if mode == 0:
            page = r.choice(pages)
            at = r.randrange(len(page))
            s = bytearray(page[at:at + r.randrange(1, 400)])
        else:
            s = bytearray(b"".join(
                r.choice(_FRAGMENTS) + r.choice((b"", b" ", b" ", b"\n"))
                for _ in range(r.randrange(1, 40))))
        for _ in range(r.randrange(4) if mode != 2 else 0):
            s[r.randrange(len(s))] = r.choice(_DELIMS)
        if r.random() < 0.3:
            del s[r.randrange(len(s) + 1):]
        out.append(bytes(s))
    return out


def _outcome(f) -> str:
    try:
        return repr(f())
    except Exception as e:  # noqa: BLE001 — the error is the outcome
        return f"{type(e).__name__}: {e}"


def test_tokenizer_matches_char_loop_oracle(monkeypatch):
    corpus = _corpus(8, 5000)
    assert len(set(corpus)) > 4500
    new_runs = [_outcome(lambda: P._runs_from_stream(s)) for s in corpus]
    for s in corpus:
        assert (_outcome(lambda: list(P._tokenize_content(s)))
                == _outcome(lambda: list(_oracle_tokenize(s)))), s
        for k in [m.start() for m in re.finditer(rb"\(", s)][:3]:
            assert P._parse_string(s, k) == _oracle_parse_string(s, k), s
    monkeypatch.setattr(P, "_tokenize_content", _oracle_tokenize)
    old_runs = [_outcome(lambda: P._runs_from_stream(s)) for s in corpus]
    assert new_runs == old_runs
    # the corpus reaches runs and operand errors, not only empty streams
    assert sum(o.startswith("[(") for o in new_runs) > 500
    assert sum(not o.startswith("[") for o in new_runs) > 20


def test_trailing_whitespace_tokenizes_in_linear_time():
    """200 KB of whitespace after the last token is one scan: the
    tokenizer once rescanned the run from every byte (61 s)."""
    import time

    data = b"BT 1 0 0 1 72 700 Tm (x) Tj ET" + b"\n" * 200_000
    t0 = time.perf_counter()
    tokens = list(P._tokenize_content(data))
    assert time.perf_counter() - t0 < 3.0
    assert tokens == list(_oracle_tokenize(data[:40]))
