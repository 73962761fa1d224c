"""Text analysis kernels: token counting, quality scoring, language ID,
document fingerprinting. Vectorized (numpy / Python str ops per batch
column) — these run inside ``map_batches`` over the ``documents`` table and
the web-pages table.

Definitions are chosen to be exactly reproducible in ANSI SQL (DuckDB
oracle) where possible:

- ``token_count``   = ``len(text.split())``: tokens split on every character
  for which ``str.isspace()`` is true (``\\s`` in Python ``re``)
- ``digit_ratio``   = digit chars / total chars
- ``upper_ratio``   = uppercase chars / total chars
- ``fingerprint``   = md5 of ``lower()`` whitespace-collapsed text
- ``lang_id``       = stopword/charclass heuristic (not SQL-expressible)
"""

from __future__ import annotations

import hashlib
import re

# tiny built-in stopword banks (public common-word lists), lowercase
_STOPWORDS = {
    "en": {"the", "a", "of", "and", "to", "in", "is", "it", "that", "for",
           "on", "with", "as", "was", "at", "by", "this", "are", "be", "or"},
    "de": {"der", "die", "das", "und", "ist", "nicht", "mit", "ein", "eine",
           "zu", "den", "von", "für", "auf", "im", "des", "sich", "dem"},
    "fr": {"le", "la", "les", "de", "des", "et", "est", "un", "une", "du",
           "en", "que", "qui", "dans", "pour", "sur", "pas", "au"},
    "es": {"el", "la", "los", "las", "de", "y", "es", "un", "una", "del",
           "en", "que", "por", "para", "con", "no", "se", "su"},
}


def tokens(text: str | None) -> list[str]:
    """The whitespace tokenizer of every text operator: ``None`` and
    whitespace-only text have no tokens."""
    return text.split() if text else []


def token_count(text: str) -> int:
    return len(tokens(text))


# GPT-2-style pre-tokenizer regex (public pattern family), restricted to
# RE2-compatible syntax (no lookahead) so DuckDB's regexp_extract_all
# produces the identical token stream for the SQL oracle
_BPE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+")
BPE_SQL_PATTERN = (
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\s]+|\s+")


def bpe_token_count(text: str) -> int:
    """BPE-ish subword-boundary token count (GPT-2 pre-tokenizer shape)."""
    return len(_BPE.findall(text))


def char_stats(text: str) -> tuple[int, int, int, int]:
    """(n_chars, n_digits, n_upper, n_punct)."""
    n_digit = sum(ch.isdigit() for ch in text)
    n_upper = sum(ch.isupper() for ch in text)
    n_punct = sum(not ch.isalnum() and not ch.isspace() for ch in text)
    return len(text), n_digit, n_upper, n_punct


def quality_score(text: str) -> float:
    """Heuristic [0,1] quality: penalize extreme length, digit soup,
    shouting, and punctuation noise. Deterministic; not SQL-pinned (its
    components are)."""
    n, n_digit, n_upper, n_punct = char_stats(text)
    if n == 0:
        return 0.0
    nt = token_count(text)
    mean_tok = (n / nt) if nt else 0.0
    score = 1.0
    if n < 50:
        score -= 0.3
    if n_digit / n > 0.3:
        score -= 0.3
    if n_upper / n > 0.3:
        score -= 0.2
    if n_punct / n > 0.25:
        score -= 0.2
    if mean_tok > 12 or (0 < mean_tok < 2.5):
        score -= 0.2
    return round(max(score, 0.0), 3)


def lang_id(text: str) -> str:
    """Stopword/char-class language guess over {en,de,fr,es,zh};
    'und' (unknown) when nothing scores."""
    if any("一" <= ch <= "鿿" for ch in text):
        return "zh"
    toks = [t.lower() for t in tokens(text)]
    if not toks:
        return "und"
    best_lang, best_hits = "und", 0
    for lang in ("en", "de", "fr", "es"):  # fixed order => deterministic ties
        hits = sum(t in _STOPWORDS[lang] for t in toks)
        if hits > best_hits:
            best_lang, best_hits = lang, hits
    return best_lang


def fingerprint_md5(text: str) -> str:
    """SQL-pinned fingerprint: md5(lower(whitespace-collapsed))."""
    norm = " ".join(text.split()).lower()
    return hashlib.md5(norm.encode("utf-8")).hexdigest()


def rolling_fingerprint(text: str, window: int = 8) -> int:
    """64-bit rolling (Rabin-Karp-style) token-window fingerprint: xor of
    FNV-1a hashes of each ``window``-token shingle — order-sensitive,
    cheap, mergeable by xor."""
    toks = tokens(text)
    if not toks:
        return 0
    acc = 0
    if len(toks) < window:
        return _fnv1a(" ".join(toks))
    for i in range(len(toks) - window + 1):
        acc ^= _fnv1a(" ".join(toks[i:i + window]))
    return acc


def _fnv1a(s: str) -> int:
    h = 0xCBF29CE484222325
    for b in s.encode("utf-8"):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h
