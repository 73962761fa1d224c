"""Stdlib-only PNG codec (zlib + struct) — no Pillow in this environment.

Closes the reference's real annotated-page format (S13/M14: the reference
writes PNGs, /root/reference/src/visualization/pdf_visualizer.py:186-189):
a PNG is just zlib-deflated filtered scanlines wrapped in CRC'd chunks,
all stdlib — the same trick as the zip-of-XML xlsx sink.

Scope: 8-bit RGB (color type 2), non-interlaced — exactly what the
annotation renderer produces. ``encode_png`` uses the Up filter on every
scanline (vertical delta), which compresses page rasters: a row equal to
the one above filters to zeros. ``decode_png`` inflates at most one byte
past the size the header declares, so a deflate bomb costs no more memory
than an honest file. An all-Up file is un-filtered only where it changes:
the non-zero filtered rows are summed in turn on top of a zero row, and
every output row is gathered from the last of them at or above it (one
uint8 add per changed row; on a benchmark page 309 of 2208). Filter types
0/1/3/4 decode too, so third-party RGB PNGs work; such a file goes through
a per-row scan (correctness path, not the hot path — our own files never
use them).
"""

from __future__ import annotations

import struct
import sys
import zlib

import numpy as np

_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, body: bytes) -> bytes:
    return (struct.pack(">I", len(body)) + tag + body
            + struct.pack(">I", zlib.crc32(tag + body) & 0xFFFFFFFF))


def encode_png(arr: np.ndarray, level: int = 6) -> bytes:
    """(h, w, 3) uint8 -> PNG bytes (RGB8, non-interlaced, Up-filtered)."""
    if arr.ndim != 3 or arr.shape[2] != 3 or arr.dtype != np.uint8:
        raise ValueError("encode_png expects (h, w, 3) uint8")
    h, w = arr.shape[:2]
    # Up filter: row minus previous row (uint8 wraparound), first row as-is
    filt = arr.copy()
    filt[1:] -= arr[:-1]
    lines = np.empty((h, 1 + w * 3), dtype=np.uint8)
    lines[:, 0] = 2  # filter type 2 = Up
    lines[:, 1:] = filt.reshape(h, w * 3)
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)
    return (_SIG + _chunk(b"IHDR", ihdr)
            + _chunk(b"IDAT", zlib.compress(lines.tobytes(), level))
            + _chunk(b"IEND", b""))


def _defilter_row(ft: int, cur: np.ndarray, prev: np.ndarray,
                  bpp: int) -> np.ndarray:
    """In-place defilter of one scanline (int16 workspace, mod-256 out)."""
    if ft == 0:
        return cur
    if ft == 2:  # Up
        cur += prev
        return cur
    n = cur.shape[0]
    if ft == 1:  # Sub: sequential along the row (mod each step — the
        for i in range(bpp, n):  # running value must stay a byte)
            cur[i] = (cur[i] + cur[i - bpp]) & 0xFF
        return cur
    if ft == 3:  # Average
        for i in range(n):
            a = cur[i - bpp] if i >= bpp else 0
            cur[i] = (cur[i] + ((int(a) + int(prev[i])) >> 1)) & 0xFF
        return cur
    if ft == 4:  # Paeth
        for i in range(n):
            a = int(cur[i - bpp]) if i >= bpp else 0
            b = int(prev[i])
            c = int(prev[i - bpp]) if i >= bpp else 0
            p = a + b - c
            pa_, pb, pc = abs(p - a), abs(p - b), abs(p - c)
            pred = a if (pa_ <= pb and pa_ <= pc) else (b if pb <= pc else c)
            cur[i] = (cur[i] + pred) & 0xFF
        return cur
    raise ValueError(f"unknown PNG filter type {ft}")


def inflate(idat: bytes, size: int) -> bytes:
    """zlib-inflate ``idat``, stopping one byte past ``size``: an
    over-long stream comes back ``size + 1`` bytes long, and a stream cut
    short raises zlib's own truncation error."""
    d = zlib.decompressobj()
    raw = d.decompress(idat, min(size + 1, sys.maxsize))
    if len(raw) <= size and not d.eof:
        raise zlib.error("Error -5 while decompressing data: "
                         "incomplete or truncated stream")
    return raw


def decode_png(data: bytes, plane: int | None = None) -> np.ndarray:
    """PNG bytes -> (h, w, 3) uint8, or with ``plane=c`` the contiguous
    (h, w) channel ``c``. RGB8 non-interlaced only (the format this
    engine emits); other color types / bit depths raise."""
    if not data.startswith(_SIG):
        raise ValueError("not a PNG")
    pos = len(_SIG)
    w = h = None
    idat = bytearray()
    while pos + 8 <= len(data):
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4:pos + 8]
        body = data[pos + 8:pos + 8 + length]
        pos += 12 + length  # len + tag + body + crc
        if tag == b"IHDR":
            w, h, depth, ctype, comp, filt, ilace = struct.unpack(
                ">IIBBBBB", body)
            if (depth, ctype, comp, filt, ilace) != (8, 2, 0, 0, 0):
                raise ValueError(
                    f"unsupported PNG (depth={depth} color={ctype} "
                    f"interlace={ilace}); this codec is RGB8 only")
        elif tag == b"IDAT":
            idat += body
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("PNG missing IHDR")
    stride = 1 + w * 3
    raw = np.frombuffer(inflate(bytes(idat), h * stride), dtype=np.uint8)
    if raw.size != h * stride:
        raise ValueError("PNG scanline payload size mismatch")
    raw = raw.reshape(h, stride)
    fts = raw[:, 0]
    if (fts == 2).all():  # the fast path for our own files
        # an Up row of zeros repeats the row above, so only the changed
        # rows are summed (uint8 adds wrap mod 256, the filter's inverse),
        # on top of a zero row for the rows above the first change
        body = raw[:, 1:]
        changed = np.flatnonzero(body.any(axis=1))
        acc = np.zeros((changed.size + 1, w * 3), dtype=np.uint8)
        acc[1:] = body[changed]
        for k in range(2, acc.shape[0]):
            np.add(acc[k], acc[k - 1], out=acc[k])
        row_of = np.searchsorted(changed, np.arange(h), "right")
        if plane is None:
            return acc[row_of].reshape(h, w, 3)
        return np.ascontiguousarray(acc[:, plane::3])[row_of]
    body16 = raw[:, 1:].astype(np.int16)
    prev = np.zeros(w * 3, dtype=np.int16)
    out = np.empty((h, w * 3), dtype=np.uint8)
    for y in range(h):
        row = _defilter_row(int(fts[y]), body16[y] % 256, prev, bpp=3)
        row %= 256
        out[y] = row.astype(np.uint8)
        prev = row
    out = out.reshape(h, w, 3)
    return out if plane is None else np.ascontiguousarray(out[:, :, plane])
