"""One document's text rows as a column table, and its box arithmetic.

Every channel emits one ``LineTable``: a row per line and per word, each
column a plain list (``type`` "line"/"word", ``text``, ``page``, ``conf``,
and ``box``: None or a tuple of ``(x, y)`` tuples of the channel's own
coordinate objects). Pairing computes centre y for every row in its
(page, centre y) sort over all rows, and centre x and height per page;
the text's reading order sorts the line rows on their own by the same
keys. So a malformed box fails at the same step, with the same message,
as in the reference's per-record code.
``{x, y}`` dicts are built only for output. A table is also a read-only
sequence of the record dicts ``{type, text, page, bounding_box,
confidence}``, built on each access (take ``list(table)`` to walk them
more than once); ``LineTable.of`` turns a record list into a table.

The arithmetic mirrors the reference's ``postprocess.py`` (sum/len
centres from 0.0, max-min extents), so every float is bit-identical.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import Any

# the conf of a record that has no "confidence" key
MISSING = object()


def box_center(box, axis: int) -> float:
    """Mean x (``axis`` 0) or y (1) of a box's points; 0.0 for no box."""
    if not box:
        return 0.0
    t = 0.0
    for p in box:
        t += p[axis]
    return t / len(box)


def box_height(box) -> float:
    if not box:
        return 0.0
    it = iter(box)
    lo = hi = next(it)[1]
    for _, y in it:
        if y < lo:
            lo = y
        elif y > hi:
            hi = y
    return hi - lo


def points(box) -> list[dict[str, Any]] | None:
    """A box as the output's ``[{"x", "y"}, ...]`` (None stays None)."""
    return None if box is None else [{"x": x, "y": y} for x, y in box]


class LineTable(Sequence):
    __slots__ = ("type", "text", "page", "conf", "box", "cy", "_keys")

    def __init__(self, rows):
        """``rows``: ``(type, text, page, conf, box)`` tuples."""
        cols = [list(c) for c in zip(*rows)] or [[], [], [], [], []]
        self.type, self.text, self.page, self.conf, self.box = cols
        self.cy = self._keys = None

    @classmethod
    def of(cls, lines) -> "LineTable":
        """``lines`` if it is a table, else a table of its record dicts."""
        if isinstance(lines, cls):
            return lines
        return cls((r["type"], r["text"], r["page"],
                    r.get("confidence", MISSING),
                    None if r["bounding_box"] is None else
                    tuple((p["x"], p["y"]) for p in r["bounding_box"]))
                   for r in lines)

    def confidence(self, i: int, default=None):
        c = self.conf[i]
        return default if c is MISSING else c

    def order(self) -> list[int]:
        """Row indices stably sorted by (page, centre y), words included:
        the reference's pairing sort. Keeps ``cy`` and the keys."""
        self.cy = [box_center(b, 1) for b in self.box]
        self._keys = list(zip(self.page, self.cy))
        return sorted(range(len(self._keys)), key=self._keys.__getitem__)

    def line_order(self) -> list[int]:
        """The line rows stably sorted by (page, centre y) on their own,
        as the reference sorts them for the text (with NaN keys that is
        not ``order()`` filtered to lines); ``order()``'s keys if it ran."""
        page, box, keys = self.page, self.box, self._keys
        key = (keys.__getitem__ if keys is not None
               else lambda i: (page[i], box_center(box[i], 1)))
        return sorted((i for i, t in enumerate(self.type) if t == "line"),
                      key=key)

    def __len__(self) -> int:
        return len(self.type)

    def __getitem__(self, i: int) -> dict[str, Any]:
        rec = {"type": self.type[i], "text": self.text[i],
               "page": self.page[i], "bounding_box": points(self.box[i])}
        if self.conf[i] is not MISSING:
            rec["confidence"] = self.conf[i]
        return rec

    def __eq__(self, other):
        if isinstance(other, (list, LineTable)):
            return list(self) == list(other)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        return repr(list(self))
