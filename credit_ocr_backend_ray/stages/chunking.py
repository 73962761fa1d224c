"""Training-prep chunking operators: fixed-window chunking, duplicate-
passage removal, and sequence packing via a distributed prefix sum.

The reference processes one credit document per task end-to-end
(/root/reference/src/pipeline/document_pipeline.py) and never re-shapes
text for training; these are scale additions on the SURVEY §2.10a
surface — the steps between a curated crawl and a token-budgeted
training shard:

- ``chunk_documents``: every length-``window`` token slice at stride
  ``stride`` (the context-window split of LLM pre-processing). Pure
  stateless flat map — no shuffle, no state.
- ``chunk_dedup``: drop repeated passages at chunk granularity, keeping
  the first occurrence in ``(doc_id, chunk_idx)`` order — the
  chunk-level form of Lee et al. 2022's duplicate-passage removal.
  Combiner-pruned like ``dedup.dedup_exact``: duplicates within a batch
  never cross the one shuffle. The group key is the chunk text itself
  (exact semantics, SQL-oracle-able); at 100 TB you'd key the shuffle by
  a 16-byte content hash instead and verify in-bucket — same shape,
  smaller exchange.
- ``pack_sequences``: GPT-style stream packing — concatenate documents
  in ``doc_id`` order and cut every ``budget`` tokens; each document
  reports the pack it starts in and its offset there. The global
  running token count is a textbook distributed prefix sum: one bounded
  partial pass emits per-shard token totals (shard = doc_id //
  shard_width), the driver folds them into O(#shards) cumulative
  offsets (bounded state, same altitude as the extraction manifest),
  and a second per-shard pass adds offset + local cumsum. Token counts
  are computed ONCE into a 3-int-per-doc side dataset that is
  materialized (bounded: ~24 B/doc, ~2.4 GB per 100 M docs, spillable)
  so the two passes cannot diverge.

Determinism: every output column is an int64 or the chunk string —
hash-exact against the DuckDB oracles with no float contract needed.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data as rd

from credit_ocr_backend_ray.functions.textstats import tokens


def chunk_documents(ds: "rd.Dataset", window: int, stride: int,
                    text_col: str = "text",
                    id_col: str = "doc_id") -> "rd.Dataset":
    """Emit ``(id, chunk_idx, chunk_text, n_tokens)`` for every token
    window ``tokens[s : s+window]`` with starts ``0, stride, 2*stride,
    ...`` while ``s < len(tokens)`` (trailing windows may be short).
    ``chunk_idx = s // stride``. Documents with no tokens emit nothing."""

    def emit(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        idxs: list[int] = []
        texts: list[str] = []
        ntoks: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            for ci, s in enumerate(range(0, len(toks), stride)):
                chunk = toks[s:s + window]
                ids.append(i)
                idxs.append(ci)
                texts.append(" ".join(chunk))
                ntoks.append(len(chunk))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "chunk_idx": pa.array(idxs, pa.int64()),
                         "chunk_text": pa.array(texts, pa.string()),
                         "n_tokens": pa.array(ntoks, pa.int64())})

    return ds.map_batches(emit, batch_format="pyarrow")


def chunk_dedup(ds: "rd.Dataset", window: int, text_col: str = "text",
                id_col: str = "doc_id") -> "rd.Dataset":
    """First occurrence of every distinct non-overlapping ``window``-token
    chunk, "first" = smallest ``(id, chunk_idx)``. Returns
    ``(id, chunk_idx, chunk_text)``."""
    chunks = chunk_documents(ds, window, window, text_col, id_col) \
        .select_columns([id_col, "chunk_idx", "chunk_text"])
    order = [id_col, "chunk_idx"]

    from credit_ocr_backend_ray.stages.relational import shard_cogroup

    def first_of(b: pd.DataFrame) -> pd.DataFrame:
        return (b.sort_values(order)
                 .groupby("chunk_text", as_index=False, sort=False).head(1))

    # coarse-shard co-group, not per-chunk-text map_groups: distinct
    # chunks ~ corpus size, and Ray prices groupby(key) by distinct-key
    # count (measured 64-78 s at 400k keys vs ~3 s for 64 shards)
    return shard_cogroup(chunks.map_batches(first_of, batch_format="pandas"),
                         "chunk_text", first_of)


def dedup_chunks_in_doc(toks: list[str], window: int) \
        -> tuple[list[str], int]:
    """Shared kernel of ``intra_doc_dedup`` (also used by
    ``pipelines.curation.curate_pack``): split ``toks`` into
    non-overlapping ``window``-token chunks, keep each distinct chunk's
    first occurrence in order. Returns (kept chunk strings, #removed)."""
    seen: set[str] = set()
    keep: list[str] = []
    n_rm = 0
    for s in range(0, len(toks), window):
        chunk = " ".join(toks[s:s + window])
        if chunk in seen:
            n_rm += 1
        else:
            seen.add(chunk)
            keep.append(chunk)
    return keep, n_rm


def intra_doc_dedup(ds: "rd.Dataset", window: int,
                    text_col: str = "text",
                    id_col: str = "doc_id") -> "rd.Dataset":
    """Within-document repetition removal (the MassiveText/Gopher
    repetition rule at chunk granularity): split each document into
    non-overlapping ``window``-token chunks, drop every chunk whose text
    already appeared EARLIER IN THE SAME DOCUMENT, and re-join the
    survivors in order. Returns ``(id, clean_text,
    n_chunks_removed)`` for every tokenized document.

    Purely in-row — a stateless map with no shuffle at any scale (the
    dedup scope is one document, so no cross-row state exists)."""

    def clean(t: pa.Table) -> pa.Table:
        ids: list[int] = []
        texts: list[str] = []
        removed: list[int] = []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if not toks:
                continue
            keep, n_rm = dedup_chunks_in_doc(toks, window)
            ids.append(i)
            texts.append(" ".join(keep))
            removed.append(n_rm)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "clean_text": pa.array(texts, pa.string()),
                         "n_chunks_removed": pa.array(removed, pa.int64())})

    return ds.map_batches(clean, batch_format="pyarrow")


def pack_sequences(ds: "rd.Dataset", budget: int,
                   shard_width: int = 1024, text_col: str = "text",
                   id_col: str = "doc_id") -> "rd.Dataset":
    """Assign every tokenized document its slot in a budget-token packed
    stream: documents concatenate in ``id`` order and cut every
    ``budget`` tokens; returns ``(id, n_tokens, pack_id, pack_offset)``
    with ``pack_id = cum_before // budget``, ``pack_offset = cum_before
    % budget`` where ``cum_before`` is the total token count of all
    lower-id documents. Zero-token documents are excluded.

    Distributed prefix sum (see module docstring): per-shard totals in
    one bounded pass, O(#shards) driver fold, per-shard local cumsum —
    never a global sort and never more than one shuffle of 3-int rows."""

    def count_tokens(t: pa.Table) -> pa.Table:
        ids, nt = [], []
        for i, txt in zip(t[id_col].to_pylist(), t[text_col].to_pylist()):
            toks = tokens(txt)
            if toks:
                ids.append(i)
                nt.append(len(toks))
        import numpy as np
        shard = (np.asarray(ids, dtype="int64") // shard_width
                 if ids else np.empty(0, "int64"))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "n_tokens": pa.array(nt, pa.int64()),
                         "__shard": pa.array(shard, pa.int64())})

    counts = ds.map_batches(count_tokens,
                            batch_format="pyarrow").materialize()

    def shard_partial(t: pa.Table) -> pa.Table:
        return t.group_by(["__shard"]).aggregate([("n_tokens", "sum")]) \
                .rename_columns(["__shard", "__tot"])

    parts = counts.map_batches(shard_partial, batch_format="pyarrow") \
                  .to_pandas()
    totals = parts.groupby("__shard")["__tot"].sum().sort_index()
    offsets = (totals.cumsum() - totals).to_dict()  # shard -> tokens before

    def pack_shard(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(id_col)
        cum_before = (offsets[int(g["__shard"].iloc[0])]
                      + g["n_tokens"].cumsum() - g["n_tokens"])
        return pd.DataFrame({
            id_col: g[id_col].to_numpy(),
            "n_tokens": g["n_tokens"].to_numpy(),
            "pack_id": (cum_before // budget).to_numpy(),
            "pack_offset": (cum_before % budget).to_numpy(),
        })

    return counts.groupby("__shard").map_groups(pack_shard,
                                                batch_format="pandas")
