"""Training-data curation: the composite pipeline a 100 TB corpus needs,
chaining this engine's stages end-to-end over the ``documents`` table:

    read -> text stats + language ID + quality scoring   [stateless maps]
         -> keep lang-consistent, quality >= threshold    [filter]
         -> exact dedup (sha256 of normalized text)       [shuffle #1]
         -> MinHash+LSH near-dup clustering               [LSH shuffle]
         -> keep one representative per near-dup cluster  [broadcast filter]
         -> curated output + per-stage funnel counts

Every stage is an existing, individually oracle-checked operator; this
module only composes them (SURVEY §2.10a: the dedup/quality/lang families).
The funnel counts are the lineage: how many documents each gate removed.
"""

from __future__ import annotations

import hashlib

import pandas as pd
import pyarrow as pa

import ray
import ray.data as rd

from credit_ocr_backend_ray.stages.dedup import (
    cluster_pairs, dedup_exact, minhash_dedup_pairs,
)
from credit_ocr_backend_ray.stages.text import (
    lang_id_batch, quality_batch, text_stats_batch,
)


def curate_documents(ds: "rd.Dataset", min_quality: float = 0.5,
                     jaccard_threshold: float = 0.8,
                     id_col: str = "doc_id",
                     text_col: str = "text") -> tuple["rd.Dataset", dict]:
    """Run the curation funnel; returns (curated dataset, funnel counts).

    Scale shape: the scoring/filter stages are stateless maps; exact dedup
    is one hash shuffle; near-dup moves only signatures through the LSH
    shuffle; the cluster-representative filter broadcasts the (small,
    verified) non-representative id set. The funnel dict is driver-side
    bookkeeping, one count per stage."""
    funnel: dict[str, int] = {"input": ds.count()}

    scored = (ds.map_batches(text_stats_batch, batch_format="pyarrow")
                .map_batches(lang_id_batch, batch_format="pyarrow")
                .map_batches(quality_batch, batch_format="pyarrow"))

    # gate 1: quality + predicted-language agreement with the labeled lang.
    # The gated set is materialized ONCE: three downstream consumers
    # (funnel count, near-dup signatures, final filter) would otherwise
    # each re-execute the scoring pass. At 100 TB this checkpoint is
    # written as partitioned parquet (a resume boundary, like the
    # extraction pipeline's shard groups) instead of pinned in the object
    # store; the composition is identical.
    kept = scored.filter(
        expr=f"quality >= {min_quality} and pred_lang == lang").materialize()
    funnel["after_quality_lang"] = kept.count()

    # gate 2: exact dedup on the sha256 of whitespace-normalized text
    def add_hash(t: pa.Table) -> pa.Table:
        hs = [hashlib.sha256(" ".join((x or "").split()).encode("utf-8"))
              .hexdigest() for x in t[text_col].to_pylist()]
        return t.append_column("text_sha", pa.array(hs, pa.string()))

    hashed = kept.map_batches(add_hash, batch_format="pyarrow")
    exact = dedup_exact(hashed, hash_col="text_sha",
                        tie_col=id_col).materialize()  # second checkpoint
    funnel["after_exact_dedup"] = exact.count()

    # gate 3: near-dup clustering; drop everything but each cluster's rep
    pairs = minhash_dedup_pairs(exact, text_col=text_col, id_col=id_col,
                                threshold=jaccard_threshold)
    reps = cluster_pairs(pairs)
    drop = {int(k) for k, v in reps.items() if k != v}
    funnel["near_dup_pairs"] = len(pairs)
    funnel["near_dup_dropped"] = len(drop)
    ref = ray.put(drop)

    def drop_near_dups(b: pd.DataFrame) -> pd.DataFrame:
        d = ray.get(ref)
        return b[~b[id_col].isin(d)]

    curated = exact.map_batches(drop_near_dups, batch_format="pandas")
    funnel["output"] = funnel["after_exact_dedup"] - len(drop)
    return curated, funnel


def curate_pack(ds: "rd.Dataset", min_tokens: int = 20,
                max_dup_micro: int = 600_000,
                max_source_mean_dup_micro: int = 520_000,
                window: int = 16, budget: int = 512,
                shard_width: int = 1024, id_col: str = "doc_id",
                text_col: str = "text",
                source_col: str = "source") -> "rd.Dataset":
    """The fully-SQL-oracle-able curation composite (every stage in it is
    individually hash-checked, and so is the composition — unlike
    ``curate_documents``, whose MinHash stage has no SQL form):

        doc gates (token count, duplicate-token fraction)
        -> source gate (reputation roll-up, broadcast)
        -> within-document repetition removal
        -> sequence packing (distributed prefix sum)

    returning ``(id, n_tokens, pack_id, pack_offset)`` over the CLEANED
    token stream. Scale shape: the source-reputation table is one row
    per source (bounded — web domains, not documents), so it folds to
    the driver and ships as a broadcast set; every per-document stage is
    a stateless map that tokenizes once; packing adds one bounded
    partial pass + one 3-int-row shuffle."""
    from credit_ocr_backend_ray.stages.chunking import (
        dedup_chunks_in_doc, pack_sequences,
    )
    from credit_ocr_backend_ray.functions.textstats import tokens
    from credit_ocr_backend_ray.stages.curate import source_reputation

    rep = source_reputation(ds, key_col=source_col, text_col=text_col,
                            id_col=id_col).to_pandas()
    bad = set(rep.loc[rep["mean_dup_micro"] > max_source_mean_dup_micro,
                      source_col])
    bad_ref = ray.put(bad)

    import math as _math

    def gate_and_clean(t: pa.Table) -> pa.Table:
        bad_sources = ray.get(bad_ref)
        ids: list[int] = []
        texts: list[str] = []
        for i, src, txt in zip(t[id_col].to_pylist(),
                               t[source_col].to_pylist(),
                               t[text_col].to_pylist()):
            if src in bad_sources:
                continue
            toks = tokens(txt)
            n_tok = len(toks)
            if n_tok < min_tokens:
                continue
            dup = int(_math.floor(
                (1.0 - len(set(toks)) / n_tok) * 1e6 + 0.5))
            if dup > max_dup_micro:
                continue
            keep, _ = dedup_chunks_in_doc(toks, window)
            ids.append(i)
            texts.append(" ".join(keep))
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "clean_text": pa.array(texts, pa.string())})

    cleaned = ds.map_batches(gate_and_clean, batch_format="pyarrow")
    return pack_sequences(cleaned, budget=budget,
                          shard_width=shard_width,
                          text_col="clean_text", id_col=id_col)
