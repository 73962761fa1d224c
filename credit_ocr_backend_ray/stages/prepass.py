"""Hash / size pre-pass: cheap stateless map adding per-row
``n_bytes``, ``content_sha256``, ``size_bucket`` and the url-hash
partition key ``part_id`` (keys the lineage). With a winners table from
``latest_crawls`` it also drops every crawl older than its url's newest,
before any hashing, so latest-crawl dedup needs no shuffle.

Parity: content sha256 mirrors the reference's upload-time hash
(/root/reference/src/dms_mock/service.py:26-32); ``part_id`` replaces its
per-document UUID addressing with a deterministic hash partition.
"""

from __future__ import annotations

import functools
import hashlib
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

DEFAULT_NUM_PARTS = 64
SIZE_BUCKET_BYTES = 256 * 1024  # payloads above this are "oversized"


def part_id_for_url(url: str, num_parts: int) -> int:
    # crc32 is stable across processes/machines (unlike hash())
    return zlib.crc32(url.encode("utf-8")) % num_parts


def latest_crawls(files: list[str]) -> pa.Table:
    """Newest ``warc_ts`` per url over ``files`` (columns ``url`` and
    ``warc_ts_max``): the reference's last-write-wins upsert as a winners
    table. Reads only the two key columns, never the payloads, and runs
    no Ray execution. Memory bound: one ``(url, ts)`` pair per distinct
    url, held on the driver and shipped with the prepass UDF to every
    task."""
    return latest_crawls_and_survivors(files)[0]


def latest_crawls_and_survivors(files: list[str]
                                ) -> tuple[pa.Table, list[int]]:
    """``latest_crawls(files)`` plus, per file, the number of its rows the
    prepass filter keeps, from the same key-column read."""
    keys = [pq.read_table(f, columns=["url", "warc_ts"]) for f in files]
    latest = (pa.concat_tables(keys).group_by("url")
              .aggregate([("warc_ts", "max")]))
    return latest, [k.filter(newest_mask(k, latest)).num_rows for k in keys]


def newest_mask(batch: pa.Table, latest: pa.Table) -> pa.ChunkedArray:
    """True where a row is at its url's max ``warc_ts``: ties all survive;
    a null url or null warc_ts compares null, and filter drops nulls."""
    idx = pc.index_in(batch["url"], value_set=latest["url"], skip_nulls=True)
    return pc.equal(batch["warc_ts"], pc.take(latest["warc_ts_max"], idx))


def prepass_batch(batch: pa.Table, *,
                  num_parts: int = DEFAULT_NUM_PARTS,
                  latest: pa.Table | None = None) -> pa.Table:
    if latest is not None:
        batch = batch.filter(newest_mask(batch, latest))
    n_bytes = pc.binary_length(batch["html"]).cast(pa.int64())

    payloads = batch["html"].to_pylist()
    sha = pa.array(
        [None if p is None else hashlib.sha256(p).hexdigest() for p in payloads],
        type=pa.string(),
    )

    urls = batch["url"].to_pylist()
    parts = pa.array(
        np.fromiter((part_id_for_url(u, num_parts) for u in urls),
                    dtype=np.int32, count=len(urls)),
        type=pa.int32(),
    )
    bucket = pc.if_else(
        pc.greater(n_bytes, SIZE_BUCKET_BYTES),
        pa.scalar(1, pa.int8()), pa.scalar(0, pa.int8()),
    )

    return (batch
            .append_column("n_bytes", n_bytes)
            .append_column("content_sha256", sha)
            .append_column("size_bucket", bucket)
            .append_column("part_id", parts))


def make_prepass(num_parts: int = DEFAULT_NUM_PARTS,
                 latest: pa.Table | None = None):
    return functools.partial(prepass_batch, num_parts=num_parts,
                             latest=latest)
