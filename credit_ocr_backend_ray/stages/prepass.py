"""Hash / size pre-pass: cheap stateless map adding per-row
``n_bytes``, ``content_sha256``, ``size_bucket`` and the url-hash
partition key ``part_id`` (keys the lineage; ``dedup_latest`` still
shards by its own ``_with_shard`` hash).

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

DEFAULT_NUM_PARTS = 64
SIZE_BUCKET_BYTES = 256 * 1024  # payloads above this are "oversized"


def part_id_for_url(url: str, num_parts: int) -> int:
    # crc32 is stable across processes/machines (unlike hash())
    return zlib.crc32(url.encode("utf-8")) % num_parts


def prepass_batch(batch: pa.Table, *,
                  num_parts: int = DEFAULT_NUM_PARTS) -> pa.Table:
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


def make_prepass(num_parts: int = DEFAULT_NUM_PARTS):
    return functools.partial(prepass_batch, num_parts=num_parts)
