"""Ray-level tests: E2E extraction byte-identity, resume, dedup, joins,
similarity. One shared Ray session (conftest)."""

import glob
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

N_PAGES = 120
PAGES_BASE = "/tmp/test_webpages"


@pytest.fixture(scope="session")
def pages_dir(ray_session):
    from credit_ocr_backend_ray.sources.synth import synthesize_pages
    return synthesize_pages(N_PAGES, base=PAGES_BASE)


def test_extraction_matches_oracle_byte_identical(ray_session, pages_dir):
    from credit_ocr_backend_ray.pipelines.extraction import build_extraction_ds
    from credit_ocr_backend_ray.pipelines.oracle import oracle_extract

    df = build_extraction_ds(pages_dir).to_pandas()
    oracle = oracle_extract(pages_dir)
    assert len(df) == N_PAGES
    for _, row in df.iterrows():
        o = oracle[row["url"]]
        assert row["extracted_text"] == o["extracted_text"]  # byte identity
        got = [(f["name"], f["value"], f["confidence"], f["is_valid"],
                tuple(f["errors"] if f["errors"] is not None else []))
               for f in row["fields"]]
        want = [(f["name"], f["value"], f["confidence"], f["is_valid"],
                 tuple(f["errors"] if f["errors"] is not None else []))
                for f in o["fields"]]
        assert got == want
        assert list(row["missing_fields"]) == o["missing_fields"]


def test_article_pages_all_fields_missing(ray_session, pages_dir):
    from credit_ocr_backend_ray.pipelines.extraction import build_extraction_ds

    df = build_extraction_ds(pages_dir).to_pandas()
    articles = df[df["url"].str.endswith("/artikel")]
    assert len(articles) > 0
    assert (articles["missing_fields"].map(len) == 22).all()
    forms = df[df["url"].str.endswith("/antrag")]
    assert (forms["missing_fields"].map(len) == 0).all()


def test_run_extraction_resume_and_lineage(ray_session, pages_dir, tmp_path):
    from credit_ocr_backend_ray.pipelines.extraction import run_extraction

    out = str(tmp_path / "out")
    s1 = run_extraction(pages_dir, out, n_groups=1)
    assert s1["rows"] == N_PAGES and s1["groups_run"] == 1
    s2 = run_extraction(pages_dir, out, n_groups=1)
    assert s2["groups_skipped"] == 1 and s2["groups_run"] == 0

    import pyarrow.dataset as pads
    lineage = pads.dataset(
        glob.glob(os.path.join(out, "group-*/_lineage/*.parquet"))
    ).to_table().to_pandas()
    assert lineage["rows"].sum() == N_PAGES
    assert set(lineage.columns) >= {"part_id", "rows", "payload_bytes",
                                    "lines", "errors", "max_payload_bytes"}


def test_incomplete_group_is_wiped_and_redone(ray_session, pages_dir, tmp_path):
    from credit_ocr_backend_ray.pipelines.extraction import run_extraction
    from credit_ocr_backend_ray.state.manifest import RunManifest

    out = str(tmp_path / "out2")
    run_extraction(pages_dir, out, n_groups=1)
    # simulate a crash: group dir exists but manifest lost its entry
    m = RunManifest(out)
    key = next(iter(m.entries))
    gdir = m.group_dir(key)
    os.remove(m.path)
    assert os.path.exists(gdir)
    s = run_extraction(pages_dir, out, n_groups=1)
    assert s["groups_run"] == 1  # redone from scratch
    assert s["rows"] == N_PAGES


def test_dedup_latest(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.dedup import dedup_latest

    df = pd.DataFrame({
        "url": ["a", "a", "b", "b", "b", "c"],
        "warc_ts": pd.to_datetime(
            ["2024-01-01", "2024-01-03", "2024-01-02", "2024-01-05",
             "2024-01-04", "2024-01-01"]),
        "payload": list("123456"),
    })
    out = dedup_latest(rd.from_pandas(df), key="url",
                       order_col="warc_ts").to_pandas()
    got = dict(zip(out["url"], out["payload"]))
    assert got == {"a": "2", "b": "4", "c": "6"}


def test_grouped_agg_matches_pandas(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.relational import grouped_agg

    rng = np.random.default_rng(7)
    df = pd.DataFrame({"k": rng.integers(0, 5, 1000),
                       "v": rng.random(1000)})
    out = grouped_agg(rd.from_pandas(df).repartition(8), ["k"],
                      {"v": "sum_v"}).to_pandas().sort_values("k")
    want = df.groupby("k", as_index=False).agg(
        sum_v=("v", "sum"), n=("v", "size")).sort_values("k")
    assert np.allclose(out["sum_v"].values, want["sum_v"].values)
    assert (out["n"].values == want["n"].values).all()


def test_latest_per_key_tie_break(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.relational import latest_per_key

    df = pd.DataFrame({
        "k": [1, 1, 2],
        "ts": pd.to_datetime(["2024-01-01", "2024-01-01", "2024-01-02"]),
        "id": [5, 9, 1],
    })
    out = latest_per_key(rd.from_pandas(df), "k",
                         ["ts", "id"]).to_pandas().sort_values("k")
    assert out["id"].tolist() == [9, 1]  # tie on ts -> larger id wins


def test_knn_bruteforce_exact(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.similarity import knn_bruteforce

    rng = np.random.default_rng(3)
    vecs = rng.standard_normal((200, 16)).astype(np.float32)
    df = pd.DataFrame({"vec_id": np.arange(200),
                       "embedding": [v.tolist() for v in vecs]})
    q = vecs[:2].astype(np.float64)
    out = knn_bruteforce(rd.from_pandas(df).repartition(4), q, k=5,
                         round_to=None)
    # numpy exact reference
    vn = vecs.astype(np.float64)
    vn = vn / np.linalg.norm(vn, axis=1, keepdims=True)
    qn = q / np.linalg.norm(q, axis=1, keepdims=True)
    sims = vn @ qn.T
    for qi in range(2):
        want = set(np.argsort(-sims[:, qi])[:5].tolist())
        got = set(out[out["query_id"] == qi]["vec_id"].tolist())
        assert got == want
        # self is the top hit
        top = out[out["query_id"] == qi].iloc[0]
        assert top["vec_id"] == qi and top["cos"] >= 0.999999


def test_minhash_planted_dups_found(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.stages.dedup import (
        cluster_pairs, minhash_dedup_pairs)

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(500)]
    texts = [" ".join(rng.choice(vocab, 60)) for _ in range(40)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    # plant near-dups: copy docs 0-4 with last token dropped
    for i in range(5):
        rows.append({"doc_id": 100 + i,
                     "text": " ".join(texts[i].split()[:-1])})
    pairs = minhash_dedup_pairs(rd.from_items(rows), threshold=0.8)
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    for i in range(5):
        assert (i, 100 + i) in found
    reps = cluster_pairs(pairs)
    for i in range(5):
        assert reps[100 + i] == i


def test_prepass_part_id_stable(ray_session):
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.prepass import part_id_for_url, prepass_batch

    t = pa.table({"url": ["u1", "u2"], "html": [b"x", b"yy"]})
    out = prepass_batch(t, num_parts=16)
    assert out["part_id"].to_pylist() == [part_id_for_url("u1", 16),
                                          part_id_for_url("u2", 16)]
    assert out["n_bytes"].to_pylist() == [1, 2]
    assert out["content_sha256"][0].as_py() == (
        "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881")


def test_prepass_latest_filter_keeps_dedup_latest_rows(tmp_path):
    """prepass_batch(latest=...) keeps exactly the rows dedup_latest's rule
    keeps (every row at its url's max warc_ts; null urls and null
    timestamps drop), in input order, and hashes only those."""
    import datetime
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.prepass import (
        latest_crawls, prepass_batch)

    t0 = datetime.datetime(2024, 1, 1)
    crawls = [("a", 1), ("b", 5), ("a", 3), (None, 9), ("b", 5),
              ("c", None), ("c", 2), ("d", None), ("a", 2)]
    t = pa.table({
        "url": pa.array([u for u, _ in crawls], pa.string()),
        "warc_ts": pa.array([None if d is None
                             else t0 + datetime.timedelta(days=d)
                             for _, d in crawls], pa.timestamp("us")),
        "html": [str(i).encode() for i in range(len(crawls))],
    })
    f = str(tmp_path / "k.parquet")
    pq.write_table(t, f)

    out = prepass_batch(t, latest=latest_crawls([f]))
    # "b" ties at its max (both kept); None url, null ts and "d" (only a
    # null-ts crawl) drop
    assert out["html"].to_pylist() == [b"1", b"2", b"4", b"6"]
    assert out["n_bytes"].to_pylist() == [1, 1, 1, 1]
    # dedup_latest's own per-key rule, in pandas
    df = t.to_pandas()
    mx = df.groupby("url", sort=False)["warc_ts"].transform("max")
    assert out["html"].to_pylist() == list(df[df["warc_ts"] == mx]["html"])


def test_write_lineage_empty_group(tmp_path):
    """A group that wrote no output rows gets an empty lineage with the
    same schema as a non-empty group's, and 0 rows."""
    import pyarrow as pa
    from credit_ocr_backend_ray.sources.synth import page_row
    from credit_ocr_backend_ray.stages.extract import DocExtractor
    from credit_ocr_backend_ray.stages.prepass import prepass_batch
    from credit_ocr_backend_ray.state.manifest import write_lineage

    full = tmp_path / "full"
    full.mkdir()
    t = prepass_batch(pa.Table.from_pylist([page_row(i) for i in range(3)]))
    for j, chunk in enumerate(DocExtractor()(t)):
        pq.write_table(chunk, str(full / f"part-{j}.parquet"))
    full_dir, full_rows = write_lineage(str(full))
    assert full_rows == 3

    empty = tmp_path / "empty"
    empty.mkdir()
    lineage_dir, rows = write_lineage(str(empty))
    assert rows == 0
    got = pq.read_table(os.path.join(lineage_dir, "part-0.parquet"))
    want = pq.read_table(os.path.join(full_dir, "part-0.parquet"))
    assert got.num_rows == 0
    assert got.schema.remove_metadata() == want.schema.remove_metadata()


def test_extractor_byte_budget_chunking(credit_cfg):
    """DocExtractor sub-batches a block by payload bytes: an oversized run
    is cut while ordinary pages flow in large chunks; outputs concatenate
    back to the full input, in order."""
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.extract import DocExtractor
    from credit_ocr_backend_ray.stages.prepass import prepass_batch

    htmls = [b"<html><body><main><p>" + (b"x" * (1 << 20)) + b"</p></main></body></html>"
             for _ in range(5)]
    htmls += [b"<html><body><main><p>small page</p></main></body></html>"] * 10
    t = prepass_batch(pa.table({
        "url": [f"u{i}" for i in range(15)],
        "html": htmls,
    }))
    ex = DocExtractor(chunk_budget_mb=2)
    chunks = list(ex(t))
    assert len(chunks) > 1                      # oversized run was split
    assert sum(c.num_rows for c in chunks) == 15
    urls = [u for c in chunks for u in c["url"].to_pylist()]
    assert urls == [f"u{i}" for i in range(15)]  # order preserved
    statuses = {s for c in chunks for s in c["status"].to_pylist()}
    assert statuses == {"Fertig"}


def test_run_extraction_multigroup_partial_resume(ray_session, tmp_path):
    """With n_groups=3, completing two groups then losing the third's
    manifest entry reruns ONLY that group. Needs >=3 input shards
    (shard_groups caps at the file count), so synthesize 3 shards' worth.
    Both runs write, per url, the same text and status as one group over
    the same files."""
    from credit_ocr_backend_ray.pipelines.extraction import (
        build_extraction_ds, run_extraction)
    from credit_ocr_backend_ray.sources.synth import ROWS_PER_FILE, synthesize_pages
    from credit_ocr_backend_ray.state.manifest import RunManifest

    n_pages = ROWS_PER_FILE * 2 + 40
    pages3 = synthesize_pages(n_pages, base=PAGES_BASE)
    N_PAGES = n_pages  # shadows the module constant for the asserts below

    one = build_extraction_ds(pages3).to_pandas()
    want = dict(zip(one["url"], zip(one["extracted_text"], one["status"])))
    assert len(want) == N_PAGES

    def written() -> dict:
        df = pd.concat(pq.read_table(f).to_pandas() for f in
                       glob.glob(os.path.join(out, "group-*", "*.parquet")))
        assert len(df) == df["url"].nunique()
        return dict(zip(df["url"], zip(df["extracted_text"], df["status"])))

    out = str(tmp_path / "mg")
    s1 = run_extraction(pages3, out, n_groups=3)
    assert s1["groups_run"] == s1["groups_total"] >= 2
    assert s1["rows"] == N_PAGES
    assert written() == want

    m = RunManifest(out)
    key = sorted(m.entries)[-1]
    del m.entries[key]
    import json
    with open(m.path, "w", encoding="utf-8") as f:
        json.dump(m.entries, f)

    s2 = run_extraction(pages3, out, n_groups=3)
    assert s2["groups_run"] == 1 and s2["groups_skipped"] == s1["groups_total"] - 1
    assert s2["rows"] == N_PAGES
    assert written() == want


@pytest.mark.parametrize("dedup", [False, True])
def test_extraction_plan_is_one_fused_task_operator(ray_session, tmp_path,
                                                    dedup):
    """Read, prepass and extract run as ONE fused task operator: there is
    a single extractor path, it is not an actor pool, and dedup adds no
    shuffle."""
    import pyarrow as pa
    from ray.data._internal.logical.optimizers import get_execution_plan

    from credit_ocr_backend_ray.pipelines.extraction import (
        ExtractionConfig, build_extraction_ds)
    from credit_ocr_backend_ray.sources.synth import page_row

    p = tmp_path / "plan"
    p.mkdir()
    pq.write_table(pa.Table.from_pylist([page_row(i) for i in range(40)]),
                   str(p / "p.parquet"))
    lazy = build_extraction_ds(str(p), ExtractionConfig(dedup=dedup))
    ds = lazy.materialize()
    assert ds.count() == 40
    ops = [line.split(": ")[0].split(" ", 2)[2]
           for line in ds.stats().splitlines()
           if line.startswith("Operator ")]
    assert ops == ["ReadParquet->MapBatches(prepass_batch)"
                   "->MapBatches(DocExtractor)"], ops
    # stats() names an actor-pool operator the same way, so check the
    # physical operator's class too
    op = get_execution_plan(lazy._logical_plan).dag
    assert type(op).__name__ == "TaskPoolMapOperator"
    assert op.name == ops[0]


def test_pipeline_with_dedup_keeps_latest(ray_session, tmp_path):
    """cfg.dedup=True: duplicate urls collapse to the newest warc_ts row
    before extraction."""
    import datetime
    import pyarrow as pa
    import pyarrow.parquet as pq
    from credit_ocr_backend_ray.pipelines.extraction import (
        ExtractionConfig, build_extraction_ds)
    from credit_ocr_backend_ray.sources.synth import page_row

    rows = [page_row(i) for i in range(20)]
    dups = []
    for r in rows[:5]:  # newer duplicate with marker content
        d = dict(r)
        d["warc_ts"] = r["warc_ts"] + datetime.timedelta(days=1)
        d["html"] = b"<html><body><main><p>NEWER VERSION</p></main></body></html>"
        dups.append(d)
    t = pa.Table.from_pylist(rows + dups)
    p = tmp_path / "dup"
    p.mkdir()
    pq.write_table(t, str(p / "d.parquet"))

    df = build_extraction_ds(str(p), ExtractionConfig(dedup=True)).to_pandas()
    assert len(df) == 20  # 25 rows in, 5 dups collapsed
    for i in range(5):
        row = df[df["url"] == rows[i]["url"]].iloc[0]
        assert row["extracted_text"] == "NEWER VERSION"


def test_run_extraction_dedup_across_groups(ray_session, tmp_path):
    """Latest-crawl dedup holds across shard groups: crawls of one url in
    different files (and groups) collapse to the newest, a tie at the max
    warc_ts keeps both rows, a group whose every crawl lost writes 0 rows,
    and a resumed run writes the same output."""
    import datetime
    import json
    import pyarrow as pa
    from credit_ocr_backend_ray.pipelines.extraction import (
        ExtractionConfig, run_extraction)
    from credit_ocr_backend_ray.state.manifest import RunManifest

    t0 = datetime.datetime(2024, 1, 1)

    def crawl(url: str, day: int, text: str) -> dict:
        return {"url": url, "warc_ts": t0 + datetime.timedelta(days=day),
                "html": f"<html><body><main><p>{text}</p></main></body>"
                        f"</html>".encode(), "text": None, "lang": "de"}

    files = [  # shard_groups gives each file its own group
        [crawl("u1", 1, "OLD"), crawl("u3", 1, "STALE")],  # all lose
        [crawl("u1", 2, "NEW"), crawl("u2", 3, "TIE A")],
        [crawl("u2", 3, "TIE B"), crawl("u3", 2, "FRESH")],
    ]
    inp = tmp_path / "in"
    inp.mkdir()
    for k, rows in enumerate(files):
        pq.write_table(pa.Table.from_pylist(rows), str(inp / f"f{k}.parquet"))

    out = str(tmp_path / "out")
    cfg = ExtractionConfig(dedup=True)

    def written() -> list:
        return sorted((r["url"], r["extracted_text"]) for f in
                      glob.glob(os.path.join(out, "group-*", "*.parquet"))
                      for r in pq.read_table(f).to_pylist())

    want = [("u1", "NEW"), ("u2", "TIE A"), ("u2", "TIE B"),
            ("u3", "FRESH")]
    s1 = run_extraction(str(inp), out, cfg, n_groups=3)
    assert s1["groups_run"] == 3 and s1["rows"] == 4
    assert written() == want
    m = RunManifest(out)
    assert [m.entries[k]["rows"] for k in sorted(m.entries)] == [0, 2, 2]

    # the empty group reruns against winners from ALL files, not its own
    del m.entries["00000"]
    with open(m.path, "w", encoding="utf-8") as f:
        json.dump(m.entries, f)
    s2 = run_extraction(str(inp), out, cfg, n_groups=3)
    assert s2["groups_run"] == 1 and s2["rows"] == 4
    assert written() == want


def _write_crawl_files(base, with_null_payload: bool = True) -> str:
    """Three input files: page rows plus re-crawls of one url across
    files; file 0's crawls all lose to newer ones elsewhere, file 1 holds
    a poisoned and (optionally) a null payload."""
    import datetime
    import pyarrow as pa
    from credit_ocr_backend_ray.sources.synth import INPUT_SCHEMA, page_row

    def later(row: dict, days: int, html) -> dict:
        return {**row, "warc_ts": row["warc_ts"]
                + datetime.timedelta(days=days), "html": html}

    rows = [page_row(i) for i in range(9)]
    poison = b'{"doc_kind": "layout", "pages": [{"page_number": 1'
    files = [
        [rows[0], rows[1]],
        [later(rows[0], 1, rows[5]["html"]), later(rows[1], 2, poison),
         rows[2], rows[3]]
        + ([later(rows[2], 0, None)] if with_null_payload else []),
        [rows[4], rows[5], rows[6], later(rows[3], 3, rows[7]["html"])],
    ]
    base.mkdir()
    for k, f in enumerate(files):
        pq.write_table(pa.Table.from_pylist(f, schema=INPUT_SCHEMA),
                       str(base / f"f{k}.parquet"))
    return str(base)


def _per_url(out: str) -> list:
    return sorted(
        ((r["url"], r["extracted_text"], repr(r["fields"]), r["status"])
         for f in glob.glob(os.path.join(out, "group-*", "*.parquet"))
         for r in pq.read_table(f).to_pylist()), key=repr)


@pytest.mark.parametrize("dedup", [False, True])
def test_run_extraction_empty_input(ray_session, tmp_path, monkeypatch,
                                    dedup):
    """An empty input directory commits its one (empty) shard group with
    0 rows and an empty ``_lineage``, and starts no Ray execution."""
    import ray.data as rd
    from credit_ocr_backend_ray.pipelines.extraction import (
        ExtractionConfig, run_extraction)
    from credit_ocr_backend_ray.state.manifest import RunManifest

    reads, read_parquet = [], rd.read_parquet
    monkeypatch.setattr(
        rd, "read_parquet",
        lambda *a, **k: reads.append(a) or read_parquet(*a, **k))
    inp = tmp_path / "in"
    inp.mkdir()
    out = str(tmp_path / "out")
    s = run_extraction(str(inp), out, ExtractionConfig(dedup=dedup),
                       n_groups=3)
    assert (s["groups_total"], s["groups_run"], s["rows"]) == (1, 1, 0)
    assert reads == []
    m = RunManifest(out)
    assert [e["rows"] for e in m.entries.values()] == [0]
    lineage = pq.read_table(os.path.join(m.group_dir("00000"), "_lineage",
                                         "part-0.parquet"))
    assert lineage.num_rows == 0 and "part_id" in lineage.column_names
    assert glob.glob(os.path.join(out, "group-*", "*.parquet")) == []


def test_run_extraction_is_one_execution(ray_session, tmp_path, monkeypatch):
    """Three shard groups run as ONE Ray execution: one read, and one
    fused task operator that starts with the extraction plan's."""
    import ray.data as rd
    from ray.data._internal.logical.optimizers import get_execution_plan

    from credit_ocr_backend_ray.pipelines.extraction import run_extraction

    reads, plans = [], []
    read_parquet, iter_batches = rd.read_parquet, rd.Dataset.iter_batches

    def counted_read(*args, **kwargs):
        reads.append(args)
        return read_parquet(*args, **kwargs)

    def recorded_iter(self, *args, **kwargs):
        plans.append(get_execution_plan(self._logical_plan).dag)
        return iter_batches(self, *args, **kwargs)

    monkeypatch.setattr(rd, "read_parquet", counted_read)
    monkeypatch.setattr(rd.Dataset, "iter_batches", recorded_iter)
    inp = _write_crawl_files(tmp_path / "in", with_null_payload=False)
    s = run_extraction(inp, str(tmp_path / "out"), n_groups=3)
    assert s["groups_run"] == 3 and s["rows"] == 10
    assert len(reads) == 1
    (op,) = plans
    assert type(op).__name__ == "TaskPoolMapOperator"
    assert op.name.startswith("ReadParquet->MapBatches(prepass_batch)"
                              "->MapBatches(DocExtractor)"), op.name
    assert [type(d).__name__ for d in op.input_dependencies] == [
        "InputDataBuffer"]


@pytest.mark.parametrize("dedup", [False, True])
def test_run_extraction_output_independent_of_groups(ray_session, tmp_path,
                                                     dedup):
    """Per url, ``extracted_text``, ``fields`` and ``status`` with three
    shard groups equal those with one."""
    from credit_ocr_backend_ray.pipelines.extraction import (
        ExtractionConfig, run_extraction)

    inp = _write_crawl_files(tmp_path / "in")
    cfg = ExtractionConfig(dedup=dedup)
    outs = {}
    for n in (1, 3):
        out = str(tmp_path / f"out{n}")
        assert run_extraction(inp, out, cfg, n_groups=n)["groups_run"] == n
        outs[n] = _per_url(out)
    assert outs[3] == outs[1]
    assert len(outs[1]) == (8 if dedup else 11)


def _assert_lineage_is_read_back(m, tmp_path) -> None:
    """Every group's ``_lineage`` has the ``LINEAGE`` schema and equals
    ``write_lineage`` over a copy of the group's data files; its total is
    the manifest's row count."""
    import shutil
    from credit_ocr_backend_ray.state.manifest import LINEAGE, write_lineage

    for key in sorted(m.entries):
        gdir = m.group_dir(key)
        copy = tmp_path / f"copy-{key}"
        copy.mkdir()
        for f in glob.glob(os.path.join(gdir, "*.parquet")):
            shutil.copy(f, copy)
        want_dir, want_rows = write_lineage(str(copy))
        got = pq.read_table(os.path.join(gdir, "_lineage", "part-0.parquet"))
        want = pq.read_table(os.path.join(want_dir, "part-0.parquet"))
        assert got.schema.equals(LINEAGE, check_metadata=True), key
        assert want.schema.equals(LINEAGE, check_metadata=True), key
        assert got.equals(want), key
        assert want_rows == m.entries[key]["rows"]


@pytest.mark.parametrize("dedup", [False, True])
def test_committed_lineage_equals_read_back(ray_session, tmp_path, dedup):
    """Each group's ``_lineage``, merged from the writer's per-chunk
    partials, equals ``write_lineage`` over a copy of the group's data
    files, and both have the ``LINEAGE`` schema: with a null payload
    (group 1), a poisoned one, and, with dedup, a group that writes 0
    rows."""
    from credit_ocr_backend_ray.pipelines.extraction import (
        ExtractionConfig, run_extraction)
    from credit_ocr_backend_ray.state.manifest import RunManifest

    inp = _write_crawl_files(tmp_path / "in")
    out = str(tmp_path / "out")
    run_extraction(inp, out, ExtractionConfig(dedup=dedup), n_groups=3)
    m = RunManifest(out)
    rows = [m.entries[k]["rows"] for k in sorted(m.entries)]
    assert rows == ([0, 4, 4] if dedup else [2, 5, 4])
    _assert_lineage_is_read_back(m, tmp_path)


def test_cascade_delete_lineage_with_null_payload(ray_session, tmp_path):
    """A cascade delete whose surviving rows include a null payload
    re-derives ``_lineage`` with the ``LINEAGE`` schema: equal to
    ``write_lineage`` over the surviving files, the null payload counted
    as a row of 0 bytes."""
    import pyarrow.compute as pc
    from credit_ocr_backend_ray.pipelines.extraction import run_extraction
    from credit_ocr_backend_ray.sources.synth import page_row
    from credit_ocr_backend_ray.state.manifest import RunManifest, cascade_delete

    inp = _write_crawl_files(tmp_path / "in")
    out = str(tmp_path / "out")
    run_extraction(inp, out, n_groups=3)
    # page 3 is crawled in files 1 and 2; file 1 keeps its null payload
    stats = cascade_delete(out, {page_row(3)["url"]})
    assert stats["rows_deleted"] == 2 and stats["files_rewritten"] == 2
    m = RunManifest(out)
    assert [m.entries[k]["rows"] for k in sorted(m.entries)] == [2, 4, 3]
    _assert_lineage_is_read_back(m, tmp_path)
    gdir = m.group_dir("00001")
    data = pq.read_table(glob.glob(os.path.join(gdir, "*.parquet")))
    lineage = pq.read_table(os.path.join(gdir, "_lineage", "part-0.parquet"))
    assert data["n_bytes"].null_count == 1
    assert pc.sum(lineage["rows"]).as_py() == data.num_rows
    assert (pc.sum(lineage["payload_bytes"]).as_py()
            == pc.sum(data["n_bytes"]).as_py())


def test_group_writer_retry_overwrites(tmp_path):
    """A retried chunk rewrites its own file: calling the writer twice on
    the same chunk leaves one data file, no ``.tmp`` file, and the same
    lineage partial."""
    import pyarrow as pa
    from credit_ocr_backend_ray.sources.synth import page_row
    from credit_ocr_backend_ray.stages.extract import DocExtractor
    from credit_ocr_backend_ray.stages.prepass import prepass_batch
    from credit_ocr_backend_ray.state.manifest import GroupWriter

    t = prepass_batch(pa.Table.from_pylist([page_row(i) for i in range(4)]))
    t = t.append_column("path", pa.array(["/in/f.parquet"] * 4))
    (chunk,) = DocExtractor()(t)
    gdir = tmp_path / "group-00000"
    gdir.mkdir()
    writer = GroupWriter({"/in/f.parquet": (2, str(gdir))})
    first, second = writer(chunk), writer(chunk)
    assert first.equals(second) and sum(first["rows"].to_pylist()) == 4
    names = sorted(os.listdir(gdir))
    assert len(names) == 1 and names[0].startswith("part-00002-")
    written = pq.read_table(str(gdir / names[0]))
    assert written.column_names == [c for c in chunk.column_names
                                    if c != "path"]
    assert written["url"].to_pylist() == chunk["url"].to_pylist()


def test_survivors_match_prepass_filter(tmp_path):
    """The per-file survivor counts the driver waits for are the row
    counts ``prepass_batch``'s winners filter keeps."""
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.prepass import (
        latest_crawls_and_survivors, prepass_batch)

    inp = _write_crawl_files(tmp_path / "in")
    files = sorted(glob.glob(os.path.join(inp, "*.parquet")))
    latest, survivors = latest_crawls_and_survivors(files)
    kept = [prepass_batch(pq.read_table(f), latest=latest).num_rows
            for f in files]
    assert survivors == kept == [0, 4, 4]
    assert latest.num_rows == 7 and isinstance(latest, pa.Table)


def test_page_renderer_ppm_output(ray_session):
    """Annotated-page raster: valid P6 PPM, colored border pixels where a
    field bbox sits, white elsewhere."""
    import numpy as np
    from credit_ocr_backend_ray.stages.multimodal import (
        PAGE_RENDER_DPI, render_annotation_ppm)

    fields = [{"name": "f", "page": 1, "confidence": 0.9,
               "bounding_box": [{"x": 1.0, "y": 1.0}, {"x": 2.0, "y": 1.0},
                                {"x": 2.0, "y": 1.5}, {"x": 1.0, "y": 1.5}]}]
    blob = render_annotation_ppm(fields)
    w, h = int(8.5 * PAGE_RENDER_DPI), int(11 * PAGE_RENDER_DPI)
    header = f"P6\n{w} {h}\n255\n".encode()
    assert blob.startswith(header)
    img = np.frombuffer(blob[len(header):], dtype=np.uint8).reshape(h, w, 3)
    # top border of the box (confidence 0.9 -> green)
    y, x = int(1.0 * PAGE_RENDER_DPI), int(1.5 * PAGE_RENDER_DPI)
    assert tuple(img[y + 1, x]) == (0, 255, 0)
    # page corner stays white
    assert tuple(img[0, 0]) == (255, 255, 255)
    # no fields -> all white
    blank = render_annotation_ppm([])
    img2 = np.frombuffer(blank[len(header):], dtype=np.uint8)
    assert (img2 == 255).all()


def test_resize_ppm_box_mean():
    import numpy as np
    from credit_ocr_backend_ray.stages.multimodal import parse_ppm, resize_ppm

    # 4x2 image, two 2x2 tiles: left all 10s, right all 200s
    px = np.zeros((2, 4, 3), np.uint8)
    px[:, :2] = 10
    px[:, 2:] = 200
    blob = b"P6\n4 2\n255\n" + px.tobytes()
    small = resize_ppm(blob, 2)
    w, h, view = parse_ppm(small)
    assert (w, h) == (2, 1)
    out = np.frombuffer(view, np.uint8).reshape(1, 2, 3)
    assert (out[0, 0] == 10).all() and (out[0, 1] == 200).all()


def test_split_ppm_stream_roundtrip():
    import numpy as np
    from credit_ocr_backend_ray.stages.multimodal import split_ppm_stream

    f1 = b"P6\n2 2\n255\n" + bytes(12)
    f2 = b"P6\n3 1\n255\n" + bytes(9)
    assert split_ppm_stream(f1 + f2) == [f1, f2]
    assert split_ppm_stream(b"") == []
    import pytest as _pytest
    with _pytest.raises(ValueError):
        split_ppm_stream(b"garbage")


def test_frame_sampler_stride_plus_last(ray_session):
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.multimodal import FrameSampler

    frames = [b"P6\n1 1\n255\n" + bytes([k, k, k]) for k in range(7)]
    batch = pa.table({
        "media_id": pa.array(["v0"], pa.string()),
        "payload": pa.array([b"".join(frames)], pa.binary()),
    })
    out = FrameSampler(stride=3)(batch)
    # 7 frames, stride 3 -> 0,3,6 (6 is also the last)
    assert out["frame_index"].to_pylist() == [0, 3, 6]
    assert out["frame"].to_pylist()[1] == frames[3]


def test_thumbnail_maker_poison_isolation(ray_session):
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.multimodal import ThumbnailMaker

    good = b"P6\n8 8\n255\n" + bytes(8 * 8 * 3)
    batch = pa.table({
        "url": pa.array(["a", "b"], pa.string()),
        "annotation": pa.array([good, b"not an image"], pa.binary()),
    })
    out = ThumbnailMaker(scale=2)(batch)
    thumbs = out["thumbnail"].to_pylist()
    errs = out["error"].to_pylist()
    assert thumbs[0] is not None and errs[0] is None
    assert thumbs[1] is None and errs[1].startswith("ValueError")


def test_frame_sampler_poison_isolation(ray_session):
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.multimodal import FrameSampler

    good = b"P6\n1 1\n255\n" + bytes(3)
    batch = pa.table({
        "media_id": pa.array(["ok", "bad"], pa.string()),
        "payload": pa.array([good, b"garbage"], pa.binary()),
    })
    out = FrameSampler(stride=2)(batch)
    rows = list(zip(out["media_id"].to_pylist(),
                    out["frame_index"].to_pylist()))
    assert ("ok", 0) in rows
    assert ("bad", -1) in rows          # marker row, task did not fail


def test_curation_funnel_gates(ray_session):
    import ray.data as rd
    from credit_ocr_backend_ray.pipelines.curation import curate_documents

    def body(i):
        # english stopwords (for lang id) + per-doc unique content words
        return ("the and for with from this that " +
                " ".join(f"word{i}x{k}" for k in range(25)))

    docs = [
        *[(i, body(i), "en") for i in range(10)],   # 10 distinct docs
        # exact duplicate of doc 0 (different id, same text)
        (100, body(0), "en"),
        # near-duplicate of doc 1 (last two words dropped)
        (101, body(1).rsplit(" ", 2)[0], "en"),
        # junk: digit soup -> low quality
        (102, "1234 5678 9012 3456 7890 " * 10, "en"),
        # wrong label: english text labeled de
        (103, body(3) + " mislabeled tail", "de"),
    ]
    df = pd.DataFrame(docs, columns=["doc_id", "text", "lang"])
    curated, funnel = curate_documents(rd.from_pandas(df),
                                       min_quality=0.5,
                                       jaccard_threshold=0.7)
    ids = set(curated.to_pandas()["doc_id"])
    assert funnel["input"] == 14
    assert 102 not in ids          # quality gate
    assert 103 not in ids          # lang-agreement gate
    assert 100 not in ids and 0 in ids   # exact dedup keeps smallest id
    assert 101 not in ids and 1 in ids   # near-dup cluster rep
    assert ids == set(range(10))
    assert funnel["output"] == len(ids) == 10
    assert funnel["after_exact_dedup"] == funnel["after_quality_lang"] - 1


def test_pcm_resample_halves_and_preserves_tone(ray_session):
    import json
    import numpy as np
    import pyarrow as pa
    from credit_ocr_backend_ray.stages.multimodal import (
        PcmResampler, resample_pcm)

    # 440 Hz sine at 32 kHz, one second
    t = np.arange(32_000) / 32_000
    wave = (np.sin(2 * np.pi * 440 * t) * 20_000).astype("<i2")
    out = resample_pcm(wave.tobytes(), 32_000, 16_000)
    y = np.frombuffer(out, dtype="<i2")
    assert len(y) == 16_000                      # half the samples
    # the dominant frequency survives resampling
    spec = np.abs(np.fft.rfft(y.astype(np.float64)))
    assert abs(int(np.argmax(spec[1:])) + 1 - 440) <= 2

    batch = pa.table({
        "media_id": pa.array(["a", "bad"], pa.string()),
        "payload": pa.array([wave.tobytes(), b"\x01"], pa.binary()),
        "meta": pa.array([json.dumps({"sample_rate": 32_000}), "{}"],
                         pa.string()),
    })
    res = PcmResampler(dst_hz=16_000)(batch)
    assert res["n_samples"].to_pylist() == [16_000, None]
    assert res["error"].to_pylist()[0] is None
    assert res["error"].to_pylist()[1] is not None   # per-row capture


def test_partitioned_sink_by_lang(ray_session, tmp_path):
    """Hive-partitioned output (write_parquet partition_cols): the
    column-partitioned sink layout for downstream per-language consumers."""
    import pyarrow.dataset as pads
    import ray.data as rd

    df = pd.DataFrame({
        "doc_id": range(40),
        "lang": ["en", "de", "fr", "es"] * 10,
        "n": range(40),
    })
    out = str(tmp_path / "by_lang")
    rd.from_pandas(df).repartition(4).write_parquet(
        out, partition_cols=["lang"])
    subdirs = sorted(os.path.basename(p) for p in glob.glob(out + "/*"))
    assert subdirs == ["lang=de", "lang=en", "lang=es", "lang=fr"]
    back = pads.dataset(out, partitioning="hive").to_table().to_pandas()
    assert len(back) == 40
    assert set(back["lang"]) == {"en", "de", "fr", "es"}
    # partition pruning: reading one partition touches only its files
    en = pads.dataset(out + "/lang=en").to_table().to_pandas()
    assert len(en) == 10


def test_dedup_latest_ties_survive(ray_session):
    """dedup_latest keeps ALL rows tying the max order per key (set
    semantics, deterministic under any partitioning)."""
    import ray.data as rd
    from credit_ocr_backend_ray.stages.dedup import dedup_latest

    df = pd.DataFrame({
        "url": ["a", "a", "a", "b"],
        "warc_ts": pd.to_datetime(
            ["2024-01-02", "2024-01-02", "2024-01-01", "2024-01-01"]),
        "payload": list("1234"),
    })
    ds = rd.from_pandas(df).repartition(3)
    out = dedup_latest(ds, key="url", order_col="warc_ts").to_pandas()
    assert sorted(out["payload"]) == ["1", "2", "4"]  # both ties survive


def test_near_dup_hot_bucket_truncation_reported(ray_session, caplog):
    """A bucket hotter than _BUCKET_CAP must be reported (no silent caps):
    the dropped-id count flows through the pair stream and surfaces as a
    driver-side logging.warning."""
    import logging

    import ray.data as rd
    from credit_ocr_backend_ray.stages.dedup import (
        _BUCKET_CAP, minhash_dedup_pairs)

    n = _BUCKET_CAP + 30
    rows = [{"doc_id": i, "text": "alpha beta gamma delta epsilon zeta"}
            for i in range(n)]
    with caplog.at_level(logging.WARNING,
                         logger="credit_ocr_backend_ray.stages.dedup"):
        pairs = minhash_dedup_pairs(rd.from_items(rows).repartition(8),
                                    threshold=0.8)
    assert any("bucket cap" in r.message for r in caplog.records)
    # pairs among the surviving capped ids are still found and exact
    assert len(pairs) > 0
    assert (pairs["jaccard"] == 1.0).all()


def test_near_dup_join_path_matches_broadcast_path(ray_session, monkeypatch):
    """The verify stage picks broadcast vs distributed-join by the pruned
    side's size; force the join path (cutoff=0) and require identical
    verified pairs — the scale path is exercised, not just designed."""
    import ray.data as rd
    from credit_ocr_backend_ray.stages import dedup

    rng = np.random.default_rng(23)
    vocab = [f"w{i}" for i in range(300)]
    rows = []
    texts = [" ".join(rng.choice(vocab, 50)) for _ in range(30)]
    rows = [{"doc_id": i, "text": t} for i, t in enumerate(texts)]
    for i in range(4):
        rows.append({"doc_id": 200 + i,
                     "text": " ".join(texts[i].split()[:-1])})
    ds = rd.from_items(rows).repartition(8)

    a = dedup.minhash_dedup_pairs(ds, threshold=0.8)
    monkeypatch.setattr(dedup, "_BROADCAST_VERIFY_BYTES", 0)
    b = dedup.minhash_dedup_pairs(ds, threshold=0.8)
    pd.testing.assert_frame_equal(a, b)
    assert {(i, 200 + i) for i in range(4)} <= set(zip(b["id_a"], b["id_b"]))


def test_cascade_delete(ray_session, pages_dir, tmp_path):
    """J6 cascade delete restated for the parquet store: deleting urls
    rewrites exactly the files containing them (atomic replace), updates
    lineage + manifest row counts, leaves untouched files byte-identical,
    and keeps resume semantics (groups stay complete)."""
    import pyarrow.dataset as pads
    from credit_ocr_backend_ray.pipelines.extraction import run_extraction
    from credit_ocr_backend_ray.state.manifest import cascade_delete

    out = str(tmp_path / "out")
    s0 = run_extraction(pages_dir, out, n_groups=2)
    n_groups = s0["groups_total"]  # capped at the input file count
    files = sorted(glob.glob(os.path.join(out, "group-*", "*.parquet")))
    all_rows = pads.dataset(files).to_table(columns=["url"]).to_pandas()
    victims = set(all_rows["url"].iloc[:3]) | {all_rows["url"].iloc[-1]}
    sig_before = {f: (os.path.getmtime(f), os.path.getsize(f))
                  for f in files}

    stats = cascade_delete(out, victims)
    assert stats["rows_deleted"] == len(victims)
    assert 1 <= stats["files_rewritten"] <= len(victims)

    kept = pads.dataset(files).to_table(columns=["url"]).to_pandas()
    assert len(kept) == N_PAGES - len(victims)
    assert not (set(kept["url"]) & victims)
    # files without victims are untouched, byte-for-byte
    rewritten = {f for f in files
                 if (os.path.getmtime(f), os.path.getsize(f))
                 != sig_before[f]}
    assert len(rewritten) == stats["files_rewritten"]
    # lineage re-derived for affected groups
    lineage = pads.dataset(
        glob.glob(os.path.join(out, "group-*/_lineage/*.parquet"))
    ).to_table().to_pandas()
    assert lineage["rows"].sum() == N_PAGES - len(victims)
    # resume still treats every group as complete
    s = run_extraction(pages_dir, out, n_groups=2)
    assert s["groups_skipped"] == n_groups and s["groups_run"] == 0
    # idempotent: deleting the same urls again rewrites nothing
    stats2 = cascade_delete(out, victims)
    assert stats2["rows_deleted"] == 0 and stats2["files_rewritten"] == 0


def test_audio_feature_extractor_exact(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from credit_ocr_backend_ray.stages.multimodal import (
        AudioFeatureExtractor)

    w = 8
    # square wave +-1000 alternating every sample: zcr = w-1 per
    # window, energy = 1000^2 * w per window; 3 full windows + tail 4
    sq = np.tile([1000, -1000], 14).astype("<i2")  # 28 samples
    # silence: zeros -> zcr 0, energy 0 -> silent
    zeros = np.zeros(16, dtype="<i2")
    t = pa.table({
        "media_id": pa.array(["sq", "z", "bad", "short"], pa.string()),
        "payload": pa.array([sq.tobytes(), zeros.tobytes(), b"\x01",
                             b"\x01\x00"], pa.binary()),
    })
    out = (rd.from_arrow(t)
           .map_batches(AudioFeatureExtractor, batch_format="pyarrow",
                        fn_constructor_kwargs={"window": w,
                                               "silence_energy": 1},
                        concurrency=1)
           .to_pandas().set_index("media_id"))
    assert out.loc["sq", "n_windows"] == 3
    assert out.loc["sq", "zcr_total"] == 3 * (w - 1)
    assert out.loc["sq", "peak_energy"] == 1000 * 1000 * w
    assert out.loc["sq", "n_silent"] == 0
    assert out.loc["sq", "peak_window"] == 0  # ties -> first argmax
    assert out.loc["z", "n_windows"] == 2
    assert out.loc["z", "n_silent"] == 2
    assert out.loc["z", "zcr_total"] == 0
    # poison: odd byte count errors without killing the task
    assert "payload is not int16 PCM" in out.loc["bad", "error"]
    assert out.loc["bad"].isna()["n_windows"]
    # shorter than one window: zero windows, no error
    assert out.loc["short", "n_windows"] == 0
    assert out.loc["short", "peak_window"] == -1
