"""The one extraction plan: malformed %SDOC documents become status rows in
the shared kernel, the dedup a Dataset source runs emits Arrow blocks with
the declared columns, and one ~1000-page document runs on the per-document stage
with no exchange."""

import datetime as dt
import json
import random

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray
import ray.data

from action_pdf_accessibility_paddle_docker_ray.corpus import (
    _make_sdoc_doc,
    generate_pages,
)
from action_pdf_accessibility_paddle_docker_ray.oracle import (
    docs_to_table,
    extract_row,
    oracle_extract,
)
from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
    extract_pipeline,
)
from action_pdf_accessibility_paddle_docker_ray.schemas import EXTRACT_INPUT
from action_pdf_accessibility_paddle_docker_ray.stages.dedup import dedup_latest

CHECK = ["url", "text", "n_pages", "n_regions", "status",
         "template_json", "spans_json", "formulas_json"]
TS = dt.datetime(2026, 2, 1)


def _good_page() -> dict:
    payload, _ = _make_sdoc_doc(random.Random(11), 1)
    return json.loads(payload[5:])["pages"][0]


# url → (payload, expected status)
POISON = {
    "https://p.example/int-page": (b'%SDOC{"pages":[42]}', "page_error:TypeError"),
    "https://p.example/str-regions": (
        b'%SDOC{"pages":[{"regions":"x"}]}', "page_error:KeyError"),
    "https://p.example/list-container": (b"%SDOC[]", "parse_error:AttributeError"),
    "https://p.example/int-pages": (b'%SDOC{"pages": 5}', "parse_error:TypeError"),
    "https://p.example/good-then-bad": (
        b"%SDOC" + json.dumps({"pages": [_good_page(), 42]}).encode(),
        "page_error:TypeError"),
}


def _poison_table() -> pa.Table:
    t = generate_pages(30, seed=21).select(["url", "warc_ts", "html"])
    bad = pa.table({
        "url": list(POISON),
        "warc_ts": pa.array([TS] * len(POISON), pa.timestamp("us")),
        "html": [p for p, _ in POISON.values()],
    })
    return pa.concat_tables([t, bad])


def _assert_matches_oracle(got: pa.Table, source: pa.Table) -> None:
    ref = docs_to_table(oracle_extract(source)).select(CHECK).sort_by("url")
    got = got.select(CHECK).cast(ref.schema).sort_by("url")
    urls = got["url"].to_pylist()
    assert len(urls) == len(set(urls)), "more than one row for a url"
    assert got.equals(ref)


def test_poison_sdoc_becomes_a_status_row_in_the_kernel():
    for url, (payload, status) in POISON.items():
        doc = extract_row({"url": url, "warc_ts": TS, "html": payload})
        assert doc["status"] == status, url
    # a failed page keeps its place: the good page's text, an empty second
    mixed = extract_row({"url": "u", "warc_ts": TS,
                         "html": POISON["https://p.example/good-then-bad"][0]})
    assert mixed["n_pages"] == 2
    assert mixed["text"].endswith("\f") and len(mixed["text"]) > 1
    # a parse failure is one empty page, as for undecodable JSON
    listed = extract_row({"url": "u", "warc_ts": TS, "html": b"%SDOC[]"})
    broken = extract_row({"url": "u", "warc_ts": TS, "html": b"%SDOC{{"})
    assert listed["n_pages"] == broken["n_pages"] == 1
    assert listed["template_json"] == broken["template_json"]


def test_poison_sdoc_rows_do_not_abort_the_pipeline(ray_session, tmp_path):
    t = _poison_table()
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    got = pa.Table.from_pandas(extract_pipeline(path).to_pandas())
    _assert_matches_oracle(got, t)
    status = dict(zip(got["url"].to_pylist(), got["status"].to_pylist()))
    for url, (_, want) in POISON.items():
        assert status[url] == want, url


def test_dedup_latest_blocks_keep_their_columns(ray_session):
    """Every block dedup_latest builds is Arrow with the declared columns.

    The sort hands key ranges that got no rows on as zero-row blocks
    without columns, and Ray's map operators pass zero-row blocks through
    without calling the UDF, so those stay as the sort made them."""
    t = generate_pages(200, seed=3)
    keep = set(t.column("url").to_pylist()[:3])
    ds = ray.data.from_arrow(t).repartition(8).filter(lambda r: r["url"] in keep)
    out = dedup_latest(ds).materialize()
    blocks = [ray.get(ref) for b in out.iter_internal_ref_bundles() for ref, _ in b.blocks]
    with_rows = [b for b in blocks if len(b)]
    assert sum(len(b) for b in with_rows) == 3
    for block in with_rows:
        assert isinstance(block, pa.Table), type(block)
        assert block.schema == EXTRACT_INPUT, block.schema
    assert set(EXTRACT_INPUT.names) == {"url", "warc_ts", "html"}


def test_giant_document_on_the_one_plan(ray_session, tmp_path):
    """One ~1000-page %SDOC among ordinary rows: the per-document stage
    serves it byte-identically, and the executed plan has no Sort."""
    t = generate_pages(40, seed=5).select(["url", "warc_ts", "html"])
    giant, _ = _make_sdoc_doc(random.Random(8), 1000)
    t = pa.concat_tables([t, pa.table({
        "url": ["https://giant.example/doc"],
        "warc_ts": pa.array([TS], pa.timestamp("us")),
        "html": pa.array([giant], pa.binary()),
    })])
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    ds = extract_pipeline(path).materialize()
    ops = ds.stats()
    assert "DocProcessor" in ops and "Sort" not in ops
    got = pa.Table.from_pandas(ds.to_pandas())
    assert got.filter(pc.equal(got["url"], "https://giant.example/doc"))[
        "n_pages"].to_pylist() == [1000]
    _assert_matches_oracle(got, t)

