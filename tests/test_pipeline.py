"""Golden-oracle e2e: the Ray pipeline must match the single-process oracle
byte-identically per url (SURVEY.md §5b / north_rule invariant)."""

import json

import pyarrow.parquet as pq
import pytest

from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
from action_pdf_accessibility_paddle_docker_ray.oracle import oracle_extract
from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
    extract_pipeline,
    spans_dataset,
)


@pytest.fixture(scope="module")
def pages_path(tmp_path_factory):
    t = generate_pages(80, seed=42)
    path = str(tmp_path_factory.mktemp("pages") / "pages.parquet")
    pq.write_table(t, path)
    return path, t


def test_pipeline_matches_oracle_byte_identically(ray_session, pages_path):
    path, table = pages_path
    golden = {d["url"]: d for d in oracle_extract(table)}

    out = extract_pipeline(path).to_pandas()
    assert len(out) == len(golden)
    for row in out.itertuples(index=False):
        g = golden[row.url]
        assert row.text == g["text"], f"text mismatch for {row.url}"
        assert row.template_json == g["template_json"], f"template mismatch for {row.url}"
        assert row.n_pages == g["n_pages"]
        assert row.n_regions == g["n_regions"]
        assert row.status == g["status"]
        assert row.spans_json == json.dumps(g["spans"], sort_keys=True)
        assert row.formulas_json == json.dumps(g["formulas"], sort_keys=True)


def test_pipeline_deterministic_across_parallelism(ray_session, pages_path, tmp_path):
    """Same output from the same rows as 1 file (the read is split across
    tasks) and as 8 files (one fused task per file): different task splits
    (SURVEY.md §4 determinism row)."""
    _, table = pages_path
    one, eight = tmp_path / "one", tmp_path / "eight"
    one.mkdir()
    eight.mkdir()
    pq.write_table(table, str(one / "part-0.parquet"))
    per_file = -(-table.num_rows // 8)
    for f in range(8):
        pq.write_table(table.slice(f * per_file, per_file), str(eight / f"part-{f}.parquet"))
    a = extract_pipeline(str(one)).to_pandas()
    b = extract_pipeline(str(eight)).to_pandas()
    a = a.sort_values("url").reset_index(drop=True)
    b = b.sort_values("url").reset_index(drop=True)
    assert a.equals(b)


def test_spans_dataset_explodes(ray_session, pages_path):
    path, table = pages_path
    docs = extract_pipeline(path)
    spans = spans_dataset(docs).to_pandas()
    golden_spans = sum(len(d["spans"]) for d in oracle_extract(table))
    assert len(spans) == golden_spans
    assert {"url", "label", "reading_order"} <= set(spans.columns)

