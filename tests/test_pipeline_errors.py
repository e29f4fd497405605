"""Error-row semantics through the pipeline (no task crashes)."""

import datetime as dt

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
    extract_pipeline,
    formulas_dataset,
)


@pytest.fixture(scope="module")
def messy_path(tmp_path_factory):
    ts = pa.array([dt.datetime(2026, 1, 1)] * 4, pa.timestamp("us"))
    t = pa.table(
        {
            "url": ["https://x/corrupt", "https://x/bin", "https://x/empty-sdoc",
                     "https://x/ok"],
            "warc_ts": ts,
            "html": [b"%SDOC{{{nope", bytes([0xFF, 0xFE, 0x81]),
                      b'%SDOC{"pages": []}',
                      b"<body><article><p>fine content here</p></article></body>"],
            "text": [""] * 4,
            "lang": ["en"] * 4,
        }
    )
    path = str(tmp_path_factory.mktemp("messy") / "pages.parquet")
    pq.write_table(t, path)
    return path


# the two stale-crawl steps in front of DocProcessor: the parquet path
# ("colocate": the stale-filter routes) and a Dataset source ("dataset":
# the dedup_latest exchange)
@pytest.mark.parametrize("source", ["colocate", "dataset"])
def test_error_rows_not_crashes(ray_session, messy_path, source):
    src = messy_path if source == "colocate" else ray.data.read_parquet(messy_path)
    out = extract_pipeline(src).to_pandas()
    by_url = {r.url: r for r in out.itertuples(index=False)}
    assert len(by_url) == 4
    assert by_url["https://x/corrupt"].status.startswith("parse_error")
    assert by_url["https://x/corrupt"].text == ""
    assert by_url["https://x/bin"].status == "ok"  # decoded with replacement
    assert by_url["https://x/empty-sdoc"].status == "ok"
    assert by_url["https://x/empty-sdoc"].n_regions == 0
    assert by_url["https://x/ok"].text == "fine content here"


def test_formulas_dataset(ray_session, tmp_path):
    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
    from action_pdf_accessibility_paddle_docker_ray.oracle import oracle_extract

    t = generate_pages(60, seed=42)
    path = str(tmp_path / "p.parquet")
    pq.write_table(t, path)
    docs = extract_pipeline(path)
    formulas = formulas_dataset(docs).to_pandas()
    golden = sum(len(d["formulas"]) for d in oracle_extract(t))
    assert len(formulas) == golden
    assert golden > 0
    assert set(formulas.columns) == {"url", "formula_id", "mathml"}
    assert all(m.startswith("<math") for m in formulas["mathml"])
