"""Round-4 additions: WARC ingestion and distributed BPE training.

WARC: render/parse round-trip units (including the adversarial payload a
naive blank-line splitter desyncs on) plus the Ray reader vs the parquet
ground truth and vs the DuckDB oracle at sf0.001.
BPE: handcrafted merge-semantics units (overlap counting, greedy
left-to-right application, tie-breaks) plus Ray-vs-oracle equivalence.
"""

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

from action_pdf_accessibility_paddle_docker_ray.pipelines import text_ops, web_ops
from action_pdf_accessibility_paddle_docker_ray.pipelines.flagship import (
    pages_path_for,
)
from action_pdf_accessibility_paddle_docker_ray.sources.warc import (
    parse_warc_bytes,
    read_warc,
    read_warc_index,
    warc_path_for,
    write_warc,
)

SF = "/root/testdata/sf0.001"


def _oracle(sql: str) -> pd.DataFrame:
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'")
    return con.execute(sql).df()


# --- WARC ------------------------------------------------------------------


def _render(rows) -> bytes:
    import datetime as dt
    import io, os, tempfile

    table = pa.table(
        {
            "url": pa.array([r[0] for r in rows], pa.string()),
            "warc_ts": pa.array(
                [dt.datetime(2026, 1, 1, 0, 0, s) for s, _ in enumerate(rows)],
                pa.timestamp("us"),
            ),
            "html": pa.array([r[1] for r in rows], pa.binary()),
        }
    )
    with tempfile.NamedTemporaryFile(suffix=".warc", delete=False) as f:
        path = f.name
    write_warc(table, path)
    data = open(path, "rb").read()
    os.unlink(path)
    return data


def test_warc_roundtrip_simple():
    rows = [("https://a.example/1", b"hello world"), ("https://b.example/2", b"")]
    recs = list(parse_warc_bytes(_render(rows)))
    assert [(r["url"], r["payload"]) for r in recs] == rows
    assert recs[0]["warc_date"] == "2026-01-01T00:00:00Z"


def test_warc_payload_cannot_desync_parser():
    # payload embeds a fake record header AND blank lines — only
    # Content-Length framing survives this; split-on-blank-line readers
    # would emit a phantom third record
    evil = b"x\r\n\r\nWARC/1.0\r\nWARC-Target-URI: https://fake/\r\n\r\nbody"
    rows = [("https://real.example/a", evil), ("https://real.example/b", b"tail")]
    recs = list(parse_warc_bytes(_render(rows)))
    assert [(r["url"], r["payload"]) for r in recs] == rows


def test_warc_reader_matches_parquet_ground_truth(ray_session):
    import hashlib

    import pyarrow.parquet as pq

    got = (
        read_warc(warc_path_for(SF))
        .to_pandas()
        .sort_values(["url", "warc_date", "payload_md5"])
        .reset_index(drop=True)
    )
    pages = pq.read_table(pages_path_for(SF), columns=["url", "warc_ts", "html"])
    want = (
        pd.DataFrame(
            {
                "url": pages["url"].to_pylist(),
                "warc_date": [
                    t.strftime("%Y-%m-%dT%H:%M:%SZ") for t in pages["warc_ts"].to_pylist()
                ],
                "n_bytes": [len(h) for h in pages["html"].to_pylist()],
                "payload_md5": [
                    hashlib.md5(h).hexdigest() for h in pages["html"].to_pylist()
                ],
            }
        )
        .sort_values(["url", "warc_date", "payload_md5"])
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_warc_extract_matches_sql_oracle(ray_session):
    got = (
        web_ops.warc_extract(SF)
        .to_pandas()
        .sort_values(["url", "warc_date", "payload_md5"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    want = (
        con.execute(web_ops.sql_warc_extract(pages_path_for(SF) + "/*.parquet"))
        .df()
        .sort_values(["url", "warc_date", "payload_md5"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


# --- BPE -------------------------------------------------------------------


def test_bpe_overlap_counting_and_greedy_merge(ray_session, tmp_path):
    # corpus: "aaab" x5 + "ab" x2 — pair (a,a) counts both overlapping
    # adjacencies in aaab (c = 10 > ab's 7); greedy merge gives [aa, a, b]
    import pyarrow.parquet as pq

    docs = pa.table(
        {
            "doc_id": pa.array([1, 2], pa.int64()),
            "text": pa.array(["aaab aaab aaab aaab aaab", "ab ab"], pa.string()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = text_ops.bpe_train(str(tmp_path), n_merges=3)
    assert list(got.iloc[0]) == [1, "a", "a", 10]
    # after merge 1 the words are [aa,a,b] x5 and [a,b] x2:
    # pairs (aa,a)=5, (a,b)=7 -> winner (a,b); then [aa,ab] / [ab]:
    # (aa,ab)=5 is the only pair left
    assert list(got.iloc[1]) == [2, "a", "b", 7]
    assert list(got.iloc[2]) == [3, "aa", "ab", 5]


def test_bpe_train_matches_oracle(ray_session):
    got = text_ops.bpe_train(SF).reset_index(drop=True)
    want = _oracle(text_ops.sql_bpe_train()).reset_index(drop=True)
    assert len(got) == text_ops._BPE_MERGES
    pd.testing.assert_frame_equal(got, want, check_dtype=False)
    # merges must reference previously-formed symbols or single chars only
    known = set()
    for _, row in got.iterrows():
        for s in (row["left_sym"], row["right_sym"]):
            assert len(s) == 1 or s in known
        known.add(row["left_sym"] + row["right_sym"])


# --- bigram LM -------------------------------------------------------------


def test_bigram_logprob_matches_oracle(ray_session):
    got = (
        text_ops.bigram_logprob(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        _oracle(text_ops.sql_bigram_logprob())
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == 500  # every sf0.001 doc has >= 1 bigram
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)
    # logprobs are negative and scale with doc length
    assert (got["logprob_micro"] < 0).all()
    assert (got["n_bigrams"] > 0).all()


def test_bigram_logprob_handcrafted(ray_session, tmp_path):
    # two one-word docs: stream = [<s>, a] each -> model {(<s>,a): 2},
    # c1(<s>) = 2, V = |{a}| = 1 -> lp = round(log2(3/3)*1e6) = 0
    import pyarrow.parquet as pq

    docs = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "text": pa.array(["a", "a"], pa.string())}
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = (
        text_ops.bigram_logprob(str(tmp_path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["doc_id"]) == [1, 2]
    assert list(got["logprob_micro"]) == [0, 0]
    assert list(got["n_bigrams"]) == [1, 1]


def test_bpe_encode_matches_oracle(ray_session):
    got = (
        text_ops.bpe_encode(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    want = (
        _oracle(text_ops.sql_bpe_encode())
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == 500
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)
    # merging can only shrink: len(word) >= encoded len >= 1
    assert (got["n_bpe_tokens"] >= got["n_words"]).all()


def test_bpe_encode_applies_merges_in_order(ray_session, tmp_path):
    # same corpus as the train unit test: merges are (a,a), (a,b), (aa,ab)
    # -> "aaab" encodes to [aa, ab] then [aaab]: 1 token; "ab" -> [ab]: 1
    import pyarrow.parquet as pq

    docs = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()),
         "text": pa.array(["aaab aaab aaab aaab aaab", "ab ab"], pa.string())}
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    got = (
        text_ops.bpe_encode(str(tmp_path), n_merges=3)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert list(got["n_words"]) == [5, 2]
    assert list(got["n_bpe_tokens"]) == [5, 2]  # every word -> 1 token


def test_warc_index_ranged_reads_recover_records(ray_session):
    # the point of a CDX index: a single ranged read at (offset,
    # rec_bytes) must yield exactly one parseable record for the url
    import os

    idx = read_warc_index(warc_path_for(SF)).to_pandas()
    assert len(idx) > 0
    sample = idx.sort_values(["warc_file", "offset"]).groupby("warc_file").tail(1)
    root = warc_path_for(SF)
    for _, row in sample.iterrows():
        with open(os.path.join(root, row["warc_file"]), "rb") as f:
            f.seek(int(row["offset"]))
            blob = f.read(int(row["rec_bytes"]))
        recs = list(parse_warc_bytes(blob))
        assert len(recs) == 1
        assert recs[0]["url"] == row["url"]
        assert len(recs[0]["payload"]) == row["n_bytes"]


def test_warc_index_matches_closed_form_oracle(ray_session):
    import duckdb

    got = (
        web_ops.warc_index(SF)
        .to_pandas()
        .sort_values(["warc_file", "offset"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    want = (
        con.execute(web_ops.sql_warc_index(pages_path_for(SF) + "/*.parquet"))
        .df()
        .sort_values(["warc_file", "offset"])
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want[got.columns], check_dtype=False)


def test_bigram_logprob_both_paths_identical(ray_session, monkeypatch):
    # force the co-partitioned join path and compare to the broadcast default
    a = (
        text_ops.bigram_logprob(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    monkeypatch.setattr(text_ops, "_BG_BROADCAST_MAX", 0)
    b = (
        text_ops.bigram_logprob(SF)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b[a.columns], check_dtype=False)
