"""Operator-library checks vs the DuckDB oracle at sf0.001 (a fast subset;
tools/check_correctness.py runs the full suite against every oracle)."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier orders lineitem part events documents embeddings"
).split()


@pytest.fixture(scope="module")
def con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return con


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for col in df.columns:
        if pd.api.types.is_integer_dtype(df[col]):
            df[col] = df[col].astype("int64")
    df = df[sorted(df.columns)]
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def run_pair(ray_session, con, name):
    import __ray_entry__ as e

    got = e.queries()[name](SF)
    if hasattr(got, "to_pandas"):
        got = got.to_pandas()
    want = con.execute(e.oracle_sql()[name]).fetchdf()
    g, w = normalize(got), normalize(want)
    assert list(g.columns) == list(w.columns), (name, list(g.columns), list(w.columns))
    pd.testing.assert_frame_equal(g, w, check_dtype=False)


@pytest.mark.parametrize(
    "name",
    ["html_extract", "lineitem_agg", "segment_revenue", "exact_dedup",
     "token_count", "events_sessionize", "knn_search", "token_histogram",
     "pii_redact", "paragraph_dedup", "ngram_decontaminate", "video_frame_sample",
     "audio_window_features", "hash_split", "seeded_shuffle", "bpe_token_count", "stratified_sample", "tfidf_topk", "sequence_pack", "quality_classifier", "kmeans_clusters",
     # co-partitioned exchanges (pipelines/util.copartition) and the
     # folded part_skyline
     "orders_lineitem_join", "orders_lineitem_join_salted",
     "customer_big_orders_left_join", "top_orders_q3", "regional_revenue_q5",
     "big_order_customers", "dormant_customers", "nation_trade_volume",
     "unigram_logprob", "substring_dedup", "bigram_logprob", "pmi_collocations",
     "host_triangles", "host_clustering", "minhash_dedup", "jaccard_pairs",
     "ppjoin_pairs", "containment_pairs", "part_skyline"],
)
def test_sql_checked_op(ray_session, con, name):
    run_pair(ray_session, con, name)


def test_minhash_finds_planted_near_dups(ray_session, tmp_path):
    """Plant true near-duplicates and check MinHash-LSH clusters them."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import minhash_dedup

    base = (
        "the quick brown fox jumps over the lazy dog and keeps running through "
        "the deterministic forest of shingles while the pipeline watches closely"
    )
    texts = [
        base,
        base + " extra tail",          # near-dup of 0
        base.replace("quick", "swift"),  # near-dup of 0
        "completely different content about ray data pipelines and arrow tables "
        "with nothing in common with the fox sentence at all whatsoever",
        "another unrelated document discussing minhash banding strategies and "
        "locality sensitive hashing for large scale deduplication work",
    ]
    t = pa.table({"doc_id": list(range(len(texts))), "text": texts})
    d = tmp_path / "sfx"
    d.mkdir()
    pq.write_table(t, str(d / "documents.parquet"))
    out = minhash_dedup(str(d))
    clusters = dict(zip(out["doc_id"], out["rep_id"]))
    assert clusters.get(1) == 0 and clusters.get(2) == 0
    assert 3 not in clusters and 4 not in clusters


def test_knn_lsh_mostly_agrees_with_exact(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.similarity import (
        knn_search,
        knn_search_lsh,
    )

    exact = knn_search(SF).to_pandas()
    approx = knn_search_lsh(SF)
    # recall of the approximate index vs exact top-5 (sanity: clearly > random)
    e = {(r.query_id, r.neighbor_id) for r in exact.itertuples(index=False)}
    a = {(r.query_id, r.neighbor_id) for r in approx.itertuples(index=False)}
    recall = len(e & a) / len(e)
    # the driver embeddings are unstructured random vectors, so LSH recall is
    # coverage-bound: probing 9/256 of the space (~3.5%) yields ~14% recall
    # because same-side hyperplane signs correlate with high cosine.  Assert
    # we beat random coverage by a clear margin.
    assert recall > 0.08, recall


def test_seeded_shuffle_is_permutation(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.sampling import (
        seeded_shuffle,
    )

    out = seeded_shuffle(SF).to_pandas()
    n = len(out)
    assert sorted(out["rank"]) == list(range(n))           # contiguous ranks
    assert out["shuffle_key"].nunique() == n               # fmix32 bijection
    assert set(out["doc_id"]) == set(range(n))             # nothing lost
    # order is actually scrambled (not identity)
    by_rank = out.sort_values("rank")["doc_id"].to_numpy()
    assert (by_rank != sorted(by_rank)).any()


def test_video_frame_sample_stage():
    import hashlib

    import pyarrow as pa

    from action_pdf_accessibility_paddle_docker_ray.stages.multimodal import (
        VideoFrameSampleStage,
    )

    with pytest.raises(NotImplementedError):
        VideoFrameSampleStage(decode=True)
    # 5 frames of 4 chars, sample every 2nd → frames 0, 2, 4; partial tail
    # dropped; non-ASCII chars hash via their utf-8 bytes
    text = "aaaabbbbccccddddéééé" + "xx"
    stage = VideoFrameSampleStage(frame_chars=4, sample_rate=2)
    out = stage(pa.table({"doc_id": [7], "payload": [text.encode("utf-8")]}))
    assert out.column("frame_idx").to_pylist() == [0, 2, 4]
    assert out.column("n_frames").to_pylist() == [5, 5, 5]
    assert out.column("frame_md5").to_pylist()[2] == hashlib.md5(
        "éééé".encode("utf-8")
    ).hexdigest()


def test_audio_window_feature_stage():
    import pyarrow as pa

    from action_pdf_accessibility_paddle_docker_ray.stages.multimodal import (
        AudioWindowFeatureStage,
    )

    with pytest.raises(NotImplementedError):
        AudioWindowFeatureStage(decode=True)
    # window=4 over 6 samples → full window + partial tail; é = U+00E9 (233)
    stage = AudioWindowFeatureStage(window=4)
    out = stage(pa.table({"doc_id": [3], "payload": ["abcdéf".encode("utf-8")]}))
    assert out.column("win").to_pylist() == [0, 1]
    assert out.column("v_sum").to_pylist() == [
        ord("a") + ord("b") + ord("c") + ord("d"), 233 + ord("f")
    ]
    assert out.column("v_max").to_pylist() == [ord("d"), 233]
    assert out.column("n_samples").to_pylist() == [4, 2]


def test_image_feature_stage_decode_stub():
    from action_pdf_accessibility_paddle_docker_ray.stages.multimodal import ImageFeatureStage

    with pytest.raises(NotImplementedError):
        ImageFeatureStage(decode=True)
    import pyarrow as pa

    stage = ImageFeatureStage()
    out = stage(pa.table({"doc_id": [1], "payload": [b"\x00\x01\x02\x03"]}))
    assert out.column("n_bytes").to_pylist() == [4]
    assert out.column("entropy_milli").to_pylist() == [2000]
