"""Round-2 additions: unified dedup tie-break, colocate auto-fallback on
same-max-ts conflicts, distributed component labels, SQL-oracle kernel
parity, quantized LSH exactness."""

import datetime as dt
import re

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# unified dedup tie-break (content_key everywhere)
# ---------------------------------------------------------------------------

def _conflict_table() -> pa.Table:
    """One url with TWO crawls sharing the max warc_ts but different
    content, plus a normal stale duplicate and a unique url."""
    ts = dt.datetime(2026, 1, 2)
    return pa.table(
        {
            "url": ["https://x/a", "https://x/a", "https://x/b",
                    "https://x/b", "https://x/c"],
            "warc_ts": pa.array([ts, ts, ts, ts - dt.timedelta(days=1), ts],
                                pa.timestamp("us")),
            "html": [b"<html><body><article><p>alpha</p></article></body></html>",
                     b"<html><body><article><p>beta</p></article></body></html>",
                     b"<html><body><article><p>keep</p></article></body></html>",
                     b"<html><body><article><p>stale</p></article></body></html>",
                     b"<html><body><article><p>solo</p></article></body></html>"],
        }
    )


def test_three_dedup_paths_pick_identical_winner(ray_session, tmp_path):
    """oracle.dedup_latest, the grouped dedup exchange and the pipeline on a
    Dataset source must select the same winner for same-max-ts conflicting
    crawls."""
    import ray.data

    from action_pdf_accessibility_paddle_docker_ray.oracle import (
        dedup_latest as oracle_dedup,
    )
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        extract_pipeline,
    )
    from action_pdf_accessibility_paddle_docker_ray.stages.dedup import dedup_latest

    t = _conflict_table()
    golden = {r["url"]: r["html"] for r in oracle_dedup(t.to_pylist())}

    early = dedup_latest(ray.data.from_arrow(t)).to_pandas()
    assert len(early) == 3
    for r in early.itertuples(index=False):
        assert bytes(r.html) == golden[r.url], r.url

    # a Dataset source runs the grouped dedup exchange before DocProcessor
    ds = extract_pipeline(ray.data.from_arrow(t)).materialize()
    ops = set(re.findall(r"MapBatches\((\w+)\)", ds.stats()))
    assert ops == {"best_per_url_table", "DocProcessor"}, ops
    out = ds.to_pandas()
    assert len(out) == 3
    from action_pdf_accessibility_paddle_docker_ray.oracle import oracle_extract

    golden_docs = {d["url"]: d["text"] for d in oracle_extract(t)}
    for r in out.itertuples(index=False):
        assert r.text == golden_docs[r.url], r.url


def test_colocate_auto_falls_back_on_same_ts_conflict(ray_session, tmp_path):
    """A parquet input with same-max-ts conflicting crawls must produce ONE
    row per url on the DEFAULT (colocate) plan — via the dict route: the
    winner scan settles the tie on content_key and broadcasts the winning
    key with the max-ts map (no Bloom split, no exchange)."""
    from action_pdf_accessibility_paddle_docker_ray.oracle import oracle_extract
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        BloomRoute,
        _stale_filter,
        extract_pipeline,
    )

    t = _conflict_table()
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    route = _stale_filter(path)
    assert not isinstance(route, BloomRoute)
    assert route.summary() == {
        "route": "dict", "dup_urls": 2, "tied_urls": 1,
        "exact_dup_urls": 0, "bloom_reason": None,
    }

    out = extract_pipeline(path).to_pandas()
    golden = {d["url"]: d for d in oracle_extract(t)}
    assert len(out) == len(golden) == 3  # one row per url, no double emit
    for r in out.itertuples(index=False):
        assert r.text == golden[r.url]["text"], r.url
        assert r.template_json == golden[r.url]["template_json"], r.url


def test_stale_filter_distributed_path_matches_small_path(ray_session, tmp_path):
    """Force the distributed winner scan and compare against the one-task
    scan on the same input — older re-crawls only, then with same-max-ts
    ties added: same route, counts, max-ts map and tie keys."""
    import ray

    import action_pdf_accessibility_paddle_docker_ray.pipelines.extract as ex
    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages

    t = generate_pages(120, seed=7).select(["url", "warc_ts", "html"])
    twins = t.take(list(range(0, 40, 4)))
    html = [h + b"<!-- same-ts twin -->" for h in twins["html"].to_pylist()]
    tied = pa.concat_tables([t, twins.set_column(2, "html", pa.array(html, pa.binary()))])
    for name, table in [("recrawls", t), ("ties", tied)]:
        path = str(tmp_path / f"{name}.parquet")
        pq.write_table(table, path)
        small = ex._stale_filter(path)
        old = ex._SMALL_INPUT_BYTES
        ex._SMALL_INPUT_BYTES = 0  # force the distributed branch
        try:
            big = ex._stale_filter(path)
        finally:
            ex._SMALL_INPUT_BYTES = old
        assert small.summary() == big.summary(), name
        assert small.route == "dict" and (small.tied_urls > 0) == (name == "ties")
        assert ray.get(small.winners_ref) == ray.get(big.winners_ref), name


# ---------------------------------------------------------------------------
# dedup family
# ---------------------------------------------------------------------------

def test_cluster_modes_agree(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        minhash_dedup,
    )

    a = minhash_dedup(SF)
    b = minhash_dedup(SF, cluster_mode="distributed")
    assert a.reset_index(drop=True).equals(b.reset_index(drop=True))
    assert len(a) > 0  # corpus has planted near-dups


def test_label_propagation_chain_converges():
    """A path graph needs multiple propagation rounds; min label must still
    reach every node."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        _cluster_pairs,
        _cluster_pairs_distributed,
    )

    pairs = pd.DataFrame({"a": [10, 20, 30, 40, 100], "b": [20, 30, 40, 50, 101]})
    dist = _cluster_pairs_distributed(pairs)
    got = dict(zip(dist["doc_id"], dist["rep_id"]))
    want = _cluster_pairs([tuple(r) for r in pairs.to_numpy()])
    assert got == want
    assert got[50] == 10 and got[101] == 100


def test_simhash_token_hash_matches_sql_kernels():
    """fnv1a-32 + fmix32 in Python (scalar and numpy forms) must equal the
    DuckDB CTE chain the oracle generates."""
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.functions.fnv import (
        fmix32,
        fmix32_np,
        fnv1a_32,
    )
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        token_hash_pair,
    )
    from action_pdf_accessibility_paddle_docker_ray.pipelines.sql_oracles import (
        _fmix32_ctes,
        sql_fnv1a32,
    )

    con = duckdb.connect()
    toks = ["the", "a", "Zürich".encode("ascii", "ignore").decode(), "x" * 40]
    for tok in toks:
        sql_h = con.execute(f"SELECT {sql_fnv1a32(repr(tok))}").fetchone()[0]
        assert sql_h == fnv1a_32(tok), tok
    # fmix32 reference values
    assert fmix32(0) == 0
    vals = [0, 1, 0x7FFFFFFF, 0x80000000, 0xFFFFFFFF] + [fnv1a_32(t) for t in toks]
    frag, final = _fmix32_ctes("m", "src", ["i"], "h0", "hv")
    rows = ", ".join(f"({i}, {v})" for i, v in enumerate(vals))
    sql_mix = [
        hv for _, hv in con.execute(
            f"WITH src AS (SELECT i, CAST(v AS BIGINT) AS h0 "
            f"FROM (VALUES {rows}) t(i, v)), {frag} SELECT i, hv FROM {final} ORDER BY i"
        ).fetchall()
    ]
    assert [fmix32(v) for v in vals] == sql_mix
    assert fmix32_np(np.array(vals, dtype=np.uint64)).tolist() == sql_mix
    h1, h2 = token_hash_pair("hello")
    assert 0 <= h1 < 2**32 and 0 <= h2 < 2**32
    assert h1 == fmix32(fnv1a_32("hello"))


def test_corpus_is_ascii_for_sql_oracles():
    """The SQL oracles equate codepoints with bytes; assert the driver's
    documents corpus stays ASCII at every SF we check against."""
    for sf in ("/root/testdata/sf0.001", "/root/testdata/sf0.01"):
        t = pq.read_table(f"{sf}/documents.parquet", columns=["text"])
        for chunk in t.column("text").chunks:
            for s in chunk.to_pylist():
                assert s.isascii(), sf


def test_bucket_codes_are_exact_integers():
    """Quantized sign projections: bucket codes must be invariant to the
    float summation order (exact int arithmetic)."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        bucket_codes,
        rademacher_planes,
    )

    rng = np.random.RandomState(0)
    mat32 = rng.standard_normal((50, 64)).astype(np.float32)
    planes = rademacher_planes(64, 8, seed=13)
    a = bucket_codes(mat32.astype(np.float64), planes)
    # shuffled-column computation reproduces the same codes (int-exact dots)
    perm = rng.permutation(64)
    q = np.floor(mat32.astype(np.float64) * (1 << 24)).astype(np.int64)
    dots = q[:, perm] @ planes[perm, :]
    bits = (dots > 0).astype(np.int64)
    b = (bits * (1 << np.arange(8, dtype=np.int64))).sum(axis=1)
    assert np.array_equal(a, b)


def test_auto_planes_scales():
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        auto_planes,
    )

    assert auto_planes(100) == 6
    assert auto_planes(1 << 20) == 14
    assert auto_planes(1 << 40) == 34


def test_popcount64():
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        _popcount64,
    )

    xs = np.array([0, 1, 0xFFFFFFFFFFFFFFFF, 0x8000000000000000, 0x5555555555555555],
                  dtype=np.uint64)
    assert _popcount64(xs).tolist() == [0, 1, 64, 1, 32]
    rng = np.random.RandomState(3)
    vals = rng.randint(0, 2**63, size=200, dtype=np.int64).astype(np.uint64)
    want = [bin(int(v)).count("1") for v in vals]
    assert _popcount64(vals).tolist() == want


def test_entropy_vectorized_matches_reference():
    from action_pdf_accessibility_paddle_docker_ray.stages.multimodal import (
        ImageFeatureStage,
    )

    import math

    def ref(data: bytes) -> int:
        if not data:
            return 0
        counts: dict[int, int] = {}
        for byte in data:
            counts[byte] = counts.get(byte, 0) + 1
        n = len(data)
        ent = -sum((c / n) * math.log2(c / n) for c in counts.values())
        return int(round(ent * 1000))

    rng = np.random.RandomState(5)
    for _ in range(50):
        data = bytes(rng.randint(0, 256, size=rng.randint(0, 500)).astype(np.uint8))
        assert ImageFeatureStage._entropy_milli(data) == ref(data)


def test_salted_join_matches_unsalted(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        orders_lineitem_join,
        orders_lineitem_join_salted,
    )

    a = orders_lineitem_join(SF).to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    b = (
        orders_lineitem_join_salted(SF, salt=4)
        .to_pandas().sort_values("o_orderpriority").reset_index(drop=True)
    )
    assert a.equals(b)


def test_range_join_window_semantics(ray_session):
    """Trailing 7-day window: counts must be consistent with a pandas
    recompute on a sampled key."""
    import pyarrow.parquet as pq

    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        RANGE_JOIN_WINDOW_US,
        events_orders_range_join,
    )

    out = events_orders_range_join(SF).to_pandas().set_index("event_id")
    ev = pq.read_table(f"{SF}/events.parquet", columns=["event_id", "user_id", "ts"]).to_pandas()
    od = pq.read_table(f"{SF}/orders.parquet", columns=["o_custkey", "o_orderdate"]).to_pandas()
    ev["ts_us"] = ev["ts"].astype("datetime64[us]").astype("int64")
    od["ts_us"] = od["o_orderdate"].astype("datetime64[us]").astype("int64")
    sample = ev.head(50)
    for r in sample.itertuples(index=False):
        mine = od[(od["o_custkey"] == r.user_id + 1)
                  & (od["ts_us"] <= r.ts_us)
                  & (od["ts_us"] >= r.ts_us - RANGE_JOIN_WINDOW_US)]
        got = out.loc[r.event_id]
        assert got["n_orders_7d"] == len(mine)
        want_last = int(mine["ts_us"].max()) if len(mine) else -1
        assert got["last_order_ts_us"] == want_last


def test_attach_payload_matches_pandas_merge(ray_session):
    """Randomized check of the bucketed verify-join machinery: attaching
    payloads for both pair sides must equal a plain pandas merge, including
    the fold-in distinct on the first pass."""
    import ray.data

    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        _attach_payload,
    )

    rng = np.random.RandomState(42)
    n_docs = 200
    docs = pd.DataFrame(
        {"doc_id": np.arange(n_docs, dtype="int64"),
         "payload": [f"p{i}|text {i}" for i in range(n_docs)]}
    )
    pairs = pd.DataFrame(
        {
            "a": rng.randint(0, n_docs, 500).astype("int64"),
            "b": rng.randint(0, n_docs, 500).astype("int64"),
        }
    )
    pairs = pairs[pairs["a"] < pairs["b"]].reset_index(drop=True)
    seeded = pairs.assign(payload_a="", payload_b="")

    step = _attach_payload(
        ray.data.from_pandas(seeded), ray.data.from_pandas(docs), "a", "payload_a",
        dedupe=True,
    )
    step = _attach_payload(step, ray.data.from_pandas(docs), "b", "payload_b")
    got = step.to_pandas().sort_values(["a", "b"]).reset_index(drop=True)

    want = pairs.drop_duplicates(["a", "b"])
    want = want.merge(docs.rename(columns={"doc_id": "a", "payload": "payload_a"}), on="a")
    want = want.merge(docs.rename(columns={"doc_id": "b", "payload": "payload_b"}), on="b")
    want = want.sort_values(["a", "b"]).reset_index(drop=True)
    assert got[["a", "b", "payload_a", "payload_b"]].equals(
        want[["a", "b", "payload_a", "payload_b"]]
    )


def test_dedup_corpus_keeps_reps_only(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        dedup_corpus,
        minhash_dedup,
    )

    clusters = minhash_dedup(SF)
    kept = set(dedup_corpus(SF).to_pandas()["doc_id"])
    for d, r in zip(clusters["doc_id"], clusters["rep_id"]):
        if d != r:
            assert d not in kept
        else:
            assert d in kept
    assert len(kept) > 0


def test_verify_bucketed_path_matches_broadcast(ray_session):
    """Force the above-bound bucketed-join verify and compare with the
    broadcast fast path on the same candidates."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        exact_jaccard_verify,
        lsh_candidate_pairs,
    )
    from action_pdf_accessibility_paddle_docker_ray.sources.pages import read_table

    docs = read_table(SF, "documents", columns=["doc_id", "text"])
    cands = lsh_candidate_pairs(
        docs, num_perm=126, bands=42, shingle_k=5, est_prefilter=0.45
    ).materialize()
    fast = (
        exact_jaccard_verify(cands, docs, k=5, threshold=0.7)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    slow = (
        exact_jaccard_verify(cands, docs, k=5, threshold=0.7, broadcast_limit=0)
        .to_pandas().sort_values(["a", "b"]).reset_index(drop=True)
    )
    assert len(fast) > 0
    assert fast.equals(slow)


def test_char_gramset_matches_sql_windows():
    """char_gramset must equal DuckDB's substr-window expression for any
    ASCII text (the exact-verify / oracle contract)."""
    import random
    import string

    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        char_gramset,
    )

    con = duckdb.connect()
    rng = random.Random(9)
    texts = ["ab", "a", "abc", "abcd", ""] + [
        "".join(rng.choice(string.ascii_letters + " .\n") for _ in range(rng.randint(1, 80)))
        for _ in range(40)
    ]
    for k in (3, 5):
        for t in texts:
            if not t:
                continue
            # literal SQL, matching the generated oracles (DuckDB misbinds
            # prepared `?` params inside list comprehensions)
            lit = "'" + t.replace("'", "''").replace("\n", "' || chr(10) || '") + "'"
            got = con.execute(
                f"SELECT list_distinct([substr(lower({lit}), i, {k}) "
                f"for i in range(1, greatest(length({lit}) - {k - 2}, 2))])"
            ).fetchone()[0]
            assert frozenset(got) == char_gramset(t, k), (t, k)


def test_driver_extract_queries_match_oracle_on_flagship_corpus(ray_session):
    """The two rows-only driver queries (extract_docs / extract_spans) are
    pinned here against the golden oracle on the EXACT derived corpus the
    driver executes them on."""
    import json

    import __ray_entry__ as e
    from action_pdf_accessibility_paddle_docker_ray.oracle import oracle_extract
    from action_pdf_accessibility_paddle_docker_ray.pipelines.flagship import (
        pages_path_for,
    )

    table = pq.read_table(pages_path_for(SF))
    golden = {d["url"]: d for d in oracle_extract(table)}

    docs = e.queries()["extract_docs"](SF).to_pandas()
    assert len(docs) == len(golden)
    for r in docs.itertuples(index=False):
        g = golden[r.url]
        assert r.text == g["text"], r.url
        assert r.n_pages == g["n_pages"] and r.n_regions == g["n_regions"]
        assert r.status == g["status"]

    def norm(v):
        if v is None or (isinstance(v, float) and np.isnan(v)):
            return None
        return int(v)

    spans = e.queries()["extract_spans"](SF).to_pandas()
    want_spans = []
    for d in golden.values():
        for s in d["spans"]:
            want_spans.append((d["url"], norm(s.get("page_no", 0)), s["label"],
                               norm(s.get("reading_order")), norm(s.get("region_id"))))
    got_spans = [
        (r.url, norm(r.page_no), r.label, norm(r.reading_order), norm(r.region_id))
        for r in spans.itertuples(index=False)
    ]
    assert sorted(got_spans, key=str) == sorted(want_spans, key=str)
