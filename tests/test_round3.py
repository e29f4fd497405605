"""Round-3 additions: ADVICE bug fixes (range-join empty-orders class,
payload-miss handling, raster gating, label-propagation fallback) and the
scale-safety work items from VERDICT r2."""

import datetime as dt

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"


# ---------------------------------------------------------------------------
# ADVICE fixes
# ---------------------------------------------------------------------------

def test_range_join_key_with_zero_orders(ray_session, tmp_path):
    """LEFT-JOIN semantics: an event key with no orders at all must yield
    n_orders_7d=0 / last=-1, not IndexError (ADVICE r2, medium)."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        events_orders_range_join,
    )

    ts = dt.datetime(2026, 3, 1)
    events = pa.table(
        {
            "event_id": pa.array([1, 2, 3], pa.int64()),
            # user 0 → custkey 1 (has an order), user 6 → custkey 7 (none)
            "user_id": pa.array([0, 6, 6], pa.int64()),
            "ts": pa.array([ts, ts, ts + dt.timedelta(days=2)], pa.timestamp("us")),
        }
    )
    orders = pa.table(
        {
            "o_custkey": pa.array([1], pa.int64()),
            "o_orderdate": pa.array([ts - dt.timedelta(days=1)], pa.timestamp("us")),
        }
    )
    pq.write_table(events, str(tmp_path / "events.parquet"))
    pq.write_table(orders, str(tmp_path / "orders.parquet"))

    out = events_orders_range_join(str(tmp_path)).to_pandas().set_index("event_id")
    assert out.loc[1, "n_orders_7d"] == 1
    assert out.loc[2, "n_orders_7d"] == 0 and out.loc[2, "last_order_ts_us"] == -1
    assert out.loc[3, "n_orders_7d"] == 0 and out.loc[3, "last_order_ts_us"] == -1


def test_attach_payload_missing_doc_yields_valid_empty_payload(ray_session):
    """A pair whose doc lookup misses must carry the VALID empty payload
    '|' (unpackable), not '' (which _unpack_payload rejects)."""
    import ray.data

    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        _attach_payload,
        _unpack_payload,
    )

    docs = pd.DataFrame({"doc_id": [1], "payload": ["|text one"]})
    pairs = pd.DataFrame({"a": [1], "b": [999], "payload_a": "", "payload_b": ""})
    step = _attach_payload(
        ray.data.from_pandas(pairs), ray.data.from_pandas(docs), "a", "payload_a",
        dedupe=True,
    )
    step = _attach_payload(step, ray.data.from_pandas(docs), "b", "payload_b")
    got = step.to_pandas()
    assert got.loc[0, "payload_b"] == "|"
    sig, text = _unpack_payload(got.loc[0, "payload_b"])
    assert sig is None and text == ""


def test_raster_formula_image_always_maps_to_render_error():
    """JPEG/PNG magic bytes must raise NotImplementedError unconditionally
    (no formula model is wired even where cv2 imports), so run_mathml maps
    them to EC_ENGINE_RENDER instead of an uncaught UnicodeDecodeError."""
    from action_pdf_accessibility_paddle_docker_ray.cli import (
        _formula_image_to_latex,
    )

    for data in (b"\xff\xd8\xff\xe0junk\x9c\xff", b"\x89PNG\r\n\x1a\n\x00\xffbits"):
        with pytest.raises(NotImplementedError):
            _formula_image_to_latex(data)
    # non-raster payloads still decode as LaTeX text
    assert _formula_image_to_latex(b" x^2 ") == "x^2"


def test_label_propagation_falls_back_when_not_converged():
    """With max_iters too small for the chain's diameter the distributed
    propagation must fall back to the driver union-find (correct reps),
    never silently return wrong labels."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        _cluster_pairs,
        _cluster_pairs_distributed,
    )

    nodes = list(range(0, 120, 10))  # path graph 0-10-20-...-110
    pairs = pd.DataFrame({"a": nodes[:-1], "b": nodes[1:]})
    dist = _cluster_pairs_distributed(pairs, max_iters=2)
    got = dict(zip(dist["doc_id"], dist["rep_id"]))
    want = _cluster_pairs([tuple(r) for r in pairs.to_numpy()])
    assert got == want
    assert all(v == 0 for v in got.values())


# ---------------------------------------------------------------------------
# scale-safe stale filter (VERDICT r2 #1)
# ---------------------------------------------------------------------------

def test_bloom_filter_membership_and_fpr():
    from action_pdf_accessibility_paddle_docker_ray.functions.bloom import UrlBloom

    keys = np.array([f"https://dup.example/{i}" for i in range(5000)], dtype=object)
    other = np.array([f"https://uniq.example/{i}" for i in range(50000)], dtype=object)
    bloom = UrlBloom(len(keys))
    bloom.add(keys)
    assert bloom.contains(keys).all()  # zero false negatives, ever
    fpr = bloom.contains(other).mean()
    assert fpr < 0.01, fpr  # 16 bits/key, k=8 → ~6e-4 expected


def test_zero_broadcast_bound_uses_bloom_and_matches_oracle(ray_session, tmp_path):
    """Force _WINNER_BROADCAST_MAX=0: the pipeline must complete WITHOUT a
    driver-side dup table (BloomRoute) and produce byte-identical output."""
    import ray.data

    import action_pdf_accessibility_paddle_docker_ray.pipelines.extract as ex
    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
    from action_pdf_accessibility_paddle_docker_ray.oracle import oracle_extract

    t = generate_pages(120, seed=7)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    old = ex._WINNER_BROADCAST_MAX
    ex._WINNER_BROADCAST_MAX = 0
    try:
        route = ex._stale_filter(path)
        assert isinstance(route, ex.BloomRoute)
        out = ex.extract_pipeline(path).to_pandas()
    finally:
        ex._WINNER_BROADCAST_MAX = old

    golden = {d["url"]: d["text"] for d in oracle_extract(t)}
    assert len(out) == len(golden)
    for r in out.itertuples(index=False):
        assert r.text == golden[r.url], r.url


def test_zero_broadcast_bound_distributed_scan_matches(ray_session, tmp_path):
    """Same forced-Bloom run through the DISTRIBUTED winner scan (driver
    only ever sees per-block count rows and position batches)."""
    import action_pdf_accessibility_paddle_docker_ray.pipelines.extract as ex
    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
    from action_pdf_accessibility_paddle_docker_ray.oracle import oracle_extract

    t = generate_pages(80, seed=11)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    old_max, old_small = ex._WINNER_BROADCAST_MAX, ex._SMALL_INPUT_BYTES
    ex._WINNER_BROADCAST_MAX, ex._SMALL_INPUT_BYTES = 0, 0
    try:
        route = ex._stale_filter(path)
        assert isinstance(route, ex.BloomRoute)
        out = ex.extract_pipeline(path, _winners_ref=route).to_pandas()
    finally:
        ex._WINNER_BROADCAST_MAX, ex._SMALL_INPUT_BYTES = old_max, old_small

    golden = {d["url"]: d["text"] for d in oracle_extract(t)}
    assert len(out) == len(golden)
    for r in out.itertuples(index=False):
        assert r.text == golden[r.url], r.url


# ---------------------------------------------------------------------------
# native Arrow nested spans/formulas (VERDICT r2 #2)
# ---------------------------------------------------------------------------

def test_nested_output_explodes_match_json_path(ray_session, tmp_path):
    """extract_pipeline(output='nested') + Arrow-flatten explodes must give
    the same flat spans/formulas tables as the JSON docs contract."""
    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        extract_pipeline,
        formulas_dataset,
        spans_dataset,
    )

    t = generate_pages(60, seed=5)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    docs_json = extract_pipeline(path)
    docs_nested = extract_pipeline(path, output="nested")

    key = ["url", "page_no", "reading_order"]
    a = spans_dataset(docs_json).to_pandas().sort_values(key).reset_index(drop=True)
    b = spans_dataset(docs_nested).to_pandas().sort_values(key).reset_index(drop=True)
    assert len(a) > 0 and a.equals(b)

    fk = ["url", "formula_id"]
    fa = formulas_dataset(docs_json).to_pandas().sort_values(fk).reset_index(drop=True)
    fb = formulas_dataset(docs_nested).to_pandas().sort_values(fk).reset_index(drop=True)
    assert len(fa) > 0 and fa.equals(fb)


def test_nested_docs_scalars_match_json_docs(ray_session, tmp_path):
    """Scalar doc columns are identical between the two output modes."""
    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        extract_pipeline,
    )
    from action_pdf_accessibility_paddle_docker_ray.schemas import (
        DOCS_NESTED,
        check_schema,
    )

    t = generate_pages(30, seed=13)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    cols = ["url", "text", "n_pages", "n_regions", "status", "template_json"]
    a = (
        extract_pipeline(path).select_columns(cols)
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    nested = extract_pipeline(path, output="nested")
    nt = nested.to_arrow_refs()
    import ray as _ray

    check_schema(_ray.get(nt[0]), DOCS_NESTED, where="nested docs")
    b = (
        nested.select_columns(cols)
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    assert a.equals(b)


# ---------------------------------------------------------------------------
# bounded unigram_logprob (VERDICT r2 #3)
# ---------------------------------------------------------------------------

def test_unigram_logprob_join_path_matches_broadcast(ray_session, monkeypatch):
    """_VOCAB_BROADCAST_MAX=0 forces the co-partitioned token⋈logprob join;
    the output must be bit-identical to the broadcast-dict path."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines import text_ops
    from action_pdf_accessibility_paddle_docker_ray.pipelines.text_ops import (
        unigram_logprob,
    )

    a = unigram_logprob(SF).to_pandas().sort_values("doc_id").reset_index(drop=True)
    monkeypatch.setattr(text_ops, "_VOCAB_BROADCAST_MAX", 0)
    b = (
        unigram_logprob(SF)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert len(a) == 500
    assert a.equals(b)


# ---------------------------------------------------------------------------
# extraction SQL projections (VERDICT r2 #4)
# ---------------------------------------------------------------------------

def test_extract_meta_sql_handles_parse_error_and_counts(ray_session, tmp_path):
    """The doc-meta oracle replay must agree with the Ray pipeline on a
    corpus containing a corrupt %SDOC payload (status/parse semantics)."""
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        extract_pipeline,
    )
    from action_pdf_accessibility_paddle_docker_ray.pipelines.sql_oracles import (
        sql_extract_doc_meta,
        sql_extract_span_stats,
    )

    t = generate_pages(50, seed=21)
    bad = pa.table(
        {
            "url": ["https://bad.example/1"],
            "warc_ts": pa.array([dt.datetime(2026, 2, 1)], pa.timestamp("us")),
            "html": [b"%SDOC{not json"],
            "text": [""],
            "lang": ["en"],
        }
    )
    full = pa.concat_tables(
        [t.select(bad.column_names), bad], promote_options="default"
    )
    path = str(tmp_path / "pages.parquet")
    pq.write_table(full, path)

    got = (
        extract_pipeline(path)
        .select_columns(["url", "n_pages", "n_regions", "status"])
        .to_pandas().sort_values("url").reset_index(drop=True)
    )
    con = duckdb.connect()
    want = (
        con.execute(sql_extract_doc_meta(path)).df()
        .sort_values("url").reset_index(drop=True)
    )
    assert len(got) == len(want) == 51
    assert got.loc[got["url"] == "https://bad.example/1", "status"].iloc[0] \
        == "parse_error:JSONDecodeError"
    for c in ("n_pages", "n_regions"):
        assert got[c].astype("int64").equals(want[c].astype("int64")), c
    assert got["status"].equals(want["status"])

    # span stats: SQL replay vs a pandas recount of the Ray spans
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        spans_dataset,
    )

    spans = spans_dataset(
        extract_pipeline(path, output="nested")
    ).to_pandas()
    truth = (
        spans.groupby(["url", "page_no", "label"]).size().rename("n_spans")
        .reset_index()
    )
    sql_stats = con.execute(sql_extract_span_stats(path)).df()
    key = ["url", "page_no", "label"]
    truth = truth.sort_values(key).reset_index(drop=True)
    sql_stats = sql_stats.sort_values(key).reset_index(drop=True)
    assert len(truth) == len(sql_stats)
    assert truth["n_spans"].astype("int64").equals(sql_stats["n_spans"].astype("int64"))


# ---------------------------------------------------------------------------
# chunked O(m²) verifies (VERDICT r2 #5)
# ---------------------------------------------------------------------------

def test_chunked_verifies_match_unchunked(ray_session, tmp_path, monkeypatch):
    """Force tiny verify chunks: simhash and embedding pair sets must be
    identical to the single-matrix computation (chunk ≫ bucket)."""
    import action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops as dd

    # documents: clusters of identical texts → degenerate simhash buckets
    texts = []
    for c in range(6):
        texts.extend([f"cluster {c} common text payload repeated words"] * 25)
    texts.extend(f"unique document number {i} with distinct content" for i in range(50))
    docs = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string()),
         "lang": pa.array(["en"] * len(texts), pa.string())}
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))

    rng = np.random.RandomState(7)
    base = rng.standard_normal((8, 16))
    embs = np.repeat(base, 20, axis=0) + rng.standard_normal((160, 16)) * 0.01
    emb_t = pa.table(
        {"vec_id": pa.array(range(len(embs)), pa.int64()),
         "embedding": pa.array([list(map(float, e)) for e in embs],
                                pa.list_(pa.float64()))}
    )
    pq.write_table(emb_t, str(tmp_path / "embeddings.parquet"))

    sf = str(tmp_path)
    big = dd.simhash_pairs(sf)
    monkeypatch.setattr(dd, "_VERIFY_CHUNK", 16)
    small = dd.simhash_pairs(sf)
    assert len(big) > 100  # degenerate buckets actually produced pair volume
    assert big.reset_index(drop=True).equals(small.reset_index(drop=True))

    monkeypatch.setattr(dd, "_VERIFY_CHUNK", 2048)
    eb = dd.embedding_dedup(sf, threshold=0.9)
    monkeypatch.setattr(dd, "_VERIFY_CHUNK", 16)
    es = dd.embedding_dedup(sf, threshold=0.9)
    assert len(eb) > 100
    assert eb.reset_index(drop=True).equals(es.reset_index(drop=True))


# ---------------------------------------------------------------------------
# hot-key-salted as-of / range joins (VERDICT r2 #6)
# ---------------------------------------------------------------------------

def _hot_key_tables(tmp_path):
    """Synthetic events/orders with one customer at 100x event skew."""
    rng = np.random.RandomState(3)
    base = dt.datetime(2026, 1, 1)
    ev_user, ev_ts = [], []
    for i in range(1000):
        ev_user.append(0)  # hot user 0 → custkey 1
        ev_ts.append(base + dt.timedelta(hours=int(rng.randint(0, 2000))))
    for u in range(1, 11):
        for _ in range(10):
            ev_user.append(u)
            ev_ts.append(base + dt.timedelta(hours=int(rng.randint(0, 2000))))
    events = pa.table(
        {"event_id": pa.array(range(len(ev_user)), pa.int64()),
         "user_id": pa.array(ev_user, pa.int64()),
         "ts": pa.array(ev_ts, pa.timestamp("us"))}
    )
    od_cust, od_ts = [], []
    for c in range(1, 12):
        for _ in range(8):
            od_cust.append(c)
            od_ts.append(base + dt.timedelta(hours=int(rng.randint(0, 2000))))
    orders = pa.table(
        {"o_custkey": pa.array(od_cust, pa.int64()),
         "o_orderdate": pa.array(od_ts, pa.timestamp("us"))}
    )
    pq.write_table(events, str(tmp_path / "events.parquet"))
    pq.write_table(orders, str(tmp_path / "orders.parquet"))
    return str(tmp_path)


def test_salted_asof_and_range_joins_match_on_hot_key(ray_session, tmp_path):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        events_asof_order,
        events_orders_range_join,
    )

    sf = _hot_key_tables(tmp_path)
    con = duckdb.connect()
    for t in ("events", "orders"):
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')")

    a1 = events_asof_order(sf).to_pandas().sort_values("event_id").reset_index(drop=True)
    a8 = events_asof_order(sf, salt=8).to_pandas().sort_values("event_id").reset_index(drop=True)
    assert a1.equals(a8)
    want = con.execute(
        "SELECT e.event_id, epoch_us(o.o_orderdate) AS order_ts_us "
        "FROM events e ASOF LEFT JOIN orders o "
        "ON o.o_custkey = e.user_id + 1 AND e.ts >= o.o_orderdate "
        "ORDER BY e.event_id"
    ).df().reset_index(drop=True)
    assert a8["order_ts_us"].astype("float64").equals(want["order_ts_us"].astype("float64"))

    r1 = events_orders_range_join(sf).to_pandas().sort_values("event_id").reset_index(drop=True)
    r8 = events_orders_range_join(sf, salt=8).to_pandas().sort_values("event_id").reset_index(drop=True)
    assert r1.equals(r8)
    want_r = con.execute(
        "SELECT e.event_id, CAST(COUNT(o.o_orderdate) AS BIGINT) AS n_orders_7d, "
        "COALESCE(MAX(epoch_us(o.o_orderdate)), -1) AS last_order_ts_us "
        "FROM events e LEFT JOIN orders o ON o.o_custkey = e.user_id + 1 "
        "AND o.o_orderdate <= e.ts "
        "AND epoch_us(o.o_orderdate) >= epoch_us(e.ts) - 604800000000 "
        "GROUP BY e.event_id ORDER BY e.event_id"
    ).df().reset_index(drop=True)
    assert r8["n_orders_7d"].astype("int64").equals(want_r["n_orders_7d"].astype("int64"))
    assert r8["last_order_ts_us"].astype("int64").equals(want_r["last_order_ts_us"].astype("int64"))


# ---------------------------------------------------------------------------
# HLL sketch mode for distinct_stats (VERDICT r2 #7)
# ---------------------------------------------------------------------------

def test_distinct_stats_hll_within_documented_error(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        distinct_stats,
    )

    exact = distinct_stats(SF)
    sketch = distinct_stats(SF, exact=False)
    for col in ("n_users", "n_event_types"):
        e, s = int(exact[col].iloc[0]), int(sketch[col].iloc[0])
        # ~1.6% standard error at p=12; allow 5% (3σ) plus slack for tiny counts
        assert abs(s - e) <= max(2, int(0.05 * e)), (col, e, s)


def test_hll_estimator_accuracy_range():
    import numpy as np

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        _HLL_P,
        _hll_estimate,
        _hll_registers,
    )

    for true_n in (10, 1000, 100_000):
        vals = np.array([f"key-{i}" for i in range(true_n)], dtype=object)
        # merge two halves (mergeability) and estimate
        a = _hll_registers(vals[: true_n // 2], _HLL_P)
        b = _hll_registers(vals[true_n // 2 :], _HLL_P)
        est = _hll_estimate(np.maximum(a, b))
        assert abs(est - true_n) <= max(3, int(0.06 * true_n)), (true_n, est)


# ---------------------------------------------------------------------------
# error-code taxonomy completeness (VERDICT r2 #8)
# ---------------------------------------------------------------------------

def test_error_codes_cover_reference_taxonomy():
    """Every applicable reference code (exceptions.py:3-17) is mapped; the
    two license codes (21/22) are the only deliberate exclusions."""
    from action_pdf_accessibility_paddle_docker_ray import cli

    assert sorted(cli.ERROR_TEXTS) == [10, 11, 12, 13, 14, 20, 23, 24, 25, 26, 27, 28]
    cfg = cli.integration_config()
    for action in cfg["actions"]:
        assert set(action["errors"]) == {str(c) for c in cli.ERROR_TEXTS}


def test_tag_rejects_non_parquet_io(ray_session, tmp_path):
    from action_pdf_accessibility_paddle_docker_ray import cli

    rc = cli.main(["tag", "-i", "input.pdf", "-o", str(tmp_path / "out")])
    assert rc == cli.EC_ARG_INPUT_PAGES_OUTPUT_PAGES
    rc = cli.main(["tag", "-i", str(tmp_path), "-o", "out.json"])
    assert rc == cli.EC_ARG_INPUT_PAGES_OUTPUT_PAGES


def test_template_rejects_non_parquet_input(ray_session, tmp_path):
    from action_pdf_accessibility_paddle_docker_ray import cli

    rc = cli.main(["template", "-i", "input.pdf", "-o", str(tmp_path / "out")])
    assert rc == cli.EC_ARG_INPUT_PAGES_OUTPUT_JSON


def test_engine_init_failure_maps_to_20(tmp_path, monkeypatch):
    from action_pdf_accessibility_paddle_docker_ray import cli

    def boom(cpus):
        raise RuntimeError("no cluster")

    monkeypatch.setattr(cli, "_init_ray", boom)
    pq.write_table(pa.table({"url": pa.array([], pa.string())}),
                   str(tmp_path / "pages.parquet"))
    rc = cli.main(["tag", "-i", str(tmp_path / "pages.parquet"),
                   "-o", str(tmp_path / "out")])
    assert rc == cli.EC_ENGINE_INITIALIZE


def test_pipeline_failure_maps_to_26_and_27(ray_session, tmp_path, monkeypatch):
    from action_pdf_accessibility_paddle_docker_ray import cli

    def boom(*a, **k):
        raise RuntimeError("stage blew up")

    import action_pdf_accessibility_paddle_docker_ray.pipelines.extract as ex
    monkeypatch.setattr(ex, "extract_pipeline", boom)
    pq.write_table(pa.table({"url": pa.array([], pa.string())}),
                   str(tmp_path / "pages.parquet"))
    rc = cli.main(["tag", "-i", str(tmp_path / "pages.parquet"),
                   "-o", str(tmp_path / "out")])
    assert rc == cli.EC_ENGINE_FAILED_TO_TAG
    rc = cli.main(["template", "-i", str(tmp_path / "pages.parquet"),
                   "-o", str(tmp_path / "out2")])
    assert rc == cli.EC_ENGINE_FAILED_TO_CREATE_TEMPLATE


def test_template_empty_input_maps_to_28(ray_session, tmp_path):
    from action_pdf_accessibility_paddle_docker_ray import cli
    from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages

    empty = generate_pages(5, seed=1).slice(0, 0)
    pq.write_table(empty, str(tmp_path / "pages.parquet"))
    rc = cli.main(["template", "-i", str(tmp_path / "pages.parquet"),
                   "-o", str(tmp_path / "out")])
    assert rc == cli.EC_ENGINE_NO_TAGS


# ---------------------------------------------------------------------------
# Late-round-3 training-data ops: structural invariants beyond the SQL
# pair tests in test_ops.py
# ---------------------------------------------------------------------------

def test_sequence_pack_capacity_invariant(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines import sampling

    df = sampling.sequence_pack(SF).to_pandas()
    per_seq = df.groupby("seq_id").agg(
        total=("n_tokens", "sum"), n_docs=("n_tokens", "size"),
        max_pos=("pos", "max"),
    )
    # a sequence exceeds capacity only if it holds a single over-long doc
    over = per_seq[per_seq["total"] > sampling._PACK_CAPACITY]
    assert (over["n_docs"] == 1).all()
    # pos is contiguous 0..n-1 within each sequence
    assert (per_seq["max_pos"] == per_seq["n_docs"] - 1).all()
    # every doc appears exactly once
    assert df["doc_id"].is_unique
    # greedy = maximal: within a bucket, the first doc of each sequence
    # would NOT have fit in the previous sequence
    for bucket, g in df.groupby("bucket"):
        g = g.sort_values("doc_id")
        totals = g.groupby("seq_id")["n_tokens"].sum()
        firsts = g[g["pos"] == 0].set_index("seq_id")["n_tokens"]
        seqs = totals.index.to_numpy()
        for prev, cur in zip(seqs, seqs[1:]):
            assert totals[prev] + firsts[cur] > sampling._PACK_CAPACITY


def test_stratified_sample_nested_and_deterministic(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.functions.fnv import fmix32_np
    from action_pdf_accessibility_paddle_docker_ray.pipelines import sampling

    a = sampling.stratified_sample(SF).to_pandas().sort_values("doc_id")
    b = sampling.stratified_sample(SF).to_pandas().sort_values("doc_id")
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True)
    )
    # nested-samples property: every doc kept at rate r survives at any
    # higher rate (hash threshold is monotone), checked per stratum
    full = pd.read_parquet(f"{SF}/documents.parquet", columns=["doc_id", "lang"])
    h = fmix32_np(
        full["doc_id"].to_numpy().astype(np.uint64) % (1 << 32)
        ^ np.uint64(sampling._SAMPLE_SEED)
    ) % np.uint32(10000)
    for lang, thr in sampling.SAMPLE_RATES_PER_10K.items():
        kept = set(a.loc[a["lang"] == lang, "doc_id"])
        lower = set(
            full.loc[(full["lang"] == lang) & (h < thr // 2), "doc_id"]
        )
        assert lower <= kept


def test_quality_classifier_batch_size_invariance(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines import text_ops
    from action_pdf_accessibility_paddle_docker_ray.sources.pages import read_table

    base = (
        text_ops.quality_classifier(SF)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    tiny = (
        read_table(SF, "documents", columns=["doc_id", "text"])
        .map_batches(
            text_ops._HashedLinearScorer, batch_format="pandas",
            batch_size=7, concurrency=(1, 2),
        )
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(base, tiny)


def test_training_ops_empty_input(ray_session, tmp_path):
    """Every round-3 training-data op returns 0 rows (not a crash) on an
    empty documents table — the resume/retry path sees empty shards."""
    import duckdb

    sf = str(tmp_path)
    duckdb.connect().execute(
        f"COPY (SELECT * FROM read_parquet('{SF}/documents.parquet') LIMIT 0) "
        f"TO '{sf}/documents.parquet' (FORMAT PARQUET)"
    )
    from action_pdf_accessibility_paddle_docker_ray.pipelines import sampling, text_ops

    for op in (
        text_ops.bpe_token_count, text_ops.tfidf_topk,
        text_ops.quality_classifier, sampling.stratified_sample,
        sampling.sequence_pack, sampling.hash_split,
    ):
        assert op(sf).count() == 0, op.__name__


def test_read_any_formats_roundtrip(ray_session, tmp_path):
    """read_any/write_any: jsonl and csv carry the same rows as parquet,
    with column pruning on every path."""
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.sources.pages import (
        read_any, write_any,
    )

    con = duckdb.connect()
    base = f"{SF}/documents.parquet"
    con.execute(
        f"COPY (SELECT doc_id, text, lang FROM read_parquet('{base}')) "
        f"TO '{tmp_path}/docs.jsonl' (FORMAT JSON)"
    )
    con.execute(
        f"COPY (SELECT doc_id, lang FROM read_parquet('{base}')) "
        f"TO '{tmp_path}/docs.csv' (FORMAT CSV, HEADER)"
    )
    want = (
        read_any(base, columns=["doc_id", "lang"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    got_j = (
        read_any(f"{tmp_path}/docs.jsonl", columns=["doc_id", "lang"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    got_c = (
        read_any(f"{tmp_path}/docs.csv", columns=["doc_id", "lang"])
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(want, got_j, check_dtype=False)
    pd.testing.assert_frame_equal(want, got_c, check_dtype=False)
    assert list(got_j.columns) == ["doc_id", "lang"]

    write_any(read_any(base, columns=["doc_id", "lang"]),
              f"{tmp_path}/out_jsonl", fmt="jsonl")
    back = (
        read_any(f"{tmp_path}/out_jsonl", fmt="jsonl")
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(want, back[["doc_id", "lang"]], check_dtype=False)
