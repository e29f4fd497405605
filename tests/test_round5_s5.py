"""Round-5 session-5 operators: exact heavy hitters via a bounded
lossy-counting sketch (``frequent_tokens``) and the exact prefix-filtered
set-similarity self-join (``ppjoin_pairs``).

Each op is checked against its DuckDB oracle at sf0.001 (the comparison
the driver's gate runs at sf0.01) plus the invariants the oracle replay
alone would not pin: the sketch's superset guarantee under forced
truncation, and PPJoin's zero-false-negative exactness vs brute force.
"""

from __future__ import annotations

import duckdb
import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _views(con, sf, tables):
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )


def _frame(x):
    return x.to_pandas() if hasattr(x, "to_pandas") else x


def _assert_frames_equal(got, want, key):
    got = _frame(got).sort_values(key, ignore_index=True)[sorted(got.columns)]
    want = want.sort_values(key, ignore_index=True)[sorted(want.columns)]
    assert len(got) == len(want) > 0
    assert list(got.columns) == list(want.columns)
    for c in got.columns:
        assert list(got[c]) == list(want[c]), f"column {c} differs"


# ---------------------------------------------------------------------------
# frequent_tokens
# ---------------------------------------------------------------------------


def test_frequent_tokens_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        frequent_tokens,
        sql_frequent_tokens,
    )

    got = frequent_tokens(SF)
    con = duckdb.connect()
    _views(con, SF, ["documents"])
    want = con.execute(sql_frequent_tokens()).df()
    want["c"] = want["c"].astype("int64")
    _assert_frames_equal(got, want, ["token"])
    # ordered by (-c, token)
    pairs = list(zip(-got["c"], got["token"]))
    assert pairs == sorted(pairs)


def _write_block_files(tmp_path, blocks):
    """One parquet file per logical block so Ray's per-file read tasks
    reproduce the intended block structure."""
    d = tmp_path / "sf"
    d.mkdir()
    dd = d / "documents.parquet"
    dd.mkdir()
    doc_id = 0
    for i, texts in enumerate(blocks):
        rows = []
        for t in texts:
            rows.append({"doc_id": doc_id, "text": t, "source": "s"})
            doc_id += 1
        pd.DataFrame(rows).to_parquet(dd / f"part-{i}.parquet")
    return str(d)


def _brute_frequent(blocks, ppm):
    toks = pd.Series(" ".join(t for b in blocks for t in b).lower().split())
    n_total = len(toks)
    cnt = toks.value_counts()
    keep = cnt[cnt * 1_000_000 >= n_total * ppm]
    return (
        pd.DataFrame({"token": keep.index.astype(str),
                      "c": keep.to_numpy().astype("int64")}),
        n_total,
    )


def test_frequent_tokens_exact_under_forced_truncation(ray_session, tmp_path):
    """The case a naive top-k merge gets wrong: 'needle' is loud in 2
    blocks but truncated out of the other 6 blocks' top-k, so its sketch
    sum (40) is BELOW the threshold (50) — only the θ-deduction screen
    keeps it as a candidate, and the verify pass restores its exact
    global count (58 ≥ 50)."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        frequent_tokens,
    )

    k = 17
    blocks = []
    for b in range(8):
        body = []
        for j in range(16):  # per-block loud tokens, unique to the block
            body += [f"loud{b}_{j}"] * 30
        if b < 2:
            body += ["needle"] * 20  # kept: top-17 = 16 louds + needle
        else:
            body += [f"filler{b}"] * 5  # kept instead of needle
            body += ["needle"] * 3  # dropped; theta_j = 3
        body += [f"single{b}_{j}" for j in range(50)]  # truncated tail
        blocks.append([" ".join(body)])
    d = _write_block_files(tmp_path, blocks)

    # thr = 50 exactly: ppm = floor(50e6 / N)
    _, n_total = _brute_frequent(blocks, 1)
    ppm = 50 * 1_000_000 // n_total
    want, _ = _brute_frequent(blocks, ppm)
    assert list(want["token"]) == ["needle"] and int(want["c"].iloc[0]) == 58
    got = frequent_tokens(d, k=k, support_ppm=ppm)
    _assert_frames_equal(got, want, ["token"])


def test_frequent_tokens_fallback_when_sketch_uncertifiable(
    ray_session, tmp_path
):
    """thr − D ≤ 0 (tiny k, low threshold): the op must detect that the
    sketch cannot certify a superset and still return the exact answer
    via the full-vocabulary fallback."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        frequent_tokens,
    )

    rng = np.random.default_rng(3)
    blocks = []
    for b in range(4):
        body = []
        for j in range(60):  # flat-ish counts: k=4 truncates almost all
            body += [f"w{j}"] * int(rng.integers(4, 8))
        rng.shuffle(body)
        blocks.append([" ".join(body)])
    d = _write_block_files(tmp_path, blocks)
    _, n_total = _brute_frequent(blocks, 1)
    ppm = 10 * 1_000_000 // n_total  # thr ~10 << D
    want, _ = _brute_frequent(blocks, ppm)
    assert len(want) > 10
    got = frequent_tokens(d, k=4, support_ppm=ppm)
    _assert_frames_equal(got, want, ["token"])

    with pytest.raises(ValueError):
        frequent_tokens(SF, k=0)


# ---------------------------------------------------------------------------
# ppjoin_pairs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("broadcast_limit", [500_000, 0], ids=["broadcast", "exchange"])
def test_wordset_verify_missed_doc_lookup_raises(ray_session, broadcast_limit):
    """A candidate pair naming a doc that ``docs`` lacks raises on both
    verify plans; it is never scored as some stand-in word set."""
    import ray.data

    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        _wordset_verify,
    )

    pairs = ray.data.from_pandas(pd.DataFrame({"a": [1], "b": [999]}))
    docs = ray.data.from_pandas(
        pd.DataFrame({"doc_id": [1, 2], "text": ["| a b", "c d"]})
    )
    with pytest.raises(Exception, match="999"):
        _wordset_verify(pairs, docs, 0, 1, broadcast_limit=broadcast_limit).materialize()



def test_ppjoin_pairs_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        ppjoin_pairs,
        sql_ppjoin_pairs,
    )

    got = ppjoin_pairs(SF)
    con = duckdb.connect()
    _views(con, SF, ["documents"])
    want = con.execute(sql_ppjoin_pairs()).df()
    for c in ("a", "b", "n_a", "n_b", "n_common", "jaccard_milli"):
        want[c] = want[c].astype("int64")
    _assert_frames_equal(got, want, ["a", "b"])


def test_ppjoin_pairs_no_false_negatives_vs_brute_force(ray_session, tmp_path):
    """Exactness (the property LSH lacks): every pair with word-Jaccard
    >= t is found, including pairs whose similarity sits exactly AT the
    threshold boundary."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        ppjoin_pairs,
    )

    rng = np.random.default_rng(11)
    vocab = [f"w{i}" for i in range(120)]
    rows = []
    for i in range(60):
        n = int(rng.integers(8, 20))
        toks = list(rng.choice(vocab, size=n, replace=False))
        rows.append({"doc_id": i, "text": " ".join(toks), "source": "s"})
    # planted exact-boundary pair: |A|=|B|=10, inter=7, union=13 -> J=7/13
    a = [f"p{i}" for i in range(10)]
    b = a[:7] + ["q0", "q1", "q2"]
    rows.append({"doc_id": 100, "text": " ".join(a), "source": "s"})
    rows.append({"doc_id": 101, "text": " ".join(b), "source": "s"})
    # planted clone cluster (identical sets, shuffled order)
    for i in range(4):
        toks = [f"c{j}" for j in range(12)]
        rng.shuffle(toks)
        rows.append({"doc_id": 200 + i, "text": " ".join(toks), "source": "s"})
    df = pd.DataFrame(rows)
    d = tmp_path / "sf"
    d.mkdir()
    df.to_parquet(d / "documents.parquet")

    t_num, t_den = 7, 13  # threshold exactly at the planted boundary pair
    got = _frame(ppjoin_pairs(str(d), threshold=(t_num, t_den)))

    sets = {r["doc_id"]: frozenset(r["text"].split()) for r in rows}
    ids = sorted(sets)
    want_rows = []
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            sa, sb = sets[ids[x]], sets[ids[y]]
            inter = len(sa & sb)
            union = len(sa | sb)
            if inter * t_den >= t_num * union:
                want_rows.append(
                    {
                        "a": ids[x],
                        "b": ids[y],
                        "n_a": len(sa),
                        "n_b": len(sb),
                        "n_common": inter,
                        "jaccard_milli": 1000 * inter // union,
                    }
                )
    want = pd.DataFrame(want_rows).astype("int64")
    assert (100, 101) in {(r["a"], r["b"]) for r in want_rows}  # boundary live
    assert len(want) >= 1 + 6  # boundary pair + clone-cluster pairs
    _assert_frames_equal(got, want, ["a", "b"])


def test_ppjoin_join_path_matches_broadcast_path(ray_session):
    """broadcast_limit=0 forces the bucketed _attach_payload verify plan;
    both physical plans must produce identical survivors."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        ppjoin_pairs,
    )

    a = ppjoin_pairs(SF)
    b = ppjoin_pairs(SF, broadcast_limit=0)
    assert len(a) > 0
    _assert_frames_equal(a, b, ["a", "b"])


# ---------------------------------------------------------------------------
# nation_trade_volume (TPC-H Q7 shape)
# ---------------------------------------------------------------------------


def test_nation_trade_volume_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        nation_trade_volume,
        sql_nation_trade_volume,
    )

    got = _frame(nation_trade_volume(SF))
    con = duckdb.connect()
    _views(con, SF, ["lineitem", "orders", "supplier", "customer", "nation"])
    want = con.execute(sql_nation_trade_volume()).df()
    for c in ("l_year", "n_items", "revenue_e4"):
        want[c] = want[c].astype("int64")
    _assert_frames_equal(got, want, ["supp_nation", "cust_nation", "l_year"])
    # Q7 invariant: no same-nation rows survive the cross filter
    assert (got["supp_nation"] != got["cust_nation"]).all()


def test_nation_trade_volume_bucket_plan_identical(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        nation_trade_volume,
    )

    key = ["supp_nation", "cust_nation", "l_year"]
    a = _frame(nation_trade_volume(SF)).sort_values(key, ignore_index=True)
    b = _frame(nation_trade_volume(SF, broadcast_limit=0)).sort_values(
        key, ignore_index=True
    )
    pd.testing.assert_frame_equal(a, b)


def test_ppjoin_clone_cluster_stress_matches_oracle(ray_session, tmp_path):
    """Medium clone-cluster stress (the pytest-sized sibling of the
    36k-doc run recorded in BASELINE.md): 100 clusters of 10 near-clones
    + noise; output is intrinsically C(10,2)-per-cluster sized and must
    match the oracle's candidate-bounded replay exactly."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        ppjoin_pairs,
        sql_ppjoin_pairs,
    )

    rng = np.random.default_rng(5)
    vocab = np.array([f"tok{i}" for i in range(5000)], dtype=object)
    rows, doc_id = [], 0
    for c in range(100):
        base = list(rng.choice(vocab, size=25, replace=False))
        for m in range(10):
            toks = list(base)
            if m % 3 == 0:
                toks[int(rng.integers(len(toks)))] = f"sub{c}_{m}"
            rng.shuffle(toks)
            rows.append({"doc_id": doc_id, "text": " ".join(toks),
                         "source": "s"})
            doc_id += 1
    for _ in range(500):
        toks = list(rng.choice(vocab, size=int(rng.integers(15, 35)),
                               replace=False))
        rows.append({"doc_id": doc_id, "text": " ".join(toks), "source": "s"})
        doc_id += 1
    d = tmp_path / "sf"
    d.mkdir()
    pd.DataFrame(rows).to_parquet(d / "documents.parquet")

    got = _frame(ppjoin_pairs(str(d), threshold=(9, 10)))
    con = duckdb.connect()
    _views(con, str(d), ["documents"])
    want = con.execute(sql_ppjoin_pairs(threshold=(9, 10))).df()
    for c in want.columns:
        want[c] = want[c].astype("int64")
    assert len(want) >= 100 * 36  # every cluster contributes >= C(9,2)
    _assert_frames_equal(got, want, ["a", "b"])


# ---------------------------------------------------------------------------
# nation_market_share (ratio-of-aggregates)
# ---------------------------------------------------------------------------


def test_nation_market_share_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        nation_market_share,
        sql_nation_market_share,
    )

    got = _frame(nation_market_share(SF))
    con = duckdb.connect()
    _views(con, SF, ["lineitem", "supplier", "nation"])
    want = con.execute(sql_nation_market_share()).df()
    for c in ("l_year", "revenue_e4", "share_milli"):
        want[c] = want[c].astype("int64")
    _assert_frames_equal(got, want, ["supp_nation", "l_year"])
    # ratio law: per-year shares sum to 1000 - (floor losses < #nations)
    per_year = got.groupby("l_year")["share_milli"].sum()
    n_nat = got.groupby("l_year")["supp_nation"].nunique()
    assert ((per_year > 1000 - n_nat) & (per_year <= 1000)).all()
    # revenue consistency with the Q7 op family's exact integer units
    assert (got["revenue_e4"] > 0).all()


# ---------------------------------------------------------------------------
# containment_pairs (directional set-containment join)
# ---------------------------------------------------------------------------


def test_containment_pairs_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        containment_pairs,
        sql_containment_pairs,
    )

    got = _frame(containment_pairs(SF))
    con = duckdb.connect()
    _views(con, SF, ["documents"])
    want = con.execute(sql_containment_pairs()).df()
    for c in want.columns:
        want[c] = want[c].astype("int64")
    _assert_frames_equal(got, want, ["a", "b"])


def test_containment_pairs_finds_asymmetric_subset(ray_session, tmp_path):
    """The case symmetric Jaccard misses: a 10-token doc fully inside a
    100-token doc (J = 0.1) must be found in exactly ONE direction with
    containment_milli = 1000; near-clone pairs appear in BOTH orders."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        containment_pairs,
    )

    rng = np.random.default_rng(13)
    vocab = [f"w{i}" for i in range(400)]
    rows = []
    big = list(rng.choice(vocab, size=100, replace=False))
    small = list(rng.permutation(big[:10]))
    rows.append({"doc_id": 1, "text": " ".join(big), "source": "s"})
    rows.append({"doc_id": 2, "text": " ".join(small), "source": "s"})
    # identical twin pair -> both directions
    twin = [f"t{j}" for j in range(20)]
    rows.append({"doc_id": 3, "text": " ".join(twin), "source": "s"})
    rows.append(
        {"doc_id": 4,
         "text": " ".join(list(np.random.default_rng(1).permutation(twin))),
         "source": "s"}
    )
    # unrelated noise
    for i in range(30):
        toks = list(rng.choice(vocab[200:], size=15, replace=False))
        rows.append({"doc_id": 10 + i, "text": " ".join(toks), "source": "s"})
    d = tmp_path / "sf"
    d.mkdir()
    pd.DataFrame(rows).to_parquet(d / "documents.parquet")

    got = _frame(containment_pairs(str(d), threshold=(1, 1), min_contained=10))
    pairs = set(zip(got["a"], got["b"]))
    assert (2, 1) in pairs  # small contained in big
    assert (1, 2) not in pairs  # never the reverse
    assert (3, 4) in pairs and (4, 3) in pairs  # twins: both orders
    row = got[(got["a"] == 2) & (got["b"] == 1)].iloc[0]
    assert (row["n_a"], row["n_b"], row["n_common"],
            row["containment_milli"]) == (10, 100, 10, 1000)


# ---------------------------------------------------------------------------
# events_late_window (watermark / allowed-lateness streaming semantics)
# ---------------------------------------------------------------------------


def test_events_late_window_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        events_late_window,
        sql_events_late_window,
    )

    got = events_late_window(SF)
    con = duckdb.connect()
    _views(con, SF, ["events"])
    want = con.execute(sql_events_late_window()).df()
    for c in want.columns:
        want[c] = want[c].astype("int64")
    _assert_frames_equal(got, want, ["win_us"])
    # both branches are live, and accept+late partitions every event
    assert got["n_late"].sum() > 0 and got["n_accepted"].sum() > 0
    n_events = con.execute("SELECT count(*) FROM events").fetchone()[0]
    assert int((got["n_accepted"] + got["n_late"]).sum()) == n_events


def test_events_late_window_matches_sequential_replay(ray_session):
    """The distributed carry-in prefix-max must equal a plain sequential
    watermark simulation over the synthesized arrival order."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        _LW_JITTER_MOD,
        _LW_LATENESS_US,
        _LW_WINDOW_US,
        events_late_window,
    )
    from action_pdf_accessibility_paddle_docker_ray.functions.fnv import fmix32_np

    ev = pd.read_parquet(
        f"{SF}/events.parquet", columns=["event_id", "ts", "value"]
    )
    ids = ev["event_id"].to_numpy().astype("int64")
    jitter = (
        fmix32_np(ids.astype(np.uint64) % np.uint64(1 << 32)) % _LW_JITTER_MOD
    ).astype("int64") - (_LW_JITTER_MOD // 2)
    ev = ev.assign(arr=ids + jitter)
    ev["ts_us"] = ev["ts"].astype("datetime64[us]").astype("int64")
    ev["v_milli"] = np.floor(
        ev["value"].to_numpy(dtype="float64") * 1000.0 + 0.5
    ).astype("int64")
    ev = ev.sort_values(["arr", "event_id"], ignore_index=True)

    wm = None
    rows = {}
    for ts_us, v in zip(ev["ts_us"], ev["v_milli"]):
        late = wm is not None and ts_us < wm - _LW_LATENESS_US
        win = (ts_us // _LW_WINDOW_US) * _LW_WINDOW_US
        acc, milli, nl = rows.get(win, (0, 0, 0))
        if late:
            rows[win] = (acc, milli, nl + 1)
        else:
            rows[win] = (acc + 1, milli + int(v), nl)
        wm = ts_us if wm is None else max(wm, ts_us)
    want = pd.DataFrame(
        [(w, a, m, nl) for w, (a, m, nl) in sorted(rows.items())],
        columns=["win_us", "n_accepted", "acc_milli", "n_late"],
    ).astype("int64")
    got = events_late_window(SF)
    _assert_frames_equal(got, want, ["win_us"])


# ---------------------------------------------------------------------------
# embedding_covariance (per-label second moments)
# ---------------------------------------------------------------------------


def test_embedding_covariance_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        embedding_covariance,
        sql_embedding_covariance,
    )

    got = embedding_covariance(SF)
    con = duckdb.connect()
    _views(con, SF, ["embeddings"])
    want = con.execute(sql_embedding_covariance()).df()
    for c in want.columns:
        want[c] = want[c].astype("int64")
    _assert_frames_equal(got, want, ["label", "dim_i", "dim_j"])


def test_embedding_covariance_raises_on_int64_overflow(ray_session, tmp_path):
    """cov_num = n·s_ij − s_i·s_j past int64 raises instead of wrapping:
    four vectors at ±1e6 (q = ±1e9) give cov_num[0, 0] = 1.6e19 while
    every Gram partial still fits."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        embedding_covariance,
    )

    big = [[1e6, 0.0], [-1e6, 0.0], [1e6, 0.0], [-1e6, 0.0]]
    pq.write_table(pa.table({
        "vec_id": pa.array(range(4), pa.int64()),
        "embedding": pa.array(big, pa.list_(pa.float32())),
        "label": pa.array([7] * 4, pa.int32()),
    }), str(tmp_path / "embeddings.parquet"))
    with pytest.raises(OverflowError, match="label 7"):
        embedding_covariance(str(tmp_path))


def test_embedding_covariance_matches_numpy(ray_session):
    """Semantic pin the SQL replay shares with the op: cov_num / n^2 must
    equal numpy's population covariance of the quantized vectors."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        _COV_Q,
        embedding_covariance,
    )

    got = embedding_covariance(SF)
    emb = pd.read_parquet(f"{SF}/embeddings.parquet")
    lab = int(emb["label"].iloc[0])
    x = np.stack(emb[emb["label"] == lab]["embedding"].to_numpy()).astype(
        "float64"
    )
    q = np.floor(x * _COV_Q + 0.5)
    cov = np.cov(q, rowvar=False, bias=True)  # population covariance
    n = len(q)
    sub = got[got["label"] == lab]
    d = int(sub["dim_i"].max()) + 1
    assert len(sub) == d * (d + 1) // 2 and n == int(sub["n"].iloc[0])
    for _, r in sub.head(200).iterrows():
        assert (
            abs(r["cov_num"] / (n * n) - cov[int(r["dim_i"]), int(r["dim_j"])])
            < 1e-6
        )
    # diagonal entries are non-negative variances
    diag = sub[sub["dim_i"] == sub["dim_j"]]
    assert (diag["cov_num"] >= 0).all()


# ---------------------------------------------------------------------------
# source_frequent_tokens (grouped heavy hitters)
# ---------------------------------------------------------------------------


def test_source_frequent_tokens_matches_duckdb(ray_session):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        source_frequent_tokens,
        sql_source_frequent_tokens,
    )

    got = source_frequent_tokens(SF)
    con = duckdb.connect()
    _views(con, SF, ["documents"])
    want = con.execute(sql_source_frequent_tokens()).df()
    want["c"] = want["c"].astype("int64")
    _assert_frames_equal(got, want, ["source", "token"])
    assert got["source"].nunique() > 1  # the grouping is live
    # within each source, ordered by (-c, token)
    for _, g in got.groupby("source"):
        pairs = list(zip(-g["c"], g["token"]))
        assert pairs == sorted(pairs)


def test_source_frequent_tokens_per_source_truncation(ray_session, tmp_path):
    """Per-group adversarial case: a token frequent in source A but
    absent from source B must be reported ONLY for A, exactly — under a
    k that forces every (block, source) partial to truncate."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        source_frequent_tokens,
    )

    blocks = []
    for b in range(4):
        texts = []
        for s in range(3):
            body = []
            for j in range(30):  # 30 distinct loud tokens per (block, src)
                body += [f"s{s}_loud{b}_{j}"] * 6
            body += [f"hot{s}"] * 12  # per-source global heavy hitter
            texts.append((f"src{s}", " ".join(body)))
        blocks.append(texts)
    d = tmp_path / "sf"
    d.mkdir()
    dd = d / "documents.parquet"
    dd.mkdir()
    doc_id = 0
    for i, texts in enumerate(blocks):
        rows = []
        for src, t in texts:
            rows.append({"doc_id": doc_id, "text": t, "source": src})
            doc_id += 1
        pd.DataFrame(rows).to_parquet(dd / f"part-{i}.parquet")

    n_src = 30 * 6 + 12  # tokens per (block, source)
    ppm = 40 * 1_000_000 // (4 * n_src)  # thr ~= 40: only hot* qualify
    got = source_frequent_tokens(str(d), k=25, support_ppm=ppm)
    assert len(got) == 3
    for s in range(3):
        row = got[got["source"] == f"src{s}"]
        assert list(row["token"]) == [f"hot{s}"]
        assert int(row["c"].iloc[0]) == 48
