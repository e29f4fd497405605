"""Round-5 tests.

1. The degenerate-LSH-bucket fix (round-4 verdict "What's wrong #1"):
   the in-bucket agreement matrix is slab-bounded (never m×m), and
   component-building dedup ops cap per-bucket SURVIVING pair emission
   with a connectivity-preserving chain+star subset.  We pin
   (a) slabbed emission ≡ the full-matrix reference below the cap,
   (b) the spanning subset's shape and connectivity above it, and
   (c) end-to-end component equality on a clone-heavy corpus where the
   cap provably triggers.

2. Resumable sinks for ``dedup_keep_best`` / ``incremental_fuzzy_dedup``
   (phase-A drop-table checkpoint + per-bucket atomic publish), BPE
   merge batching (election-identical to one-merge-per-round), and the
   mergeable KLL rank sketch behind ``approx_quantiles(sketch=True)``.
"""

import numpy as np
import pandas as pd
import pytest

from action_pdf_accessibility_paddle_docker_ray.pipelines import dedup_ops
from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
    _bucket_pairs,
    _bucket_pairs_prefiltered,
    _minhash_params,
    _minhash_signature,
    _shingle_hashes,
)


def _bucket_frame(sigs: np.ndarray, ids: np.ndarray) -> pd.DataFrame:
    return pd.DataFrame(
        {
            "band": np.zeros(len(ids), dtype=np.int64),
            "band_hash": "deadbeefdeadbeef",
            "doc_id": ids,
            "sigb": [s.astype(np.uint8).tobytes() for s in sigs],
        }
    )


def _reference_pairs(sigs: np.ndarray, ids: np.ndarray, cut: float) -> set:
    """Round-4's full-matrix emitter, as the in-test reference."""
    m = len(ids)
    agree = np.zeros((m, m), dtype=np.uint16)
    for p in range(sigs.shape[1]):
        col = sigs[:, p].astype(np.uint8)
        agree += (col[:, None] == col[None, :]).astype(np.uint16)
    iu, ju = np.triu_indices(m, k=1)
    keep = (agree[iu, ju] / sigs.shape[1]) >= cut
    return {(int(ids[i]), int(ids[j])) for i, j in zip(iu[keep], ju[keep])}


def _components(pairs: set, ids) -> dict:
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {i: find(i) for i in parent}


def test_slabbed_emission_equals_full_matrix(monkeypatch):
    """Multi-slab agreement (slab height 7 forces ~30 slabs at m=200)
    must emit the exact pair set of the one-shot m×m reference."""
    monkeypatch.setattr(dedup_ops, "_AGREE_SLAB", 7)
    rng = np.random.default_rng(11)
    m, perms = 200, 24
    # low-cardinality values so agreement varies across the whole range
    sigs = rng.integers(0, 4, size=(m, perms)).astype(np.uint8)
    ids = rng.permutation(np.arange(1000, 1000 + m)).astype(np.int64)
    for cut in (0.25, 0.5, 0.9):
        got = _bucket_pairs_prefiltered(cut, spanning_cap=None)(
            _bucket_frame(sigs, ids)
        )
        got_set = {(int(a), int(b)) for a, b in zip(got["a"], got["b"])}
        order = np.argsort(ids, kind="stable")
        want = _reference_pairs(sigs[order], ids[order], cut)
        assert got_set == want


def test_spanning_cap_triggers_and_preserves_clone_connectivity():
    """A 40-clone bucket (780 survivors > cap 128) must emit ≤ 2m−3
    pairs whose components equal the uncapped all-pairs components."""
    m, perms = 40, 16
    sigs = np.tile(np.arange(perms, dtype=np.uint8), (m, 1))  # exact clones
    ids = np.arange(500, 500 + m, dtype=np.int64)
    frame = _bucket_frame(sigs, ids)
    capped = _bucket_pairs_prefiltered(0.5, spanning_cap=128)(frame)
    assert len(capped) <= 2 * m - 3
    full = _bucket_pairs_prefiltered(0.5, spanning_cap=None)(frame)
    assert len(full) == m * (m - 1) // 2
    cap_pairs = {(int(a), int(b)) for a, b in zip(capped["a"], capped["b"])}
    full_pairs = {(int(a), int(b)) for a, b in zip(full["a"], full["b"])}
    assert cap_pairs <= full_pairs
    assert _components(cap_pairs, ids) == _components(full_pairs, ids)
    # min-star present: every member one hop from the would-be rep
    rep = int(ids.min())
    assert all((rep, int(i)) in cap_pairs for i in ids if int(i) != rep)


def test_spanning_cap_screens_on_estimate():
    """Mixed bucket: chain/star edges below the estimate cut must NOT be
    emitted — the cap changes emission shape, never the screen."""
    perms = 32
    rng = np.random.default_rng(3)
    clones_a = np.tile(rng.integers(0, 255, perms), (20, 1)).astype(np.uint8)
    clones_b = np.tile(rng.integers(0, 255, perms), (20, 1)).astype(np.uint8)
    sigs = np.vstack([clones_a, clones_b])
    ids = np.arange(40, dtype=np.int64)
    capped = _bucket_pairs_prefiltered(0.9, spanning_cap=10)(
        _bucket_frame(sigs, ids)
    )
    pairs = {(int(a), int(b)) for a, b in zip(capped["a"], capped["b"])}
    # no cross-cluster edge can reach est 0.9 (disjoint random sigs)
    assert all((a < 20) == (b < 20) for a, b in pairs)
    comp = _components(pairs, ids)
    assert len({comp[i] for i in range(20)}) == 1
    assert len({comp[i] for i in range(20, 40)}) == 1


def test_bucket_pairs_unfiltered_cap():
    ids = np.arange(30, dtype=np.int64)
    df = pd.DataFrame({"doc_id": ids})
    full = _bucket_pairs(df)
    assert len(full) == 30 * 29 // 2
    capped = _bucket_pairs(df, spanning_cap=100)
    pairs = {(int(a), int(b)) for a, b in zip(capped["a"], capped["b"])}
    assert len(capped) <= 2 * 30 - 3
    assert _components(pairs, ids) == _components(
        {(int(a), int(b)) for a, b in zip(full["a"], full["b"])}, ids
    )


def test_gpu_seam_reaches_map_batches(ray_session, tmp_path, monkeypatch):
    """north_star GPU seam: num_gpus/resources passed to extract_pipeline
    must land on the DETECTOR stage's map_batches (and displace its CPU
    slot claim); the CPU default stays num_cpus=1."""
    import ray.data as rd

    from action_pdf_accessibility_paddle_docker_ray.corpus import write_pages_parquet
    from action_pdf_accessibility_paddle_docker_ray.pipelines import extract as ex

    src = str(tmp_path / "pages.parquet")
    write_pages_parquet(src, 6, seed=3)

    calls = []
    orig = rd.Dataset.map_batches

    def spy(self, fn, **kwargs):
        name = getattr(fn, "__name__", type(fn).__name__ if not isinstance(fn, type) else fn.__name__)
        calls.append((name, kwargs))
        return orig(self, fn, **kwargs)

    monkeypatch.setattr(rd.Dataset, "map_batches", spy)

    # GPU mode (lazy build only — no execution, the sandbox has no GPU)
    ex.extract_pipeline(src, num_gpus=1.0, resources={"accel": 1})
    det = [kw for name, kw in calls if name == "DocProcessor"]
    assert det and det[-1]["num_gpus"] == 1.0
    assert det[-1]["resources"] == {"accel": 1}
    assert det[-1]["num_cpus"] == 0

    # CPU default unchanged
    calls.clear()
    ex.extract_pipeline(src)
    det = [kw for name, kw in calls if name == "DocProcessor"]
    assert det and det[-1]["num_cpus"] == 1
    assert "num_gpus" not in det[-1] and "resources" not in det[-1]


def test_warc_gz_roundtrip_and_ranged_read(tmp_path):
    """Gzip-member framing: every record recoverable, and — the property
    the framing exists for — a single (offset, rec_bytes) ranged read of
    the COMPRESSED file must decompress+parse to exactly that record."""
    import gzip

    import pyarrow as pa

    from action_pdf_accessibility_paddle_docker_ray.sources import warc as w

    ts = pd.Timestamp("2024-05-06 07:08:09")
    payloads = [b"hello world", b"WARC/1.0\r\n\r\nfake header inside payload",
                bytes(range(256)) * 7, b""]
    tab = pa.table(
        {
            "url": [f"https://ex{i}.com/p" for i in range(len(payloads))],
            "warc_ts": [ts] * len(payloads),
            "html": payloads,
        }
    )
    path = str(tmp_path / "a.warc.gz")
    w.write_warc_gz(tab, path)
    data = open(path, "rb").read()
    recs = list(w.parse_warc_gz_bytes(data))
    assert [r["payload"] for r in recs] == payloads
    assert [r["url"] for r in recs] == tab["url"].to_pylist()
    # compressed members tile the file exactly
    assert recs[0]["offset"] == 0
    for prev, cur in zip(recs, recs[1:]):
        assert cur["offset"] == prev["offset"] + prev["rec_bytes"]
    assert recs[-1]["offset"] + recs[-1]["rec_bytes"] == len(data)
    # ranged read of one record
    with open(path, "rb") as f:
        f.seek(recs[2]["offset"])
        member = f.read(recs[2]["rec_bytes"])
    rec = next(w.parse_warc_bytes(gzip.decompress(member)))
    assert rec["payload"] == payloads[2]
    # framing dispatch: plain archive still parses via the same entry
    plain = str(tmp_path / "b.warc")
    w.write_warc(tab, plain)
    recs_p = list(w._parse_archive(open(plain, "rb").read()))
    assert [r["payload"] for r in recs_p] == payloads


def test_warc_extract_gz_matches_plain(ray_session):
    """The gz op must emit exactly the plain op's rows (same projection,
    different framing) on the sf0.001 corpus."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines import web_ops

    sf = "/root/testdata/sf0.001"
    gz = web_ops.warc_extract_gz(sf).to_pandas().sort_values("url").reset_index(drop=True)
    plain = web_ops.warc_extract(sf).to_pandas().sort_values("url").reset_index(drop=True)
    pd.testing.assert_frame_equal(gz, plain)


def _clone_corpus(tmp_path, n_groups=40, clones=20):
    """Every doc in a `clones`-sized exact-clone cluster: per-bucket
    survivors C(clones,2)=190 > the 128 default cap."""
    rng = np.random.default_rng(7)
    words = ["alpha", "bravo", "carbon", "delta", "ember", "falcon",
             "granite", "harbor", "indigo", "juniper", "kelp", "lumen"]
    texts, gids = [], []
    for g in range(n_groups):
        base = " ".join(rng.choice(words, size=30)) + f" group{g}"
        texts += [base] * clones
        gids += [g] * clones
    doc_id = np.arange(len(texts), dtype=np.int64)
    df = pd.DataFrame(
        {"doc_id": doc_id, "text": texts,
         "n_chars": [len(t) for t in texts], "group": gids}
    )
    sf = tmp_path / "clone_sf"
    sf.mkdir()
    df.to_parquet(sf / "documents.parquet", index=False)
    return str(sf), df


def test_minhash_dedup_capped_equals_uncapped_on_clone_corpus(
    ray_session, tmp_path
):
    sf, df = _clone_corpus(tmp_path)
    # the cap must actually trigger at these shapes
    a, b = _minhash_params(126)
    sig = _minhash_signature(_shingle_hashes(df["text"][0], 5), a, b)
    assert len(sig) == 126  # sanity: the clone group shares one signature
    capped = dedup_ops.minhash_dedup(sf).sort_values("doc_id").reset_index(drop=True)
    exact = dedup_ops.minhash_dedup(sf, spanning_cap=None).sort_values(
        "doc_id"
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(capped, exact)
    # every doc clustered, rep = min doc_id of its 20-clone group
    assert len(capped) == len(df)
    want_rep = df.groupby("group")["doc_id"].transform("min")
    got = dict(zip(capped["doc_id"], capped["rep_id"]))
    assert all(got[i] == r for i, r in zip(df["doc_id"], want_rep))


def test_incremental_fuzzy_dedup_capped_on_clone_corpus(ray_session, tmp_path):
    """Cross-side drops must survive capping: every new-side clone has a
    verified star edge to the old-side min-id member."""
    sf, df = _clone_corpus(tmp_path, n_groups=20, clones=20)
    surv = dedup_ops.incremental_fuzzy_dedup(sf).to_pandas()
    lo, hi = int(df["doc_id"].min()), int(df["doc_id"].max())
    split = (lo + hi + 1) // 2
    new_ids = df[df["doc_id"] >= split]
    # groups span the split boundary: every group's ids are contiguous,
    # so each group is either fully old, fully new, or split. A new doc
    # whose group has ANY old member must be dropped.
    old_groups = set(df[df["doc_id"] < split]["group"])
    expect_drop = {
        int(i) for i, g in zip(new_ids["doc_id"], new_ids["group"])
        if g in old_groups
    }
    kept = set(surv["doc_id"].astype(int))
    assert kept == set(new_ids["doc_id"].astype(int)) - expect_drop


# ---------------------------------------------------------------------------
# Resumable minhash-family sinks, BPE merge batching, KLL sketch (round 5)
# ---------------------------------------------------------------------------

import glob  # noqa: E402

import pyarrow.dataset as pads  # noqa: E402


def _read_buckets(out_dir: str) -> pd.DataFrame:
    dirs = sorted(glob.glob(f"{out_dir}/bucket-*"))
    frames = [pads.dataset(d).to_table().to_pandas() for d in dirs]
    return pd.concat(frames, ignore_index=True) if frames else pd.DataFrame()


def test_dedup_keep_best_resumable_kill_restart(
    ray_session, tmp_path, crash_after, unit_mtimes
):
    """Kill after 3 of 8 buckets, restart: the drop-table checkpoint is
    reused, only the remaining buckets run, and the union equals the
    direct op with no duplicate or missing rows."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        dedup_keep_best,
    )
    from action_pdf_accessibility_paddle_docker_ray.state.op_resume import (
        run_dedup_keep_best_resumable,
    )

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "kb")
    with crash_after("bucket-", 3):
        run_dedup_keep_best_resumable(sf, out, n_buckets=8)
    committed = unit_mtimes(out)
    assert sorted(committed) == ["_state", "bucket-0", "bucket-1", "bucket-2"]
    r2 = run_dedup_keep_best_resumable(sf, out, n_buckets=8)
    assert r2["state_reused"] and r2["buckets_skipped"] == 3
    assert r2["buckets_run"] == 5
    assert committed.items() <= unit_mtimes(out).items()

    got = _read_buckets(out).sort_values("doc_id").reset_index(drop=True)
    want = (
        dedup_keep_best(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert got["doc_id"].is_unique

    r3 = run_dedup_keep_best_resumable(sf, out, n_buckets=8)
    assert r3["buckets_skipped"] == 8 and r3["buckets_run"] == 0


def test_incremental_fuzzy_dedup_resumable_kill_restart(
    ray_session, tmp_path, crash_after, unit_mtimes
):
    """Same contract for the incremental op; the checkpoint additionally
    carries the id-median split scalar, so the restarted phase B never
    recomputes lo/hi (a changed corpus invalidates via the fingerprint)."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.dedup_ops import (
        incremental_fuzzy_dedup,
    )
    from action_pdf_accessibility_paddle_docker_ray.state.op_resume import (
        run_incremental_fuzzy_dedup_resumable,
    )

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "ifd")
    with crash_after("bucket-", 2):
        run_incremental_fuzzy_dedup_resumable(sf, out, n_buckets=8)
    committed = unit_mtimes(out)
    assert sorted(committed) == ["_state", "bucket-0", "bucket-1"]
    r2 = run_incremental_fuzzy_dedup_resumable(sf, out, n_buckets=8)
    assert r2["state_reused"] and r2["buckets_skipped"] == 2
    assert r2["buckets_run"] == 6
    assert committed.items() <= unit_mtimes(out).items()

    got = _read_buckets(out).sort_values("doc_id").reset_index(drop=True)
    want = (
        incremental_fuzzy_dedup(sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got, want)
    assert got["doc_id"].is_unique

    r3 = run_incremental_fuzzy_dedup_resumable(sf, out, n_buckets=8)
    assert r3["buckets_skipped"] == 8 and r3["buckets_run"] == 0


def test_bpe_merge_batching_equivalence(ray_session):
    """Batched merge election (VERDICT r4 task 6) is bit-identical to the
    classic one-merge-per-round schedule, in fewer driver-paced rounds."""
    import pandas as pd

    from action_pdf_accessibility_paddle_docker_ray.pipelines.text_ops import bpe_train

    sf = "/root/testdata/sf0.001"
    seq = bpe_train(sf, max_batch=1)
    st: dict = {}
    bat = bpe_train(sf, stats=st)
    pd.testing.assert_frame_equal(seq, bat)
    assert len(bat) == 8
    assert st["rounds"] < 8  # measured 4 on this corpus


def test_select_merge_batch_stops_on_interaction():
    """The batch selector's safety gates: symbol overlap, merged-symbol
    collision, and the reachable-new-pair bound each stop the prefix."""
    import pandas as pd

    from action_pdf_accessibility_paddle_docker_ray.pipelines.text_ops import (
        _select_merge_batch,
    )

    def cand(rows):
        return pd.DataFrame(rows, columns=["l", "r", "c"])

    # disjoint, far-separated counts: both selected
    got = _select_merge_batch(
        cand([("a", "b", 100), ("c", "d", 50)]),
        lm={"a": 100, "c": 50}, rm={"b": 100, "d": 50},
    )
    assert [(left, right) for left, right, _ in got] == [("a", "b"), ("c", "d")]

    # symbol overlap with the first pick: stop after one
    got = _select_merge_batch(
        cand([("a", "b", 100), ("b", "c", 99)]),
        lm={"a": 100, "b": 99}, rm={"b": 100, "c": 99},
    )
    assert len(got) == 1

    # runner-up does not strictly beat the reachable new-pair bound
    # (RM(l1)=60 >= 50): stop after one
    got = _select_merge_batch(
        cand([("a", "b", 100), ("c", "d", 50)]),
        lm={"a": 100, "c": 50}, rm={"b": 100, "d": 50, "a": 60},
    )
    assert len(got) == 1

    # merged symbol "cd" collides with an existing pair-table symbol
    got = _select_merge_batch(
        cand([("a", "b", 100), ("c", "d", 50)]),
        lm={"a": 100, "c": 50, "cd": 10}, rm={"b": 100, "d": 50},
    )
    assert len(got) == 1

    # self-interacting (l == r) first pick: bound includes itself,
    # nothing can follow
    got = _select_merge_batch(
        cand([("a", "a", 100), ("c", "d", 50)]),
        lm={"a": 100, "c": 50}, rm={"a": 100, "d": 50},
    )
    assert len(got) == 1


def test_bpe_batching_randomized_corpora(ray_session, tmp_path):
    """Adversarial equivalence: random skewed corpora over a 4-letter
    alphabet (maximizing pair interaction, ties, and merged-symbol
    collisions like 'ab'+'c' vs 'a'+'bc'), batched vs sequential."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    from action_pdf_accessibility_paddle_docker_ray.pipelines.text_ops import bpe_train

    rng = np.random.default_rng(5)
    for trial in range(6):
        letters = np.array(list("abcd"))
        words = [
            "".join(rng.choice(letters, size=rng.integers(1, 9)))
            for _ in range(60)
        ]
        docs = [
            " ".join(rng.choice(words, size=rng.integers(3, 30)))
            for _ in range(40)
        ]
        sf = tmp_path / f"sf{trial}"
        sf.mkdir()
        pq.write_table(
            pa.table({"doc_id": pa.array(range(len(docs)), pa.int64()),
                      "text": pa.array(docs)}),
            sf / "documents.parquet",
        )
        seq = bpe_train(str(sf), n_merges=12, max_batch=1)
        bat = bpe_train(str(sf), n_merges=12)
        pd.testing.assert_frame_equal(seq, bat)


def test_kll_sketch_mechanics():
    """Unit invariants of the mergeable rank sketch: exact below k,
    weight conservation, serialization round-trip, merge associativity
    of total weight, bounded rank error on a big stream."""
    import numpy as np

    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import _KLLSketch

    # exact when everything fits in level 0
    s = _KLLSketch(64)
    s.add(np.arange(50, dtype=np.int64))
    assert s.total_weight() == 50
    ranks = np.array([1, 25, 50])
    assert list(s.quantile_values(ranks)) == [0, 24, 49]

    # round-trip
    s2 = _KLLSketch.from_bytes(s.to_bytes())
    assert list(s2.quantile_values(ranks)) == [0, 24, 49]
    assert s2.total_weight() == 50

    # 200k-value stream through 100 partial sketches: weight conserved,
    # decile rank error within the documented bound
    rng = np.random.default_rng(11)
    all_vals = rng.integers(0, 1 << 40, 200_000).astype(np.int64)
    parts = []
    for chunk in np.array_split(all_vals, 100):
        p = _KLLSketch(200)
        p.add(chunk)
        parts.append(p.to_bytes())
    parts.sort()
    folded = _KLLSketch(200)
    for raw in parts:
        folded.merge(_KLLSketch.from_bytes(raw))
    n = folded.total_weight()
    assert n == 200_000
    hi = np.sort(all_vals)
    for d in range(1, 10):
        r = (d * n + 9) // 10
        got = folded.quantile_values(np.array([r]))[0]
        true_rank = np.searchsorted(hi, got, side="right")
        assert abs(true_rank - r) <= 0.01 * n, (d, true_rank, r)


def test_approx_quantiles_sketch_mode(ray_session):
    """Sketch mode at sf0.1: n_sample equals the full row count and each
    decile's rank error is within 1% of n; sample mode is unchanged."""
    import numpy as np
    import pandas as pd

    from action_pdf_accessibility_paddle_docker_ray.pipelines.analytics import (
        _AQ_Q,
        approx_quantiles,
    )
    from action_pdf_accessibility_paddle_docker_ray.sources.pages import read_table

    sf = "/root/testdata/sf0.1"
    got = approx_quantiles(sf, sketch=True)
    emb = read_table(sf, "embeddings", columns=["embedding"]).to_pandas()
    mat = np.stack([np.asarray(e, dtype=np.float64) for e in emb["embedding"]])
    q = np.floor(mat * _AQ_Q + 0.5).astype(np.int64)
    true_vals = np.sort((q * q).sum(axis=1))
    n = len(true_vals)
    assert (got["n_sample"] == n).all()
    for d, v in zip(got["decile"], got["value_q"]):
        r = (d * n + 9) // 10
        true_rank = np.searchsorted(true_vals, v, side="right")
        assert abs(true_rank - r) <= 0.01 * n, (d, true_rank, r)

    # the default (sample) mode still matches its own exact order
    # statistic contract — schema and semantics untouched by the flag
    samp = approx_quantiles(sf)
    assert list(samp.columns) == ["decile", "value_q", "n_sample"]
    assert len(samp) == 9


# ---------------------------------------------------------------------------
# Round-5 multi-way joins: TPC-H Q3 (3-way + global top-k) and Q5 (6-table
# star with the same-nation supplier/customer twist) vs DuckDB at sf0.001.
# ---------------------------------------------------------------------------

def _tpch_views(con, sf, tables):
    for t in tables:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )


def test_top_orders_q3_matches_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        sql_top_orders_q3,
        top_orders_q3,
    )

    sf = "/root/testdata/sf0.001"
    got = top_orders_q3(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    _tpch_views(con, sf, ("customer", "orders", "lineitem"))
    want = con.execute(sql_top_orders_q3()).df().reset_index(drop=True)
    assert len(got) == len(want) > 0
    # the oracle's ORDER BY is total (revenue DESC, odate, okey) — compare
    # positionally, including the rounded revenue
    assert got["o_orderkey"].astype("int64").equals(want["o_orderkey"].astype("int64"))
    assert np.allclose(got["revenue"], want["revenue"], atol=0)
    assert list(got["o_orderpriority"]) == list(want["o_orderpriority"])


def test_regional_revenue_q5_matches_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        regional_revenue_q5,
        sql_regional_revenue_q5,
    )

    sf = "/root/testdata/sf0.001"
    got = (
        regional_revenue_q5(sf)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(
        con, sf, ("region", "nation", "customer", "supplier", "orders", "lineitem")
    )
    want = (
        con.execute(sql_regional_revenue_q5())
        .df()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    assert list(got["n_name"]) == list(want["n_name"])
    assert got["n_items"].astype("int64").equals(want["n_items"].astype("int64"))
    assert np.allclose(got["revenue"], want["revenue"], atol=0)


def test_regional_revenue_q5_plans_identical(ray_session):
    # Plan A (broadcast customer pairs, default) vs Plan B (bucket
    # co-partitioned exchange, forced via broadcast_limit=0) must agree
    # bit-for-bit — the big_order_customers dual-plan idiom
    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        regional_revenue_q5,
    )

    sf = "/root/testdata/sf0.001"
    a = (
        regional_revenue_q5(sf)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    b = (
        regional_revenue_q5(sf, broadcast_limit=0)
        .to_pandas()
        .sort_values("n_name")
        .reset_index(drop=True)
    )
    assert len(a) > 0
    assert a.equals(b)


def test_big_order_customers_plans_identical_and_match_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        big_order_customers,
        sql_big_order_customers,
    )

    sf = "/root/testdata/sf0.001"
    key = ["c_custkey", "o_orderkey"]
    a = (  # plan A: broadcast semi-joins
        big_order_customers(sf)
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    b = (  # plan B: bucketed exchanges, forced by a zero broadcast budget
        big_order_customers(sf, broadcast_limit=0)
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    assert len(a) > 0
    assert a[sorted(a.columns)].equals(b[sorted(b.columns)])

    con = duckdb.connect()
    _tpch_views(con, sf, ("customer", "orders", "lineitem"))
    want = (
        con.execute(sql_big_order_customers())
        .df()
        .sort_values(key)
        .reset_index(drop=True)
    )
    assert len(a) == len(want)
    for col in ("c_name", "c_custkey", "o_orderkey", "sum_qty"):
        assert list(a[col]) == list(want[col]), col
    assert np.allclose(a["o_totalprice"], want["o_totalprice"], atol=0)


def test_nation_year_rollup_matches_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        nation_year_rollup,
        sql_nation_year_rollup,
    )

    sf = "/root/testdata/sf0.001"
    key = ["n_name", "o_year"]
    got = nation_year_rollup(sf).sort_values(key).reset_index(drop=True)
    con = duckdb.connect()
    _tpch_views(con, sf, ("nation", "customer", "orders"))
    want = (
        con.execute(sql_nation_year_rollup()).df().sort_values(key).reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    assert list(got["n_name"]) == list(want["n_name"])
    assert got["o_year"].astype("int64").equals(want["o_year"].astype("int64"))
    assert got["n_orders"].astype("int64").equals(want["n_orders"].astype("int64"))
    assert np.allclose(got["revenue"], want["revenue"], atol=0)
    # all three rollup levels present: fine, per-nation (-1 year), grand total
    assert (got["o_year"] == -1).sum() >= 2
    assert ((got["n_name"] == "ALL") & (got["o_year"] == -1)).sum() == 1


@pytest.fixture(scope="module")
def empty_facts_sf(tmp_path_factory):
    """Empty FACT tables (customer/orders/lineitem) with populated dimension
    tables (region/nation/supplier) — the shape a resume/retry shard
    presents to the multi-way joins."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    d = tmp_path_factory.mktemp("empty_facts_sf")
    pq.write_table(
        pa.table(
            {"c_custkey": pa.array([], pa.int64()), "c_name": pa.array([], pa.string()),
             "c_nationkey": pa.array([], pa.int64()),
             "c_acctbal": pa.array([], pa.float64()),
             "c_mktsegment": pa.array([], pa.string())}
        ), str(d / "customer.parquet"))
    pq.write_table(
        pa.table(
            {"o_orderkey": pa.array([], pa.int64()), "o_custkey": pa.array([], pa.int64()),
             "o_orderstatus": pa.array([], pa.string()),
             "o_totalprice": pa.array([], pa.float64()),
             "o_orderdate": pa.array([], pa.timestamp("us")),
             "o_orderpriority": pa.array([], pa.string())}
        ), str(d / "orders.parquet"))
    pq.write_table(
        pa.table(
            {"l_orderkey": pa.array([], pa.int64()), "l_partkey": pa.array([], pa.int64()),
             "l_suppkey": pa.array([], pa.int64()), "l_linenumber": pa.array([], pa.int64()),
             "l_quantity": pa.array([], pa.float64()),
             "l_extendedprice": pa.array([], pa.float64()),
             "l_discount": pa.array([], pa.float64()), "l_tax": pa.array([], pa.float64()),
             "l_returnflag": pa.array([], pa.string()),
             "l_linestatus": pa.array([], pa.string()),
             "l_shipdate": pa.array([], pa.timestamp("us"))}
        ), str(d / "lineitem.parquet"))
    pq.write_table(
        pa.table({"r_regionkey": pa.array([0], pa.int64()),
                  "r_name": pa.array(["ASIA"], pa.string())}),
        str(d / "region.parquet"))
    pq.write_table(
        pa.table({"n_nationkey": pa.array([0, 1], pa.int64()),
                  "n_name": pa.array(["NATION_0", "NATION_1"], pa.string()),
                  "n_regionkey": pa.array([0, 0], pa.int64())}),
        str(d / "nation.parquet"))
    pq.write_table(
        pa.table({"s_suppkey": pa.array([0], pa.int64()),
                  "s_nationkey": pa.array([0], pa.int64())}),
        str(d / "supplier.parquet"))
    pq.write_table(
        pa.table(
            {"event_id": pa.array([], pa.int64()), "ts": pa.array([], pa.timestamp("us")),
             "user_id": pa.array([], pa.int64()), "event_type": pa.array([], pa.string()),
             "value": pa.array([], pa.float64()), "props": pa.array([], pa.string())}
        ), str(d / "events.parquet"))
    pq.write_table(
        pa.table(
            {"doc_id": pa.array([], pa.int64()), "source": pa.array([], pa.string()),
             "text": pa.array([], pa.string()), "lang": pa.array([], pa.string()),
             "n_chars": pa.array([], pa.int64())}
        ), str(d / "documents.parquet"))
    return str(d)


@pytest.mark.parametrize(
    "opname",
    ["top_orders_q3", "regional_revenue_q5", "big_order_customers",
     "nation_year_rollup", "events_user_running", "min_price_supplier",
     "cohort_retention"],
)
def test_round5_ops_empty_shard_safe(ray_session, empty_facts_sf, opname):
    from action_pdf_accessibility_paddle_docker_ray.pipelines import joins, relational

    fns = {
        "top_orders_q3": joins.top_orders_q3,
        "regional_revenue_q5": joins.regional_revenue_q5,
        "big_order_customers": joins.big_order_customers,
        "nation_year_rollup": relational.nation_year_rollup,
        "events_user_running": relational.events_user_running,
        "min_price_supplier": joins.min_price_supplier,
        "cohort_retention": relational.cohort_retention,
    }
    r = fns[opname](empty_facts_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    assert len(r) == 0


def test_host_triangles_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        host_triangles,
    )

    r = host_triangles(empty_facts_sf)
    # SQL's scalar subqueries emit one all-zero row on an empty graph
    assert len(r) == 1
    assert int(r["n_hosts"].iloc[0]) == 0
    assert int(r["n_edges"].iloc[0]) == 0
    assert int(r["n_triangles"].iloc[0]) == 0


# ---------------------------------------------------------------------------
# Round-5 session 2: ordered window functions, group-argmin join-back,
# degree-ordered triangle counting — each pinned vs DuckDB at sf0.001.
# ---------------------------------------------------------------------------


def test_events_user_running_matches_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        events_user_running,
        sql_events_user_running,
    )

    sf = "/root/testdata/sf0.001"
    key = ["user_id", "rn"]
    got = (
        events_user_running(sf).to_pandas().sort_values(key).reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(con, sf, ("events",))
    want = (
        con.execute(sql_events_user_running())
        .df()
        .sort_values(key)
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    for col in ("event_id", "user_id", "rn", "cum_milli", "prev_milli"):
        assert got[col].astype("int64").equals(want[col].astype("int64")), col
    # window-function invariants: first row of each user has no LAG value,
    # and the running sum telescopes (cum[i] - cum[i-1] == value[i])
    first = got[got["rn"] == 1]
    assert (first["prev_milli"] == 0).all()
    per_user = got.groupby("user_id")
    deltas = got["cum_milli"] - per_user["cum_milli"].shift(fill_value=0)
    lagged = per_user["prev_milli"].shift(-1)
    mask = lagged.notna()
    assert (deltas[mask].to_numpy() == lagged[mask].to_numpy()).all()


def test_min_price_supplier_matches_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        min_price_supplier,
        sql_min_price_supplier,
    )

    sf = "/root/testdata/sf0.001"
    got = (
        min_price_supplier(sf)
        .to_pandas()
        .sort_values("l_partkey")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(con, sf, ("lineitem",))
    want = (
        con.execute(sql_min_price_supplier())
        .df()
        .sort_values("l_partkey")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    for col in ("l_partkey", "min_price_milli", "n_at_min", "best_suppkey"):
        assert got[col].astype("int64").equals(want[col].astype("int64")), col
    # one output row per distinct part with lineitems
    n_parts = con.execute(
        "SELECT COUNT(DISTINCT l_partkey) FROM lineitem"
    ).fetchone()[0]
    assert len(got) == n_parts


def test_host_triangles_matches_duckdb_and_join_path(ray_session, monkeypatch):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines import web_ops
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        host_triangles,
        sql_host_triangles,
    )

    sf = "/root/testdata/sf0.001"
    a = host_triangles(sf).reset_index(drop=True)
    # force the co-partitioned degree attach (the > _TRI_BROADCAST_MAX plan)
    monkeypatch.setattr(web_ops, "_TRI_BROADCAST_MAX", 0)
    b = host_triangles(sf).reset_index(drop=True)
    assert a.equals(b)

    con = duckdb.connect()
    _tpch_views(con, sf, ("documents",))
    want = con.execute(sql_host_triangles()).df().reset_index(drop=True)
    for col in ("n_hosts", "n_edges", "n_triangles"):
        assert int(a[col].iloc[0]) == int(want[col].iloc[0]), col
    assert int(a["n_triangles"].iloc[0]) > 0  # the synthetic graph has triangles


def test_events_funnel_matches_duckdb_and_binds(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        events_funnel,
        sql_events_funnel,
    )

    sf = "/root/testdata/sf0.01"
    got = events_funnel(sf).sort_values("stage").reset_index(drop=True)
    con = duckdb.connect()
    _tpch_views(con, sf, ("events",))
    want = (
        con.execute(sql_events_funnel()).df().sort_values("stage").reset_index(drop=True)
    )
    assert got["stage"].astype("int64").equals(want["stage"].astype("int64"))
    assert got["n_users"].astype("int64").equals(want["n_users"].astype("int64"))
    n = got["n_users"].to_numpy()
    # the conversion window must BIND: each stage strictly loses users
    assert n[0] > n[1] > n[2] > 0


def test_cohort_retention_matches_duckdb_and_binds(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        cohort_retention,
        sql_cohort_retention,
    )

    sf = "/root/testdata/sf0.01"
    key = ["cohort_day", "day_offset"]
    got = (
        cohort_retention(sf).to_pandas().sort_values(key).reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(con, sf, ("events",))
    want = (
        con.execute(sql_cohort_retention()).df().sort_values(key).reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    for col in ("cohort_day", "day_offset", "n_users"):
        assert got[col].astype("int64").equals(want[col].astype("int64")), col
    # day-granularity purchase activity must discriminate (not saturate)
    assert got["n_users"].nunique() > 1


def test_events_funnel_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        events_funnel,
    )

    r = events_funnel(empty_facts_sf)
    # SQL's scalar subqueries emit the 3 stage rows with zero counts
    assert list(r["stage"]) == [1, 2, 3]
    assert list(r["n_users"]) == [0, 0, 0]


def test_type_distinct_users_exact_and_sketch(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        sql_type_distinct_users,
        type_distinct_users,
    )

    sf = "/root/testdata/sf0.01"
    got = type_distinct_users(sf).reset_index(drop=True)
    con = duckdb.connect()
    _tpch_views(con, sf, ("events",))
    want = (
        con.execute(sql_type_distinct_users())
        .df()
        .sort_values("event_type")
        .reset_index(drop=True)
    )
    assert list(got["event_type"]) == list(want["event_type"])
    assert got["n_users"].astype("int64").equals(want["n_users"].astype("int64"))
    # HLL-per-group sketch: within 5% of exact per group (p=12, ~1.6% sigma)
    sk = type_distinct_users(sf, exact=False).set_index("event_type")["n_users"]
    ex = got.set_index("event_type")["n_users"]
    for t in ex.index:
        assert abs(int(sk[t]) - int(ex[t])) <= max(2, int(0.05 * ex[t])), t


def test_host_clustering_matches_duckdb_and_join_path(ray_session, monkeypatch):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines import web_ops
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        host_clustering,
        sql_host_clustering,
    )

    sf = "/root/testdata/sf0.001"
    a = host_clustering(sf).to_pandas().sort_values("host").reset_index(drop=True)
    monkeypatch.setattr(web_ops, "_TRI_BROADCAST_MAX", 0)
    b = (
        host_clustering(sf)
        .to_pandas()
        .sort_values("host")
        .reset_index(drop=True)
    )
    assert a.equals(b)
    con = duckdb.connect()
    _tpch_views(con, sf, ("documents",))
    want = (
        con.execute(sql_host_clustering()).df().sort_values("host").reset_index(drop=True)
    )
    assert len(a) == len(want) > 0
    assert list(a["host"]) == list(want["host"])
    for col in ("deg", "n_tri", "clustering_milli"):
        assert a[col].astype("int64").equals(want[col].astype("int64")), col
    # coefficient is a milli-fraction: 0 <= c <= 1000
    assert (a["clustering_milli"] >= 0).all()
    assert (a["clustering_milli"] <= 1000).all()


def test_pmi_collocations_matches_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.text_ops import (
        pmi_collocations,
        sql_pmi_collocations,
    )

    sf = "/root/testdata/sf0.001"
    got = pmi_collocations(sf).to_pandas().reset_index(drop=True)
    con = duckdb.connect()
    _tpch_views(con, sf, ("documents",))
    want = con.execute(sql_pmi_collocations()).df().reset_index(drop=True)
    assert len(got) == len(want) > 0
    # the oracle's ORDER BY is total — compare positionally
    for col in ("w1", "w2"):
        assert list(got[col]) == list(want[col]), col
    for col in ("c12", "c1", "c2", "pmi_micro"):
        assert got[col].astype("int64").equals(want[col].astype("int64")), col
    # min_count binds: every kept pair saw >= 5 occurrences, and PMI ranks
    # genuinely reorder vs raw counts
    assert (got["c12"] >= 5).all()
    assert list(got["c12"]) != sorted(got["c12"], reverse=True)


def test_host_clustering_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        host_clustering,
    )

    r = host_clustering(empty_facts_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    assert len(r) == 0


def test_pmi_collocations_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.text_ops import (
        pmi_collocations,
    )

    r = pmi_collocations(empty_facts_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    assert len(r) == 0


def test_type_distinct_users_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        type_distinct_users,
    )

    r = type_distinct_users(empty_facts_sf)
    assert len(r) == 0
    r = type_distinct_users(empty_facts_sf, exact=False)
    assert len(r) == 0


def test_ann_eval_matches_duckdb_and_binds(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.similarity import (
        ann_eval,
        sql_ann_eval,
    )

    sf = "/root/testdata/sf0.001"
    con = duckdb.connect()
    _tpch_views(con, sf, ("embeddings",))
    dim = len(
        con.execute("SELECT embedding FROM embeddings LIMIT 1").fetchone()[0]
    )

    lsh = ann_eval(sf).sort_values("query_id").reset_index(drop=True)
    want = (
        con.execute(sql_ann_eval(dim)).df().sort_values("query_id").reset_index(drop=True)
    )
    for col in ("query_id", "n_truth", "n_hit", "recall_milli"):
        assert lsh[col].astype("int64").equals(want[col].astype("int64")), col

    ivf = ann_eval(sf, index="ivf").sort_values("query_id").reset_index(drop=True)
    want_ivf = (
        con.execute(sql_ann_eval(dim, index="ivf"))
        .df()
        .sort_values("query_id")
        .reset_index(drop=True)
    )
    for col in ("query_id", "n_truth", "n_hit", "recall_milli"):
        assert ivf[col].astype("int64").equals(want_ivf[col].astype("int64")), col

    # the eval MEASURES (it does not encode recall == 1000 the way
    # dedup_eval does): on these embeddings the LSH index is provably
    # lossy and IVF provably better — the comparison the harness exists for
    assert (lsh["recall_milli"] < 1000).any()
    assert int(ivf["recall_milli"].sum()) > int(lsh["recall_milli"].sum())


def test_source_length_stats_matches_duckdb(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        source_length_stats,
        sql_source_length_stats,
    )

    sf = "/root/testdata/sf0.01"
    got = (
        source_length_stats(sf)
        .to_pandas()
        .sort_values("source")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(con, sf, ("documents",))
    want = (
        con.execute(sql_source_length_stats())
        .df()
        .sort_values("source")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    assert list(got["source"]) == list(want["source"])
    for col in ("n_docs", "mean_milli", "var_milli"):
        assert got[col].astype("int64").equals(want[col].astype("int64")), col
    # moments discriminate across sources
    assert got["var_milli"].nunique() > 1


def test_source_length_stats_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        source_length_stats,
    )

    r = source_length_stats(empty_facts_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    assert len(r) == 0


def test_corpus_curate_matches_duckdb_and_funnel_binds(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.sampling import (
        corpus_curate,
        sql_corpus_curate,
    )
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        sql_gopher_filter,
    )

    sf = "/root/testdata/sf0.01"
    got = (
        corpus_curate(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(con, sf, ("documents",))
    want = (
        con.execute(sql_corpus_curate()).df().sort_values("doc_id").reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    assert got["doc_id"].astype("int64").equals(want["doc_id"].astype("int64"))
    assert list(got["lang"]) == list(want["lang"])
    # every stage of the funnel binds: quality < input, sampled < quality
    n_all = con.execute("SELECT count(*) FROM documents").fetchone()[0]
    n_q = con.execute(
        f"SELECT count(*) FROM ({sql_gopher_filter()}) WHERE keep = 1"
    ).fetchone()[0]
    assert n_all > n_q > len(got) > 0


def test_corpus_curate_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.sampling import (
        corpus_curate,
    )

    r = corpus_curate(empty_facts_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    assert len(r) == 0


def _edges_ds(pairs):
    import ray.data

    return ray.data.from_pandas(
        pd.DataFrame(
            {
                "src_host": [a for a, _ in pairs],
                "dst_host": [b for _, b in pairs],
            }
        )
    )


def test_triangle_machinery_on_known_graphs(ray_session, monkeypatch):
    """Exact triangle counts on analytically-known topologies, driven
    through the production _host_graph/_closure/_close_count machinery."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines import web_ops
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        _close_count,
        _closure,
        _host_graph,
    )

    def count(pairs, broadcast_max=2_000_000):
        monkeypatch.setattr(web_ops, "_TRI_BROADCAST_MAX", broadcast_max)
        edges, deg, oriented, n_nodes, n_edges = _host_graph(
            "unused", edges_ds=_edges_ds(pairs)
        )
        if oriented is None:
            return 0
        return int(_closure(oriented, _close_count).sum("t") or 0)

    nodes = [f"h{i:03d}" for i in range(8)]
    clique = [(a, b) for i, a in enumerate(nodes) for b in nodes[i + 1:]]
    assert count(clique) == 8 * 7 * 6 // 6  # C(8,3) = 56
    star = [("hub", f"leaf{i:03d}") for i in range(50)]
    assert count(star) == 0
    cycle = [(nodes[i], nodes[(i + 1) % len(nodes)]) for i in range(len(nodes))]
    assert count(cycle) == 0
    tri_plus_tail = [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d")]
    assert count(tri_plus_tail) == 1
    # duplicate/reversed/self-loop edges canonicalize away
    noisy = tri_plus_tail + [("b", "a"), ("a", "b"), ("d", "d")]
    assert count(noisy) == 1
    # join-path (degree table never broadcast) agrees
    assert count(clique, broadcast_max=0) == 56


def test_degree_orientation_bounds_star_wedges(ray_session):
    """The O(m^1.5) claim, made testable: on a hot-host star every edge
    orients leaf -> hub (leaves have lower degree), so every wedge
    center has out-degree 1 and emission is ZERO — naive neighbor
    pairing would emit C(500, 2) = 124,750 pairs at the hub."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.util import colocate
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        _host_graph,
        _wedges,
    )

    star = [("hub", f"leaf{i:04d}") for i in range(500)]
    edges, deg, oriented, n_nodes, n_edges = _host_graph(
        "unused", edges_ds=_edges_ds(star)
    )
    assert n_edges == 500
    o = oriented.to_pandas()
    # every edge points AT the hub
    assert (o["v"] == "hub").all()
    wedges = colocate(oriented, ["u"], _wedges).to_pandas()
    assert len(wedges) == 0


def test_triangle_hot_hub_stress_matches_brute_force(ray_session):
    """Dense 300-node graph with a degree-299 hub: the production wedge
    join must match an adjacency-matrix brute force exactly (the scaled
    stress — 2000 nodes / 100,618 edges / 246,417 triangles in 8.5 s at
    32 CPUs — is recorded in BASELINE.md)."""
    import ray.data

    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        _close_count,
        _closure,
        _host_graph,
    )

    N, D = 300, 12
    A = np.zeros((N, N), dtype=bool)
    src, dst = [], []
    for i in range(N):
        for j in range(1, D + 1):
            k = (i * 7 + j) % N
            if i != k:
                A[i, k] = A[k, i] = True
            src.append(f"h{i:04d}")
            dst.append(f"h{k:04d}")
    for i in range(1, N):
        A[i, 0] = A[0, i] = True
        src.append(f"h{i:04d}")
        dst.append("h0000")
    want = int(round(np.trace(
        A.astype(np.float64) @ A @ A.astype(np.float64)) / 6))

    eds = ray.data.from_pandas(pd.DataFrame({"src_host": src, "dst_host": dst}))
    edges, deg, oriented, n_nodes, n_edges = _host_graph("unused", edges_ds=eds)
    assert n_edges == int(A.sum()) // 2

    got = int(_closure(oriented, _close_count).sum("t") or 0)
    assert got == want > 0


def test_blocklist_filter_matches_duckdb_and_binds(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        blocklist_filter,
        sql_blocklist_filter,
    )

    sf = "/root/testdata/sf0.01"
    got = (
        blocklist_filter(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(con, sf, ("documents",))
    want = (
        con.execute(sql_blocklist_filter())
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    for col in ("doc_id", "n_hits", "keep"):
        assert got[col].astype("int64").equals(want[col].astype("int64")), col
    # the list bites, but not everything: both classes non-empty
    assert 0 < int(got["keep"].sum()) < len(got)


def test_blocklist_filter_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        blocklist_filter,
    )

    r = blocklist_filter(empty_facts_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    assert len(r) == 0


def test_events_anomaly_matches_duckdb_and_binds(ray_session):
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        events_anomaly,
        sql_events_anomaly,
    )

    sf = "/root/testdata/sf0.01"
    got = (
        events_anomaly(sf).to_pandas().sort_values("event_id").reset_index(drop=True)
    )
    con = duckdb.connect()
    _tpch_views(con, sf, ("events",))
    want = (
        con.execute(sql_events_anomaly())
        .df()
        .sort_values("event_id")
        .reset_index(drop=True)
    )
    assert len(got) == len(want) > 0
    for col in ("event_id", "v_milli", "is_outlier"):
        assert got[col].astype("int64").equals(want[col].astype("int64")), col
    assert list(got["event_type"]) == list(want["event_type"])
    # 3-sigma flags a small non-empty tail
    n_out = int(got["is_outlier"].sum())
    assert 0 < n_out < len(got) // 10


def test_events_anomaly_empty_shard(ray_session, empty_facts_sf):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        events_anomaly,
    )

    r = events_anomaly(empty_facts_sf)
    if hasattr(r, "to_pandas"):
        r = r.to_pandas()
    assert len(r) == 0


def test_corpus_curate_dedup_stage_binds(ray_session, tmp_path):
    """The gate corpus has no exact-duplicate texts, so the composite's
    middle stage never fires there; plant clones of quality-passing docs
    and pin (a) exactly one survivor per clone set (min doc_id), and
    (b) the DuckDB chained replay still matches on the augmented table."""
    import duckdb
    import pyarrow as pa
    import pyarrow.parquet as pq

    from action_pdf_accessibility_paddle_docker_ray.pipelines.sampling import (
        corpus_curate,
        sql_corpus_curate,
    )

    src = "/root/testdata/sf0.01/documents.parquet"
    t = pq.read_table(src, columns=["doc_id", "lang", "text"]).to_pandas()
    base = corpus_curate("/root/testdata/sf0.01").to_pandas()
    # clone 5 docs that survive the full funnel, at fresh higher ids
    survivors = base["doc_id"].head(5).tolist()
    clones = t[t["doc_id"].isin(survivors)].copy()
    clones["doc_id"] = clones["doc_id"] + 1_000_000
    aug = pd.concat([t, clones], ignore_index=True)
    d = tmp_path / "aug"
    d.mkdir()
    pq.write_table(pa.Table.from_pandas(aug, preserve_index=False),
                   str(d / "documents.parquet"))

    got = corpus_curate(str(d)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # dedup binds: the clone (higher id) loses to the original every time
    assert not got["doc_id"].isin(clones["doc_id"]).any()
    assert got["doc_id"].isin(survivors).sum() == 5

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{d}/documents.parquet')"
    )
    want = (
        con.execute(sql_corpus_curate()).df().sort_values("doc_id").reset_index(drop=True)
    )
    assert got["doc_id"].astype("int64").equals(want["doc_id"].astype("int64"))
    assert list(got["lang"]) == list(want["lang"])


def test_corpus_curate_resumable_kill_restart(
    ray_session, tmp_path, crash_after, unit_mtimes
):
    """Kill after 2 of 8 buckets, restart: the dedup-loser checkpoint is
    reused, only the remaining buckets run, and the union equals the
    direct composite (doc_id set AND langs) with no dup/missing rows; a
    resume with another bucket count leaves no stale bucket behind."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.sampling import (
        corpus_curate,
    )
    from action_pdf_accessibility_paddle_docker_ray.state.op_resume import (
        run_corpus_curate_resumable,
    )

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "curate")
    with crash_after("bucket-", 2):
        run_corpus_curate_resumable(sf, out, n_buckets=8)
    committed = unit_mtimes(out)
    assert sorted(committed) == ["_state", "bucket-0", "bucket-1"]
    r2 = run_corpus_curate_resumable(sf, out, n_buckets=8)
    assert r2["state_reused"] and r2["buckets_skipped"] == 2
    assert r2["buckets_run"] == 6
    assert committed.items() <= unit_mtimes(out).items()

    got = _read_buckets(out).sort_values("doc_id").reset_index(drop=True)
    want = (
        corpus_curate(sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        got[["doc_id", "lang"]], want[["doc_id", "lang"]]
    )
    assert got["doc_id"].is_unique

    r3 = run_corpus_curate_resumable(sf, out, n_buckets=8)
    assert r3["buckets_skipped"] == 8 and r3["buckets_run"] == 0

    # the finished run resumed with 4 buckets: a new run key, so the 8 old
    # bucket dirs are swept and the 4 new ones alone equal the composite
    r4 = run_corpus_curate_resumable(sf, out, n_buckets=4)
    assert r4["buckets_run"] == 4 and not r4["state_reused"]
    got = _read_buckets(out).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(
        got[["doc_id", "lang"]], want[["doc_id", "lang"]]
    )


def test_corpus_curate_resumable_losers_bind(ray_session, tmp_path, crash_after):
    """Planted clones: the loser checkpoint is non-empty, survives the
    kill-restart, and the resumed union still equals the direct
    composite on the augmented corpus."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from action_pdf_accessibility_paddle_docker_ray.pipelines.sampling import (
        corpus_curate,
    )
    from action_pdf_accessibility_paddle_docker_ray.state.op_resume import (
        run_corpus_curate_resumable,
    )

    src = "/root/testdata/sf0.001/documents.parquet"
    t = pq.read_table(src).to_pandas()
    base = corpus_curate("/root/testdata/sf0.001").to_pandas()
    clones = t[t["doc_id"].isin(base["doc_id"].head(4))].copy()
    clones["doc_id"] = clones["doc_id"] + 1_000_000
    d = tmp_path / "aug"
    d.mkdir()
    pq.write_table(
        pa.Table.from_pandas(
            pd.concat([t, clones], ignore_index=True), preserve_index=False
        ),
        str(d / "documents.parquet"),
    )

    out = str(tmp_path / "curate_aug")
    with crash_after("bucket-", 1):
        run_corpus_curate_resumable(str(d), out, n_buckets=4)
    # the checkpoint binds: planted clones lost the dedup
    losers = pd.read_parquet(f"{out}/_state/drop.parquet")
    assert set(losers["doc_id"]) == set(clones["doc_id"].astype("int64"))
    r2 = run_corpus_curate_resumable(str(d), out, n_buckets=4)
    assert r2["state_reused"] and r2["buckets_skipped"] == 1

    got = _read_buckets(out).sort_values("doc_id").reset_index(drop=True)
    want = (
        corpus_curate(str(d)).to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(got[["doc_id", "lang"]], want[["doc_id", "lang"]])


# ---------------------------------------------------------------------------
# r5_ext_digest: composite driver-gate digest over the round-5 extension ops
# ---------------------------------------------------------------------------


def test_digest_frame_matches_duckdb_replay():
    """The Python md5-prefix sum equals DuckDB's on ints, strings, NULLs."""
    import duckdb

    from action_pdf_accessibility_paddle_docker_ray.pipelines.digest import (
        digest_frame,
    )

    df = pd.DataFrame(
        {
            "b_key": [1, -7, 2**40, 5, 6],
            "a_name": ["x", "with|pipe", None, "", "Ünïcödé"],
            "c_cnt": pd.array([3, None, 0, 9, 9], dtype="Int64"),
        }
    )
    got = digest_frame(df, ["b_key", "a_name", "c_cnt"])
    con = duckdb.connect()
    con.register("t", df)
    want = con.sql(
        "SELECT CAST(COALESCE(SUM(('0x' || substr(md5(CONCAT_WS('|', "
        "COALESCE(CAST(a_name AS VARCHAR), '~'), "
        "COALESCE(CAST(b_key AS VARCHAR), '~'), "
        "COALESCE(CAST(c_cnt AS VARCHAR), '~'))), 1, 8))::BIGINT), 0) "
        "AS BIGINT) FROM t"
    ).fetchone()[0]
    assert got == want
    assert digest_frame(df.iloc[:0], ["b_key", "a_name", "c_cnt"]) == 0


def test_r5_ext_digest_entry(ray_session):
    """One row per member op at sf0.001; digest binds to member output."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.digest import (
        DIGEST_OPS,
        r5_ext_digest,
    )

    out = r5_ext_digest("/root/testdata/sf0.001")
    assert list(out.columns) == ["op", "n_rows", "digest"]
    assert sorted(out["op"]) == sorted(DIGEST_OPS)
    assert (out["n_rows"] > 0).all()
    # every digest is a plain int64 (never float — the driver hashes dtypes)
    assert str(out["digest"].dtype) == "int64"
    assert str(out["n_rows"].dtype) == "int64"


def test_dedup_recert_digest_entry(ray_session):
    """The post-r04-changed dedup ops' digest: one row each at sf0.001."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.digest import (
        DEDUP_RECERT_OPS,
        dedup_recert_digest,
    )

    out = dedup_recert_digest("/root/testdata/sf0.001")
    assert sorted(out["op"]) == sorted(DEDUP_RECERT_OPS)
    assert (out["n_rows"] > 0).all()
    assert str(out["digest"].dtype) == "int64"


def test_gate_window_ordering_contract():
    """The driver records only the first 50 queries() entries: the window
    must hold the digest plus only never-r04-recorded entries (the two
    flagship projections are the deliberate exceptions)."""
    import json
    import sys

    sys.path.insert(0, "/root/repo")
    import __ray_entry__ as entry_mod

    window = list(entry_mod.queries())[:50]
    assert "r5_ext_digest" in window
    assert "dedup_recert_digest" in window
    r04 = json.load(open("/root/repo/CORRECTNESS_r04.json"))
    recorded = {
        n for n, v in r04.items() if v.get("hash_match")
    } - {"extract_doc_meta", "extract_span_stats"}
    dup = [n for n in window if n in recorded]
    assert dup == [], f"window wastes slots on r04-recorded entries: {dup}"
