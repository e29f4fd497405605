"""Deterministic sampling / split / shuffle operators for training data.

Training pipelines need reproducible randomness: the same corpus must
yield the same train/val/test assignment and the same shuffle order on
every run, at any parallelism, with no driver-held RNG state.  Both ops
here derive their "randomness" from the murmur3 fmix32 finalizer (a
bijection on uint32, ``functions/fnv.fmix32_np`` — bit-reproduced in
DuckDB by ``sql_oracles._fmix32_ctes``), so every row's fate is a pure
function of its id and the seed.

Scale design: ``hash_split`` is embarrassingly parallel (no exchange).
``seeded_shuffle`` needs a global rank; it buckets rows by the TOP bits
of the shuffle key (so buckets are ordered key ranges), counts bucket
sizes with per-batch partials (only ``n_buckets`` ints reach the
driver), broadcasts the cumulative offsets, and assigns ranks with one
grouped exchange — rank = bucket offset + in-bucket position.  No row
data ever reaches the driver, and the one exchange moves each row once
(the same volume any true shuffle must move).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray
import ray.data

from .. import ensure_picklable
from ..functions.fnv import fmix32_np
from ..sources.pages import read_table
from .sql_oracles import _fmix32_ctes
from .util import colocate, grouped_block_map

_M32 = 1 << 32


def hash_split(sf_dir: str) -> ray.data.Dataset:
    """Deterministic 90/5/5 train/val/test assignment by id hash.

    bucket = fmix32(doc_id) % 100; test < 5 ≤ val < 10 ≤ train.  Pure
    per-row function — no exchange, no state, stable under any
    parallelism and any resume boundary."""
    ensure_picklable()

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        h = fmix32_np(df["doc_id"].to_numpy().astype(np.uint64) % _M32)
        bucket = (h % np.uint32(100)).astype("int64")
        split = np.where(
            bucket < 5, "test", np.where(bucket < 10, "val", "train")
        )
        return pd.DataFrame(
            {"doc_id": df["doc_id"], "bucket": bucket, "split": split}
        )

    return read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        assign, batch_format="pandas"
    )


_SAMPLE_SEED = 7
# per-10k keep thresholds per stratum — head languages downsampled, the
# default stratum kept whole (the standard rebalancing move for a
# web-crawl corpus dominated by one or two languages)
SAMPLE_RATES_PER_10K = {"en": 2500, "zh": 5000}
_SAMPLE_DEFAULT_10K = 10000


def stratified_sample(sf_dir: str, *, seed: int = _SAMPLE_SEED) -> ray.data.Dataset:
    """Deterministic per-stratum (language) downsampling by id hash.

    keep iff fmix32(doc_id ^ seed) % 10000 < rate[lang].  Pure per-row
    function — no exchange, no RNG state, the same document set survives
    at any parallelism / resume boundary, and raising a stratum's rate
    strictly grows its sample (nested samples, the property reservoir
    sampling can't give you)."""
    ensure_picklable()

    def keep(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        h = fmix32_np((ids % _M32) ^ np.uint64(seed))
        thr = (
            df["lang"].map(SAMPLE_RATES_PER_10K)
            .fillna(_SAMPLE_DEFAULT_10K)
            .to_numpy(dtype="int64")
        )
        m = (h % np.uint32(10000)).astype("int64") < thr
        return df.loc[m, ["doc_id", "lang"]]

    return read_table(sf_dir, "documents", columns=["doc_id", "lang"]).map_batches(
        keep, batch_format="pandas"
    )


_SHUFFLE_SEED = 42
_SHUFFLE_BUCKET_BITS = 6  # 64 ordered key-range buckets


def seeded_shuffle(sf_dir: str, *, seed: int = _SHUFFLE_SEED) -> ray.data.Dataset:
    """Deterministic global shuffle: rank every row by fmix32(id ^ seed).

    fmix32 is a bijection, so keys are unique for distinct uint32 ids and
    the order is a true permutation; (key, doc_id) ordering keeps the op
    well-defined even past 2^32 ids.  Returns (doc_id, shuffle_key, rank)
    with rank 0-based over the whole corpus."""
    ensure_picklable()

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        k = fmix32_np((ids % _M32) ^ np.uint64(seed))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "shuffle_key": k.astype("int64"),
                "bucket": (k >> np.uint32(32 - _SHUFFLE_BUCKET_BITS)).astype(
                    "int64"
                ),
            }
        )

    keyed = read_table(sf_dir, "documents", columns=["doc_id"]).map_batches(
        key_rows, batch_format="pandas"
    ).materialize()  # consumed twice (counts + rank); id-width rows only

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        c = df["bucket"].value_counts()
        return pd.DataFrame(
            {"bucket": c.index.astype("int64"), "n": c.to_numpy().astype("int64")}
        )

    # driver sees ≤ n_buckets × n_blocks tiny (bucket, partial) rows
    parts = keyed.map_batches(bucket_counts, batch_format="pandas").to_pandas()
    totals = parts.groupby("bucket")["n"].sum().sort_index()
    offsets = totals.cumsum().shift(fill_value=0)
    offsets_ref = ray.put(offsets.to_dict())

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)[int(g["bucket"].iloc[0])]
        g = g.sort_values(["shuffle_key", "doc_id"], kind="mergesort")
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "shuffle_key": g["shuffle_key"].to_numpy(),
                "rank": np.arange(off, off + len(g), dtype="int64"),
            }
        )

    return grouped_block_map(keyed, ["bucket"], rank_bucket)


_QUOTA_K = 15  # below the testdata's 25 docs/source so the cut is exercised


def domain_quota_sample(sf_dir: str, *, k: int = _QUOTA_K) -> ray.data.Dataset:
    """Per-domain quota: keep at most ``k`` docs per ``source``, chosen by
    deterministic hash order (fmix32(doc_id), doc_id) — the crawl-
    balancing move that stops one domain from dominating a corpus while
    staying reproducible at any parallelism.

    Grouped top-k with a per-batch combiner: each batch keeps its local
    k-smallest keys per source, so at most k x sources rows per block
    reach the one grouped exchange.  Output: (doc_id, source, rk)."""
    ensure_picklable()

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        h = fmix32_np(ids % _M32).astype("int64")
        out = pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "source": df["source"], "hv": h}
        )
        # combiner: local k-smallest per source
        out = out.sort_values(["source", "hv", "doc_id"], kind="mergesort")
        return out.groupby("source", sort=False).head(k)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"]).map_batches(
        keyed, batch_format="pandas"
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["hv", "doc_id"], kind="mergesort").head(k)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "source": g["source"].to_numpy(),
                "rk": np.arange(1, len(g) + 1, dtype=np.int64),
            }
        )

    return grouped_block_map(ds, ["source"], topk)


def sql_domain_quota_sample() -> str:
    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id", "source"], "hin", "hv")
    return (
        f"WITH fsrc AS (SELECT doc_id, source, doc_id % {_M32} AS hin "
        f"FROM documents), {frag} "
        "SELECT doc_id, source, rk FROM (SELECT doc_id, source, "
        "CAST(row_number() OVER (PARTITION BY source ORDER BY hv, doc_id) "
        f"AS BIGINT) AS rk FROM {final}) WHERE rk <= {_QUOTA_K}"
    )


_PRIO_SEED = 11
_PRIO_K = 100


def priority_sample(sf_dir: str, *, k: int = _PRIO_K, seed: int = _PRIO_SEED) -> ray.data.Dataset:
    """Weighted sample without replacement via priority sampling
    (Duffield, Lund & Thorup, JACM 2007): priority q_i = w_i / u_i with
    w_i = n_chars and u_i uniform in (0, 1]; keep the k largest q.

    Determinism across engines WITHOUT quantization: u = (fmix32(id ^
    seed) + 1) / 2^32 is exact in float64 (integer + power-of-two
    divide), and q = w / u is a single IEEE exactly-rounded division —
    numpy and DuckDB produce bit-identical doubles, so the top-k set and
    order agree exactly (ties broken by doc_id; fmix32 is a bijection so
    u never collides for distinct ids).

    Scale: per-batch combiner keeps its local top-k, so at most
    k × blocks tiny rows reach the single-block finalizer — the same
    counts-only-driver-traffic shape as ``seeded_shuffle``; no global
    sort of the corpus.  Output: (doc_id, n_chars, rk)."""
    ensure_picklable()

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        hv = fmix32_np((ids % _M32) ^ np.uint64(seed)).astype(np.float64)
        u = (hv + 1.0) / float(_M32)
        q = df["n_chars"].to_numpy().astype(np.float64) / u
        out = pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_chars": df["n_chars"].astype("int64"),
                "q": q,
            }
        )
        out = out.sort_values(["q", "doc_id"], ascending=[False, True], kind="mergesort")
        return out.head(k)

    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"]).map_batches(
        keyed, batch_format="pandas"
    )

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["q", "doc_id"], ascending=[False, True], kind="mergesort")
        df = df.head(k)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy(),
                "n_chars": df["n_chars"].to_numpy(),
                "rk": np.arange(1, len(df) + 1, dtype=np.int64),
            }
        )

    # k × blocks rows total — one tiny exchange into a single block
    return ds.repartition(1).map_batches(final, batch_format="pandas", batch_size=None)


def sql_priority_sample() -> str:
    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id", "n_chars"], "hin", "hv")
    return (
        f"WITH fsrc AS (SELECT doc_id, n_chars, xor(doc_id % {_M32}, {_PRIO_SEED}) "
        f"AS hin FROM documents), {frag} "
        "SELECT doc_id, n_chars, rk FROM (SELECT doc_id, n_chars, "
        "CAST(row_number() OVER (ORDER BY "
        "CAST(n_chars AS DOUBLE) / ((CAST(hv AS DOUBLE) + 1) / 4294967296.0) DESC, "
        f"doc_id) AS BIGINT) AS rk FROM {final}) WHERE rk <= {_PRIO_K}"
    )


_PACK_CAPACITY = 256
_PACK_BUCKETS = 16
_PACK_SEQ_MUL = 1_000_000


def sequence_pack(sf_dir: str, *, capacity: int = _PACK_CAPACITY) -> ray.data.Dataset:
    """Greedy in-order packing of documents into fixed token-budget
    training sequences — the standard pre-training batching step.

    Documents hash-partition into ``_PACK_BUCKETS`` independent streams
    (fmix32(doc_id) — deterministic, resume-stable), and each stream packs
    its docs in doc_id order: a doc joins the open sequence unless that
    would exceed ``capacity`` tokens, else it opens a new one (an
    over-long doc gets a sequence of its own).  Packing is sequential BY
    DEFINITION within a stream, so the engine parallelizes across streams
    (at 100 TB: thousands of buckets ≈ thousands of independent packers)
    and the per-stream scan is a trivial integer loop — the token
    counting above it is the vectorized hot path.  One sort-exchange
    total; nothing reaches the driver.

    Returns (doc_id, bucket, seq_id, pos, n_tokens); seq_id is globally
    unique as bucket * 1e6 + per-bucket sequence index."""
    ensure_picklable()

    def keyed(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        h = fmix32_np(ids % _M32)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "bucket": (h % np.uint32(_PACK_BUCKETS)).astype("int64"),
                "n_tokens": df["text"].str.count(r"\S+").astype("int64"),
            }
        )

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        keyed, batch_format="pandas"
    )

    def pack(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        ns = g["n_tokens"].to_numpy()
        seq = np.empty(len(g), dtype=np.int64)
        pos = np.empty(len(g), dtype=np.int64)
        s = acc = p = 0
        for i, n in enumerate(ns):
            if i == 0:
                acc, p = n, 0
            elif acc + n > capacity:
                s, acc, p = s + 1, n, 0
            else:
                acc, p = acc + n, p + 1
            seq[i], pos[i] = s, p
        b = int(g["bucket"].iloc[0])
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "bucket": np.full(len(g), b, dtype=np.int64),
                "seq_id": b * _PACK_SEQ_MUL + seq,
                "pos": pos,
                "n_tokens": ns,
            }
        )

    return grouped_block_map(ds, ["bucket"], pack)


def sql_sequence_pack() -> str:
    """Greedy packing replayed in DuckDB as a recursive CTE walking each
    bucket's doc_id-ordered rows (recursion depth = max rows per bucket —
    fine at check scale; the Ray side is the scale path)."""
    c = _PACK_CAPACITY
    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id"], "hin", "hv")
    return (
        f"WITH RECURSIVE fsrc AS (SELECT doc_id, doc_id % {_M32} AS hin "
        f"FROM documents), {frag}, "
        "nt AS (SELECT f.doc_id, f.hv % "
        f"{_PACK_BUCKETS} AS bucket, "
        r"CAST(length(regexp_extract_all(d.text, '\S+')) AS BIGINT) AS n "
        f"FROM {final} f JOIN documents d ON f.doc_id = d.doc_id), "
        "base AS (SELECT doc_id, bucket, n, row_number() OVER ("
        "PARTITION BY bucket ORDER BY doc_id) AS rn FROM nt), "
        "r AS ("
        "SELECT bucket, rn, doc_id, n, n AS acc, CAST(0 AS BIGINT) AS seq, "
        "CAST(0 AS BIGINT) AS pos FROM base WHERE rn = 1 "
        "UNION ALL "
        "SELECT b.bucket, b.rn, b.doc_id, b.n, "
        f"CASE WHEN r.acc + b.n > {c} THEN b.n ELSE r.acc + b.n END, "
        f"CASE WHEN r.acc + b.n > {c} THEN r.seq + 1 ELSE r.seq END, "
        f"CASE WHEN r.acc + b.n > {c} THEN 0 ELSE r.pos + 1 END "
        "FROM base b JOIN r ON b.bucket = r.bucket AND b.rn = r.rn + 1) "
        f"SELECT doc_id, bucket, bucket * {_PACK_SEQ_MUL} + seq AS seq_id, "
        "pos, n AS n_tokens FROM r"
    )


def sql_hash_split() -> str:
    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id"], "hin", "hv")
    return (
        f"WITH fsrc AS (SELECT doc_id, doc_id % {_M32} AS hin FROM documents), {frag} "
        f"SELECT doc_id, hv % 100 AS bucket, "
        "CASE WHEN hv % 100 < 5 THEN 'test' WHEN hv % 100 < 10 THEN 'val' "
        f"ELSE 'train' END AS split FROM {final}"
    )


def sql_stratified_sample() -> str:
    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id", "lang"], "hin", "hv")
    case = "CASE lang " + " ".join(
        f"WHEN '{lang}' THEN {thr}"
        for lang, thr in sorted(SAMPLE_RATES_PER_10K.items())
    ) + f" ELSE {_SAMPLE_DEFAULT_10K} END"
    return (
        f"WITH fsrc AS (SELECT doc_id, lang, xor(doc_id % {_M32}, {_SAMPLE_SEED}) "
        f"AS hin FROM documents), {frag} "
        f"SELECT doc_id, lang FROM {final} WHERE hv % 10000 < {case}"
    )


def sql_seeded_shuffle() -> str:
    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id"], "hin", "hv")
    return (
        f"WITH fsrc AS (SELECT doc_id, xor(doc_id % {_M32}, {_SHUFFLE_SEED}) AS hin "
        f"FROM documents), {frag} "
        "SELECT doc_id, hv AS shuffle_key, "
        "CAST(row_number() OVER (ORDER BY hv, doc_id) - 1 AS BIGINT) AS rank "
        f"FROM {final}"
    )


# ---------------------------------------------------------------------------
# corpus mixing with fractional epoch weights (round 4)
# ---------------------------------------------------------------------------

_MIX_SEED = 13
# per-source epoch weights in 1e-4 units: weight 32500 = every doc 3
# times + a deterministic 25% of docs a 4th time; 4000 = keep 40% of docs.
# The up/down-sampling mix a training run applies per domain.
MIX_WEIGHTS_PER_10K = {"src0": 32500, "src1": 4000}
_MIX_DEFAULT_10K = 10000


def corpus_mix(sf_dir: str, *, seed: int = _MIX_SEED) -> ray.data.Dataset:
    """Deterministic weighted corpus mixing: each document is emitted
    floor(w) times plus one more iff fmix32(doc_id ^ seed) % 10000 <
    frac(w)*10000, with w the source's epoch weight.  Upsampling AND
    downsampling in one pure per-row rule — no exchange, no RNG state,
    the same mixed corpus at any parallelism / resume boundary, and
    raising a weight strictly grows the mix (nested property).
    Output: (doc_id, source, copy), copy = 0..n_copies-1."""
    ensure_picklable()

    def mix(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        h = fmix32_np((ids % _M32) ^ np.uint64(seed)).astype(np.int64)
        w10k = (
            df["source"].map(MIX_WEIGHTS_PER_10K).fillna(_MIX_DEFAULT_10K)
            .to_numpy()
            .astype(np.int64)
        )
        n_copies = w10k // 10000 + ((h % 10000) < (w10k % 10000)).astype(np.int64)
        reps = np.repeat(np.arange(len(df), dtype=np.int64), n_copies)
        ends = np.cumsum(n_copies)
        copy = np.arange(int(ends[-1]) if len(ends) else 0, dtype=np.int64) - np.repeat(
            ends - n_copies, n_copies
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].to_numpy()[reps],
                "source": df["source"].to_numpy()[reps],
                "copy": copy,
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id", "source"]).map_batches(
        mix, batch_format="pandas"
    )


def sql_corpus_mix(seed: int = _MIX_SEED) -> str:
    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id", "source"], "hin", "hv")
    case = "CASE source " + " ".join(
        f"WHEN '{s}' THEN {w}" for s, w in sorted(MIX_WEIGHTS_PER_10K.items())
    ) + f" ELSE {_MIX_DEFAULT_10K} END"
    return (
        f"WITH fsrc AS (SELECT doc_id, source, xor(doc_id % {_M32}, {seed}) "
        f"AS hin FROM documents), {frag}, "
        f"n AS (SELECT doc_id, source, ({case}) // 10000 + "
        f"CASE WHEN hv % 10000 < ({case}) % 10000 THEN 1 ELSE 0 END AS n_copies "
        f"FROM {final}) "
        "SELECT doc_id, source, CAST(u.c AS BIGINT) AS copy "
        "FROM n, UNNEST(range(0, n_copies)) AS u(c)"
    )


def corpus_curate(sf_dir: str, *, seed: int = _SAMPLE_SEED) -> ray.data.Dataset:
    """End-to-end curation composite — the three-stage pipeline a
    training-data team actually ships, chained over ONE corpus scan:
    Gopher quality gate → exact content dedup (min-doc_id winner) →
    per-language stratified hash downsample.

    Scale shape: stage A is stateless vectorized scoring fused with the
    scan plus a batch-local dedup combiner (same-batch clones never reach
    the shuffle); the ONLY exchange is the content-hash grouped dedup
    (``grouped_block_dedup`` — zero per-group dispatch); stage C is a pure
    per-row hash-threshold keep, so adding the sampler costs nothing.
    Composing operators adds NO driver state and no extra all-to-all —
    the composite's exchange count equals its dedup member's.

    Output: (doc_id, lang) of the curated corpus.  The SQL oracle chains
    the three members' replays (gopher CTE → GROUP BY text → fmix32
    threshold), so the whole funnel is hash-checked end-to-end."""
    import hashlib

    ensure_picklable()
    from .util import grouped_block_dedup
    from .web_ops import gopher_scores

    _A_EMPTY = {"doc_id": "int64", "lang": "object", "text_sha": "object"}

    def stage_a(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {c: pd.Series([], dtype=t) for c, t in _A_EMPTY.items()}
            )
        keep = gopher_scores(df[["doc_id", "text"]])["keep"].to_numpy() == 1
        out = df.loc[keep, ["doc_id", "lang", "text"]].copy()
        out["text_sha"] = [
            hashlib.sha1(t.encode("utf-8")).hexdigest() for t in out["text"]
        ]
        # batch-local combiner: same-batch clones drop before the exchange
        out = out.sort_values(["text_sha", "doc_id"], kind="mergesort")
        out = out.groupby("text_sha", sort=False).head(1)
        out["doc_id"] = out["doc_id"].astype("int64")
        return out[["doc_id", "lang", "text_sha"]]

    def stage_c(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "lang": pd.Series([], dtype="object"),
                }
            )
        ids = df["doc_id"].to_numpy().astype(np.uint64)
        h = fmix32_np((ids % _M32) ^ np.uint64(seed))
        thr = (
            df["lang"].map(SAMPLE_RATES_PER_10K)
            .fillna(_SAMPLE_DEFAULT_10K)
            .to_numpy(dtype="int64")
        )
        m = (h % np.uint32(10000)).astype("int64") < thr
        out = df.loc[m, ["doc_id", "lang"]].copy()
        out["doc_id"] = out["doc_id"].astype("int64")
        return out

    ds = read_table(sf_dir, "documents", columns=["doc_id", "lang", "text"])
    quality = ds.map_batches(stage_a, batch_format="pandas")
    unique = grouped_block_dedup(quality, ["text_sha"], order=["doc_id"])
    return unique.map_batches(stage_c, batch_format="pandas")


def sql_corpus_curate(seed: int = _SAMPLE_SEED) -> str:
    from .web_ops import sql_gopher_filter

    frag, final = _fmix32_ctes("fx", "fsrc", ["doc_id, lang"], "hin", "hv")
    case = "CASE lang " + " ".join(
        f"WHEN '{lang}' THEN {thr}"
        for lang, thr in sorted(SAMPLE_RATES_PER_10K.items())
    ) + f" ELSE {_SAMPLE_DEFAULT_10K} END"
    return (
        f"WITH g AS ({sql_gopher_filter()}), "
        "q AS (SELECT d.doc_id, d.lang, d.text FROM documents d "
        "JOIN g ON g.doc_id = d.doc_id AND g.keep = 1), "
        "u AS (SELECT MIN(doc_id) AS doc_id, text FROM q GROUP BY text), "
        "j AS (SELECT u.doc_id, d.lang FROM u "
        "JOIN documents d ON d.doc_id = u.doc_id), "
        f"fsrc AS (SELECT doc_id, lang, xor(doc_id % {_M32}, {seed}) AS hin "
        "FROM j), "
        f"{frag} "
        f"SELECT doc_id, lang FROM {final} WHERE hv % 10000 < {case}"
    )


def curate_dup_losers_ds(sf_dir: str) -> ray.data.Dataset:
    """The one corpus-GLOBAL decision inside ``corpus_curate``: among
    quality-passing docs, the doc_ids that LOSE the exact-content dedup
    (everything except each text's min doc_id).  Loser-count-sized —
    empty on a clean corpus — and the only state a resumable curate run
    needs to checkpoint: the quality gate and the sampler are stateless
    per-row and recompute per bucket for free."""
    import hashlib

    ensure_picklable()
    from .web_ops import gopher_scores

    def stage_a(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "text_sha": pd.Series([], dtype="object"),
                }
            )
        keep = gopher_scores(df[["doc_id", "text"]])["keep"].to_numpy() == 1
        out = df.loc[keep, ["doc_id", "text"]].copy()
        out["text_sha"] = [
            hashlib.sha1(t.encode("utf-8")).hexdigest() for t in out["text"]
        ]
        out["doc_id"] = out["doc_id"].astype("int64")
        return out[["doc_id", "text_sha"]]

    def losers(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
        df = df.sort_values(["text_sha", "doc_id"], kind="mergesort")
        lose = df.duplicated("text_sha", keep="first")
        return pd.DataFrame({"doc_id": df.loc[lose, "doc_id"].astype("int64")})

    ds = read_table(sf_dir, "documents", columns=["doc_id", "text"])
    q = ds.map_batches(stage_a, batch_format="pandas")
    # sort by EXACTLY the dedup key (colocation invariant, util.py)
    return colocate(q, ["text_sha"], losers)


def curate_keep_mask(df: pd.DataFrame, losers: frozenset, seed: int) -> pd.DataFrame:
    """Stateless per-bucket finish of ``corpus_curate``: gopher gate ∧
    not-a-dedup-loser ∧ stratified hash sample.  Shared by the plain and
    resumable paths so they stay decision-identical."""
    from .web_ops import gopher_scores

    if len(df) == 0:
        return pd.DataFrame(
            {
                "doc_id": pd.Series([], dtype="int64"),
                "lang": pd.Series([], dtype="object"),
            }
        )
    quality = gopher_scores(df[["doc_id", "text"]])["keep"].to_numpy() == 1
    ids64 = df["doc_id"].astype("int64")
    not_loser = ~ids64.isin(losers).to_numpy()
    ids = ids64.to_numpy().astype(np.uint64)
    h = fmix32_np((ids % _M32) ^ np.uint64(seed))
    thr = (
        df["lang"].map(SAMPLE_RATES_PER_10K)
        .fillna(_SAMPLE_DEFAULT_10K)
        .to_numpy(dtype="int64")
    )
    sampled = (h % np.uint32(10000)).astype("int64") < thr
    m = quality & not_loser & sampled
    return pd.DataFrame(
        {"doc_id": ids64[m].to_numpy(), "lang": df["lang"].to_numpy(dtype=object)[m]}
    )
