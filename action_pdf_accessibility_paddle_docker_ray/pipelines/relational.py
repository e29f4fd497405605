"""Relational operator demos over the driver's TPC-H-ish tables.

Every op here has a matching ANSI-SQL oracle in ``__ray_entry__.oracle_sql``
(column names match exactly).  Design rules applied throughout:

- column pruning at the read;
- pre-aggregation (combiner) inside ``map_batches`` before any ``groupby``
  so the shuffle carries partials, not rows;
- broadcast of small join sides via ``ray.put`` (no shuffle join);
- aggregates chosen to be bit-reproducible under parallelism (counts,
  integer sums, min/max); float sums are rounded in BOTH engines.
"""

from __future__ import annotations

import pandas as pd
import pyarrow.parquet as pq
import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from .. import ensure_picklable
from ..sources.pages import read_table
from .util import colocate, grouped_block_dedup, grouped_block_map

SESSION_GAP_US = 30 * 60 * 1_000_000  # 30 minutes


def lineitem_agg(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q1-shaped pruned-scan aggregate (exact-reproducible aggregates)."""
    ensure_picklable()
    import pyarrow.compute as pc

    ds = read_table(
        sf_dir, "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_shipdate"],
    )
    cutoff = pd.Timestamp("1998-09-02")

    def partial(t) -> pd.DataFrame:
        # filter + per-batch combiner: the shuffle carries a handful of
        # partial rows per batch instead of every lineitem row
        df = t.filter(pc.less_equal(t["l_shipdate"], cutoff.to_datetime64())).to_pandas()
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=True).agg(
            p_qty=("l_quantity", "sum"), p_n=("l_quantity", "size"),
            p_min=("l_extendedprice", "min"), p_max=("l_extendedprice", "max"),
        )
        return g.reset_index()

    partials = ds.map_batches(partial, batch_format="pyarrow")
    agg = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("p_qty", alias_name="sum_qty"),
        Sum("p_n", alias_name="count_order"),
        Min("p_min", alias_name="min_price"),
        Max("p_max", alias_name="max_price"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["count_order"] = df["count_order"].astype("int64")
        return df

    return agg.map_batches(finish, batch_format="pandas")


def segment_revenue(sf_dir: str) -> ray.data.Dataset:
    """orders ⋈ customer via BROADCAST (customer is the small side): revenue
    per market segment.  ``ray.put`` once, dict lookup per batch — no shuffle
    join; per-batch combiner then a tiny groupby of partials."""
    ensure_picklable()
    customer = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    seg_map = dict(zip(customer["c_custkey"].to_pylist(), customer["c_mktsegment"].to_pylist()))
    seg_ref = ray.put(seg_map)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        seg = ray.get(seg_ref)
        df = df.assign(c_mktsegment=df["o_custkey"].map(seg))
        g = df.groupby("c_mktsegment", sort=True).agg(
            part_n=("o_orderkey", "count"), part_rev=("o_totalprice", "sum")
        )
        return g.reset_index()

    ds = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    partials = ds.map_batches(partial, batch_format="pandas")
    agg = partials.groupby("c_mktsegment").aggregate(
        Sum("part_n", alias_name="n_orders"), Sum("part_rev", alias_name="rev_raw")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_mktsegment": df["c_mktsegment"],
                "n_orders": df["n_orders"].astype("int64"),
                "revenue": df["rev_raw"].round(2),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def part_brand_stats(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "part", columns=["p_brand", "p_retailprice", "p_size"])
    return ds.groupby("p_brand").aggregate(
        Count(alias_name="n_parts"),
        Max("p_retailprice", alias_name="max_price"),
        Min("p_size", alias_name="min_size"),
    )


def top_longest(sf_dir: str) -> ray.data.Dataset:
    """Top-10 docs by length — distributed sort + limit (deterministic
    tie-break on doc_id)."""
    ds = read_table(sf_dir, "documents", columns=["doc_id", "n_chars"])
    return ds.sort(["n_chars", "doc_id"], descending=[True, False]).limit(10)


def lang_stats(sf_dir: str) -> ray.data.Dataset:
    ds = read_table(sf_dir, "documents", columns=["lang", "n_chars"])
    agg = ds.groupby("lang").aggregate(
        Count(alias_name="n_docs"),
        Sum("n_chars", alias_name="total_chars"),
        Min("n_chars", alias_name="min_chars"),
        Max("n_chars", alias_name="max_chars"),
    )
    return agg


def events_window(sf_dir: str) -> ray.data.Dataset:
    """Tumbling 1-hour window per event_type: exact-reproducible aggregates.

    Windowing = pure column transform (epoch-hour bucket) + groupby — the
    Ray-Data-native shape for fixed windows (no watermark semantics in the
    batch reference; SURVEY.md §2.9)."""
    ensure_picklable()

    def partial(df: pd.DataFrame) -> "pa.Table":
        # bucket + per-batch combiner (shuffle carries window partials).
        # ARROW block out: Ray's aggregate over pandas blocks pays a
        # per-group Python dispatch (~27x measured at 60k groups)
        import pyarrow as pa

        ts = df["ts"].astype("datetime64[us]").astype("int64")  # epoch us
        df = df.assign(hour_epoch=(ts // 3_600_000_000) * 3600)
        g = df.groupby(["event_type", "hour_epoch"], sort=True).agg(
            p_n=("value", "size"), p_min=("value", "min"), p_max=("value", "max")
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    ds = read_table(sf_dir, "events", columns=["event_type", "ts", "value"])
    partials = ds.map_batches(partial, batch_format="pandas")
    agg = partials.groupby(["event_type", "hour_epoch"]).aggregate(
        Sum("p_n", alias_name="n_events"),
        Min("p_min", alias_name="min_value"),
        Max("p_max", alias_name="max_value"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["n_events"] = df["n_events"].astype("int64")
        return df

    return agg.map_batches(finish, batch_format="pandas")


def events_sessionize(sf_dir: str) -> ray.data.Dataset:
    """Session windows (30-min inactivity gap) per user.

    ``groupby(user_id).map_groups`` with a within-group ts sort — the
    documented Ray Data pattern for stream-shaped session logic; ordering
    assumption: rows of one user fit one group (true by construction of the
    hash shuffle)."""
    ensure_picklable()

    def sessions(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values("ts", kind="mergesort")
        ts_us = df["ts"].astype("datetime64[us]").astype("int64")
        new_session = (ts_us.diff().fillna(SESSION_GAP_US + 1) > SESSION_GAP_US).astype("int64")
        session_id = new_session.cumsum()
        out = (
            pd.DataFrame(
                {
                    "user_id": df["user_id"].to_numpy(),
                    "session_id": session_id.to_numpy(),
                    "ts_us": ts_us.to_numpy(),
                }
            )
            .groupby(["user_id", "session_id"], sort=True)
            .agg(n_events=("ts_us", "size"), session_start_us=("ts_us", "min"),
                 session_end_us=("ts_us", "max"))
            .reset_index()
        )
        out["n_events"] = out["n_events"].astype("int64")
        return out

    ds = read_table(sf_dir, "events", columns=["user_id", "ts"])
    return grouped_block_map(ds, ["user_id"], sessions)


def events_sliding(sf_dir: str) -> ray.data.Dataset:
    """Sliding 1-hour windows with a 30-min hop per event_type.

    Each event belongs to exactly two windows (hop = size/2); the explode
    is a pure column transform + the same partial-aggregate shape as the
    tumbling window — the Ray-Data-native sliding-window pattern."""
    ensure_picklable()

    def partial(df: pd.DataFrame) -> "pa.Table":
        # Arrow block out — same per-group aggregate win as events_window
        import pyarrow as pa

        ts = df["ts"].astype("datetime64[us]").astype("int64")
        base = (ts // 1_800_000_000) * 1800  # 30-min slot, epoch seconds
        rows = pd.concat([
            pd.DataFrame({"event_type": df["event_type"], "window_start": base}),
            pd.DataFrame({"event_type": df["event_type"], "window_start": base - 1800}),
        ])
        g = rows.groupby(["event_type", "window_start"], sort=True).size()
        return pa.Table.from_pandas(
            g.rename("p_n").reset_index(), preserve_index=False
        )

    ds = read_table(sf_dir, "events", columns=["event_type", "ts"])
    agg = ds.map_batches(partial, batch_format="pandas").groupby(
        ["event_type", "window_start"]
    ).aggregate(Sum("p_n", alias_name="n_events"))

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        df["n_events"] = df["n_events"].astype("int64")
        df["window_start"] = df["window_start"].astype("int64")
        return df

    return agg.map_batches(finish, batch_format="pandas")


_HLL_P = 12  # 4096 registers per sketch → ~1.6% standard error


def _hll_registers(values, p: int) -> "np.ndarray":
    """Vectorized HyperLogLog register array for one batch of values
    (Flajolet et al. 2007, public method).  Hash = splitmix64 over the
    stable pandas string hash; register = top p bits; rank = leading-zero
    count of the rest + 1."""
    import numpy as np

    from ..functions.bloom import _splitmix64, hash_urls

    m = 1 << p
    regs = np.zeros(m, dtype=np.int8)
    if len(values) == 0:
        return regs
    h = _splitmix64(hash_urls(np.asarray(values, dtype=object)))
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    w = h << np.uint64(p)  # remaining 64-p bits at the top of a 64-bit word
    # rank = leading zeros of w within 64-p bits, +1; w == 0 → max rank
    with np.errstate(divide="ignore"):
        lz = np.where(
            w > 0, np.uint64(63) - np.floor(np.log2(w.astype(np.float64))).astype(np.uint64),
            np.uint64(64 - p),
        ).astype(np.int64)
    rank = np.minimum(lz + 1, 64 - p + 1).astype(np.int8)
    np.maximum.at(regs, idx, rank)
    return regs


def _hll_estimate(regs: "np.ndarray") -> int:
    """Bias-corrected HLL estimate with the small-range linear-counting
    correction (the standard published estimator)."""
    import math

    import numpy as np

    m = len(regs)
    alpha = 0.7213 / (1 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    return int(round(est))


def distinct_stats(sf_dir: str, *, exact: bool = True) -> "pd.DataFrame":
    """Distinct counts over events (n_users, n_event_types).

    ``exact=True`` (default, SQL-oracled): per-batch distinct (kind, value)
    combiner → one grouped exchange that dedups globally → per-block
    per-kind partial counts.  The driver only sums the (blocks × 2) tiny
    count partials — never a key set (round 1 merged every distinct key
    into a driver-side Python set, unbounded at 10^12 keys).

    ``exact=False``: HyperLogLog sketch — each batch emits two fixed-size
    (2^p-register) partials, the driver folds them with an elementwise
    max (mergeable, order-free), and nothing key-shaped ever exchanges or
    reaches the driver.  The path for 10^12-key cardinalities where even
    the deduped (kind, value) exchange is too wide; ~1.6% standard error
    at p=12 (documented, tested on sf0.1)."""
    ensure_picklable()
    import numpy as np

    if not exact:
        def sketch(df: pd.DataFrame) -> pd.DataFrame:
            u = _hll_registers(df["user_id"].astype("int64").astype(str).to_numpy(object), _HLL_P)
            t = _hll_registers(df["event_type"].astype(str).to_numpy(object), _HLL_P)
            return pd.DataFrame({"kind": ["u", "t"], "regs": [u.tobytes(), t.tobytes()]})

        ds_s = read_table(sf_dir, "events", columns=["user_id", "event_type"])
        folded = {"u": np.zeros(1 << _HLL_P, dtype=np.int8),
                  "t": np.zeros(1 << _HLL_P, dtype=np.int8)}
        parts = ds_s.map_batches(sketch, batch_format="pandas")
        for batch in parts.iter_batches(batch_format="pandas"):
            for kind, blob in zip(batch["kind"], batch["regs"]):
                np.maximum(
                    folded[kind], np.frombuffer(blob, dtype=np.int8), out=folded[kind]
                )
        return pd.DataFrame(
            {"n_users": pd.Series([_hll_estimate(folded["u"])], dtype="int64"),
             "n_event_types": pd.Series([_hll_estimate(folded["t"])], dtype="int64")}
        )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        u = df["user_id"].unique()
        t = df["event_type"].unique()
        return pd.DataFrame(
            {
                "kind": ["u"] * len(u) + ["t"] * len(t),
                "val": [str(int(x)) for x in u] + [str(x) for x in t],
            }
        )

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    # rows of one (kind, val) are identical -> vectorized block dedup
    # (per-group head(1) costs ~0.1 ms/group; groups = distinct values)
    distinct = grouped_block_dedup(
        ds.map_batches(partial, batch_format="pandas"), ["kind", "val"]
    )
    counts = distinct.map_batches(
        lambda df: df.groupby("kind", sort=True).size().rename("n").reset_index(),
        batch_format="pandas",
    ).to_pandas()
    agg = counts.groupby("kind")["n"].sum()
    return pd.DataFrame(
        {"n_users": pd.Series([int(agg.get("u", 0))], dtype="int64"),
         "n_event_types": pd.Series([int(agg.get("t", 0))], dtype="int64")}
    )


def events_top3_per_user(sf_dir: str) -> ray.data.Dataset:
    """Grouped top-k (window ranking): each user's 3 highest-value events.

    Per-batch combiner keeps only each batch's local top-3 per user before
    the one grouped exchange — the shuffle carries ≤ 3 rows per (user,
    batch) instead of the full events table."""
    ensure_picklable()

    def local_top(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["user_id", "value", "event_id"],
                            ascending=[True, False, True], kind="mergesort")
        return df.groupby("user_id", sort=False).head(3)

    def rank_group(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["value", "event_id"], ascending=[False, True],
                          kind="mergesort").head(3)
        return pd.DataFrame(
            {
                "user_id": g["user_id"].astype("int64").to_numpy(),
                "event_id": g["event_id"].astype("int64").to_numpy(),
                "rk": pd.RangeIndex(1, len(g) + 1).to_numpy().astype("int64"),
            }
        )

    ds = read_table(sf_dir, "events", columns=["user_id", "event_id", "value"])
    ds = ds.map_batches(local_top, batch_format="pandas")
    return grouped_block_map(ds, ["user_id"], rank_group)


def quality_filter(sf_dir: str) -> ray.data.Dataset:
    """Composed quality-gate: keep docs passing stopword/punct/length
    thresholds (the training-data corpus filter shape); SQL-checked."""
    ensure_picklable()

    def flt(df: pd.DataFrame) -> pd.DataFrame:
        text = df["text"]
        n_stop = text.str.count(r"\b(?:the|a|and|of|to|in|is)\b")
        n_chars = text.str.len()
        keep = (n_stop >= 2) & (n_chars >= 150)
        return pd.DataFrame({"doc_id": df["doc_id"][keep].astype("int64")})

    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        flt, batch_format="pandas"
    )


def _nation_year_fine(sf_dir: str) -> tuple[pd.DataFrame, dict]:
    """Shared fine-level scan for the ROLLUP/CUBE aggregates: one
    corpus-sized pass over orders with per-batch (nationkey, year)
    combiner partials into one grouped exchange; the fine-level result is
    ≤ 25·n_years rows by construction.  Returns (fine_df with columns
    natkey/o_year/n_raw/rev_raw, nationkey→name dict)."""
    customer = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_nationkey"]
    )
    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nat_map = dict(
        zip(customer["c_custkey"].to_pylist(), customer["c_nationkey"].to_pylist())
    )
    nat_names = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )
    nat_ref = ray.put(nat_map)

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        nm = ray.get(nat_ref)
        g = (
            pd.DataFrame(
                {
                    "natkey": df["o_custkey"].map(nm).astype("int64"),
                    "o_year": df["o_orderdate"].dt.year.astype("int64"),
                    "price": df["o_totalprice"].astype("float64"),
                }
            )
            .groupby(["natkey", "o_year"], as_index=False, sort=False)
            .agg(p_n=("price", "size"), p_rev=("price", "sum"))
        )
        return g

    orders = read_table(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )
    fine = (
        # block-sized batches: one vectorized combiner pass per block
        orders.map_batches(partial, batch_format="pandas", batch_size=None)
        .groupby(["natkey", "o_year"])
        .aggregate(Sum("p_n", alias_name="n_raw"), Sum("p_rev", alias_name="rev_raw"))
        .to_pandas()  # ≤ 25·n_years rows by construction
    )
    return fine, nat_names


def nation_year_rollup(sf_dir: str) -> pd.DataFrame:
    """Revenue by (customer nation, order year) with ROLLUP subtotals —
    the multi-level aggregate shape (fine level + per-nation totals +
    grand total) computed from ONE corpus exchange.

    Scale plan: customer's custkey→nationkey map and nation's ≤25-entry
    name map broadcast once; orders is the only corpus-sized scan, and
    each batch combines to (nationkey, year, partial_n, partial_rev)
    before the one grouped exchange (``_nation_year_fine``).  The two
    coarser ROLLUP levels are re-aggregated from the FINE-LEVEL RESULT
    (≤ 25·n_years rows — driver-side by construction), never from a
    second corpus pass.

    Output: (n_name, o_year, n_orders, revenue); subtotal rows carry
    n_name='ALL' / o_year=-1, mirroring the SQL oracle's COALESCE over
    GROUP BY ROLLUP.
    """
    ensure_picklable()
    fine, nat_names = _nation_year_fine(sf_dir)

    if len(fine) == 0:
        # SQL ROLLUP over zero rows emits zero rows (no grand-total row)
        return pd.DataFrame(
            {
                "n_name": pd.Series([], dtype="object"),
                "o_year": pd.Series([], dtype="int64"),
                "n_orders": pd.Series([], dtype="int64"),
                "revenue": pd.Series([], dtype="float64"),
            }
        )

    nat_level = fine.groupby("natkey", as_index=False).agg(
        n_raw=("n_raw", "sum"), rev_raw=("rev_raw", "sum")
    )
    nat_level["o_year"] = -1
    total = pd.DataFrame(
        {
            "natkey": [-1],
            "o_year": [-1],
            "n_raw": [fine["n_raw"].sum()],
            "rev_raw": [fine["rev_raw"].sum()],
        }
    )
    out = pd.concat([fine, nat_level, total], ignore_index=True)
    return pd.DataFrame(
        {
            "n_name": out["natkey"].map(lambda k: nat_names.get(k, "ALL")),
            "o_year": out["o_year"].astype("int64"),
            "n_orders": out["n_raw"].astype("int64"),
            "revenue": out["rev_raw"].round(2),
        }
    )


def sql_nation_year_rollup() -> str:
    return (
        "SELECT COALESCE(n.n_name, 'ALL') AS n_name, "
        "COALESCE(CAST(year(o.o_orderdate) AS BIGINT), -1) AS o_year, "
        "COUNT(*) AS n_orders, ROUND(SUM(o.o_totalprice), 2) AS revenue "
        "FROM orders o "
        "JOIN customer c ON o.o_custkey = c.c_custkey "
        "JOIN nation n ON n.n_nationkey = c.c_nationkey "
        "GROUP BY ROLLUP (n.n_name, CAST(year(o.o_orderdate) AS BIGINT))"
    )


def events_user_running(sf_dir: str) -> ray.data.Dataset:
    """Ordered per-key window functions: ROW_NUMBER, running SUM and LAG
    over each user's time-ordered event stream — the feature-engineering
    shape SQL writes as ``f(...) OVER (PARTITION BY user ORDER BY ts)``,
    and the one windowed-analytics member (ordered intra-group scan) the
    tumbling/sliding/session ops above don't cover.

    Scale plan: ONE sort exchange keyed on exactly ``[user_id]`` (the
    colocation invariant, ``util.py`` — every user's rows arrive complete
    in one block), then the whole window computation is vectorized inside
    the block: an in-block ``sort_values`` completes the (ts, event_id)
    order and cythonized groupby ``cumcount``/``cumsum``/``shift`` produce
    all three functions with zero per-group Python dispatch and zero
    further exchanges.  Values fold in integer milli-units so the running
    sum is bit-exact cross-engine (``floor(v*1000 + 0.5)`` in both).

    Output: (event_id, user_id, rn, cum_milli, prev_milli); ``prev_milli``
    is 0 on each user's first event (SQL ``COALESCE(LAG(..), 0)``).
    """
    import numpy as np

    ensure_picklable()

    def window(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "user_id": pd.Series([], dtype="int64"),
                    "rn": pd.Series([], dtype="int64"),
                    "cum_milli": pd.Series([], dtype="int64"),
                    "prev_milli": pd.Series([], dtype="int64"),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        v = np.floor(
            df["value"].to_numpy(dtype="float64") * 1000.0 + 0.5
        ).astype("int64")
        df = df.assign(v_milli=v)
        g = df.groupby("user_id", sort=False)
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64").to_numpy(),
                "user_id": df["user_id"].astype("int64").to_numpy(),
                "rn": (g.cumcount() + 1).to_numpy().astype("int64"),
                "cum_milli": g["v_milli"].cumsum().to_numpy().astype("int64"),
                "prev_milli": g["v_milli"]
                .shift(fill_value=0)
                .to_numpy()
                .astype("int64"),
            }
        )

    ds = read_table(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])
    # sort by EXACTLY the partition key (colocation invariant, util.py)
    return colocate(ds, ["user_id"], window)


def sql_events_user_running() -> str:
    return (
        "SELECT event_id, user_id, "
        "CAST(ROW_NUMBER() OVER w AS BIGINT) AS rn, "
        "CAST(SUM(v_milli) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING) AS BIGINT) AS cum_milli, "
        "CAST(COALESCE(LAG(v_milli) OVER w, 0) AS BIGINT) AS prev_milli "
        "FROM (SELECT event_id, user_id, ts, "
        "CAST(floor(value * 1000 + 0.5) AS BIGINT) AS v_milli FROM events) "
        "WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)"
    )


_DAY_US = 86400 * 1_000_000
_FUNNEL_WINDOW_US = _DAY_US  # conversion window per funnel stage


def events_funnel(sf_dir: str) -> pd.DataFrame:
    """Sequential windowed funnel — users who did view, THEN click within
    one day, THEN purchase within one day of that (the product-analytics
    ordered-pattern-match shape; SQL needs a cascade of correlated
    min-joins).  The window makes the op discriminate: at sf0.01 the
    stages are 150 → 60 → 25, not 150 → 150 → 150.

    Scale plan: ONE sort exchange on exactly ``[user_id]`` (colocation
    invariant — each user's history arrives complete in one block), then
    the whole cascade is vectorized inside the block: three filtered
    groupby-min passes chained by merges, no per-user Python.  Each block
    emits only its 3 stage counts; the driver folds ≤ 3·num_blocks rows.

    Output: (stage, n_users) — stage 1 = first 'view', 2 = 'click' after
    it, 3 = 'purchase' after that."""
    import numpy as np

    ensure_picklable()

    def stages(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "stage": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        us = df["ts"].astype("int64")
        df = df.assign(us=us)
        t1 = (
            df[df["event_type"] == "view"]
            .groupby("user_id", sort=False)["us"]
            .min()
            .rename("t1")
        )
        c = df[df["event_type"] == "click"].merge(
            t1, left_on="user_id", right_index=True
        )
        t2 = (
            c[(c["us"] > c["t1"]) & (c["us"] - c["t1"] <= _FUNNEL_WINDOW_US)]
            .groupby("user_id", sort=False)["us"]
            .min()
            .rename("t2")
        )
        p = df[df["event_type"] == "purchase"].merge(
            t2, left_on="user_id", right_index=True
        )
        t3 = (
            p[(p["us"] > p["t2"]) & (p["us"] - p["t2"] <= _FUNNEL_WINDOW_US)]
            .groupby("user_id", sort=False)["us"]
            .min()
        )
        return pd.DataFrame(
            {
                "stage": np.array([1, 2, 3], dtype="int64"),
                "n": np.array([len(t1), len(t2), len(t3)], dtype="int64"),
            }
        )

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    # <= 3 rows per block by construction
    part = colocate(ds, ["user_id"], stages).to_pandas()
    if len(part) == 0:
        part = pd.DataFrame({"stage": [1, 2, 3], "n": [0, 0, 0]})
    out = part.groupby("stage", as_index=False)["n"].sum()
    return pd.DataFrame(
        {
            "stage": out["stage"].astype("int64"),
            "n_users": out["n"].astype("int64"),
        }
    )


def sql_events_funnel() -> str:
    w = _FUNNEL_WINDOW_US
    return (
        "WITH t1 AS (SELECT user_id, MIN(epoch_us(ts)) AS t FROM events "
        "WHERE event_type = 'view' GROUP BY user_id), "
        "t2 AS (SELECT e.user_id, MIN(epoch_us(e.ts)) AS t FROM events e "
        "JOIN t1 ON e.user_id = t1.user_id AND epoch_us(e.ts) > t1.t "
        f"AND epoch_us(e.ts) - t1.t <= {w} "
        "WHERE e.event_type = 'click' GROUP BY e.user_id), "
        "t3 AS (SELECT e.user_id, MIN(epoch_us(e.ts)) AS t FROM events e "
        "JOIN t2 ON e.user_id = t2.user_id AND epoch_us(e.ts) > t2.t "
        f"AND epoch_us(e.ts) - t2.t <= {w} "
        "WHERE e.event_type = 'purchase' GROUP BY e.user_id) "
        "SELECT CAST(stage AS BIGINT) AS stage, CAST(n_users AS BIGINT) AS n_users "
        "FROM (VALUES (1, (SELECT COUNT(*) FROM t1)), "
        "(2, (SELECT COUNT(*) FROM t2)), "
        "(3, (SELECT COUNT(*) FROM t3))) AS v(stage, n_users)"
    )


def cohort_retention(sf_dir: str) -> ray.data.Dataset:
    """Cohort retention matrix — users grouped by first-activity day,
    counted per day-offset of subsequent PURCHASE activity (the
    growth-analytics triangle table; purchase-day granularity makes the
    matrix discriminate — counts vary 1–62 at sf0.01 instead of
    saturating at the full user count).

    Scale plan: ONE sort exchange on exactly ``[user_id]``; inside the
    block each user's cohort day (min ts over ALL events) and distinct
    purchase days are pure vectorized groupby/drop_duplicates, emitting
    one (cohort_day, day_offset) row per distinct (user, purchase day) —
    already the per-batch combiner granularity — then one
    (cohort, offset)-cardinality grouped exchange sums the counts.  Day
    arithmetic is integer epoch-μs floor division, bit-identical in both
    engines.

    Output: (cohort_day, day_offset, n_users)."""
    ensure_picklable()

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "cohort_day": pd.Series([], dtype="int64"),
                    "day_offset": pd.Series([], dtype="int64"),
                    "c": pd.Series([], dtype="int64"),
                }
            )
        dy = df["ts"].astype("int64").to_numpy() // _DAY_US
        t = pd.DataFrame(
            {
                "user_id": df["user_id"].to_numpy(),
                "dy": dy,
                "purch": (df["event_type"] == "purchase").to_numpy(),
            }
        )
        cd = t.groupby("user_id", sort=False)["dy"].transform("min")
        t = t.assign(cohort_day=cd)
        t = t[t["purch"]].drop_duplicates(["user_id", "dy"])
        if len(t) == 0:
            return pd.DataFrame(
                {
                    "cohort_day": pd.Series([], dtype="int64"),
                    "day_offset": pd.Series([], dtype="int64"),
                    "c": pd.Series([], dtype="int64"),
                }
            )
        g = (
            t.assign(day_offset=t["dy"] - t["cohort_day"])
            .groupby(["cohort_day", "day_offset"], as_index=False, sort=False)
            .size()
        )
        return pd.DataFrame(
            {
                "cohort_day": g["cohort_day"].astype("int64"),
                "day_offset": g["day_offset"].astype("int64"),
                "c": g["size"].astype("int64"),
            }
        )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "cohort_day": pd.Series([], dtype="int64"),
                    "day_offset": pd.Series([], dtype="int64"),
                    "n_users": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby(["cohort_day", "day_offset"], as_index=False, sort=False)[
            "c"
        ].sum()
        return pd.DataFrame(
            {
                "cohort_day": g["cohort_day"].astype("int64"),
                "day_offset": g["day_offset"].astype("int64"),
                "n_users": g["c"].astype("int64"),
            }
        )

    ds = read_table(sf_dir, "events", columns=["user_id", "ts", "event_type"])
    part = colocate(ds, ["user_id"], per_user)
    # exchange 2: (cohort, offset)-cardinality — days, not events
    return colocate(part, ["cohort_day", "day_offset"], fold)


def sql_cohort_retention() -> str:
    return (
        "WITH f AS (SELECT user_id, MIN(epoch_us(ts)) AS ft FROM events "
        "GROUP BY user_id), "
        f"a AS (SELECT DISTINCT e.user_id, epoch_us(e.ts) // {_DAY_US} AS dy, "
        f"f.ft // {_DAY_US} AS cd "
        "FROM events e JOIN f ON e.user_id = f.user_id "
        "WHERE e.event_type = 'purchase') "
        "SELECT CAST(cd AS BIGINT) AS cohort_day, "
        "CAST(dy - cd AS BIGINT) AS day_offset, "
        "COUNT(*) AS n_users FROM a GROUP BY cd, dy"
    )


def type_distinct_users(sf_dir: str, *, exact: bool = True) -> pd.DataFrame:
    """GROUPED distinct counting — distinct users per event_type; the
    per-key sibling of ``distinct_stats``'s global count, completing the
    sketch family's grouped dimension.

    ``exact=True`` (SQL-oracled): per-batch distinct (event_type, user_id)
    combiner → ``grouped_block_dedup`` global dedup (the one exchange,
    sized by distinct pairs — the op's intrinsic cost) → per-block
    per-type count partials; the driver folds ≤ types·blocks tiny rows.

    ``exact=False``: HyperLogLog PER GROUP — each batch emits one
    fixed-size 2^p-register row per event_type present, the driver folds
    register rows with a per-type elementwise max (mergeable, order- and
    partition-free), so nothing user-shaped ever exchanges or reaches the
    driver.  The 10^12-key path for group×key cardinalities where even
    the deduped pair exchange is too wide; pytest pins the estimate
    against the exact mode (~1.6% σ at p=12).

    Output: (event_type, n_users)."""
    import numpy as np

    ensure_picklable()
    from .util import grouped_block_dedup

    ds = read_table(sf_dir, "events", columns=["event_type", "user_id"])

    if not exact:
        p = 12

        def sketch(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {
                        "event_type": pd.Series([], dtype="object"),
                        "regs": pd.Series([], dtype="object"),
                    }
                )
            out_t, out_r = [], []
            for t, g in df.groupby("event_type", sort=False):
                out_t.append(t)
                out_r.append(
                    _hll_registers(
                        g["user_id"].astype(str).to_numpy(dtype=object), p
                    ).tobytes()
                )
            return pd.DataFrame({"event_type": out_t, "regs": out_r})

        parts = ds.map_batches(sketch, batch_format="pandas").to_pandas()
        if len(parts) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "n_users": pd.Series([], dtype="int64"),
                }
            )
        folded: dict[str, "np.ndarray"] = {}
        for t, rb in zip(parts["event_type"], parts["regs"]):
            r = np.frombuffer(rb, dtype=np.int8)
            folded[t] = np.maximum(folded[t], r) if t in folded else r.copy()
        items = sorted(folded.items())
        return pd.DataFrame(
            {
                "event_type": [t for t, _ in items],
                "n_users": pd.Series(
                    [_hll_estimate(r) for _, r in items], dtype="int64"
                ),
            }
        )

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "user_id": pd.Series([], dtype="int64"),
                }
            )
        return df.drop_duplicates(["event_type", "user_id"])[
            ["event_type", "user_id"]
        ]

    pairs = grouped_block_dedup(
        ds.map_batches(pair_partial, batch_format="pandas"),
        ["event_type", "user_id"],
    )

    def count_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "c": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby("event_type", sort=False).size().reset_index(name="c")
        g["c"] = g["c"].astype("int64")
        return g

    part = pairs.map_batches(count_partial, batch_format="pandas").to_pandas()
    if len(part) == 0:
        return pd.DataFrame(
            {
                "event_type": pd.Series([], dtype="object"),
                "n_users": pd.Series([], dtype="int64"),
            }
        )
    out = part.groupby("event_type", as_index=False)["c"].sum()
    out = out.sort_values("event_type").reset_index(drop=True)
    return pd.DataFrame(
        {"event_type": out["event_type"], "n_users": out["c"].astype("int64")}
    )


def sql_type_distinct_users() -> str:
    return (
        "SELECT event_type, COUNT(DISTINCT user_id) AS n_users "
        "FROM events GROUP BY event_type"
    )


def source_length_stats(sf_dir: str) -> ray.data.Dataset:
    """Exact per-source document-length moments — count, mean, population
    variance — from MERGEABLE integer moment partials (n, Σx, Σx²): the
    one-pass grouped-statistics shape (Welford/Chan parallel moments) that
    a 10^12-row profile job runs instead of two scans.

    Scale plan: each batch combines to one (source, n, s1, s2) row; ONE
    source-cardinality grouped exchange folds them (integer sums — exact,
    order-free under any parallelism); mean/variance derive from the
    folded integers in milli-units with floor division replayed
    identically in SQL.  Magnitude bound: s2 ≤ n·max(n_chars)² and the
    variance numerator 1000·(n·s2 − s1²) must stay < 2^63 — holds to
    ~10^6 docs/source at 10^4 chars; beyond that the partials switch to
    HUGEINT/float128 territory (documented, not needed at gate scale).

    Output: (source, n_docs, mean_milli, var_milli)."""
    import numpy as np

    ensure_picklable()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                    "s1": pd.Series([], dtype="int64"),
                    "s2": pd.Series([], dtype="int64"),
                }
            )
        x = df["n_chars"].astype("int64")
        g = (
            pd.DataFrame({"source": df["source"], "x": x, "x2": x * x})
            .groupby("source", as_index=False, sort=False)
            .agg(n=("x", "size"), s1=("x", "sum"), s2=("x2", "sum"))
        )
        for c in ("n", "s1", "s2"):
            g[c] = g[c].astype("int64")
        return g

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype="object"),
                    "n_docs": pd.Series([], dtype="int64"),
                    "mean_milli": pd.Series([], dtype="int64"),
                    "var_milli": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby("source", as_index=False, sort=False).agg(
            n=("n", "sum"), s1=("s1", "sum"), s2=("s2", "sum")
        )
        n = g["n"].to_numpy(dtype=np.int64)
        s1 = g["s1"].to_numpy(dtype=np.int64)
        s2 = g["s2"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "source": g["source"],
                "n_docs": n,
                "mean_milli": (1000 * s1) // n,
                "var_milli": (1000 * (n * s2 - s1 * s1)) // (n * n),
            }
        )

    ds = read_table(sf_dir, "documents", columns=["source", "n_chars"])
    # ONE source-cardinality grouped exchange; a million-host profile never
    # lands partial rows on the driver (colocation invariant on [source])
    return colocate(ds.map_batches(partial, batch_format="pandas"), ["source"], fold)


def sql_source_length_stats() -> str:
    return (
        "WITH m AS (SELECT source, CAST(COUNT(*) AS BIGINT) AS n, "
        "CAST(SUM(n_chars) AS BIGINT) AS s1, "
        "CAST(SUM(CAST(n_chars AS BIGINT) * n_chars) AS BIGINT) AS s2 "
        "FROM documents GROUP BY source) "
        "SELECT source, n AS n_docs, "
        "CAST((1000 * s1) // n AS BIGINT) AS mean_milli, "
        "CAST((1000 * (n * s2 - s1 * s1)) // (n * n) AS BIGINT) AS var_milli "
        "FROM m"
    )


def events_anomaly(sf_dir: str) -> ray.data.Dataset:
    """Per-type 3σ outlier detection over event values — the anomaly
    screen a telemetry pipeline runs, with the z-score test rewritten as
    EXACT INTEGER arithmetic: flag iff (n·v − s1)² > 9·n·(n·s2 − s1²)
    (multiply (v−μ)² > 9σ² through by n²; μ = s1/n, σ² = (n·s2 − s1²)/n²)
    — no division, no sqrt, bit-identical in both engines.

    Scale plan: per-type moments come from the same mergeable (n, Σv, Σv²)
    combiner partials as ``source_length_stats`` (one type-cardinality
    exchange, 5 rows here); the tiny moment table broadcasts via ray.put
    and the flagging pass is a zero-exchange streaming scan.  Magnitude
    bound: the test is evaluated square-free as |n·v − s1| >
    isqrt(9·(n·s2 − s1²)) with the per-type threshold an exact
    arbitrary-precision isqrt (provably ⟺ the squared form), so the
    int64 path only ever holds |n·v − s1| ≲ n·|v| — good to ~10¹³
    events/type at |v| ≤ 10⁶ milli (the round-4 squared form asserted
    out at sf0.1 magnitudes; this one runs it).  Remaining int64 ceiling
    is the per-batch Σv² partial (~10⁷ rows/batch at |v| ≤ 10⁶ milli);
    switch the partial to object-dtype past it (documented).

    Output: (event_id, event_type, v_milli, is_outlier)."""
    import numpy as np

    ensure_picklable()

    def v_milli_of(df: pd.DataFrame) -> "np.ndarray":
        return np.floor(
            df["value"].to_numpy(dtype="float64") * 1000.0 + 0.5
        ).astype("int64")

    def moment_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "event_type": pd.Series([], dtype="object"),
                    "n": pd.Series([], dtype="int64"),
                    "s1": pd.Series([], dtype="int64"),
                    "s2": pd.Series([], dtype="int64"),
                }
            )
        v = v_milli_of(df)
        g = (
            pd.DataFrame({"event_type": df["event_type"], "v": v, "v2": v * v})
            .groupby("event_type", as_index=False, sort=False)
            .agg(n=("v", "size"), s1=("v", "sum"), s2=("v2", "sum"))
        )
        for c in ("n", "s1", "s2"):
            g[c] = g[c].astype("int64")
        return g

    ds = read_table(sf_dir, "events", columns=["event_id", "event_type", "value"])
    part = ds.map_batches(moment_partial, batch_format="pandas").to_pandas()
    # type-cardinality fold (a handful of rows per block by construction)
    if len(part):
        m = part.groupby("event_type", as_index=False).agg(
            n=("n", "sum"), s1=("s1", "sum"), s2=("s2", "sum")
        )
        moments = {
            t: (int(n), int(s1), int(s2))
            for t, n, s1, s2 in zip(m["event_type"], m["n"], m["s1"], m["s2"])
        }
    else:
        moments = {}
    mref = ray.put(moments)

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "event_type": pd.Series([], dtype="object"),
                    "v_milli": pd.Series([], dtype="int64"),
                    "is_outlier": pd.Series([], dtype="int64"),
                }
            )
        mm = ray.get(mref)
        v = v_milli_of(df)
        n = df["event_type"].map(lambda t: mm[t][0]).to_numpy("int64")
        s1 = df["event_type"].map(lambda t: mm[t][1]).to_numpy("int64")
        # exact form without the n² division: (n·v − s1)² > 9·(n·s2 − s1²)
        # ⟺ |n·v − s1| > isqrt(9·(n·s2 − s1²))  (both sides non-negative
        # ints: |x| > ⌊√r⌋ ⟺ |x| ≥ ⌊√r⌋+1 ⟺ x² ≥ (⌊√r⌋+1)² > r, and
        # conversely |x| ≤ ⌊√r⌋ ⟹ x² ≤ r) — so the int64 path never
        # squares: |n·v − s1| ≲ n·|v| stays in int64 to ~10¹³ events/type
        # at |v| ≤ 10⁶ milli, and the per-TYPE threshold is an exact
        # arbitrary-precision isqrt computed once (types are few), clamped
        # into int64 (a clamped threshold ≥ 2^63 can never be exceeded by
        # an in-range int64 lhs, so the clamp preserves the comparison)
        import math

        lhs = np.abs(n * v - s1)
        imax = np.iinfo(np.int64).max
        thr_by_type = {
            t: min(math.isqrt(max(9 * (tn * ts2 - ts1 * ts1), 0)), imax)
            for t, (tn, ts1, ts2) in mm.items()
        }
        thr = df["event_type"].map(thr_by_type).to_numpy("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64"),
                "event_type": df["event_type"],
                "v_milli": v,
                "is_outlier": (lhs > thr).astype("int64"),
            }
        )

    return ds.map_batches(flag, batch_format="pandas")


def sql_events_anomaly() -> str:
    return (
        "WITH v AS (SELECT event_id, event_type, "
        "CAST(floor(value * 1000 + 0.5) AS BIGINT) AS v_milli FROM events), "
        "m AS (SELECT event_type, CAST(COUNT(*) AS HUGEINT) AS n, "
        "CAST(SUM(v_milli) AS HUGEINT) AS s1, "
        "CAST(SUM(CAST(v_milli AS HUGEINT) * v_milli) AS HUGEINT) AS s2 "
        "FROM v GROUP BY event_type) "
        "SELECT v.event_id, v.event_type, v.v_milli, "
        "CAST(CASE WHEN (m.n * v.v_milli - m.s1) * (m.n * v.v_milli - m.s1) "
        "> 9 * (m.n * m.s2 - m.s1 * m.s1) THEN 1 ELSE 0 END AS BIGINT) "
        "AS is_outlier "
        "FROM v JOIN m ON m.event_type = v.event_type"
    )


# --- round-5 session-4 additions --------------------------------------------


def nation_year_cube(sf_dir: str) -> pd.DataFrame:
    """Revenue by (customer nation, order year) with CUBE subtotals — the
    full grouping-set lattice (fine level + per-nation totals + per-year
    totals + grand total) computed from ONE corpus exchange.

    Scale plan: identical to ``nation_year_rollup`` (shared
    ``_nation_year_fine`` scan — broadcast dimension maps, per-batch
    combiner partials, one grouped exchange); ALL THREE coarser CUBE
    levels are re-aggregated from the ≤ 25·n_years-row fine level on the
    driver, never from extra corpus passes.  This is how a production
    engine computes any grouping-set lattice: one exchange at the finest
    requested level, then lattice re-aggregation over the result.

    Output: (n_name, o_year, n_orders, revenue); subtotal rows carry
    n_name='ALL' / o_year=-1, mirroring the oracle's COALESCE over
    GROUP BY CUBE.
    """
    ensure_picklable()
    fine, nat_names = _nation_year_fine(sf_dir)

    if len(fine) == 0:
        # SQL CUBE over zero rows emits zero rows (no subtotal rows)
        return pd.DataFrame(
            {
                "n_name": pd.Series([], dtype="object"),
                "o_year": pd.Series([], dtype="int64"),
                "n_orders": pd.Series([], dtype="int64"),
                "revenue": pd.Series([], dtype="float64"),
            }
        )

    nat_level = fine.groupby("natkey", as_index=False).agg(
        n_raw=("n_raw", "sum"), rev_raw=("rev_raw", "sum")
    )
    nat_level["o_year"] = -1
    year_level = fine.groupby("o_year", as_index=False).agg(
        n_raw=("n_raw", "sum"), rev_raw=("rev_raw", "sum")
    )
    year_level["natkey"] = -1
    total = pd.DataFrame(
        {
            "natkey": [-1],
            "o_year": [-1],
            "n_raw": [fine["n_raw"].sum()],
            "rev_raw": [fine["rev_raw"].sum()],
        }
    )
    out = pd.concat([fine, nat_level, year_level, total], ignore_index=True)
    return pd.DataFrame(
        {
            "n_name": out["natkey"].map(lambda k: nat_names.get(k, "ALL")),
            "o_year": out["o_year"].astype("int64"),
            "n_orders": out["n_raw"].astype("int64"),
            "revenue": out["rev_raw"].round(2),
        }
    )


def sql_nation_year_cube() -> str:
    return (
        "SELECT COALESCE(n.n_name, 'ALL') AS n_name, "
        "COALESCE(CAST(year(o.o_orderdate) AS BIGINT), -1) AS o_year, "
        "COUNT(*) AS n_orders, ROUND(SUM(o.o_totalprice), 2) AS revenue "
        "FROM orders o "
        "JOIN customer c ON o.o_custkey = c.c_custkey "
        "JOIN nation n ON n.n_nationkey = c.c_nationkey "
        "GROUP BY CUBE (n.n_name, CAST(year(o.o_orderdate) AS BIGINT))"
    )


def user_mode_type(sf_dir: str) -> ray.data.Dataset:
    """Per-user MODE of event_type (most frequent value, ties broken by
    lexicographically smallest type) — the grouped-mode aggregate SQL
    writes as a ROW_NUMBER-over-count window.

    Scale plan: a per-batch (user_id, event_type) count combiner collapses
    each block to at most users×types rows before the ONE sort exchange
    on exactly [user_id] (colocation invariant, ``util.py``); the
    partial-merge AND the argmax both run vectorized inside the block —
    per-user candidate sets are bounded by the type cardinality, so no
    key can go hot.  For an UNBOUNDED value domain
    (mode of a free-text column) the same plan holds but the candidate
    set per key is no longer bounded; production caps it with a count-min
    candidate screen first (``countmin_tokens`` is the building block).

    Output: (user_id, mode_type, n_events) — n_events is the mode's count.
    """
    import numpy as np

    ensure_picklable()

    def count_partial(df: pd.DataFrame):
        # Arrow block out: Ray's sort-aggregate over pandas blocks with
        # object-dtype keys measured ~8x slower than over Arrow (the
        # token_histogram precedent)
        import pyarrow as pa

        g = (
            df.groupby(["user_id", "event_type"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].astype("int64")),
                "event_type": pa.array(g["event_type"], type=pa.string()),
                "n": pa.array(g["n"].astype("int64")),
            }
        )

    def argmax_block(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "mode_type": pd.Series([], dtype="object"),
                    "n_events": pd.Series([], dtype="int64"),
                }
            )
        # merge the per-block partial counts (vectorized; every row of a
        # user is in this block by the colocation invariant), then a
        # vectorized per-user argmax: order rows (count desc, type asc)
        # and take each user's first row — zero per-group dispatch
        df = (
            df.groupby(["user_id", "event_type"], as_index=False, sort=False)[
                "n"
            ].sum()
        )
        df = df.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        first = df[~df["user_id"].duplicated()]
        return pd.DataFrame(
            {
                "user_id": first["user_id"].astype("int64").to_numpy(),
                "mode_type": first["event_type"].to_numpy(),
                "n_events": first["n"].astype("int64").to_numpy(),
            }
        )

    ds = read_table(sf_dir, "events", columns=["user_id", "event_type"])
    # block-sized batches: the combiner's cost is one vectorized groupby
    # per BLOCK, not per 1024-row default batch (5x measured).  The
    # partials go STRAIGHT into the key sort — Ray's groupby().aggregate()
    # reduce step pays a per-key merge loop that measured ~1.5 s/task at
    # 50k groups (the r4 many-group pathology); the in-block pandas sum
    # after the sort does the same merge vectorized.
    counts = ds.map_batches(count_partial, batch_format="pandas", batch_size=None)
    # sort by EXACTLY the fold key (colocation invariant, util.py)
    return colocate(counts, ["user_id"], argmax_block)


def sql_user_mode_type() -> str:
    return (
        "WITH c AS (SELECT user_id, event_type, COUNT(*) AS n "
        "FROM events GROUP BY user_id, event_type), "
        "r AS (SELECT user_id, event_type, n, ROW_NUMBER() OVER "
        "(PARTITION BY user_id ORDER BY n DESC, event_type) AS rn FROM c) "
        "SELECT user_id, event_type AS mode_type, CAST(n AS BIGINT) AS n_events "
        "FROM r WHERE rn = 1"
    )


def type_value_median(sf_dir: str) -> pd.DataFrame:
    """EXACT per-group median of event values — emitted as the two middle
    ORDER STATISTICS in integer milli-units (med_lo = value at 1-based
    rank ⌊(n+1)/2⌋, med_hi at ⌈(n+1)/2⌉; equal when n is odd) so the
    result is bit-identical cross-engine with no float averaging.

    Scale plan: the corpus collapses to (event_type, v_milli) VALUE
    COUNTS via a per-batch combiner before the one sort exchange on
    exactly [event_type] (colocation invariant, ``util.py``) — the
    exchange is bounded by distinct (type, value) pairs per block, the
    same family as ``token_histogram``, never by row count.  The
    duplicate-key merge and the per-type fold (sorted cumulative counts
    → two rank probes) run vectorized in-block; a type's distinct-value
    set is the block ceiling, the standard histogram-median trade
    (value-domain-sized, not row-sized).

    Output: (event_type, n_events, med_lo_milli, med_hi_milli) — one row
    per type, aggregate-sized, returned as pandas.
    """
    import numpy as np

    ensure_picklable()

    def hist_partial(df: pd.DataFrame):
        # Arrow block out: Ray's sort-aggregate over pandas blocks with
        # object-dtype keys measured ~8x slower than over Arrow (the
        # token_histogram precedent)
        import pyarrow as pa

        v = np.floor(
            df["value"].to_numpy(dtype="float64") * 1000.0 + 0.5
        ).astype("int64")
        g = (
            pd.DataFrame({"event_type": df["event_type"], "v_milli": v})
            .groupby(["event_type", "v_milli"], as_index=False, sort=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], type=pa.string()),
                "v_milli": pa.array(g["v_milli"].astype("int64")),
                "n": pa.array(g["n"].astype("int64")),
            }
        )

    def median_block(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "event_type": pd.Series([], dtype="object"),
                "n_events": pd.Series([], dtype="int64"),
                "med_lo_milli": pd.Series([], dtype="int64"),
                "med_hi_milli": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        # merge duplicate (type, value) partials vectorized — every row
        # of a type is in this block by the colocation invariant, so the
        # in-block sum replaces a groupby().aggregate() exchange (whose
        # reduce step pays ~1.5 s/task at 50k groups, the r4 pathology)
        df = (
            df.groupby(["event_type", "v_milli"], as_index=False, sort=False)[
                "n"
            ].sum()
        )
        rows = []
        for t, g in df.groupby("event_type", sort=False):
            g = g.sort_values("v_milli", kind="mergesort")
            cum = g["n"].to_numpy("int64").cumsum()
            n = int(cum[-1])
            k_lo, k_hi = (n + 1) // 2, (n + 2) // 2  # 1-based middle ranks
            v = g["v_milli"].to_numpy("int64")
            lo = v[int(np.searchsorted(cum, k_lo))]
            hi = v[int(np.searchsorted(cum, k_hi))]
            rows.append((t, n, int(lo), int(hi)))
        return pd.DataFrame(
            rows, columns=["event_type", "n_events", "med_lo_milli", "med_hi_milli"]
        )

    ds = read_table(sf_dir, "events", columns=["event_type", "value"])
    # block-sized batches (same rationale as user_mode_type); partials go
    # straight into the key sort — the duplicate-key merge happens
    # vectorized inside median_block
    hist = ds.map_batches(hist_partial, batch_format="pandas", batch_size=None)
    # sort by EXACTLY the fold key (colocation invariant, util.py)
    out = (
        colocate(hist, ["event_type"], median_block)
        .to_pandas()  # one row per type by construction
    )
    return out.sort_values("event_type", ignore_index=True)


def sql_type_value_median() -> str:
    return (
        "WITH v AS (SELECT event_type, "
        "CAST(floor(value * 1000 + 0.5) AS BIGINT) AS v_milli FROM events), "
        "r AS (SELECT event_type, v_milli, "
        "ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v_milli) AS rn, "
        "COUNT(*) OVER (PARTITION BY event_type) AS n FROM v) "
        "SELECT event_type, CAST(MAX(n) AS BIGINT) AS n_events, "
        "CAST(MAX(CASE WHEN rn = (n + 1) // 2 THEN v_milli END) AS BIGINT) "
        "AS med_lo_milli, "
        "CAST(MAX(CASE WHEN rn = (n + 2) // 2 THEN v_milli END) AS BIGINT) "
        "AS med_hi_milli "
        "FROM r GROUP BY event_type"
    )


_NTILE_K = 10
_NTILE_BUCKET_SHIFT = 13  # ~8192-milli ordered key-range buckets


def events_ntile(sf_dir: str, *, k: int = _NTILE_K) -> ray.data.Dataset:
    """Global NTILE(k) over the event-value order — the decile/quantile
    bucketing SQL writes as ``NTILE(k) OVER (ORDER BY v, id)``, computed
    WITHOUT a single-node sort: the counts-only distributed-rank shape
    (``seeded_shuffle``'s pattern) over ordered key-range buckets.

    Scale plan: rows are keyed into ordered buckets by the top bits of
    v_milli (floor-shift, so negatives order correctly); the driver sees
    only per-bucket COUNTS (≤ n_buckets × n_blocks tiny rows), broadcasts
    cumulative offsets, and one grouped exchange on [bucket] gives every
    row rank = bucket offset + in-bucket position; the tile is then pure
    arithmetic on (rank, n, k) replicating SQL NTILE's first-(n mod k)-
    tiles-get-one-extra rule.  Skewed value ranges make hot buckets —
    production splits buckets from a first-pass histogram (the
    ``key_skew_profile`` building block); here the shift is fixed and the
    trade documented.

    Output: (event_id, v_milli, tile), tile ∈ [1, k].
    """
    import numpy as np

    ensure_picklable()

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "v_milli": pd.Series([], dtype="int64"),
                    "bucket": pd.Series([], dtype="int64"),
                }
            )
        v = np.floor(
            df["value"].to_numpy(dtype="float64") * 1000.0 + 0.5
        ).astype("int64")
        return pd.DataFrame(
            {
                "event_id": df["event_id"].astype("int64").to_numpy(),
                "v_milli": v,
                "bucket": v >> _NTILE_BUCKET_SHIFT,  # floor shift: negatives OK
            }
        )

    keyed = (
        read_table(sf_dir, "events", columns=["event_id", "value"])
        .map_batches(key_rows, batch_format="pandas", batch_size=None)
        .materialize()  # consumed twice (counts + rank); 3-int rows only
    )

    def bucket_counts(df: pd.DataFrame) -> pd.DataFrame:
        c = df["bucket"].value_counts()
        return pd.DataFrame(
            {"bucket": c.index.astype("int64"), "n": c.to_numpy().astype("int64")}
        )

    parts = keyed.map_batches(bucket_counts, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return keyed.map_batches(
            lambda df: pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "v_milli": pd.Series([], dtype="int64"),
                    "tile": pd.Series([], dtype="int64"),
                }
            ),
            batch_format="pandas",
        )
    totals = parts.groupby("bucket")["n"].sum().sort_index()
    offsets = totals.cumsum().shift(fill_value=0)
    n_total = int(totals.sum())
    offsets_ref = ray.put(offsets.to_dict())

    q, rem = divmod(n_total, k)
    boundary = (q + 1) * rem  # first `rem` tiles take q+1 rows each

    def tile_of(rank: "np.ndarray") -> "np.ndarray":
        # SQL NTILE: tiles 1..rem have q+1 rows, tiles rem+1..k have q
        if q == 0:
            return rank + 1  # n < k: one row per tile
        big = rank < boundary
        return np.where(
            big, rank // (q + 1) + 1, rem + (rank - boundary) // q + 1
        ).astype("int64")

    def rank_bucket(g: pd.DataFrame) -> pd.DataFrame:
        off = ray.get(offsets_ref)[int(g["bucket"].iloc[0])]
        g = g.sort_values(["v_milli", "event_id"], kind="mergesort")
        rank = np.arange(off, off + len(g), dtype="int64")
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "v_milli": g["v_milli"].to_numpy(),
                "tile": tile_of(rank),
            }
        )

    return grouped_block_map(keyed, ["bucket"], rank_bucket)


def sql_events_ntile(k: int = _NTILE_K) -> str:
    return (
        "WITH v AS (SELECT event_id, "
        "CAST(floor(value * 1000 + 0.5) AS BIGINT) AS v_milli FROM events) "
        "SELECT event_id, v_milli, "
        f"CAST(NTILE({k}) OVER (ORDER BY v_milli, event_id) AS BIGINT) AS tile "
        "FROM v"
    )


def part_skyline(sf_dir: str) -> pd.DataFrame:
    """2-D Pareto frontier (skyline) over parts: the set of (size, price)
    points not dominated by any other part (dominated = some part has
    size ≥ AND price ≤ with at least one strict) — the multi-objective
    shortlist query, with a deterministic representative part per point.

    Scale plan: skylines are MERGEABLE with a bounded partial — for each
    distinct size only the cheapest part can survive, so a per-batch
    combiner collapses each block to ≤ n_distinct_sizes champion rows
    (min price per size, min partkey at that price); one size-keyed
    ``grouped_block_dedup`` folds those partials to ONE champion per size
    (the corpus itself never shuffles), so the driver receives ≤
    n_distinct_sizes rows and computes the frontier with one sorted-scan
    (size desc, running strict-min of price).  Prices fold in exact
    integer cents.

    Output: (p_size, min_price_cents, best_partkey), frontier rows only.
    """
    import numpy as np

    ensure_picklable()

    def champion_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "p_size": pd.Series([], dtype="int64"),
                    "pc": pd.Series([], dtype="int64"),
                    "p_partkey": pd.Series([], dtype="int64"),
                }
            )
        pc = np.floor(
            df["p_retailprice"].to_numpy(dtype="float64") * 100.0 + 0.5
        ).astype("int64")
        d = pd.DataFrame(
            {
                "p_size": df["p_size"].astype("int64").to_numpy(),
                "pc": pc,
                "p_partkey": df["p_partkey"].astype("int64").to_numpy(),
            }
        ).sort_values(["p_size", "pc", "p_partkey"], kind="mergesort")
        return d[~d["p_size"].duplicated()]

    parts = grouped_block_dedup(
        read_table(sf_dir, "part", columns=["p_partkey", "p_size", "p_retailprice"])
        .map_batches(champion_partial, batch_format="pandas"),
        ["p_size"], order=["pc", "p_partkey"],
    ).to_pandas()  # ≤ one champion row per distinct size reaches the driver
    empty = pd.DataFrame(
        {
            "p_size": pd.Series([], dtype="int64"),
            "min_price_cents": pd.Series([], dtype="int64"),
            "best_partkey": pd.Series([], dtype="int64"),
        }
    )
    if len(parts) == 0:
        return empty
    # frontier: walk sizes DESC keeping rows whose price strictly improves
    champ = parts.sort_values("p_size", ascending=False, kind="mergesort")
    prices = champ["pc"].to_numpy("int64")
    keep = np.ones(len(champ), dtype=bool)
    best = None
    for i, p in enumerate(prices):
        if best is not None and p >= best:
            keep[i] = False
        else:
            best = int(p)
    sky = champ[keep].sort_values("p_size", ignore_index=True)
    return pd.DataFrame(
        {
            "p_size": sky["p_size"].astype("int64"),
            "min_price_cents": sky["pc"].astype("int64"),
            "best_partkey": sky["p_partkey"].astype("int64"),
        }
    )


def sql_part_skyline() -> str:
    return (
        "WITH p AS (SELECT CAST(p_size AS BIGINT) AS p_size, "
        "CAST(floor(p_retailprice * 100 + 0.5) AS BIGINT) AS pc, "
        "p_partkey FROM part), "
        "m AS (SELECT p_size, MIN(pc) AS min_price_cents FROM p GROUP BY p_size), "
        "b AS (SELECT m.p_size, m.min_price_cents, MIN(p.p_partkey) AS best_partkey "
        "FROM m JOIN p ON p.p_size = m.p_size AND p.pc = m.min_price_cents "
        "GROUP BY m.p_size, m.min_price_cents) "
        "SELECT p_size, min_price_cents, best_partkey FROM b a "
        "WHERE NOT EXISTS (SELECT 1 FROM b x WHERE x.p_size >= a.p_size "
        "AND x.min_price_cents <= a.min_price_cents "
        "AND (x.p_size > a.p_size OR x.min_price_cents < a.min_price_cents))"
    )


def order_month_rank(sf_dir: str) -> ray.data.Dataset:
    """RANK / DENSE_RANK / percent-rank of every order's price within its
    calendar month — the TIED-window member the ordered-window family
    lacks (``events_user_running`` covers ROW_NUMBER/SUM/LAG, which never
    tie; RANK semantics gap on equal keys and DENSE_RANK compacts them).
    percent_rank is emitted in exact integer milli-units
    (1000·(rank−1) // (n−1); 0 for single-row months) so every column is
    bit-exact cross-engine.

    Scale plan: ONE sort exchange keyed on exactly [month] (colocation
    invariant, ``util.py``); all four window functions come from
    cythonized pandas ``groupby().rank()`` / ``transform('size')`` inside
    the block — zero per-group dispatch, zero further exchanges.  A month
    is the block ceiling (the window family's standing trade).

    Output: (o_orderkey, month, price_cents, rnk, dense_rnk, pct_milli).
    """
    import numpy as np

    ensure_picklable()

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        d = df["o_orderdate"]
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64").to_numpy(),
                "month": (
                    d.dt.year.to_numpy("int64") * 100 + d.dt.month.to_numpy("int64")
                ),
                "price_cents": np.floor(
                    df["o_totalprice"].to_numpy(dtype="float64") * 100.0 + 0.5
                ).astype("int64"),
            }
        )

    def rank_block(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "o_orderkey": pd.Series([], dtype="int64"),
                    "month": pd.Series([], dtype="int64"),
                    "price_cents": pd.Series([], dtype="int64"),
                    "rnk": pd.Series([], dtype="int64"),
                    "dense_rnk": pd.Series([], dtype="int64"),
                    "pct_milli": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby("month", sort=False)["price_cents"]
        rnk = g.rank(method="min").to_numpy("int64")
        dense = g.rank(method="dense").to_numpy("int64")
        n = g.transform("size").to_numpy("int64")
        pct = np.where(n > 1, 1000 * (rnk - 1) // np.maximum(n - 1, 1), 0)
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].to_numpy("int64"),
                "month": df["month"].to_numpy("int64"),
                "price_cents": df["price_cents"].to_numpy("int64"),
                "rnk": rnk,
                "dense_rnk": dense,
                "pct_milli": pct.astype("int64"),
            }
        )

    ds = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_orderdate", "o_totalprice"]
    ).map_batches(key_rows, batch_format="pandas", batch_size=None)
    # sort by EXACTLY the window partition key (colocation invariant)
    return colocate(ds, ["month"], rank_block)


def sql_order_month_rank() -> str:
    return (
        "WITH o AS (SELECT o_orderkey, "
        "CAST(year(o_orderdate) * 100 + month(o_orderdate) AS BIGINT) AS month, "
        "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents "
        "FROM orders), "
        "c AS (SELECT *, COUNT(*) OVER (PARTITION BY month) AS cnt FROM o) "
        "SELECT o_orderkey, month, price_cents, "
        "CAST(RANK() OVER w AS BIGINT) AS rnk, "
        "CAST(DENSE_RANK() OVER w AS BIGINT) AS dense_rnk, "
        "CAST(CASE WHEN cnt > 1 THEN "
        "1000 * (RANK() OVER w - 1) // (cnt - 1) ELSE 0 END AS BIGINT) "
        "AS pct_milli "
        "FROM c WINDOW w AS (PARTITION BY month ORDER BY price_cents)"
    )


# ---------------------------------------------------------------------------
# events_late_window: watermark / allowed-lateness streaming semantics
# ---------------------------------------------------------------------------

_LW_JITTER_MOD = 33          # arrival jitter: fmix32(id) % 33 - 16 positions
_LW_LATENESS_US = 60 * 1_000_000       # allowed lateness: 60 s
_LW_WINDOW_US = 3600 * 1_000_000       # tumbling window: 1 h
_LW_BUCKET_SHIFT = 10        # ~1024 arrivals per ordered range bucket


def events_late_window(
    sf_dir: str, *, lateness_us: int = _LW_LATENESS_US,
    window_us: int = _LW_WINDOW_US,
) -> pd.DataFrame:
    """Tumbling-window aggregate with WATERMARK / allowed-lateness
    semantics — the batch replay of the streaming-engine behaviour the
    plain ``events_window`` ignores: an event is DROPPED (counted, not
    aggregated) if it arrives after the watermark (the max event-time
    seen so far in arrival order) has passed its timestamp by more than
    ``lateness_us``.

    The events table is generated in timestamp order, so arrival order is
    synthesized deterministically (the ``pagerank`` edge-list precedent):
    arrival position = event_id + (fmix32(event_id) % 33 − 16) — local
    ±16-slot jitter, the realistic shape of a slightly-out-of-order
    stream, SQL-replayable bit-for-bit.

    Scale plan — the global prefix-max over arrival order is the
    counts-only distributed-rank shape (``events_ntile``): rows key into
    ordered arrival-range buckets; the driver sees one (bucket, max_ts)
    row per bucket per block, prefix-maxes them, and broadcasts each
    bucket's CARRY-IN watermark; one grouped exchange on [bucket] then
    evaluates the accept/late decision fully vectorized in-block
    (``np.maximum.accumulate`` with the carry seed).  Per-block window
    partials fold through one further bounded exchange (≤ hours rows).

    Output: (win_us, n_accepted, acc_milli, n_late) per tumbling window,
    ordered; ``acc_milli`` sums accepted values in exact integer milli.

    Drop-rate note: the synthetic stream's inter-event gap scales with
    1/SF (2700 s at sf0.001, 26 s at sf0.1) while the ±16-slot jitter is
    positional, so most out-of-order arrivals exceed the 60 s budget and
    the late fraction is high (77/75/69% at sf0.001/0.01/0.1) — an
    artifact of sparse synthetic density, not of the semantics; both
    branches are heavily exercised at every SF, which is what the
    oracle replay needs to bind.
    """
    import numpy as np

    ensure_picklable()
    import ray

    from ..functions.fnv import fmix32_np
    from .util import grouped_block_map, grouped_block_sum

    def key_rows(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "event_id": pd.Series([], dtype="int64"),
                    "arr": pd.Series([], dtype="int64"),
                    "bucket": pd.Series([], dtype="int64"),
                    "ts_us": pd.Series([], dtype="int64"),
                    "v_milli": pd.Series([], dtype="int64"),
                }
            )
        ids = df["event_id"].to_numpy().astype("int64")
        jitter = (
            fmix32_np(ids.astype(np.uint64) % np.uint64(1 << 32))
            % _LW_JITTER_MOD
        ).astype("int64") - (_LW_JITTER_MOD // 2)
        arr = ids + jitter
        ts_us = (
            df["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        )
        v = np.floor(
            df["value"].to_numpy(dtype="float64") * 1000.0 + 0.5
        ).astype("int64")
        return pd.DataFrame(
            {
                "event_id": ids,
                "arr": arr,
                "bucket": arr >> _LW_BUCKET_SHIFT,
                "ts_us": ts_us,
                "v_milli": v,
            }
        )

    keyed = (
        read_table(sf_dir, "events", columns=["event_id", "ts", "value"])
        .map_batches(key_rows, batch_format="pandas", batch_size=None)
        .materialize()  # consumed twice (bucket maxes + decision pass)
    )

    def bucket_max(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bucket", as_index=False)["ts_us"].max()
        return pd.DataFrame(
            {"bucket": g["bucket"].astype("int64"),
             "mx": g["ts_us"].astype("int64")}
        )

    parts = keyed.map_batches(bucket_max, batch_format="pandas").to_pandas()
    if len(parts) == 0:
        return pd.DataFrame(
            {c: pd.Series([], dtype="int64")
             for c in ("win_us", "n_accepted", "acc_milli", "n_late")}
        )
    mx = parts.groupby("bucket")["mx"].max().sort_index()
    carry = mx.cummax().shift()  # watermark entering each bucket (NaN first)
    carry_ref = ray.put(
        {int(b): (None if pd.isna(v) else int(v)) for b, v in carry.items()}
    )

    def decide(g: pd.DataFrame) -> pd.DataFrame:
        carry_in = ray.get(carry_ref)[int(g["bucket"].iloc[0])]
        g = g.sort_values(["arr", "event_id"], kind="mergesort")
        ts = g["ts_us"].to_numpy()
        run = np.maximum.accumulate(ts)
        # prior max BEFORE each event: shifted running max, seeded by carry
        # (sentinel -2^62, NOT int64 min — `prior - lateness` must not wrap)
        seed = -(1 << 62) if carry_in is None else carry_in
        prior = np.empty_like(run)
        prior[0] = seed
        prior[1:] = run[:-1]
        prior = np.maximum(prior, seed)
        late = ts < prior - lateness_us
        win = (ts // window_us) * window_us
        out = pd.DataFrame(
            {
                "win_us": win,
                "n_accepted": (~late).astype("int64"),
                "acc_milli": np.where(late, 0, g["v_milli"].to_numpy()),
                "n_late": late.astype("int64"),
            }
        )
        return out.groupby("win_us", as_index=False).sum()

    per_block = grouped_block_map(keyed, ["bucket"], decide)
    folded = grouped_block_sum(
        per_block, ["win_us"],
        {"n_accepted": "n_accepted", "acc_milli": "acc_milli",
         "n_late": "n_late"},
    ).to_pandas()  # ≤ #windows rows
    for c in folded.columns:
        folded[c] = folded[c].astype("int64")
    return folded.sort_values("win_us", ignore_index=True)


def sql_events_late_window(
    *, lateness_us: int = _LW_LATENESS_US, window_us: int = _LW_WINDOW_US,
) -> str:
    from .sql_oracles import _fmix32_ctes

    frag, final = _fmix32_ctes(
        "lw", "lw_src", ["event_id", "ts_us", "v_milli"], "h0", "hv"
    )
    half = _LW_JITTER_MOD // 2
    return (
        "WITH lw_src AS (SELECT event_id, epoch_us(ts) AS ts_us, "
        "CAST(floor(value * 1000 + 0.5) AS BIGINT) AS v_milli, "
        f"event_id % 4294967296 AS h0 FROM events), "
        f"{frag}, "
        f"lw_arr AS (SELECT event_id, ts_us, v_milli, "
        f"event_id + (hv % {_LW_JITTER_MOD}) - {half} AS arr FROM {final}), "
        "lw_dec AS (SELECT ts_us, v_milli, "
        "max(ts_us) OVER (ORDER BY arr, event_id "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING) AS prior_max "
        "FROM lw_arr) "
        f"SELECT (ts_us // {window_us}) * {window_us} AS win_us, "
        "CAST(SUM(CASE WHEN prior_max IS NULL OR "
        f"ts_us >= prior_max - {lateness_us} THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_accepted, "
        "CAST(SUM(CASE WHEN prior_max IS NULL OR "
        f"ts_us >= prior_max - {lateness_us} THEN v_milli ELSE 0 END) "
        "AS BIGINT) AS acc_milli, "
        "CAST(SUM(CASE WHEN prior_max IS NOT NULL AND "
        f"ts_us < prior_max - {lateness_us} THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_late "
        "FROM lw_dec GROUP BY 1 ORDER BY 1"
    )
