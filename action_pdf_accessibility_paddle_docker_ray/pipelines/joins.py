"""Join operators Ray Data lacks natively, built from the documented
portable patterns (SURVEY.md §2.4 notes; the reference itself has no data
joins beyond the formula-id lookup).

- ``orders_lineitem_join``: BOTH-SIDES-LARGE partitioned hash join —
  ``util.copartition`` sorts both sides on the join key in one exchange
  and merges them in pandas inside each block.  Hot keys are salted: the
  sort runs on ``(key, salt)`` (``orders_lineitem_join_salted``).
- ``events_asof_order``: AS-OF join (each event matched to the most recent
  order at-or-before its timestamp for the same customer) — co-partition on
  the customer, ``pd.merge_asof`` by customer per block over time-sorted
  frames.  DuckDB's native ``ASOF JOIN`` is the oracle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray.data

from .. import ensure_picklable
from ..sources.pages import read_table
from .util import colocate, copartition


def _priority_partials(p: dict, salt: tuple = ()) -> pd.DataFrame:
    """One block of orders ⋈ lineitem → (priority, part_n, part_qty)."""
    j = p["l"].merge(p["o"], left_on=["l_orderkey", *salt], right_on=["o_orderkey", *salt])
    g = j.groupby("o_orderpriority", sort=True).agg(
        part_n=("l_quantity", "size"), part_qty=("l_quantity", "sum")
    )
    return g.reset_index().rename(columns={"o_orderpriority": "priority"})


def _sum_priority_partials(partials: ray.data.Dataset) -> ray.data.Dataset:
    from ray.data.aggregate import Sum

    agg = partials.groupby("priority").aggregate(
        Sum("part_n", alias_name="n_items"), Sum("part_qty", alias_name="qty_raw")
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderpriority": df["priority"],
                "n_items": df["n_items"].astype("int64"),
                "sum_qty": df["qty_raw"].round(0).astype("int64"),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


_ORDERS = {"o_orderkey": "int64", "o_orderpriority": "object"}
_LINES = {"l_orderkey": "int64", "l_quantity": "float64"}


def orders_lineitem_join(sf_dir: str) -> ray.data.Dataset:
    """Revenue stats per order priority via an explicit partitioned hash join.

    Output (o_orderpriority, n_items, sum_qty) — integer-exact vs the SQL
    oracle at any parallelism.
    """
    ensure_picklable()

    orders = read_table(sf_dir, "orders", columns=list(_ORDERS))
    lineitem = read_table(sf_dir, "lineitem", columns=list(_LINES))
    return _sum_priority_partials(
        copartition(
            {"o": (orders, ["o_orderkey"], _ORDERS), "l": (lineitem, ["l_orderkey"], _LINES)},
            _priority_partials,
        )
    )


def orders_lineitem_join_salted(sf_dir: str, *, salt: int = 4) -> ray.data.Dataset:
    """The same partitioned hash join with HOT-KEY SALTING: the probe side
    (lineitem) spreads each key over ``salt`` sub-keys via a deterministic
    row hash, and the build side (orders) replicates each row into all
    ``salt`` sub-keys; the exchange sorts on ``(key, salt)``.  A key whose
    probe rows would all land in one block now splits across ``salt``
    sort groups — the skew-mitigation pattern for power-law join keys, at
    the cost of build-side ×salt replication.  Output (and SQL oracle)
    identical to ``orders_lineitem_join``."""
    ensure_picklable()

    orders = read_table(sf_dir, "orders", columns=list(_ORDERS))
    lineitem = read_table(sf_dir, "lineitem", columns=[*_LINES, "l_linenumber"])

    def orders_side(df: pd.DataFrame) -> pd.DataFrame:
        # build side: replicate into every salt sub-key of its key
        out = df.loc[df.index.repeat(salt)]
        return out.assign(salt=np.tile(np.arange(salt, dtype=np.int64), len(df)))

    def lineitem_side(df: pd.DataFrame) -> pd.DataFrame:
        # probe side: deterministic per-row salt (NOT derived from the key,
        # so a hot key's rows spread evenly)
        return df.assign(salt=(df["l_linenumber"].astype("int64") * 2654435761) % salt)

    return _sum_priority_partials(
        copartition(
            {
                "o": (orders.map_batches(orders_side, batch_format="pandas"),
                      ["o_orderkey", "salt"], {**_ORDERS, "salt": "int64"}),
                "l": (lineitem.map_batches(lineitem_side, batch_format="pandas"),
                      ["l_orderkey", "salt"], {**_LINES, "salt": "int64"}),
            },
            lambda p: _priority_partials(p, ("salt",)),
        )
    )


RANGE_JOIN_WINDOW_US = 7 * 24 * 3600 * 1_000_000  # 7 days


def _event_order_sides(sf_dir: str, salt: int) -> dict:
    """Events and orders as ``copartition`` sides on (customer, salt): each
    event takes a deterministic row salt (NOT derived from the key, so a hot
    customer's events spread over ``salt`` sort groups) and each order is
    replicated into every salt of its customer, so every (customer, salt)
    group still holds the customer's FULL order set.  Events key on
    ``user_id + 1`` (events.user_id is 0-based, customers 1-based)."""
    events = read_table(sf_dir, "events", columns=["event_id", "user_id", "ts"])
    orders = read_table(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])

    def events_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["user_id"] + 1,
                "salt": (df["event_id"].astype("int64") * 2654435761) % salt,
                "event_id": df["event_id"],
                "ts_us": df["ts"].astype("datetime64[us]").astype("int64"),
            }
        )

    def orders_side(df: pd.DataFrame) -> pd.DataFrame:
        ts = df["o_orderdate"].astype("datetime64[us]").astype("int64").to_numpy()
        return pd.DataFrame(
            {
                "key": np.repeat(df["o_custkey"].to_numpy(), salt),
                "salt": np.tile(np.arange(salt, dtype=np.int64), len(df)),
                "ts_us": np.repeat(ts, salt),
            }
        )

    keys = {"key": "int64", "salt": "int64", "ts_us": "int64"}
    return {
        "e": (events.map_batches(events_side, batch_format="pandas"), ["key", "salt"],
              {**keys, "event_id": "int64"}),
        "o": (orders.map_batches(orders_side, batch_format="pandas"), ["key", "salt"], keys),
    }


def events_orders_range_join(sf_dir: str, *, salt: int = 1) -> ray.data.Dataset:
    """RANGE JOIN: for every event, the count and latest timestamp of the
    same customer's orders inside the trailing 7-day window
    (o_orderdate ∈ [ts − 7d, ts]).

    Shape: co-partition both sides on the equality key (customer,
    ``util.copartition``), then per block rank each customer's orders by
    time and answer every event with two vectorized backward as-of probes
    (``pd.merge_asof`` by customer: the last order at-or-before ts and the
    last one before ts − 7d; their rank difference is the count) —
    O((E+O)·log) per block, never the E×O interval cross product.
    Inequality-bounded joins are not expressible as a plain hash join;
    this is the composition pattern (equality co-partition + in-block
    interval scan) the engine uses for them.

    ``salt > 1``: HOT-KEY mode (``_event_order_sides``): a customer with
    100× the events no longer pins one sort group, and per-event answers
    are unchanged."""
    ensure_picklable()
    by = ["key", "salt"]

    def range_block(p: dict) -> pd.DataFrame:
        od = p["o"].sort_values(by + ["ts_us"], kind="mergesort")
        od["rank"] = od.groupby(by, sort=False).cumcount() + 1
        od = od.assign(last=od["ts_us"]).sort_values("ts_us", kind="mergesort")
        ev = p["e"].sort_values("ts_us", kind="mergesort")
        hi = pd.merge_asof(ev, od, on="ts_us", by=by, direction="backward")
        lo = pd.merge_asof(
            ev.assign(ts_us=ev["ts_us"] - RANGE_JOIN_WINDOW_US), od[by + ["ts_us", "rank"]],
            on="ts_us", by=by, direction="backward", allow_exact_matches=False,
        )
        n = (hi["rank"].fillna(0) - lo["rank"].fillna(0)).to_numpy(dtype=np.int64)
        # -1 sentinel for "no order in window" (keeps the column
        # non-nullable int64 → bit-exact under the driver's normalize)
        last = np.where(n > 0, hi["last"].fillna(-1).to_numpy(), -1).astype(np.int64)
        return pd.DataFrame(
            {"event_id": hi["event_id"].to_numpy(np.int64), "n_orders_7d": n,
             "last_order_ts_us": last}
        )

    return copartition(_event_order_sides(sf_dir, salt), range_block)


def events_asof_order(sf_dir: str, *, salt: int = 1) -> ray.data.Dataset:
    """AS-OF join: each event → most recent order at-or-before its ts for
    customer ``user_id + 1`` — one co-partition on the customer, then one
    vectorized ``pd.merge_asof`` by customer per block.

    Output (event_id, order_ts_us BIGINT nullable) — epoch integers so the
    DuckDB ``ASOF JOIN`` oracle matches exactly.

    ``salt > 1``: HOT-KEY mode (``_event_order_sides``; the as-of answer
    depends only on the key's full time-sorted order set, which every
    salt group carries, so results are identical).
    """
    ensure_picklable()

    def asof_block(p: dict) -> pd.DataFrame:
        od = p["o"].sort_values("ts_us", kind="mergesort")
        j = pd.merge_asof(
            p["e"].sort_values("ts_us", kind="mergesort"),
            od.assign(order_ts_us=od["ts_us"]),
            on="ts_us", by=["key", "salt"], direction="backward",
        )
        return pd.DataFrame(
            {"event_id": j["event_id"].to_numpy(np.int64),
             "order_ts_us": j["order_ts_us"].astype("Int64")}
        )

    return copartition(_event_order_sides(sf_dir, salt), asof_block)


_BIG_ORDER_MIN = 300_000.0


def customer_big_orders_left_join(sf_dir: str) -> ray.data.Dataset:
    """LEFT OUTER join — the missing outer member of the join family:
    per market segment, how many customers exist, how many have placed
    NO large order (``o_totalprice > 300000`` — the outer leg that an
    inner join would silently drop), and how many large orders the
    segment placed in total.

    Scale plan: the order side is row-filtered AT THE READ (pyarrow
    predicate pushdown — non-qualifying row groups never leave storage)
    and per-batch count-combined to one (custkey, n) row per batch;
    both sides co-partition on custkey (``util.copartition``) — one sort
    exchange; each block does a vectorized left merge with zero-fill;
    segment partials fold in a 5-row final groupby.  Output:
    (c_mktsegment, n_customers, n_no_big, n_big_orders).
    """
    ensure_picklable()
    import pyarrow.dataset as pads
    from ray.data.aggregate import Sum

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    big = read_table(
        sf_dir, "orders", columns=["o_custkey"],
        filter_expr=(pads.field("o_totalprice") > _BIG_ORDER_MIN),
    )

    def order_counts(df: pd.DataFrame) -> pd.DataFrame:
        # batch-local combiner: one (custkey, count) row per batch
        return df.groupby("o_custkey", sort=False).size().reset_index(name="cnt")

    def join_block(p: dict) -> pd.DataFrame:
        o = p["o"].groupby("o_custkey", as_index=False, sort=False)["cnt"].sum()
        j = p["c"].merge(o, left_on="c_custkey", right_on="o_custkey", how="left")
        j["cnt"] = j["cnt"].fillna(0).astype("int64")  # LEFT: unmatched → 0
        g = j.groupby("c_mktsegment", as_index=False, sort=False).agg(
            p_cust=("cnt", "size"),
            p_nobig=("cnt", lambda s: int((s == 0).sum())),
            p_orders=("cnt", "sum"),
        )
        return g.rename(columns={"c_mktsegment": "segment"}).astype(
            {"p_cust": "int64", "p_nobig": "int64", "p_orders": "int64"}
        )

    partials = copartition(
        {
            "c": (cust, ["c_custkey"], {"c_custkey": "int64", "c_mktsegment": "object"}),
            "o": (big.map_batches(order_counts, batch_format="pandas"), ["o_custkey"],
                  {"o_custkey": "int64", "cnt": "int64"}),
        },
        join_block,
    )
    agg = partials.groupby("segment").aggregate(
        Sum("p_cust", alias_name="n_customers"),
        Sum("p_nobig", alias_name="n_no_big"),
        Sum("p_orders", alias_name="n_big_orders"),
    )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_mktsegment": df["segment"],
                "n_customers": df["n_customers"].astype("int64"),
                "n_no_big": df["n_no_big"].astype("int64"),
                "n_big_orders": df["n_big_orders"].astype("int64"),
            }
        )

    return agg.map_batches(finish, batch_format="pandas")


def sql_customer_big_orders_left_join() -> str:
    return (
        "WITH big AS (SELECT o_custkey, count(*) AS c FROM orders "
        f"WHERE o_totalprice > {_BIG_ORDER_MIN} GROUP BY o_custkey) "
        "SELECT c.c_mktsegment, CAST(count(*) AS BIGINT) AS n_customers, "
        "CAST(SUM(CASE WHEN b.c IS NULL THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_no_big, "
        "CAST(COALESCE(SUM(b.c), 0) AS BIGINT) AS n_big_orders "
        "FROM customer c LEFT JOIN big b ON c.c_custkey = b.o_custkey "
        "GROUP BY c.c_mktsegment"
    )


# ---------------------------------------------------------------------------
# Multi-way joins (round 5): TPC-H Q3/Q5-shaped pipelines — the two classic
# shapes the two-table family above doesn't cover: a 3-way join with global
# top-k selection, and a 6-table star join mixing broadcast dimensions with
# two co-partitioned fact exchanges.
# ---------------------------------------------------------------------------

_Q3_SEGMENT = "BUILDING"
_Q3_CUTOFF = "1998-06-15"


def top_orders_q3(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q3-shaped pipeline: top-10 unshipped orders by revenue for one
    market segment (customer ⋈ orders ⋈ lineitem).

    Scale plan:
    - Both fact reads are pruned AND row-filtered at the read (pyarrow
      predicate pushdown on ``o_orderdate`` / ``l_shipdate``).
    - The customer leg is a BROADCAST SEMI-JOIN: only the qualifying
      custkey set ships (sorted int64 array via ``ray.put``, searchsorted
      membership per batch — ~1/5 of customers; at corpus scale this
      becomes the Bloom-screen variant used by ``bloom_screen``, trading
      exactness of the semi-join for a fixed-size bitmap + exact verify).
    - lineitem revenue is per-batch combined to (orderkey, partial_rev)
      before the one orderkey co-partition exchange (``util.copartition``).
    - Each block emits only its LOCAL top-10 (revenue is complete within
      a block, since the sort co-locates every orderkey), so the final
      global sort+limit runs over ≤ 10 rows per block — dataset-resident.

    Output: (o_orderkey, revenue, o_orderdate, o_orderpriority), the
    exact 10 rows of the SQL oracle (revenue rounded to cents before the
    ordering, tie-broken by o_orderdate then o_orderkey on both sides).
    """
    ensure_picklable()
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    cutoff = pd.Timestamp(_Q3_CUTOFF)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment"]
    )
    keys = np.sort(
        cust.filter(pc.equal(cust["c_mktsegment"], _Q3_SEGMENT))["c_custkey"]
        .to_numpy()
        .astype(np.int64)
    )
    keys_ref = ray.put(keys)

    orders = read_table(
        sf_dir, "orders",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"],
        filter_expr=(pads.field("o_orderdate") < cutoff.to_pydatetime()),
    )
    lineitem = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
        filter_expr=(pads.field("l_shipdate") > cutoff.to_pydatetime()),
    )

    def orders_side(df: pd.DataFrame) -> pd.DataFrame:
        ck = ray.get(keys_ref)
        v = df["o_custkey"].to_numpy(dtype=np.int64)
        if len(ck) == 0:
            member = np.zeros(len(v), dtype=bool)
        else:
            pos = np.searchsorted(ck, v)
            member = (pos < len(ck)) & (ck[np.minimum(pos, len(ck) - 1)] == v)
        return df[member]

    def revenue_partials(df: pd.DataFrame) -> pd.DataFrame:
        rev = df["l_extendedprice"].to_numpy() * (1.0 - df["l_discount"].to_numpy())
        return (
            pd.DataFrame({"o_orderkey": df["l_orderkey"], "rev": rev})
            .groupby("o_orderkey", as_index=False, sort=False)["rev"]
            .sum()
        )

    def join_block(p: dict) -> pd.DataFrame:
        rev = p["l"].groupby("o_orderkey", as_index=False, sort=False)["rev"].sum()
        j = p["o"].merge(rev, on="o_orderkey", how="inner")
        j["revenue"] = j.pop("rev").round(2)
        j = j.sort_values(
            ["revenue", "o_orderdate", "o_orderkey"], ascending=[False, True, True],
            kind="mergesort",
        ).head(10)
        j = j[["o_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]
        return j.astype({"o_orderdate": "datetime64[us]"})

    partials = copartition(
        {
            "o": (orders.map_batches(orders_side, batch_format="pandas"), ["o_orderkey"],
                  {"o_orderkey": "int64", "o_orderdate": "datetime64[us]",
                   "o_orderpriority": "object"}),
            "l": (lineitem.map_batches(revenue_partials, batch_format="pandas"),
                  ["o_orderkey"], {"o_orderkey": "int64", "rev": "float64"}),
        },
        join_block,
    )
    # ≤ 10 candidate rows per block — the global sort is trivially small.
    return partials.sort(
        ["revenue", "o_orderdate", "o_orderkey"], descending=[True, False, False]
    ).limit(10)


def sql_top_orders_q3() -> str:
    return (
        "SELECT o.o_orderkey, "
        "ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue, "
        "o.o_orderdate, o.o_orderpriority "
        "FROM customer c "
        "JOIN orders o ON c.c_custkey = o.o_custkey "
        "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
        f"WHERE c.c_mktsegment = '{_Q3_SEGMENT}' "
        f"AND o.o_orderdate < TIMESTAMP '{_Q3_CUTOFF}' "
        f"AND l.l_shipdate > TIMESTAMP '{_Q3_CUTOFF}' "
        "GROUP BY o.o_orderkey, o.o_orderdate, o.o_orderpriority "
        "ORDER BY revenue DESC, o.o_orderdate, o.o_orderkey LIMIT 10"
    )


def _supplier_nation(df: pd.DataFrame, sup_ref) -> pd.DataFrame:
    """The lineitem rows of ``df`` whose supplier is in the broadcast sorted
    (suppkey, nationkey) arrays, with a ``nat`` column attached."""
    skeys, snats = ray.get(sup_ref)
    v = df["l_suppkey"].to_numpy(dtype=np.int64)
    if len(skeys) == 0:
        return df.iloc[0:0].assign(nat=np.zeros(0, dtype=np.int64))
    pos = np.searchsorted(skeys, v)
    hit = (pos < len(skeys)) & (skeys[np.minimum(pos, len(skeys) - 1)] == v)
    return df[hit].assign(nat=snats[pos[hit]])


def _order_nations(
    cust: ray.data.Dataset, orders: ray.data.Dataset, broadcast: bool
) -> ray.data.Dataset:
    """(o_orderkey, c_nat) for every order whose customer is in ``cust``
    (c_custkey, c_nationkey).  ``broadcast`` (the caller's distributed
    customer count is under its limit): the (custkey, nationkey) pairs ship
    once via ``ray.put`` and every orders batch attaches them — zero
    exchange.  Otherwise one custkey co-partition (``util.copartition``)."""
    if broadcast:
        cdf = cust.to_pandas()  # bound proven by the caller's count
        ckeys = cdf["c_custkey"].to_numpy(dtype=np.int64)
        corder = np.argsort(ckeys)
        c_ref = ray.put(
            (ckeys[corder], cdf["c_nationkey"].to_numpy(dtype=np.int64)[corder])
        )

        def attach(df: pd.DataFrame) -> pd.DataFrame:
            keys, nats = ray.get(c_ref)
            v = df["o_custkey"].to_numpy(dtype=np.int64)
            okey = df["o_orderkey"].to_numpy(dtype=np.int64)
            if len(keys) == 0:
                return pd.DataFrame({"o_orderkey": okey[:0], "c_nat": nats})
            pos = np.searchsorted(keys, v)
            hit = (pos < len(keys)) & (keys[np.minimum(pos, len(keys) - 1)] == v)
            return pd.DataFrame({"o_orderkey": okey[hit], "c_nat": nats[pos[hit]]})

        return orders.map_batches(attach, batch_format="pandas")

    def join_cust(p: dict) -> pd.DataFrame:
        j = p["o"].merge(p["c"], left_on="o_custkey", right_on="c_custkey")
        return j[["o_orderkey", "c_nationkey"]].rename(columns={"c_nationkey": "c_nat"})

    return copartition(
        {
            "c": (cust, ["c_custkey"], {"c_custkey": "int64", "c_nationkey": "int64"}),
            "o": (orders, ["o_custkey"], {"o_custkey": "int64", "o_orderkey": "int64"}),
        },
        join_cust,
    )


_Q5_REGION = "ASIA"
_Q5_DATE_LO = "1996-01-01"
_Q5_DATE_HI = "1997-01-01"


def regional_revenue_q5(
    sf_dir: str, broadcast_limit: int = 2_000_000
) -> ray.data.Dataset:
    """TPC-H Q5-shaped 6-table star join: revenue per nation for one region
    and one order-date year, counting only lineitems whose SUPPLIER sits in
    the same nation as the ordering CUSTOMER (the classic Q5 twist that
    makes this a real multi-way join, not a chain of lookups).

    Scale plan (dimensions broadcast, dual customer plan, one orderkey
    exchange):
    - region ⋈ nation collapses to a ≤25-entry nationkey→name map; the
      region's supplier side to a suppkey→nationkey dict (both broadcast
      once via ``ray.put`` — supplier is SF·10k rows, bounded).
    - customer is row-filtered AT THE READ to the region's nationkeys
      (pyarrow ``isin`` pushdown), orders to the date window.
    - Customer attach — distributed-count-proven dual plan (the
      big_order_customers idiom): the region customer count is computed
      first (one pruned 2-column scan); under ``broadcast_limit`` the
      (custkey, nationkey) pairs ship once via ``ray.put`` (sorted arrays
      + searchsorted) and the orders scan attaches the customer nation
      per batch — zero exchange.  Above the limit, exchange 1
      co-partitions orders+customer on custkey (``_order_nations``;
      forced in tests; plans pinned identical).
    - lineitem maps supplier→nation per batch (region misses dropped
      immediately) and per-batch combines to (orderkey, s_nation,
      partial_rev, partial_n).
    - Exchange 2 co-partitions on orderkey (``util.copartition``), joins,
      keeps rows with customer_nation == supplier_nation, folds per-nation
      partials inside each block — ≤ |region nations| rows per block.
    - The final fold is BOUNDED (≤ 25 nations × blocks partial rows), so
      it is a single ``repartition(1)`` merge + in-block groupby, not a
      sorted aggregate exchange (a 192-partition groupby over ~150 rows
      measured 1.9 s of pure task overhead).

    Output: (n_name, n_items, revenue) — revenue rounded to cents.
    """
    ensure_picklable()
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    import pyarrow.parquet as pq

    region = pq.read_table(f"{sf_dir}/region.parquet")
    nation = pq.read_table(f"{sf_dir}/nation.parquet")
    rkey = region.filter(pc.equal(region["r_name"], _Q5_REGION))["r_regionkey"][0].as_py()
    nat = nation.filter(pc.equal(nation["n_regionkey"], rkey))
    nat_names = dict(
        zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist())
    )
    nation_keys = sorted(nat_names)

    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    import pyarrow as pa

    sup = supplier.filter(
        pc.is_in(supplier["s_nationkey"], value_set=pa.array(nation_keys))
    )
    # sorted parallel arrays for vectorized searchsorted membership (a
    # Python dict .map() here would be a per-row loop over every lineitem)
    sup_keys = sup["s_suppkey"].to_numpy().astype(np.int64)
    sup_nats = sup["s_nationkey"].to_numpy().astype(np.int64)
    order = np.argsort(sup_keys)
    sup_ref = ray.put((sup_keys[order], sup_nats[order]))

    lo, hi = pd.Timestamp(_Q5_DATE_LO), pd.Timestamp(_Q5_DATE_HI)
    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_nationkey"],
        filter_expr=pads.field("c_nationkey").isin(nation_keys),
    )
    orders = read_table(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey"],
        filter_expr=(
            (pads.field("o_orderdate") >= lo.to_pydatetime())
            & (pads.field("o_orderdate") < hi.to_pydatetime())
        ),
    )

    n_cust = cust.count()  # distributed scalar — proves the broadcast bound
    if n_cust == 0:
        return ray.data.from_pandas(
            pd.DataFrame(
                {
                    "n_name": pd.Series([], dtype="object"),
                    "n_items": pd.Series([], dtype="int64"),
                    "revenue": pd.Series([], dtype="float64"),
                }
            )
        )
    orders_nat = _order_nations(cust, orders, n_cust <= broadcast_limit)

    lineitem = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )

    def line_partials(df: pd.DataFrame) -> pd.DataFrame:
        sel = _supplier_nation(df, sup_ref)
        sel["rev"] = sel["l_extendedprice"].to_numpy() * (
            1.0 - sel["l_discount"].to_numpy()
        )
        return sel.groupby(["l_orderkey", "nat"], as_index=False, sort=False).agg(
            rev=("rev", "sum"), n=("rev", "size")
        ).rename(columns={"l_orderkey": "o_orderkey"})

    def join_line(p: dict) -> pd.DataFrame:
        j = p["l"].merge(p["o"], on="o_orderkey", how="inner")
        j = j[j["nat"] == j["c_nat"]]
        g = j.groupby("nat", as_index=False, sort=False).agg(
            p_rev=("rev", "sum"), p_n=("n", "sum")
        )
        return g.rename(columns={"nat": "nationkey"}).astype(
            {"nationkey": "int64", "p_rev": "float64", "p_n": "int64"}
        )

    partials = copartition(
        {
            "o": (orders_nat, ["o_orderkey"], {"o_orderkey": "int64", "c_nat": "int64"}),
            "l": (lineitem.map_batches(line_partials, batch_format="pandas"), ["o_orderkey"],
                  {"o_orderkey": "int64", "nat": "int64", "rev": "float64", "n": "int64"}),
        },
        join_line,
    )

    # bounded fold: ≤ |region nations| (≤ 25) partial rows per block,
    # so one repartition(1) merge + in-block groupby replaces a sorted
    # aggregate exchange whose per-partition task overhead dwarfs the data
    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("nationkey", as_index=False, sort=True).agg(
            rev_raw=("p_rev", "sum"), n_raw=("p_n", "sum")
        )
        return pd.DataFrame(
            {
                "n_name": g["nationkey"].map(nat_names),
                "n_items": g["n_raw"].astype("int64"),
                "revenue": g["rev_raw"].round(2),
            }
        )

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def sql_regional_revenue_q5() -> str:
    return (
        "SELECT n.n_name, CAST(count(*) AS BIGINT) AS n_items, "
        "ROUND(SUM(l.l_extendedprice * (1 - l.l_discount)), 2) AS revenue "
        "FROM region r "
        "JOIN nation n ON n.n_regionkey = r.r_regionkey "
        "JOIN customer c ON c.c_nationkey = n.n_nationkey "
        "JOIN orders o ON o.o_custkey = c.c_custkey "
        "JOIN lineitem l ON l.l_orderkey = o.o_orderkey "
        "JOIN supplier s ON s.s_suppkey = l.l_suppkey "
        "AND s.s_nationkey = c.c_nationkey "
        f"WHERE r.r_name = '{_Q5_REGION}' "
        f"AND o.o_orderdate >= TIMESTAMP '{_Q5_DATE_LO}' "
        f"AND o.o_orderdate < TIMESTAMP '{_Q5_DATE_HI}' "
        "GROUP BY n.n_name"
    )


_Q18_MIN_QTY = 250
_Q18_ORDERS = {
    "o_orderkey": "int64", "o_custkey": "int64",
    "o_orderdate": "datetime64[us]", "o_totalprice": "float64",
}
_Q18_OUT = {
    "c_name": "object", "c_custkey": "int64", "o_orderkey": "int64",
    "o_orderdate": "datetime64[us]", "o_totalprice": "float64", "sum_qty": "int64",
}


def big_order_customers(
    sf_dir: str, min_qty: int = _Q18_MIN_QTY, broadcast_limit: int = 2_000_000
) -> ray.data.Dataset:
    """TPC-H Q18-shaped GROUP-HAVING SEMI-JOIN: customers whose orders
    total more than ``min_qty`` units (lineitem HAVING → orders → customer).

    Scale plan:
    - lineitem read pruned to 2 columns; per-batch combined to
      (orderkey, partial_qty) so the one grouped exchange carries
      partials, not rows; the HAVING filter runs on the aggregate and
      its survivors are OUTPUT-SIZED (the 99.9th-percentile orders).
    - Plan A (default): the qualifying-set size is counted DISTRIBUTED
      first; under ``broadcast_limit`` the (orderkey, qty) pairs ship
      once via ``ray.put`` (sorted arrays + searchsorted) and both the
      orders and customer scans filter per batch — zero further
      exchanges.  The matched-orders frame that then broadcasts to the
      customer scan is ≤ the qualifying count by construction.
    - Plan B (``broadcast_limit`` exceeded; forced in tests): two
      co-partitioned exchanges (``util.copartition``) — qualifying ⋈
      orders on orderkey, the (output-sized) result ⋈ customer on
      custkey — never a driver materialization.
    Both plans are pinned identical in tests/test_round5.py.

    Output: (c_name, c_custkey, o_orderkey, o_orderdate, o_totalprice,
    sum_qty) — one row per qualifying order.
    """
    ensure_picklable()
    from .util import grouped_block_sum

    lineitem = read_table(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def qty_partial(t):
        # Arrow block out: Ray's aggregate over pandas blocks pays a
        # per-group Python dispatch (measured 27x at 60k groups — r4 fix)
        import pyarrow as pa

        g = t.group_by(["l_orderkey"]).aggregate([("l_quantity", "sum")])
        return pa.table(
            {
                "key": g["l_orderkey"].cast(pa.int64()),
                "p_qty": g["l_quantity_sum"],
            }
        )

    def having(df: pd.DataFrame) -> pd.DataFrame:
        return df[df["qty"] > min_qty].reset_index(drop=True)

    # materialized ONCE: the post-HAVING survivors are output-sized, so the
    # count and the (possible) driver collect don't re-run the lineitem scan.
    # The partial merge uses grouped_block_sum, not groupby().aggregate() —
    # Ray's aggregate reduce pays a per-key merge loop (~1.5 s/task at 50k
    # groups) and orderkey groups are corpus-scale; the quantity sum is
    # reorder-exact (integral values in float64).
    qual = (
        grouped_block_sum(
            lineitem.map_batches(
                qty_partial, batch_format="pyarrow", batch_size=None
            ),
            ["key"],
            {"p_qty": "qty"},
        )
        .map_batches(having, batch_format="pandas", batch_size=None)
        .materialize()
    )

    n_qual = qual.count()  # distributed scalar — proves the broadcast bound
    if n_qual == 0:
        # empty-shard path: the aggregate of zero rows carries no schema
        return ray.data.from_pandas(
            pd.DataFrame({c: pd.Series([], dtype=t) for c, t in _Q18_OUT.items()})
        )
    orders = read_table(sf_dir, "orders", columns=list(_Q18_ORDERS))
    if n_qual <= broadcast_limit:
        # ---- Plan A: two broadcast semi-joins, zero further exchanges ----
        qdf = qual.to_pandas()  # bound proven ≤ broadcast_limit rows
        order_keys = np.sort(qdf["key"].to_numpy(dtype=np.int64))
        qty_by_key = qdf.set_index("key")["qty"]
        qty_sorted = qty_by_key.loc[order_keys].to_numpy()
        oq_ref = ray.put((order_keys, qty_sorted))

        def match_orders(df: pd.DataFrame) -> pd.DataFrame:
            keys, qty = ray.get(oq_ref)
            v = df["o_orderkey"].to_numpy(dtype=np.int64)
            if len(keys) == 0:
                hit = np.zeros(len(v), dtype=bool)
                pos = hit.astype(np.int64)
            else:
                pos = np.searchsorted(keys, v)
                hit = (pos < len(keys)) & (
                    keys[np.minimum(pos, len(keys) - 1)] == v
                )
            sel = df[hit]
            return pd.DataFrame(
                {
                    "c_custkey": sel["o_custkey"].astype("int64"),
                    "o_orderkey": sel["o_orderkey"].astype("int64"),
                    "o_orderdate": sel["o_orderdate"],
                    "o_totalprice": sel["o_totalprice"].astype("float64"),
                    "sum_qty": np.round(qty[pos[hit]]).astype(np.int64),
                }
            )

        matched = orders.map_batches(match_orders, batch_format="pandas")
        mdf = matched.to_pandas()  # ≤ n_qual rows — output-sized
        m_ref = ray.put(mdf)

        def join_customer(df: pd.DataFrame) -> pd.DataFrame:
            m = ray.get(m_ref)
            j = df[["c_custkey", "c_name"]].merge(
                m, on="c_custkey", how="inner"
            )
            return j[
                ["c_name", "c_custkey", "o_orderkey", "o_orderdate",
                 "o_totalprice", "sum_qty"]
            ]

        customer = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
        return customer.map_batches(join_customer, batch_format="pandas")

    # ---- Plan B: two co-partitioned exchanges, dataset-resident ----

    def join_orders(p: dict) -> pd.DataFrame:
        j = p["o"].merge(p["q"], left_on="o_orderkey", right_on="key")
        j["sum_qty"] = np.round(j.pop("qty").to_numpy()).astype(np.int64)
        return j.drop(columns="key")

    matched = copartition(
        {
            "q": (qual, ["key"], {"key": "int64", "qty": "float64"}),
            "o": (orders, ["o_orderkey"], _Q18_ORDERS),
        },
        join_orders,
    )

    def join_cust(p: dict) -> pd.DataFrame:
        j = p["m"].merge(p["c"], left_on="o_custkey", right_on="c_custkey")
        return j[list(_Q18_OUT)].astype(_Q18_OUT)

    customer = read_table(sf_dir, "customer", columns=["c_custkey", "c_name"])
    return copartition(
        {
            "m": (matched, ["o_custkey"], {**_Q18_ORDERS, "sum_qty": "int64"}),
            "c": (customer, ["c_custkey"], {"c_custkey": "int64", "c_name": "object"}),
        },
        join_cust,
    )


def sql_big_order_customers() -> str:
    return (
        "SELECT c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate, "
        "o.o_totalprice, CAST(ROUND(SUM(l.l_quantity), 0) AS BIGINT) AS sum_qty "
        "FROM customer c "
        "JOIN orders o ON c.c_custkey = o.o_custkey "
        "JOIN lineitem l ON o.o_orderkey = l.l_orderkey "
        "GROUP BY c.c_name, c.c_custkey, o.o_orderkey, o.o_orderdate, o.o_totalprice "
        f"HAVING SUM(l.l_quantity) > {_Q18_MIN_QTY}"
    )


def min_price_supplier(sf_dir: str) -> ray.data.Dataset:
    """Group-argmin with payload recovery — for every part, the cheapest
    lineitem price, how many lineitems hit that price, and the smallest
    suppkey among them (the TPC-H Q2/Q17 "join back on the group minimum"
    shape).

    Scale plan: SQL needs two corpus passes (GROUP BY min, then re-join
    lineitem on price = min); here the argmin-with-payload is folded as a
    MERGEABLE partial instead — per batch, a vectorized ``transform('min')``
    screen keeps only rows at the batch-local minimum and collapses them to
    one (partkey, min_price, n_at_min, best_suppkey) row, and merging two
    partials is exact (strictly smaller price wins outright; equal price
    sums n and takes min suppkey — price equality is exact because no
    arithmetic touches the parquet doubles).  ONE part-cardinality grouped
    exchange replaces the second corpus scan entirely; the in-block fold is
    the same vectorized screen (colocation invariant, ``util.py``).  Price
    reported in milli-units (``floor(p*1000+0.5)`` both engines).

    Output: (l_partkey, min_price_milli, n_at_min, best_suppkey).
    """
    ensure_picklable()

    _EMPTY = {
        "l_partkey": "int64",
        "mp": "float64",
        "n_at_min": "int64",
        "best_suppkey": "int64",
    }

    def _screen(df: pd.DataFrame, price: str, n: str, supp: str) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({c: pd.Series([], dtype=t) for c, t in _EMPTY.items()})
        mn = df.groupby("l_partkey", sort=False)[price].transform("min")
        at = df[df[price].to_numpy() == mn.to_numpy()]
        g = at.groupby("l_partkey", sort=False, as_index=False).agg(
            mp=(price, "min"),
            n_at_min=(n, "sum") if n else (price, "size"),
            best_suppkey=(supp, "min"),
        )
        g["l_partkey"] = g["l_partkey"].astype("int64")
        g["n_at_min"] = g["n_at_min"].astype("int64")
        g["best_suppkey"] = g["best_suppkey"].astype("int64")
        return g

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return _screen(df, "l_extendedprice", "", "l_suppkey")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        out = _screen(df, "mp", "n_at_min", "best_suppkey")
        if len(out) == 0:
            return pd.DataFrame(
                {
                    "l_partkey": pd.Series([], dtype="int64"),
                    "min_price_milli": pd.Series([], dtype="int64"),
                    "n_at_min": pd.Series([], dtype="int64"),
                    "best_suppkey": pd.Series([], dtype="int64"),
                }
            )
        return pd.DataFrame(
            {
                "l_partkey": out["l_partkey"],
                "min_price_milli": np.floor(
                    out["mp"].to_numpy(dtype="float64") * 1000.0 + 0.5
                ).astype("int64"),
                "n_at_min": out["n_at_min"],
                "best_suppkey": out["best_suppkey"],
            }
        )

    ds = read_table(
        sf_dir, "lineitem", columns=["l_partkey", "l_suppkey", "l_extendedprice"]
    )
    ds = ds.map_batches(partial, batch_format="pandas")
    # sort by EXACTLY the group key (colocation invariant, util.py)
    return colocate(ds, ["l_partkey"], fold)


def sql_min_price_supplier() -> str:
    return (
        "WITH m AS (SELECT l_partkey, MIN(l_extendedprice) AS mp "
        "FROM lineitem GROUP BY l_partkey) "
        "SELECT m.l_partkey, "
        "CAST(floor(m.mp * 1000 + 0.5) AS BIGINT) AS min_price_milli, "
        "COUNT(*) AS n_at_min, MIN(l.l_suppkey) AS best_suppkey "
        "FROM m JOIN lineitem l "
        "ON l.l_partkey = m.l_partkey AND l.l_extendedprice = m.mp "
        "GROUP BY m.l_partkey, m.mp"
    )


def dormant_customers(
    sf_dir: str, *, cutoff: str = "2000-01-01"
) -> ray.data.Dataset:
    """ANTI-JOIN — the join family's last missing member: customers with
    NO order at or after ``cutoff`` (SQL ``NOT EXISTS`` with a date
    predicate — the churn/dormancy screen), emitted as full customer
    rows.  The left-outer op above aggregates its outer leg; this op
    RETURNS it.

    Scale plan: the order side is row-filtered AT THE READ (pyarrow
    predicate pushdown — pre-cutoff row groups never leave storage) and
    collapses to per-batch DISTINCT custkeys (id-width rows only — the
    fact table's values never shuffle); both sides co-partition on
    custkey in ONE sort exchange (``util.copartition``); each block runs
    a vectorized ``isin`` anti-filter (every occurrence of a key lands in
    its block, so block-local absence IS global absence).  No broadcast,
    no driver materialization — the co-partitioned hash-join topology
    with the probe side reduced to its key set.

    Output: (c_custkey, c_name, acctbal_cents), one row per dormant
    customer.
    """
    ensure_picklable()
    import pyarrow.dataset as pads

    cut = pd.Timestamp(cutoff)
    cust = read_table(
        sf_dir, "customer", columns=["c_custkey", "c_name", "c_acctbal"]
    )
    orders = read_table(
        sf_dir, "orders", columns=["o_custkey"],
        filter_expr=(pads.field("o_orderdate") >= cut.to_datetime64()),
    )

    def cust_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "c_custkey": df["c_custkey"],
                "c_name": df["c_name"],
                "acctbal_cents": np.floor(
                    df["c_acctbal"].to_numpy(dtype="float64") * 100.0 + 0.5
                ).astype("int64"),
            }
        )

    def recent_keys(df: pd.DataFrame) -> pd.DataFrame:
        # batch-local combiner: one row per DISTINCT recent custkey
        return pd.DataFrame({"o_custkey": pd.unique(df["o_custkey"].to_numpy("int64"))})

    def anti(p: dict) -> pd.DataFrame:
        c = p["c"]
        return c[~c["c_custkey"].isin(p["o"]["o_custkey"])]

    return copartition(
        {
            "c": (cust.map_batches(cust_side, batch_format="pandas", batch_size=None),
                  ["c_custkey"],
                  {"c_custkey": "int64", "c_name": "object", "acctbal_cents": "int64"}),
            "o": (orders.map_batches(recent_keys, batch_format="pandas", batch_size=None),
                  ["o_custkey"], {"o_custkey": "int64"}),
        },
        anti,
    )


def sql_dormant_customers(cutoff: str = "2000-01-01") -> str:
    return (
        "SELECT c_custkey, c_name, "
        "CAST(floor(c_acctbal * 100 + 0.5) AS BIGINT) AS acctbal_cents "
        "FROM customer c WHERE NOT EXISTS "
        "(SELECT 1 FROM orders o WHERE o.o_custkey = c.c_custkey "
        f"AND o.o_orderdate >= TIMESTAMP '{cutoff}')"
    )


_CDC_PRICE_BUMP = 500.0
_CDC_INSERT_BASE = 2_000_000


def orders_cdc_merge(sf_dir: str) -> ray.data.Dataset:
    """CDC UPSERT-MERGE — the lakehouse compaction primitive: fold a
    changelog (updates + inserts) into a base table with
    last-write-wins-by-version semantics, keyed on the primary key.
    The changelog is synthesized deterministically from the base (the
    line_dedup/pii_augment precedent): every ``o_orderkey % 7 == 3`` row
    gets a price-corrected UPDATE, every ``% 13 == 5`` row an INSERT
    under key+2,000,000 — the oracle replays the synthesis expression by
    expression.

    Scale plan: base and delta are two tagged scans (version 0 / 1) into
    ONE dedup exchange keyed on the primary key —
    ``grouped_block_dedup(key, order=[neg_ver])`` keeps each key's
    highest-version row with zero per-group dispatch; nothing else
    shuffles and the driver sees nothing.  This is exactly how a
    periodic compaction job folds a day's CDC stream into a snapshot:
    co-partition by key, keep max-version, write back partitioned.

    Output: (o_orderkey, price_cents, ver) — the merged snapshot.
    """
    ensure_picklable()
    from .util import grouped_block_dedup

    base = read_table(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def tag_base(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "price_cents": np.floor(
                    df["o_totalprice"].to_numpy(dtype="float64") * 100.0 + 0.5
                ).astype("int64"),
                "ver": np.zeros(len(df), dtype=np.int64),
                "neg_ver": np.zeros(len(df), dtype=np.int64),
            }
        )

    def tag_delta(df: pd.DataFrame) -> pd.DataFrame:
        k = df["o_orderkey"].to_numpy("int64")
        pc = np.floor(
            df["o_totalprice"].to_numpy(dtype="float64") * 100.0 + 0.5
        ).astype("int64")
        upd = k % 7 == 3
        ins = k % 13 == 5
        bump = np.int64(round(_CDC_PRICE_BUMP * 100))
        out = pd.DataFrame(
            {
                "o_orderkey": np.concatenate(
                    [k[upd], k[ins] + _CDC_INSERT_BASE]
                ),
                "price_cents": np.concatenate([pc[upd] + bump, pc[ins]]),
            }
        )
        out["ver"] = np.int64(1)
        out["neg_ver"] = np.int64(-1)
        return out

    tagged = base.map_batches(
        tag_base, batch_format="pandas", batch_size=None
    ).union(
        base.map_batches(tag_delta, batch_format="pandas", batch_size=None)
    )
    merged = grouped_block_dedup(tagged, ["o_orderkey"], order=["neg_ver"])

    def project(df: pd.DataFrame) -> pd.DataFrame:
        return df[["o_orderkey", "price_cents", "ver"]]

    return merged.map_batches(project, batch_format="pandas", batch_size=None)


def sql_orders_cdc_merge() -> str:
    bump = int(round(_CDC_PRICE_BUMP * 100))
    return (
        "WITH base AS (SELECT o_orderkey, "
        "CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT) AS price_cents, "
        "CAST(0 AS BIGINT) AS ver FROM orders), "
        "delta AS ("
        f"SELECT o_orderkey, price_cents + {bump} AS price_cents, "
        "CAST(1 AS BIGINT) AS ver FROM base WHERE o_orderkey % 7 = 3 "
        "UNION ALL "
        f"SELECT o_orderkey + {_CDC_INSERT_BASE} AS o_orderkey, price_cents, "
        "CAST(1 AS BIGINT) AS ver FROM base WHERE o_orderkey % 13 = 5), "
        "u AS (SELECT *, ROW_NUMBER() OVER (PARTITION BY o_orderkey "
        "ORDER BY ver DESC) AS rn FROM (SELECT * FROM base "
        "UNION ALL SELECT * FROM delta)) "
        "SELECT o_orderkey, price_cents, ver FROM u WHERE rn = 1"
    )


# ---------------------------------------------------------------------------
# nation_trade_volume — TPC-H Q7-shaped nation-pair volume join
# ---------------------------------------------------------------------------


def nation_trade_volume(
    sf_dir: str, broadcast_limit: int = 2_000_000
) -> ray.data.Dataset:
    """TPC-H Q7-shaped bilateral trade volume: revenue shipped from each
    SUPPLIER nation to each (different) CUSTOMER nation per ship-year —
    the multi-dimension volume join (nation-pair × year group keys) that
    Q5's single-dimension rollup does not exercise.

    Scale plan (same machinery as ``regional_revenue_q5``, without its
    region/date pruning — every dimension still never shuffles):
    - nation → name map (≤25 entries) and supplier → nationkey sorted
      arrays broadcast once via ``ray.put``.
    - customer attach is the distributed-count-proven dual plan: under
      ``broadcast_limit`` the (custkey, nationkey) pairs broadcast and
      orders attach the customer nation per batch with ZERO exchange;
      above it, one custkey co-partition (``_order_nations``; forced in
      tests; plans pinned identical).
    - lineitem maps supplier → nation and per-batch combines to
      (orderkey, s_nat, year, partial_rev, partial_n) — the one
      orderkey co-partition exchange ships combined partials, not line rows.
    - per-block join keeps s_nat ≠ c_nat (the Q7 cross-nation filter)
      and folds to ≤ 25·24·years partial rows per block; the bounded
      final fold is one ``repartition(1)`` in-block groupby.

    Output: (supp_nation, cust_nation, l_year, n_items, revenue_e4)\n    with revenue EXACT in integer 1e-4-dollar units (cents x (100-pct)),\n    so the result is bit-identical at any parallelism and in DuckDB."""
    ensure_picklable()
    import pyarrow.parquet as pq

    import ray

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nat_names = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )
    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sup_keys = supplier["s_suppkey"].to_numpy().astype(np.int64)
    sup_nats = supplier["s_nationkey"].to_numpy().astype(np.int64)
    order = np.argsort(sup_keys)
    sup_ref = ray.put((sup_keys[order], sup_nats[order]))

    cust = read_table(sf_dir, "customer", columns=["c_custkey", "c_nationkey"])
    orders = read_table(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    orders_nat = _order_nations(cust, orders, cust.count() <= broadcast_limit)

    lineitem = read_table(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount",
                 "l_shipdate"],
    )

    def line_partials(df: pd.DataFrame) -> pd.DataFrame:
        sel = _supplier_nation(df, sup_ref)
        sel["year"] = pd.DatetimeIndex(sel["l_shipdate"]).year.astype("int64")
        # exact integer revenue in 1e-4 dollars: price and discount are
        # 2-decimal-representable (max float error < 1e-9, measured), so
        # cents x (100 - pct) is exact and parallel-sum-order-free --
        # float SUM + ROUND(2) disagreed with DuckDB on 24/4188 groups
        pc_ = np.rint(sel["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        dp_ = np.rint(sel["l_discount"].to_numpy() * 100).astype(np.int64)
        sel["rev"] = pc_ * (100 - dp_)
        return sel.groupby(["l_orderkey", "nat", "year"], as_index=False,
                           sort=False).agg(rev=("rev", "sum"), n=("rev", "size")
                                           ).rename(columns={"l_orderkey": "o_orderkey"})

    def join_line(p: dict) -> pd.DataFrame:
        j = p["l"].merge(p["o"], on="o_orderkey", how="inner")
        j = j[j["nat"] != j["c_nat"]]  # the Q7 cross-nation filter
        g = j.groupby(["nat", "c_nat", "year"], as_index=False, sort=False).agg(
            p_rev=("rev", "sum"), p_n=("n", "sum")
        )
        return g.rename(columns={"nat": "s_nat"}).astype("int64")

    partials = copartition(
        {
            "o": (orders_nat, ["o_orderkey"], {"o_orderkey": "int64", "c_nat": "int64"}),
            "l": (lineitem.map_batches(line_partials, batch_format="pandas"), ["o_orderkey"],
                  {"o_orderkey": "int64", "nat": "int64", "year": "int64",
                   "rev": "int64", "n": "int64"}),
        },
        join_line,
    )

    # bounded fold: ≤ 25·24·years rows per block
    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["s_nat", "c_nat", "year"], as_index=False,
                       sort=True).agg(rev_raw=("p_rev", "sum"),
                                      n_raw=("p_n", "sum"))
        return pd.DataFrame(
            {
                "supp_nation": g["s_nat"].map(nat_names),
                "cust_nation": g["c_nat"].map(nat_names),
                "l_year": g["year"].astype("int64"),
                "n_items": g["n_raw"].astype("int64"),
                "revenue_e4": g["rev_raw"].astype("int64"),
            }
        )

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def sql_nation_trade_volume() -> str:
    return (
        "SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation, "
        "CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year, "
        "CAST(count(*) AS BIGINT) AS n_items, "
        "CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT) "
        "AS revenue_e4 "
        "FROM lineitem l "
        "JOIN supplier s ON s.s_suppkey = l.l_suppkey "
        "JOIN orders o ON o.o_orderkey = l.l_orderkey "
        "JOIN customer c ON c.c_custkey = o.o_custkey "
        "JOIN nation n1 ON n1.n_nationkey = s.s_nationkey "
        "JOIN nation n2 ON n2.n_nationkey = c.c_nationkey "
        "WHERE n1.n_nationkey != n2.n_nationkey "
        "GROUP BY 1, 2, 3"
    )


def nation_market_share(sf_dir: str) -> ray.data.Dataset:
    """TPC-H Q8-flavoured RATIO-OF-AGGREGATES: each supplier nation's
    share of total shipped revenue per ship-year — the windowed
    normalization pattern (a grouped aggregate divided by its
    year-window total) the plain grouped ops don't exercise.

    Scale plan — the cheapest shape in the join family: supplier →
    nationkey sorted arrays broadcast once; every lineitem batch combines
    to ≤ 25·years integer partial rows (exact 1e-4-dollar revenue, the
    ``nation_trade_volume`` units), so the ONLY movement after the pruned
    scan is a ``repartition(1)`` of bounded partials; both aggregate
    levels (nation-year revenue and the year windows it normalizes by)
    fold in that single in-block pass.  All-integer output —
    share_milli = 1000·rev // year_total — so the result is bit-identical
    at any parallelism and in DuckDB.

    Output: (supp_nation, l_year, revenue_e4, share_milli)."""
    ensure_picklable()
    import pyarrow.parquet as pq

    import ray

    nation = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    )
    nat_names = dict(
        zip(nation["n_nationkey"].to_pylist(), nation["n_name"].to_pylist())
    )
    supplier = pq.read_table(
        f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_nationkey"]
    )
    sup_keys = supplier["s_suppkey"].to_numpy().astype(np.int64)
    sup_nats = supplier["s_nationkey"].to_numpy().astype(np.int64)
    order = np.argsort(sup_keys)
    sup_ref = ray.put((sup_keys[order], sup_nats[order]))

    lineitem = read_table(
        sf_dir, "lineitem",
        columns=["l_suppkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        skeys, snats = ray.get(sup_ref)
        v = df["l_suppkey"].to_numpy(dtype=np.int64)
        pos = np.searchsorted(skeys, v)
        hit = (pos < len(skeys)) & (skeys[np.minimum(pos, len(skeys) - 1)] == v)
        sel = df[hit].copy()
        sel["nat"] = snats[pos[hit]]
        sel["year"] = pd.DatetimeIndex(sel["l_shipdate"]).year.astype("int64")
        pc_ = np.rint(sel["l_extendedprice"].to_numpy() * 100).astype(np.int64)
        dp_ = np.rint(sel["l_discount"].to_numpy() * 100).astype(np.int64)
        sel["rev"] = pc_ * (100 - dp_)
        g = sel.groupby(["nat", "year"], as_index=False, sort=False)["rev"].sum()
        return pd.DataFrame(
            {
                "nat": g["nat"].astype("int64"),
                "year": g["year"].astype("int64"),
                "rev": g["rev"].astype("int64"),
            }
        )

    partials = lineitem.map_batches(partial, batch_format="pandas")

    # bounded fold: ≤ 25 nations × years rows per input block
    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["nat", "year"], as_index=False, sort=True)["rev"].sum()
        totals = g.groupby("year")["rev"].transform("sum")
        return pd.DataFrame(
            {
                "supp_nation": g["nat"].map(nat_names),
                "l_year": g["year"].astype("int64"),
                "revenue_e4": g["rev"].astype("int64"),
                "share_milli": (1000 * g["rev"] // totals).astype("int64"),
            }
        )

    return partials.repartition(1).map_batches(
        finish, batch_format="pandas", batch_size=None
    )


def sql_nation_market_share() -> str:
    return (
        "WITH ms AS (SELECT n.n_name AS supp_nation, "
        "CAST(EXTRACT(year FROM l.l_shipdate) AS BIGINT) AS l_year, "
        "CAST(SUM(CAST(round(l.l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l.l_discount * 100) AS BIGINT))) AS BIGINT) "
        "AS revenue_e4 "
        "FROM lineitem l "
        "JOIN supplier s ON s.s_suppkey = l.l_suppkey "
        "JOIN nation n ON n.n_nationkey = s.s_nationkey "
        "GROUP BY 1, 2) "
        "SELECT supp_nation, l_year, revenue_e4, "
        "CAST(1000 * revenue_e4 // "
        "SUM(revenue_e4) OVER (PARTITION BY l_year) AS BIGINT) "
        "AS share_milli FROM ms"
    )
