"""Key-sorted co-location (``pipelines/util.py``): keyed exchanges sort on
the join key itself, so the rows one join call sees follow Ray's partition
count instead of a fixed bucket count; and the bounded folds that feed the
driver stay bounded."""

import os
import uuid

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray


def _write_parts(path, frames):
    """One parquet file per frame under ``path`` (a directory the readers
    take as one table), so the read yields one block per file."""
    os.makedirs(path)
    for i, df in enumerate(frames):
        pq.write_table(pa.Table.from_pandas(df, preserve_index=False), f"{path}/{i:03d}.parquet")


def _record_block_sizes(monkeypatch, log_dir):
    """Make every whole-block ``map_batches`` (``batch_size=None``) write the
    row count of each frame its function receives into ``log_dir``."""
    orig = ray.data.Dataset.map_batches

    def spy(self, fn, *args, **kwargs):
        if "batch_size" in kwargs and kwargs["batch_size"] is None:
            inner, where = fn, str(log_dir)

            def fn(df, inner=inner, where=where):
                with open(os.path.join(where, uuid.uuid4().hex), "w") as f:
                    f.write(str(len(df)))
                return inner(df)

        return orig(self, fn, *args, **kwargs)

    monkeypatch.setattr(ray.data.Dataset, "map_batches", spy)
    return lambda: [int(open(os.path.join(log_dir, n)).read()) for n in os.listdir(log_dir)]


def test_keyed_join_frames_follow_partition_count(ray_session, tmp_path, monkeypatch):
    """orders ⋈ lineitem over 64 + 64 input blocks of uniform keys: the
    largest frame the join function receives is well under rows/32 (a fixed
    32-bucket exchange hands it at least one whole bucket, rows/32), and the
    result equals pandas."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.joins import (
        orders_lineitem_join,
    )

    n_files, per_file = 64, 1100
    keys = np.arange(1, n_files * per_file + 1, dtype=np.int64)
    orders = pd.DataFrame(
        {"o_orderkey": keys, "o_orderpriority": [f"{k % 5}-P" for k in keys]}
    )
    lineitem = pd.DataFrame(
        {"l_orderkey": np.repeat(keys, 2), "l_quantity": np.tile([1.0, 2.0], len(keys))}
    )
    sf = tmp_path / "sf"
    _write_parts(f"{sf}/orders.parquet",
                 [orders[i * per_file:(i + 1) * per_file] for i in range(n_files)])
    _write_parts(f"{sf}/lineitem.parquet",
                 [lineitem[2 * i * per_file:2 * (i + 1) * per_file] for i in range(n_files)])
    log = tmp_path / "sizes"
    log.mkdir()
    sizes = _record_block_sizes(monkeypatch, log)
    # exactly one read block per file: Ray would otherwise merge these small
    # files toward its minimum block size, or split them toward its
    # minimum block count
    from ray.data import DataContext

    ctx = DataContext.get_current()
    monkeypatch.setattr(ctx, "target_min_block_size", 1)
    monkeypatch.setattr(ctx, "read_op_min_num_blocks", n_files)

    got = orders_lineitem_join(str(sf)).to_pandas()

    rows = len(orders) + len(lineitem)
    seen = sizes()
    assert sum(seen) == rows
    assert max(seen) <= 0.75 * rows / 32, (max(seen), rows / 32)
    j = lineitem.merge(orders, left_on="l_orderkey", right_on="o_orderkey")
    want = j.groupby("o_orderpriority").agg(
        n_items=("l_quantity", "size"), sum_qty=("l_quantity", "sum")
    ).reset_index()
    got = got.sort_values("o_orderpriority", ignore_index=True)
    assert got["o_orderpriority"].tolist() == want["o_orderpriority"].tolist()
    assert got["n_items"].tolist() == want["n_items"].tolist()
    assert got["sum_qty"].tolist() == want["sum_qty"].astype("int64").tolist()


def test_copartition_sides_keys_and_absent_sides(ray_session):
    """Three sides with differently named keys and disjoint columns: each
    side's frame keeps its own columns and dtypes, a side with no rows in a
    block arrives empty (never missing), and every key's rows on every side
    meet in one call."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.util import copartition

    a = pd.DataFrame({"ka": np.arange(0, 400, dtype=np.int64), "s": "x"})
    b = pd.DataFrame({"kb": np.arange(0, 400, 2, dtype=np.int64), "f": 0.5})
    c = pd.DataFrame({"kc": np.arange(200, 600, dtype=np.int64), "t": pd.Timestamp("2024-01-02")})

    def join(p):
        assert set(p) == {"a", "b", "c"}
        assert list(p["a"].columns) == ["ka", "s"] and p["a"]["ka"].dtype == np.int64
        assert list(p["b"].columns) == ["kb", "f"] and p["b"]["f"].dtype == np.float64
        assert list(p["c"].columns) == ["kc", "t"]
        m = p["a"].merge(p["b"], left_on="ka", right_on="kb").merge(
            p["c"], left_on="ka", right_on="kc"
        )
        return pd.DataFrame({"k": m["ka"].to_numpy(np.int64)})

    out = copartition(
        {
            "a": (ray.data.from_pandas(a, override_num_blocks=8), ["ka"],
                  {"ka": "int64", "s": "object"}),
            "b": (ray.data.from_pandas(b, override_num_blocks=4), ["kb"],
                  {"kb": "int64", "f": "float64"}),
            "c": (ray.data.from_pandas(c, override_num_blocks=8), ["kc"],
                  {"kc": "int64", "t": "datetime64[us]"}),
        },
        join,
    ).to_pandas()
    assert sorted(out["k"]) == list(range(200, 400, 2))

    with pytest.raises(ValueError):
        copartition(
            {"a": (ray.data.from_pandas(a), ["ka"], {"ka": "int64", "s": "object"}),
             "b": (ray.data.from_pandas(b), ["f"], {"kb": "int64", "f": "float64"})},
            join,
        )


def test_copartition_loop_lineage_stays_linear(ray_session):
    """A loop that feeds a three-sided ``copartition``'s output back in as
    two of its sides (the label-propagation shape) keeps a stats lineage
    linear in the rounds: an n-ary ``Dataset.union`` copies each input's
    lineage, so the operator count doubled per round (and every round got
    slower)."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.util import copartition

    ids = {"node": "int64"}
    base = ray.data.from_pandas(pd.DataFrame({"node": np.arange(10, dtype=np.int64)}))
    state = base.materialize()
    for _ in range(6):
        state = copartition(
            {"e": (base, ["node"], ids), "a": (state, ["node"], ids), "b": (state, ["node"], ids)},
            lambda p: p["a"].drop_duplicates(),
        ).repartition(1).materialize()
    ops = [line for line in state.stats().splitlines() if line.startswith("Operator")]
    assert sorted(state.to_pandas()["node"]) == list(range(10))
    assert len(ops) <= 20 * 6, len(ops)


def test_part_skyline_driver_gets_one_row_per_size(ray_session, tmp_path, monkeypatch):
    """part_skyline over 8 input blocks that each hold every size: the
    champions fold before the driver, so ``to_pandas`` returns at most one
    row per distinct size (the per-block partials are sizes × blocks), and
    the frontier equals the SQL oracle."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.relational import (
        part_skyline,
        sql_part_skyline,
    )

    rng = np.random.default_rng(5)
    n_files, per_file, n_sizes = 8, 1100, 10
    frames = [
        pd.DataFrame(
            {
                "p_partkey": np.arange(i * per_file, (i + 1) * per_file, dtype=np.int64),
                "p_size": np.arange(per_file, dtype=np.int64) % n_sizes + 1,
                "p_retailprice": np.round(rng.uniform(900, 2000, per_file), 2),
            }
        )
        for i in range(n_files)
    ]
    sf = tmp_path / "sf"
    _write_parts(f"{sf}/part.parquet", frames)
    received = []
    orig = ray.data.Dataset.to_pandas

    def spy(self, *args, **kwargs):
        df = orig(self, *args, **kwargs)
        received.append(len(df))
        return df

    monkeypatch.setattr(ray.data.Dataset, "to_pandas", spy)

    got = part_skyline(str(sf))

    assert received and max(received) <= n_sizes, received
    con = duckdb.connect()
    con.execute(f"CREATE VIEW part AS SELECT * FROM read_parquet('{sf}/part.parquet/*.parquet')")
    want = con.execute(sql_part_skyline()).df().sort_values("p_size", ignore_index=True)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), want.astype(got.dtypes.to_dict()), check_dtype=False
    )


def test_page_link_audit_is_one_host_exchange(ray_session):
    """page_link_audit co-partitions its page and target sides on the host
    in one exchange: the executed plan has exactly one ``Sort`` and no hash
    ``Aggregate`` (the (host, slot) Max-merge before the host fold is
    gone), and the audit equals the SQL oracle."""
    from action_pdf_accessibility_paddle_docker_ray.pipelines.web_ops import (
        page_link_audit,
        sql_page_link_audit,
    )

    sf = "/root/testdata/sf0.01"
    ds = page_link_audit(sf).materialize()
    ops = [line for line in ds.stats().splitlines() if line.startswith("Operator")]
    assert not [op for op in ops if "Aggregate" in op], ops
    assert len([op for op in ops if "Sort" in op]) == 1, ops

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM read_parquet('{sf}/documents.parquet')")
    want = con.execute(sql_page_link_audit()).df().sort_values("host", ignore_index=True)
    got = ds.to_pandas().sort_values("host", ignore_index=True)
    assert len(got) == len(want) > 0
    assert got["host"].tolist() == want["host"].tolist()
    for col in ("n_pages", "n_orphans", "n_dangling"):
        assert got[col].astype("int64").tolist() == want[col].astype("int64").tolist(), col
    assert (got["n_orphans"] > 0).any() and (got["n_dangling"] > 0).any()
