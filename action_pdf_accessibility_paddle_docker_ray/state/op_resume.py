"""Resumable sinks for the expensive op families.

The flagship extraction resumes per chunk of input shards
(``manifest.py``).  The corpus-global ops (``dedup_corpus``,
``paragraph_dedup``, ...) cannot shard their input — every output row
depends on the whole corpus — so their units are different.  Every unit
goes through the shared checkpoint protocol (``checkpoint.py``: one run
key over ``documents.parquet``'s (name, size, mtime_ns), the op's
parameters including ``n_buckets`` and the engine version; atomic unit
publish; start-of-run sweep of everything not committed under the key):

- **Phase A, unit ``_state``**: the expensive corpus-wide computation
  (the drop set of a dedup, paragraph winners, dup windows) is written
  once as parquet.  A restart under the same key reloads it instead of
  recomputing — that is where the hours go at scale.
- **Phase B, units ``bucket-<b>``**: the remaining work is embarrassingly
  parallel per doc bucket (``doc_id % n_buckets``); a restart skips the
  committed buckets.  A changed input, parameter or bucket count changes
  the key, so the sweep drops every old bucket and the state with it.
- **PageRank**: each iteration's rank table is unit ``iter-<k>``, the
  final table unit ``ranks``.

The same pattern is the 100 TB shape: phase A is the all-to-all the
engine must pay once; phase B streams, bucket by bucket, and a failed
run re-pays only its unfinished units.
"""

from __future__ import annotations

import os
from typing import Any, Callable

import pandas as pd

from .checkpoint import Checkpoint

STATE = "_state"


def _checkpoint(sf_dir: str, out_dir: str, params: dict) -> Checkpoint:
    return Checkpoint(out_dir, [os.path.join(sf_dir, "documents.parquet")], params)


def _state(ck: Checkpoint, write: Callable[[str], dict | None]) -> tuple[dict, bool]:
    """Phase A: the committed ``_state`` record, or publish it now."""
    record = ck.done(STATE)
    return (record, True) if record else (ck.publish(STATE, write), False)


def _buckets(
    ck: Checkpoint, n_buckets: int, bucket_ds: Callable[[int], Any], state_reused: bool,
) -> dict:
    """Phase B: publish every bucket not committed under the run key."""
    run, skipped, rows = 0, 0, 0
    for b in range(n_buckets):
        if ck.done(f"bucket-{b}"):
            skipped += 1
            continue
        rows += ck.publish_dataset(f"bucket-{b}", bucket_ds(b))["rows"]
        run += 1
    return {
        "buckets_total": n_buckets,
        "buckets_skipped": skipped,
        "buckets_run": run,
        "state_reused": state_reused,
        "rows_written": rows,
        "wall_sec": ck.elapsed(),
    }


def _map_bucket(
    sf_dir: str, columns: list[str], n_buckets: int, b: int, fn: Callable,
) -> Any:
    """``fn(df)`` over bucket ``b``'s rows of the documents table."""
    from ..sources.pages import read_table

    def bucket_fn(df: pd.DataFrame) -> pd.DataFrame:
        return fn(df[df["doc_id"].astype("int64") % n_buckets == b])

    return read_table(sf_dir, "documents", columns=columns).map_batches(
        bucket_fn, batch_format="pandas"
    )


def _drop_set_run(
    sf_dir: str, out_dir: str, params: dict, build: Callable[[], tuple],
    columns: list[str], keep: Callable,
) -> dict:
    """The drop-set runners: phase A checkpoints the doc_ids the op drops
    (``build() -> (DataFrame | dataset | None, scalar fields)``), phase B writes
    ``keep(bucket_df, dropped, state_record)`` per bucket."""
    import ray

    ck = _checkpoint(sf_dir, out_dir, params)

    def write_state(tmp: str) -> dict:
        df, fields = build()
        if df is not None and not isinstance(df, pd.DataFrame):
            df = df.to_pandas()
        if df is None or "doc_id" not in df.columns:  # zero losers: Ray drops
            df = pd.DataFrame({"doc_id": pd.Series([], dtype="int64")})
        df[["doc_id"]].to_parquet(os.path.join(tmp, "drop.parquet"), index=False)
        return fields

    state, reused = _state(ck, write_state)
    drop = pd.read_parquet(os.path.join(ck.path(STATE), "drop.parquet"))
    # drop-set-sized (never corpus-sized): one broadcast
    drop_ref = ray.put(frozenset(int(d) for d in drop["doc_id"]))
    n = params["n_buckets"]
    return _buckets(ck, n, lambda b: _map_bucket(
        sf_dir, columns, n, b, lambda df: keep(df, ray.get(drop_ref), state)
    ), reused)


def _kept_ids(df: pd.DataFrame, dropped: frozenset) -> pd.DataFrame:
    ids = df["doc_id"].astype("int64")
    return pd.DataFrame({"doc_id": ids[~ids.isin(dropped)]})


def _minhash_params(op: str, n_buckets: int, num_perm: int, bands: int,
                    threshold: float, shingle_k: int) -> dict:
    return {"op": op, "n_buckets": n_buckets, "num_perm": num_perm, "bands": bands,
            "threshold": threshold, "shingle_k": shingle_k}


def run_dedup_corpus_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    n_buckets: int = 8,
    num_perm: int = 126,
    bands: int = 42,
    threshold: float = 0.7,
    shingle_k: int = 5,
) -> dict:
    """Resumable ``dedup_corpus``: checkpoint the minhash cluster losers
    (phase A), then write the keep set per doc bucket (phase B)."""
    from ..pipelines.dedup_ops import minhash_dedup

    params = _minhash_params("dedup_corpus", n_buckets, num_perm, bands, threshold,
                             shingle_k)

    def build() -> tuple:
        clusters = minhash_dedup(sf_dir, num_perm=num_perm, bands=bands,
                                 threshold=threshold, shingle_k=shingle_k)
        losers = clusters.loc[clusters["doc_id"] != clusters["rep_id"], ["doc_id"]]
        return losers, None

    return _drop_set_run(sf_dir, out_dir, params, build, ["doc_id"],
                         lambda df, dropped, _: _kept_ids(df, dropped))


def run_dedup_keep_best_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    n_buckets: int = 8,
    num_perm: int = 126,
    bands: int = 42,
    threshold: float = 0.7,
    shingle_k: int = 5,
) -> dict:
    """Resumable ``dedup_keep_best``: phase A checkpoints the loser drop
    table (``keep_best_drop_ds`` — the minhash clusters plus the one
    grouped per-cluster argmax exchange), phase B writes survivors per doc
    bucket."""
    from ..pipelines.dedup_ops import keep_best_drop_ds

    params = _minhash_params("dedup_keep_best", n_buckets, num_perm, bands, threshold,
                             shingle_k)
    return _drop_set_run(
        sf_dir, out_dir, params,
        lambda: (keep_best_drop_ds(sf_dir, num_perm=num_perm, bands=bands,
                                   threshold=threshold, shingle_k=shingle_k), None),
        ["doc_id"], lambda df, dropped, _: _kept_ids(df, dropped),
    )


def run_incremental_fuzzy_dedup_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    n_buckets: int = 8,
    num_perm: int = 126,
    bands: int = 42,
    threshold: float = 0.7,
    shingle_k: int = 5,
) -> dict:
    """Resumable ``incremental_fuzzy_dedup``: phase A checkpoints the
    verified cross-side drop table plus the id-median ``split`` scalar
    (``incremental_fuzzy_drop_ds`` — the LSH + exact-verify exchange),
    phase B writes the surviving NEW-side ids per doc bucket."""
    from ..pipelines.dedup_ops import incremental_fuzzy_drop_ds

    params = _minhash_params("incremental_fuzzy_dedup", n_buckets, num_perm, bands,
                             threshold, shingle_k)

    def build() -> tuple:
        drop_ds, split = incremental_fuzzy_drop_ds(
            sf_dir, num_perm=num_perm, bands=bands, threshold=threshold,
            shingle_k=shingle_k,
        )
        return drop_ds, {"split": int(split)}

    def keep(df: pd.DataFrame, dropped: frozenset, state: dict) -> pd.DataFrame:
        return _kept_ids(df[df["doc_id"].astype("int64") >= state["split"]], dropped)

    return _drop_set_run(sf_dir, out_dir, params, build, ["doc_id"], keep)


def run_corpus_curate_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    n_buckets: int = 8,
    seed: int = 7,
) -> dict:
    """Resumable ``corpus_curate``: phase A checkpoints ONLY the dedup
    loser set (``curate_dup_losers_ds`` — the single corpus-global
    decision in the composite; loser-count-sized, empty on a clean
    corpus), phase B recomputes the stateless quality gate + stratified
    sampler per doc bucket (free — pure per-row kernels).  The output
    union is bit-identical to ``corpus_curate``."""
    from ..pipelines.sampling import curate_dup_losers_ds, curate_keep_mask

    params = {"op": "corpus_curate", "n_buckets": n_buckets, "seed": seed}
    return _drop_set_run(
        sf_dir, out_dir, params, lambda: (curate_dup_losers_ds(sf_dir), None),
        ["doc_id", "lang", "text"],
        lambda df, losers, _: curate_keep_mask(df, losers, seed),
    )


def run_substring_dedup_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    n_buckets: int = 8,
) -> dict:
    """Resumable ``substring_dedup``: checkpoint the corpus-wide
    dup-window table (h, keeper) — phase A, the one grouped exchange —
    then scrub + write per doc bucket (phase B, a pure map over that
    bucket's rows against the broadcast keeper map)."""
    import ray

    from ..pipelines.text_ops import _SUBDUP_K, subdup_dup_ds, subdup_scrub_df
    from ..sources.pages import read_table

    ck = _checkpoint(sf_dir, out_dir,
                     {"op": "substring_dedup", "n_buckets": n_buckets, "k": _SUBDUP_K})
    _, reused = _state(ck, lambda tmp: subdup_dup_ds(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    ).to_pandas().to_parquet(os.path.join(tmp, "dup_windows.parquet"), index=False))
    dup_df = pd.read_parquet(os.path.join(ck.path(STATE), "dup_windows.parquet"))
    dup_ref = ray.put(dict(zip(dup_df["h"], dup_df["keeper"].astype(int))))
    return _buckets(ck, n_buckets, lambda b: _map_bucket(
        sf_dir, ["doc_id", "text"], n_buckets, b,
        lambda df: subdup_scrub_df(df, ray.get(dup_ref)),
    ), reused)


def run_paragraph_dedup_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    n_buckets: int = 8,
) -> dict:
    """Resumable ``paragraph_dedup``: checkpoint the corpus-wide paragraph
    winner table partitioned by doc bucket (phase A — the one grouped
    exchange on ``para``), then reassemble + write per bucket (phase B,
    reads only that bucket's winner partition)."""
    import ray.data

    from ..pipelines.text_ops import _para_seeds, paragraph_assemble, paragraph_winners
    from ..sources.pages import read_table

    ck = _checkpoint(sf_dir, out_dir, {"op": "paragraph_dedup", "n_buckets": n_buckets})

    def add_bucket(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        df["doc_bucket"] = (df["doc_id"].astype("int64") % n_buckets).astype("int64")
        return df

    _, reused = _state(ck, lambda tmp: paragraph_winners(
        read_table(sf_dir, "documents", columns=["doc_id", "text"])
    ).map_batches(add_bucket, batch_format="pandas").write_parquet(
        os.path.join(tmp, "winners"), partition_cols=["doc_bucket"]
    ))

    def bucket_ds(b: int) -> Any:
        seeds = _map_bucket(sf_dir, ["doc_id", "text"], n_buckets, b, _para_seeds)
        part_dir = os.path.join(ck.path(STATE), "winners", f"doc_bucket={b}")
        if os.path.isdir(part_dir):
            winners = ray.data.read_parquet(part_dir, columns=["para", "doc_id", "i"])
        else:  # no winner landed in this bucket
            winners = ray.data.from_pandas(pd.DataFrame(
                {"para": pd.Series([], dtype=object), "doc_id": pd.Series([], dtype="int64"),
                 "i": pd.Series([], dtype="int64")}
            ))
        return paragraph_assemble(winners, seeds)

    return _buckets(ck, n_buckets, bucket_ds, reused)


def run_pagerank_resumable(
    sf_dir: str,
    out_dir: str,
    *,
    iters: int = 5,
) -> dict:
    """Resumable PageRank: the ITERATIVE-state member of the resumable
    family — each iteration's full (node, r) rank table is unit
    ``iter-<k>``, so a crash in iteration k+1 restarts from the committed
    iteration k instead of iteration 0.  At scale each lost iteration is
    a full corpus exchange — exactly the work a checkpoint is for;
    integer rank arithmetic makes the resumed trajectory bit-identical to
    a straight run.  The final (doc_id, rank_q) table is unit ``ranks``.

    Returns {resumed_from, iters_run, rows, wall_sec}.
    """
    import numpy as np
    import ray

    from ..pipelines.analytics import _PR_SCALE, _pr_step
    from ..sources.pages import read_table

    ck = _checkpoint(sf_dir, out_dir, {"op": "pagerank", "iters": iters,
                                       "scale": _PR_SCALE})
    start = max((k for k in range(1, iters + 1) if ck.done(f"iter-{k}")), default=0)
    if ck.done("ranks"):
        return {"resumed_from": start, "iters_run": 0, "rows": ck.done("ranks")["rows"],
                "wall_sec": ck.elapsed()}

    # scalars: node count + min id (never row data)
    ids = read_table(sf_dir, "documents", columns=["doc_id"])
    n_nodes = ids.count()
    if n_nodes == 0:
        return {"resumed_from": start, "iters_run": 0, "rows": 0,
                "wall_sec": ck.elapsed()}
    min_id = ids.min("doc_id")
    init_rank = _PR_SCALE // n_nodes
    base = (15 * init_rank) // 100

    def init_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"node": df["doc_id"].to_numpy(dtype=np.int64),
                             "r": np.full(len(df), init_rank, dtype=np.int64)})

    if start > 0:
        ranks = ray.data.read_parquet(ck.path(f"iter-{start}"))
    else:
        ranks = ids.map_batches(init_rows, batch_format="pandas").repartition(
            max(1, n_nodes // 250_000)
        )
    for k in range(start + 1, iters + 1):
        ck.publish_dataset(f"iter-{k}", _pr_step(ranks, n_nodes, min_id, base))
        # downstream reads the checkpoint
        ranks = ray.data.read_parquet(ck.path(f"iter-{k}"))

    def rename_cols(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"doc_id": df["node"], "rank_q": df["r"]})

    rows = ck.publish_dataset(
        "ranks", ranks.map_batches(rename_cols, batch_format="pandas")
    )["rows"]
    return {"resumed_from": start, "iters_run": iters - start, "rows": rows,
            "wall_sec": ck.elapsed()}
