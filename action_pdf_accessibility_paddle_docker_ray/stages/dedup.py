"""Input dedup-by-recency: one row per url, keeping the freshest crawl.

Two-level design so the all-to-all shuffle moves as little as possible:
1. a per-batch combiner (stateless ``map_batches``) drops stale duplicates
   that happen to share a batch — zero shuffle;
2. ``colocate`` on url + a block-level resolve pass handles the rest — the one
   unavoidable range exchange, carrying only the columns extraction reads
   (same co-location guarantee as ``groupby().map_groups``, minus its
   ~10 ms/group dispatch).

Winner = max ``(warc_ts, content_key)`` — the SAME tie-break key the
stale-crawl broadcast and the golden oracle use
(``stages/fanout.content_key``), so every dedup path picks the identical
winner for identical input.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import ray.data

from ..pipelines.util import colocate
from ..schemas import EXTRACT_INPUT
from .fanout import content_key


def best_per_url(df: pd.DataFrame) -> pd.DataFrame:
    """Keep the (warc_ts, content_key)-max row per url; deterministic.

    The content hash is only computed for rows whose url is duplicated
    inside this frame — the common (unique-url) row never pays a hash of
    its payload.  A ``path`` column (``read_parquet(include_paths=True)``)
    breaks exact-duplicate ties, so the kept copy does not depend on
    block order.
    """
    if len(df) <= 1:
        return df
    dup_mask = df["url"].duplicated(keep=False)
    if not dup_mask.any():
        return df
    ck = pd.Series("", index=df.index, dtype="object")
    ck[dup_mask] = [content_key(h) for h in df.loc[dup_mask, "html"]]
    keys = ["url", "warc_ts", "_ck"] + (["path"] if "path" in df else [])
    order = df.assign(_ck=ck).sort_values(keys, kind="mergesort")
    out = order.groupby("url", sort=False).tail(1)
    return out.drop(columns="_ck").reset_index(drop=True)


def dedup_latest(
    ds: ray.data.Dataset, schema: pa.Schema = EXTRACT_INPUT
) -> ray.data.Dataset:
    """One row per url of ``ds``, as Arrow blocks with exactly ``schema``'s
    columns and types (``ds`` must carry them).  Zero-row blocks are the
    exception: the sort emits column-less ones for key ranges that got no
    rows, and Ray's map operators pass zero-row blocks on without calling
    the UDF."""

    def best_per_url_table(df: pd.DataFrame) -> pa.Table:
        best = best_per_url(df[schema.names])
        return pa.Table.from_pandas(best, schema=schema, preserve_index=False)

    ds = ds.map_batches(best_per_url_table, batch_format="pandas")  # combiner, no shuffle
    # co-locate + BLOCK-level resolve instead of groupby().map_groups: the
    # sort gives the same equal-keys-co-located guarantee map_groups relies
    # on, and best_per_url already resolves every url inside a mixed frame
    # — this removes map_groups' ~10 ms/group dispatch, which dominated at
    # 30k+ duplicated urls (measured on the Bloom-route dup corpus)
    return colocate(ds, ["url"], best_per_url_table)
