"""The flagship extraction pipeline (SURVEY.md §3.4).

One physical plan: ``read_parquet(url, warc_ts, html)`` → stale-crawl
step → ``DocProcessor`` TASK stage (doc parse → page loop → detect →
resolve → reading order → text extract → template assembly, all per input
row = per document) → partitioned parquet.  On a path source with at
least as many files as CPUs the whole chain runs as ONE Ray task per
input file: read, the dict route's stale step, ``DocProcessor`` and the
write fuse (``ReadParquet->MapBatches(DocProcessor)->Write``), so no
payload crosses the object store between stages.  With fewer files than
CPUs the read splits each file's block and stays its own operator, so a
one-file input still spreads over every CPU.  A document never spans
rows, so per-url assembly needs no exchange; stale duplicate crawls are
filtered before any payload is touched.  The stale-crawl filter keeps the latest
crawl per url, ties broken on ``content_key``.  For a path source it takes
one of three routes that ``_stale_filter`` picks from a winner scan: none
(no url crawled twice), dict (broadcast semi-join against a small
``{url: max warc_ts}`` map plus the winning ``content_key`` of every url
whose max warc_ts is shared — one read, no exchange), or Bloom (only when
no broadcast can decide: a winner map over the broadcast bound, or
exact-duplicate rows; a fixed-size dup-url Bloom filter splits the stream
and only maybe-dup rows pay a grouped dedup exchange —
``functions/bloom.py``).  A Dataset source has no path to re-scan, so it
pays the grouped dedup exchange (``stages/dedup.dedup_latest``) over all
its rows.

Scale design notes (100 TB / multi-node):
- columns pruned at the read: only (url, warc_ts, html) leave storage;
- skew: a document is never split, and the dispatch unit is one input
  file (one read block): a file of heavy documents is one long task, so
  the straggler tail follows the file layout (ROADMAP item 3)
  (reference: one sequential page loop per process,
  /root/reference/src/autotag.py:123-138);
- no stage holds per-worker state: the stub detector is deterministic and
  ``DocProcessor`` carries only its config, so it runs on Ray's task pool
  instead of an actor pool that would claim CPUs for the whole job and
  start fresh worker processes each time; a stateful actor stage waits
  for real model weights;
- everything streams: no take_all/to_pandas/materialize on the main path;
  consume with write_parquet / iter_batches or the helpers below.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any

import pyarrow as pa
import ray
import ray.data

from .. import ensure_picklable
from ..sources.pages import read_pages
from ..schemas import EXTRACT_INPUT
from ..stages.dedup import dedup_latest
from ..stages.fanout import content_key
from ..stages.process import DocProcessor

DOC_COLUMNS = [
    "url", "text", "n_pages", "n_regions", "status",
    "template_json", "spans_json", "formulas_json",
]


def _cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:  # pragma: no cover - cluster not yet up
        return 8


def _default_concurrency(reserve_div: int = 8) -> tuple[int, int]:
    """``(n, n)``: the most ``DocProcessor`` tasks that run at once, one per
    CPU.  The task stage reserves no CPUs (read and write tasks take them as
    they free), so ``reserve_div`` no longer changes the answer."""
    n = _cluster_cpus()
    return (n, n)


_GPU_BATCH_SIZE = 8  # documents per call of a GPU-pinned DocProcessor stage
_SMALL_INPUT_BYTES = 1 << 30  # below this, the winner scan is one task
# broadcast bound: above this many duplicated urls the per-worker winner map
# stops being "small side" as a Python dict; the pipeline switches to the
# BLOOM route — broadcast a fixed-size bit filter of the dup urls, stream
# definitely-unique rows straight to processing, and pay the grouped dedup
# exchange for the (dup + false-positive) maybe stream only.
_WINNER_BROADCAST_MAX = 2_000_000


@dataclass
class StaleRoute:
    """The stale-crawl filter's decision, as ``_stale_filter`` returns it.

    ``route`` is "none", "dict" or "bloom"; ``dup_urls`` counts urls crawled
    more than once, ``tied_urls`` those whose max warc_ts is shared by ≥2
    crawls, ``exact_dup_urls`` the tied urls whose winning crawl is on ≥2
    identical rows (None when the map was too large to resolve ties);
    ``bloom_reason`` says why the Bloom route ran: "oversized_map" or
    "exact_duplicates".  On the dict route ``winners_ref`` is the ObjectRef
    of ``({url: max_ts_us}, {tied url: winning content_key})``."""

    route: str = "none"
    dup_urls: int = 0
    tied_urls: int = 0
    exact_dup_urls: int | None = 0
    bloom_reason: str | None = None
    winners_ref: Any = field(default=None, repr=False)

    def summary(self) -> dict:
        return {
            "route": self.route, "dup_urls": self.dup_urls,
            "tied_urls": self.tied_urls, "exact_dup_urls": self.exact_dup_urls,
            "bloom_reason": self.bloom_reason,
        }


@dataclass
class BloomRoute(StaleRoute):
    """Bloom verdict: broadcast the dup-url Bloom filter, split the stream
    into definitely-unique rows (no exchange) and maybe-dup rows (grouped
    dedup exchange over only those rows, read from every file of the
    scanned source, ``files``)."""

    route: str = "bloom"
    bloom_ref: Any = field(default=None, repr=False)
    files: list = field(default_factory=list, repr=False)


def _merge_winner_partials(df):
    """Merge per-batch (url, max_ts, n_at_max, n) partials per url, for a
    frame holding every partial of each of its urls."""
    at_max = df["max_ts"] == df.groupby("url", sort=False)["max_ts"].transform("max")
    return (
        df.assign(n_at_max=df["n_at_max"].where(at_max, 0))
        .groupby("url", sort=False)
        .agg(max_ts=("max_ts", "max"), n_at_max=("n_at_max", "sum"), n=("n", "sum"))
        .reset_index()
    )


def _winner_partials(df):
    """Per-url (max_ts, n_at_max, n) of one (url, warc_ts) frame."""
    import pandas as pd

    ts = df["warc_ts"].astype("datetime64[us]").astype("int64")
    d = pd.DataFrame({"url": df["url"].to_numpy(), "ts_us": ts.to_numpy()})
    mx = d.groupby("url", sort=False)["ts_us"].transform("max")
    d["at_max"] = (d["ts_us"] == mx).astype("int64")
    g = d.groupby("url", sort=False).agg(
        max_ts=("ts_us", "max"), n_at_max=("at_max", "sum"), n=("ts_us", "size")
    )
    return g.reset_index()


def _max_ts_keys(t, max_ts: dict):
    """(url, key) for the rows of a (url, warc_ts, html) table that sit at
    their url's max warc_ts; ``content_key`` is hashed for those rows only."""
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    urls = t.column("url").to_pandas()
    ts_us = pc.cast(t.column("warc_ts"), pa.int64()).to_numpy()
    at_max = urls.map(max_ts).to_numpy() == ts_us
    html = t.column("html").filter(pa.array(at_max)).to_pylist()
    return pd.DataFrame(
        {"url": urls.to_numpy()[at_max], "key": [content_key(h) for h in html]}
    )


def _tie_winners(keys) -> tuple[dict, int]:
    """Winning (largest) content_key per tied url, and how many tied urls
    carry that key on ≥2 rows — exact duplicates, which no broadcast can
    thin to one copy."""
    top = keys.groupby(["url", "key"]).size().groupby(level="url").tail(1)
    return dict(top.index.tolist()), int((top > 1).sum())


def _tie_keys_scan(path: list, dups) -> "tuple[dict, int] | None":
    """Tie winners from a one-process read of (url, warc_ts, html), pushed
    down to the tied urls; None when no url is tied."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads

    tied = dups[dups["n_at_max"] > 1]
    if len(tied) == 0:
        return None
    max_ts = dict(zip(tied["url"], tied["max_ts"]))
    t = pads.dataset(path).to_table(
        columns=["url", "warc_ts", "html"], filter=pc.field("url").isin(list(max_ts))
    )
    return _tie_winners(_max_ts_keys(t, max_ts))


def _source_files(source: "str | list") -> list:
    """Absolute paths of the parquet files under ``source``."""
    import pyarrow.dataset as pads

    return [os.path.abspath(f) for f in pads.dataset(source).files]


def _stale_filter(source: "str | list", files: list | None = None) -> StaleRoute:
    """Semi-join dedup prep: find urls crawled more than once, their
    winning warc_ts and — for urls whose max warc_ts is shared by ≥2 crawls
    — the winning ``content_key``.  The scan reads (url, warc_ts) only
    (~1% of the bytes); the html of the tied urls alone is read back
    through an ``isin`` pushdown and hashed.

    Small inputs (≤1 GiB): one Ray task does the columnar scan + pandas
    groupby (no sub-pipeline startup).  Large inputs: a distributed
    per-batch partial aggregate + one grouped merge over (url, partial)
    rows; the dup and tie counts are computed DISTRIBUTED, so nothing
    bigger than a per-block count row reaches the driver until the winner
    map is proven small; then a filtered ``read_pages`` hashes the tied
    rows and the driver takes the max key per url.  Both paths reach the
    same decision for the same input.  ``files``: the parquet files of
    ``source``, when the caller has listed them already.

    Returns a ``StaleRoute`` (``.summary()`` is the decision record):
    - route "none": no duplicate urls; nothing to filter;
    - route "dict": ``winners_ref`` broadcasts ``{url: max_ts_us}`` and the
      tie keys as one object; ``_make_drop_stale`` keeps exactly one row
      per url, no exchange;
    - ``BloomRoute``: the winner map is over ``_WINNER_BROADCAST_MAX``, or
      a tied url's winning crawl sits on ≥2 identical rows (only an
      exchange keeps exactly one copy): broadcast the fixed-size dup-url
      Bloom filter; the caller pays the grouped dedup exchange
      (content_key tie-break included) for maybe-dup rows only.
    """
    if files is None:
        files = _source_files(source)
    total_bytes = sum(os.path.getsize(f) for f in files)
    bound = _WINNER_BROADCAST_MAX

    if total_bytes <= _SMALL_INPUT_BYTES:
        @ray.remote(num_cpus=1)
        def scan_winners(path: list, bound: int):
            import pyarrow.dataset as pads2

            t = pads2.dataset(path).to_table(columns=["url", "warc_ts"])
            out = _winner_partials(t.to_pandas())
            dups = out[out["n"] > 1]
            # over the bound the Bloom route resolves ties itself
            return dups, _tie_keys_scan(path, dups) if len(dups) <= bound else None

        dups, ties = ray.get(scan_winners.remote(files, bound))
        n_dups, n_tied = len(dups), int((dups["n_at_max"] > 1).sum())
        dups_ds = None
    else:
        dups_ds, n_dups, n_tied = _distributed_dups(files)
        dups, ties = None, None
        if 0 < n_dups <= bound:
            dups = dups_ds.to_pandas()  # proven bounded before materializing
            ties = _tie_keys_distributed(files, dups)

    counts = dict(dup_urls=n_dups, tied_urls=n_tied)
    if n_dups == 0:
        return StaleRoute("none")
    if n_dups > bound:
        reason, n_exact = "oversized_map", None
    else:
        tie_keys, n_exact = ties or ({}, 0)
        if n_exact == 0:
            max_ts = dict(zip(dups["url"], dups["max_ts"].astype("int64")))
            return StaleRoute(
                "dict", winners_ref=ray.put((max_ts, tie_keys)), **counts
            )
        reason = "exact_duplicates"
    if dups_ds is None:
        from ..functions.bloom import UrlBloom

        bloom = UrlBloom(len(dups))
        bloom.add(dups["url"].to_numpy())
        bloom_ref = ray.put(bloom)
    else:
        bloom_ref = _bloom_from_dups(dups_ds, n_dups)
    return BloomRoute(
        exact_dup_urls=n_exact, bloom_reason=reason, bloom_ref=bloom_ref,
        files=files, **counts,
    )


def _distributed_dups(files: list) -> tuple:
    """Distributed winner table of the duplicated urls, plus its dup and
    tie counts (the driver sees per-BLOCK count rows only)."""
    import pandas as pd
    import pyarrow.compute as pc

    from .util import colocate

    merged = colocate(
        read_pages(files, columns=["url", "warc_ts"]).map_batches(
            _winner_partials, batch_format="pandas"
        ),
        ["url"],
        _merge_winner_partials,
    )
    dups_ds = merged.map_batches(
        lambda t: t.filter(pc.greater(t["n"], 1)), batch_format="pyarrow"
    ).materialize()  # winner table: consumed 2-3 times; lives in the object
    # store (distributed), bounded by the dup-url count — never the input

    def count_block(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [len(df)], "tied": [int((df["n_at_max"] > 1).sum())]})

    counts = dups_ds.map_batches(count_block, batch_format="pandas").to_pandas()
    return dups_ds, int(counts["n"].sum()), int(counts["tied"].sum())


def _tie_keys_distributed(files: list, dups) -> "tuple[dict, int] | None":
    """Tie winners via a ``read_pages`` filtered to the tied urls; the
    driver takes the max key per url over the (url, key) rows."""
    import pyarrow.compute as pc

    tied = dups[dups["n_at_max"] > 1]
    if len(tied) == 0:
        return None
    max_ts = dict(zip(tied["url"], tied["max_ts"]))
    max_ts_ref = ray.put(max_ts)
    keys = read_pages(
        files, filter_expr=pc.field("url").isin(list(max_ts))
    ).map_batches(
        lambda t: _max_ts_keys(t, ray.get(max_ts_ref)), batch_format="pyarrow"
    ).to_pandas()
    return _tie_winners(keys)


def _bloom_from_dups(dups_ds: "ray.data.Dataset", n_dups: int) -> Any:
    """Build the dup-url Bloom filter from the DISTRIBUTED winner table.

    Each block maps its urls to probe positions (a tiny uint64 array, k
    ints per url); the driver streams those batches and ORs bits into the
    one fixed-size bitmap — it never holds a url, only the filter.
    Returns the ObjectRef of the filter."""
    import pandas as pd

    from ..functions.bloom import UrlBloom, bloom_positions

    bloom = UrlBloom(n_dups)
    m, k = bloom.m, bloom.k

    def positions(df: pd.DataFrame) -> pd.DataFrame:
        pos = bloom_positions(df["url"].to_numpy(), m, k).reshape(-1)
        return pd.DataFrame({"pos": pos.astype("uint64")})

    pos_ds = dups_ds.map_batches(positions, batch_format="pandas")
    for batch in pos_ds.iter_batches(batch_format="numpy"):
        bloom.set_positions(batch["pos"])
    return ray.put(bloom)


def _make_drop_stale(winners_ref: Any):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc

    def drop_stale(t: pa.Table) -> pa.Table:
        max_ts, tie_keys = ray.get(winners_ref)
        urls = pd.Series(t.column("url").to_pandas())
        ts_us = pc.cast(t.column("warc_ts"), pa.int64()).to_pandas().to_numpy()
        # vectorized semi-join: hash-map lookup per column, no Python loop
        win_ts = urls.map(max_ts).to_numpy()
        keep = pd.isna(win_ts) | (win_ts == ts_us)
        if tie_keys:
            # only the max-ts rows of tied urls are hashed
            win_key = urls.map(tie_keys).to_numpy()
            tied = np.flatnonzero(keep & pd.notna(win_key))
            html = t.column("html").take(pa.array(tied, pa.int64())).to_pylist()
            keep[tied] = [content_key(h) == win_key[i] for h, i in zip(html, tied)]
        return t.filter(pa.array(keep, pa.bool_()))

    return drop_stale


def _make_bloom_split(bloom_ref: Any, keep_hits: bool):
    """Streaming filter against the broadcast Bloom bitmap: ``keep_hits``
    False passes definitely-unique rows, True passes maybe-dup rows."""
    import pyarrow as pa

    def split(t: pa.Table) -> pa.Table:
        bloom = ray.get(bloom_ref)
        hits = bloom.contains(t.column("url").to_pandas().to_numpy())
        return t.filter(pa.array(hits if keep_hits else ~hits, pa.bool_()))

    return split


def _make_keep_files(files: list):
    """Keep the rows read from ``files`` (the ``path`` column that
    ``include_paths`` adds), then drop that column."""
    import pyarrow as pa
    import pyarrow.compute as pc

    value_set = pa.array(sorted(files), pa.string())

    def keep_files(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_in(t.column("path"), value_set=value_set))
        return t.drop_columns(["path"])

    return keep_files


def extract_pipeline(
    source: "str | ray.data.Dataset",
    *,
    model: str = "PP-DocLayout-L",
    zoom: float = 2.0,
    thresholds: dict[int, float] | None = None,
    process_table: bool = True,
    process_formula: bool = True,
    output: str = "json",
    num_gpus: float | None = None,
    resources: dict | None = None,
    _winners_ref: Any = None,
) -> ray.data.Dataset:
    """Build the lazy extraction Dataset from a parquet path or a Dataset.

    One plan: read → one stale-crawl step → ``DocProcessor`` task stage →
    (the caller's) write.  A path source is read one task per file
    (``override_num_blocks`` = the file count, or the CPU count when that
    is larger, which splits the files instead) and each ``DocProcessor``
    call takes a whole block, so with at least as many files as CPUs Ray
    fuses the read, the dict route's ``drop_stale``, ``DocProcessor`` and
    the write into one task per file.  The Bloom route's union, a Dataset
    source's ``Sort`` and a GPU-pinned stage keep their operator
    boundaries.  ``DocProcessor`` runs as tasks because no stage holds
    per-worker state until real model weights exist: a job then starts no
    actor processes and holds no CPU once it returns.
    A path source takes the stale-crawl route ``_stale_filter`` picks (none,
    dict or Bloom; see the module docstring); a Dataset source cannot be
    re-scanned for a winner map, so it runs ``dedup_latest`` (one sort
    exchange) over all its rows.

    ``num_gpus`` / ``resources``: per-task resource pins for the DETECTOR
    stage only (the north-star GPU-pinned batched inference seam) — passed
    straight to its ``map_batches``; with ``num_gpus`` set the stage stops
    claiming a CPU slot (``num_cpus=0``) so the GPU tasks and the CPU
    read/write stages don't contend for the same slots.  When both are None
    each task claims one CPU.  Without a GPU the kwargs are exercised
    structurally (a test asserts they reach ``map_batches``); on a GPU
    cluster they pin each detector task to a GPU.

    ``output``: "json" (default) emits the public docs contract
    (``spans_json``/``formulas_json`` strings, byte-identical per url to
    ``oracle.docs_to_table``).  "nested" emits native Arrow ``list<struct>``
    ``spans``/``formulas`` columns instead — downstream explodes
    (``spans_dataset``/``formulas_dataset``) become zero-copy Arrow
    flattens.

    ``_winners_ref``: a ``StaleRoute`` computed over a larger source that
    contains this one (``run_resumable`` scans the whole source once and
    runs it chunk by chunk); winners stay global either way.
    """
    ensure_picklable()
    route = _winners_ref
    if isinstance(source, (str, list)):
        files = _source_files(source)
        # one read task per file, so no read task splits its output and
        # Ray fuses the read into the stage after it; fewer files than
        # CPUs are split, so a one-file input keeps its parallelism
        ds = read_pages(files, override_num_blocks=max(len(files), _cluster_cpus()))
        if route is None:
            route = _stale_filter(source, files)
    else:
        ds = source
    if route is None:
        ds = dedup_latest(ds)
        route = StaleRoute()
    elif isinstance(route, BloomRoute):
        # maybe-dup-only exchange: definitely-unique rows (Bloom miss)
        # stream straight to the processor with NO exchange; maybe-dup
        # rows (Bloom hit — dups plus ~6e-4 false positives) pay the
        # grouped dedup, which resolves winners exactly, including
        # same-max-ts ties (content_key tie-break in dedup_latest).
        # The maybe side reads every file the scan saw, so a run over
        # part of that source still keeps only global winners; the
        # file path breaks exact-duplicate ties, so one file — one
        # chunk — keeps the copy, and the rest are dropped.
        bref = route.bloom_ref
        unique = ds.map_batches(
            _make_bloom_split(bref, keep_hits=False),
            batch_format="pyarrow", num_cpus=0.5,
        )
        maybe = read_pages(route.files, include_paths=True).map_batches(
            _make_bloom_split(bref, keep_hits=True),
            batch_format="pyarrow", num_cpus=0.5,
        )
        resolved = dedup_latest(
            maybe, EXTRACT_INPUT.append(pa.field("path", pa.string()))
        ).map_batches(
            _make_keep_files(files),
            batch_format="pyarrow", num_cpus=0.5,
        )
        ds = unique.union(resolved)
    elif route.route == "dict":
        ds = ds.map_batches(
            _make_drop_stale(route.winners_ref), batch_format="pyarrow"
        )

    # detector-stage resource pins (GPU seam): num_gpus displaces the CPU
    # slot claim; custom resources (e.g. {"accelerator": 1}) pass through
    detector_resources: dict[str, Any] = {"num_cpus": 0 if num_gpus else 1}
    if num_gpus is not None:
        detector_resources["num_gpus"] = num_gpus
    if resources is not None:
        detector_resources["resources"] = resources

    # one task stage: doc parse → page loop → detect → resolve → assemble,
    # emitting finished doc rows — unit of work = document, no intermediate
    # serialization, no output exchange.  An instance, not the class: Ray
    # runs it on the task pool, fused with the write (and with drop_stale).
    # Each call takes a whole block: a batch size would stop Ray fusing
    # the read into the stage (Ray requires one on a GPU stage only).
    return ds.map_batches(
        DocProcessor(
            model=model, zoom=zoom, thresholds=thresholds,
            process_table=process_table, process_formula=process_formula,
            output=output,
        ),
        batch_format="pyarrow",
        batch_size=_GPU_BATCH_SIZE if num_gpus else None,
        **detector_resources,
    )


def extract_to_parquet(source: str, out_dir: str, **kwargs: Any) -> None:
    """Run the pipeline and write partitioned parquet (resumable layout)."""
    ds = extract_pipeline(source, **kwargs)
    ds.write_parquet(out_dir, partition_cols=["size_bucket"])


def formulas_dataset(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Explode doc rows into the per-url formula table (url, formula_id,
    mathml) — the materialized result of the formula-id ⋈ element join
    (/root/reference/src/autotag.py:262-295).

    NESTED docs (``output="nested"``): a zero-copy Arrow explode —
    ``list_parent_indices`` + ``flatten`` + struct-field selects, no JSON.
    JSON docs (the public parquet contract, e.g. re-read from a written
    docs table): the legacy per-row parse."""
    import json

    import pyarrow as pa
    import pyarrow.compute as pc

    schema = pa.schema(
        [("url", pa.string()), ("formula_id", pa.int64()), ("mathml", pa.string())]
    )

    def explode_nested(batch: pa.Table) -> pa.Table:
        formulas = batch.column("formulas").combine_chunks()
        parent = pc.list_parent_indices(formulas)
        flat = formulas.flatten()
        return pa.table(
            {
                "url": pc.take(batch.column("url"), parent),
                "formula_id": flat.field("formula_id"),
                "mathml": flat.field("mathml"),
            },
            schema=schema,
        )

    def explode_json(batch: pa.Table) -> pa.Table:
        rows = []
        for url, fj in zip(
            batch.column("url").to_pylist(), batch.column("formulas_json").to_pylist()
        ):
            for f in json.loads(fj):
                rows.append((url, int(f["formula_id"]), f["mathml"]))
        return pa.table(
            {
                "url": [r[0] for r in rows],
                "formula_id": [r[1] for r in rows],
                "mathml": [r[2] for r in rows],
            },
            schema=schema,
        )

    def explode(batch: pa.Table) -> pa.Table:
        # dispatch on the batch's own schema — calling docs.schema() on a
        # lazy Dataset would trigger (partial) execution on the driver
        if "formulas" in batch.column_names:
            return explode_nested(batch)
        return explode_json(batch)

    return docs.map_batches(explode, batch_format="pyarrow")


def spans_dataset(docs: ray.data.Dataset) -> ray.data.Dataset:
    """Explode doc rows into the flat spans table (fixed schema across arms)."""
    import json

    import pyarrow as pa

    schema = pa.schema(
        [
            ("url", pa.string()),
            ("page_no", pa.int32()),
            ("region_id", pa.int64()),
            ("label", pa.string()),
            ("score", pa.float32()),
            ("x0", pa.float64()),
            ("y0", pa.float64()),
            ("x1", pa.float64()),
            ("y1", pa.float64()),
            ("reading_order", pa.int32()),
            ("text", pa.string()),
            ("link_density", pa.float64()),
            ("boiler", pa.bool_()),
            ("table_json", pa.string()),
            ("mathml", pa.string()),
        ]
    )

    import pyarrow.compute as pc

    def explode_nested(batch: pa.Table) -> pa.Table:
        spans = batch.column("spans").combine_chunks()
        parent = pc.list_parent_indices(spans)
        flat = spans.flatten()
        cols: dict[str, Any] = {"url": pc.take(batch.column("url"), parent)}
        for f in schema:
            if f.name == "url":
                continue
            col = flat.field(f.name)
            if f.name == "page_no":
                # HTML spans carry no page number → 0 (unpaginated)
                col = pc.fill_null(col, 0)
            cols[f.name] = col.cast(f.type)
        return pa.table(cols, schema=schema)

    def explode_json(batch: pa.Table) -> pa.Table:
        rows: list[dict] = []
        for url, spans_json in zip(
            batch.column("url").to_pylist(), batch.column("spans_json").to_pylist()
        ):
            for span in json.loads(spans_json):
                span.setdefault("url", url)
                span.setdefault("page_no", 0)
                rows.append(span)
        return pa.table(
            {f.name: [r.get(f.name) for r in rows] for f in schema}, schema=schema
        )

    def explode(batch: pa.Table) -> pa.Table:
        if "spans" in batch.column_names:
            return explode_nested(batch)
        return explode_json(batch)

    return docs.map_batches(explode, batch_format="pyarrow")
