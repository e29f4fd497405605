"""Resumable extraction: per-partition completion manifests with lineage.

North-rule requirement: "resumable from checkpoint with per-partition
lineage + metrics".  Design (SURVEY.md §4 checkpoint row):

- the unit of resume is an INPUT SHARD (one parquet file of the pages
  table); shards are processed in chunks of ``chunk_files`` per Ray Data
  sub-job so progress lands incrementally;
- each chunk's output goes to its own directory, written to a temp path
  and atomically renamed (a crash mid-chunk leaves no partial partition);
- after a chunk commits, one manifest JSON per input shard is written to
  ``<out_dir>/_manifest/`` carrying the lineage record: input fingerprint
  (name, size), engine version, pipeline config, row/page counts, wall
  time;
- on restart, shards whose manifest fingerprint still matches are
  skipped (the anti-join on partition id); changed or missing shards are
  reprocessed and their old output replaced;
- the stale-crawl decision is made GLOBALLY (one winner scan over all
  shards) once per run and handed to every chunk, so duplicate urls across
  shards resolve identically no matter which chunk runs when — on the
  Bloom route too, whose maybe-dup side resolves winners over every shard
  and keeps those of the chunk's own files; the summary records the
  decision (``StaleRoute.summary()``).

``metrics_report`` folds the manifests into the throughput report
(docs/sec, bytes/sec, per-chunk wall) mandated by the north rule.
"""

from __future__ import annotations

import glob
import json
import os
import shutil
import time
from typing import Any

from .. import __version__ as ENGINE_VERSION


def _shard_fingerprint(path: str) -> dict:
    st = os.stat(path)
    return {"name": os.path.basename(path), "bytes": st.st_size}


def _shard_key(path: str) -> str:
    return os.path.basename(path).replace(".", "_")


def load_manifest(out_dir: str) -> dict[str, dict]:
    """shard-key → manifest entry for all committed shards."""
    entries: dict[str, dict] = {}
    for p in sorted(glob.glob(os.path.join(out_dir, "_manifest", "*.json"))):
        with open(p) as f:
            entry = json.load(f)
        entries[entry["shard_key"]] = entry
    return entries


def _chunks(items: list, n: int) -> list[list]:
    return [items[i : i + n] for i in range(0, len(items), n)]


def run_resumable(
    source_dir: str,
    out_dir: str,
    *,
    chunk_files: int = 8,
    stop_after_chunks: int | None = None,
    **pipeline_kwargs: Any,
) -> dict:
    """Run (or resume) the extraction over a directory of pages shards.

    ``stop_after_chunks`` exists for crash-injection in tests.  Returns a
    summary dict (shards done/skipped, docs, wall, and the stale-crawl
    filter's route and counts — None when no shard needed a run).
    """
    from ..pipelines.extract import _stale_filter, extract_pipeline

    files = sorted(glob.glob(os.path.join(source_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet shards under {source_dir}")

    manifest_dir = os.path.join(out_dir, "_manifest")
    os.makedirs(manifest_dir, exist_ok=True)
    done = load_manifest(out_dir)

    todo: list[str] = []
    skipped = 0
    for path in files:
        key = _shard_key(path)
        if key in done and done[key]["fingerprint"] == _shard_fingerprint(path):
            skipped += 1
            continue
        todo.append(path)

    # global winners so cross-shard duplicate urls dedup consistently
    route = _stale_filter(source_dir) if todo else None

    config = {
        k: v for k, v in pipeline_kwargs.items() if isinstance(v, (str, int, float, bool))
    }
    total_docs = 0
    chunks_run = 0
    t_run = time.time()
    for chunk in _chunks(todo, chunk_files):
        if stop_after_chunks is not None and chunks_run >= stop_after_chunks:
            break
        chunk_id = _shard_key(chunk[0])
        final_dir = os.path.join(out_dir, f"chunk-{chunk_id}")
        tmp_dir = final_dir + ".tmp"
        shutil.rmtree(tmp_dir, ignore_errors=True)
        shutil.rmtree(final_dir, ignore_errors=True)

        t0 = time.time()
        ds = extract_pipeline(chunk, _winners_ref=route, **pipeline_kwargs)
        ds.write_parquet(tmp_dir)
        os.replace(tmp_dir, final_dir)  # atomic partition publish
        wall = time.time() - t0

        import pyarrow.dataset as pads

        out_ds = pads.dataset(final_dir)
        n_docs = out_ds.count_rows()
        total_docs += n_docs
        in_bytes = sum(os.path.getsize(p) for p in chunk)
        for path in chunk:
            entry = {
                "shard_key": _shard_key(path),
                "fingerprint": _shard_fingerprint(path),
                "chunk_dir": os.path.basename(final_dir),
                "engine_version": ENGINE_VERSION,
                "config": config,
                "chunk_docs": n_docs,
                "chunk_input_bytes": in_bytes,
                "chunk_wall_sec": round(wall, 3),
                "committed_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
            }
            tmp = os.path.join(manifest_dir, f".{entry['shard_key']}.tmp")
            with open(tmp, "w") as f:
                json.dump(entry, f, indent=1)
            os.replace(tmp, os.path.join(manifest_dir, f"{entry['shard_key']}.json"))
        chunks_run += 1

    return {
        "shards_total": len(files),
        "shards_skipped": skipped,
        "shards_processed": len(todo) if stop_after_chunks is None else chunks_run * chunk_files,
        "chunks_run": chunks_run,
        "docs_written": total_docs,
        "wall_sec": round(time.time() - t_run, 3),
        "stale_filter": route.summary() if route is not None else None,
    }


def metrics_report(out_dir: str) -> dict:
    """Fold per-partition manifests into the run's throughput report."""
    entries = load_manifest(out_dir)
    by_chunk: dict[str, dict] = {}
    for e in entries.values():
        by_chunk[e["chunk_dir"]] = e
    total_docs = sum(c["chunk_docs"] for c in by_chunk.values())
    total_bytes = sum(c["chunk_input_bytes"] for c in by_chunk.values())
    total_wall = sum(c["chunk_wall_sec"] for c in by_chunk.values())
    return {
        "shards": len(entries),
        "chunks": len(by_chunk),
        "docs": total_docs,
        "input_bytes": total_bytes,
        "wall_sec": round(total_wall, 3),
        "docs_per_sec": round(total_docs / total_wall, 2) if total_wall else None,
        "bytes_per_sec": round(total_bytes / total_wall, 1) if total_wall else None,
        "per_chunk": {
            k: {"docs": v["chunk_docs"], "wall_sec": v["chunk_wall_sec"]}
            for k, v in sorted(by_chunk.items())
        },
    }
