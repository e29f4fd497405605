"""Resumable extraction over a directory of pages shards, with lineage.

The resume decision is the shared checkpoint protocol (``checkpoint.py``,
SURVEY.md §4 checkpoint row):

- the units are fixed chunks of ``chunk_files`` shards of the FULL sorted
  shard list, with stable ids (``chunk-00000``, ``chunk-00001``, ...);
  each is one Ray Data sub-job published atomically, so progress lands
  incrementally and a crash mid-chunk leaves no partial chunk;
- the run key covers every shard's (name, size, mtime_ns), every pipeline
  kwarg (``zoom``, ``thresholds``, ...), ``chunk_files`` and the engine
  version.  The stale-crawl winners are global (one winner scan over all
  shards, handed to every chunk, on the Bloom route too), so an edited,
  added or removed shard changes every chunk's output: a new key sweeps
  every chunk and reruns them all.  A resume under the same key reruns
  only the uncommitted chunks;
- each chunk's manifest carries its lineage: shards, input bytes, docs,
  wall; the run record carries the run's wall time and the stale-crawl
  decision (``StaleRoute.summary()``).

``metrics_report`` folds the manifests into the throughput report
(docs/sec, bytes/sec over the run's wall, per-chunk docs and wall).
"""

from __future__ import annotations

import glob
import os
from typing import Any

from .checkpoint import RUN, Checkpoint, load_manifest


def run_resumable(
    source_dir: str,
    out_dir: str,
    *,
    chunk_files: int = 8,
    **pipeline_kwargs: Any,
) -> dict:
    """Run (or resume) the extraction over a directory of pages shards.

    Returns a summary dict (shards done/skipped, docs, wall, and the
    stale-crawl filter's route and counts — None when no chunk needed a
    run)."""
    from ..pipelines.extract import _stale_filter, extract_pipeline

    files = sorted(glob.glob(os.path.join(source_dir, "*.parquet")))
    if not files:
        raise FileNotFoundError(f"no parquet shards under {source_dir}")
    ck = Checkpoint(out_dir, files, {"chunk_files": chunk_files, **pipeline_kwargs})
    chunks = {
        f"chunk-{i // chunk_files:05d}": files[i : i + chunk_files]
        for i in range(0, len(files), chunk_files)
    }
    todo = {unit: chunk for unit, chunk in chunks.items() if not ck.done(unit)}

    # global winners so cross-shard duplicate urls dedup consistently
    route = _stale_filter(source_dir) if todo else None
    total_docs = 0
    for unit, chunk in todo.items():
        ds = extract_pipeline(chunk, _winners_ref=route, **pipeline_kwargs)
        total_docs += ck.publish_dataset(
            unit, ds, shards=[os.path.basename(p) for p in chunk],
            input_bytes=sum(os.path.getsize(p) for p in chunk),
            stale_filter=route.summary(),
        )["rows"]

    n_todo = sum(len(c) for c in todo.values())
    return {
        "shards_total": len(files),
        "shards_skipped": len(files) - n_todo,
        "shards_processed": n_todo,
        "chunks_run": len(todo),
        "docs_written": total_docs,
        "wall_sec": ck.elapsed(),
        "stale_filter": route.summary() if route is not None else None,
    }


def metrics_report(out_dir: str) -> dict:
    """Fold the chunk manifests into the run's throughput report; the wall
    is the run's own (winner scan and every chunk), not a sum of chunks."""
    chunks = load_manifest(out_dir)
    wall = chunks.pop(RUN, {}).get("wall_sec", 0.0)
    total_docs = sum(c["rows"] for c in chunks.values())
    total_bytes = sum(c["input_bytes"] for c in chunks.values())
    return {
        "shards": sum(len(c["shards"]) for c in chunks.values()),
        "chunks": len(chunks),
        "docs": total_docs,
        "input_bytes": total_bytes,
        "wall_sec": wall,
        "docs_per_sec": round(total_docs / wall, 2) if wall else None,
        "bytes_per_sec": round(total_bytes / wall, 1) if wall else None,
        "per_chunk": {
            k: {"docs": c["rows"], "wall_sec": c["wall_sec"]}
            for k, c in sorted(chunks.items())
        },
    }
