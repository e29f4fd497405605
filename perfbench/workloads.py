"""Seeded input corpora for the flagship extraction benchmark.

Each workload writes a pages parquet dataset ``(url, warc_ts, html, text,
lang)`` — the table the program reads — and nothing else.  The seed picks
every payload, url and timestamp; the *shape* of a workload (row count,
duplicate counts, %SDOC page counts, where the heavy documents sit in the
files) is fixed, so two seeds cost about the same work and a run-to-run
difference is the engine's, not the corpus's.

Payload builders are the program's own generators (``corpus.py``), so the
benchmark exercises the same HTML and %SDOC structure the tests do.
"""

from __future__ import annotations

import datetime as dt
import os
import random

import pyarrow as pa
import pyarrow.parquet as pq

from action_pdf_accessibility_paddle_docker_ray.corpus import (
    _LANGS,
    _make_html_doc,
    _make_sdoc_doc,
)

BASE_TS = dt.datetime(2026, 1, 1)


def _ts(rng: random.Random) -> dt.datetime:
    return BASE_TS + dt.timedelta(seconds=rng.randint(1_000_000, 10_000_000))


def _html_row(rng: random.Random, i: int, url: str, ts: dt.datetime) -> dict:
    html, text = _make_html_doc(rng, i)
    return {"url": url, "warc_ts": ts, "html": html, "text": text,
            "lang": rng.choice(_LANGS)}


def _pdf_sdoc(rng: random.Random) -> tuple[list[dict], int]:
    # 10 docs of each length 1..10 pages, shuffled; the 4 heavy docs sit at
    # fixed, evenly spaced rows so every seed has the same straggler layout
    medium = [n for n in range(1, 11) for _ in range(10)]
    rng.shuffle(medium)
    heavy = [100, 150, 200, 250]
    rng.shuffle(heavy)
    sizes: list[int] = []
    for k, n in enumerate(medium):
        if k % 25 == 12:
            sizes.append(heavy[k // 25])
        sizes.append(n)
    rows = []
    for i, n_pages in enumerate(sizes):
        html, text = _make_sdoc_doc(rng, n_pages)
        rows.append({"url": f"https://site{i % 97}.example/sdoc/{i:08d}",
                     "warc_ts": _ts(rng), "html": html, "text": text,
                     "lang": rng.choice(_LANGS)})
    return rows, 8


def _recrawl(rng: random.Random) -> tuple[list[dict], int]:
    # 30% of urls re-crawled at an older ts, 10% crawled twice at one ts;
    # the same-ts pairs are what send the stale filter down the Bloom route
    n_urls, n_older, n_same = 1500, 450, 150
    rows = []
    for i in range(n_urls):
        rows.append(_html_row(rng, i, f"https://site{i % 97}.example/html/{i:08d}", _ts(rng)))
    picked = rng.sample(range(n_urls), n_older + n_same)
    for k, i in enumerate(picked):
        live = rows[i]
        ts = live["warc_ts"]
        if k < n_older:
            ts -= dt.timedelta(seconds=rng.randint(1, 500_000))
        rows.append(_html_row(rng, i, live["url"], ts))
    rng.shuffle(rows)
    return rows, 8


# name -> builder; each returns (rows, number of files)
WORKLOADS = {"pdf_sdoc": _pdf_sdoc, "recrawl": _recrawl}


def write_workload(name: str, seed: int, out_dir: str) -> pa.Table:
    """Write workload ``name`` for ``seed`` as parquet files under
    ``out_dir``; returns the whole pages table (the oracle's input)."""
    rng = random.Random(f"{name}:{seed}")
    rows, n_files = WORKLOADS[name](rng)
    schema = pa.schema([
        ("url", pa.string()), ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()), ("text", pa.string()), ("lang", pa.string()),
    ])
    table = pa.Table.from_pylist(rows, schema=schema)
    os.makedirs(out_dir, exist_ok=True)
    per_file = -(-table.num_rows // n_files)
    for f in range(n_files):
        pq.write_table(table.slice(f * per_file, per_file),
                       os.path.join(out_dir, f"part-{f:05d}.parquet"))
    return table
