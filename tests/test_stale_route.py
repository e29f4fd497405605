"""The stale-crawl filter's routes: same-max-timestamp ties settled by the
winner scan (dict route, no exchange), exact duplicates on the Bloom route,
the decision record, chunked resume against the oracle, and a 1-CPU
session."""

import datetime as dt
import glob
import json
import os
import signal
import subprocess
import sys
import textwrap

import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

import action_pdf_accessibility_paddle_docker_ray.pipelines.extract as ex
from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
from action_pdf_accessibility_paddle_docker_ray.oracle import (
    docs_to_table,
    oracle_extract,
)
from action_pdf_accessibility_paddle_docker_ray.state.manifest import run_resumable

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TS = dt.datetime(2026, 3, 1)
CHECK = ["url", "text", "n_pages", "n_regions", "status",
         "template_json", "spans_json", "formulas_json"]


def _page(url: str, ts: dt.datetime, body: str) -> dict:
    html = f"<html><body><article><p>{body}</p></article></body></html>".encode()
    return {"url": url, "warc_ts": ts, "html": html}


def _table(rows: list[dict]) -> pa.Table:
    return pa.Table.from_pylist(rows, schema=pa.schema(
        [("url", pa.string()), ("warc_ts", pa.timestamp("us")), ("html", pa.binary())]
    ))


def _planted_rows(exact_dup: bool) -> list[dict]:
    """3 urls with an older re-crawl, 2 urls crawled twice at their max ts
    with distinct payloads (one of them also has an older crawl), 4 unique
    urls and, with ``exact_dup``, one url whose two max-ts crawls are the
    same bytes."""
    old = TS - dt.timedelta(days=3)
    rows = [_page(f"https://u.example/solo{i}", TS, f"solo {i}") for i in range(4)]
    for i in range(3):
        rows += [_page(f"https://u.example/re{i}", old, f"old {i}"),
                 _page(f"https://u.example/re{i}", TS, f"new {i}")]
    for i in range(2):
        rows += [_page(f"https://u.example/tie{i}", TS, f"tie {i} left"),
                 _page(f"https://u.example/tie{i}", TS, f"tie {i} right")]
    rows.append(_page("https://u.example/tie0", old, "tie 0 old"))
    if exact_dup:
        rows += [_page("https://u.example/twin", TS, "twin")] * 2
    return rows


def _tie_corpus() -> pa.Table:
    """generate_pages plus a same-ts crawl with a new payload for every
    fifth url (every other one also gets an older crawl)."""
    t = generate_pages(60, seed=9)
    extra = []
    for k, r in enumerate(t.to_pylist()[::5]):
        extra.append(_page(r["url"], r["warc_ts"], f"same-ts twin {k}"))
        if k % 2:
            extra.append(_page(r["url"], r["warc_ts"] - dt.timedelta(days=1), f"old {k}"))
    return pa.concat_tables([t.select(["url", "warc_ts", "html"]), _table(extra)])


def _assert_matches_oracle(got: pa.Table, source: pa.Table) -> None:
    ref = docs_to_table(oracle_extract(source)).select(CHECK).sort_by("url")
    got = got.select(CHECK).cast(ref.schema).sort_by("url")
    urls = got["url"].to_pylist()
    assert len(urls) == len(set(urls)), "more than one row for a url"
    assert got.equals(ref)


# ---------------------------------------------------------------------------
# the decision record
# ---------------------------------------------------------------------------

def test_stale_filter_reports_route_and_counts(ray_session, tmp_path, monkeypatch):
    path = str(tmp_path / "pages.parquet")

    pq.write_table(_table(_planted_rows(exact_dup=False)), path)
    assert ex._stale_filter(path).summary() == {
        "route": "dict", "dup_urls": 5, "tied_urls": 2,
        "exact_dup_urls": 0, "bloom_reason": None,
    }

    pq.write_table(_table(_planted_rows(exact_dup=True)), path)
    assert ex._stale_filter(path).summary() == {
        "route": "bloom", "dup_urls": 6, "tied_urls": 3,
        "exact_dup_urls": 1, "bloom_reason": "exact_duplicates",
    }

    monkeypatch.setattr(ex, "_WINNER_BROADCAST_MAX", 0)
    assert ex._stale_filter(path).summary() == {
        "route": "bloom", "dup_urls": 6, "tied_urls": 3,
        "exact_dup_urls": None, "bloom_reason": "oversized_map",
    }
    monkeypatch.undo()

    pq.write_table(_table(_planted_rows(exact_dup=False)[:4]), path)
    assert ex._stale_filter(path).summary() == {
        "route": "none", "dup_urls": 0, "tied_urls": 0,
        "exact_dup_urls": 0, "bloom_reason": None,
    }


def test_resumable_summary_carries_the_stale_filter_decision(ray_session, tmp_path):
    src = tmp_path / "pages"
    src.mkdir()
    rows = _planted_rows(exact_dup=True)
    pq.write_table(_table(rows[::2]), str(src / "part-00000.parquet"))
    pq.write_table(_table(rows[1::2]), str(src / "part-00001.parquet"))
    out = str(tmp_path / "out")
    summary = run_resumable(str(src), out, chunk_files=1)
    assert summary["stale_filter"] == {
        "route": "bloom", "dup_urls": 6, "tied_urls": 3,
        "exact_dup_urls": 1, "bloom_reason": "exact_duplicates",
    }
    # the twin pair sits in both shards: exactly one chunk keeps a copy
    files = glob.glob(os.path.join(out, "chunk-*", "*.parquet"))
    _assert_matches_oracle(pads.dataset(files).to_table(), _table(rows))


# ---------------------------------------------------------------------------
# ties on the dict route; exact duplicates on the Bloom route
# ---------------------------------------------------------------------------

def test_tie_corpus_takes_dict_route_without_exchange(ray_session, tmp_path):
    t = _tie_corpus()
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    route = ex._stale_filter(path)
    assert route.route == "dict" and route.tied_urls > 0, route.summary()

    ds = ex.extract_pipeline(path).materialize()
    ops = ds.stats()  # the executed plan
    assert "drop_stale" in ops
    assert "Sort" not in ops and "split" not in ops
    _assert_matches_oracle(pa.Table.from_pandas(ds.to_pandas()), t)


def test_exact_duplicate_rows_give_one_row_per_url(ray_session, tmp_path):
    t = _table(_planted_rows(exact_dup=True))
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)

    out = str(tmp_path / "out")
    ex.extract_to_parquet(path, out)
    _assert_matches_oracle(pq.read_table(out), t)


# ---------------------------------------------------------------------------
# chunked resume: winners are global, not per chunk
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("bound", [None, 0], ids=["default_route", "bloom_route"])
def test_chunked_resume_matches_oracle(ray_session, tmp_path, monkeypatch, bound):
    """u/a re-crawled across shards 0/1 and a same-ts pair split over them:
    with one shard per chunk every chunk must still keep only the global
    winner."""
    if bound is not None:
        monkeypatch.setattr(ex, "_WINNER_BROADCAST_MAX", bound)
    shards = [
        [_page("https://u.example/a", TS - dt.timedelta(days=1), "a old"),
         _page("https://u.example/t", TS, "tie left")],
        [_page("https://u.example/a", TS, "a new"),
         _page("https://u.example/t", TS, "tie right")],
        [_page("https://u.example/c", TS, "c solo")],
    ]
    src = tmp_path / "pages"
    src.mkdir()
    for i, rows in enumerate(shards):
        pq.write_table(_table(rows), str(src / f"part-{i:05d}.parquet"))
    out = str(tmp_path / "out")

    run_resumable(str(src), out, chunk_files=1)

    files = sorted(glob.glob(os.path.join(out, "chunk-*", "**", "*.parquet"),
                             recursive=True))
    got = pads.dataset(files).to_table()
    _assert_matches_oracle(got, _table([r for rows in shards for r in rows]))


# ---------------------------------------------------------------------------
# a 1-CPU session completes
# ---------------------------------------------------------------------------

def test_one_cpu_session_completes(tmp_path):
    """Its own ``ray.init(num_cpus=1)`` session in a subprocess: the
    read, processing and write tasks take turns on the one CPU."""
    script = textwrap.dedent(f"""
        import pyarrow.parquet as pq
        import ray
        ray.init(address="local", num_cpus=1, include_dashboard=False,
                 logging_level="ERROR", object_store_memory=256 << 20)
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
        from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
            extract_pipeline,
        )
        path = {str(tmp_path / "pages.parquet")!r}
        pq.write_table(generate_pages(60, seed=3), path)
        print("ROWS", extract_pipeline(path).count(), flush=True)
        ray.shutdown()
    """)
    proc = subprocess.Popen(
        [sys.executable, "-c", script], cwd=str(tmp_path), start_new_session=True,
        env=dict(os.environ, PYTHONPATH=REPO),  # the driver and its workers
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        out, _ = proc.communicate(timeout=150)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("extraction in a 1-CPU session made no progress in 150 s")
    assert proc.returncode == 0, out[-3000:]
    n_urls = len(set(generate_pages(60, seed=3)["url"].to_pylist()))
    rows = [json.loads(line.split()[1]) for line in out.splitlines()
            if line.startswith("ROWS")]
    assert rows == [n_urls]
