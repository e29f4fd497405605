"""Resumability: kill after chunk k, restart, no dup/missing urls
(SURVEY.md §5c); a changed config, shard or threshold dict reruns every
chunk and the output equals the oracle of what the run was given."""

import glob
import os
import time

import pyarrow.dataset as pads
import pyarrow.parquet as pq
import pytest

import action_pdf_accessibility_paddle_docker_ray.pipelines.extract as ex
from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
from action_pdf_accessibility_paddle_docker_ray.functions.labels import default_thresholds
from action_pdf_accessibility_paddle_docker_ray.oracle import docs_to_table, oracle_extract
from action_pdf_accessibility_paddle_docker_ray.state.checkpoint import Checkpoint, run_key
from action_pdf_accessibility_paddle_docker_ray.state.manifest import (
    load_manifest,
    metrics_report,
    run_resumable,
)

CHECK = ["url", "text", "n_pages", "n_regions", "status",
         "template_json", "spans_json", "formulas_json"]


def _make_sharded_corpus(tmp_path, n_docs=60, n_files=6):
    table = generate_pages(n_docs, seed=42)
    src = tmp_path / "pages"
    src.mkdir()
    n = table.num_rows
    for i in range(n_files):
        idx = list(range(i, n, n_files))
        pq.write_table(table.take(idx), str(src / f"part-{i:05d}.parquet"))
    return str(src), table


def _assert_out_matches_oracle(out, source, **kwargs):
    """Every chunk dir on disk together equals the oracle over ``source``,
    with one row per url."""
    files = glob.glob(os.path.join(out, "chunk-*", "**", "*.parquet"), recursive=True)
    got = pads.dataset(files).to_table()
    ref = docs_to_table(oracle_extract(source, **kwargs)).select(CHECK).sort_by("url")
    got = got.select(CHECK).cast(ref.schema).sort_by("url")
    urls = got["url"].to_pylist()
    assert len(urls) == len(set(urls)), "more than one row for a url"
    assert got.equals(ref)


def _chunk_units(out):
    return sorted(u for u in load_manifest(out) if u.startswith("chunk-"))


def test_checkpoint_key_and_sweep(tmp_path):
    """The run key sees mtime and nested parameters; the sweep keeps only
    units committed under the current key; a foreign dir is refused."""
    inp = tmp_path / "in.parquet"
    inp.write_bytes(b"x")
    out = str(tmp_path / "out")
    assert run_key([str(inp)], {"t": {1: 0.5}}) != run_key([str(inp)], {"t": {1: 0.6}})

    Checkpoint(out, [str(inp)], {"n": 1}).publish(
        "u-0", lambda d: open(os.path.join(d, "f"), "w").close()
    )
    os.makedirs(os.path.join(out, "u-1"))  # renamed into place, never committed
    again = Checkpoint(out, [str(inp)], {"n": 1})
    assert again.done("u-0") and not os.path.exists(os.path.join(out, "u-1"))

    st = os.stat(inp)  # same name and size, newer mtime: a new key
    os.utime(inp, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert not Checkpoint(out, [str(inp)], {"n": 1}).done("u-0")
    assert os.listdir(out) == ["_manifest"] and not os.listdir(os.path.join(out, "_manifest"))

    other = tmp_path / "other"
    other.mkdir()
    (other / "keep.txt").write_text("not a checkpoint")
    with pytest.raises(FileExistsError):
        Checkpoint(str(other), [str(inp)], {"n": 1})
    assert os.listdir(other) == ["keep.txt"]


def test_crash_and_resume_no_dup_no_missing(ray_session, tmp_path, crash_after):
    src, table = _make_sharded_corpus(tmp_path)
    out = str(tmp_path / "out")

    # killed in the publish of the second chunk (2 files per chunk): its
    # dir is renamed into place but never committed
    with crash_after("chunk-", 1):
        run_resumable(src, out, chunk_files=2)
    assert _chunk_units(out) == ["chunk-00000"]
    assert os.path.isdir(os.path.join(out, "chunk-00001"))

    manifest = os.path.join(out, "_manifest", "chunk-00000.json")
    committed_mtime = os.path.getmtime(manifest)

    # restart: completes the rest, does not redo the committed chunk
    second = run_resumable(src, out, chunk_files=2)
    assert second["shards_skipped"] == 2
    assert second["chunks_run"] == 2
    assert _chunk_units(out) == ["chunk-00000", "chunk-00001", "chunk-00002"]
    assert os.path.getmtime(manifest) == committed_mtime

    # final output: exactly the oracle's docs, one row per url
    _assert_out_matches_oracle(out, table)


def test_changed_shard_is_reprocessed(ray_session, tmp_path):
    src, _ = _make_sharded_corpus(tmp_path, n_docs=30, n_files=3)
    out = str(tmp_path / "out")
    run_resumable(src, out, chunk_files=3)
    assert run_resumable(src, out, chunk_files=3)["shards_skipped"] == 3

    # mutate one shard → the run key changes → the output is that of the
    # edited source, with no row left over from the old shard
    victim = os.path.join(src, "part-00001.parquet")
    t = pq.read_table(victim)
    pq.write_table(t.slice(0, t.num_rows - 1), victim)
    run_resumable(src, out, chunk_files=3)
    _assert_out_matches_oracle(out, pads.dataset(src).to_table())


def test_config_change_reruns_every_chunk(ray_session, tmp_path):
    """A ``zoom=1.0`` resume of a default (zoom 2.0) run: every chunk
    reruns and the output is the zoom-1.0 oracle's, not a mix."""
    src, table = _make_sharded_corpus(tmp_path, n_docs=30, n_files=3)
    out = str(tmp_path / "out")
    run_resumable(src, out, chunk_files=1)
    resumed = run_resumable(src, out, chunk_files=1, zoom=1.0)
    assert resumed["chunks_run"] == 3 and resumed["shards_skipped"] == 0
    _assert_out_matches_oracle(out, table, zoom=1.0)


def test_threshold_change_reruns(ray_session, tmp_path):
    """The ``thresholds`` dict ``cli tag --resume`` passes is in the run
    key: a resume with other thresholds reruns and matches their oracle."""
    src, table = _make_sharded_corpus(tmp_path, n_docs=30, n_files=3)
    out = str(tmp_path / "out")
    strict = {k: min(1.0, v + 0.3) for k, v in default_thresholds().items()}
    assert oracle_extract(table, thresholds=strict) != oracle_extract(table)
    run_resumable(src, out, chunk_files=2)
    resumed = run_resumable(src, out, chunk_files=2, thresholds=strict)
    assert resumed["chunks_run"] == 2
    _assert_out_matches_oracle(out, table, thresholds=strict)


def test_metrics_report(ray_session, tmp_path):
    src, _ = _make_sharded_corpus(tmp_path, n_docs=30, n_files=3)
    out = str(tmp_path / "out")
    run_resumable(src, out, chunk_files=2)
    report = metrics_report(out)
    assert report["shards"] == 3
    assert report["docs"] > 0
    assert report["docs_per_sec"] is not None
    assert report["input_bytes"] > 0


def test_metrics_report_wall_counts_the_winner_scan(ray_session, tmp_path, monkeypatch):
    """The report's wall is the run's: a 1 s winner scan shows up in it on
    top of the chunk walls."""
    src, _ = _make_sharded_corpus(tmp_path, n_docs=30, n_files=3)
    out = str(tmp_path / "out")
    scan = ex._stale_filter

    def slow_scan(source):
        time.sleep(1.0)
        return scan(source)

    monkeypatch.setattr(ex, "_stale_filter", slow_scan)
    t0 = time.time()
    run_resumable(src, out, chunk_files=2)
    outer = time.time() - t0
    report = metrics_report(out)
    chunk_walls = sum(c["wall_sec"] for c in report["per_chunk"].values())
    # the report rounds walls to the millisecond; rounding keeps the order
    assert chunk_walls + 1.0 <= report["wall_sec"] <= round(outer, 3)


def test_output_report(ray_session, tmp_path):
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import extract_pipeline
    from action_pdf_accessibility_paddle_docker_ray.pipelines.report import output_report

    path = str(tmp_path / "p.parquet")
    pq.write_table(generate_pages(50, seed=42), path)
    docs = extract_pipeline(path)
    rep = output_report(docs)
    assert rep["docs"].sum() == 50
    assert rep["errors"].sum() == 0
    assert (rep["pages"] >= rep["docs"]).all()
    # heavy size buckets really contain multi-page docs
    assert rep.loc[rep["size_bucket"].idxmax(), "max_pages"] > 50
