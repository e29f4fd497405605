"""The flagship runs ``DocProcessor`` as a task stage fused with its
neighbours: a job holds no CPU once it returns, the executed plan has no
actor pool, and an input of at least as many files as CPUs runs as one
task per file, read included."""

import datetime as dt
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from action_pdf_accessibility_paddle_docker_ray.corpus import generate_pages
from action_pdf_accessibility_paddle_docker_ray.oracle import (
    docs_to_table,
    oracle_extract,
)
from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
    _stale_filter,
    extract_pipeline,
)

CHECK = ["url", "text", "n_pages", "n_regions", "status",
         "template_json", "spans_json", "formulas_json"]


def _free_cpus_after(wait_s: float) -> float:
    """Free CPUs once every CPU is free, or at the end of ``wait_s``."""
    deadline = time.monotonic() + wait_s
    total = ray.cluster_resources()["CPU"]
    while True:
        free = ray.available_resources().get("CPU", 0)
        if free >= total or time.monotonic() > deadline:
            return free
        time.sleep(0.05)


def _recrawled_table() -> pa.Table:
    """generate_pages plus an older crawl, with a new payload, of every
    third url: duplicates with distinct max-ts winners (the dict route)."""
    t = generate_pages(40, seed=13).select(["url", "warc_ts", "html"])
    old = [{"url": r["url"], "warc_ts": r["warc_ts"] - dt.timedelta(days=2),
            "html": f"<html><body><p>old crawl {k}</p></body></html>".encode()}
           for k, r in enumerate(t.to_pylist()[::3])]
    return pa.concat_tables([t, pa.Table.from_pylist(old, schema=t.schema)])


def _write_files(t: pa.Table, out_dir, n_files: int) -> str:
    """Write ``t`` in row order as ``n_files`` parquet files under ``out_dir``."""
    os.makedirs(out_dir)
    per_file = -(-t.num_rows // n_files)
    for f in range(n_files):
        pq.write_table(t.slice(f * per_file, per_file),
                       os.path.join(out_dir, f"part-{f:05d}.parquet"))
    return str(out_dir)


def _operators(ds) -> list[tuple[str, int]]:
    """(name, task count) of every executed (fused) operator."""
    ops = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        ops.extend((o.operator_name, o.task_rows["count"] if o.task_rows else 0)
                   for o in summary.operators_stats)

    walk(ds._get_stats_summary())
    return ops


def _map_operators(ds) -> list[str]:
    """Names of the executed (fused) operators after the read."""
    return [n for n, _ in _operators(ds) if not n.startswith("ReadParquet")]


def _assert_matches_oracle(ds, t: pa.Table) -> None:
    """One row per url, each equal to ``oracle_extract(t)``'s."""
    ref = docs_to_table(oracle_extract(t)).select(CHECK).sort_by("url")
    got = pa.Table.from_pandas(ds.to_pandas()).select(CHECK).cast(ref.schema)
    assert len(set(got["url"].to_pylist())) == got.num_rows
    assert got.sort_by("url").equals(ref)


def _assert_one_fused_operator(ds) -> None:
    names = [n for n, _ in _operators(ds)]
    assert len(names) == 1, names
    assert names[0].startswith("ReadParquet->"), names
    assert "MapBatches(DocProcessor)" in names[0], names
    assert "SplitBlocks" not in names[0], names


def _has_actor_pool(ds) -> bool:
    from ray.data._internal.execution.operators.actor_pool_map_operator import (
        ActorPoolMapOperator,
    )
    from ray.data._internal.logical.optimizers import get_execution_plan

    seen, stack = [], [get_execution_plan(ds._logical_plan).dag]
    while stack:
        op = stack.pop()
        seen.append(op)
        stack.extend(op.input_dependencies)
    return any(isinstance(op, ActorPoolMapOperator) for op in seen)


def test_back_to_back_jobs_release_every_cpu(ray_session, tmp_path):
    """Three jobs in one session with no gc.collect(): after each one,
    every CPU of the session is free again within 1 s."""
    path = str(tmp_path / "pages.parquet")
    pq.write_table(generate_pages(40, seed=17), path)
    total = ray.cluster_resources()["CPU"]
    for i in range(3):
        out = str(tmp_path / f"out{i}")
        extract_pipeline(path).write_parquet(out, partition_cols=["size_bucket"])
        free = _free_cpus_after(1.0)
        assert free >= total, f"job {i}: {free} of {total} CPUs free after 1 s"
        assert pq.read_table(out).num_rows == 40


def test_dict_route_fuses_drop_stale_into_the_processing_stage(ray_session, tmp_path):
    t = _recrawled_table()
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)
    assert _stale_filter(path).route == "dict"

    assert not _has_actor_pool(extract_pipeline(path))
    ds = extract_pipeline(path).materialize()
    ops = _map_operators(ds)
    assert ops == ["MapBatches(drop_stale)->MapBatches(DocProcessor)"], ops
    _assert_matches_oracle(ds, t)


def test_route_none_has_one_processing_operator(ray_session, tmp_path):
    t = generate_pages(30, seed=19)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)
    assert _stale_filter(path).route == "none"

    assert not _has_actor_pool(extract_pipeline(path))
    ops = _map_operators(extract_pipeline(path).materialize())
    assert ops == ["MapBatches(DocProcessor)"], ops


@pytest.mark.parametrize("route", ["none", "dict"])
def test_many_file_input_runs_read_and_processing_as_one_task(
    ray_session, tmp_path, route
):
    """8 files on 4 CPUs: one task per file reads, filters and processes
    its file; the read is not split and no payload leaves the task."""
    t = generate_pages(30, seed=19) if route == "none" else _recrawled_table()
    path = _write_files(t, tmp_path / "pages", 8)
    assert _stale_filter(path).route == route

    ds = extract_pipeline(path).materialize()
    _assert_one_fused_operator(ds)
    _assert_matches_oracle(ds, t)


def test_one_file_input_keeps_its_parallelism(ray_session, tmp_path):
    """Fewer files than CPUs: the read is split so that ``DocProcessor``
    still runs in several tasks, not one serial task over the file."""
    t = _recrawled_table()
    path = _write_files(t, tmp_path / "pages", 1)

    ds = extract_pipeline(path).materialize()
    tasks = [n for name, n in _operators(ds) if "MapBatches(DocProcessor)" in name]
    assert len(tasks) == 1 and tasks[0] >= 2, _operators(ds)
    _assert_matches_oracle(ds, t)


def test_cross_file_stale_crawls_on_the_fused_plan(ray_session, tmp_path):
    """Each fused task sees only its own file, so ``drop_stale`` must
    decide from the global winners: an empty shard, a url whose older and
    newer crawls sit in different files (both orders), and a same-warc_ts
    tie whose two crawls sit in different files."""
    t = generate_pages(30, seed=19).select(["url", "warc_ts", "html"])
    rows = t.to_pylist()
    old_first, old_last, tied = rows[3], rows[25], rows[20]

    def crawl(r, days, body):
        return {"url": r["url"], "warc_ts": r["warc_ts"] - dt.timedelta(days=days),
                "html": f"<html><body><p>{body}</p></body></html>".encode()}

    def shard(rs):
        return pa.Table.from_pylist(rs, schema=t.schema)

    shards = [
        t.schema.empty_table(),
        shard(rows[:15] + [crawl(old_last, 2, "older crawl, earlier file")]),
        shard(rows[15:30]),
        shard([crawl(old_first, 3, "older crawl, later file"),
               crawl(tied, 0, "same warc_ts, other payload")]),
        shard([crawl(old_first, 1, "newer of two older crawls")]),
    ]
    src = tmp_path / "pages"
    os.makedirs(src)
    for i, s in enumerate(shards):
        pq.write_table(s, str(src / f"part-{i:05d}.parquet"))
    everything = pa.concat_tables(shards)
    route = _stale_filter(str(src))
    assert (route.route, route.dup_urls, route.tied_urls) == ("dict", 3, 1)

    ds = extract_pipeline(str(src)).materialize()
    _assert_one_fused_operator(ds)
    _assert_matches_oracle(ds, everything)
    assert ds.count() == 30
