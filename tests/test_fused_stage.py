"""The flagship runs ``DocProcessor`` as a task stage fused with its
neighbours: a job holds no CPU once it returns, and the executed plan has
no actor pool."""

import datetime as dt
import time

import pyarrow as pa
import pyarrow.parquet as pq
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


def _map_operators(ds) -> list[str]:
    """Names of the executed (fused) operators after the read."""
    names = []

    def walk(summary):
        for parent in summary.parents:
            walk(parent)
        names.extend(o.operator_name for o in summary.operators_stats)

    walk(ds._get_stats_summary())
    return [n for n in names if not n.startswith("ReadParquet")]


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
    ref = docs_to_table(oracle_extract(t)).select(CHECK).sort_by("url")
    got = pa.Table.from_pandas(ds.to_pandas()).select(CHECK).cast(ref.schema)
    assert got.sort_by("url").equals(ref)


def test_route_none_has_one_processing_operator(ray_session, tmp_path):
    t = generate_pages(30, seed=19)
    path = str(tmp_path / "pages.parquet")
    pq.write_table(t, path)
    assert _stale_filter(path).route == "none"

    assert not _has_actor_pool(extract_pipeline(path))
    ops = _map_operators(extract_pipeline(path).materialize())
    assert ops == ["MapBatches(DocProcessor)"], ops
