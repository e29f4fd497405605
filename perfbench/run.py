#!/usr/bin/env python3
"""Flagship extraction benchmark: pages parquet -> docs parquet at 4 CPUs.

Usage, from any working directory:

    python3 perfbench/run.py --workload recrawl --seed 1 --seconds 30 --trace 0

One run:

1. writes the workload's pages parquet for ``--seed`` (``workloads.py``);
2. passes the deduped rows through ``oracle.extract_row`` in this process
   once, before Ray starts: the reference,
   ``oracle.docs_to_table(oracle.oracle_extract(table))``;
3. ``ray.init(num_cpus=4)`` plus the first, untimed flagship job
   (``setup_s``);
4. until ``--seconds`` are spent: releases the previous job's actor pool,
   with ``--trace 1`` times serial passes of the same rows (the serial
   floor) for at least ``SERIAL_MIN_S`` while Ray idles, then times one
   flagship job,
   ``extract_pipeline(path).write_parquet(out, partition_cols=["size_bucket"])``
   (the ``cli tag`` call);
5. checks every job's output against the reference; any mismatch fails
   the run (exit 1).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` also runs one
kernel-traced serial pass, takes per-operator numbers from each timed job's
``Dataset.stats()``, prints the per-layer metrics and writes every span to
``.perfbench/spans/``.  The last stdout line is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = "action_pdf_accessibility_paddle_docker_ray"

NUM_CPUS = 4
SERIAL_MIN_S = 1.5  # serial seconds between two jobs: a short pass repeats
JOB_TIMEOUT_S = 60.0
DRAIN_TIMEOUT_S = 30.0
CHECK_COLUMNS = ["url", "text", "template_json", "spans_json", "formulas_json", "status"]
SCRATCH = ".perfbench"  # every file a run writes goes under <root>/.perfbench
# Ray's session dir.  Its sockets sit at <this>/session_<date>_<time>_<usec>_<pid>/
# sockets/plasma_store, and AF_UNIX paths are capped at 107 bytes, which a
# deep checkout overruns.  main() makes the root every process's cwd, so
# /proc/self/cwd keeps the path short and still inside the checkout.
RAY_TEMP_DIR = f"/proc/self/cwd/{SCRATCH}/ray"
# the same Ray behaviour whatever the caller exports: no usage-stats upload,
# no memory monitor killing workers because other tenants of a shared host
# use memory, temp files inside the checkout, one BLAS/OpenMP thread a process
RAY_ENV = {
    "RAY_USAGE_STATS_ENABLED": "0",
    "RAY_memory_monitor_refresh_ms": "0",
    "RAY_TMPDIR": f"/proc/self/cwd/{SCRATCH}/tmp",
    "TMPDIR": f"/proc/self/cwd/{SCRATCH}/tmp",
    "OMP_NUM_THREADS": "1",
    # a timed-out job's thread outlives ray.shutdown(); without this its
    # next Ray call would start a second, orphaned local cluster
    "RAY_ENABLE_AUTO_CONNECT": "0",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------- serial


def serial_pass(rows: list[dict]) -> tuple[float, float, list[dict]]:
    """One pass of ``rows`` through extract_row: (wall s, CPU s, docs)."""
    from action_pdf_accessibility_paddle_docker_ray import oracle

    gc.collect()  # the caller has released the previous pass's docs
    w0, c0 = time.perf_counter(), time.process_time()
    docs = [oracle.extract_row(r) for r in rows]
    return time.perf_counter() - w0, time.process_time() - c0, docs


def traced_pass(rows: list[dict], spans) -> float:
    """One serial pass with every kernel patched; returns its wall."""
    from action_pdf_accessibility_paddle_docker_ray import oracle

    from tracing import KernelTracer

    gc.collect()
    with KernelTracer(spans):
        extract = spans.traced("extract_row", oracle.extract_row)
        t0 = time.perf_counter()
        docs = [extract(r) for r in rows]
        wall = time.perf_counter() - t0
    del docs
    return wall


# ---------------------------------------------------------------- ray jobs


def ray_init() -> None:
    import ray
    from ray.data import DataContext

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        logging_level="ERROR", object_store_memory=512 << 20,
        _temp_dir=RAY_TEMP_DIR,
        _plasma_directory=os.path.join(ROOT, SCRATCH, "plasma"),
        # workers import the package from the checkout, whatever the cwd
        runtime_env={"env_vars": {"PYTHONPATH": ROOT}},
    )
    DataContext.get_current().enable_progress_bars = False


def drain() -> float:
    """Release the previous job's actor pool and wait until every CPU is
    free again; returns the wait (``session.drain_s``)."""
    import ray

    t0 = time.perf_counter()
    gc.collect()
    while ray.available_resources().get("CPU", 0) < NUM_CPUS:
        if time.perf_counter() - t0 > DRAIN_TIMEOUT_S:
            break
        time.sleep(0.005)
    return time.perf_counter() - t0


class Job:
    """One flagship job, run on a thread so a hang becomes a failed job."""

    def __init__(self, src: str, out: str) -> None:
        self.src, self.out = src, out
        self.t0 = self.t_plan = self.t_end = 0.0
        self.ops: list = []
        self.error: BaseException | None = None
        self.timed_out = False

    def _body(self) -> None:
        from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
            extract_pipeline,
        )

        try:
            self.t0 = time.perf_counter()
            ds = extract_pipeline(self.src)
            self.t_plan = time.perf_counter()
            ds.write_parquet(self.out, partition_cols=["size_bucket"])
            self.t_end = time.perf_counter()
            # Dataset.stats() of a written Dataset lives on its write plan
            self.ops = _flatten(ds._write_ds._get_stats_summary())
        except Exception as exc:  # noqa: BLE001 - recorded as a failed job
            self.error = exc

    def run(self) -> "Job":
        th = threading.Thread(target=self._body, daemon=True)
        th.start()
        th.join(JOB_TIMEOUT_S)
        self.timed_out = th.is_alive()
        return self

    @property
    def ok(self) -> bool:
        return not self.timed_out and self.error is None

    @property
    def wall(self) -> float:
        return self.t_end - self.t0


def _flatten(summary) -> list:
    ops = []
    for parent in summary.parents:
        ops.extend(_flatten(parent))
    ops.extend(o for o in summary.operators_stats if o.wall_time)
    return ops


def check_output(out_dir: str, ref) -> tuple[int, int]:
    """(mismatched rows, status != ok rows) of one job's written docs."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    got = pq.read_table(out_dir, columns=CHECK_COLUMNS).sort_by("url")
    errors = got.num_rows - pc.sum(pc.equal(got["status"], "ok")).as_py()
    if got.num_rows != ref.num_rows or not got["url"].equals(ref["url"]):
        return max(got.num_rows, ref.num_rows), errors
    bad = None
    for col in CHECK_COLUMNS[1:]:
        ne = pc.fill_null(pc.not_equal(got[col], ref[col]), True)
        bad = ne if bad is None else pc.or_(bad, ne)
    return pc.sum(bad).as_py() or 0, errors


# ---------------------------------------------------------------- per layer


def _group(ops: list, *keys: str) -> dict[str, float]:
    sel = [o for o in ops if any(k in o.operator_name for k in keys)]
    if not sel:
        return {"wall_s": 0.0, "busy_s": 0.0, "tasks": 0, "rows": 0, "bytes": 0}
    return {
        "wall_s": max(o.latest_end_time for o in sel) - min(o.earliest_start_time for o in sel),
        "busy_s": sum(o.wall_time["sum"] for o in sel),
        "tasks": sum(o.task_rows["count"] for o in sel if o.task_rows),
        "rows": sum(o.output_num_rows["sum"] for o in sel if o.output_num_rows),
        "bytes": sum(o.output_size_bytes["sum"] for o in sel if o.output_size_bytes),
    }


def stale_route(ops: list) -> int:
    """0 none / 1 dict / 2 Bloom, from the operator names the route adds."""
    names = " ".join(o.operator_name for o in ops)
    if "drop_stale" in names:
        return 1
    if "split" in names or "Sort" in names:
        return 2
    return 0


def job_layers(job: Job, n_input_rows: int) -> dict[str, float]:
    from action_pdf_accessibility_paddle_docker_ray.pipelines.extract import (
        _default_concurrency,
    )

    ops = job.ops
    route = stale_route(ops)
    read = _group(ops, "ReadParquet")
    pool = _group(ops, "DocProcessor")
    write = _group(ops, "Write")
    exchange = _group(ops, "Sort", "Shuffle", "best_per_url")
    # the pool size extract_pipeline picks on this session for this route
    actors = _default_concurrency(4 if route == 2 else 8)[1]
    files = nbytes = 0
    for d, _, names in os.walk(job.out):
        for n in names:
            files += 1
            nbytes += os.path.getsize(os.path.join(d, n))
    return {
        "read.wall_s": read["wall_s"], "read.tasks": read["tasks"],
        "read.rows": read["rows"], "read.bytes": read["bytes"],
        "stale.plan_s": job.t_plan - job.t0, "stale.route": route,
        "stale.rows_dropped": n_input_rows - pool["rows"],
        "stale.exchange_s": exchange["wall_s"],
        "pool.wall_s": pool["wall_s"], "pool.busy_s": pool["busy_s"],
        "pool.tasks": pool["tasks"], "pool.rows_in": pool["rows"],
        "pool.busy_frac": pool["busy_s"] / (pool["wall_s"] * actors) if pool["wall_s"] else 0.0,
        "write.wall_s": write["wall_s"], "write.tasks": write["tasks"],
        "write.files": files, "write.bytes": nbytes,
    }


def job_spans(spans, job: Job) -> None:
    sid = spans.add("job", job.t0, job.t_end)
    spans.add("stale.plan", job.t0, job.t_plan, sid)
    spans.add("write_parquet", job.t_plan, job.t_end, sid)
    for o in job.ops:
        spans.add(f"op:{o.operator_name}", o.earliest_start_time, o.latest_end_time, sid)


# ---------------------------------------------------------------- run


def run(args: argparse.Namespace, work: str) -> dict:
    import ray
    import ray.data  # this process's own imports stay out of the setup sample

    from action_pdf_accessibility_paddle_docker_ray import oracle
    from action_pdf_accessibility_paddle_docker_ray.pipelines import extract  # noqa: F401

    import tracing
    from workloads import WORKLOADS, write_workload

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")

    src = os.path.join(work, "in")
    table = write_workload(args.workload, args.seed, src)
    n_input_rows = table.num_rows
    rows = oracle.dedup_latest(table.select(["url", "warc_ts", "html"]).to_pylist())
    del table

    # oracle_extract(table) is exactly extract_row over these rows, so a
    # serial pass gives the reference.  The timed passes of a traced run come
    # later, between every two jobs: this host's single-core speed drifts by
    # up to 2x over tens of seconds, and spread over the run they see the
    # host in the states the jobs see.
    ref = oracle.docs_to_table(serial_pass(rows)[2]).select(CHECK_COLUMNS).sort_by("url")
    n_docs = ref.num_rows  # one doc per distinct url
    spans = tracing.Spans()
    traced_s = traced_pass(rows, spans) if args.trace else 0.0

    jobs: list[Job] = []
    timed: list[dict] = []  # per timed job: wall, drain, heap, layers
    serial: list[tuple[float, float]] = []  # per timed pass: wall, CPU s
    mismatches = error_docs = 0

    def one_job() -> Job:
        nonlocal mismatches, error_docs
        job = Job(src, os.path.join(work, f"out{len(jobs)}")).run()
        jobs.append(job)
        if job.ok:
            bad, error_docs = check_output(job.out, ref)
            mismatches += bad
        else:
            print(f"job {len(jobs)} failed: "
                  f"{'timeout' if job.timed_out else repr(job.error)}", file=sys.stderr)
        return job

    try:
        t0 = time.perf_counter()
        ray_init()
        job = one_job()
        setup_s = time.perf_counter() - t0
        _log(f"setup {setup_s:.3f} s")
        shutil.rmtree(job.out, ignore_errors=True)
        measured = 0.0  # seconds spent in serial passes and timed jobs
        while jobs[-1].ok and measured < args.seconds:
            drain_s = drain()
            spent = 0.0  # no Ray task runs during the serial passes
            while args.trace and spent < SERIAL_MIN_S:
                serial.append(serial_pass(rows)[:2])
                spent += serial[-1][0]
            job = one_job()
            measured += spent + job.wall
            _log(f"serial {spent:.3f} s, job wall {job.wall:.3f} s after drain {drain_s:.3f} s")
            if job.ok:
                timed.append({
                    "wall": job.wall, "drain": drain_s,
                    "heap": max(o.memory["max"] for o in job.ops),
                    "layers": job_layers(job, n_input_rows) if args.trace else {},
                })
                if args.trace:
                    job_spans(spans, job)
            shutil.rmtree(job.out, ignore_errors=True)
    finally:
        ray.shutdown()
    failed = sum(not j.ok for j in jobs)
    if not failed:  # keep the session logs of a failed job
        for name in os.listdir(RAY_TEMP_DIR):
            if name.endswith(f"_{os.getpid()}"):
                shutil.rmtree(os.path.join(RAY_TEMP_DIR, name), ignore_errors=True)

    result = {"correct": mismatches == 0 and bool(timed),
              "attempted": len(jobs), "failed": failed, "metrics": {}}
    if not timed:
        return result
    job_s = statistics.median(t["wall"] for t in timed)
    if not args.trace:
        metrics = {
            "docs_per_s": n_docs / job_s,
            "setup_s": setup_s,
            "peak_heap_mb": statistics.median(t["heap"] for t in timed),
            "ok_job_frac": (len(jobs) - failed) / len(jobs),
        }
        units = _units("end_to_end")
    else:
        metrics = tracing.summary(spans.rows)
        for key in timed[0]["layers"]:
            metrics[key] = statistics.median(t["layers"][key] for t in timed)
        metrics["session.drain_s"] = statistics.median(t["drain"] for t in timed)
        metrics["status.error_docs"] = error_docs
        serial_s = statistics.median(wall for wall, _ in serial)
        metrics["serial_docs_per_s"] = n_docs / serial_s
        metrics["serial.cpu_s"] = statistics.median(cpu for _, cpu in serial)
        metrics["trace.overhead_s"] = traced_s - serial_s
        metrics["engine_efficiency"] = serial_s / (job_s * NUM_CPUS)
        units = _units("per_layer")
        path = os.path.join(ROOT, SCRATCH, "spans", f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "spans": spans.to_json()}, f)
        print(f"spans: {path}")
    result["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return result


def _log(msg: str) -> None:
    print(f"[perfbench {time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def _units(section: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    # a SIGTERM unwinds through the finally blocks (ray.shutdown, scratch dir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isdir(os.path.join(ROOT, PKG)):
        print(f"error: no {PKG}/ package next to perfbench/ under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)  # RAY_TEMP_DIR and RAY_ENV resolve against the cwd
    for d in ("ray", "tmp", "plasma"):
        os.makedirs(os.path.join(SCRATCH, d), exist_ok=True)
    os.environ.update(RAY_ENV)
    work = os.path.join(ROOT, SCRATCH, f"run-{os.getpid()}")
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
