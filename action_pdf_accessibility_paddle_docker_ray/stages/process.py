"""The document-processing stage.

``DocProcessor`` consumes raw (url, warc_ts, html) rows — each row is a
whole document — and emits finished doc rows by calling the golden
oracle's own per-doc kernel (``oracle.extract_row``).  No intermediate
serialization, no output shuffle; the unit of parallelism is the document
(bounded by the largest doc's page count — a 400-page %SDOC costs ~0.7 s
with the stub detector, and a real model batches pages internally).

The reference recreates every model at each use site (layout per page,
formula per formula, table models per table — /root/reference/src/ai.py:72-79,
169-179, 279-308).  Here the deterministic stub detector
(``functions/sdoc.stub_detect``) stands in for the model, so a
``DocProcessor`` carries only its config (model name, zoom, thresholds):
the flagship passes an instance to ``map_batches`` with no batch size and
Ray runs it as tasks, one call per block, fused with the write, the dict
route's stale step and, on an input of at least as many files as CPUs,
the parquet read (one task per file).  No stage holds
per-worker state until real weights exist; when they do, ``__init__`` is
where they load, and the class goes back to an actor pool
(``fn_constructor_kwargs``), the north star's GPU-pinned batched-inference
pattern.
"""

from __future__ import annotations

import ctypes
import functools
import json

import pyarrow as pa

from ..functions.labels import default_thresholds

_M_MMAP_THRESHOLD = -3  # glibc ``mallopt`` parameter


@functools.cache
def _return_freed_memory() -> None:
    """Make this worker process hand freed memory back to the OS at once.

    A task worker outlives its tasks: it also runs read tasks and the
    batches of later jobs.  By default pyarrow's jemalloc keeps freed pages
    for a decay period, and glibc raises its mmap threshold to the largest
    block freed so far, so the next multi-MB payload lands in the heap and
    stays there.  The worker's resident set then ratchets up to the
    high-water mark of every batch it ever ran.  Set once per process.
    On pdf_sdoc (4 CPUs, jobs 5-19 of one session) the median per-job peak
    USS was 188 MiB without either setting, 179 MiB with the mmap threshold
    alone and 167 MiB with both.
    """
    if pa.default_memory_pool().backend_name == "jemalloc":
        pa.jemalloc_set_decay_ms(0)
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except AttributeError:  # not glibc: keep the platform default
        return
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 256 << 10)


class DocProcessor:
    """Whole-doc stage: (url, warc_ts, html) rows → finished doc rows."""

    def __init__(
        self,
        model: str = "PP-DocLayout-L",
        zoom: float = 2.0,
        thresholds: dict[int, float] | None = None,
        process_table: bool = True,
        process_formula: bool = True,
        output: str = "json",
    ) -> None:
        self.model = model
        self.zoom = zoom
        self.thresholds = dict(thresholds) if thresholds else default_thresholds(model)
        self.process_table = process_table
        self.process_formula = process_formula
        # "json": the public docs contract (spans_json/formulas_json strings,
        # byte-identical to oracle.docs_to_table).  "nested": native Arrow
        # list<struct> spans/formulas for downstream zero-copy explodes.
        self.output = output

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.spans_codec import formulas_to_arrow, spans_to_arrow
        from ..oracle import extract_row
        from .fanout import size_bucket

        _return_freed_memory()
        nested = self.output == "nested"
        out: dict[str, list] = {
            "url": [], "text": [], "n_pages": [], "n_regions": [], "status": [],
            "template_json": [], "spans": [], "formulas": [],
            "size_bucket": [],
        }
        for url, ts, html in zip(
            batch.column("url").to_pylist(),
            batch.column("warc_ts").to_pylist(),
            batch.column("html").to_pylist(),
        ):
            doc = extract_row(
                {"url": url, "warc_ts": ts, "html": html},
                model=self.model, zoom=self.zoom, thresholds=self.thresholds,
                process_table=self.process_table,
                process_formula=self.process_formula,
            )
            out["url"].append(doc["url"])
            out["text"].append(doc["text"])
            out["n_pages"].append(doc["n_pages"])
            out["n_regions"].append(doc["n_regions"])
            out["status"].append(doc["status"])
            out["template_json"].append(doc["template_json"])
            if nested:
                out["spans"].append(doc["spans"])
                out["formulas"].append(doc["formulas"])
            else:
                out["spans"].append(json.dumps(doc["spans"], sort_keys=True))
                out["formulas"].append(json.dumps(doc["formulas"], sort_keys=True))
            out["size_bucket"].append(size_bucket(len(html)))
        if nested:
            spans_col = spans_to_arrow(out["spans"])
            formulas_col = formulas_to_arrow(out["formulas"])
            span_names = ("spans", "formulas")
        else:
            spans_col = pa.array(out["spans"], pa.string())
            formulas_col = pa.array(out["formulas"], pa.string())
            span_names = ("spans_json", "formulas_json")
        return pa.table(
            {
                "url": pa.array(out["url"], pa.string()),
                "text": pa.array(out["text"], pa.string()),
                "n_pages": pa.array(out["n_pages"], pa.int32()),
                "n_regions": pa.array(out["n_regions"], pa.int32()),
                "status": pa.array(out["status"], pa.string()),
                "template_json": pa.array(out["template_json"], pa.string()),
                span_names[0]: spans_col,
                span_names[1]: formulas_col,
                "size_bucket": pa.array(out["size_bucket"], pa.int32()),
            }
        )

