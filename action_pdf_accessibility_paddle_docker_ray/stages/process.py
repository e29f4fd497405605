"""The document-processing stage — the actor-pool boundary.

``DocProcessor`` consumes raw (url, warc_ts, html) rows — each row is a
whole document — and emits finished doc rows by calling the golden
oracle's own per-doc kernel (``oracle.extract_row``).  No intermediate
serialization, no output shuffle; the unit of parallelism is the document
(bounded by the largest doc's page count — a 400-page %SDOC costs ~0.7 s
with the stub detector, and a real model pool batches pages internally).

The reference recreates every model at each use site (layout per page,
formula per formula, table models per table — /root/reference/src/ai.py:72-79,
169-179, 279-308); here all per-worker state (model config, thresholds —
and, with real PaddleX models, the weights) is built ONCE per actor in
``__init__`` and reused across batches, exactly the actor-pool pattern the
``north_star`` mandates for GPU-pinned batched inference.  The deterministic
stub detector (``functions/sdoc.stub_detect``) stands in for the model; the
class boundary is where real weights would load.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..functions.labels import default_thresholds


class DocProcessor:
    """Whole-doc actor stage: (url, warc_ts, html) rows → finished doc rows."""

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

