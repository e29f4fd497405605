"""Golden single-process extractor (the byte-identity oracle, SURVEY.md §5b).

A plain, loop-based extractor over the pages table using the exact same
pure kernels (``functions/``) the Ray pipeline uses — no Ray, no
parallelism.  The pipeline's distributed output must match this oracle
byte-identically per url; tests enforce it.  This realizes the
``north_rule`` invariant ("byte-identical extracted text per url vs the
reference semantics") in a sandbox where the reference's proprietary
PDFix/PaddleX stack cannot run.
"""

from __future__ import annotations

from typing import Any

import pyarrow as pa

from .functions.assemble import assemble_document
from .functions.html_strip import strip_html
from .functions.labels import default_thresholds
from .functions.sdoc import is_sdoc, parse_sdoc
from .functions.template import process_page


def dedup_latest(rows: list[dict]) -> list[dict]:
    """Per-url keep the most recent warc_ts (ties → larger content hash, the
    same key EVERY pipeline dedup path uses — stages/fanout.content_key);
    output in first-seen url order."""
    from .stages.fanout import content_key

    def key(row: dict):
        return (row["warc_ts"], content_key(row["html"]))

    best: dict[str, dict] = {}
    order: list[str] = []
    for row in rows:
        url = row["url"]
        if url not in best:
            best[url] = row
            order.append(url)
        elif key(row) > key(best[url]):
            best[url] = row
    return [best[u] for u in order]


def _empty_page(page_no: int, status: str) -> dict:
    """The page record of a page (or document) that failed to extract."""
    return {"kind": "sdoc", "page_no": page_no, "text": "", "elements": [],
            "formulas": [], "spans": [], "n_regions": 0, "status": status}


def extract_row(
    row: dict,
    *,
    model: str = "PP-DocLayout-L",
    zoom: float = 2.0,
    process_table: bool = True,
    process_formula: bool = True,
    thresholds: dict[int, float] | None = None,
) -> dict:
    """One input row → one output-doc record (dict with spans/formulas lists).

    Also the per-doc kernel of the pipeline (stages/process.DocProcessor),
    so pipeline output is byte-identical to the oracle by construction.
    A malformed document never raises: a %SDOC container that does not
    decode to a dict with a list of ``pages`` becomes one empty page with
    status ``parse_error:<exception>``, and a page whose ``process_page``
    raises becomes an empty page with status ``page_error:<exception>``
    (the document keeps its other pages).
    """
    url = row["url"]
    created = str(row["warc_ts"])[:10]
    html: bytes = row["html"]
    if thresholds is None:
        thresholds = default_thresholds(model)

    if is_sdoc(html):
        try:
            pages = parse_sdoc(html).get("pages", [])
            if not isinstance(pages, list):
                raise TypeError(f"pages is {type(pages).__name__}, not list")
        except Exception as exc:  # noqa: BLE001 - error becomes a status row
            return assemble_document(url, created, model, zoom, [
                _empty_page(0, f"parse_error:{type(exc).__name__}")
            ])
        page_records = []
        for page_no, page in enumerate(pages):
            # the reference numbers pages 1-based in templates/ids
            # (/root/reference/src/autotag.py:191 page_number = page_index + 1)
            try:
                result = process_page(
                    page, page_no + 1, model=model, thresholds=thresholds, zoom=zoom,
                    process_table=process_table, process_formula=process_formula,
                )
            except Exception as exc:  # noqa: BLE001 - error becomes a status row
                page_records.append(
                    _empty_page(page_no, f"page_error:{type(exc).__name__}")
                )
                continue
            page_records.append(
                {"kind": "sdoc", "page_no": page_no, "status": "ok", **result}
            )
        return assemble_document(url, created, model, zoom, page_records)

    # HTML arm
    try:
        text = html.decode("utf-8")
    except UnicodeDecodeError:
        text = html.decode("utf-8", errors="replace")
    result = strip_html(text)
    return assemble_document(url, created, model, zoom, [
        {"kind": "html", "page_no": 0, "text": result["text"],
         "elements": [], "formulas": [], "spans": result["spans"],
         "n_regions": len(result["spans"]), "status": result.get("status", "ok")}
    ])


def oracle_extract(table: pa.Table, *, dedup: bool = True, **kwargs: Any) -> list[dict]:
    """Run the full golden extraction over a pages table → list of doc records."""
    rows = table.to_pylist()
    if dedup:
        rows = dedup_latest(rows)
    return [extract_row(row, **kwargs) for row in rows]


def docs_to_table(docs: list[dict]) -> pa.Table:
    """Doc records → the output parquet schema (spans/formulas JSON-encoded)."""
    import json

    return pa.table(
        {
            "url": pa.array([d["url"] for d in docs], pa.string()),
            "text": pa.array([d["text"] for d in docs], pa.string()),
            "n_pages": pa.array([d["n_pages"] for d in docs], pa.int32()),
            "n_regions": pa.array([d["n_regions"] for d in docs], pa.int32()),
            "status": pa.array([d["status"] for d in docs], pa.string()),
            "template_json": pa.array([d["template_json"] for d in docs], pa.string()),
            "spans_json": pa.array([json.dumps(d["spans"], sort_keys=True) for d in docs], pa.string()),
            "formulas_json": pa.array([json.dumps(d["formulas"], sort_keys=True) for d in docs], pa.string()),
        }
    )
