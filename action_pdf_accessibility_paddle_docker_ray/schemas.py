"""Explicit Arrow schemas for every stage boundary (SURVEY.md §1 row 12).

The reference passes implicit dicts everywhere (its only typing is mypy
annotations, /root/reference/.mypy.ini); here each Dataset hop has a
declared ``pyarrow.Schema`` and ``check_schema`` validates a batch/table
against it (used by the test suite and available as a debug stage).
"""

from __future__ import annotations

import pyarrow as pa

from .functions.spans_codec import FORMULA_STRUCT, SPAN_STRUCT

# input pages table (BASELINE.json input_hint)
PAGES = pa.schema(
    [
        ("url", pa.string()),
        ("warc_ts", pa.timestamp("us")),
        ("html", pa.binary()),
        ("text", pa.string()),
        ("lang", pa.string()),
    ]
)

# the pages columns extraction reads (read_pages' projection; the
# stages/dedup.dedup_latest output)
EXTRACT_INPUT = pa.schema([PAGES.field(n) for n in ("url", "warc_ts", "html")])

# output docs table (DocProcessor output)
DOCS = pa.schema(
    [
        ("url", pa.string()),
        ("text", pa.string()),
        ("n_pages", pa.int32()),
        ("n_regions", pa.int32()),
        ("status", pa.string()),
        ("template_json", pa.string()),
        ("spans_json", pa.string()),
        ("formulas_json", pa.string()),
        ("size_bucket", pa.int32()),
    ]
)

# docs table in the NESTED in-flight form (extract_pipeline(output="nested"))
DOCS_NESTED = pa.schema(
    [
        ("url", pa.string()),
        ("text", pa.string()),
        ("n_pages", pa.int32()),
        ("n_regions", pa.int32()),
        ("status", pa.string()),
        ("template_json", pa.string()),
        ("spans", pa.list_(SPAN_STRUCT)),
        ("formulas", pa.list_(FORMULA_STRUCT)),
        ("size_bucket", pa.int32()),
    ]
)

# flat spans table (spans_dataset output); page_no is the reference's
# 1-based page number for %SDOC docs, 0 for unpaginated HTML docs
SPANS = pa.schema(
    [
        ("url", pa.string()),
        ("page_no", pa.int32()),
        ("region_id", pa.int64()),
        ("label", pa.string()),
        ("score", pa.float32()),
        ("x0", pa.float64()),
        ("y0", pa.float64()),
        ("x1", pa.float64()),
        ("y1", pa.float64()),
        ("reading_order", pa.int32()),
        ("text", pa.string()),
        ("link_density", pa.float64()),
        ("boiler", pa.bool_()),
        ("table_json", pa.string()),
        ("mathml", pa.string()),
    ]
)

# per-url formula table (the formula_id ↔ mathml join output)
FORMULAS = pa.schema(
    [
        ("url", pa.string()),
        ("formula_id", pa.int64()),
        ("mathml", pa.string()),
    ]
)


def check_schema(table: pa.Table, expected: pa.Schema, *, where: str = "") -> pa.Table:
    """Assert a table matches the declared boundary schema (names + types).

    ``binary``/``large_binary`` are treated as equivalent (parquet readers
    may restore either depending on the writer's offsets width).
    """
    got = {f.name: f.type for f in table.schema}
    want = {f.name: f.type for f in expected}
    if set(got) != set(want):
        raise AssertionError(
            f"schema mismatch{' at ' + where if where else ''}: "
            f"columns {sorted(got)} != {sorted(want)}"
        )
    for name, want_t in want.items():
        got_t = got[name]
        if got_t == want_t:
            continue
        binaries = {pa.binary(), pa.large_binary()}
        if got_t in binaries and want_t in binaries:
            continue
        raise AssertionError(
            f"schema mismatch{' at ' + where if where else ''}: "
            f"column {name} is {got_t}, expected {want_t}"
        )
    return table
