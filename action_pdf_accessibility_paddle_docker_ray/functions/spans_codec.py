"""Native Arrow representation for span / formula lists.

``extract_pipeline(output="nested")`` emits spans and formulas as Arrow
``list<struct>`` columns instead of JSON strings, so the downstream
explodes (``spans_dataset`` / ``formulas_dataset``) are
``pyarrow.compute`` flattens (``list_parent_indices`` + ``flatten``)
instead of a per-row ``json.loads`` loop.  The public docs contract
(byte-identical ``spans_json`` per url vs ``oracle.py``) stays JSON.

A struct column normalizes every span to the full field set: absent keys
become nulls.  HTML spans carry {boiler, label, link_density,
reading_order, tag_count, text} and %SDOC spans the 12-key page-geometry
set, so a nested span holds the union of both.
"""

from __future__ import annotations

import pyarrow as pa

SPAN_STRUCT = pa.struct(
    [
        ("page_no", pa.int32()),
        ("region_id", pa.int64()),
        ("label", pa.string()),
        ("score", pa.float64()),
        ("x0", pa.float64()),
        ("y0", pa.float64()),
        ("x1", pa.float64()),
        ("y1", pa.float64()),
        ("reading_order", pa.int32()),
        ("text", pa.string()),
        ("link_density", pa.float64()),
        ("tag_count", pa.int32()),
        ("boiler", pa.bool_()),
        ("table_json", pa.string()),
        ("mathml", pa.string()),
    ]
)

# doc-level formulas are {formula_id, mathml, url} dicts; url rides on the row
FORMULA_STRUCT = pa.struct([("formula_id", pa.int64()), ("mathml", pa.string())])


def spans_to_arrow(span_lists: list[list[dict]]) -> pa.Array:
    """Per-row span-dict lists → ``list<SPAN_STRUCT>`` (extra dict keys such
    as ``url`` are dropped; absent keys become nulls)."""
    return pa.array(span_lists, type=pa.list_(SPAN_STRUCT))


def formulas_to_arrow(formula_lists: list[list[dict]]) -> pa.Array:
    """Per-row formula-dict lists → ``list<FORMULA_STRUCT>`` (``url`` is
    dropped like in ``spans_to_arrow``)."""
    return pa.array(formula_lists, type=pa.list_(FORMULA_STRUCT))
