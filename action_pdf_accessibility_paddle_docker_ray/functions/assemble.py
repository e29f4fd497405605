"""Per-url document assembly — the reduce side of the per-url groupby.

Replaces the reference's doc-scoped mutable accumulator
(``TemplateJsonCreator.template_json_pages`` / ``formulas``,
/root/reference/src/template_json.py:19-33) with a pure fold over the
page records of one url: page templates in page order → document template
(/root/reference/src/template_json.py:35-73), formula join with pop
semantics (/root/reference/src/autotag.py:262-295), page texts joined with
"\\f".
"""

from __future__ import annotations

import json

from .template import document_template, join_formulas, page_template


def assemble_document(
    url: str,
    created: str,
    model: str,
    zoom: float,
    pages: list[dict],
) -> dict:
    """Fold one url's page records (sorted by ``page_no`` by the caller).

    Each page record: ``{"kind", "page_no", "text", "elements", "formulas",
    "spans", "n_regions", "status"}`` — HTML docs arrive as a single record
    with ``kind == "html"`` (no template).

    Returns the output-doc record with ``spans`` / ``formulas`` kept as
    Python lists (serialized at the sink).
    """
    pages = sorted(pages, key=lambda p: p["page_no"])
    statuses = {p.get("status", "ok") for p in pages} or {"ok"}
    status = "ok" if statuses == {"ok"} else ";".join(sorted(s for s in statuses if s != "ok"))

    if pages and pages[0].get("kind") == "html":
        page = pages[0]
        return {
            "url": url,
            "text": page.get("text", ""),
            "n_pages": 1,
            "n_regions": sum(len(p.get("spans") or []) for p in pages),
            "status": status,
            "template_json": "",
            "spans": [dict(s, url=url) for p in pages for s in (p.get("spans") or [])],
            "formulas": [],
        }

    page_templates = [
        # 1-based page numbers in the template (reference autotag.py:191)
        page_template(p.get("elements") or [], p["page_no"] + 1) for p in pages
    ]
    formulas: list[tuple[int, str]] = []
    for p in pages:
        formulas.extend(tuple(f) for f in (p.get("formulas") or []))
    doc_tmpl = document_template(page_templates, model, zoom, created)
    matched = join_formulas(page_templates, formulas)

    return {
        "url": url,
        "text": "\f".join(p.get("text", "") for p in pages),
        "n_pages": len(pages),
        "n_regions": sum(int(p.get("n_regions") or 0) for p in pages),
        "status": status,
        "template_json": json.dumps(doc_tmpl, indent=2),
        "spans": [dict(s, url=url) for p in pages for s in (p.get("spans") or [])],
        "formulas": [dict(f, url=url) for f in matched],
    }
