"""Span recording around the kernel layers, from the benchmark's side.

``KernelTracer`` patches each kernel where the program looks it up — the
oracle's module globals (``oracle.strip_html`` ...) and ``functions.template``'s
imported names (``template.stub_detect`` ...), since ``template.py`` imports
them directly and patching their home modules would miss every call.  Each
call records one span ``(id, parent, name, start, end)``; spans stay in
memory and are written when the benchmark ends.  ``summary()`` turns the
spans into per-layer seconds, counts and the process_page self time.
"""

from __future__ import annotations

import functools
import time

from action_pdf_accessibility_paddle_docker_ray import oracle
from action_pdf_accessibility_paddle_docker_ray.functions import template

# (module, attribute, span name) of every patched kernel lookup
_PATCHES = [
    (oracle, "strip_html", "html_strip"),
    (oracle, "parse_sdoc", "sdoc_decode"),
    (oracle, "process_page", "process_page"),
    (oracle, "assemble_document", "assemble"),
    (template, "stub_detect", "detect"),
    (template, "resolve_overlaps", "resolve"),
    (template, "infer_table_grid", "table_grid"),
    (template, "latex_to_mathml", "mathml"),
]

# children of process_page; its self time is element build + reading order
_PAGE_CHILDREN = ("detect", "resolve", "text_index", "region_text", "table_grid", "mathml")


class Spans:
    """Flat in-memory span list with a parent stack."""

    def __init__(self) -> None:
        self.rows: list[tuple[int, int, str, float, float]] = []
        self._next_id = 0
        self._open: list[tuple[int, int, str, float]] = []  # innermost last

    def begin(self, name: str) -> None:
        parent = self._open[-1][0] if self._open else -1
        self._open.append((self._next_id, parent, name, time.perf_counter()))
        self._next_id += 1

    def end(self) -> None:
        sid, parent, name, start = self._open.pop()
        self.rows.append((sid, parent, name, start, time.perf_counter()))

    def add(self, name: str, start: float, end: float, parent: int = -1) -> int:
        """Record a span measured elsewhere (e.g. a Ray operator interval)."""
        sid = self._next_id
        self._next_id += 1
        self.rows.append((sid, parent, name, start, end))
        return sid

    def traced(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return wrapper

    def to_json(self) -> list[dict]:
        return [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                for i, p, n, s, e in sorted(self.rows)]


class KernelTracer:
    """Context manager: kernels patched on enter, restored on exit."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "KernelTracer":
        spans = self.spans
        for mod, attr, name in _PATCHES:
            fn = getattr(mod, attr)
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, spans.traced(name, fn))

        base = template.GlyphIndex

        class TracedGlyphIndex(base):
            def __init__(self, *args, **kwargs):
                spans.begin("text_index")
                try:
                    super().__init__(*args, **kwargs)
                finally:
                    spans.end()

            region_text = spans.traced("region_text", base.region_text)

        self._saved.append((template, "GlyphIndex", base))
        template.GlyphIndex = TracedGlyphIndex
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()


def summary(rows: list[tuple[int, int, str, float, float]]) -> dict[str, float]:
    """Per-layer seconds and counts from the kernel spans of one pass."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    child_s: dict[int, float] = {}
    for sid, parent, name, start, end in rows:
        total[name] = total.get(name, 0.0) + (end - start)
        count[name] = count.get(name, 0) + 1
        if name in _PAGE_CHILDREN:
            # direct, non-overlapping children: their sum is their coverage
            child_s[parent] = child_s.get(parent, 0.0) + (end - start)
    page_self = sum(end - start - child_s.get(sid, 0.0)
                    for sid, _, name, start, end in rows if name == "process_page")
    out = {f"kernel.{n}_s": total.get(n, 0.0) for n in (
        "extract_row", "html_strip", "sdoc_decode", "process_page", "detect",
        "resolve", "text_index", "region_text", "table_grid", "mathml", "assemble")}
    out["kernel.page_self_s"] = page_self
    out["kernel.docs"] = count.get("extract_row", 0)
    out["kernel.pages"] = count.get("process_page", 0)
    out["kernel.tables"] = count.get("table_grid", 0)
    out["kernel.formulas"] = count.get("mathml", 0)
    return out
