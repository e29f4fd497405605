"""Ray-Data-native main-content extraction engine.

A from-scratch reimplementation of the *computation* of the reference
(pdfix/action-pdf-accessibility-paddle-docker — a single-process PDF
accessibility autotagger, see SURVEY.md) as an idiomatic Ray Data
pipeline over a Parquet table of Common-Crawl-style web pages
``(url, warc_ts, html, text, lang)``:

- HTML rows: DOM-tree boilerplate stripping (text-density / link-density
  heuristics) — the arm mandated by ``BASELINE.json:north_star``.
- PDF-like rows (deterministic ``%SDOC`` container, see FIXTURES.md §1.1):
  page loop → layout-region detection (stub detector standing in for a
  PaddleX model, behind the ``DocProcessor`` class boundary) → overlap
  resolution → reading-order sort → per-region text extraction →
  table-grid inference → formula→MathML → per-url template assembly.

Layout:
- ``functions/``  pure deterministic kernels shared by the single-process
  golden oracle and the Ray pipeline (FNV-1a, coords, overlap resolution,
  table grid, label map, MathML, DOM strip, SDOC parsing).
- ``stages/``     Ray Data stage callables (batch fns and actor classes).
- ``sources/``    parquet readers with column pruning.
- ``pipelines/``  composed ``ray.data.Dataset`` pipelines + operator
  library (dedup, similarity search, text analysis).
- ``state/``      resumability: per-partition lineage manifests.
"""

__version__ = "0.1.0"


def ensure_picklable() -> None:
    """Force cloudpickle to serialize this package's modules by value.

    Ray workers deserialize stage functions by importing their defining
    module; when the engine is used as a plain directory package (not
    pip-installed) the workers' ``sys.path`` may not contain the repo
    root (e.g. when an external driver owns ``ray.init``).  Registering
    our modules for by-value pickling makes stage callables
    self-contained.  Idempotent and cheap; called by pipeline entry
    points before building a Dataset.
    """
    import sys

    try:
        from ray import cloudpickle
    except ImportError:  # pragma: no cover - ray always present in target env
        return
    prefix = __name__ + "."
    for name, mod in list(sys.modules.items()):
        if (name == __name__ or name.startswith(prefix)) and mod is not None:
            try:
                cloudpickle.register_pickle_by_value(mod)
            except Exception:
                pass
