"""%SDOC synthetic PDF-like documents: parsing, stub detection, text layer.

The sandbox has no PDF renderer and no PaddleX models, so PDF-like rows carry
a deterministic JSON container (FIXTURES.md §1.1) standing in for a real PDF:

``{"pages": [{"width": pts, "height": pts,
             "glyph_runs": [{"text", "x0", "y0", "x1", "y1"}],
             "truth_regions": [{"label", "score", "coordinate": [x0,y0,x1,y1],
                                "latex"?, "cell_boxes"?}]}]}``

Coordinates of ``truth_regions``, ``glyph_runs`` and ``cell_boxes`` are
device pixels at BASE_ZOOM=2.0, y-down — i.e. what the reference's layout
model sees for a page rendered at the default zoom
(/root/reference/src/main.py:272-275).  ``cell_boxes`` are table-local
(relative to the table's min corner), mirroring the cell-detection model
running on the table crop (/root/reference/src/ai.py:114-138).

``stub_detect`` is the deterministic stand-in for the PaddleX layout model:
it applies the same class pruning (17cls drops ids 17-22,
/root/reference/src/ai.py:46-49) and per-class score thresholds the real
model is configured with (/root/reference/src/ai.py:72-79), and rescales
coordinates for the requested zoom.  The ``DocProcessor`` class boundary
in ``stages/process.py`` is where real model weights would load.
"""

from __future__ import annotations

import json

from .labels import LABEL_TO_CLASS_ID

SDOC_MAGIC = b"%SDOC"
BASE_ZOOM = 2.0


def is_sdoc(payload: bytes) -> bool:
    return payload[:5] == SDOC_MAGIC


def parse_sdoc(payload: bytes) -> dict:
    """Parse a %SDOC payload → document dict. Raises ValueError on bad input."""
    if not is_sdoc(payload):
        raise ValueError("not an %SDOC payload")
    return json.loads(payload[5:].decode("utf-8"))


def make_sdoc(doc: dict) -> bytes:
    """Serialize a document dict into an %SDOC payload (compact, sorted keys)."""
    return SDOC_MAGIC + json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def stub_detect(
    page: dict, model: str, thresholds: dict[int, float], zoom: float
) -> list[dict]:
    """Deterministic layout 'model': truth regions → detection boxes.

    - labels absent from the model's class set are pruned (17cls: ids 17-22);
    - boxes below the per-class threshold are dropped (a box with score
      exactly at the threshold is kept);
    - coordinates are rescaled from BASE_ZOOM to ``zoom``.
    """
    scale = zoom / BASE_ZOOM
    boxes: list[dict] = []
    for region in page.get("truth_regions", []):
        label = region["label"]
        class_id = LABEL_TO_CLASS_ID.get(label)
        if class_id is None:
            continue
        if class_id not in thresholds:
            continue  # class pruned from this model
        score = float(region["score"])
        if score < thresholds[class_id]:
            continue
        box = {
            "label": label,
            "score": score,
            "coordinate": [float(c) * scale for c in region["coordinate"]],
        }
        if "latex" in region:
            box["latex"] = region["latex"]
        if "cell_boxes" in region:
            box["cell_boxes"] = [[float(v) * scale for v in cb] for cb in region["cell_boxes"]]
        boxes.append(box)
    return boxes


class GlyphIndex:
    """Vectorized per-page text layer: run centers precomputed once, each
    region query is a numpy mask + argsort (the page-local 'text index'
    replacing per-region Python loops over all runs)."""

    def __init__(self, glyph_runs: list[dict], scale: float) -> None:
        import numpy as np

        texts = [r["text"] for r in glyph_runs]
        n = len(glyph_runs)
        self.cx = np.empty(n)
        self.cy = np.empty(n)
        ys = np.empty(n)
        xs = np.empty(n)
        for i, r in enumerate(glyph_runs):
            self.cx[i] = (r["x0"] + r["x1"]) / 2.0 * scale
            self.cy[i] = (r["y0"] + r["y1"]) / 2.0 * scale
            ys[i] = r["y0"]
            xs[i] = r["x0"]
        # reading order of the whole layer: (y0, x0) ascending, stable
        order = np.lexsort((xs, ys))
        self.cx = self.cx[order]
        self.cy = self.cy[order]
        self.texts = [texts[i] for i in order]

    def region_text(self, coordinate) -> str:
        x0, y0, x1, y1 = coordinate
        mask = (self.cx >= x0) & (self.cx <= x1) & (self.cy >= y0) & (self.cy <= y1)
        if not mask.any():
            return ""
        return " ".join(t for t, m in zip(self.texts, mask) if m)


def extract_region_text(glyph_runs: list[dict], coordinate: list, scale: float) -> str:
    """Per-region text: glyph runs whose center falls inside the region box.

    Runs are taken in (y0, x0) ascending order and joined with a single
    space.  This is our deterministic replacement for the text extraction
    the reference delegates to the proprietary PDFix ``AddTags``
    (/root/reference/src/autotag.py:224-260).
    """
    return GlyphIndex(glyph_runs, scale).region_text(coordinate)
