"""Run metrics via groupby-aggregate over partition metrics (north_star:
"groupby-aggregate over partition metrics feeding a throughput report").

Two sources of metrics:
- ``state.manifest.metrics_report``: folded from the per-chunk lineage
  manifests of a resumable run (docs/sec, bytes/sec over the run's wall,
  per-chunk wall);
- ``output_report`` here: a Ray ``groupby(size_bucket).aggregate`` over
  the output docs dataset — per-size-class doc/page/region counts and
  error tallies, computed distributed and returned as one small frame.
"""

from __future__ import annotations

import pandas as pd
import ray.data
from ray.data.aggregate import Count, Max, Sum

from .. import ensure_picklable


def output_report(docs: ray.data.Dataset) -> pd.DataFrame:
    """Per-size-bucket metrics of an extraction output dataset."""
    ensure_picklable()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.assign(is_err=(df["status"] != "ok").astype("int64")).groupby(
            "size_bucket", sort=True
        ).agg(p_docs=("url", "size"), p_pages=("n_pages", "sum"),
              p_regions=("n_regions", "sum"), p_errors=("is_err", "sum"),
              p_max_pages=("n_pages", "max"))
        return g.reset_index()

    agg = (
        docs.map_batches(partial, batch_format="pandas")
        .groupby("size_bucket")
        .aggregate(
            Sum("p_docs", alias_name="docs"),
            Sum("p_pages", alias_name="pages"),
            Sum("p_regions", alias_name="regions"),
            Sum("p_errors", alias_name="errors"),
            Max("p_max_pages", alias_name="max_pages"),
        )
    )
    out = agg.to_pandas().sort_values("size_bucket").reset_index(drop=True)
    for c in ("docs", "pages", "regions", "errors", "max_pages"):
        out[c] = out[c].astype("int64")
    return out
