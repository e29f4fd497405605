"""Resumable execution state: one checkpoint protocol, lineage manifests."""

from .checkpoint import load_manifest
from .manifest import metrics_report, run_resumable

__all__ = ["run_resumable", "load_manifest", "metrics_report"]
