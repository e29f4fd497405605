"""Per-document keys shared by the stale-crawl dedup and the output layout.

``content_key`` is the dedup tie-breaker between crawls of one url that
share their latest ``warc_ts``; ``size_bucket`` (log2 of payload bytes) is
the partition column of the written docs table and the skew diagnostic per
``north_star``.
"""

from __future__ import annotations

import hashlib


def size_bucket(n_bytes: int) -> int:
    return max(0, n_bytes.bit_length() - 10)  # 0 for <2KiB, then log2 steps


def content_key(html: bytes) -> str:
    """Stable content hash used as the dedup tie-breaker — THE one tie-break
    key for every dedup path (the stale-crawl broadcast, ``stages/dedup``,
    and the golden ``oracle.dedup_latest``).  md5 (not a crypto use — just a
    deterministic total order over payloads) so the DuckDB oracle can
    recompute it with its built-in ``md5()``."""
    return hashlib.md5(html).hexdigest()
