"""FNV-1a 32-bit hashing, bit-compatible with the reference's region-id scheme,
and the murmur3 fmix32 finalizer the library's deterministic hashes chain
after it (scalar ``fmix32`` and numpy ``fmix32_np``; the DuckDB oracles
generate the same steps in ``pipelines/sql_oracles._fmix32_ctes``).

Reference semantics: /root/reference/src/template_json.py:116-144 — the id of a
formula/image region is FNV-1a over the string
``f"{page_number}{type}{int(x0)}{int(y0)}{int(x1)}{int(y1)}"`` with offset basis
0x811C9DC5 and prime 0x1000193, masked to 32 bits at each step.
"""

from __future__ import annotations

import numpy as np

FNV_OFFSET_BASIS = 0x811C9DC5
FNV_PRIME = 0x1000193

# PDFix SDK public enum PdfElementType value for kPdeImage (the `type` fed into
# the region-id hash at /root/reference/src/template_json.py:303). Pinned here as
# a constant so oracle and pipeline agree bit-exactly.
K_PDE_IMAGE = 5


def fnv1a_32(text: str) -> int:
    """32-bit FNV-1a over the ASCII/ordinal values of ``text``."""
    h = FNV_OFFSET_BASIS
    for ch in text:
        h ^= ord(ch)
        h = (h * FNV_PRIME) & 0xFFFFFFFF
    return h


def fmix32(h: int) -> int:
    """murmur3 32-bit finalizer (public domain) of the low 32 bits of ``h``."""
    h &= 0xFFFFFFFF
    h ^= h >> 16
    h = (h * 0x85EBCA6B) & 0xFFFFFFFF
    h ^= h >> 13
    h = (h * 0xC2B2AE35) & 0xFFFFFFFF
    h ^= h >> 16
    return h


def fmix32_np(h: np.ndarray) -> np.ndarray:
    """``fmix32`` over an integer array (values taken mod 2^32), as uint32."""
    h = h.astype(np.uint32, copy=True)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint32(16)
        h *= np.uint32(0x85EBCA6B)
        h ^= h >> np.uint32(13)
        h *= np.uint32(0xC2B2AE35)
        h ^= h >> np.uint32(16)
    return h


def region_unique_id(page_number: int, type_id: int, coordinate: list | tuple) -> int:
    """Region id: FNV-1a of page number, element type and int-truncated coords.

    Mirrors /root/reference/src/template_json.py:116-144 (note ``int()``
    truncation, not rounding, of each coordinate).
    """
    s = f"{page_number}{type_id}"
    for i in range(4):
        s += str(int(coordinate[i]))
    return fnv1a_32(s)
