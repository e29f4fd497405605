"""Web-corpus hygiene operators: URL canonicalization + dedup and the
Gopher quality-rule filter.

Real crawl pipelines dedup by *canonical* URL before any content pass —
the same page is crawled as ``http://WWW.Host:80/x?utm_source=…`` and
``https://host/x`` — and gate documents with the published Gopher rules
(Rae et al. 2021, "Scaling Language Models: Methods, Analysis & Insights
from Training Gopher", §A1.1) before expensive stages.  The ``documents``
table has no URL column, so ``url_dedup`` synthesises a deterministic
messy URL per row (five variant shapes exercising every normalization
rule) — the canonicalization KERNEL is the operator under test and the
DuckDB oracle replays both the synthesis and the kernel expression by
expression.

SQL-exactness: outputs are integers and strings only; the one per-row
Python step (``canonicalize_url``) uses precompiled C regexes, the same
precedent as the sha1/fingerprint kernels in ``text_ops``.
"""

from __future__ import annotations

import re

import numpy as np
import pandas as pd
import ray.data

from .. import ensure_picklable
from ..sources.pages import read_table
from .text_ops import STOPWORDS
from .util import colocate, copartition, hash_key

_FRAG_RE = re.compile(r"#.*$")
_URL_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.\-]*)://([^/?]*)([^?]*)(?:\?(.*))?$")


def canonicalize_url(url: str) -> str:
    """Canonical form: lowercase scheme+host, drop the scheme's default
    port, strip one leading ``www.``, strip trailing slashes, drop the
    fragment, drop ``utm_*`` params, sort the surviving query params.
    Non-URL strings pass through unchanged (crawl manifests carry junk)."""
    url = _FRAG_RE.sub("", url)
    m = _URL_RE.match(url)
    if m is None:
        return url
    scheme = m.group(1).lower()
    host = m.group(2).lower()
    path = m.group(3).rstrip("/")
    query = m.group(4)
    default = ":443" if scheme == "https" else (":80" if scheme == "http" else None)
    if default and host.endswith(default):
        host = host[: -len(default)]
    if host.startswith("www."):
        host = host[4:]
    out = f"{scheme}://{host}{path}"
    if query:
        params = sorted(p for p in query.split("&") if p and not p.startswith("utm_"))
        if params:
            out += "?" + "&".join(params)
    return out


def _synth_url(doc_id: int, source: str) -> str:
    """Deterministic messy URL per row — five shapes keyed by doc_id % 5,
    path keyed by doc_id % 7 so distinct docs collide post-canonically."""
    hp = f"{source}.example.com/p/{doc_id % 7}"
    v = doc_id % 5
    if v == 0:
        return f"https://{hp}"
    if v == 1:
        return f"HTTPS://{source.upper()}.EXAMPLE.COM/p/{doc_id % 7}/"
    if v == 2:
        return f"https://www.{source}.example.com:443/p/{doc_id % 7}"
    if v == 3:
        return f"https://{hp}?utm_source=feed&b=2&a=1"
    return f"https://{hp}?b=2&a=1#frag"


_SYNTH_URL_SQL = (
    "CASE doc_id % 5 "
    "WHEN 0 THEN 'https://' || source || '.example.com/p/' || CAST(doc_id % 7 AS VARCHAR) "
    "WHEN 1 THEN 'HTTPS://' || upper(source) || '.EXAMPLE.COM/p/' "
    "|| CAST(doc_id % 7 AS VARCHAR) || '/' "
    "WHEN 2 THEN 'https://www.' || source || '.example.com:443/p/' "
    "|| CAST(doc_id % 7 AS VARCHAR) "
    "WHEN 3 THEN 'https://' || source || '.example.com/p/' "
    "|| CAST(doc_id % 7 AS VARCHAR) || '?utm_source=feed&b=2&a=1' "
    "ELSE 'https://' || source || '.example.com/p/' "
    "|| CAST(doc_id % 7 AS VARCHAR) || '?b=2&a=1#frag' END"
)


def url_dedup(sf_dir: str) -> ray.data.Dataset:
    """Canonical-URL dedup: canonicalize, keep the min doc_id per canonical
    URL, count the collapsed duplicates.

    Scale design: the canonical URL is the shuffle key (uniform post-hash,
    like a content sha); a per-batch combiner pre-aggregates (url, min_id,
    count) so the one grouped exchange moves at most one row per distinct
    URL per block; the in-block fold is a vectorized pandas groupby (no
    per-group dispatch — groups ≈ distinct URLs ≈ corpus-sized).
    Output: (url, doc_id, n_dups)."""
    ensure_picklable()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "url": pd.Series([], dtype="object"),
                    "doc_id": pd.Series([], dtype="int64"),
                    "n": pd.Series([], dtype="int64"),
                }
            )
        ids = df["doc_id"].to_numpy().astype(np.int64)
        canon = pd.Series(
            [
                canonicalize_url(_synth_url(int(i), s))
                for i, s in zip(ids, df["source"])
            ]
        )
        part = pd.DataFrame({"url": canon, "doc_id": ids, "n": np.int64(1)})
        g = part.groupby("url", sort=False).agg(
            doc_id=("doc_id", "min"), n=("n", "sum")
        )
        return g.reset_index()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "url": pd.Series([], dtype="object"),
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_dups": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby("url", sort=False).agg(doc_id=("doc_id", "min"), n=("n", "sum"))
        g = g.reset_index()
        return pd.DataFrame(
            {
                "url": g["url"],
                "doc_id": g["doc_id"].astype("int64"),
                "n_dups": g["n"].astype("int64"),
            }
        )

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    ds = ds.map_batches(partial, batch_format="pandas")
    # sort by EXACTLY the group key: the colocation invariant (util.py)
    # puts every url's partials in one block for the vectorized fold
    return colocate(ds, ["url"], fold)


# canonicalization CTE chain raw(doc_id, url) -> canon(doc_id, url),
# shared by sql_url_dedup and sql_bloom_screen
_SQL_CANON_CTES = (
    "nf AS (SELECT doc_id, regexp_replace(url, '#.*$', '') AS u FROM raw), "
        "parts AS (SELECT doc_id, "
        "lower(regexp_extract(u, '^([A-Za-z][A-Za-z0-9+.-]*)://', 1)) AS scheme, "
        "lower(regexp_extract(u, '^[A-Za-z][A-Za-z0-9+.-]*://([^/?]*)', 1)) AS host0, "
        r"regexp_replace(regexp_extract(u, '^[A-Za-z][A-Za-z0-9+.-]*://[^/?]*([^?]*)', 1), "
        "'/+$', '') AS path, "
        r"CASE WHEN contains(u, '?') THEN regexp_extract(u, '\?(.*)$', 1) "
        "ELSE NULL END AS query FROM nf), "
        "hostfix AS (SELECT doc_id, scheme, path, query, "
        r"regexp_replace(CASE "
        "WHEN scheme = 'https' AND host0 LIKE '%:443' THEN left(host0, len(host0) - 4) "
        "WHEN scheme = 'http' AND host0 LIKE '%:80' THEN left(host0, len(host0) - 3) "
        r"ELSE host0 END, '^www\.', '') AS host FROM parts), "
        "canon AS (SELECT doc_id, scheme || '://' || host || path || "
        "CASE WHEN query IS NOT NULL AND len(list_filter(string_split(query, '&'), "
        "p -> p <> '' AND NOT starts_with(p, 'utm_'))) > 0 "
        "THEN '?' || array_to_string(list_sort(list_filter(string_split(query, '&'), "
        "p -> p <> '' AND NOT starts_with(p, 'utm_'))), '&') ELSE '' END AS url "
        "FROM hostfix)"
)


def sql_url_dedup() -> str:
    return (
        f"WITH raw AS (SELECT doc_id, {_SYNTH_URL_SQL} AS url FROM documents), "
        f"{_SQL_CANON_CTES} "
        "SELECT url, CAST(MIN(doc_id) AS BIGINT) AS doc_id, "
        "CAST(COUNT(*) AS BIGINT) AS n_dups FROM canon GROUP BY url"
    )


# --- Gopher quality rules -------------------------------------------------

_GOPHER_MIN_WORDS = 30
_GOPHER_MAX_WORDS = 90
_GOPHER_MIN_MWL = 3000  # mean word length bounds, milli-chars
_GOPHER_MAX_MWL = 10000
_GOPHER_MIN_STOP_KINDS = 2
_GOPHER_MAX_SYM_MILLI = 100
_GOPHER_MIN_ALPHA_MILLI = 800


def gopher_filter(sf_dir: str) -> ray.data.Dataset:
    """Gopher quality rules (Rae et al. 2021 §A1.1), integer-exact.

    Per doc: word count bounds, mean word length bounds (milli-chars,
    integer division), ≥2 distinct stopwords present (the repo's en
    stopword list standing in for Gopher's 8-word list — this corpus'
    vocabulary contains only 'the'/'a'/'and' of either), symbol ratio and
    alphabetic-word ratio (both in integer milli-units).  Stateless,
    fully vectorized, no exchange.  Output: (doc_id, n_words, mwl_milli,
    n_stop_kinds, sym_milli, alpha_milli, keep)."""
    ensure_picklable()
    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        gopher_scores, batch_format="pandas"
    )


def gopher_scores(df: pd.DataFrame) -> pd.DataFrame:
    """Module-level Gopher scorer (shared with ``sampling.corpus_curate``)."""
    stops = STOPWORDS["en"]
    if len(df):
        text = df["text"]
        n_words = text.str.count(r"\S+").astype("int64")
        word_chars = (
            text.str.replace(r"\s", "", regex=True).str.len().astype("int64")
        )
        n_stop_kinds = sum(
            text.str.contains(rf"\b{w}\b", regex=True).astype("int64") for w in stops
        )
        n_sym = text.str.count(r"[^A-Za-z0-9\s]").astype("int64")
        n_chars = text.str.len().astype("int64")
        n_alpha_words = text.str.count(r"\S*[A-Za-z]\S*").astype("int64")
        nw = n_words.to_numpy()
        safe_w = np.maximum(nw, 1)
        mwl = word_chars.to_numpy() * 1000 // safe_w
        mwl = np.where(nw > 0, mwl, 0)
        sym = n_sym.to_numpy() * 1000 // np.maximum(n_chars.to_numpy(), 1)
        alpha = n_alpha_words.to_numpy() * 1000 // safe_w
        alpha = np.where(nw > 0, alpha, 0)
        keep = (
            (nw >= _GOPHER_MIN_WORDS)
            & (nw <= _GOPHER_MAX_WORDS)
            & (mwl >= _GOPHER_MIN_MWL)
            & (mwl <= _GOPHER_MAX_MWL)
            & (n_stop_kinds.to_numpy() >= _GOPHER_MIN_STOP_KINDS)
            & (sym <= _GOPHER_MAX_SYM_MILLI)
            & (alpha >= _GOPHER_MIN_ALPHA_MILLI)
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_words": n_words,
                "mwl_milli": mwl.astype("int64"),
                "n_stop_kinds": n_stop_kinds.astype("int64"),
                "sym_milli": sym.astype("int64"),
                "alpha_milli": alpha.astype("int64"),
                "keep": keep.astype("int64"),
            }
        )
    cols = ["doc_id", "n_words", "mwl_milli", "n_stop_kinds", "sym_milli",
            "alpha_milli", "keep"]
    return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})


def sql_gopher_filter() -> str:
    stop_sum = " + ".join(
        rf"CASE WHEN regexp_matches(text, '\b{w}\b') THEN 1 ELSE 0 END"
        for w in STOPWORDS["en"]
    )
    return (
        "WITH m AS (SELECT doc_id, "
        r"CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_words, "
        r"CAST(length(regexp_replace(text, '\s', '', 'g')) AS BIGINT) AS word_chars, "
        f"CAST({stop_sum} AS BIGINT) AS n_stop_kinds, "
        r"CAST(len(regexp_extract_all(text, '[^A-Za-z0-9\s]')) AS BIGINT) AS n_sym, "
        "CAST(length(text) AS BIGINT) AS n_chars, "
        r"CAST(len(regexp_extract_all(text, '\S*[A-Za-z]\S*')) AS BIGINT) "
        "AS n_alpha_words FROM documents) "
        "SELECT doc_id, n_words, "
        "CASE WHEN n_words > 0 THEN word_chars * 1000 // n_words ELSE 0 END AS mwl_milli, "
        "n_stop_kinds, "
        "n_sym * 1000 // greatest(n_chars, 1) AS sym_milli, "
        "CASE WHEN n_words > 0 THEN n_alpha_words * 1000 // n_words ELSE 0 END "
        "AS alpha_milli, "
        f"CAST(CASE WHEN n_words >= {_GOPHER_MIN_WORDS} AND n_words <= {_GOPHER_MAX_WORDS} "
        f"AND word_chars * 1000 // greatest(n_words, 1) BETWEEN {_GOPHER_MIN_MWL} AND {_GOPHER_MAX_MWL} "
        f"AND n_stop_kinds >= {_GOPHER_MIN_STOP_KINDS} "
        f"AND n_sym * 1000 // greatest(n_chars, 1) <= {_GOPHER_MAX_SYM_MILLI} "
        f"AND n_alpha_words * 1000 // greatest(n_words, 1) >= {_GOPHER_MIN_ALPHA_MILLI} "
        "AND n_words > 0 THEN 1 ELSE 0 END AS BIGINT) AS keep FROM m"
    )


# --- link-graph construction ----------------------------------------------

# The documents table carries no raw HTML, so the page is synthesised
# deterministically (same precedent as url_dedup's messy URLs): boilerplate
# nav with relative links, the document text verbatim inside <article>, and
# 1 + doc_id % 3 absolute cross-host anchors.  The operator under test is
# the EXTRACTION + AGGREGATION: vectorized href scan over the HTML string,
# relative-link resolution against the page's own host, and the combiner-fed
# (src_host, dst_host) edge aggregate — the link-graph construction step
# that feeds ``analytics.pagerank`` in a real crawl pipeline.
_PAGE_HEAD = (
    '<html><head><title>d</title></head><body>'
    '<nav><a href="/">home</a> <a href="/about">about</a></nav><article>'
)
_PAGE_MID = "</article>"
_PAGE_TAIL = "<footer>f</footer></body></html>"
_HREF_RE = re.compile(r'href="([^"]*)"')
_HOST_RE = re.compile(r"^https?://([^/]+)")
_N_SOURCES = 20  # documents.source ∈ {src0..src19} (TESTDATA.md)


def _synth_links(doc_id: int) -> str:
    return "".join(
        f'<p><a href="https://src{(doc_id + 1 + j) % _N_SOURCES}.example.com'
        f'/d/{doc_id % 97}">l{j}</a></p>'
        for j in range(1 + doc_id % 3)
    )


def link_graph(sf_dir: str) -> ray.data.Dataset:
    """Host-level link graph from raw HTML: extract every ``href``, resolve
    relative links to the page's own host, aggregate (src_host, dst_host)
    edge counts.

    Scale design: extraction is a single vectorized ``str.extractall`` per
    batch (no per-row Python on the scan); a per-batch combiner collapses
    to at most one row per distinct edge per block before the one grouped
    exchange keyed on the edge (hosts are the natural shuffle key of a
    crawl — post-hash uniform, hot hosts pre-reduced by the combiner); the
    in-block fold is one vectorized groupby (colocation invariant,
    ``util.py``).  Output: (src_host, dst_host, n_links)."""
    ensure_picklable()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "src_host": pd.Series([], dtype="object"),
                "dst_host": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.reset_index(drop=True)
        ids = df["doc_id"].to_numpy().astype(np.int64)
        links = pd.Series([_synth_links(int(i)) for i in ids])
        html = _PAGE_HEAD + df["text"].astype(str) + _PAGE_MID + links + _PAGE_TAIL
        m = html.str.extractall(_HREF_RE)
        if len(m) == 0:
            return empty
        hrefs = m[0]
        rows = m.index.get_level_values(0).to_numpy()
        src = (df["source"] + ".example.com").to_numpy(dtype=object)[rows]
        rel = hrefs.str.startswith("/").to_numpy()
        host = hrefs.str.extract(_HOST_RE, expand=False).to_numpy(dtype=object)
        part = pd.DataFrame(
            {
                "src_host": src,
                "dst_host": np.where(rel, src, host),
                "n": np.int64(1),
            }
        )
        g = part.groupby(["src_host", "dst_host"], sort=False)["n"].sum()
        return g.reset_index()

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "src_host": pd.Series([], dtype="object"),
                    "dst_host": pd.Series([], dtype="object"),
                    "n_links": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby(["src_host", "dst_host"], sort=False)["n"].sum()
        g = g.reset_index()
        return pd.DataFrame(
            {
                "src_host": g["src_host"],
                "dst_host": g["dst_host"],
                "n_links": g["n"].astype("int64"),
            }
        )

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])
    ds = ds.map_batches(partial, batch_format="pandas")
    # sort by EXACTLY the group key (colocation invariant, util.py)
    return colocate(ds, ["src_host", "dst_host"], fold)


def sql_link_graph() -> str:
    link_cases = " || ".join(
        f"CASE WHEN doc_id % 3 >= {j} THEN "
        f"'<p><a href=\"https://src' || CAST((doc_id + 1 + {j}) % {_N_SOURCES} AS VARCHAR) "
        f"|| '.example.com/d/' || CAST(doc_id % 97 AS VARCHAR) || '\">l{j}</a></p>' "
        "ELSE '' END"
        for j in range(3)
    )
    return (
        f"WITH l AS (SELECT source, '{_PAGE_HEAD}' || text || '{_PAGE_MID}' || "
        f"{link_cases} || '{_PAGE_TAIL}' AS html FROM documents), "
        "h AS (SELECT source, unnest(regexp_extract_all(html, 'href=\"([^\"]*)\"', 1)) "
        "AS href FROM l), "
        "e AS (SELECT source || '.example.com' AS src_host, "
        "CASE WHEN starts_with(href, '/') THEN source || '.example.com' "
        "ELSE regexp_extract(href, '^https?://([^/]+)', 1) END AS dst_host FROM h) "
        "SELECT src_host, dst_host, CAST(COUNT(*) AS BIGINT) AS n_links "
        "FROM e GROUP BY src_host, dst_host"
    )


# --- within-document line dedup --------------------------------------------

# The synthetic documents have no repeated lines, so the op would never
# bind; a deterministic cookie-banner augmentation (same precedent as
# pii_redact's pii_augment) plants 1 + doc_id % 3 leading copies plus one
# trailing copy of the banner, guaranteeing ≥1 drop per doc while the
# oracle replays the augmentation expression by expression.
_BANNER = "Accept cookies to continue"


def _augment_lines(doc_id: int, text: str) -> str:
    return (_BANNER + "\n") * (1 + doc_id % 3) + text + "\n" + _BANNER


def line_dedup(sf_dir: str) -> ray.data.Dataset:
    """Within-doc line dedup: keep the FIRST occurrence of each line,
    preserving order — the standard web-text cleanup for boilerplate lines
    repeated inside one page (cookie banners, nav crumbs).

    Scale design: pure per-row map — no exchange, no state, stable under
    any parallelism or resume boundary; the per-document dedup is C-speed
    ``dict.fromkeys`` (the document is the correct unit of work here, same
    precedent as the flagship's per-doc assembly).  Output: (doc_id, text,
    n_lines, n_dropped)."""
    ensure_picklable()

    def run(df: pd.DataFrame) -> pd.DataFrame:
        texts, n_lines, n_dropped = [], [], []
        for doc_id, text in zip(df["doc_id"], df["text"]):
            parts = _augment_lines(int(doc_id), text).split("\n")
            kept = list(dict.fromkeys(parts))
            texts.append("\n".join(kept))
            n_lines.append(len(parts))
            n_dropped.append(len(parts) - len(kept))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "text": texts,
                "n_lines": pd.array(n_lines, dtype="int64"),
                "n_dropped": pd.array(n_dropped, dtype="int64"),
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        run, batch_format="pandas"
    )


def sql_line_dedup() -> str:
    keep = "list_filter(parts, (x, i) -> list_position(parts, x) = i)"
    aug = (
        f"repeat('{_BANNER}' || chr(10), 1 + doc_id % 3) || text || "
        f"chr(10) || '{_BANNER}'"
    )
    return (
        f"WITH p AS (SELECT doc_id, string_split({aug}, chr(10)) AS parts "
        "FROM documents) "
        f"SELECT doc_id, array_to_string({keep}, chr(10)) AS text, "
        "CAST(len(parts) AS BIGINT) AS n_lines, "
        f"CAST(len(parts) - len({keep}) AS BIGINT) AS n_dropped FROM p"
    )


# --- Bloom-filter URL-seen screen ------------------------------------------

# Incremental-crawl membership, the way a 10^12-url frontier actually runs
# it: a fixed-size Bloom filter of the EXISTING crawl's canonical urls
# broadcasts to every worker; a Bloom MISS proves the url unseen (zero
# exchange for the typically-dominant novel stream), and only Bloom
# positives pay the exact-verify grouped join.  Same architecture as the
# flagship's stale-filter Bloom route (functions/bloom.py, SURVEY §3.4),
# but keyed on fnv1a32∘fmix32 double hashing so the DuckDB oracle replays
# the BITMAP itself — probe positions, membership, and the exact check are
# all recomputed in SQL, making the screen's no-false-negative guarantee a
# tested cross-engine property rather than a code comment.

_BLOOM_M_BITS = 1 << 17  # power of two; ~280 set bits at gate scale
_BLOOM_K = 4
_GOLDEN32 = 0x9E3779B9


def _bloom_h12(urls: "pd.Series") -> tuple[np.ndarray, np.ndarray]:
    """(h1, h2) per url: fnv1a32 → fmix32 chain, h2 forced odd — the same
    double-hashing shape as functions/bloom.py but in SQL-replayable
    32-bit arithmetic (pipelines/sql_oracles.py generates fmix32)."""
    from ..functions.fnv import fmix32, fnv1a_32

    h1 = np.fromiter(
        (fmix32(fnv1a_32(u)) for u in urls), dtype=np.int64, count=len(urls)
    )
    h2 = np.fromiter(
        (fmix32(int(h) ^ _GOLDEN32) | 1 for h in h1), dtype=np.int64, count=len(h1)
    )
    return h1, h2


def _bloom_positions(h1: np.ndarray, h2: np.ndarray, m: int) -> np.ndarray:
    """(n, k) probe positions: (h1 + i*h2) mod m, plain int64 math."""
    steps = np.arange(_BLOOM_K, dtype=np.int64)
    return (h1[:, None] + steps[None, :] * h2[:, None]) % m


def bloom_screen(sf_dir: str, *, m_bits: int | None = None) -> ray.data.Dataset:
    """Bloom screen of the 'new crawl' (upper doc_id half) against the
    'existing corpus' (lower half), keyed on canonical URL; Bloom
    positives exact-verified.  Output per new doc:
    (doc_id, url, maybe_seen, is_seen) — is_seen exact, and
    maybe_seen >= is_seen ALWAYS (no false negatives; false positives
    show as maybe_seen=1, is_seen=0).

    Scale design: build = per-batch distinct probe positions → one
    grouped dedup exchange BOUNDED BY m (never by corpus size) → the
    ≤ m-bit bitmap broadcasts once via ray.put; screen = pure map over
    the new half; exact verify = one co-partitioned join on the url's
    hash (``util.copartition``) that carries ONLY Bloom-positive new rows
    plus per-batch-distinct existing urls, matched on the url itself — the
    novel-url stream (the big one on a real frontier) never exchanges."""
    ensure_picklable()
    import ray

    from .util import grouped_block_dedup

    m = _BLOOM_M_BITS if m_bits is None else m_bits

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    lo, hi = ds.min("doc_id"), ds.max("doc_id")
    split = (lo + hi + 1) // 2

    def canon_rows(df: pd.DataFrame) -> pd.DataFrame:
        # every third NEW doc gets a structurally novel url (unique path)
        # so both screen outcomes occur: the url_dedup synthesis alone
        # spans the same 140 canonical urls in both halves
        urls = pd.Series(
            [
                f"https://novel.example.com/p/{i}"
                if (i >= split and i % 3 == 0)
                else canonicalize_url(_synth_url(int(i), s))
                for i, s in zip(df["doc_id"].astype("int64"), df["source"])
            ],
            dtype=object,
        )
        return pd.DataFrame(
            {"doc_id": df["doc_id"].astype("int64"), "url": urls}
        )

    canon = ds.map_batches(canon_rows, batch_format="pandas")

    def existing_positions(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["doc_id"] < split]
        if len(d) == 0:
            return pd.DataFrame({"pos": pd.Series([], dtype="int64")})
        h1, h2 = _bloom_h12(d["url"])
        pos = np.unique(_bloom_positions(h1, h2, m))
        return pd.DataFrame({"pos": pos.astype("int64")})

    # exchange bounded by m rows total, regardless of corpus size
    pos_ds = grouped_block_dedup(
        canon.map_batches(existing_positions, batch_format="pandas"), ["pos"]
    )
    bits = np.zeros(m, dtype=bool)
    pos = pos_ds.to_pandas()["pos"].to_numpy()  # ≤ m ints by construction
    bits[pos] = True
    bits_ref = ray.put(bits)

    def screen(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["doc_id"] >= split]
        if len(d) == 0:
            return pd.DataFrame(
                {"doc_id": pd.Series([], dtype="int64"),
                 "url": pd.Series([], dtype=object),
                 "maybe_seen": pd.Series([], dtype="int64")}
            )
        b = ray.get(bits_ref)
        h1, h2 = _bloom_h12(d["url"])
        hit = b[_bloom_positions(h1, h2, m)].all(axis=1)
        return pd.DataFrame(
            {"doc_id": d["doc_id"].to_numpy(),
             "url": d["url"].to_numpy(object),
             "maybe_seen": hit.astype("int64")}
        )

    screened = canon.map_batches(screen, batch_format="pandas").materialize()

    # exact verify: Bloom-positive new rows ⋈ per-batch-distinct existing urls
    def existing_urls(df: pd.DataFrame) -> pd.DataFrame:
        urls = df.loc[df["doc_id"] < split, "url"].unique()
        return pd.DataFrame({"h": hash_key(urls), "url": urls})

    def positives(df: pd.DataFrame) -> pd.DataFrame:
        d = df[df["maybe_seen"] == 1]
        return d.assign(h=hash_key(d["url"]))

    def verify(p: dict) -> pd.DataFrame:
        new = p["new"]
        return new[["doc_id", "url", "maybe_seen"]].assign(
            is_seen=new["url"].isin(p["old"]["url"]).to_numpy("int64")
        )

    verified = copartition(
        {
            "new": (screened.map_batches(positives, batch_format="pandas"), ["h"],
                    {"h": "uint64", "doc_id": "int64", "url": "object",
                     "maybe_seen": "int64"}),
            "old": (canon.map_batches(existing_urls, batch_format="pandas"), ["h"],
                    {"h": "uint64", "url": "object"}),
        },
        verify,
    )

    # Bloom misses are PROVEN unseen: no exchange, is_seen = 0
    misses = screened.map_batches(
        lambda df: df[df["maybe_seen"] == 0].assign(is_seen=np.int64(0)),
        batch_format="pandas",
    )
    return verified.union(misses)


def sql_bloom_screen(m_bits: int | None = None) -> str:
    from .sql_oracles import _fmix32_ctes, sql_fnv1a32

    m = _BLOOM_M_BITS if m_bits is None else m_bits
    k = _BLOOM_K
    mix1, end1 = _fmix32_ctes("bm1", "bf", ["doc_id", "url"], "hin", "h1")
    mix2, end2 = _fmix32_ctes(
        "bm2", "bx", ["doc_id", "url", "h1"], "hin2", "h2raw"
    )
    return (
        f"WITH raw AS (SELECT doc_id, {_SYNTH_URL_SQL} AS url FROM documents), "
        f"{_SQL_CANON_CTES}, "
        "s AS (SELECT (MIN(doc_id) + MAX(doc_id) + 1) // 2 AS sp FROM documents), "
        # every third new doc gets a structurally novel url (matches the
        # Ray-side synthesis) so both screen outcomes occur
        "key AS (SELECT c.doc_id, CASE WHEN c.doc_id >= s.sp AND c.doc_id % 3 = 0 "
        "THEN 'https://novel.example.com/p/' || CAST(c.doc_id AS VARCHAR) "
        "ELSE c.url END AS url FROM canon c, s), "
        f"bf AS (SELECT doc_id, url, {sql_fnv1a32('url')} AS hin FROM key), "
        f"{mix1}, "
        f"bx AS (SELECT doc_id, url, h1, xor(h1, {_GOLDEN32}) AS hin2 FROM {end1}), "
        f"{mix2}, "
        "hh AS (SELECT doc_id, url, h1, "
        f"CASE WHEN h2raw % 2 = 0 THEN h2raw + 1 ELSE h2raw END AS h2 FROM {end2}), "
        f"probes AS (SELECT doc_id, url, (h1 + u.i * h2) % {m} AS pos "
        f"FROM hh, unnest(range(0, {k})) AS u(i)), "
        "bits AS (SELECT DISTINCT pos FROM probes, s WHERE doc_id < sp), "
        "newscreen AS (SELECT doc_id, url, "
        "CAST(CASE WHEN SUM(CASE WHEN pos IN (SELECT pos FROM bits) THEN 1 "
        f"ELSE 0 END) = {k} THEN 1 ELSE 0 END AS BIGINT) AS maybe_seen "
        "FROM probes, s WHERE doc_id >= sp GROUP BY doc_id, url), "
        "seen AS (SELECT DISTINCT url FROM key, s WHERE doc_id < sp) "
        "SELECT n.doc_id, n.url, n.maybe_seen, "
        "CAST(CASE WHEN n.url IN (SELECT url FROM seen) THEN 1 ELSE 0 END "
        "AS BIGINT) AS is_seen FROM newscreen n"
    )


# --- anchor-text aggregation -------------------------------------------------

_ANCHOR_RE = re.compile(r'<a href="([^"]*)"[^>]*>([^<]*)</a>')


def anchor_stats(sf_dir: str) -> ray.data.Dataset:
    """Per destination host: inbound-link count, distinct linking hosts,
    and the most common anchor text (the classic anchor-text signal used
    for page/host quality and retrieval — e.g. Craswell et al. 2001).

    Reuses ``link_graph``'s deterministic page synthesis; extraction is a
    single vectorized ``extractall`` of (href, anchor) pairs per batch.

    Scale design: the per-batch combiner collapses to one row per distinct
    (dst_host, src_host, anchor) per block before the one grouped exchange
    keyed on dst_host; the in-block fold computes all three aggregates.
    The triple cardinality is bounded by hosts x hosts x distinct-anchors
    — on a real crawl anchor text is capped/normalized upstream (the
    Gopher-style cleanups in this module), and a hot dst_host's group is
    combiner-pre-reduced so its block holds distinct triples, not raw
    links.  Output: (dst_host, n_inlinks, n_src_hosts, top_anchor)."""
    from .util import grouped_block_map

    ensure_picklable()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "dst_host": pd.Series([], dtype="object"),
                "src_host": pd.Series([], dtype="object"),
                "anchor": pd.Series([], dtype="object"),
                "n": pd.Series([], dtype="int64"),
            }
        )
        if len(df) == 0:
            return empty
        df = df.reset_index(drop=True)
        ids = df["doc_id"].to_numpy().astype(np.int64)
        links = pd.Series([_synth_links(int(i)) for i in ids])
        html = _PAGE_HEAD + df["text"].astype(str) + _PAGE_MID + links + _PAGE_TAIL
        m = html.str.extractall(_ANCHOR_RE)
        if len(m) == 0:
            return empty
        hrefs, anchors = m[0], m[1]
        rows = m.index.get_level_values(0).to_numpy()
        src = (df["source"] + ".example.com").to_numpy(dtype=object)[rows]
        rel = hrefs.str.startswith("/").to_numpy()
        host = hrefs.str.extract(_HOST_RE, expand=False).to_numpy(dtype=object)
        part = pd.DataFrame(
            {
                "dst_host": np.where(rel, src, host),
                "src_host": src,
                "anchor": anchors.to_numpy(dtype=object),
                "n": np.int64(1),
            }
        )
        g = part.groupby(["dst_host", "src_host", "anchor"], sort=False)["n"].sum()
        return g.reset_index()

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])
    ds = ds.map_batches(partial, batch_format="pandas")

    def fold(g: pd.DataFrame) -> pd.DataFrame:
        n_inlinks = int(g["n"].sum())
        n_src = int(g["src_host"].nunique())
        by_anchor = g.groupby("anchor", sort=False)["n"].sum().reset_index()
        by_anchor = by_anchor.sort_values(
            ["n", "anchor"], ascending=[False, True], kind="mergesort"
        )
        return pd.DataFrame(
            {
                "dst_host": [g["dst_host"].iloc[0]],
                "n_inlinks": pd.array([n_inlinks], dtype="int64"),
                "n_src_hosts": pd.array([n_src], dtype="int64"),
                "top_anchor": [by_anchor["anchor"].iloc[0]],
            }
        )

    return grouped_block_map(ds, ["dst_host"], fold)


def sql_anchor_stats() -> str:
    link_cases = " || ".join(
        f"CASE WHEN doc_id % 3 >= {j} THEN "
        f"'<p><a href=\"https://src' || CAST((doc_id + 1 + {j}) % {_N_SOURCES} AS VARCHAR) "
        f"|| '.example.com/d/' || CAST(doc_id % 97 AS VARCHAR) || '\">l{j}</a></p>' "
        "ELSE '' END"
        for j in range(3)
    )
    pat = '<a href="([^"]*)"[^>]*>([^<]*)</a>'
    return (
        f"WITH l AS (SELECT source, '{_PAGE_HEAD}' || text || '{_PAGE_MID}' || "
        f"{link_cases} || '{_PAGE_TAIL}' AS html FROM documents), "
        f"m AS (SELECT source, unnest(regexp_extract_all(html, '{pat}', 1)) "
        f"AS href, unnest(regexp_extract_all(html, '{pat}', 2)) AS anchor FROM l), "
        "e AS (SELECT CASE WHEN starts_with(href, '/') THEN source || '.example.com' "
        "ELSE regexp_extract(href, '^https?://([^/]+)', 1) END AS dst_host, "
        "source || '.example.com' AS src_host, anchor FROM m), "
        "agg AS (SELECT dst_host, CAST(COUNT(*) AS BIGINT) AS n_inlinks, "
        "CAST(COUNT(DISTINCT src_host) AS BIGINT) AS n_src_hosts "
        "FROM e GROUP BY dst_host), "
        "ac AS (SELECT dst_host, anchor, COUNT(*) AS cnt FROM e "
        "GROUP BY dst_host, anchor), "
        "top AS (SELECT dst_host, anchor AS top_anchor, row_number() OVER ("
        "PARTITION BY dst_host ORDER BY cnt DESC, anchor) AS rn FROM ac) "
        "SELECT a.dst_host, a.n_inlinks, a.n_src_hosts, t.top_anchor "
        "FROM agg a JOIN top t ON a.dst_host = t.dst_host AND t.rn = 1"
    )


# ---------------------------------------------------------------------------
# WARC ingestion (round 4) — the wire format crawls actually arrive in
# ---------------------------------------------------------------------------


def warc_extract(sf_dir: str) -> ray.data.Dataset:
    """Ingest the corpus from WARC archives — Common Crawl's wire format —
    and prove the parse against the parquet ground truth.

    The fixture renders the flagship pages corpus to one ``.warc`` per
    shard (``sources/warc.py``); this op reads the archives with Ray
    (one read task per archive → the parse is as wide as the corpus has
    files, zero exchange) and emits per-record (url, warc_date, n_bytes,
    payload_md5).  The DuckDB oracle computes the same projection from
    the parquet shards the archives were rendered from, so a hash match
    proves length-framed parsing recovered every record byte-exactly."""
    ensure_picklable()
    from ..sources.warc import read_warc, warc_path_for

    return read_warc(warc_path_for(sf_dir))


def warc_extract_gz(sf_dir: str) -> ray.data.Dataset:
    """``warc_extract`` over PER-RECORD GZIP MEMBERS — the framing real
    Common-Crawl WARCs ship with (one gzip stream per record, concatenated
    so a single ranged read serves any record).  Same reader topology
    (one read task per archive, zero exchange); the parser walks member
    boundaries via zlib ``unused_data`` instead of Content-Length.  The
    SAME byte-exact DuckDB oracle as the plain-framing op proves the
    decompress+parse recovered every record (url, date, payload md5)."""
    ensure_picklable()
    from ..sources.warc import read_warc, warc_gz_path_for

    return read_warc(warc_gz_path_for(sf_dir))


def sql_warc_extract(pages_glob: str) -> str:
    # html is valid utf-8 by construction (corpus.py / flagship.py), so
    # md5(decode(blob)) hashes exactly the payload bytes on disk
    return (
        "SELECT url, strftime(warc_ts, '%Y-%m-%dT%H:%M:%SZ') AS warc_date, "
        "CAST(octet_length(html) AS BIGINT) AS n_bytes, "
        "md5(decode(html)) AS payload_md5 "
        f"FROM read_parquet('{pages_glob}')"
    )


# ---------------------------------------------------------------------------
# Robots-exclusion screen (round 4) — crawl compliance before fetch
# ---------------------------------------------------------------------------


def robots_filter(sf_dir: str) -> ray.data.Dataset:
    """Robots-exclusion compliance screen over the crawl frontier — the
    filter every polite crawler applies before fetching.

    The per-host rule table is synthesized deterministically (a
    (host, first-path-segment) pair is disallowed iff
    fnv1a_32(host + '|' + seg) % 4 == 0 — ~25% of pairs, so the op
    provably binds), standing in for parsed robots.txt records exactly as
    the stubbed decoders stand in for codecs: the operator under test is
    the vectorized url → (host, seg) parse + memoized rule lookup.  Zero
    exchange; only the url column leaves storage (pruned read).  Output:
    (url, host, seg, allowed)."""
    ensure_picklable()
    from ..functions.fnv import fnv1a_32
    from .flagship import pages_path_for

    def screen(df: pd.DataFrame) -> pd.DataFrame:
        host = df["url"].str.extract(r"^[a-z]+://([^/]+)", expand=False).fillna("")
        seg = df["url"].str.extract(
            r"^[a-z]+://[^/]+/([^/?#]*)", expand=False
        ).fillna("")
        key = host + "|" + seg
        # rule lookup memoized per distinct (host, seg) — the parsed
        # robots table a real crawler would hold per actor
        rules = {k: int(fnv1a_32(k) % 4 != 0) for k in key.unique()}
        return pd.DataFrame(
            {"url": df["url"], "host": host, "seg": seg,
             "allowed": key.map(rules).astype("int64")}
        )

    path = pages_path_for(sf_dir)
    return ray.data.read_parquet(path, columns=["url"]).map_batches(
        screen, batch_format="pandas"
    )


def sql_robots_filter(pages_glob: str) -> str:
    from .sql_oracles import sql_fnv1a32

    fnv = sql_fnv1a32("host || '|' || seg")
    return (
        "WITH u AS (SELECT url, "
        "regexp_extract(url, '^[a-z]+://([^/]+)', 1) AS host, "
        "regexp_extract(url, '^[a-z]+://[^/]+/([^/?#]*)', 1) AS seg "
        f"FROM read_parquet('{pages_glob}')) "
        f"SELECT url, host, seg, CAST(({fnv}) % 4 != 0 AS BIGINT) AS allowed "
        "FROM u"
    )


def warc_index(sf_dir: str) -> ray.data.Dataset:
    """CDX-style random-access index over the WARC corpus: one row per
    record with (url, warc_file, offset, rec_bytes, n_bytes), so any url
    is served by a single ranged read — Common Crawl's cluster.idx/CDXJ
    access pattern.  Zero exchange (offsets fall out of the
    Content-Length walk each read task already does).  The oracle proves
    the offsets WITHOUT parsing: record size is a closed form of the url
    and payload lengths (107 fixed header bytes + len(url) +
    len(str(n_bytes)) + n_bytes), so a windowed cumulative sum over the
    parquet shards in file row order must reproduce every byte offset
    the parser measured."""
    ensure_picklable()
    from ..sources.warc import read_warc_index, warc_path_for

    return read_warc_index(warc_path_for(sf_dir))


def sql_warc_index(pages_glob: str) -> str:
    return (
        "WITH r AS (SELECT url, CAST(octet_length(html) AS BIGINT) AS n, "
        "filename, file_row_number FROM read_parquet("
        f"'{pages_glob}', filename=true, file_row_number=true)), "
        "s AS (SELECT url, n, "
        r"regexp_replace(regexp_extract(filename, '([^/]+)$', 1), "
        r"'\.parquet$', '.warc') AS warc_file, "
        "107 + length(url) + length(CAST(n AS VARCHAR)) + n AS rec_bytes, "
        "file_row_number AS frn FROM r) "
        "SELECT url, warc_file, "
        "CAST(SUM(rec_bytes) OVER (PARTITION BY warc_file ORDER BY frn "
        "ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) - rec_bytes "
        "AS BIGINT) AS \"offset\", "
        "CAST(rec_bytes AS BIGINT) AS rec_bytes, n AS n_bytes FROM s"
    )


# --- Host-level boilerplate line removal -----------------------------------

# The per-host template-chrome filter (CCNet / C4 lineage): a line that
# appears in a large fraction of one host's pages is navigation/footer
# chrome, not content — remove it from every page of that host while
# leaving the same line alone on hosts where it is rare.  Differs from
# line_dedup (within-doc first-occurrence) and paragraph_dedup
# (corpus-global keep-first): the predicate here is a PER-HOST document
# frequency ratio, the signature host-local statistic.
#
# The sandbox corpus has no shared lines across docs, so each doc is
# augmented with deterministic per-source nav lines j=1..3, carried by a
# doc iff fmix32((doc_id*2654435761 + j) mod 2^32) mod 100 < P_j with
# P = (90, 70, 30) — lines 1-2 cross the 60% threshold and get removed,
# line 3 stays, so the op provably binds (same pattern as line_dedup's
# cookie banner).  The DuckDB oracle replays synthesis, the md5 line
# keys, both frequency aggregates, and the rebuild.

_HB_MUL = 2654435761  # Knuth multiplicative constant, also used by bloom
_HB_PCTS = (90, 70, 30)
_HB_THRESH = 60  # remove when 100*df >= thresh*host_docs
_HB_BROADCAST_MAX = 2_000_000  # max boilerplate rows shipped as a dict


def _hb_boiler_mask(doc_ids: np.ndarray, j: int) -> np.ndarray:
    from ..functions.fnv import fmix32_np

    h = fmix32_np((doc_ids.astype(np.uint64) * np.uint64(_HB_MUL) + np.uint64(j)) % (1 << 32))
    return (h % np.uint64(100)) < np.uint64(_HB_PCTS[j - 1])


def _hb_doc_lines(doc_id: int, source: str, text: str, masks) -> list[str]:
    lines = [f"nav {source} item {j}" for j in (1, 2, 3) if masks[j - 1]]
    lines.extend(text.split("\n"))
    return lines


def host_boilerplate(sf_dir: str, *, thresh: int = _HB_THRESH) -> ray.data.Dataset:
    """Remove lines present in >= thresh% of a source's documents.

    Scale plan (100 TB): stage A is a per-batch combiner emitting one
    (source, line_md5, c) row per batch-distinct line — document
    frequency, not occurrence count — plus one (source, '#docs', c)
    marker row, into ONE grouped exchange; a second, distinct-line-sized
    exchange grouped by source alone turns (df, host_docs) into the
    boilerplate line table.  That table is output-sized (a line needs
    df >= 0.6*host_docs, so there are at most lines_per_doc/0.6 per
    host); a distributed count picks the scrub plan: under
    ``_HB_BROADCAST_MAX`` the (source, line_md5) set broadcasts via
    ``ray.put`` and every doc scrubs in a streaming pass with zero
    further exchange; above it, occurrence rows and boilerplate rows
    co-partition on (source, lh) (``util.copartition``), and the
    surviving lines co-partition with the per-doc line totals on doc_id
    to rebuild the text, with nothing line-shaped on the driver.

    Output: (doc_id, text, n_lines, n_removed) — clean text preserves
    original line order.
    """
    ensure_picklable()
    import hashlib

    import ray

    from .util import grouped_block_map

    docs = read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def _doc_rows(df: pd.DataFrame):
        """Yield (doc_id, source, ordered lines, hashes) per doc."""
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        masks = np.column_stack([_hb_boiler_mask(ids, j) for j in (1, 2, 3)])
        for i, (doc_id, source, text) in enumerate(
            zip(ids, df["source"], df["text"])
        ):
            lines = _hb_doc_lines(int(doc_id), source, text, masks[i])
            hs = [hashlib.md5(ln.encode()).hexdigest() for ln in lines]
            yield int(doc_id), source, lines, hs

    def df_partials(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "source": pd.Series([], dtype="object"),
                    "lh": pd.Series([], dtype="object"),
                    "c": pd.Series([], dtype="int64"),
                }
            )
        rows_s, rows_h = [], []
        for _, source, _, hs in _doc_rows(df):
            rows_s.extend([source] * (len(set(hs)) + 1))
            rows_h.extend(set(hs))
            rows_h.append("#docs")  # 5-char marker cannot collide with md5 hex
        part = (
            pd.DataFrame({"source": rows_s, "lh": rows_h})
            .groupby(["source", "lh"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return part

    freq = docs.map_batches(df_partials, batch_format="pandas")

    def sum_group(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["source", "lh"], as_index=False, sort=False)["c"].sum()

    # exchange 1: (source, lh) document frequencies
    freq = colocate(freq, ["source", "lh"], sum_group)

    def pick_bp(g: pd.DataFrame) -> pd.DataFrame:
        nd = int(g.loc[g["lh"] == "#docs", "c"].iloc[0])
        lines = g[g["lh"] != "#docs"]
        bp = lines[lines["c"].to_numpy() * 100 >= thresh * nd]
        return bp[["source", "lh"]]

    # exchange 2 (distinct-line-sized): per-source threshold decision
    bp = grouped_block_map(freq, ["source"], pick_bp)

    n_bp = bp.count()  # one scalar to the driver
    if n_bp <= _HB_BROADCAST_MAX:
        if n_bp == 0:  # empty shard / no boilerplate (resume-retry path)
            bp_ref = ray.put(set())
        else:
            bp_df = bp.to_pandas()
            bp_ref = ray.put(set(bp_df["source"] + "\x1f" + bp_df["lh"]))

        def scrub(df: pd.DataFrame) -> pd.DataFrame:
            bps = ray.get(bp_ref)
            out_id, out_txt, out_n, out_rm = [], [], [], []
            for doc_id, source, lines, hs in _doc_rows(df):
                kept = [
                    ln
                    for ln, h in zip(lines, hs)
                    if source + "\x1f" + h not in bps
                ]
                out_id.append(doc_id)
                out_txt.append("\n".join(kept))
                out_n.append(len(lines))
                out_rm.append(len(lines) - len(kept))
            return pd.DataFrame(
                {
                    "doc_id": pd.array(out_id, dtype="int64"),
                    "text": pd.array(out_txt, dtype="object"),
                    "n_lines": pd.array(out_n, dtype="int64"),
                    "n_removed": pd.array(out_rm, dtype="int64"),
                }
            )

        return docs.map_batches(scrub, batch_format="pandas")

    # join plan: occurrence rows ⋈ boilerplate rows co-partitioned on
    # (source, lh), then the survivors ⋈ per-doc line totals on doc_id
    def occ_rows(df: pd.DataFrame) -> pd.DataFrame:
        rows = {"doc_id": [], "source": [], "lh": [], "idx": [], "line": []}
        for doc_id, source, lines, hs in _doc_rows(df):
            rows["doc_id"].extend([doc_id] * len(lines))
            rows["source"].extend([source] * len(lines))
            rows["lh"].extend(hs)
            rows["idx"].extend(range(len(lines)))
            rows["line"].extend(lines)
        return pd.DataFrame(rows)

    def drop_marked(p: dict) -> pd.DataFrame:
        occ, bp = p["occ"], p["bp"]
        marked = pd.MultiIndex.from_frame(occ[["source", "lh"]]).isin(
            pd.MultiIndex.from_frame(bp[["source", "lh"]])
        )
        return occ.loc[~marked, ["doc_id", "idx", "line"]]

    survivors = copartition(
        {
            "occ": (docs.map_batches(occ_rows, batch_format="pandas"), ["source", "lh"],
                    {"doc_id": "int64", "source": "object", "lh": "object",
                     "idx": "int64", "line": "object"}),
            "bp": (bp, ["source", "lh"], {"source": "object", "lh": "object"}),
        },
        drop_marked,
    )

    def totals(df: pd.DataFrame) -> pd.DataFrame:
        rows = [
            (doc_id, len(lines)) for doc_id, _, lines, _ in _doc_rows(df)
        ]
        return pd.DataFrame(
            {
                "doc_id": pd.array([r[0] for r in rows], dtype="int64"),
                "n_lines": pd.array([r[1] for r in rows], dtype="int64"),
            }
        )

    def rebuild(p: dict) -> pd.DataFrame:
        # every surviving line of a doc is in this block with its total:
        # kept lines rejoin in their original order
        kept = p["kept"].sort_values(["doc_id", "idx"], kind="mergesort")
        g = (kept["line"] + "\n").groupby(kept["doc_id"], sort=False)
        tot = p["tot"]
        text = tot["doc_id"].map(g.sum().str[:-1]).fillna("")
        n_kept = tot["doc_id"].map(g.size()).fillna(0)
        return pd.DataFrame(
            {
                "doc_id": tot["doc_id"].astype("int64"),
                "text": text.astype("object"),
                "n_lines": tot["n_lines"].astype("int64"),
                "n_removed": (tot["n_lines"] - n_kept).astype("int64"),
            }
        )

    return copartition(
        {
            "tot": (docs.map_batches(totals, batch_format="pandas"), ["doc_id"],
                    {"doc_id": "int64", "n_lines": "int64"}),
            "kept": (survivors, ["doc_id"],
                     {"doc_id": "int64", "idx": "int64", "line": "object"}),
        },
        rebuild,
    )


def sql_host_boilerplate(*, thresh: int = _HB_THRESH) -> str:
    """Replay synthesis (fmix32 inclusion masks), md5 line keys, both
    frequency aggregates, the threshold predicate, and the ordered
    rebuild."""
    from .sql_oracles import _fmix32_ctes

    frag, final = _fmix32_ctes("hb", "hb_src", ["doc_id", "j"], "h0", "hv")
    pcts = ",".join(f"({j}, {p})" for j, p in enumerate(_HB_PCTS, start=1))
    return (
        "WITH hb_src AS (SELECT d.doc_id, j.j, CAST((CAST(d.doc_id AS HUGEINT)"
        f" * {_HB_MUL} + j.j) % 4294967296 AS BIGINT) AS h0 "
        "FROM documents d CROSS JOIN (VALUES (1),(2),(3)) j(j)), "
        f"{frag}, "
        f"pct(j, p) AS (VALUES {pcts}), "
        f"boiler AS (SELECT f.doc_id, f.j AS ord, "
        "'nav ' || d.source || ' item ' || f.j AS line "
        f"FROM {final} f JOIN documents d USING (doc_id) JOIN pct USING (j) "
        "WHERE f.hv % 100 < pct.p), "
        "content AS (SELECT doc_id, 3 + k AS ord, part AS line FROM ("
        "SELECT doc_id, unnest(string_split(text, chr(10))) AS part, "
        "generate_subscripts(string_split(text, chr(10)), 1) AS k "
        "FROM documents)), "
        "lines AS (SELECT * FROM boiler UNION ALL SELECT * FROM content), "
        "keyed AS (SELECT l.doc_id, d.source, l.ord, l.line, md5(l.line) AS lh "
        "FROM lines l JOIN documents d USING (doc_id)), "
        "nd AS (SELECT source, count(DISTINCT doc_id) AS host_docs "
        "FROM documents GROUP BY source), "
        "df AS (SELECT source, lh, count(DISTINCT doc_id) AS c "
        "FROM keyed GROUP BY source, lh), "
        "bp AS (SELECT df.source, df.lh FROM df JOIN nd USING (source) "
        f"WHERE df.c * 100 >= {thresh} * nd.host_docs), "
        "kept AS (SELECT k.* FROM keyed k LEFT JOIN bp "
        "ON k.source = bp.source AND k.lh = bp.lh WHERE bp.lh IS NULL) "
        "SELECT d.doc_id, coalesce(agg.txt, '') AS text, "
        "CAST(tot.n AS BIGINT) AS n_lines, "
        "CAST(tot.n - coalesce(agg.nk, 0) AS BIGINT) AS n_removed "
        "FROM documents d "
        "JOIN (SELECT doc_id, count(*) AS n FROM keyed GROUP BY doc_id) tot "
        "USING (doc_id) "
        "LEFT JOIN (SELECT doc_id, string_agg(line, chr(10) ORDER BY ord) "
        "AS txt, count(*) AS nk FROM kept GROUP BY doc_id) agg "
        "USING (doc_id)"
    )


# --- Host-graph connected components ---------------------------------------


def host_components(sf_dir: str, *, cluster_mode: str = "auto") -> ray.data.Dataset:
    """Connected components of the (undirected) host link graph — the site-
    cluster / link-farm detection pass a crawl pipeline runs over its
    ``link_graph`` output before trusting PageRank or per-host quotas.

    Node ids are ``fnv1a_32(host)`` so the component machinery
    (``dedup_ops.cluster_components`` — distributed-pair-count auto-switch,
    dataset-resident min-label propagation with pointer doubling) is reused
    unchanged; at web scale (≥10^6 hosts) the 32-bit id space needs the
    documented swap to a 64-bit hash at this one seam.  The component label
    is the minimum member id.  Hosts with no off-host edges come back as
    singleton components labelled with their own id (one co-partitioned
    join of host rows and component rows on id, ``util.copartition`` — the
    host-table-sized exchange, never corpus-sized).  Output: (host, comp_id).
    """
    ensure_picklable()
    from ..functions.fnv import fnv1a_32
    from .dedup_ops import cluster_components

    edges = link_graph(sf_dir)

    def host_id_rows(df: pd.DataFrame) -> pd.DataFrame:
        # (id, host) node rows from both endpoints, batch-distinct; the
        # per-unique-host Python hash is memoized (hosts << rows)
        memo: dict[str, int] = {}

        def hid(h: str) -> int:
            v = memo.get(h)
            if v is None:
                v = memo[h] = fnv1a_32(h)
            return v

        hosts = pd.unique(
            np.concatenate([df["src_host"].to_numpy(), df["dst_host"].to_numpy()])
        ) if len(df) else np.array([], dtype=object)
        return pd.DataFrame(
            {
                "id": pd.array([hid(h) for h in hosts], dtype="int64"),
                "host": pd.array(hosts, dtype="object"),
            }
        )

    def pair_rows(df: pd.DataFrame) -> pd.DataFrame:
        memo: dict[str, int] = {}

        def hid(h: str) -> int:
            v = memo.get(h)
            if v is None:
                v = memo[h] = fnv1a_32(h)
            return v

        m = df["src_host"] != df["dst_host"] if len(df) else []
        sub = df[m] if len(df) else df
        return pd.DataFrame(
            {
                "a": pd.array([hid(h) for h in sub["src_host"]], dtype="int64"),
                "b": pd.array([hid(h) for h in sub["dst_host"]], dtype="int64"),
            }
        )

    edges = edges.materialize()
    nodes = edges.map_batches(host_id_rows, batch_format="pandas")
    pairs = edges.map_batches(pair_rows, batch_format="pandas")
    comp = cluster_components(pairs, cluster_mode=cluster_mode, as_dataset=True)

    def resolve(p: dict) -> pd.DataFrame:
        # one row per DISTINCT (id, host): on a 32-bit fnv collision two
        # hosts share an id — both get the shared component id, matching
        # the oracle's per-host LEFT JOIN; a host absent from every pair
        # is its own component
        nodes = p["node"].drop_duplicates()
        cid = p["comp"].groupby("doc_id", sort=False)["rep_id"].max()
        comp_id = nodes["id"].map(cid).fillna(nodes["id"])
        return pd.DataFrame(
            {"host": nodes["host"].to_numpy(dtype=object),
             "comp_id": comp_id.to_numpy(dtype=np.int64)}
        )

    return copartition(
        {
            "node": (nodes, ["id"], {"id": "int64", "host": "object"}),
            "comp": (comp, ["doc_id"], {"doc_id": "int64", "rep_id": "int64"}),
        },
        resolve,
    )


def sql_host_components() -> str:
    """Replay: link-graph synthesis + fnv1a-32 host ids + recursive min-
    label reachability (the sql_minhash_dedup pattern) + singleton fill."""
    from .sql_oracles import sql_fnv1a32

    lg = sql_link_graph()
    fnv = sql_fnv1a32("hch")
    # CTE names prefixed hc_ — sql_link_graph's own WITH uses l/h/e, and
    # same-named CTEs across nesting levels confuse the binder
    return (
        f"WITH RECURSIVE hc_lg AS ({lg}), "
        "hc_hosts AS (SELECT DISTINCT hch FROM (SELECT src_host AS hch "
        "FROM hc_lg UNION SELECT dst_host FROM hc_lg)), "
        f"hc_id AS (SELECT hch AS host, {fnv} AS id FROM hc_hosts), "
        "hc_e0 AS (SELECT a.id AS a, b.id AS b FROM hc_lg "
        "JOIN hc_id a ON hc_lg.src_host = a.host "
        "JOIN hc_id b ON hc_lg.dst_host = b.host "
        "WHERE hc_lg.src_host != hc_lg.dst_host), "
        "hc_e AS (SELECT a, b FROM hc_e0 UNION SELECT b, a FROM hc_e0), "
        "hc_reach(src, dst) AS (SELECT a, b FROM hc_e "
        "UNION SELECT r.src, hc_e.b FROM hc_reach r JOIN hc_e "
        "ON r.dst = hc_e.a), "
        "hc_comp AS (SELECT src AS id, least(src, MIN(dst)) AS cid "
        "FROM hc_reach GROUP BY src) "
        "SELECT hc_id.host, CAST(coalesce(hc_comp.cid, hc_id.id) AS BIGINT) "
        "AS comp_id FROM hc_id LEFT JOIN hc_comp USING (id)"
    )


# --- triangle counting over the host link graph -----------------------------

_TRI_BROADCAST_MAX = 2_000_000  # max nodes in the broadcast degree map


def _host_graph(sf_dir: str, edges_ds=None):
    """Shared graph-construction stage for ``host_triangles`` /
    ``host_clustering``: canonical deduped undirected edges, the degree
    table, and the (degree, name)-oriented edge set (broadcast degree
    attach under the proven bound, else two co-partitioned joins).
    Returns (edges, deg, oriented, n_nodes, n_edges); oriented is None
    when the graph is empty.  ``edges_ds`` injects a raw
    (src_host, dst_host) edge dataset in place of ``link_graph`` —
    the seam the known-topology tests drive.

    Scale plan (degree-ordered wedge join — the standard distributed
    triangle algorithm): edges from ``link_graph`` are canonicalized and
    deduped (one grouped exchange), degrees come from a per-batch endpoint
    combiner into a node-cardinality exchange, and every edge is ORIENTED
    from its lower (degree, name) endpoint to the higher — which bounds
    any node's out-degree by O(sqrt(m)), so wedge emission is O(m^1.5)
    total even on a star-shaped hot host where naive neighbor-pairing is
    O(deg^2) unbounded.  The degree map attaches by broadcast under a
    distributed-count-proven bound, else by two co-partitioned joins on
    the node's hash (nothing node-shaped on the driver).  Wedges (v, w)
    from each center u then co-partition with the oriented edges on
    (v, w); a wedge closed by an edge row is exactly one triangle,
    counted once at its (degree, name)-minimal vertex."""
    ensure_picklable()
    import ray

    from .util import grouped_block_dedup

    def canon(df: pd.DataFrame) -> pd.DataFrame:
        if len(df):
            df = df[df["src_host"] != df["dst_host"]]
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "a": pd.Series([], dtype="object"),
                    "b": pd.Series([], dtype="object"),
                }
            )
        s = df["src_host"].to_numpy(dtype=object)
        d = df["dst_host"].to_numpy(dtype=object)
        swap = s > d
        return pd.DataFrame(
            {"a": np.where(swap, d, s), "b": np.where(swap, s, d)}
        )

    # edges is the host-pair AGGREGATE (bounded by distinct host pairs,
    # orders of magnitude below the corpus); it feeds four consumers
    # (degrees, counts, orientation), so pin it in the object store once
    # instead of re-running the corpus scan per consumer
    raw = link_graph(sf_dir) if edges_ds is None else edges_ds
    edges = grouped_block_dedup(
        raw.map_batches(canon, batch_format="pandas"), ["a", "b"]
    ).materialize()

    _DEG_EMPTY = {"node": "object", "c": "int64"}

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {c: pd.Series([], dtype=t) for c, t in _DEG_EMPTY.items()}
            )
        vc = pd.concat([df["a"], df["b"]], ignore_index=True).value_counts()
        return pd.DataFrame(
            {"node": vc.index.astype(object), "c": vc.to_numpy().astype("int64")}
        )

    def deg_fold(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "node": pd.Series([], dtype="object"),
                    "deg": pd.Series([], dtype="int64"),
                }
            )
        g = df.groupby("node", as_index=False, sort=False)["c"].sum()
        return pd.DataFrame({"node": g["node"], "deg": g["c"].astype("int64")})

    deg = colocate(
        edges.map_batches(deg_partial, batch_format="pandas"), ["node"], deg_fold
    ).materialize()  # node-cardinality table, two consumers

    n_nodes = deg.count()
    n_edges = edges.count()
    if n_edges == 0:
        return edges, deg, None, n_nodes, n_edges

    _OR_EMPTY = {"u": "object", "v": "object", "dv": "int64"}

    def _orient(a, b, da, db) -> pd.DataFrame:
        swap = (da > db) | ((da == db) & (a > b))
        return pd.DataFrame(
            {
                "u": np.where(swap, b, a),
                "v": np.where(swap, a, b),
                "dv": np.where(swap, da, db).astype("int64"),
            }
        )

    if n_nodes <= _TRI_BROADCAST_MAX:
        deg_df = deg.to_pandas()  # proven <= _TRI_BROADCAST_MAX rows
        dref = ray.put(dict(zip(deg_df["node"], deg_df["deg"])))

        def orient_bcast(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {c: pd.Series([], dtype=t) for c, t in _OR_EMPTY.items()}
                )
            d = ray.get(dref)
            a = df["a"].to_numpy(dtype=object)
            b = df["b"].to_numpy(dtype=object)
            da = df["a"].map(d).to_numpy(dtype="int64")
            db = df["b"].map(d).to_numpy(dtype="int64")
            return _orient(a, b, da, db)

        oriented = edges.map_batches(orient_bcast, batch_format="pandas")
    else:
        # co-partitioned joins: attach deg(a), then deg(b); the degree
        # table never leaves the cluster
        deg_side = (
            deg.map_batches(lambda df: df.assign(h=hash_key(df["node"])),
                            batch_format="pandas"),
            ["h"], {"h": "uint64", "node": "object", "deg": "int64"},
        )

        def _attach(edges_ds, key: str, out_col: str, carry: dict):
            def join_block(p: dict) -> pd.DataFrame:
                e = p["e"]
                d = p["d"].set_index("node")["deg"]
                return e[list(carry)].assign(
                    **{out_col: e[key].map(d).fillna(0).astype("int64")}
                )

            return copartition(
                {
                    "e": (edges_ds.map_batches(lambda df: df.assign(h=hash_key(df[key])),
                                               batch_format="pandas"),
                          ["h"], {"h": "uint64", **carry}),
                    "d": deg_side,
                },
                join_block,
            )

        ab = {"a": "object", "b": "object"}
        with_da = _attach(edges, "a", "da", ab)
        with_db = _attach(with_da, "b", "db", {**ab, "da": "int64"})

        def orient_join(df: pd.DataFrame) -> pd.DataFrame:
            if len(df) == 0:
                return pd.DataFrame(
                    {c: pd.Series([], dtype=t) for c, t in _OR_EMPTY.items()}
                )
            return _orient(
                df["a"].to_numpy(dtype=object),
                df["b"].to_numpy(dtype=object),
                df["da"].to_numpy(dtype="int64"),
                df["db"].to_numpy(dtype="int64"),
            )

        oriented = with_db.map_batches(orient_join, batch_format="pandas")

    oriented = oriented.materialize()  # edge-sized, two consumers
    return edges, deg, oriented, n_nodes, n_edges


def _wedges(df: pd.DataFrame) -> pd.DataFrame:
    """All out-neighbor pairs (x, y) of every center u in one block of
    oriented edges co-located on u, (degree, name)-ordered so the pair
    matches the closing edge's orientation; carries the center (ctr) for
    per-node attribution.  Vectorized over the block: the rows sort by
    (u, dv, v), and row k of a center with n out-edges pairs with rows
    k+1 .. n-1 of that center."""
    df = df.sort_values(["u", "dv", "v"], kind="mergesort")
    u = df["u"].to_numpy(dtype=object)
    v = df["v"].to_numpy(dtype=object)
    n = len(u)
    first = np.ones(n, dtype=bool)
    first[1:] = u[1:] != u[:-1]
    center = np.cumsum(first) - 1
    ends = np.cumsum(np.bincount(center))[center]  # one past the center's last row
    later = ends - np.arange(n) - 1  # out-edges after row k in its center
    i = np.repeat(np.arange(n), later)
    j = i + 1 + np.arange(len(i)) - np.repeat(np.cumsum(later) - later, later)
    return pd.DataFrame({"x": v[i], "y": v[j], "ctr": u[i]})


def _closed_wedges(p: dict) -> pd.DataFrame:
    """The wedges of one ``_closure`` block that an oriented edge closes:
    each is exactly one triangle, at its (degree, name)-minimal vertex."""
    w, e = p["w"], p["e"]
    closed = pd.MultiIndex.from_frame(w[["x", "y"]]).isin(
        pd.MultiIndex.from_frame(e[["x", "y"]])
    )
    return w[closed]


def _close_count(p: dict) -> pd.DataFrame:
    return pd.DataFrame({"t": pd.Series([len(_closed_wedges(p))], dtype="int64")})


def _closure(oriented, close_fn) -> ray.data.Dataset:
    """Wedges ⋈ oriented edges co-partitioned on (x, y)
    (``util.copartition``); ``close_fn`` gets each block's
    ``{"w": wedges, "e": edges}``."""
    wedges = colocate(oriented, ["u"], _wedges)
    edges = oriented.map_batches(
        lambda df: pd.DataFrame({"x": df["u"], "y": df["v"]}), batch_format="pandas"
    )
    xy = {"x": "object", "y": "object"}
    return copartition(
        {"w": (wedges, ["x", "y"], {**xy, "ctr": "object"}), "e": (edges, ["x", "y"], xy)},
        close_fn,
    )


def host_triangles(sf_dir: str) -> pd.DataFrame:
    """Triangle count of the undirected host link graph — the classic
    link-farm / tight-community signal.  See ``_host_graph`` for the
    degree-ordered wedge-join scale plan; each closed wedge is exactly one
    triangle, counted once at its (degree, name)-minimal vertex, and only
    per-block scalar counts reach the driver.

    Output: one row (n_hosts, n_edges, n_triangles)."""
    ensure_picklable()
    edges, deg, oriented, n_nodes, n_edges = _host_graph(sf_dir)
    if oriented is None:
        return pd.DataFrame(
            {
                "n_hosts": pd.Series([0], dtype="int64"),
                "n_edges": pd.Series([0], dtype="int64"),
                "n_triangles": pd.Series([0], dtype="int64"),
            }
        )

    tri = _closure(oriented, _close_count).sum("t")
    return pd.DataFrame(
        {
            "n_hosts": pd.Series([int(n_nodes)], dtype="int64"),
            "n_edges": pd.Series([int(n_edges)], dtype="int64"),
            "n_triangles": pd.Series([int(tri or 0)], dtype="int64"),
        }
    )


def sql_host_triangles() -> str:
    return (
        f"WITH lg AS ({sql_link_graph()}), "
        "e0 AS (SELECT DISTINCT LEAST(src_host, dst_host) AS a, "
        "GREATEST(src_host, dst_host) AS b FROM lg "
        "WHERE src_host <> dst_host) "
        "SELECT "
        "CAST((SELECT COUNT(*) FROM (SELECT a AS h FROM e0 "
        "UNION SELECT b FROM e0)) AS BIGINT) AS n_hosts, "
        "CAST((SELECT COUNT(*) FROM e0) AS BIGINT) AS n_edges, "
        "CAST((SELECT COUNT(*) FROM e0 x "
        "JOIN e0 y ON y.a = x.b "
        "JOIN e0 z ON z.a = x.a AND z.b = y.b) AS BIGINT) AS n_triangles"
    )


def host_clustering(sf_dir: str) -> ray.data.Dataset:
    """Per-host local clustering coefficient — triangles through a host
    over its possible neighbor pairs, the node-level tight-community /
    link-ring score (the grouped sibling of ``host_triangles``'s global
    count).

    Scale plan: shares ``_host_graph``'s degree-ordered wedge join; the
    closure pass attributes each closed wedge to its THREE corners
    (center, x, y) as per-block (node, count) combiner partials — per-node
    counts are orientation-independent because every triangle closes
    exactly once — then one node-cardinality co-partitioned join
    (``util.copartition``) merges triangle counts with the degree table
    and the coefficient is exact integer arithmetic:
    clustering_milli = (2000·t) // (d·(d−1)), floor division in both
    engines.

    Output: (host, deg, n_tri, clustering_milli) for hosts with deg ≥ 2."""
    ensure_picklable()

    edges, deg, oriented, n_nodes, n_edges = _host_graph(sf_dir)
    if oriented is None:
        return pd.DataFrame(
            {
                "host": pd.Series([], dtype="object"),
                "deg": pd.Series([], dtype="int64"),
                "n_tri": pd.Series([], dtype="int64"),
                "clustering_milli": pd.Series([], dtype="int64"),
            }
        )

    def node_partials(p: dict) -> pd.DataFrame:
        closed = _closed_wedges(p)
        nodes = np.concatenate(
            [
                closed["ctr"].to_numpy(dtype=object),
                closed["x"].to_numpy(dtype=object),
                closed["y"].to_numpy(dtype=object),
            ]
        )
        vc = pd.Series(nodes, dtype=object).value_counts()
        return pd.DataFrame(
            {"node": vc.index.to_numpy(dtype=object), "c": vc.to_numpy().astype("int64")}
        )

    def combine(p: dict) -> pd.DataFrame:
        t = p["t"].groupby("node", sort=False)["c"].sum()
        d = p["d"][p["d"]["deg"] >= 2]
        deg = d["deg"].to_numpy(dtype="int64")
        n_tri = d["node"].map(t).fillna(0).to_numpy(dtype="int64")
        return pd.DataFrame(
            {
                "host": d["node"].to_numpy(dtype=object),
                "deg": deg,
                "n_tri": n_tri,
                "clustering_milli": (2000 * n_tri) // (deg * (deg - 1)),
            }
        )

    return copartition(
        {
            "t": (_closure(oriented, node_partials), ["node"],
                  {"node": "object", "c": "int64"}),
            "d": (deg, ["node"], {"node": "object", "deg": "int64"}),
        },
        combine,
    )


def sql_host_clustering() -> str:
    return (
        f"WITH lg AS ({sql_link_graph()}), "
        "e0 AS (SELECT DISTINCT LEAST(src_host, dst_host) AS a, "
        "GREATEST(src_host, dst_host) AS b FROM lg "
        "WHERE src_host <> dst_host), "
        "t AS (SELECT x.a AS p, x.b AS q, y.b AS r FROM e0 x "
        "JOIN e0 y ON y.a = x.b JOIN e0 z ON z.a = x.a AND z.b = y.b), "
        "tc AS (SELECT h, COUNT(*) AS n_tri FROM "
        "(SELECT p AS h FROM t UNION ALL SELECT q FROM t "
        "UNION ALL SELECT r FROM t) GROUP BY h), "
        "dg AS (SELECT h, COUNT(*) AS deg FROM "
        "(SELECT a AS h FROM e0 UNION ALL SELECT b AS h FROM e0) GROUP BY h) "
        "SELECT dg.h AS host, CAST(dg.deg AS BIGINT) AS deg, "
        "CAST(COALESCE(tc.n_tri, 0) AS BIGINT) AS n_tri, "
        "CAST((2000 * COALESCE(tc.n_tri, 0)) // (dg.deg * (dg.deg - 1)) "
        "AS BIGINT) AS clustering_milli "
        "FROM dg LEFT JOIN tc ON tc.h = dg.h WHERE dg.deg >= 2"
    )


# C4-style blocklist (Raffel et al. 2020 used a published "bad words"
# list; the mechanism is the operator — the list here names one word and
# two phrases that exist in the synthetic vocabulary so the filter
# provably binds at gate scale, ~15% of docs)
_BLOCKLIST = ("dup", "slow query", "big join")


def blocklist_filter(sf_dir: str) -> ray.data.Dataset:
    """Blocklist screen — the C4 lineage web-text cleanup: a document is
    dropped if it contains ANY blocklisted word/phrase; per-doc hit
    counts are reported so the list's bite is auditable.

    Scale design: stateless and fully vectorized (one compiled regex
    count per pattern per batch — patterns are a fixed, tiny list, so
    this is k passes over the batch's string column, not a scan per
    pattern per row), zero exchange, zero state; the same shape as
    ``gopher_filter`` and composable into ``corpus_curate``'s stage A.

    Output: (doc_id, n_hits, keep) for every document."""
    ensure_picklable()

    def screen(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {
                    "doc_id": pd.Series([], dtype="int64"),
                    "n_hits": pd.Series([], dtype="int64"),
                    "keep": pd.Series([], dtype="int64"),
                }
            )
        low = df["text"].str.lower()
        hits = sum(
            low.str.count(rf"\b{p}\b").astype("int64") for p in _BLOCKLIST
        )
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_hits": hits.astype("int64"),
                "keep": (hits == 0).astype("int64"),
            }
        )

    return read_table(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        screen, batch_format="pandas"
    )


def sql_blocklist_filter() -> str:
    hit_sum = " + ".join(
        rf"CAST(len(regexp_extract_all(lower(text), '\b{p}\b')) AS BIGINT)"
        for p in _BLOCKLIST
    )
    return (
        f"SELECT doc_id, {hit_sum} AS n_hits, "
        f"CAST(CASE WHEN {hit_sum} = 0 THEN 1 ELSE 0 END AS BIGINT) AS keep "
        "FROM documents"
    )


# --- round-5 session-4 additions --------------------------------------------

_SLOT_RE = re.compile(r"/d/([0-9]+)$")


def _page_url_universe(sf_dir: str) -> ray.data.Dataset:
    """Distinct page URLs of the synthetic crawl: each document lives at
    ``https://{source}.example.com/d/{doc_id % 97}`` (the same address
    space ``_synth_links`` targets).  Per-batch distinct collapses each
    block before the one dedup exchange keyed on the url."""
    from .util import grouped_block_dedup

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"url": pd.Series([], dtype="object")})
        slots = (df["doc_id"].to_numpy("int64") % 97).astype(str)
        urls = (
            "https://" + df["source"].astype(str) + ".example.com/d/"
            + pd.Series(slots, index=df.index)
        )
        return pd.DataFrame({"url": urls}).drop_duplicates("url")

    ds = read_table(sf_dir, "documents", columns=["doc_id", "source"])
    return grouped_block_dedup(ds.map_batches(partial, batch_format="pandas"), ["url"])


def _ed_le_1(s: str, t: str) -> bool:
    """Exact edit-distance ≤ 1 check (strings known distinct)."""
    ls, lt = len(s), len(t)
    if ls == lt:
        return sum(a != b for a, b in zip(s, t)) <= 1
    if ls < lt:
        s, t, ls, lt = t, s, lt, ls
    if ls - lt != 1:
        return False
    i = 0
    while i < lt and s[i] == t[i]:
        i += 1
    return s[i + 1:] == t[i:]


def url_typo_pairs(sf_dir: str) -> ray.data.Dataset:
    """All pairs of distinct page URLs within edit distance 1 — the
    typo-/cybersquat-candidate join a crawl-hygiene pipeline runs, done
    with DELETION-NEIGHBORHOOD banding (the SymSpell trick: two strings
    with ed ≤ 1 always share a member of {s} ∪ {s minus one char}) so the
    exact quadratic verify only ever runs inside shared-variant buckets,
    never across the universe.

    Scale plan: the universe is the DISTINCT url set (dedup exchange,
    ``_page_url_universe``); each url fans out to len(url)+1 variant keys
    (universe-sized × L emission, post-dedup — never corpus-sized); one
    grouped exchange on [variant] with singleton pre-drop yields candidate
    buckets; candidate pairs dedup with one (a, b) exchange and the exact
    ed ≤ 1 verify runs only on that output-sized set.  A pathologically
    hot variant (mirror farms one char apart) makes a big bucket — that
    bucket's pairs are true candidate output, the intrinsic cost of the
    all-pairs-within-ed-1 semantics (same honesty note as the dedup_ops
    verify slabs).

    Output: (url_a, url_b) with url_a < url_b, exact levenshtein ≤ 1.
    """
    from .util import grouped_block_dedup, grouped_block_map

    ensure_picklable()
    urls = _page_url_universe(sf_dir)

    def variants(df: pd.DataFrame) -> pd.DataFrame:
        # universe-sized × (L+1) emission over the DISTINCT url set
        out_v, out_u = [], []
        for u in df["url"]:
            out_v.append(u)
            out_u.append(u)
            for i in range(len(u)):
                out_v.append(u[:i] + u[i + 1:])
                out_u.append(u)
        return pd.DataFrame({"variant": out_v, "url": out_u})

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        us = sorted(set(g["url"]))
        if len(us) < 2:
            return pd.DataFrame(
                {"url_a": pd.Series([], dtype="object"),
                 "url_b": pd.Series([], dtype="object")}
            )
        pairs = [(a, b) for i, a in enumerate(us) for b in us[i + 1:]]
        return pd.DataFrame(pairs, columns=["url_a", "url_b"])

    cands = grouped_block_map(
        urls.map_batches(variants, batch_format="pandas"),
        ["variant"],
        bucket_pairs,
        drop_singletons=True,
    )
    cands = grouped_block_dedup(cands, ["url_a", "url_b"])

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame(
                {"url_a": pd.Series([], dtype="object"),
                 "url_b": pd.Series([], dtype="object")}
            )
        keep = [
            _ed_le_1(a, b) for a, b in zip(df["url_a"], df["url_b"])
        ]
        return df[pd.Series(keep, index=df.index)].reset_index(drop=True)

    return cands.map_batches(verify, batch_format="pandas")


def sql_url_typo_pairs() -> str:
    return (
        "WITH u AS (SELECT DISTINCT 'https://' || source || '.example.com/d/' "
        "|| CAST(doc_id % 97 AS VARCHAR) AS url FROM documents) "
        "SELECT a.url AS url_a, b.url AS url_b FROM u a JOIN u b "
        "ON a.url < b.url AND abs(length(a.url) - length(b.url)) <= 1 "
        "AND levenshtein(a.url, b.url) <= 1"
    )


def page_link_audit(sf_dir: str) -> ray.data.Dataset:
    """Per-host link audit: how many distinct pages a host serves, how
    many of them are ORPHANS (no inbound link anywhere in the crawl), and
    how many DANGLING targets it receives (links to pages that don't
    exist) — the anti-join pair every link-graph build runs before
    PageRank, at page granularity.

    Scale plan: both sides collapse to DISTINCT (host, page-slot) rows
    inside each batch (pages from the doc scan, targets from the same
    vectorized href extraction as ``link_graph``, page-references only —
    ``/d/<slot>`` paths), then ONE co-partitioned exchange on the host's
    hash (``util.copartition``, no broadcast needed): every (host, slot)
    row of a host, on both sides, is in one block, so the full outer join
    on (host, slot) and the per-host counts run in-block — a host's
    distinct-slot set is the block ceiling.

    Output: (host, n_pages, n_orphans, n_dangling), one row per host that
    serves or is linked at least once.
    """
    ensure_picklable()

    def page_side(df: pd.DataFrame) -> pd.DataFrame:
        d = pd.DataFrame(
            {
                "host": (df["source"].astype(str) + ".example.com").to_numpy(object),
                "slot": (df["doc_id"].to_numpy("int64") % 97),
            }
        ).drop_duplicates()
        return d.assign(h=hash_key(d["host"]))

    def target_side(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {"host": pd.Series([], dtype="object"),
             "slot": pd.Series([], dtype="int64"),
             "h": pd.Series([], dtype="uint64")}
        )
        if len(df) == 0:
            return empty
        df = df.reset_index(drop=True)
        ids = df["doc_id"].to_numpy().astype(np.int64)
        links = pd.Series([_synth_links(int(i)) for i in ids])
        html = _PAGE_HEAD + df["text"].astype(str) + _PAGE_MID + links + _PAGE_TAIL
        m = html.str.extractall(_HREF_RE)
        if len(m) == 0:
            return empty
        hrefs = m[0]
        rows = m.index.get_level_values(0).to_numpy()
        src = (df["source"] + ".example.com").to_numpy(dtype=object)[rows]
        rel = hrefs.str.startswith("/").to_numpy()
        host = hrefs.str.extract(_HOST_RE, expand=False).to_numpy(dtype=object)
        slot = hrefs.str.extract(_SLOT_RE, expand=False)
        ok = slot.notna().to_numpy()  # page references only (/d/<slot>)
        d = pd.DataFrame(
            {
                "host": np.where(rel, src, host)[ok],
                "slot": slot.to_numpy(dtype=object)[ok].astype("int64"),
            }
        ).drop_duplicates()
        return d.assign(h=hash_key(d["host"]))

    def host_fold(p: dict) -> pd.DataFrame:
        hs = ["host", "slot"]
        both = p["pages"][hs].drop_duplicates().merge(
            p["targets"][hs].drop_duplicates(), how="outer", indicator=True
        )
        side = both["_merge"].astype(str).to_numpy()
        g = pd.DataFrame(
            {
                "host": both["host"],
                "n_pages": (side != "right_only").astype("int64"),
                "n_orphans": (side == "left_only").astype("int64"),
                "n_dangling": (side == "right_only").astype("int64"),
            }
        ).groupby("host", as_index=False, sort=False).sum()
        for c in ("n_pages", "n_orphans", "n_dangling"):
            g[c] = g[c].astype("int64")
        return g

    cols = {"h": "uint64", "host": "object", "slot": "int64"}
    return copartition(
        {
            "pages": (read_table(sf_dir, "documents", columns=["doc_id", "source"])
                      .map_batches(page_side, batch_format="pandas", batch_size=None),
                      ["h"], cols),
            "targets": (read_table(sf_dir, "documents", columns=["doc_id", "source", "text"])
                        .map_batches(target_side, batch_format="pandas", batch_size=None),
                        ["h"], cols),
        },
        host_fold,
    )


def sql_page_link_audit() -> str:
    link_cases = " || ".join(
        f"CASE WHEN doc_id % 3 >= {j} THEN "
        f"'<p><a href=\"https://src' || CAST((doc_id + 1 + {j}) % {_N_SOURCES} AS VARCHAR) "
        f"|| '.example.com/d/' || CAST(doc_id % 97 AS VARCHAR) || '\">l{j}</a></p>' "
        "ELSE '' END"
        for j in range(3)
    )
    return (
        f"WITH l AS (SELECT doc_id, source, '{_PAGE_HEAD}' || text || "
        f"'{_PAGE_MID}' || {link_cases} || '{_PAGE_TAIL}' AS html FROM documents), "
        "h AS (SELECT source, unnest(regexp_extract_all(html, 'href=\"([^\"]*)\"', 1)) "
        "AS href FROM l), "
        "t AS (SELECT CASE WHEN starts_with(href, '/') THEN source || '.example.com' "
        "ELSE regexp_extract(href, '^https?://([^/]+)', 1) END AS host, "
        "TRY_CAST(regexp_extract(href, '/d/([0-9]+)$', 1) AS BIGINT) AS slot FROM h), "
        "tt AS (SELECT DISTINCT host, slot FROM t WHERE slot IS NOT NULL), "
        "pp AS (SELECT DISTINCT source || '.example.com' AS host, "
        "doc_id % 97 AS slot FROM documents), "
        "u AS (SELECT COALESCE(pp.host, tt.host) AS host, "
        "CASE WHEN pp.host IS NOT NULL THEN 1 ELSE 0 END AS pg, "
        "CASE WHEN tt.host IS NOT NULL THEN 1 ELSE 0 END AS tg "
        "FROM pp FULL OUTER JOIN tt ON pp.host = tt.host AND pp.slot = tt.slot) "
        "SELECT host, CAST(SUM(pg) AS BIGINT) AS n_pages, "
        "CAST(SUM(CASE WHEN pg = 1 AND tg = 0 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_orphans, "
        "CAST(SUM(CASE WHEN tg = 1 AND pg = 0 THEN 1 ELSE 0 END) AS BIGINT) "
        "AS n_dangling "
        "FROM u GROUP BY host"
    )
