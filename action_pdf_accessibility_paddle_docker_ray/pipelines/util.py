"""Shared exchange primitives: one key-sorted co-location step.

``colocate(ds, keys, block_fn)`` is ``ds.sort(keys)`` followed by
``block_fn`` once per whole sorted block.  Every other keyed exchange in
the library is built on it:

- ``grouped_block_map`` / ``grouped_block_dedup`` / ``grouped_block_sum``
  (and ``stages/dedup.dedup_latest``) split or fold groups inside the
  block — the fast replacement for ``groupby(keys).map_groups(fn)``, whose
  per-group dispatch costs ~10 ms/group against ~0.1 ms/group here;
- ``copartition`` is the N-sided join: it tags each side, unions them
  with one stable schema, co-locates on the JOIN KEY itself and hands
  ``join_fn`` one ``{side: frame}`` split per block.

The rule for multi-side exchanges: sides that an operator would tell
apart by a tag column or a sentinel fill go through ``copartition``, and
its ``join_fn`` works on whole per-side frames with vectorized pandas
(never one Python call per key); ``Dataset.union`` only concatenates
datasets of one schema.

The sort runs on the join or group key itself (int keys as they are;
string keys on their ``hash_key`` uint64, never on the string; salted
joins on ``(key, salt)``), so the number of blocks — and with it the rows
per call — is Ray's partition count, which Ray derives from the input.

Why the co-location invariant HOLDS in Ray 2.49.2, structurally — not
just empirically (tests/test_round4.py pins it with 120k-row hot keys at
a 64 KiB ``target_max_block_size``):

1. Sort partitioning is a per-boundary binary search over the full key
   tuple with a consistent side (``boundaries[i] <= x < boundaries[i+1]``):
   ``ray/data/_internal/table_block.py:505`` (``_find_partitions_sorted``)
   → ``ray/data/_internal/util.py:786`` (``find_partition_index``).  Rows
   with identical key tuples therefore always map to the SAME partition —
   duplicate sampled boundaries only create empty partitions between them.
2. Each sort-reduce task merges its partition into exactly ONE block —
   ``SortTaskSpec.reduce`` calls ``merge_sorted_blocks`` and returns a
   single block with no post-split by ``target_max_block_size``
   (``ray/data/_internal/planner/exchange/sort_task_spec.py:148-161``).
3. The downstream ``map_batches(..., batch_size=None)`` consumes whole
   blocks as batches, so no re-chunking can divide a key either.

Consequence: one key's rows always arrive in one batch.  The invariant
holds for the FULL sort tuple only — sorting by ``keys + order`` would let
one key straddle blocks.  A pathologically hot key produces one oversized
block (the reduce task must hold it); that is a memory ceiling, not a
correctness hazard, and the same ceiling applies to Ray's own
``map_groups``.  Joins whose keys can grow hot salt them (sort on
``(key, salt)``); ops whose group keys can, cap them upstream.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import ray.data


def colocate(
    ds: ray.data.Dataset,
    keys: list[str],
    block_fn: Callable[[pd.DataFrame], "pd.DataFrame"],
) -> ray.data.Dataset:
    """sort(keys) → ``block_fn`` once per whole block (pandas).  All rows
    of one key tuple reach the same call (module docstring)."""
    return ds.sort(keys).map_batches(block_fn, batch_format="pandas", batch_size=None)


def hash_key(values) -> np.ndarray:
    """The uint64 sort key of a string column: equal strings → equal keys,
    the same in every process (``pd.util.hash_array``'s fixed hash key).
    An integer sort over these is what co-locates string-keyed joins; the
    join itself still matches on the string, so a collision only puts two
    strings in one block."""
    return pd.util.hash_array(np.asarray(values, dtype=object))


_SIDE = "__side"


def _fill(dtype: str, n: int) -> np.ndarray:
    dt = np.dtype(dtype)
    return np.full(n, None, dtype=object) if dt == object else np.zeros(n, dtype=dt)


def copartition(
    sides: dict[str, tuple[ray.data.Dataset, list[str], dict[str, str]]],
    join_fn: Callable[[dict[str, pd.DataFrame]], "pd.DataFrame"],
) -> ray.data.Dataset:
    """N-sided co-partitioned join: ``join_fn({side: frame})`` once per block.

    ``sides`` maps a side name to ``(dataset, on, {column: dtype})``: the
    side's join-key columns ``on`` (the same number on every side, the
    i-th of one dtype across sides) and every column it carries, ``on``
    included.  Each side's rows are cast to its dtypes, its keys take the
    shared sort-key names, the columns it lacks are filled (so the union
    has one schema) and a side tag is added; the union is co-located on the
    keys.  ``join_fn`` then gets, per block, one frame per side with
    exactly that side's columns under their own names — empty when the
    block holds none of the side's rows — and every row of one key tuple,
    on every side, is in the same call.  It may return pandas or Arrow."""
    n_keys = len(next(iter(sides.values()))[1])
    keys = [f"__key{i}" for i in range(n_keys)]
    cols: dict[str, str] = {}  # union column → dtype
    renames = []  # per side: own column → union column
    for name, (_, on, dtypes) in sides.items():
        if len(on) != n_keys:
            raise ValueError(f"side {name!r} joins on {len(on)} keys, not {n_keys}")
        rename = {c: f"{name}.{c}" for c in dtypes} | dict(zip(on, keys))
        for c, t in dtypes.items():
            if cols.setdefault(rename[c], t) != t:
                raise ValueError(f"side {name!r} key {c!r} is {t}, not {cols[rename[c]]}")
        renames.append(rename)
    order = list(cols) + [_SIDE]

    def tagger(code: int, dtypes: dict[str, str]):
        def tag(df: pd.DataFrame) -> pd.DataFrame:
            out = df[list(dtypes)].astype(dtypes).rename(columns=renames[code])
            for c, t in cols.items():
                if c not in out:
                    out[c] = _fill(t, len(out))
            out[_SIDE] = np.int8(code)
            return out[order]

        return tag

    tagged = [
        ds.map_batches(tagger(code, dtypes), batch_format="pandas")
        for code, (ds, _, dtypes) in enumerate(sides.values())
    ]
    backs = [{u: c for c, u in rename.items()} for rename in renames]

    def block(df: pd.DataFrame):
        side = df[_SIDE].to_numpy()
        return join_fn(
            {
                name: df.loc[side == code, list(back)].rename(columns=back)
                .reset_index(drop=True)
                for code, (name, back) in enumerate(zip(sides, backs))
            }
        )

    # one binary union per side: Ray's n-ary union copies every input's
    # stats lineage, which compounds in a loop that feeds its output back
    # in (label propagation: 2291 stats operators after 7 rounds, not 75)
    union = tagged[0]
    for t in tagged[1:]:
        union = union.union(t)
    return colocate(union, keys, block)


def grouped_block_map(
    ds: ray.data.Dataset,
    keys: list[str],
    group_fn: Callable[[pd.DataFrame], pd.DataFrame],
    drop_singletons: bool = False,
) -> ray.data.Dataset:
    """``colocate`` → per-block pandas groupby → ``group_fn`` per group.

    ``drop_singletons``: vectorized pre-drop of all single-row groups
    before the per-group loop — for group functions whose output is empty
    on singleton groups (pair emitters, bucket verifies).  LSH bucket keys
    are mostly singletons, so this removes ~95% of the per-group dispatch
    overhead (measured ~0.1 ms/group)."""

    def block(df: pd.DataFrame) -> pd.DataFrame:
        if drop_singletons and len(df):
            df = df[df.duplicated(keys, keep=False)]
        if len(df) == 0:
            return group_fn(df)
        outs = []
        empty = None
        for _, g in df.groupby(keys, sort=False):
            r = group_fn(g)
            if len(r):
                outs.append(r)
            elif empty is None:
                empty = r
        if outs:
            return pd.concat(outs, ignore_index=True)
        return empty if empty is not None else group_fn(df.iloc[0:0])

    return colocate(ds, keys, block)


def grouped_block_dedup(
    ds: ray.data.Dataset,
    keys: list[str],
    order: list[str] | None = None,
) -> ray.data.Dataset:
    """Global keep-one-row-per-key with ZERO per-group dispatch.

    ``grouped_block_map(ds, keys, lambda g: g.head(1))`` pays the
    ~0.1 ms/group Python call — ruinous when groups ≈ rows (a 50M-pair
    dedup measured 80+ minutes in it).  Here the co-location is by EXACTLY
    ``keys`` (the invariant applies to the full sort tuple only), then each
    block vectorizes: an in-block ``sort_values(keys + order)`` (complete
    per key, since the block holds all of the key's rows) followed by
    ``drop_duplicates(keys)``.

    ``order=None``: any of the key's rows may be kept — use only when rows
    of one key are identical.  ``order=[cols]``: the kept row is the
    global minimum in ``order`` (winner-pick, e.g. min doc_id)."""

    def block(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return df
        if order:
            df = df.sort_values(keys + order, kind="mergesort")
        return df.drop_duplicates(keys, keep="first")

    return colocate(ds, keys, block)


def grouped_block_sum(
    ds: ray.data.Dataset,
    keys: list[str],
    sums: dict[str, str],
) -> ray.data.Dataset:
    """Global grouped SUM with ZERO per-group dispatch — the fast
    replacement for ``groupby(keys).aggregate(Sum(col))`` when groups are
    many: Ray's aggregate REDUCE step pays a per-key merge loop that
    measured ~1.5 s/task at 50k groups (r5 session 4, events value
    histogram), while ``colocate`` + one vectorized in-block pandas
    groupby-sum does the identical merge in milliseconds: every key's rows
    are in one block, so the block-local sum IS the global sum.

    ``sums`` maps input column → output column name.  Use only for
    reorder-safe sums (ints, or floats whose partials are exact — the
    caller owns that proof, same as with Ray's Sum)."""

    cols = list(sums)

    def block(df: pd.DataFrame) -> pd.DataFrame:
        # pandas groupby on an empty frame still yields the right columns
        g = df.groupby(keys, as_index=False, sort=False)[cols].sum()
        return g.rename(columns=sums)

    return colocate(ds, keys, block)
