"""Local emulation of the driver's correctness gate.

Runs every ``queries()`` entry at the given sf dir, converts to pandas,
runs the matching ``oracle_sql()`` through DuckDB over the same parquet
views, and compares row count, column set and order-insensitive values.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]))

TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_pandas(result):
    import pandas as pd
    import pyarrow as pa
    import ray.data

    if isinstance(result, ray.data.Dataset):
        return result.to_pandas()
    if isinstance(result, pa.Table):
        return result.to_pandas()
    assert isinstance(result, pd.DataFrame), type(result)
    return result


def normalize(df):
    import pandas as pd

    df = df.copy()
    for col in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[col]):
            df[col] = df[col].astype("datetime64[us]").astype("int64")
        elif pd.api.types.is_float_dtype(df[col]):
            df[col] = df[col].round(9)
        elif pd.api.types.is_integer_dtype(df[col]):
            df[col] = df[col].astype("int64")
    df = df[sorted(df.columns)]
    df = df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)
    return df


def main() -> int:
    import duckdb
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as e

    # oracles that inline a corpus constant (embedding dim, derived pages
    # path) read it from SF_ORACLE: point it at the corpus under check
    e.SF_ORACLE = sf_dir
    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    queries = e.queries()
    oracles = e.oracle_sql()
    failures = 0
    for name, fn in queries.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = normalize(to_pandas(fn(sf_dir)))
        except Exception as exc:  # noqa: BLE001
            print(f"[FAIL] {name}: query raised {type(exc).__name__}: {exc}")
            failures += 1
            continue
        elapsed = time.time() - t0
        if name not in oracles:
            print(f"[rows] {name}: {len(got)} rows, cols={list(got.columns)} ({elapsed:.1f}s)")
            continue
        want = normalize(con.execute(oracles[name]).fetchdf())
        status = "OK"
        if list(got.columns) != list(want.columns):
            status = f"SCHEMA MISMATCH got={list(got.columns)} want={list(want.columns)}"
        elif len(got) != len(want):
            status = f"ROWCOUNT MISMATCH got={len(got)} want={len(want)}"
        elif not got.equals(want):
            neq = (got != want).any(axis=1)
            status = f"VALUE MISMATCH on {int(neq.sum())}/{len(got)} rows"
            if int(neq.sum()) == 0:
                status += f" (dtype-only: got={dict(got.dtypes.astype(str))} want={dict(want.dtypes.astype(str))})"
            else:
                print(got[neq].head(3))
                print(want[neq].head(3))
        if status != "OK":
            failures += 1
            print(f"[FAIL] {name}: {status}")
        else:
            print(f"[ OK ] {name}: {len(got)} rows ({elapsed:.1f}s)")
    ray.shutdown()
    print("failures:", failures)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
