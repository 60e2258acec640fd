"""Local replica of the driver's correctness gate.

Runs every ``queries()`` entry at sf0.01, runs the matching
``oracle_sql()`` through DuckDB over the same parquet files, and
compares row count, column names/types, and order-insensitive values
(sorted by all columns).  Exit non-zero on any mismatch.

Each line prints the entry's sylk time (the query plus its
``to_pandas()``) apart from its total, which adds the DuckDB oracle and
the comparison; the last line sums the sylk times against the wall
time of the whole run.

Usage: python scripts/check_oracle.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import duckdb
import numpy as np
import pandas as pd
import ray

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def _canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _took(t0: float, sylk_s: float) -> str:
    return f"sylk {sylk_s:.1f}s, total {time.time() - t0:.1f}s"


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True)
    import __ray_entry__ as e

    qs, sql = e.queries(), e.oracle_sql()
    con = duckdb.connect()
    for t in TABLES:
        p = os.path.join(sf_dir, f"{t}.parquet")
        if os.path.exists(p):
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{p}')")

    failures = []
    start, sylk_sum = time.time(), 0.0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = fn(sf_dir)
            got_df = got.to_pandas() if not isinstance(got, pd.DataFrame) else got
        except Exception as ex:  # noqa: BLE001
            failures.append(name)
            print(f"FAIL {name}: query raised {type(ex).__name__}: {ex}")
            continue
        sylk_s = time.time() - t0
        sylk_sum += sylk_s
        if name not in sql:
            print(f"ok   {name}: rows-only ({len(got_df)} rows, "
                  f"{_took(t0, sylk_s)})")
            continue
        try:
            exp_df = con.execute(sql[name]).df()
        except Exception as ex:  # noqa: BLE001
            failures.append(name)
            print(f"FAIL {name}: oracle raised {type(ex).__name__}: {ex}")
            continue
        a, b = _canon(got_df), _canon(exp_df)
        status = []
        if list(a.columns) != list(b.columns):
            status.append(f"columns {list(a.columns)} != {list(b.columns)}")
        elif len(a) != len(b):
            status.append(f"rows {len(a)} != {len(b)}")
        else:
            for c in a.columns:
                av, bv = a[c], b[c]
                if str(av.dtype) != str(bv.dtype):
                    status.append(f"dtype[{c}] {av.dtype} != {bv.dtype}")
                    continue
                if av.dtype == object:
                    neq = ~((av == bv) | (av.isna() & bv.isna()))
                else:
                    neq = ~((av == bv) | (av.isna() & bv.isna()))
                if neq.any():
                    i = int(np.flatnonzero(neq.to_numpy())[0])
                    status.append(
                        f"value[{c}] row {i}: {av.iloc[i]!r} != {bv.iloc[i]!r}")
        if status:
            failures.append(name)
            print(f"FAIL {name}: " + "; ".join(status[:3]))
        else:
            print(f"ok   {name}: {len(a)} rows match oracle "
                  f"({_took(t0, sylk_s)})")
    print(f"\n{len(failures)} failures" + (f": {failures}" if failures else ""))
    print(f"sylk {sylk_sum:.1f}s of {time.time() - start:.1f}s wall")
    return 1 if failures else 0


if __name__ == "__main__":
    rc = main()
    ray.shutdown()
    sys.exit(rc)
