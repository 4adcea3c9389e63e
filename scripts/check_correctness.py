"""Local mimic of the driver's correctness gate: run each queries() entry at
sf0.01 and compare row-count / schema / order-insensitive value-hash against
oracle_sql() via DuckDB.

Usage: python scripts/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import sys
import time

import duckdb
import pandas as pd

sys.path.insert(0, ".")

TABLES = ["region", "nation", "customer", "supplier", "part", "orders",
          "lineitem", "events", "documents", "embeddings"]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa

    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def value_hash(df: pd.DataFrame) -> str:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        df[c] = df[c].astype(str)
    rows = sorted(df.apply(lambda r: "\x1f".join(r.values), axis=1).tolist())
    return hashlib.md5("\n".join(rows).encode()).hexdigest()


def main() -> int:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR")
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as entrymod

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM '{sf_dir}/{t}.parquet'")

    qs = entrymod.queries()
    sqls = entrymod.oracle_sql()
    failures = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = to_pandas(fn(sf_dir))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            failures += 1
            continue
        dt = time.time() - t0
        try:
            exp = con.execute(sqls[name]).df()
        except Exception as e:
            print(f"FAIL {name}: oracle SQL raised {e}")
            failures += 1
            continue
        problems = []
        if len(got) != len(exp):
            problems.append(f"rows {len(got)} != {len(exp)}")
        if sorted(got.columns) != sorted(exp.columns):
            problems.append(f"cols {sorted(got.columns)} != {sorted(exp.columns)}")
        elif value_hash(got) != value_hash(exp):
            problems.append("value-hash mismatch")
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)}  [{dt:.1f}s]")
            failures += 1
        else:
            print(f"ok {name}: {len(got)} rows match  [{dt:.1f}s]")
    ray.shutdown()
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
