"""Epoch-incremental per-key numeric HISTOGRAM state — per-key value
distributions (quantiles, drift) kept across crawl epochs without
re-reading old events (epoch protocol: stages/keyedstate.py).

Exactness: values scale to integer cents (``floor(v*100 + 0.5)``, the
repo's oracle-parity rule) and bucket to ``cents // width_cents``
(floor division); the state is a sparse (key, bucket, n) count table
whose merge is plain ADDITION. The q-quantile bucket is the smallest
bucket whose cumulative count reaches ``(q * total + 99) // 100``
(integer ceil — bit-identical in numpy and DuckDB, no float rank
arithmetic). A NULL value makes a NULL bucket, as in the SQL oracle: it
counts in the total, sorts after every bucket, and a quantile whose
rank lands only there is NULL."""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from calendar_event_entity_extraction_ray.functions.dedup import group_fold
from calendar_event_entity_extraction_ray.stages import keyedstate as ks

STORE = ks.KeyedStore("_HISTSTATE.json", "hist", "bucket", "n", "sum")


def hist_epoch(
    ds: "ray.data.Dataset",
    state_dir: str,
    epoch: str,
    key_col: str = "event_type",
    value_col: str = "value",
    width_cents: int = 500,
    num_partitions: int = 16,
) -> dict:
    """Ingest one epoch of (key, value) rows into the histogram state.
    Geometry (bucket width) and key_col are pinned by the first epoch;
    mismatched parameters are rejected. Returns {noop, n_state_rows}."""
    w = int(width_cents)

    def partial(b: pa.Table) -> pa.Table:
        v = b.column(value_col).cast(pa.float64()).to_numpy(
            zero_copy_only=False)
        null = np.isnan(v)
        cents = np.floor(np.where(null, 0.0, v) * 100.0 + 0.5).astype(
            np.int64)
        t = pa.table({key_col: b.column(key_col),
                      "bucket": pa.array(cents // w, pa.int64(),
                                         mask=null)})
        return group_fold(t, [key_col, "bucket"], {"n": (None, "count_all")})

    return ks.run_epoch(
        STORE, state_dir, epoch, {"width_cents": w, "key_col": key_col},
        num_partitions,
        lambda state: (ds.map_batches(partial, batch_format="pyarrow"),
                       None))


def read_histograms(state_dir: str) -> "ray.data.Dataset":
    """The raw sparse bucket table (key, bucket, n) as a Dataset."""
    return ks.read_dataset(STORE, state_dir,
                           ks.load_state(STORE, state_dir))


def quantile_table(df: pd.DataFrame, key_col: str,
                   qs: "List[int]") -> pd.DataFrame:
    """Per-key quantile BUCKETS from a (key, bucket, n) frame — the
    shared kernel of the distributed fold and the SQL oracle's replay:
    rank(q) = (q * total + 99) // 100 (1-based integer ceil), answer =
    the smallest bucket whose cumulative count >= rank. Vectorized:
    sort, grouped cumsum, boolean first-hit per key. NULL buckets sort
    last and ``first()`` skips them, so a rank that only the NULL
    bucket reaches gives NULL — SQL's MIN over the hits."""
    df = df.sort_values([key_col, "bucket"], kind="stable")
    g = df.groupby(key_col, dropna=False, sort=True)
    cum = g["n"].cumsum()
    total = g["n"].transform("sum")
    out = g.agg(n_total=("n", "sum")).reset_index()
    for q in qs:
        rank = (int(q) * total + 99) // 100
        hit = df[cum >= rank]
        qb = (hit.groupby(key_col, dropna=False, sort=True)["bucket"]
              .first().reset_index(name=f"q{q}_bucket"))
        out = out.merge(qb, on=key_col, how="left")
        col = out[f"q{q}_bucket"]
        out[col.name] = col.astype("int64" if col.notna().all()
                                   else "Int64")
    out["n_total"] = out["n_total"].astype("int64")
    return out


def read_quantiles(state_dir: str,
                   qs: "Optional[List[int]]" = None) -> pd.DataFrame:
    """Serving read: per-key (n_total, q<q>_bucket ...) computed from
    the bounded bucket table — one exchange fold per state partition
    (keys co-locate by construction), never the events. The key column
    is the one the first epoch pinned."""
    qs = qs or [50, 90, 99]
    state = ks.load_state(STORE, state_dir)
    counts = ks.read_dataset(STORE, state_dir, state)
    key_col = STORE.key_col(state)

    def fold(t: pa.Table) -> pa.Table:
        df = t.select([key_col, "bucket", "n"]).to_pandas()
        return pa.Table.from_pandas(quantile_table(df, key_col, qs),
                                    preserve_index=False)

    out = ks.keyed_map(counts, key_col, fold).to_pandas()
    return out.sort_values(key_col, kind="stable").reset_index(drop=True)
