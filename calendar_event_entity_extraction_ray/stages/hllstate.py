"""Epoch-incremental approximate-distinct state — per-key HyperLogLog
registers kept across crawl epochs (the feature-store "distinct users /
distinct sources per key" serving state; epoch protocol:
stages/keyedstate.py).

Counters (stages/featstate.py) add; HLL registers take an elementwise
MAX — commutative, associative AND idempotent, so the state is exactly
order-independent and even double-folding a crashed epoch cannot
corrupt it. The state is SPARSE (key, bucket, rank) rows — at most
min(n_distinct, 2^p) per key, so small keys cost a few rows, not a 2^p
register block. The value hash is the vectorized process-stable siphash
(``pd.util.hash_pandas_object``), NOT functions/sketch.py's per-row md5
(CLAUDE.md: never per-row md5 in hot paths); the estimator is the same
standard HLL. Tests pin multi-epoch state == the batch twin
``_register_rows``'s registers bit-for-bit."""

from __future__ import annotations

import math

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from calendar_event_entity_extraction_ray.functions.dedup import group_fold
from calendar_event_entity_extraction_ray.stages import keyedstate as ks

STORE = ks.KeyedStore("_HLLSTATE.json", "hll", "bucket", "rank", "max",
                      key="k")


def _bit_length(v: np.ndarray) -> np.ndarray:
    """Vectorized uint64 bit_length."""
    v = v.copy()
    bl = np.zeros(v.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        m = v >= (np.uint64(1) << np.uint64(s))
        bl[m] += s
        v[m] >>= np.uint64(s)
    bl += (v > 0)
    return bl


def _empty_registers() -> pd.DataFrame:
    return pd.DataFrame({"k": pd.Series(dtype=object),
                         "bucket": pd.Series(dtype="int64"),
                         "rank": pd.Series(dtype="int64")})


def hll_rows(keys: pa.ChunkedArray, values: list, p: int) -> pa.Table:
    """Sparse HLL partial: (k, bucket, rank) with per-(key, bucket) max
    rank (``group_fold``) — one vectorized pass. None values are
    skipped."""
    v = pd.Series(values)
    keep = v.notna().to_numpy()
    h = pd.util.hash_pandas_object(
        v[keep].astype(str), index=False).to_numpy()  # uint64 siphash
    rest = h & ((np.uint64(1) << np.uint64(64 - p)) - np.uint64(1))
    t = pa.table({"k": keys.filter(pa.array(keep)),
                  "bucket": (h >> np.uint64(64 - p)).astype(np.int64),
                  "rank": (64 - p) - _bit_length(rest) + 1})
    return group_fold(t, ["k", "bucket"], {"rank": ("rank", "max")})


def hll_estimate(buckets: np.ndarray, ranks: np.ndarray, p: int) -> float:
    """Standard HLL estimate from one key's sparse register rows."""
    m = float(1 << p)
    zeros = (1 << p) - len(buckets)
    s = float(np.sum(2.0 ** -ranks.astype(np.float64))) + float(zeros)
    alpha = 0.7213 / (1 + 1.079 / m)
    e = alpha * m * m / s
    if e <= 2.5 * m and zeros:
        e = m * math.log(m / zeros)
    return e


def _partials(ds, key_col: str, value_col: str, p: int):
    return ds.map_batches(
        lambda b: hll_rows(b.column(key_col),
                           b.column(value_col).to_pylist(), p),
        batch_format="pyarrow")


def _register_rows(ds, key_col: str, value_col: str, p: int,
                   num_partitions=None) -> pd.DataFrame:
    """Batch twin of the state store: the same partial and merge over
    the whole input through one exchange, writing no files."""
    df = ks.keyed_map(_partials(ds, key_col, value_col, p), "k",
                      lambda t: ks.merge_rows(STORE, t, "k"),
                      num_partitions=num_partitions).to_pandas()
    if "k" not in df.columns:   # all-empty dataset drops columns
        df = _empty_registers()
    return df


def hll_distinct_epoch(
    ds: "ray.data.Dataset",
    state_dir: str,
    epoch: str,
    key_col: str,
    value_col: str,
    p: int = 12,
    num_partitions: int = 16,
) -> dict:
    """Ingest one epoch of (key, value) into the distinct-count state.
    Geometry (p) pinned by the first epoch; epoch re-runs are no-ops."""
    return ks.run_epoch(
        STORE, state_dir, epoch, {"p": int(p)}, num_partitions,
        lambda state: (_partials(ds, key_col, value_col, int(p)), None))


def read_hll_registers(state_dir: str) -> pd.DataFrame:
    """The raw sparse register table (k, bucket, rank) — what the
    state==batch tests compare bit-for-bit."""
    state = ks.load_state(STORE, state_dir)
    if not state["files"]:
        return _empty_registers()
    t = ks.read_table(STORE, state_dir, state)
    return (t.to_pandas().sort_values(["k", "bucket"])
            .reset_index(drop=True))


def read_hll_distinct(state_dir: str) -> pd.DataFrame:
    """Serving read: (key, est) from the state registers."""
    p = int((ks.load_state(STORE, state_dir)["params"] or {"p": 12})["p"])
    rows = []
    for k, grp in read_hll_registers(state_dir).groupby(
            "k", dropna=False, sort=True):
        rows.append((k, hll_estimate(grp["bucket"].to_numpy(),
                                     grp["rank"].to_numpy(), p)))
    return pd.DataFrame(rows, columns=["key", "est"])
