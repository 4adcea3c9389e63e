"""Memory-pressure stress: the flagship and the exchange-based wide ops
under a deliberately small object store."""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import ray

from calendar_event_entity_extraction_ray.pipelines.kg import (
    kg_triples,
    materialize_graph,
)
from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count
from calendar_event_entity_extraction_ray.stages.joins import hash_join

from . import maxrss_mb

PAYLOAD = 96  # bytes of string payload per row: makes the stream big


def synth_keyed(batch: pa.Table, n_keys: int) -> pa.Table:
    """Row i -> (key = i % n_keys, val = i, payload 96B) — every key
    appears exactly rows/n_keys times when n_keys divides rows."""
    ids = batch.column("id").to_numpy()
    return pa.table({
        "k": pa.array((ids % n_keys).astype(np.int64)),
        "v": pa.array(ids.astype(np.int64)),
        "payload": pa.array(["x" * PAYLOAD] * len(ids), pa.string()),
    })


def _keyed(ctx, rows: int, n_keys: int):
    return ray.data.range(rows, override_num_blocks=ctx.blocks).map_batches(
        synth_keyed, fn_kwargs={"n_keys": n_keys}, batch_format="pyarrow")


def _grouped_count(ctx, rows: int, n_keys: int) -> dict:
    out = grouped_count(_keyed(ctx, rows, n_keys), "k", out_col="n")
    # closed form with remainder: keys below rows % n_keys count
    # rows//n_keys + 1, the rest rows//n_keys
    lo, rem = rows // n_keys, rows % n_keys
    n_groups = n_hi = n_lo = 0
    total = 0
    for b in out.iter_batches(batch_format="pyarrow", batch_size=None):
        n_groups += b.num_rows
        cnt = b.column("n").to_numpy()
        total += int(cnt.sum())
        n_hi += int((cnt == lo + 1).sum())
        n_lo += int((cnt == lo).sum())
    assert n_groups == n_keys, (n_groups, n_keys)
    assert total == rows, (total, rows)
    assert n_hi == rem and n_lo == n_keys - rem, (n_hi, n_lo, rem)
    return {"verified_groups": n_groups}


def _hash_join(ctx, rows: int, n_keys: int) -> dict:
    """Left keeps every key, right shifts the low half out of range, so
    exactly half the keys match. With per = rows // n_keys occurrences
    per side per key, each matched key yields per*per pairs: total =
    (n_keys - n_keys/2) * per * per."""
    def mk(side: str):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("id").to_numpy()
            a = ids % n_keys
            if side == "r":
                a = np.where(a < n_keys // 2, a + n_keys, a)
            return pa.table({
                "k": pa.array(a.astype(np.int64)),
                ("lv" if side == "l" else "rv"):
                    pa.array(ids.astype(np.int64)),
                "payload": pa.array(["x" * PAYLOAD] * len(ids), pa.string()),
            })
        return ray.data.range(rows, override_num_blocks=ctx.blocks
                              ).map_batches(f, batch_format="pyarrow")

    out = hash_join(mk("l"), mk("r"), key="k",
                    left_cols=["k", "lv"], right_cols=["k", "rv"])
    per = rows // n_keys
    want = (n_keys - n_keys // 2) * per * per
    got = out.count()
    assert got == want, (got, want)
    return {"verified_join_rows": got}


def _materialize(ctx, rows: int, n_keys: int) -> dict:
    """Pin a dataset BIGGER than the object store in plasma
    (ds.materialize()) — the one shape that must hit disk spill (the
    streaming ops never fill the store; backpressure is why). Verifies
    an exact aggregate over the spilled-and-restored blocks."""
    ds = _keyed(ctx, rows, n_keys).materialize()
    total = 0
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        total += int(b.column("v").to_numpy().sum())
    want = rows * (rows - 1) // 2
    assert total == want, (total, want)
    return {"verified_sum": total}


def _kg(ctx, rows: int, n_keys: int) -> dict:
    ids = ray.data.range(rows, override_num_blocks=ctx.blocks)
    manifest = materialize_graph(
        kg_triples(ids, gen_seed=42), os.path.join(ctx.work_dir, "graph"),
        fingerprint=f"stress-{rows}", num_partitions=max(16, rows // 50_000))
    n = sum(e["rows"] for e in manifest["partitions"].values())
    assert n > rows  # several triples per page
    return {"n_triples": n}


KINDS = {"grouped_count": _grouped_count, "hash_join": _hash_join,
         "kg": _kg, "materialize": _materialize}


def stress(ctx, *, kind="grouped_count", rows=25_000_000, keys=5_000_000,
           store_gb=2.0) -> dict:
    """Memory-pressure stress (--kind grouped_count|hash_join|kg|materialize).

    Runs the flagship and the exchange-based wide ops with a DELIBERATELY
    small object store (--store-gb, 2 GiB by default) so blocks exceed
    plasma and Ray's disk spill plus the exchange's filesystem spill
    actually engage: the regime a 100 TB run lives in, which the ordinary
    benchmarks (data << 128 GiB sandbox) never touch.

    Each kind verifies an exact closed-form expectation (row counts are
    computable from the synthetic layout: grouped_count's per-key counts,
    hash_join's matched pairs, materialize's sum of ids, kg's more triples
    than pages), so a spill-induced wrong answer fails loudly. Reports
    wall seconds, rows/sec, driver max-RSS before and after, and the
    session's plasma disk-spill footprint (spilled_files/spilled_mib).
    """
    rss0 = maxrss_mb()
    t0 = time.time()
    extra = KINDS[kind](ctx, rows, keys)
    wall = time.time() - t0
    return {"op": kind, "rows": rows, "wall_sec": round(wall, 2),
            "rows_per_sec": int(rows / wall), "store_gb": store_gb,
            "driver_maxrss_mb_before": rss0,
            "driver_maxrss_mb_after": maxrss_mb(), **extra, "ok": True}
