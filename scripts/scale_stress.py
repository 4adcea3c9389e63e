"""Memory-pressure scale stress: run the flagship and the exchange-based
wide ops with a DELIBERATELY small object store so blocks exceed plasma
and Ray's disk spill + the exchange's filesystem spill actually engage —
the regime a 100 TB run lives in, which the ordinary benchmarks (data
<< 128 GiB sandbox) never touch.

One invocation = one op at one scale in a fresh Ray session, so spill
stats and driver RSS are per-run. Drive a sweep from bash:

    for n in 12500000 25000000 50000000; do
        python scripts/scale_stress.py --op grouped_count --rows $n \
            --store-gb 2
    done
    python scripts/scale_stress.py --op hash_join --rows 20000000 --store-gb 2
    python scripts/scale_stress.py --op kg --rows 2000000 --store-gb 2

Each op verifies an exact closed-form expectation (row counts are
computable from the synthetic layout), so a spill-induced wrong answer
fails loudly, not silently. Output: one JSON line with wall seconds,
rows/sec, driver max-RSS, and the session's plasma disk-spill footprint
(ray_spilled_objects_* file count/bytes).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

sys.path.insert(0, ".")

import numpy as np
import pyarrow as pa

PAYLOAD = 96  # bytes of string payload per row — makes the stream big


def _spill_stats() -> dict:
    """Plasma disk-spill footprint for this session: walk the session's
    ray_spilled_objects_* dirs (the gRPC memory-summary API is not
    available in this container)."""
    import os

    import ray

    try:
        sess = ray._private.worker._global_node.get_session_dir_path()
    except Exception:
        return {}
    n_files = 0
    n_bytes = 0
    for root, _dirs, files in os.walk(sess):
        if "ray_spilled_objects" in os.path.basename(root):
            for f in files:
                try:
                    n_bytes += os.path.getsize(os.path.join(root, f))
                    n_files += 1
                except OSError:
                    pass
    return {"spilled_files": n_files, "spilled_mib": n_bytes >> 20}


def synth_keyed(batch: pa.Table, n_keys: int) -> pa.Table:
    """Row i -> (key = i % n_keys, val = i, payload 96B) — every key
    appears exactly rows/n_keys times when n_keys divides rows."""
    ids = batch.column("id").to_numpy()
    pad = "x" * PAYLOAD
    return pa.table({
        "k": pa.array((ids % n_keys).astype(np.int64)),
        "v": pa.array(ids.astype(np.int64)),
        "payload": pa.array([pad] * len(ids), pa.string()),
    })


def op_grouped_count(rows: int, n_keys: int, blocks: int) -> dict:
    import ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    ds = ray.data.range(rows, override_num_blocks=blocks).map_batches(
        synth_keyed, fn_kwargs={"n_keys": n_keys},
        batch_format="pyarrow")
    out = grouped_count(ds, "k", out_col="n")
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


def op_hash_join(rows: int, n_keys: int, blocks: int) -> dict:
    """Left keeps every key, right shifts the low half out of range —
    exactly half the keys match, so output rows = rows/2 * (per^2/per)…
    with per = rows // n_keys occurrences per side per key, matched keys
    produce per*per pairs each: total = (n_keys/2) * per * per."""
    import ray

    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    def mk(side: str):
        def f(b: pa.Table) -> pa.Table:
            ids = b.column("id").to_numpy()
            a = ids % n_keys
            if side == "r":
                a = np.where(a < n_keys // 2, a + n_keys, a)
            pad = "x" * PAYLOAD
            return pa.table({
                "k": pa.array(a.astype(np.int64)),
                ("lv" if side == "l" else "rv"):
                    pa.array(ids.astype(np.int64)),
                "payload": pa.array([pad] * len(ids), pa.string()),
            })
        return ray.data.range(rows, override_num_blocks=blocks
                              ).map_batches(f, batch_format="pyarrow")

    out = hash_join(mk("l"), mk("r"), key="k",
                    left_cols=["k", "lv"], right_cols=["k", "rv"])
    per = rows // n_keys
    want = (n_keys - n_keys // 2) * per * per
    got = out.count()
    assert got == want, (got, want)
    return {"verified_join_rows": got}


def op_materialize(rows: int, n_keys: int, blocks: int) -> dict:
    """Pin a dataset BIGGER than the object store in plasma
    (ds.materialize()) — the one shape that must hit disk spill (the
    streaming ops never fill the store; backpressure is why). Verifies
    an exact aggregate over the spilled-and-restored blocks."""
    import ray

    ds = ray.data.range(rows, override_num_blocks=blocks).map_batches(
        synth_keyed, fn_kwargs={"n_keys": n_keys},
        batch_format="pyarrow").materialize()
    total = 0
    for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
        total += int(b.column("v").to_numpy().sum())
    want = rows * (rows - 1) // 2
    assert total == want, (total, want)
    return {"verified_sum": total}


def op_kg(rows: int, blocks: int) -> dict:
    import shutil

    import ray

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        materialize_graph,
    )

    out_dir = "/tmp/graft_stress/graph"
    shutil.rmtree(out_dir, ignore_errors=True)
    ids = ray.data.range(rows, override_num_blocks=blocks)
    triples = kg_triples(ids, gen_seed=42)
    manifest = materialize_graph(
        triples, out_dir, fingerprint=f"stress-{rows}",
        num_partitions=max(16, rows // 50_000))
    n = sum(e["rows"] for e in manifest["partitions"].values())
    assert n > rows  # several triples per page
    return {"n_triples": n}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--op", required=True,
                    choices=["grouped_count", "hash_join", "kg",
                             "materialize"])
    ap.add_argument("--rows", type=int, default=25_000_000)
    ap.add_argument("--keys", type=int, default=5_000_000)
    ap.add_argument("--store-gb", type=float, default=2.0,
                    help="object store cap (GiB) — small ON PURPOSE")
    ap.add_argument("--num-cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    ray.init(address="local", num_cpus=args.num_cpus,
             include_dashboard=False, logging_level="ERROR",
             object_store_memory=int(args.store_gb * (1 << 30)))
    import logging

    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    # ray.data INFO lines land on stdout — silence them so the one JSON
    # contract line is the only stdout
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    blocks = max(args.num_cpus * 4, 8)
    rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    t0 = time.time()
    if args.op == "grouped_count":
        extra = op_grouped_count(args.rows, args.keys, blocks)
    elif args.op == "hash_join":
        extra = op_hash_join(args.rows, args.keys, blocks)
    elif args.op == "materialize":
        extra = op_materialize(args.rows, args.keys, blocks)
    else:
        extra = op_kg(args.rows, blocks)
    wall = time.time() - t0
    rss1 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024

    out = {"op": args.op, "rows": args.rows, "wall_sec": round(wall, 2),
           "rows_per_sec": int(args.rows / wall),
           "store_gb": args.store_gb, "num_cpus": args.num_cpus,
           "driver_maxrss_mb_before": rss0,
           "driver_maxrss_mb_after": rss1, **extra, **_spill_stats()}
    print(json.dumps(out))
    ray.shutdown()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
