"""Scale check for watermarked session windows with planted truth.

Synthesizes K keys x NB bursts x B events (burst span 18 min < 30-min
gap; bursts 1 h apart), splits every burst's events across two epochs by
index parity — so EVERY session must merge across the epoch boundary —
and verifies the final session table against the closed form exactly:
K*NB sessions, each n == B, each (start, end) == the planted burst.

Usage:
    python scripts/scale_session_check.py --keys 100000 --bursts 10 \
        --per-burst 10          # = 10M events

The exchange moves one pre-merged interval per (burst, epoch) — ~2 rows
per planted session — never the event stream; the driver holds only the
final session table (bounded by keys x bursts here because lateness is
infinite; in production the lateness horizon bounds it).
"""

import argparse
import os
import resource
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import numpy as np
import pyarrow as pa


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--keys", type=int, default=100_000)
    ap.add_argument("--bursts", type=int, default=10)
    ap.add_argument("--per-burst", type=int, default=10)
    ap.add_argument("--form", default="session",
                    choices=["session", "tumbling"],
                    help="tumbling: same planted bursts through 1-h "
                         "tumbling windows (each burst = one window's "
                         "count, merged across the epoch split)")
    ap.add_argument("--num-cpus", type=int, default=32)
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=args.num_cpus,
                 include_dashboard=False)
    import ray.data

    from calendar_event_entity_extraction_ray.stages.watermark import (
        session_window_epoch,
        tumbling_window_epoch,
    )

    K, NB, B = args.keys, args.bursts, args.per_burst
    rows = K * NB * B
    hour_us, step_us = 3_600_000_000, 120_000_000

    def synth(b: pa.Table, parity: int) -> pa.Table:
        i = b.column("id").to_numpy()
        k = i % K
        r = i // K
        burst, j = r // B, r % B
        keep = (j % 2) == parity
        ts = burst * hour_us + j * step_us + k
        return pa.table({"event_type": pa.array(k[keep], pa.int64()),
                         "ts": pa.array(ts[keep], pa.int64())})

    import shutil
    import tempfile

    sd = tempfile.mkdtemp(prefix="swm_scale_")
    t0 = time.time()
    try:
        for parity, epoch in ((0, "e0"), (1, "e1")):
            ds = ray.data.range(rows, override_num_blocks=128).map_batches(
                synth, fn_kwargs={"parity": parity},
                batch_format="pyarrow")
            if args.form == "session":
                s = session_window_epoch(
                    ds, sd, epoch, key_col="event_type", ts_col="ts",
                    gap_minutes=30, allowed_lateness_minutes=10**9,
                    late_policy="drop",
                    num_partitions=max(16, args.num_cpus * 2))
            else:
                s = tumbling_window_epoch(
                    ds, sd, epoch, key_col="event_type", ts_col="ts",
                    window_minutes=60, allowed_lateness_minutes=10**9,
                    late_policy="drop",
                    num_partitions=max(16, args.num_cpus * 2))
            assert s["n_late"] == 0, s
        wall = time.time() - t0
        rss_ingest = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss // 1024

        # Verify DISTRIBUTEDLY against the closed form — the driver sees
        # only counts, never the session table (that is the point of the
        # sharded open state: at 1M+ keys the state must not land on
        # the driver). Each planted session is (k, burst*hour+k,
        # +(B-1)*step, n=B); non-overlap per key means row validity +
        # exact row count == exact table equality.
        from calendar_event_entity_extraction_ray.stages.watermark import (
            STATE,
        )

        state = STATE.load(sd)
        shard_paths = [os.path.join(sd, r) for r in
                       state["open_files"] + state["final_files"]]

        def verify(b: pa.Table) -> pa.Table:
            k = b.column("event_type").to_numpy()
            n_ = b.column("n").to_numpy()
            if args.form == "session":
                s_ = b.column("start_us").to_numpy()
                e_ = b.column("end_us").to_numpy()
                rel = s_ - k
                burst = rel // hour_us
                ok = ((n_ == B) & (rel % hour_us == 0) & (burst >= 0)
                      & (burst < NB) & (e_ == s_ + (B - 1) * step_us))
            else:
                ws = b.column("window_start_us").to_numpy()
                burst = ws // hour_us
                ok = ((n_ == B) & (ws % hour_us == 0) & (burst >= 0)
                      & (burst < NB))
            return pa.table({"rows": pa.array([len(k)], pa.int64()),
                             "bad": pa.array([int((~ok).sum())],
                                             pa.int64())})

        chk = ray.data.read_parquet(shard_paths).map_batches(
            verify, batch_format="pyarrow")
        total = chk.sum(["rows", "bad"])
        n_rows, n_bad = int(total["sum(rows)"]), int(total["sum(bad)"])
    finally:
        shutil.rmtree(sd, ignore_errors=True)

    assert n_bad == 0, f"{n_bad} sessions off the closed form"
    assert n_rows == K * NB, (n_rows, K * NB)

    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024
    print({"rows": rows, "sessions": K * NB, "wall_sec": round(wall, 1),
           "events_per_sec": int(rows / wall),
           "driver_maxrss_mb_after_ingest": rss_ingest,
           "driver_maxrss_mb": rss,
           "verified": "exact planted sessions, all merged cross-epoch, "
                       "verified distributedly"})
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
