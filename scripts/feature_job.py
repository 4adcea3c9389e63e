"""Epoch-driven decayed-counter job — the CLI surface for
stages/featstate.py (the feature-store serving state of
stages/windows.py:decayed_counts).

    python scripts/feature_job.py --state /tmp/fstate --epoch day1 \
        --input /root/testdata/sf0.01/events.parquet
    python scripts/feature_job.py --state /tmp/fstate --read

`--kind hll` maintains the approximate-distinct state instead
(stages/hllstate.py: per-key HyperLogLog registers over --value-col;
the read prints (key, est) estimates).

Re-running a recorded epoch is a no-op; the epoch commit is atomic
(versioned count files + state-JSON commit point). Geometry
(half-life, cap) and the key column are pinned by the first epoch.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--state", required=True, help="counter state dir")
    ap.add_argument("--input", help="events parquet (file or dir)")
    ap.add_argument("--epoch", help="epoch name for this ingest")
    ap.add_argument("--kind", choices=("decay", "hll", "hist"),
                    default="decay",
                    help="state kind: decayed counters (default), HLL "
                         "approximate-distinct registers, or per-key "
                         "value histograms (exact bucket counts)")
    ap.add_argument("--key-col", default="user_id")
    ap.add_argument("--ts-col", default="ts")
    ap.add_argument("--value-col", default="event_type",
                    help="(--kind hll) the column whose per-key distinct "
                         "count the state tracks")
    ap.add_argument("--hll-p", type=int, default=12)
    ap.add_argument("--hist-width", type=int, default=500,
                    help="(--kind hist) bucket width in cents")
    ap.add_argument("--hist-value-col", default="value",
                    help="(--kind hist) numeric column to histogram")
    ap.add_argument("--half-life", type=int, default=48,
                    help="half-life hours")
    ap.add_argument("--cap", type=int, default=30,
                    help="max half-lives of decay (older events weigh 1)")
    ap.add_argument("--read", action="store_true",
                    help="print the serving view (key, n_events, "
                         "decayed_num)")
    ap.add_argument("--num-cpus", type=int,
                    default=int(os.environ.get("RAY_GRAFT_CPUS", "32")))
    args = ap.parse_args()

    import ray

    if not ray.is_initialized():
        # CEE_RAY_ADDRESS: connect to an existing cluster (multi-node —
        # see RUNBOOK.md); num_cpus only applies to a private session
        addr = os.environ.get("CEE_RAY_ADDRESS", "local")
        kw = {"num_cpus": args.num_cpus} if addr == "local" else {}
        ray.init(address=addr, include_dashboard=False, **kw)
    import ray.data

    from calendar_event_entity_extraction_ray.stages import featstate as fs
    from calendar_event_entity_extraction_ray.stages import histstate as Hs
    from calendar_event_entity_extraction_ray.stages import hllstate as hs
    from calendar_event_entity_extraction_ray.stages import keyedstate as ks

    if args.input:
        if not args.epoch:
            ap.error("--epoch is required with --input")
        if args.kind == "hll":
            import pyarrow as pa

            ds = ray.data.read_parquet(
                args.input, columns=[args.key_col, args.value_col])
            ds = ds.map_batches(
                lambda b: pa.table({
                    "k": b.column(args.key_col).cast(pa.string()),
                    "v": b.column(args.value_col).cast(pa.string())}),
                batch_format="pyarrow")
            s = hs.hll_distinct_epoch(ds, args.state, args.epoch,
                                      "k", "v", p=args.hll_p)
        elif args.kind == "hist":
            ds = ray.data.read_parquet(
                args.input,
                columns=[args.key_col, args.hist_value_col])
            s = Hs.hist_epoch(ds, args.state, args.epoch,
                              key_col=args.key_col,
                              value_col=args.hist_value_col,
                              width_cents=args.hist_width)
        else:
            ds = ray.data.read_parquet(
                args.input, columns=[args.key_col, args.ts_col])
            s = fs.decayed_counter_epoch(
                ds, args.state, args.epoch, key_col=args.key_col,
                ts_col=args.ts_col, half_life_hours=args.half_life,
                cap=args.cap)
        print({"epoch": args.epoch, **s})

    if args.read:
        if args.kind == "hist":
            t = Hs.read_quantiles(args.state)
            print(t.to_string(index=False, max_rows=30))
            print({"keys": len(t), "epochs": ks.load_state(
                Hs.STORE, args.state)["epochs"]})
        elif args.kind == "hll":
            t = hs.read_hll_distinct(args.state)
            t = t.sort_values("est", ascending=False)
            print(t.to_string(index=False, max_rows=30))
            print({"keys": len(t), "epochs": ks.load_state(
                hs.STORE, args.state)["epochs"]})
        else:
            t = fs.read_decayed_counters(args.state).to_pandas()
            t = t.sort_values("decayed_num", ascending=False)
            print(t.to_string(index=False, max_rows=30))
            print({"keys": len(t), "ref_us": ks.load_state(
                fs.STORE, args.state).get("ref_us")})

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
