"""Epoch-incremental SemDeDup job — the CLI surface for
stages/embstore.py (cross-epoch embedding near-dup removal against a
persisted per-cell store).

    python scripts/embstore_job.py --store /tmp/estore --epoch day1 \
        --input /root/testdata/sf0.01/embeddings.parquet
    python scripts/embstore_job.py --store /tmp/estore --stats

Ingest drops this epoch's near-dups against all PRIOR epochs (+
within-epoch, smallest id wins), records the survivors and optionally
writes them to --out as parquet. Centroid geometry is pinned by the
first epoch; re-running a recorded epoch is a no-op returning its
recorded survivors.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--store", required=True, help="embedding store dir")
    ap.add_argument("--input", help="embeddings parquet (file or dir)")
    ap.add_argument("--epoch", help="epoch name for this ingest")
    ap.add_argument("--out", help="also write survivors here as parquet")
    ap.add_argument("--id-col", default="vec_id")
    ap.add_argument("--vec-col", default="embedding")
    ap.add_argument("--cells", type=int, default=8)
    ap.add_argument("--tau", type=float, default=0.3)
    ap.add_argument("--stats", action="store_true",
                    help="print store stats and exit")
    ap.add_argument("--compact", action="store_true",
                    help="fold epoch files into one per cell "
                         "(membership unchanged) and exit")
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

    from calendar_event_entity_extraction_ray.stages import embstore as EB

    if args.compact:
        m = EB.compact_store(args.store)
        print(json.dumps({
            "compacted_epochs": m.get("compacted_epochs", []),
            "rows": EB.store_rows(args.store)}))
        ray.shutdown()
        return 0

    if args.stats:
        m = EB.STATE.load(args.store)
        print(json.dumps({
            "epochs": sorted(m["epochs"]),
            "rows": EB.store_rows(args.store),
            "params": m.get("params"),
        }))
        ray.shutdown()
        return 0

    if not args.input or not args.epoch:
        ap.error("--input and --epoch are required for ingest")
    ds = ray.data.read_parquet(args.input,
                               columns=[args.id_col, args.vec_col])
    n_in = ds.count()
    surv = EB.dedup_epoch(ds, args.store, args.epoch,
                          id_col=args.id_col, vec_col=args.vec_col,
                          k=args.cells, tau=args.tau)
    n_out = surv.count()
    if args.out:
        surv.write_parquet(args.out)
    print({"epoch": args.epoch, "n_in": n_in, "n_survivors": n_out,
           "n_dropped": n_in - n_out,
           "store_rows": EB.store_rows(args.store)})
    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
