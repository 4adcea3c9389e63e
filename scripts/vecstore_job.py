"""Persisted-IVF vector-store job — the CLI surface for
stages/vecstore.py (build / LSM append / compact / top-k query with
time travel).

    python scripts/vecstore_job.py --store /tmp/vstore build \
        --input /root/testdata/sf0.01/embeddings.parquet --cells 16 --pq-m 4
    python scripts/vecstore_job.py --store /tmp/vstore append \
        --input more.parquet --epoch day2
    python scripts/vecstore_job.py --store /tmp/vstore query \
        --input /root/testdata/sf0.01/embeddings.parquet \
        --query-ids 0,7,13 --k 5 [--as-of day1|base]
    python scripts/vecstore_job.py --store /tmp/vstore compact

Re-running an append epoch already in the manifest is a no-op;
``query --as-of`` reads the store as of an epoch (or the pre-append
"base") and errors by design behind a merge-applied/compacted epoch.
Query vectors come from ``--input`` rows whose id is in ``--query-ids``
(a bounded driver-side read of exactly those rows).
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--store", required=True, help="store directory")
    ap.add_argument("command", choices=["build", "append", "compact",
                                        "query"])
    ap.add_argument("--input", help="parquet with (vec_id, embedding)")
    ap.add_argument("--id-col", default="vec_id")
    ap.add_argument("--vec-col", default="embedding")
    ap.add_argument("--cells", type=int, default=16)
    ap.add_argument("--pq-m", type=int, default=0,
                    help="PQ sub-codebooks per cell file (0 = raw only)")
    ap.add_argument("--epoch", help="epoch name (append)")
    ap.add_argument("--query-ids", default="0",
                    help="comma-separated ids whose vectors become queries")
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--n-probe", type=int, default=4)
    ap.add_argument("--as-of", default=None,
                    help="epoch name or 'base' (query time travel)")
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

    from calendar_event_entity_extraction_ray.stages import vecstore as vs

    def read_input():
        if not args.input:
            ap.error(f"--input is required for {args.command}")
        return ray.data.read_parquet(
            args.input, columns=[args.id_col, args.vec_col])

    if args.command == "build":
        m = vs.build_ivf_store(
            read_input(), args.store, n_cells=args.cells,
            id_col=args.id_col, vec_col=args.vec_col,
            pq_m=(args.pq_m or None))
        print({"store": args.store, "cells": len(m["cells"]),
               "rows": sum(e["rows"] for e in m["cells"].values()),
               "pq": bool(m.get("pq"))})
    elif args.command == "append":
        if not args.epoch:
            ap.error("--epoch is required with append")
        noop = args.epoch in vs.STATE.load(args.store).get("epochs", [])
        m = vs.append_ivf_store(read_input(), args.store, args.epoch)
        print({"store": args.store, "epochs": m.get("epochs", []),
               "noop": noop})
    elif args.command == "compact":
        m = vs.compact_ivf_store(args.store)
        folded = sorted({e for c in m["cells"].values()
                         for e in c.get("compacted_epochs", [])})
        print({"store": args.store, "compacted_epochs": folded,
               "epochs": m.get("epochs", [])})
    else:  # query
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        ids = [int(x) for x in args.query_ids.split(",") if x != ""]
        t = pq.read_table(args.input, columns=[args.id_col, args.vec_col],
                          filters=[(args.id_col, "in", ids)])
        order = {int(v): i for i, v in
                 enumerate(t.column(args.id_col).to_pylist())}
        missing = [i for i in ids if i not in order]
        if missing:
            ap.error(f"query ids not in input: {missing}")
        mat = np.asarray(
            [t.column(args.vec_col)[order[i]].as_py() for i in ids],
            dtype=np.float64)
        res = vs.query_ivf_store(args.store, mat, k=args.k,
                                 n_probe=args.n_probe, as_of=args.as_of)
        df = res.to_pandas()
        df["query_vec_id"] = [ids[q] for q in df["query_id"]]
        print(df.to_string(index=False, max_rows=60))
        print({"queries": len(ids), "k": args.k,
               "as_of": args.as_of,
               "files_read": vs.query_ivf_store.last_files_read,
               "total_cells": vs.query_ivf_store.total_cells})

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
