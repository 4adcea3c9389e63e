"""Epoch-driven windowed-aggregation job — the CLI surface for
stages/watermark.py (tumbling / sliding / session windows with
event-time watermarks and a late-data policy).

Ingest one epoch of events (a parquet file or directory) into a state
dir, then read the current window state:

    python scripts/window_job.py --input /root/testdata/sf0.01/events.parquet \
        --state /tmp/wstate --epoch day1 --form tumbling --window 60
    python scripts/window_job.py --state /tmp/wstate --read
    python scripts/window_job.py --state /tmp/wstate --read-late

Re-running a recorded epoch is a no-op (idempotent); the epoch commit
is atomic (versioned open table + state-JSON commit point), so a
crashed ingest re-runs cleanly. Window geometry is pinned in the state
dir — mismatched parameters are rejected.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--state", required=True, help="window state dir")
    ap.add_argument("--input", help="events parquet (file or dir)")
    ap.add_argument("--epoch", help="epoch name for this ingest")
    ap.add_argument("--form", default="tumbling",
                    choices=["tumbling", "sliding", "session"])
    ap.add_argument("--key-col", default="event_type")
    ap.add_argument("--ts-col", default="ts")
    ap.add_argument("--window", type=int, default=60,
                    help="window minutes (tumbling/sliding)")
    ap.add_argument("--slide", type=int, default=30,
                    help="slide minutes (sliding)")
    ap.add_argument("--gap", type=int, default=30,
                    help="session gap minutes")
    ap.add_argument("--lateness", type=int, default=60,
                    help="allowed lateness minutes")
    ap.add_argument("--late-policy", default="side_output",
                    choices=["side_output", "drop"])
    ap.add_argument("--read", action="store_true",
                    help="print the current window/session state")
    ap.add_argument("--read-late", action="store_true",
                    help="print the late side-output stream")
    ap.add_argument("--read-final", action="store_true",
                    help="print sealed windows/sessions across all "
                         "epochs with their sealing epoch (the "
                         "serving read)")
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

    from calendar_event_entity_extraction_ray.stages import watermark as wm

    if args.input:
        if not args.epoch:
            ap.error("--epoch is required with --input")
        ds = ray.data.read_parquet(
            args.input, columns=[args.key_col, args.ts_col])
        if args.form == "session":
            s = wm.session_window_epoch(
                ds, args.state, args.epoch, key_col=args.key_col,
                ts_col=args.ts_col, gap_minutes=args.gap,
                allowed_lateness_minutes=args.lateness,
                late_policy=args.late_policy)
        else:
            s = wm.tumbling_window_epoch(
                ds, args.state, args.epoch, key_col=args.key_col,
                ts_col=args.ts_col, window_minutes=args.window,
                allowed_lateness_minutes=args.lateness,
                late_policy=args.late_policy,
                slide_minutes=(args.slide if args.form == "sliding"
                               else None))
        print({"epoch": args.epoch, "form": args.form, **s})

    if args.read:
        kind = wm.window_kind(wm.STATE.load(args.state))
        reader = (wm.read_session_state if kind == "session"
                  else wm.read_window_state)
        t = reader(args.state, key_col=args.key_col)
        print(t.to_pandas().to_string(index=False, max_rows=50))
        print({"rows": t.num_rows, "kind": kind})
    if args.read_late:
        t = wm.read_late_rows(args.state, key_col=args.key_col)
        print(t.to_pandas().to_string(index=False, max_rows=50))
        print({"late_rows": t.num_rows})
    if args.read_final:
        t = wm.read_final_windows(args.state)
        print(t.to_pandas().to_string(index=False, max_rows=50))
        print({"final_rows": t.num_rows,
               "epochs": sorted(set(t.column("epoch").to_pylist()))})

    ray.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
