"""One CLI for the engine's jobs.

    python scripts/job.py <op> [--num-cpus N] [--<param> V ...]
    python scripts/job.py --help          # the ops
    python scripts/job.py graph --help    # one op's params

Each op is one job of the daily crawl (RUNBOOK.md §6), or one read or
maintenance step of a store; ``daily`` runs the whole crawl through
every store and checks that a re-run changes nothing. The harness owns
what surrounds the op: one Ray session -- the cluster at
$CEE_RAY_ADDRESS when set (multi-node; ``--num-cpus`` is then unused),
else a private local one with ``--num-cpus`` CPUs (default
$RAY_GRAFT_CPUS, else all the host has) -- with progress bars off; the
removal of deferred exchange spill dirs once the op's outputs are
written; and exactly one JSON line on stdout, the dict the op returns.
Read ops show their tables on stderr. The exit code is 0 only when the
op returns and its ``ok`` is not false; an exception exits 1 with its
traceback on stderr.

    python scripts/job.py graph --pages 100000 --out /tmp/graph
    ray job submit --working-dir . -- python scripts/job.py graph \\
        --input s3://bucket/pages/ --out s3://bucket/graph/
"""

from __future__ import annotations

import json
import logging
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from job_ops import corpus, daily, kg, stores  # noqa: E402
from opcli import parser  # noqa: E402

OPS = {
    "graph": kg.graph,
    "graph-compact": kg.graph_compact,
    "graph-as-of": kg.graph_as_of,
    "graph-diff": kg.graph_diff,
    "corpus": corpus.corpus,
    "corpus-compact-store": corpus.corpus_compact_store,
    "traindata": corpus.traindata,
    "feature": stores.feature,
    "feature-read": stores.feature_read,
    "window": stores.window,
    "window-read": stores.window_read,
    "window-read-late": stores.window_read_late,
    "window-read-final": stores.window_read_final,
    "embstore": stores.embstore,
    "embstore-stats": stores.embstore_stats,
    "embstore-compact": stores.embstore_compact,
    "vecstore-build": stores.vecstore_build,
    "vecstore-append": stores.vecstore_append,
    "vecstore-compact": stores.vecstore_compact,
    "vecstore-query": stores.vecstore_query,
    "daily": daily.daily,
}


def main(argv=None) -> int:
    cpus = os.environ.get("RAY_GRAFT_CPUS")
    kw = vars(parser(__doc__, OPS, int(cpus) if cpus else None)
              .parse_args(argv))
    name, num_cpus = kw.pop("op"), kw.pop("num_cpus")

    import ray
    from ray.data import DataContext

    from calendar_event_entity_extraction_ray.stages.exchange import (
        cleanup_pending_spill,
    )

    started = not ray.is_initialized()
    if started:
        address = os.environ.get("CEE_RAY_ADDRESS", "local")
        ray.init(address=address, include_dashboard=False,
                 logging_level="ERROR",
                 **({"num_cpus": num_cpus}
                    if address == "local" and num_cpus else {}))
    DataContext.get_current().enable_progress_bars = False
    # ray.data INFO lines land on stdout: the JSON line must be its only line
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    try:
        rec = OPS[name](**kw)
        # the outputs are durable: lineage can no longer need the spill
        cleanup_pending_spill()
    finally:
        if started:
            ray.shutdown()
    print(json.dumps(rec))
    return 0 if rec.get("ok") is not False else 1


if __name__ == "__main__":
    raise SystemExit(main())
