"""One harness for the closed-form scale checks.

    python scripts/scale.py <op> [--num-cpus N] [--<param> V ...]
    python scripts/scale.py --help          # the ops
    python scripts/scale.py graph --help    # one op's closed form and params

Each op synthesizes data whose answer is known in closed form, runs
engine operators at scale and checks the answer. The harness owns what
surrounds the op: one local Ray session (``--num-cpus``; an object-store
cap in GiB when the op has a ``store_gb`` param), a fresh work dir removed
afterwards, the clock, driver max-RSS, the session's plasma disk spill
and exactly one JSON line on stdout:

    {"scale_op": ..., "params": {...}, <the op's fields incl. "ok">,
     "run_sec": ..., "num_cpus": ..., "driver_maxrss_mb": ...,
     "spilled_files": ..., "spilled_mib": ...}

An op's own ``wall_sec`` (and other ``*_sec`` fields) time only the
operator under test; ``run_sec`` is the whole op, data synthesis and
checks included. The exit code is 0 only when ``ok`` is True; an
exception exits 1 with its traceback on stderr. One invocation is one
op at one scale in a fresh Ray session, so drive a sweep from bash:

    for n in 12500000 25000000 50000000; do
        python scripts/scale.py stress --kind grouped_count --rows $n --store-gb 2
    done
"""

from __future__ import annotations

import json
import logging
import os
import shutil
import sys
import tempfile
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from opcli import parser  # noqa: E402
from scale_ops import Ctx, maxrss_mb  # noqa: E402
from scale_ops import dedup, graph, relational, stores, stress, text, vectors  # noqa: E402

OPS = {
    "bpe": text.bpe,
    "cdc": dedup.cdc,
    "countwin": relational.countwin,
    "decontam": dedup.decontam,
    "dedup": dedup.dedup,
    "dicttag": text.dicttag,
    "dsir": text.dsir,
    "embdedup": vectors.embdedup,
    "embstore": stores.embstore,
    "entityreg": stores.entityreg,
    "featstate": stores.featstate,
    "fpstore": dedup.fpstore,
    "graph": graph.graph,
    "hamming": dedup.hamming,
    "hllstate": stores.hllstate,
    "join": relational.join,
    "mg": relational.mg,
    "redact": text.redact,
    "resample": relational.resample,
    "resolve": dedup.resolve,
    "semdedup": vectors.semdedup,
    "session": stores.session,
    "setop": relational.setop,
    "spandedup": dedup.spandedup,
    "stress": stress.stress,
    "unigram": text.unigram,
    "vecstore": stores.vecstore,
}


def _spill_stats() -> dict:
    """Plasma disk-spill footprint of this session: walk its
    ray_spilled_objects_* dirs (the gRPC memory-summary API is not
    available everywhere)."""
    import ray

    try:
        sess = ray._private.worker._global_node.get_session_dir_path()
    except Exception:
        return {}
    n_files = n_bytes = 0
    for root, _dirs, files in os.walk(sess):
        if "ray_spilled_objects" in os.path.basename(root):
            for f in files:
                try:
                    n_bytes += os.path.getsize(os.path.join(root, f))
                    n_files += 1
                except OSError:
                    pass
    return {"spilled_files": n_files, "spilled_mib": n_bytes >> 20}


def main(argv=None) -> int:
    kw = vars(parser(__doc__, OPS, num_cpus=32).parse_args(argv))
    name, num_cpus = kw.pop("op"), kw.pop("num_cpus")
    store_gb = kw.get("store_gb")

    import ray
    from ray.data import DataContext

    started = not ray.is_initialized()
    if started:
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 logging_level="ERROR",
                 **({"object_store_memory": int(store_gb * (1 << 30))}
                    if store_gb else {}))
    DataContext.get_current().enable_progress_bars = False
    # ray.data INFO lines land on stdout: the JSON line must be its only line
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    num_cpus = int(ray.cluster_resources().get("CPU", num_cpus))
    work_dir = tempfile.mkdtemp(prefix=f"scale-{name}-")
    t0 = time.time()
    try:
        rec = OPS[name](Ctx(num_cpus, max(num_cpus * 4, 8), work_dir), **kw)
        rec = {"scale_op": name, "params": kw, **rec,
               "run_sec": round(time.time() - t0, 2), "num_cpus": num_cpus,
               "driver_maxrss_mb": maxrss_mb(), **_spill_stats()}
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if started:
            ray.shutdown()
    print(json.dumps(rec))
    return 0 if rec.get("ok") is True else 1


if __name__ == "__main__":
    raise SystemExit(main())
