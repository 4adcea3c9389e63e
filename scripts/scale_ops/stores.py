"""Epoch stores at scale: each state after its epochs must equal the
batch answer or the planted truth exactly."""

from __future__ import annotations

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from calendar_event_entity_extraction_ray.functions.bloom import _mix
from calendar_event_entity_extraction_ray.stages import embstore as EB
from calendar_event_entity_extraction_ray.stages import hllstate as H
from calendar_event_entity_extraction_ray.stages.entityreg import (
    lookup_surfaces,
    register_epoch,
    registry_rows,
)
from calendar_event_entity_extraction_ray.stages.featstate import (
    decayed_counter_epoch,
    read_decayed_counters,
)
from calendar_event_entity_extraction_ray.stages.vecstore import (
    append_ivf_store,
    build_ivf_store,
    compact_ivf_store,
    query_ivf_store,
)
from calendar_event_entity_extraction_ray.stages.watermark import (
    STATE,
    session_window_epoch,
    tumbling_window_epoch,
)
from calendar_event_entity_extraction_ray.stages.windows import decayed_counts

from . import batch_sums, maxrss_mb

# -- embstore ------------------------------------------------------------------

DIM = 64


def _unit(ids: np.ndarray) -> np.ndarray:
    """Deterministic unit vector per id, fully vectorized: splitmix64
    mixes (id, dim-pair) to uniforms, Box-Muller to normals. A given id
    always yields the same vector, which the planted-copy truth needs."""
    ids = ids.astype(np.uint64)
    cols = []
    for j in range(0, DIM, 2):
        h = _mix(ids * np.uint64(DIM + 1) + np.uint64(j), 0x9E3779B97F4A7C15)
        u1 = (h >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        h2 = _mix(h, 0xBF58476D1CE4E5B9)
        u2 = (h2 >> np.uint64(11)).astype(np.float64) / float(1 << 53)
        r = np.sqrt(-2.0 * np.log(np.maximum(u1, 1e-300)))
        cols.append(r * np.cos(2 * np.pi * u2))
        cols.append(r * np.sin(2 * np.pi * u2))
    out = np.stack(cols[:DIM], axis=1)
    return out / np.linalg.norm(out, axis=1, keepdims=True)


def _epoch_vectors(b: pa.Table, offset: int, dup_mod: int,
                   base: int) -> pa.Table:
    """vec_id = id + offset. With ``dup_mod``, every dup_mod-th row
    reuses base id (id % base)'s seed -> an identical vector; the rest
    are fresh."""
    ids = b.column("id").to_numpy().astype(np.int64)
    src = (np.where(ids % dup_mod == 0, ids % base, ids + base)
           if dup_mod else ids)
    return pa.table({"vec_id": pa.array(ids + offset),
                     "embedding": pa.array(list(_unit(src)),
                                           pa.list_(pa.float64()))})


def embstore(ctx, *, base=1_000_000, delta=200_000, dup_mod=10, cells=64,
             tau=0.9) -> dict:
    """Epoch-incremental SemDeDup at scale with planted truth.

    Epoch 1 ingests N random unit vectors (dim 64 -> pairwise cosine ~0,
    nothing drops). Epoch 2 ingests M vectors where every --dup-mod-th is
    an EXACT copy of an epoch-1 vector (cosine 1 against the store, and an
    identical vector assigns to the identical cell, so every copy MUST
    drop) and the rest are fresh (must survive: max cosine against ~N/k
    stored vectors concentrates near 4.5/sqrt(dim) ~ 0.56 << tau; tau 0.9
    is 7.2 sigma of the random-pair cosine, ~2e-3 expected spurious
    in-cell pairs across 1M base vectors). Verifies the survivor set
    EXACTLY (count + id-sum, by streaming aggregates: nothing lands on the
    driver) and reports per-epoch wall.
    """
    sd = os.path.join(ctx.work_dir, "store")

    def vecs(n: int, offset: int, dup_mod: int):
        return ray.data.range(n, override_num_blocks=ctx.blocks).map_batches(
            _epoch_vectors, fn_kwargs={"offset": offset, "dup_mod": dup_mod,
                                       "base": base}, batch_format="pyarrow")

    e1 = vecs(base, 0, 0)
    t0 = time.time()
    n1 = EB.dedup_epoch(e1, sd, "e1", k=cells, tau=tau).count()
    t_e1 = time.time() - t0
    e2 = vecs(delta, base, dup_mod)
    t0 = time.time()
    s2 = EB.dedup_epoch(e2, sd, "e2", k=cells, tau=tau)
    t_e2 = time.time() - t0
    n_dups = len(range(0, delta, dup_mod))
    s = batch_sums(s2, lambda b: {"n": b.num_rows,
                                  "id_sum": b.column("vec_id").to_numpy().sum()
                                  if b.num_rows else 0})
    fresh = np.arange(delta, dtype=np.int64)
    want_sum = int((fresh[fresh % dup_mod != 0] + base).sum())
    return {"metric": "embstore_scale", "base": base, "delta": delta,
            "dim": DIM, "cells": cells, "tau": tau,
            "e1_sec": round(t_e1, 1), "e2_sec": round(t_e2, 1),
            "e1_survivors": n1, "e2_survivors": s["n"],
            "planted_dups": n_dups,
            "survivor_id_sum_exact": s["id_sum"] == want_sum,
            "vecs_per_sec_e2": int(delta / t_e2),
            "ok": n1 == base and s["n"] == delta - n_dups
            and s["id_sum"] == want_sum}


# -- entityreg -----------------------------------------------------------------

def _names(prefix: str, n: int) -> list:
    # DOUBLED digits: two distinct ids differ in >= 1 digit -> >= 2 chars,
    # so names are pairwise distance >= 2 (no accidental clustering); the
    # trailing 'xq' is the typo target
    return [prefix + "".join(c * 2 for c in f"{k:09d}") + "xq"
            for k in range(n)]


def entityreg(ctx, *, base=300_000, delta=30_000) -> dict:
    """Persistent entity registry (stages/entityreg.py) with exact planted
    truth.

    Base epoch = N distinct machine names `ent<k>xq` (pairwise distance >=
    2 by construction, so every base surface is its own canonical); delta
    epoch = M typos, each replacing the 'x' of a random base name's suffix
    (distance exactly 1 from its victim, >= 2 from every OTHER base name
    and from each other), plus M fresh names never seen. Verifies EXACTLY
    that every typo resolves to its intended base canonical, every fresh
    name mints itself and base ids are unchanged after the delta epoch,
    and measures the incremental claim: delta-epoch wall << base wall
    (epoch cost is O(delta x neighborhood + touched partitions), not
    O(registry)).
    """
    store = os.path.join(ctx.work_dir, "registry")
    names = _names("ent", base)
    victims = np.random.RandomState(5).choice(base, size=delta, replace=False)
    typos = {names[v][:-2] + "Z" + names[v][-1]: names[v] for v in victims}
    fresh = _names("new", delta)

    def ds_of(surfs):
        return ray.data.from_arrow(pa.table({
            "surface": pa.array(surfs, pa.string())})) \
            .repartition(64).materialize()

    t0 = time.time()
    s1 = register_epoch(ds_of(names), store, "base", num_partitions=64)
    w_base = time.time() - t0
    assert s1["n_new"] == base
    t0 = time.time()
    s2 = register_epoch(ds_of(sorted(typos) + fresh), store, "delta",
                        num_partitions=64)
    w_delta = time.time() - t0
    assert s2["n_new"] == 2 * delta, s2
    t0 = time.time()
    look = lookup_surfaces(ds_of(sorted(typos) + fresh + names[:1000]),
                           store).to_pandas()
    w_look = time.time() - t0
    got = dict(zip(look["surface"], look["entity_id"]))
    for t_, b_ in typos.items():
        assert got[t_] == b_, (t_, got[t_], b_)
    for s_ in fresh + names[:1000]:
        assert got[s_] == s_, (s_, got[s_])
    return {"base": base, "base_sec": round(w_base, 1),
            "delta_new": 2 * delta, "delta_sec": round(w_delta, 1),
            "delta_speedup": round(w_base / w_delta, 1),
            "lookup_surfaces": len(look), "lookup_sec": round(w_look, 1),
            "store_rows": registry_rows(store), "mappings_exact": True,
            "ok": True}


# -- featstate -----------------------------------------------------------------

def _events_in(b: pa.Table, lo: int, hi: int, keys: int) -> pa.Table:
    """Event i: key = i % keys, ts in [lo, hi) seconds by a hash mix."""
    i = b.column("id").to_numpy()
    t = lo + (i * 2654435761 % (hi - lo))
    return pa.table({"user_id": pa.array((i % keys).astype(np.int64)),
                     "ts": pa.array((t * 1_000_000).astype(np.int64)).cast(
                         pa.timestamp("us"))})


def featstate(ctx, *, rows=10_000_000, keys=100_000, epochs=3,
              half_life=2) -> dict:
    """Epoch-incremental decayed counters at scale.

    N events over K keys, ingested as --epochs time-ordered epochs over a
    400 h span (>> cap x half-life: the horizon engages), then verified
    EXACTLY against the single-shot batch operator
    (stages/windows.py:decayed_counts) over the full concatenated history:
    the invariant that makes the state store trustworthy.
    """
    span_s = 3600 * 400
    per = rows // epochs
    bounds = [(e * span_s // epochs, (e + 1) * span_s // epochs)
              for e in range(epochs)]

    def epoch_ds(lo: int, hi: int):
        return ray.data.range(per, override_num_blocks=ctx.blocks).map_batches(
            _events_in, fn_kwargs={"lo": lo, "hi": hi, "keys": keys},
            batch_format="pyarrow")

    sd = os.path.join(ctx.work_dir, "state")
    t0 = time.time()
    for e, (lo, hi) in enumerate(bounds):
        decayed_counter_epoch(epoch_ds(lo, hi), sd, f"e{e}",
                              half_life_hours=half_life, num_partitions=32)
    t_ingest = time.time() - t0
    t0 = time.time()
    got = read_decayed_counters(sd).to_pandas().sort_values(
        "user_id").reset_index(drop=True)
    t_read = time.time() - t0
    # single-shot batch operator over the SAME full history; the state's
    # ref is the true max ts
    full = epoch_ds(*bounds[0])
    for lo, hi in bounds[1:]:
        full = full.union(epoch_ds(lo, hi))
    ref_us = int(pd.Timestamp(full.max("ts")).value // 1_000)
    t0 = time.time()
    want = decayed_counts(full, "user_id", "ts", ref_us,
                          half_life_hours=half_life).to_pandas() \
        .sort_values("user_id").reset_index(drop=True)
    t_batch = time.time() - t0
    ok = bool(len(got) == len(want) == keys and all(
        (got[c].to_numpy(np.int64) == want[c].to_numpy(np.int64)).all()
        for c in ("user_id", "n_events", "decayed_num")))
    return {"metric": "featstate_scale", "rows": rows, "keys": keys,
            "epochs": epochs, "ingest_sec": round(t_ingest, 1),
            "events_per_sec_ingest": round(rows / t_ingest, 1),
            "read_sec": round(t_read, 1), "batch_sec": round(t_batch, 1),
            "state_exact_vs_batch": ok, "ok": ok}


# -- hllstate ------------------------------------------------------------------

def _hll_epoch(n: int, seed: int, n_keys: int) -> pa.Table:
    rng = np.random.RandomState(seed)
    ki = rng.randint(0, n_keys, size=n)
    ui = rng.randint(0, 1 << 30, size=n) % (50 + (ki % 400))
    return pa.table({
        "k": pa.array(pd.Series(ki).map(lambda i: f"key{i:06d}")
                      .to_numpy(object), pa.string()),
        "v": pa.array(pd.Series(ki * 1000 + ui).map(lambda u: f"u{u}")
                      .to_numpy(object), pa.string())})


def hllstate(ctx, *, events=10_000_000, keys=100_000) -> dict:
    """Epoch-incremental HLL distinct state (stages/hllstate.py).

    N events in 3 epochs over K keys; key i sees exactly 50 + i % 400
    distinct users (closed form). The state after all epochs must equal
    the single-shot batch operator's registers BIT-FOR-BIT (max-merge
    order independence at scale), and sampled estimates (~200 keys) must
    land within 6% of the exact per-key distinct counts, allowing
    max(4, 2%) outliers.
    """
    sd = os.path.join(ctx.work_dir, "state")
    tables = [_hll_epoch(events // 3, s, keys) for s in (1, 2, 3)]
    t0 = time.time()
    for i, t in enumerate(tables):
        H.hll_distinct_epoch(ray.data.from_arrow(t).repartition(64), sd,
                             f"e{i}", "k", "v", p=12, num_partitions=32)
    w_ingest = time.time() - t0
    t0 = time.time()
    state = H.read_hll_registers(sd)
    w_read = time.time() - t0
    full = ray.data.from_arrow(pa.concat_tables(tables)).repartition(48)
    batch = H._register_rows(full, "k", "v", 12, num_partitions=24) \
        .sort_values(["k", "bucket"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        state[["k", "bucket", "rank"]].astype({"rank": "int64"}),
        batch[["k", "bucket", "rank"]].astype({"rank": "int64"}))
    # sampled accuracy vs the OBSERVED exact distinct (driver-side pandas
    # over the in-memory event tables; the sample is deterministic)
    est = H.read_hll_distinct(sd).set_index("key")["est"]
    ev = pa.concat_tables(tables).to_pandas()
    sample = {f"key{i:06d}" for i in range(0, keys, max(1, keys // 200))}
    truth = ev[ev["k"].isin(sample)].groupby("k")["v"].nunique()
    bad = sum(abs(est[k] - n) / n > 0.06 for k, n in truth.items())
    assert bad <= max(4, len(truth) // 50), (bad, len(truth))
    return {"events": events, "keys": keys, "ingest_sec": round(w_ingest, 1),
            "m_events_per_sec": round(events / 1e6 / w_ingest, 2),
            "state_rows": len(state), "read_sec": round(w_read, 1),
            "registers_equal_batch": True, "sampled_keys": len(truth),
            "estimate_outliers": int(bad), "ok": True}


# -- session -------------------------------------------------------------------

HOUR_US, STEP_US = 3_600_000_000, 120_000_000


def _bursts(b: pa.Table, parity: int, keys: int, per_burst: int) -> pa.Table:
    i = b.column("id").to_numpy()
    k = i % keys
    burst, j = (i // keys) // per_burst, (i // keys) % per_burst
    keep = (j % 2) == parity
    ts = burst * HOUR_US + j * STEP_US + k
    return pa.table({"event_type": pa.array(k[keep], pa.int64()),
                     "ts": pa.array(ts[keep], pa.int64())})


def session(ctx, *, keys=100_000, bursts=10, per_burst=10,
            form="session") -> dict:
    """Watermarked session windows with planted truth (--form
    session|tumbling).

    K keys x NB bursts x B events (burst span 18 min < 30-min gap; bursts
    1 h apart), every burst's events split across two epochs by index
    parity, so EVERY session must merge across the epoch boundary. The
    final table must match the closed form exactly: K*NB sessions, each
    n == B, each (start, end) == the planted burst. --form tumbling runs
    the same bursts through 1-h tumbling windows (each burst = one
    window's count, merged across the epoch split).

    The exchange moves one pre-merged interval per (burst, epoch), ~2
    rows per planted session, never the event stream; the check runs
    distributedly over the state's shard files, so the driver sees only
    counts (at 1M+ keys the state must not land on the driver). Reports
    driver max-RSS after ingest and at the end.
    """
    rows = keys * bursts * per_burst
    sd = os.path.join(ctx.work_dir, "state")
    window = session_window_epoch if form == "session" else tumbling_window_epoch
    shape = ({"gap_minutes": 30} if form == "session"
             else {"window_minutes": 60})
    t0 = time.time()
    for parity, epoch in ((0, "e0"), (1, "e1")):
        ds = ray.data.range(rows, override_num_blocks=128).map_batches(
            _bursts, fn_kwargs={"parity": parity, "keys": keys,
                                "per_burst": per_burst},
            batch_format="pyarrow")
        s = window(ds, sd, epoch, key_col="event_type", ts_col="ts",
                   allowed_lateness_minutes=10**9, late_policy="drop",
                   num_partitions=max(16, ctx.num_cpus * 2), **shape)
        assert s["n_late"] == 0, s
    wall = time.time() - t0
    rss_ingest = maxrss_mb()

    # each planted session is (k, burst*hour+k, +(B-1)*step, n=B);
    # non-overlap per key makes row validity + exact row count == exact
    # table equality
    def verify(b: pa.Table) -> dict:
        k = b.column("event_type").to_numpy()
        n_ = b.column("n").to_numpy()
        if form == "session":
            s_ = b.column("start_us").to_numpy()
            rel = s_ - k
            ok = ((rel % HOUR_US == 0)
                  & (b.column("end_us").to_numpy()
                     == s_ + (per_burst - 1) * STEP_US))
        else:
            rel = b.column("window_start_us").to_numpy()
            ok = rel % HOUR_US == 0
        burst = rel // HOUR_US
        ok &= (n_ == per_burst) & (burst >= 0) & (burst < bursts)
        return {"rows": len(k), "bad": int((~ok).sum())}

    state = STATE.load(sd)
    total = batch_sums(ray.data.read_parquet(
        [os.path.join(sd, r)
         for r in state["open_files"] + state["final_files"]]), verify)
    assert total["bad"] == 0, f"{total['bad']} sessions off the closed form"
    assert total["rows"] == keys * bursts, (total["rows"], keys * bursts)
    return {"rows": rows, "sessions": keys * bursts,
            "wall_sec": round(wall, 1), "events_per_sec": int(rows / wall),
            "driver_maxrss_mb_after_ingest": rss_ingest,
            "verified": "exact planted sessions, all merged cross-epoch, "
                        "verified distributedly", "ok": True}


# -- vecstore ------------------------------------------------------------------

def vecstore(ctx, *, rows=1_000_000, dim=64, clusters=64, pq_m=0,
             append_rows=0) -> dict:
    """Persisted-IVF vector store at scale with planted cluster structure.

    --clusters well-separated centers; vector i = center[i % C] + tiny
    noise, so each query (a clean center) must return vectors of its own
    cluster and the IVF cells align with the planted clusters. Verifies
    (a) queries read only the probed fraction of files, (b) planted
    nearest neighbors are recovered exactly. --pq-m > 0 builds the
    PQ-coded store; --append-rows > 0 also drives the LSM append +
    compact cycle with that many extra vectors (planted-exact over base +
    deltas, then after compaction).
    """
    store = os.path.join(ctx.work_dir, "store")
    centers = np.random.default_rng(11).normal(size=(clusters, dim)) * 10.0
    centers_ref = ray.put(centers)

    def synth(b: pa.Table) -> pa.Table:
        i = b.column("id").to_numpy()
        g = np.random.default_rng(int(i[0]) + 1)
        v = ray.get(centers_ref)[i % clusters] \
            + g.normal(size=(len(i), dim)) * 0.05
        return pa.table({"vec_id": pa.array(i.astype(np.int64)),
                         "embedding": pa.array(list(v),
                                               pa.list_(pa.float64()))})

    qc = [0, 7, 13, 21, 33, 42, 55, 63]

    def query():
        res = query_ivf_store(store, centers[qc], k=10, n_probe=4).to_pandas()
        wrong = sum(int((res[res.query_id == qi]["vec_id"].to_numpy()
                         % clusters != c).sum()) for qi, c in enumerate(qc))
        return res, wrong

    t0 = time.time()
    manifest = build_ivf_store(
        ray.data.range(rows, override_num_blocks=ctx.blocks).map_batches(
            synth, batch_format="pyarrow"),
        store, n_cells=clusters, sample_size=8192, pq_m=(pq_m or None))
    t_build = time.time() - t0
    rows_stored = sum(e["rows"] for e in manifest["cells"].values())
    # every returned vec must belong to its query center's cluster
    t0 = time.time()
    res, wrong = query()
    t_query = time.time() - t0
    files_read = query_ivf_store.last_files_read
    total_cells = query_ivf_store.total_cells
    ok = (rows_stored == rows and wrong == 0 and files_read < total_cells
          and all(len(res[res.query_id == qi]) == 10
                  for qi in range(len(qc))))
    lsm = {}
    if append_rows:
        extra = ray.data.range(
            append_rows, override_num_blocks=max(8, ctx.blocks // 8)
        ).map_batches(lambda b: synth(pa.table(
            {"id": pa.array(b.column("id").to_numpy() + rows)})),
            batch_format="pyarrow")
        t0 = time.time()
        append_ivf_store(extra, store, "day2")
        t_append = time.time() - t0
        res2, wrong2 = query()
        t0 = time.time()
        m3 = compact_ivf_store(store)
        t_compact = time.time() - t0
        res3, wrong3 = query()
        rows3 = sum(e["rows"] for e in m3["cells"].values())
        lsm = {"append_rows": append_rows, "append_sec": round(t_append, 1),
               "compact_sec": round(t_compact, 1),
               "rows_after_compact": rows3,
               "wrong_hits_after_append": wrong2,
               "wrong_hits_after_compact": wrong3,
               "post_compact_results_equal": bool(res2.equals(res3))}
        ok = ok and wrong2 == 0 and wrong3 == 0 \
            and rows3 == rows + append_rows
    return {"metric": "ivf_store_scale", "rows": rows, "dim": dim,
            "cells": clusters, "pq_m": pq_m or None,
            "rows_stored": rows_stored, "build_sec": round(t_build, 1),
            "query_sec": round(t_query, 2), "files_read": files_read,
            "total_cells": total_cells, "wrong_cluster_hits": wrong,
            "recall_at_10": 1.0 - wrong / (len(qc) * 10),
            **({"lsm": lsm} if lsm else {}), "ok": bool(ok),
            "build_vecs_per_sec": round(rows / t_build, 1)}
