"""Epoch-store queries: each ingests its input as id-mod epochs into a
scratch store and reads the result back (LSM vector store, SemDeDup
store, watermark windows, keyed state, entity registry).
"""

from __future__ import annotations

import contextlib
import shutil
import tempfile
from typing import Any, Iterator

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from calendar_event_entity_extraction_ray.catalog import (
    _golden, _int64, _read, query,
)


@contextlib.contextmanager
def scratch_store(prefix: str) -> Iterator[str]:
    """A store directory for one query, removed on exit (every store
    query's result is eager). ``tempfile.mkdtemp`` honours ``TMPDIR``."""
    sd = tempfile.mkdtemp(prefix=prefix)
    try:
        yield sd
    finally:
        shutil.rmtree(sd, ignore_errors=True)


def id_slice(ds: "ray.data.Dataset", col: str, n: int,
             r: int) -> "ray.data.Dataset":
    """The epoch split: rows whose integer ``col`` is ``r`` mod ``n`` —
    deterministic in both engines (the oracles use ``col % n = r``)."""

    def pick(b: pa.Table) -> pa.Table:
        ids = b.column(col).to_numpy(zero_copy_only=False)
        return b.filter(pa.array(ids % n == r))

    return ds.map_batches(pick, batch_format="pyarrow")


@query("semdedup_incremental", f"SELECT vec_id, epoch"
    f" FROM {_golden('semdedup_incremental')}", bench=True)
def q_semdedup_incremental(sf_dir: str) -> Any:
    """Epoch-incremental SemDeDup (stages/embstore.py): the embeddings
    table arrives as two epochs (vec_id parity); epoch-1 survivors
    persist per k-means cell (centroids frozen by the first epoch — the
    vecstore codebook rule), epoch-2 vectors drop against any stored
    same-cell vector OR a smaller-id same-epoch vector at cosine >=
    tau. Returns (vec_id, epoch) of every SURVIVOR; the golden oracle
    replays both epochs sequentially through the same
    incremental_drop_mask kernel."""
    from calendar_event_entity_extraction_ray.stages.embstore import (
        dedup_epoch,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    frames = []
    with scratch_store("cee_embs_") as sd:
        for parity, epoch in ((0, "e1"), (1, "e2")):
            surv = dedup_epoch(id_slice(ds, "vec_id", 2, parity), sd, epoch,
                               k=8, tau=0.3).to_pandas()
            ids = (surv["vec_id"] if "vec_id" in surv.columns
                   else pd.Series([], dtype="int64"))
            frames.append(pd.DataFrame(
                {"vec_id": ids.astype("int64"), "epoch": epoch}))
    out = pd.concat(frames, ignore_index=True).sort_values(
        ["epoch", "vec_id"], kind="stable").reset_index(drop=True)
    return _int64(out, ["vec_id"])


@query("knn_stored", f"SELECT query_id, rank, vec_id, score_e6 "
    f"FROM {_golden('knn_stored')}", bench=True)
def q_knn_stored(sf_dir: str) -> Any:
    """Persisted-IVF ANN: build the cell-partitioned vector store once
    (stages/vecstore.py — workers write one file per cell, driver
    records centroids + files), then answer 3 queries reading ONLY the
    probed cells' files (the zone-map idea for embeddings). Partial
    top-k cuts on the final (score_e6 desc, id asc) total order, so the
    result equals one global sort — mirrored single-process in the
    golden."""
    from calendar_event_entity_extraction_ray.stages.vecstore import (
        build_ivf_store,
        query_ivf_store,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = ds.take(3)
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    with scratch_store("cee_vstore_") as store:
        build_ivf_store(ds, store, n_cells=16, sample_size=4096)
        out = query_ivf_store(store, queries, k=10, n_probe=4)
    return _int64(out.to_pandas(),
                  ["query_id", "rank", "vec_id", "score_e6"])


@query("knn_stored_pq", f"SELECT query_id, rank, vec_id, score_e6 "
    f"FROM {_golden('knn_stored_pq')}", bench=True)
def q_knn_stored_pq(sf_dir: str) -> Any:
    """PQ-coded persisted IVF (build_ivf_store(pq_m=8)): the candidate
    scan reads only (vec_id, pq_code) — 8 bytes/vector instead of 512 —
    shortlists rerank*k by the ADC approximation, then re-ranks the
    shortlist EXACTLY from the raw embedding column (id-filtered read,
    row-group prune on the id-sorted cells). Output schema and the
    cut orders match q_knn_stored; the golden replays both stages
    single-process (make_goldens.py:golden_knn_stored_pq)."""
    from calendar_event_entity_extraction_ray.stages.vecstore import (
        build_ivf_store,
        query_ivf_store,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = ds.take(3)
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    with scratch_store("cee_vstore_pq_") as store:
        build_ivf_store(ds, store, n_cells=16, sample_size=4096, pq_m=8)
        out = query_ivf_store(store, queries, k=10, n_probe=4, rerank=4)
    return _int64(out.to_pandas(),
                  ["query_id", "rank", "vec_id", "score_e6"])


@query("late_data_windows", """
    WITH ev AS (
      SELECT event_type, epoch_us(ts) AS tus,
             (epoch_us(ts) // 3600000000) * 3600000000 AS ws,
             event_id FROM events),
    e0 AS (SELECT * FROM ev WHERE event_id % 2 = 0),
    e1 AS (SELECT * FROM ev WHERE event_id % 2 = 1),
    wm0 AS (SELECT max(tus) - 7200000000 AS w FROM e0),
    c0 AS (SELECT event_type, ws, COUNT(*) AS n
           FROM e0 GROUP BY 1, 2),
    final0 AS (SELECT * FROM c0
               WHERE ws + 3600000000 <= (SELECT w FROM wm0)),
    open0 AS (SELECT * FROM c0
              WHERE ws + 3600000000 > (SELECT w FROM wm0)),
    c1 AS (SELECT event_type, ws, COUNT(*) AS n FROM e1
           WHERE ws + 3600000000 > (SELECT w FROM wm0)
           GROUP BY 1, 2),
    wm1 AS (SELECT greatest((SELECT w FROM wm0),
                (SELECT max(tus) FROM e1) - 7200000000) AS w),
    merged AS (SELECT event_type, ws, SUM(n) AS n FROM
               (SELECT * FROM open0 UNION ALL SELECT * FROM c1)
               GROUP BY 1, 2),
    final1 AS (SELECT * FROM merged
               WHERE ws + 3600000000 <= (SELECT w FROM wm1)),
    openf AS (SELECT * FROM merged
              WHERE ws + 3600000000 > (SELECT w FROM wm1))
    SELECT event_type, ws AS window_start_us,
           CAST(n AS BIGINT) AS n, 'final' AS status FROM final0
    UNION ALL SELECT event_type, ws, CAST(n AS BIGINT), 'final'
    FROM final1
    UNION ALL SELECT event_type, ws, CAST(n AS BIGINT), 'open'
    FROM openf
""", bench=True)
def q_late_data_windows(sf_dir: str) -> Any:
    """Watermarked incremental windowing (stages/watermark.py): the
    events table arrives as two epochs (event_id parity — deterministic
    in both engines), each advancing the event-time watermark to
    max(ts) - 2h; tumbling 1-h windows seal once fully below the
    watermark, and epoch-2 rows targeting already-sealed windows are
    LATE (side-output, excluded from the sealed counts). Returns the
    final+open window state; the DuckDB oracle replays the two-epoch
    watermark protocol as CTEs."""
    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_window_state,
        tumbling_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    with scratch_store("cee_wm_") as sd:
        for parity, epoch in ((0, "e0"), (1, "e1")):
            tumbling_window_epoch(
                id_slice(ds, "event_id", 2, parity), sd, epoch,
                window_minutes=60, allowed_lateness_minutes=120)
        out = read_window_state(sd).to_pandas()
    return _int64(out, ["window_start_us", "n"])


@query("late_data_sliding", """
    WITH ev AS (
      SELECT event_type, epoch_us(ts) AS tus, event_id
      FROM events),
    asn AS (
      SELECT event_type, tus,
             (tus // 1800000000) * 1800000000 AS ws, event_id
      FROM ev
      UNION ALL
      SELECT event_type, tus,
             (tus // 1800000000) * 1800000000 - 1800000000,
             event_id
      FROM ev),
    e0 AS (SELECT * FROM asn WHERE event_id % 2 = 0),
    e1 AS (SELECT * FROM asn WHERE event_id % 2 = 1),
    wm0 AS (SELECT max(tus) - 7200000000 AS w FROM e0),
    c0 AS (SELECT event_type, ws, COUNT(*) AS n
           FROM e0 GROUP BY 1, 2),
    final0 AS (SELECT * FROM c0
               WHERE ws + 3600000000 <= (SELECT w FROM wm0)),
    open0 AS (SELECT * FROM c0
              WHERE ws + 3600000000 > (SELECT w FROM wm0)),
    c1 AS (SELECT event_type, ws, COUNT(*) AS n FROM e1
           WHERE ws + 3600000000 > (SELECT w FROM wm0)
           GROUP BY 1, 2),
    wm1 AS (SELECT greatest((SELECT w FROM wm0),
                (SELECT max(tus) FROM e1) - 7200000000) AS w),
    merged AS (SELECT event_type, ws, SUM(n) AS n FROM
               (SELECT * FROM open0 UNION ALL SELECT * FROM c1)
               GROUP BY 1, 2),
    final1 AS (SELECT * FROM merged
               WHERE ws + 3600000000 <= (SELECT w FROM wm1)),
    openf AS (SELECT * FROM merged
              WHERE ws + 3600000000 > (SELECT w FROM wm1))
    SELECT event_type, ws AS window_start_us,
           CAST(n AS BIGINT) AS n, 'final' AS status FROM final0
    UNION ALL SELECT event_type, ws, CAST(n AS BIGINT), 'final'
    FROM final1
    UNION ALL SELECT event_type, ws, CAST(n AS BIGINT), 'open'
    FROM openf
""", bench=True)
def q_late_data_sliding(sf_dir: str) -> Any:
    """Watermarked SLIDING windows (tumbling_window_epoch(slide_minutes=
    ...)): every event lands in window/slide = 2 overlapping 1-h windows
    on a 30-min slide; lateness is judged per TARGET window, so an
    epoch-2 event's older assignment can be late while its newer one
    proceeds. Two epochs by event_id parity, lateness 2 h; oracle =
    the tumbling CTE protocol over the doubled assignment relation."""
    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_window_state,
        tumbling_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    with scratch_store("cee_slw_") as sd:
        for parity, epoch in ((0, "e0"), (1, "e1")):
            tumbling_window_epoch(
                id_slice(ds, "event_id", 2, parity), sd, epoch,
                window_minutes=60, slide_minutes=30,
                allowed_lateness_minutes=120)
        out = read_window_state(sd).to_pandas()
    return _int64(out, ["window_start_us", "n"])


@query("late_data_sessions", """
    WITH ev AS (
      SELECT event_type AS k, epoch_us(ts) AS tus, event_id
      FROM events),
    e0 AS (SELECT * FROM ev WHERE event_id % 2 = 0),
    e1 AS (SELECT * FROM ev WHERE event_id % 2 = 1),
    b0 AS (SELECT k, tus,
             CASE WHEN tus - lag(tus) OVER
                    (PARTITION BY k ORDER BY tus)
                  > 1800000000 THEN 1 ELSE 0 END AS brk
           FROM e0),
    i0 AS (SELECT k, tus, SUM(brk) OVER
             (PARTITION BY k ORDER BY tus
              ROWS UNBOUNDED PRECEDING) AS sid FROM b0),
    s0 AS (SELECT k, MIN(tus) AS s, MAX(tus) AS e,
                  COUNT(*) AS n FROM i0 GROUP BY k, sid),
    wm0 AS (SELECT MAX(tus) - 7200000000 AS w FROM e0),
    final0 AS (SELECT * FROM s0
               WHERE e + 1800000000 <= (SELECT w FROM wm0)),
    open0 AS (SELECT * FROM s0
              WHERE e + 1800000000 > (SELECT w FROM wm0)),
    on1 AS (SELECT k, tus FROM e1
            WHERE tus > (SELECT w FROM wm0)),
    u AS (SELECT k, s, e, n FROM open0
          UNION ALL
          SELECT k, tus AS s, tus AS e, 1 AS n FROM on1),
    r1 AS (SELECT k, s, e, n,
             MAX(e) OVER (PARTITION BY k ORDER BY s, e
                          ROWS UNBOUNDED PRECEDING) AS runmax
           FROM u),
    r2 AS (SELECT k, s, e, n,
             CASE WHEN s > lag(runmax) OVER
                    (PARTITION BY k ORDER BY s, e)
                  + 1800000000 THEN 1 ELSE 0 END AS brk
           FROM r1),
    i1 AS (SELECT k, s, e, n, SUM(brk) OVER
             (PARTITION BY k ORDER BY s, e
              ROWS UNBOUNDED PRECEDING) AS sid FROM r2),
    m1 AS (SELECT k, MIN(s) AS s, MAX(e) AS e, SUM(n) AS n
           FROM i1 GROUP BY k, sid),
    wm1 AS (SELECT greatest((SELECT w FROM wm0),
              (SELECT MAX(e) FROM m1) - 7200000000) AS w),
    final1 AS (SELECT * FROM m1
               WHERE e + 1800000000 <= (SELECT w FROM wm1)),
    openf AS (SELECT * FROM m1
              WHERE e + 1800000000 > (SELECT w FROM wm1))
    SELECT k AS event_type, s AS start_us, e AS end_us,
           CAST(n AS BIGINT) AS n, 'final' AS status FROM final0
    UNION ALL SELECT k, s, e, CAST(n AS BIGINT), 'final'
    FROM final1
    UNION ALL SELECT k, s, e, CAST(n AS BIGINT), 'open'
    FROM openf
""", bench=True)
def q_late_data_sessions(sf_dir: str) -> Any:
    """Watermarked SESSION windows (stages/watermark.py:
    session_window_epoch): the genuinely-streaming window shape, since
    sessions MERGE across epochs — an epoch-2 event inside the 30-min
    gap of an epoch-1 open session extends or fuses it. Two epochs by
    event_id parity, lateness 2 h; epoch-2 rows at or below the epoch-1
    watermark are LATE (side-output, excluded). Returns sealed + open
    sessions; the oracle replays the protocol as gaps-and-islands CTEs."""
    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_session_state,
        session_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    with scratch_store("cee_swm_") as sd:
        for parity, epoch in ((0, "e0"), (1, "e1")):
            session_window_epoch(
                id_slice(ds, "event_id", 2, parity), sd, epoch,
                gap_minutes=30, allowed_lateness_minutes=120)
        out = read_session_state(sd).to_pandas()
    return _int64(out, ["start_us", "end_us", "n"])


@query("hist_state_quantiles", """
    WITH b AS (
      SELECT event_type,
             CAST(floor(value * 100 + 0.5) AS BIGINT) // 500
               AS bucket
      FROM events),
    h AS (SELECT event_type, bucket, COUNT(*) AS n
          FROM b GROUP BY 1, 2),
    t AS (SELECT event_type, CAST(SUM(n) AS BIGINT) AS total
          FROM h GROUP BY 1),
    c AS (SELECT event_type, bucket, n,
                 CAST(SUM(n) OVER (PARTITION BY event_type
                                   ORDER BY bucket
                                   ROWS UNBOUNDED PRECEDING)
                      AS BIGINT) AS cum
          FROM h),
    q AS (SELECT c.event_type, qq.q, MIN(c.bucket) AS qb
          FROM c JOIN t USING (event_type)
          CROSS JOIN (VALUES (50), (90), (99)) AS qq(q)
          WHERE c.cum >= (qq.q * t.total + 99) // 100
          GROUP BY 1, 2)
    SELECT t.event_type, t.total AS n_total,
           MAX(CASE WHEN q.q = 50 THEN q.qb END) AS q50_bucket,
           MAX(CASE WHEN q.q = 90 THEN q.qb END) AS q90_bucket,
           MAX(CASE WHEN q.q = 99 THEN q.qb END) AS q99_bucket
    FROM t JOIN q USING (event_type)
    GROUP BY 1, 2
""", bench=True)
def q_hist_state_quantiles(sf_dir: str) -> Any:
    """Epoch-incremental per-key histogram state (stages/histstate.py):
    two epochs of (event_type, value) rows (event_id parity) sum-merge
    into a sparse (key, bucket) count table — buckets are exact integer
    cents // 500 — and the serving read derives per-key quantile
    BUCKETS at rank (q*total+99)//100 (integer ceil, bit-identical in
    numpy and DuckDB). The oracle replays buckets + cumulative-window
    rank selection over the full events table in SQL — state == batch
    by the sum-merge argument."""
    from calendar_event_entity_extraction_ray.stages.histstate import (
        hist_epoch,
        read_quantiles,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type",
                                          "value"])
    with scratch_store("cee_hist_") as sd:
        for parity, epoch in ((0, "e1"), (1, "e2")):
            hist_epoch(id_slice(ds, "event_id", 2, parity), sd, epoch,
                       width_cents=500)
        out = read_quantiles(sd, qs=[50, 90, 99])
    return _int64(out, ["n_total", "q50_bucket", "q90_bucket",
                        "q99_bucket"])


@query("sealed_windows_total", """
    WITH ev AS (
      SELECT event_type, epoch_us(ts) AS tus,
             (epoch_us(ts) // 3600000000) * 3600000000 AS ws,
             event_id FROM events),
    e0 AS (SELECT * FROM ev WHERE event_id % 3 = 0),
    e1 AS (SELECT * FROM ev WHERE event_id % 3 = 1),
    e2 AS (SELECT * FROM ev WHERE event_id % 3 = 2),
    wm0 AS (SELECT max(tus) - 7200000000 AS w FROM e0),
    c0 AS (SELECT event_type, ws, COUNT(*) AS n
           FROM e0 GROUP BY 1, 2),
    final0 AS (SELECT * FROM c0
               WHERE ws + 3600000000 <= (SELECT w FROM wm0)),
    open0 AS (SELECT * FROM c0
              WHERE ws + 3600000000 > (SELECT w FROM wm0)),
    c1 AS (SELECT event_type, ws, COUNT(*) AS n FROM e1
           WHERE ws + 3600000000 > (SELECT w FROM wm0)
           GROUP BY 1, 2),
    wm1 AS (SELECT greatest((SELECT w FROM wm0),
                (SELECT max(tus) FROM e1) - 7200000000) AS w),
    merged1 AS (SELECT event_type, ws, SUM(n) AS n FROM
                (SELECT * FROM open0 UNION ALL SELECT * FROM c1)
                GROUP BY 1, 2),
    final1 AS (SELECT * FROM merged1
               WHERE ws + 3600000000 <= (SELECT w FROM wm1)),
    open1 AS (SELECT * FROM merged1
              WHERE ws + 3600000000 > (SELECT w FROM wm1)),
    c2 AS (SELECT event_type, ws, COUNT(*) AS n FROM e2
           WHERE ws + 3600000000 > (SELECT w FROM wm1)
           GROUP BY 1, 2),
    wm2 AS (SELECT greatest((SELECT w FROM wm1),
                (SELECT max(tus) FROM e2) - 7200000000) AS w),
    merged2 AS (SELECT event_type, ws, SUM(n) AS n FROM
                (SELECT * FROM open1 UNION ALL SELECT * FROM c2)
                GROUP BY 1, 2),
    final2 AS (SELECT * FROM merged2
               WHERE ws + 3600000000 <= (SELECT w FROM wm2))
    SELECT event_type, ws AS window_start_us,
           CAST(n AS BIGINT) AS n, 'e0' AS epoch FROM final0
    UNION ALL SELECT event_type, ws, CAST(n AS BIGINT), 'e1'
    FROM final1
    UNION ALL SELECT event_type, ws, CAST(n AS BIGINT), 'e2'
    FROM final2
""", bench=True)
def q_sealed_windows_total(sf_dir: str) -> Any:
    """The SERVING read over sealed window outputs (stages/watermark.py:
    read_final_windows): three epochs of events (event_id mod 3) ingest
    into tumbling 1-h windows under a 2-h lateness watermark, then the
    query joins the per-epoch SEALED shards across all three epochs —
    (key, window, count, sealing epoch). Open windows and late rows are
    excluded by construction; the DuckDB oracle replays the three-epoch
    watermark protocol as chained CTEs, tagging each sealed window with
    the epoch that sealed it."""
    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_final_windows,
        tumbling_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])
    with scratch_store("cee_swt_") as sd:
        for rem, epoch in ((0, "e0"), (1, "e1"), (2, "e2")):
            tumbling_window_epoch(id_slice(ds, "event_id", 3, rem), sd,
                                  epoch, window_minutes=60,
                                  allowed_lateness_minutes=120)
        out = read_final_windows(sd).to_pandas()
    out = out.sort_values(["epoch", "event_type", "window_start_us"],
                          kind="stable").reset_index(drop=True)
    return _int64(out, ["window_start_us", "n"])


@query("hll_state_distinct", """
    SELECT event_type,
           CAST(COUNT(DISTINCT user_id) AS BIGINT)
               AS exact_distinct_users,
           1 AS state_hll_ok
    FROM events GROUP BY event_type
""", bench=True)
def q_hll_state_distinct(sf_dir: str) -> Any:
    """Epoch-incremental approximate-distinct state (stages/hllstate.py):
    events arrive as two epochs (event_id parity); per-event-type HLL
    registers maintained as sparse (key, bucket, rank) rows whose
    max-merge is order-independent AND idempotent — state across epochs
    equals the single-shot batch registers bit-for-bit (pinned by
    tests). Oracle-shaped output: exact per-type distinct users plus an
    indicator that the STATE-served estimate landed within 5%."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        exact_dedup,
    )
    from calendar_event_entity_extraction_ray.stages.hllstate import (
        hll_distinct_epoch,
        read_hll_distinct,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type",
                                          "user_id"])

    def kv(b: pa.Table) -> pa.Table:
        return pa.table({"k": b.column("event_type"),
                         "v": b.column("user_id").cast(pa.string())})

    with scratch_store("cee_hll_") as sd:
        for parity, epoch in ((0, "e1"), (1, "e2")):
            hll_distinct_epoch(
                id_slice(ds, "event_id", 2, parity).map_batches(
                    kv, batch_format="pyarrow"),
                sd, epoch, "k", "v", p=12, num_partitions=8)
        est = dict(zip(*(c for _, c in read_hll_distinct(sd).items())))

    distinct = exact_dedup(ds.select_columns(["event_type", "user_id"]),
                           ["event_type", "user_id"], "user_id")
    exact = grouped_count(distinct, "event_type",
                          out_col="exact_distinct_users").to_pandas()
    exact = exact.sort_values("event_type").reset_index(drop=True)
    exact["exact_distinct_users"] = exact["exact_distinct_users"].astype(
        "int64")
    exact["state_hll_ok"] = [
        1 if abs(est.get(g, 0.0) - n) / max(n, 1) < 0.05 else 0
        for g, n in zip(exact["event_type"],
                        exact["exact_distinct_users"])]
    exact["state_hll_ok"] = exact["state_hll_ok"].astype("int64")
    return exact


@query("entity_registry", f"SELECT surface, entity_id FROM {_golden('entity_registry')}", bench=True)
def q_entity_registry(sf_dir: str) -> Any:
    """Epoch-incremental entity resolution with STABLE canonical ids
    (stages/entityreg.py): part surfaces arrive as two crawl epochs
    (split by p_partkey parity); epoch-2 typos adopt epoch-1 canonicals,
    already-registered surfaces keep their ids, new clusters mint the
    min member. Store presharded by deletion-variant hash (fpstore
    pattern); golden oracle replays the same incremental semantics
    single-process with brute-force distance."""
    from calendar_event_entity_extraction_ray.stages.entityreg import (
        lookup_surfaces,
        register_epoch,
    )

    parts = _read(sf_dir, "part", columns=["p_partkey", "p_name"])

    def surface(b: pa.Table) -> pa.Table:
        return pa.table({"surface": b.column("p_name")})

    with scratch_store("cee_entreg_") as sd:
        for parity, epoch in ((0, "e1"), (1, "e2")):
            register_epoch(
                id_slice(parts, "p_partkey", 2, parity).map_batches(
                    surface, batch_format="pyarrow"),
                sd, epoch, num_partitions=16)
        out = lookup_surfaces(parts.map_batches(
            surface, batch_format="pyarrow"), sd).to_pandas()
    return out
