"""Queries over the ``events`` table: windows and sessions, window
functions, sketches (HLL, count-min, heavy hitters), pivots, set
operations and funnels.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

from calendar_event_entity_extraction_ray.catalog import _int64, _read, query


@query("events_by_type", """
    SELECT event_type,
           COUNT(*) AS n,
           CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_cents,
           MIN(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS min_value_cents,
           MAX(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS max_value_cents
    FROM events GROUP BY event_type
""")
def q_events_by_type(sf_dir: str) -> Any:
    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy()
        return pa.table({
            "event_type": b.column("event_type"),
            "value_c": pa.array(np.floor(v * 100 + 0.5).astype(np.int64)),
        })

    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums

    out = grouped_sums(
        ds.map_batches(prep, batch_format="pyarrow"),
        key_cols=["event_type"], sum_cols=["value_c"], count_alias="n",
        min_cols=["value_c"], max_cols=["value_c"],
    ).to_pandas().rename(columns={
        "value_c": "sum_value_cents", "min_value_c": "min_value_cents",
        "max_value_c": "max_value_cents",
    })
    return _int64(out, ["n", "sum_value_cents", "min_value_cents",
                        "max_value_cents"])


@query("events_hourly", """
    SELECT event_type, date_trunc('hour', ts) AS hour, COUNT(*) AS n
    FROM events GROUP BY event_type, date_trunc('hour', ts)
""", bench=True)
def q_events_hourly(sf_dir: str) -> Any:
    """Tumbling 1-hour window counts per event_type (streaming-shaped op)."""
    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_type": b.column("event_type"),
            "hour": pc.floor_temporal(b.column("ts"), unit="hour"),
        })

    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums

    # partial pre-aggregation: the shuffle moves |groups| x |batches|
    # partial rows, not the raw event stream
    out = grouped_sums(ds.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["event_type", "hour"], sum_cols=[],
                       count_alias="n")
    return _int64(out, ["n"])


@query("top_users", """
    SELECT user_id, COUNT(*) AS n FROM events
    WHERE user_id IS NOT NULL
    GROUP BY user_id ORDER BY n DESC, user_id LIMIT 20
""")
def q_top_users(sf_dir: str) -> Any:
    """Top-20 users by event count (the reference's top-k pool pattern,
    entity_pools.py:20), per-batch pre-aggregated exchange count."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

    ds = _read(sf_dir, "events", columns=["user_id"])
    counts = grouped_count(ds, "user_id", out_col="n")
    top = counts.sort(["n", "user_id"], descending=[True, False]).limit(20)
    return _int64(top, ["user_id", "n"])


@query("sessionize", """
    WITH d AS (
      SELECT user_id, ts,
             CASE WHEN lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                       IS NULL THEN 0
                  WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts)
                       > INTERVAL 30 MINUTE THEN 1
                  ELSE 0 END AS new_s
      FROM events
    )
    SELECT user_id,
           CAST(SUM(new_s) + 1 AS BIGINT) AS n_sessions,
           COUNT(*) AS n_events
    FROM d GROUP BY user_id
""", bench=True)
def q_sessionize(sf_dir: str) -> Any:
    """Session windows per user (30-min inactivity gap) — key-hash exchange
    + ONE vectorized sessionization pass per partition
    (stages/windows.py:sessionize)."""
    from calendar_event_entity_extraction_ray.stages.windows import sessionize

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return _int64(sessionize(ds), ["user_id", "n_sessions", "n_events"])


@query("count_windows", """
    WITH seq AS (
      SELECT user_id,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) - 1 AS rn
      FROM events)
    SELECT user_id, rn // 16 AS window_id,
           COUNT(*) AS n_events,
           CAST(SUM(cents) AS BIGINT) AS sum_cents
    FROM seq GROUP BY user_id, rn // 16
""", bench=True)
def q_count_windows(sf_dir: str) -> Any:
    """Tumbling COUNT windows per user (every 16 events, ordered by
    ts then event_id) — the row-count analogue of events_hourly
    (stages/windows.py:count_windows)."""
    from calendar_event_entity_extraction_ray.stages.windows import count_windows

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "value"])
    return _int64(count_windows(ds, n=16),
                  ["user_id", "window_id", "n_events", "sum_cents"])


@query("count_windows_sliding", """
    WITH seq AS (
      SELECT user_id,
             CAST(floor(value * 100 + 0.5) AS BIGINT) AS cents,
             ROW_NUMBER() OVER (PARTITION BY user_id
                                ORDER BY ts, event_id) - 1 AS rn
      FROM events),
    ex AS (
      SELECT user_id, cents,
             unnest(generate_series(
                 greatest(0, CAST(ceil((rn - 15) / 4.0) AS BIGINT)),
                 rn // 4)) AS window_id
      FROM seq)
    SELECT user_id, window_id,
           COUNT(*) AS n_events,
           CAST(SUM(cents) AS BIGINT) AS sum_cents
    FROM ex GROUP BY user_id, window_id
""", bench=True)
def q_count_windows_sliding(sf_dir: str) -> Any:
    """Sliding COUNT windows per user (size 16, slide 4): each event joins
    every window covering its per-key sequence number; the fold explodes
    rows into windows with one np.repeat ramp
    (stages/windows.py:count_windows)."""
    from calendar_event_entity_extraction_ray.stages.windows import count_windows

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "value"])
    return _int64(count_windows(ds, n=16, slide=4),
                  ["user_id", "window_id", "n_events", "sum_cents"])


@query("decayed_user_counts", """
    WITH mx AS (SELECT epoch_us(max(ts)) AS t FROM events)
    SELECT user_id,
           COUNT(*) AS n_events,
           CAST(SUM(
               CAST(1 AS BIGINT) << CAST(
                   30 - least(
                       t // (48 * 3600 * CAST(1000000 AS BIGINT))
                       - epoch_us(ts)
                         // (48 * 3600 * CAST(1000000 AS BIGINT)),
                       30)
                   AS INTEGER)
           ) AS BIGINT) AS decayed_num
    FROM events, mx GROUP BY user_id
""", bench=True)
def q_decayed_user_counts(sf_dir: str) -> Any:
    """Per-user exponentially time-decayed activity counter (48 h
    half-life, referenced at the corpus max ts) — exact integer
    numerator, so the distributed partial sums are bit-identical to SQL
    (stages/windows.py:decayed_counts)."""
    import pandas as pd

    from calendar_event_entity_extraction_ray.stages.windows import decayed_counts

    ref = _read(sf_dir, "events", columns=["ts"]).max("ts")
    ref_us = pd.Timestamp(ref).value // 1_000
    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return _int64(decayed_counts(ds, "user_id", "ts", ref_us),
                  ["user_id", "n_events", "decayed_num"])


@query("props_k_stats", """
    SELECT event_type,
           COUNT(*) AS n,
           CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k
    FROM events GROUP BY event_type
""")
def q_props_stats(sf_dir: str) -> Any:
    """JSON payload extraction in the hot path: events.props is a JSON
    string; the reference's brace-scan + safe parse (src/infer.py:22-48)
    pulls the "k" field, then a pre-aggregated grouped sum."""
    from calendar_event_entity_extraction_ray.functions.jsonx import safe_json_load
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums

    ds = _read(sf_dir, "events", columns=["event_type", "props"])

    def prep(b: pa.Table) -> pa.Table:
        ks = []
        for p in b.column("props").to_pylist():
            obj = safe_json_load(p or "")
            ks.append(int(obj.get("k", 0)) if isinstance(obj, dict) else 0)
        return pa.table({
            "event_type": b.column("event_type"),
            "k": pa.array(ks, pa.int64()),
        })

    out = grouped_sums(ds.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["event_type"], sum_cols=["k"],
                       count_alias="n").to_pandas().rename(columns={"k": "sum_k"})
    return _int64(out, ["n", "sum_k"])


@query("error_prev_click", """
    SELECT e.event_id, c.ts AS prev_click_ts
    FROM (SELECT event_id, ts, user_id FROM events WHERE event_type = 'error') e
    ASOF LEFT JOIN (SELECT ts, user_id FROM events WHERE event_type = 'click') c
      ON e.user_id = c.user_id AND e.ts >= c.ts
""")
def q_error_prev_click(sf_dir: str) -> Any:
    """Backward as-of join: for each 'error' event, the most recent
    preceding 'click' by the same user (partitioned merge_asof; each
    side's type predicate pushes into its own parquet scan)."""
    import pyarrow.dataset as pds

    from calendar_event_entity_extraction_ray.stages.joins import asof_join

    errors = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"],
                   predicate=(pds.field("event_type") == "error"))
    clicks = _read(sf_dir, "events", columns=["ts", "user_id"],
                   predicate=(pds.field("event_type") == "click"))
    out = asof_join(errors, clicks, on="ts", by="user_id",
                    left_cols=["ts", "user_id", "event_id"],
                    right_cols=["ts", "user_id"], suffix="_click")
    df = out.to_pandas()[["event_id", "ts_click"]].rename(
        columns={"ts_click": "prev_click_ts"})
    df["event_id"] = df["event_id"].astype("int64")
    return df


@query("approx_distinct_users", """
    SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS exact_distinct_users,
           1 AS hll_ok
    FROM events
""")
def q_approx_distinct(sf_dir: str) -> Any:
    """HyperLogLog approximate distinct: one serialized sketch per batch,
    merged in a tiny final fold (functions/sketch.py). Oracle-checkable
    shape: the EXACT distinct count (scalable pre-aggregated grouped count
    -> row count) is returned next to an ``hll_ok`` indicator that the HLL
    estimate landed within 5% of it (p=12 => ~1.6% typical error; the
    test suite asserts <2% on its fixtures)."""
    from calendar_event_entity_extraction_ray.functions.sketch import HyperLogLog
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

    ds = _read(sf_dir, "events", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        h = HyperLogLog(p=12).add_many(b.column("user_id").to_pylist())
        return pa.table({"sketch": pa.array([h.serialize()], pa.binary())})

    merged = HyperLogLog(p=12)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for s in b.column("sketch").to_pylist():
            merged.merge(HyperLogLog.deserialize(s))
    est = merged.estimate()
    exact = grouped_count(ds, "user_id", out_col="n").count()
    return pd.DataFrame([{
        "exact_distinct_users": int(exact),
        "hll_ok": int(abs(est - exact) <= 0.05 * exact),
    }])


@query("events_sliding", """
    SELECT event_type,
           to_timestamp(CAST(floor(epoch(ts) / 900) * 900 - 900 * k AS BIGINT))::TIMESTAMP AS window_start,
           COUNT(*) AS n
    FROM events CROSS JOIN (SELECT unnest([0,1,2,3]) AS k)
    GROUP BY 1, 2
""")
def q_events_sliding(sf_dir: str) -> Any:
    """Sliding 1-hour windows advancing every 15 minutes: each event lands
    in 4 windows (flat window-assignment explode -> pre-aggregated grouped count)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def explode(b: pa.Table) -> pa.Table:
        # vectorized 1->4 window assignment: epoch floored to 15 min, the
        # 4 hour-long windows covering each event
        et = b.column("event_type").combine_chunks()
        epoch_us = b.column("ts").combine_chunks().cast(pa.int64()).to_numpy()
        base = epoch_us // 900_000_000 * 900  # seconds
        starts = np.concatenate([base - 900 * k for k in range(4)])
        return pa.table({
            "event_type": pa.chunked_array([et] * 4),
            "window_start": pa.array(starts * 1_000_000, pa.timestamp("us")),
        })

    out = grouped_sums(ds.map_batches(explode, batch_format="pyarrow"),
                       key_cols=["event_type", "window_start"], sum_cols=[],
                       count_alias="n").to_pandas()
    return _int64(out, ["n"])


@query("grouped_approx_quantiles", """
    SELECT event_type,
           CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
           CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2,
           1 AS sk_ok
    FROM (SELECT event_type,
                 unnest([0.5, 0.9]) AS q,
                 unnest(quantile_disc(value, [0.5, 0.9])) AS v
          FROM events GROUP BY event_type)
""")
def q_grouped_approx_quantiles(sf_dir: str) -> Any:
    """Grouped streaming quantiles: one KLL sketch per (group, batch)
    ships to the driver (|groups| x k floats — never the values), merged
    per group. Oracle-shaped like the global sketch query: the output
    rows are the EXACT per-group quantiles (grouped histogram-refine)
    plus an indicator that each sketch estimate's true in-group rank
    landed within 2% of the target."""
    from calendar_event_entity_extraction_ray.functions.sketch import (
        QuantileSketch,
    )
    from calendar_event_entity_extraction_ray.stages.quantiles import (
        grouped_quantiles,
    )

    qs = [0.5, 0.9]
    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    ds = ds.materialize()   # three passes: sketch, exact, rank check

    def partial(b: pa.Table) -> pa.Table:
        by_group: dict = {}
        for g, v in zip(b.column("event_type").to_pylist(),
                        b.column("value").to_pylist()):
            if v is not None:
                by_group.setdefault(g, QuantileSketch(k=256)).add_many([v])
        return pa.table({
            "g": pa.array(list(by_group), pa.string()),
            "sk": pa.array([s.serialize() for s in by_group.values()],
                           pa.binary()),
        })

    merged: dict = {}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for g, blob in zip(b.column("g").to_pylist(),
                           b.column("sk").to_pylist()):
            sk = QuantileSketch.deserialize(blob)
            if g in merged:
                merged[g].merge(sk)
            else:
                merged[g] = sk
    ests = {g: [sk.quantile(q) for q in qs] for g, sk in merged.items()}

    # rank check: per group, n valid values and count(<= est) per target
    def rank_partial(b: pa.Table, _ests=ests) -> pa.Table:
        df = pd.DataFrame({
            "g": b.column("event_type").to_pylist(),
            "v": b.column("value").to_numpy(zero_copy_only=False)})
        df = df[~df["v"].isna()]
        rows_g, rows_n, rows_le = [], [], []
        for g, grp in df.groupby("g"):
            v = grp["v"].to_numpy()
            rows_g.append(g)
            rows_n.append(len(v))
            rows_le.append([int((v <= e).sum()) for e in _ests[g]])
        return pa.table({
            "g": pa.array(rows_g, pa.string()),
            "n": pa.array(rows_n, pa.int64()),
            "le": pa.array(rows_le, pa.list_(pa.int64())),
        })

    n_of: dict = {}
    le_of: dict = {}
    for b in ds.map_batches(rank_partial,
                            batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for g, n, le in zip(b.column("g").to_pylist(),
                            b.column("n").to_pylist(),
                            b.column("le").to_pylist()):
            n_of[g] = n_of.get(g, 0) + n
            le_of[g] = [a + x for a, x in
                        zip(le_of.get(g, [0] * len(qs)), le)]

    exact = grouped_quantiles(ds, "value", "event_type", qs)
    rows = []
    for g, q, v in exact:
        qi = qs.index(q)
        rank = le_of[g][qi] / max(n_of[g], 1)
        rows.append({
            "event_type": g,
            "q_e4": int(round(q * 10000)),
            "val_e2": int(math.floor(v * 100 + 0.5)),
            "sk_ok": 1 if abs(rank - q) <= 0.02 else 0,
        })
    return pd.DataFrame(rows)


@query("distinct_user_types", """
    SELECT DISTINCT user_id, event_type FROM events
""")
def q_distinct_user_types(sf_dir: str) -> Any:
    """SELECT DISTINCT (user_id, event_type): per-batch local distinct
    collapses before the exchange (a hot pair ships one row per batch),
    then the grouped fold keeps one row per key — NULL groups kept, as
    SQL DISTINCT does."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    out = grouped_sums(ds, key_cols=["user_id", "event_type"],
                       sum_cols=[]).drop_columns(["n"])
    return _int64(out.to_pandas(), ["user_id"])


@query("resample_user_hourly", """
    WITH b AS (
        SELECT user_id,
               CAST(FLOOR(epoch(ts) / 3600) AS BIGINT) AS bucket,
               COUNT(*) AS n,
               SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT)) AS sv
        FROM events GROUP BY 1, 2),
    s AS (SELECT user_id, MIN(bucket) AS lo, MAX(bucket) AS hi
          FROM b GROUP BY 1),
    grid AS (SELECT user_id,
                    unnest(generate_series(lo, hi)) AS bucket
             FROM s)
    SELECT g.user_id, g.bucket * 3600 AS bucket_ts,
           CAST(COALESCE(b.n, 0) AS BIGINT) AS n_events,
           CAST(COALESCE(b.sv, 0) AS BIGINT) AS sum_cents
    FROM grid g LEFT JOIN b
      ON g.user_id = b.user_id AND g.bucket = b.bucket
""", bench=True)
def q_resample_user_hourly(sf_dir: str) -> Any:
    """Per-user hourly resample WITH gap fill (stages/windows.py:
    resample_fill): dense bucket grid per user from first to last event,
    silent gaps as explicit zero rows — per-batch (user, bucket)
    partials, ONE user-keyed exchange whose fold reduces and
    grid-fills in the same vectorized pass."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        resample_fill,
    )

    ev = _read(sf_dir, "events", columns=["user_id", "ts", "value"])
    out = resample_fill(ev, bucket_s=3600)
    return _int64(out.to_pandas(),
                  ["user_id", "bucket_ts", "n_events", "sum_cents"])


@query("error_click_burst", """
    SELECT e.event_id,
           CAST(COUNT(c.event_id) AS BIGINT) AS n_prior_clicks
    FROM events e
    LEFT JOIN events c
      ON c.user_id = e.user_id AND c.event_type = 'click'
     AND c.ts >= e.ts - INTERVAL 5 MINUTE AND c.ts < e.ts
    WHERE e.event_type = 'error'
    GROUP BY e.event_id
""", bench=True)
def q_error_click_burst(sf_dir: str) -> Any:
    """Range join (count form): for each error event, the number of clicks
    by the same user in the preceding 5 minutes — two vectorized
    searchsorted rank lookups per user group after one exchange, never a
    pair explosion (stages/joins.py:range_join_count; each side's type
    predicate pushes into its own parquet scan)."""
    import numpy as np

    import pyarrow.dataset as pds

    from calendar_event_entity_extraction_ray.stages.joins import (
        range_join_count,
    )

    errors = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"],
                   predicate=(pds.field("event_type") == "error"))
    clicks = _read(sf_dir, "events", columns=["ts", "user_id"],
                   predicate=(pds.field("event_type") == "click"))
    out = range_join_count(
        errors, clicks, on="ts", by="user_id",
        lo=np.timedelta64(-300, "s"), hi=np.timedelta64(0, "s"),
        left_cols=["event_id"], count_col="n_prior_clicks")
    return out


@query("error_click_pairs", """
    SELECT e.user_id, e.event_id AS err_id, c.event_id AS click_id
    FROM events e
    JOIN events c
      ON c.user_id = e.user_id
     AND c.ts >= e.ts AND c.ts < e.ts + INTERVAL 6 HOUR
    WHERE e.event_type = 'error' AND c.event_type = 'click'
""", bench=True)
def q_error_click_pairs(sf_dir: str) -> Any:
    """Interval join, PAIR form: every (error, click) event pair of the
    same user with the click inside the 6 hours after the error — the
    by-key exchange plus two searchsorted rank lookups per user group,
    pairs emitted with one vectorized gather (stages/joins.py:
    interval_join_pairs); O(pairs) only in writing the result."""
    import numpy as np

    import pyarrow.dataset as pds

    from calendar_event_entity_extraction_ray.stages.joins import (
        interval_join_pairs,
    )

    def rename(col: str):
        def f(b: pa.Table) -> pa.Table:
            return b.rename_columns(
                [col if c == "event_id" else c for c in b.column_names])
        return f

    errors = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"],
                   predicate=(pds.field("event_type") == "error")
                   ).map_batches(rename("err_id"), batch_format="pyarrow")
    clicks = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"],
                   predicate=(pds.field("event_type") == "click")
                   ).map_batches(rename("click_id"), batch_format="pyarrow")
    return interval_join_pairs(
        errors, clicks, on="ts", by="user_id",
        lo=np.timedelta64(0, "s"), hi=np.timedelta64(6 * 3600, "s"),
        left_cols=["user_id", "err_id"], right_cols=["click_id"])


@query("user_windows", """
    SELECT event_id,
           ROW_NUMBER() OVER w AS seq,
           CAST(FLOOR(SUM(value) OVER (w ROWS BETWEEN 2 PRECEDING
                AND CURRENT ROW) * 100 + 0.5) AS BIGINT) AS roll3_e2
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
""", bench=True)
def q_user_windows(sf_dir: str) -> Any:
    """SQL row-window functions (ROW_NUMBER + 3-row rolling sum) per user
    ordered by (ts, event_id): one key-hash exchange, vectorized
    cumcount/rolling per partition (stages/windows.py). The rolling sum
    adds the same <= 3 doubles in the same order as the SQL engine, so
    cent-scaled values match bit-for-bit."""
    import math

    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id",
                                          "value"])
    out = partitioned_row_window(
        ev, by="user_id", order_cols=["ts", "event_id"],
        value_col="value", rolling=3)

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "seq": b.column("seq"),
            "roll3_e2": pa.array(
                [int(math.floor(v * 100 + 0.5))
                 for v in b.column("roll_sum").to_pylist()], pa.int64()),
        })

    return out.map_batches(fin, batch_format="pyarrow")


@query("user_first_last", """
    SELECT event_id,
           FIRST_VALUE(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
               OVER w AS first_e2,
           LAST_VALUE(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
               OVER w AS last_e2
    FROM events
    WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                 ROWS BETWEEN UNBOUNDED PRECEDING
                 AND UNBOUNDED FOLLOWING)
""")
def q_user_first_last(sf_dir: str) -> Any:
    """FIRST_VALUE / LAST_VALUE per user over the full partition frame
    (ROWS UNBOUNDED PRECEDING..UNBOUNDED FOLLOWING — pinned in the oracle
    too; the SQL default frame makes LAST_VALUE the current row). Values
    cent-scaled to int BEFORE the window, so first/last are exact."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id",
                                          "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy()
        return pa.table({
            "event_id": b.column("event_id"),
            "ts": b.column("ts"),
            "user_id": b.column("user_id"),
            "value_c": pa.array(np.floor(v * 100 + 0.5).astype(np.int64)),
        })

    out = partitioned_row_window(
        ev.map_batches(prep, batch_format="pyarrow"),
        by="user_id", order_cols=["ts", "event_id"],
        value_col="value_c", first_last=True)

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "first_e2": b.column("first_value"),
            "last_e2": b.column("last_value"),
        })

    return out.map_batches(fin, batch_format="pyarrow")


@query("user_range_sum", """
    SELECT event_id,
           CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
               OVER w AS BIGINT) AS range10m_e2
    FROM events
    WINDOW w AS (PARTITION BY user_id
                 ORDER BY CAST(FLOOR(epoch(ts)) AS BIGINT)
                 RANGE BETWEEN 600 PRECEDING AND CURRENT ROW)
""", bench=True)
def q_user_range_sum(sf_dir: str) -> Any:
    """RANGE frame: SUM(value) OVER (PARTITION BY user ORDER BY epoch(ts)
    RANGE BETWEEN 600 PRECEDING AND CURRENT ROW) — a 10-minute
    value-range window including peers (equal timestamps) after the
    current row, computed with one global searchsorted + prefix sums per
    exchange partition (stages/windows.py), no per-group loop."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id",
                                          "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy()
        us = b.column("ts").combine_chunks().cast(pa.int64()).to_numpy()
        return pa.table({
            "event_id": b.column("event_id"),
            "ts_s": pa.array(us // 1_000_000),
            "user_id": b.column("user_id"),
            "value_c": pa.array(np.floor(v * 100 + 0.5).astype(np.int64)),
        })

    out = partitioned_row_window(
        ev.map_batches(prep, batch_format="pyarrow"),
        by="user_id", order_cols=["ts_s", "event_id"],
        value_col="value_c", range_preceding=600, range_on="ts_s")

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "event_id": b.column("event_id"),
            "range10m_e2": b.column("range_sum"),
        })

    return out.map_batches(fin, batch_format="pyarrow")


@query("user_ntile", """
    SELECT event_id,
           NTILE(4) OVER (PARTITION BY user_id
                          ORDER BY ts, event_id) AS tile
    FROM events
""")
def q_user_ntile(sf_dir: str) -> Any:
    """SQL NTILE(4) per user ordered by (ts, event_id) — larger buckets
    first, vectorized from seq + group size in the window fold."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id"])
    out = partitioned_row_window(
        ev, by="user_id", order_cols=["ts", "event_id"], ntile=4)

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({"event_id": b.column("event_id"),
                         "tile": b.column("ntile")})

    return out.map_batches(fin, batch_format="pyarrow")


@query("value_variance", """
    SELECT event_type,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(COUNT(*) * SUM(vc * vc) - SUM(vc) * SUM(vc)
                AS BIGINT) AS var_num
    FROM (SELECT event_type,
                 CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS vc
          FROM events)
    GROUP BY event_type
""")
def q_value_variance(sf_dir: str) -> Any:
    """Exact distributed variance per event_type WITHOUT floats: ship
    (sum, sum-of-squares, n) integer partials through grouped_sums, then
    var_num = n*sumsq - sum^2 on the kilobyte result — exact-integer
    parity with the SQL identity (no Welford-vs-sumsq last-ulp risk).
    Domain: |value_c| <= ~1e5 cents and n <= ~1e8 rows/group before the
    int64 numerator saturates; larger domains need the HUGEINT-style
    widening the oracle's DuckDB side gets for free."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    ds = _read(sf_dir, "events", columns=["event_type", "value"])

    def prep(b: pa.Table) -> pa.Table:
        v = b.column("value").to_numpy()
        vc = np.floor(v * 100 + 0.5).astype(np.int64)
        return pa.table({
            "event_type": b.column("event_type"),
            "vc": pa.array(vc),
            "vc2": pa.array(vc * vc),
        })

    out = grouped_sums(ds.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["event_type"], sum_cols=["vc", "vc2"],
                       count_alias="n", stream_reduce=True).to_pandas()
    out["var_num"] = out["n"] * out["vc2"] - out["vc"] * out["vc"]
    return _int64(out[["event_type", "n", "var_num"]],
                  ["n", "var_num"])


@query("event_value_quantiles", """
    SELECT event_type,
           CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
           CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2
    FROM (SELECT event_type,
                 unnest([0.5, 0.9, 0.99]) AS q,
                 unnest(quantile_disc(value, [0.5, 0.9, 0.99])) AS v
          FROM events GROUP BY event_type)
""")
def q_event_value_quantiles(sf_dir: str) -> Any:
    """Per-group EXACT quantile_disc (stages/quantiles.py:
    grouped_quantiles): histogram refinement with every (group, interval)
    target in one pass per round — for low-cardinality groups the driver
    state is |groups| x |qs| histograms, never the data."""
    import math

    from calendar_event_entity_extraction_ray.stages.quantiles import (
        grouped_quantiles,
    )

    qs = [0.5, 0.9, 0.99]
    ds = _read(sf_dir, "events", columns=["event_type", "value"])
    res = grouped_quantiles(ds, "value", "event_type", qs, bins=256,
                            collect_cap=10_000)
    res.sort(key=lambda r: (r[0], r[1]))
    return pd.DataFrame({
        "event_type": [g for g, _, _ in res],
        "q_e4": [int(round(q * 10000)) for _, q, _ in res],
        "val_e2": [int(math.floor(v * 100 + 0.5)) for _, _, v in res],
    })


@query("grouped_approx_distinct", """
    SELECT event_type,
           CAST(COUNT(DISTINCT user_id) AS BIGINT)
               AS exact_distinct_users,
           1 AS hll_ok
    FROM events GROUP BY event_type
""")
def q_grouped_approx_distinct(sf_dir: str) -> Any:
    """Grouped HyperLogLog: one mergeable sketch per (group, batch) ships
    to the driver (|groups| x 4 KB — never the values); the oracle-shaped
    output pairs the EXACT per-group distinct (distributed distinct +
    grouped count) with an indicator that each HLL estimate landed within
    5% of it."""
    from calendar_event_entity_extraction_ray.functions.sketch import (
        HyperLogLog,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        exact_dedup,
    )

    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(b: pa.Table) -> pa.Table:
        by_group: dict = {}
        for g, u in zip(b.column("event_type").to_pylist(),
                        b.column("user_id").to_pylist()):
            by_group.setdefault(g, HyperLogLog(p=12)).add(str(u))
        return pa.table({
            "g": pa.array(list(by_group), pa.string()),
            "sketch": pa.array([h.serialize() for h in by_group.values()],
                               pa.binary()),
        })

    merged: dict = {}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for g, s in zip(b.column("g").to_pylist(),
                        b.column("sketch").to_pylist()):
            h = HyperLogLog.deserialize(s)
            if g in merged:
                merged[g].merge(h)
            else:
                merged[g] = h

    distinct = exact_dedup(ds, ["event_type", "user_id"], "user_id")
    exact = grouped_count(distinct, "event_type",
                          out_col="exact_distinct_users").to_pandas()
    exact = exact.sort_values("event_type").reset_index(drop=True)
    exact["exact_distinct_users"] = exact["exact_distinct_users"].astype(
        "int64")
    exact["hll_ok"] = [
        1 if abs(merged[g].estimate() - n) / max(n, 1) < 0.05 else 0
        for g, n in zip(exact["event_type"],
                        exact["exact_distinct_users"])]
    exact["hll_ok"] = exact["hll_ok"].astype("int64")
    return exact


@query("user_event_pivot", """
    SELECT user_id,
           CAST(COUNT(*) FILTER (WHERE event_type = 'click')
                AS BIGINT) AS n_click,
           CAST(COUNT(*) FILTER (WHERE event_type = 'error')
                AS BIGINT) AS n_error,
           CAST(COUNT(*) FILTER (WHERE event_type = 'purchase')
                AS BIGINT) AS n_purchase,
           CAST(COUNT(*) FILTER (WHERE event_type = 'signup')
                AS BIGINT) AS n_signup,
           CAST(COUNT(*) FILTER (WHERE event_type = 'view')
                AS BIGINT) AS n_view
    FROM events GROUP BY user_id
""", bench=True)
def q_user_event_pivot(sf_dir: str) -> Any:
    """Pivot: per-user event-type counts as columns (conditional
    aggregation through the partial pre-agg path — the shuffle moves
    |users| x |batches| partial rows, never events).
    stages/aggregate.py:pivot_count."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        pivot_count,
    )

    ds = _read(sf_dir, "events", columns=["user_id", "event_type"])
    out = pivot_count(ds, "user_id", "event_type")
    return _int64(out.to_pandas())


@query("user_value_lag", """
    SELECT event_id,
           CAST(FLOOR(LAG(value) OVER (PARTITION BY user_id
                ORDER BY ts, event_id) * 100 + 0.5) AS BIGINT)
               AS prev_value_e2
    FROM events
""")
def q_user_value_lag(sf_dir: str) -> Any:
    """SQL LAG per user ordered by (ts, event_id): the same one-exchange
    row-window operator with the lag emitter; NULLs on each user's first
    row survive to the output (SQL parity)."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id",
                                          "value"])
    out = partitioned_row_window(
        ev, by="user_id", order_cols=["ts", "event_id"],
        value_col="value", lag=1)

    def fin(b: pa.Table) -> pa.Table:
        import numpy as np

        lagv = b.column("lag_value").to_numpy(zero_copy_only=False)
        scaled = [None if v is None or (isinstance(v, float) and np.isnan(v))
                  else int(np.floor(v * 100 + 0.5)) for v in lagv]
        return pa.table({
            "event_id": b.column("event_id"),
            "prev_value_e2": pa.array(scaled, pa.int64()),
        })

    return out.map_batches(fin, batch_format="pyarrow")


@query("heavy_hitter_users", """
    SELECT user_id, n, 1 AS mg_ok FROM (
      SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
             ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, user_id)
                 AS rnk
      FROM events GROUP BY user_id)
    WHERE rnk <= 10
""")
def q_heavy_hitters(sf_dir: str) -> Any:
    """Misra-Gries heavy hitters (functions/sketch.py): one bounded
    counter set per batch, merged on the driver (counters, never rows).
    Oracle-shaped output: the exact top-10 users by event count next to
    an ``mg_ok`` indicator that the sketch (k=256) contains each with an
    estimate within the guaranteed n/(k+1) undercount bound."""
    from calendar_event_entity_extraction_ray.functions.sketch import (
        MisraGries,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    K = 256
    ds = _read(sf_dir, "events", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        mg = MisraGries(k=K).add_many(b.column("user_id").to_pylist())
        return pa.table({"mg": pa.array([mg.serialize()], pa.binary())})

    merged = MisraGries(k=K)
    total = 0
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for blob in b.column("mg").to_pylist():
            merged.merge(MisraGries.deserialize(blob, k=K))
    total = int(ds.count())

    exact = grouped_count(ds, "user_id", out_col="n").to_pandas()
    exact = (exact.sort_values(["n", "user_id"], ascending=[False, True])
             .head(10).reset_index(drop=True))
    bound = total / (K + 1)
    exact["mg_ok"] = [
        1 if (n - bound) <= merged.counters.get(u, 0) <= n else 0
        for u, n in zip(exact["user_id"], exact["n"])]
    return _int64(exact)


@query("cm_user_counts", """
    SELECT user_id, n, 1 AS cm_ok FROM (
      SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
             ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, user_id)
                 AS rnk
      FROM events GROUP BY user_id)
    WHERE rnk <= 10
""", bench=True)
def q_cm_user_counts(sf_dir: str) -> Any:
    """Count-Min frequency estimates (functions/sketch.py:CountMin): one
    d x w counter matrix per batch, merged on the driver by elementwise
    add (kilobytes per batch — rows never ship). Oracle-shaped output:
    the exact top-10 users by event count with a ``cm_ok`` indicator
    that each sketch estimate respects both CM guarantees — never below
    the true count, and within the e/w overcount band of it."""
    from calendar_event_entity_extraction_ray.functions.sketch import (
        CountMin,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    W, D = 8192, 5
    ds = _read(sf_dir, "events", columns=["user_id"])

    def partial(b: pa.Table) -> pa.Table:
        cm = CountMin(w=W, d=D).add_many(b.column("user_id").to_pylist())
        return pa.table({"cm": pa.array([cm.serialize()], pa.binary())})

    merged = CountMin(w=W, d=D)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for blob in b.column("cm").to_pylist():
            merged.merge(CountMin.deserialize(blob))
    total = int(merged.table[0].sum())

    exact = grouped_count(ds, "user_id", out_col="n").to_pandas()
    exact = (exact.sort_values(["n", "user_id"], ascending=[False, True])
             .head(10).reset_index(drop=True))
    band = np.e / W * total
    ests = merged.estimate_many(exact["user_id"].tolist())
    exact["cm_ok"] = [1 if n <= e <= n + band else 0
                      for n, e in zip(exact["n"], ests)]
    return _int64(exact)


@query("events_rollup", """
    SELECT event_type, date_trunc('day', ts) AS day,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(GROUPING(event_type, date_trunc('day', ts))
                AS BIGINT) AS gid
    FROM events GROUP BY ROLLUP(event_type, date_trunc('day', ts))
""")
def q_events_rollup(sf_dir: str) -> Any:
    """GROUP BY ROLLUP(event_type, day): one distributed pass at the
    finest level, coarser levels re-aggregated from the bounded result;
    GROUPING bitmask distinguishes rolled-up NULLs from real NULL keys
    (stages/aggregate.py:rollup_counts)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        rollup_counts,
    )

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def day(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_type": b.column("event_type"),
            "day": pc.floor_temporal(b.column("ts"), unit="day"),
        })

    return rollup_counts(ds.map_batches(day, batch_format="pyarrow"),
                         ["event_type", "day"])


@query("user_journey", """
    SELECT user_id,
           string_agg(event_type, ',' ORDER BY ts, event_id)
               AS journey
    FROM events
    WHERE event_type IN ('signup', 'purchase')
    GROUP BY user_id
""")
def q_user_journey(sf_dir: str) -> Any:
    """Ordered per-user event-type concatenation (SQL string_agg with
    ORDER BY — the collect/array_agg family as a deterministic string;
    stages/aggregate.py:string_agg_by_key)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        string_agg_by_key,
    )

    import pyarrow.dataset as pds

    ev = _read(sf_dir, "events",
               columns=["event_id", "ts", "user_id", "event_type"],
               predicate=pds.field("event_type").isin(
                   ["signup", "purchase"]))
    out = string_agg_by_key(ev, "user_id", "event_type",
                            ["ts", "event_id"], sep=",", out_col="journey")
    return out.map_batches(
        lambda b: b.select(["user_id", "journey"]), batch_format="pyarrow")


@query("events_cube", """
    SELECT event_type, date_trunc('day', ts) AS day,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(GROUPING(event_type, date_trunc('day', ts))
                AS BIGINT) AS gid
    FROM events GROUP BY CUBE(event_type, date_trunc('day', ts))
""")
def q_events_cube(sf_dir: str) -> Any:
    """GROUP BY CUBE(event_type, day): every grouping subset from one
    distributed pass (stages/aggregate.py:cube_counts)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        cube_counts,
    )

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def day(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_type": b.column("event_type"),
            "day": pc.floor_temporal(b.column("ts"), unit="day"),
        })

    return cube_counts(ds.map_batches(day, batch_format="pyarrow"),
                       ["event_type", "day"])


@query("events_grouping_sets", """
    SELECT event_type, date_trunc('day', ts) AS day,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(GROUPING(event_type, date_trunc('day', ts))
                AS BIGINT) AS gid
    FROM events GROUP BY GROUPING SETS
        ((event_type, date_trunc('day', ts)),
         (date_trunc('day', ts)), ())
""")
def q_events_grouping_sets(sf_dir: str) -> Any:
    """GROUP BY GROUPING SETS ((event_type, day), (day), ()) — the
    general form rollup/cube specialize (an explicit, non-prefix,
    non-powerset list). Same one-distributed-pass strategy: the finest
    level aggregates once, each requested set re-aggregates the bounded
    result (stages/aggregate.py:grouping_sets_counts)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouping_sets_counts,
    )

    ds = _read(sf_dir, "events", columns=["event_type", "ts"])

    def day(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "event_type": b.column("event_type"),
            "day": pc.floor_temporal(b.column("ts"), unit="day"),
        })

    return grouping_sets_counts(
        ds.map_batches(day, batch_format="pyarrow"),
        ["event_type", "day"],
        sets=[("event_type", "day"), ("day",), ()])


@query("user_next_value", """
    SELECT event_id,
           CAST(FLOOR(LEAD(value) OVER (PARTITION BY user_id
                ORDER BY ts, event_id) * 100 + 0.5) AS BIGINT)
               AS next_value_e2
    FROM events
""")
def q_user_next_value(sf_dir: str) -> Any:
    """SQL LEAD per user ordered by (ts, event_id) — the forward
    counterpart of user_value_lag on the same one-exchange row-window
    operator; NULLs on each user's last row survive."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "ts", "user_id",
                                          "value"])
    out = partitioned_row_window(
        ev, by="user_id", order_cols=["ts", "event_id"],
        value_col="value", lead=1)

    def fin(b: pa.Table) -> pa.Table:
        import numpy as np

        v = b.column("lead_value").to_numpy(zero_copy_only=False)
        scaled = [None if x is None or (isinstance(x, float) and np.isnan(x))
                  else int(np.floor(x * 100 + 0.5)) for x in v]
        return pa.table({
            "event_id": b.column("event_id"),
            "next_value_e2": pa.array(scaled, pa.int64()),
        })

    return out.map_batches(fin, batch_format="pyarrow")


@query("approx_value_quantiles", """
    SELECT unnest([5000, 9000]) AS q_e4, 1 AS sketch_ok
""")
def q_approx_value_quantiles(sf_dir: str) -> Any:
    """Mergeable streaming-quantile sketch (KLL-style deterministic
    compaction, functions/sketch.py:QuantileSketch): one sketch per
    batch merged on the driver. Oracle-shaped like HLL: a second exact
    pass computes each estimate's TRUE rank and the output carries the
    indicator that it landed within 2% of the target quantile."""
    from calendar_event_entity_extraction_ray.functions.sketch import (
        QuantileSketch,
    )

    qs = [0.5, 0.9]
    ds = _read(sf_dir, "events", columns=["value"])
    ds = ds.materialize()   # consumed twice: sketch pass + rank check

    def partial(b: pa.Table) -> pa.Table:
        sk = QuantileSketch(k=256).add_many(b.column("value").to_pylist())
        return pa.table({"sk": pa.array([sk.serialize()], pa.binary())})

    merged = QuantileSketch(k=256)
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for blob in b.column("sk").to_pylist():
            merged.merge(QuantileSketch.deserialize(blob))
    ests = [merged.quantile(q) for q in qs]

    # one exact pass: rank of each estimate = count(value <= est) / n
    def rank_partial(b: pa.Table, _ests=ests) -> pa.Table:
        import numpy as np

        v = b.column("value").to_numpy(zero_copy_only=False)
        v = v[~np.isnan(v)]
        return pa.table({
            "n": pa.array([len(v)], pa.int64()),
            "le": pa.array([[int((v <= e).sum()) for e in _ests]],
                           pa.list_(pa.int64())),
        })

    n_total = 0
    le = [0] * len(ests)
    for b in ds.map_batches(rank_partial,
                            batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for n, ls in zip(b.column("n").to_pylist(),
                         b.column("le").to_pylist()):
            n_total += n
            for i, x in enumerate(ls):
                le[i] += x
    return pd.DataFrame({
        "q_e4": [int(round(q * 10000)) for q in qs],
        "sketch_ok": [1 if abs(le[i] / n_total - q) <= 0.02 else 0
                      for i, q in enumerate(qs)],
    }).astype("int64")


@query("user_mode_event", """
    SELECT user_id, mode_type, n FROM (
        SELECT user_id, event_type AS mode_type,
               CAST(COUNT(*) AS BIGINT) AS n,
               ROW_NUMBER() OVER (
                   PARTITION BY user_id
                   ORDER BY COUNT(*) DESC, event_type) AS rn
        FROM events GROUP BY user_id, event_type)
    WHERE rn = 1
""")
def q_user_mode_event(sf_dir: str) -> Any:
    """MODE() per group — each user's most frequent event_type (ties ->
    lexicographically smallest type, pinned so the oracle can mirror it).
    Composition of existing scale-safe pieces: grouped_count on
    (user_id, event_type) — per-batch pre-agg, exchange reduce — then
    top_k_per_group(k=1) over the count rows (<= |users|x|types| rows,
    already tiny relative to the input)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
        top_k_per_group,
    )

    ev = _read(sf_dir, "events", columns=["user_id", "event_type"])
    counts = grouped_sums(ev, key_cols=["user_id", "event_type"],
                          sum_cols=[], count_alias="n")
    best = top_k_per_group(counts, group_col="user_id", order_col="n",
                           k=1, tiebreak_col="event_type")
    out = best.to_pandas()[["user_id", "event_type", "n"]]
    out = out.rename(columns={"event_type": "mode_type"})
    return _int64(out.reset_index(drop=True), ["n"])


@query("user_value_rank", """
    SELECT event_id, user_id,
           CAST(floor(value) AS BIGINT) AS value_d,
           CAST(RANK() OVER (
               PARTITION BY user_id
               ORDER BY CAST(floor(value) AS BIGINT)) AS BIGINT)
               AS rank,
           CAST(DENSE_RANK() OVER (
               PARTITION BY user_id
               ORDER BY CAST(floor(value) AS BIGINT)) AS BIGINT)
               AS dense_rank
    FROM events
""")
def q_user_value_rank(sf_dir: str) -> Any:
    """RANK() and DENSE_RANK() per user over whole-dollar event values
    (ties are frequent at dollar granularity, so the two functions
    genuinely diverge); one key-hash exchange, vectorized groupby.rank in
    the fold (stages/windows.py rank_on)."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        vd = np.floor(b.column("value").to_numpy(zero_copy_only=False)
                      ).astype(np.int64)
        return pa.table({"event_id": b.column("event_id"),
                         "user_id": b.column("user_id"),
                         "value_d": pa.array(vd)})

    out = partitioned_row_window(
        ev.map_batches(prep, batch_format="pyarrow"),
        by="user_id", order_cols=["value_d", "event_id"],
        rank_on="value_d")
    return _int64(
        out.to_pandas()[["event_id", "user_id", "value_d", "rank",
                         "dense_rank"]],
        ["event_id", "user_id", "value_d", "rank", "dense_rank"])


def _users_of_type(sf_dir: str, etype: str) -> Any:
    """DISTINCT-agnostic projection: user_id of every event of one type
    (set_op dedups; the type predicate pushes into the parquet scan)."""
    import pyarrow.dataset as pds

    return _read(sf_dir, "events", columns=["user_id"],
                 predicate=(pds.field("event_type") == etype))


@query("users_intersect", """
    SELECT user_id FROM events WHERE event_type = 'click'
    INTERSECT
    SELECT user_id FROM events WHERE event_type = 'purchase'
""")
def q_users_intersect(sf_dir: str) -> Any:
    """SQL INTERSECT: users who clicked AND purchased. One content-hash
    exchange over the tagged union; per-partition vectorized
    side-membership fold (stages/setops.py — NULLs compare equal, the
    set-op rule joins don't share)."""
    from calendar_event_entity_extraction_ray.stages.setops import set_op

    out = set_op(_users_of_type(sf_dir, "click"),
                 _users_of_type(sf_dir, "purchase"),
                 ["user_id"], "intersect")
    return _int64(out.to_pandas(), ["user_id"])


@query("users_except", """
    SELECT user_id, date_trunc('day', ts) AS day
    FROM events WHERE event_type = 'click'
    EXCEPT
    SELECT user_id, date_trunc('day', ts)
    FROM events WHERE event_type = 'purchase'
""")
def q_users_except(sf_dir: str) -> Any:
    """SQL EXCEPT over a multi-column element: (user, day) pairs with a
    click but no same-day purchase (stages/setops.py — composite rows
    hash as one content key, same single-exchange plan as INTERSECT)."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.setops import set_op

    def user_days(etype: str):
        import pyarrow.dataset as pds

        ev = _read(sf_dir, "events", columns=["user_id", "ts"],
                   predicate=(pds.field("event_type") == etype))

        def f(b: pa.Table) -> pa.Table:
            return pa.table({
                "user_id": b.column("user_id"),
                "day": pc.floor_temporal(b.column("ts"), unit="day")})

        return ev.map_batches(f, batch_format="pyarrow")

    out = set_op(user_days("click"), user_days("purchase"),
                 ["user_id", "day"], "except")
    return _int64(out.to_pandas(), ["user_id"])


@query("users_union", """
    SELECT user_id FROM events WHERE event_type = 'signup'
    UNION
    SELECT user_id FROM events WHERE event_type = 'error'
""")
def q_users_union(sf_dir: str) -> Any:
    """SQL UNION (distinct): users who signed up or errored
    (stages/setops.py)."""
    from calendar_event_entity_extraction_ray.stages.setops import set_op

    out = set_op(_users_of_type(sf_dir, "signup"),
                 _users_of_type(sf_dir, "error"),
                 ["user_id"], "union")
    return _int64(out.to_pandas(), ["user_id"])


@query("users_intersect_all", """
    SELECT user_id FROM events WHERE event_type = 'click'
    INTERSECT ALL
    SELECT user_id FROM events WHERE event_type = 'purchase'
""")
def q_users_intersect_all(sf_dir: str) -> Any:
    """SQL INTERSECT ALL (bag semantics): one row per user per
    min(#clicks, #purchases) — multiplicities ride the exchange as
    per-batch partial counts (stages/setops.py ALL variants)."""
    from calendar_event_entity_extraction_ray.stages.setops import set_op

    out = set_op(_users_of_type(sf_dir, "click"),
                 _users_of_type(sf_dir, "purchase"),
                 ["user_id"], "intersect_all")
    return _int64(out.to_pandas(), ["user_id"])


@query("user_value_prank", """
    SELECT event_id, user_id,
           CAST(FLOOR(PERCENT_RANK() OVER (
               PARTITION BY user_id
               ORDER BY CAST(floor(value) AS BIGINT))
               * 1000000 + 0.5) AS BIGINT) AS prank_e6
    FROM events
""")
def q_user_value_prank(sf_dir: str) -> Any:
    """PERCENT_RANK() per user over whole-dollar event values:
    (rank-1)/(n-1) from exact integer operands — bit-identical doubles
    vs the SQL oracle, scaled to e6 for integer comparison
    (stages/windows.py percent=True)."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        partitioned_row_window,
    )

    ev = _read(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def prep(b: pa.Table) -> pa.Table:
        vd = np.floor(b.column("value").to_numpy(zero_copy_only=False)
                      ).astype(np.int64)
        return pa.table({"event_id": b.column("event_id"),
                         "user_id": b.column("user_id"),
                         "value_d": pa.array(vd)})

    out = partitioned_row_window(
        ev.map_batches(prep, batch_format="pyarrow"),
        by="user_id", order_cols=["value_d", "event_id"],
        rank_on="value_d", percent=True)
    df = out.to_pandas()
    df["prank_e6"] = np.floor(
        df["percent_rank"].to_numpy(np.float64) * 1_000_000 + 0.5
    ).astype(np.int64)
    return _int64(df[["event_id", "user_id", "prank_e6"]],
                  ["event_id", "user_id", "prank_e6"])


@query("grouped_heavy_hitters", """
    WITH c AS (
        SELECT event_type, user_id,
               CAST(COUNT(*) AS BIGINT) AS n
        FROM events GROUP BY event_type, user_id
    ), r AS (
        SELECT *, ROW_NUMBER() OVER (
            PARTITION BY event_type
            ORDER BY n DESC, user_id) AS rnk
        FROM c
    )
    SELECT event_type, user_id, n, CAST(rnk AS BIGINT) AS rnk,
           1 AS mg_ok
    FROM r WHERE rnk <= 3
""")
def q_grouped_heavy_hitters(sf_dir: str) -> Any:
    """Misra-Gries heavy hitters PER GROUP
    (stages/aggregate.py:grouped_heavy_hitters — (group, batch)-partial
    counter sets merged per group on the exchange; rows never leave the
    read tasks). Oracle-shaped output: the exact per-type top-3 users
    (exchange-reduced counts + skew-safe top-k) with an ``mg_ok``
    indicator that each sketch estimate (k=256) lies within the
    guaranteed [true - group_n/(k+1), true] band."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_heavy_hitters,
        grouped_sums,
        top_k_per_group,
    )

    K = 256
    ds = _read(sf_dir, "events", columns=["event_type", "user_id"])

    sk = grouped_heavy_hitters(ds, "event_type", "user_id", k=K
                               ).to_pandas()
    est = {(g, u): (e, n) for g, u, e, n in zip(
        sk["event_type"], sk["user_id"], sk["mg_est"], sk["group_n"])}

    counts = grouped_sums(ds, key_cols=["event_type", "user_id"],
                          sum_cols=[], count_alias="n")
    top3 = top_k_per_group(counts, "event_type", "n", 3, "user_id"
                           ).to_pandas()
    top3 = top3.sort_values(["event_type", "rnk"]).reset_index(drop=True)

    def ok(row) -> int:
        e, gn = est.get((row["event_type"], row["user_id"]), (None, 0))
        if e is None:
            return 0
        bound = gn / (K + 1)
        return 1 if (row["n"] - bound) <= e <= row["n"] else 0

    top3["mg_ok"] = [ok(r) for _, r in top3.iterrows()]
    return _int64(top3[["event_type", "user_id", "n", "rnk", "mg_ok"]],
                  ["user_id", "n", "rnk", "mg_ok"])


@query("funnel_conversion", """
    SELECT user_id, COUNT(*) AS n_clicks,
           CAST(SUM(CASE WHEN cnt > 0 THEN 1 ELSE 0 END)
                AS BIGINT) AS n_conv
    FROM (SELECT c.user_id, c.event_id,
                 COUNT(p.ts) AS cnt
          FROM events c LEFT JOIN events p
            ON p.user_id = c.user_id
           AND p.event_type = 'purchase'
           AND p.ts >= c.ts
           AND p.ts < c.ts + INTERVAL 1 HOUR
          WHERE c.event_type = 'click'
          GROUP BY c.user_id, c.event_id) t
    GROUP BY user_id
""", bench=True)
def q_funnel_conversion(sf_dir: str) -> Any:
    """Event-funnel conversion: per user, how many clicks were followed
    by a purchase within one hour. Composes the pair-explosion-free
    range join (count form — two searchsorted rank lookups per user
    group, both event-type predicates pushed into their scans) with a
    per-user exchange aggregate: conversion = count > 0 per click, then
    (n_clicks, n_conv) per user. User cardinality is unbounded at web
    scale, so the final reduce takes the exchange path, not
    stream_reduce."""
    import pyarrow.dataset as pds

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import (
        range_join_count,
    )

    clicks = _read(sf_dir, "events",
                   columns=["event_id", "ts", "user_id"],
                   predicate=(pds.field("event_type") == "click"))
    purchases = _read(sf_dir, "events", columns=["ts", "user_id"],
                      predicate=(pds.field("event_type") == "purchase"))
    per_click = range_join_count(
        clicks, purchases, on="ts", by="user_id",
        lo=np.timedelta64(0, "s"), hi=np.timedelta64(3600, "s"),
        left_cols=["event_id", "user_id"], count_col="cnt")

    def to_conv(b: pa.Table) -> pa.Table:
        cnt = b.column("cnt").to_numpy()
        return pa.table({"user_id": b.column("user_id"),
                         "n_conv": pa.array(
                             (cnt > 0).astype(np.int64))})

    out = grouped_sums(
        per_click.map_batches(to_conv, batch_format="pyarrow"),
        key_cols=["user_id"], sum_cols=["n_conv"],
        count_alias="n_clicks")
    return _int64(out.to_pandas(), ["user_id", "n_conv", "n_clicks"])


@query("cohort_retention", """
    WITH f AS (
        SELECT user_id, MIN(date_trunc('week', ts)) AS cohort
        FROM events GROUP BY user_id),
    act AS (
        SELECT DISTINCT user_id, date_trunc('week', ts) AS wk
        FROM events)
    SELECT f.cohort,
           CAST(date_diff('day', f.cohort, a.wk) // 7 AS BIGINT)
               AS week_offset,
           COUNT(*) AS n_users
    FROM f JOIN act a ON a.user_id = f.user_id
    GROUP BY f.cohort, week_offset
""")
def q_cohort_retention(sf_dir: str) -> Any:
    """Cohort retention — the classic product-analytics matrix: users
    cohorted by first-activity week (Monday-truncated, exact integer
    day arithmetic mirroring DuckDB date_trunc('week')), distinct
    (user, week) activity, one user-keyed exchange join, then counts
    per (cohort, week_offset). Both user-level aggregates run on the
    exchange (user cardinality is unbounded); week truncation is
    vectorized int64 day math, never per-row datetime objects."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    ev = _read(sf_dir, "events", columns=["user_id", "ts"])

    def to_week(b: pa.Table) -> pa.Table:
        # days since epoch; 1970-01-01 is a Thursday -> Monday-start
        # weekday index = (d + 3) % 7
        d = b.column("ts").to_numpy().astype("datetime64[D]").view("int64")
        wk = d - (d + 3) % 7
        return pa.table({"user_id": b.column("user_id"),
                         "wk_day": pa.array(wk)})

    weeks = ev.map_batches(to_week, batch_format="pyarrow").materialize()

    first = grouped_sums(weeks, key_cols=["user_id"], sum_cols=[],
                         min_cols=["wk_day"], count_alias="_n")
    first = first.map_batches(
        lambda b: pa.table({"user_id": b.column("user_id"),
                            "cohort_day": b.column("min_wk_day")}),
        batch_format="pyarrow")
    active = grouped_sums(weeks, key_cols=["user_id", "wk_day"],
                          sum_cols=[], count_alias="_n").map_batches(
        lambda b: b.select(["user_id", "wk_day"]),
        batch_format="pyarrow")

    joined = hash_join(active, first, key="user_id",
                       left_cols=["user_id", "wk_day"],
                       right_cols=["user_id", "cohort_day"])

    def offs(b: pa.Table) -> pa.Table:
        wk = b.column("wk_day").to_numpy()
        co = b.column("cohort_day").to_numpy()
        return pa.table({
            "cohort": pa.array(co.astype("datetime64[D]")
                               .astype("datetime64[us]")),
            "week_offset": pa.array((wk - co) // 7),
        })

    out = grouped_sums(
        joined.map_batches(offs, batch_format="pyarrow"),
        key_cols=["cohort", "week_offset"], sum_cols=[],
        count_alias="n_users")
    return _int64(out.to_pandas(), ["week_offset", "n_users"])


@query("dq_report_events", """
    SELECT 'row_count' AS "check", '*' AS "column",
           COUNT(*) AS value FROM events
    UNION ALL SELECT 'null_count', 'user_id',
           COUNT(*) - COUNT(user_id) FROM events
    UNION ALL SELECT 'null_count', 'value',
           COUNT(*) - COUNT(value) FROM events
    UNION ALL SELECT 'bad_value_count', 'event_type',
           CAST(COALESCE(SUM(CASE WHEN event_type NOT IN
               ('click','view','purchase','signup')
               THEN 1 ELSE 0 END), 0) AS BIGINT) FROM events
    UNION ALL SELECT 'out_of_bounds_count', 'value',
           CAST(COALESCE(SUM(CASE WHEN FLOOR(value) < 0
               OR FLOOR(value) > 400 THEN 1 ELSE 0 END), 0)
               AS BIGINT)
           FROM events WHERE value IS NOT NULL
    UNION ALL SELECT 'dup_row_count', 'event_id',
           COUNT(event_id) - COUNT(DISTINCT event_id) FROM events
    UNION ALL SELECT 'dup_row_count', 'user_id',
           COUNT(user_id) - COUNT(DISTINCT user_id) FROM events
""")
def q_dq_report_events(sf_dir: str) -> Any:
    """Data-quality gate (the Deequ/dbt-test shape,
    stages/quality_checks.py): declarative constraints over the events
    table in ONE streaming pass (exact-integer partials, stream-reduced)
    plus an exchange-counted uniqueness check — the promote-or-fail
    report every production pipeline runs on its outputs."""
    from calendar_event_entity_extraction_ray.stages.quality_checks import (
        quality_report,
    )

    ev = _read(sf_dir, "events",
               columns=["event_id", "user_id", "event_type", "value"])
    rep = quality_report(
        ev,
        null_cols=["user_id", "value"],
        accepted_values={"event_type": ["click", "view", "purchase",
                                        "signup"]},
        bounds={"value": (0, 400)},
        unique_cols=["event_id", "user_id"],
    )
    return rep


@query("value_mad_outliers", """
    WITH src AS (
        SELECT event_id, value FROM events WHERE value IS NOT NULL),
    m AS (SELECT quantile_disc(value, 0.5) AS med FROM src),
    d AS (SELECT event_id,
                 abs(value - (SELECT med FROM m)) AS dev
          FROM src),
    s AS (SELECT quantile_disc(dev, 0.5) AS mad FROM d)
    SELECT event_id FROM d
    WHERE dev > 3 * (SELECT mad FROM s)
""", bench=True)
def q_value_mad_outliers(sf_dir: str) -> Any:
    """Robust outlier flagging: events whose |value - median| exceeds
    3x the median absolute deviation — two exact distributed
    quantile_disc medians (stages/quantiles.py histogram-refine; no
    global sort) then one vectorized filter pass. The float chain
    (subtract / abs / 3x compare) is bit-identical numpy vs DuckDB, so
    the strict > cut is oracle-exact."""
    import numpy as np
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.quantiles import (
        exact_quantiles,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "value"])
    ds = ds.map_batches(
        lambda b: b.filter(pc.is_valid(b.column("value"))),
        batch_format="pyarrow").materialize()
    med = exact_quantiles(ds, "value", [0.5])[0][1]

    def dev(b: pa.Table, _m=med) -> pa.Table:
        v = b.column("value").to_numpy(zero_copy_only=False)
        return pa.table({"event_id": b.column("event_id"),
                         "dev": pa.array(np.abs(v - _m), pa.float64())})

    devs = ds.map_batches(dev, batch_format="pyarrow").materialize()
    mad = exact_quantiles(devs, "dev", [0.5])[0][1]
    cut = 3.0 * mad
    return devs.map_batches(
        lambda b, _c=cut: b.filter(
            pc.greater(b.column("dev"), _c)).select(["event_id"]),
        batch_format="pyarrow")


@query("user_event_patterns", """
    WITH seq AS (
        SELECT user_id,
               string_agg(CASE event_type
                            WHEN 'click' THEN 'c'
                            WHEN 'error' THEN 'e'
                            WHEN 'purchase' THEN 'p'
                            WHEN 'signup' THEN 's'
                            WHEN 'view' THEN 'v' END, ''
                          ORDER BY ts, event_id) AS s
        FROM events
        WHERE user_id IS NOT NULL AND ts IS NOT NULL
        GROUP BY user_id)
    SELECT user_id,
           CAST(len(regexp_extract_all(s, 'e[cv]*p')) AS BIGINT)
               AS n_matches
    FROM seq
""", bench=True)
def q_user_event_patterns(sf_dir: str) -> Any:
    """CEP-shaped sequence matching: per user, the number of
    non-overlapping error -> (clicks|views)* -> purchase episodes in the
    time-ordered event stream (the "recovered conversion" pattern). One
    exchange + a grouped ''.join + one compiled findall per user; the
    oracle rebuilds each sequence with string_agg(ORDER BY) and counts
    with regexp_extract_all — Python re and DuckDB RE2 agree on
    leftmost-first greedy matching for backreference-free patterns
    (verified on random strings)."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        pattern_match_counts,
    )

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_type", "event_id"])
    out = pattern_match_counts(
        ds, "user_id", "ts", "event_type", "e[cv]*p",
        alphabet={"click": "c", "error": "e", "purchase": "p",
                  "signup": "s", "view": "v"},
        tiebreak_col="event_id")
    return _int64(out.to_pandas(), ["user_id", "n_matches"])


@query("user_active_coverage", """
    WITH iv AS (
        SELECT user_id, epoch_ms(ts) AS s
        FROM events
        WHERE ts IS NOT NULL AND user_id IS NOT NULL),
    w AS (
        SELECT user_id, s, s + 300000 AS e,
               MAX(s + 300000) OVER (
                 PARTITION BY user_id ORDER BY s
                 ROWS BETWEEN UNBOUNDED PRECEDING
                      AND 1 PRECEDING) AS pmax
        FROM iv)
    SELECT user_id,
           CAST(SUM(CASE WHEN pmax IS NULL OR pmax < s THEN 300000
                         WHEN pmax >= e THEN 0
                         ELSE e - pmax END) AS BIGINT) AS covered_ms
    FROM w GROUP BY user_id
""", bench=True)
def q_user_active_coverage(sf_dir: str) -> Any:
    """Per-user active time: total milliseconds covered by the UNION of
    5-minute windows opened at each event (overlaps collapse — the
    sweep-line coverage measure, exact int64 epoch-ms arithmetic). One
    exchange + one vectorized grouped-cummax pass
    (stages/windows.py:interval_coverage); the oracle replays the sweep
    as a MAX-over-preceding-rows window."""
    from calendar_event_entity_extraction_ray.stages.windows import (
        interval_coverage,
    )

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    out = interval_coverage(ds, "user_id", "ts", duration_ms=300_000)
    return _int64(out.to_pandas(), ["user_id", "covered_ms"])


@query("trending_users", """
    SELECT day, user_id, n_events, rnk FROM (
        SELECT day, user_id, n_events,
               ROW_NUMBER() OVER (
                   PARTITION BY day
                   ORDER BY n_events DESC, user_id) AS rnk
        FROM (SELECT date_trunc('day', ts) AS day, user_id,
                     COUNT(*) AS n_events
              FROM events GROUP BY 1, 2)
    ) WHERE rnk <= 5
""", bench=True)
def q_trending_users(sf_dir: str) -> Any:
    """Per-window top-k (trending): top-5 users by event count per
    tumbling day — the streaming-analytics "trending items" shape as a
    composition of two skew-safe exchanges (grouped_count on
    (day, user), then top_k_per_group keyed by day; a hot day ships k
    rows per batch in phase 2). Ties break on user_id ascending to
    match the ROW_NUMBER oracle exactly."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
        top_k_per_group,
    )

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])

    def day(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "day": pc.floor_temporal(b.column("ts"), unit="day"),
            "user_id": b.column("user_id"),
            "one": pa.array(np.ones(b.num_rows, dtype=np.int64)),
        })

    counts = grouped_sums(ds.map_batches(day, batch_format="pyarrow"),
                          key_cols=["day", "user_id"], sum_cols=["one"])

    def neg_tb(b: pa.Table) -> pa.Table:
        # top_k_per_group orders (order DESC, tiebreak ASC): count desc,
        # user asc — exactly ROW_NUMBER (ORDER BY n DESC, user_id)
        return pa.table({"day": b.column("day"),
                         "user_id": b.column("user_id"),
                         "n_events": b.column("one")})

    out = top_k_per_group(
        counts.map_batches(neg_tb, batch_format="pyarrow"),
        group_col="day", order_col="n_events", k=5,
        tiebreak_col="user_id")
    out = out.select_columns(["day", "user_id", "n_events", "rnk"])
    return _int64(out.to_pandas(),
                  ["user_id", "n_events", "rnk"])
