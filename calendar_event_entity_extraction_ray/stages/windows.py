"""Streaming-shaped window operators.

Tumbling and sliding windows are stateless per-row window assignments
composed in the queries (floor_temporal / window explode -> pre-aggregated
grouped count). Session windows need per-key ordered state, so they exchange on the
key hash and fold each partition with ONE vectorized pass (round 1 ran a
Python fold per user via ``groupby.map_groups`` — the per-group-call
anti-pattern at billions of keys).
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

import ray.data


def sessionize(
    ds: "ray.data.Dataset",
    user_col: str = "user_id",
    ts_col: str = "ts",
    gap_minutes: int = 30,
) -> "ray.data.Dataset":
    """(user, ts) events -> one row per user: (user, n_sessions, n_events),
    where a session breaks after ``gap_minutes`` of inactivity.

    One exchange on the key hash; per partition a single vectorized pass:
    sort by (user, ts), session starts = first-row-of-user OR gap-exceeded,
    grouped sums in C. NULL keys are dropped (SQL GROUP BY semantics pair
    with ``WHERE user IS NOT NULL``-free oracles because the events table
    has no NULL ts; NULL users form their own group in plain SQL — kept)."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    gap = pd.Timedelta(minutes=gap_minutes)

    def fold(t: pa.Table) -> pa.Table:
        df = t.select([user_col, ts_col]).to_pandas().sort_values(
            [user_col, ts_col], kind="stable")
        # null-aware key change: NaN.ne(NaN) is True, which would start a
        # new session on EVERY null-user event; the NULL group must follow
        # the same gap rule as any other single partition key
        prev = df[user_col].shift()
        new_user = ~(df[user_col].eq(prev)
                     | (df[user_col].isna() & prev.isna()))
        if len(df):
            # the shifted NaN above row 0 would otherwise "match" a NULL
            # first user; the first row always starts a session
            new_user.iloc[0] = True
        gap_break = (df[ts_col] - df[ts_col].shift()) > gap
        new_session = (new_user | gap_break).astype("int64")
        g = df.groupby(user_col, sort=False, dropna=False)
        out = pd.DataFrame({
            "n_sessions": new_session.groupby(
                df[user_col], sort=False, dropna=False).sum(),
            "n_events": g.size(),
        }).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    hashed = ds.map_batches(
        lambda b: add_hash_column(b.select([user_col, ts_col]), [user_col],
                                  out_col="_uh"),
        batch_format="pyarrow")
    return hash_partition_map(hashed, "_uh", fold)


def partitioned_row_window(
    ds: "ray.data.Dataset",
    by: str,
    order_cols: list,
    value_col: "str | None" = None,
    rolling: int = 0,
    seq_col: str = "seq",
    roll_col: str = "roll_sum",
    lag: int = 0,
    lag_col: str = "lag_value",
    lead: int = 0,
    lead_col: str = "lead_value",
    first_last: bool = False,
    first_col: str = "first_value",
    last_col: str = "last_value",
    range_preceding: int = 0,
    range_on: "str | None" = None,
    range_col: str = "range_sum",
    ntile: int = 0,
    ntile_col: str = "ntile",
    rank_on: "str | None" = None,
    rank_col: str = "rank",
    dense_col: str = "dense_rank",
    percent: bool = False,
    percent_col: str = "percent_rank",
) -> "ray.data.Dataset":
    """SQL row-window functions over a partitioned order: per ``by`` key
    ordered by ``order_cols``, emits ROW_NUMBER (``seq_col``) and, when
    ``rolling`` > 0 and ``value_col`` is set, the rolling sum of the last
    ``rolling`` rows including the current (``ROWS BETWEEN rolling-1
    PRECEDING AND CURRENT ROW``) and, when ``lag`` > 0, SQL
    ``LAG(value, lag)`` (NULL for each key's first ``lag`` rows).

    ``first_last=True`` adds FIRST_VALUE/LAST_VALUE of ``value_col`` over
    the FULL partition (``ROWS BETWEEN UNBOUNDED PRECEDING AND UNBOUNDED
    FOLLOWING`` — the frame must be pinned in the oracle SQL too; the
    default RANGE-to-CURRENT-ROW frame makes LAST_VALUE the current row).

    ``range_preceding=N`` with ``range_on`` (an int64 column, e.g. epoch
    seconds) adds ``SUM(value) OVER (... ORDER BY range_on RANGE BETWEEN
    N PRECEDING AND CURRENT ROW)``: all rows of the key whose ``range_on``
    lies in ``[cur-N, cur]``, INCLUDING peers of the current row that
    appear later in row order (SQL RANGE peer semantics). Implemented as
    one global searchsorted over a group-offset composite key + exclusive
    prefix sums — no per-group Python loop. Requires ``order_cols`` to
    start with ``range_on`` so peers are contiguous; integer values keep
    the sums exact.

    ``ntile=k`` adds SQL ``NTILE(k)``: the first ``n % k`` buckets take
    ``n//k + 1`` rows, the rest ``n//k`` (vectorized from seq + group
    size; NOT the uniform ``floor((seq-1)*k/n)`` spread, which splits
    remainders differently).

    ``rank_on=col`` adds SQL ``RANK()`` and ``DENSE_RANK()`` ordered by
    that column per partition (ties share a rank; RANK leaves gaps,
    DENSE_RANK doesn't). ``order_cols`` must start with ``rank_on`` so
    peers are contiguous in the sort. NULL order values: callers should
    keep ``rank_on`` non-null (pandas NaN != NaN would split NULL peers,
    diverging from SQL's shared-peer rank for NULLs). ``percent=True``
    adds SQL ``PERCENT_RANK()`` = (rank-1)/(n-1) (0.0 for singleton
    partitions) — exact integer operands divided in double, so the
    result is bit-identical to a SQL engine's.

    One exchange on the key hash, then per partition ONE vectorized
    sort + groupby.cumcount / groupby.rolling — every key's rows co-locate,
    so window frames never span partitions. NULLs in ``order_cols`` sort
    LAST (pandas NaN convention == DuckDB's default NULLS LAST for ASC). The rolling sum adds the same
    <= ``rolling`` doubles in the same order as a sequential engine, so
    results are bit-identical to a SQL oracle."""
    import pyarrow as pa

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas().sort_values([by] + order_cols, kind="mergesort")
        g = df.groupby(by, sort=False, dropna=False)
        df[seq_col] = (g.cumcount() + 1).astype("int64")
        if rolling > 0 and value_col is not None:
            df[roll_col] = (
                g[value_col].rolling(rolling, min_periods=1).sum()
                .reset_index(level=0, drop=True))
        if lag > 0 and value_col is not None:
            # SQL LAG(value, lag): NULL for the first `lag` rows per key
            df[lag_col] = g[value_col].shift(lag)
        if lead > 0 and value_col is not None:
            # SQL LEAD(value, lead): NULL for the last `lead` rows per key
            df[lead_col] = g[value_col].shift(-lead)
        if ntile > 0:
            import numpy as np

            # SQL NTILE: the first n % k buckets get the extra row —
            # sizes (base+1)*rem then base*(k-rem), NOT the uniform
            # floor((seq-1)*k/n) spread
            n_ = g[by].transform("size").to_numpy(np.int64)
            seq = df[seq_col].to_numpy(np.int64)
            base = n_ // ntile
            rem = n_ % ntile
            cut = rem * (base + 1)
            safe_base = np.maximum(base, 1)  # base=0 rows all fall in cut
            df[ntile_col] = np.where(
                seq <= cut,
                (seq - 1) // (base + 1),
                rem + (seq - 1 - cut) // safe_base) + 1
        if rank_on is not None:
            df[rank_col] = g[rank_on].rank(method="min").astype("int64")
            df[dense_col] = g[rank_on].rank(method="dense").astype("int64")
            if percent:
                # SQL PERCENT_RANK = (rank-1)/(n-1), 0.0 for singleton
                # partitions; integer rank and size divide in double, so
                # the value is bit-identical to a SQL engine's
                import numpy as np

                n_ = g[by].transform("size").to_numpy(np.int64)
                r_ = df[rank_col].to_numpy(np.int64)
                df[percent_col] = np.where(
                    n_ > 1, (r_ - 1) / np.maximum(n_ - 1, 1), 0.0)
        if first_last and value_col is not None:
            df[first_col] = g[value_col].transform("first")
            df[last_col] = g[value_col].transform("last")
        if range_preceding > 0 and range_on is not None and value_col is not None:
            import numpy as np

            o = df[range_on].to_numpy(np.int64)
            v = df[value_col].to_numpy(np.int64)
            # group-offset composite key: each group's keys occupy a
            # disjoint strictly-increasing band, so ONE searchsorted finds
            # every row's window start without a per-group loop
            gid = g.ngroup().to_numpy(np.int64)
            o0 = o.min() if len(o) else 0
            span = (o.max() - o0 if len(o) else 0) + range_preceding + 1
            key = gid * span + (o - o0)
            left = np.searchsorted(key, key - range_preceding, side="left")
            # RANGE ... CURRENT ROW includes ALL peers of the current
            # order value, even ones after this row in row order
            right = np.searchsorted(key, key, side="right")
            prefix = np.concatenate(([0], np.cumsum(v)))
            df[range_col] = prefix[right] - prefix[left]
        return pa.Table.from_pandas(df.drop(columns=["_kh"]),
                                    preserve_index=False)

    hashed = ds.map_batches(
        lambda b: add_hash_column(b, [by], out_col="_kh"),
        batch_format="pyarrow")
    return hash_partition_map(hashed, "_kh", fold)


def resample_fill(
    ds: "ray.data.Dataset",
    user_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    bucket_s: int = 3600,
) -> "ray.data.Dataset":
    """Per-key time-bucket downsample WITH gap fill (the telemetry /
    feature-pipeline resample: every key gets a dense bucket grid from
    its first to its last event; silent gaps become explicit zero rows —
    the shape a training loader or anomaly detector consumes).

    Plan: per-batch (key, bucket) partial sums collapse raw events
    before the shuffle (a hot key ships one row per bucket per batch),
    then ONE exchange keyed on the KEY ALONE — co-locating all of a
    key's buckets lets the fold both reduce the partials and generate
    the missing grid rows in the same pass. The fill is vectorized: one
    np.repeat/np.arange ramp builds every key's dense grid at once, one
    C-speed merge attaches the observed sums.

    Grid size is bounded by time-span/bucket_s per key (NOT by event
    count) — at an unbounded span, pick the bucket so span/bucket_s
    stays sane; the operator never materializes anything driver-side.
    Values publish as exact cents (floor(v*100+0.5)); empty buckets are
    (n_events=0, sum_cents=0) == the SQL COALESCE pair."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    us = 1_000_000 * bucket_s

    def partial(b: pa.Table) -> pa.Table:
        col = b.column(ts_col)
        if pa.types.is_timestamp(col.type):
            # normalize the unit BEFORE the int cast: timestamp[ns]
            # would otherwise yield ns where the divisor is us
            col = col.cast(pa.timestamp("us"))
        ts = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        v = b.column(value_col).to_numpy(zero_copy_only=False)
        df = pd.DataFrame({
            user_col: b.column(user_col).to_numpy(zero_copy_only=False),
            "bucket": ts // us,
            "cents": np.floor(v * 100 + 0.5).astype(np.int64),
        })
        g = df.groupby([user_col, "bucket"], dropna=False)
        out = pd.DataFrame({"n": g.size(),
                            "sv": g["cents"].sum()}).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    def fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_uh"]).to_pandas()
        g = df.groupby([user_col, "bucket"], dropna=False, sort=True)
        agg = pd.DataFrame({"n": g["n"].sum(),
                            "sv": g["sv"].sum()}).reset_index()
        # dense grid: one ramp for every key in the partition
        spans = agg.groupby(user_col, sort=True)["bucket"].agg(
            ["min", "max"])
        sizes = (spans["max"] - spans["min"] + 1).to_numpy(np.int64)
        lo = spans["min"].to_numpy(np.int64)
        users = spans.index.to_numpy()
        total = int(sizes.sum())
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        ramp = (np.arange(total, dtype=np.int64)
                - np.repeat(starts, sizes) + np.repeat(lo, sizes))
        grid = pd.DataFrame({user_col: np.repeat(users, sizes),
                             "bucket": ramp})
        out = grid.merge(agg, on=[user_col, "bucket"], how="left")
        return pa.table({
            user_col: pa.array(out[user_col]),
            "bucket_ts": pa.array(
                out["bucket"].to_numpy(np.int64) * bucket_s, pa.int64()),
            "n_events": pa.array(
                out["n"].fillna(0).to_numpy(np.int64), pa.int64()),
            "sum_cents": pa.array(
                out["sv"].fillna(0).to_numpy(np.int64), pa.int64()),
        })

    from calendar_event_entity_extraction_ray.stages.exchange import (
        default_num_partitions,
    )

    hashed = ds.map_batches(
        lambda b: add_hash_column(partial(b), [user_col], out_col="_uh"),
        batch_format="pyarrow")
    # explicit partition count: the adaptive single-task fold heuristic
    # sizes on INPUT partial rows, but the gap fill EXPLODES output
    # ~spanx keys/rows (sf0.1: 100k partials -> 1.05M grid rows; the
    # single fold measured 23 s, parallel folds 4 s)
    return hash_partition_map(hashed, "_uh", fold,
                              num_partitions=default_num_partitions())


def count_windows(
    ds: "ray.data.Dataset",
    key_col: str = "user_id",
    ts_col: str = "ts",
    value_col: str = "value",
    tiebreak_col: str = "event_id",
    n: int = 16,
    slide: "int | None" = None,
) -> "ray.data.Dataset":
    """Per-key COUNT-based windows (the row-count analogue of the time
    windows — Flink's ``countWindow``): order each key's events by
    (ts, tiebreak), number them 0..k-1, and aggregate windows of ``n``
    consecutive events. ``slide=None`` (or ``slide == n``) gives tumbling
    count windows (window_id = rn // n); ``slide < n`` gives sliding
    count windows — event rn belongs to every window w with
    ``w*slide <= rn < w*slide + n`` (windows start at rn 0, slide, 2*slide,
    ...; the trailing partial windows at each key's end are emitted, like
    the time-sliding form).

    Plan: the row numbering needs each key's total order, so rows ship
    through ONE exchange on the key hash; the fold is a single vectorized
    pass — sort, cumcount, (for sliding) an np.repeat/arange ramp explodes
    each row into its <= ceil(n/slide) windows, then a grouped sum in C.
    Values publish as exact cents. NULL keys form one group (SQL
    PARTITION BY semantics); NULL ts sort last (pandas == DuckDB ASC
    NULLS LAST).

    Output: (key, window_id, n_events, sum_cents)."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    s = n if slide is None else int(slide)
    if s <= 0 or n <= 0 or s > n:
        raise ValueError("need 0 < slide <= n")

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        v = pc.cast(pc.floor(pc.add(pc.multiply(
            pc.cast(b.column(value_col), pa.float64()), 100.0), 0.5)),
            pa.int64())
        t = pa.table({key_col: b.column(key_col),
                      ts_col: b.column(ts_col),
                      tiebreak_col: b.column(tiebreak_col),
                      "_cents": v})
        return add_hash_column(t, [key_col], out_col="_kh")

    def fold(t: pa.Table) -> pa.Table:
        df = t.select([key_col, ts_col, tiebreak_col, "_cents"]).to_pandas()
        df = df.sort_values([key_col, ts_col, tiebreak_col],
                            kind="mergesort")
        rn = df.groupby(key_col, sort=False, dropna=False).cumcount() \
               .to_numpy(np.int64)
        keys = df[key_col].to_numpy()
        cents = df["_cents"].to_numpy(np.int64)
        if s == n:
            wid = rn // n
        else:
            # window range per row: ceil((rn-n+1)/s) .. rn//s, clipped at 0
            lo = np.maximum(0, -((rn - n + 1) // -s))
            hi = rn // s
            reps = hi - lo + 1
            total = int(reps.sum())
            starts = np.concatenate(([0], np.cumsum(reps)[:-1]))
            ramp = (np.arange(total, dtype=np.int64)
                    - np.repeat(starts, reps) + np.repeat(lo, reps))
            keys = np.repeat(keys, reps)
            cents = np.repeat(cents, reps)
            wid = ramp
        out = pd.DataFrame({key_col: keys, "window_id": wid,
                            "_cents": cents})
        g = out.groupby([key_col, "window_id"], sort=False, dropna=False)
        res = pd.DataFrame({"n_events": g.size(),
                            "sum_cents": g["_cents"].sum()}).reset_index()
        res["window_id"] = res["window_id"].astype(np.int64)
        res["n_events"] = res["n_events"].astype(np.int64)
        res["sum_cents"] = res["sum_cents"].astype(np.int64)
        return pa.Table.from_pandas(res, preserve_index=False)

    return hash_partition_map(
        ds.map_batches(prep, batch_format="pyarrow"), "_kh", fold)


def decayed_counts(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    ref_ts_us: int,
    half_life_hours: int = 48,
    cap: int = 30,
) -> "ray.data.Dataset":
    """Per-key exponentially time-decayed event counter (the feature-store
    "recency-weighted activity" signal): each event contributes
    ``0.5 ** k`` where ``k = floor(ref / half_life) - floor(ts /
    half_life)`` — CALENDAR-ALIGNED half-life buckets (the number of
    bucket boundaries crossed, not elapsed time divided) — capped at
    ``cap``. Calendar bucketing is what makes the epoch-incremental
    state store (stages/featstate.py) exact: absolute bucket indexes
    are a pure function of ts, so epochs only ever ADD counts and the
    reference shift is read-time arithmetic. The score publishes as the
    EXACT
    integer numerator ``decayed_num = sum(2 ** (cap - k))`` — the true
    decayed count times ``2**cap`` — so distributed partial sums are
    order-independent and bit-identical to a SQL oracle (``1::BIGINT <<
    (cap - k)`` on the DuckDB side); no float accumulation anywhere.

    The weight is associative, so per-batch partials collapse rows before
    the shuffle (grouped_sums' pre-agg: a hot key ships one row per
    batch). int64 bound: decayed_num <= n_events_per_key * 2**cap — at
    cap=30, safe to ~8.6e9 events per key.

    Output (key, n_events, decayed_num)."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    hl_us = int(half_life_hours) * 3_600_000_000

    def prep(b: pa.Table) -> pa.Table:
        col = b.column(ts_col)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.timestamp("us"))
        ts = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        k = np.minimum(int(ref_ts_us) // hl_us - ts // hl_us, cap)
        w = np.left_shift(np.int64(1), (cap - k).astype(np.int64))
        return pa.table({key_col: b.column(key_col),
                         "decayed_num": pa.array(w, pa.int64())})

    return grouped_sums(ds.map_batches(prep, batch_format="pyarrow"),
                        key_cols=[key_col], sum_cols=["decayed_num"],
                        count_alias="n_events")


def interval_coverage(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    duration_ms: int,
    out_col: str = "covered_ms",
) -> "ray.data.Dataset":
    """Per-key total time covered by the UNION of fixed-length intervals
    [ts, ts + duration_ms) — the active-time / overlap-collapse measure
    (points with overlapping windows count once). One exchange on the key
    hash, then a single vectorized pass per partition: sort by (key, ts),
    per-key running max of interval ends (cummax with per-group reset via
    a grouped cummax), covered_i = max(0, end_i - max(start_i, prev_max)).
    All arithmetic is int64 epoch-milliseconds — exact, and the total is
    tie-order-independent (equal starts imply identical intervals, which
    contribute 0 past the first). NULL keys / timestamps are dropped
    (SQL GROUP BY + comparison semantics)."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.and_(pc.is_valid(b.column(key_col)),
                             pc.is_valid(b.column(ts_col))))
        ts = b.column(ts_col)
        if pa.types.is_timestamp(ts.type):
            ts = pc.cast(pc.cast(ts, pa.int64()), pa.int64())
            unit = b.schema.field(ts_col).type.unit
            div = {"s": None, "ms": 1, "us": 1000, "ns": 1000000}[unit]
            if unit == "s":
                ts = pc.multiply(ts, 1000)
            else:
                ts = pc.divide(ts, div)
        t = pa.table({"k": b.column(key_col), "s": pc.cast(ts, pa.int64())})
        return add_hash_column(t, ["k"], out_col="_kh")

    def fold(t: pa.Table) -> pa.Table:
        df = t.select(["k", "s"]).to_pandas()
        df = df.sort_values(["k", "s"], kind="mergesort")
        s = df["s"].to_numpy(dtype=np.int64)
        e = s + int(duration_ms)
        # per-key running max of PREVIOUS ends: grouped cummax shifted by 1
        g = df.groupby("k", sort=False, dropna=False)
        prev_max = pd.Series(e, index=df.index).groupby(
            df["k"], sort=False).cummax().shift(1).to_numpy()
        first = g.cumcount().to_numpy() == 0
        prev_max[first] = np.iinfo(np.int64).min
        pm = prev_max.astype(np.int64)
        covered = np.maximum(0, e - np.maximum(s, pm))
        out = pd.DataFrame({"k": df["k"].to_numpy(), "c": covered})
        res = out.groupby("k", sort=False)["c"].sum().reset_index()
        res.columns = [key_col, out_col]
        res[out_col] = res[out_col].astype(np.int64)
        return pa.Table.from_pandas(res, preserve_index=False)

    return hash_partition_map(
        ds.map_batches(prep, batch_format="pyarrow"), "_kh", fold)


def pattern_match_counts(
    ds: "ray.data.Dataset",
    key_col: str,
    ts_col: str,
    type_col: str,
    pattern: str,
    alphabet: dict,
    tiebreak_col: str = None,
    out_col: str = "n_matches",
) -> "ray.data.Dataset":
    """CEP / MATCH_RECOGNIZE-shaped sequence matching: per key, order the
    events by (ts [, tiebreak]), map each event type to one character
    via ``alphabet``, and count NON-OVERLAPPING regex matches of
    ``pattern`` over the resulting string (leftmost-first greedy — the
    semantics Python re and DuckDB RE2 agree on for backreference-free
    patterns, verified empirically). Events whose type is not in the
    alphabet contribute NO character but still anchor their key: a key
    whose events all fall outside the alphabet is emitted with
    n_matches=0 (matching a string_agg-over-CASE SQL oracle), never
    silently dropped. Output (key, n_matches), keys with zero matches
    included.

    One exchange on the key hash; per partition a single sorted pass
    builds every key's sequence string (grouped ''.join) and one
    compiled findall per key counts matches — per-key state never
    crosses partitions, the usual co-location contract."""
    import re

    import numpy as np

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    cols = [key_col, ts_col, type_col] + (
        [tiebreak_col] if tiebreak_col else [])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.select(cols)
        b = b.filter(pc.and_(pc.is_valid(b.column(key_col)),
                             pc.is_valid(b.column(ts_col))))
        # out-of-alphabet rows are KEPT (mapped to '' in the fold) so
        # their keys still surface with n_matches=0
        return add_hash_column(b, [key_col], out_col="_kh")

    rx = re.compile(pattern)

    def fold(t: pa.Table) -> pa.Table:
        df = t.select(cols).to_pandas()
        sort_cols = [key_col, ts_col] + (
            [tiebreak_col] if tiebreak_col else [])
        df = df.sort_values(sort_cols, kind="mergesort")
        df["_c"] = df[type_col].map(alphabet).fillna("")
        seqs = df.groupby(key_col, sort=False)["_c"].agg("".join)
        counts = np.fromiter(
            (len(rx.findall(s)) for s in seqs.to_numpy()),
            dtype=np.int64, count=len(seqs))
        out = pd.DataFrame({key_col: seqs.index.to_numpy(),
                            out_col: counts})
        return pa.Table.from_pandas(out, preserve_index=False)

    return hash_partition_map(
        ds.map_batches(prep, batch_format="pyarrow"), "_kh", fold)
