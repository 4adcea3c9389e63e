"""Wide aggregations: entity pools (top-k by count), degree counts, corpus
analytics.

Reference semantics:
  - ``build_entity_pools``: grouped count of exploded attendee strings and
    locations, top-500 each (augmentation/entity_pools.py:7-20).
  - ``analyze_dataset``: global count, per-key histogram, avg/min/max text
    length (src/prepare_assignment_data.py:64-102).

Scale pattern (ray_guide.md "Aggregation at scale"): every grouped count
here PRE-AGGREGATES inside ``map_batches`` (one row per key per batch)
before the shuffle, so the all-to-all exchange moves |distinct keys| x
|batches| rows instead of every input row. Hub keys ("HQ", "Zoom" — the
north-star's skewed hub entities) are not salted: a hub ships one partial
row per batch, and its fold task sums those rows.

Every keyed count/sum/min/max partial and fold here runs on the one
Arrow kernel ``functions/dedup.py:group_fold``: NULL keys form one group
(SQL GROUP BY), key columns keep their input types, integer sums stay
int64 and an all-NULL group sums to NULL. Fold outputs are unsorted.
"""

from __future__ import annotations

from typing import List, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data
from ray.data.aggregate import Count, Max, Mean, Min

from calendar_event_entity_extraction_ray.functions.dedup import (
    first_rows,
    group_fold,
)


def partial_count_batch(batch: pa.Table, key_cols: List[str]) -> pa.Table:
    """Per-batch partial count -> (keys..., partial) rows; a row with
    any NULL key is dropped."""
    return group_fold(batch.select(key_cols).drop_null(), key_cols,
                      {"partial": (None, "count_all")})


def grouped_count(
    ds: "ray.data.Dataset", key_col: str, out_col: str = "n"
) -> "ray.data.Dataset":
    """count(*) GROUP BY key with per-batch partial pre-aggregation and
    an explicit exchange reduce.

    Each batch collapses to (key, partial) rows — a hot key ships ONE row
    per batch, so no salting is needed; the exchange then folds each
    co-located key group with one ``group_fold`` sum. This replaces
    the earlier salted Ray-groupby reduce, whose sort-based shuffle
    degraded on high-cardinality keys (measured at 5M rows: 200k keys
    38 s -> 3 s, 2M keys 68 s -> 5 s; low-cardinality timings unchanged).

    NULL keys are DROPPED (oracle SQL pairs with ``WHERE key IS NOT
    NULL``); ``grouped_sums`` keeps NULL groups, matching plain SQL
    GROUP BY.
    """
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    partials = ds.map_batches(
        lambda b: add_hash_column(
            partial_count_batch(b, [key_col]), [key_col],
            out_col="_gh"),
        batch_format="pyarrow",
    )
    return hash_partition_map(
        partials, "_gh",
        lambda t: group_fold(t, [key_col], {out_col: ("partial", "sum")}))


def attendee_location_pools(
    events_ds: "ray.data.Dataset", k: int = 500
) -> tuple[List[str], List[str]]:
    """The reference's two top-500 pools (entity_pools.py:7-20) in ONE pass:
    explode attendees and project locations into (kind, name) rows, one
    exchange-reduced grouped count, split driver-side. One shuffle
    instead of two, one scan of the input instead of two."""

    def explode(batch: pa.Table) -> pa.Table:
        kinds, names = [], []
        for lst in batch.column("attendees").to_pylist():
            if lst:
                for a in lst:
                    if a and a.strip():
                        kinds.append("a")
                        names.append(a.strip())
        for v in batch.column("location").to_pylist():
            if isinstance(v, str) and v.strip():
                kinds.append("l")
                names.append(v.strip())
        return pa.table({"kind": pa.array(kinds, pa.string()),
                         "name": pa.array(names, pa.string())})

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    keys = ["kind", "name"]
    partials = events_ds.map_batches(
        lambda b: add_hash_column(partial_count_batch(explode(b), keys),
                                  keys, out_col="_gh"),
        batch_format="pyarrow")
    # exchange reduce: distinct-entity cardinality scales with the
    # corpus, which is exactly where Ray's sort-groupby cliff bites (see
    # grouped_count)
    counts = hash_partition_map(
        partials, "_gh",
        lambda t: group_fold(t, keys, {"n": ("partial", "sum")}))
    # distributed top-k per kind: sort + limit collect only k rows each —
    # the full distinct-entity histogram never reaches the driver
    counts = counts.materialize()  # consumed twice (one pass per kind)

    def top(kind: str) -> List[str]:
        only = counts.map_batches(
            lambda b, s=kind: b.filter(pc.equal(b.column("kind"), s)),
            batch_format="pyarrow")
        return [r["name"] for r in only.sort(
            ["n", "name"], descending=[True, False]).limit(k).take_all()]

    return top("a"), top("l")


def grouped_sums(
    ds: "ray.data.Dataset",
    key_cols: List[str],
    sum_cols: List[str],
    count_alias: str = "n",
    min_cols: Optional[List[str]] = None,
    max_cols: Optional[List[str]] = None,
    stream_reduce: bool = False,
) -> "ray.data.Dataset":
    """SUM/COUNT(/MIN/MAX) GROUP BY keys with per-batch partial
    aggregation: the shuffle moves |groups| x |batches| partial rows, not
    every input row (TPC-H Q1's 6 groups over 10^9 rows move kilobytes),
    and the reduce runs on the explicit exchange, so high-cardinality
    keys don't hit Ray's sort-shuffle (see grouped_count). Both run on
    ``group_fold``: NULL keys form one group, integer sums stay int64
    (Ray's Sum widened them to float64) and a group whose values are all
    NULL sums to NULL, as in SQL.

    ``stream_reduce=True`` folds the partials inside the SAME streaming
    plan (``repartition(1)`` + one fold task) instead of the disk
    exchange, skipping the exchange's materialize+count pass — the right
    reduce when the caller KNOWS group cardinality is tiny (enums,
    segments: partials for every block fit one task). Wrong above ~10^5
    groups; the default exchange handles those."""
    min_cols = min_cols or []
    max_cols = max_cols or []
    # (partial column, input column, output column, fn), output order
    aggs = ([(f"{c}__sum", c, c, "sum") for c in sum_cols]
            + [(count_alias, None, count_alias, "count_all")]
            + [(f"{c}__min", c, f"min_{c}", "min") for c in min_cols]
            + [(f"{c}__max", c, f"max_{c}", "max") for c in max_cols])

    def partial(batch: pa.Table) -> pa.Table:
        return group_fold(batch, key_cols,
                          {p: (c, fn) for p, c, _, fn in aggs})

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    partials = ds.map_batches(
        lambda b: add_hash_column(partial(b), key_cols, out_col="_gh"),
        batch_format="pyarrow")

    def fold(t: pa.Table) -> pa.Table:
        # same explicit-exchange reduce as grouped_count: Ray's sort-based
        # groupby on the partial rows degraded at high key cardinality
        return group_fold(t, key_cols, {
            o: (p, "sum" if fn == "count_all" else fn)
            for p, _, o, fn in aggs})

    if stream_reduce:
        return partials.repartition(1).map_batches(
            fold, batch_format="pyarrow", batch_size=None)
    return hash_partition_map(partials, "_gh", fold)


def numeric_histogram(
    ds: "ray.data.Dataset",
    col: str,
    width: int,
    by: Optional[List[str]] = None,
    out_col: str = "n",
) -> "ray.data.Dataset":
    """Equi-width histogram: counts per ``bin_lo = floor(col/width)*width``,
    optionally per ``by`` group (the ``analyze_dataset`` length-histogram
    shape from src/prepare_assignment_data.py:64-102, generalized to numeric
    binning). Rows with NULL ``col`` are dropped (the SQL oracle carries
    ``WHERE col IS NOT NULL``); NULL ``by`` groups are kept (plain GROUP BY).

    One pass: the vectorized bin map feeds grouped_sums' per-batch partial
    count, so the exchange moves |bins| x |batches| rows regardless of input
    size — the length histogram of 10^12 docs ships kilobytes. Bin ids use
    ``np.floor_divide`` (true floor, exact on int64), matching SQL
    ``floor(col / width)`` for |col| < 2^53.
    """
    import numpy as np

    by = list(by or [])
    keep = by + [col]

    def binmap(b: pa.Table) -> pa.Table:
        b = b.select(keep).filter(pc.is_valid(b.column(col)))
        v = b.column(col).to_numpy(zero_copy_only=False)
        lo = (np.floor_divide(v, width) * width).astype("int64")
        return (b.drop_columns([col])
                .append_column("bin_lo", pa.array(lo, pa.int64())))

    binned = ds.map_batches(binmap, batch_format="pyarrow")
    return grouped_sums(binned, by + ["bin_lo"], [], count_alias=out_col)


def entity_degree(triples_ds: "ray.data.Dataset",
                  preds: Optional[List[str]] = None) -> "ray.data.Dataset":
    """Graph degree per object entity — the skew-prone hub aggregate.
    Filter to linkable predicates, then grouped count on ``obj``."""

    preds = preds or ["hasAttendee", "hasLocation"]

    def flt(b: pa.Table) -> pa.Table:
        return b.filter(pc.is_in(b.column("pred"), value_set=pa.array(preds)))

    filtered = triples_ds.map_batches(flt, batch_format="pyarrow")
    return grouped_count(filtered, "obj", out_col="degree")


def corpus_stats(ds: "ray.data.Dataset", text_col: str = "text") -> pd.DataFrame:
    """Global count + avg/min/max text length (analyze_dataset analogue)."""

    def lengths(b: pa.Table) -> pa.Table:
        return pa.table({"n_chars_": pc.utf8_length(b.column(text_col))})

    out = ds.map_batches(lengths, batch_format="pyarrow").aggregate(
        Count(alias_name="n_rows"),
        Mean("n_chars_", alias_name="avg_chars"),
        Min("n_chars_", alias_name="min_chars"),
        Max("n_chars_", alias_name="max_chars"),
    )
    return pd.DataFrame([out])


def top_k_per_group(
    ds: "ray.data.Dataset",
    group_col: str,
    order_col: str,
    k: int,
    tiebreak_col: str,
    rank_col: str = "rnk",
) -> "ray.data.Dataset":
    """Top-k rows PER GROUP ordered by (order_col DESC, tiebreak ASC) —
    the "best N documents per language/source" shape.

    Two-phase: a vectorized per-batch local top-k (a batch's global
    top-k per group is a superset of its contribution to the global
    answer, so this commutes) cuts the exchange to <= k rows per group
    per batch, then one fold per hash partition takes the final top-k
    and assigns 1-based ranks. Skew-safe: a hot group ships k rows per
    batch, not its whole population.

    NULL ordering: pandas sorts NaN LAST regardless of direction, which
    matches DuckDB's default NULLS LAST for this DESC ordering; an
    oracle using NULLS FIRST would diverge on NULL order values.
    """
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def local_topk(t: pa.Table, with_rank: bool = False) -> pa.Table:
        df = t.to_pandas()
        df = df.sort_values([group_col, order_col, tiebreak_col],
                            ascending=[True, False, True], kind="mergesort")
        df = df.groupby(group_col, sort=False, dropna=False).head(k)
        if with_rank:
            df[rank_col] = df.groupby(group_col, sort=False,
                                      dropna=False).cumcount() + 1
        return pa.Table.from_pandas(df, preserve_index=False)

    pruned = ds.map_batches(
        lambda b: add_hash_column(local_topk(b), [group_col], out_col="_gh"),
        batch_format="pyarrow")
    out = hash_partition_map(
        pruned, "_gh", lambda t: local_topk(t, with_rank=True))
    return out.drop_columns(["_gh"])


def extreme_row_per_group(
    ds: "ray.data.Dataset",
    key_cols: List[str],
    order_by: List[tuple],
) -> "ray.data.Dataset":
    """ARGMIN/ARGMAX: the single row per key tuple that sorts FIRST by
    ``order_by`` (``[(col, "ascending"|"descending"), ...]``) — the
    TPC-H Q2 family (min-cost supplier per part, first order per
    customer) WITHOUT the join-back: the winner row carries all its
    columns through the exchange.

    Callers must end ``order_by`` with a unique column so ties are
    deterministic. Per-batch local winners commute (a batch's winner per
    key is its only possible contribution), so the exchange moves <= one
    row per (key, batch) — a hot key ships one row per batch, same skew
    story as grouped_count. The winner selection runs Arrow-native
    (``Table.sort_by`` + ``first_rows`` on the key columns):
    value columns never round-trip through pandas, so a batch with NULLs
    in an int64 column can't flip it to float64 and break the exchange
    concat (the dtype trap documented at dedup.py:hash64_columns).
    NULL order values sort last (Arrow default) = SQL NULLS LAST for
    ASC; NULL keys form one group (SQL GROUP BY semantics).
    """
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def winners(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        t = t.sort_by(order_by)
        # first occurrence per key tuple, NULL keys one group (SQL)
        return t.take(first_rows(t, key_cols))

    pruned = ds.map_batches(
        lambda b: add_hash_column(winners(b), key_cols, out_col="_gh"),
        batch_format="pyarrow")
    out = hash_partition_map(pruned, "_gh", winners)
    return out.drop_columns(["_gh"])


def pivot_count(
    ds: "ray.data.Dataset",
    key_col: str,
    pivot_col: str,
    values: Optional[List[str]] = None,
    prefix: str = "n_",
) -> "ray.data.Dataset":
    """Pivot a low-cardinality column into per-value count columns
    (SQL ``COUNT(*) FILTER (WHERE pivot = v)`` per v, GROUP BY key).

    The pivot values are discovered with one grouped count when
    not given (bounded by the column's distinct values); each batch then
    emits vectorized 0/1 indicator columns and the existing
    ``grouped_sums`` partial-aggregation path reduces them — the shuffle
    moves |keys| x |batches| partial rows, never input rows."""
    if values is None:
        values = sorted(r[pivot_col] for r in grouped_count(
            ds, pivot_col, out_col="_n").take_all())

    cols = [f"{prefix}{v}" for v in values]

    def indicators(b: pa.Table) -> pa.Table:
        # per-batch pre-aggregation BEFORE the exchange: the shuffle moves
        # <= |batch distinct keys| rows per batch, and the reduce runs on
        # the explicit exchange — Ray's sort-based groupby on
        # |keys| x |batches| partial rows measured 84s at 5M rows x 200k
        # keys; the exchange fold does the same reduce in ~4s.
        out = b.select([key_col])
        pv = b.column(pivot_col)
        for v, c in zip(values, cols):
            ind = pc.cast(pc.equal(pv, v), pa.int64())
            out = out.append_column(c, pc.fill_null(ind, 0))
        return add_hash_column(group_fold(out, [key_col], sums),
                               [key_col], out_col="_ph")

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    sums = {c: (c, "sum") for c in cols}
    wide = ds.map_batches(indicators, batch_format="pyarrow")
    return hash_partition_map(wide, "_ph",
                              lambda t: group_fold(t, [key_col], sums))


def melt(
    ds: "ray.data.Dataset",
    id_cols: List[str],
    value_cols: List[str],
    var_col: str = "measure",
    value_col: str = "value",
) -> "ray.data.Dataset":
    """Unpivot (wide -> long): one output row per (input row, value
    column), carrying the column NAME and its value — the inverse of
    ``pivot_count``'s shape. Pure per-batch Arrow concat (zero shuffle,
    streams); the value columns are cast to float64 for a uniform value
    column (SQL UNION ALL oracle does the same)."""

    def explode(b: pa.Table) -> pa.Table:
        parts = []
        for c in value_cols:
            t = b.select(id_cols)
            t = t.append_column(
                var_col, pa.array([c] * b.num_rows, pa.string()))
            t = t.append_column(
                value_col, pc.cast(b.column(c), pa.float64()))
            parts.append(t)
        return pa.concat_tables(parts)

    return ds.map_batches(explode, batch_format="pyarrow")


def _grouping_sets(finest: pd.DataFrame, cols: List[str], sets,
                   out_col: str, grouping_col: str) -> pd.DataFrame:
    """Re-aggregate a finest-level count table at each grouping set;
    gid bitmask = SQL GROUPING() (first column = most-significant bit)."""
    n_cols = len(cols)
    frames = []
    for keep in sets:
        rolled = [c for c in cols if c not in keep]
        gid = sum(1 << (n_cols - 1 - i)
                  for i, c in enumerate(cols) if c in rolled)
        if keep:
            agg = (finest.groupby(list(keep), dropna=False)[out_col]
                   .sum().reset_index())
        else:
            agg = pd.DataFrame({out_col: [int(finest[out_col].sum())]})
        for c in rolled:
            agg[c] = None
        agg[grouping_col] = gid
        frames.append(agg[cols + [out_col, grouping_col]])
    out = pd.concat(frames, ignore_index=True)
    out[out_col] = out[out_col].astype("int64")
    out[grouping_col] = out[grouping_col].astype("int64")
    return out


def grouping_sets_counts(
    ds: "ray.data.Dataset",
    cols: List[str],
    sets: List[tuple],
    out_col: str = "n",
    grouping_col: str = "gid",
) -> pd.DataFrame:
    """``GROUP BY GROUPING SETS(sets)`` — the general form rollup/cube
    specialize. ONE distributed aggregate at the union-of-columns finest
    level (``grouped_sums`` partial pre-agg, NULL groups kept); every
    requested set re-aggregates the bounded finest RESULT driver-side.
    Each set is a tuple of column names drawn from ``cols``; ``gid`` is
    the SQL GROUPING() bitmask (first column = most-significant bit)."""
    for s in sets:
        unknown = set(s) - set(cols)
        if unknown:
            raise ValueError(f"grouping set {s} references unknown "
                             f"columns {sorted(unknown)}")
    finest = grouped_sums(ds, cols, [], count_alias=out_col).to_pandas()
    finest[out_col] = finest[out_col].astype("int64")
    return _grouping_sets(
        finest, cols, [tuple(c for c in cols if c in s) for s in sets],
        out_col, grouping_col)


def cube_counts(
    ds: "ray.data.Dataset",
    cols: List[str],
    out_col: str = "n",
    grouping_col: str = "gid",
) -> pd.DataFrame:
    """``GROUP BY CUBE(cols)``: counts at EVERY subset of the grouping
    columns (2^k sets; rollup covers only prefixes). Same one-pass
    strategy as ``rollup_counts``: one distributed aggregate at the
    finest level, all coarser sets from the bounded result."""
    from itertools import combinations

    return grouping_sets_counts(
        ds, cols, [combo for r in range(len(cols), -1, -1)
                   for combo in combinations(cols, r)],
        out_col, grouping_col)


def rollup_counts(
    ds: "ray.data.Dataset",
    cols: List[str],
    out_col: str = "n",
    grouping_col: str = "gid",
) -> pd.DataFrame:
    """``GROUP BY ROLLUP(cols)``: counts at every prefix level plus the
    SQL GROUPING bitmask (first column = most-significant bit), which is
    what distinguishes a rolled-up NULL from a genuine NULL key.

    ONE pass over the data: the finest level runs through the
    ``grouped_sums`` partial pre-aggregation (NULL groups kept); every
    coarser level re-aggregates the finest RESULT, which is bounded by
    the group-key cardinality, not the input — so the rollup costs one
    distributed aggregate plus driver-side pandas folds over kilobytes."""
    return grouping_sets_counts(
        ds, cols, [tuple(cols[:n]) for n in range(len(cols), -1, -1)],
        out_col, grouping_col)


def string_agg_by_key(
    ds: "ray.data.Dataset",
    key_col: str,
    value_col: str,
    order_cols: List[str],
    sep: str = ",",
    out_col: str = "agg",
) -> "ray.data.Dataset":
    """Ordered per-key concatenation (SQL ``string_agg(value, sep ORDER
    BY ...)`` — the collect/array_agg family, emitted as a string so the
    result is hashable and order-DETERMINISTIC given a total order).

    One exchange on the key hash, then per partition a vectorized sort +
    ``groupby.agg(join)``. Partitioning assumption (same as asof_join):
    one key's rows fit a partition. NULL values are skipped (SQL
    string_agg semantics); NULL keys are kept as their own group."""
    import pyarrow as pa

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def fold(t: pa.Table) -> pa.Table:
        df = (t.to_pandas()
              .sort_values([key_col] + order_cols, kind="mergesort"))
        df = df[df[value_col].notna()]
        g = (df.groupby(key_col, sort=False, dropna=False)[value_col]
             .agg(sep.join).reset_index().rename(
                 columns={value_col: out_col}))
        return pa.Table.from_pandas(g, preserve_index=False)

    hashed = ds.map_batches(
        lambda b: add_hash_column(b, [key_col], out_col="_kh"),
        batch_format="pyarrow")
    return hash_partition_map(hashed, "_kh", fold)


def profile_numeric_columns(
    ds: "ray.data.Dataset", cols: List[str], scale: int = 100
) -> pd.DataFrame:
    """Data-profiling operator: per numeric column, row count, null
    count, EXACT distinct count, and scaled min/max — the
    schema-inspection pass a pipeline runs before trusting a new input.

    One map_batches computes all per-batch partials in a single pass
    (counts, min/max, per-column distinct via value sets bounded by the
    batch); distinct folds through the exchange-backed grouped count per
    column over the PARTIAL distinct values, so the driver only ever
    holds per-column scalars."""
    import math

    import numpy as np

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def partial(b: pa.Table) -> pa.Table:
        rows = []
        for c in cols:
            v = b.column(c).to_pandas()
            nn = v.dropna()
            rows.append({
                "column": c,
                "n": len(v),
                "nulls": int(v.isna().sum()),
                "mn": float(nn.min()) if len(nn) else float("nan"),
                "mx": float(nn.max()) if len(nn) else float("nan"),
            })
        return pa.Table.from_pandas(pd.DataFrame(rows),
                                    preserve_index=False)

    stats: dict = {c: [0, 0, float("inf"), float("-inf")] for c in cols}
    for b in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for r in b.to_pylist():
            s = stats[r["column"]]
            s[0] += r["n"]
            s[1] += r["nulls"]
            # arrow stores the no-values NaN sentinel as null -> None here
            if r["mn"] is not None and r["mn"] == r["mn"]:
                s[2] = min(s[2], r["mn"])
                s[3] = max(s[3], r["mx"])

    # exact distinct per column: batch-distinct explode (tagged by
    # column) -> one exchange-reduced count -> per-column row counts
    def distincts(b: pa.Table) -> pa.Table:
        out_c, out_v = [], []
        for c in cols:
            vals = b.column(c).to_pandas().dropna().unique()
            out_c.extend([c] * len(vals))
            out_v.extend(float(x) for x in vals)
        return pa.table({"column": pa.array(out_c, pa.string()),
                         "value": pa.array(out_v, pa.float64())})

    tagged = ds.map_batches(
        lambda b: add_hash_column(distincts(b), ["column", "value"],
                                  out_col="_dh"),
        batch_format="pyarrow")

    def fold(t: pa.Table) -> pa.Table:
        df = (t.drop_columns(["_dh"]).to_pandas()
              .drop_duplicates(["column", "value"]))
        out = df.groupby("column").size().reset_index(name="nd")
        return pa.Table.from_pandas(out, preserve_index=False)

    nd = {c: 0 for c in cols}
    for b in hash_partition_map(tagged, "_dh", fold).iter_batches(
            batch_format="pyarrow", batch_size=None):
        for c, n in zip(b.column("column").to_pylist(),
                        b.column("nd").to_pylist()):
            nd[c] += n

    return pd.DataFrame({
        "column": cols,
        "n": [stats[c][0] for c in cols],
        "n_nulls": [stats[c][1] for c in cols],
        "n_distinct": [nd[c] for c in cols],
        # all-NULL column: min/max stay +/-inf and floor(inf) raises —
        # report 0 (n_nulls == n tells the reader there were no values)
        "min_e2": [int(math.floor(stats[c][2] * scale + 0.5))
                   if math.isfinite(stats[c][2]) else 0 for c in cols],
        "max_e2": [int(math.floor(stats[c][3] * scale + 0.5))
                   if math.isfinite(stats[c][3]) else 0 for c in cols],
    }).astype({"n": "int64", "n_nulls": "int64", "n_distinct": "int64",
               "min_e2": "int64", "max_e2": "int64"})


def grouped_heavy_hitters(
    ds: "ray.data.Dataset",
    group_col: str,
    item_col: str,
    k: int = 64,
) -> "ray.data.Dataset":
    """Misra-Gries heavy hitters PER GROUP: one bounded counter set per
    (group, batch) ships to the exchange (counters, never rows), sketches
    merge per group in the hash-partition fold, and the output is one row
    per surviving (group, item) with the sketch estimate and the group's
    true row count (``group_n``, summed from exact per-partial counts —
    it rides along for free and prices the n/(k+1) undercount bound).

    Guarantee preserved under merge: any item with true per-group count
    > group_n/(k+1) survives, and its estimate lies in
    [true - group_n/(k+1), true]. Skew-safe by construction — a hot
    group contributes <= k counters per batch regardless of row count;
    the driver never sees rows or sketches (the fold emits final rows).
    """
    from calendar_event_entity_extraction_ray.functions.sketch import (
        MisraGries,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def partial(b: pa.Table) -> pa.Table:
        df = b.select([group_col, item_col]).to_pandas()
        by_group: dict = {}
        counts: dict = {}
        for g, items in df.groupby(group_col, sort=False,
                                   dropna=False)[item_col]:
            by_group[g] = MisraGries(k=k).add_many(items.tolist())
            counts[g] = len(items)
        t = pa.table({
            group_col: pa.array(list(by_group)),
            "mg": pa.array([s.serialize() for s in by_group.values()],
                           pa.binary()),
            "bn": pa.array([counts[g] for g in by_group], pa.int64()),
        })
        return add_hash_column(t, [group_col], out_col="_gh")

    def fold(t: pa.Table) -> pa.Table:
        merged: dict = {}
        totals: dict = {}
        for g, blob, bn in zip(t.column(group_col).to_pylist(),
                               t.column("mg").to_pylist(),
                               t.column("bn").to_pylist()):
            s = MisraGries.deserialize(blob, k=k)
            if g in merged:
                merged[g].merge(s)
                totals[g] += bn
            else:
                merged[g] = s
                totals[g] = bn
        groups, items, ests, ns = [], [], [], []
        for g, s in merged.items():
            for item, est in s.counters.items():
                groups.append(g)
                items.append(item)
                ests.append(int(est))
                ns.append(totals[g])
        return pa.table({group_col: pa.array(groups),
                         item_col: pa.array(items),
                         "mg_est": pa.array(ests, pa.int64()),
                         "group_n": pa.array(ns, pa.int64())})

    partials = ds.map_batches(partial, batch_format="pyarrow")
    return hash_partition_map(partials, "_gh", fold)
