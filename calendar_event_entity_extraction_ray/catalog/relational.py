"""TPC-H-shaped queries over the relational tables (lineitem, orders,
customer, part, supplier): grouped aggregates, broadcast and exchange
joins, semi/anti joins, quantiles and ranks.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Count, Sum

from calendar_event_entity_extraction_ray.catalog import _int64, _read, query


@query("q1_lineitem_agg", """
    SELECT l_returnflag, l_linestatus,
           CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
           CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
           CAST(SUM(CAST(floor(l_extendedprice * (1.0 - l_discount) * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_price_e4,
           COUNT(*) AS count_order
    FROM lineitem
    WHERE l_shipdate < TIMESTAMP '1998-09-01'
    GROUP BY l_returnflag, l_linestatus
""", bench=True)
def q_lineitem_agg(sf_dir: str) -> Any:
    """TPC-H Q1-shaped grouped aggregate; scaled-integer money columns."""
    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_linestatus", "l_quantity",
                        "l_extendedprice", "l_discount", "l_shipdate"])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.less(b.column("l_shipdate"),
                             pa.scalar(pd.Timestamp("1998-09-01"))))
        qty = b.column("l_quantity").to_numpy()
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "l_linestatus": b.column("l_linestatus"),
            "qty_i": pa.array(np.floor(qty + 0.5).astype(np.int64)),
            "price_c": pa.array(np.floor(price * 100 + 0.5).astype(np.int64)),
            "disc_price_e4": pa.array(
                np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)),
        })

    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums

    # partial pre-aggregation: 6 output groups — the shuffle moves partials,
    # not the 600k+ input rows
    out = grouped_sums(
        ds.map_batches(prep, batch_format="pyarrow"),
        key_cols=["l_returnflag", "l_linestatus"],
        sum_cols=["qty_i", "price_c", "disc_price_e4"],
        count_alias="count_order",
    ).to_pandas().rename(columns={
        "qty_i": "sum_qty", "price_c": "sum_base_price_cents",
        "disc_price_e4": "sum_disc_price_e4",
    })
    return _int64(out, ["sum_qty", "sum_base_price_cents", "sum_disc_price_e4",
                        "count_order"])


@query("q6_revenue", """
    SELECT CAST(SUM(CAST(floor(l_extendedprice * l_discount * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4,
           COUNT(*) AS n_lines
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate <  TIMESTAMP '1997-01-01'
      AND l_discount >= 0.05 AND l_quantity < 24
""")
def q_revenue(sf_dir: str) -> Any:
    """TPC-H Q6-shaped filter + global sum: the whole predicate pushes
    into the parquet scan (row-group statistics prune before decode; the
    filter references l_shipdate/l_quantity, which never leave the
    scan — only the two revenue columns are projected)."""
    import pyarrow.dataset as pds

    pred = ((pds.field("l_shipdate") >= pd.Timestamp("1996-01-01"))
            & (pds.field("l_shipdate") < pd.Timestamp("1997-01-01"))
            & (pds.field("l_discount") >= 0.05)
            & (pds.field("l_quantity") < 24.0))
    ds = _read(sf_dir, "lineitem",
               columns=["l_extendedprice", "l_discount"], predicate=pred)

    def prep(b: pa.Table) -> pa.Table:
        rev = b.column("l_extendedprice").to_numpy() * b.column("l_discount").to_numpy()
        return pa.table({"rev_e4": pa.array(np.floor(rev * 10_000 + 0.5).astype(np.int64))})

    agg = ds.map_batches(prep, batch_format="pyarrow").aggregate(
        Sum("rev_e4", alias_name="revenue_e4"), Count(alias_name="n_lines")
    )
    return pd.DataFrame([{"revenue_e4": int(agg["revenue_e4"]),
                          "n_lines": int(agg["n_lines"])}])


@query("customer_order_totals", """
    SELECT c.c_mktsegment AS c_mktsegment,
           COUNT(*) AS n_orders,
           CAST(SUM(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_price_cents
    FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
    GROUP BY c.c_mktsegment
""", bench=True)
def q_customer_order_totals(sf_dir: str) -> Any:
    """Broadcast join: orders (big) x customer (small) -> per-mktsegment
    totals. The small side ships once via ray.put; the per-batch lookup is
    one vectorized Series.map (stages/broadcast.py); no shuffle join.
    INNER semantics (the oracle drops unmatched keys)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_sorted_map_local,
        lookup_sorted,
    )

    seg_ref = broadcast_sorted_map_local(
        f"{sf_dir}/customer.parquet", "c_custkey", "c_mktsegment")
    orders = _read(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])
    joined = lookup_sorted(orders, seg_ref, "o_custkey", "c_mktsegment")

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("o_totalprice").to_numpy()
        return pa.table({
            "c_mktsegment": b.column("c_mktsegment"),
            "price_c": pa.array(np.floor(price * 100 + 0.5).astype(np.int64)),
        })

    # 5 mktsegments -> stream_reduce folds partials inside the one plan
    out = grouped_sums(joined.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["c_mktsegment"], sum_cols=["price_c"],
                       count_alias="n_orders",
                       stream_reduce=True).to_pandas().rename(
        columns={"price_c": "total_price_cents"})
    return _int64(out, ["n_orders", "total_price_cents"])


@query("nation_customers", """
    SELECT n.n_name AS n_name, COUNT(*) AS n_customers
    FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
    GROUP BY n.n_name
""")
def q_nation_customers(sf_dir: str) -> Any:
    """Broadcast join customer -> nation (INNER semantics)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_dict_local,
        broadcast_lookup,
    )

    n_ref = broadcast_dict_local(
        f"{sf_dir}/nation.parquet", "n_nationkey", "n_name")
    cust = _read(sf_dir, "customer", columns=["c_nationkey"])
    out = grouped_sums(
        broadcast_lookup(cust, n_ref, "c_nationkey", "n_name",
                         out_type=pa.string()),
        key_cols=["n_name"], sum_cols=[], count_alias="n_customers",
        stream_reduce=True)
    return _int64(out, ["n_customers"])


@query("orders_priority", """
    SELECT o_orderpriority,
           COUNT(*) AS n_orders,
           CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_price_cents
    FROM orders GROUP BY o_orderpriority
""")
def q_orders_priority(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums

    ds = _read(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        v = b.column("o_totalprice").to_numpy()
        return pa.table({
            "o_orderpriority": b.column("o_orderpriority"),
            "price_c": pa.array(np.floor(v * 100 + 0.5).astype(np.int64)),
        })

    out = grouped_sums(ds.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["o_orderpriority"], sum_cols=["price_c"],
                       count_alias="n_orders",
                       stream_reduce=True).to_pandas().rename(
        columns={"price_c": "total_price_cents"})
    return _int64(out, ["n_orders", "total_price_cents"])


@query("brand_revenue", """
    SELECT p.p_brand AS p_brand,
           COUNT(*) AS n_lines,
           CAST(SUM(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4
    FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
    GROUP BY p.p_brand
""")
def q_brand_revenue(sf_dir: str) -> Any:
    """lineitem x part broadcast join -> revenue per brand (INNER)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_sorted_map_local,
        lookup_sorted,
    )

    brand_ref = broadcast_sorted_map_local(
        f"{sf_dir}/part.parquet", "p_partkey", "p_brand")
    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount"])
    joined = lookup_sorted(li, brand_ref, "l_partkey", "p_brand")

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        return pa.table({"p_brand": b.column("p_brand"),
                         "rev_e4": pa.array(rev)})

    out = grouped_sums(joined.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["p_brand"], sum_cols=["rev_e4"],
                       count_alias="n_lines",
                       stream_reduce=True).to_pandas().rename(
        columns={"rev_e4": "revenue_e4"})
    return _int64(out, ["n_lines", "revenue_e4"])


@query("supplier_balance", """
    SELECT n.n_name AS n_name,
           COUNT(*) AS n_suppliers,
           CAST(SUM(CAST(floor(s.s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_acctbal_cents
    FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
    GROUP BY n.n_name
""")
def q_supplier_balance(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_dict_local,
        broadcast_lookup,
    )

    n_ref = broadcast_dict_local(
        f"{sf_dir}/nation.parquet", "n_nationkey", "n_name")
    sup = _read(sf_dir, "supplier", columns=["s_nationkey", "s_acctbal"])
    joined = broadcast_lookup(sup, n_ref, "s_nationkey", "n_name",
                              out_type=pa.string())

    def prep(b: pa.Table) -> pa.Table:
        bal = b.column("s_acctbal").to_numpy()
        return pa.table({
            "n_name": b.column("n_name"),
            "bal_c": pa.array(np.floor(bal * 100 + 0.5).astype(np.int64)),
        })

    out = grouped_sums(joined.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["n_name"], sum_cols=["bal_c"],
                       count_alias="n_suppliers",
                       stream_reduce=True).to_pandas().rename(
        columns={"bal_c": "total_acctbal_cents"})
    return _int64(out, ["n_suppliers", "total_acctbal_cents"])


@query("order_revenue_hashjoin", """
    SELECT o.o_orderpriority,
           COUNT(*) AS n_lines,
           CAST(SUM(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4
    FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
    GROUP BY o.o_orderpriority
""", bench=True)
def q_order_revenue_hashjoin(sf_dir: str) -> Any:
    """Two-large-sides partitioned hash join (no broadcast): orders x
    lineitem on orderkey, revenue per order priority."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_sums
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_orderpriority"])
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "rev_e4": pa.array(rev)})

    joined = hash_join(
        orders, li.map_batches(prep, batch_format="pyarrow"),
        key="o_orderkey",
        left_cols=["o_orderkey", "o_orderpriority"],
        right_cols=["o_orderkey", "rev_e4"],
    )
    out = grouped_sums(joined, key_cols=["o_orderpriority"],
                       sum_cols=["rev_e4"], count_alias="n_lines"
                       ).to_pandas().rename(columns={"rev_e4": "revenue_e4"})
    return _int64(out, ["n_lines", "revenue_e4"])


@query("orders_price_range", """
    SELECT o_orderkey,
           CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
               AS price_c
    FROM orders
    WHERE o_totalprice >= 1000.0 AND o_totalprice <= 3000.0
""", bench=True)
def q_orders_price_range(sf_dir: str) -> Any:
    """Zone-map-pruned range scan over the engine's OWN sorted store:
    write_sorted exports orders range-partitioned on o_totalprice with
    per-partition [min, max] in the manifest; read_sorted_range then
    answers a BETWEEN predicate opening only intersecting partitions
    (driver-side manifest prune -> row-group statistics prune -> row
    filter; stages/sort.py). Oracle = the same BETWEEN on the raw table,
    proving the prune loses no rows."""
    import tempfile

    from calendar_event_entity_extraction_ray.stages.exchange import (
        defer_cleanup,
    )
    from calendar_event_entity_extraction_ray.stages.sort import (
        pruned_partition_files,
        read_sorted_range,
        write_sorted,
    )

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out_dir = tempfile.mkdtemp(prefix="sorted_orders_")
    # the returned dataset reads out_dir lazily — defer removal to
    # cleanup_pending_spill()/atexit instead of leaking it per invocation
    defer_cleanup(out_dir)
    write_sorted(orders, "o_totalprice", out_dir,
                 fingerprint=f"orders-{sf_dir}", num_partitions=16)
    lo, hi = 1000.0, 3000.0
    n_pruned = len(pruned_partition_files(out_dir, lo, hi))
    assert n_pruned < 16, "range should prune at least one partition"
    ds = read_sorted_range(out_dir, lo, hi)

    def fin(b: pa.Table) -> pa.Table:
        import numpy as np

        p = b.column("o_totalprice").to_numpy(zero_copy_only=False)
        return pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "price_c": pa.array(np.floor(p * 100 + 0.5).astype(np.int64)),
        })

    return ds.map_batches(fin, batch_format="pyarrow")


@query("order_price_quantiles", """
    SELECT CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
           CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2
    FROM (SELECT unnest([0.25, 0.5, 0.75, 0.9, 0.99]) AS q,
                 unnest(quantile_disc(o_totalprice,
                        [0.25, 0.5, 0.75, 0.9, 0.99])) AS v
          FROM orders)
""", bench=True)
def q_price_quantiles(sf_dir: str) -> Any:
    """Distributed EXACT quantile_disc via histogram-refine rank selection
    (stages/quantiles.py) — no global sort, driver holds only histograms
    and one sub-cap bin per quantile. Values are actual data elements, so
    the DuckDB quantile_disc oracle matches exactly (scaled to cents)."""
    import math

    from calendar_event_entity_extraction_ray.stages.quantiles import (
        exact_quantiles,
    )

    qs = [0.25, 0.5, 0.75, 0.9, 0.99]
    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    res = exact_quantiles(ds, "o_totalprice", qs, bins=512,
                          collect_cap=10_000)
    return pd.DataFrame({
        "q_e4": [int(round(q * 10000)) for q, _ in res],
        "val_e2": [int(math.floor(v * 100 + 0.5)) for _, v in res],
    })


@query("order_price_p_cont", """
    SELECT CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
           CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2
    FROM (SELECT unnest([0.25, 0.5, 0.9]) AS q,
                 unnest(quantile_cont(o_totalprice,
                        [0.25, 0.5, 0.9])) AS v
          FROM orders)
""")
def q_order_price_p_cont(sf_dir: str) -> Any:
    """Distributed percentile_cont (interpolated quantiles): the same
    rank-selection machinery fetches the two bracketing order statistics
    per q, then applies DuckDB's exact interpolation expression
    lo + (hi - lo) * frac (stages/quantiles.py:percentile_cont)."""
    import math

    from calendar_event_entity_extraction_ray.stages.quantiles import (
        percentile_cont,
    )

    qs = [0.25, 0.5, 0.9]
    ds = _read(sf_dir, "orders", columns=["o_totalprice"])
    res = percentile_cont(ds, "o_totalprice", qs, bins=512,
                          collect_cap=10_000)
    return pd.DataFrame({
        "q_e4": [int(round(q * 10000)) for q, _ in res],
        "val_e2": [int(math.floor(v * 100 + 0.5)) for _, v in res],
    })


@query("order_global_rank", """
    SELECT o_orderkey,
           CAST(ROW_NUMBER() OVER (ORDER BY o_totalprice,
                                   o_orderkey) AS BIGINT) AS rank
    FROM orders
""", bench=True)
def q_order_global_rank(sf_dir: str) -> Any:
    """Global ROW_NUMBER over a total order (o_totalprice, o_orderkey) —
    distributed range-partitioned sort (stages/sort.py): sampled
    boundaries route rows, per-bucket local sort + rank, kilobyte bucket
    sizes become prefix offsets. No Ray sort-shuffle."""
    from calendar_event_entity_extraction_ray.stages.sort import (
        global_row_number,
    )

    ds = _read(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])
    out = global_row_number(ds, "o_totalprice",
                            tiebreak_cols=["o_orderkey"])

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({"o_orderkey": b.column("o_orderkey"),
                         "rank": b.column("rank")})

    return out.map_batches(fin, batch_format="pyarrow")


@query("orders_no_bulk", """
    SELECT o_orderkey FROM orders o
    WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                      WHERE l.l_orderkey = o.o_orderkey
                        AND l.l_quantity > 45)
""")
def q_orders_no_bulk(sf_dir: str) -> Any:
    """Large-large anti join (NOT EXISTS): orders with no bulk lineitem
    (quantity > 45) — neither side fits a broadcast at scale; both
    exchange on the key hash, per-partition vectorized isin
    (stages/joins.py:anti_join)."""
    from calendar_event_entity_extraction_ray.stages.joins import anti_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    bulk = (_read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
            .filter(expr="l_quantity > 45")
            .map_batches(
                lambda b: pa.table({"o_orderkey": b.column("l_orderkey")}),
                batch_format="pyarrow"))
    return anti_join(orders, bulk, "o_orderkey", ["o_orderkey"])


@query("customer_order_counts_left", """
    SELECT c_custkey,
           CAST(COUNT(o_custkey) AS BIGINT) AS n_orders
    FROM customer LEFT JOIN orders ON o_custkey = c_custkey
    GROUP BY c_custkey
""", bench=True)
def q_customer_order_counts_left(sf_dir: str) -> Any:
    """LEFT OUTER join: every customer, with 0 for the no-order ones
    (TPC-H plants ~1/3 orderless customers). Aggregation is pushed INTO
    the join's exchange: orders collapse to (custkey, partial) per batch
    (a hot key ships one row per batch), customers ride the same key
    hash, and ONE fold per partition sums partials and left-merges —
    |customers| + |custkeys|·|batches| rows through one exchange instead
    of the two a grouped_count-then-hash_join chain would run."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        partial_count_batch,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    orders = _read(sf_dir, "orders", columns=["o_custkey"]).map_batches(
        lambda b: add_hash_column(
            partial_count_batch(b, ["o_custkey"])
            .rename_columns(["c_custkey", "partial"]),
            ["c_custkey"], out_col="_kh"),
        batch_format="pyarrow")
    cust = _read(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        lambda b: add_hash_column(
            b.append_column("partial",
                            pa.nulls(b.num_rows, pa.int64())),
            ["c_custkey"], out_col="_kh"),
        batch_format="pyarrow")

    def fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        counts = (df[df["partial"].notna()]
                  .groupby("c_custkey")["partial"].sum())
        left = df.loc[df["partial"].isna(), ["c_custkey"]]
        left["n_orders"] = (left["c_custkey"].map(counts)
                            .fillna(0).astype("int64"))
        return pa.Table.from_pandas(left, preserve_index=False)

    return hash_partition_map(cust.union(orders), "_kh", fold)


@query("orders_with_bulk", """
    SELECT o_orderkey FROM orders o
    WHERE EXISTS (SELECT 1 FROM lineitem l
                  WHERE l.l_orderkey = o.o_orderkey
                    AND l.l_quantity > 45)
""")
def q_orders_with_bulk(sf_dir: str) -> Any:
    """Large-large semi join (EXISTS): orders having at least one bulk
    lineitem — the complement of orders_no_bulk, same exchange kernel
    (stages/joins.py:semi_join)."""
    from calendar_event_entity_extraction_ray.stages.joins import semi_join

    orders = _read(sf_dir, "orders", columns=["o_orderkey"])
    bulk = (_read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])
            .filter(expr="l_quantity > 45")
            .map_batches(
                lambda b: pa.table({"o_orderkey": b.column("l_orderkey")}),
                batch_format="pyarrow"))
    return semi_join(orders, bulk, "o_orderkey", ["o_orderkey"])


@query("lineitem_melt", """
    SELECT l_orderkey, l_linenumber, 'l_quantity' AS measure,
           CAST(FLOOR(l_quantity * 10000 + 0.5) AS BIGINT) AS val_e4
    FROM lineitem
    UNION ALL
    SELECT l_orderkey, l_linenumber, 'l_extendedprice',
           CAST(FLOOR(l_extendedprice * 10000 + 0.5) AS BIGINT)
    FROM lineitem
    UNION ALL
    SELECT l_orderkey, l_linenumber, 'l_discount',
           CAST(FLOOR(l_discount * 10000 + 0.5) AS BIGINT)
    FROM lineitem
""")
def q_lineitem_melt(sf_dir: str) -> Any:
    """Unpivot (wide -> long): lineitem measures as (key, measure, value)
    rows — zero-shuffle per-batch Arrow concat
    (stages/aggregate.py:melt)."""
    import math

    from calendar_event_entity_extraction_ray.stages.aggregate import melt

    ds = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linenumber", "l_quantity",
                        "l_extendedprice", "l_discount"])
    out = melt(ds, ["l_orderkey", "l_linenumber"],
               ["l_quantity", "l_extendedprice", "l_discount"])

    def fin(b: pa.Table) -> pa.Table:
        return pa.table({
            "l_orderkey": b.column("l_orderkey"),
            "l_linenumber": b.column("l_linenumber"),
            "measure": b.column("measure"),
            "val_e4": pa.array(
                [int(math.floor(v * 10_000 + 0.5))
                 for v in b.column("value").to_pylist()], pa.int64()),
        })

    return out.map_batches(fin, batch_format="pyarrow")


@query("first_order", """
    SELECT o_custkey, o_orderkey, o_orderdate,
           CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
               AS price_e2
    FROM (SELECT *, ROW_NUMBER() OVER (
              PARTITION BY o_custkey
              ORDER BY o_orderdate, o_orderkey) AS rn
          FROM orders)
    WHERE rn = 1
""", bench=True)
def q_first_order(sf_dir: str) -> Any:
    """ARGMIN row per group (TPC-H Q2's min-cost-supplier family without
    the join-back): each customer's earliest order, ties broken by
    o_orderkey, via stages/aggregate.py:extreme_row_per_group — per-batch
    local winners cut the exchange to <= one row per (customer, batch)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        extreme_row_per_group,
    )

    ds = _read(sf_dir, "orders",
               columns=["o_custkey", "o_orderkey", "o_orderdate",
                        "o_totalprice"])

    def prep(b: pa.Table) -> pa.Table:
        price = np.floor(b.column("o_totalprice").to_numpy()
                         * 100 + 0.5).astype(np.int64)
        return pa.table({"o_custkey": b.column("o_custkey"),
                         "o_orderkey": b.column("o_orderkey"),
                         "o_orderdate": b.column("o_orderdate"),
                         "price_e2": pa.array(price)})

    out = extreme_row_per_group(
        ds.map_batches(prep, batch_format="pyarrow"),
        key_cols=["o_custkey"],
        order_by=[("o_orderdate", "ascending"),
                  ("o_orderkey", "ascending")])
    return _int64(out.to_pandas(),
                  ["o_custkey", "o_orderkey", "price_e2"])


@query("supplier_value_share", """
    SELECT l_suppkey, rev_e4, n FROM (
      SELECT l_suppkey,
             CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                  * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS rev_e4,
             CAST(COUNT(*) AS BIGINT) AS n
      FROM lineitem GROUP BY l_suppkey)
    WHERE rev_e4 * 10000 > 105 *
      (SELECT SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
               * 10000 + 0.5) AS BIGINT)) FROM lineitem)
""", bench=True)
def q_supplier_value_share(sf_dir: str) -> Any:
    """TPC-H Q11 shape — per-group sums kept only when they exceed a
    FRACTION of the global total (share > 1.05%). The global total is one
    tiny second aggregate whose scalar closes over the distributed
    filter (a broadcast scalar, not a join); the compare is exact
    integer cross-multiplication (rev_e4 * 10000 > total_e4 * 105), no
    float threshold to drift."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        rev = (b.column("l_extendedprice").to_numpy()
               * (1.0 - b.column("l_discount").to_numpy()))
        return pa.table({
            "l_suppkey": b.column("l_suppkey"),
            "rev_e4": pa.array(np.floor(rev * 10_000 + 0.5)
                               .astype(np.int64))})

    # consumed by both the grouped exchange and the global aggregate
    lines = li.map_batches(prep, batch_format="pyarrow").materialize()
    per_supp = grouped_sums(lines, key_cols=["l_suppkey"],
                            sum_cols=["rev_e4"], count_alias="n")
    total = int(lines.aggregate(Sum("rev_e4", alias_name="t"))["t"])

    out = per_supp.map_batches(
        lambda b: b.filter(pc.greater(
            pc.multiply(b.column("rev_e4"), pa.scalar(10000, pa.int64())),
            pa.scalar(total * 105, pa.int64()))),
        batch_format="pyarrow")
    return _int64(out.to_pandas(), ["l_suppkey", "rev_e4", "n"])


@query("idle_rich_customers", """
    SELECT c_nationkey,
           CAST(SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT))
                AS BIGINT) AS bal_e2,
           CAST(COUNT(*) AS BIGINT) AS n_cust
    FROM customer
    WHERE CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT)
          * (SELECT COUNT(*) FROM customer
             WHERE CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) > 0)
          > (SELECT SUM(CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT))
             FROM customer
             WHERE CAST(FLOOR(c_acctbal * 100 + 0.5) AS BIGINT) > 0)
      AND NOT EXISTS (SELECT 1 FROM orders
                      WHERE o_custkey = c_custkey
                        AND o_orderpriority = '1-URGENT')
    GROUP BY c_nationkey
""")
def q_idle_rich_customers(sf_dir: str) -> Any:
    """TPC-H Q22 shape — scalar-subquery threshold + NOT EXISTS:
    customers with above-average positive balance and no URGENT order,
    counted per nation. The average is an exact rational (bal_e2 * n >
    sum_e2 — integer cross-multiply on cents), the NOT EXISTS predicate
    pushes into the orders scan and routes through the exchange
    anti_join, and the final rollup is a grouped sum."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import anti_join

    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_nationkey", "c_acctbal"])

    def prep(b: pa.Table) -> pa.Table:
        bal = np.floor(b.column("c_acctbal").to_numpy()
                       * 100 + 0.5).astype(np.int64)
        return pa.table({"c_custkey": b.column("c_custkey"),
                         "c_nationkey": b.column("c_nationkey"),
                         "bal_e2": pa.array(bal)})

    c = cust.map_batches(prep, batch_format="pyarrow").materialize()
    agg = c.map_batches(
        lambda b: b.filter(pc.greater(b.column("bal_e2"), 0)),
        batch_format="pyarrow").aggregate(
            Sum("bal_e2", alias_name="s"), Count(alias_name="n"))
    s, n = int(agg["s"]), int(agg["n"])

    rich = c.map_batches(
        lambda b: b.filter(pc.greater(
            pc.multiply(b.column("bal_e2"), pa.scalar(n, pa.int64())),
            pa.scalar(s, pa.int64()))),
        batch_format="pyarrow")
    import pyarrow.dataset as pds

    orders = _read(
        sf_dir, "orders", columns=["o_custkey"],
        predicate=(pds.field("o_orderpriority") == "1-URGENT"),
    ).map_batches(
        lambda b: b.rename_columns(["c_custkey"]), batch_format="pyarrow")
    idle = anti_join(rich, orders, key="c_custkey",
                     left_cols=["c_custkey", "c_nationkey", "bal_e2"])
    out = grouped_sums(idle, key_cols=["c_nationkey"],
                       sum_cols=["bal_e2"], count_alias="n_cust")
    return _int64(out.to_pandas(), ["c_nationkey", "bal_e2", "n_cust"])


@query("segment_revenue", """
    SELECT c.c_mktsegment,
           CAST(SUM(CAST(FLOOR(l.l_extendedprice
                * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT))
                AS BIGINT) AS revenue_e4,
           COUNT(*) AS n_lines
    FROM customer c
    JOIN orders o ON o.o_custkey = c.c_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    GROUP BY c.c_mktsegment
""", bench=True)
def q_segment_revenue(sf_dir: str) -> Any:
    """Three-way join composition (customer |X| orders |X| lineitem):
    broadcast the small dimension (customer segment) onto orders, hash
    join the two large sides, partial-pre-agg the revenue per segment —
    the canonical multi-join plan: broadcast where one side is small,
    exchange where neither is."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_sorted_map_local,
        lookup_sorted,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    seg_ref = broadcast_sorted_map_local(
        f"{sf_dir}/customer.parquet", "c_custkey", "c_mktsegment")
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    orders_seg = lookup_sorted(orders, seg_ref, "o_custkey",
                               "c_mktsegment")
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "rev_e4": pa.array(rev)})

    joined = hash_join(
        orders_seg.map_batches(
            lambda b: b.select(["o_orderkey", "c_mktsegment"]),
            batch_format="pyarrow"),
        li.map_batches(prep, batch_format="pyarrow"),
        key="o_orderkey",
        left_cols=["o_orderkey", "c_mktsegment"],
        right_cols=["o_orderkey", "rev_e4"],
    )
    out = grouped_sums(joined, key_cols=["c_mktsegment"],
                       sum_cols=["rev_e4"], count_alias="n_lines",
                       stream_reduce=True)
    return _int64(out.to_pandas().rename(
        columns={"rev_e4": "revenue_e4"}), ["revenue_e4", "n_lines"])


@query("profile_orders", """
    SELECT 'o_orderkey' AS column, COUNT(*) AS n,
           CAST(COUNT(*) - COUNT(o_orderkey) AS BIGINT) AS n_nulls,
           CAST(COUNT(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
           CAST(FLOOR(MIN(o_orderkey) * 100 + 0.5) AS BIGINT) AS min_e2,
           CAST(FLOOR(MAX(o_orderkey) * 100 + 0.5) AS BIGINT) AS max_e2
    FROM orders
    UNION ALL
    SELECT 'o_custkey', COUNT(*),
           CAST(COUNT(*) - COUNT(o_custkey) AS BIGINT),
           CAST(COUNT(DISTINCT o_custkey) AS BIGINT),
           CAST(FLOOR(MIN(o_custkey) * 100 + 0.5) AS BIGINT),
           CAST(FLOOR(MAX(o_custkey) * 100 + 0.5) AS BIGINT)
    FROM orders
    UNION ALL
    SELECT 'o_totalprice', COUNT(*),
           CAST(COUNT(*) - COUNT(o_totalprice) AS BIGINT),
           CAST(COUNT(DISTINCT o_totalprice) AS BIGINT),
           CAST(FLOOR(MIN(o_totalprice) * 100 + 0.5) AS BIGINT),
           CAST(FLOOR(MAX(o_totalprice) * 100 + 0.5) AS BIGINT)
    FROM orders
""")
def q_profile_orders(sf_dir: str) -> Any:
    """Table profiling: per numeric column of orders — row count, nulls,
    EXACT distinct count (exchange-reduced), scaled min/max
    (stages/aggregate.py:profile_numeric_columns)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        profile_numeric_columns,
    )

    cols = ["o_orderkey", "o_custkey", "o_totalprice"]
    ds = _read(sf_dir, "orders", columns=cols)
    return profile_numeric_columns(ds, cols)


@query("qty_discount_corr", """
    SELECT l_returnflag,
           CAST(COUNT(*) AS BIGINT) AS n,
           CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y)
                AS BIGINT) AS cov_num,
           CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x)
                AS BIGINT) AS varx_num,
           CAST(COUNT(*) * SUM(y * y) - SUM(y) * SUM(y)
                AS BIGINT) AS vary_num
    FROM (SELECT l_returnflag,
                 CAST(floor(l_quantity + 0.5) AS BIGINT) AS x,
                 CAST(floor(l_discount * 100 + 0.5) AS BIGINT) AS y
          FROM lineitem)
    GROUP BY l_returnflag
""")
def q_qty_discount_corr(sf_dir: str) -> Any:
    """Grouped Pearson correlation WITHOUT floats (SQL corr() family):
    ship integer moment partials (x, y, xy, x2, y2, n) through one
    grouped_sums pass, then emit the three exact-integer numerators
    cov_num = n*Sxy - Sx*Sy, varx_num = n*Sx2 - Sx^2, vary_num =
    n*Sy2 - Sy^2 (corr = cov_num / sqrt(varx_num*vary_num) if a float
    were wanted). Same order-independence argument as value_variance:
    integer partials commute, no Welford last-ulp risk. Domain:
    |x|<=50, |y|<=10 here — n*Sxy saturates int64 around 1e9 rows/group
    at these magnitudes (DuckDB's HUGEINT widens for free; the Ray side
    would need object-dtype or splitting at that scale)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    ds = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        x = np.floor(b.column("l_quantity").to_numpy() + 0.5).astype(np.int64)
        y = np.floor(b.column("l_discount").to_numpy() * 100 + 0.5).astype(
            np.int64)
        return pa.table({
            "l_returnflag": b.column("l_returnflag"),
            "x": pa.array(x), "y": pa.array(y),
            "xy": pa.array(x * y), "x2": pa.array(x * x),
            "y2": pa.array(y * y),
        })

    out = grouped_sums(ds.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["l_returnflag"],
                       sum_cols=["x", "y", "xy", "x2", "y2"],
                       count_alias="n", stream_reduce=True).to_pandas()
    out["cov_num"] = out["n"] * out["xy"] - out["x"] * out["y"]
    out["varx_num"] = out["n"] * out["x2"] - out["x"] * out["x"]
    out["vary_num"] = out["n"] * out["y2"] - out["y"] * out["y"]
    return _int64(out[["l_returnflag", "n", "cov_num", "varx_num",
                       "vary_num"]],
                  ["n", "cov_num", "varx_num", "vary_num"])


@query("customer_order_full", """
    SELECT COALESCE(c.custkey, o.custkey) AS custkey,
           CAST(COALESCE(c.has_cust, 0) AS BIGINT) AS has_cust,
           CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders
    FROM (SELECT c_custkey AS custkey, 1 AS has_cust
          FROM customer WHERE c_mktsegment = 'BUILDING') c
    FULL OUTER JOIN
         (SELECT o_custkey AS custkey, COUNT(*) AS n_orders
          FROM orders GROUP BY o_custkey) o
    ON c.custkey = o.custkey
""")
def q_customer_order_full(sf_dir: str) -> Any:
    """FULL OUTER hash join (completes the join family): BUILDING-segment
    customers vs per-customer order counts — unmatched rows survive from
    BOTH sides. Output stays integer/NULL-free for the hash gate:
    has_cust flags the customer side, n_orders fills 0 for customers who
    never ordered."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    cust = (_read(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
            .filter(expr="c_mktsegment == 'BUILDING'")
            .map_batches(
                lambda b: pa.table({
                    "custkey": b.column("c_custkey"),
                    "has_cust": pa.array([1] * b.num_rows, pa.int64()),
                }), batch_format="pyarrow"))
    counts = grouped_sums(
        _read(sf_dir, "orders", columns=["o_custkey"]).map_batches(
            lambda b: pa.table({"custkey": b.column("o_custkey")}),
            batch_format="pyarrow"),
        key_cols=["custkey"], sum_cols=[], count_alias="n_orders")
    out = hash_join(cust, counts, "custkey",
                    ["custkey", "has_cust"], ["custkey", "n_orders"],
                    how="full").to_pandas()
    out["has_cust"] = out["has_cust"].fillna(0)
    out["n_orders"] = out["n_orders"].fillna(0)
    return _int64(out[["custkey", "has_cust", "n_orders"]],
                  ["custkey", "has_cust", "n_orders"])


@query("partsupp_qty", """
    SELECT a.l_partkey, a.l_suppkey, a.n_lines,
           CAST(COALESCE(b.qty_r, 0) AS BIGINT) AS qty_r
    FROM (SELECT l_partkey, l_suppkey,
                 CAST(COUNT(*) AS BIGINT) AS n_lines
          FROM lineitem GROUP BY l_partkey, l_suppkey) a
    LEFT JOIN
         (SELECT l_partkey, l_suppkey,
                 CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT))
                      AS BIGINT) AS qty_r
          FROM lineitem WHERE l_returnflag = 'R'
          GROUP BY l_partkey, l_suppkey) b
    USING (l_partkey, l_suppkey)
""")
def q_partsupp_qty(sf_dir: str) -> Any:
    """Composite-key LEFT join — per (l_partkey, l_suppkey): all pairs'
    line counts joined to the returned-flag ('R') quantity sums. Rows
    route on the tuple hash (one exchange); exact tuple equality in the
    fold; pairs with no 'R' lines carry 0."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    keys = ["l_partkey", "l_suppkey"]
    li = _read(sf_dir, "lineitem",
               columns=keys + ["l_quantity", "l_returnflag"])
    all_pairs = grouped_sums(li.select_columns(keys), key_cols=keys,
                             sum_cols=[], count_alias="n_lines")

    def prep_r(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.equal(b.column("l_returnflag"), "R"))
        q = np.floor(b.column("l_quantity").to_numpy(zero_copy_only=False)
                     + 0.5).astype(np.int64)
        return pa.table({"l_partkey": b.column("l_partkey"),
                         "l_suppkey": b.column("l_suppkey"),
                         "qty": pa.array(q)})

    r_pairs = grouped_sums(li.map_batches(prep_r, batch_format="pyarrow"),
                           key_cols=keys, sum_cols=["qty"],
                           count_alias="_n").drop_columns(["_n"])
    out = hash_join(all_pairs, r_pairs, keys,
                    keys + ["n_lines"], keys + ["qty"],
                    how="left").to_pandas()
    out["qty_r"] = out["qty"].fillna(0)
    return _int64(out[keys + ["n_lines", "qty_r"]],
                  ["l_partkey", "l_suppkey", "n_lines", "qty_r"])


@query("region_nation_revenue", """
    SELECT n.n_name,
           CAST(SUM(CAST(FLOOR(l.l_extendedprice
                * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT))
                AS BIGINT) AS revenue_e4,
           COUNT(*) AS n_lines
    FROM customer c
    JOIN orders o ON o.o_custkey = c.c_custkey
    JOIN lineitem l ON l.l_orderkey = o.o_orderkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
                   AND s.s_nationkey = c.c_nationkey
    JOIN nation n ON n.n_nationkey = c.c_nationkey
    JOIN region r ON r.r_regionkey = n.n_regionkey
    WHERE r.r_name = 'ASIA'
      AND o.o_orderdate >= DATE '1996-01-01'
      AND o.o_orderdate <  DATE '1998-01-01'
    GROUP BY n.n_name
""", bench=True)
def q_region_nation_revenue(sf_dir: str) -> Any:
    """TPC-H Q5 shape — region-local supplier revenue, a five-way join:
    region->nation (kilobytes) broadcasts as a dict; customer->nation
    and supplier->nation GROW with the data, so they ship as sorted
    zero-copy arrays (broadcast_sorted_map + lookup_sorted — a dict
    re-unpickles per task at scale) with the region predicate applied by
    the INNER lookup drop; orders |X| lineitem is the one genuinely
    large-large edge and runs on the exchange hash join; the
    same-nation predicate filters post-join; the 25-nation final
    aggregate stream-reduces. At full web scale, when even two customer
    columns strain the driver build, swap the lookup for hash_join on
    the same plan; nothing else changes."""
    from datetime import datetime

    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_lookup,
        broadcast_sorted_map,
        lookup_sorted,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    region = pq.read_table(f"{sf_dir}/region.parquet").to_pylist()
    rkeys = {r["r_regionkey"] for r in region if r["r_name"] == "ASIA"}
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()
    nat_name = {n["n_nationkey"]: n["n_name"] for n in nation
                if n["n_regionkey"] in rkeys}
    # customer/supplier grow with the data: ship them as sorted arrays
    # (zero-copy, searchsorted lookup) rather than dicts, which
    # re-unpickle per task at scale (stages/broadcast.py)
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    c_keep = np.array([n in nat_name for n in
                       cust.column("c_nationkey").to_pylist()])
    cust = cust.filter(pa.array(c_keep))
    c_nat_ref = broadcast_sorted_map(
        cust.column("c_custkey").to_numpy(zero_copy_only=False),
        pa.array(cust.column("c_nationkey").to_numpy(
            zero_copy_only=False), pa.int64()))
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    s_keep = np.array([n in nat_name for n in
                       supp.column("s_nationkey").to_pylist()])
    supp = supp.filter(pa.array(s_keep))
    s_nat_ref = broadcast_sorted_map(
        supp.column("s_suppkey").to_numpy(zero_copy_only=False),
        pa.array(supp.column("s_nationkey").to_numpy(
            zero_copy_only=False), pa.int64()))

    import pyarrow.dataset as pds

    lo, hi = datetime(1996, 1, 1), datetime(1998, 1, 1)
    # date predicate pushes into the scan (row-group pruning); the
    # filter column never leaves storage
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"],
                   predicate=((pds.field("o_orderdate") >= lo)
                              & (pds.field("o_orderdate") < hi)))
    orders = lookup_sorted(orders, c_nat_ref, "o_custkey", "c_nat")

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "l_suppkey": b.column("l_suppkey"),
                         "rev_e4": pa.array(rev)})

    li = lookup_sorted(li.map_batches(prep, batch_format="pyarrow"),
                       s_nat_ref, "l_suppkey", "s_nat")

    joined = hash_join(
        orders.map_batches(
            lambda b: b.select(["o_orderkey", "c_nat"]),
            batch_format="pyarrow"),
        li.map_batches(
            lambda b: b.select(["o_orderkey", "s_nat", "rev_e4"]),
            batch_format="pyarrow"),
        key="o_orderkey",
        left_cols=["o_orderkey", "c_nat"],
        right_cols=["o_orderkey", "s_nat", "rev_e4"],
    )

    name_ref = _ray.put(nat_name)
    same_nat = joined.map_batches(
        lambda b: b.filter(pc.equal(b.column("c_nat"),
                                    b.column("s_nat"))),
        batch_format="pyarrow")
    named = broadcast_lookup(same_nat, name_ref, "c_nat", "n_name",
                             out_type=pa.string())
    out = grouped_sums(
        named.map_batches(lambda b: b.select(["n_name", "rev_e4"]),
                          batch_format="pyarrow"),
        key_cols=["n_name"], sum_cols=["rev_e4"], count_alias="n_lines",
        stream_reduce=True)
    return _int64(out.to_pandas().rename(
        columns={"rev_e4": "revenue_e4"}), ["revenue_e4", "n_lines"])


@query("brand_small_qty", """
    SELECT l_partkey,
           CAST(SUM(CAST(FLOOR(l_extendedprice * 10000 + 0.5)
                AS BIGINT)) AS BIGINT) AS rev_e4,
           COUNT(*) AS n_small
    FROM lineitem l
    JOIN part ON p_partkey = l.l_partkey
    WHERE p_brand = 'Brand#13'
      AND l.l_quantity < 0.2 * (
          SELECT AVG(l2.l_quantity) FROM lineitem l2
          WHERE l2.l_partkey = l.l_partkey)
    GROUP BY l.l_partkey
""", bench=True)
def q_brand_small_qty(sf_dir: str) -> Any:
    """TPC-H Q17 shape — the correlated AVG subquery decorrelated into a
    join: lineitem semi-filters to one brand's parts (broadcast partkey
    set; at full part cardinality this routes through
    stages/joins.py:semi_join unchanged), an exchange grouped (sum, n)
    per part yields the exact per-part threshold 0.2*avg (integer
    quantities make the avg an exact rational, so the double compare is
    bit-identical to SQL), hash_join ships the thresholds back onto the
    lines, and the strict < predicate plus the final per-part aggregate
    finish the plan."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_keyset, semi_filter_sorted,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"])
    # part grows with the data: membership ships as ONE sorted int64
    # numpy array (zero-copy out of plasma; a dict re-unpickles per task)
    brand_ref = broadcast_keyset(
        part.filter(pc.equal(part.column("p_brand"), "Brand#13"))
        .column("p_partkey").to_numpy(zero_copy_only=False))

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_quantity", "l_extendedprice"])
    li = semi_filter_sorted(li, brand_ref, "l_partkey")

    def prep(b: pa.Table) -> pa.Table:
        qty = b.column("l_quantity").to_numpy()
        rev = np.floor(b.column("l_extendedprice").to_numpy()
                       * 10_000 + 0.5).astype(np.int64)
        return pa.table({"l_partkey": b.column("l_partkey"),
                         "qty_i": pa.array(qty.astype(np.int64)),
                         "l_quantity": b.column("l_quantity"),
                         "rev_e4": pa.array(rev)})

    lines = li.map_batches(prep, batch_format="pyarrow").materialize()

    stats = grouped_sums(
        lines.map_batches(lambda b: b.select(["l_partkey", "qty_i"]),
                          batch_format="pyarrow"),
        key_cols=["l_partkey"], sum_cols=["qty_i"], count_alias="n")

    def to_thresh(b: pa.Table) -> pa.Table:
        s = b.column("qty_i").to_numpy().astype(np.float64)
        n = b.column("n").to_numpy().astype(np.float64)
        # 0.2 * AVG: avg first, multiply second — the oracle's op order
        return pa.table({"l_partkey": b.column("l_partkey"),
                         "thresh": pa.array(0.2 * (s / n))})

    thresholds = stats.map_batches(to_thresh, batch_format="pyarrow")

    joined = hash_join(
        lines.map_batches(
            lambda b: b.select(["l_partkey", "l_quantity", "rev_e4"]),
            batch_format="pyarrow"),
        thresholds,
        key="l_partkey",
        left_cols=["l_partkey", "l_quantity", "rev_e4"],
        right_cols=["l_partkey", "thresh"],
    )

    import pyarrow.compute as pc

    small = joined.map_batches(
        lambda b: b.filter(pc.less(b.column("l_quantity"),
                                   b.column("thresh"))
                           ).select(["l_partkey", "rev_e4"]),
        batch_format="pyarrow")
    out = grouped_sums(small, key_cols=["l_partkey"],
                       sum_cols=["rev_e4"], count_alias="n_small")
    return _int64(out.to_pandas(), ["l_partkey", "rev_e4", "n_small"])


@query("parts_supplier_cnt", """
    SELECT p_brand, p_type, CAST(p_size AS BIGINT) AS p_size,
           CAST(COUNT(DISTINCT l_suppkey) AS BIGINT)
               AS supplier_cnt
    FROM lineitem
    JOIN part ON p_partkey = l_partkey
    WHERE p_brand <> 'Brand#13'
      AND p_size IN (1, 5, 9, 13, 17, 21, 25, 29)
      AND l_suppkey NOT IN (
          SELECT s_suppkey FROM supplier WHERE s_acctbal < 0)
    GROUP BY p_brand, p_type, p_size
""", bench=True)
def q_parts_supplier_cnt(sf_dir: str) -> Any:
    """TPC-H Q16 shape — COUNT(DISTINCT supplier) per part attribute
    group with a NOT IN exclusion list: part is a broadcast dim shipped
    as a sorted int64 key array + attribute arrays in key order
    (zero-copy out of plasma, one searchsorted + np.take per batch adds
    all three columns — a dict re-unpickles per task at scale), the
    excluded-supplier set is a sorted-array anti filter (at full
    supplier cardinality this routes through stages/joins.py:anti_join
    unchanged), then DISTINCT (brand, type, size, suppkey) and the
    per-group count run as two grouped_sums — each batch collapses to
    its distinct rows before the exchange, so a hot (attrs, supplier)
    pair ships one row per batch."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_keyset, semi_filter_sorted,
    )

    sizes = [1, 5, 9, 13, 17, 21, 25, 29]
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_type",
                                  "p_size"])
    part = part.filter(pc.and_(
        pc.not_equal(part.column("p_brand"), "Brand#13"),
        pc.is_in(part.column("p_size"),
                 value_set=pa.array(sizes, pa.int64()))))
    pk = part.column("p_partkey").to_numpy(zero_copy_only=False)
    order = np.argsort(pk)
    take = pa.array(order)
    dim_ref = _ray.put((
        pk[order].astype(np.int64),
        part.column("p_brand").combine_chunks().take(take),
        part.column("p_type").combine_chunks().take(take),
        part.column("p_size").combine_chunks().take(take),
    ))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_acctbal"])
    bad_ref = broadcast_keyset(
        sup.filter(pc.less(sup.column("s_acctbal"), 0.0))
        .column("s_suppkey").to_numpy(zero_copy_only=False))

    li = _read(sf_dir, "lineitem", columns=["l_partkey", "l_suppkey"])
    li = semi_filter_sorted(li, bad_ref, "l_suppkey", keep=False)

    def attach(b: pa.Table) -> pa.Table:
        keys, brand, ptype, size = _ray.get(dim_ref)  # zero-copy arrays
        lk = b.column("l_partkey").to_numpy().astype(np.int64)
        if len(keys):
            pos = np.clip(np.searchsorted(keys, lk), 0, len(keys) - 1)
            hit = keys[pos] == lk
        else:
            hit, pos = np.zeros(len(lk), bool), np.zeros(len(lk), np.int64)
        ii = pa.array(pos[hit])
        return pa.table({
            "p_brand": brand.take(ii),
            "p_type": ptype.take(ii),
            "p_size": size.take(ii),
            "l_suppkey": b.column("l_suppkey").filter(pa.array(hit)),
        })

    tagged = li.map_batches(attach, batch_format="pyarrow")
    distinct = grouped_sums(
        tagged, key_cols=["p_brand", "p_type", "p_size", "l_suppkey"],
        sum_cols=[], count_alias="_n").drop_columns(["_n"])
    out = grouped_sums(distinct, key_cols=["p_brand", "p_type", "p_size"],
                       sum_cols=[], count_alias="supplier_cnt")
    return _int64(out.to_pandas(),
                  ["p_brand", "p_type", "p_size", "supplier_cnt"])


@query("dominant_part_supplier", """
    WITH per_ps AS (
        SELECT l_partkey, l_suppkey,
               CAST(SUM(CAST(FLOOR(l_quantity + 0.5) AS BIGINT))
                    AS BIGINT) AS q
        FROM lineitem
        JOIN part ON p_partkey = l_partkey
        WHERE p_name LIKE 'small%'
          AND l_shipdate >= DATE '1996-01-01'
          AND l_shipdate <  DATE '1997-01-01'
        GROUP BY l_partkey, l_suppkey
    ), per_p AS (
        SELECT l_partkey, CAST(SUM(q) AS BIGINT) AS tq
        FROM per_ps GROUP BY l_partkey
    )
    SELECT DISTINCT s.s_suppkey, s.s_name
    FROM per_ps ps
    JOIN per_p p USING (l_partkey)
    JOIN supplier s ON s.s_suppkey = ps.l_suppkey
    WHERE 2 * ps.q > p.tq
""", bench=True)
def q_dominant_part_supplier(sf_dir: str) -> Any:
    """TPC-H Q20 shape — nested aggregates at two granularities plus a
    semi join back to the dimension: one year's lines for a part-name
    family (broadcast partkey set) aggregate to per-(part, supplier)
    quantities, those partials re-aggregate to per-part totals, a hash
    join ships each total back onto its suppliers, and the dominance
    predicate 2*q > total (exact in int64 — integer quantities) keeps
    suppliers that shipped more than half of a part's volume. The
    supplier name attaches via a sorted-array broadcast lookup; DISTINCT
    collapses a supplier dominating several parts to one output row."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_keyset, broadcast_sorted_map_local, lookup_sorted,
        semi_filter_sorted,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name"])
    fam_ref = broadcast_keyset(
        part.filter(pc.starts_with(part.column("p_name"), "small"))
        .column("p_partkey").to_numpy(zero_copy_only=False))

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_suppkey", "l_quantity"],
               predicate=(
                   (pds.field("l_shipdate")
                    >= pd.Timestamp("1996-01-01"))
                   & (pds.field("l_shipdate")
                      < pd.Timestamp("1997-01-01"))))
    li = semi_filter_sorted(li, fam_ref, "l_partkey")

    def prep(b: pa.Table) -> pa.Table:
        qty = b.column("l_quantity").to_numpy()
        return pa.table({
            "l_partkey": b.column("l_partkey"),
            "l_suppkey": b.column("l_suppkey"),
            "qty_i": pa.array(np.floor(qty + 0.5).astype(np.int64)),
        })

    per_ps = grouped_sums(
        li.map_batches(prep, batch_format="pyarrow"),
        key_cols=["l_partkey", "l_suppkey"], sum_cols=["qty_i"],
        count_alias="_n").drop_columns(["_n"]).materialize()

    per_p = grouped_sums(
        per_ps.map_batches(
            lambda b: b.select(["l_partkey", "qty_i"]).rename_columns(
                ["l_partkey", "tq"]),
            batch_format="pyarrow"),
        key_cols=["l_partkey"], sum_cols=["tq"], count_alias="_n")

    joined = hash_join(
        per_ps, per_p, key="l_partkey",
        left_cols=["l_partkey", "l_suppkey", "qty_i"],
        right_cols=["l_partkey", "tq"])

    import pyarrow.compute as pc

    dominant = joined.map_batches(
        lambda b: b.filter(pc.greater(
            pc.multiply(b.column("qty_i"), pa.scalar(2, pa.int64())),
            b.column("tq"))).select(["l_suppkey"]),
        batch_format="pyarrow")

    name_ref = broadcast_sorted_map_local(f"{sf_dir}/supplier.parquet",
                                          "s_suppkey", "s_name")
    named = lookup_sorted(dominant, name_ref, "l_suppkey", "s_name")
    out = grouped_sums(
        named.map_batches(
            lambda b: b.rename_columns(["s_suppkey", "s_name"]),
            batch_format="pyarrow"),
        key_cols=["s_suppkey", "s_name"], sum_cols=[],
        count_alias="_n").drop_columns(["_n"])
    return _int64(out.to_pandas(), ["s_suppkey", "s_name"])


@query("priority_exists", """
    SELECT o_orderpriority, COUNT(*) AS n_orders
    FROM orders
    WHERE o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate <  TIMESTAMP '1996-07-01'
      AND o_orderpriority IS NOT NULL
      AND EXISTS (SELECT 1 FROM lineitem
                  WHERE l_orderkey = o_orderkey
                    AND l_returnflag = 'R')
    GROUP BY o_orderpriority
""", bench=True)
def q_priority_exists(sf_dir: str) -> Any:
    """TPC-H Q4 shape — EXISTS decorrelated into a semi join: orders in
    a half-year window keep only those with >= 1 returned line, then a
    tiny grouped count per priority. The returnflag predicate pushes
    into the lineitem scan (row-group pruning); the semi join ships only
    the key column through the exchange — right-side payload never
    moves."""
    import pyarrow.dataset as pds

    from datetime import datetime

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )
    from calendar_event_entity_extraction_ray.stages.joins import semi_join

    lo, hi = datetime(1996, 1, 1), datetime(1996, 7, 1)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"],
                   predicate=((pds.field("o_orderdate") >= lo)
                              & (pds.field("o_orderdate") < hi)))
    li_r = _read(sf_dir, "lineitem", columns=["l_orderkey"],
                 predicate=(pds.field("l_returnflag") == "R"))
    li_r = li_r.map_batches(
        lambda b: b.rename_columns(["o_orderkey"]), batch_format="pyarrow")

    hits = semi_join(orders, li_r, key="o_orderkey",
                     left_cols=["o_orderkey", "o_orderpriority"])
    out = grouped_count(hits, "o_orderpriority", out_col="n_orders")
    return _int64(out.to_pandas(), ["n_orders"])


@query("nation_pair_volume", """
    SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
           CAST(EXTRACT(year FROM l_shipdate) AS BIGINT) AS l_year,
           CAST(SUM(CAST(FLOOR(l_extendedprice
                * (1.0 - l_discount) * 10000 + 0.5) AS BIGINT))
                AS BIGINT) AS rev_e4,
           COUNT(*) AS n
    FROM lineitem
    JOIN orders   ON o_orderkey = l_orderkey
    JOIN supplier ON s_suppkey = l_suppkey
    JOIN customer ON c_custkey = o_custkey
    JOIN nation n1 ON n1.n_nationkey = s_nationkey
    JOIN nation n2 ON n2.n_nationkey = c_nationkey
    WHERE (n1.n_name = 'NATION_1' AND n2.n_name = 'NATION_2')
       OR (n1.n_name = 'NATION_2' AND n2.n_name = 'NATION_1')
    GROUP BY 1, 2, 3
""", bench=True)
def q_nation_pair_volume(sf_dir: str) -> Any:
    """TPC-H Q7 shape — shipping volume between a nation PAIR by year:
    supplier->nation and customer->nation broadcast once (restricted to
    the two nations, so the INNER lookup drop IS the pair predicate up
    to direction), orders |X| lineitem on the exchange hash join, the
    cross-direction filter (s_nat != c_nat) post-join, ship-year
    extracted vectorized, 2x|years| final groups stream-reduce."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_sorted_map, lookup_sorted,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    pair = ("NATION_1", "NATION_2")
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()
    nat_name = {n["n_nationkey"]: n["n_name"] for n in nation
                if n["n_name"] in pair}

    def _nat_map(path, key_col, nat_col):
        # customer/supplier grow with the data: ship as sorted arrays
        # (zero-copy searchsorted lookup), never dicts
        t = pq.read_table(f"{sf_dir}/{path}", columns=[key_col, nat_col])
        nk = t.column(nat_col).to_numpy(zero_copy_only=False)
        keep = np.isin(nk, np.array(list(nat_name)))
        t = t.filter(pa.array(keep))
        return broadcast_sorted_map(
            t.column(key_col).to_numpy(zero_copy_only=False),
            pa.array(t.column(nat_col).to_numpy(zero_copy_only=False),
                     pa.int64()))

    c_nat_ref = _nat_map("customer.parquet", "c_custkey", "c_nationkey")
    s_nat_ref = _nat_map("supplier.parquet", "s_suppkey", "s_nationkey")

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    orders = lookup_sorted(orders, c_nat_ref, "o_custkey", "c_nat")

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_shipdate",
                        "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        rev = np.floor(b.column("l_extendedprice").to_numpy()
                       * (1.0 - b.column("l_discount").to_numpy())
                       * 10_000 + 0.5).astype(np.int64)
        return pa.table({
            "o_orderkey": b.column("l_orderkey"),
            "l_suppkey": b.column("l_suppkey"),
            "l_year": pc.cast(pc.year(b.column("l_shipdate")), pa.int64()),
            "rev_e4": pa.array(rev)})

    li = lookup_sorted(li.map_batches(prep, batch_format="pyarrow"),
                       s_nat_ref, "l_suppkey", "s_nat")

    joined = hash_join(
        orders.map_batches(lambda b: b.select(["o_orderkey", "c_nat"]),
                           batch_format="pyarrow"),
        li.map_batches(
            lambda b: b.select(["o_orderkey", "s_nat", "l_year", "rev_e4"]),
            batch_format="pyarrow"),
        key="o_orderkey",
        left_cols=["o_orderkey", "c_nat"],
        right_cols=["o_orderkey", "s_nat", "l_year", "rev_e4"],
    )

    names_ref = _ray.put(nat_name)

    def direction(b: pa.Table) -> pa.Table:
        b = b.filter(pc.invert(pc.equal(b.column("s_nat"),
                                        b.column("c_nat"))))
        names = ray.get(names_ref)
        sn = [names[k] for k in b.column("s_nat").to_pylist()]
        cn = [names[k] for k in b.column("c_nat").to_pylist()]
        return pa.table({
            "supp_nation": pa.array(sn, pa.string()),
            "cust_nation": pa.array(cn, pa.string()),
            "l_year": b.column("l_year"),
            "rev_e4": b.column("rev_e4")})

    out = grouped_sums(joined.map_batches(direction, batch_format="pyarrow"),
                       key_cols=["supp_nation", "cust_nation", "l_year"],
                       sum_cols=["rev_e4"], count_alias="n",
                       stream_reduce=True)
    return _int64(out.to_pandas(), ["l_year", "rev_e4", "n"])


@query("returned_revenue", """
    SELECT a.c_custkey, n.n_name, a.rev_e4, a.n
    FROM (
        SELECT o_custkey AS c_custkey,
               CAST(SUM(CAST(FLOOR(l_extendedprice
                    * (1.0 - l_discount) * 10000 + 0.5) AS BIGINT))
                    AS BIGINT) AS rev_e4,
               COUNT(*) AS n
        FROM lineitem
        JOIN orders ON o_orderkey = l_orderkey
        WHERE l_returnflag = 'R'
          AND o_orderdate >= TIMESTAMP '1996-01-01'
          AND o_orderdate <  TIMESTAMP '1996-04-01'
        GROUP BY 1) a
    JOIN customer c ON c.c_custkey = a.c_custkey
    JOIN nation n ON n.n_nationkey = c.c_nationkey
    ORDER BY a.rev_e4 DESC, a.c_custkey
    LIMIT 20
""")
def q_returned_revenue(sf_dir: str) -> Any:
    """TPC-H Q10 shape — top 20 customers by revenue on RETURNED lines
    in a quarter: both big-side predicates push into the scans, one
    exchange hash join on orderkey, per-customer grouped sum, bounded
    driver sort/limit (|customers| rows max, already aggregated), and
    the kilobyte nation dimension joins driver-side onto 20 rows."""
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    from datetime import datetime

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    lo, hi = datetime(1996, 1, 1), datetime(1996, 4, 1)
    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"],
                   predicate=((pds.field("o_orderdate") >= lo)
                              & (pds.field("o_orderdate") < hi)))
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_extendedprice", "l_discount"],
               predicate=(pds.field("l_returnflag") == "R"))

    def prep(b: pa.Table) -> pa.Table:
        rev = np.floor(b.column("l_extendedprice").to_numpy()
                       * (1.0 - b.column("l_discount").to_numpy())
                       * 10_000 + 0.5).astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "rev_e4": pa.array(rev)})

    joined = hash_join(
        orders, li.map_batches(prep, batch_format="pyarrow"),
        key="o_orderkey",
        left_cols=["o_orderkey", "o_custkey"],
        right_cols=["o_orderkey", "rev_e4"],
    )
    per_cust = grouped_sums(joined.map_batches(
        lambda b: b.select(["o_custkey", "rev_e4"]),
        batch_format="pyarrow"),
        key_cols=["o_custkey"], sum_cols=["rev_e4"], count_alias="n")

    top = per_cust.sort(["rev_e4", "o_custkey"],
                        descending=[True, False]).limit(20).to_pandas()
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()
    nat = {n["n_nationkey"]: n["n_name"] for n in nation}
    c_nat = dict(zip(cust.column("c_custkey").to_pylist(),
                     cust.column("c_nationkey").to_pylist()))
    top = top.rename(columns={"o_custkey": "c_custkey"})
    top["n_name"] = [nat[c_nat[c]] for c in top["c_custkey"]]
    return _int64(top[["c_custkey", "n_name", "rev_e4", "n"]],
                  ["c_custkey", "rev_e4", "n"])


@query("disjunctive_revenue", """
    SELECT CAST(COALESCE(SUM(CAST(FLOOR(l_extendedprice
                * (1.0 - l_discount) * 10000 + 0.5) AS BIGINT)), 0)
                AS BIGINT) AS rev_e4,
           COUNT(*) AS n_lines
    FROM lineitem JOIN part ON p_partkey = l_partkey
    WHERE (p_brand = 'Brand#11' AND p_size BETWEEN 1 AND 5
           AND l_quantity BETWEEN 1 AND 11)
       OR (p_brand = 'Brand#12' AND p_size BETWEEN 1 AND 10
           AND l_quantity BETWEEN 10 AND 20)
       OR (p_brand = 'Brand#13' AND p_size BETWEEN 1 AND 15
           AND l_quantity BETWEEN 20 AND 30)
""")
def q_disjunctive_revenue(sf_dir: str) -> Any:
    """TPC-H Q19 shape — revenue under an OR-of-ANDs predicate spanning
    both join sides (brand/size on part, quantity band on lineitem).
    The part side compiles into one broadcast partkey -> branch-bitmask
    dict (a part matching no branch never enters the dict, so the INNER
    lookup drop prunes the fact rows before any arithmetic); the
    lineitem side tests its quantity band against the mask bits
    vectorized. No join materializes rows that fail every branch."""
    import pyarrow.parquet as pq

    import ray as _ray

    import pyarrow.compute as pc2

    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_sorted_map, lookup_sorted,
    )

    # (brand, max_size, qty_lo, qty_hi) per branch, bit i of the mask
    branches = [("Brand#11", 5, 1.0, 11.0),
                ("Brand#12", 10, 10.0, 20.0),
                ("Brand#13", 15, 20.0, 30.0)]

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand", "p_size"])
    # vectorized mask build + sorted-array broadcast: part grows with
    # the data (dict re-unpickles per task; this is plasma zero-copy)
    brand_np = np.asarray(part.column("p_brand"))
    size_np = part.column("p_size").to_numpy(zero_copy_only=False)
    m = np.zeros(len(brand_np), dtype=np.int64)
    for i, (b_br, b_sz, _, _) in enumerate(branches):
        m |= np.where((brand_np == b_br) & (size_np >= 1)
                      & (size_np <= b_sz), 1 << i, 0)
    nz = m != 0
    mask_ref = broadcast_sorted_map(
        part.column("p_partkey").to_numpy(zero_copy_only=False)[nz],
        pa.array(m[nz], pa.int64()))

    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_quantity",
                        "l_extendedprice", "l_discount"])
    li = lookup_sorted(li, mask_ref, "l_partkey", "_m")

    def hit_rev(b: pa.Table) -> pa.Table:
        qty = b.column("l_quantity").to_numpy()
        m = b.column("_m").to_numpy()
        hit = np.zeros(len(qty), dtype=bool)
        for i, (_, _, q_lo, q_hi) in enumerate(branches):
            hit |= ((m & (1 << i)) != 0) & (qty >= q_lo) & (qty <= q_hi)
        rev = np.floor(b.column("l_extendedprice").to_numpy()[hit]
                       * (1.0 - b.column("l_discount").to_numpy()[hit])
                       * 10_000 + 0.5).astype(np.int64)
        return pa.table({"rev_e4": pa.array(rev)})

    agg = li.map_batches(hit_rev, batch_format="pyarrow").aggregate(
        Sum("rev_e4", alias_name="rev_e4"), Count(alias_name="n_lines"))
    rev = agg["rev_e4"]
    return pd.DataFrame({"rev_e4": [int(rev) if rev is not None else 0],
                         "n_lines": [int(agg["n_lines"])]})


@query("lonely_late_supplier", """
    WITH per_pair AS (
        SELECT l_orderkey, l_suppkey,
               MAX(CASE WHEN l_returnflag = 'R'
                        THEN 1 ELSE 0 END) AS late
        FROM lineitem GROUP BY 1, 2),
    per_ord AS (
        SELECT l_orderkey,
               COUNT(*) AS n_supp,
               SUM(late) AS n_late,
               MIN(CASE WHEN late = 1 THEN l_suppkey END)
                   AS late_supp
        FROM per_pair GROUP BY 1)
    SELECT late_supp AS l_suppkey, COUNT(*) AS n_orders
    FROM per_ord
    WHERE n_supp >= 2 AND n_late = 1
    GROUP BY 1
    ORDER BY n_orders DESC, l_suppkey
    LIMIT 10
""")
def q_lonely_late_supplier(sf_dir: str) -> Any:
    """TPC-H Q21 shape — two-level grouped EXISTS/NOT-EXISTS: suppliers
    who were the ONLY supplier with a returned line in a multi-supplier
    order, counted per supplier. Each batch pre-collapses to distinct
    (order, supplier, any_returned) rows, the order-key exchange fold
    ORs the flag across batches and applies the n_supp >= 2 /
    exactly-one-late rule per order with vectorized pandas nunique, and
    the emitted one-row-per-qualifying-order stream takes a tiny grouped
    count. No correlated re-scan of lineitem — one pass, one shuffle."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey", "l_returnflag"])

    def pre(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["late"] = (df["l_returnflag"] == "R").astype("int64")
        g = df.groupby(["l_orderkey", "l_suppkey"], as_index=False,
                       dropna=False)["late"].max()
        return add_hash_column(pa.Table.from_pandas(g, preserve_index=False),
                               ["l_orderkey"], out_col="_oh")

    pairs = li.map_batches(pre, batch_format="pyarrow")

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby(["l_orderkey", "l_suppkey"], as_index=False,
                       dropna=False)["late"].max()
        per_ord = g.groupby("l_orderkey", dropna=False).agg(
            n_supp=("l_suppkey", "nunique"), n_late=("late", "sum"))
        ok = per_ord[(per_ord["n_supp"] >= 2) & (per_ord["n_late"] == 1)]
        late = g[(g["late"] == 1)
                 & g["l_orderkey"].isin(ok.index)]["l_suppkey"]
        return pa.table({"l_suppkey": pa.array(late.to_numpy(), pa.int64())})

    culprits = hash_partition_map(pairs, "_oh", fold)
    counts = grouped_count(culprits, "l_suppkey", out_col="n_orders")
    top = counts.sort(["n_orders", "l_suppkey"],
                      descending=[True, False]).limit(10).to_pandas()
    return _int64(top, ["l_suppkey", "n_orders"])


@query("priority_line_counts", """
    SELECT l.l_linestatus,
           CAST(SUM(CASE WHEN o.o_orderpriority IN
                         ('1-URGENT', '2-HIGH')
                    THEN 1 ELSE 0 END) AS BIGINT) AS high_lines,
           CAST(SUM(CASE WHEN o.o_orderpriority NOT IN
                         ('1-URGENT', '2-HIGH')
                    THEN 1 ELSE 0 END) AS BIGINT) AS low_lines,
           COUNT(*) AS n_lines
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    WHERE l.l_shipdate >= DATE '1996-01-01'
      AND l.l_shipdate <  DATE '1997-01-01'
    GROUP BY l.l_linestatus
""")
def q_priority_line_counts(sf_dir: str) -> Any:
    """TPC-H Q12 shape — conditional aggregation over a large-large join:
    a date window pushes into the lineitem scan, the order side ships only
    (key, priority-class bit), the exchange hash join co-locates, and the
    per-batch partial turns each row into 0/1 columns so the 2-group
    final reduce stream-folds kilobytes. The classic "CASE WHEN inside
    SUM" plan: no row carries a string past the first map."""
    import pyarrow.dataset as pds

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    pred = ((pds.field("l_shipdate") >= pd.Timestamp("1996-01-01"))
            & (pds.field("l_shipdate") < pd.Timestamp("1997-01-01")))
    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_linestatus"], predicate=pred)

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderpriority"])

    def tag(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        pr = b.column("o_orderpriority")
        high = pc.cast(
            pc.or_(pc.equal(pr, "1-URGENT"), pc.equal(pr, "2-HIGH")),
            pa.int64())
        return pa.table({"o_orderkey": b.column("o_orderkey"),
                         "is_high": high})

    joined = hash_join(
        li.map_batches(
            lambda b: b.rename_columns(["o_orderkey", "l_linestatus"]),
            batch_format="pyarrow"),
        orders.map_batches(tag, batch_format="pyarrow"),
        key="o_orderkey",
        left_cols=["o_orderkey", "l_linestatus"],
        right_cols=["o_orderkey", "is_high"],
    )

    def split_counts(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        low = pc.subtract(pa.scalar(1, pa.int64()), b.column("is_high"))
        return pa.table({"l_linestatus": b.column("l_linestatus"),
                         "high_lines": b.column("is_high"),
                         "low_lines": low})

    out = grouped_sums(
        joined.map_batches(split_counts, batch_format="pyarrow"),
        key_cols=["l_linestatus"], sum_cols=["high_lines", "low_lines"],
        count_alias="n_lines", stream_reduce=True)
    return _int64(out.to_pandas(),
                  ["high_lines", "low_lines", "n_lines"])


@query("promo_revenue", """
    SELECT CAST(SUM(CASE WHEN p.p_type = 'PROMO'
                    THEN CAST(FLOOR(l.l_extendedprice
                         * (1.0 - l.l_discount) * 10000 + 0.5)
                         AS BIGINT) ELSE 0 END)
                AS BIGINT) AS promo_rev_e4,
           CAST(SUM(CAST(FLOOR(l.l_extendedprice
                * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT))
                AS BIGINT) AS total_rev_e4,
           COUNT(*) AS n_lines
    FROM lineitem l
    JOIN part p ON p.p_partkey = l.l_partkey
    WHERE l.l_shipdate >= DATE '1996-09-01'
      AND l.l_shipdate <  DATE '1996-10-01'
""")
def q_promo_revenue(sf_dir: str) -> Any:
    """TPC-H Q14 shape — promo revenue share for one shipping month:
    the part type predicate becomes a broadcast bitmap (p_partkey ->
    is-promo, dim-sized; at web-scale part cardinality the identical
    plan swaps the lookup for ``semi_join``/``hash_join`` on the same
    key), the month window prunes lineitem row groups at the scan, and
    both SUMs ride one streaming pass. Exact-integer output (promo and
    total revenue in e4 units) instead of the 100*x/y double — ratio
    parity is the consumer's division, not a float the hash gate has
    to defend."""
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    import ray as _ray

    import pyarrow.compute as pc2

    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_sorted_map, lookup_sorted,
    )

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"])
    promo_ref = broadcast_sorted_map(
        part.column("p_partkey").to_numpy(zero_copy_only=False),
        pc2.cast(pc2.equal(part.column("p_type"), "PROMO"), pa.int64()))

    pred = ((pds.field("l_shipdate") >= pd.Timestamp("1996-09-01"))
            & (pds.field("l_shipdate") < pd.Timestamp("1996-10-01")))
    li = _read(sf_dir, "lineitem",
               columns=["l_partkey", "l_extendedprice", "l_discount"],
               predicate=pred)
    li = lookup_sorted(li, promo_ref, "l_partkey", "is_promo")

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        promo = b.column("is_promo").to_numpy()
        return pa.table({"promo_rev_e4": pa.array(rev * promo),
                         "rev_e4": pa.array(rev)})

    agg = li.map_batches(prep, batch_format="pyarrow").aggregate(
        Sum("promo_rev_e4", alias_name="promo_rev_e4"),
        Sum("rev_e4", alias_name="total_rev_e4"),
        Count(alias_name="n_lines"))
    return pd.DataFrame([{"promo_rev_e4": int(agg["promo_rev_e4"]),
                          "total_rev_e4": int(agg["total_rev_e4"]),
                          "n_lines": int(agg["n_lines"])}])


@query("large_orders", """
    SELECT s.o_orderkey, s.total_qty, s.n_lines, o.o_custkey
    FROM (SELECT l_orderkey AS o_orderkey,
                 CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                     AS total_qty,
                 COUNT(*) AS n_lines
          FROM lineitem GROUP BY l_orderkey
          HAVING SUM(CAST(l_quantity AS BIGINT)) > 180) s
    JOIN orders o ON o.o_orderkey = s.o_orderkey
""")
def q_large_orders(sf_dir: str) -> Any:
    """TPC-H Q18 shape — HAVING over a high-cardinality group, joined
    back: per-order quantity sums reduce on the exchange (per-batch
    partials; never Ray's sort shuffle at ~orderkey cardinality), the
    HAVING predicate filters the aggregate stream, and only surviving
    orders ship into the exchange hash join against the orders table.
    The join's build side is the post-HAVING set — at 100 TB that is
    the skew-safe order: aggregate first, join the survivors."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    li = _read(sf_dir, "lineitem", columns=["l_orderkey", "l_quantity"])

    def prep(b: pa.Table) -> pa.Table:
        qty = b.column("l_quantity").to_numpy().astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "qty_i": pa.array(qty)})

    sums = grouped_sums(li.map_batches(prep, batch_format="pyarrow"),
                        key_cols=["o_orderkey"], sum_cols=["qty_i"],
                        count_alias="n_lines")

    def having(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = b.filter(pc.greater(b.column("qty_i"),
                                   pa.scalar(180, pa.int64())))
        return pa.table({"o_orderkey": keep.column("o_orderkey"),
                         "total_qty": keep.column("qty_i"),
                         "n_lines": keep.column("n_lines")})

    big = sums.map_batches(having, batch_format="pyarrow")

    orders = _read(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])
    out = hash_join(
        big, orders,
        key="o_orderkey",
        left_cols=["o_orderkey", "total_qty", "n_lines"],
        right_cols=["o_orderkey", "o_custkey"],
    )
    return _int64(out.to_pandas(),
                  ["o_orderkey", "total_qty", "n_lines", "o_custkey"])


@query("custdist", """
    SELECT c_count, COUNT(*) AS custdist
    FROM (SELECT c.c_custkey,
                 CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
          FROM customer c LEFT JOIN orders o
            ON o.o_custkey = c.c_custkey
           AND o.o_orderpriority <> '1-URGENT'
          GROUP BY c.c_custkey) t
    GROUP BY c_count
""", bench=True)
def q_custdist(sf_dir: str) -> Any:
    """TPC-H Q13 shape — count-of-counts: per-customer order counts under
    a pushed-down filter (the join predicate ``o_orderpriority <>
    '1-URGENT'`` prunes at the scan), LEFT semantics (orderless customers
    count 0), then a second aggregate histograms the counts. The first
    level pushes aggregation into the join's exchange (a hot custkey
    ships one partial row per batch); the second level's key cardinality
    is the max orders-per-customer (tens), so it stream-reduces inside
    the same plan. The same two-level shape is a graph degree histogram
    or a docs-per-domain distribution at corpus scale."""
    import pyarrow.dataset as pds

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
        partial_count_batch,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    orders = _read(
        sf_dir, "orders", columns=["o_custkey"],
        predicate=(pds.field("o_orderpriority") != "1-URGENT"),
    ).map_batches(
        lambda b: add_hash_column(
            partial_count_batch(b, ["o_custkey"])
            .rename_columns(["c_custkey", "partial"]),
            ["c_custkey"], out_col="_kh"),
        batch_format="pyarrow")
    cust = _read(sf_dir, "customer", columns=["c_custkey"]).map_batches(
        lambda b: add_hash_column(
            b.append_column("partial",
                            pa.nulls(b.num_rows, pa.int64())),
            ["c_custkey"], out_col="_kh"),
        batch_format="pyarrow")

    def fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        counts = (df[df["partial"].notna()]
                  .groupby("c_custkey")["partial"].sum())
        left = df.loc[df["partial"].isna(), ["c_custkey"]]
        left["c_count"] = (left["c_custkey"].map(counts)
                           .fillna(0).astype("int64"))
        return pa.Table.from_pandas(left[["c_count"]],
                                    preserve_index=False)

    per_cust = hash_partition_map(cust.union(orders), "_kh", fold)
    out = grouped_sums(per_cust, key_cols=["c_count"], sum_cols=[],
                       count_alias="custdist", stream_reduce=True)
    return _int64(out.to_pandas(), ["c_count", "custdist"])


@query("top_supplier", """
    WITH rev AS (
        SELECT l_suppkey,
               CAST(SUM(CAST(FLOOR(l_extendedprice
                    * (1.0 - l_discount) * 10000 + 0.5) AS BIGINT))
                    AS BIGINT) AS total_rev_e4
        FROM lineitem
        WHERE l_shipdate >= DATE '1996-01-01'
          AND l_shipdate <  DATE '1996-04-01'
        GROUP BY l_suppkey)
    SELECT s.s_suppkey, s.s_name, r.total_rev_e4
    FROM supplier s JOIN rev r ON r.l_suppkey = s.s_suppkey
    WHERE r.total_rev_e4 = (SELECT MAX(total_rev_e4) FROM rev)
""")
def q_top_supplier(sf_dir: str) -> Any:
    """TPC-H Q15 shape — max-with-ties over an aggregate: supplier
    revenue in a quarter (shipdate predicate pushes into the scan,
    integer-cents revenue so the max compare is exact), the global MAX
    computed as per-block partial maxes folded driver-side (kilobytes —
    never the aggregate itself), then an equality filter keeps EVERY
    tied winner, named via a broadcast supplier dim. The per-supplier
    aggregate runs once (exchange outputs are lazy and re-run per
    consumer — materialized before its two reads)."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    import ray as _ray

    from datetime import datetime

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    lo, hi = datetime(1996, 1, 1), datetime(1996, 4, 1)
    li = _read(sf_dir, "lineitem",
               columns=["l_suppkey", "l_extendedprice", "l_discount"],
               predicate=((pds.field("l_shipdate") >= lo)
                          & (pds.field("l_shipdate") < hi)))

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        return pa.table({"l_suppkey": b.column("l_suppkey"),
                         "total_rev_e4": pa.array(rev)})

    rev = grouped_sums(li.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["l_suppkey"], sum_cols=["total_rev_e4"],
                       count_alias="_n").materialize()

    partial_max = rev.map_batches(
        lambda b: pa.table(
            {"m": pa.array([pc.max(b.column("total_rev_e4")).as_py()],
                           type=pa.int64())}),
        batch_format="pyarrow")
    best = max(r["m"] for r in partial_max.take_all() if r["m"] is not None)

    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_sorted_map_local, lookup_sorted,
    )
    name_ref = broadcast_sorted_map_local(
        f"{sf_dir}/supplier.parquet", "s_suppkey", "s_name")
    winners = rev.map_batches(
        lambda b: b.filter(pc.equal(b.column("total_rev_e4"),
                                    pa.scalar(best, pa.int64()))),
        batch_format="pyarrow")
    named = lookup_sorted(winners, name_ref, "l_suppkey", "s_name")
    df = named.to_pandas().rename(columns={"l_suppkey": "s_suppkey"})
    return _int64(df[["s_suppkey", "s_name", "total_rev_e4"]],
                  ["s_suppkey", "total_rev_e4"])


@query("profit_by_nation_year", """
    SELECT n.n_name AS nation,
           CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
               AS o_year,
           CAST(SUM(CAST(FLOOR(l.l_extendedprice
                * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT))
                AS BIGINT) AS amount_e4,
           COUNT(*) AS n_lines
    FROM lineitem l
    JOIN orders o ON o.o_orderkey = l.l_orderkey
    JOIN supplier s ON s.s_suppkey = l.l_suppkey
    JOIN nation n ON n.n_nationkey = s.s_nationkey
    JOIN part p ON p.p_partkey = l.l_partkey
    WHERE p.p_name LIKE '%red%'
    GROUP BY n.n_name, o_year
""", bench=True)
def q_profit_by_nation_year(sf_dir: str) -> Any:
    """TPC-H Q9 shape — multi-join profit rollup by (nation, year): the
    part predicate (name contains a token) compiles to a broadcast
    partkey SET that prunes lineitem BEFORE the only large-large edge
    (lineitem |X| orders on orderkey, for the order year); supplier ->
    nation rides a broadcast dim; the (25 nations x 7 years) final
    aggregate stream-reduces. Both broadcasts ship as SORTED ARRAYS
    (stages/broadcast.py:broadcast_keyset / broadcast_sorted_map) —
    zero-copy from the object store with one searchsorted per batch; a
    dict of part-scale (~2e8 keys at 100x) would re-unpickle per task
    (the lmfilter lesson). Date-part extraction is vectorized
    (pyarrow.compute.year on the timestamp column)."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_keyset,
        broadcast_sorted_map,
        lookup_sorted,
        semi_filter_sorted,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name"])
    red_mask = pc.match_substring(part.column("p_name"), "red")
    red_ref = broadcast_keyset(
        part.filter(red_mask).column("p_partkey").to_numpy(
            zero_copy_only=False))
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
    nat_name = dict(zip(nation.column("n_nationkey").to_pylist(),
                        nation.column("n_name").to_pylist()))
    s_nat_ref = broadcast_sorted_map(
        supp.column("s_suppkey").to_numpy(zero_copy_only=False),
        pa.array([nat_name[n] for n in
                  supp.column("s_nationkey").to_pylist()], pa.string()))

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_partkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])
    li = semi_filter_sorted(li, red_ref, "l_partkey")

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        amt = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "l_suppkey": b.column("l_suppkey"),
                         "amount_e4": pa.array(amt)})

    li = lookup_sorted(li.map_batches(prep, batch_format="pyarrow"),
                       s_nat_ref, "l_suppkey", "nation")

    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_orderdate"]).map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_year": pc.cast(pc.year(b.column("o_orderdate")),
                              pa.int64())}),
        batch_format="pyarrow")

    joined = hash_join(
        li.map_batches(
            lambda b: b.select(["o_orderkey", "nation", "amount_e4"]),
            batch_format="pyarrow"),
        orders,
        key="o_orderkey",
        left_cols=["o_orderkey", "nation", "amount_e4"],
        right_cols=["o_orderkey", "o_year"],
    )
    out = grouped_sums(
        joined.map_batches(
            lambda b: b.select(["nation", "o_year", "amount_e4"]),
            batch_format="pyarrow"),
        key_cols=["nation", "o_year"], sum_cols=["amount_e4"],
        count_alias="n_lines", stream_reduce=True)
    return _int64(out.to_pandas(),
                  ["o_year", "amount_e4", "n_lines"])


@query("market_share", """
    WITH j AS (
        SELECT CAST(EXTRACT(year FROM o.o_orderdate) AS BIGINT)
                   AS o_year,
               CAST(FLOOR(l.l_extendedprice
                    * (1.0 - l.l_discount) * 10000 + 0.5)
                    AS BIGINT) AS rev_e4,
               sn.n_name AS s_nat
        FROM lineitem l
        JOIN orders o ON o.o_orderkey = l.l_orderkey
        JOIN customer c ON c.c_custkey = o.o_custkey
        JOIN nation cn ON cn.n_nationkey = c.c_nationkey
        JOIN region r ON r.r_regionkey = cn.n_regionkey
        JOIN supplier s ON s.s_suppkey = l.l_suppkey
        JOIN nation sn ON sn.n_nationkey = s.s_nationkey
        WHERE r.r_name = 'AMERICA'
          AND o.o_orderdate >= DATE '1995-01-01'
          AND o.o_orderdate <  DATE '1997-01-01')
    SELECT o_year,
           CAST(SUM(CASE WHEN s_nat = 'NATION_3'
                    THEN rev_e4 ELSE 0 END) AS BIGINT)
               AS target_rev_e4,
           CAST(SUM(rev_e4) AS BIGINT) AS total_rev_e4,
           COUNT(*) AS n_lines,
           CAST(FLOOR(
               CAST(SUM(CASE WHEN s_nat = 'NATION_3'
                        THEN rev_e4 ELSE 0 END) AS DOUBLE)
               / CAST(SUM(rev_e4) AS DOUBLE)
               * 1000000000 + 0.5) AS BIGINT) AS share_e9
    FROM j GROUP BY o_year
""", bench=True)
def q_market_share(sf_dir: str) -> Any:
    """TPC-H Q8 shape — market share per year: one region's customers'
    order revenue split into target-nation-supplied vs total. Region ->
    customer membership and supplier -> nation are broadcast dims;
    orders (date-windowed at the scan, year precomputed) join lineitem
    on the exchange; the per-year conditional sums are exact integers
    and the published share is floor(target/total * 1e9 + 0.5) — the
    int -> double division chain is bit-identical numpy vs DuckDB."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pds
    import pyarrow.parquet as pq

    import ray as _ray

    from datetime import datetime

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.broadcast import (
        broadcast_keyset, broadcast_sorted_map, lookup_sorted,
        semi_filter_sorted,
    )
    from calendar_event_entity_extraction_ray.stages.joins import hash_join

    TARGET = "NATION_3"
    region = pq.read_table(f"{sf_dir}/region.parquet").to_pylist()
    rkeys = {r["r_regionkey"] for r in region if r["r_name"] == "AMERICA"}
    nation = pq.read_table(f"{sf_dir}/nation.parquet").to_pylist()
    region_nations = {n["n_nationkey"] for n in nation
                      if n["n_regionkey"] in rkeys}
    nat_name = {n["n_nationkey"]: n["n_name"] for n in nation}
    # customer/supplier grow with the data: sorted-array broadcasts
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"])
    ckeep = np.isin(cust.column("c_nationkey").to_numpy(
        zero_copy_only=False), np.array(sorted(region_nations)))
    c_ref = broadcast_keyset(
        cust.filter(pa.array(ckeep)).column("c_custkey").to_numpy(
            zero_copy_only=False))
    supp = pq.read_table(f"{sf_dir}/supplier.parquet",
                         columns=["s_suppkey", "s_nationkey"])
    s_ref = broadcast_sorted_map(
        supp.column("s_suppkey").to_numpy(zero_copy_only=False),
        pa.array([nat_name[n] for n in
                  supp.column("s_nationkey").to_pylist()], pa.string()))

    lo, hi = datetime(1995, 1, 1), datetime(1997, 1, 1)
    orders = _read(sf_dir, "orders",
                   columns=["o_orderkey", "o_custkey", "o_orderdate"],
                   predicate=((pds.field("o_orderdate") >= lo)
                              & (pds.field("o_orderdate") < hi)))
    orders = semi_filter_sorted(orders, c_ref, "o_custkey").map_batches(
        lambda b: pa.table({
            "o_orderkey": b.column("o_orderkey"),
            "o_year": pc.cast(pc.year(b.column("o_orderdate")),
                              pa.int64())}),
        batch_format="pyarrow")

    li = _read(sf_dir, "lineitem",
               columns=["l_orderkey", "l_suppkey",
                        "l_extendedprice", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        price = b.column("l_extendedprice").to_numpy()
        disc = b.column("l_discount").to_numpy()
        rev = np.floor(price * (1.0 - disc) * 10_000 + 0.5).astype(np.int64)
        return pa.table({"o_orderkey": b.column("l_orderkey"),
                         "l_suppkey": b.column("l_suppkey"),
                         "rev_e4": pa.array(rev)})

    li = lookup_sorted(li.map_batches(prep, batch_format="pyarrow"),
                       s_ref, "l_suppkey", "s_nat")

    joined = hash_join(
        orders, li.map_batches(
            lambda b: b.select(["o_orderkey", "s_nat", "rev_e4"]),
            batch_format="pyarrow"),
        key="o_orderkey",
        left_cols=["o_orderkey", "o_year"],
        right_cols=["o_orderkey", "s_nat", "rev_e4"],
    )

    def split_rev(b: pa.Table) -> pa.Table:
        rev = b.column("rev_e4").to_numpy()
        is_t = pc.equal(b.column("s_nat"), TARGET).to_numpy(
            zero_copy_only=False)
        return pa.table({"o_year": b.column("o_year"),
                         "target_rev_e4": pa.array(
                             np.where(is_t, rev, 0).astype(np.int64)),
                         "total_rev_e4": pa.array(rev)})

    out = grouped_sums(
        joined.map_batches(split_rev, batch_format="pyarrow"),
        key_cols=["o_year"], sum_cols=["target_rev_e4", "total_rev_e4"],
        count_alias="n_lines", stream_reduce=True)
    df = _int64(out.to_pandas(),
                ["o_year", "target_rev_e4", "total_rev_e4", "n_lines"])
    share = np.floor(df["target_rev_e4"].to_numpy().astype(np.float64)
                     / df["total_rev_e4"].to_numpy().astype(np.float64)
                     * 1_000_000_000 + 0.5).astype(np.int64)
    df["share_e9"] = share
    return df


@query("grouped_regression", """
    SELECT l_returnflag, COUNT(*) AS n,
           CAST(COUNT(*) * SUM(x * y) - SUM(x) * SUM(y)
                AS BIGINT) AS slope_num,
           CAST(COUNT(*) * SUM(x * x) - SUM(x) * SUM(x)
                AS BIGINT) AS slope_den,
           CAST(SUM(y) * SUM(x * x) - SUM(x) * SUM(x * y)
                AS BIGINT) AS icept_num
    FROM (SELECT l_returnflag,
                 CAST(FLOOR(l_quantity + 0.5) AS BIGINT) AS x,
                 CAST(FLOOR(l_discount * 100 + 0.5) AS BIGINT)
                     AS y
          FROM lineitem)
    GROUP BY l_returnflag
""")
def q_grouped_regression(sf_dir: str) -> Any:
    """Grouped least-squares line fit (SQL REGR_SLOPE / REGR_INTERCEPT
    family) with NO float accumulation: per-batch integer partials
    (Σx, Σy, Σxy, Σx², n) reduce on the exchange, and the published
    values are the exact integer numerators/denominator

        slope     = (n·Σxy − Σx·Σy) / (n·Σx² − Σx²ᵗᵒᵗ)
        intercept = (Σy·Σx² − Σx·Σxy) / (same denominator)

    — the division is left to the reader, so the oracle compare is
    bit-exact (DuckDB's own regr_slope accumulates doubles and is NOT
    order-stable; the moments are). Final products run in Python
    arbitrary-precision then assert int64 range — at 10^9 rows/group ×
    |x|,|y| ≤ 10³ the products stay < 2⁶³; wider domains need the
    HUGEINT-style split documented at stages/aggregate.py variance."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    li = _read(sf_dir, "lineitem",
               columns=["l_returnflag", "l_quantity", "l_discount"])

    def prep(b: pa.Table) -> pa.Table:
        x = np.floor(b.column("l_quantity").to_numpy() + 0.5).astype(
            np.int64)
        y = np.floor(b.column("l_discount").to_numpy() * 100 + 0.5).astype(
            np.int64)
        return pa.table({"l_returnflag": b.column("l_returnflag"),
                         "sx": pa.array(x), "sy": pa.array(y),
                         "sxy": pa.array(x * y), "sxx": pa.array(x * x)})

    out = grouped_sums(li.map_batches(prep, batch_format="pyarrow"),
                       key_cols=["l_returnflag"],
                       sum_cols=["sx", "sy", "sxy", "sxx"],
                       count_alias="n", stream_reduce=True)
    df = _int64(out.to_pandas(), ["sx", "sy", "sxy", "sxx", "n"])
    slope_num, slope_den, icept_num = [], [], []
    for _, r in df.iterrows():
        n, sx, sy, sxy, sxx = (int(r["n"]), int(r["sx"]), int(r["sy"]),
                               int(r["sxy"]), int(r["sxx"]))
        vals = (n * sxy - sx * sy, n * sxx - sx * sx,
                sy * sxx - sx * sxy)
        assert all(abs(v) < 2 ** 63 for v in vals), "widen to HUGEINT split"
        slope_num.append(vals[0])
        slope_den.append(vals[1])
        icept_num.append(vals[2])
    res = df[["l_returnflag", "n"]].copy()
    res["slope_num"] = pd.Series(slope_num, dtype="int64")
    res["slope_den"] = pd.Series(slope_den, dtype="int64")
    res["icept_num"] = pd.Series(icept_num, dtype="int64")
    return res


@query("segment_nation_orders", """
    SELECT c_mktsegment, c_nationkey, COUNT(*) AS n
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY c_mktsegment, c_nationkey
""", bench=True)
def q_segment_nation_orders(sf_dir: str) -> Any:
    """Order counts per (market segment, customer nation) through the
    auto_join front door: customer is counted first (parquet-footer count,
    no scan) and routes to the map-side broadcast_join — orders never
    shuffle; the 125-group aggregate stream-reduces. At web scale customer
    outgrows broadcast_max_rows and the SAME call routes to the exchange
    hash join — identical rows either way (TestAutoJoin pins it)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.joins import auto_join

    orders = _read(sf_dir, "orders", columns=["o_custkey"])
    orders = orders.map_batches(
        lambda b: b.rename_columns(["c_custkey"]), batch_format="pyarrow")
    cust = _read(sf_dir, "customer",
                 columns=["c_custkey", "c_mktsegment", "c_nationkey"])
    joined = auto_join(orders, cust, key="c_custkey",
                       left_cols=["c_custkey"],
                       right_cols=["c_custkey", "c_mktsegment",
                                   "c_nationkey"])
    out = grouped_sums(
        joined.map_batches(
            lambda b: b.select(["c_mktsegment", "c_nationkey"]),
            batch_format="pyarrow"),
        key_cols=["c_mktsegment", "c_nationkey"], sum_cols=[],
        count_alias="n", stream_reduce=True)
    return _int64(out.to_pandas(), ["c_nationkey", "n"])
