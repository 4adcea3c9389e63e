"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline over a deterministic synthetic
page fixture; ``queries()`` exposes one callable per implemented operator /
pipeline from SURVEY.md §2 (plus the training-data-pipeline operators);
``oracle_sql()`` gives the DuckDB-equivalent SQL for every SQL-expressible
query over the pre-registered views.

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ``ray.init`` / ``ray.shutdown``.

Numeric-parity convention: every value column an oracle compares is an
INTEGER (scaled cents / ppm via ``floor(x * scale + 0.5)``) or a string —
float aggregation order is engine-dependent and would flake value hashes;
per-row double arithmetic + floor is bit-identical between numpy and DuckDB.
"""

from __future__ import annotations

import json
import math
import os
from collections.abc import Callable
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _read(sf_dir: str, table: str, columns=None,
          predicate=None) -> "ray.data.Dataset":
    """Pruned read: only ``columns`` leave storage, and ``predicate`` (a
    ``pyarrow.dataset`` expression) pushes into the scan — row groups
    whose statistics exclude the predicate never get decoded, and the
    filter may reference columns outside the projection. At 100 TB this
    is the difference between scanning a week and scanning a year."""
    kwargs = {}
    if predicate is not None:
        kwargs["filter"] = predicate
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                 columns=columns, **kwargs)


def _sf_of(sf_dir: str) -> float:
    try:
        return float(sf_dir.rstrip("/").rsplit("sf", 1)[1])
    except Exception:
        return 0.01


def _n_pages(sf_dir: str) -> int:
    return max(500, int(50_000 * _sf_of(sf_dir)))


def _int64(res, cols=None) -> pd.DataFrame:
    """Small aggregate result -> pandas with int64 value columns (Ray's Sum
    can widen ints to float64; DuckDB SUM(BIGINT) widens to HUGEINT — both
    sides are pinned to int64 so value hashes are comparable)."""
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    if len(df) == 0 and cols is not None:
        # Dataset.to_pandas() drops columns on an all-empty dataset (see
        # CLAUDE.md); rebuild the expected schema so downstream column
        # access and the driver's schema compare stay stable (hit live:
        # supplier_value_share's share threshold filters to 0 rows at
        # sf0.1 — a legitimately empty result, not an error)
        df = pd.DataFrame({c: df[c] if c in df.columns
                           else pd.Series(dtype="int64") for c in cols})
    for c in cols if cols is not None else df.columns:
        if df[c].dtype != object and str(df[c].dtype) != "string":
            df[c] = df[c].astype("int64")
    return df


# ---------------------------------------------------------------------------
# relational / generic operators over the testdata tables
# ---------------------------------------------------------------------------

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


def q_top_users(sf_dir: str) -> Any:
    """Top-20 users by event count (the reference's top-k pool pattern,
    entity_pools.py:20), per-batch pre-aggregated exchange count."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

    ds = _read(sf_dir, "events", columns=["user_id"])
    counts = grouped_count(ds, "user_id", out_col="n", salt_mod=8)
    top = counts.sort(["n", "user_id"], descending=[True, False]).limit(20)
    return _int64(top, ["user_id", "n"])


def q_doc_stats(sf_dir: str) -> Any:
    """analyze_dataset analogue (prepare_assignment_data.py:64-102)."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def lens(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"len": pc.cast(pc.utf8_length(b.column("text")), pa.int64())})

    agg = ds.map_batches(lens, batch_format="pyarrow").aggregate(
        Count(alias_name="n_rows"), Sum("len", alias_name="sum_chars"),
        Min("len", alias_name="min_chars"), Max("len", alias_name="max_chars"),
    )
    n, s = int(agg["n_rows"]), int(agg["sum_chars"])
    return pd.DataFrame([{
        "n_rows": n, "sum_chars": s,
        "min_chars": int(agg["min_chars"]), "max_chars": int(agg["max_chars"]),
        "avg_chars_x100": (s * 100) // n,
    }])


def q_lang_histogram(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

    ds = _read(sf_dir, "documents", columns=["lang"])
    return _int64(grouped_count(ds, "lang", out_col="n", salt_mod=4), ["n"])


def q_dedup_documents(sf_dir: str) -> Any:
    """Exact first-wins dedup on text (utils.py:36-46 semantics; first =
    smallest doc_id). Returns surviving doc_ids."""
    from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup(ds, ["text"], "doc_id").select_columns(["doc_id"])


def q_dedup_signature(sf_dir: str) -> Any:
    """Dedup on the normalized text signature (augmentors.py:44-48)."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        event_text_signature,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def sig(b: pa.Table) -> pa.Table:
        return b.append_column(
            "sig", pa.array([event_text_signature(t) for t in
                             b.column("text").to_pylist()], pa.string()))

    sigged = ds.map_batches(sig, batch_format="pyarrow")
    return exact_dedup(sigged, ["sig"], "doc_id").select_columns(["doc_id"])


def q_split_counts(sf_dir: str) -> Any:
    """Hash 75/15/10 split assignment counts (md5-bucket, SQL-checkable)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count
    from calendar_event_entity_extraction_ray.stages.split import assign_split_batch

    ds = _read(sf_dir, "documents", columns=["text"])
    with_split = ds.map_batches(
        lambda b: assign_split_batch(b, text_col="text"), batch_format="pyarrow"
    )
    return _int64(grouped_count(with_split, "split", out_col="n", salt_mod=0), ["n"])


def q_split_leakage(sf_dir: str) -> Any:
    """eval/test doc_ids surviving the leakage anti-join (augmentors.py:64-78
    precedence train > eval > test) under the hash split."""
    from calendar_event_entity_extraction_ray.stages.split import (
        assign_split_batch,
        drop_split_leakage,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    with_split = ds.map_batches(
        lambda b: assign_split_batch(b, text_col="text"), batch_format="pyarrow"
    )
    parts = drop_split_leakage(with_split, text_col="text")
    ev = parts["eval"].select_columns(["doc_id", "split"])
    te = parts["test"].select_columns(["doc_id", "split"])
    return ev.union(te)


def q_token_counts(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        token_count_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_count_batch, batch_format="pyarrow")


def q_quality(sf_dir: str) -> Any:
    """Quality features as exact integer ppm ratios."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from calendar_event_entity_extraction_ray.stages.text_analysis import (
            _count_re,
        )

        text = b.column("text")
        n = pc.cast(pc.fill_null(pc.utf8_length(text), 0),
                    pa.int64()).to_numpy()
        alpha = _count_re(text, r"[A-Za-z]").to_numpy()
        digit = _count_re(text, r"[0-9]").to_numpy()
        punct = _count_re(text, r"[^A-Za-z0-9\s]").to_numpy()
        nz = np.maximum(n, 1)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_chars": pa.array(n),
            "alpha_ppm": pa.array((alpha * 1_000_000) // nz),
            "digit_ppm": pa.array((digit * 1_000_000) // nz),
            "punct_ppm": pa.array((punct * 1_000_000) // nz),
        })

    return ds.map_batches(prep, batch_format="pyarrow")


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


def q_knn(sf_dir: str) -> Any:
    """Brute-force cosine top-10 around the vec_id=0 embedding."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = None
    for b in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        ids = b.column("vec_id").to_pylist()
        if 0 in ids:
            q = np.asarray(b.column("embedding")[ids.index(0)].as_py(), dtype=np.float64)
            break
    t = knn_bruteforce(ds, q, k=10)
    return t.select(["vec_id"])


def q_sessionize(sf_dir: str) -> Any:
    """Session windows per user (30-min inactivity gap) — key-hash exchange
    + ONE vectorized sessionization pass per partition
    (stages/windows.py:sessionize)."""
    from calendar_event_entity_extraction_ray.stages.windows import sessionize

    ds = _read(sf_dir, "events", columns=["user_id", "ts"])
    return _int64(sessionize(ds), ["user_id", "n_sessions", "n_events"])


def q_count_windows(sf_dir: str) -> Any:
    """Tumbling COUNT windows per user (every 16 events, ordered by
    ts then event_id) — the row-count analogue of events_hourly
    (stages/windows.py:count_windows)."""
    from calendar_event_entity_extraction_ray.stages.windows import count_windows

    ds = _read(sf_dir, "events",
               columns=["user_id", "ts", "event_id", "value"])
    return _int64(count_windows(ds, n=16),
                  ["user_id", "window_id", "n_events", "sum_cents"])


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


def q_props_stats(sf_dir: str) -> Any:
    """JSON payload extraction in the hot path: events.props is a JSON
    string; the reference's brace-scan + safe parse (src/infer.py:22-48)
    pulls the "k" field, then a salted grouped sum."""
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


def q_embedding_dups(sf_dir: str) -> Any:
    """Embedding-cosine near-duplicate pairs (exact): every (a < b) pair
    with cosine >= 0.3. The comparison matrix is broadcast once
    (ray.put); each batch computes its rows against the full matrix —
    the brute-force baseline; the LSH-bucketed scale path is
    ``embedding_dups_lsh``."""
    return _embedding_pairs_ds(sf_dir)


def _embedding_pairs_ds(sf_dir: str) -> "ray.data.Dataset":
    from calendar_event_entity_extraction_ray.stages.knn import _batch_matrix

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    # The comparison matrix is assembled from STREAMED Arrow batches (never
    # ds.to_pandas() of the table) and broadcast once. Brute force is
    # inherently O(n^2) and the matrix must exist somewhere — the scale
    # path is embedding_dups_lsh; this is the exact baseline/oracle.
    id_chunks, mat_chunks = [], []
    for b in ds.iter_batches(batch_size=4096, batch_format="pyarrow"):
        m = _batch_matrix(b, "embedding")
        mat_chunks.append(m / np.linalg.norm(m, axis=1, keepdims=True))
        id_chunks.append(b.column("vec_id").to_numpy())
    ids_all = np.concatenate(id_chunks)
    mat_all = np.vstack(mat_chunks)
    ref = ray.put((ids_all, mat_all))

    def pairs(b: pa.Table) -> pa.Table:
        ids_a, mat_a = ray.get(ref)
        mat = _batch_matrix(b, "embedding")
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        ids = b.column("vec_id").to_numpy()
        sims = mat @ mat_a.T
        out_a, out_b = [], []
        ai, bj = np.where(sims >= 0.3)
        for i, j in zip(ai, bj):
            if ids[i] < ids_a[j]:
                out_a.append(int(ids[i]))
                out_b.append(int(ids_a[j]))
        return pa.table({"vec_id_a": pa.array(out_a, pa.int64()),
                         "vec_id_b": pa.array(out_b, pa.int64())})

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=1024)


def q_embedding_dups_lsh(sf_dir: str) -> Any:
    """Scale path for embedding near-dup: banded SRP LSH with
    log2(n)-scaled planes per band (constant expected bucket size),
    OR-amplified recall across 16 bands, per-bucket verify on the explicit
    exchange, pair-hash dedupe (stages/knn.py:embedding_dup_pairs_lsh).
    Recall < 1 by design — the ``embedding_dups`` brute-force query is the
    exact baseline the recall tests compare against."""
    from calendar_event_entity_extraction_ray.stages.knn import (
        embedding_dup_pairs_lsh,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_dup_pairs_lsh(ds, threshold=0.3)


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


def q_approx_distinct(sf_dir: str) -> Any:
    """HyperLogLog approximate distinct: one serialized sketch per batch,
    merged in a tiny final fold (functions/sketch.py). Oracle-checkable
    shape: the EXACT distinct count (scalable salted grouped count -> row
    count) is returned next to an ``hll_ok`` indicator that the HLL
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
    exact = grouped_count(ds, "user_id", out_col="n", salt_mod=8).count()
    return pd.DataFrame([{
        "exact_distinct_users": int(exact),
        "hll_ok": int(abs(est - exact) <= 0.05 * exact),
    }])


def q_events_sliding(sf_dir: str) -> Any:
    """Sliding 1-hour windows advancing every 15 minutes: each event lands
    in 4 windows (flat window-assignment explode -> salted grouped count)."""
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


# ---------------------------------------------------------------------------
# non-SQL-expressible operators (rows-only checks)
# ---------------------------------------------------------------------------

def q_minhash_dedup(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.dedup import minhash_lsh_dup_ids

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_lsh_dup_ids(ds, "text", "doc_id", threshold=0.8)


def q_entity_resolution(sf_dir: str) -> Any:
    """Pool-free entity resolution over part surface forms: cluster every
    distinct p_name within edit distance 1 and canonicalize each form to
    its component's lexicographic minimum (stages/resolve.py — distinct
    exchange -> SymSpell deletion-neighborhood pair join -> min-label
    connected components -> LEFT join maps singletons to themselves).
    The oracle replays the identical clustering in DuckDB: levenshtein()
    brute pairs + a recursive transitive-closure CTE + MIN(peer)."""
    from calendar_event_entity_extraction_ray.stages.resolve import (
        resolve_surface_forms,
    )

    parts = _read(sf_dir, "part", columns=["p_name"])
    out = resolve_surface_forms(parts, col="p_name", max_d=1,
                                method="deletions")
    return out.map_batches(
        lambda b: pa.table({"surface": b.column("p_name"),
                            "entity_id": b.column("entity_id")}),
        batch_format="pyarrow")


def q_entity_resolution_freq(sf_dir: str) -> Any:
    """Entity resolution with the PRACTICAL canonical rule: the cluster
    member with the most input mentions wins (ties -> lexicographic
    min), so the common spelling beats the typo (stages/resolve.py
    canonical="frequent": grouped mention count + per-cluster ARGMAX
    exchange). Oracle: recursive-CTE components + ROW_NUMBER argmax."""
    from calendar_event_entity_extraction_ray.stages.resolve import (
        resolve_surface_forms,
    )

    parts = _read(sf_dir, "part", columns=["p_name"])
    out = resolve_surface_forms(parts, col="p_name", max_d=1,
                                method="deletions", canonical="frequent")
    return out.map_batches(
        lambda b: pa.table({"surface": b.column("p_name"),
                            "entity_id": b.column("entity_id")}),
        batch_format="pyarrow")


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


def q_dup_clusters(sf_dir: str) -> Any:
    """Near-dup canonicalization: connected components over the exact
    cosine>=0.3 pair graph — every member maps to its cluster's minimum
    vec_id (distributed min-label propagation, stages/graph.py). The
    oracle recomputes the same clusters independently in DuckDB with a
    recursive transitive-closure CTE."""
    from calendar_event_entity_extraction_ray.stages.graph import (
        connected_components,
    )

    pairs = _embedding_pairs_ds(sf_dir)
    out = connected_components(pairs, "vec_id_a", "vec_id_b")
    return out.map_batches(
        lambda b: pa.table({"vec_id": b.column("node"),
                            "cluster": b.column("cluster")}),
        batch_format="pyarrow")


def q_doc_sample(sf_dir: str) -> Any:
    """Deterministic 5% sample by md5 text bucket — the scalable,
    re-runnable replacement for ``ds.random_sample`` (same rows on every
    run and every partitioning; SQL-checkable via the md5 parity)."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def sample(b: pa.Table) -> pa.Table:
        keep = [t is not None and stable_bucket(t, 100) < 5
                for t in b.column("text").to_pylist()]
        return b.filter(pa.array(keep, pa.bool_())).select(["doc_id"])

    return ds.map_batches(sample, batch_format="pyarrow")


def q_corpus_clean(sf_dir: str) -> Any:
    """Composed corpus-cleanup pipeline (quality filter -> langid filter ->
    exact dedup -> MinHash near-dup anti-join): surviving doc_ids."""
    from calendar_event_entity_extraction_ray.pipelines.corpus import (
        corpus_clean,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return corpus_clean(ds).select_columns(["doc_id"])


def q_jaccard_pairs(sf_dir: str) -> Any:
    """EXACT char-3-gram Jaccard >= 0.6 pairs via prefix filtering — the
    oracle is a brute-force all-pairs recompute, so this checks that the
    prefix-filter candidate generation misses nothing."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        ngram_jaccard_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.6, n=3)


def q_simhash(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.dedup import add_simhash_column

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: add_simhash_column(b, "text"), batch_format="pyarrow"
    ).select_columns(["doc_id", "simhash"])


def q_langid(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.text_analysis import langid_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(langid_batch, batch_format="pyarrow")


def q_fingerprint(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        fingerprint_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


def q_knn_lsh(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.knn import knn_lsh

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    first = ds.take(1)[0]
    dim_probe = np.asarray(first["embedding"], dtype=np.float64)
    q = dim_probe  # query = first row's embedding
    return knn_lsh(ds, q, k=10, n_planes=6, probe_radius=1).select(["vec_id"])


def q_knn_ivf(sf_dir: str) -> Any:
    """IVF coarse-quantizer ANN: driver-trained k-means codebook
    (broadcast), distributed cell assignment, brute force over the n_probe
    nearest cells only."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_ivf

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.asarray(ds.take(1)[0]["embedding"], dtype=np.float64)
    return knn_ivf(ds, q, k=10, n_cells=16, n_probe=4).select(["vec_id"])


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


def q_levenshtein_pairs(sf_dir: str) -> Any:
    """Edit-distance near-dup pairs (stages/editdist.py): EXACT
    levenshtein <= 15 over all document pairs via lossless length
    banding + char-bag prune + Myers bit-parallel distance. Oracle is
    DuckDB's own levenshtein() over the length-filtered self-join."""
    from calendar_event_entity_extraction_ray.stages.editdist import (
        levenshtein_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = levenshtein_pairs(ds, max_d=15)
    return _int64(out.to_pandas(), ["doc_id_a", "doc_id_b", "dist"])


def q_knn_pq(sf_dir: str) -> Any:
    """Product-quantization ANN (stages/knn.py:knn_pq): driver-trained
    per-subspace codebook (broadcast once), one distributed encode pass
    (vector -> 8 bytes, a 32x index shrink), lookup-table scan over the
    codes, exact cosine re-rank of the 40 candidates. Golden oracle =
    sequential mirror (scripts/make_goldens.py:golden_knn_pq)."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_pq

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.asarray(ds.take(1)[0]["embedding"], dtype=np.float64)
    return knn_pq(ds, q, k=10, m=8, n_codes=256, rerank=4).select(["vec_id"])


def q_split_lang_kl(sf_dir: str) -> Any:
    """Distribution-shift diagnostic between hash splits: per-language
    KL(train || eval) contribution terms. One distributed (split, lang)
    count on the exchange (15 partial rows per batch), then the
    bounded driver fold computes p*ln(p/q) per language — the exact
    double op order is mirrored in the SQL oracle, so floor(x*1e9+0.5)
    is bit-stable on both sides (the tf*ln(N/df) parity recipe)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.split import (
        assign_split_batch,
    )

    ds = _read(sf_dir, "documents", columns=["text", "lang"])
    tagged = ds.map_batches(
        lambda b: assign_split_batch(b, text_col="text").select(
            ["split", "lang"]),
        batch_format="pyarrow")
    counts = grouped_sums(tagged, key_cols=["split", "lang"],
                          sum_cols=[], count_alias="n").to_pandas()

    n1 = counts[counts["split"] == "train"].set_index("lang")["n"]
    n2 = counts[counts["split"] == "eval"].set_index("lang")["n"]
    t1, t2 = float(n1.sum()), float(n2.sum())
    rows = []
    for lang in sorted(set(n1.index) & set(n2.index)):
        p = float(n1[lang]) / t1
        q_ = float(n2[lang]) / t2
        term = p * math.log(p / q_)
        rows.append({"lang": lang,
                     "kl_term_e9": int(math.floor(term * 1e9 + 0.5))})
    return pd.DataFrame(rows)


def q_knn_multi(sf_dir: str) -> Any:
    """Multi-query exact top-5: a broadcast QUERY MATRIX (vec_ids 0-2)
    scored against the corpus in one pass — one (n,d)@(d,q) matmul per
    batch, <= k rows per (query, batch) to the per-group top-k."""
    import pyarrow.parquet as pq

    from calendar_event_entity_extraction_ray.stages.knn import (
        knn_bruteforce_multi,
    )

    # tiny driver-side read for the query rows (broadcast_dict_local
    # pattern: a Ray plan costs ~0.5s flat for 3 rows)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    import pyarrow.compute as pc

    sel = t.filter(pc.is_in(t.column("vec_id"),
                            value_set=pa.array([0, 1, 2], pa.int64())))
    order = np.argsort(sel.column("vec_id").to_numpy())
    q_mat = np.asarray(sel.column("embedding").to_pylist(),
                       dtype=np.float64)[order]
    qids = sel.column("vec_id").to_numpy()[order]

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_bruteforce_multi(ds, q_mat, k=5, query_ids=qids)
    return _int64(out.to_pandas()[["query_id", "vec_id", "rnk"]],
                  ["query_id", "vec_id", "rnk"])


def q_knn_ivfpq(sf_dir: str) -> Any:
    """IVF-PQ residual ANN (stages/knn.py:knn_ivfpq): coarse cells prune
    the scan, residual PQ codes rank within probed cells, exact cosine
    re-ranks the finalists. Golden oracle = sequential mirror."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_ivfpq

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.asarray(ds.take(1)[0]["embedding"], dtype=np.float64)
    return knn_ivfpq(ds, q, k=10, n_cells=16, n_probe=8, m=8,
                     rerank=4).select(["vec_id"])


def q_kg_flagship(sf_dir: str) -> Any:
    """Flagship: synthetic pages (deterministic, sized by sf) -> triples."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    return kg_triples(pages).select_columns(["subj", "pred", "obj", "url"])


def q_kg_entity_degree(sf_dir: str) -> Any:
    """Hub-entity degree counts over the flagship triples (salted)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import entity_degree

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    return entity_degree(kg_triples(pages))


def q_augment(sf_dir: str) -> Any:
    """Reference augmentation pipeline over synthetic records."""
    from calendar_event_entity_extraction_ray.pipelines.augmentation import (
        augment_pipeline,
    )
    from calendar_event_entity_extraction_ray.stages.augment import synth_records_batch

    n = max(200, int(20_000 * _sf_of(sf_dir)))
    records = ray.data.range(n).map_batches(
        lambda b: synth_records_batch(b.column("id").to_pylist(), seed=7),
        batch_format="pyarrow",
    )
    out = augment_pipeline(records, n_synth=0, seed=7)
    return out.select_columns(["event_text", "action", "date", "time",
                               "location", "duration", "recurrence", "notes"])


def q_media_frames(sf_dir: str) -> Any:
    """Video frame sampling: 1->N binary-row explosion (bounded per row)."""
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        frame_sample_batch,
        synth_media_table,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_table(n))
    out = ds.map_batches(frame_sample_batch, batch_format="pyarrow", batch_size=64)
    return out.select_columns(["media_id", "frame_ix", "frame_ts_ms"])


def q_media_features(sf_dir: str) -> Any:
    """Image rows decode for REAL (PPM kernel: exact pixel statistics)
    and audio rows for REAL (stdlib WAV kernel: RMS / zero-crossing /
    duration); the stubbed video kind carries the -1 sentinel."""
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        DecodeFeatures,
        synth_media_table,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_table(n))
    out = ds.map_batches(
        DecodeFeatures, fn_constructor_kwargs={"feature_dim": 16},
        batch_format="pyarrow", batch_size=64, concurrency=(1, 4), num_cpus=1,
    )
    return out.select_columns(["media_id", "kind", "mime", "px_width",
                               "px_height", "mean_r_e4", "mean_g_e4",
                               "mean_b_e4", "std_gray_e4", "dur_ms",
                               "rms_e4", "zcr_e4"])


def q_action_histogram(sf_dir: str) -> Any:
    """Per-action histogram over extracted events (the reference's
    analyze_dataset per-action histogram, prepare_assignment_data.py:64-102,
    over the flagship extraction output)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        extract_stage,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

    events = extract_stage(synth_pages_dataset(_n_pages(sf_dir), seed=42))
    out = grouped_count(events, "action", out_col="n", salt_mod=8)
    return _int64(out.sort(["n", "action"], descending=[True, False]), ["n"])


def q_kg_events_view(sf_dir: str) -> Any:
    """groupby(subj) canonicalization shuffle: linked triples folded back
    into one row per event (stages/reassemble.py; north-star S5)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.reassemble import (
        reassemble_events,
    )

    triples = kg_triples(synth_pages_dataset(_n_pages(sf_dir), seed=42))
    view = reassemble_events(triples)
    return view.select_columns(["event_id", "url", "action", "date", "time",
                                "location", "duration", "recurrence", "notes"])


def q_eval_metrics(sf_dir: str) -> Any:
    """Evaluation pipeline self-check: golden-rendered predictions score 1.0
    and a poisoned tail scores 0 (fractions per evaluate_finetuned.py:48-99)."""
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.pipelines.evaluate import evaluate
    from calendar_event_entity_extraction_ray.sources.pages import synth_page

    rows = []
    for i in range(300):
        _, golden = synth_page(i, seed=42)
        for g in golden:
            slots = {k: g.get(k) for k in TARGET_KEYS}
            pred = json.dumps(slots) if i % 10 else "no json at all"
            rows.append({"prediction_text": pred, **slots})
    ds = ray.data.from_items(rows)
    return pd.DataFrame([evaluate(ds)])


def _synth_records(sf_dir: str, seed: int = 7) -> "ray.data.Dataset":
    from calendar_event_entity_extraction_ray.stages.augment import (
        synth_records_batch,
    )

    n = max(200, int(20_000 * _sf_of(sf_dir)))
    return ray.data.range(n).map_batches(
        lambda b: synth_records_batch(b.column("id").to_pylist(), seed=seed),
        batch_format="pyarrow",
    )


def q_tokenize(sf_dir: str) -> Any:
    """Tokenized training features (reference build_feature, src/data.py:
    60-222): records -> assignment-format prompt/completion -> actor-pool
    TokenizeRecords -> per-record integer summary (oracle-hashable)."""
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.functions.formats import (
        format_for_base_model,
    )
    from calendar_event_entity_extraction_ray.functions.tokenizer import (
        IGNORE_INDEX,
    )
    from calendar_event_entity_extraction_ray.stages.tokenize import (
        TokenizeRecords,
    )

    def to_pc(b: pa.Table) -> pa.Table:
        ids, prompts, comps = [], [], []
        for r in b.to_pylist():
            f = format_for_base_model(
                r["event_text"], {k: r.get(k) for k in TARGET_KEYS})
            ids.append(r["row_id"])
            prompts.append(f["prompt"])
            comps.append(f["completion"])
        return pa.table({"rec_id": pa.array(ids, pa.int64()),
                         "prompt": pa.array(prompts, pa.string()),
                         "completion": pa.array(comps, pa.string())})

    from calendar_event_entity_extraction_ray.stages.taskform import (
        run_stage,
    )

    feats = _synth_records(sf_dir).map_batches(
        to_pc, batch_format="pyarrow"
    ).map_batches(
        run_stage,
        fn_kwargs={"_cls": TokenizeRecords, "fmt": "assignment",
                   "id_col": "rec_id"},
        batch_format="pyarrow",
    )

    def summarize(b: pa.Table) -> pa.Table:
        out = {"rec_id": b.column("rec_id").to_pylist(),
               "n_tokens": [], "n_masked": [], "sum_ids": [], "sum_labels": []}
        for ids, labels in zip(b.column("input_ids").to_pylist(),
                               b.column("labels").to_pylist()):
            out["n_tokens"].append(len(ids))
            out["n_masked"].append(sum(1 for l in labels if l == IGNORE_INDEX))
            out["sum_ids"].append(sum(ids))
            out["sum_labels"].append(sum(l for l in labels if l != IGNORE_INDEX))
        return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})

    return feats.map_batches(summarize, batch_format="pyarrow")


def q_chatml(sf_dir: str) -> Any:
    """Approach-B (enhanced) rendering + messages-record emission
    (create_enhanced_training_data.py:96-210, 303-313): deterministic
    per-record RNG, user/assistant contents as strings."""
    import random as _random

    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.functions.render_enhanced import (
        build_messages_record,
        render_enhanced,
    )

    def render(b: pa.Table) -> pa.Table:
        ids, users, assists = [], [], []
        for r in b.to_pylist():
            slots = {k: r.get(k) for k in TARGET_KEYS}
            rng = _random.Random(f"enh:7:{r['row_id']}")
            text = render_enhanced(slots, rng)
            rec = build_messages_record(text, slots)
            ids.append(r["row_id"])
            users.append(rec["messages"][0]["content"])
            assists.append(rec["messages"][1]["content"])
        return pa.table({"rec_id": pa.array(ids, pa.int64()),
                         "user_content": pa.array(users, pa.string()),
                         "assistant_content": pa.array(assists, pa.string())})

    return _synth_records(sf_dir).map_batches(render, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# driver contract
# ---------------------------------------------------------------------------

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


def q_chunk_docs(sf_dir: str) -> Any:
    """Training-window chunking: split each document into 64-token
    windows with stride 48 (the LLM-pretraining context-packing shape) —
    a pure flat-map, no shuffle. Token rule = split(' ') (empties kept),
    which DuckDB's string_split mirrors exactly, so the oracle slices
    lists in SQL."""
    W, S = 64, 48
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(b: pa.Table) -> pa.Table:
        ids, starts, ntoks, texts = [], [], [], []
        for did, txt in zip(b.column("doc_id").to_pylist(),
                            b.column("text").to_pylist()):
            toks = (txt or "").split(" ")
            for s in range(0, len(toks), S):
                w = toks[s:s + W]
                ids.append(did)
                starts.append(s)
                ntoks.append(len(w))
                texts.append(" ".join(w))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "start": pa.array(starts, pa.int64()),
            "n_tok": pa.array(ntoks, pa.int64()),
            "chunk": pa.array(texts, pa.string()),
        })

    return ds.map_batches(chunks, batch_format="pyarrow")


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


def q_shuffle_docs(sf_dir: str) -> Any:
    """Deterministic epoch shuffle (training-data reordering): every doc
    gets a seeded pseudo-random global position — the vectorized 32-bit
    avalanche key (functions/inthash.py, bit-identical in DuckDB BIGINT
    arithmetic, so the oracle needs no per-row md5) ranked by the
    range-partitioned sort (stages/sort.py), so the permutation is
    reproducible at ANY partitioning and resumable — unlike
    ``random_shuffle()``, which is neither. Output partition k holds
    positions (offset_k, offset_{k+1}]: exactly the layout a sharded
    training loader wants."""
    from calendar_event_entity_extraction_ray.functions.inthash import (
        shuffle_key32,
    )
    from calendar_event_entity_extraction_ray.stages.sort import (
        global_row_number,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def key(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": b.column("doc_id"),
                         "skey": pa.array(shuffle_key32(ids, 42))})

    out = global_row_number(docs.map_batches(key, batch_format="pyarrow"),
                            "skey", tiebreak_cols=["doc_id"],
                            out_col="shuffle_pos")
    return out.map_batches(
        lambda b: b.select(["doc_id", "shuffle_pos"]),
        batch_format="pyarrow")


def q_top_docs_per_source(sf_dir: str) -> Any:
    """Per-group top-k (best-N-docs-per-source shape): local per-batch
    top-k prunes the exchange to <= k rows per group per batch."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        top_k_per_group,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    out = top_k_per_group(ds, "source", "n_chars", 3, "doc_id")
    return out.map_batches(
        lambda b: b.select(["source", "doc_id", "n_chars", "rnk"]),
        batch_format="pyarrow")


def q_stratified_sample(sf_dir: str) -> Any:
    """Stratified deterministic sample: per-lang rates (en 5%, else 20%)
    over the md5 text bucket — re-runnable at any partitioning, no
    group-size pre-pass, SQL-reproducible."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def sample(b: pa.Table) -> pa.Table:
        keep = []
        for lang, t in zip(b.column("lang").to_pylist(),
                           b.column("text").to_pylist()):
            rate = 5 if lang == "en" else 20
            keep.append(t is not None and stable_bucket(t, 100) < rate)
        return b.filter(pa.array(keep, pa.bool_())).select(
            ["doc_id", "lang"])

    return ds.map_batches(sample, batch_format="pyarrow")


def q_term_df(sf_dir: str) -> Any:
    """Corpus vocabulary: top-50 terms by document frequency (the df side
    of TF-IDF) — per-doc distinct explode + salted grouped count."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        term_document_frequency,
    )

    ds = _read(sf_dir, "documents", columns=["text"])
    return _int64(term_document_frequency(ds, "text", top_n=50).to_pandas(),
                  ["df"])


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


def q_label_centroids(sf_dir: str) -> Any:
    """Grouped vector mean (per-class prototype / mean pooling): per-batch
    numpy partial sums per label, kilobyte driver fold, one row per
    (label, dim) for SQL comparability (stages/ml.py)."""
    import math

    from calendar_event_entity_extraction_ray.stages.ml import (
        label_centroids,
    )

    ds = _read(sf_dir, "embeddings", columns=["embedding", "label"])
    out = label_centroids(ds, "embedding", "label")

    def scale(b: pa.Table) -> pa.Table:
        return pa.table({
            "label": b.column("label"),
            "dim": b.column("dim"),
            "c_e4": pa.array(
                [int(math.floor(v * 10_000 + 0.5))
                 for v in b.column("centroid").to_pylist()], pa.int64()),
        })

    return out.map_batches(scale, batch_format="pyarrow")


def q_kmeans(sf_dir: str) -> Any:
    """Lloyd's k-means (k=8, 5 fixed iterations, deterministic init =
    vectors of the 8 smallest vec_ids): the iterative broadcast-assign +
    partial-update shape (stages/ml.py). Oracle = single-process numpy
    recompute of the identical algorithm (golden parquet)."""
    from calendar_event_entity_extraction_ray.stages.ml import kmeans

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans(ds, "embedding", "vec_id", k=8, iters=5)


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
            partial_count_batch(b, "o_custkey", salt_mod=0)
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


def q_model_scored_docs(sf_dir: str) -> Any:
    """Model-hosted inference demo: a 256 MB seed-generated weight matrix
    loaded ONCE per actor (stages/model_stage.py — the reference's
    src/infer.py:135-147 model.generate shape), batched vectorized
    scoring, pool bounded at 4 actors with memory= declared to the
    scheduler. Oracle = single-process run of the same class."""
    from calendar_event_entity_extraction_ray.stages.model_stage import (
        score_documents,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return score_documents(ds)


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


def q_docs_above_p90(sf_dir: str) -> Any:
    """Quantile-filter composition: docs longer than the corpus's exact
    P90 length — exact_quantiles feeds a broadcast scalar into a
    streamed filter (the percentile-based quality-filter shape)."""
    from calendar_event_entity_extraction_ray.stages.quantiles import (
        exact_quantiles,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    (_, p90), = exact_quantiles(ds, "n_chars", [0.9], bins=512,
                                collect_cap=100_000)
    return ds.filter(expr=f"n_chars > {int(p90)}").select_columns(
        ["doc_id"])


def q_tfidf_top_terms(sf_dir: str) -> Any:
    """TF-IDF composition: per-doc top-3 terms by tf * ln(N/df). The df
    table (vocabulary-bounded) folds from per-batch distinct-term
    partials and broadcasts via ray.put; scoring + per-doc top-k run
    vectorized per batch. Score arithmetic (double tf * ln(N/df)) is
    bit-identical to the SQL oracle; exact ties break on term ASC."""
    import math as _math

    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.materialize()   # consumed 3x: count, df pass, scoring pass
    n_docs = ds.count()

    def explode_distinct(b: pa.Table) -> pa.Table:
        words: list = []
        for t in b.column("text").to_pylist():
            if t is not None:
                words.extend(set(t.split(" ")))
        return pa.table({"term": pa.array(words, pa.string())})

    df_map = {}
    for b in grouped_count(
            ds.map_batches(explode_distinct, batch_format="pyarrow"),
            "term", out_col="df").iter_batches(batch_format="pyarrow", batch_size=None):
        for term, df_ in zip(b.column("term").to_pylist(),
                             b.column("df").to_pylist()):
            df_map[term] = df_
    df_ref = _ray.put(df_map)

    def score(b: pa.Table) -> pa.Table:
        from collections import Counter

        dfm = _ray.get(df_ref)
        out_id, out_term, out_rnk = [], [], []
        for i, t in zip(b.column("doc_id").to_pylist(),
                        b.column("text").to_pylist()):
            if t is None:
                continue
            tf = Counter(t.split(" "))
            scored = sorted(
                ((-(cnt * _math.log(n_docs / dfm[w])), w)
                 for w, cnt in tf.items()),
            )[:3]
            for r, (_, w) in enumerate(scored, 1):
                out_id.append(i)
                out_term.append(w)
                out_rnk.append(r)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "term": pa.array(out_term, pa.string()),
                         "rnk": pa.array(out_rnk, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow")


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


def q_doc_len_cume(sf_dir: str) -> Any:
    """CUME_DIST over document lengths: the global value-rank transform.
    A value-count table (bounded by DISTINCT lengths, not rows) folds
    from per-batch partials, broadcasts via ray.put, and each batch
    assigns cume = count(v' <= v)/n with one vectorized searchsorted —
    a two-pass transform, no global sort. Exact rational k/n in double
    matches SQL CUME_DIST bit-for-bit."""
    import math

    import numpy as np
    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    ds = ds.materialize()   # consumed twice: value counts + assignment

    counts = grouped_count(ds, "n_chars", out_col="n").to_pandas()
    counts = counts.sort_values("n_chars")
    values = counts["n_chars"].to_numpy(dtype=np.int64)
    cum = counts["n"].to_numpy(dtype=np.int64).cumsum()
    total = int(cum[-1]) if len(cum) else 0
    table_ref = _ray.put((values, cum))

    def assign(b: pa.Table) -> pa.Table:
        vals, cums = _ray.get(table_ref)
        v = b.column("n_chars").to_numpy()
        k = cums[np.searchsorted(vals, v, side="left")]
        cume = k.astype(np.float64) / total
        return pa.table({
            "doc_id": b.column("doc_id"),
            "cume_e4": pa.array(
                [int(math.floor(c * 10_000 + 0.5)) for c in cume],
                pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


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


def q_pagerank(sf_dir: str) -> Any:
    """PageRank over the cosine>=0.3 dup-pair graph (stages/graph.py:
    pagerank — fixed 10 damped iterations; small graphs solve in one
    numpy task, the same code the golden mirror runs, so results are
    bit-identical at oracle scale; the iterative large path is covered
    by a tolerance unit test)."""
    from calendar_event_entity_extraction_ray.stages.graph import pagerank

    pairs = _embedding_pairs_ds(sf_dir)
    return pagerank(pairs, "vec_id_a", "vec_id_b")


def q_regex_extract(sf_dir: str) -> Any:
    """regexp_extract parity: first >=8-letter lowercase word per doc,
    compiled ONCE per worker (re.compile cached at module import), empty
    string on no match (DuckDB regexp_extract convention). Simple
    character-class patterns behave identically under Python re and
    DuckDB's RE2 — stick to that subset for oracle-checked extracts."""
    import re

    pat = re.compile(r"[a-z]{8,}")
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def extract(b: pa.Table) -> pa.Table:
        out = []
        for t in b.column("text").to_pylist():
            m = pat.search(t or "")
            out.append(m.group(0) if m else "")
        return pa.table({"doc_id": b.column("doc_id"),
                         "first_long_word": pa.array(out, pa.string())})

    return ds.map_batches(extract, batch_format="pyarrow")


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


def q_mix_sources(sf_dir: str) -> Any:
    """Temperature-scaled source mixing — the pretraining-mix
    downsampler (XLM-R/mT5-style alpha-temperature over sources, here
    alpha=0.5): per-source quota = floor(sqrt(n_source)) docs, selected
    by a deterministic md5 key so the sample is reproducible and
    oracle-checkable (per-row md5 is the documented DuckDB-parity
    exception). One tiny grouped count sizes the quotas driver-side
    (sources are enum-cardinality), then the skew-safe per-group top-k
    (per-batch local prune -> one exchange) takes each source's k_max
    best keys and a broadcast quota dict cuts ranks per source. Scales:
    no source ships more than k_max rows per batch."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
        top_k_per_group,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
    counts = grouped_count(docs, "source", out_col="n_src").to_pandas()
    quota = {s: int(math.floor(math.sqrt(int(n))))
             for s, n in zip(counts["source"], counts["n_src"])}
    if not quota:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "source": pd.Series(dtype=object),
                             "rnk": pd.Series(dtype="int64")})
    k_max = max(quota.values())

    def key(b: pa.Table) -> pa.Table:
        ks = [stable_bucket(str(d), 1 << 32)
              for d in b.column("doc_id").to_pylist()]
        return b.append_column("mix_key", pa.array(ks, pa.int64()))

    ranked = top_k_per_group(
        docs.map_batches(key, batch_format="pyarrow"),
        group_col="source", order_col="mix_key", k=k_max,
        tiebreak_col="doc_id", rank_col="rnk")

    import ray as _ray
    quota_ref = _ray.put(quota)

    def cut(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        q = ray.get(quota_ref)
        qs = pa.array([q.get(s, 0) for s in b.column("source").to_pylist()],
                      pa.int64())
        return b.filter(pc.less_equal(b.column("rnk"), qs))

    out = ranked.map_batches(cut, batch_format="pyarrow").to_pandas()
    return _int64(out[["doc_id", "source", "rnk"]], ["doc_id", "rnk"])


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


def q_media_resampled(sf_dir: str) -> Any:
    """Audio resample stage as a query: WAV payloads resampled to 4 kHz
    (real nearest-sample kernel), then re-decoded for verified stats —
    (media_id, rate, n_samples, rms_e4)."""
    from calendar_event_entity_extraction_ray.functions.audiocodec import (
        audio_stats,
        decode_wav,
        is_wav,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        ResampleAudio,
        synth_media_table,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_table(n))
    out = ds.map_batches(
        ResampleAudio, fn_constructor_kwargs={"rate": 4000},
        batch_format="pyarrow", batch_size=64, concurrency=(1, 4))

    def stats(b: pa.Table) -> pa.Table:
        ids, rates, counts, rms = [], [], [], []
        for i, kind, p in zip(b.column("media_id").to_pylist(),
                              b.column("kind").to_pylist(),
                              b.column("payload").to_pylist()):
            if kind != "audio" or p is None or not is_wav(p):
                continue
            samples, rate = decode_wav(p)
            st = audio_stats(samples, rate)
            ids.append(i)
            rates.append(rate)
            counts.append(len(samples))
            rms.append(st["rms_e4"])
        return pa.table({"media_id": pa.array(ids, pa.int64()),
                         "rate": pa.array(rates, pa.int64()),
                         "n_samples": pa.array(counts, pa.int64()),
                         "rms_e4": pa.array(rms, pa.int64())})

    return out.map_batches(stats, batch_format="pyarrow")


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


def q_decontaminate_docs(sf_dir: str, mode: str = "broadcast") -> Any:
    """Benchmark decontamination: train docs sharing any word 4-gram with
    the eval split (GPT-3-style contamination check; real pipelines use
    13-grams — the fixture's short template texts need n=4 for a
    non-trivial result). Split assignment hashes str(doc_id) so exact
    duplicate TEXTS can land on both sides (hashing the text itself would
    make cross-split duplication impossible by construction). Broadcast
    regime here (eval side is tiny); the exchange regime is pinned
    identical by tests (stages/decontam.py)."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )
    from calendar_event_entity_extraction_ray.stages.decontam import (
        contaminated_doc_ids,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def assign(b: pa.Table) -> pa.Table:
        # md5 of str(doc_id): parity with the oracle's
        # md5(CAST(doc_id AS VARCHAR)) bucket rule; per-row md5 is the
        # documented DuckDB-parity exception (cold path, id-sized rows)
        splits = []
        for did in b.column("doc_id").to_pylist():
            bk = stable_bucket(str(did), 10000)
            splits.append("train" if bk < 7500
                          else ("eval" if bk < 9000 else "test"))
        return b.append_column("split", pa.array(splits, pa.string()))

    with_split = ds.map_batches(assign, batch_format="pyarrow")
    train = with_split.filter(expr="split == 'train'")
    ev = with_split.filter(expr="split == 'eval'")
    out = contaminated_doc_ids(train, ev, n=4, mode=mode)
    return _int64(out.to_pandas(), ["doc_id"])


def q_decontaminate_docs_bloom(sf_dir: str) -> Any:
    """Same contamination check through the Bloom regime — the
    100-TB-both-sides path: eval grams fold into a fixed 1 MiB mergeable
    bitset (never a driver-side string set), train docs prefilter
    against the broadcast bitset, and only bloom-positive candidates
    take the exact-string exchange verify. No false negatives by
    construction, so the result (and the SQL oracle) is identical to
    decontaminate_docs. stages/decontam.py:eval_gram_bloom."""
    return q_decontaminate_docs(sf_dir, mode="bloom")


def q_pack_docs(sf_dir: str) -> Any:
    """Greedy first-fit sequence packing into 256-token training bins,
    bucketed by doc_id range so packing parallelizes (bins never cross
    buckets; result independent of execution order). Oracle replays the
    identical walk as a recursive CTE. stages/pack.py."""
    from calendar_event_entity_extraction_ray.stages.pack import (
        pack_first_fit,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = pack_first_fit(ds, capacity=256, bucket_size=32)
    return _int64(out.to_pandas(), ["doc_id", "bucket", "bin", "ntok"])


def q_weighted_sample_docs(sf_dir: str) -> Any:
    """Weighted sampling without replacement (Efraimidis-Spirakis A-ES):
    each row gets key = ln(u)/w with a DETERMINISTIC uniform u from
    md5(doc_id) and weight w = n_chars; the global top-k by key IS a
    weighted sample. Distributed as a partial top-k per block + one tiny
    final fold — no global sort, no driver-side data. The double
    arithmetic (one divide, one ln, one divide) is bit-identical between
    numpy and DuckDB, so ordering on it is oracle-safe (md5-driven keys
    are collision-free at the boundary)."""
    import hashlib

    K = 50

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def keyed_topk(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        w = b.column("n_chars").to_numpy().astype("float64")
        v = np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                      for i in ids], dtype="float64")
        key = np.log((v + 1.0) / 4294967297.0) / w
        df = pd.DataFrame({"doc_id": ids, "n_chars":
                           b.column("n_chars").to_numpy(), "k": key})
        df = df[w > 0].sort_values(["k", "doc_id"],
                                   ascending=[False, True]).head(K)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = (ds.map_batches(keyed_topk, batch_format="pyarrow")
           .repartition(1)
           .map_batches(keyed_topk, batch_format="pyarrow", batch_size=None))
    return _int64(out.to_pandas()[["doc_id", "n_chars"]],
                  ["doc_id", "n_chars"])


def q_repeated_ngram_spans(sf_dir: str) -> Any:
    """Training-data repetition audit (the Lee-et-al "deduplicating
    training data" diagnostic): every word 6-gram appearing in >= 2
    DISTINCT documents, with its document frequency. Per-doc-distinct
    gram explode (stages/decontam.py) keeps a doc repeating a phrase
    from inflating its count; grouped_count reduces on the exchange
    (gram cardinality scales with the corpus — never Ray's sort
    shuffle); the >= 2 filter prunes the long unique tail before any
    driver collect."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )
    from calendar_event_entity_extraction_ray.stages.decontam import (
        gram_explode_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    grams = ds.map_batches(
        lambda b: gram_explode_batch(b, "doc_id", "text", 6),
        batch_format="pyarrow")
    counts = grouped_count(grams, "gram", out_col="n_docs", salt_mod=0)
    out = counts.filter(expr="n_docs >= 2")
    return _int64(out.to_pandas()[["gram", "n_docs"]], ["n_docs"])


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


def q_training_sequences(sf_dir: str) -> Any:
    """End-to-end training-data preparation (pipelines/traindata.py):
    id-hash split -> corpus_clean -> 4-gram decontamination vs the raw
    eval side -> first-fit pack -> packed (bucket, bin) sequences.
    Golden-checked against a sequential single-process mirror of the
    whole chain."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        training_sequences,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = training_sequences(ds)
    return _int64(out.to_pandas(), ["bucket", "bin", "n_docs", "n_tok"])


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


def q_dedup_spans_docs(sf_dir: str) -> Any:
    """Repeated-span removal (Lee-et-al remediation): strip every token
    window whose 6-gram appears in >= 2 distinct docs; fully-covered
    docs (exact duplicates of each other) drop entirely
    (stages/spandedup.py — two exchanges, nothing driver-side)."""
    from calendar_event_entity_extraction_ray.stages.spandedup import (
        remove_repeated_spans,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = remove_repeated_spans(ds, n=6)
    return _int64(out.to_pandas(), ["doc_id"])


def _users_of_type(sf_dir: str, etype: str) -> Any:
    """DISTINCT-agnostic projection: user_id of every event of one type
    (set_op dedups; the type predicate pushes into the parquet scan)."""
    import pyarrow.dataset as pds

    return _read(sf_dir, "events", columns=["user_id"],
                 predicate=(pds.field("event_type") == etype))


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


def q_users_union(sf_dir: str) -> Any:
    """SQL UNION (distinct): users who signed up or errored
    (stages/setops.py)."""
    from calendar_event_entity_extraction_ray.stages.setops import set_op

    out = set_op(_users_of_type(sf_dir, "signup"),
                 _users_of_type(sf_dir, "error"),
                 ["user_id"], "union")
    return _int64(out.to_pandas(), ["user_id"])


def q_users_intersect_all(sf_dir: str) -> Any:
    """SQL INTERSECT ALL (bag semantics): one row per user per
    min(#clicks, #purchases) — multiplicities ride the exchange as
    per-batch partial counts (stages/setops.py ALL variants)."""
    from calendar_event_entity_extraction_ray.stages.setops import set_op

    out = set_op(_users_of_type(sf_dir, "click"),
                 _users_of_type(sf_dir, "purchase"),
                 ["user_id"], "intersect_all")
    return _int64(out.to_pandas(), ["user_id"])


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
        # (zero-copy searchsorted lookup), never dicts (CLAUDE.md r3)
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


def q_redact_pii(sf_dir: str) -> Any:
    """PII scrub (stages/redact.py): e-mail / phone / IPv4 replaced with
    typed tokens by RE2 inside the Arrow kernel, per-category counts per
    row. Synthetic PII is injected deterministically from doc_id (the
    corpus has none) with the SAME concatenation the oracle builds in
    SQL, so clean_text compares byte-for-byte — both engines run RE2,
    which is the parity point."""
    from calendar_event_entity_extraction_ray.stages.redact import (
        redact_pii,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def inject(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        suf = [(f" Contact u{i}@ex.org or +1-202-555-0199,"
                f" host 10.0.0.{i % 200}")
               for i in b.column("doc_id").to_pylist()]
        aug = pc.binary_join_element_wise(
            b.column("text"), pa.array(suf, pa.string()), "")
        return pa.table({"doc_id": b.column("doc_id"), "text": aug})

    out = redact_pii(ds.map_batches(inject, batch_format="pyarrow"))
    df = out.map_batches(
        lambda b: b.select(["doc_id", "clean_text",
                            "n_email", "n_phone", "n_ipv4"]),
        batch_format="pyarrow").to_pandas()
    return _int64(df, ["doc_id", "n_email", "n_phone", "n_ipv4"])


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


def q_term_postings(sf_dir: str) -> Any:
    """Inverted index (stages/text_analysis.py:inverted_index): exact
    per-term document frequency + the first 16 doc ids ascending. The
    cap of 16 is far below the common-term df (~390 at sf0.01), so the
    partial-top-k merge path is what the oracle checks, not just tiny
    lists."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        inverted_index,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = inverted_index(ds, max_postings=16)
    return _int64(out.to_pandas(), ["df"])


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
            partial_count_batch(b, "o_custkey", salt_mod=0)
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


def q_winsorized_chars(sf_dir: str) -> Any:
    """Per-group winsorization — the training-corpus outlier-clipping
    op: exact per-language p05/p95 (histogram-refine grouped quantiles,
    DuckDB quantile_disc rank parity, driver state |groups| x bins
    ints), clip bounds broadcast once via ray.put, vectorized np.clip
    inside map_batches, enum-cardinality clipped sums stream-reduced.
    Two passes over the column, nothing driver-side grows with rows."""
    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.quantiles import (
        grouped_quantiles,
    )

    docs = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    qres = grouped_quantiles(docs, "n_chars", "lang", [0.05, 0.95])
    bounds: dict = {}
    for lang, q, v in qres:
        lo, hi = bounds.get(lang, (None, None))
        if q == 0.05:
            bounds[lang] = (int(v), hi)
        else:
            bounds[lang] = (lo, int(v))
    b_ref = _ray.put(bounds)

    def clip(b: pa.Table) -> pa.Table:
        bmap = ray.get(b_ref)
        langs = b.column("lang").to_pylist()
        vals = b.column("n_chars").to_numpy()
        lo = np.array([bmap[l][0] for l in langs], dtype=np.int64)
        hi = np.array([bmap[l][1] for l in langs], dtype=np.int64)
        clipped = np.clip(vals, lo, hi).astype(np.int64)
        return pa.table({"lang": b.column("lang"),
                         "clipped": pa.array(clipped)})

    out = grouped_sums(
        docs.map_batches(clip, batch_format="pyarrow"),
        key_cols=["lang"], sum_cols=["clipped"],
        count_alias="n_docs", stream_reduce=True)
    return _int64(out.to_pandas().rename(
        columns={"clipped": "clipped_sum"}), ["clipped_sum", "n_docs"])


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


def q_co_attendance(sf_dir: str) -> Any:
    """KG co-occurrence graph: attendee pairs that share an event,
    weighted by how many events they co-attend — the entity-graph
    projection of the flagship triples. Triples exchange on subj (all
    of one event's hasAttendee rows co-locate), the fold emits pairs by
    a per-subject self-merge over (subj, obj) multiplicities (pair
    fan-out bounded by attendees-per-event², single digits), and a
    second exchange sums pair weights across subject partitions. The
    oracle is DuckDB's self-join over the SAME frozen golden triples —
    multiset semantics (duplicate attendee rows multiply) mirrored
    exactly via cnt_x * cnt_y."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    att = kg_triples(pages).map_batches(
        lambda b: add_hash_column(
            b.filter(pc.equal(b.column("pred"), "hasAttendee"))
            .select(["subj", "obj"]), ["subj"], out_col="_kh"),
        batch_format="pyarrow")

    def pair_fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        counts = (df.groupby(["subj", "obj"]).size()
                  .rename("cnt").reset_index())
        m = counts.merge(counts, on="subj", suffixes=("_x", "_y"))
        m = m[m["obj_x"] < m["obj_y"]]
        m["w"] = (m["cnt_x"] * m["cnt_y"]).astype("int64")
        out = (m.groupby(["obj_x", "obj_y"])["w"].sum().reset_index()
               .rename(columns={"obj_x": "a1", "obj_y": "a2",
                                "w": "n_events"}))
        return pa.Table.from_pandas(out, preserve_index=False)

    pairs = hash_partition_map(att, "_kh", pair_fold)
    out = grouped_sums(pairs, key_cols=["a1", "a2"],
                       sum_cols=["n_events"], count_alias="_n")
    df = _int64(out.to_pandas(), ["n_events"])
    return df[["a1", "a2", "n_events"]]


def q_triangle_count(sf_dir: str) -> Any:
    """Graph triangle count over the co-attendance entity graph — the
    classic edge-iterator plan: ordered edges (a < b) self-join on the
    middle vertex (one exchange hash join -> wedges a < b < c, each
    candidate triangle enumerated exactly once), then a composite-key
    semi join closes wedges against the edge set ((a, c) membership;
    length-prefixed key — raw separator joins are injectable). Hub
    vertices make wedge fan-out O(d²); the standard degree-ordering
    mitigation slots into the same plan by replacing the lexicographic
    order with a degree rank. Oracle = DuckDB's 3-way self-join over
    the SAME frozen golden triples."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )
    from calendar_event_entity_extraction_ray.stages.joins import (
        hash_join,
        semi_join,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    att = kg_triples(pages).map_batches(
        lambda b: add_hash_column(
            b.filter(pc.equal(b.column("pred"), "hasAttendee"))
            .select(["subj", "obj"]), ["subj"], out_col="_kh"),
        batch_format="pyarrow")

    def pair_fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        u = df.drop_duplicates()
        m = u.merge(u, on="subj", suffixes=("_x", "_y"))
        m = m[m["obj_x"] < m["obj_y"]]
        out = (m[["obj_x", "obj_y"]].drop_duplicates()
               .rename(columns={"obj_x": "a1", "obj_y": "a2"}))
        return pa.Table.from_pandas(out, preserve_index=False)

    raw_pairs = hash_partition_map(att, "_kh", pair_fold)
    # distinct edges across subject partitions (same pair may arise from
    # events in different partitions)
    edges = grouped_sums(raw_pairs, key_cols=["a1", "a2"], sum_cols=[],
                         count_alias="_n").map_batches(
        lambda b: b.select(["a1", "a2"]),
        batch_format="pyarrow").materialize()

    wedges = hash_join(
        edges.map_batches(lambda b: b.rename_columns(["a", "b"]),
                          batch_format="pyarrow"),
        edges.map_batches(lambda b: b.rename_columns(["b", "c"]),
                          batch_format="pyarrow"),
        key="b", left_cols=["a", "b"], right_cols=["b", "c"])

    def _ckey(x: pd.Series, y: pd.Series) -> pd.Series:
        return (x.str.len().astype(str) + ":" + x + "|"
                + y.str.len().astype(str) + ":" + y)

    def wedge_key(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["_ac"] = _ckey(df["a"], df["c"])
        return pa.Table.from_pandas(df, preserve_index=False)

    def edge_key(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["_ac"] = _ckey(df["a1"], df["a2"])
        return pa.Table.from_pandas(df[["_ac"]], preserve_index=False)

    closed = semi_join(
        wedges.map_batches(wedge_key, batch_format="pyarrow"),
        edges.map_batches(edge_key, batch_format="pyarrow"),
        key="_ac", left_cols=["a", "b", "c"])
    return pd.DataFrame({"n_triangles": pd.Series([closed.count()],
                                                  dtype="int64")})


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


def q_compression_ratio(sf_dir: str) -> Any:
    """Gopher/CCNet-style repetitiveness signal: per-doc zlib compression
    ratio — templated/boilerplate text compresses far below natural
    prose, so a low ratio is a cheap junk filter at corpus scale. Pure
    per-batch map (embarrassingly parallel, no shuffle); zlib runs in C
    per document (compression is inherently per-sequence — this is the
    justified exception to the no-per-row-loop rule, like the md5 parity
    paths). Exact integer basis points (clen·1e4 // blen) so the golden
    compare is bit-stable. Oracle = single-process recompute
    (scripts/make_goldens.py:golden_compression_ratio)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def ratio(b: pa.Table) -> pa.Table:
        import zlib

        ids, cbytes, ratios = [], [], []
        for doc_id, text in zip(b.column("doc_id").to_pylist(),
                                b.column("text").to_pylist()):
            raw = (text or "").encode("utf-8")
            clen = len(zlib.compress(raw, 6))
            ids.append(doc_id)
            cbytes.append(clen)
            ratios.append(clen * 10_000 // len(raw) if raw else 0)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "c_bytes": pa.array(cbytes, pa.int64()),
                         "ratio_e4": pa.array(ratios, pa.int64())})

    return docs.map_batches(ratio, batch_format="pyarrow")


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


def q_doc_len_hist(sf_dir: str) -> Any:
    """Equi-width length histogram over the corpus (the analyze_dataset
    length profile, src/prepare_assignment_data.py:64-102, as a binned
    distribution): bin_lo = floor(n_chars/200)*200, count per bin. The
    exchange moves |bins| x |batches| partial rows — corpus-size
    independent."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        numeric_histogram,
    )

    ds = _read(sf_dir, "documents", columns=["n_chars"])
    return _int64(numeric_histogram(ds, "n_chars", width=200).to_pandas(),
                  ["bin_lo", "n"])


def q_lang_len_hist(sf_dir: str) -> Any:
    """Grouped equi-width histogram: length distribution PER LANGUAGE
    (the per-split length profile a mixing/quality pass reads before
    choosing truncation budgets). Same one-pass partial-count shape."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        numeric_histogram,
    )

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    out = numeric_histogram(ds, "n_chars", width=500, by=["lang"])
    return _int64(out.to_pandas(), ["bin_lo", "n"])


def q_doc_repetition(sf_dir: str) -> Any:
    """Gopher-style intra-document repetition audit: per doc, the most
    frequent word bigram's count, total bigrams, distinct bigrams — the
    exact-integer basis for the 'top-2-gram fraction' and 'duplicate
    2-gram fraction' quality filters. Per-batch map, nothing shuffles."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        repetition_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


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


def q_lm_scored_docs(sf_dir: str) -> Any:
    """CCNet-style bigram-LM quality score: train exact gram counts on the
    lang=='en' subset (one fused exchange), broadcast the tables once,
    score EVERY doc in one map pass — exact integers (lm_logp_e6,
    n_bigrams); golden-parquet oracle recomputes single-process through
    the same kernels."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        lm_score,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    train = docs.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en"))
        .select(["text"]), batch_format="pyarrow")
    return lm_score(train, docs)


def _dsir_inputs(sf_dir: str):
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    target = docs.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en"))
        .select(["text"]), batch_format="pyarrow")
    return target, docs


def q_semdedup_embeddings(sf_dir: str) -> Any:
    """SemDeDup (Abbas et al. 2023): semantic near-dup removal with the
    quadratic pair search bounded by deterministic k-means clusters —
    one centroid fit, one assignment pass, one cluster-keyed exchange
    whose folds drop every row with an earlier same-cluster neighbor at
    cosine >= 0.3 (stages/semdedup.py). Golden oracle recomputes
    single-process through the same kernels."""
    from calendar_event_entity_extraction_ray.stages.semdedup import (
        semdedup_drop,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = semdedup_drop(ds, k=8, tau=0.3)
    return _int64(out.to_pandas(), ["vec_id", "cluster"])


def q_semdedup_incremental(sf_dir: str) -> Any:
    """Epoch-incremental SemDeDup (stages/embstore.py): the embeddings
    table arrives as two epochs (vec_id parity); epoch-1 survivors
    persist per k-means cell (centroids frozen by the first epoch — the
    vecstore codebook rule), epoch-2 vectors drop against any stored
    same-cell vector OR a smaller-id same-epoch vector at cosine >=
    tau. Returns (vec_id, epoch) of every SURVIVOR; the golden oracle
    replays both epochs sequentially through the same
    incremental_drop_mask kernel."""
    import shutil as _sh
    import tempfile as _tf

    from calendar_event_entity_extraction_ray.stages.embstore import (
        dedup_epoch,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def _half(parity: int):
        def pick(b: pa.Table, _p=parity) -> pa.Table:
            ids = b.column("vec_id").to_numpy(zero_copy_only=False)
            return b.filter(pa.array(ids % 2 == _p))
        return ds.map_batches(pick, batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_embs_")
    frames = []
    try:
        for parity, epoch in ((0, "e1"), (1, "e2")):
            surv = dedup_epoch(_half(parity), sd, epoch,
                               k=8, tau=0.3).to_pandas()
            ids = (surv["vec_id"] if "vec_id" in surv.columns
                   else pd.Series([], dtype="int64"))
            frames.append(pd.DataFrame(
                {"vec_id": ids.astype("int64"), "epoch": epoch}))
    finally:
        _sh.rmtree(sd, ignore_errors=True)  # result is eager
    out = pd.concat(frames, ignore_index=True).sort_values(
        ["epoch", "vec_id"], kind="stable").reset_index(drop=True)
    return _int64(out, ["vec_id"])


def q_dsir_scored_docs(sf_dir: str) -> Any:
    """DSIR importance scores (Xie et al. 2023): hashed unigram+bigram
    bucket multinomials fit on the lang=='en' target vs the full raw
    corpus (stream-reduced bincount partials — each pass ships
    |buckets| x |batches| rows), then every doc's log importance ratio
    as an exact int64 sum over a broadcast scaled-int table. Golden
    oracle recomputes single-process through the same kernels
    (stages/dsir.py)."""
    from calendar_event_entity_extraction_ray.stages.dsir import dsir_score

    target, docs = _dsir_inputs(sf_dir)
    return dsir_score(target, docs)


def q_dsir_selected_docs(sf_dir: str) -> Any:
    """DSIR selection: Gumbel-top-k importance resample (deterministic
    md5-driven Gumbel noise, the A-ES sampler convention) — the
    without-replacement sample of 100 raw docs with probability
    proportional to their importance weight, as a per-block partial
    top-k + one kilobyte fold."""
    from calendar_event_entity_extraction_ray.stages.dsir import dsir_select

    target, docs = _dsir_inputs(sf_dir)
    out = dsir_select(target, docs, k=100)
    return _int64(out.to_pandas(),
                  ["doc_id", "dsir_logratio_e6", "n_grams"])


def q_phash_dup_images(sf_dir: str) -> Any:
    """Perceptual image near-dup pairs: REAL pHash (gray -> 32x32 ->
    DCT-II -> median-threshold bits, functions/imagecodec.py) over the
    twin-planted media fixture, then the EXACT hamming pair join
    (stages/hamming.py — pigeonhole banding, max_dist+1 bands, lossless).
    Golden oracle is an INDEPENDENT brute-force all-pairs popcount —
    it checks the banding plan itself, not just the kernels."""
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        phash_batch,
        synth_media_with_twins,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_with_twins(n))
    ph = ds.map_batches(phash_batch, batch_format="pyarrow")
    pairs = hamming_near_pairs(ph, "phash", "media_id", max_dist=6)
    return _int64(pairs.to_pandas(), ["id_a", "id_b", "dist"])


def q_doc_len_drift(sf_dir: str) -> Any:
    """Exact two-sample KS drift (stages/drift.py) between the train and
    eval splits' doc-length distributions — the snapshot-drift monitor,
    published as cross-multiplied integers (ks_num, n_a, n_b) so the SQL
    window-CDF oracle matches bit-for-bit."""
    import pandas as pd

    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )
    from calendar_event_entity_extraction_ray.stages.drift import ks_drift

    docs = _read(sf_dir, "documents", columns=["text", "n_chars"])

    def side_filter(lo: int, hi: int):
        def f(b: pa.Table) -> pa.Table:
            keep = []
            for t in b.column("text").to_pylist():
                keep.append(t is not None
                            and lo <= stable_bucket(t, 10_000) < hi)
            return b.filter(pa.array(keep, pa.bool_())).select(
                ["n_chars"])

        return f

    a = docs.map_batches(side_filter(0, 7_500), batch_format="pyarrow")
    b = docs.map_batches(side_filter(7_500, 9_000),
                         batch_format="pyarrow")
    ks_num, na, nb, arg = ks_drift(a, b, "n_chars")
    return pd.DataFrame({
        "ks_num": pd.array([ks_num], dtype="int64"),
        "n_a": pd.array([na], dtype="int64"),
        "n_b": pd.array([nb], dtype="int64"),
        "arg_value": pd.array([arg], dtype="int64"),
    })


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


def q_afp_dup_audio(sf_dir: str) -> Any:
    """Audio near-dup pairs: REAL clip fingerprint (Haitsma-Kalker
    spectral-envelope bits + frame majority vote over the real WAV
    decode, functions/audiocodec.py:afp64) then the exact banded
    hamming join. Twin-planted fixture; golden oracle is the
    independent brute-force all-pairs mirror."""
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        afp_batch,
        synth_media_with_audio_twins,
    )

    n = max(100, int(10_000 * _sf_of(sf_dir)))
    ds = ray.data.from_arrow(synth_media_with_audio_twins(n))
    fp = ds.map_batches(afp_batch, batch_format="pyarrow")
    pairs = hamming_near_pairs(fp, "afp", "media_id", max_dist=8)
    return _int64(pairs.to_pandas(), ["id_a", "id_b", "dist"])


def q_simhash_near_docs(sf_dir: str) -> Any:
    """Simhash near-dup pairs at hamming <= 3 (Manku et al. 2007):
    the same exact banded hamming join over the existing per-doc
    simhash. Golden oracle = brute-force all-pairs mirror."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_simhash_column,
    )
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sh = ds.map_batches(lambda b: add_simhash_column(b, "text"),
                        batch_format="pyarrow").select_columns(
        ["doc_id", "simhash"])
    pairs = hamming_near_pairs(sh, "simhash", "doc_id", max_dist=3)
    return _int64(pairs.to_pandas(), ["id_a", "id_b", "dist"])


def q_token_batches_seqs(sf_dir: str) -> Any:
    """Training-tensor hand-off over the packed sequences
    (pipelines/traindata.py:token_batches): deterministic tokenizer ids
    padded to 256, published as exact-integer audit columns; golden
    recomputes through the same kernels over the frozen
    training_sequences mirror."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        token_batches,
        training_sequences,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = token_batches(training_sequences(docs))
    return _int64(out.to_pandas()[["bucket", "bin", "n_ids", "n_pad",
                                   "ids_fp"]],
                  ["bucket", "bin", "n_ids", "n_pad", "ids_fp"])


def q_bpe_token_batches_seqs(sf_dir: str) -> Any:
    """The full tokenizer-training loop closed: train BPE on the raw
    corpus (q_bpe_merges' trainer), then hand the packed training
    sequences to token_batches with the TRAINED tokenizer (ids =
    vocab-index + special offset). Golden recomputes both chains
    single-process through the same kernels."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        token_batches,
        training_sequences,
    )

    docs, model = _bpe_model(sf_dir)
    out = token_batches(training_sequences(docs), bpe_model=model)
    return _int64(out.to_pandas()[["bucket", "bin", "n_ids", "n_pad",
                                   "ids_fp"]],
                  ["bucket", "bin", "n_ids", "n_pad", "ids_fp"])


def q_unigram_token_batches_seqs(sf_dir: str) -> Any:
    """The unigram-LM tokenizer-training loop closed: train the unigram
    model on the raw corpus (q_unigram_vocab's trainer), then hand the
    packed training sequences to token_batches with the TRAINED
    tokenizer (piece ids = sorted-piece-index + special offset). Golden
    recomputes both chains single-process through the same kernels."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        token_batches,
        training_sequences,
    )

    docs, model = _unigram_model(sf_dir)
    out = token_batches(training_sequences(docs), unigram_model=model)
    return _int64(out.to_pandas()[["bucket", "bin", "n_ids", "n_pad",
                                   "ids_fp"]],
                  ["bucket", "bin", "n_ids", "n_pad", "ids_fp"])


def q_simhash_dedup_docs(sf_dir: str) -> Any:
    """Simhash near-dedup with the CLUSTER keeper rule (the corpus_clean
    canonicalization pattern applied to the hamming family): exact banded
    pairs at hamming <= 3 -> connected components (min-label) -> keep
    ONE doc per component (the smallest id), drop the rest via the
    exchange anti join. Golden oracle = independent brute-force pairs +
    union-find mirror."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_simhash_column,
    )
    from calendar_event_entity_extraction_ray.stages.graph import (
        connected_components,
    )
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )
    from calendar_event_entity_extraction_ray.stages.joins import anti_join

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sh = docs.map_batches(lambda b: add_simhash_column(b, "text"),
                          batch_format="pyarrow").select_columns(
        ["doc_id", "simhash"])
    pairs = hamming_near_pairs(sh, "simhash", "doc_id", max_dist=3)
    cc = connected_components(pairs, "id_a", "id_b")

    def losers(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.not_equal(b.column("node"), b.column("cluster"))
        return pa.table({"doc_id": b.filter(keep).column("node")})

    drop = cc.map_batches(losers, batch_format="pyarrow")
    kept = anti_join(docs.select_columns(["doc_id"]), drop,
                     "doc_id", ["doc_id"])
    return _int64(kept.to_pandas(), ["doc_id"])


def _bpe_model(sf_dir: str):
    """Shared trainer for the BPE queries: exact distributed word
    histogram -> top-K cap -> driver merge loop (stages/bpetrain.py).
    Fixed (n_merges, top_k) so both queries and both goldens agree."""
    from calendar_event_entity_extraction_ray.stages.bpetrain import (
        train_bpe,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs, train_bpe(docs, n_merges=200, top_k=20_000)


def _unigram_model(sf_dir: str):
    """Shared trainer for the unigram-LM queries: the SAME exact
    distributed word histogram the BPE trainer uses, then the
    driver-side Viterbi-EM loop (stages/unigramtrain.py). Fixed
    (vocab_size, top_k) so the queries and goldens agree."""
    from calendar_event_entity_extraction_ray.stages.unigramtrain import (
        train_unigram,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs, train_unigram(docs, vocab_size=800, top_k=20_000)


def q_unigram_vocab(sf_dir: str) -> Any:
    """Unigram-LM tokenizer TRAINING (Kudo 2018 / SentencePiece, hard-EM
    form): corpus-sized work is the one exact word-type histogram
    exchange; seeding, Viterbi-EM and pruning run over the bounded
    word-TYPE table driver-side. Output = the trained vocabulary
    (piece, logp_e6); golden recomputes single-process through the same
    kernels (functions/unigram.py)."""
    from calendar_event_entity_extraction_ray.stages.unigramtrain import (
        vocab_table,
    )

    _, model = _unigram_model(sf_dir)
    return vocab_table(model)


def q_unigram_tokenized_docs(sf_dir: str) -> Any:
    """Trained-unigram Viterbi encode of every doc: one broadcast of the
    piece table + pre-encoded head vocabulary, per-batch distinct-word
    decode, exact int64 outputs (piece count + siphash fingerprint of
    the piece stream)."""
    from calendar_event_entity_extraction_ray.stages.unigramtrain import (
        unigram_tokenize,
    )

    docs, model = _unigram_model(sf_dir)
    out = unigram_tokenize(docs, model)
    return _int64(out.to_pandas(), ["doc_id", "n_pieces", "pieces_fp"])


def q_bpe_merges(sf_dir: str) -> Any:
    """BPE tokenizer TRAINING (Sennrich 2016 / the HF-trainer shape):
    the corpus-sized work is one exact word-type histogram on the
    exchange; the merge loop runs over the bounded capped histogram
    driver-side — vocabulary-sized, never corpus-sized. Golden oracle
    recomputes single-process through the same kernels
    (functions/bpe.py)."""
    import pandas as pd

    _, model = _bpe_model(sf_dir)
    return pd.DataFrame({
        "rank": pd.array(range(len(model.merges)), dtype="int64"),
        "lhs": [a for a, _ in model.merges],
        "rhs": [b for _, b in model.merges],
    })


def q_bpe_tokenized_docs(sf_dir: str) -> Any:
    """Trained-BPE encode of every doc: one broadcast of the merge-rank
    dict, per-batch word-type cache (encode_word runs once per distinct
    word per batch, not per token), exact int64 outputs (token count +
    siphash fingerprint of the token stream)."""
    from calendar_event_entity_extraction_ray.stages.bpetrain import (
        bpe_tokenize,
    )

    docs, model = _bpe_model(sf_dir)
    out = bpe_tokenize(docs, model)
    return _int64(out.to_pandas(), ["doc_id", "n_tokens", "tokens_fp"])


def _attendee_pair_edges(sf_dir: str) -> Any:
    """Ordered DISTINCT co-attendance pairs (a1 < a2) from the flagship
    triples — the shared edge list for the graph-analytics queries
    (same per-subject pair fold as q_triangle_count; global distinct is
    each consumer's job — k_core/bfs symmetrize + dedup internally)."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    att = kg_triples(pages).map_batches(
        lambda b: add_hash_column(
            b.filter(pc.equal(b.column("pred"), "hasAttendee"))
            .select(["subj", "obj"]), ["subj"], out_col="_kh"),
        batch_format="pyarrow")

    def pair_fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        u = df.drop_duplicates()
        m = u.merge(u, on="subj", suffixes=("_x", "_y"))
        m = m[m["obj_x"] < m["obj_y"]]
        out = (m[["obj_x", "obj_y"]].drop_duplicates()
               .rename(columns={"obj_x": "a1", "obj_y": "a2"}))
        return pa.Table.from_pandas(out, preserve_index=False)

    return hash_partition_map(att, "_kh", pair_fold)


def q_kg_attendee_kcore(sf_dir: str) -> Any:
    """k-core (k=3) of the co-attendance entity graph: the maximal
    subgraph where every attendee shares events with >= 3 distinct
    others — the dense social core a KG curation pass would keep.
    Iterative distributed peeling (stages/graph.py:k_core); oracle =
    an independent single-process dict peel over the frozen golden
    triples (tests/golden/oracle/kg_attendee_kcore.parquet)."""
    from calendar_event_entity_extraction_ray.stages.graph import k_core

    edges = _attendee_pair_edges(sf_dir)
    return k_core(edges, "a1", "a2", k=3)


def q_kg_bfs_hops(sf_dir: str) -> Any:
    """Unweighted shortest-path hop counts from the lexicographically
    first attendee over the co-attendance graph (distributed BFS,
    stages/graph.py:bfs_distances — min-plus frontier relaxation on the
    exchange). Oracle = a DuckDB RECURSIVE CTE (UNION-distinct frontier,
    MIN(dist) per node) over the same frozen golden triples."""
    from ray.data.aggregate import Min

    from calendar_event_entity_extraction_ray.stages.graph import (
        bfs_distances,
    )

    edges = _attendee_pair_edges(sf_dir).materialize()
    seed = edges.aggregate(Min("a1", alias_name="s"))["s"]
    return bfs_distances(edges, "a1", "a2", [seed], max_depth=25)


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


BM25_QUERY_TERMS = ("hash", "join", "vector")
BM25_K1, BM25_B, BM25_TOPK = 1.2, 0.75, 20


def q_bm25_topk_docs(sf_dir: str) -> Any:
    """BM25 top-k retrieval over the corpus for a fixed 3-term query —
    the ranked-retrieval op a decontamination / eval-similarity pass
    needs at corpus scale. Three streaming passes: (N, sum dl) aggregate,
    per-query-term df (per-batch presence partials, tiny fold), then one
    vectorized scoring pass with per-batch partial top-k folded once
    (only ~k rows per batch ever leave the scan tasks). The double chain
    (ln / * / /) is written in the SAME association order as the SQL
    oracle, term-by-term in fixed order, so floor(score*1e6+0.5) is
    bit-exact; ties pin on doc_id ASC."""
    import numpy as np

    from ray.data.aggregate import Count, Sum

    def drop_null_text(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.is_valid(b.column("text")))

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(drop_null_text,
                        batch_format="pyarrow").materialize()  # consumed 3x

    def dl_batch(b: pa.Table) -> pa.Table:
        dls = [len(t.split(" ")) for t in b.column("text").to_pylist()]
        return pa.table({"dl": pa.array(dls, pa.int64())})

    agg = ds.map_batches(dl_batch, batch_format="pyarrow").aggregate(
        Count(alias_name="n"), Sum("dl", alias_name="sdl"))
    n_docs, sum_dl = int(agg["n"]), int(agg["sdl"])
    avgdl = float(sum_dl) / float(n_docs)

    def df_partial(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        dfs = [0] * len(BM25_QUERY_TERMS)
        for t in texts:
            ws = set(t.split(" "))
            for i, q in enumerate(BM25_QUERY_TERMS):
                if q in ws:
                    dfs[i] += 1
        return pa.table({"term": pa.array(list(BM25_QUERY_TERMS)),
                         "df": pa.array(dfs, pa.int64())})

    df_by_term = {q: 0 for q in BM25_QUERY_TERMS}
    for b in ds.map_batches(df_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for term, df_ in zip(b.column("term").to_pylist(),
                             b.column("df").to_pylist()):
            df_by_term[term] += df_
    # idf exactly as the SQL writes it: ln((N - df + 0.5) / (df + 0.5) + 1)
    idf = [float(np.log((n_docs - df_by_term[q] + 0.5)
                        / (df_by_term[q] + 0.5) + 1.0))
           for q in BM25_QUERY_TERMS]

    def score_batch(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        words = [t.split(" ") for t in texts]
        dl = np.array([len(w) for w in words], dtype=np.float64)
        score = np.zeros(len(words))
        # fixed term order; association mirrors the SQL expression:
        # idf * ((tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl)))
        for i, q in enumerate(BM25_QUERY_TERMS):
            tf = np.array([w.count(q) for w in words], dtype=np.float64)
            score = score + idf[i] * (
                (tf * 2.2) / (tf + BM25_K1 * (0.25 + BM25_B * dl / avgdl)))
        df = pd.DataFrame({
            "doc_id": b.column("doc_id").to_pandas(),
            "score_e6": np.floor(score * 1e6 + 0.5).astype(np.int64)})
        df = df.sort_values(["score_e6", "doc_id"],
                            ascending=[False, True]).head(BM25_TOPK)
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_fold(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(
            ["score_e6", "doc_id"],
            ascending=[False, True]).head(BM25_TOPK).reset_index(drop=True)
        df["rnk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (ds.map_batches(score_batch, batch_format="pyarrow")
            .repartition(1)
            .map_batches(final_fold, batch_size=None,
                         batch_format="pyarrow"))


def q_kg_attendee_walks(sf_dir: str) -> Any:
    """DeepWalk-style corpus generation: one deterministic 5-hop random
    walk per attendee over the co-attendance graph, rows
    (walk_id, step, node). Next hops draw from a (walk, step, seed)
    siphash stream, so the corpus is partitioning-invariant and
    re-runnable; oracle = an independent dict-adjacency replay of the
    same stream (tests/golden/oracle/kg_attendee_walks.parquet)."""
    from calendar_event_entity_extraction_ray.stages.graph import (
        random_walks,
    )

    edges = _attendee_pair_edges(sf_dir)
    return random_walks(edges, "a1", "a2", walk_len=5, seed=0)


def q_kg_attendee_communities(sf_dir: str) -> Any:
    """Community detection over the co-attendance graph: synchronous
    label propagation, 4 fixed rounds, most-frequent-neighbor-label with
    ties to the minimum — deterministic and partitioning-invariant
    (classic async LPA is neither), so the oracle is an independent
    dict/Counter replay of the same rule."""
    from calendar_event_entity_extraction_ray.stages.graph import (
        label_propagation,
    )

    edges = _attendee_pair_edges(sf_dir)
    return label_propagation(edges, "a1", "a2", iters=4)


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


def q_knn_stored(sf_dir: str) -> Any:
    """Persisted-IVF ANN: build the cell-partitioned vector store once
    (stages/vecstore.py — workers write one file per cell, driver
    records centroids + files), then answer 3 queries reading ONLY the
    probed cells' files (the zone-map idea for embeddings). Partial
    top-k cuts on the final (score_e6 desc, id asc) total order, so the
    result equals one global sort — mirrored single-process in the
    golden."""
    import tempfile as _tf

    from calendar_event_entity_extraction_ray.stages.vecstore import (
        build_ivf_store,
        query_ivf_store,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = ds.take(3)
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    import shutil as _sh

    store = _tf.mkdtemp(prefix="cee_vstore_")
    try:
        build_ivf_store(ds, store, n_cells=16, sample_size=4096)
        out = query_ivf_store(store, queries, k=10, n_probe=4)
    finally:
        _sh.rmtree(store, ignore_errors=True)  # result is eager
    return _int64(out.to_pandas(),
                  ["query_id", "rank", "vec_id", "score_e6"])


def q_knn_stored_pq(sf_dir: str) -> Any:
    """PQ-coded persisted IVF (build_ivf_store(pq_m=8)): the candidate
    scan reads only (vec_id, pq_code) — 8 bytes/vector instead of 512 —
    shortlists rerank*k by the ADC approximation, then re-ranks the
    shortlist EXACTLY from the raw embedding column (id-filtered read,
    row-group prune on the id-sorted cells). Output schema and the
    cut orders match q_knn_stored; the golden replays both stages
    single-process (make_goldens.py:golden_knn_stored_pq)."""
    import shutil as _sh
    import tempfile as _tf

    from calendar_event_entity_extraction_ray.stages.vecstore import (
        build_ivf_store,
        query_ivf_store,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    qrows = ds.take(3)
    queries = np.asarray([r["embedding"] for r in qrows],
                         dtype=np.float64)
    store = _tf.mkdtemp(prefix="cee_vstore_pq_")
    try:
        build_ivf_store(ds, store, n_cells=16, sample_size=4096, pq_m=8)
        out = query_ivf_store(store, queries, k=10, n_probe=4, rerank=4)
    finally:
        _sh.rmtree(store, ignore_errors=True)  # result is eager
    return _int64(out.to_pandas(),
                  ["query_id", "rank", "vec_id", "score_e6"])


def q_late_data_windows(sf_dir: str) -> Any:
    """Watermarked incremental windowing (stages/watermark.py): the
    events table arrives as two epochs (event_id parity — deterministic
    in both engines), each advancing the event-time watermark to
    max(ts) - 2h; tumbling 1-h windows seal once fully below the
    watermark, and epoch-2 rows targeting already-sealed windows are
    LATE (side-output, excluded from the sealed counts). Returns the
    final+open window state; the DuckDB oracle replays the two-epoch
    watermark protocol as CTEs."""
    import shutil as _sh
    import tempfile as _tf

    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_window_state,
        tumbling_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    def _half(parity: int):
        return ds.map_batches(
            lambda b, _p=parity: b.filter(pc.equal(
                pc.bit_wise_and(b.column("event_id"), 1), _p)),
            batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_wm_")
    try:
        tumbling_window_epoch(_half(0), sd, "e0", window_minutes=60,
                              allowed_lateness_minutes=120)
        tumbling_window_epoch(_half(1), sd, "e1", window_minutes=60,
                              allowed_lateness_minutes=120)
        out = read_window_state(sd).to_pandas()
    finally:
        _sh.rmtree(sd, ignore_errors=True)  # result is eager
    return _int64(out, ["window_start_us", "n"])


def q_late_data_sliding(sf_dir: str) -> Any:
    """Watermarked SLIDING windows (tumbling_window_epoch(slide_minutes=
    ...)): every event lands in window/slide = 2 overlapping 1-h windows
    on a 30-min slide; lateness is judged per TARGET window, so an
    epoch-2 event's older assignment can be late while its newer one
    proceeds. Two epochs by event_id parity, lateness 2 h; oracle =
    the tumbling CTE protocol over the doubled assignment relation."""
    import shutil as _sh
    import tempfile as _tf

    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_window_state,
        tumbling_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    def _half(parity: int):
        return ds.map_batches(
            lambda b, _p=parity: b.filter(pc.equal(
                pc.bit_wise_and(b.column("event_id"), 1), _p)),
            batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_slw_")
    try:
        for parity, epoch in ((0, "e0"), (1, "e1")):
            tumbling_window_epoch(
                _half(parity), sd, epoch, window_minutes=60,
                slide_minutes=30, allowed_lateness_minutes=120)
        out = read_window_state(sd).to_pandas()
    finally:
        _sh.rmtree(sd, ignore_errors=True)  # result is eager
    return _int64(out, ["window_start_us", "n"])


def q_late_data_sessions(sf_dir: str) -> Any:
    """Watermarked SESSION windows (stages/watermark.py:
    session_window_epoch): the genuinely-streaming window shape, since
    sessions MERGE across epochs — an epoch-2 event inside the 30-min
    gap of an epoch-1 open session extends or fuses it. Two epochs by
    event_id parity, lateness 2 h; epoch-2 rows at or below the epoch-1
    watermark are LATE (side-output, excluded). Returns sealed + open
    sessions; the oracle replays the protocol as gaps-and-islands CTEs."""
    import shutil as _sh
    import tempfile as _tf

    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_session_state,
        session_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    def _half(parity: int):
        return ds.map_batches(
            lambda b, _p=parity: b.filter(pc.equal(
                pc.bit_wise_and(b.column("event_id"), 1), _p)),
            batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_swm_")
    try:
        session_window_epoch(_half(0), sd, "e0", gap_minutes=30,
                             allowed_lateness_minutes=120)
        session_window_epoch(_half(1), sd, "e1", gap_minutes=30,
                             allowed_lateness_minutes=120)
        out = read_session_state(sd).to_pandas()
    finally:
        _sh.rmtree(sd, ignore_errors=True)  # result is eager
    return _int64(out, ["start_us", "end_us", "n"])


def q_hist_state_quantiles(sf_dir: str) -> Any:
    """Epoch-incremental per-key histogram state (stages/histstate.py):
    two epochs of (event_type, value) rows (event_id parity) sum-merge
    into a sparse (key, bucket) count table — buckets are exact integer
    cents // 500 — and the serving read derives per-key quantile
    BUCKETS at rank (q*total+99)//100 (integer ceil, bit-identical in
    numpy and DuckDB). The oracle replays buckets + cumulative-window
    rank selection over the full events table in SQL — state == batch
    by the sum-merge argument."""
    import shutil as _sh
    import tempfile as _tf

    from calendar_event_entity_extraction_ray.stages.histstate import (
        hist_epoch,
        read_quantiles,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type",
                                          "value"])

    def _half(parity: int):
        def pick(b: pa.Table, _p=parity) -> pa.Table:
            ids = b.column("event_id").to_numpy(zero_copy_only=False)
            return b.filter(pa.array(ids % 2 == _p))
        return ds.map_batches(pick, batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_hist_")
    try:
        hist_epoch(_half(0), sd, "e1", width_cents=500)
        hist_epoch(_half(1), sd, "e2", width_cents=500)
        out = read_quantiles(sd, qs=[50, 90, 99])
    finally:
        _sh.rmtree(sd, ignore_errors=True)  # result is eager
    return _int64(out, ["n_total", "q50_bucket", "q90_bucket",
                        "q99_bucket"])


def q_sealed_windows_total(sf_dir: str) -> Any:
    """The SERVING read over sealed window outputs (stages/watermark.py:
    read_final_windows): three epochs of events (event_id mod 3) ingest
    into tumbling 1-h windows under a 2-h lateness watermark, then the
    query joins the per-epoch SEALED shards across all three epochs —
    (key, window, count, sealing epoch). Open windows and late rows are
    excluded by construction; the DuckDB oracle replays the three-epoch
    watermark protocol as chained CTEs, tagging each sealed window with
    the epoch that sealed it."""
    import shutil as _sh
    import tempfile as _tf

    from calendar_event_entity_extraction_ray.stages.watermark import (
        read_final_windows,
        tumbling_window_epoch,
    )

    ds = _read(sf_dir, "events", columns=["event_id", "event_type", "ts"])

    def _third(rem: int):
        def pick(b: pa.Table, _r=rem) -> pa.Table:
            ev = b.column("event_id").to_numpy(zero_copy_only=False)
            return b.filter(pa.array(ev % 3 == _r))
        return ds.map_batches(pick, batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_swt_")
    try:
        for rem, epoch in ((0, "e0"), (1, "e1"), (2, "e2")):
            tumbling_window_epoch(_third(rem), sd, epoch,
                                  window_minutes=60,
                                  allowed_lateness_minutes=120)
        out = read_final_windows(sd).to_pandas()
    finally:
        _sh.rmtree(sd, ignore_errors=True)  # result is eager
    out = out.sort_values(["epoch", "event_type", "window_start_us"],
                          kind="stable").reset_index(drop=True)
    return _int64(out, ["window_start_us", "n"])


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


def q_hll_state_distinct(sf_dir: str) -> Any:
    """Epoch-incremental approximate-distinct state (stages/hllstate.py):
    events arrive as two epochs (event_id parity); per-event-type HLL
    registers maintained as sparse (key, bucket, rank) rows whose
    max-merge is order-independent AND idempotent — state across epochs
    equals the single-shot batch registers bit-for-bit (pinned by
    tests). Oracle-shaped output: exact per-type distinct users plus an
    indicator that the STATE-served estimate landed within 5%."""
    import shutil as _sh
    import tempfile as _tf

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

    def half(parity: int):
        import pyarrow.compute as pc

        return ds.map_batches(
            lambda b, _p=parity: (lambda f: pa.table({
                "k": f.column("event_type"),
                "v": f.column("user_id").cast(pa.string())}))(
                b.filter(pc.equal(
                    pc.bit_wise_and(b.column("event_id"), 1), _p))),
            batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_hll_")
    try:
        hll_distinct_epoch(half(0), sd, "e1", "k", "v", p=12,
                           num_partitions=8)
        hll_distinct_epoch(half(1), sd, "e2", "k", "v", p=12,
                           num_partitions=8)
        est = dict(zip(*(c for _, c in read_hll_distinct(sd).items())))
    finally:
        _sh.rmtree(sd, ignore_errors=True)

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


def q_grouped_sample_docs(sf_dir: str) -> Any:
    """Per-group deterministic random sample (training-mix subsampling:
    k docs PER SOURCE, chosen by md5 order so the sample is re-runnable
    and partitioning-independent). The skew-safe top-k-per-group
    machinery does the work: per-batch local top-k means a hot source
    ships k rows per batch, never its population. Per-row md5 is the
    documented DuckDB-parity exception (cold/small path)."""
    import hashlib

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        top_k_per_group,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def key(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.is_valid(b.column("text")))
        ks = [int(hashlib.md5(t.encode()).hexdigest()[:8], 16)
              for t in b.column("text").to_pylist()]
        return pa.table({"source": b.column("source"),
                         "doc_id": b.column("doc_id"),
                         "skey": pa.array(ks, pa.int64())})

    out = top_k_per_group(ds.map_batches(key, batch_format="pyarrow"),
                          group_col="source", order_col="skey", k=10,
                          tiebreak_col="doc_id")
    return out.select_columns(["source", "doc_id", "rnk"])


def q_entity_registry(sf_dir: str) -> Any:
    """Epoch-incremental entity resolution with STABLE canonical ids
    (stages/entityreg.py): part surfaces arrive as two crawl epochs
    (split by p_partkey parity); epoch-2 typos adopt epoch-1 canonicals,
    already-registered surfaces keep their ids, new clusters mint the
    min member. Store presharded by deletion-variant hash (fpstore
    pattern); golden oracle replays the same incremental semantics
    single-process with brute-force distance."""
    import shutil as _sh
    import tempfile as _tf

    from calendar_event_entity_extraction_ray.stages.entityreg import (
        lookup_surfaces,
        register_epoch,
    )

    parts = _read(sf_dir, "part", columns=["p_partkey", "p_name"])

    def epoch_half(parity: int):
        import pyarrow.compute as pc

        return parts.map_batches(
            lambda b, _p=parity: pa.table({"surface": b.filter(pc.equal(
                pc.bit_wise_and(b.column("p_partkey"), 1),
                _p)).column("p_name")}),
            batch_format="pyarrow")

    sd = _tf.mkdtemp(prefix="cee_entreg_")
    try:
        register_epoch(epoch_half(0), sd, "e1", num_partitions=16)
        register_epoch(epoch_half(1), sd, "e2", num_partitions=16)
        all_surfaces = parts.map_batches(
            lambda b: pa.table({"surface": b.column("p_name")}),
            batch_format="pyarrow")
        out = lookup_surfaces(all_surfaces, sd).to_pandas()
    finally:
        _sh.rmtree(sd, ignore_errors=True)  # result is eager
    return out


def q_pmi_term_pairs(sf_dir: str) -> Any:
    """Term-association mining: PMI between top-30-df term pairs over
    per-doc distinct terms (stages/text_analysis.py:pmi_term_pairs).
    Corpus work = one salted df count + one pre-aggregated pair-partial
    pass (bincount over pair ids, <= C(30,2) rows per batch); PMI math
    driver-side on the bounded pair table."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        pmi_term_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["text"])
    out = pmi_term_pairs(ds, top_n=30)
    return _int64(out, ["df_ab", "pmi_e6"])


def q_cdc_dedup_docs(sf_dir: str) -> Any:
    """Content-defined-chunking dedup (stages/cdcdedup.py): per-doc
    chunk-level redundancy via a vectorized gear-style rolling window —
    byte-level, alignment-free (insertions re-sync, unlike fixed-size or
    token-n-gram spans). One chunk exchange + one grouped reduce; golden
    oracle recomputes first-wins on raw chunk BYTES (hash-collision-proof
    mirror)."""
    from calendar_event_entity_extraction_ray.stages.cdcdedup import (
        cdc_dedup_docs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return cdc_dedup_docs(ds)


_DICT_TAG_PHRASES = tuple(
    f"{a} {b}"
    for a in ("fast", "slow", "big", "small")
    for b in ("table", "query", "scan", "join")
) + ("spark", "stream key")


def q_dict_tag_docs(sf_dir: str) -> Any:
    """Multi-pattern dictionary tagging (lexicon / blocklist matching,
    stages/dicttag.py): one (doc_id, tag) row per dictionary phrase
    occurring as a SUBSTRING of the text — DuckDB contains() semantics.
    Pure flat-map, no shuffle. This 18-phrase dictionary routes to the
    vectorized match_substring regime; the per-worker Aho-Corasick
    automaton regime (dictionary-size-independent scan for 10^6-phrase
    blocklists) is pinned row-identical by tests/test_dicttag.py."""
    from calendar_event_entity_extraction_ray.stages.dicttag import (
        tag_documents,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return tag_documents(ds, _DICT_TAG_PHRASES)


def entry() -> Any:
    """Flagship pipeline at smoke scale (sf0.001-equivalent)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )

    pages = synth_pages_dataset(500, seed=42)
    return kg_triples(pages).select_columns(["subj", "pred", "obj", "url"])


def queries() -> dict[str, Callable[[str], Any]]:
    return {
        # relational / generic operators (SQL oracles)
        "q1_lineitem_agg": q_lineitem_agg,
        "q6_revenue": q_revenue,
        "events_by_type": q_events_by_type,
        "events_hourly": q_events_hourly,
        "top_users": q_top_users,
        "doc_stats": q_doc_stats,
        "lang_histogram": q_lang_histogram,
        "dedup_documents": q_dedup_documents,
        "dedup_signature": q_dedup_signature,
        "split_counts": q_split_counts,
        "split_leakage": q_split_leakage,
        "token_counts": q_token_counts,
        "quality_scores": q_quality,
        "customer_order_totals": q_customer_order_totals,
        "nation_customers": q_nation_customers,
        "knn_topk": q_knn,
        "sessionize": q_sessionize,
        "count_windows": q_count_windows,
        "decayed_user_counts": q_decayed_user_counts,
        "count_windows_sliding": q_count_windows_sliding,
        "orders_priority": q_orders_priority,
        "brand_revenue": q_brand_revenue,
        "supplier_balance": q_supplier_balance,
        "order_revenue_hashjoin": q_order_revenue_hashjoin,
        "error_prev_click": q_error_prev_click,
        "events_sliding": q_events_sliding,
        "props_k_stats": q_props_stats,
        "embedding_dups": q_embedding_dups,
        # non-SQL-expressible (rows-only)
        "minhash_dedup_docs": q_minhash_dedup,
        "embedding_dups_lsh": q_embedding_dups_lsh,
        "approx_distinct_users": q_approx_distinct,
        "simhash_docs": q_simhash,
        "langid_docs": q_langid,
        "fingerprint_docs": q_fingerprint,
        "knn_lsh": q_knn_lsh,
        "kg_flagship": q_kg_flagship,
        "kg_entity_degree": q_kg_entity_degree,
        "augment_records": q_augment,
        "media_features": q_media_features,
        "media_frames": q_media_frames,
        "action_histogram": q_action_histogram,
        "kg_events_view": q_kg_events_view,
        "eval_metrics": q_eval_metrics,
        "tokenize_records": q_tokenize,
        "chatml_records": q_chatml,
        "knn_ivf": q_knn_ivf,
        "knn_pq": q_knn_pq,
        "knn_ivfpq": q_knn_ivfpq,
        "knn_multi": q_knn_multi,
        "split_lang_kl": q_split_lang_kl,
        "levenshtein_pairs_docs": q_levenshtein_pairs,
        "grouped_approx_quantiles": q_grouped_approx_quantiles,
        "jaccard_pairs_docs": q_jaccard_pairs,
        "corpus_clean": q_corpus_clean,
        "doc_sample": q_doc_sample,
        "dup_clusters": q_dup_clusters,
        "entity_resolution": q_entity_resolution,
        "entity_resolution_freq": q_entity_resolution_freq,
        "orders_price_range": q_orders_price_range,
        "order_price_quantiles": q_price_quantiles,
        "order_price_p_cont": q_order_price_p_cont,
        "order_global_rank": q_order_global_rank,
        "shuffle_docs": q_shuffle_docs,
        "resample_user_hourly": q_resample_user_hourly,
        "distinct_user_types": q_distinct_user_types,
        "chunk_docs": q_chunk_docs,
        "qty_discount_corr": q_qty_discount_corr,
        "user_mode_event": q_user_mode_event,
        "decontaminate_docs": q_decontaminate_docs,
        "decontaminate_docs_bloom": q_decontaminate_docs_bloom,
        "pack_docs": q_pack_docs,
        "weighted_sample_docs": q_weighted_sample_docs,
        "repeated_ngram_spans": q_repeated_ngram_spans,
        "customer_order_full": q_customer_order_full,
        "partsupp_qty": q_partsupp_qty,
        "training_sequences": q_training_sequences,
        "user_value_rank": q_user_value_rank,
        "dedup_spans_docs": q_dedup_spans_docs,
        "redact_pii": q_redact_pii,
        "grouped_heavy_hitters": q_grouped_heavy_hitters,
        "users_intersect": q_users_intersect,
        "users_except": q_users_except,
        "users_union": q_users_union,
        "users_intersect_all": q_users_intersect_all,
        "user_value_prank": q_user_value_prank,
        "region_nation_revenue": q_region_nation_revenue,
        "brand_small_qty": q_brand_small_qty,
        "parts_supplier_cnt": q_parts_supplier_cnt,
        "dominant_part_supplier": q_dominant_part_supplier,
        "priority_exists": q_priority_exists,
        "nation_pair_volume": q_nation_pair_volume,
        "returned_revenue": q_returned_revenue,
        "disjunctive_revenue": q_disjunctive_revenue,
        "lonely_late_supplier": q_lonely_late_supplier,
        "priority_line_counts": q_priority_line_counts,
        "promo_revenue": q_promo_revenue,
        "large_orders": q_large_orders,
        "term_postings": q_term_postings,
        "top_docs_per_source": q_top_docs_per_source,
        "stratified_sample_docs": q_stratified_sample,
        "term_df_top50": q_term_df,
        "error_click_burst": q_error_click_burst,
        "error_click_pairs": q_error_click_pairs,
        "label_centroids": q_label_centroids,
        "kmeans_labels": q_kmeans,
        "orders_no_bulk": q_orders_no_bulk,
        "user_windows": q_user_windows,
        "user_first_last": q_user_first_last,
        "user_range_sum": q_user_range_sum,
        "model_scored_docs": q_model_scored_docs,
        "customer_order_counts_left": q_customer_order_counts_left,
        "user_ntile": q_user_ntile,
        "value_variance": q_value_variance,
        "event_value_quantiles": q_event_value_quantiles,
        "docs_above_p90": q_docs_above_p90,
        "grouped_approx_distinct": q_grouped_approx_distinct,
        "orders_with_bulk": q_orders_with_bulk,
        "doc_len_cume": q_doc_len_cume,
        "user_event_pivot": q_user_event_pivot,
        "lineitem_melt": q_lineitem_melt,
        "user_value_lag": q_user_value_lag,
        "heavy_hitter_users": q_heavy_hitters,
        "cm_user_counts": q_cm_user_counts,
        "first_order": q_first_order,
        "supplier_value_share": q_supplier_value_share,
        "idle_rich_customers": q_idle_rich_customers,
        "events_rollup": q_events_rollup,
        "events_cube": q_events_cube,
        "events_grouping_sets": q_events_grouping_sets,
        "mix_sources": q_mix_sources,
        "user_next_value": q_user_next_value,
        "user_journey": q_user_journey,
        "pagerank_dups": q_pagerank,
        "regex_extract_docs": q_regex_extract,
        "dict_tag_docs": q_dict_tag_docs,
        "cdc_dedup_docs": q_cdc_dedup_docs,
        "pmi_term_pairs": q_pmi_term_pairs,
        "entity_registry": q_entity_registry,
        "grouped_sample_docs": q_grouped_sample_docs,
        "hll_state_distinct": q_hll_state_distinct,
        "trending_users": q_trending_users,
        "approx_value_quantiles": q_approx_value_quantiles,
        "segment_revenue": q_segment_revenue,
        "media_resampled": q_media_resampled,
        "profile_orders": q_profile_orders,
        "tfidf_top_terms": q_tfidf_top_terms,
        "custdist": q_custdist,
        "top_supplier": q_top_supplier,
        "profit_by_nation_year": q_profit_by_nation_year,
        "market_share": q_market_share,
        "winsorized_chars": q_winsorized_chars,
        "funnel_conversion": q_funnel_conversion,
        "co_attendance": q_co_attendance,
        "triangle_count": q_triangle_count,
        "cohort_retention": q_cohort_retention,
        "compression_ratio_docs": q_compression_ratio,
        "grouped_regression": q_grouped_regression,
        "doc_len_hist": q_doc_len_hist,
        "lang_len_hist": q_lang_len_hist,
        "doc_repetition": q_doc_repetition,
        "segment_nation_orders": q_segment_nation_orders,
        "lm_scored_docs": q_lm_scored_docs,
        "dsir_scored_docs": q_dsir_scored_docs,
        "semdedup_embeddings": q_semdedup_embeddings,
        "semdedup_incremental": q_semdedup_incremental,
        "dsir_selected_docs": q_dsir_selected_docs,
        "bpe_merges": q_bpe_merges,
        "bpe_tokenized_docs": q_bpe_tokenized_docs,
        "unigram_vocab": q_unigram_vocab,
        "unigram_tokenized_docs": q_unigram_tokenized_docs,
        "unigram_token_batches_seqs": q_unigram_token_batches_seqs,
        "phash_dup_images": q_phash_dup_images,
        "afp_dup_audio": q_afp_dup_audio,
        "dq_report_events": q_dq_report_events,
        "doc_len_drift": q_doc_len_drift,
        "simhash_near_docs": q_simhash_near_docs,
        "simhash_dedup_docs": q_simhash_dedup_docs,
        "token_batches_seqs": q_token_batches_seqs,
        "bpe_token_batches_seqs": q_bpe_token_batches_seqs,
        "kg_attendee_kcore": q_kg_attendee_kcore,
        "kg_bfs_hops": q_kg_bfs_hops,
        "value_mad_outliers": q_value_mad_outliers,
        "bm25_topk_docs": q_bm25_topk_docs,
        "user_active_coverage": q_user_active_coverage,
        "kg_attendee_walks": q_kg_attendee_walks,
        "kg_attendee_communities": q_kg_attendee_communities,
        "user_event_patterns": q_user_event_patterns,
        "knn_stored": q_knn_stored,
        "knn_stored_pq": q_knn_stored_pq,
        "late_data_windows": q_late_data_windows,
        "late_data_sessions": q_late_data_sessions,
        "late_data_sliding": q_late_data_sliding,
        "sealed_windows_total": q_sealed_windows_total,
        "hist_state_quantiles": q_hist_state_quantiles,
    }


_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "tests", "golden", "oracle")


def _golden(name: str) -> str:
    """Frozen golden-oracle parquet recomputed SINGLE-PROCESS by
    scripts/make_goldens.py (reference-semantics emitter / sequential
    mirrors) — checks the distributed execution against an independent
    sequential run of the same semantics."""
    return f"read_parquet('{_GOLDEN_DIR}/{name}.parquet')"


def oracle_sql() -> dict[str, str]:
    bucket = ("CAST(('0x' || substr(md5({col}), 1, 8)) AS BIGINT) % 10000")
    split_case = (
        "CASE WHEN " + bucket.format(col="text") + " < 7500 THEN 'train' "
        "WHEN " + bucket.format(col="text") + " < 9000 THEN 'eval' "
        "ELSE 'test' END"
    )
    sig = "lower(trim(regexp_replace(text, '\\s+', ' ', 'g')))"
    from calendar_event_entity_extraction_ray.functions.inthash import (
        shuffle_key32_sql,
    )

    skey = shuffle_key32_sql("doc_id", 42)
    return {
        "q1_lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(floor(l_quantity + 0.5) AS BIGINT)) AS BIGINT) AS sum_qty,
                   CAST(SUM(CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_base_price_cents,
                   CAST(SUM(CAST(floor(l_extendedprice * (1.0 - l_discount) * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS sum_disc_price_e4,
                   COUNT(*) AS count_order
            FROM lineitem
            WHERE l_shipdate < TIMESTAMP '1998-09-01'
            GROUP BY l_returnflag, l_linestatus
        """,
        "q6_revenue": """
            SELECT CAST(SUM(CAST(floor(l_extendedprice * l_discount * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4,
                   COUNT(*) AS n_lines
            FROM lineitem
            WHERE l_shipdate >= TIMESTAMP '1996-01-01'
              AND l_shipdate <  TIMESTAMP '1997-01-01'
              AND l_discount >= 0.05 AND l_quantity < 24
        """,
        "events_by_type": """
            SELECT event_type,
                   COUNT(*) AS n,
                   CAST(SUM(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS BIGINT) AS sum_value_cents,
                   MIN(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS min_value_cents,
                   MAX(CAST(floor(value * 100 + 0.5) AS BIGINT)) AS max_value_cents
            FROM events GROUP BY event_type
        """,
        "events_hourly": """
            SELECT event_type, date_trunc('hour', ts) AS hour, COUNT(*) AS n
            FROM events GROUP BY event_type, date_trunc('hour', ts)
        """,
        "top_users": """
            SELECT user_id, COUNT(*) AS n FROM events
            WHERE user_id IS NOT NULL
            GROUP BY user_id ORDER BY n DESC, user_id LIMIT 20
        """,
        "doc_stats": """
            SELECT COUNT(*) AS n_rows,
                   CAST(SUM(length(text)) AS BIGINT) AS sum_chars,
                   MIN(length(text)) AS min_chars,
                   MAX(length(text)) AS max_chars,
                   CAST((SUM(length(text)) * 100) // COUNT(*) AS BIGINT) AS avg_chars_x100
            FROM documents
        """,
        "lang_histogram": "SELECT lang, COUNT(*) AS n FROM documents WHERE lang IS NOT NULL GROUP BY lang",
        "dedup_documents": """
            SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text
        """,
        "dedup_signature": f"""
            SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY {sig}
        """,
        "split_counts": f"""
            SELECT {split_case} AS split, COUNT(*) AS n FROM documents GROUP BY 1
        """,
        "split_lang_kl": f"""
            WITH tagged AS (SELECT lang, {split_case} AS split
                            FROM documents),
            c AS (SELECT lang,
                         COUNT(*) FILTER (split = 'train') AS n1,
                         COUNT(*) FILTER (split = 'eval') AS n2
                  FROM tagged GROUP BY lang),
            t AS (SELECT CAST(SUM(n1) AS DOUBLE) AS t1,
                         CAST(SUM(n2) AS DOUBLE) AS t2 FROM c)
            SELECT lang,
                   CAST(FLOOR((CAST(n1 AS DOUBLE) / t1)
                        * ln((CAST(n1 AS DOUBLE) / t1)
                             / (CAST(n2 AS DOUBLE) / t2))
                        * 1e9 + 0.5) AS BIGINT) AS kl_term_e9
            FROM c, t WHERE n1 > 0 AND n2 > 0
        """,
        "split_leakage": f"""
            WITH tagged AS (
              SELECT doc_id, text, {split_case} AS split, {sig} AS sig
              FROM documents
            ),
            train_sigs AS (SELECT DISTINCT sig FROM tagged WHERE split = 'train'),
            eval_kept AS (
              SELECT doc_id, split, sig FROM tagged
              WHERE split = 'eval' AND sig NOT IN (SELECT sig FROM train_sigs)
            ),
            test_kept AS (
              SELECT doc_id, split, sig FROM tagged
              WHERE split = 'test'
                AND sig NOT IN (SELECT sig FROM train_sigs)
                AND sig NOT IN (SELECT sig FROM eval_kept)
            )
            SELECT doc_id, split FROM eval_kept
            UNION ALL SELECT doc_id, split FROM test_kept
        """,
        "token_counts": r"""
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE array_length(regexp_split_to_array(trim(text), '\s+'))
                   END AS n_tokens_ws,
                   length(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]')) AS n_tokens_bpe
            FROM documents
        """,
        "quality_scores": r"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   (length(regexp_replace(text, '[^A-Za-z]', '', 'g')) * 1000000)
                       // greatest(length(text), 1) AS alpha_ppm,
                   (length(regexp_replace(text, '[^0-9]', '', 'g')) * 1000000)
                       // greatest(length(text), 1) AS digit_ppm,
                   (length(regexp_extract_all(text, '[^A-Za-z0-9\s]')) * 1000000)
                       // greatest(length(text), 1) AS punct_ppm
            FROM documents
        """,
        "sessionize": """
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
        """,
        "decayed_user_counts": """
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
        """,
        "count_windows": """
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
        """,
        "count_windows_sliding": """
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
        """,
        "orders_priority": """
            SELECT o_orderpriority,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_price_cents
            FROM orders GROUP BY o_orderpriority
        """,
        "brand_revenue": """
            SELECT p.p_brand AS p_brand,
                   COUNT(*) AS n_lines,
                   CAST(SUM(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4
            FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
            GROUP BY p.p_brand
        """,
        "supplier_balance": """
            SELECT n.n_name AS n_name,
                   COUNT(*) AS n_suppliers,
                   CAST(SUM(CAST(floor(s.s_acctbal * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_acctbal_cents
            FROM supplier s JOIN nation n ON s.s_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "props_k_stats": """
            SELECT event_type,
                   COUNT(*) AS n,
                   CAST(SUM(CAST(json_extract(props, '$.k') AS BIGINT)) AS BIGINT) AS sum_k
            FROM events GROUP BY event_type
        """,
        "embedding_dups": """
            SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
            FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
            WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3
        """,
        "order_revenue_hashjoin": """
            SELECT o.o_orderpriority,
                   COUNT(*) AS n_lines,
                   CAST(SUM(CAST(floor(l.l_extendedprice * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS revenue_e4
            FROM orders o JOIN lineitem l ON o.o_orderkey = l.l_orderkey
            GROUP BY o.o_orderpriority
        """,
        "error_prev_click": """
            SELECT e.event_id, c.ts AS prev_click_ts
            FROM (SELECT event_id, ts, user_id FROM events WHERE event_type = 'error') e
            ASOF LEFT JOIN (SELECT ts, user_id FROM events WHERE event_type = 'click') c
              ON e.user_id = c.user_id AND e.ts >= c.ts
        """,
        "events_sliding": """
            SELECT event_type,
                   to_timestamp(CAST(floor(epoch(ts) / 900) * 900 - 900 * k AS BIGINT))::TIMESTAMP AS window_start,
                   COUNT(*) AS n
            FROM events CROSS JOIN (SELECT unnest([0,1,2,3]) AS k)
            GROUP BY 1, 2
        """,
        "customer_order_totals": """
            SELECT c.c_mktsegment AS c_mktsegment,
                   COUNT(*) AS n_orders,
                   CAST(SUM(CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)) AS BIGINT) AS total_price_cents
            FROM orders o JOIN customer c ON o.o_custkey = c.c_custkey
            GROUP BY c.c_mktsegment
        """,
        "nation_customers": """
            SELECT n.n_name AS n_name, COUNT(*) AS n_customers
            FROM customer c JOIN nation n ON c.c_nationkey = n.n_nationkey
            GROUP BY n.n_name
        """,
        "knn_topk": """
            SELECT vec_id FROM (
              SELECT vec_id,
                     list_cosine_similarity(embedding,
                       (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS s
              FROM embeddings
            ) ORDER BY s DESC, vec_id LIMIT 10
        """,
        "approx_distinct_users": """
            SELECT CAST(COUNT(DISTINCT user_id) AS BIGINT) AS exact_distinct_users,
                   1 AS hll_ok
            FROM events
        """,
        # --- golden-parquet oracles: independent SINGLE-PROCESS recompute
        # (scripts/make_goldens.py); the KG goldens come from the
        # reference-semantics emitter (functions/oracle.py) and the derived
        # views are plain SQL over that one emitter output.
        "kg_flagship": f"SELECT subj, pred, obj, url FROM {_golden('kg_flagship')}",
        "cdc_dedup_docs":
            f"SELECT doc_id, n_chunks, total_bytes, n_dup_chunks,"
            f" dup_bytes FROM {_golden('cdc_dedup_docs')}",
        "entity_registry":
            f"SELECT surface, entity_id FROM {_golden('entity_registry')}",
        "model_scored_docs":
            f"SELECT doc_id, score_e6 FROM {_golden('model_scored_docs')}",
        "lm_scored_docs":
            f"SELECT doc_id, lm_logp_e6, n_bigrams"
            f" FROM {_golden('lm_scored_docs')}",
        "dsir_scored_docs":
            f"SELECT doc_id, dsir_logratio_e6, n_grams"
            f" FROM {_golden('dsir_scored_docs')}",
        "dsir_selected_docs":
            f"SELECT doc_id, dsir_logratio_e6, n_grams"
            f" FROM {_golden('dsir_selected_docs')}",
        "semdedup_embeddings":
            f"SELECT vec_id, cluster"
            f" FROM {_golden('semdedup_embeddings')}",
        "semdedup_incremental":
            f"SELECT vec_id, epoch"
            f" FROM {_golden('semdedup_incremental')}",
        "bpe_merges":
            f"SELECT rank, lhs, rhs FROM {_golden('bpe_merges')}",
        "unigram_vocab":
            f"SELECT piece, logp_e6 FROM {_golden('unigram_vocab')}",
        "unigram_tokenized_docs":
            f"SELECT doc_id, n_pieces, pieces_fp"
            f" FROM {_golden('unigram_tokenized_docs')}",
        "phash_dup_images":
            f"SELECT id_a, id_b, dist"
            f" FROM {_golden('phash_dup_images')}",
        "afp_dup_audio":
            f"SELECT id_a, id_b, dist"
            f" FROM {_golden('afp_dup_audio')}",
        "doc_len_drift": """
            WITH lab AS (
                SELECT n_chars AS v,
                       CASE WHEN CAST(('0x' || substr(md5(text), 1, 8))
                                 AS BIGINT) % 10000 < 7500 THEN 'a'
                            WHEN CAST(('0x' || substr(md5(text), 1, 8))
                                 AS BIGINT) % 10000 < 9000 THEN 'b'
                       END AS side
                FROM documents
                WHERE text IS NOT NULL AND n_chars IS NOT NULL),
            g AS (
                SELECT v,
                       SUM(CASE WHEN side = 'a' THEN 1 ELSE 0 END) AS ca,
                       SUM(CASE WHEN side = 'b' THEN 1 ELSE 0 END) AS cb
                FROM lab WHERE side IS NOT NULL GROUP BY v),
            c AS (
                SELECT v,
                       SUM(ca) OVER (ORDER BY v) AS cuma,
                       SUM(cb) OVER (ORDER BY v) AS cumb,
                       (SELECT SUM(ca) FROM g) AS na,
                       (SELECT SUM(cb) FROM g) AS nb
                FROM g)
            SELECT CAST(ABS(cuma * nb - cumb * na) AS BIGINT) AS ks_num,
                   CAST(na AS BIGINT) AS n_a,
                   CAST(nb AS BIGINT) AS n_b,
                   v AS arg_value
            FROM c ORDER BY ABS(cuma * nb - cumb * na) DESC, v ASC
            LIMIT 1
        """,
        "dq_report_events": """
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
        """,
        "simhash_near_docs":
            f"SELECT id_a, id_b, dist"
            f" FROM {_golden('simhash_near_docs')}",
        "simhash_dedup_docs":
            f"SELECT doc_id FROM {_golden('simhash_dedup_docs')}",
        "token_batches_seqs":
            f"SELECT bucket, bin, n_ids, n_pad, ids_fp"
            f" FROM {_golden('token_batches_seqs')}",
        "bpe_token_batches_seqs":
            f"SELECT bucket, bin, n_ids, n_pad, ids_fp"
            f" FROM {_golden('bpe_token_batches_seqs')}",
        "unigram_token_batches_seqs":
            f"SELECT bucket, bin, n_ids, n_pad, ids_fp"
            f" FROM {_golden('unigram_token_batches_seqs')}",
        "bpe_tokenized_docs":
            f"SELECT doc_id, n_tokens, tokens_fp"
            f" FROM {_golden('bpe_tokenized_docs')}",
        "kg_entity_degree": f"""
            SELECT obj, COUNT(*) AS degree FROM {_golden('kg_flagship')}
            WHERE pred IN ('hasAttendee', 'hasLocation') GROUP BY obj
        """,
        "action_histogram": f"""
            SELECT obj AS action, COUNT(*) AS n FROM {_golden('kg_flagship')}
            WHERE pred = 'hasAction' GROUP BY obj
        """,
        "kg_events_view": f"""
            SELECT subj AS event_id, MIN(url) AS url,
                   MAX(CASE WHEN pred = 'hasAction' THEN obj END) AS action,
                   MAX(CASE WHEN pred = 'hasDate' THEN obj END) AS date,
                   MAX(CASE WHEN pred = 'hasTime' THEN obj END) AS time,
                   MAX(CASE WHEN pred = 'hasLocation' THEN obj END) AS location,
                   MAX(CASE WHEN pred = 'hasDuration' THEN obj END) AS duration,
                   MAX(CASE WHEN pred = 'hasRecurrence' THEN obj END) AS recurrence,
                   MAX(CASE WHEN pred = 'hasNote' THEN obj END) AS notes
            FROM {_golden('kg_flagship')} GROUP BY subj
        """,
        "simhash_docs": f"SELECT * FROM {_golden('simhash_docs')}",
        "langid_docs": f"SELECT * FROM {_golden('langid_docs')}",
        "fingerprint_docs": f"SELECT * FROM {_golden('fingerprint_docs')}",
        "minhash_dedup_docs": f"SELECT * FROM {_golden('minhash_dedup_docs')}",
        "embedding_dups_lsh": f"SELECT * FROM {_golden('embedding_dups_lsh')}",
        "knn_lsh": f"SELECT * FROM {_golden('knn_lsh')}",
        "augment_records": f"SELECT * FROM {_golden('augment_records')}",
        "eval_metrics": f"SELECT * FROM {_golden('eval_metrics')}",
        "media_features": f"SELECT * FROM {_golden('media_features')}",
        "media_frames": f"SELECT * FROM {_golden('media_frames')}",
        "tokenize_records": f"SELECT * FROM {_golden('tokenize_records')}",
        "chatml_records": f"SELECT * FROM {_golden('chatml_records')}",
        "knn_ivf": f"SELECT * FROM {_golden('knn_ivf')}",
        "knn_pq": f"SELECT * FROM {_golden('knn_pq')}",
        "knn_ivfpq": f"SELECT * FROM {_golden('knn_ivfpq')}",
        "knn_multi": """
            SELECT query_id, vec_id, rnk FROM (
              SELECT q.vec_id AS query_id, e.vec_id,
                     ROW_NUMBER() OVER (
                         PARTITION BY q.vec_id
                         ORDER BY list_cosine_similarity(
                                      e.embedding, q.embedding) DESC,
                                  e.vec_id) AS rnk
              FROM embeddings e,
                   (SELECT vec_id, embedding FROM embeddings
                    WHERE vec_id IN (0, 1, 2)) q)
            WHERE rnk <= 5
        """,
        "grouped_approx_quantiles": """
            SELECT event_type,
                   CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
                   CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2,
                   1 AS sk_ok
            FROM (SELECT event_type,
                         unnest([0.5, 0.9]) AS q,
                         unnest(quantile_disc(value, [0.5, 0.9])) AS v
                  FROM events GROUP BY event_type)
        """,
        "levenshtein_pairs_docs": """
            SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
                   CAST(levenshtein(a.text, b.text) AS BIGINT) AS dist
            FROM documents a, documents b
            WHERE a.doc_id < b.doc_id
              AND abs(length(a.text) - length(b.text)) <= 15
              AND levenshtein(a.text, b.text) <= 15
        """,
        "jaccard_pairs_docs": f"SELECT * FROM {_golden('jaccard_pairs_docs')}",
        "corpus_clean": f"SELECT * FROM {_golden('corpus_clean')}",
        "training_sequences":
            f"SELECT * FROM {_golden('training_sequences')}",
        "doc_sample": """
            SELECT doc_id FROM documents
            WHERE text IS NOT NULL
              AND CAST(('0x' || substr(md5(text), 1, 8)) AS BIGINT) % 100 < 5
        """,
        "entity_resolution": """
            WITH RECURSIVE w AS (
              SELECT DISTINCT p_name AS s FROM part WHERE p_name IS NOT NULL
            ),
            pairs AS (
              SELECT a.s AS sa, b.s AS sb
              FROM w a JOIN w b
                ON a.s < b.s
               AND abs(length(a.s) - length(b.s)) <= 1
               AND levenshtein(a.s, b.s) <= 1
            ),
            sym AS (
              SELECT sa AS a, sb AS b FROM pairs
              UNION SELECT sb AS a, sa AS b FROM pairs
            ),
            reach(node, peer) AS (
              SELECT a AS node, a AS peer FROM sym
              UNION
              SELECT r.node, s2.b AS peer
              FROM reach r JOIN sym s2 ON r.peer = s2.a
            ),
            cc AS (SELECT node, MIN(peer) AS canon FROM reach GROUP BY node)
            SELECT w.s AS surface, COALESCE(cc.canon, w.s) AS entity_id
            FROM w LEFT JOIN cc ON w.s = cc.node
        """,
        "orders_price_range": """
            SELECT o_orderkey,
                   CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS price_c
            FROM orders
            WHERE o_totalprice >= 1000.0 AND o_totalprice <= 3000.0
        """,
        "entity_resolution_freq": """
            WITH RECURSIVE w AS (
              SELECT p_name AS s, COUNT(*) AS n FROM part
              WHERE p_name IS NOT NULL GROUP BY p_name
            ),
            pairs AS (
              SELECT a.s AS sa, b.s AS sb
              FROM w a JOIN w b
                ON a.s < b.s
               AND abs(length(a.s) - length(b.s)) <= 1
               AND levenshtein(a.s, b.s) <= 1
            ),
            sym AS (
              SELECT sa AS a, sb AS b FROM pairs
              UNION SELECT sb AS a, sa AS b FROM pairs
            ),
            reach(node, peer) AS (
              SELECT a AS node, a AS peer FROM sym
              UNION
              SELECT r.node, s2.b AS peer
              FROM reach r JOIN sym s2 ON r.peer = s2.a
            ),
            cc AS (SELECT node, MIN(peer) AS cluster FROM reach
                   GROUP BY node),
            memb AS (
              SELECT w.s, COALESCE(cc.cluster, w.s) AS cluster, w.n
              FROM w LEFT JOIN cc ON w.s = cc.node
            ),
            canon AS (
              SELECT cluster, s AS winner FROM (
                SELECT cluster, s,
                       ROW_NUMBER() OVER (PARTITION BY cluster
                                          ORDER BY n DESC, s ASC) AS rn
                FROM memb) WHERE rn = 1
            )
            SELECT m.s AS surface, c.winner AS entity_id
            FROM memb m JOIN canon c ON m.cluster = c.cluster
        """,
        "dup_clusters": """
            WITH RECURSIVE pairs AS (
              SELECT a.vec_id AS a, b.vec_id AS b
              FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
              WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3
            ),
            sym AS (
              SELECT a, b FROM pairs UNION SELECT b AS a, a AS b FROM pairs
            ),
            reach(node, peer) AS (
              SELECT a AS node, a AS peer FROM sym
              UNION
              SELECT r.node, s.b AS peer FROM reach r JOIN sym s ON r.peer = s.a
            )
            SELECT node AS vec_id, CAST(MIN(peer) AS BIGINT) AS cluster
            FROM reach GROUP BY node
        """,
        "distinct_user_types": """
            SELECT DISTINCT user_id, event_type FROM events
        """,
        "qty_discount_corr": """
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
        """,
        "user_mode_event": """
            SELECT user_id, mode_type, n FROM (
                SELECT user_id, event_type AS mode_type,
                       CAST(COUNT(*) AS BIGINT) AS n,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id
                           ORDER BY COUNT(*) DESC, event_type) AS rn
                FROM events GROUP BY user_id, event_type)
            WHERE rn = 1
        """,
        "decontaminate_docs": """
            WITH s AS (
                SELECT doc_id, text,
                    CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                                   AS BIGINT) % 10000 < 7500 THEN 'train'
                         WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                                   AS BIGINT) % 10000 < 9000 THEN 'eval'
                         ELSE 'test' END AS split
                FROM documents),
            toks AS (
                SELECT doc_id, split, string_split(text, ' ') AS t
                FROM s WHERE text IS NOT NULL),
            grams AS (
                SELECT doc_id, split,
                       array_to_string(list_slice(t, i + 1, i + 4), ' ') AS gram
                FROM toks, unnest(generate_series(0, len(t) - 4, 1)) AS u(i))
            SELECT DISTINCT doc_id FROM grams
            WHERE split = 'train'
              AND gram IN (SELECT gram FROM grams WHERE split = 'eval')
        """,
        # the Bloom regime is exact (no false negatives; positives are
        # string-verified) — same oracle as the broadcast regime
        "decontaminate_docs_bloom": """
            WITH s AS (
                SELECT doc_id, text,
                    CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                                   AS BIGINT) % 10000 < 7500 THEN 'train'
                         WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                                   AS BIGINT) % 10000 < 9000 THEN 'eval'
                         ELSE 'test' END AS split
                FROM documents),
            toks AS (
                SELECT doc_id, split, string_split(text, ' ') AS t
                FROM s WHERE text IS NOT NULL),
            grams AS (
                SELECT doc_id, split,
                       array_to_string(list_slice(t, i + 1, i + 4), ' ') AS gram
                FROM toks, unnest(generate_series(0, len(t) - 4, 1)) AS u(i))
            SELECT DISTINCT doc_id FROM grams
            WHERE split = 'train'
              AND gram IN (SELECT gram FROM grams WHERE split = 'eval')
        """,
        "pack_docs": """
            WITH RECURSIVE t AS (
                SELECT doc_id,
                       CAST(len(string_split(text, ' ')) AS BIGINT) AS ntok,
                       doc_id // 32 AS bucket,
                       ROW_NUMBER() OVER (PARTITION BY doc_id // 32
                                          ORDER BY doc_id) AS rn
                FROM documents WHERE text IS NOT NULL),
            p AS (
                SELECT bucket, rn, doc_id, ntok,
                       CAST(0 AS BIGINT) AS bin, ntok AS acc
                FROM t WHERE rn = 1
                UNION ALL
                SELECT t.bucket, t.rn, t.doc_id, t.ntok,
                       CASE WHEN p.acc + t.ntok > 256
                            THEN p.bin + 1 ELSE p.bin END,
                       CASE WHEN p.acc + t.ntok > 256
                            THEN t.ntok ELSE p.acc + t.ntok END
                FROM p JOIN t ON t.bucket = p.bucket AND t.rn = p.rn + 1)
            SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, bin, ntok
            FROM p
        """,
        "weighted_sample_docs": """
            SELECT doc_id, n_chars FROM (
                SELECT doc_id, n_chars,
                       ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                                AS BIGINT) + 1) / 4294967297.0)
                       / n_chars AS k
                FROM documents WHERE n_chars > 0)
            ORDER BY k DESC, doc_id LIMIT 50
        """,
        "repeated_ngram_spans": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS t
                FROM documents WHERE text IS NOT NULL),
            grams AS (
                SELECT DISTINCT doc_id,
                       array_to_string(list_slice(t, i + 1, i + 6), ' ') AS gram
                FROM toks, unnest(generate_series(0, len(t) - 6, 1)) AS u(i))
            SELECT gram, CAST(COUNT(*) AS BIGINT) AS n_docs
            FROM grams GROUP BY gram HAVING COUNT(*) >= 2
        """,
        "customer_order_full": """
            SELECT COALESCE(c.custkey, o.custkey) AS custkey,
                   CAST(COALESCE(c.has_cust, 0) AS BIGINT) AS has_cust,
                   CAST(COALESCE(o.n_orders, 0) AS BIGINT) AS n_orders
            FROM (SELECT c_custkey AS custkey, 1 AS has_cust
                  FROM customer WHERE c_mktsegment = 'BUILDING') c
            FULL OUTER JOIN
                 (SELECT o_custkey AS custkey, COUNT(*) AS n_orders
                  FROM orders GROUP BY o_custkey) o
            ON c.custkey = o.custkey
        """,
        "dedup_spans_docs": """
            WITH toks AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS w,
                       generate_subscripts(string_split(text, ' '), 1) AS pos
                FROM documents WHERE text IS NOT NULL),
            lists AS (
                SELECT doc_id, string_split(text, ' ') AS t
                FROM documents WHERE text IS NOT NULL),
            grams AS (
                SELECT doc_id, i + 1 AS pos,
                       array_to_string(list_slice(t, i + 1, i + 6), ' ') AS gram
                FROM lists, unnest(generate_series(0, len(t) - 6, 1)) AS u(i)),
            rep AS (
                SELECT gram FROM (SELECT DISTINCT doc_id, gram FROM grams)
                GROUP BY gram HAVING COUNT(*) >= 2),
            hits AS (
                SELECT doc_id, pos FROM grams
                WHERE gram IN (SELECT gram FROM rep)),
            covered AS (
                SELECT DISTINCT t.doc_id, t.pos FROM toks t
                JOIN hits h ON h.doc_id = t.doc_id
                           AND t.pos BETWEEN h.pos AND h.pos + 5)
            SELECT t.doc_id, string_agg(t.w, ' ' ORDER BY t.pos)
                       AS clean_text
            FROM toks t LEFT JOIN covered c
              ON c.doc_id = t.doc_id AND c.pos = t.pos
            WHERE c.doc_id IS NULL
            GROUP BY t.doc_id
        """,
        "user_value_rank": """
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
        """,
        "redact_pii": """
            WITH aug AS (
                SELECT doc_id,
                       text || ' Contact u' || CAST(doc_id AS VARCHAR)
                            || '@ex.org or +1-202-555-0199, host 10.0.0.'
                            || CAST(doc_id % 200 AS VARCHAR) AS t
                FROM documents
            ), e AS (
                SELECT doc_id,
                       len(regexp_extract_all(t,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                           AS n_email,
                       regexp_replace(t,
                           '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                           '<EMAIL>', 'g') AS t
                FROM aug
            ), p AS (
                SELECT doc_id, n_email,
                       len(regexp_extract_all(t,
                           '\\+?[0-9]{1,3}-[0-9]{3}-[0-9]{3}-[0-9]{4}\\b'))
                           AS n_phone,
                       regexp_replace(t,
                           '\\+?[0-9]{1,3}-[0-9]{3}-[0-9]{3}-[0-9]{4}\\b',
                           '<PHONE>', 'g') AS t
                FROM e
            ), i AS (
                SELECT doc_id, n_email, n_phone,
                       len(regexp_extract_all(t,
                           '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b'))
                           AS n_ipv4,
                       regexp_replace(t,
                           '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b',
                           '<IP>', 'g') AS t
                FROM p
            )
            SELECT doc_id, t AS clean_text,
                   CAST(n_email AS BIGINT) AS n_email,
                   CAST(n_phone AS BIGINT) AS n_phone,
                   CAST(n_ipv4 AS BIGINT) AS n_ipv4
            FROM i
        """,
        "grouped_heavy_hitters": """
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
        """,
        "users_intersect": """
            SELECT user_id FROM events WHERE event_type = 'click'
            INTERSECT
            SELECT user_id FROM events WHERE event_type = 'purchase'
        """,
        "users_except": """
            SELECT user_id, date_trunc('day', ts) AS day
            FROM events WHERE event_type = 'click'
            EXCEPT
            SELECT user_id, date_trunc('day', ts)
            FROM events WHERE event_type = 'purchase'
        """,
        "users_union": """
            SELECT user_id FROM events WHERE event_type = 'signup'
            UNION
            SELECT user_id FROM events WHERE event_type = 'error'
        """,
        "users_intersect_all": """
            SELECT user_id FROM events WHERE event_type = 'click'
            INTERSECT ALL
            SELECT user_id FROM events WHERE event_type = 'purchase'
        """,
        "user_value_prank": """
            SELECT event_id, user_id,
                   CAST(FLOOR(PERCENT_RANK() OVER (
                       PARTITION BY user_id
                       ORDER BY CAST(floor(value) AS BIGINT))
                       * 1000000 + 0.5) AS BIGINT) AS prank_e6
            FROM events
        """,
        "region_nation_revenue": """
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
        """,
        "priority_exists": """
            SELECT o_orderpriority, COUNT(*) AS n_orders
            FROM orders
            WHERE o_orderdate >= TIMESTAMP '1996-01-01'
              AND o_orderdate <  TIMESTAMP '1996-07-01'
              AND o_orderpriority IS NOT NULL
              AND EXISTS (SELECT 1 FROM lineitem
                          WHERE l_orderkey = o_orderkey
                            AND l_returnflag = 'R')
            GROUP BY o_orderpriority
        """,
        "nation_pair_volume": """
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
        """,
        "returned_revenue": """
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
        """,
        "disjunctive_revenue": """
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
        """,
        "lonely_late_supplier": """
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
        """,
        "brand_small_qty": """
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
        """,
        "parts_supplier_cnt": """
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
        """,
        "dominant_part_supplier": """
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
        """,
        "priority_line_counts": """
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
        """,
        "promo_revenue": """
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
        """,
        "large_orders": """
            SELECT s.o_orderkey, s.total_qty, s.n_lines, o.o_custkey
            FROM (SELECT l_orderkey AS o_orderkey,
                         CAST(SUM(CAST(l_quantity AS BIGINT)) AS BIGINT)
                             AS total_qty,
                         COUNT(*) AS n_lines
                  FROM lineitem GROUP BY l_orderkey
                  HAVING SUM(CAST(l_quantity AS BIGINT)) > 180) s
            JOIN orders o ON o.o_orderkey = s.o_orderkey
        """,
        "term_postings": """
            WITH pairs AS (
              SELECT DISTINCT doc_id, u.term
              FROM documents, unnest(string_split(text, ' ')) AS u(term)
            )
            SELECT term, COUNT(*) AS df,
                   array_to_string(list_slice(
                       list(doc_id ORDER BY doc_id), 1, 16), ',')
                       AS postings
            FROM pairs GROUP BY term
        """,
        "partsupp_qty": """
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
        """,
        "chunk_docs": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS t
                FROM documents
            )
            SELECT doc_id,
                   CAST(s AS BIGINT) AS start,
                   CAST(least(64, len(t) - s) AS BIGINT) AS n_tok,
                   array_to_string(list_slice(t, s + 1, s + 64),
                                   ' ') AS chunk
            FROM toks, unnest(generate_series(0, len(t) - 1, 48)) AS u(s)
        """,
        "order_global_rank": """
            SELECT o_orderkey,
                   CAST(ROW_NUMBER() OVER (ORDER BY o_totalprice,
                                           o_orderkey) AS BIGINT) AS rank
            FROM orders
        """,
        "resample_user_hourly": """
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
        """,
        "shuffle_docs": f"""
            SELECT doc_id,
                   CAST(ROW_NUMBER() OVER (
                       ORDER BY {skey}, doc_id) AS BIGINT) AS shuffle_pos
            FROM documents
        """,
        "order_price_p_cont": """
            SELECT CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
                   CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2
            FROM (SELECT unnest([0.25, 0.5, 0.9]) AS q,
                         unnest(quantile_cont(o_totalprice,
                                [0.25, 0.5, 0.9])) AS v
                  FROM orders)
        """,
        "order_price_quantiles": """
            SELECT CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
                   CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2
            FROM (SELECT unnest([0.25, 0.5, 0.75, 0.9, 0.99]) AS q,
                         unnest(quantile_disc(o_totalprice,
                                [0.25, 0.5, 0.75, 0.9, 0.99])) AS v
                  FROM orders)
        """,
        "top_docs_per_source": """
            SELECT source, doc_id, n_chars, rnk FROM (
              SELECT source, doc_id, n_chars,
                     ROW_NUMBER() OVER (PARTITION BY source
                                        ORDER BY n_chars DESC, doc_id) AS rnk
              FROM documents)
            WHERE rnk <= 3
        """,
        "stratified_sample_docs": (
            "SELECT doc_id, lang FROM documents WHERE text IS NOT NULL AND "
            + bucket.format(col="text").replace("% 10000", "% 100")
            + " < CASE WHEN lang = 'en' THEN 5 ELSE 20 END"
        ),
        "term_df_top50": """
            SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM (
              SELECT DISTINCT doc_id,
                     unnest(string_split(text, ' ')) AS term
              FROM documents WHERE text IS NOT NULL)
            GROUP BY term ORDER BY df DESC, term LIMIT 50
        """,
        "error_click_burst": """
            SELECT e.event_id,
                   CAST(COUNT(c.event_id) AS BIGINT) AS n_prior_clicks
            FROM events e
            LEFT JOIN events c
              ON c.user_id = e.user_id AND c.event_type = 'click'
             AND c.ts >= e.ts - INTERVAL 5 MINUTE AND c.ts < e.ts
            WHERE e.event_type = 'error'
            GROUP BY e.event_id
        """,
        "error_click_pairs": """
            SELECT e.user_id, e.event_id AS err_id, c.event_id AS click_id
            FROM events e
            JOIN events c
              ON c.user_id = e.user_id
             AND c.ts >= e.ts AND c.ts < e.ts + INTERVAL 6 HOUR
            WHERE e.event_type = 'error' AND c.event_type = 'click'
        """,
        "label_centroids": """
            SELECT label, dim,
                   CAST(FLOOR(avg(x) * 10000 + 0.5) AS BIGINT) AS c_e4
            FROM (SELECT label, unnest(embedding) AS x,
                         generate_subscripts(embedding, 1) AS dim
                  FROM embeddings)
            GROUP BY label, dim
        """,
        "kmeans_labels": f"SELECT * FROM {_golden('kmeans_labels')}",
        "pagerank_dups": f"SELECT * FROM {_golden('pagerank_dups')}",
        "media_resampled": f"SELECT * FROM {_golden('media_resampled')}",
        "orders_no_bulk": """
            SELECT o_orderkey FROM orders o
            WHERE NOT EXISTS (SELECT 1 FROM lineitem l
                              WHERE l.l_orderkey = o.o_orderkey
                                AND l.l_quantity > 45)
        """,
        "user_windows": """
            SELECT event_id,
                   ROW_NUMBER() OVER w AS seq,
                   CAST(FLOOR(SUM(value) OVER (w ROWS BETWEEN 2 PRECEDING
                        AND CURRENT ROW) * 100 + 0.5) AS BIGINT) AS roll3_e2
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)
        """,
        "user_first_last": """
            SELECT event_id,
                   FIRST_VALUE(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                       OVER w AS first_e2,
                   LAST_VALUE(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                       OVER w AS last_e2
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING
                         AND UNBOUNDED FOLLOWING)
        """,
        "user_ntile": """
            SELECT event_id,
                   NTILE(4) OVER (PARTITION BY user_id
                                  ORDER BY ts, event_id) AS tile
            FROM events
        """,
        "value_variance": """
            SELECT event_type,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(COUNT(*) * SUM(vc * vc) - SUM(vc) * SUM(vc)
                        AS BIGINT) AS var_num
            FROM (SELECT event_type,
                         CAST(FLOOR(value * 100 + 0.5) AS BIGINT) AS vc
                  FROM events)
            GROUP BY event_type
        """,
        "customer_order_counts_left": """
            SELECT c_custkey,
                   CAST(COUNT(o_custkey) AS BIGINT) AS n_orders
            FROM customer LEFT JOIN orders ON o_custkey = c_custkey
            GROUP BY c_custkey
        """,
        "user_range_sum": """
            SELECT event_id,
                   CAST(SUM(CAST(FLOOR(value * 100 + 0.5) AS BIGINT))
                       OVER w AS BIGINT) AS range10m_e2
            FROM events
            WINDOW w AS (PARTITION BY user_id
                         ORDER BY CAST(FLOOR(epoch(ts)) AS BIGINT)
                         RANGE BETWEEN 600 PRECEDING AND CURRENT ROW)
        """,
        "event_value_quantiles": """
            SELECT event_type,
                   CAST(ROUND(q * 10000) AS BIGINT) AS q_e4,
                   CAST(FLOOR(v * 100 + 0.5) AS BIGINT) AS val_e2
            FROM (SELECT event_type,
                         unnest([0.5, 0.9, 0.99]) AS q,
                         unnest(quantile_disc(value, [0.5, 0.9, 0.99])) AS v
                  FROM events GROUP BY event_type)
        """,
        "docs_above_p90": """
            SELECT doc_id FROM documents
            WHERE n_chars > (SELECT quantile_disc(n_chars, 0.9)
                             FROM documents)
        """,
        "grouped_approx_distinct": """
            SELECT event_type,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT)
                       AS exact_distinct_users,
                   1 AS hll_ok
            FROM events GROUP BY event_type
        """,
        "orders_with_bulk": """
            SELECT o_orderkey FROM orders o
            WHERE EXISTS (SELECT 1 FROM lineitem l
                          WHERE l.l_orderkey = o.o_orderkey
                            AND l.l_quantity > 45)
        """,
        "doc_len_cume": """
            SELECT doc_id,
                   CAST(FLOOR(CUME_DIST() OVER (ORDER BY n_chars)
                        * 10000 + 0.5) AS BIGINT) AS cume_e4
            FROM documents
        """,
        "lineitem_melt": """
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
        """,
        "user_value_lag": """
            SELECT event_id,
                   CAST(FLOOR(LAG(value) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) * 100 + 0.5) AS BIGINT)
                       AS prev_value_e2
            FROM events
        """,
        "heavy_hitter_users": """
            SELECT user_id, n, 1 AS mg_ok FROM (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
                     ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, user_id)
                         AS rnk
              FROM events GROUP BY user_id)
            WHERE rnk <= 10
        """,
        "cm_user_counts": """
            SELECT user_id, n, 1 AS cm_ok FROM (
              SELECT user_id, CAST(COUNT(*) AS BIGINT) AS n,
                     ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, user_id)
                         AS rnk
              FROM events GROUP BY user_id)
            WHERE rnk <= 10
        """,
        "first_order": """
            SELECT o_custkey, o_orderkey, o_orderdate,
                   CAST(FLOOR(o_totalprice * 100 + 0.5) AS BIGINT)
                       AS price_e2
            FROM (SELECT *, ROW_NUMBER() OVER (
                      PARTITION BY o_custkey
                      ORDER BY o_orderdate, o_orderkey) AS rn
                  FROM orders)
            WHERE rn = 1
        """,
        "supplier_value_share": """
            SELECT l_suppkey, rev_e4, n FROM (
              SELECT l_suppkey,
                     CAST(SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                          * 10000 + 0.5) AS BIGINT)) AS BIGINT) AS rev_e4,
                     CAST(COUNT(*) AS BIGINT) AS n
              FROM lineitem GROUP BY l_suppkey)
            WHERE rev_e4 * 10000 > 105 *
              (SELECT SUM(CAST(FLOOR(l_extendedprice * (1 - l_discount)
                       * 10000 + 0.5) AS BIGINT)) FROM lineitem)
        """,
        "idle_rich_customers": """
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
        """,
        "events_rollup": """
            SELECT event_type, date_trunc('day', ts) AS day,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(GROUPING(event_type, date_trunc('day', ts))
                        AS BIGINT) AS gid
            FROM events GROUP BY ROLLUP(event_type, date_trunc('day', ts))
        """,
        "mix_sources": """
            WITH k AS (
                SELECT doc_id, source,
                       CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                            1, 8)) AS BIGINT) AS mix_key
                FROM documents WHERE source IS NOT NULL),
            r AS (
                SELECT doc_id, source,
                       ROW_NUMBER() OVER (PARTITION BY source
                           ORDER BY mix_key DESC, doc_id) AS rnk,
                       COUNT(*) OVER (PARTITION BY source) AS n_src
                FROM k)
            SELECT doc_id, source, CAST(rnk AS BIGINT) AS rnk
            FROM r WHERE rnk <= CAST(FLOOR(SQRT(n_src)) AS BIGINT)
        """,
        "events_grouping_sets": """
            SELECT event_type, date_trunc('day', ts) AS day,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(GROUPING(event_type, date_trunc('day', ts))
                        AS BIGINT) AS gid
            FROM events GROUP BY GROUPING SETS
                ((event_type, date_trunc('day', ts)),
                 (date_trunc('day', ts)), ())
        """,
        "custdist": """
            SELECT c_count, COUNT(*) AS custdist
            FROM (SELECT c.c_custkey,
                         CAST(COUNT(o.o_orderkey) AS BIGINT) AS c_count
                  FROM customer c LEFT JOIN orders o
                    ON o.o_custkey = c.c_custkey
                   AND o.o_orderpriority <> '1-URGENT'
                  GROUP BY c.c_custkey) t
            GROUP BY c_count
        """,
        "top_supplier": """
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
        """,
        "profit_by_nation_year": """
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
        """,
        "market_share": """
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
        """,
        "winsorized_chars": """
            WITH q AS (
                SELECT lang,
                       CAST(quantile_disc(n_chars, 0.05) AS BIGINT) AS lo,
                       CAST(quantile_disc(n_chars, 0.95) AS BIGINT) AS hi
                FROM documents GROUP BY lang)
            SELECT d.lang,
                   CAST(SUM(CASE WHEN d.n_chars < q.lo THEN q.lo
                                 WHEN d.n_chars > q.hi THEN q.hi
                                 ELSE d.n_chars END) AS BIGINT)
                       AS clipped_sum,
                   COUNT(*) AS n_docs
            FROM documents d JOIN q ON q.lang = d.lang
            GROUP BY d.lang
        """,
        "funnel_conversion": """
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
        """,
        "co_attendance": f"""
            SELECT a.obj AS a1, b.obj AS a2,
                   CAST(COUNT(*) AS BIGINT) AS n_events
            FROM {_golden('kg_flagship')} a
            JOIN {_golden('kg_flagship')} b
              ON b.subj = a.subj
             AND a.pred = 'hasAttendee' AND b.pred = 'hasAttendee'
             AND a.obj < b.obj
            GROUP BY a.obj, b.obj
        """,
        "compression_ratio_docs": f"""
            SELECT doc_id, c_bytes, ratio_e4
            FROM {_golden('compression_ratio_docs')}
        """,
        "grouped_regression": """
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
        """,
        "doc_len_hist": """
            SELECT CAST(FLOOR(n_chars / 200.0) AS BIGINT) * 200 AS bin_lo,
                   COUNT(*) AS n
            FROM documents WHERE n_chars IS NOT NULL
            GROUP BY 1
        """,
        "lang_len_hist": """
            SELECT lang,
                   CAST(FLOOR(n_chars / 500.0) AS BIGINT) * 500 AS bin_lo,
                   COUNT(*) AS n
            FROM documents WHERE n_chars IS NOT NULL
            GROUP BY lang, 2
        """,
        "segment_nation_orders": """
            SELECT c_mktsegment, c_nationkey, COUNT(*) AS n
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment, c_nationkey
        """,
        "doc_repetition": """
            WITH toks AS (
                SELECT doc_id, string_split(text, ' ') AS ws
                FROM documents WHERE text IS NOT NULL
            ), bg AS (
                SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS bigram
                FROM toks, unnest(generate_series(1, len(ws) - 1)) AS t(i)
                WHERE len(ws) >= 2
            ), c AS (
                SELECT doc_id, bigram, COUNT(*) AS n
                FROM bg GROUP BY doc_id, bigram
            )
            SELECT doc_id, MAX(n) AS top_bigram_n,
                   CAST(SUM(n) AS BIGINT) AS n_bigrams,
                   COUNT(*) AS n_distinct_bigrams
            FROM c GROUP BY doc_id
        """,
        "triangle_count": f"""
            WITH e AS (
                SELECT DISTINCT a.obj AS a1, b.obj AS a2
                FROM {_golden('kg_flagship')} a
                JOIN {_golden('kg_flagship')} b
                  ON b.subj = a.subj
                 AND a.pred = 'hasAttendee' AND b.pred = 'hasAttendee'
                 AND a.obj < b.obj)
            SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
            FROM e e1
            JOIN e e2 ON e2.a1 = e1.a2
            JOIN e e3 ON e3.a1 = e1.a1 AND e3.a2 = e2.a2
        """,
        "cohort_retention": """
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
        """,
        "regex_extract_docs": """
            SELECT doc_id, regexp_extract(text, '[a-z]{8,}')
                       AS first_long_word
            FROM documents
        """,
        "trending_users": """
            SELECT day, user_id, n_events, rnk FROM (
                SELECT day, user_id, n_events,
                       ROW_NUMBER() OVER (
                           PARTITION BY day
                           ORDER BY n_events DESC, user_id) AS rnk
                FROM (SELECT date_trunc('day', ts) AS day, user_id,
                             COUNT(*) AS n_events
                      FROM events GROUP BY 1, 2)
            ) WHERE rnk <= 5
        """,
        "hll_state_distinct": """
            SELECT event_type,
                   CAST(COUNT(DISTINCT user_id) AS BIGINT)
                       AS exact_distinct_users,
                   1 AS state_hll_ok
            FROM events GROUP BY event_type
        """,
        "grouped_sample_docs": """
            SELECT source, doc_id, rnk FROM (
                SELECT source, doc_id,
                       ROW_NUMBER() OVER (
                           PARTITION BY source
                           ORDER BY CAST(('0x' || substr(md5(text), 1, 8))
                                         AS BIGINT) DESC, doc_id
                       ) AS rnk
                FROM documents WHERE text IS NOT NULL
            ) WHERE rnk <= 10
        """,
        "pmi_term_pairs": """
            WITH terms AS (
                SELECT DISTINCT doc_id, t.term
                FROM documents, unnest(string_split(text, ' ')) AS t(term)
            ),
            df AS (SELECT term, COUNT(*) AS df FROM terms GROUP BY term),
            top AS (SELECT term, df FROM df
                    ORDER BY df DESC, term LIMIT 30),
            nn AS (SELECT COUNT(*) AS n FROM documents),
            pairs AS (
                SELECT LEAST(a.term, b.term) AS term_a,
                       GREATEST(a.term, b.term) AS term_b,
                       COUNT(*) AS df_ab
                FROM terms a
                JOIN terms b ON b.doc_id = a.doc_id AND a.term < b.term
                JOIN top ta ON ta.term = a.term
                JOIN top tb ON tb.term = b.term
                GROUP BY 1, 2
            )
            SELECT p.term_a, p.term_b, CAST(p.df_ab AS BIGINT) AS df_ab,
                   CAST(FLOOR(LN(CAST(p.df_ab AS DOUBLE) * nn.n
                                 / (CAST(ta.df AS DOUBLE)
                                    * CAST(tb.df AS DOUBLE)))
                              * 1000000 + 0.5) AS BIGINT) AS pmi_e6
            FROM pairs p
            JOIN top ta ON ta.term = p.term_a
            JOIN top tb ON tb.term = p.term_b
            CROSS JOIN nn
        """,
        "dict_tag_docs": """
            WITH p(tag) AS (
                SELECT a.w || ' ' || b.w
                FROM (VALUES ('fast'), ('slow'), ('big'), ('small')) a(w)
                CROSS JOIN
                     (VALUES ('table'), ('query'), ('scan'), ('join')) b(w)
                UNION ALL SELECT 'spark'
                UNION ALL SELECT 'stream key'
            )
            SELECT d.doc_id, p.tag
            FROM documents d JOIN p ON contains(d.text, p.tag)
        """,
        "approx_value_quantiles": """
            SELECT unnest([5000, 9000]) AS q_e4, 1 AS sketch_ok
        """,
        "profile_orders": """
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
        """,
        "segment_revenue": """
            SELECT c.c_mktsegment,
                   CAST(SUM(CAST(FLOOR(l.l_extendedprice
                        * (1.0 - l.l_discount) * 10000 + 0.5) AS BIGINT))
                        AS BIGINT) AS revenue_e4,
                   COUNT(*) AS n_lines
            FROM customer c
            JOIN orders o ON o.o_custkey = c.c_custkey
            JOIN lineitem l ON l.l_orderkey = o.o_orderkey
            GROUP BY c.c_mktsegment
        """,
        "events_cube": """
            SELECT event_type, date_trunc('day', ts) AS day,
                   CAST(COUNT(*) AS BIGINT) AS n,
                   CAST(GROUPING(event_type, date_trunc('day', ts))
                        AS BIGINT) AS gid
            FROM events GROUP BY CUBE(event_type, date_trunc('day', ts))
        """,
        "user_next_value": """
            SELECT event_id,
                   CAST(FLOOR(LEAD(value) OVER (PARTITION BY user_id
                        ORDER BY ts, event_id) * 100 + 0.5) AS BIGINT)
                       AS next_value_e2
            FROM events
        """,
        "user_journey": """
            SELECT user_id,
                   string_agg(event_type, ',' ORDER BY ts, event_id)
                       AS journey
            FROM events
            WHERE event_type IN ('signup', 'purchase')
            GROUP BY user_id
        """,
        "user_event_pivot": """
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
        """,
        "tfidf_top_terms": """
            WITH words AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS term
              FROM documents WHERE text IS NOT NULL),
            tf AS (SELECT doc_id, term, COUNT(*) AS tf
                   FROM words GROUP BY doc_id, term),
            df AS (SELECT term, COUNT(DISTINCT doc_id) AS df
                   FROM words GROUP BY term),
            n AS (SELECT COUNT(*) AS nn FROM documents),
            scored AS (
              SELECT tf.doc_id, tf.term,
                     tf.tf * ln(CAST(nn AS DOUBLE) / df.df) AS score
              FROM tf JOIN df USING (term) CROSS JOIN n),
            ranked AS (
              SELECT doc_id, term,
                     ROW_NUMBER() OVER (PARTITION BY doc_id
                                        ORDER BY score DESC, term) AS rnk
              FROM scored)
            SELECT doc_id, term, rnk FROM ranked WHERE rnk <= 3
        """,
        "kg_attendee_kcore":
            f"SELECT node, deg FROM {_golden('kg_attendee_kcore')}",
        "kg_attendee_walks":
            f"SELECT walk_id, step, node "
            f"FROM {_golden('kg_attendee_walks')}",
        "kg_attendee_communities":
            f"SELECT node, community "
            f"FROM {_golden('kg_attendee_communities')}",
        "knn_stored":
            f"SELECT query_id, rank, vec_id, score_e6 "
            f"FROM {_golden('knn_stored')}",
        "knn_stored_pq":
            f"SELECT query_id, rank, vec_id, score_e6 "
            f"FROM {_golden('knn_stored_pq')}",
        "late_data_windows": """
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
        """,
        "hist_state_quantiles": """
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
        """,
        "sealed_windows_total": """
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
        """,
        "late_data_sliding": """
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
        """,
        "late_data_sessions": """
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
        """,
        "kg_bfs_hops": f"""
            WITH RECURSIVE e AS (
                SELECT DISTINCT a.obj AS a1, b.obj AS a2
                FROM {_golden('kg_flagship')} a
                JOIN {_golden('kg_flagship')} b ON b.subj = a.subj
                WHERE a.pred = 'hasAttendee' AND b.pred = 'hasAttendee'
                  AND a.obj <> b.obj),
            seed AS (SELECT MIN(a1) AS s FROM e),
            r AS (
                SELECT s AS node, 0 AS dist FROM seed
                UNION
                SELECT e.a2, r.dist + 1
                FROM r JOIN e ON e.a1 = r.node WHERE r.dist < 25
            )
            SELECT node, CAST(MIN(dist) AS BIGINT) AS dist
            FROM r GROUP BY node
        """,
        "value_mad_outliers": """
            WITH src AS (
                SELECT event_id, value FROM events WHERE value IS NOT NULL),
            m AS (SELECT quantile_disc(value, 0.5) AS med FROM src),
            d AS (SELECT event_id,
                         abs(value - (SELECT med FROM m)) AS dev
                  FROM src),
            s AS (SELECT quantile_disc(dev, 0.5) AS mad FROM d)
            SELECT event_id FROM d
            WHERE dev > 3 * (SELECT mad FROM s)
        """,
        "bm25_topk_docs": """
            WITH src AS (
                SELECT doc_id, text, string_split(text, ' ') AS ws
                FROM documents WHERE text IS NOT NULL),
            params AS (
                SELECT CAST(COUNT(*) AS DOUBLE) AS n,
                       CAST(SUM(len(ws)) AS DOUBLE)
                           / CAST(COUNT(*) AS DOUBLE) AS avgdl
                FROM src),
            dfs AS (
                SELECT
                  CAST(COUNT(*) FILTER (
                    WHERE list_contains(ws, 'hash')) AS DOUBLE) AS df1,
                  CAST(COUNT(*) FILTER (
                    WHERE list_contains(ws, 'join')) AS DOUBLE) AS df2,
                  CAST(COUNT(*) FILTER (
                    WHERE list_contains(ws, 'vector')) AS DOUBLE) AS df3
                FROM src),
            scored AS (
                SELECT doc_id,
                  ln((n - df1 + 0.5) / (df1 + 0.5) + 1)
                    * ((CAST(len(list_filter(ws, x -> x = 'hash'))
                             AS DOUBLE) * 2.2)
                       / (CAST(len(list_filter(ws, x -> x = 'hash'))
                               AS DOUBLE)
                          + 1.2 * (0.25 + 0.75 * len(ws) / avgdl)))
                  + ln((n - df2 + 0.5) / (df2 + 0.5) + 1)
                    * ((CAST(len(list_filter(ws, x -> x = 'join'))
                             AS DOUBLE) * 2.2)
                       / (CAST(len(list_filter(ws, x -> x = 'join'))
                               AS DOUBLE)
                          + 1.2 * (0.25 + 0.75 * len(ws) / avgdl)))
                  + ln((n - df3 + 0.5) / (df3 + 0.5) + 1)
                    * ((CAST(len(list_filter(ws, x -> x = 'vector'))
                             AS DOUBLE) * 2.2)
                       / (CAST(len(list_filter(ws, x -> x = 'vector'))
                               AS DOUBLE)
                          + 1.2 * (0.25 + 0.75 * len(ws) / avgdl)))
                  AS score
                FROM src, params, dfs),
            ranked AS (
                SELECT doc_id,
                       CAST(FLOOR(score * 1e6 + 0.5) AS BIGINT) AS score_e6,
                       ROW_NUMBER() OVER (
                         ORDER BY CAST(FLOOR(score * 1e6 + 0.5) AS BIGINT)
                             DESC, doc_id) AS rnk
                FROM scored)
            SELECT doc_id, score_e6, CAST(rnk AS BIGINT) AS rnk
            FROM ranked WHERE rnk <= 20
        """,
        "user_event_patterns": """
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
        """,
        "user_active_coverage": """
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
        """,
    }
