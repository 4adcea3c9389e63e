"""The ``query_mix`` workload: 11 analytic queries over seeded tables.

The tables are TPC-H-shaped (customer, orders, lineitem) plus an ``events``
stream and a ``documents`` corpus. They are generated from the seed, so the
program receives only generated inputs, with the schema, value ranges and
key relations of the repository's sf0.1 test tables at 0.3x their row
counts: uniform independent keys and dates as there (not the TPC-H
spec's, so q1's ship-date cut keeps about 54% of lineitem), and ``ts``
increasing with ``event_id``. ``perfbench/profile_tables.py`` prints the
statistics that decide what the queries do, for both sets side by side.

Every query is checked against its ``oracle_sql()`` through DuckDB with
``scripts/check_correctness.py``'s rule: row count, column names and an
order-insensitive value hash.
"""

from __future__ import annotations

import os
import random
import shutil
import statistics
import time
from typing import Dict, List, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from spans import Tracer

QUERIES = [
    "q1_lineitem_agg", "order_revenue_hashjoin", "segment_revenue",
    "customer_order_totals", "custdist", "hist_state_quantiles",
    "hll_state_distinct", "decayed_user_counts", "late_data_windows",
    "sealed_windows_total", "grouped_sample_docs",
]
TABLES = ["customer", "orders", "lineitem", "events", "documents"]

# rows per table at scale 1 (TPC-H proportions; events, documents and
# users as in the repository's test tables)
ROWS = {"customer": 150_000, "orders": 1_500_000, "lineitem": 6_000_000,
        "events": 1_000_000, "documents": 50_000, "users": 15_000}
SCALE = 0.03

SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
EVENT_TYPES = ["click", "view", "purchase", "signup", "error"]
LANGS = ["en", "de", "es", "fr", "zh"]
LANG_P = [0.4, 0.15, 0.15, 0.15, 0.15]
WORDS = ("a the agg batch big column customer data fast filter group hash "
         "join key line merge order part query row scan slow small sort "
         "spark stream table value vector window").split()


def _days(rng, start: str, n_days: int, n: int) -> pa.Array:
    base = np.datetime64(start, "us")
    return pa.array(base + rng.integers(0, n_days, n) * np.timedelta64(
        86_400_000_000, "us"), pa.timestamp("us"))


def make_tables(out_dir: str, seed: int) -> None:
    """Write the five tables as one Parquet file each under ``out_dir``."""
    rng = np.random.default_rng(seed)
    n = {k: int(v * SCALE) for k, v in ROWS.items()}
    pick = lambda values, k: np.array(values)[rng.integers(0, len(values), k)]  # noqa: E731
    money = lambda lo, hi, k: np.round(rng.uniform(lo, hi, k), 2)  # noqa: E731

    nc = n["customer"]
    tables = {"customer": pa.table({
        "c_custkey": np.arange(nc, dtype=np.int64),
        "c_name": [f"Customer#{i:09d}" for i in range(nc)],
        "c_nationkey": rng.integers(0, 25, nc).astype(np.int32),
        "c_acctbal": money(-999.99, 9999.99, nc),
        "c_mktsegment": pick(SEGMENTS, nc),
    })}
    no = n["orders"]
    tables["orders"] = pa.table({
        "o_orderkey": np.arange(no, dtype=np.int64),
        "o_custkey": rng.integers(0, nc, no),
        "o_orderstatus": pick(["F", "O", "P"], no),
        "o_totalprice": money(1000, 500_000, no),
        "o_orderdate": _days(rng, "1995-01-01", 2405, no),
        "o_orderpriority": pick(PRIORITIES, no),
    })
    nl = n["lineitem"]
    tables["lineitem"] = pa.table({
        "l_orderkey": rng.integers(0, no, nl),
        "l_partkey": rng.integers(0, 20_000, nl),
        "l_suppkey": rng.integers(0, 1_000, nl),
        "l_linenumber": rng.integers(1, 8, nl).astype(np.int32),
        "l_quantity": rng.integers(1, 51, nl).astype(np.float64),
        "l_extendedprice": money(900, 105_000, nl),
        "l_discount": np.round(rng.integers(0, 11, nl) / 100, 2),
        "l_tax": np.round(rng.integers(0, 9, nl) / 100, 2),
        "l_returnflag": pick(["A", "N", "R"], nl),
        "l_linestatus": pick(["F", "O"], nl),
        "l_shipdate": _days(rng, "1995-01-02", 2499, nl),
    })
    ne = n["events"]
    month_us = 30 * 86_400_000_000
    tables["events"] = pa.table({
        "event_id": np.arange(ne, dtype=np.int64),
        "ts": pa.array(np.datetime64("2024-01-01", "us") + np.sort(
            rng.integers(0, month_us, ne)).astype("timedelta64[us]"),
            pa.timestamp("us")),
        "user_id": rng.integers(0, n["users"], ne),
        "event_type": pick(EVENT_TYPES, ne),
        "value": np.round(rng.exponential(50.0, ne), 2),
        "props": [f'{{"k": {k}}}' for k in rng.integers(0, 100, ne)],
    })
    nd = n["documents"]
    texts = [" ".join(pick(WORDS, int(k))) for k in rng.integers(10, 101, nd)]
    tables["documents"] = pa.table({
        "doc_id": np.arange(nd, dtype=np.int64),
        "text": texts,
        "lang": rng.choice(LANGS, nd, p=LANG_P),
        "source": [f"src{i % 20}" for i in range(nd)],
        "n_chars": np.array([len(t) for t in texts], dtype=np.int64),
    })
    os.makedirs(out_dir, exist_ok=True)
    for name, t in tables.items():
        pq.write_table(t, os.path.join(out_dir, f"{name}.parquet"))


def run_queries(fns, tables_dir: str, order: List[str], tracer: Tracer,
                ops, expected=None) -> Tuple[float, Dict[str, float]]:
    """One pass over ``order``; returns (pass wall, per-query walls).

    Each query's result is consumed inside its timed region. A query that
    raises is a failed op; with ``expected`` every result is checked."""
    import check_correctness as cc

    walls = {}
    for name in order:
        t0 = time.perf_counter()
        try:
            with tracer.span(f"query.{name}"):
                got = cc.to_pandas(fns[name](tables_dir))
        except Exception as exc:  # one query's failure must not end the pass
            walls[name] = time.perf_counter() - t0
            ops.error(f"query {name}", exc)
            continue
        walls[name] = time.perf_counter() - t0
        if expected is not None:
            exp = expected[name]
            ops.check(len(got) == len(exp)
                      and sorted(got.columns) == sorted(exp.columns)
                      and cc.value_hash(got) == cc.value_hash(exp),
                      f"query {name} != DuckDB oracle")
    return sum(walls.values()), walls


def oracle_answers(tables_dir: str, sqls: Dict[str, str]) -> Dict:
    import duckdb

    con = duckdb.connect()
    try:
        for t in TABLES:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"'{tables_dir}/{t}.parquet'")
        return {q: con.execute(sqls[q]).df() for q in QUERIES}
    finally:
        con.close()


class QueryMix:
    """Passes over the 11 queries in a seed-chosen order."""

    name = "query_mix"
    min_steps = 3

    def __init__(self, ctx) -> None:
        import __ray_entry__ as entry

        self.ctx = ctx
        self.dir = os.path.join(ctx.work, self.name, "tables")
        self.fns = entry.queries()
        self.sqls = entry.oracle_sql()
        self.order = list(QUERIES)
        random.Random(f"query_mix:{ctx.seed}").shuffle(self.order)
        self.walls: Dict[str, List[float]] = {q: [] for q in QUERIES}

    def setup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        make_tables(self.dir, self.ctx.seed)

    def warm(self) -> None:
        run_queries(self.fns, self.dir, self.order, Tracer(), self.ctx.ops)

    def oracle(self, tracer: Tracer) -> Dict:
        return oracle_answers(self.dir, self.sqls)

    def prepare(self, oracle) -> None:
        self.expected = oracle

    def step_s(self) -> float:
        """One pass, as the sum of each query's median wall: a spike in
        one query of one pass does not move it."""
        return sum(statistics.median(w) for w in self.walls.values())

    def details(self) -> Dict[str, float]:
        return {f"query.{q}_s": statistics.median(w)
                for q, w in self.walls.items()}

    def step(self, tracer: Tracer) -> Tuple[float, int]:
        wall, walls = run_queries(self.fns, self.dir, self.order, tracer,
                                  self.ctx.ops, self.expected)
        for q, w in walls.items():
            self.walls[q].append(w)
        return wall, len(self.order)

    def trace_layers(self, tracer: Tracer) -> Dict[str, float]:
        """Each query's median wall over the traced passes."""
        return {f"query.{q}_s": statistics.median(tracer.durations(
            f"query.{q}")) for q in QUERIES}
