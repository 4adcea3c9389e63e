"""Statistics of the query_mix tables that decide what the queries do.

    python3 perfbench/profile_tables.py [--seed N] [DIR ...]

Prints one row per statistic and one column per table directory; with
``--seed`` also a column for the tables ``query_mix`` generates for that
seed. Every statistic is a share or a per-key ratio, so table sets of
different sizes compare directly. Each directory holds ``customer``,
``orders``, ``lineitem``, ``events`` and ``documents`` as ``<name>.parquet``.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile

import duckdb

HERE = os.path.dirname(os.path.abspath(__file__))

EV = """(SELECT event_type, epoch_us(ts) AS tus, event_id,
         (epoch_us(ts) // 3600000000) * 3600000000 AS ws FROM events)"""
# rows of epoch ``e`` (event_id % k = e) whose window closed before the
# watermark the previous epochs left: the rows the window queries drop
LATE2 = f"""WITH ev AS {EV},
  w0 AS (SELECT max(tus) - 7200000000 AS w FROM ev WHERE event_id % 2 = 0)
  SELECT avg((ws + 3600000000 <= (SELECT w FROM w0))::INT)
  FROM ev WHERE event_id % 2 = 1"""
LATE3 = f"""WITH ev AS {EV},
  w0 AS (SELECT max(tus) - 7200000000 AS w FROM ev WHERE event_id % 3 = 0),
  w1 AS (SELECT greatest((SELECT w FROM w0),
           (SELECT max(tus) FROM ev WHERE event_id % 3 = 1) - 7200000000) AS w)
  SELECT avg(CASE event_id % 3
               WHEN 1 THEN (ws + 3600000000 <= (SELECT w FROM w0))::INT
               ELSE (ws + 3600000000 <= (SELECT w FROM w1))::INT END)
  FROM ev WHERE event_id % 3 > 0"""

STATS = [
    ("q1: lineitem rows kept by the ship-date cut",
     "SELECT avg((l_shipdate < TIMESTAMP '1998-09-01')::INT) FROM lineitem"),
    ("q1: groups",
     "SELECT count(*) FROM (SELECT DISTINCT l_returnflag, l_linestatus "
     "FROM lineitem)"),
    ("lineitem rows per order",
     "SELECT (SELECT count(*) FROM lineitem) / (SELECT count(*) FROM orders)"),
    ("lineitem rows that join an order",
     "SELECT avg((l_orderkey IN (SELECT o_orderkey FROM orders))::INT) "
     "FROM lineitem"),
    ("orders with no lineitem",
     "SELECT avg((o_orderkey NOT IN (SELECT l_orderkey FROM lineitem))::INT) "
     "FROM orders"),
    ("orders per customer",
     "SELECT (SELECT count(*) FROM orders) / (SELECT count(*) FROM customer)"),
    ("customers with no order",
     "SELECT avg((c_custkey NOT IN (SELECT o_custkey FROM orders))::INT) "
     "FROM customer"),
    ("custdist: orders kept (not 1-URGENT)",
     "SELECT avg((o_orderpriority <> '1-URGENT')::INT) FROM orders"),
    ("custdist: groups",
     "SELECT count(DISTINCT n) FROM (SELECT c_custkey, count(o_orderkey) n "
     "FROM customer LEFT JOIN orders ON o_custkey = c_custkey "
     "AND o_orderpriority <> '1-URGENT' GROUP BY 1)"),
    ("order date span, days",
     "SELECT date_diff('day', min(o_orderdate), max(o_orderdate)) FROM orders"),
    ("ship date span, days",
     "SELECT date_diff('day', min(l_shipdate), max(l_shipdate)) FROM lineitem"),
    ("events per user",
     "SELECT count(*) / count(DISTINCT user_id) FROM events"),
    ("events: ts increases with event_id",
     "SELECT avg(s) FROM (SELECT (ts >= lag(ts) OVER (ORDER BY event_id))::INT"
     " s FROM events)"),
    ("hour windows (event_type x hour)",
     f"SELECT count(*) FROM (SELECT DISTINCT event_type, ws FROM {EV})"),
    ("late_data_windows: late rows of epoch 1", LATE2),
    ("sealed_windows_total: late rows of epochs 1-2", LATE3),
    ("events: mean value", "SELECT avg(value) FROM events"),
    ("hist_state_quantiles: (event_type, bucket) groups",
     "SELECT count(*) FROM (SELECT DISTINCT event_type, "
     "CAST(floor(value * 100 + 0.5) AS BIGINT) // 500 FROM events)"),
    ("documents per source",
     "SELECT count(*) / count(DISTINCT source) FROM documents"),
    ("documents: words per text, median",
     "SELECT median(len(string_split(text, ' '))) FROM documents"),
    ("documents: lang = en", "SELECT avg((lang = 'en')::INT) FROM documents"),
]


def profile(tables_dir: str) -> list:
    con = duckdb.connect()
    try:
        for t in ["customer", "orders", "lineitem", "events", "documents"]:
            con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                        f"'{tables_dir}/{t}.parquet'")
        return [con.execute(sql).fetchone()[0] for _, sql in STATS]
    finally:
        con.close()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("dirs", nargs="*")
    p.add_argument("--seed", type=int)
    args = p.parse_args()
    cols = [(d, profile(d)) for d in args.dirs]
    if args.seed is not None:
        sys.path.insert(0, HERE)
        from query_mix import make_tables

        with tempfile.TemporaryDirectory() as tmp:
            make_tables(tmp, args.seed)
            cols.append((f"generated, seed {args.seed}", profile(tmp)))
    print(" | ".join(["statistic"] + [name for name, _ in cols]))
    for i, (what, _) in enumerate(STATS):
        print(" | ".join([what] + [f"{vals[i]:.4g}" for _, vals in cols]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
