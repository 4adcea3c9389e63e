"""functions/dedup.py:group_fold — the one grouping kernel under every
keyed count/sum/min/max partial and fold — and its callers' SQL NULL
semantics, checked against DuckDB."""

import ast
import pathlib

import duckdb
import numpy as np
import pyarrow as pa

import calendar_event_entity_extraction_ray as pkg
from calendar_event_entity_extraction_ray.functions.dedup import (
    first_rows,
    group_fold,
)

PKG = pathlib.Path(pkg.__file__).parent


def _nullable_key_table() -> pa.Table:
    """100 rows of a nullable string key beside an int64 key: 9
    distinct pairs, the shape pyarrow 16's ``group_by`` splits."""
    rng = np.random.default_rng(0)
    pred = [None if x == 2 else "ab"[x] for x in rng.integers(0, 3, 100)]
    return pa.table({"pred": pa.array(pred, pa.string()),
                     "ts": pa.array(rng.integers(0, 3, 100))})


def _duck(sql: str, **tables) -> pa.Table:
    con = duckdb.connect()
    for name, t in tables.items():
        con.register(name, t)
    return con.execute(sql).arrow()


def _sorted(t: pa.Table, keys) -> pa.Table:
    return t.sort_by([(k, "ascending") for k in keys])


class TestKernel:
    def test_nullable_string_beside_int64_groups_exactly(self):
        t = _nullable_key_table()
        assert t.group_by(["pred", "ts"]).aggregate([]).num_rows == 16
        got = group_fold(t, ["pred", "ts"], {"n": (None, "count_all")})
        assert got.num_rows == 9
        want = _duck("SELECT pred, ts, count(*) AS n FROM t "
                     "GROUP BY pred, ts", t=t)
        assert _sorted(got, ["pred", "ts"]).equals(
            _sorted(want, ["pred", "ts"]))

    def test_sql_sums_keep_types(self):
        t = pa.table({
            "k": pa.array([3, 1, 3, None, 1], pa.int32()),
            "s": pa.array(["x", None, "y", "z", None]),
            "v": pa.array([2**53 + 1, None, 0, 5, None], pa.int64())})
        got = group_fold(t, ["k"], {"v": ("v", "sum"),
                                    "n": (None, "count_all"),
                                    "lo": ("s", "min"), "hi": ("s", "max")})
        got = _sorted(got, ["k"])
        assert got.schema.field("k").type == pa.int32()
        assert got.column("k").to_pylist() == [1, 3, None]
        assert got.column("v").type == pa.int64()
        assert got.column("v").to_pylist() == [None, 2**53 + 1, 5]
        assert got.column("n").to_pylist() == [2, 2, 1]
        assert got.column("lo").to_pylist() == [None, "x", "z"]
        assert got.column("hi").to_pylist() == [None, "y", "z"]

    def test_first_rows_is_the_groups_first_row(self):
        """Ascending first-row indices, also over several chunks and
        more groups than one group_by minibatch holds."""
        rng = np.random.default_rng(1)
        k = rng.integers(0, 3000, 10_000)
        t = pa.Table.from_batches(pa.table({
            "s": pa.array(np.char.add("x", (k % 700).astype(str))),
            "ts": pa.array(k % 5, pa.timestamp("us"))}).to_batches(4000))
        keys = ["s", "ts"]
        idx = first_rows(t, keys)
        assert (np.diff(idx) > 0).all()
        _, first = np.unique(k % 700 * 5 + k % 5, return_index=True)
        assert np.array_equal(idx, np.sort(first))
        assert _sorted(t.take(idx), keys).equals(
            _sorted(group_fold(t, keys), keys))
        t = _nullable_key_table()
        empty = t.slice(0, 0)
        assert len(first_rows(empty, ["pred", "ts"])) == 0
        assert group_fold(empty, ["pred"], {"n": (None, "count_all")}
                          ).schema.types == [pa.string(), pa.int64()]


def _blocks(*tables):
    import ray

    return ray.data.from_arrow(list(tables))


def _collect(ds) -> pa.Table:
    return pa.concat_tables(
        b for b in ds.iter_batches(batch_format="pyarrow", batch_size=None)
        if b.num_rows)


class TestGroupedSumsNulls:
    K = [1, 1, 2, 3, 3]
    V = [None, None, 5, 2**53 + 1, 0]
    SQL = ("SELECT k, CAST(sum(v) AS BIGINT) AS v, count(*) AS n "
           "FROM t GROUP BY k")

    def test_nullable_int_sums_match_duckdb(self, ray_session):
        from calendar_event_entity_extraction_ray.stages.aggregate import (
            grouped_sums,
        )

        t = pa.table({"k": pa.array(self.K, pa.int64()),
                      "v": pa.array(self.V, pa.int64())})
        want = _sorted(_duck(self.SQL, t=t), ["k"])
        assert want.column("v").to_pylist() == [None, 5, 2**53 + 1]
        for stream in (False, True):
            out = grouped_sums(_blocks(t.slice(0, 1), t.slice(1)), ["k"],
                               ["v"], stream_reduce=stream)
            got = _collect(out)
            assert _sorted(got, ["k"]).equals(want), stream

    def test_all_null_key_block_keeps_key_type(self, ray_session):
        from calendar_event_entity_extraction_ray.stages.aggregate import (
            grouped_sums,
        )

        nulls = pa.table({"k": pa.array([None, None], pa.string()),
                          "v": pa.array([1, 2], pa.int64())})
        keyed = pa.table({"k": pa.array(["a", None, "a"], pa.string()),
                          "v": pa.array([4, 8, None], pa.int64())})
        out = grouped_sums(_blocks(nulls, keyed), ["k"], ["v"])
        got = _collect(out)
        assert got.schema.field("k").type == pa.string()
        want = _duck(self.SQL, t=pa.concat_tables([nulls, keyed]))
        assert _sorted(got, ["k"]).equals(_sorted(want, ["k"]))


class TestMergeRowsNulls:
    def test_null_key_sum_and_max_match_duckdb(self):
        from calendar_event_entity_extraction_ray.stages import (
            keyedstate as ks,
        )

        t = pa.table({
            "key": pa.array(["b", None, "a", None, "b", None], pa.string()),
            "bucket": pa.array([1, 2, 1, 2, 1, None], pa.int64()),
            "v": pa.array([3, 4, 5, 6, None, 7], pa.int64())})
        for merge in ("sum", "max"):
            store = ks.KeyedStore("_S.json", "s", "bucket", "v", merge,
                                  key="key")
            want = _duck(
                f"SELECT key, bucket, CAST({merge}(v) AS BIGINT) AS v "
                "FROM t GROUP BY key, bucket "
                "ORDER BY key NULLS LAST, bucket NULLS LAST", t=t)
            got = ks.merge_rows(store, t, "key")
            assert got.equals(want), merge


def _calls(tree: ast.AST, names: set) -> list:
    return [(n.func.attr, n.lineno) for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr in names]


def test_one_grouping_kernel():
    """Every Arrow ``.group_by(`` in the package is the kernel's, and the
    keyed folds moved onto it hold no pandas round trip."""
    kernel = PKG / "functions" / "dedup.py"
    found = {str(p.relative_to(PKG)): calls
             for p in sorted(PKG.rglob("*.py"))
             for calls in [_calls(ast.parse(p.read_text()), {"group_by"})]
             if calls}
    assert list(found) == [str(kernel.relative_to(PKG))], found
    assert len(found[str(kernel.relative_to(PKG))]) == 1

    pandas = {"to_pandas", "from_pandas"}
    stages = PKG / "stages"
    for mod in ("keyedstate.py", "setops.py"):
        assert _calls(ast.parse((stages / mod).read_text()), pandas) == [], mod
    agg = ast.parse((stages / "aggregate.py").read_text())
    fns = {n.name: n for n in agg.body if isinstance(n, ast.FunctionDef)}
    for name in ("grouped_count", "grouped_sums", "pivot_count",
                 "attendee_location_pools", "partial_count_batch"):
        assert _calls(fns[name], pandas) == [], name
