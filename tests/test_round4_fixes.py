"""Round-4 ADVICE fixes: pattern_match_counts zero-match keys, k-core
iteration-exhaustion warning, deferred temp-dir cleanup registry."""

import numpy as np
import pyarrow as pa


class TestPatternZeroMatchKeys:
    def test_key_with_no_alphabet_events_kept(self, ray_session):
        """A key whose events ALL fall outside the alphabet must appear
        with n_matches=0 (the string_agg SQL-oracle semantics), not be
        silently dropped."""
        import ray

        from calendar_event_entity_extraction_ray.stages.windows import (
            pattern_match_counts,
        )

        t = pa.table({
            "k": ["u1", "u1", "u2", "u2", "u3"],
            "ts": pa.array([1, 2, 1, 2, 1], pa.int64()),
            "typ": ["error", "purchase", "scroll", "hover", "error"],
        })
        out = pattern_match_counts(
            ray.data.from_arrow(t).repartition(2),
            "k", "ts", "typ", "ep",
            alphabet={"error": "e", "purchase": "p"}).to_pandas()
        got = dict(zip(out["k"], out["n_matches"]))
        # u2's events are all out-of-alphabet -> present with 0
        assert got == {"u1": 1, "u2": 0, "u3": 0}

    def test_out_of_alphabet_events_contribute_no_char(self, ray_session):
        """Unmapped events interleaved with mapped ones must not break a
        match (they contribute no character)."""
        import ray

        from calendar_event_entity_extraction_ray.stages.windows import (
            pattern_match_counts,
        )

        t = pa.table({
            "k": ["u"] * 3,
            "ts": pa.array([1, 2, 3], pa.int64()),
            "typ": ["error", "scroll", "purchase"],
        })
        out = pattern_match_counts(
            ray.data.from_arrow(t), "k", "ts", "typ", "ep",
            alphabet={"error": "e", "purchase": "p"}).to_pandas()
        assert int(out["n_matches"].iloc[0]) == 1


class TestKcoreExhaustionWarning:
    """Stopping a halting graph algorithm at its round limit with messages
    still pending must warn: the result is not the fixpoint."""

    LOGGER = "calendar_event_entity_extraction_ray.stages.graph"

    def _warned(self, caplog, fn):
        import logging

        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=self.LOGGER):
            out = fn().to_pandas()
        return out, any("not the fixpoint" in r.message
                        for r in caplog.records)

    def test_warns_on_iteration_exhaustion(self, ray_session, caplog):
        """A path graph peels one node per round, so max_iters=0 on a
        4-node path with k=2 leaves undelivered death notifications (the
        survivors are a superset of the true core)."""
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import k_core

        edges = ray.data.from_arrow(pa.table({
            "a": pa.array([1, 2, 3], pa.int64()),
            "b": pa.array([2, 3, 4], pa.int64()),
        }))
        out, warned = self._warned(caplog, lambda: k_core(
            edges, "a", "b", 2, max_iters=0, num_partitions=2))
        assert warned and len(out) > 0
        # and the fixpoint run (enough rounds) is empty with no warning
        full, warned = self._warned(caplog, lambda: k_core(
            edges, "a", "b", 2, num_partitions=2))
        assert len(full) == 0
        assert not warned

    def test_cc_warns_on_iteration_exhaustion(self, ray_session, caplog):
        """A 17-node chain needs more than two CC iterations: stopping
        early splits it (15 clusters after one, 11 after two) and warns."""
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            connected_components,
        )

        n = 17
        edges = ray.data.from_arrow(pa.table({
            "a": pa.array(list(range(n - 1)), pa.int64()),
            "b": pa.array(list(range(1, n)), pa.int64()),
        }))
        for iters, clusters in ((1, 15), (2, 11)):
            out, warned = self._warned(caplog, lambda: connected_components(
                edges, "a", "b", max_iters=iters, num_partitions=2))
            assert warned
            assert out["cluster"].nunique() == clusters
        full, warned = self._warned(caplog, lambda: connected_components(
            edges, "a", "b", num_partitions=2))
        assert set(full["cluster"]) == {0} and not warned


class TestIntHashParity:
    def test_numpy_duckdb_bit_identical(self):
        """shuffle_key32 (vectorized shuffle key) must be bit-identical
        to its generated DuckDB BIGINT expression across the id range,
        including ids above 2^32."""
        import duckdb
        import pandas as pd

        from calendar_event_entity_extraction_ray.functions.inthash import (
            shuffle_key32,
            shuffle_key32_sql,
        )

        rng = np.random.default_rng(7)
        ids = np.concatenate([
            rng.integers(0, 2**31, 2000),
            rng.integers(0, 2**62, 2000),
            np.array([0, 1, 2**32 - 1, 2**32, 2**62]),
        ]).astype(np.int64)
        for seed in (42, 7):
            py = shuffle_key32(ids, seed)
            con = duckdb.connect()
            con.register("t", pd.DataFrame({"id": ids}))
            db = con.execute(
                f"SELECT {shuffle_key32_sql('id', seed)} AS k FROM t"
            ).fetchnumpy()["k"].astype(np.int64)
            assert (py == db).all()
        # permutation quality: no collisions over a dense id range
        u = shuffle_key32(np.arange(100_000), 42)
        assert len(np.unique(u)) == 100_000


class TestDeferCleanup:
    def test_registered_dir_removed_by_cleanup(self, tmp_path):
        import os

        from calendar_event_entity_extraction_ray.stages.exchange import (
            cleanup_pending_spill,
            defer_cleanup,
        )

        d = tmp_path / "scratch"
        d.mkdir()
        (d / "x.txt").write_text("x")
        defer_cleanup(str(d))
        assert cleanup_pending_spill() >= 1
        assert not os.path.exists(str(d))


class TestSortedArrayBroadcast:
    """Zero-copy sorted-array broadcasts (stages/broadcast.py) — the
    at-scale replacement for dict broadcasts on data-scaled dims."""

    def test_lookup_sorted_matches_dict_semantics(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.broadcast import (
            broadcast_sorted_map, lookup_sorted,
        )

        ref = broadcast_sorted_map(
            np.array([30, 10, 20]), pa.array(["c", "a", "b"]))
        ds = ray.data.from_arrow(pa.table({
            "k": pa.array([10, 20, 99, 30, 10], pa.int64())}))
        out = lookup_sorted(ds, ref, "k", "v").to_pandas()
        # INNER: the miss (99) is dropped; hits map in order
        assert list(out["k"]) == [10, 20, 30, 10]
        assert list(out["v"]) == ["a", "b", "c", "a"]

    def test_duplicate_keys_last_wins(self, ray_session):
        """Dict-comprehension parity: {k: v for ...} keeps the LAST
        value of a duplicated key."""
        import ray

        from calendar_event_entity_extraction_ray.stages.broadcast import (
            broadcast_sorted_map, lookup_sorted,
        )

        ref = broadcast_sorted_map(
            np.array([5, 5, 7]), pa.array(["first", "second", "x"]))
        ds = ray.data.from_arrow(pa.table({
            "k": pa.array([5, 7], pa.int64())}))
        out = lookup_sorted(ds, ref, "k", "v").to_pandas()
        assert list(out["v"]) == ["second", "x"]

    def test_semi_and_anti_filter(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.broadcast import (
            broadcast_keyset, semi_filter_sorted,
        )

        ref = broadcast_keyset(np.array([2, 4, 4, 6]))
        ds = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2, 3, 4, 5, 6], pa.int64()),
            "v": pa.array(list("abcdef"))}))
        semi = semi_filter_sorted(ds, ref, "k").to_pandas()
        anti = semi_filter_sorted(ds, ref, "k", keep=False).to_pandas()
        assert list(semi["v"]) == ["b", "d", "f"]
        assert list(anti["v"]) == ["a", "c", "e"]

    def test_empty_keyset_and_empty_map(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.broadcast import (
            broadcast_keyset, broadcast_sorted_map, lookup_sorted,
            semi_filter_sorted,
        )

        ds = ray.data.from_arrow(pa.table({
            "k": pa.array([1, 2], pa.int64())}))
        kref = broadcast_keyset(np.array([], dtype=np.int64))
        assert semi_filter_sorted(ds, kref, "k").count() == 0
        assert semi_filter_sorted(ds, kref, "k", keep=False).count() == 2
        mref = broadcast_sorted_map(
            np.array([], dtype=np.int64), pa.array([], pa.string()))
        assert lookup_sorted(ds, mref, "k", "v").count() == 0
