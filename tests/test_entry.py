"""Driver-contract smoke: entry() and the queries()/oracle_sql() shape."""

from __future__ import annotations

import sys

sys.path.insert(0, "/root/repo")


class TestDriverContract:
    def test_entry_runs(self, ray_session):
        import __ray_entry__ as E

        ds = E.entry()
        n = ds.count()
        assert n > 0
        names = set(ds.schema().names)
        assert {"subj", "pred", "obj", "url"} <= names

    def test_queries_shape(self):
        import __ray_entry__ as E

        qs = E.queries()
        sqls = E.oracle_sql()
        # every query carries an oracle, and every oracle a query
        assert set(qs) == set(sqls)
        assert len(qs) == 194
        assert all(isinstance(v, str) and v for v in sqls.values())

    def test_duplicate_registration_rejected(self):
        import pytest

        from calendar_event_entity_extraction_ray.catalog import REGISTRY, query

        before = dict(REGISTRY)
        with pytest.raises(ValueError, match="doc_stats"):
            query("doc_stats", "SELECT 1")(lambda sf_dir: None)
        assert REGISTRY == before

    def test_bench_flags(self):
        from calendar_event_entity_extraction_ray.catalog import REGISTRY

        bench = [n for n, q in REGISTRY.items() if q.bench]
        assert len(bench) == len(set(bench)) == 89
        assert {"q1_lineitem_agg", "segment_revenue",
                "hist_state_quantiles"} <= set(bench)

    def test_one_query_runs(self, ray_session):
        import __ray_entry__ as E

        df = E.queries()["doc_stats"]("/root/testdata/sf0.001")
        assert df["n_rows"].iloc[0] == 500
