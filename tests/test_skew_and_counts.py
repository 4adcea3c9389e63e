"""Hub-entity skew handling and the reference's counting invariants."""

from __future__ import annotations

import pandas as pd


class TestHubSkew:
    def test_entity_degree_dominated_by_hubs(self, ray_session):
        """The fixture bakes hub locations (HQ/Zoom, ~30% of events —
        FIXTURES.md skew knob); the pre-aggregated degree count must surface
        them as the top two."""
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
            synth_pages_dataset,
        )
        from calendar_event_entity_extraction_ray.stages.aggregate import (
            entity_degree,
        )

        triples = kg_triples(synth_pages_dataset(300, seed=42))
        deg = entity_degree(triples).to_pandas()
        top2 = set(deg.sort_values("degree", ascending=False)["obj"].head(2))
        assert top2 == {"HQ", "Zoom"}


class TestCountingInvariant:
    def test_upper_bound_n_plus_n_plus_synth(self, ray_session):
        """Reference counting logic (augmentation/main.py:48-53): total
        after augmentation+synth+dedup <= N + N + synth."""
        import ray

        from calendar_event_entity_extraction_ray.pipelines.augmentation import (
            augment_pipeline,
        )
        from calendar_event_entity_extraction_ray.stages.augment import (
            records_to_table,
        )

        n, synth = 50, 30
        rows = [
            {"event_text": f"Sync with Person{i} at Desk{i} on 03/03/2025",
             "action": "sync", "attendees": [f"Person{i}"],
             "location": f"Desk{i}", "row_id": i}
            for i in range(n)
        ]
        out = augment_pipeline(ray.data.from_arrow(records_to_table(rows)),
                               n_synth=synth, seed=3)
        total = out.count()
        assert n <= total <= n + n + synth


class TestStringAggSkew:
    def test_hot_key_ordered_collect(self, ray_session):
        """One key holding 90% of rows: the ordered collect must still
        produce the exact global order for that key (all its rows
        co-locate in one partition by construction)."""
        import ray

        from calendar_event_entity_extraction_ray.stages.aggregate import (
            string_agg_by_key,
        )

        rows = [{"k": "hot", "o": i, "v": str(i % 7)} for i in range(900)]
        rows += [{"k": f"c{i}", "o": i, "v": "x"} for i in range(100)]
        ds = ray.data.from_items(rows).repartition(16)
        got = string_agg_by_key(ds, "k", "v", ["o"], sep=",",
                                out_col="agg").to_pandas()
        hot = got[got["k"] == "hot"]["agg"].iloc[0]
        assert hot == ",".join(str(i % 7) for i in range(900))
        assert len(got) == 101
