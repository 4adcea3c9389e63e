"""Malformed-input robustness + staged/fused pipeline equivalence."""

from __future__ import annotations

from datetime import datetime

import pyarrow as pa


def _pages_table(rows):
    return pa.table({
        "url": pa.array([r[0] for r in rows], pa.string()),
        "warc_ts": pa.array([r[1] for r in rows], pa.timestamp("us")),
        "html": pa.array([r[2] for r in rows], pa.binary()),
        "text": pa.array([r[3] for r in rows], pa.string()),
        "lang": pa.array([r[4] for r in rows], pa.string()),
    })


class TestMalformedPages:
    def test_pipeline_survives_junk(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.pipelines.kg import kg_triples

        ts = datetime(2025, 1, 1)
        rows = [
            ("http://a", ts, None, None, "en"),                      # null html
            ("http://b", ts, b"", "", "en"),                          # empty
            ("http://c", ts, b"\xff\xfe broken <p>bytes</p>", None, "en"),
            ("http://d", ts, b"<p>no closing tag", None, "en"),
            ("http://e", ts, b"<p>" + b"x" * 100_000 + b"</p>", None, "en"),
            ("http://f", ts, "<p>Add a call on 01/02/2025 at 9AM.</p>".encode(), None, "en"),
            ("http://g", ts, b"<p>Add a call on 01/02/2025 at 9AM.</p>", None, "xx"),  # filtered lang
            ("http://h", ts, b"<p>at 99:99 on 45/45/4545 with ,, for -3 minutes</p>", None, "en"),
        ]
        out = kg_triples(ray.data.from_arrow(_pages_table(rows))).to_pandas()
        # only page f yields an event; malformed ones degrade to null slots
        # or produce no event — never an exception
        assert set(out[out["pred"] == "hasDate"]["url"]) == {"http://f"}

    def test_unparseable_values_become_null_not_errors(self):
        from calendar_event_entity_extraction_ray.functions.extract import (
            EventGrammar,
        )

        g = EventGrammar()
        ev = g.extract_sentence("Add a call on 99/99/9999 at 9AM.")
        assert ev is not None
        assert ev["date"] is None  # dateutil failure -> None (reference rule)
        assert ev["time"] == "9:00 AM"


class TestStagedFusedEquivalence:
    def test_identical_output(self, ray_session):
        """The fused task UDF == the stage kernels composed on the driver
        (S1 html->text, lang filter, S2 extract, S3 emit, S4 link, S5
        dedup) over the same pages."""
        from calendar_event_entity_extraction_ray.functions.linking import (
            default_alias_rows,
        )
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
            synth_pages_dataset,
        )
        from calendar_event_entity_extraction_ray.sources.pages import (
            pages_table,
        )
        from calendar_event_entity_extraction_ray.stages.dedup import (
            dedup_triples_batch,
        )
        from calendar_event_entity_extraction_ray.stages.emit_triples import (
            emit_triples_batch,
        )
        from calendar_event_entity_extraction_ray.stages.extract_events import (
            ExtractEvents,
        )
        from calendar_event_entity_extraction_ray.stages.html_to_text import (
            filter_lang,
            html_to_text_batch,
        )
        from calendar_event_entity_extraction_ray.stages.link_entities import (
            LinkEntities,
        )

        def triple_set(df):
            return set(zip(df["subj"], df["pred"], df["obj"]))

        fused = kg_triples(synth_pages_dataset(150, seed=9)).to_pandas()
        t = filter_lang(html_to_text_batch(pages_table(range(150), seed=9)))
        t = emit_triples_batch(ExtractEvents()(t))
        t = LinkEntities(alias_ref=default_alias_rows())(t)
        staged = dedup_triples_batch(t).to_pandas()
        assert len(staged) > 0
        assert triple_set(fused) == triple_set(staged)


def _pandas_first_wins(batch: pa.Table) -> pa.Table:
    """The pandas (subj, pred, obj) first-wins distinct that
    ``dedup_triples_batch`` must equal row for row."""
    df = batch.to_pandas().drop_duplicates(subset=["subj", "pred", "obj"],
                                           keep="first")
    return pa.Table.from_pandas(df, preserve_index=False).cast(batch.schema)


def _emitted(rows):
    """An emit-stage batch: (subj, pred, obj, kind, url, warc_ts)."""
    ts = datetime(2025, 1, 1)
    return pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
        "kind": pa.array([r[3] for r in rows], pa.string()),
        "url": pa.array(["http://a"] * len(rows), pa.string()),
        "warc_ts": pa.array([ts] * len(rows), pa.timestamp("us")),
    })


class TestDedupTriplesBatch:
    """S5 in Arrow: first-wins (subj, pred, obj) distinct, equal to the
    pandas version row for row, with the input schema."""

    def _check(self, batch: pa.Table) -> pa.Table:
        from calendar_event_entity_extraction_ray.stages.dedup import (
            dedup_triples_batch,
        )

        got = dedup_triples_batch(batch)
        assert got.equals(_pandas_first_wins(batch))
        assert got.schema == batch.schema
        assert b"pandas" not in (got.schema.metadata or {})
        return got

    def test_two_surfaces_linking_to_one_canonical(self):
        from calendar_event_entity_extraction_ray.functions.linking import (
            default_alias_rows,
        )
        from calendar_event_entity_extraction_ray.stages.link_entities import (
            LinkEntities,
        )

        linked = LinkEntities(alias_ref=default_alias_rows())(_emitted([
            ("e1", "hasTitle", "Sync", "title"),
            ("e1", "hasAttendee", "Jon", "person"),
            ("e1", "hasAttendee", "Johnny", "person"),
            ("e1", "hasAttendee", "Liz", "person"),
            ("e2", "hasAttendee", "Johnny", "person"),
        ]))
        assert linked.column("obj").to_pylist().count("John") == 3
        got = self._check(linked)
        assert got.column("obj").to_pylist() == [
            "Sync", "John", "Elizabeth", "John"]

    def test_null_obj_collapses_like_pandas(self):
        got = self._check(_emitted([
            ("e1", "hasDate", None, "date"),
            ("e1", "hasTime", None, "time"),
            ("e1", "hasDate", None, "date"),
            ("e1", "hasDate", "2025-01-02", "date"),
            ("e2", "hasDate", None, "date"),
        ]))
        assert got.num_rows == 4

    def test_empty_batch(self):
        got = self._check(_emitted([]))
        assert got.num_rows == 0
