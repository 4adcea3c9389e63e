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
