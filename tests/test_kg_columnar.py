"""The fused KG UDF's columnar stages: S3 emit equals the per-event
reference row for row, S4 links once per distinct (kind, surface), and
repeated ``kg_triples`` calls share one cached stage per worker."""

from __future__ import annotations

import random
from datetime import datetime, timedelta

import pyarrow as pa
import pyarrow.compute as pc

from calendar_event_entity_extraction_ray import TARGET_KEYS
from calendar_event_entity_extraction_ray.functions.triples import (
    event_to_triples,
)
from calendar_event_entity_extraction_ray.functions.textsig import event_id
from calendar_event_entity_extraction_ray.stages.emit_triples import (
    emit_triples_batch,
)
from calendar_event_entity_extraction_ray.stages.extract_events import (
    _SCHEMA,
    ExtractEvents,
)
from calendar_event_entity_extraction_ray.stages.link_entities import (
    LinkEntities,
)

_KIND = {"hasAttendee": "person", "hasLocation": "place"}
_VALUES = [None, "", " ", "　", "\x1c", " \t\n", "Ann", " Bob ",
           "Main Hall", "x　y", "2025-01-02"]


def _events(n: int, seed: int) -> pa.Table:
    """``n`` S2-shaped event rows whose slots mix NULLs, blanks and
    values; attendees mix NULL and empty lists and NULL/blank
    elements."""
    rng = random.Random(seed)
    rows = []
    for i in range(n):
        url = f"http://p{i % 7}"
        row = {"event_id": event_id(url, i), "url": url,
               "warc_ts": datetime(2025, 1, 1) + timedelta(seconds=i),
               "event_ordinal": i}
        for k in TARGET_KEYS:
            if k == "attendees":
                row[k] = rng.choice([
                    None, [], [rng.choice(_VALUES)
                               for _ in range(rng.randint(1, 4))]])
            else:
                row[k] = rng.choice(_VALUES)
        rows.append(row)
    return pa.Table.from_pylist(rows, schema=_SCHEMA)


def _reference(events: pa.Table) -> list:
    out = []
    for r in events.to_pylist():
        for subj, pred, obj, url in event_to_triples(
                r["url"], r["event_ordinal"], r):
            out.append((subj, pred, obj, _KIND.get(pred, ""), url,
                        r["warc_ts"]))
    return out


class TestEmitParity:
    def test_rows_equal_event_to_triples(self):
        ev = _events(300, seed=1)
        got = emit_triples_batch(ev)
        assert list(zip(*got.to_pydict().values())) == _reference(ev)

    def test_multi_chunk_columns(self):
        ev = _events(200, seed=2)
        chunked = pa.Table.from_batches(ev.to_batches(max_chunksize=37))
        assert chunked.column("attendees").num_chunks > 1
        got = emit_triples_batch(chunked)
        assert got.equals(emit_triples_batch(ev))
        assert list(zip(*got.to_pydict().values())) == _reference(ev)

    def test_zero_rows_keep_the_typed_schema(self):
        got = emit_triples_batch(_SCHEMA.empty_table())
        assert got.num_rows == 0
        assert got.schema == pa.schema(
            [("subj", pa.string()), ("pred", pa.string()),
             ("obj", pa.string()), ("kind", pa.string()),
             ("url", pa.string()), ("warc_ts", pa.timestamp("us"))])

    def test_blank_is_python_strip_on_every_code_point(self):
        """The emit's blank test (``utf8_trim_whitespace``) and the
        reference's (``str.strip``) agree on every code point."""
        chars = [chr(c) for c in range(0x110000)
                 if not 0xD800 <= c <= 0xDFFF]
        arrow = pc.equal(pc.utf8_trim_whitespace(pa.array(chars)), "")
        assert arrow.to_pylist() == [not c.strip() for c in chars]


class TestExtractWithoutEvents:
    """S2 keeps its typed schema when no page yields an event: an empty
    block, or pages that are empty, NULL or event-free."""

    @staticmethod
    def _pages(texts) -> pa.Table:
        return pa.table({
            "url": pa.array([f"http://q{i}" for i in range(len(texts))],
                            pa.string()),
            "warc_ts": pa.array([datetime(2025, 1, 1)] * len(texts),
                                pa.timestamp("us")),
            "text": pa.array(texts, pa.string())})

    def test_zero_row_block(self):
        got = ExtractEvents()(self._pages([]))
        assert got.num_rows == 0 and got.schema == _SCHEMA

    def test_pages_without_events(self):
        got = ExtractEvents()(self._pages(
            ["", None, "no calendar here.", "Lorem ipsum dolor sit amet."]))
        assert got.num_rows == 0 and got.schema == _SCHEMA


class _CountingLinker:
    def __init__(self):
        self.calls = []

    def link(self, surface, kind):
        self.calls.append((kind, surface))
        return f"{kind}:{surface.upper()}"


def _linkable(rows, chunk: int) -> pa.Table:
    t = pa.table({"subj": pa.array([f"e{i}" for i in range(len(rows))]),
                  "obj": pa.array([r[0] for r in rows], pa.string()),
                  "kind": pa.array([r[1] for r in rows], pa.string())})
    return pa.Table.from_batches(t.to_batches(max_chunksize=chunk))


class TestLinkPerDistinct:
    ROWS = ([("ann", "person"), ("bob", "person"), (None, "person"),
             ("ann", "place"), ("hall", "place"), ("ann", ""),
             ("ann", None), (None, None), ("Sync", "title")] * 40)

    def _stage(self):
        st = LinkEntities(alias_ref=[])
        st.linker = _CountingLinker()
        return st

    def test_one_link_per_distinct_kind_surface(self):
        st = self._stage()
        st(_linkable(self.ROWS, chunk=50))
        want = {(k, o) for o, k in self.ROWS if o is not None and k}
        assert sorted(st.linker.calls) == sorted(want)
        st.memo.clear()
        st(_linkable(self.ROWS[:9], chunk=4))
        assert len(st.linker.calls) == 2 * len(want)

    def test_equals_a_per_row_link(self):
        st = self._stage()
        batch = _linkable(self.ROWS, chunk=50)
        got = st(batch)
        want = [st._link(o, k) for o, k in self.ROWS]
        assert got.column("obj").to_pylist() == want
        assert got.schema == batch.schema
        assert got.drop(["obj"]).equals(batch.drop(["obj"]))
        # empty / NULL kinds and NULL objects pass through
        assert want[5:8] == ["ann", "ann", None] and want[2] is None


class TestKgTriplesStageCache:
    def test_repeated_calls_share_one_stage_per_worker(self, ray_session):
        import time

        import ray

        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
        )

        seed = 7_654_321  # unique to this test: marks its cache entries
        for _ in range(3):
            kg_triples(ray.data.range(40, override_num_blocks=8),
                       gen_seed=seed).materialize()

        @ray.remote(num_cpus=1)
        def probe():
            import os

            from calendar_event_entity_extraction_ray.stages import taskform

            time.sleep(0.3)  # hold the worker so the probes spread out
            return os.getpid(), [
                dict(k[2])["alias_ref"] for k in taskform._INSTANCE_CACHE
                if k[1] == "FusedKgStage"
                and dict(k[2])["gen_seed"] == ("val", seed)]

        seen = dict(ray.get([probe.remote() for _ in range(16)]))
        refs = [r for entries in seen.values() for r in entries]
        assert refs, "no probed worker ran the stage"
        assert all(len(entries) <= 1 for entries in seen.values()), seen
        assert len(set(refs)) == 1
