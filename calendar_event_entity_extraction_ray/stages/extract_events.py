"""S2: grammar event extraction — stateful stage, run task-form.

The reference's analogue is the fine-tuned-LLM decode loop hosted per
process (src/infer.py:52-96); here the "model" is the compiled regex grammar
plus memoized dateutil normalization (functions/extract.py), compiled ONCE
in ``__init__`` and reused across batches: the stage runs as a task behind
the per-worker instance cache (``stages/taskform.py:run_stage``), so that is
once per worker process. The lru caches on
``normalize_date``/``normalize_time`` are per-process too — repeated
surface forms (web text repeats heavily) hit the cache.

Output: one row per extracted event, carrying ``(event_id, url, warc_ts,
event_ordinal, <8 slots>)``. Each slot column is built straight from the
grammar's event dicts; ``url`` and ``warc_ts`` are ``take``n from the page
rows. ``warc_ts`` rides along only for the deterministic first-wins
ordering of the downstream dedup.
"""

from __future__ import annotations

import pyarrow as pa

from calendar_event_entity_extraction_ray import TARGET_KEYS
from calendar_event_entity_extraction_ray.functions.extract import EventGrammar
from calendar_event_entity_extraction_ray.functions.textsig import event_id

_SCHEMA = pa.schema(
    [("event_id", pa.string()), ("url", pa.string()),
     ("warc_ts", pa.timestamp("us")), ("event_ordinal", pa.int32())]
    + [(k, pa.list_(pa.string()) if k == "attendees" else pa.string())
       for k in TARGET_KEYS])


class ExtractEvents:
    """map_batches(run_stage, fn_kwargs={"_cls": ExtractEvents})."""

    def __init__(self) -> None:
        self.grammar = EventGrammar()

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows, ids, events = [], [], []
        for i, (url, text) in enumerate(zip(batch.column("url").to_pylist(),
                                            batch.column("text").to_pylist())):
            page = self.grammar.extract_page(text or "")
            events += page
            rows += [i] * len(page)
            ids += [event_id(url, ev["event_ordinal"]) for ev in page]
        base = batch.select(["url", "warc_ts"]).take(pa.array(rows, pa.int64()))
        return pa.Table.from_arrays(
            [pa.array(ids, pa.string()), base.column("url"),
             base.column("warc_ts")]
            + [pa.array([ev[f.name] for ev in events], f.type)
               for f in list(_SCHEMA)[3:]],  # event_ordinal + the slots
            names=_SCHEMA.names).cast(_SCHEMA)
