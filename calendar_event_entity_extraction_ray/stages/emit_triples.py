"""S3: events -> (subj, pred, obj) triple explosion — stateless stage.

One triple per non-null, non-blank slot, one per attendee list element
(SURVEY.md §1.4); ``functions/triples.py:event_to_triples`` is the
per-event reference this stage equals row for row. ``kind`` marks which
objects are linkable entities (person/place) so the linker stage only
touches those rows. Duplicate (subj, pred, obj) rows can only arise
WITHIN one event row (two attendee surfaces linking to the same
canonical) because ``subj`` embeds the url — so exact triple dedup is a
per-batch operation downstream, not a shuffle.

Columnar: each slot keeps its valid, non-blank values (attendees through
``list_flatten`` + ``list_parent_indices``, which keep element order);
one stable sort on (event row, slot ordinal) restores the per-event
order, and ``take`` copies subj/url/warc_ts from the event rows. No
value passes through Python.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from calendar_event_entity_extraction_ray import PREDICATES
from calendar_event_entity_extraction_ray import TARGET_KEYS

_KIND = {"attendees": "person", "location": "place"}
_PREDS = pa.array([PREDICATES[k] for k in TARGET_KEYS], pa.string())
_KINDS = pa.array([_KIND.get(k, "") for k in TARGET_KEYS], pa.string())
_SCHEMA = pa.schema([("subj", pa.string()), ("pred", pa.string()),
                     ("obj", pa.string()), ("kind", pa.string()),
                     ("url", pa.string()), ("warc_ts", pa.timestamp("us"))])


def emit_triples_batch(batch: pa.Table) -> pa.Table:
    rows, objs = [], []
    for k in TARGET_KEYS:
        col = batch.column(k)
        if k == "attendees":
            row = pc.list_parent_indices(col)
            col = pc.list_flatten(col)
        else:
            row = pa.array(np.arange(batch.num_rows))
        # Python's str.strip and utf8_trim_whitespace strip the same code
        # points (pinned by a test); a NULL value gives a NULL mask entry,
        # which filter drops
        keep = pc.not_equal(pc.utf8_trim_whitespace(col), "")
        rows.append(pc.filter(row, keep).to_numpy())
        objs.append(pc.filter(col, keep).combine_chunks())
    slot = np.repeat(np.arange(len(TARGET_KEYS)), [len(r) for r in rows])
    row = np.concatenate(rows)
    order = np.argsort(row * len(TARGET_KEYS) + slot, kind="stable")
    slot, row = slot[order], row[order]
    base = batch.select(["event_id", "url", "warc_ts"]).take(row)
    return pa.Table.from_arrays(
        [base.column("event_id"), _PREDS.take(slot),
         pa.concat_arrays(objs).take(order), _KINDS.take(slot),
         base.column("url"), base.column("warc_ts")], schema=_SCHEMA)
