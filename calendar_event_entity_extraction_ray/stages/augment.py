"""Distributed augmentation stages over flattened (event_text, 8-slot) rows.

Reference pipeline steps 1-5 of augmentation/main.py:103-148 re-expressed as
Ray Data stages. Record layout: one column per slot (``attendees`` is
list<string>) + ``event_text`` + a stable ``row_id`` ordering column (the
engine's replacement for the reference's list order — makes dedup's
first-wins deterministic under parallelism).

Determinism: the augmentation RNG is seeded PER ROW from
``(seed, event_text)`` — results are independent of batch boundaries,
partitioning, and actor count.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

import pyarrow as pa

import ray

from calendar_event_entity_extraction_ray import TARGET_KEYS
from calendar_event_entity_extraction_ray.functions.augmentors import (
    swap_entities_with_pools,
)
from calendar_event_entity_extraction_ray.functions.normalize import (
    normalize_date,
    normalize_time,
)
from calendar_event_entity_extraction_ray.functions.render import render_from_json
from calendar_event_entity_extraction_ray.functions.schema import coerce_empty_to_null
from calendar_event_entity_extraction_ray.functions.textsig import hash64

_RECORD_FIELDS = [
    ("event_text", pa.string()),
    ("action", pa.string()),
    ("date", pa.string()),
    ("time", pa.string()),
    ("attendees", pa.list_(pa.string())),
    ("location", pa.string()),
    ("duration", pa.string()),
    ("recurrence", pa.string()),
    ("notes", pa.string()),
    ("row_id", pa.int64()),
]
RECORD_SCHEMA = pa.schema(_RECORD_FIELDS)


def records_to_table(rows: List[Dict[str, Any]]) -> pa.Table:
    cols = {name: [] for name, _ in _RECORD_FIELDS}
    for i, r in enumerate(rows):
        o = r.get("output") or {k: r.get(k) for k in TARGET_KEYS}
        cols["event_text"].append((r.get("event_text") or "").strip())
        for k in TARGET_KEYS:
            cols[k].append(o.get(k, None))
        cols["row_id"].append(r.get("row_id", i))
    return pa.table({name: pa.array(cols[name], typ) for name, typ in _RECORD_FIELDS})


def _row_slots(batch: pa.Table, i: int) -> Dict[str, Any]:
    return {k: batch.column(k)[i].as_py() for k in TARGET_KEYS}


def normalize_records_batch(batch: pa.Table) -> pa.Table:
    """ensure_schema + ""->None + date/time normalization
    (reference: main.py:114-118, augmentors.py:51-61)."""
    n = batch.num_rows
    out_rows = []
    for i in range(n):
        o = {k: coerce_empty_to_null(v) for k, v in _row_slots(batch, i).items()}
        o["date"] = normalize_date(o.get("date"))
        o["time"] = normalize_time(o.get("time"))
        out_rows.append(
            {
                "event_text": batch.column("event_text")[i].as_py(),
                "row_id": batch.column("row_id")[i].as_py(),
                **o,
            }
        )
    return records_to_table(out_rows)


class AugmentRecords:
    """1-per-row augmentation (reference: main.py:124-143): per input row
    emit the original and at most ONE variant (entity swap or JSON->text
    render), candidates dropped when identical to the source text.

    Pools are broadcast via ray.put and fetched once per actor."""

    def __init__(self, att_pool_ref=None, loc_pool_ref=None, seed: int = 42) -> None:
        def fetch(ref):
            if ref is None:
                return []
            return ray.get(ref) if isinstance(ref, ray.ObjectRef) else list(ref)

        self.att_pool = fetch(att_pool_ref)
        self.loc_pool = fetch(loc_pool_ref)
        self.seed = seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        out_rows: List[Dict[str, Any]] = []
        for i in range(batch.num_rows):
            text = (batch.column("event_text")[i].as_py() or "").strip()
            row_id = batch.column("row_id")[i].as_py()
            o = _row_slots(batch, i)
            out_rows.append({"event_text": text, "row_id": row_id * 2, **o})

            rng = random.Random(f"aug:{self.seed}:{hash64(text)}")
            candidates = []
            nt, no = swap_entities_with_pools(text, o, self.att_pool, self.loc_pool, rng)
            if nt and nt.strip() != text:
                candidates.append((nt.strip(), no))
            rendered = render_from_json(o, rng)
            if rendered and rendered.strip() != text:
                candidates.append((rendered.strip(), o))
            if candidates:
                ct, co = rng.choice(candidates)
                out_rows.append({"event_text": ct, "row_id": row_id * 2 + 1,
                                 **{k: co.get(k) for k in TARGET_KEYS}})
        return records_to_table(out_rows)


def synth_records_batch(indices, seed: int = 42) -> pa.Table:
    """Synthetic (event_text, slots) records — the reference's Faker synth
    (faker_synth.py:287-360) re-expressed with the shared grammar, one
    deterministic record per index (distributed over ray.data.range)."""
    from calendar_event_entity_extraction_ray.sources.pages import _draw_event, _golden_slots

    rows = []
    # synth ids live in a disjoint high space: augmented variants use
    # 2*row_id(+1), so any overlap would break the explicit total order that
    # makes first-wins dedup deterministic. Base 2^42 is disjoint from
    # doubled corpus ids (valid while input row_id < 2^41 ≈ 2.2e12) and
    # survives ~20 further doublings without int64 overflow.
    base = 1 << 42
    for i in indices:
        rng = random.Random(f"synth:{seed}:{int(i)}")
        sent, draws = _draw_event(rng)
        rows.append({"event_text": sent, "row_id": base + int(i),
                     **_golden_slots(draws)})
    return records_to_table(rows)
