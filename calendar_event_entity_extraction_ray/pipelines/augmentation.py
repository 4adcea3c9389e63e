"""The reference's augmentation pipeline (augmentation/main.py:103-193) as a
Ray Data pipeline over flattened event records.

    records -> normalize -> [entity pools: pre-aggregated grouped count + top-k,
    broadcast] -> 1-per-row augment (actor pool) -> union synth records ->
    exact first-wins dedup (hash shuffle, ordered by row_id) ->
    random_shuffle(seed+1) -> hash split 75/15/10 -> leakage anti-join

The reference's pipeline barrier (pools need a full pass, main.py:121) is
preserved: the pool aggregate materializes (it is top-500 — tiny) before the
augmentation stage starts.
"""

from __future__ import annotations

from typing import Dict, Optional

import ray
import ray.data

from calendar_event_entity_extraction_ray.stages.aggregate import (
    attendee_location_pools,
)
from calendar_event_entity_extraction_ray.stages.augment import (
    AugmentRecords,
    normalize_records_batch,
    synth_records_batch,
)
from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup
from calendar_event_entity_extraction_ray.stages.split import (
    assign_split_batch,
    drop_split_leakage,
)


def augment_pipeline(
    records: "ray.data.Dataset",
    n_synth: int = 0,
    seed: int = 42,
    concurrency: int | tuple = (1, 4),
) -> "ray.data.Dataset":
    """records (RECORD_SCHEMA) -> augmented, deduped, shuffled dataset."""
    normalized = records.map_batches(normalize_records_batch, batch_format="pyarrow")

    # Pipeline barrier (reference main.py:121): the pool aggregate needs a
    # full pass before augmentation can start, and the augment stage scans
    # the same rows again — materialize the normalized corpus once so the
    # normalize stage doesn't execute twice. (At petabyte scale this barrier
    # would be a parquet checkpoint instead of object-store pinning; the
    # barrier itself is inherent to the reference's semantics.)
    normalized = normalized.materialize()

    att_pool, loc_pool = attendee_location_pools(normalized, k=500)
    att_ref, loc_ref = ray.put(att_pool), ray.put(loc_pool)

    from calendar_event_entity_extraction_ray.stages.taskform import (
        run_stage,
    )

    augmented = normalized.map_batches(
        run_stage,
        fn_kwargs={"_cls": AugmentRecords, "att_pool_ref": att_ref,
                   "loc_pool_ref": loc_ref, "seed": seed},
        batch_format="pyarrow",
    )

    if n_synth > 0:
        synth = ray.data.range(n_synth).map_batches(
            lambda b: synth_records_batch(b.column("id").to_pylist(), seed=seed),
            batch_format="pyarrow",
        )
        augmented = augmented.union(synth)

    # Exact first-wins dedup on (text, key-sorted slot signature); "first" =
    # smallest row_id (explicit total order replacing list order).
    deduped = exact_dedup(
        augmented,
        key_cols=["event_text", "action", "date", "time", "attendees",
                  "location", "duration", "recurrence", "notes"],
        order_col="row_id",
    )
    return deduped.random_shuffle(seed=seed + 1)


def split_records(
    ds: "ray.data.Dataset", text_col: str = "event_text"
) -> Dict[str, "ray.data.Dataset"]:
    """Hash 75/15/10 split + leakage anti-join (train > eval > test)."""
    with_split = ds.map_batches(
        lambda b: assign_split_batch(b, text_col=text_col), batch_format="pyarrow"
    )
    return drop_split_leakage(with_split, text_col=text_col)


def write_splits(
    splits: Dict[str, "ray.data.Dataset"], out_dir: str
) -> Dict[str, int]:
    """Write train/eval/test as JSONL directories (reference ``save_split``,
    src/prepare_assignment_data.py:57-62). Returns row counts per split."""
    import os

    counts = {}
    for name, ds in splits.items():
        path = os.path.join(out_dir, name)
        ds.write_json(path)
        counts[name] = ds.count()
    return counts
