"""Epoch-incremental decayed counters — the feature-store serving state
of `stages/windows.py:decayed_counts`, kept across crawl epochs without
re-reading old events (epoch protocol: stages/keyedstate.py).

Increments are EXACT because buckets are ABSOLUTE half-life indexes
(``abs_k = ts_us // half_life_us``), not offsets from the reference
time: the state is a (key, abs_k, n) count table (<= cap+1 live buckets
per key) that epochs only ADD to, and the decay weight
``2^(cap - min(ref_k - abs_k, cap))`` is applied at READ time from the
stored ``ref_us``. Buckets at or beyond the cap horizon clamp to
``ref_k - cap`` when touched — exact for every FUTURE reference because
the ref only advances (their weight is pinned at 2^0 forever)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from calendar_event_entity_extraction_ray.functions.dedup import group_fold
from calendar_event_entity_extraction_ray.stages import keyedstate as ks

STORE = ks.KeyedStore("_DCSTATE.json", "counts", "abs_k", "n", "sum",
                      extras=("ref_us",))
DCSTATE = STORE.state_file


def decayed_counter_epoch(
    ds: "ray.data.Dataset",
    state_dir: str,
    epoch: str,
    key_col: str = "user_id",
    ts_col: str = "ts",
    half_life_hours: int = 48,
    cap: int = 30,
    num_partitions: int = 16,
) -> dict:
    """Ingest one epoch of (key, ts) events into the counter state.
    Geometry (half_life, cap) and key_col are pinned by the first epoch;
    mismatched parameters are rejected. Returns a summary dict."""
    hl_us = int(half_life_hours) * 3_600_000_000
    cap = int(cap)

    def prepare(state: dict):
        new_ref = state.get("ref_us")
        epoch_max = ds.max(ts_col)
        if epoch_max is not None:
            max_us = int(pd.Timestamp(epoch_max).value // 1_000)
            new_ref = max_us if new_ref is None else max(new_ref, max_us)
        if new_ref is None:
            return None  # first epoch and it is empty: keep the empty state
        state["ref_us"] = new_ref
        floor_k = new_ref // hl_us - cap

        def partial(b: pa.Table) -> pa.Table:
            col = b.column(ts_col)
            if pa.types.is_timestamp(col.type):
                col = col.cast(pa.timestamp("us"))
            ts = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
            t = pa.table({key_col: b.column(key_col),
                          "abs_k": np.maximum(ts // hl_us, floor_k)})
            return group_fold(t, [key_col, "abs_k"],
                              {"n": (None, "count_all")})

        def old_clamp(b: pa.Table) -> pa.Table:
            # previous state rows re-enter the fold with abs_k re-clamped
            # to the NEW horizon (exact: see module docstring)
            i = b.schema.get_field_index("abs_k")
            return b.set_column(i, "abs_k", pc.max_element_wise(
                b.column(i), pa.scalar(floor_k, pa.int64())))

        return ds.map_batches(partial, batch_format="pyarrow"), old_clamp

    return ks.run_epoch(
        STORE, state_dir, epoch,
        {"half_life_us": hl_us, "cap": cap, "key_col": key_col},
        num_partitions, prepare)


def read_decayed_counters(state_dir: str) -> "ray.data.Dataset":
    """The serving view: (key, n_events, decayed_num) at the state's
    reference time — identical to running ``decayed_counts`` over the
    FULL concatenated event history with ``ref = max ts`` (pinned by
    tests). Streams the bounded bucket table through one grouped
    reduce; never touches the original events."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    state = ks.load_state(STORE, state_dir)
    counts = ks.read_dataset(STORE, state_dir, state)
    params = state["params"]
    ref_k = int(state["ref_us"]) // int(params["half_life_us"])
    cap = int(params["cap"])
    key_col = params["key_col"]

    def weigh(b: pa.Table) -> pa.Table:
        abs_k = b.column("abs_k").to_numpy(zero_copy_only=False)
        n = b.column("n").to_numpy(zero_copy_only=False)
        k = np.minimum(ref_k - abs_k, cap)
        w = np.left_shift(np.int64(1), (cap - k).astype(np.int64))
        return pa.table({key_col: b.column(key_col),
                         "n_events": pa.array(n.astype(np.int64)),
                         "decayed_num": pa.array(w * n, pa.int64())})

    return grouped_sums(counts.map_batches(weigh, batch_format="pyarrow"),
                        key_cols=[key_col],
                        sum_cols=["n_events", "decayed_num"],
                        count_alias="_nb").drop_columns(["_nb"])
