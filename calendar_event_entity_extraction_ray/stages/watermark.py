"""Event-time watermarks + late-data policy for incremental window
aggregation — the piece that makes the engine's streaming-shaped window
ops real for epoch-delivered input (incremental crawls, log shipping):

- each epoch of events advances the watermark to
  ``max(event_time seen so far) - allowed_lateness``;
- tumbling windows whose END is at or below the watermark FINALIZE —
  their counts are sealed into epoch-stamped parquet and never change;
- rows arriving for an already-final window are LATE and follow a
  declared policy: ``"drop"`` (counted, discarded) or ``"side_output"``
  (sealed into per-epoch late files for reconciliation).

Scale shape (the featstate/fpstore presharded-store pattern — round-4
verdict item 1): the OPEN-window state is sharded by key hash across
``num_partitions`` parquet files, and an epoch is

  phase 1 — ONE key-hash exchange over (per-batch pre-aggregated epoch
    partials ∪ the previous open shards): each fold merges its
    partition, splits late rows (vs the watermark BEFORE this epoch,
    known up front), writes the late side file and a merged CANDIDATE
    shard, and returns only a summary row (file names, late count, and
    the partition's watermark source — max event ts for tumbling, max
    merged session end for sessions);
  phase 2 — the driver computes the new watermark from the summary
    maxima and launches one tiny ray task per candidate shard that
    splits sealed-vs-open and writes the final + open shards.

Nothing data-scaled ever lands on the driver: it sees file names and
counts. Per-epoch cost is O(epoch partials + open state), and the open
state is bounded by the lateness horizon in windows per key — with the
shards, the merge is parallel in keys too (10⁸ active keys = more
shards, not a driver-side pandas concat).

Store rules (the repo's versioned-open-table discipline): workers write
uniquely-named data files and RETURN the names; the state JSON — which
lists every live open/final/late file — is the commit point, written
last, atomically. A crash ANYWHERE mid-epoch leaves the previous
listing intact; orphaned files from the dead attempt are never listed,
hence never read, and the re-run recomputes the epoch byte-identically
(final/late/open are a pure function of (previous state, epoch input)).
Superseded open shards and unlisted orphans are deleted only AFTER the
commit. Re-running a recorded epoch is a no-op.
"""

from __future__ import annotations

import json
import os
import uuid
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from calendar_event_entity_extraction_ray.state.manifest import (
    write_parquet_atomic,
)

WMSTATE = "_WMSTATE.json"
DEFAULT_PARTITIONS = 16


def _load_state(state_dir: str) -> dict:
    p = os.path.join(state_dir, WMSTATE)
    if os.path.exists(p):
        with open(p) as f:
            state = json.load(f)
        if "open_file" in state:
            # the round-4 layout kept ONE open-state file; the sharded
            # layout has no migration, so fail before any KeyError
            raise ValueError(
                f"state dir {state_dir} uses the pre-sharded watermark "
                f"format (single 'open_file'); rebuild it from its events")
        return state
    return {"epochs": [], "watermark_us": None, "num_partitions": None,
            "open_files": [], "final_files": [], "late_files": []}


def _write_state(state_dir: str, state: dict) -> None:
    p = os.path.join(state_dir, WMSTATE)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f)
    os.replace(tmp, p)


def _empty_counts(key_col: str) -> pa.Table:
    return pa.table({key_col: pa.array([], pa.string()),
                     "window_start_us": pa.array([], pa.int64()),
                     "n": pa.array([], pa.int64())})


def _empty_sessions(key_col: str) -> pa.Table:
    return pa.table({key_col: pa.array([], pa.string()),
                     "start_us": pa.array([], pa.int64()),
                     "end_us": pa.array([], pa.int64()),
                     "n": pa.array([], pa.int64())})


_SUMMARY_SCHEMA = pa.schema([
    pa.field("part", pa.int64()),
    pa.field("cand", pa.string()),
    pa.field("late", pa.string()),
    pa.field("n_late", pa.int64()),
    pa.field("max_wm_src", pa.int64()),
])


def _empty_summary() -> pa.Table:
    return _SUMMARY_SCHEMA.empty_table()


def _write_shard(state_dir: str, subdir: str, part: int, prefix: str,
                 table: pa.Table) -> str:
    """Write a uniquely-named shard under state_dir/subdir/part=<k>/ and
    return its state-dir-relative path (the attempt-commit unit)."""
    name = f"{prefix}-{uuid.uuid4().hex}.parquet"
    write_parquet_atomic(
        table, os.path.join(state_dir, subdir, f"part={part}"), name)
    return os.path.join(subdir, f"part={part}", name)


@ray.remote(num_cpus=1)
def _seal_split_task(state_dir: str, cand_rel: str, epoch: str,
                     part: int, seal_col: str, seal_add: int,
                     new_wm: Optional[int], sort_cols: List[str],
                     _crash_sentinel: Optional[str] = None) -> dict:
    """Phase 2: split one merged candidate shard into sealed (final) vs
    still-open rows — seal when ``row[seal_col] + seal_add <= new_wm`` —
    and write each side as a uniquely-named shard. Pure function of the
    candidate file; retry-safe (new names, only returned names are
    committed; a dead attempt's shards are never listed and are pruned
    post-commit — pinned by the worker-loss injection test)."""
    t = pq.read_table(os.path.join(state_dir, cand_rel))
    df = t.to_pandas()
    if new_wm is not None and len(df):
        seal = (df[seal_col] + seal_add <= new_wm).to_numpy()
    else:
        seal = np.zeros(len(df), dtype=bool)
    out = {"final": None, "open": None, "n_final": int(seal.sum())}
    if seal.any():
        final = df[seal].sort_values(sort_cols, kind="stable")
        out["final"] = _write_shard(
            state_dir, os.path.join("final", f"epoch={epoch}"), part, "f",
            pa.Table.from_pandas(final.reset_index(drop=True),
                                 schema=t.schema, preserve_index=False))
    if (~seal).any():
        opn = df[~seal]
        out["open"] = _write_shard(
            state_dir, f"open.epoch={epoch}", part, "o",
            pa.Table.from_pandas(opn.reset_index(drop=True),
                                 schema=t.schema, preserve_index=False))
    from calendar_event_entity_extraction_ray.stages.exchange import (
        claim_crash_sentinel,
    )

    # worker-loss window: shards durable, names not yet returned
    claim_crash_sentinel(_crash_sentinel)
    return out


def _prune_after_commit(state_dir: str, epoch: str, cand_rels: List[str],
                        superseded_open: List[str], state: dict) -> None:
    """Post-commit hygiene: candidate shards, the previous epoch's open
    shards, and any unlisted orphans left in THIS epoch's directories by
    a crashed earlier attempt — then prune emptied directories."""
    from calendar_event_entity_extraction_ray.stages.storegc import (
        orphan_files,
        remove_files_and_prune_dirs,
    )

    listed = set(state["open_files"]) | set(state["final_files"]) \
        | set(state["late_files"])
    subdirs = [f"open.epoch={epoch}",
               os.path.join("final", f"epoch={epoch}"),
               os.path.join("late", f"epoch={epoch}"),
               f"cand.epoch={epoch}"]
    remove_files_and_prune_dirs(
        state_dir, list(cand_rels) + list(superseded_open)
        + orphan_files(state_dir, subdirs, listed))


def _commit_epoch(state_dir: str, state: dict, epoch: str,
                  summaries: pd.DataFrame, seal_col: str, seal_add: int,
                  sort_cols: List[str], late_us: int,
                  _crash_sentinel: Optional[str] = None) -> dict:
    """Shared driver tail for both window forms: compute the new
    watermark from the folds' maxima, seal-split every candidate shard
    in parallel, commit the state JSON, clean up."""
    old_wm = state["watermark_us"]
    if len(summaries) and summaries["max_wm_src"].notna().any():
        cand_wm = int(summaries["max_wm_src"].max()) - late_us
        new_wm = cand_wm if old_wm is None else max(old_wm, cand_wm)
    else:
        new_wm = old_wm

    n_late = int(summaries["n_late"].sum()) if len(summaries) else 0
    late_rels = [r for r in (summaries["late"].tolist()
                             if len(summaries) else []) if r]

    cands = (summaries[summaries["cand"] != ""]
             if len(summaries) else summaries)
    refs = [_seal_split_task.remote(
        state_dir, r["cand"], epoch, int(r["part"]), seal_col,
        seal_add, new_wm, sort_cols, _crash_sentinel)
        for _, r in cands.iterrows()]
    results = ray.get(refs)

    superseded_open = state["open_files"]
    state["open_files"] = sorted(
        r["open"] for r in results if r["open"])
    state["final_files"] = state["final_files"] + sorted(
        r["final"] for r in results if r["final"])
    state["late_files"] = state["late_files"] + sorted(late_rels)
    n_finalized = int(sum(r["n_final"] for r in results))
    state["epochs"].append(epoch)
    state["watermark_us"] = new_wm
    _write_state(state_dir, state)  # the commit point
    _prune_after_commit(state_dir, epoch,
                        cand_rels=cands["cand"].tolist()
                        if len(cands) else [],
                        superseded_open=superseded_open, state=state)
    return {"watermark_us": new_wm, "n_late": n_late,
            "n_finalized": n_finalized, "noop": False}


def tumbling_window_epoch(
    ds: "ray.data.Dataset",
    state_dir: str,
    epoch: str,
    key_col: str = "event_type",
    ts_col: str = "ts",
    window_minutes: int = 60,
    allowed_lateness_minutes: int = 60,
    late_policy: str = "side_output",
    slide_minutes: Optional[int] = None,
    num_partitions: int = DEFAULT_PARTITIONS,
    _crash_sentinel: Optional[str] = None,
) -> dict:
    """Ingest one epoch of events into the windowed-count state.

    Returns a summary dict: ``watermark_us`` (after this epoch),
    ``n_late`` (rows targeting already-final windows), ``n_finalized``
    (windows sealed this epoch), ``noop`` (epoch already recorded).

    Window assignment is ``floor(ts / window)``; a window
    ``[start, start+window)`` finalizes once
    ``start + window <= watermark``. Late = a row whose window had
    already finalized BEFORE this epoch (the watermark only moves
    forward, so "late" is well-defined per epoch).

    ``slide_minutes`` (must divide ``window_minutes``) turns the form
    into SLIDING windows: each event lands in ``window/slide``
    overlapping windows whose starts are multiples of the slide.
    Everything downstream is per (key, window-start) and unchanged —
    sealing, lateness (judged per target window, so one event's oldest
    assignments can be late while its newest proceed) and the state
    layout; ``n_late`` counts late ASSIGNMENTS. Window geometry is
    pinned in the state JSON — an epoch run with different parameters
    is rejected."""
    if late_policy not in ("drop", "side_output"):
        raise ValueError(f"unknown late_policy {late_policy!r}")
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    slide = window_minutes if slide_minutes is None else slide_minutes
    if window_minutes % slide:
        raise ValueError(
            f"slide_minutes={slide} must divide window_minutes"
            f"={window_minutes}")
    kind = "tumbling" if slide == window_minutes else "sliding"
    os.makedirs(state_dir, exist_ok=True)
    state = _load_state(state_dir)
    if state.setdefault("kind", kind) != kind:
        raise ValueError(
            f"state dir {state_dir!r} holds {state['kind']!r} windows")
    params = {"window_minutes": window_minutes, "slide_minutes": slide,
              "allowed_lateness_minutes": allowed_lateness_minutes,
              "key_col": key_col, "ts_col": ts_col}
    if state.setdefault("params", params) != params:
        raise ValueError(
            f"state dir {state_dir!r} was built with "
            f"{state['params']!r}, got {params!r}")
    if epoch in state["epochs"]:
        return {"watermark_us": state["watermark_us"], "n_late": 0,
                "n_finalized": 0, "noop": True}
    if state["num_partitions"] is None:
        state["num_partitions"] = int(num_partitions)
    P = int(state["num_partitions"])

    win_us = window_minutes * 60_000_000
    slide_us = slide * 60_000_000
    n_asn = win_us // slide_us
    late_us = allowed_lateness_minutes * 60_000_000
    old_wm = state["watermark_us"]

    def prep(b: pa.Table) -> pa.Table:
        # per-batch PARTIAL: (key, window) counts + max event ts — the
        # exchange moves partials, never the event stream
        ts_us = b.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        base = ts_us // slide_us * slide_us
        if n_asn == 1:
            keys = b.column(key_col)
            starts, ts_rep = base, ts_us
        else:
            # each event -> window/slide overlapping windows; arrow
            # take keeps the key dtype through the expansion
            idx = np.repeat(np.arange(len(ts_us)), n_asn)
            keys = b.column(key_col).take(pa.array(idx))
            starts = (np.repeat(base, n_asn)
                      - np.tile(np.arange(n_asn) * slide_us,
                                len(ts_us)))
            ts_rep = np.repeat(ts_us, n_asn)
        t = pa.table({key_col: keys,
                      "window_start_us": pa.array(starts, pa.int64()),
                      "ts_us": pa.array(ts_rep, pa.int64())})
        g = t.group_by([key_col, "window_start_us"]).aggregate(
            [("ts_us", "count"), ("ts_us", "max")])
        out = pa.table({
            key_col: g.column(key_col),
            "window_start_us": g.column("window_start_us"),
            "n": g.column("ts_us_count").cast(pa.int64()),
            "max_ts_us": g.column("ts_us_max"),
        })
        return add_hash_column(out, [key_col], out_col="_kh")

    def pad_prev(b: pa.Table) -> pa.Table:
        # previous open shards re-enter the fold; they carry no event
        # ts (null max never advances the watermark)
        t = pa.table({key_col: b.column(key_col),
                      "window_start_us": b.column("window_start_us"),
                      "n": b.column("n"),
                      "max_ts_us": pa.nulls(b.num_rows, pa.int64())})
        return add_hash_column(t, [key_col], out_col="_kh")

    parts = ds.map_batches(prep, batch_format="pyarrow")
    prev_files = [os.path.join(state_dir, f) for f in state["open_files"]]
    if prev_files:
        parts = parts.union(ray.data.read_parquet(prev_files).map_batches(
            pad_prev, batch_format="pyarrow"))

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_summary()
        part = int(t.column("_kh")[0].as_py()) % P
        key_field = t.schema.field(key_col)
        df = t.select([key_col, "window_start_us", "n",
                       "max_ts_us"]).to_pandas()
        mx = df["max_ts_us"].max()
        max_src = None if pd.isna(mx) else int(mx)
        if old_wm is not None:
            late_m = (df["window_start_us"] + win_us
                      <= old_wm).to_numpy()
        else:
            late_m = np.zeros(len(df), dtype=bool)
        schema = pa.schema([key_field,
                            pa.field("window_start_us", pa.int64()),
                            pa.field("n", pa.int64())])
        n_late = int(df.loc[late_m, "n"].sum()) if late_m.any() else 0
        late_rel = ""
        if n_late and late_policy == "side_output":
            lt = (df[late_m]
                  .groupby([key_col, "window_start_us"], dropna=False,
                           as_index=False)["n"].sum()
                  .sort_values([key_col, "window_start_us"],
                               kind="stable"))
            late_rel = _write_shard(
                state_dir, os.path.join("late", f"epoch={epoch}"),
                part, "l",
                pa.Table.from_pandas(lt.reset_index(drop=True),
                                     schema=schema,
                                     preserve_index=False))
        cand_rel = ""
        on = df[~late_m]
        if len(on):
            merged = (on.groupby([key_col, "window_start_us"],
                                 dropna=False, as_index=False)["n"].sum()
                      .sort_values([key_col, "window_start_us"],
                                   kind="stable"))
            cand_rel = _write_shard(
                state_dir, f"cand.epoch={epoch}", part, "c",
                pa.Table.from_pandas(merged.reset_index(drop=True),
                                     schema=schema,
                                     preserve_index=False))
        return pa.table({"part": pa.array([part], pa.int64()),
                         "cand": pa.array([cand_rel], pa.string()),
                         "late": pa.array([late_rel], pa.string()),
                         "n_late": pa.array([n_late], pa.int64()),
                         "max_wm_src": pa.array([max_src], pa.int64())})

    # adaptive partitioning: hash_partition_map's small path folds tiny
    # states in ONE task (P-way spill of a few-thousand-row state costs
    # more than the fold — CLAUDE.md); large states spill at
    # rows/100k partitions. P remains the shard-NAMING modulus only —
    # every fold still writes its own uniquely-named files, so the two
    # regimes differ in file count, not content.
    summaries = hash_partition_map(parts, "_kh", fold).to_pandas()
    if "part" not in summaries.columns:  # zero-block input
        summaries = _empty_summary().to_pandas()
    return _commit_epoch(state_dir, state, epoch, summaries,
                         seal_col="window_start_us", seal_add=win_us,
                         sort_cols=[key_col, "window_start_us"],
                         late_us=late_us,
                         _crash_sentinel=_crash_sentinel)


def _merge_intervals(df: pd.DataFrame, key_col: str,
                     gap_us: int) -> pd.DataFrame:
    """(key, start_us, end_us, n) rows -> maximal gap-merged sessions
    per key, one vectorized pass (sort, per-key running-max end, break
    where the next start exceeds it by more than the gap). Merging
    locally-merged intervals re-merges exactly like merging the raw
    points (gap-closure of a union == union of gap-closures), so this
    one kernel serves the per-batch pre-merge AND the exchange fold."""
    if not len(df):
        return df.reset_index(drop=True)
    df = df.sort_values([key_col, "start_us", "end_us"],
                        kind="stable").reset_index(drop=True)
    k = df[key_col]
    prev = k.shift()
    newkey = ~(k.eq(prev) | (k.isna() & prev.isna()))
    newkey.iloc[0] = True
    runmax = df.groupby(k, sort=False, dropna=False)["end_us"].cummax()
    boundary = newkey | (df["start_us"] > runmax.shift() + gap_us)
    sid = boundary.cumsum()
    g = df.groupby(sid, sort=True)
    return pd.DataFrame({
        key_col: g[key_col].first(),
        "start_us": g["start_us"].min().astype("int64"),
        "end_us": g["end_us"].max().astype("int64"),
        "n": g["n"].sum().astype("int64"),
    }).reset_index(drop=True)


def session_window_epoch(
    ds: "ray.data.Dataset",
    state_dir: str,
    epoch: str,
    key_col: str = "event_type",
    ts_col: str = "ts",
    gap_minutes: int = 30,
    allowed_lateness_minutes: int = 60,
    late_policy: str = "side_output",
    num_partitions: int = DEFAULT_PARTITIONS,
    _crash_sentinel: Optional[str] = None,
) -> dict:
    """Session windows (gap-based) under the same watermark protocol as
    ``tumbling_window_epoch`` — the genuinely-streaming case, because
    sessions MERGE across epochs: an epoch-2 event inside the gap of an
    epoch-1 open session extends it (or fuses two of them).

    Semantics per epoch:

    - LATE = event with ``ts <= watermark-before-this-epoch`` (the only
      rows that could touch a sealed session: merging needs
      ``ts <= end + gap`` and sealing needs ``end + gap <= wm``);
      policy ``drop`` (counted) or ``side_output``.
    - on-time events pre-merge per batch, union with the open-session
      shards, and ONE hash exchange on the key re-merges per key — the
      shuffle moves (key, start, end, n) intervals, never the event
      stream.
    - watermark advances to ``max(open-session end) - lateness``: the
      max-end session is never sealed (``end + gap > wm`` by
      construction), so the open shards always carry the true
      max-event-time — no separate stats pass.
    - sessions with ``end + gap <= watermark`` SEAL (no future on-time
      event can extend them: it would need ``ts <= end + gap <= wm``,
      i.e. be late) into listed ``final/epoch=<e>/part=<k>`` shards.

    Crash-safe exactly like the tumbling form: listed versioned shards,
    state JSON as the commit point. Returns {watermark_us, n_late,
    n_finalized, noop}."""
    if late_policy not in ("drop", "side_output"):
        raise ValueError(f"unknown late_policy {late_policy!r}")
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    os.makedirs(state_dir, exist_ok=True)
    state = _load_state(state_dir)
    if state.setdefault("kind", "session") != "session":
        raise ValueError(
            f"state dir {state_dir!r} holds {state['kind']!r} windows")
    params = {"gap_minutes": gap_minutes,
              "allowed_lateness_minutes": allowed_lateness_minutes,
              "key_col": key_col, "ts_col": ts_col}
    if state.setdefault("params", params) != params:
        raise ValueError(
            f"state dir {state_dir!r} was built with "
            f"{state['params']!r}, got {params!r}")
    if epoch in state["epochs"]:
        return {"watermark_us": state["watermark_us"], "n_late": 0,
                "n_finalized": 0, "noop": True}
    if state["num_partitions"] is None:
        state["num_partitions"] = int(num_partitions)
    P = int(state["num_partitions"])

    gap_us = gap_minutes * 60_000_000
    late_us = allowed_lateness_minutes * 60_000_000
    old_wm = state["watermark_us"]

    def prep(b: pa.Table) -> pa.Table:
        ts_us = b.column(ts_col).cast(pa.int64()).to_numpy(
            zero_copy_only=False)
        df = pd.DataFrame({key_col: b.column(key_col).to_pandas(),
                           "start_us": ts_us.astype("int64"),
                           "end_us": ts_us.astype("int64"),
                           "n": np.ones(len(ts_us), dtype="int64")})
        is_late = (df["start_us"] <= old_wm if old_wm is not None
                   else pd.Series(False, index=df.index))
        late = df[is_late]
        if len(late):
            late = late.groupby([key_col, "start_us"], as_index=False,
                                dropna=False).agg(
                end_us=("end_us", "first"), n=("n", "sum"))
        on = _merge_intervals(df[~is_late], key_col, gap_us)
        late["late"] = True
        on["late"] = False
        out = pd.concat([on, late], ignore_index=True)
        # explicit schema: an all-late or empty batch must not let the
        # pandas round-trip erase the key dtype (CLAUDE.md round-3 fact)
        schema = pa.schema([
            pa.field(key_col, b.schema.field(key_col).type),
            pa.field("start_us", pa.int64()),
            pa.field("end_us", pa.int64()),
            pa.field("n", pa.int64()),
            pa.field("late", pa.bool_())])
        return add_hash_column(
            pa.Table.from_pandas(out[[key_col, "start_us", "end_us",
                                      "n", "late"]], schema=schema,
                                 preserve_index=False),
            [key_col], out_col="_kh")

    def pad_prev(b: pa.Table) -> pa.Table:
        t = pa.table({key_col: b.column(key_col),
                      "start_us": b.column("start_us"),
                      "end_us": b.column("end_us"),
                      "n": b.column("n"),
                      "late": pa.array(
                          np.zeros(b.num_rows, bool), pa.bool_())})
        return add_hash_column(t, [key_col], out_col="_kh")

    parts = ds.map_batches(prep, batch_format="pyarrow")
    prev_files = [os.path.join(state_dir, f) for f in state["open_files"]]
    if prev_files:
        parts = parts.union(ray.data.read_parquet(prev_files).map_batches(
            pad_prev, batch_format="pyarrow"))

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _empty_summary()
        part = int(t.column("_kh")[0].as_py()) % P
        key_field = t.schema.field(key_col)
        df = t.select([key_col, "start_us", "end_us", "n",
                       "late"]).to_pandas()
        late = df[df["late"]]
        n_late = int(late["n"].sum()) if len(late) else 0
        late_rel = ""
        if n_late and late_policy == "side_output":
            lt = (late.groupby([key_col, "start_us"], as_index=False,
                               dropna=False)["n"].sum()
                  .rename(columns={"start_us": "ts_us"})
                  .sort_values([key_col, "ts_us"], kind="stable"))
            late_rel = _write_shard(
                state_dir, os.path.join("late", f"epoch={epoch}"),
                part, "l",
                pa.Table.from_pandas(
                    lt.reset_index(drop=True),
                    schema=pa.schema([key_field,
                                      pa.field("ts_us", pa.int64()),
                                      pa.field("n", pa.int64())]),
                    preserve_index=False))
        merged = _merge_intervals(df[~df["late"]], key_col, gap_us)
        max_src = int(merged["end_us"].max()) if len(merged) else None
        cand_rel = ""
        if len(merged):
            cand_rel = _write_shard(
                state_dir, f"cand.epoch={epoch}", part, "c",
                pa.Table.from_pandas(
                    merged.reset_index(drop=True),
                    schema=pa.schema([key_field,
                                      pa.field("start_us", pa.int64()),
                                      pa.field("end_us", pa.int64()),
                                      pa.field("n", pa.int64())]),
                    preserve_index=False))
        return pa.table({"part": pa.array([part], pa.int64()),
                         "cand": pa.array([cand_rel], pa.string()),
                         "late": pa.array([late_rel], pa.string()),
                         "n_late": pa.array([n_late], pa.int64()),
                         "max_wm_src": pa.array([max_src], pa.int64())})

    # adaptive partitioning — see the tumbling form's note; P names
    # shards, the exchange sizes itself
    summaries = hash_partition_map(parts, "_kh", fold).to_pandas()
    if "part" not in summaries.columns:  # zero-block input
        summaries = _empty_summary().to_pandas()
    return _commit_epoch(state_dir, state, epoch, summaries,
                         seal_col="end_us", seal_add=gap_us,
                         sort_cols=[key_col, "start_us"],
                         late_us=late_us,
                         _crash_sentinel=_crash_sentinel)


def _read_listed(state_dir: str, rels: List[str],
                 empty: pa.Table) -> pa.Table:
    tables = [pq.read_table(os.path.join(state_dir, r))
              for r in sorted(rels)]
    return (pa.concat_tables(tables, promote_options="default")
            if tables else empty)


def read_session_state(state_dir: str, key_col: str = "event_type"
                       ) -> pa.Table:
    """Current session view: sealed sessions (status="final") + open
    ones (status="open"), sorted (key, start_us). Reads ONLY the
    state-JSON-listed shards (orphans from crashed attempts are never
    listed)."""
    state = _load_state(state_dir)
    final = _read_listed(state_dir, state["final_files"],
                         _empty_sessions(key_col))
    opened = _read_listed(state_dir, state["open_files"],
                          _empty_sessions(key_col))
    df_f = final.to_pandas()
    df_f["status"] = "final"
    df_o = opened.to_pandas()
    df_o["status"] = "open"
    out = pd.concat([df_f, df_o], ignore_index=True).sort_values(
        [key_col, "start_us"], kind="stable")
    for c in ("start_us", "end_us", "n"):
        out[c] = out[c].astype("int64")
    return pa.Table.from_pandas(out.reset_index(drop=True),
                                preserve_index=False)


def read_window_state(state_dir: str, key_col: str = "event_type"
                      ) -> pa.Table:
    """Current view: finalized windows (status="final") + open windows
    (status="open"), sorted (key, window_start_us). Reads ONLY the
    state-JSON-listed shards."""
    state = _load_state(state_dir)
    final = _read_listed(state_dir, state["final_files"],
                         _empty_counts(key_col))
    opened = _read_listed(state_dir, state["open_files"],
                          _empty_counts(key_col))
    df_f = final.to_pandas()
    df_f["status"] = "final"
    df_o = opened.to_pandas()
    df_o["status"] = "open"
    out = pd.concat([df_f, df_o], ignore_index=True).sort_values(
        [key_col, "window_start_us"], kind="stable")
    out["n"] = out["n"].astype("int64")
    out["window_start_us"] = out["window_start_us"].astype("int64")
    return pa.Table.from_pandas(out.reset_index(drop=True),
                                preserve_index=False)


def _epoch_of(rel: str) -> str:
    """epoch name from a listed shard path
    (``late/epoch=<e>/part=<k>/...`` or ``final/epoch=<e>/...``)."""
    for comp in rel.split(os.sep):
        if comp.startswith("epoch="):
            return comp[len("epoch="):]
    return ""


def read_final_windows(state_dir: str) -> pa.Table:
    """The SERVING read over sealed outputs: every finalized window /
    session shard across all epochs, with its sealing epoch attached —
    what a downstream consumer joins per epoch. Listed shards only."""
    state = _load_state(state_dir)
    parts = []
    for rel in sorted(state["final_files"]):
        t = pq.read_table(os.path.join(state_dir, rel))
        parts.append(t.append_column(
            "epoch", pa.array([_epoch_of(rel)] * t.num_rows,
                              pa.string())))
    if not parts:
        base = (_empty_sessions("event_type")
                if state.get("kind") == "session"
                else _empty_counts("event_type"))
        return base.append_column("epoch", pa.array([], pa.string()))
    return pa.concat_tables(parts, promote_options="default")


def read_late_rows(state_dir: str, key_col: str = "event_type"
                   ) -> pa.Table:
    """The side-output stream: per-epoch late rows —
    (key, window_start_us, n) for tumbling state dirs,
    (key, ts_us, n) for session ones (the empty shape follows the
    dir's kind marker). Listed shards only."""
    state = _load_state(state_dir)
    parts = []
    for rel in sorted(state["late_files"]):
        t = pq.read_table(os.path.join(state_dir, rel))
        parts.append(t.append_column(
            "epoch", pa.array([_epoch_of(rel)] * t.num_rows,
                              pa.string())))
    if not parts:
        if state.get("kind") == "session":
            e = pa.table({key_col: pa.array([], pa.string()),
                          "ts_us": pa.array([], pa.int64()),
                          "n": pa.array([], pa.int64())})
        else:
            e = _empty_counts(key_col)
        return e.append_column("epoch", pa.array([], pa.string()))
    out = pa.concat_tables(parts, promote_options="default")
    order = [c for c in ("epoch", key_col, "window_start_us", "ts_us")
             if c in out.column_names]
    return out.take(pc.sort_indices(
        out, sort_keys=[(c, "ascending") for c in order]))
