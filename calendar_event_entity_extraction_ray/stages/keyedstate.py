"""Keyed epoch state — the one protocol behind the feature stores
(stages/featstate.py decayed counters, stages/hllstate.py HLL registers,
stages/histstate.py value histograms). Each store is a sparse (key,
bucket, value) table whose merge (sum or max) is commutative and
associative, so an epoch folds (previous listed files ∪ epoch partials)
through ONE key-hash exchange into a fresh versioned file set and never
re-reads old events. A store supplies its kernels; this module owns:

    state_dir/<state_file>    {"format_version", "params",
                               "num_partitions", "epochs", "files",
                               ...store extras such as featstate's ref_us}
    state_dir/<subdir>.epoch=<e>/part=<k>/s-<uuid>.parquet

- ``params`` are pinned by the first epoch; a later epoch with different
  ones is rejected before anything is written. ``num_partitions`` only
  names shards: the first epoch records it, later ones ignore it.
- Re-running a recorded epoch is a no-op.
- The state JSON is the commit, written last and atomically: a crash
  beforehand leaves the previous listing intact (orphans in the new dir
  are never listed, hence never read) and the re-run converges.
  Superseded files and orphans are deleted after it (stages/storegc.py).
- Reads go through the listing, projected with ``columns=`` (hive-style
  shard paths would otherwise add partition columns).
- A state JSON without ``format_version`` (any state dir written before
  this module) is rejected with a clear error."""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from calendar_event_entity_extraction_ray.stages.dedup import add_hash_column
from calendar_event_entity_extraction_ray.stages.exchange import (
    hash_partition_map,
)
from calendar_event_entity_extraction_ray.stages.storegc import (
    orphan_files,
    remove_files_and_prune_dirs,
)
from calendar_event_entity_extraction_ray.state.manifest import (
    write_parquet_atomic,
)

FORMAT_VERSION = 1


@dataclass(frozen=True)
class KeyedStore:
    """One store's fixed layout: state-JSON name, epoch-dir prefix,
    bucket and value columns, and the merge (``"sum"`` or ``"max"``).
    ``key`` names a fixed key column; without it the key column is the
    pinned ``key_col`` parameter. ``extras`` are state keys the store
    sets itself and reports in every epoch summary."""

    state_file: str
    subdir: str
    bucket: str
    value: str
    merge: str
    key: Optional[str] = None
    extras: Tuple[str, ...] = ()

    def key_col(self, state: dict) -> str:
        return self.key or state["params"]["key_col"]

    def columns(self, state: dict) -> List[str]:
        return [self.key_col(state), self.bucket, self.value]


def load_state(store: KeyedStore, state_dir: str) -> dict:
    """The committed state, or an empty one before the first epoch."""
    p = os.path.join(state_dir, store.state_file)
    if not os.path.exists(p):
        return {"format_version": FORMAT_VERSION, "params": None,
                "num_partitions": None, "epochs": [], "files": []}
    with open(p) as f:
        state = json.load(f)
    if state.get("format_version") != FORMAT_VERSION:
        raise ValueError(
            f"state dir {state_dir} uses an older format: "
            f"{store.state_file} lacks format_version={FORMAT_VERSION}; "
            f"rebuild the state from its events")
    return state


def write_state(store: KeyedStore, state_dir: str, state: dict) -> None:
    """The commit point of every keyed store: write, then rename."""
    p = os.path.join(state_dir, store.state_file)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(state, f, indent=1, sort_keys=True)
    os.replace(tmp, p)


def run_epoch(store: KeyedStore, state_dir: str, epoch: str,
              params: dict, num_partitions: int,
              prepare: Callable[[dict], Optional[Tuple]]) -> dict:
    """Ingest one epoch. ``params`` are pinned by the first epoch and
    checked on later ones; a recorded epoch is a no-op. Otherwise
    ``prepare(state)`` returns the epoch's partials Dataset and an
    optional re-map of the previous rows (see ``_fold_epoch``) — or
    None when there is nothing to fold, which records the epoch and
    keeps the listing. Returns {noop, <store extras>, n_state_rows}."""
    os.makedirs(state_dir, exist_ok=True)
    state = load_state(store, state_dir)
    if state["params"] is None:
        state["params"] = dict(params)
        state["num_partitions"] = int(num_partitions)
    for name, got in params.items():
        pinned = state["params"].get(name)
        if pinned != got:
            raise ValueError(
                f"geometry mismatch: {state_dir} pins {name}={pinned!r}, "
                f"got {got!r}")
    noop = epoch in state["epochs"]
    prepared = None if noop else prepare(state)
    if prepared is not None:
        n_rows = _fold_epoch(store, state_dir, state, epoch, *prepared)
    else:
        if not noop:  # nothing to fold: record the epoch, keep the listing
            _commit_epoch(store, state_dir, state, epoch, state["files"])
        n_rows = _state_rows(state_dir, state)
    return {"noop": noop, **{k: state.get(k) for k in store.extras},
            "n_state_rows": n_rows}


def _state_rows(state_dir: str, state: dict) -> int:
    return sum(pq.read_metadata(os.path.join(state_dir, f)).num_rows
               for f in state["files"])


def merge_rows(store: KeyedStore, t: pa.Table, key: str) -> pa.Table:
    """The fold kernel: per-(key, bucket) sum or max of the value,
    sorted by (key, bucket); NULL groups are kept, as SQL's GROUP BY
    keeps them."""
    df = t.select([key, store.bucket, store.value]).to_pandas()
    g = df.groupby([key, store.bucket], dropna=False, sort=True)
    out = getattr(g[store.value], store.merge)().reset_index()
    schema = pa.schema([t.schema.field(key),
                        pa.field(store.bucket, pa.int64()),
                        pa.field(store.value, pa.int64())])
    return pa.Table.from_pandas(out, schema=schema, preserve_index=False)


def keyed_map(ds: "ray.data.Dataset", key: str,
              fold: Callable[[pa.Table], pa.Table],
              num_partitions: Optional[int] = None) -> "ray.data.Dataset":
    """ONE key-hash exchange: every row of a key reaches the same
    ``fold`` call."""
    hashed = ds.map_batches(
        lambda b: add_hash_column(b, [key], out_col="_kh"),
        batch_format="pyarrow")
    return hash_partition_map(hashed, "_kh", fold,
                              num_partitions=num_partitions)


def _listed(state_dir: str, state: dict) -> List[str]:
    return [os.path.join(state_dir, f) for f in state["files"]]


def _fold_epoch(store: KeyedStore, state_dir: str, state: dict,
                epoch: str, parts: "ray.data.Dataset",
                remap_prev: Optional[Callable[[pa.Table], pa.Table]],
                ) -> int:
    """Fold (previous listed files ∪ ``parts``) into a fresh versioned
    file set and commit it. ``remap_prev`` rewrites the previous rows
    before they re-enter the fold. Returns the new state's row count."""
    key = store.key_col(state)
    P = int(state["num_partitions"])
    prev = _listed(state_dir, state)
    if prev:
        old = ray.data.read_parquet(prev, columns=store.columns(state))
        if remap_prev is not None:
            old = old.map_batches(remap_prev, batch_format="pyarrow")
        parts = parts.union(old)
    ed = f"{store.subdir}.epoch={epoch}"

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"file": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        out = merge_rows(store, t, key)
        k = int(t.column("_kh")[0].as_py()) % P
        name = f"s-{uuid.uuid4().hex}.parquet"
        rel = os.path.join(ed, f"part={k}", name)
        write_parquet_atomic(out, os.path.dirname(os.path.join(state_dir, rel)),
                             name)
        return pa.table({"file": pa.array([rel], pa.string()),
                         "rows": pa.array([out.num_rows], pa.int64())})

    res = keyed_map(parts, key, fold, num_partitions=P).to_pandas()
    files = sorted(res["file"].tolist()) if "file" in res.columns else []
    _commit_epoch(store, state_dir, state, epoch, files)
    return int(res["rows"].sum()) if "rows" in res.columns else 0


def _commit_epoch(store: KeyedStore, state_dir: str, state: dict,
                  epoch: str, files: List[str]) -> None:
    """Record ``epoch`` with ``files`` as the new listing, then prune
    the superseded files and this epoch's crashed-attempt orphans (disk
    hygiene only — reads go through the listing)."""
    superseded = sorted(set(state["files"]) - set(files))
    state["files"] = files
    state["epochs"].append(epoch)
    write_state(store, state_dir, state)  # the commit point
    remove_files_and_prune_dirs(
        state_dir, superseded + orphan_files(
            state_dir, [f"{store.subdir}.epoch={epoch}"], files))


def read_dataset(store: KeyedStore, state_dir: str,
                 state: dict) -> "ray.data.Dataset":
    """The listed (key, bucket, value) files as a Dataset."""
    if not state["files"]:
        raise ValueError(f"no committed state under {state_dir}")
    return ray.data.read_parquet(_listed(state_dir, state),
                                 columns=store.columns(state))


def read_table(store: KeyedStore, state_dir: str,
               state: dict) -> pa.Table:
    """The listed files read on the driver with pyarrow — for small
    reads, where a Ray plan's ~0.5-1 s floor would dominate
    (CLAUDE.md). Requires at least one listed file."""
    cols = store.columns(state)
    return pa.concat_tables(pq.read_table(f, columns=cols)
                            for f in _listed(state_dir, state))
