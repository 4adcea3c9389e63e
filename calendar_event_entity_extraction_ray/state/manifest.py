"""Resumable partitioned output: per-partition Parquet + _MANIFEST.json.

"Resumable from checkpoint" for a batch pipeline (SURVEY.md §4, ray_guide.md
"Sources & sinks"): the graph materialize writes one directory per partition
(key = hash(subj) % num_partitions), each written atomically (temp file +
rename), and records a manifest entry (partition id, file, row count, input
fingerprint). A re-run with the same fingerprint skips completed partitions
and recomputes only the missing ones.

It also owns every store's commit: one temp-then-rename write under
``write_parquet_atomic``, ``write_ipc_atomic`` (the exchange's spill
files) and ``write_json``, and the stores' state-JSON
format (``StateFile``, ``pin_params``). The graph manifest and
METRICS.json carry no ``format_version``, so older graphs still resume.
"""

from __future__ import annotations

import copy
import json
import os
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

import pyarrow as pa
import pyarrow.parquet as pq

from calendar_event_entity_extraction_ray.functions.dedup import first_rows

MANIFEST_NAME = "_MANIFEST.json"
STATE_FORMAT_VERSION = 1


def _write_atomic(out_dir: str, name: str,
                  write: Callable[[str], None]) -> str:
    """Write ``out_dir/name`` through a temp file in the same directory,
    then rename it into place: a reader, or a retried attempt writing
    the same name, never sees a partial file. The package's only
    ``os.replace``. A failed attempt removes its uniquely-named temp
    file, so retries do not pile them up."""
    os.makedirs(out_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=out_dir, suffix=".tmp")
    os.close(fd)
    final = os.path.join(out_dir, name)
    try:
        write(tmp)
        os.replace(tmp, final)
    except BaseException:
        os.remove(tmp)
        raise
    return final


def write_json(out_dir: str, name: str, obj: Dict) -> str:
    """The one JSON write: every manifest, state file and metrics file
    is committed here, atomically."""
    def dump(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(obj, f, indent=1, sort_keys=True)

    return _write_atomic(out_dir, name, dump)


def read_json(out_dir: str, name: str, missing: Any = None) -> Any:
    path = os.path.join(out_dir, name)
    if not os.path.exists(path):
        return missing
    with open(path) as f:
        return json.load(f)


@dataclass(frozen=True)
class StateFile:
    """One store's state JSON, the commit point its readers trust: the
    store writes its data files first and this file last. ``save``
    stamps ``format_version``; ``load`` returns a copy of ``empty``
    before the first commit (``empty=None``: the file must exist) and
    rejects a file without the current ``format_version`` -- a dir
    written before the format existed, which must be rebuilt."""

    name: str
    empty: Optional[Dict] = None

    def load(self, state_dir: str) -> Dict:
        state = read_json(state_dir, self.name)
        if state is None:
            if self.empty is None:
                raise FileNotFoundError(
                    f"no {self.name} under {state_dir}")
            return {"format_version": STATE_FORMAT_VERSION,
                    **copy.deepcopy(self.empty)}
        if state.get("format_version") != STATE_FORMAT_VERSION:
            raise ValueError(
                f"state dir {state_dir} uses an older format: {self.name} "
                f"lacks format_version={STATE_FORMAT_VERSION}; delete the "
                f"dir and rebuild it from its inputs")
        return state

    def save(self, state_dir: str, state: Dict) -> None:
        write_json(state_dir, self.name,
                   {**state, "format_version": STATE_FORMAT_VERSION})


def pin_params(state: Dict, state_dir: str, params: Dict,
               num_partitions: Optional[int] = None) -> None:
    """The one pinned-parameter check. The first epoch pins ``params``
    (and records ``num_partitions``, which only names shards) in
    ``state``; a later epoch whose value for any of them differs raises,
    naming the param. Call it before any write and before the
    recorded-epoch no-op."""
    if state.get("params") is None:
        state["params"] = dict(params)
        if num_partitions is not None:
            state["num_partitions"] = int(num_partitions)
    for name, got in params.items():
        pinned = state["params"].get(name)
        if pinned != got:
            raise ValueError(
                f"geometry mismatch: {state_dir} was built with "
                f"{name}={pinned!r}, got {got!r}; a state dir holds the "
                f"geometry its first epoch pinned")


def load_manifest(out_dir: str) -> Dict:
    return read_json(out_dir, MANIFEST_NAME,
                     {"fingerprint": None, "partitions": {}, "lineage": []})


def save_manifest(out_dir: str, manifest: Dict) -> None:
    write_json(out_dir, MANIFEST_NAME, manifest)


def completed_partitions(out_dir: str, fingerprint: str) -> set:
    m = load_manifest(out_dir)
    if m.get("fingerprint") != fingerprint:
        return set()
    return set(int(k) for k in m["partitions"])


def write_parquet_atomic(table: pa.Table, out_dir: str, name: str) -> str:
    """Write ``table`` to ``out_dir/name`` atomically (temp file + rename) and
    return the path: a reader, or a retried attempt writing the same
    name, never sees a partial file. The one Parquet write of every
    attempt-commit path (partition files, store shards)."""
    return _write_atomic(out_dir, name,
                         lambda tmp: pq.write_table(table, tmp))


_IPC_OPTIONS = pa.ipc.IpcWriteOptions(compression="lz4",
                                      unify_dictionaries=True)


def write_ipc_atomic(table: pa.Table, out_dir: str, name: str) -> str:
    """Write ``table`` to ``out_dir/name`` as an Arrow IPC file with LZ4
    buffer compression, atomically like ``write_parquet_atomic``; return
    the path. The exchange's spill write (``stages/exchange.py``): its
    files are read once, by ``read_spill``, so they skip Parquet's
    encoding. ``unify_dictionaries``: the file format holds one
    dictionary per column, so chunks with differing dictionaries are
    unified rather than rejected."""
    def dump(tmp: str) -> None:
        with pa.ipc.new_file(tmp, table.schema,
                             options=_IPC_OPTIONS) as w:
            w.write_table(table)

    return _write_atomic(out_dir, name, dump)


def read_parquet_file(path: str) -> pa.Table:
    """One Parquet file as a table, straight from its footer:
    ``pq.read_table(path)`` runs dataset discovery first (about 1 ms a
    file), which a loop over small partition files pays every time."""
    with pq.ParquetFile(path) as f:
        return f.read()


def write_partition_file(out_dir: str, part_id: int, table: pa.Table) -> str:
    """Atomic per-partition data write. Safe to call concurrently from
    many workers — it does NOT touch the manifest; the DRIVER records
    completed partitions afterwards (a shared-manifest read-modify-write
    from workers would race and lose entries)."""
    return write_parquet_atomic(
        table, os.path.join(out_dir, f"part_key={part_id}"), "data.parquet")


def check_epoch_name(epoch: str) -> None:
    """Epoch ids become file and directory names (``delta-{epoch}.parquet``,
    ``_spill_{epoch}``): reject one that is not a single path component
    before anything is written."""
    seps = {"/", os.sep, os.altsep} - {None}
    if epoch in ("", ".", "..") or any(s in epoch for s in seps):
        raise ValueError(
            f"epoch {epoch!r} is not a valid file name: it must be "
            f"non-empty, not '.' or '..', and contain no path separator")


def record_partitions(
    out_dir: str, fingerprint: str, entries: Dict[int, Dict],
    num_partitions: Optional[int] = None,
) -> Dict:
    """Driver-side manifest update: merge completed-partition entries
    (part_id -> {file, rows, lineage...}) under the given fingerprint.
    ``num_partitions`` records the hash modulus so later delta appends
    route rows identically even if some partitions received zero rows
    (and therefore have no manifest entry to infer it from)."""
    manifest = load_manifest(out_dir)
    if manifest.get("fingerprint") != fingerprint:
        manifest = {"fingerprint": fingerprint, "partitions": {}, "lineage": []}
    now = time.time()
    for part_id, e in entries.items():
        manifest["partitions"][str(part_id)] = {
            "file": e["file"],
            "rows": e["rows"],
            "written_at": now,
        }
        lineage = e.get("lineage")
        if lineage:
            manifest["lineage"].append({"part_id": part_id, **lineage})
    if num_partitions is not None:
        manifest["num_partitions"] = int(num_partitions)
    save_manifest(out_dir, manifest)
    return manifest


def record_append(
    out_dir: str, epoch: str, entries: Dict[int, Dict],
) -> Dict:
    """Driver-side manifest update for a delta-append epoch: touched
    partitions are overwritten (tagged with the epoch), untouched ones
    keep their existing entries, and the epoch id is recorded in
    ``manifest["epochs"]``. The base ``fingerprint`` is left unchanged —
    base-build resume identity is separate from append history. Written
    ONCE by the driver after every partition merge is durable; a crash
    before this point leaves the manifest without the epoch, and the
    re-run's distinct-union merges are idempotent, so no partial-epoch
    bookkeeping is needed."""
    manifest = load_manifest(out_dir)
    now = time.time()
    for part_id, e in entries.items():
        manifest["partitions"][str(part_id)] = {
            "file": e["file"],
            "rows": e["rows"],
            "written_at": now,
            "epoch": epoch,
        }
        lineage = e.get("lineage")
        if lineage:
            manifest["lineage"].append(
                {"part_id": part_id, "epoch": epoch, **lineage})
    epochs = manifest.setdefault("epochs", [])
    if epoch not in epochs:
        epochs.append(epoch)
    save_manifest(out_dir, manifest)
    return manifest


def record_delta(
    out_dir: str, epoch: str, entries: Dict[int, Dict],
) -> Dict:
    """Manifest update for an LSM-style delta epoch: each touched
    partition's entry gains a ``deltas`` list item (epoch, file, rows);
    the base entry (file, rows, written_at) is untouched — the base
    Parquet was never read or rewritten. A partition receiving delta
    rows for the first time (no base entry because the base build wrote
    it zero rows) gets a zero-row placeholder entry so readers and
    compaction can find its deltas."""
    manifest = load_manifest(out_dir)
    now = time.time()
    for part_id, e in entries.items():
        p = manifest["partitions"].setdefault(str(part_id), {
            "file": os.path.join(f"part_key={part_id}", "data.parquet"),
            "rows": 0,
            "written_at": now,
        })
        p.setdefault("deltas", []).append({
            "epoch": epoch, "file": e["file"], "rows": e["rows"],
            "written_at": now,
        })
        lineage = e.get("lineage")
        if lineage:
            manifest["lineage"].append(
                {"part_id": part_id, "epoch": epoch, "mode": "delta",
                 **lineage})
    epochs = manifest.setdefault("epochs", [])
    if epoch not in epochs:
        epochs.append(epoch)
    save_manifest(out_dir, manifest)
    return manifest


def record_compaction(out_dir: str, rows_by_part: Dict) -> Dict:
    """Manifest update after delta compaction: per partition, set the
    new base row count, clear the delta list, and remember the folded
    epochs in ``compacted_epochs`` (so epoch-level idempotence keeps
    working after the side files are gone)."""
    manifest = load_manifest(out_dir)
    now = time.time()
    for part_id, rows in rows_by_part.items():
        e = manifest["partitions"][str(part_id)]
        folded = [d["epoch"] for d in e.get("deltas", [])]
        e["rows"] = int(rows)
        e["written_at"] = now
        e.pop("deltas", None)
        e["compacted_epochs"] = sorted(
            set(e.get("compacted_epochs", []) + folded))
        manifest["lineage"].append(
            {"part_id": int(part_id), "compacted": folded,
             "rows_out": int(rows)})
    save_manifest(out_dir, manifest)
    return manifest


def read_output(out_dir: str, as_of: Optional[str] = None) -> pa.Table:
    """Concatenate every partition's base Parquet plus any LSM delta
    side files. When deltas are present the result is distinct-unioned
    (set-of-triples semantics — a base row re-ingested by a delta epoch
    must not double), one partition at a time, in Arrow; a base-only
    graph is returned as written.

    ``as_of`` gives time travel over the LSM history: pass an epoch name
    to see the graph as of that epoch (later delta side files are simply
    not read — the LSM layout makes every delta epoch reversible), or
    ``"base"`` for the pre-append build. Raises if any LATER epoch is
    irreversible — merge-applied (rows folded into the base Parquet) or
    already compacted — because those rows cannot be separated out."""
    m = load_manifest(out_dir)
    allowed = None
    if as_of is not None:
        epochs = m.get("epochs", [])
        if as_of == "base":
            later = list(epochs)
        elif as_of in epochs:
            later = epochs[epochs.index(as_of) + 1:]
        else:
            raise ValueError(f"unknown epoch {as_of!r}; "
                             f"manifest has {epochs!r}")
        later_set = set(later)
        for part_id, entry in m["partitions"].items():
            if entry.get("epoch") in later_set:
                raise ValueError(
                    f"epoch {entry['epoch']!r} was merge-applied into "
                    f"partition {part_id}'s base — as_of={as_of!r} is "
                    f"unreadable (use mode='delta' appends for "
                    f"time-travel)")
            folded = later_set & set(entry.get("compacted_epochs", []))
            if folded:
                raise ValueError(
                    f"epoch(s) {sorted(folded)} were compacted into "
                    f"partition {part_id}'s base — as_of={as_of!r} is "
                    f"unreadable")
        allowed = set(epochs) - later_set
    parts: List[pa.Table] = []
    any_delta = False
    for part_id in sorted(m["partitions"], key=int):
        entry = m["partitions"][part_id]
        base = os.path.join(out_dir, entry["file"])
        tables = [read_parquet_file(base)] if os.path.exists(base) else []
        for d in entry.get("deltas", []):
            if allowed is not None and d["epoch"] not in allowed:
                continue
            any_delta = True
            tables.append(read_parquet_file(os.path.join(out_dir, d["file"])))
        if tables:
            parts.append(pa.concat_tables(tables, promote_options="default"))
    if not parts:
        return pa.table({})
    if any_delta:
        # a row's partition is hash(subj) % P, so equal rows share one
        # partition and per-partition distinct is global distinct; rows
        # keep their first-occurrence order
        parts = [t.take(first_rows(t, t.schema.names)) for t in parts]
    return pa.concat_tables(parts, promote_options="default")
