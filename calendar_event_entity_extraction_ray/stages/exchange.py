"""Generic two-phase hash exchange (partition -> per-partition fold).

Ray Data's built-in ``groupby``/``sort`` shuffle is sort-based and, for the
many-small-blocks / few-partitions shapes this engine produces, costs more
than the compute it feeds (measured in round 1; see CLAUDE.md). This module
holds the explicit exchange as a reusable operator:

  phase 1 (map, no barrier): ``spill_partitions`` — each block splits its
    rows by partition id and writes one uniquely-named spill file per
    touched partition, an LZ4-compressed Arrow IPC file
    (``state/manifest.py:write_ipc_atomic``), RETURNING the (part_id,
    rows, file, bytes) listing — the Spark-style attempt
    commit: phase 2 reads only files listed by the one attempt Ray kept,
    so retried/speculative attempts cannot duplicate rows. Local disk
    here; shared object storage on a real cluster. It is the one phase 1
    of every hash-partitioned writer: ``hash_partition_map``,
    ``pipelines/kg.py:materialize_graph``/``append_graph`` and the Pregel
    edge pin (``stages/graph.py:_pin_edges``).
  phase 2 (reduce, parallel ray tasks): one task per touched partition
    reads its spill files (``read_spill``) and applies ``fold_fn`` to the
    whole partition table; the folded tables stay in the object store
    (``ray.data.from_arrow_refs`` — never collected to the driver).

Because the partition key is a uniform content hash, partitions stay
balanced regardless of key skew in the data. Hot KEYS still co-locate:
every row of one key reaches one fold task, and nothing salts them. A
caller bounds that by pre-aggregating per batch before the exchange, as
grouped_count does (one partial row per key per batch).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import uuid
from typing import Callable, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from calendar_event_entity_extraction_ray.state.manifest import (
    write_ipc_atomic,
)


SMALL_ROWS = 100_000           # below this, one vectorized fold task wins
TARGET_ROWS_PER_PARTITION = 100_000

# Multi-node spill location. When set (env var, EngineConfig.spill_root or
# `scripts/job.py graph --spill-root`), every exchange creates a unique
# subdirectory under this root; point it at storage every node can read
# (NFS / fuse-mounted object store) and phase-2 folds work across nodes.
# Unset -> node-local tempdir, correct only while map and reduce tasks
# share a filesystem (single node — this sandbox).
SPILL_ROOT_ENV = "CEE_SPILL_ROOT"

# Spill dirs whose cleanup is deferred (shared-root exchanges): deleting
# right after ray.wait would break Ray lineage reconstruction — if a fold
# output object is later lost to node failure, re-running fold needs the
# files. The job driver calls cleanup_pending_spill() once outputs are
# durably consumed (scripts/job.py does, after every op).
_PENDING_SPILL_DIRS: List[str] = []


def resolve_spill_root() -> Optional[str]:
    """Configured shared spill root, or None for node-local tempdir."""
    root = os.environ.get(SPILL_ROOT_ENV, "").strip()
    return root or None


def cleanup_pending_spill() -> int:
    """Delete deferred spill dirs (call after outputs are durably written).
    Returns the number of directories removed."""
    n = 0
    while _PENDING_SPILL_DIRS:
        shutil.rmtree(_PENDING_SPILL_DIRS.pop(), ignore_errors=True)
        n += 1
    return n


def defer_cleanup(path: str) -> None:
    """Register a temp directory for deferred removal alongside the spill
    dirs. For datasets that READ the directory lazily (e.g. a sorted-store
    export a query returns a lazy reader over): eager rmtree would break
    the consumer, so it is removed at cleanup_pending_spill() / process
    exit instead."""
    _PENDING_SPILL_DIRS.append(path)


# Last-resort cleanup so query-surface callers (bench / correctness runs,
# which never call cleanup_pending_spill themselves) do not accumulate
# orders-sized temp dirs in /tmp across repeated invocations.
import atexit  # noqa: E402

atexit.register(cleanup_pending_spill)


def claim_crash_sentinel(path: Optional[str]) -> None:
    """Test-only fault injection shared by every attempt-commit write
    path (exchange spill, graph materialize merge, corpus write fold,
    vector-store delta append): the FIRST caller to claim the sentinel
    file (O_EXCL) hard-kills its worker with ``os._exit`` — AFTER its
    durable writes but BEFORE returning the attempt commit, the exact
    worker-loss window the protocol exists for. Ray retries the task
    (system failure); only the retry's returned names/rows are
    committed, and rewrites are atomic (temp+rename), so the dead
    attempt changes nothing a reader sees."""
    if path is None:
        return
    try:
        os.close(os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        os._exit(1)
    except FileExistsError:
        pass


def spill_dir_for(prefix: str, spill_root: Optional[str] = None
                  ) -> Tuple[str, bool]:
    """Choose a fresh spill dir for one exchange; returns
    ``(spill_dir, eager_cleanup)`` for ``release_spill_dir``."""
    if spill_root:
        # caller-owned dir (assumed unique to this exchange): pre-clean so
        # a crashed prior attempt's files cannot double rows; cleanup is
        # DEFERRED — the dir may be shared storage, where keeping the files
        # lets lineage reconstruction of a lost fold output re-read them
        shutil.rmtree(spill_root, ignore_errors=True)
        os.makedirs(spill_root, exist_ok=True)
        return spill_root, False
    root = resolve_spill_root()
    if root:
        # configured shared root: unique dir per exchange (no cross-run
        # clobbering), cleanup deferred as above
        os.makedirs(root, exist_ok=True)
        return tempfile.mkdtemp(prefix=prefix, dir=root), False
    # node-local tempdir: single-filesystem assumption (this sandbox);
    # safe to delete as soon as folds complete — on one node an object
    # lost from plasma means the node (and job) is gone anyway
    return tempfile.mkdtemp(prefix=prefix), True


def release_spill_dir(spill_dir: str, eager_cleanup: bool) -> None:
    """Remove a spill dir once its folds are done (node-local), or defer
    it to ``cleanup_pending_spill`` (shared storage: keep the files so
    lineage reconstruction of a lost fold output can re-read them)."""
    if eager_cleanup:
        shutil.rmtree(spill_dir, ignore_errors=True)
    else:
        _PENDING_SPILL_DIRS.append(spill_dir)


def spill_partitions(
    ds: "ray.data.Dataset",
    part_of: Callable[[pa.Table], np.ndarray],
    spill_dir: str,
    _crash_sentinel: Optional[str] = None,
) -> pd.DataFrame:
    """Phase 1 of every hash-partitioned writer: map each block through
    ``part_of(block) -> int64 partition ids`` and write one uniquely
    named spill file per touched partition under ``spill_dir/part=K/``.
    A negative id drops its row (nothing is spilled for it). Executes
    ``ds`` once.

    A block is split in one pass: a stable argsort of its partition
    ids, one ``take``, then a zero-copy slice per partition, so each
    file holds its rows in block order. Files are Arrow IPC with LZ4
    buffer compression (``state/manifest.py:write_ipc_atomic``), not
    Parquet: only ``read_spill`` ever reads them, once, so Parquet's
    encode and decode buy nothing, and LZ4 keeps them near uncompressed
    Parquet's size (raw IPC is about 4x larger on graph triples).

    Returns the attempt-commit listing, one row ``(part_id, rows, file,
    bytes)`` per spill file (``bytes`` is its size on disk). Spark-style
    attempt commit: every attempt writes UNIQUE file names and returns
    them; only files in the listing (i.e. from the one attempt Ray
    kept) may be read in phase 2, so files from retried/speculative
    attempts are ignored and the exchange is exactly-once without
    content-addressed naming.

    ``_crash_sentinel`` (test-only, see ``claim_crash_sentinel``): the
    first spill task to claim it dies AFTER writing its files but BEFORE
    returning its listing — the worker-loss window the protocol exists
    for."""

    def spill(b: pa.Table) -> pa.Table:
        parts, rows, names, sizes = [], [], [], []
        if b.num_rows:
            ids = np.asarray(part_of(b), dtype=np.int64)
            order = np.argsort(ids, kind="stable")
            ids = ids[order]
            kept = np.searchsorted(ids, 0)  # dropped rows sort first
            b = b.take(order[kept:])
            ids = ids[kept:]
            touched, starts, counts = np.unique(
                ids, return_index=True, return_counts=True)
            for part_id, lo, n in zip(touched, starts, counts):
                name = f"{uuid.uuid4().hex}.arrow"
                path = write_ipc_atomic(
                    b.slice(lo, n),
                    os.path.join(spill_dir, f"part={int(part_id)}"), name)
                parts.append(int(part_id))
                rows.append(int(n))
                names.append(name)
                sizes.append(os.path.getsize(path))
        if names:
            claim_crash_sentinel(_crash_sentinel)
        return pa.table({"part_id": pa.array(parts, pa.int64()),
                         "rows": pa.array(rows, pa.int64()),
                         "file": pa.array(names, pa.string()),
                         "bytes": pa.array(sizes, pa.int64())})

    listing = ds.map_batches(spill, batch_format="pyarrow").to_pandas()
    if "part_id" not in listing.columns:
        # no rows spilled: Ray hands back a column-less frame
        listing = pd.DataFrame({"part_id": pd.Series([], dtype="int64"),
                                "rows": pd.Series([], dtype="int64"),
                                "file": pd.Series([], dtype=object),
                                "bytes": pd.Series([], dtype="int64")})
    return listing


def read_spill(spill_dir: str, part_id: int, files: List[str]) -> pa.Table:
    """One partition's listed spill files as one table (file-name order).
    Each file is read through a plain input file, not a memory map.
    Permissive promotion: unioned two-sided inputs (joins) carry the same
    column NAMES but differing order / null-typed pad columns."""
    pdir = os.path.join(spill_dir, f"part={part_id}")
    tables = []
    for f in sorted(files):
        with pa.OSFile(os.path.join(pdir, f)) as src:
            tables.append(pa.ipc.open_file(src).read_all())
    return pa.concat_tables(tables, promote_options="permissive")


def default_num_partitions(cap: int = 64) -> int:
    """~2x cluster CPUs (CLAUDE.md: granularity via block/partition count)."""
    try:
        cpus = int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        cpus = 8
    return max(8, min(cap, cpus * 2))


def hash_partition_map(
    ds: "ray.data.Dataset",
    hash_col: str,
    fold_fn: Callable[[pa.Table], pa.Table],
    num_partitions: Optional[int] = None,
    spill_root: Optional[str] = None,
    _crash_sentinel: Optional[str] = None,
) -> "ray.data.Dataset":
    """Partition ``ds`` by ``hash_col % num_partitions`` and apply
    ``fold_fn`` once per whole partition table.

    ``hash_col`` must be a non-null int64 column (a uniform content hash —
    see ``stages/dedup.py:add_hash_column``). Rows with equal hash values
    are guaranteed to land in the same partition, so any fold whose
    semantics only need equal-key co-location (dedup, set-difference,
    grouped fold) is exact.

    This is an execution barrier: phase 1 runs to completion before phase 2
    starts (the price of any all-to-all exchange). The input is pinned
    (materialized) first — every shuffle implementation stages its input
    somewhere; here it buys an exact row count that sizes the exchange:

      - small inputs (<= ``SMALL_ROWS``) skip the disk exchange entirely
        and fold in ONE task (a 64-block x 64-partition spill of a 5k-row
        table costs ~4096 tiny files — measured 4x slower than the fold);
      - large inputs get ``rows / TARGET_ROWS_PER_PARTITION`` partitions
        (bounded by [default, 256]) so spill files stay chunky.

    Passing ``num_partitions`` explicitly SKIPS the materialize+count: the
    input streams straight into phase-1 spill with backpressure and is
    never pinned in the object store — the path a 100 TB job takes (size
    the partition count from the job's input manifest instead).

    ``_crash_sentinel`` (test-only fault injection) goes to phase 1
    (``spill_partitions``): the retry writes new unique file names and
    only those are folded, so the dead attempt's orphaned files are
    ignored. Pinned by tests/test_exchange.py's crash-injection tests.
    """
    if num_partitions is None:
        ds = ds.materialize()
        n_rows = ds.count()
        if n_rows == 0:
            schema = ds.schema()
            if schema is None:
                return ds
            return ray.data.from_arrow(
                fold_fn(schema.base_schema.empty_table()))
        if n_rows <= SMALL_ROWS:
            # single-task global fold: all keys trivially co-locate
            return ds.repartition(1).map_batches(
                fold_fn, batch_format="pyarrow", batch_size=None)
        num_partitions = max(default_num_partitions(),
                             min(256, n_rows // TARGET_ROWS_PER_PARTITION))
    spill_dir, eager_cleanup = spill_dir_for("cee_exchange_", spill_root)
    n_parts = int(num_partitions)
    listing = spill_partitions(
        ds, lambda b: b.column(hash_col).to_numpy() % n_parts, spill_dir,
        _crash_sentinel)

    if listing.empty:
        # preserve the output schema on empty input
        shutil.rmtree(spill_dir, ignore_errors=True)
        sch = ds.schema()
        if sch is None:
            # zero-block input: no schema to synthesize the fold's empty
            # table from — the empty input IS the (empty) result
            return ds
        empty_in = sch.base_schema.empty_table()
        return ray.data.from_arrow(fold_fn(empty_in))

    @ray.remote(num_cpus=1)
    def fold(part_id: int, files: List[str]) -> pa.Table:
        return fold_fn(read_spill(spill_dir, part_id, files))

    by_part = listing.groupby("part_id")["file"].apply(list)
    refs = [fold.remote(int(p), files) for p, files in by_part.items()]
    ray.wait(refs, num_returns=len(refs))
    release_spill_dir(spill_dir, eager_cleanup)
    return ray.data.from_arrow_refs(refs)
