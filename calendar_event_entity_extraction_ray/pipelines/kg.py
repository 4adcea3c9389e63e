"""Flagship pipeline: Common-Crawl-style pages -> knowledge-graph triples.

    pages (url, warc_ts, html, text, lang)
      lang filter        vectorized predicate, first: S1 skips dropped pages
      S1 html->text      zero-copy Arrow; drop html
      S2 event extract   compiled grammar + memoized dateutil
      S3 triple emit     columnar explosion -> (subj, pred, obj, kind, url)
      S4 entity link     broadcast alias dict + LSH fuzzy, once per
                         distinct (kind, surface) per batch
      S5 dedup           per-batch exact (subj,pred,obj) distinct (see
                         stages/dedup.py for why no shuffle is needed)
      S6 materialize     partition by hash(subj) % P -> per-partition
                         Parquet + manifest (resumable)

S1..S5 run as ONE task-form batch UDF (``FusedKgStage`` behind
``stages/taskform.py:run_stage``); the stage functions stay individually
testable. S6 and the delta appends spill through the exchange's phase 1
(``stages/exchange.py:spill_partitions``) and write every file with
``state/manifest.py:write_parquet_atomic``; their set operations
(distinct, sort) and reads stay in Arrow.
The pipeline is lazy end-to-end; nothing materializes except the final
sink or the small aggregates.
"""

from __future__ import annotations

import os
import shutil
from typing import Optional

import numpy as np
import pyarrow as pa

import ray
import ray.data

from calendar_event_entity_extraction_ray.functions.dedup import first_rows
from calendar_event_entity_extraction_ray.functions.linking import default_alias_rows
from calendar_event_entity_extraction_ray.sources.pages import pages_table
from calendar_event_entity_extraction_ray.stages.dedup import (
    dedup_triples_batch,
    hash64_columns,
)
from calendar_event_entity_extraction_ray.stages.emit_triples import emit_triples_batch
from calendar_event_entity_extraction_ray.stages.exchange import (
    claim_crash_sentinel,
    read_spill,
    spill_partitions,
)
from calendar_event_entity_extraction_ray.stages.extract_events import ExtractEvents
from calendar_event_entity_extraction_ray.stages.html_to_text import (
    filter_lang,
    html_to_text_batch,
)
from calendar_event_entity_extraction_ray.stages.link_entities import LinkEntities
from calendar_event_entity_extraction_ray.stages.taskform import (
    put_by_content,
    run_stage,
)
from calendar_event_entity_extraction_ray.state import manifest as M


def synth_pages_dataset(
    n_pages: int, seed: int = 42, override_num_blocks: Optional[int] = None
) -> "ray.data.Dataset":
    """Distributed deterministic page generation over ray.data.range(n):
    each block renders its own page indices — the generator itself scales."""
    ds = ray.data.range(n_pages, override_num_blocks=override_num_blocks)

    def gen(batch: pa.Table) -> pa.Table:
        return pages_table(batch.column("id").to_pylist(), seed=seed)

    # batch_size=None: operate on whole blocks — Ray Data's cross-block batch
    # slicing costs ~2x on sub-millisecond UDFs; granularity is controlled by
    # override_num_blocks instead
    return ds.map_batches(gen, batch_format="pyarrow", batch_size=None)


def extract_stage(
    pages: "ray.data.Dataset",
    batch_size: int | None = None,
) -> "ray.data.Dataset":
    """lang filter + S1 + S2: pages -> events dataset."""
    en = pages.map_batches(filter_lang, batch_format="pyarrow")
    texted = en.map_batches(html_to_text_batch, batch_format="pyarrow")
    # task form with per-worker instance cache (stages/taskform.py):
    # grammar compiles once per worker, no pool spin-up
    return texted.map_batches(
        run_stage,
        fn_kwargs={"_cls": ExtractEvents},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


class FusedKgStage:
    """S1..S5 composed into ONE batch UDF (run task-based via
    ``run_stage`` with a per-worker instance cache).

    The stage functions remain individually testable, but running them as
    separate Ray operators costs an object-store round-trip and a block
    re-slice between every pair of stages; measured on this pipeline the
    composed stage is ~3x the throughput of the 3-operator version (rows
    are tiny, per-row compute is microseconds — block movement
    dominated). Setup (grammar compile, alias-dict fetch, LSH index
    build) happens once per WORKER PROCESS via the run_stage cache
    (formerly once per actor; the task form removed pool spin-up —
    13.2s -> 8.1s at 32 cpus); the alias table arrives via a broadcast
    ObjectRef."""

    def __init__(self, alias_ref=None, gen_seed: Optional[int] = None) -> None:
        self.extract = ExtractEvents()
        self.link = LinkEntities(alias_ref=alias_ref)
        self.gen_seed = gen_seed

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.gen_seed is not None and "id" in batch.column_names:
            # synthetic-source mode: the block is a range of page indices;
            # render pages inside the same task (no extra operator)
            batch = pages_table(batch.column("id").to_pylist(), seed=self.gen_seed)
        t = html_to_text_batch(filter_lang(batch))
        return dedup_triples_batch(
            self.link(emit_triples_batch(self.extract(t)))
        )


def kg_triples(
    pages: "ray.data.Dataset",
    alias_rows: Optional[list] = None,
    batch_size: int | None = None,
    gen_seed: Optional[int] = None,  # synthetic-source mode: pages is a range of ids
) -> "ray.data.Dataset":
    """pages -> linked, deduped triples Dataset (lazy): S1..S5 as ONE
    task-form batch UDF (``FusedKgStage`` behind ``run_stage``).

    Task-based with a per-worker-process state cache (same pattern as
    stages/dedup.py:jaccard_prefix_tokens_batch): Ray's pre-started
    worker pool runs the tasks with NO actor-pool spin-up (~2s of every
    cold run at 32 cpus), and the grammar / alias-dict / LSH-index setup
    still happens once per worker — tasks reuse worker processes, so
    this amortizes exactly like actor __init__. Task parallelism follows
    the block count. The alias rows are broadcast by content, so repeated
    calls share one stage per worker.
    """
    alias_ref = put_by_content(
        alias_rows if alias_rows is not None else default_alias_rows())
    return pages.map_batches(
        run_stage,
        fn_kwargs={"_cls": FusedKgStage, "alias_ref": alias_ref,
                   "gen_seed": gen_seed},
        batch_format="pyarrow",
        batch_size=batch_size,
    )


def _subj_part_of(num_partitions: int, skip=()):
    """The graph store's partition assignment, ``hash64(subj) % P`` —
    graphs on disk depend on it (appends route by the base's P). Rows of
    partitions in ``skip`` map to -1, which ``spill_partitions`` drops."""
    skip = np.asarray(sorted(skip), dtype=np.int64)

    def part_of(b: pa.Table) -> np.ndarray:
        part = hash64_columns(b, ["subj"]) % num_partitions
        if len(skip):
            part[np.isin(part, skip)] = -1
        return part

    return part_of


def _distinct_sorted(t: pa.Table) -> pa.Table:
    """The graph store's set semantics: distinct over all columns, sorted
    on all columns for byte-deterministic output."""
    return t.take(first_rows(t, t.schema.names)).sort_by(
        [(c, "ascending") for c in t.schema.names])


def materialize_graph(
    triples: "ray.data.Dataset",
    out_dir: str,
    fingerprint: str,
    num_partitions: int = 16,
    _crash_sentinel: "str | None" = None,
) -> dict:
    """S6: partition by hash(subj) % P -> one Parquet file per partition +
    manifest; partitions already present for this fingerprint are skipped
    (resume). Returns the manifest dict.

    The exchange is an EXPLICIT two-phase shuffle through storage instead of
    Ray's sort-based groupby (which, for this many-small-blocks /
    few-partitions shape, cost more than the whole extract stage):

      phase 1 (map, no barrier): ``spill_partitions`` splits each block
        by hash(subj) % P and writes one spill file per touched partition
        under ``_spill/part=K/`` (atomic temp+rename; local disk here,
        shared object storage on a real cluster);
      phase 2 (reduce, parallel ray tasks): one task per partition merges
        its spill files, sorts by (subj, pred, obj) for deterministic
        output, and writes ``part_key=K/data.parquet``.

    The driver records the manifest incrementally — one merge per
    ``ray.wait`` drain, each completed partition durable the moment its
    data file lands (per-partition checkpointing: a mid-run crash leaves
    a valid partial manifest and the re-run completes only the rest).
    Workers never touch shared state. The hash key is uniform, so
    partitions stay balanced regardless of hub-entity skew.

    Resume semantics: a re-run with the same fingerprint skips the WRITE of
    completed partitions (and their spill+merge I/O). Upstream recompute is
    unavoidable under subject-hash partitioning (the subject is only known
    after extraction); INPUT-level resume is achieved by sharding the input
    across jobs with per-shard fingerprints (scripts/job.py graph).
    """
    done = M.completed_partitions(out_dir, fingerprint)
    # spill next to the output (out_dir IS shared storage on a real
    # cluster — the same place the Parquet output lands)
    spill_dir = os.path.join(out_dir, "_spill")
    # A crashed prior run (manifest written only at the end) or a prior
    # same-fingerprint attempt may have left spill files behind — merging
    # them would duplicate triples. Phase 1 always starts clean.
    shutil.rmtree(spill_dir, ignore_errors=True)
    spilled = spill_partitions(
        triples, _subj_part_of(num_partitions, skip=done), spill_dir)

    @ray.remote(num_cpus=1)
    def merge(part_id: int, files: list) -> tuple:
        t = read_spill(spill_dir, part_id, files).sort_by(
            [("subj", "ascending"), ("pred", "ascending"),
             ("obj", "ascending")])
        M.write_partition_file(out_dir, part_id, t)
        # worker-loss window: partition file durable, result not yet
        # returned — the retry re-merges the SAME spill listing and
        # rewrites atomically, so the manifest records it exactly once
        claim_crash_sentinel(_crash_sentinel)
        return part_id, t.num_rows

    by_part = spilled.groupby("part_id")["file"].apply(list)
    pending = [merge.remote(int(p), files) for p, files in by_part.items()]

    # per-partition checkpointing: record every completed merge as soon as
    # it lands (manifest saves are tiny driver-side JSON writes — the
    # partition count is bounded per shard, see the adaptive-partitioning
    # note in scripts/job_ops/kg.py). A crash mid-loop leaves a valid
    # manifest holding exactly the durable partitions; the re-run's
    # ``done`` filter skips them and completes the rest.
    while pending:
        ready, pending = ray.wait(pending, num_returns=1)
        done_now = ray.get(ready)
        M.record_partitions(out_dir, fingerprint, {
            part_id: {
                "file": os.path.join(f"part_key={part_id}", "data.parquet"),
                "rows": rows,
                "lineage": {"rows_out": rows},
            }
            for part_id, rows in done_now
        }, num_partitions=num_partitions)
    shutil.rmtree(spill_dir, ignore_errors=True)
    return M.record_partitions(out_dir, fingerprint, {},
                               num_partitions=num_partitions)


def append_graph(
    triples: "ray.data.Dataset",
    out_dir: str,
    epoch: str,
    mode: str = "merge",
) -> dict:
    """S6b — delta ingest: distinct-union new triples into an EXISTING
    materialized graph without rebuilding it (the daily-crawl shape: the
    base graph is 10^12 triples, the delta is one crawl's worth).

    New triples route by the SAME hash(subj) % P recorded in the base
    manifest, so an entity's triples land in the partition that already
    holds its history. Two modes:

    ``mode="merge"`` (eager compaction): each touched partition's merge
    task reads its existing Parquet + the epoch's spill files, takes the
    DISTINCT union over all columns (a graph is a set of triples — the
    same (subj, pred, obj, url, ...) re-extracted from a re-crawled page
    collapses), sorts on all columns for byte-deterministic output, and
    rewrites the partition atomically. Untouched partitions are not
    rewritten, not even read. BUT: a uniformly-hashed delta touches
    every partition, so merge-mode cost is proportional to the BASE —
    right for large deltas or scheduled maintenance, wrong for a daily
    crawl against a 10^12-triple base.

    ``mode="delta"`` (LSM-style, the O(delta) path): each touched
    partition gets a NEW side file ``part_key=K/delta-{epoch}.parquet``
    (distinct within the delta, sorted, atomic) — the base
    ``data.parquet`` is never read, never rewritten. Readers
    (``state/manifest.py:read_output``) distinct-union base + deltas on
    read; ``compact_graph`` folds accumulated deltas back into the base
    when their count/size warrants it, exactly the LSM write/read/
    compact trade.

    Both modes are idempotent by construction: distinct-union means
    re-applying the same delta cannot change the result, so crash
    recovery is simply re-run — the manifest records the epoch only
    after every write is durable (``state/manifest.py:record_append``),
    and an epoch already in ``manifest["epochs"]`` is a no-op.
    Per-partition lineage rows record (rows_in_delta, rows_out) per
    epoch."""
    M.check_epoch_name(epoch)
    if mode not in ("merge", "delta"):
        raise ValueError(f"append_graph: unknown mode {mode!r}")
    m = M.load_manifest(out_dir)
    if not m.get("partitions"):
        raise ValueError(f"append_graph: no existing graph at {out_dir}")
    if epoch in m.get("epochs", []):
        return m  # epoch fully applied; re-running is a no-op
    num_partitions = int(
        m.get("num_partitions")
        or max(int(k) for k in m["partitions"]) + 1)
    spill_dir = os.path.join(out_dir, f"_spill_{epoch}")
    shutil.rmtree(spill_dir, ignore_errors=True)
    spilled = spill_partitions(
        triples, _subj_part_of(num_partitions), spill_dir)

    @ray.remote(num_cpus=1)
    def merge(part_id: int, files: list) -> tuple:
        t = read_spill(spill_dir, part_id, files)
        existing = os.path.join(out_dir, f"part_key={part_id}",
                                "data.parquet")
        if os.path.exists(existing):
            t = pa.concat_tables([t, M.read_parquet_file(existing)],
                                 promote_options="default")
        t = _distinct_sorted(t)
        M.write_partition_file(out_dir, part_id, t)
        return part_id, t.num_rows

    @ray.remote(num_cpus=1)
    def write_delta(part_id: int, files: list) -> tuple:
        # O(delta): the base data.parquet is never opened
        t = _distinct_sorted(read_spill(spill_dir, part_id, files))
        M.write_parquet_atomic(t, os.path.join(out_dir, f"part_key={part_id}"),
                               f"delta-{epoch}.parquet")
        return part_id, t.num_rows

    task = merge if mode == "merge" else write_delta
    by_part = spilled.groupby("part_id")["file"].apply(list)
    rows_in = spilled.groupby("part_id")["rows"].sum().to_dict()
    results = ray.get(
        [task.remote(int(p), files) for p, files in by_part.items()])
    shutil.rmtree(spill_dir, ignore_errors=True)

    if mode == "delta":
        entries = {
            part_id: {
                "file": os.path.join(f"part_key={part_id}",
                                     f"delta-{epoch}.parquet"),
                "rows": rows,
                "lineage": {"rows_in_delta": int(rows_in.get(part_id, 0)),
                            "rows_out": rows},
            }
            for part_id, rows in results
        }
        return M.record_delta(out_dir, epoch, entries)

    entries = {
        part_id: {
            "file": os.path.join(f"part_key={part_id}", "data.parquet"),
            "rows": rows,
            "lineage": {"rows_in_delta": int(rows_in.get(part_id, 0)),
                        "rows_out": rows},
        }
        for part_id, rows in results
    }
    return M.record_append(out_dir, epoch, entries)


def compact_graph(out_dir: str) -> dict:
    """LSM maintenance: fold each partition's accumulated delta files
    into its base Parquet (distinct-union over all columns, sorted on
    all columns, atomic rewrite), then clear the manifest's delta lists
    and record the folded epochs per partition.

    Crash-safe ordering: (1) merged bases are written atomically; (2)
    the manifest drops the delta entries; (3) delta side files are
    removed. A crash between 1 and 2 leaves deltas listed AND already
    contained in the base — the read path's distinct-union makes that
    invisible, and re-running compaction converges. A crash between 2
    and 3 leaves unreferenced files that the final sweep of any later
    compaction removes."""
    m = M.load_manifest(out_dir)
    todo = {pid: e for pid, e in m["partitions"].items()
            if e.get("deltas")}

    @ray.remote(num_cpus=1)
    def compact(part_id: str, entry: dict) -> tuple:
        paths = []
        base = os.path.join(out_dir, entry["file"])
        if os.path.exists(base):
            paths.append(base)
        paths += [os.path.join(out_dir, d["file"])
                  for d in entry["deltas"]]
        t = _distinct_sorted(pa.concat_tables(
            [M.read_parquet_file(p) for p in paths],
            promote_options="default"))
        M.write_partition_file(out_dir, int(part_id), t)
        return part_id, t.num_rows

    if todo:
        results = ray.get(
            [compact.remote(pid, e) for pid, e in todo.items()])
        m = M.record_compaction(out_dir, dict(results))
    # manifest no longer references the side files — sweep them (also
    # catches strays from a crash between manifest save and sweep)
    for pid in m["partitions"]:
        pdir = os.path.join(out_dir, f"part_key={pid}")
        listed = {os.path.basename(d["file"])
                  for d in m["partitions"][pid].get("deltas", [])}
        if os.path.isdir(pdir):
            for f in os.listdir(pdir):
                if (f.startswith("delta-") and f.endswith(".parquet")
                        and f not in listed):
                    os.remove(os.path.join(pdir, f))
    return m
