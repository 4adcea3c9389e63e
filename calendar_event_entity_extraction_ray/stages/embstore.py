"""Epoch-incremental SemDeDup — cross-epoch embedding near-duplicate
removal against a persisted per-cell embedding store.

The incremental member of the semantic-dedup family, completing the
"incremental everything" trio: exact text dedup across epochs =
stages/fpstore.py, near-dup text across epochs = fpstore band
fingerprints, near-dup EMBEDDINGS across epochs = this store. The batch
operator (stages/semdedup.py, Abbas et al. 2023) bounds the quadratic
pair search by k-means cells; this store FREEZES those cells at
creation (the index-geometry-never-changes rule the IVF vector store
uses for its codebook) so later epochs compare only against the stored
vectors of their own cell:

  - a new vector is a NEAR-DUP iff some vector with priority over it in
    the SAME cell has cosine >= tau: any PRIOR epoch's stored vector
    (earlier epochs always win — the fpstore first-epoch-wins rule), or
    a smaller-id vector of the current epoch (the batch operator's
    keep-smallest-id rule);
  - cross-cell near-dups are missed BY DESIGN — the published SemDeDup
    semantics (the cell bound is what makes 10^9 x 10^9 comparisons a
    sum of per-cell products);
  - per-epoch cost: one broadcast assignment pass over the epoch + one
    cell-keyed exchange whose folds read ONLY their cell's stored
    files — O(epoch + touched-cell IO), never O(store); the epoch's
    vectors shuffle, the store's never move (the fpstore
    storage-partitioned semi-join shape).

Store rules (the repo's versioned manifest discipline): fold tasks
write uniquely-named survivor files and RETURN them; the driver records
the manifest last, atomically — re-running a recorded epoch is a no-op,
a crash mid-epoch leaves the previous manifest authoritative and the
re-run converges (drops are a pure function of (store, epoch input)).

    store_dir/_EMBMANIFEST.json   {"format_version",
                                   "params": {"k", "tau", "iters",
                                              "id_col", "vec_col"},
                                   "centroids",
                                   "epochs": {e: {"cells": {c: {...}},
                                              "rows": N}},
                                   after compaction: "compaction_gen",
                                   "compacted_epochs"}
    store_dir/epoch=<e>/cell=<c>/em-<uuid>.parquet   (id, vec)

The first epoch pins ``params``; a later one with other params, or a
dir without ``format_version``, is rejected (state/manifest.py).
"""

from __future__ import annotations

import os
import uuid
from typing import List, Optional, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from calendar_event_entity_extraction_ray.stages.ml import (
    assign_clusters,
    fit_centroids,
    fit_centroids_single_process,
)
from calendar_event_entity_extraction_ray.stages.semdedup import (
    _unit_rows,
)
from calendar_event_entity_extraction_ray.stages.storegc import (
    base_epoch,
    commit_compaction,
    prune_orphans,
)
from calendar_event_entity_extraction_ray.state.manifest import (
    StateFile,
    pin_params,
    write_parquet_atomic,
)

_MANIFEST = "_EMBMANIFEST.json"
STATE = StateFile(_MANIFEST, {"params": None, "centroids": None,
                              "epochs": {}})
# rows per side of one similarity block: a block is at most CHUNK x CHUNK
# float64 (512 MB) whatever the size of a cell's stored files or epoch
CHUNK = 8192


def _cell_files(store_dir: str, m: dict, exclude_epoch: Optional[str]
                ) -> "dict[int, List[str]]":
    out: dict[int, List[str]] = {}
    for e, ent in sorted(m["epochs"].items()):
        if e == exclude_epoch:
            continue
        for c, cent in sorted(ent["cells"].items()):
            out.setdefault(int(c), []).extend(
                os.path.join(store_dir, f"epoch={e}", f"cell={c}", f)
                for f in cent["files"])
    return out


def cross_hit_mask(stored_unit: np.ndarray, mat_unit: np.ndarray,
                   tau: float, chunk: int = CHUNK) -> np.ndarray:
    """True where a ``mat_unit`` row has cosine >= tau against ANY
    ``stored_unit`` row (both unit-normalized). OR-ing this over stored
    slices equals one pass over their concatenation, which is what lets
    the distributed fold STREAM a cell's stored vectors row-group by
    row-group (bounded memory even after compaction folds a cell into
    one large file) while the golden mirror calls the same kernel over
    its in-memory kept arrays. Both sides are chunked, so a similarity
    block is at most ``chunk`` x ``chunk``."""
    n = len(mat_unit)
    hit = np.zeros(n, dtype=bool)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        for s_lo in range(0, len(stored_unit), chunk):
            block = stored_unit[s_lo:s_lo + chunk] @ mat_unit[lo:hi].T
            hit[lo:hi] |= (block >= tau).any(axis=0)
    return hit


def incremental_drop_mask(ids: np.ndarray, mat: np.ndarray,
                          stored: Optional[np.ndarray],
                          tau: float,
                          chunk: int = CHUNK) -> np.ndarray:
    """True where an epoch row is a near-dup: cos >= tau against any
    STORED row (prior epochs always win) or any smaller-id row of the
    same epoch/cell. ``ids`` must be sorted ascending with ``mat``
    aligned; rows are unit-normalized here. Chunked so a similarity
    block is at most ``chunk`` x ``chunk`` — the shared kernel of the
    distributed fold AND the single-process golden mirror."""
    n = len(ids)
    drop = np.zeros(n, dtype=bool)
    if n == 0:
        return drop
    mu = _unit_rows(np.asarray(mat, np.float64))
    if stored is not None and len(stored):
        drop |= cross_hit_mask(
            _unit_rows(np.asarray(stored, np.float64)), mu, tau, chunk)
    for lo in range(0, n, chunk):
        hi = min(lo + chunk, n)
        # earlier same-epoch rows: every chunk before this one, then the
        # strict upper triangle within the chunk
        if lo:
            drop[lo:hi] |= cross_hit_mask(mu[:lo], mu[lo:hi], tau, chunk)
        s_self = np.triu(mu[lo:hi] @ mu[lo:hi].T >= tau, k=1)
        drop[lo:hi] |= s_self.any(axis=0)
    return drop


def embstore_single_process(
    epochs: "List[Tuple[np.ndarray, np.ndarray]]",
    k: int, tau: float, iters: int = 5,
) -> "List[np.ndarray]":
    """Sequential mirror: centroids fit on the FIRST epoch (sorted by
    id), every epoch assigned with those frozen centroids, survivors
    accumulated per cell, each epoch's rows tested by the same
    incremental_drop_mask kernel. Returns surviving ids per epoch."""
    ids0, v0 = epochs[0]
    cents = fit_centroids_single_process(
        np.asarray(v0, np.float64), ids0, k=k, iters=iters)
    kept: dict[int, List[np.ndarray]] = {}
    out = []
    for ids, vecs in epochs:
        o = np.argsort(ids, kind="stable")
        ids, vecs = ids[o], np.asarray(vecs, np.float64)[o]
        cells = assign_clusters(vecs, cents).astype(np.int64)
        surv_ids = []
        for c in np.unique(cells):
            sel = cells == c
            stored = (np.concatenate(kept[int(c)])
                      if int(c) in kept else None)
            drop = incremental_drop_mask(ids[sel], vecs[sel], stored,
                                         tau)
            surv_ids.append(ids[sel][~drop])
            if (~drop).any():
                kept.setdefault(int(c), []).append(vecs[sel][~drop])
        out.append(np.sort(np.concatenate(surv_ids))
                   if surv_ids else np.zeros(0, np.int64))
    return out


def dedup_epoch(
    ds: "ray.data.Dataset",
    store_dir: str,
    epoch: str,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    k: int = 8,
    tau: float = 0.3,
    iters: int = 5,
) -> "ray.data.Dataset":
    """Drop this epoch's embedding near-dups against all PRIOR epochs
    (+ within-epoch, smallest id wins), record the survivors, and
    return them as a Dataset of (id, vec). Centroids are fit on the
    FIRST epoch and frozen (geometry pinned; mismatched k/tau
    rejected). Re-running a recorded epoch returns its recorded
    survivors without recomputation."""
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )
    from calendar_event_entity_extraction_ray.stages.knn import (
        _batch_matrix,
    )

    m = STATE.load(store_dir)
    pin_params(m, store_dir, {"k": int(k), "tau": float(tau),
                              "iters": int(iters), "id_col": id_col,
                              "vec_col": vec_col})
    if epoch in m.get("compacted_epochs", []):
        # folded into a base epoch: still recorded, survivors no longer
        # a distinct file set — the re-run's filter would drop them all
        # against the base anyway (they are members)
        return ray.data.from_arrow(pa.table(
            {id_col: pa.array([], pa.int64()),
             vec_col: pa.array([], pa.list_(pa.float64()))}))
    if epoch in m["epochs"]:
        return _read_survivors(store_dir, epoch, m["epochs"][epoch]["cells"],
                               id_col, vec_col)

    proj = ds.select_columns([id_col, vec_col]).materialize()
    if m.get("centroids") is None:
        cents = fit_centroids(proj, vec_col, id_col, k, iters)
    else:
        cents = np.asarray(m["centroids"], dtype=np.float64)
    cents_ref = ray.put(cents)
    cell_files = _cell_files(store_dir, m, exclude_epoch=epoch)
    ed = os.path.join(store_dir, f"epoch={epoch}")

    def tag(b: pa.Table) -> pa.Table:
        mat = _batch_matrix(b, vec_col)
        a = assign_clusters(mat, ray.get(cents_ref)).astype(np.int64)
        return pa.table({id_col: b.column(id_col),
                         vec_col: b.column(vec_col),
                         "cell": pa.array(a)})

    tagged = proj.map_batches(tag, batch_format="pyarrow",
                              batch_size=None)

    def fold(t: pa.Table) -> pa.Table:
        empty = pa.table({"cell": pa.array([], pa.int64()),
                          "file": pa.array([], pa.string()),
                          "rows": pa.array([], pa.int64())})
        if t.num_rows == 0:
            return empty
        cells_out, files_out, rows_out = [], [], []
        labels = t.column("cell").to_numpy(zero_copy_only=False)
        all_ids = t.column(id_col).to_numpy(zero_copy_only=False)
        mat = _batch_matrix(t, vec_col)
        for c in np.unique(labels):
            sel = labels == c
            ids_c, mat_c = all_ids[sel], mat[sel]
            o = np.argsort(ids_c, kind="stable")
            ids_c, mat_c = ids_c[o], mat_c[o]
            # within-epoch drops first (smaller id wins), then STREAM
            # the cell's stored vectors row-group by row-group — memory
            # stays bounded even after compaction folds the cell into
            # one corpus-scale file (OR over slices == one concat pass)
            drop = incremental_drop_mask(ids_c, mat_c, None, tau)
            mu = _unit_rows(np.asarray(mat_c, np.float64))
            for f in cell_files.get(int(c), []):
                pf = pq.ParquetFile(f)
                for rb in pf.iter_batches(batch_size=CHUNK,
                                          columns=[vec_col]):
                    flat = (rb.column(0).flatten()
                            .to_numpy(zero_copy_only=False))
                    su = _unit_rows(
                        flat.reshape(rb.num_rows, -1).astype(np.float64))
                    drop |= cross_hit_mask(su, mu, tau)
            if drop.all():
                continue
            keep_ids = ids_c[~drop]
            keep_mat = mat_c[~drop]
            name = f"em-{uuid.uuid4().hex}.parquet"
            vec_arr = pa.FixedSizeListArray.from_arrays(
                pa.array(np.ascontiguousarray(keep_mat).ravel(),
                         pa.float64()),
                keep_mat.shape[1]).cast(pa.list_(pa.float64()))
            write_parquet_atomic(
                pa.table({id_col: pa.array(keep_ids, pa.int64()),
                          vec_col: vec_arr}),
                os.path.join(ed, f"cell={int(c)}"), name)
            cells_out.append(int(c))
            files_out.append(name)
            rows_out.append(int(len(keep_ids)))
        return pa.table({"cell": pa.array(cells_out, pa.int64()),
                         "file": pa.array(files_out, pa.string()),
                         "rows": pa.array(rows_out, pa.int64())})

    res = hash_partition_map(tagged, "cell", fold).to_pandas()
    cells_ent: dict = {}
    total = 0
    if "file" in res.columns:
        for r in res.itertuples():
            cent = cells_ent.setdefault(str(int(r.cell)),
                                        {"files": [], "rows": 0})
            cent["files"].append(r.file)
            cent["rows"] += int(r.rows)
            total += int(r.rows)
        for cent in cells_ent.values():
            cent["files"].sort()

    if m["centroids"] is None:
        m["centroids"] = [[float(x) for x in c] for c in cents]
    m["epochs"][epoch] = {"cells": cells_ent, "rows": total}
    STATE.save(store_dir, m)  # the commit point
    prune_orphans(store_dir, f"epoch={epoch}", _listed_rels(epoch, cells_ent))
    return _read_survivors(store_dir, epoch, cells_ent, id_col, vec_col)


def _listed_rels(epoch: str, cells: dict) -> List[str]:
    return [os.path.join(f"epoch={epoch}", f"cell={c}", f)
            for c, cent in sorted(cells.items()) for f in cent["files"]]


def _read_survivors(store_dir: str, epoch: str, cells: dict, id_col: str,
                    vec_col: str) -> "ray.data.Dataset":
    files = [os.path.join(store_dir, rel)
             for rel in _listed_rels(epoch, cells)]
    if files:
        return ray.data.read_parquet(files, columns=[id_col, vec_col])
    return ray.data.from_arrow(pa.table(
        {id_col: pa.array([], pa.int64()),
         vec_col: pa.array([], pa.list_(pa.float64()))}))


def store_rows(store_dir: str) -> int:
    m = STATE.load(store_dir)
    return sum(int(e["rows"]) for e in m["epochs"].values())


def compact_store(store_dir: str) -> dict:
    """LSM compaction: fold every cell's files ACROSS epochs into one
    file per cell under a new base epoch (rows are a disjoint union —
    a vector registers in exactly one epoch — so membership and every
    future drop decision are identical before and after). One ray task
    per cell; the manifest ``os.replace`` is the commit, superseded
    epoch dirs deleted strictly AFTER (versioned-open-table rule).
    Compacted epoch names are retained: re-running ``dedup_epoch`` for
    one returns an EMPTY survivor set without touching the store (its
    vectors are already members of the folded base — the fpstore
    append_epoch rule)."""
    m = STATE.load(store_dir)
    if not m["epochs"]:
        return m
    id_col, vec_col = m["params"]["id_col"], m["params"]["vec_col"]
    cell_files = _cell_files(store_dir, m, None)
    base = base_epoch(m)

    @ray.remote(num_cpus=1)
    def fold(c: int, files: List[str]) -> tuple:
        t = pa.concat_tables(pq.read_table(f, columns=[id_col, vec_col])
                             for f in files)
        t = t.sort_by(id_col)
        name = f"em-{uuid.uuid4().hex}.parquet"
        write_parquet_atomic(
            t, os.path.join(store_dir, f"epoch={base}", f"cell={c}"), name)
        return c, name, t.num_rows

    refs = [fold.remote(c, fs) for c, fs in sorted(cell_files.items())]
    new_cells: dict = {}
    total = 0
    for c, name, rows in ray.get(refs):
        new_cells[str(c)] = {"files": [name], "rows": rows}
        total += rows
    return commit_compaction(STATE, store_dir, m,
                             {"cells": new_cells, "rows": total},
                             _listed_rels(base, new_cells))
