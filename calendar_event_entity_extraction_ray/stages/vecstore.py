"""Persisted IVF vector index: build once, query many times reading only
the probed cells' files — the zone-map idea applied to embeddings (a
brute-force query scans 100% of a 100 TB embedding table; an IVF store
with n_probe/n_cells = 4/64 reads ~6%).

Layout (same worker-write / driver-record discipline as every store
here — workers write data files, ONLY the driver writes the manifest):

    out_dir/cell=K/<uuid>.parquet (id, embedding) sorted by id
                                  (data.parquet once compacted)
    out_dir/cell=K/delta-<epoch>.parquet  LSM side files (appends)
    out_dir/_MANIFEST.json        {"format_version", "kind", "n_cells",
                                   "id_col", "vec_col", "seed",
                                   "centroids", ["pq"], "epochs",
                                   "cells": {K: {"rows", "file",
                                                 ["deltas"],
                                                 ["compacted_epochs"]}}}

No params are pinned (the build fixes the geometry); a dir without
``format_version`` is rejected (state/manifest.py).

Build: one driver-side codebook training pass on a bounded sample
(stages/knn.py:train_ivf_codebook — seeded Lloyd, deterministic), one
distributed assignment pass, one exchange keyed BY CELL (partition id ==
cell id, so each fold task owns exactly one cell and writes its file).

Query: rank centroids per query vector, read ONLY the union of probed
cells (`read_parquet` on the listed files), score each candidate batch
against the queries that probed its cell, fold per-batch partial top-k.
Exact within the probed cells; recall is the IVF trade-off, measured in
tests against brute force on separated clusters.
"""

from __future__ import annotations

import os
import uuid
from typing import List, Optional, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from calendar_event_entity_extraction_ray.stages.storegc import (
    remove_files_and_prune_dirs,
)
from calendar_event_entity_extraction_ray.state.manifest import (
    StateFile,
    check_epoch_name,
    write_parquet_atomic,
)

MANIFEST = "_MANIFEST.json"
STATE = StateFile(MANIFEST)


def _encode_pq_residual(mat: np.ndarray, centroid: np.ndarray,
                        cb: np.ndarray) -> np.ndarray:
    """L2-normalize rows, subtract the cell centroid, nearest-sub-centroid
    codes per subspace (the _IvfPqEncode kernel for a known cell)."""
    mat = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True),
                        1e-12, None)
    res = mat - centroid
    m, _, sub_d = cb.shape
    half_sq = 0.5 * (cb ** 2).sum(axis=2)
    codes = np.empty((len(mat), m), dtype=np.uint8)
    for j in range(m):
        sub = res[:, j * sub_d:(j + 1) * sub_d]
        codes[:, j] = np.argmax(sub @ cb[j].T - half_sq[j],
                                axis=1).astype(np.uint8)
    return codes


def build_ivf_store(
    ds: "ray.data.Dataset",
    out_dir: str,
    n_cells: int = 64,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    sample_size: int = 4096,
    seed: int = 13,
    pq_m: Optional[int] = None,
    pq_codes: int = 256,
) -> dict:
    """Build the store; returns the manifest dict. Re-running overwrites.
    The codebooks train on the first ``sample_size`` rows in input order
    (``knn.codebook_sample``), so the build is deterministic for a given
    input + seed whatever order its blocks finish in.

    ``pq_m`` adds a PQ-coded column per cell (the 100-TB scan path): each
    row stores ``pq_code`` — ``pq_m`` uint8 residual codes (Jegou et al.
    IVF-PQ, stages/knn.py:train_pq_codebook / _IvfPqEncode semantics) —
    ALONGSIDE the raw vector. Parquet is columnar, so the candidate scan
    in query_ivf_store reads only (id, pq_code) — m bytes/vector instead
    of d*4 — and the exact re-rank reads the embedding column of probed
    cells with an id-set row filter (cells are id-sorted, so row-group
    stats prune). Codebooks train driver-side on the bounded sample."""
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )
    from calendar_event_entity_extraction_ray.stages.knn import (
        _IvfAssign,
        codebook_sample,
        train_ivf_codebook,
        train_pq_codebook,
    )
    from calendar_event_entity_extraction_ray.stages.taskform import (
        run_stage,
    )

    os.makedirs(out_dir, exist_ok=True)
    sample = codebook_sample(ds, sample_size, vec_col)
    cents = train_ivf_codebook(sample, n_cells=n_cells, seed=seed)
    n_cells = len(cents)          # may clamp on tiny inputs
    cents_ref = ray.put(cents)

    pq_cb = None
    if pq_m is not None:
        # residual PQ codebook on the sample (normalize=False: residuals
        # must not be re-normalized — knn.py:_IvfPqEncode)
        sn = sample / np.clip(
            np.linalg.norm(sample, axis=1, keepdims=True), 1e-12, None)
        res = sn - cents[np.argmax(sn @ cents.T, axis=1)]
        pq_cb = train_pq_codebook(res, m=pq_m, n_codes=pq_codes,
                                  seed=seed, normalize=False)
    pq_ref = ray.put(pq_cb)

    assigned = ds.map_batches(
        run_stage,
        fn_kwargs={"_cls": _IvfAssign, "centroids": cents_ref,
                   "vec_col": vec_col},
        batch_format="pyarrow",
    )

    def write_cell(t: pa.Table) -> pa.Table:
        # partition id == cell id (hash col IS the cell, 0 <= cell < n):
        # one fold task per cell writes that cell's single file. Unique
        # names + atomic write: a retried attempt leaves an orphan the
        # manifest never lists.
        if t.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "rows": pa.array([], pa.int64()),
                             "file": pa.array([], pa.string())})
        cell = int(t.column("ivf_cell")[0].as_py())
        body = t.select([id_col, vec_col]).sort_by(id_col)
        cb = ray.get(pq_ref)
        if cb is not None:
            mat = np.asarray(
                [np.asarray(v) for v in body.column(vec_col).to_pylist()],
                dtype=np.float64)
            codes = _encode_pq_residual(
                mat, ray.get(cents_ref)[cell], cb)
            body = body.append_column(
                "pq_code", pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.ravel(), pa.uint8()), cb.shape[0]))
        rel = os.path.join(f"cell={cell}", f"{uuid.uuid4().hex}.parquet")
        write_parquet_atomic(body, os.path.join(out_dir, f"cell={cell}"),
                             os.path.basename(rel))
        return pa.table({"cell": pa.array([cell], pa.int64()),
                         "rows": pa.array([t.num_rows], pa.int64()),
                         "file": pa.array([rel], pa.string())})

    summary = hash_partition_map(
        assigned, "ivf_cell", write_cell,
        num_partitions=n_cells).to_pandas()
    manifest = {
        "kind": "ivf_vector_store",
        "n_cells": int(n_cells),
        "id_col": id_col,
        "vec_col": vec_col,
        "seed": int(seed),
        "centroids": [[float(x) for x in c] for c in cents],
        "cells": {str(int(r.cell)): {"rows": int(r.rows), "file": r.file}
                  for r in summary.itertuples()},
    }
    if pq_cb is not None:
        manifest["pq"] = {
            "m": int(pq_cb.shape[0]),
            "n_codes": int(pq_cb.shape[1]),
            "codebook": [[[float(x) for x in c] for c in sub]
                         for sub in pq_cb],
        }
    STATE.save(out_dir, manifest)
    return manifest


def probed_cells(manifest: dict, queries: np.ndarray,
                 n_probe: int) -> List[np.ndarray]:
    """Per-query probed cell ids (centroid dot-product ranking)."""
    cents = np.asarray(manifest["centroids"], dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.clip(np.linalg.norm(q, axis=1, keepdims=True), 1e-12, None)
    order = np.argsort(-(qn @ cents.T), axis=1)
    return [row[:n_probe].astype(np.int64) for row in order]


def _delta_shadow(out_dir: str, manifest: dict):
    """Global last-epoch-wins shadow map over every delta file: returns
    (epoch_ord, (sorted_ids, newest_ordinal)) where an id's newest
    ordinal is the index of the latest epoch that re-ingested it. Reads
    ONLY delta id columns; empty arrays when the store has no deltas."""
    id_col = manifest["id_col"]
    epochs = manifest.get("epochs", [])
    epoch_ord = {e: i for i, e in enumerate(epochs)}
    d_ids, d_ord = [], []
    for e in manifest["cells"].values():
        for d in e.get("deltas", []):
            arr = pq.read_table(
                os.path.join(out_dir, d["file"]),
                columns=[id_col]).column(id_col).to_numpy(
                    zero_copy_only=False)
            d_ids.append(arr)
            d_ord.append(np.full(len(arr), epoch_ord[d["epoch"]],
                                 np.int64))
    if not d_ids:
        return epoch_ord, (np.empty(0, np.int64), np.empty(0, np.int64))
    all_ids = np.concatenate(d_ids)
    all_ord = np.concatenate(d_ord)
    order = np.lexsort((all_ord, all_ids))
    ids_s, ord_s = all_ids[order], all_ord[order]
    last = np.ones(len(ids_s), bool)
    last[:-1] = ids_s[:-1] != ids_s[1:]
    return epoch_ord, (ids_s[last], ord_s[last])


def _manifest_as_of(manifest: dict, as_of: Optional[str]) -> dict:
    """Time-travel view of the store manifest (the vecstore analog of
    state/manifest.py:read_output(as_of=...)): prune every cell's delta
    list to epochs at or before ``as_of`` (``"base"`` = the pre-append
    build) and truncate the epoch history to match, so the shadow map
    and the file scan both see exactly that epoch's world. Raises on an
    unknown epoch or on a view behind a compacted epoch (compaction
    folds delta rows into cell bases — irreversible by design)."""
    if as_of is None:
        return manifest
    epochs = manifest.get("epochs", [])
    if as_of == "base":
        keep = []
    elif as_of in epochs:
        keep = epochs[:epochs.index(as_of) + 1]
    else:
        raise ValueError(f"unknown epoch {as_of!r}; "
                         f"manifest has {epochs!r}")
    later = set(epochs) - set(keep)
    view = dict(manifest)
    view["epochs"] = keep
    cells = {}
    for c, e in manifest["cells"].items():
        folded = later & set(e.get("compacted_epochs", []))
        if folded:
            raise ValueError(
                f"epoch(s) {sorted(folded)} were compacted into cell "
                f"{c}'s base — as_of={as_of!r} is unreadable")
        e2 = dict(e)
        e2["deltas"] = [d for d in e.get("deltas", [])
                        if d["epoch"] in keep]
        cells[c] = e2
    view["cells"] = cells
    return view


def query_ivf_store(
    out_dir: str,
    queries: np.ndarray,
    k: int = 10,
    n_probe: int = 4,
    rerank: int = 4,
    use_pq: bool = True,
    as_of: Optional[str] = None,
) -> pa.Table:
    """Top-k per query reading ONLY probed cells. Output
    (query_id, rank, id, score_e6) — scores floor-scaled like the knn
    family. Returns include the files-read count in Python attribute
    form via ``query_ivf_store.last_files_read`` for prune assertions.

    On a PQ-coded store (build_ivf_store(pq_m=...)) and ``use_pq=True``
    the scan reads only (id, pq_code) — m bytes/vector — shortlists
    ``rerank * k`` candidates per query by the asymmetric-distance
    approximation, then re-ranks the shortlist EXACTLY from the raw
    embedding column (id-filtered read; cells are id-sorted so row
    groups prune). Scores in the output are exact; results match the
    uncompressed store whenever the true top-k survives the shortlist
    (measured in tests; raise ``rerank`` to trade IO for recall).

    ``as_of`` time-travels over the LSM append history: pass an epoch
    name for top-k as of that epoch (later deltas are not read and
    their shadowing does not apply), or ``"base"`` for the pre-append
    build; raises behind a compacted epoch (see ``_manifest_as_of``)."""
    manifest = _manifest_as_of(STATE.load(out_dir), as_of)
    if use_pq and manifest.get("pq"):
        return _query_pq_store(out_dir, manifest, queries, k, n_probe,
                               rerank)
    id_col, vec_col = manifest["id_col"], manifest["vec_col"]
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.clip(np.linalg.norm(q, axis=1, keepdims=True), 1e-12, None)
    probes = probed_cells(manifest, q, n_probe)
    cell_to_queries: dict = {}
    for qi, cells in enumerate(probes):
        for c in cells:
            cell_to_queries.setdefault(int(c), []).append(qi)
    files = []
    for c in sorted(cell_to_queries):
        e = manifest["cells"].get(str(c))
        if not e:
            continue
        if e.get("file"):
            files.append(os.path.join(out_dir, e["file"]))
        for d in e.get("deltas", []):   # LSM side files (append_ivf_store)
            files.append(os.path.join(out_dir, d["file"]))
    query_ivf_store.last_files_read = len(files)
    query_ivf_store.total_cells = len(manifest["cells"])
    if not files:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "score_e6": pa.array([], pa.int64())})

    # Last-epoch-wins on duplicate ids: a re-ingested id's older versions
    # (base row, or an earlier delta's row) are SHADOWED — even across
    # cells (an updated vector may land in a different cell). The shadow
    # map is GLOBAL: read ONLY the id column of every delta file (cheap
    # columnar read; deltas are LSM-small by contract) into one
    # (sorted ids, newest-epoch-ordinal) pair; the scoring partial drops
    # any row whose id has a newer version than the row's own file.
    # Zero overhead for compacted / never-appended stores (no deltas).
    epoch_ord, shadow = _delta_shadow(out_dir, manifest)

    qn_ref = ray.put(qn)
    c2q_ref = ray.put({c: np.asarray(v, dtype=np.int64)
                       for c, v in cell_to_queries.items()})
    shadow_ref = ray.put((epoch_ord, shadow))

    # cell id travels via the file path — recover it per batch
    ds = ray.data.read_parquet(files, include_paths=True)

    def partial(b: pa.Table, _k=k) -> pa.Table:
        import re as _re

        import pyarrow.compute as pc

        empty = pa.table({"query_id": pa.array([], pa.int64()),
                          "rank": pa.array([], pa.int64()),
                          id_col: pa.array([], pa.int64()),
                          "score_e6": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return empty
        _qn = ray.get(qn_ref)
        _c2q = ray.get(c2q_ref)
        _eord, _shadow = ray.get(shadow_ref)
        outs = [empty]
        # a batch may span multiple coalesced files — split per path
        for path in pc.unique(b.column("path")).to_pylist():
            sub = b.filter(pc.equal(b.column("path"), path))
            cell = int(_re.search(r"cell=(\d+)", path).group(1))
            qids = _c2q.get(cell)
            if qids is None or sub.num_rows == 0:
                continue
            s_ids, s_ord = _shadow
            if len(s_ids):
                m = _re.search(r"delta-([^/]+)\.parquet$", path)
                file_ord = _eord.get(m.group(1), -1) if m else -1
                row_ids = sub.column(id_col).to_numpy(
                    zero_copy_only=False)
                pos = np.clip(np.searchsorted(s_ids, row_ids),
                              0, len(s_ids) - 1)
                stale = (s_ids[pos] == row_ids) & (s_ord[pos] > file_ord)
                if stale.any():
                    sub = sub.filter(pa.array(~stale))
                if sub.num_rows == 0:
                    continue
            mat = np.asarray(
                [np.asarray(v) for v in sub.column(vec_col).to_pylist()],
                dtype=np.float64)
            mat = mat / np.clip(
                np.linalg.norm(mat, axis=1, keepdims=True), 1e-12, None)
            ids = sub.column(id_col).to_numpy()
            scores = mat @ _qn[qids].T      # rows x queries
            top = min(_k, len(ids))
            out_q, out_i, out_s = [], [], []
            for j, qi in enumerate(qids):
                # cut on the FINAL total order (score_e6 desc, id asc) so
                # the two-stage selection equals one global sort — ties
                # at the cut are mirror-reproducible
                s_e6 = np.floor(scores[:, j] * 1e6 + 0.5).astype(np.int64)
                sel = np.lexsort((ids, -s_e6))[:top]
                out_q.append(np.full(top, qi, np.int64))
                out_i.append(ids[sel])
                out_s.append(s_e6[sel])
            outs.append(pa.table({
                "query_id": pa.array(np.concatenate(out_q)),
                "rank": pa.array(np.zeros(top * len(qids), np.int64)),
                id_col: pa.array(np.concatenate(out_i)),
                "score_e6": pa.array(np.concatenate(out_s))}))
        return pa.concat_tables(outs)

    import pandas as pd

    parts = ds.map_batches(partial, batch_size=None,
                           batch_format="pyarrow").to_pandas()
    if parts.empty:
        return pa.table({"query_id": pa.array([], pa.int64()),
                         "rank": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "score_e6": pa.array([], pa.int64())})
    out = []
    for qi, grp in parts.groupby("query_id", sort=True):
        g = grp.sort_values(["score_e6", id_col],
                            ascending=[False, True]).head(k)
        g = g.reset_index(drop=True)
        g["rank"] = np.arange(1, len(g) + 1, dtype=np.int64)
        out.append(g)
    res = pd.concat(out, ignore_index=True)
    return pa.Table.from_pandas(
        res[["query_id", "rank", id_col, "score_e6"]],
        preserve_index=False)


def _query_pq_store(out_dir: str, manifest: dict, queries: np.ndarray,
                    k: int, n_probe: int, rerank: int) -> pa.Table:
    """PQ candidate scan + exact re-rank (see query_ivf_store).

    Stage 1 streams (id, pq_code) of the probed cells' files — the
    32x-smaller columns — scoring each row by ADC: one (m, n_codes)
    lookup table per (query, cell) pair, one gather-sum per batch;
    per-batch partial top-R cut on (approx_e6 desc, id asc). Stage 2
    reads ONLY the shortlisted ids' raw vectors (is_in row filter;
    row-group stats prune on the id-sorted cells) and finishes with the
    exact cosine top-k. Shadow masking (delta last-epoch-wins) applies
    in BOTH stages, same as the raw path."""
    import re as _re

    import pyarrow.compute as _pc
    import pyarrow.dataset as _pds

    id_col, vec_col = manifest["id_col"], manifest["vec_col"]
    cb = np.asarray(manifest["pq"]["codebook"], dtype=np.float64)
    m, n_codes, sub_d = cb.shape
    cents = np.asarray(manifest["centroids"], dtype=np.float64)
    q = np.asarray(queries, dtype=np.float64)
    qn = q / np.clip(np.linalg.norm(q, axis=1, keepdims=True), 1e-12, None)
    probes = probed_cells(manifest, q, n_probe)
    cell_to_queries: dict = {}
    for qi, cells in enumerate(probes):
        for c in cells:
            cell_to_queries.setdefault(int(c), []).append(qi)
    files = []
    for c in sorted(cell_to_queries):
        e = manifest["cells"].get(str(c))
        if not e:
            continue
        if e.get("file"):
            files.append(os.path.join(out_dir, e["file"]))
        for d in e.get("deltas", []):
            files.append(os.path.join(out_dir, d["file"]))
    query_ivf_store.last_files_read = len(files)
    query_ivf_store.total_cells = len(manifest["cells"])
    empty = pa.table({"query_id": pa.array([], pa.int64()),
                      "rank": pa.array([], pa.int64()),
                      id_col: pa.array([], pa.int64()),
                      "score_e6": pa.array([], pa.int64())})
    if not files:
        return empty

    epoch_ord, shadow = _delta_shadow(out_dir, manifest)
    R = max(int(rerank) * k, k)
    # per-(query, cell) ADC tables, driver-built: n_queries * n_probe
    # LUTs of m*n_codes floats — kilobytes; ship once
    luts: dict = {}
    for c, qids in cell_to_queries.items():
        for qi in qids:
            qsub = qn[qi].reshape(m, sub_d)
            luts[(qi, c)] = (float(qn[qi] @ cents[c]),
                             np.einsum("jd,jcd->jc", qsub, cb))
    lut_ref = ray.put(luts)
    c2q_ref = ray.put({c: np.asarray(v, dtype=np.int64)
                       for c, v in cell_to_queries.items()})
    shadow_ref = ray.put((epoch_ord, shadow))

    ds = ray.data.read_parquet(files, columns=[id_col, "pq_code"],
                               include_paths=True)

    def partial(b: pa.Table, _R=R) -> pa.Table:
        out0 = pa.table({"query_id": pa.array([], pa.int64()),
                         id_col: pa.array([], pa.int64()),
                         "approx_e6": pa.array([], pa.int64())})
        if b.num_rows == 0:
            return out0
        _luts = ray.get(lut_ref)
        _c2q = ray.get(c2q_ref)
        _eord, (_sids, _sord) = ray.get(shadow_ref)
        outs = [out0]
        for path in _pc.unique(b.column("path")).to_pylist():
            sub = b.filter(_pc.equal(b.column("path"), path))
            cell = int(_re.search(r"cell=(\d+)", path).group(1))
            qids = _c2q.get(cell)
            if qids is None or sub.num_rows == 0:
                continue
            ids = sub.column(id_col).to_numpy(zero_copy_only=False)
            if len(_sids):
                mm = _re.search(r"delta-([^/]+)\.parquet$", path)
                file_ord = _eord.get(mm.group(1), -1) if mm else -1
                pos = np.clip(np.searchsorted(_sids, ids),
                              0, len(_sids) - 1)
                stale = (_sids[pos] == ids) & (_sord[pos] > file_ord)
                if stale.any():
                    sub = sub.filter(pa.array(~stale))
                    ids = ids[~stale]
                if sub.num_rows == 0:
                    continue
            codes = np.asarray(
                sub.column("pq_code").combine_chunks().values
            ).reshape(-1, m).astype(np.int64)
            gather = np.arange(m)
            top = min(_R, len(ids))
            for qi in qids:
                base, lut = _luts[(int(qi), cell)]
                approx = base + lut[gather[:, None], codes.T].sum(axis=0)
                a_e6 = np.floor(approx * 1e6 + 0.5).astype(np.int64)
                sel = np.lexsort((ids, -a_e6))[:top]
                outs.append(pa.table({
                    "query_id": pa.array(
                        np.full(top, qi, np.int64)),
                    id_col: pa.array(ids[sel].astype(np.int64)),
                    "approx_e6": pa.array(a_e6[sel])}))
        return pa.concat_tables(outs)

    import pandas as pd

    cand = ds.map_batches(partial, batch_size=None,
                          batch_format="pyarrow").to_pandas()
    if cand.empty:
        return empty
    short: dict = {}
    for qi, grp in cand.groupby("query_id", sort=True):
        g = grp.sort_values(["approx_e6", id_col],
                            ascending=[False, True]).head(R)
        short[int(qi)] = set(int(i) for i in g[id_col])
    union_ids = sorted(set().union(*short.values()))

    # stage 2: exact re-rank — raw vectors of ONLY the shortlisted ids
    flt = _pds.field(id_col).isin(union_ids)
    rr = ray.data.read_parquet(files, columns=[id_col, vec_col],
                               include_paths=True, filter=flt)
    rows = rr.take_all()
    # shadow again (a shortlisted id may also sit stale in another file)
    best: dict = {}
    _, (s_ids, s_ord) = epoch_ord, shadow
    for r in rows:
        rid = int(r[id_col])
        mm = _re.search(r"delta-([^/]+)\.parquet$", r["path"])
        file_ord = epoch_ord.get(mm.group(1), -1) if mm else -1
        if len(s_ids):
            pos = min(np.searchsorted(s_ids, rid), len(s_ids) - 1)
            if s_ids[pos] == rid and s_ord[pos] > file_ord:
                continue
        prev = best.get(rid)
        if prev is None or file_ord >= prev[0]:
            best[rid] = (file_ord, np.asarray(r[vec_col],
                                              dtype=np.float64))
    out_parts = []
    for qi in sorted(short):
        ids = np.array([i for i in sorted(short[qi]) if i in best],
                       dtype=np.int64)
        if not len(ids):
            continue
        mat = np.stack([best[int(i)][1] for i in ids])
        mat = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True),
                            1e-12, None)
        s_e6 = np.floor(mat @ qn[qi] * 1e6 + 0.5).astype(np.int64)
        sel = np.lexsort((ids, -s_e6))[:k]
        out_parts.append(pd.DataFrame({
            "query_id": np.full(len(sel), qi, np.int64),
            "rank": np.arange(1, len(sel) + 1, dtype=np.int64),
            id_col: ids[sel],
            "score_e6": s_e6[sel]}))
    if not out_parts:
        return empty
    res = pd.concat(out_parts, ignore_index=True)
    return pa.Table.from_pandas(
        res[["query_id", "rank", id_col, "score_e6"]],
        preserve_index=False)


def append_ivf_store(
    ds: "ray.data.Dataset",
    out_dir: str,
    epoch: str,
    _crash_sentinel: "str | None" = None,
) -> dict:
    """LSM append: assign new vectors with the STORED codebook (the index
    geometry never changes — the delta-ingest analog of the graph
    store's mode="delta") and write ``cell=K/delta-{epoch}.parquet``
    side files; base files are never opened. Re-running an epoch already
    in the manifest is a no-op. ``compact_ivf_store`` folds deltas back.
    Readers (query_ivf_store) scan base + deltas of each probed cell.

    Duplicate ids across epochs are LAST-EPOCH-WINS: re-ingesting an
    existing id shadows its older versions — query_ivf_store masks them
    via a delta-id pre-pass and compact_ivf_store drops them in the fold
    (keep=last in base-then-epoch order), so top-k never returns the same
    id twice and compaction never keeps a stale row."""
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )
    from calendar_event_entity_extraction_ray.stages.knn import _IvfAssign
    from calendar_event_entity_extraction_ray.stages.taskform import (
        run_stage,
    )

    check_epoch_name(epoch)
    manifest = STATE.load(out_dir)
    if epoch in manifest.get("epochs", []):
        return manifest
    id_col, vec_col = manifest["id_col"], manifest["vec_col"]
    cents = np.asarray(manifest["centroids"], dtype=np.float64)
    cents_ref = ray.put(cents)
    n_cells = int(manifest["n_cells"])
    # PQ-coded store: deltas carry codes too (stored codebook — the
    # index geometry, coarse AND fine, never changes on append)
    pq_ref = ray.put(
        np.asarray(manifest["pq"]["codebook"], dtype=np.float64)
        if manifest.get("pq") else None)
    # deltas store vectors as the base does: compaction concatenates
    # them, and e.g. embstore survivors arrive as list<double> against
    # a list<float> base
    vec_type = next(
        (pq.read_schema(os.path.join(out_dir, e["file"])).field(
            vec_col).type
         for e in manifest["cells"].values() if e.get("file")), None)

    assigned = ds.map_batches(
        run_stage,
        fn_kwargs={"_cls": _IvfAssign, "centroids": cents_ref,
                   "vec_col": vec_col},
        batch_format="pyarrow",
    )

    def write_delta(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"cell": pa.array([], pa.int64()),
                             "rows": pa.array([], pa.int64()),
                             "file": pa.array([], pa.string())})
        cell = int(t.column("ivf_cell")[0].as_py())
        body = t.select([id_col, vec_col]).sort_by(id_col)
        if vec_type is not None:
            body = body.set_column(1, vec_col,
                                   body.column(vec_col).cast(vec_type))
        cb = ray.get(pq_ref)
        if cb is not None:
            mat = np.asarray(
                [np.asarray(v) for v in body.column(vec_col).to_pylist()],
                dtype=np.float64)
            codes = _encode_pq_residual(
                mat, ray.get(cents_ref)[cell], cb)
            body = body.append_column(
                "pq_code", pa.FixedSizeListArray.from_arrays(
                    pa.array(codes.ravel(), pa.uint8()), cb.shape[0]))
        final = write_parquet_atomic(
            body, os.path.join(out_dir, f"cell={cell}"),
            f"delta-{epoch}.parquet")
        # worker-loss window: delta file durable, fold not returned —
        # the retry rewrites the SAME deterministic name atomically;
        # the manifest (written by the driver after all folds) lists
        # the epoch exactly once
        from calendar_event_entity_extraction_ray.stages.exchange import (
            claim_crash_sentinel,
        )

        claim_crash_sentinel(_crash_sentinel)
        rel = os.path.join(f"cell={cell}", os.path.basename(final))
        return pa.table({"cell": pa.array([cell], pa.int64()),
                         "rows": pa.array([t.num_rows], pa.int64()),
                         "file": pa.array([rel], pa.string())})

    summary = hash_partition_map(
        assigned, "ivf_cell", write_delta,
        num_partitions=n_cells).to_pandas()
    for r in summary.itertuples():
        entry = manifest["cells"].setdefault(
            str(int(r.cell)), {"rows": 0, "file": None})
        entry.setdefault("deltas", []).append(
            {"epoch": epoch, "rows": int(r.rows), "file": r.file})
    manifest.setdefault("epochs", []).append(epoch)
    STATE.save(out_dir, manifest)
    return manifest


def compact_ivf_store(out_dir: str) -> dict:
    """Fold every cell's delta side files into its base file (one ray
    task per touched cell — concat, sort by id, atomic replace), then
    record the folded epochs in the manifest. Idempotent; crash before
    the manifest write just re-folds."""
    manifest = STATE.load(out_dir)
    id_col = manifest["id_col"]
    # global last-epoch-wins shadow (see _delta_shadow): folds drop any
    # row superseded by a NEWER epoch's version of the same id — even
    # when the new version landed in a different cell
    epoch_ord, (s_ids, s_ord) = _delta_shadow(out_dir, manifest)
    shadow_ref = ray.put((s_ids, s_ord))

    @ray.remote(num_cpus=1)
    def fold(cell: int, base_rel, delta_rels, delta_ords, shadow):
        import pandas as pd

        g_ids, g_ord = shadow
        parts = ([(base_rel, -1)] if base_rel else [])
        parts += list(zip(delta_rels, delta_ords))
        tabs, ords = [], []
        for rel, o in parts:
            p = os.path.join(out_dir, rel)
            if not os.path.exists(p):
                continue
            tt = pq.read_table(p)
            tabs.append(tt)
            ords.append(np.full(tt.num_rows, o, np.int64))
        t = pa.concat_tables(tabs)
        row_ids = t.column(id_col).to_numpy(zero_copy_only=False)
        if len(g_ids) and len(row_ids):
            row_ord = np.concatenate(ords)
            pos = np.clip(np.searchsorted(g_ids, row_ids),
                          0, len(g_ids) - 1)
            stale = (g_ids[pos] == row_ids) & (g_ord[pos] > row_ord)
            if stale.any():
                t = t.filter(pa.array(~stale))
                row_ids = row_ids[~stale]
        # same-epoch dupes within one delta: keep the last occurrence
        dup = pd.Series(row_ids).duplicated(keep="last").to_numpy()
        if dup.any():
            t = t.filter(pa.array(~dup))
        t = t.sort_by(id_col)
        write_parquet_atomic(t, os.path.join(out_dir, f"cell={cell}"),
                             "data.parquet")
        # delta side files are NOT deleted here: the manifest write is
        # the commit point, and until it lands the manifest still lists
        # them — readers in the crash window scan folded-base + deltas,
        # which stays correct because the delta-shadow masks the base
        # copies of every delta id (same rows, counted once). The driver
        # deletes them AFTER the commit (the versioned-open-table rule:
        # superseded files outlive the commit, never precede it).
        return cell, t.num_rows, os.path.join(f"cell={cell}",
                                              "data.parquet")

    refs = []
    for c, e in manifest["cells"].items():
        deltas = e.get("deltas", [])
        if deltas:
            refs.append(fold.remote(
                int(c), e.get("file"), [d["file"] for d in deltas],
                [epoch_ord[d["epoch"]] for d in deltas], shadow_ref))
        elif len(s_ids) and e.get("file"):
            # delta-free cell whose base may hold ids re-ingested into
            # OTHER cells: rewrite only when the id column intersects the
            # shadow set (columnar id read, no vector decode)
            base_ids = pq.read_table(
                os.path.join(out_dir, e["file"]),
                columns=[id_col]).column(id_col).to_numpy(
                    zero_copy_only=False)
            if len(base_ids):
                pos = np.clip(np.searchsorted(s_ids, base_ids),
                              0, len(s_ids) - 1)
                if (s_ids[pos] == base_ids).any():
                    refs.append(fold.remote(int(c), e.get("file"),
                                            [], [], shadow_ref))
    superseded = []
    for cell, rows, rel in ray.get(refs):
        e = manifest["cells"][str(cell)]
        popped = e.pop("deltas", [])
        folded = [d["epoch"] for d in popped]
        superseded += [d["file"] for d in popped]
        e["rows"] = int(rows)
        e["file"] = rel
        e["compacted_epochs"] = sorted(
            set(e.get("compacted_epochs", []) + folded))
    STATE.save(out_dir, manifest)
    # commit landed — only now are the delta side files unreferenced
    remove_files_and_prune_dirs(out_dir, superseded)
    return manifest
