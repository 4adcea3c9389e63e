"""Persistent content-fingerprint store: INCREMENTAL crawl dedup.

The corpus-side twin of the graph's delta ingest (pipelines/kg.py
append_graph): a daily-crawl pipeline must drop documents already seen
in PRIOR epochs without ever re-reading prior text. The store holds one
128-bit content fingerprint per surviving doc — two independent
64-bit siphashes (different fixed keys): h1 is the shuffle/search key,
h2 the verifier, so membership is identity-grade (the house 128-bit
identity rule) while everything routes/searches on plain int64.

The store is PRESHARDED by h1: every epoch's fingerprints are written
through the same ``h1 % P`` exchange the filter uses, one directory per
partition —

    store_dir/epoch=<e>/part=<k>/fp-<uuid>.parquet   (h1, h2 int64)
    store_dir/epoch=<e>/part=<k>/fp-<uuid>.bloom     (h1 Bloom sidecar)
    store_dir/_FPMANIFEST.json   {"format_version", "num_partitions": P,
                                  "epochs": {e: {"rows": N,
                                                 "parts": {k: {files,
                                                               blooms,
                                                               rows}}}},
                                  after compaction: "compaction_gen",
                                  "compacted_epochs"}

No params are pinned (the first epoch records P); a dir without
``format_version`` is rejected (state/manifest.py).

Writes are attempt-commit (the exchange-spill pattern): tasks RETURN the
file names they wrote, the driver records them; readers open only listed
files, so task retries can never corrupt the store. Re-running a
recorded epoch recomputes the same survivors (the filter always excludes
the CURRENT epoch) and skips the append — idempotent, crash recovery is
"just re-run".

Membership test regimes (decontamination's two-regime pattern):
  - broadcast: the store loads driver-side ONCE into h1-sorted numpy
    arrays (plasma zero-copy via ray.put — never a dict), every batch
    does two searchsorted + a verify. Right while the store fits the
    driver (~16 B/doc).
  - exchange (storage-partitioned semi-join): ONLY the new epoch
    exchanges on ``h1 % P``; each fold derives its partition id from its
    rows and reads that partition's store files straight from (shared)
    storage — store fingerprints NEVER shuffle, untouched partitions
    are never even read, so epoch cost is O(delta + touched-partition
    IO) regardless of corpus size. ``store_dir`` must be shared storage
    on a multi-node cluster (the spill_root contract).
"""

from __future__ import annotations

import os
import uuid
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from calendar_event_entity_extraction_ray.stages.storegc import (
    base_epoch,
    commit_compaction,
    prune_orphans,
)
from calendar_event_entity_extraction_ray.state.manifest import (
    StateFile,
    write_json,
    write_parquet_atomic,
)

_MANIFEST = "_FPMANIFEST.json"
STATE = StateFile(_MANIFEST, {"num_partitions": None, "epochs": {}})
_KEY2 = "fpstore-h2-salt0"  # exactly 16 bytes: independent siphash key

# Per-file Bloom sidecars (round-4 verdict item 4): every fingerprint
# file carries a small `<name>.bloom` bitset over its h1 values, and the
# exchange-regime fold tests its delta rows against each sidecar BEFORE
# opening the parquet — a file none of the delta's rows can hit is
# skipped entirely, so at low dup rates an epoch touches bloom bytes
# (~5 B/row) instead of fingerprint bytes (16 B/row), and whole
# partitions skip when every file skips. Sizing rule: a file of n rows
# probed by d delta rows skips with probability (1-fpr)^d, so the
# sidecar only pays off while d * fpr << 1 — i.e. SMALL epochs against
# a BIG base (the daily-crawl shape this store exists for). 40 bits/row
# at k=4 gives fpr ~8e-5 -> ~97% skip at d=300. Membership stays exact:
# the bloom is a prefilter (no false negatives by construction); every
# possible hit still runs the exact (h1, h2) member_mask.
BLOOM_BITS_PER_ROW = 40
BLOOM_K = 4
_BLOOM_MIN_BITS = 1024


def _build_bloom(h1: np.ndarray) -> bytes:
    from calendar_event_entity_extraction_ray.functions.bloom import (
        BloomFilter,
    )

    n_bits = max(_BLOOM_MIN_BITS,
                 (len(h1) * BLOOM_BITS_PER_ROW + 63) // 64 * 64)
    return BloomFilter(n_bits=n_bits, k=BLOOM_K).add_hashes(
        h1.astype(np.uint64)).serialize()


def _write_fp_file(pdir: str, h1: np.ndarray,
                   h2: np.ndarray) -> Tuple[str, str]:
    """One (h1, h2) fingerprint file and its Bloom sidecar under
    ``pdir``; returns both names."""
    name = f"fp-{uuid.uuid4().hex}.parquet"
    write_parquet_atomic(pa.table({"h1": pa.array(h1, pa.int64()),
                                   "h2": pa.array(h2, pa.int64())}),
                         pdir, name)
    bname = name[:-len(".parquet")] + ".bloom"
    with open(os.path.join(pdir, bname), "wb") as f:
        f.write(_build_bloom(h1))
    return name, bname


def _bloom_any_hit(bloom_path: str, h1: np.ndarray) -> bool:
    from calendar_event_entity_extraction_ray.functions.bloom import (
        BloomFilter,
    )

    with open(bloom_path, "rb") as f:
        bf = BloomFilter.deserialize(f.read(), k=BLOOM_K)
    return bool(bf.contains_hashes(h1.astype(np.uint64)).any())


def content_hashes(texts) -> Tuple[np.ndarray, np.ndarray]:
    """(h1, h2) int64 pairs per text — two fixed-key siphash streams
    (pd.util.hash_pandas_object with distinct hash_key), process-stable.
    None / non-string normalizes to '' (one shared fingerprint)."""
    s = pd.Series([t if isinstance(t, str) else "" for t in texts],
                  dtype=object)
    h1 = pd.util.hash_pandas_object(s, index=False).to_numpy()
    h2 = pd.util.hash_pandas_object(s, index=False,
                                    hash_key=_KEY2).to_numpy()
    return h1.view(np.int64), h2.view(np.int64)


def member_mask(h1: np.ndarray, h2: np.ndarray, sh1: np.ndarray,
                sh2: np.ndarray) -> np.ndarray:
    """True where (h1, h2) exists in the store slice (sh1 SORTED with sh2
    aligned). Vectorized: two searchsorted + single-hit verify; the rare
    multi-hit h1 buckets (true 64-bit collisions) fall back to a tiny
    exact scan."""
    out = np.zeros(len(h1), dtype=bool)
    if len(sh1) == 0:
        return out
    lo = np.searchsorted(sh1, h1, side="left")
    hi = np.searchsorted(sh1, h1, side="right")
    width = hi - lo
    one = width == 1
    out[one] = sh2[np.minimum(lo[one], len(sh2) - 1)] == h2[one]
    for i in np.nonzero(width > 1)[0]:
        out[i] = bool(np.any(sh2[lo[i]:hi[i]] == h2[i]))
    return out


def store_epochs(store_dir: str) -> List[str]:
    return sorted(STATE.load(store_dir)["epochs"])


def _part_files(
    store_dir: str, m: dict, exclude_epoch: Optional[str]
) -> "dict[int, List[Tuple[str, Optional[str]]]]":
    """{partition id: [(listed store file, its Bloom sidecar path or
    None)]} across prior epochs of the loaded manifest ``m`` — the
    (small, P-keyed) routing table the storage-partitioned folds use.
    None marks a file written before the sidecar existed (always read,
    never skipped)."""
    out: dict[int, List[Tuple[str, Optional[str]]]] = {}
    for e, ent in sorted(m["epochs"].items()):
        if e == exclude_epoch:
            continue
        for k, pent in sorted(ent["parts"].items()):
            blooms = pent.get("blooms", {})
            base = os.path.join(store_dir, f"epoch={e}", f"part={k}")
            out.setdefault(int(k), []).extend(
                (os.path.join(base, f),
                 os.path.join(base, blooms[f]) if f in blooms else None)
                for f in pent["files"])
    return out


def _rows(m: dict, exclude_epoch: Optional[str] = None) -> int:
    return sum(int(ent["rows"]) for e, ent in m["epochs"].items()
               if e != exclude_epoch)


def store_rows(store_dir: str, exclude_epoch: Optional[str] = None) -> int:
    return _rows(STATE.load(store_dir), exclude_epoch)


def _load_store_arrays(store_dir: str, m: dict, exclude_epoch: Optional[str]
                       ) -> Tuple[np.ndarray, np.ndarray]:
    files = [f for fs in _part_files(store_dir, m, exclude_epoch).values()
             for f, _ in fs]
    if not files:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy()
    t = pa.concat_tables(pq.read_table(f, columns=["h1", "h2"])
                         for f in files)
    h1 = t.column("h1").to_numpy(zero_copy_only=False)
    h2 = t.column("h2").to_numpy(zero_copy_only=False)
    o = np.argsort(h1, kind="stable")
    return np.ascontiguousarray(h1[o]), np.ascontiguousarray(h2[o])


def with_fingerprints(ds: "ray.data.Dataset",
                      text_col: str) -> "ray.data.Dataset":
    """Attach _h1/_h2 fingerprint columns (hash once, reuse for both the
    membership filter and the epoch append)."""
    def f(b: pa.Table) -> pa.Table:
        h1, h2 = content_hashes(b.column(text_col).to_pylist())
        return b.append_column("_h1", pa.array(h1, pa.int64())) \
                .append_column("_h2", pa.array(h2, pa.int64()))

    return ds.map_batches(f, batch_format="pyarrow")


_BROADCAST_MAX_ROWS = 5_000_000


def filter_against_store(
    fp_docs: "ray.data.Dataset",
    store_dir: str,
    exclude_epoch: Optional[str] = None,
    mode: str = "auto",
    broadcast_max_rows: int = _BROADCAST_MAX_ROWS,
    keep_members: bool = False,
    io_log_dir: Optional[str] = None,
) -> "ray.data.Dataset":
    """Drop rows whose (_h1, _h2) fingerprint exists in the store
    (prior epochs only). ``mode``: 'broadcast' | 'exchange' | 'auto'
    (manifest row count <= broadcast_max_rows -> broadcast). Both
    regimes run the same member_mask kernel — identical results.
    ``keep_members=True`` inverts the filter (returns ONLY the member
    rows — the near-dup store's hit stream).

    The exchange regime prefilters each store file through its Bloom
    sidecar (see BLOOM_BITS_PER_ROW): files no delta row can possibly
    hit are never opened. ``io_log_dir`` (diagnostics): folds append
    one json file each recording files/bytes read vs skipped — what
    ``scripts/scale.py fpstore`` sums to report the touched-IO drop."""
    return _filter_loaded(fp_docs, store_dir, STATE.load(store_dir),
                          exclude_epoch, mode, broadcast_max_rows,
                          keep_members, io_log_dir)


def _filter_loaded(fp_docs, store_dir, m, exclude_epoch, mode,
                   broadcast_max_rows, keep_members, io_log_dir):
    """filter_against_store against the already-loaded manifest ``m``."""
    n_store = _rows(m, exclude_epoch)
    if n_store == 0:
        return (fp_docs.limit(0) if keep_members else fp_docs)
    if mode == "auto":
        mode = ("broadcast" if n_store <= broadcast_max_rows
                else "exchange")

    if mode == "broadcast":
        sh1, sh2 = _load_store_arrays(store_dir, m, exclude_epoch)
        ref = ray.put((sh1, sh2))

        def drop(b: pa.Table) -> pa.Table:
            s1, s2 = ray.get(ref)  # zero-copy numpy views
            m = member_mask(
                b.column("_h1").to_numpy(zero_copy_only=False),
                b.column("_h2").to_numpy(zero_copy_only=False), s1, s2)
            return b.filter(pa.array(m if keep_members else ~m))

        return fp_docs.map_batches(drop, batch_format="pyarrow")

    # exchange regime = storage-partitioned semi-join: only the NEW epoch
    # shuffles (on h1 % P); each fold reads its partition's store files
    # from disk — store fingerprints never move, untouched partitions
    # are never read
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    p_total = int(m["num_partitions"])
    parts = _part_files(store_dir, m, exclude_epoch)
    if io_log_dir:
        os.makedirs(io_log_dir, exist_ok=True)

    def fold(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return t
        k = int(t.column("_h1")[0].as_py()) % p_total
        files = parts.get(k, [])
        if not files:
            return t.slice(0, 0) if keep_members else t
        d1 = t.column("_h1").to_numpy(zero_copy_only=False)
        # Bloom prefilter: open only files with a possible hit (exact
        # membership below is unchanged — the sidecar has no false
        # negatives, so a skipped file provably holds no member)
        read_files, skipped = [], []
        for fp_path, bloom_path in files:
            if (bloom_path is not None and os.path.exists(bloom_path)
                    and not _bloom_any_hit(bloom_path, d1)):
                skipped.append(fp_path)
            else:
                read_files.append(fp_path)
        if io_log_dir:
            rec = {"part": k,
                   "files_read": len(read_files),
                   "files_skipped": len(skipped),
                   "bytes_read": sum(os.path.getsize(f)
                                     for f in read_files),
                   "bytes_skipped": sum(os.path.getsize(f)
                                        for f in skipped)}
            write_json(io_log_dir, f"io-{uuid.uuid4().hex}.json", rec)
        if not read_files:
            return t.slice(0, 0) if keep_members else t
        st = pa.concat_tables(pq.read_table(f, columns=["h1", "h2"])
                              for f in read_files)
        s1 = st.column("h1").to_numpy(zero_copy_only=False)
        s2 = st.column("h2").to_numpy(zero_copy_only=False)
        o = np.argsort(s1, kind="stable")
        mask = member_mask(
            d1, t.column("_h2").to_numpy(zero_copy_only=False),
            np.ascontiguousarray(s1[o]), np.ascontiguousarray(s2[o]))
        return t.filter(pa.array(mask if keep_members else ~mask))

    return hash_partition_map(fp_docs, "_h1", fold,
                              num_partitions=p_total)


def append_epoch(
    fp_survivors: "ray.data.Dataset",
    store_dir: str,
    epoch: str,
    num_partitions: int = 64,
) -> dict:
    """Write this epoch's fingerprints PRESHARDED by ``h1 % P`` through
    the same exchange the filter routes on (attempt-commit: fold tasks
    return the file names, the driver records the manifest). P is fixed
    by the store's FIRST epoch; later appends reuse it. No-op if the
    epoch is already recorded. Returns the manifest entry."""
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    m = STATE.load(store_dir)
    if epoch in m["epochs"]:
        return m["epochs"][epoch]
    if epoch in m.get("compacted_epochs", []):
        # folded into a base epoch by compact_store: still recorded,
        # still a no-op (the re-run's filter already dropped everything)
        return {"parts": {}, "rows": 0}
    p_total = int(m["num_partitions"] or num_partitions)
    ed = os.path.join(store_dir, f"epoch={epoch}")

    def w(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table({"part": pa.array([], pa.int64()),
                             "file": pa.array([], pa.string()),
                             "bloom": pa.array([], pa.string()),
                             "rows": pa.array([], pa.int64())})
        k = int(t.column("_h1")[0].as_py()) % p_total
        name, bname = _write_fp_file(
            os.path.join(ed, f"part={k}"),
            t.column("_h1").to_numpy(zero_copy_only=False),
            t.column("_h2").to_numpy(zero_copy_only=False))
        return pa.table({"part": pa.array([k], pa.int64()),
                         "file": pa.array([name], pa.string()),
                         "bloom": pa.array([bname], pa.string()),
                         "rows": pa.array([t.num_rows], pa.int64())})

    res = hash_partition_map(
        fp_survivors.map_batches(
            lambda b: b.select(["_h1", "_h2"]), batch_format="pyarrow"),
        "_h1", w, num_partitions=p_total).to_pandas()
    if "file" not in res.columns:  # all-empty ds drops columns (CLAUDE.md)
        ent = {"parts": {}, "rows": 0}
    else:
        parts: dict = {}
        for r in res.itertuples():
            pent = parts.setdefault(str(int(r.part)),
                                    {"files": [], "blooms": {}, "rows": 0})
            pent["files"].append(r.file)
            pent["blooms"][r.file] = r.bloom
            pent["rows"] += int(r.rows)
        for pent in parts.values():
            pent["files"].sort()
        ent = {"parts": parts, "rows": int(res["rows"].sum())}
    m["num_partitions"] = p_total
    m["epochs"][epoch] = ent
    STATE.save(store_dir, m)  # the commit point
    prune_orphans(store_dir, f"epoch={epoch}", _listed_rels(epoch, ent))
    return ent


def _listed_rels(epoch: str, ent: dict) -> set:
    """The fingerprint files and Bloom sidecars one epoch entry lists."""
    return {os.path.join(f"epoch={epoch}", f"part={k}", f)
            for k, pent in ent["parts"].items()
            for f in pent["files"] + list(pent.get("blooms", {}).values())}


def dedup_incremental(
    new_docs: "ray.data.Dataset",
    store_dir: str,
    epoch: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    mode: str = "auto",
    num_partitions: int = 64,
    io_log_dir: Optional[str] = None,
) -> "ray.data.Dataset":
    """The incremental-crawl exact dedup: first-wins WITHIN the epoch
    (stages/dedup.py exact_dedup on the text key), then drop everything
    already fingerprinted by a PRIOR epoch, then record this epoch's
    surviving fingerprints. Equivalent to re-cleaning the union corpus
    with epochs concatenated in order — pinned by tests — at O(epoch)
    cost instead of O(corpus). ``num_partitions`` applies only to the
    store's FIRST epoch (later appends reuse the recorded P)."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        exact_dedup,
    )

    # load (and so reject an older-format store) before the exchange
    m = STATE.load(store_dir)
    within = exact_dedup(new_docs, [text_col], id_col)
    fp = with_fingerprints(within, text_col)
    survivors = _filter_loaded(fp, store_dir, m, epoch, mode,
                               _BROADCAST_MAX_ROWS,
                               False, io_log_dir).materialize()
    append_epoch(survivors, store_dir, epoch,
                 num_partitions=num_partitions)
    return survivors.drop_columns(["_h1", "_h2"])


def compact_store(store_dir: str) -> dict:
    """Fold every partition's files ACROSS epochs into one distinct file
    per partition (the LSM compaction for the fingerprint store — many
    epochs accumulate many small files per partition; membership is
    identical before and after). One ray task per partition reads only
    its listed files, writes one file under the new base epoch, and the
    driver swaps the manifest ATOMICALLY after every task commits — a
    crash before the swap leaves the old manifest (and old files) fully
    authoritative.

    Compacted epoch NAMES are retained in ``compacted_epochs``:
    ``append_epoch`` stays a no-op for them, so re-running an old
    epoch's ingest cannot double-write — its filter now (correctly)
    reports nothing new. Compacting twice folds the base again:
    idempotent in content, one file per partition either way."""
    m = STATE.load(store_dir)
    if not m["epochs"]:
        return m
    parts = _part_files(store_dir, m, None)
    base = base_epoch(m)

    @ray.remote(num_cpus=1)
    def fold(k: int, files: List[Tuple[str, Optional[str]]]) -> tuple:
        t = pa.concat_tables(pq.read_table(f, columns=["h1", "h2"])
                             for f, _ in files)
        df = t.to_pandas().drop_duplicates()
        name, bname = _write_fp_file(
            os.path.join(store_dir, f"epoch={base}", f"part={k}"),
            df["h1"].to_numpy(), df["h2"].to_numpy())
        return k, name, bname, len(df)

    refs = [fold.remote(k, files) for k, files in sorted(parts.items())]
    new_parts: dict = {}
    total = 0
    for k, name, bname, rows in ray.get(refs):
        new_parts[str(k)] = {"files": [name], "blooms": {name: bname},
                             "rows": rows}
        total += rows
    entry = {"parts": new_parts, "rows": total}
    return commit_compaction(STATE, store_dir, m, entry,
                             _listed_rels(base, entry))


def with_band_fingerprints(
    docs: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_perm: int = 128,
    num_bands: int = 16,
) -> "ray.data.Dataset":
    """(id, _h1, _h2) MinHash BAND fingerprints — num_bands rows per doc
    (the same banding as minhash_lsh_dedup, fingerprinted through the
    store's dual siphash so the exact-store machinery applies
    unchanged)."""
    from calendar_event_entity_extraction_ray.functions.dedup import (
        MinHasher,
        word_shingles,
    )

    def f(b: pa.Table) -> pa.Table:
        mh = MinHasher(num_perm)
        ids, keys = [], []
        for i, t in zip(b.column(id_col).to_pylist(),
                        b.column(text_col).to_pylist()):
            sig = mh.signature(word_shingles(t or ""))
            for k in mh.band_keys(sig, num_bands):
                ids.append(i)
                keys.append(k)
        h1, h2 = content_hashes(keys)
        return pa.table({
            id_col: pa.array(ids, pa.int64()),
            "_h1": pa.array(h1, pa.int64()),
            "_h2": pa.array(h2, pa.int64()),
        })

    return docs.map_batches(f, batch_format="pyarrow")


def neardup_incremental(
    new_docs: "ray.data.Dataset",
    store_dir: str,
    epoch: str,
    id_col: str = "doc_id",
    text_col: str = "text",
    mode: str = "auto",
    num_perm: int = 128,
    num_bands: int = 16,
) -> "ray.data.Dataset":
    """Cross-epoch NEAR-dup drop without ever re-reading prior text: a
    new doc is dropped when ANY of its MinHash bands matches a prior
    epoch's band store (the LSH candidate rule applied as the decision —
    precision follows the banding s-curve; band keys are 128-bit
    fingerprints so spurious key collisions are negligible, unlike a
    64-bit single hash). Survivors' bands are recorded for the next
    epoch. Idempotent per epoch (filter excludes the current epoch;
    append no-ops on recorded epochs).

    USE A DEDICATED store_dir — band fingerprints and exact-content
    fingerprints must never share a store. Within-epoch near-dups are
    NOT handled here (run minhash_lsh/corpus_clean inside the epoch
    first); this operator only compares against PRIOR epochs."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )
    from calendar_event_entity_extraction_ray.stages.joins import anti_join

    docs = new_docs.materialize()  # consumed 2-3x below
    bands = with_band_fingerprints(docs, text_col, id_col,
                                   num_perm, num_bands)
    hits = filter_against_store(bands, store_dir, exclude_epoch=epoch,
                                mode=mode, keep_members=True)
    # distinct dropped ids stay a DATASET end to end (grouped_count on
    # the exchange -> anti join) — never a driver-side set, so the drop
    # stream can be the whole corpus without driver pressure
    drop = grouped_count(hits.select_columns([id_col]), id_col,
                         out_col="_n").map_batches(
        lambda b: b.select([id_col]), batch_format="pyarrow")
    survivors = anti_join(docs, drop, id_col,
                          list(docs.schema().names)).materialize()
    append_epoch(with_band_fingerprints(survivors, text_col, id_col,
                                        num_perm, num_bands),
                 store_dir, epoch)
    return survivors
