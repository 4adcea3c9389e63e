"""Dedup family: exact, near-dup, span, chunk and fingerprint-store dedup,
decontamination, entity resolution."""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from calendar_event_entity_extraction_ray.functions.bloom import _mix
from calendar_event_entity_extraction_ray.pipelines.corpus import corpus_clean
from calendar_event_entity_extraction_ray.stages.cdcdedup import cdc_dedup_docs
from calendar_event_entity_extraction_ray.stages.decontam import (
    contaminated_doc_ids,
)
from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup
from calendar_event_entity_extraction_ray.stages.fpstore import (
    dedup_incremental,
    filter_against_store,
    with_fingerprints,
)
from calendar_event_entity_extraction_ray.stages.hamming import (
    hamming_near_pairs,
)
from calendar_event_entity_extraction_ray.stages.pack import pack_first_fit
from calendar_event_entity_extraction_ray.stages.resolve import (
    resolve_surface_forms,
)
from calendar_event_entity_extraction_ray.stages.spandedup import (
    remove_repeated_spans,
)

from . import batch_sums, md5_rng


def _word(i: int) -> str:
    """Four lowercase letters, base-26 digits of ``i``: all-alphabetic so
    the quality filter keeps the text."""
    out = []
    for _ in range(4):
        out.append(chr(97 + i % 26))
        i //= 26
    return "".join(out)


VOCAB = [_word(i) for i in range(20_000)]
DOC_WORDS = 40


def splitmix(x: np.ndarray) -> np.ndarray:
    """splitmix64 of a uint64 array: a pure function of each id, so any
    batch can regenerate any row's hash."""
    return _mix(x, 0x9E3779B97F4A7C15)


def _docs(ids: np.ndarray, texts: list) -> pa.Table:
    return pa.table({"doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _words(tag: str) -> list:
    rng = md5_rng(tag)
    return [VOCAB[j] for j in rng.randint(0, len(VOCAB), DOC_WORDS)]


# -- dedup ---------------------------------------------------------------------

def _near_dup_docs(batch: pa.Table, n_base: int) -> pa.Table:
    """id < n_base: a base doc (deterministic 40-word sample from the 20k
    vocab: diverse, so LSH bands only collide for true near-dups).
    id >= n_base: a near-dup of base ``id % n_base`` with ONE word
    swapped (shingle Jaccard ~0.854 > the 0.75 threshold; dup-dup
    siblings sit at ~0.73, linked transitively via the base)."""
    ids = batch.column("id").to_numpy()
    texts = []
    for i in ids:
        words = _words(f"base-{int(i) if i < n_base else int(i) % n_base}")
        if i >= n_base:
            # swap one mid-position word, varying by dup index so repeated
            # dups of one base are near each other AND the base
            words[5 + (int(i) // n_base) % (DOC_WORDS - 10)] = f"swap{int(i)}"
        texts.append(" ".join(words))
    return _docs(ids, texts)


def dedup(ctx, *, docs=5_000_000, dup_rate=0.4) -> dict:
    """Near-dup dedup at planted scale through the exchange route.

    N diverse random-word documents with a planted near-dup rate (each
    dup = one base doc with one word swapped, word-shingle Jaccard
    ~0.854) run through the corpus_clean chain with ``broadcast_limit``
    forced to 0, so BOTH dup-rate-proportional paths take the exchange
    route: candidate texts ship through the band-hash exchange
    (hash_join) and the drop set applies via joins.anti_join; nothing on
    the driver grows with the dup rate. Verification is exact Jaccard, so
    false drops are impossible and a base always survives: survivors >=
    n_base, the excess being planted dups the 16x4 LSH banding missed
    (theoretical miss rate at J=0.854: (1-0.854^4)^16 ~= 5e-6); ok when
    recall >= 0.9999.
    """
    n_base = int(docs * (1.0 - dup_rate))
    ds = ray.data.range(docs, override_num_blocks=ctx.blocks).map_batches(
        _near_dup_docs, fn_kwargs={"n_base": n_base}, batch_format="pyarrow")
    t0 = time.time()
    n_out = corpus_clean(ds, keep_lang="", broadcast_limit=0,
                         minhash_threshold=0.75).count()
    wall = time.time() - t0
    n_dups = docs - n_base
    missed = int(n_out) - n_base
    recall = 1.0 - missed / n_dups if n_dups else 1.0
    return {"metric": "corpus_clean_exchange_route", "docs": docs,
            "dup_rate": dup_rate, "n_base": n_base, "survivors": int(n_out),
            "expected": n_base, "missed_dups": missed,
            "recall": round(recall, 6), "ok": missed >= 0 and recall >= 0.9999,
            "wall_sec": round(wall, 1), "docs_per_sec": round(docs / wall, 1)}


# -- decontam ------------------------------------------------------------------

GRAM_N = 8


def _eval_docs(batch: pa.Table) -> pa.Table:
    ids = batch.column("id").to_numpy()
    return _docs(ids, [" ".join(_words(f"eval-{int(i)}")) for i in ids])


def _train_docs(batch: pa.Table, n_contam: int, n_eval: int) -> pa.Table:
    """id < n_contam: embeds eval doc (id % n_eval)'s marker 8-gram (its
    words 10..17) at position 20; others are pure random word soup."""
    ids = batch.column("id").to_numpy()
    texts = []
    for i in ids:
        words = _words(f"train-{int(i)}")
        if i < n_contam:
            words[20:20 + GRAM_N] = \
                _words(f"eval-{int(i) % n_eval}")[10:10 + GRAM_N]
        texts.append(" ".join(words))
    return _docs(ids, texts)


def decontam(ctx, *, train=2_000_000, eval=20_000, contam_rate=0.05,
             skip_broadcast=False, skip_bloom=False) -> dict:
    """Decontamination + packing at planted scale.

    A train corpus of N random-word docs and an eval set of M docs; a
    planted fraction of train docs embeds an exact 8-gram copied from
    some eval doc (all other 8-gram collisions are combinatorially
    impossible against the 20k vocab). contaminated_doc_ids runs on the
    EXCHANGE regime (nothing driver-side grows with either corpus) and
    must flag exactly the planted set; so must the broadcast regime and
    the bloom regime (fixed 1 MiB bitset prefilter + exact exchange
    verify of candidates only) unless skipped. pack_first_fit over the
    train corpus is the packing throughput datapoint.
    """
    n_contam = int(train * contam_rate)
    tr = ray.data.range(train, override_num_blocks=ctx.blocks).map_batches(
        _train_docs, fn_kwargs={"n_contam": n_contam, "n_eval": eval},
        batch_format="pyarrow").materialize()
    ev = ray.data.range(eval, override_num_blocks=max(ctx.num_cpus, 4)) \
        .map_batches(_eval_docs, batch_format="pyarrow").materialize()
    result = {"metric": "decontam_scale", "train_docs": train,
              "eval_docs": eval, "planted": n_contam}

    t0 = time.time()
    n_flagged = contaminated_doc_ids(tr, ev, n=GRAM_N, mode="exchange").count()
    wall = time.time() - t0
    # exact-string semi join: flagged must be EXACTLY the planted ids
    ok = n_flagged == n_contam
    result.update(exchange_wall_sec=round(wall, 1),
                  exchange_docs_per_sec=round(train / wall, 1),
                  flagged=int(n_flagged))
    if not skip_broadcast:
        t0 = time.time()
        n_b = contaminated_doc_ids(tr, ev, n=GRAM_N, mode="broadcast").count()
        result.update(broadcast_wall_sec=round(time.time() - t0, 1),
                      broadcast_flagged=int(n_b))
        ok = ok and n_b == n_contam
    if not skip_bloom:
        t0 = time.time()
        n_bl = contaminated_doc_ids(tr, ev, n=GRAM_N, mode="bloom").count()
        result.update(bloom_wall_sec=round(time.time() - t0, 1),
                      bloom_docs_per_sec=round(train / (time.time() - t0), 1),
                      bloom_flagged=int(n_bl))
        ok = ok and n_bl == n_contam
    t0 = time.time()
    n_packed = pack_first_fit(tr, capacity=256, bucket_size=64).count()
    result.update(pack_wall_sec=round(time.time() - t0, 1),
                  pack_docs_per_sec=round(train / (time.time() - t0), 1),
                  packed_rows=int(n_packed), ok=bool(ok))
    return result


# -- spandedup -----------------------------------------------------------------

SPAN_N = 8
N_SPANS = 64  # distinct shared spans, each planted in many docs


def _span_docs(batch: pa.Table, n_plant: int) -> pa.Table:
    ids = batch.column("id").to_numpy()
    texts = []
    for i in ids:
        words = _words(f"doc-{int(i)}")
        if i < n_plant:
            # vocabulary-disjoint span
            words[16:16 + SPAN_N] = [f"sp{int(i) % N_SPANS}w{j}"
                                     for j in range(SPAN_N)]
            # doc-unique flanks: otherwise two docs sharing span k AND
            # the same random neighbor word (p ~ 1/20000 per pair, ~12
            # expected at 20k docs) legitimately repeat the boundary
            # 8-gram too and the token accounting under-counts
            words[15] = f"u{int(i)}a"
            words[16 + SPAN_N] = f"u{int(i)}b"
        texts.append(" ".join(words))
    return _docs(ids, texts)


def spandedup(ctx, *, docs=1_000_000, plant_rate=0.2) -> dict:
    """Repeated-span removal at planted scale.

    N 40-word random docs; a planted fraction embeds one of 64 shared
    8-token spans at position 16 (the only cross-doc repeated grams:
    random 20k-vocab flanks never collide). Every doc must survive, and
    exactly 8 tokens are removed from each planted doc, verified by exact
    total-token accounting.
    """
    n_plant = int(docs * plant_rate)
    ds = ray.data.range(docs, override_num_blocks=ctx.blocks).map_batches(
        _span_docs, fn_kwargs={"n_plant": n_plant},
        batch_format="pyarrow").materialize()
    t0 = time.time()
    s = batch_sums(remove_repeated_spans(ds, n=SPAN_N), lambda b: {
        "rows": b.num_rows,
        "toks": pc.sum(pc.add(pc.count_substring(b.column("clean_text"), " "),
                              1)).as_py() or 0})
    wall = time.time() - t0
    expect_toks = docs * DOC_WORDS - n_plant * SPAN_N
    return {"metric": "span_removal_scale", "docs": docs, "planted": n_plant,
            "rows_out": s["rows"], "toks_out": s["toks"],
            "expect_toks": expect_toks,
            "ok": s["rows"] == docs and s["toks"] == expect_toks,
            "wall_sec": round(wall, 1), "docs_per_sec": round(docs / wall, 1)}


# -- cdc -----------------------------------------------------------------------

def _cdc_corpus(n_docs: int, seed: int = 3) -> list:
    rng = np.random.RandomState(seed)
    pool = ["".join(chr(97 + c) for c in rng.randint(0, 26, size=300))
            for _ in range(64)]
    texts = []
    for i in range(n_docs):
        segs = [pool[j] for j in rng.randint(0, 64, size=3)]
        salt = "".join(chr(97 + c) for c in rng.randint(0, 26, size=100))
        # unique prefix shifts alignment: fixed-size chunking would miss
        # the shared segments; CDC must resync
        texts.append(salt[: (i % 37) + 1] + segs[0] + salt + segs[1]
                     + segs[2])
    return texts


def cdc(ctx, *, docs=200_000) -> dict:
    """CDC chunk dedup (stages/cdcdedup.py) at scale.

    Docs are assembled from a shared pool of 64 segments (planted
    redundancy) plus unique salt, ~1 KB each. Verifies:
      1. partitioning-independence: two runs with different input blocks
         (64/37) and exchange partition counts (32/17) produce IDENTICAL
         per-doc rows;
      2. conservation: sum(total_bytes) == corpus bytes, dup <= total;
      3. redundancy detection: the corpus-level dup-byte fraction must
         exceed 0.5 (3 of ~4 segments per doc come from the pool; CDC
         must find them without alignment).
    Reports wall and MB/s of the first run.
    """
    texts = _cdc_corpus(docs)
    total = sum(len(t) for t in texts)
    table = _docs(np.arange(docs), texts)

    def run(in_blocks: int, n_parts: int):
        ds = ray.data.from_arrow(table).repartition(in_blocks).materialize()
        t0 = time.time()
        out = cdc_dedup_docs(ds, num_partitions=n_parts).to_pandas()
        wall = time.time() - t0
        return out.sort_values("doc_id").reset_index(drop=True), wall

    a, wall = run(64, 32)
    b, _ = run(37, 17)
    pd.testing.assert_frame_equal(a, b)
    assert int(a["total_bytes"].sum()) == total
    assert (a["dup_bytes"] <= a["total_bytes"]).all()
    frac = float(a["dup_bytes"].sum() / total)
    assert frac > 0.5, frac
    return {"docs": docs, "corpus_mb": round(total / 1e6, 1),
            "wall_sec": round(wall, 1),
            "mb_per_sec": round(total / 1e6 / wall, 1),
            "dup_frac": round(frac, 3), "partitioning_independent": True,
            "ok": True}


# -- fpstore -------------------------------------------------------------------

def _fp_text(i: int) -> str:
    rng = md5_rng(f"fp-base-{i}")
    return " ".join(f"w{w}" for w in rng.randint(0, 50_000, 30))


def _fp_docs(batch: pa.Table, offset: int, dup_of: int,
             dup_rate: float) -> pa.Table:
    """doc_id = id + offset; when ``dup_of``, rows with id % 1000 <
    dup_rate * 1000 copy base doc (id % dup_of)'s text (a cross-epoch
    duplicate)."""
    ids = batch.column("id").to_numpy()
    texts = [_fp_text(int(i) % dup_of
                      if dup_of and (int(i) % 1000) < dup_rate * 1000
                      else int(i) + offset) for i in ids]
    return _docs(ids + offset, texts)


def fpstore(ctx, *, base=2_000_000, delta=500_000, dup_rate=0.5) -> dict:
    """Incremental crawl dedup against a fingerprint store.

    Builds a --base-doc fingerprint store (epoch 1), then dedups a
    --delta-doc epoch 2 with a planted cross-epoch dup rate against it:
    incremental cost is O(epoch), the rebuild baseline is O(corpus).
    Reports both membership regimes (broadcast / exchange), the union
    re-dedup baseline, and the Bloom-sidecar IO of a small low-dup epoch
    (files and bytes read vs skipped). ok when the exchange and broadcast
    regimes agree, the union re-dedup equals epoch 1 + epoch 2 survivors,
    and the small epoch's regimes agree; expected_survivors (the planted
    closed form) is reported, not gated.
    """
    store = os.path.join(ctx.work_dir, "store")
    data_dir = os.path.join(ctx.work_dir, "data")

    def to_disk(name: str, n: int, offset: int, dup_of: int, rate: float):
        # pin every epoch to DISK (untimed): each timed op reads parquet
        # like a real crawl pipeline; the rebuild baseline pays the full
        # prior-corpus text scan, the incremental path only the 16 B/doc
        # fingerprint store
        ray.data.range(n).map_batches(
            _fp_docs, fn_kwargs={"offset": offset, "dup_of": dup_of,
                                 "dup_rate": rate},
            batch_format="pyarrow").write_parquet(f"{data_dir}/{name}")
        return ray.data.read_parquet(f"{data_dir}/{name}")

    base_ds = to_disk("base", base, 0, 0, 0.0)
    delta_ds = to_disk("delta", delta, base, base, dup_rate)
    t0 = time.time()
    s1 = dedup_incremental(base_ds, store, "e1").materialize()
    t_e1 = time.time() - t0
    t0 = time.time()
    s2 = dedup_incremental(delta_ds, store, "e2", mode="exchange").materialize()
    t_e2_exchange = time.time() - t0
    n_e2 = s2.count()
    # broadcast regime on the same epoch (exclude own epoch -> identical
    # membership test), timed separately
    fp = with_fingerprints(delta_ds, "text")
    t0 = time.time()
    n_bc = filter_against_store(fp, store, exclude_epoch="e2",
                                mode="broadcast").count()
    t_e2_broadcast = time.time() - t0
    # baseline: re-dedup the UNION corpus from scratch
    t0 = time.time()
    n_union = exact_dedup(base_ds.union(delta_ds), ["text"], "doc_id").count()
    t_rebuild = time.time() - t0

    # Bloom-sidecar IO: a SMALL daily epoch at a low dup rate against the
    # now-grown store; the sidecar prefilter should skip most fingerprint
    # files outright (membership stays exact: checked against broadcast)
    small_n = max(10_000, delta // 25)
    fp_small = with_fingerprints(
        to_disk("small", small_n, base + delta, base, 0.001), "text")
    iolog = os.path.join(ctx.work_dir, "iolog")
    t0 = time.time()
    n_small_ex = filter_against_store(
        fp_small, store, exclude_epoch="e3", mode="exchange",
        io_log_dir=iolog).count()
    t_small_ex = time.time() - t0
    n_small_bc = filter_against_store(
        fp_small, store, exclude_epoch="e3", mode="broadcast").count()
    recs = []
    for f in os.listdir(iolog):
        with open(os.path.join(iolog, f)) as fh:
            recs.append(json.load(fh))
    io = {k: sum(r[k] for r in recs) for k in
          ("files_read", "files_skipped", "bytes_read", "bytes_skipped")}
    return {
        "base": base, "delta": delta, "dup_rate": dup_rate,
        "e1_sec": round(t_e1, 1), "e2_exchange_sec": round(t_e2_exchange, 1),
        "e2_broadcast_sec": round(t_e2_broadcast, 1),
        "rebuild_sec": round(t_rebuild, 1),
        "e2_survivors": n_e2, "e2_survivors_broadcast_regime": n_bc,
        "expected_survivors": int(delta * (1 - dup_rate)),
        "union_total": n_union,
        "bloom_small_epoch": {
            "rows": small_n, "dup_rate": 0.001,
            "survivors_exchange": n_small_ex,
            "survivors_broadcast": n_small_bc,
            "sec": round(t_small_ex, 1), **io,
            "fp_bytes_untouched_pct": round(
                100.0 * io["bytes_skipped"]
                / max(1, io["bytes_read"] + io["bytes_skipped"]), 1)},
        "ok": bool(n_e2 == n_bc and n_union == s1.count() + n_e2
                   and n_small_ex == n_small_bc),
    }


# -- hamming -------------------------------------------------------------------

def _fingerprints(batch: pa.Table, twin_every: int) -> pa.Table:
    """Random 64-bit hashes; id % twin_every == 1 copies id-1's hash with
    <= 3 flipped bits (flip positions also pure functions of id), so a
    twin and its source agree across batches."""
    ids = batch.column("id").to_numpy().astype(np.int64)
    u = ids.view(np.uint64)
    h = splitmix(u)
    tw = (ids % twin_every) == 1
    src = splitmix(u[tw] - np.uint64(1))
    for salt in (0xA5, 0xC3, 0xE7):
        src ^= np.uint64(1) << (splitmix(u[tw] ^ np.uint64(salt))
                                % np.uint64(64))
    h[tw] = src
    return pa.table({"vid": pa.array(ids, pa.int64()),
                     "h": pa.array(h.view(np.int64), pa.int64())})


def hamming(ctx, *, rows=2_000_000, twin_every=100, max_dist=3) -> dict:
    """Banded hamming near-pair join at scale.

    N random 64-bit fingerprints with a planted twin every --twin-every
    rows at <= 3 flipped bits from its source. Reports wall, pair counts
    and planted-twin recall, which must be 1.0 at --max-dist >= 3 (the
    banding is exact): ok only when every planted twin is found.
    """
    ds = ray.data.range(rows).map_batches(
        _fingerprints, fn_kwargs={"twin_every": twin_every},
        batch_format="pyarrow").materialize()
    t0 = time.time()
    pairs = hamming_near_pairs(ds, "h", "vid", max_dist).materialize()
    wall = time.time() - t0
    planted = 0
    for b in pairs.iter_batches(batch_format="pyarrow", batch_size=None):
        a = b.column("id_a").to_numpy(zero_copy_only=False)
        bb = b.column("id_b").to_numpy(zero_copy_only=False)
        planted += int(np.sum((bb == a + 1) & (bb % twin_every == 1)))
    expect = len(range(1, rows, twin_every))
    return {"rows": rows, "max_dist": max_dist, "wall_sec": round(wall, 1),
            "rows_per_sec": int(rows / max(wall, 1e-9)),
            "pairs": pairs.count(), "planted_found": planted,
            "planted_expected": expect,
            "recall": round(planted / max(expect, 1), 4),
            "ok": planted == expect}


# -- resolve -------------------------------------------------------------------

def _h(u: int, salt: int) -> int:
    return int(splitmix(np.array([np.uint64(u) ^ np.uint64(salt)]))[0])


def _name(u: int) -> str:
    """Deterministic 10-16 char name, a pure function of the id, so a
    variant row can regenerate its source's name in any batch."""
    return "".join(chr(ord("a") + _h(u, 0x1000 + k) % 26)
                   for k in range(10 + _h(u, 0x51) % 7))


def _variant(u: int) -> str:
    """One deterministic edit of id u-1's name (a substitution always
    CHANGES the char, so the edit distance is exactly 1)."""
    base = _name(u - 1)
    op, pos, ch = _h(u, 0x71) % 3, _h(u, 0x72) % len(base), _h(u, 0x73)
    if op == 0:  # substitute with a DIFFERENT char
        new = (ord(base[pos]) - ord("a") + 1 + ch % 25) % 26
        return base[:pos] + chr(ord("a") + new) + base[pos + 1:]
    if op == 1:  # delete
        return base[:pos] + base[pos + 1:]
    return base[:pos] + chr(ord("a") + ch % 26) + base[pos:]


def _surfaces(batch: pa.Table, variant_every: int) -> pa.Table:
    ids = batch.column("id").to_numpy().astype(np.int64).tolist()
    return pa.table({"surface": pa.array(
        [_variant(i) if i % variant_every == 1 and i > 0 else _name(i)
         for i in ids], pa.string())})


def resolve(ctx, *, rows=1_000_000, variant_every=4) -> dict:
    """Entity resolution at scale.

    N surface forms: random 10-16 char names, every --variant-every-th
    replaced by a one-edit variant of its predecessor. Reports wall,
    cluster counts and planted-variant recovery, which must be 1.0
    (deletion blocking is exact for d=1): ok only when no planted variant
    is missed. A missed pair is checked driver-side only; the operator
    itself never collects.
    """
    ds = ray.data.range(rows).map_batches(
        _surfaces, fn_kwargs={"variant_every": variant_every},
        batch_format="pyarrow").materialize()
    t0 = time.time()
    out = resolve_surface_forms(ds, col="surface", max_d=1,
                                method="deletions").materialize()
    wall = time.time() - t0
    # chain-safe: extra merges from accidental near-collisions keep the
    # pair in one component
    ent: dict = {}
    for b in out.iter_batches(batch_format="pyarrow", batch_size=None):
        ent.update(zip(b.column("surface").to_pylist(),
                       b.column("entity_id").to_pylist()))
    planted = missed = 0
    for i in range(1, rows, variant_every):
        planted += 1
        missed += ent[_variant(i)] != ent[_name(i - 1)]
    return {"rows": rows, "n_surfaces": len(ent),
            "n_entities": len(set(ent.values())), "wall_sec": round(wall, 1),
            "rows_per_sec": int(rows / max(wall, 1e-9)), "planted": planted,
            "missed": missed, "recall": round(1 - missed / max(planted, 1), 4),
            "ok": missed == 0}
