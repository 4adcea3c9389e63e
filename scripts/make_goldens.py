"""Generate the frozen golden-oracle parquet files under
``tests/golden/oracle/`` — SINGLE-PROCESS, no Ray session.

Every golden is recomputed from scratch by a plain-Python mirror of the
operator's semantics (the reference-semantics oracle emitter for the KG
queries, pure numeric kernels + sequential orchestration for the rest), so
the driver's DuckDB comparison (``SELECT ... FROM read_parquet(golden)``)
independently checks the DISTRIBUTED execution: partitioning, shuffles,
actor pools, and batch boundaries cannot silently change results.

Scale parameters are pinned to the driver's correctness gate (sf0.01):
n_pages=500, n_records=200, n_media=100 — the same values
``catalog._n_pages`` / ``catalog/media.py:_synth_records`` derive from sf0.01.

Usage: python scripts/make_goldens.py [name ...]
Regenerating after an intentional semantic change is expected; an
UNINTENTIONAL diff in these files is a regression
(tests/test_golden_oracles.py re-derives and compares a sample each run).
"""

from __future__ import annotations

import json
import os
import random
import sys

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO, "tests", "golden", "oracle")
SF_DIR = "/root/testdata/sf0.01"

N_PAGES = 500      # == catalog._n_pages("sf0.01")
N_RECORDS = 200    # == catalog/media.py:_synth_records at sf0.01
N_MEDIA = 100      # == q_media_* at sf0.01


# ---------------------------------------------------------------------------
# single-process mirrors
# ---------------------------------------------------------------------------

def golden_kg_flagship() -> pa.Table:
    """Reference-semantics oracle emitter over the deterministic page
    fixture (functions/oracle.py) — fully independent of the Ray pipeline."""
    from calendar_event_entity_extraction_ray.functions.oracle import (
        oracle_triples,
    )
    from calendar_event_entity_extraction_ray.sources.pages import pages_table

    pages = pages_table(list(range(N_PAGES)), seed=42).to_pylist()
    rows = oracle_triples(pages)
    return pa.table({
        "subj": pa.array([r[0] for r in rows], pa.string()),
        "pred": pa.array([r[1] for r in rows], pa.string()),
        "obj": pa.array([r[2] for r in rows], pa.string()),
        "url": pa.array([r[3] for r in rows], pa.string()),
    })


def _documents() -> pd.DataFrame:
    return pq.read_table(
        f"{SF_DIR}/documents.parquet", columns=["doc_id", "text"]).to_pandas()


def golden_simhash_docs() -> pa.Table:
    from calendar_event_entity_extraction_ray.functions.dedup import simhash64

    df = _documents()
    vals = [simhash64(t or "") for t in df["text"]]
    return pa.table({
        "doc_id": pa.array(df["doc_id"], pa.int64()),
        "simhash": pa.array(
            [v - (1 << 64) if v >= (1 << 63) else v for v in vals],
            pa.int64()),  # two's-complement wrap == exact bit pattern
    })


def golden_langid_docs() -> pa.Table:
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        langid_batch,
    )

    return langid_batch(
        pa.Table.from_pandas(_documents(), preserve_index=False))


def golden_fingerprint_docs() -> pa.Table:
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        fingerprint_batch,
    )

    return fingerprint_batch(
        pa.Table.from_pandas(_documents(), preserve_index=False))


def _minhash_drop_ids(ids, texts, threshold: float = 0.8,
                      max_band_size: int = 128) -> set:
    """Sequential mirror of stages/dedup.py:minhash_lsh_dup_ids (64 perms,
    16 bands, round-3 cluster-keeper semantics): band index -> multi-member
    bands (oversized bands skipped, same cap) -> verify every in-band pair
    -> union-find over verified pairs -> drop all but the smallest id per
    connected component."""
    from calendar_event_entity_extraction_ray.functions.dedup import (
        MinHasher,
        jaccard,
        word_shingles,
    )

    hasher = MinHasher(num_perm=64)
    shingles = {}
    band_to_ids: dict = {}
    for i, t in zip(ids, texts):
        sh = word_shingles(t or "", 3)
        shingles[i] = sh
        sig = hasher.signature(sh)
        for key in hasher.band_keys(sig, 16):
            band_to_ids.setdefault(key, []).append(int(i))

    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for key, members in band_to_ids.items():
        members = sorted(set(members))
        if len(members) < 2 or len(members) > max_band_size:
            continue
        for x in range(len(members)):
            for y in range(x + 1, len(members)):
                a, b = members[x], members[y]
                if jaccard(shingles[a], shingles[b]) >= threshold:
                    union(a, b)
    return {i for i in parent if find(i) != i}


def golden_minhash_dedup_docs() -> pa.Table:
    df = _documents()
    dropped = _minhash_drop_ids(df["doc_id"], df["text"])
    return pa.table({"doc_id": pa.array(sorted(dropped), pa.int64())})


def golden_corpus_clean() -> pa.Table:
    """Sequential mirror of pipelines/corpus.py:corpus_clean: quality +
    langid filters (same pure batch functions), exact first-wins dedup on
    text (min doc_id), MinHash near-dup anti-join."""
    from calendar_event_entity_extraction_ray.pipelines.corpus import (
        langid_filter_batch,
        quality_filter_batch,
    )

    df = _documents()
    df = langid_filter_batch(quality_filter_batch(df))
    df = df.sort_values("doc_id").drop_duplicates("text", keep="first")
    dropped = _minhash_drop_ids(df["doc_id"], df["text"])
    keep = df[~df["doc_id"].isin(dropped)]
    return pa.table({"doc_id": pa.array(sorted(keep["doc_id"]), pa.int64())})


def _embeddings() -> pd.DataFrame:
    return pq.read_table(
        f"{SF_DIR}/embeddings.parquet",
        columns=["vec_id", "embedding"]).to_pandas()


def golden_embedding_dups_lsh() -> pa.Table:
    """Sequential mirror of q_embedding_dups_lsh (round-3 banded form):
    16 bands x ceil(log2(n/256)) planes (seed 13, one plane matrix sliced
    per band, same as stages/knn.py:SrpBandBuckets), all pairs >= 0.3
    cosine within any band's bucket, distinct."""
    df = _embeddings()
    dim = len(df["embedding"].iloc[0])
    n = len(df)
    n_bands, target_bucket, max_bucket = 16, 256, 4096
    r = max(2, int(np.ceil(np.log2(max(2.0, n / target_bucket)))))
    rng = np.random.RandomState(13)
    planes = rng.normal(size=(dim, n_bands * r))
    mat = np.asarray(df["embedding"].tolist(), dtype=np.float64)
    bits = (mat @ planes) > 0
    weights = 1 << np.arange(r)
    norm = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True),
                         1e-12, None)
    ids_all = df["vec_id"].to_numpy()
    pairs: set = set()
    for band in range(n_bands):
        buckets = bits[:, band * r:(band + 1) * r] @ weights
        for bkt in np.unique(buckets):
            sel = np.nonzero(buckets == bkt)[0]
            if len(sel) < 2 or len(sel) > max_bucket:
                continue
            sub = norm[sel]
            ids = ids_all[sel]
            sims = sub @ sub.T
            ai, bj = np.where(sims >= 0.3)
            for i, j in zip(ai, bj):
                if ids[i] < ids[j]:
                    pairs.add((int(ids[i]), int(ids[j])))
    out = sorted(pairs)
    return pa.table({
        "vec_id_a": pa.array([p[0] for p in out], pa.int64()),
        "vec_id_b": pa.array([p[1] for p in out], pa.int64()),
    })


def golden_knn_lsh() -> pa.Table:
    """Sequential mirror of q_knn_lsh: 6-plane SRP, Hamming-1 probes around
    the first row's bucket, exact cosine top-10 among candidates."""
    from calendar_event_entity_extraction_ray.stages.knn import _SrpBucket

    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    df = t.to_pandas()
    q = np.asarray(df["embedding"].iloc[0], dtype=np.float64)
    bucketer = _SrpBucket(dim=len(q), n_planes=6, seed=13)
    qb = bucketer.bucket_of(q)
    probes = {qb} | {qb ^ (1 << i) for i in range(6)}
    mat = np.asarray(df["embedding"].tolist(), dtype=np.float64)
    bits = (mat @ bucketer.planes) > 0
    buckets = bits @ (1 << np.arange(6))
    sel = np.isin(buckets, sorted(probes))
    cand = mat[sel]
    ids = df["vec_id"].to_numpy()[sel]
    norms = np.linalg.norm(cand, axis=1) * np.linalg.norm(q)
    norms = np.where(norms == 0, 1e-12, norms)
    scores = (cand @ q) / norms
    order = np.lexsort((ids, -scores))[:10]
    return pa.table({"vec_id": pa.array(ids[order], pa.int64())})


def golden_jaccard_pairs_docs() -> pa.Table:
    """BRUTE-FORCE all-pairs char-3-gram Jaccard >= 0.6 — an independent
    oracle for the prefix-filtering join (which must find exactly these
    pairs; prefix filtering is a pruning, not an approximation)."""
    import math

    from calendar_event_entity_extraction_ray.functions.dedup import (
        char_ngrams,
        jaccard,
    )

    df = _documents()
    grams = [char_ngrams(t or "", 3) for t in df["text"]]
    ids = df["doc_id"].to_numpy()
    out_a, out_b, out_j = [], [], []
    for x in range(len(ids)):
        for y in range(x + 1, len(ids)):
            j = jaccard(grams[x], grams[y])
            if j >= 0.6:
                a, b = int(ids[x]), int(ids[y])
                if a > b:
                    a, b = b, a
                out_a.append(a)
                out_b.append(b)
                out_j.append(int(math.floor(j * 10_000 + 0.5)))
    order = np.lexsort((out_b, out_a))
    return pa.table({
        "doc_id_a": pa.array([out_a[k] for k in order], pa.int64()),
        "doc_id_b": pa.array([out_b[k] for k in order], pa.int64()),
        "jacc_e4": pa.array([out_j[k] for k in order], pa.int64()),
    })


def golden_knn_ivf() -> pa.Table:
    """Sequential mirror of q_knn_ivf: same sample (first 4096 rows), same
    seeded k-means codebook, full-table assignment, exact cosine top-10
    among the 4 probed cells (same float32->float64 conversions and
    zero-norm guard as stages/knn.py)."""
    from calendar_event_entity_extraction_ray.stages.knn import (
        train_ivf_codebook,
    )

    df = _embeddings()
    mat = np.asarray(df["embedding"].tolist(), dtype=np.float64)
    q = mat[0]
    sample = mat[:4096]
    cents = train_ivf_codebook(sample, n_cells=16, seed=13)
    qn = q / max(np.linalg.norm(q), 1e-12)
    probes = set(np.argsort(-(cents @ qn))[:4].tolist())
    norm_rows = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True),
                              1e-12, None)
    cells = np.argmax(norm_rows @ cents.T, axis=1)
    sel = np.isin(cells, sorted(probes))
    cand = mat[sel]
    ids = df["vec_id"].to_numpy()[sel]
    norms = np.linalg.norm(cand, axis=1) * np.linalg.norm(q)
    norms = np.where(norms == 0, 1e-12, norms)
    scores = (cand @ q) / norms
    order = np.lexsort((ids, -scores))[:10]
    return pa.table({"vec_id": pa.array(ids[order], pa.int64())})


def golden_knn_pq() -> pa.Table:
    """Sequential mirror of q_knn_pq: same first-4096-row sample, same
    seed-13 per-subspace codebook, full-table encode (normalized
    float64), lut-scored global top-40 by (-pq_score, vec_id), exact
    cosine top-10 re-rank among those candidates."""
    from calendar_event_entity_extraction_ray.stages.knn import (
        train_pq_codebook,
    )

    df = _embeddings()
    mat = np.asarray(df["embedding"].tolist(), dtype=np.float64)
    ids = df["vec_id"].to_numpy()
    q = mat[0]
    cb = train_pq_codebook(mat[:4096], m=8, n_codes=256, seed=13)
    m, _, sub_d = cb.shape

    norm_rows = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True),
                              1e-12, None)
    half_sq = 0.5 * (cb ** 2).sum(axis=2)
    codes = np.empty((len(mat), m), dtype=np.int64)
    for j in range(m):
        sub = norm_rows[:, j * sub_d:(j + 1) * sub_d]
        codes[:, j] = np.argmax(sub @ cb[j].T - half_sq[j], axis=1)

    qn = q / max(np.linalg.norm(q), 1e-12)
    lut = np.stack([cb[j] @ qn[j * sub_d:(j + 1) * sub_d]
                    for j in range(m)])
    scores = lut[np.arange(m)[None, :], codes].sum(axis=1)
    cand = np.lexsort((ids, -scores))[:40]

    exact = mat[cand]
    norms = np.linalg.norm(exact, axis=1) * np.linalg.norm(q)
    norms = np.where(norms == 0, 1e-12, norms)
    cos = (exact @ q) / norms
    order = np.lexsort((ids[cand], -cos))[:10]
    return pa.table({"vec_id": pa.array(ids[cand][order], pa.int64())})


def golden_knn_ivfpq() -> pa.Table:
    """Sequential mirror of q_knn_ivfpq: coarse 16-cell codebook on the
    first-4096-row sample, residual PQ (m=8, seed 13, normalize=False),
    8 probed cells, cell-dot + residual-LUT scores, global top-40 by
    (-score, vec_id), exact cosine top-10 re-rank."""
    from calendar_event_entity_extraction_ray.stages.knn import (
        train_ivf_codebook,
        train_pq_codebook,
    )

    df = _embeddings()
    mat = np.asarray(df["embedding"].tolist(), dtype=np.float64)
    ids = df["vec_id"].to_numpy()
    q = mat[0]
    sample = mat[:4096]
    coarse = train_ivf_codebook(sample, n_cells=16, seed=13)
    sm = sample / np.clip(np.linalg.norm(sample, axis=1, keepdims=True),
                          1e-12, None)
    residuals = sm - coarse[np.argmax(sm @ coarse.T, axis=1)]
    cb = train_pq_codebook(residuals, m=8, n_codes=256, seed=13,
                           normalize=False)
    m, _, sub_d = cb.shape

    norm_rows = mat / np.clip(np.linalg.norm(mat, axis=1, keepdims=True),
                              1e-12, None)
    cells = np.argmax(norm_rows @ coarse.T, axis=1)
    res = norm_rows - coarse[cells]
    half_sq = 0.5 * (cb ** 2).sum(axis=2)
    codes = np.empty((len(mat), m), dtype=np.int64)
    for j in range(m):
        sub = res[:, j * sub_d:(j + 1) * sub_d]
        codes[:, j] = np.argmax(sub @ cb[j].T - half_sq[j], axis=1)

    qn = q / max(np.linalg.norm(q), 1e-12)
    cell_dot = coarse @ qn
    probes = set(np.argsort(-cell_dot)[:8].tolist())
    lut = np.stack([cb[j] @ qn[j * sub_d:(j + 1) * sub_d]
                    for j in range(m)])
    scores = cell_dot[cells] + lut[np.arange(m)[None, :], codes].sum(axis=1)
    sel = np.isin(cells, sorted(probes))
    s_ids = ids[sel]
    s_scores = scores[sel]
    cand = np.lexsort((s_ids, -s_scores))[:40]

    exact = mat[np.isin(ids, s_ids[cand])]
    e_ids = ids[np.isin(ids, s_ids[cand])]
    norms = np.linalg.norm(exact, axis=1) * np.linalg.norm(q)
    norms = np.where(norms == 0, 1e-12, norms)
    cos = (exact @ q) / norms
    order = np.lexsort((e_ids, -cos))[:10]
    return pa.table({"vec_id": pa.array(e_ids[order], pa.int64())})


def golden_augment_records() -> pa.Table:
    """Sequential mirror of pipelines/augmentation.py:augment_pipeline over
    the seed-7 synthetic records (n_synth=0): normalize -> top-500 pools ->
    1-per-row augment -> first-wins dedup by row_id on the 9-column key."""
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.stages.augment import (
        AugmentRecords,
        normalize_records_batch,
        synth_records_batch,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import key_strings

    records = synth_records_batch(list(range(N_RECORDS)), seed=7)
    normalized = normalize_records_batch(records)

    # pools: mirror stages/aggregate.py:attendee_location_pools
    kinds, names = [], []
    for lst in normalized.column("attendees").to_pylist():
        for a in lst or []:
            if a and a.strip():
                kinds.append("a")
                names.append(a.strip())
    for v in normalized.column("location").to_pylist():
        if isinstance(v, str) and v.strip():
            kinds.append("l")
            names.append(v.strip())
    counts = (pd.DataFrame({"kind": kinds, "name": names})
              .groupby(["kind", "name"]).size().reset_index(name="n")
              .sort_values(["n", "name"], ascending=[False, True]))
    att = counts[counts["kind"] == "a"]["name"].head(500).tolist()
    loc = counts[counts["kind"] == "l"]["name"].head(500).tolist()

    augmented = AugmentRecords(att_pool_ref=att, loc_pool_ref=loc, seed=7)(
        normalized)

    key_cols = ["event_text"] + TARGET_KEYS
    idx = np.argsort(augmented.column("row_id").to_numpy(), kind="stable")
    ordered = augmented.take(idx)
    seen, keep = set(), []
    for i, k in enumerate(key_strings(ordered, key_cols)):
        if k not in seen:
            seen.add(k)
            keep.append(i)
    out = ordered.take(keep).select(
        ["event_text", "action", "date", "time", "location", "duration",
         "recurrence", "notes"])
    return out


def golden_eval_metrics() -> pa.Table:
    """Sequential mirror of q_eval_metrics: same golden/poisoned prediction
    construction, per-row indicators, plain means (sums of 0/1 and eighths
    are exact in binary, so order never changes the result)."""
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.functions.jsonx import (
        safe_json_load,
    )
    from calendar_event_entity_extraction_ray.functions.metrics import (
        row_indicators,
    )
    from calendar_event_entity_extraction_ray.sources.pages import synth_page

    rows = []
    for i in range(300):
        _, golden = synth_page(i, seed=42)
        for g in golden:
            slots = {k: g.get(k) for k in TARGET_KEYS}
            pred = json.dumps(slots) if i % 10 else "no json at all"
            rows.append(row_indicators(safe_json_load(pred), slots))
    names = ["json_validity", "field_accuracy", "exact_match"] + [
        f"{k}_accuracy" for k in TARGET_KEYS]
    means = {n: float(np.mean([r[n] for r in rows])) for n in names}
    return pa.table({n: pa.array([means[n]], pa.float64()) for n in names})


def golden_media_features() -> pa.Table:
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        DecodeFeatures,
        synth_media_table,
    )

    out = DecodeFeatures(feature_dim=16)(synth_media_table(N_MEDIA))
    return out.select(["media_id", "kind", "mime", "px_width", "px_height",
                       "mean_r_e4", "mean_g_e4", "mean_b_e4", "std_gray_e4",
                       "dur_ms", "rms_e4", "zcr_e4"])


def golden_media_frames() -> pa.Table:
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        frame_sample_batch,
        synth_media_table,
    )

    out = frame_sample_batch(synth_media_table(N_MEDIA))
    return out.select(["media_id", "frame_ix", "frame_ts_ms"])


def golden_tokenize_records() -> pa.Table:
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.functions.formats import (
        format_for_base_model,
    )
    from calendar_event_entity_extraction_ray.functions.tokenizer import (
        IGNORE_INDEX,
        ToyTokenizer,
        build_feature,
    )
    from calendar_event_entity_extraction_ray.stages.augment import (
        synth_records_batch,
    )

    tok = ToyTokenizer()
    rows = synth_records_batch(list(range(N_RECORDS)), seed=7).to_pylist()
    out = {"rec_id": [], "n_tokens": [], "n_masked": [], "sum_ids": [],
           "sum_labels": []}
    for r in rows:
        fmt = format_for_base_model(
            r["event_text"], {k: r.get(k) for k in TARGET_KEYS})
        f = build_feature(
            {"prompt": fmt["prompt"], "completion": fmt["completion"]}, tok, 512)
        out["rec_id"].append(r["row_id"])
        out["n_tokens"].append(len(f["input_ids"]))
        out["n_masked"].append(
            sum(1 for l in f["labels"] if l == IGNORE_INDEX))
        out["sum_ids"].append(sum(f["input_ids"]))
        out["sum_labels"].append(
            sum(l for l in f["labels"] if l != IGNORE_INDEX))
    return pa.table({k: pa.array(v, pa.int64()) for k, v in out.items()})


def golden_chatml_records() -> pa.Table:
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.functions.render_enhanced import (
        build_messages_record,
        render_enhanced,
    )
    from calendar_event_entity_extraction_ray.stages.augment import (
        synth_records_batch,
    )

    rows = synth_records_batch(list(range(N_RECORDS)), seed=7).to_pylist()
    ids, users, assists = [], [], []
    for r in rows:
        slots = {k: r.get(k) for k in TARGET_KEYS}
        rng = random.Random(f"enh:7:{r['row_id']}")
        rec = build_messages_record(render_enhanced(slots, rng), slots)
        ids.append(r["row_id"])
        users.append(rec["messages"][0]["content"])
        assists.append(rec["messages"][1]["content"])
    return pa.table({"rec_id": pa.array(ids, pa.int64()),
                     "user_content": pa.array(users, pa.string()),
                     "assistant_content": pa.array(assists, pa.string())})


def golden_kmeans_labels() -> pa.Table:
    """Sequential numpy mirror of stages/ml.py:kmeans (same deterministic
    init, update rule, and argmin tie-breaking) over the embeddings table
    — checks the distributed broadcast-assign/partial-update passes."""
    from calendar_event_entity_extraction_ray.stages.ml import (
        kmeans_single_process,
    )

    df = _embeddings()
    ids = df["vec_id"].to_numpy()
    vecs = np.stack(df["embedding"].to_numpy())
    a = kmeans_single_process(vecs, ids, k=8, iters=5)
    order = np.argsort(ids, kind="stable")
    return pa.table({
        "vec_id": pa.array(ids[order], pa.int64()),
        "cluster": pa.array(a[order].astype("int64"), pa.int64()),
    })



def golden_kg_attendee_kcore() -> pa.Table:
    """Independent single-process k-core (k=3) peel over the co-attendance
    graph of the golden flagship triples — a plain dict-adjacency
    algorithm, sharing no code with stages/graph.py:k_core."""
    import collections
    import itertools

    t = golden_kg_flagship().to_pandas()
    att = t[t.pred == "hasAttendee"]
    adj: dict = collections.defaultdict(set)
    for _, grp in att.groupby("subj"):
        for x, y in itertools.combinations(sorted(set(grp.obj)), 2):
            adj[x].add(y)
            adj[y].add(x)
    k = 3
    alive = {u: set(vs) for u, vs in adj.items()}
    changed = True
    while changed:
        changed = False
        for u in list(alive):
            if len(alive[u]) < k:
                for v in alive[u]:
                    alive[v].discard(u)
                del alive[u]
                changed = True
    nodes = sorted(alive)
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "deg": pa.array([len(alive[u]) for u in nodes], pa.int64()),
    })



def golden_kg_attendee_walks() -> pa.Table:
    """Independent dict-adjacency replay of the walk stream: same
    (walk, step, seed) siphash choice function (the SHARED contract),
    neighbor lists sorted ascending to match the CSR order, everything
    else plain-Python."""
    import collections
    import itertools

    import numpy as np

    from calendar_event_entity_extraction_ray.stages.graph import (
        _walk_choice,
    )

    t = golden_kg_flagship().to_pandas()
    att = t[t.pred == "hasAttendee"]
    adj: dict = collections.defaultdict(set)
    for _, grp in att.groupby("subj"):
        for x, y in itertools.combinations(sorted(set(grp.obj)), 2):
            adj[x].add(y)
            adj[y].add(x)
    neigh = {u: sorted(vs) for u, vs in adj.items()}
    walk_ids = np.array(sorted(neigh), dtype=object)
    cur = walk_ids.copy()
    rows_w, rows_s, rows_n = list(walk_ids), [0] * len(walk_ids), list(cur)
    for step in range(1, 6):
        h = _walk_choice(walk_ids, step, 0)
        cur = np.array([neigh[c][int(hv % np.uint64(len(neigh[c])))]
                        for c, hv in zip(cur, h)], dtype=object)
        rows_w += list(walk_ids)
        rows_s += [step] * len(walk_ids)
        rows_n += list(cur)
    return pa.table({
        "walk_id": pa.array(rows_w, pa.string()),
        "step": pa.array(rows_s, pa.int64()),
        "node": pa.array(rows_n, pa.string()),
    })



def golden_kg_attendee_communities() -> pa.Table:
    """Independent dict/Counter replay of deterministic synchronous LPA
    (4 rounds, most-frequent neighbor label, ties -> min) over the
    co-attendance graph of the golden triples."""
    import collections
    import itertools

    t = golden_kg_flagship().to_pandas()
    att = t[t.pred == "hasAttendee"]
    adj: dict = collections.defaultdict(set)
    for _, grp in att.groupby("subj"):
        for x, y in itertools.combinations(sorted(set(grp.obj)), 2):
            adj[x].add(y)
            adj[y].add(x)
    label = {u: u for u in adj}
    for _ in range(4):
        new = {}
        for u in adj:
            cnt = collections.Counter(label[v] for v in adj[u])
            top = max(cnt.values())
            new[u] = min(lv for lv, c in cnt.items() if c == top)
        label = new
    nodes = sorted(label)
    return pa.table({
        "node": pa.array(nodes, pa.string()),
        "community": pa.array([label[u] for u in nodes], pa.string()),
    })



def golden_knn_stored() -> pa.Table:
    """Single-process mirror of the persisted-IVF query: same codebook
    training (deterministic seeded Lloyd on the first 4096 rows), same
    assignment, same probes, one full sort per query on the
    (score_e6 DESC, vec_id ASC) total order the distributed partial
    top-k cuts on."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.knn import (
        train_ivf_codebook,
    )

    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    vecs = np.asarray([np.asarray(v) for v in
                       t.column("embedding").to_pylist()],
                      dtype=np.float64)
    cents = train_ivf_codebook(vecs[:4096], n_cells=16, seed=13)
    norm = vecs / np.clip(np.linalg.norm(vecs, axis=1, keepdims=True),
                          1e-12, None)
    assign = np.argmax(norm @ cents.T, axis=1)
    queries = vecs[:3]
    qn = queries / np.clip(
        np.linalg.norm(queries, axis=1, keepdims=True), 1e-12, None)
    rows = []
    for qi in range(3):
        probes = np.argsort(-(qn[qi] @ cents.T))[:4]
        cand = np.isin(assign, probes)
        s_e6 = np.floor(norm[cand] @ qn[qi] * 1e6 + 0.5).astype(np.int64)
        cid = ids[cand]
        order = np.lexsort((cid, -s_e6))[:10]
        for r, j in enumerate(order, 1):
            rows.append((qi, r, int(cid[j]), int(s_e6[j])))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "rank": pa.array([r[1] for r in rows], pa.int64()),
        "vec_id": pa.array([r[2] for r in rows], pa.int64()),
        "score_e6": pa.array([r[3] for r in rows], pa.int64()),
    })


def golden_knn_stored_pq() -> pa.Table:
    """Single-process mirror of the PQ-coded store query
    (q_knn_stored_pq): same seeded coarse + residual-PQ codebooks, same
    per-cell residual encoding (_encode_pq_residual), the same ADC
    shortlist cut on (approx_e6 DESC, vec_id ASC), then the exact
    re-rank on (score_e6 DESC, vec_id ASC) — both total orders the
    distributed partial cuts equal by the knn_stored argument."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.knn import (
        train_ivf_codebook,
        train_pq_codebook,
    )
    from calendar_event_entity_extraction_ray.stages.vecstore import (
        _encode_pq_residual,
    )

    t = pq.read_table(f"{SF_DIR}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t.column("vec_id").to_numpy()
    vecs = np.asarray([np.asarray(v) for v in
                       t.column("embedding").to_pylist()],
                      dtype=np.float64)
    cents = train_ivf_codebook(vecs[:4096], n_cells=16, seed=13)
    sn = vecs[:4096] / np.clip(
        np.linalg.norm(vecs[:4096], axis=1, keepdims=True), 1e-12, None)
    res = sn - cents[np.argmax(sn @ cents.T, axis=1)]
    cb = train_pq_codebook(res, m=8, n_codes=256, seed=13,
                           normalize=False)
    m, _, sub_d = cb.shape
    norm = vecs / np.clip(np.linalg.norm(vecs, axis=1, keepdims=True),
                          1e-12, None)
    assign = np.argmax(norm @ cents.T, axis=1)
    codes = np.vstack([
        _encode_pq_residual(vecs[assign == c], cents[c], cb)
        if (assign == c).any() else np.empty((0, m), np.uint8)
        for c in range(len(cents))])
    order_by_cell = np.concatenate(
        [np.flatnonzero(assign == c) for c in range(len(cents))])
    k, n_probe, rerank = 10, 4, 4
    queries = vecs[:3]
    qn = queries / np.clip(
        np.linalg.norm(queries, axis=1, keepdims=True), 1e-12, None)
    rows = []
    gather = np.arange(m)
    for qi in range(3):
        probes = np.argsort(-(qn[qi] @ cents.T))[:n_probe]
        qsub = qn[qi].reshape(m, sub_d)
        lut = np.einsum("jd,jcd->jc", qsub, cb)
        a_parts, i_parts = [], []
        for c in probes:
            sel = np.flatnonzero(assign[order_by_cell] == c)
            if not len(sel):
                continue
            cc = codes[sel].astype(np.int64)
            base = float(qn[qi] @ cents[c])
            approx = base + lut[gather[:, None], cc.T].sum(axis=0)
            a_parts.append(np.floor(approx * 1e6 + 0.5).astype(np.int64))
            i_parts.append(ids[order_by_cell][sel])
        a_all = np.concatenate(a_parts)
        i_all = np.concatenate(i_parts)
        short = np.lexsort((i_all, -a_all))[:rerank * k]
        sids = i_all[short]
        pos = {int(v): j for j, v in enumerate(ids)}
        mat = norm[[pos[int(s)] for s in sids]]
        s_e6 = np.floor(mat @ qn[qi] * 1e6 + 0.5).astype(np.int64)
        cut = np.lexsort((sids, -s_e6))[:k]
        for r, j in enumerate(cut, 1):
            rows.append((qi, r, int(sids[j]), int(s_e6[j])))
    return pa.table({
        "query_id": pa.array([r[0] for r in rows], pa.int64()),
        "rank": pa.array([r[1] for r in rows], pa.int64()),
        "vec_id": pa.array([r[2] for r in rows], pa.int64()),
        "score_e6": pa.array([r[3] for r in rows], pa.int64()),
    })


def golden_pagerank_dups() -> pa.Table:
    """Single-process mirror of q_pagerank: brute-force cosine>=0.3 pair
    graph (same float64 normalization + matmul as _embedding_pairs_ds),
    then the SAME _pagerank_single kernel the small-graph path runs."""
    from calendar_event_entity_extraction_ray.stages.graph import (
        _pagerank_single,
    )

    df = _embeddings()
    ids = df["vec_id"].to_numpy()
    mat = np.stack(df["embedding"].to_numpy()).astype(np.float64)
    mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
    sims = mat @ mat.T
    ai, bj = np.where(sims >= 0.3)
    keep = ids[ai] < ids[bj]
    a, b = ids[ai][keep], ids[bj][keep]
    sym = pa.table({
        "node": pa.array(np.concatenate([a, b]), pa.int64()),
        "dst": pa.array(np.concatenate([b, a]), pa.int64()),
    })
    return _pagerank_single(sym, 0.85, 10)


def golden_media_resampled() -> pa.Table:
    """Single-process mirror of q_media_resampled: the same ResampleAudio
    kernel + decode over the same fixture."""
    from calendar_event_entity_extraction_ray.functions.audiocodec import (
        audio_stats,
        decode_wav,
        is_wav,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        ResampleAudio,
        synth_media_table,
    )

    out = ResampleAudio(rate=4000)(synth_media_table(N_MEDIA))
    ids, rates, counts, rms = [], [], [], []
    for i, kind, p in zip(out.column("media_id").to_pylist(),
                          out.column("kind").to_pylist(),
                          out.column("payload").to_pylist()):
        if kind != "audio" or p is None or not is_wav(p):
            continue
        samples, rate = decode_wav(p)
        st = audio_stats(samples, rate)
        ids.append(i)
        rates.append(rate)
        counts.append(len(samples))
        rms.append(st["rms_e4"])
    return pa.table({"media_id": pa.array(ids, pa.int64()),
                     "rate": pa.array(rates, pa.int64()),
                     "n_samples": pa.array(counts, pa.int64()),
                     "rms_e4": pa.array(rms, pa.int64())})


def golden_model_scored_docs() -> pa.Table:
    """Single-process run of the SAME deterministic scorer class the
    actor pool hosts (stages/model_stage.py) — seed-pinned weights, so
    distributed == sequential bit-for-bit (same params as the query)."""
    from calendar_event_entity_extraction_ray.stages.model_stage import (
        DummyModelScorer,
    )

    df = _documents()
    scorer = DummyModelScorer(seed=42)   # full 256 MB default weights
    return scorer(pa.Table.from_pandas(df, preserve_index=False))


def golden_training_sequences() -> pa.Table:
    """Sequential mirror of pipelines/traindata.py:training_sequences:
    id-hash split -> quality/langid -> exact first-wins dedup -> minhash
    cluster-keeper drop -> 4-gram decontam vs raw eval -> first-fit pack
    (capacity 256, bucket 32) -> per-(bucket, bin) ordered concat."""
    import hashlib

    from calendar_event_entity_extraction_ray.pipelines.corpus import (
        langid_filter_batch,
        quality_filter_batch,
    )

    df = _documents()
    bucket10k = df["doc_id"].map(
        lambda d: int(hashlib.md5(str(d).encode()).hexdigest()[:8], 16)
        % 10000)
    train = df[bucket10k < 7500]
    ev = df[(bucket10k >= 7500) & (bucket10k < 9000)]

    clean = langid_filter_batch(quality_filter_batch(train))
    clean = clean.sort_values("doc_id").drop_duplicates("text", keep="first")
    dropped = _minhash_drop_ids(clean["doc_id"], clean["text"])
    clean = clean[~clean["doc_id"].isin(dropped)]

    def grams(text: str, n: int = 4) -> set:
        toks = text.split(" ")
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    ev_grams: set = set()
    for t in ev["text"]:
        if t is not None:
            ev_grams |= grams(t)
    keep = [t is not None and not (grams(t) & ev_grams)
            for t in clean["text"]]
    clean = clean[keep]

    rows = []
    clean = clean.sort_values("doc_id")
    clean["bucket"] = clean["doc_id"] // 32
    for bk, g in clean.groupby("bucket"):
        acc, binno, first = 0, 0, True
        for _, r in g.iterrows():
            ntok = len(r["text"].split(" "))
            if not first and acc + ntok > 256:
                binno += 1
                acc = 0
            first = False
            acc += ntok
            rows.append((int(bk), binno, int(r["doc_id"]), ntok, r["text"]))
    out = pd.DataFrame(rows, columns=["bucket", "bin", "doc_id", "ntok",
                                      "text"])
    g = out.groupby(["bucket", "bin"], sort=True)
    agg = g.agg(n_docs=("doc_id", "count"), n_tok=("ntok", "sum"),
                seq_text=("text", "\n".join)).reset_index()
    return pa.table({
        "bucket": pa.array(agg["bucket"], pa.int64()),
        "bin": pa.array(agg["bin"], pa.int64()),
        "n_docs": pa.array(agg["n_docs"], pa.int64()),
        "n_tok": pa.array(agg["n_tok"], pa.int64()),
        "seq_text": pa.array(agg["seq_text"], pa.string()),
    })


def golden_compression_ratio() -> pa.Table:
    """Single-process mirror of q_compression_ratio: per-doc zlib(level 6)
    compression ratio in exact integer basis points (clen*1e4 // blen).
    Deterministic for the container's zlib; the distributed run and this
    golden share it, and test_golden_oracles re-derives on every run."""
    import zlib

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids, cbytes, ratios = [], [], []
    for doc_id, text in zip(t.column("doc_id").to_pylist(),
                            t.column("text").to_pylist()):
        raw = (text or "").encode("utf-8")
        clen = len(zlib.compress(raw, 6))
        ids.append(doc_id)
        cbytes.append(clen)
        ratios.append(clen * 10_000 // len(raw) if raw else 0)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "c_bytes": pa.array(cbytes, pa.int64()),
                     "ratio_e4": pa.array(ratios, pa.int64())})


def golden_lm_scored_docs() -> pa.Table:
    """Single-process mirror of q_lm_scored_docs: exact gram counts over
    the lang=='en' subset via the SAME pure kernels the distributed op
    uses (stages/lmfilter.py), then per-doc scoring in doc_id file order.
    Integer counts commute, the per-doc float64 sum runs in document
    order on both sides — bit-identical by construction."""
    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        build_lm_table,
        gram_counts,
        score_texts,
    )

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    texts = t.column("text").to_pylist()
    langs = t.column("lang").to_pylist()
    uni, bi = gram_counts(x for x, lg in zip(texts, langs) if lg == "en")
    table = build_lm_table(uni, bi)
    ids, lps, nbs = score_texts(t.column("doc_id").to_pylist(), texts, table)
    return pa.table({"doc_id": pa.array(ids, pa.int64()),
                     "lm_logp_e6": pa.array(lps, pa.int64()),
                     "n_bigrams": pa.array(nbs, pa.int64())})


def _dsir_mirror():
    """Shared single-process mirror of the DSIR queries: exact bucket
    counts and scores via the SAME pure kernels the distributed op uses
    (stages/dsir.py) — integer partials commute, lam/gumbel float chains
    are the shared functions, so both sides are bit-identical by
    construction."""
    from calendar_event_entity_extraction_ray.stages.dsir import (
        bucket_count_partial,
        dsir_doc_scores,
        lam_e6_table,
    )

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text", "lang"])
    texts = t.column("text").to_pylist()
    langs = t.column("lang").to_pylist()
    ids = t.column("doc_id").to_pylist()
    p = bucket_count_partial(
        (x for x, lg in zip(texts, langs) if lg == "en"), 4096)
    q = bucket_count_partial(texts, 4096)
    lam = lam_e6_table(p, q)
    kept, sc, ng = dsir_doc_scores(ids, texts, lam)
    return kept, sc, ng


def golden_dsir_scored_docs() -> pa.Table:
    kept, sc, ng = _dsir_mirror()
    return pa.table({"doc_id": pa.array(kept, pa.int64()),
                     "dsir_logratio_e6": pa.array(sc, pa.int64()),
                     "n_grams": pa.array(ng, pa.int64())})


def golden_dsir_selected_docs() -> pa.Table:
    from calendar_event_entity_extraction_ray.stages.dsir import gumbel_keys

    kept, sc, ng = _dsir_mirror()
    df = pd.DataFrame({"doc_id": kept, "dsir_logratio_e6": sc,
                       "n_grams": ng, "_k": gumbel_keys(kept, sc)})
    df = (df.sort_values(["_k", "doc_id"], ascending=[False, True])
          .head(100).drop(columns=["_k"]))
    return pa.Table.from_pandas(df, preserve_index=False)


def golden_semdedup_embeddings() -> pa.Table:
    """Single-process mirror of q_semdedup_embeddings: sequential kmeans
    labels + the same cluster_drop_ids kernel (stages/semdedup.py)."""
    from calendar_event_entity_extraction_ray.stages.semdedup import (
        semdedup_single_process,
    )

    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    vecs = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    dd, ll = semdedup_single_process(ids, vecs, k=8, tau=0.3)
    return pa.table({"vec_id": pa.array(dd, pa.int64()),
                     "cluster": pa.array(ll, pa.int64())})


def golden_semdedup_incremental() -> pa.Table:
    """Single-process mirror of q_semdedup_incremental: two vec_id-parity
    epochs replayed sequentially through embstore_single_process (frozen
    first-epoch centroids + the shared incremental_drop_mask kernel)."""
    from calendar_event_entity_extraction_ray.stages.embstore import (
        embstore_single_process,
    )

    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"),
                      columns=["vec_id", "embedding"])
    ids = np.asarray(t.column("vec_id").to_pylist(), dtype=np.int64)
    vecs = np.asarray(t.column("embedding").to_pylist(), dtype=np.float64)
    epochs = [(ids[ids % 2 == 0], vecs[ids % 2 == 0]),
              (ids[ids % 2 == 1], vecs[ids % 2 == 1])]
    surv = embstore_single_process(epochs, k=8, tau=0.3)
    out_ids = np.concatenate(surv)
    out_ep = (["e1"] * len(surv[0])) + (["e2"] * len(surv[1]))
    return pa.table({"vec_id": pa.array(out_ids, pa.int64()),
                     "epoch": pa.array(out_ep, pa.string())})


def _bpe_mirror():
    """Single-process mirror of the BPE trainer: Counter histogram over
    every text, then the SAME cap/merge kernels (functions/bpe.py) the
    distributed trainer calls — exact counts + the shared (count DESC,
    word ASC) cap rule make both sides' capped histograms, hence merges,
    identical by construction. (n_merges, top_k) pinned to
    catalog/corpus.py:_bpe_model's values."""
    from calendar_event_entity_extraction_ray.functions.bpe import (
        cap_word_counts,
        learn_bpe,
        word_counts,
    )

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    texts = t.column("text").to_pylist()
    capped = cap_word_counts(word_counts(texts), 20_000)
    merges = learn_bpe(capped, 200)
    return t, merges


def golden_bpe_merges() -> pa.Table:
    _, merges = _bpe_mirror()
    return pa.table({
        "rank": pa.array(range(len(merges)), pa.int64()),
        "lhs": pa.array([a for a, _ in merges], pa.string()),
        "rhs": pa.array([b for _, b in merges], pa.string()),
    })


def golden_bpe_tokenized_docs() -> pa.Table:
    """Mirror of q_bpe_tokenized_docs: encode every doc through the same
    encode_text kernel + siphash fingerprint in doc file order."""
    import numpy as np

    from calendar_event_entity_extraction_ray.functions.bpe import (
        encode_text,
    )
    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        hash_strs,
    )

    t, merges = _bpe_mirror()
    ranks = {p: i for i, p in enumerate(merges)}
    cache: dict = {}
    toks = [encode_text(x, ranks, cache)
            for x in t.column("text").to_pylist()]
    fp = hash_strs([" ".join(x) for x in toks]).view(np.int64)
    return pa.table({
        "doc_id": t.column("doc_id"),
        "n_tokens": pa.array([len(x) for x in toks], pa.int64()),
        "tokens_fp": pa.array(fp, pa.int64()),
    })


def _unigram_mirror():
    """Single-process mirror of the unigram-LM trainer: Counter
    histogram over every text, then the SAME cap/EM kernels
    (functions/unigram.py) the distributed trainer calls — exact counts
    + the shared cap rule hand both sides the same word-type table, and
    everything after is one pure single-process float chain. (vocab_size,
    top_k) pinned to catalog/corpus.py:_unigram_model's values."""
    from calendar_event_entity_extraction_ray.functions.bpe import (
        cap_word_counts,
        word_counts,
    )
    from calendar_event_entity_extraction_ray.functions.unigram import (
        em_train,
    )

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    capped = cap_word_counts(
        word_counts(t.column("text").to_pylist()), 20_000)
    logp, unk = em_train(capped, vocab_size=800)
    return t, logp, unk


def golden_unigram_vocab() -> pa.Table:
    import numpy as np

    _, logp, _ = _unigram_mirror()
    pieces = sorted(logp)
    lp = np.array([logp[p] for p in pieces], dtype=np.float64)
    return pa.table({
        "piece": pa.array(pieces, pa.string()),
        "logp_e6": pa.array(np.floor(lp * 1e6 + 0.5).astype(np.int64),
                            pa.int64()),
    })


def golden_unigram_tokenized_docs() -> pa.Table:
    """Mirror of q_unigram_tokenized_docs: Viterbi-encode every doc
    through the same encode_text_unigram kernel + siphash fingerprint
    in doc file order."""
    import numpy as np

    from calendar_event_entity_extraction_ray.functions.unigram import (
        encode_text_unigram,
    )
    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        hash_strs,
    )

    t, logp, unk = _unigram_mirror()
    enc = [encode_text_unigram(x, logp, 6, unk)
           for x in t.column("text").to_pylist()]
    fp = hash_strs([s for _, s in enc]).view(np.int64)
    return pa.table({
        "doc_id": t.column("doc_id"),
        "n_pieces": pa.array([n for n, _ in enc], pa.int64()),
        "pieces_fp": pa.array(fp, pa.int64()),
    })


def golden_unigram_token_batches_seqs() -> pa.Table:
    """Mirror of q_unigram_token_batches_seqs: the unigram mirror's
    trained table feeds the same Viterbi encode / id-map kernels over
    the sequential training_sequences mirror."""
    import numpy as np

    from calendar_event_entity_extraction_ray.functions.tokenizer import (
        ToyTokenizer,
    )
    from calendar_event_entity_extraction_ray.functions.unigram import (
        pretokenize,
        viterbi_pieces,
    )
    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        hash_strs,
    )

    _, logp, unk = _unigram_mirror()
    id_of = {p: i + ToyTokenizer.N_SPECIAL
             for i, p in enumerate(sorted(logp))}
    seqs = golden_training_sequences()
    seq_len = 256
    wcache: dict = {}
    n_ids, fps = [], []
    for text in seqs.column("seq_text").to_pylist():
        ids = []
        for w in pretokenize(text or ""):
            hit = wcache.get(w)
            if hit is None:
                hit = viterbi_pieces(w, logp, 6, unk)
                wcache[w] = hit
            ids.extend(id_of.get(p, 3) for p in hit)
        ids = ids[:seq_len]
        n_ids.append(len(ids))
        fps.append(" ".join(map(str, ids)))
    n = np.asarray(n_ids, dtype=np.int64)
    return pa.table({
        "bucket": seqs.column("bucket"),
        "bin": seqs.column("bin"),
        "n_ids": pa.array(n, pa.int64()),
        "n_pad": pa.array(seq_len - n, pa.int64()),
        "ids_fp": pa.array(hash_strs(fps).view(np.int64), pa.int64()),
    })


def _brute_hamming_pairs(ids, hashes, max_dist) -> pa.Table:
    """Independent O(n^2) mirror of the banded hamming join: verifies the
    PLAN (pigeonhole banding + exchange), not just the kernels."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.hamming import (
        popcount64,
    )

    ids = np.asarray(ids, dtype=np.int64)
    h = np.asarray(hashes, dtype=np.uint64)
    ia, ib, dd = [], [], []
    for i in range(len(ids)):
        d = popcount64(h[i] ^ h[i + 1:])
        hit = np.nonzero(d <= max_dist)[0]
        ia.extend([ids[i]] * len(hit))
        ib.extend(ids[i + 1 + hit])
        dd.extend(d[hit])
    a = np.minimum(ia, ib) if ia else np.array([], dtype=np.int64)
    b = np.maximum(ia, ib) if ia else np.array([], dtype=np.int64)
    return pa.table({"id_a": pa.array(np.asarray(a, np.int64)),
                     "id_b": pa.array(np.asarray(b, np.int64)),
                     "dist": pa.array(np.asarray(dd, np.int64))})


def golden_phash_dup_images() -> pa.Table:
    from calendar_event_entity_extraction_ray.functions.imagecodec import (
        decode_ppm,
        is_ppm,
        phash64,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        synth_media_with_twins,
    )

    t = synth_media_with_twins(N_MEDIA)
    ids, hs = [], []
    for i, kind, p in zip(t.column("media_id").to_pylist(),
                          t.column("kind").to_pylist(),
                          t.column("payload").to_pylist()):
        if kind == "image" and p is not None and is_ppm(p):
            ids.append(i)
            hs.append(phash64(decode_ppm(p)))
    return _brute_hamming_pairs(ids, hs, 6)


def golden_token_batches_seqs() -> pa.Table:
    """Mirror of q_token_batches_seqs: the sequential training_sequences
    mirror feeds the same encode/pad/fp kernels single-process."""
    import numpy as np

    from calendar_event_entity_extraction_ray.functions.tokenizer import (
        ToyTokenizer,
    )
    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        hash_strs,
    )

    seqs = golden_training_sequences()
    tok = ToyTokenizer(32768)
    seq_len = 256
    n_ids, fps = [], []
    for text in seqs.column("seq_text").to_pylist():
        ids = tok.encode(text or "")[:seq_len]
        n_ids.append(len(ids))
        fps.append(" ".join(map(str, ids)))
    n = np.asarray(n_ids, dtype=np.int64)
    return pa.table({
        "bucket": seqs.column("bucket"),
        "bin": seqs.column("bin"),
        "n_ids": pa.array(n, pa.int64()),
        "n_pad": pa.array(seq_len - n, pa.int64()),
        "ids_fp": pa.array(hash_strs(fps).view(np.int64)
                           if fps else [], pa.int64()),
    })


def golden_bpe_token_batches_seqs() -> pa.Table:
    """Mirror of q_bpe_token_batches_seqs: the BPE mirror's merges feed
    the same encode/id-map kernels over the sequential
    training_sequences mirror."""
    import numpy as np

    from calendar_event_entity_extraction_ray.functions.bpe import (
        encode_text,
    )
    from calendar_event_entity_extraction_ray.functions.tokenizer import (
        ToyTokenizer,
    )
    from calendar_event_entity_extraction_ray.functions.bpe import (
        build_vocab,
        cap_word_counts,
        word_counts,
    )
    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        hash_strs,
    )

    t, merges = _bpe_mirror()
    capped = cap_word_counts(
        word_counts(t.column("text").to_pylist()), 20_000)
    vocab = build_vocab(capped, merges)
    ranks = {p: i for i, p in enumerate(merges)}
    id_of = {tk: i + ToyTokenizer.N_SPECIAL for i, tk in enumerate(vocab)}
    seqs = golden_training_sequences()
    seq_len = 256
    cache: dict = {}
    n_ids, fps = [], []
    for text in seqs.column("seq_text").to_pylist():
        ids = [id_of.get(x, 3)
               for x in encode_text(text or "", ranks, cache)][:seq_len]
        n_ids.append(len(ids))
        fps.append(" ".join(map(str, ids)))
    n = np.asarray(n_ids, dtype=np.int64)
    return pa.table({
        "bucket": seqs.column("bucket"),
        "bin": seqs.column("bin"),
        "n_ids": pa.array(n, pa.int64()),
        "n_pad": pa.array(seq_len - n, pa.int64()),
        "ids_fp": pa.array(hash_strs(fps).view(np.int64)
                           if fps else [], pa.int64()),
    })


def golden_simhash_dedup_docs() -> pa.Table:
    """Independent mirror of the cluster-keeper simhash dedup: brute
    all-pairs popcount + a plain union-find, keep the min id per
    component."""
    import numpy as np

    from calendar_event_entity_extraction_ray.functions.dedup import (
        simhash64,
    )
    from calendar_event_entity_extraction_ray.stages.hamming import (
        popcount64,
    )

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = np.asarray(t.column("doc_id").to_pylist(), dtype=np.int64)
    h = np.asarray([simhash64(x or "")
                    for x in t.column("text").to_pylist()], dtype=np.uint64)
    parent = {int(i): int(i) for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i in range(len(ids)):
        d = popcount64(h[i] ^ h[i + 1:])
        for j in np.nonzero(d <= 3)[0]:
            ra, rb = find(int(ids[i])), find(int(ids[i + 1 + j]))
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    kept = sorted(i for i in parent if find(i) == i)
    return pa.table({"doc_id": pa.array(kept, pa.int64())})


def golden_afp_dup_audio() -> pa.Table:
    from calendar_event_entity_extraction_ray.functions.audiocodec import (
        afp64,
        decode_wav,
        is_wav,
    )
    from calendar_event_entity_extraction_ray.stages.multimodal import (
        synth_media_with_audio_twins,
    )

    t = synth_media_with_audio_twins(N_MEDIA)
    ids, hs = [], []
    for i, kind, p in zip(t.column("media_id").to_pylist(),
                          t.column("kind").to_pylist(),
                          t.column("payload").to_pylist()):
        if kind == "audio" and p is not None and is_wav(p):
            ids.append(i)
            hs.append(afp64(decode_wav(p)[0]))
    return _brute_hamming_pairs(ids, hs, 8)


def golden_simhash_near_docs() -> pa.Table:
    from calendar_event_entity_extraction_ray.functions.dedup import (
        simhash64,
    )

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    ids = t.column("doc_id").to_pylist()
    hs = [simhash64(x or "") for x in t.column("text").to_pylist()]
    return _brute_hamming_pairs(ids, hs, 3)


def golden_cdc_dedup_docs() -> pa.Table:
    """Sequential exact mirror of stages/cdcdedup.py:cdc_dedup_docs over
    the sf0.01 documents: same chunker kernel (chunk_doc), but first-wins
    keyed on the RAW CHUNK BYTES — stronger than the engine's 128-bit
    hash identity, so a hash collision in the distributed path would
    surface here as a mismatch."""
    from calendar_event_entity_extraction_ray.stages.cdcdedup import (
        chunk_doc,
    )

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    docs = sorted(zip(t.column("doc_id").to_pylist(),
                      t.column("text").to_pylist()))
    seen = set()
    rows = []
    for doc_id, text in docs:
        chunks = chunk_doc((text or "").encode("utf-8"))
        if not chunks:
            continue
        n_dup = dup_b = 0
        for c in chunks:
            if c in seen:
                n_dup += 1
                dup_b += len(c)
            else:
                seen.add(c)
        rows.append((doc_id, len(chunks), sum(len(c) for c in chunks),
                     n_dup, dup_b))
    return pa.table({
        "doc_id": pa.array([r[0] for r in rows], pa.int64()),
        "n_chunks": pa.array([r[1] for r in rows], pa.int64()),
        "total_bytes": pa.array([r[2] for r in rows], pa.int64()),
        "n_dup_chunks": pa.array([r[3] for r in rows], pa.int64()),
        "dup_bytes": pa.array([r[4] for r in rows], pa.int64()),
    })


def golden_entity_registry() -> pa.Table:
    """Sequential replay of the incremental registry semantics
    (stages/entityreg.py docstring) over the two p_partkey-parity
    epochs: brute-force dp_distance pairs (independent of the engine's
    SymSpell blocking + Myers kernel), union-find components, min-member
    minting, min-old-canonical adoption, ids frozen once registered."""
    from calendar_event_entity_extraction_ray.functions.editdist import (
        dp_distance,
    )

    t = pq.read_table(os.path.join(SF_DIR, "part.parquet"),
                      columns=["p_partkey", "p_name"])
    keys = t.column("p_partkey").to_pylist()
    names = t.column("p_name").to_pylist()
    epochs = [sorted({n for k, n in zip(keys, names)
                      if k % 2 == par and n is not None})
              for par in (0, 1)]
    registry: dict = {}
    for ep in epochs:
        new = [s for s in ep if s not in registry]
        parent = {s: s for s in new}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(len(new)):
            for j in range(i + 1, len(new)):
                if dp_distance(new[i], new[j]) <= 1:
                    ra, rb = find(new[i]), find(new[j])
                    if ra != rb:
                        parent[max(ra, rb)] = min(ra, rb)
        clusters: dict = {}
        for s in new:
            clusters.setdefault(find(s), []).append(s)
        old_surfaces = sorted(registry)
        for members in clusters.values():
            adj = sorted({registry[o] for m in members
                          for o in old_surfaces if dp_distance(m, o) <= 1})
            canon = adj[0] if adj else min(members)
            for m_ in members:
                registry[m_] = canon
    surfs = sorted(registry)
    return pa.table({
        "surface": pa.array(surfs, pa.string()),
        "entity_id": pa.array([registry[s] for s in surfs], pa.string()),
    })


GOLDENS = {
    "kg_flagship": golden_kg_flagship,
    "cdc_dedup_docs": golden_cdc_dedup_docs,
    "entity_registry": golden_entity_registry,
    "bpe_merges": golden_bpe_merges,
    "bpe_tokenized_docs": golden_bpe_tokenized_docs,
    "unigram_vocab": golden_unigram_vocab,
    "unigram_tokenized_docs": golden_unigram_tokenized_docs,
    "phash_dup_images": golden_phash_dup_images,
    "afp_dup_audio": golden_afp_dup_audio,
    "simhash_near_docs": golden_simhash_near_docs,
    "simhash_dedup_docs": golden_simhash_dedup_docs,
    "token_batches_seqs": golden_token_batches_seqs,
    "bpe_token_batches_seqs": golden_bpe_token_batches_seqs,
    "unigram_token_batches_seqs": golden_unigram_token_batches_seqs,
    "lm_scored_docs": golden_lm_scored_docs,
    "dsir_scored_docs": golden_dsir_scored_docs,
    "dsir_selected_docs": golden_dsir_selected_docs,
    "semdedup_embeddings": golden_semdedup_embeddings,
    "semdedup_incremental": golden_semdedup_incremental,
    "compression_ratio_docs": golden_compression_ratio,
    "training_sequences": golden_training_sequences,
    "model_scored_docs": golden_model_scored_docs,
    "simhash_docs": golden_simhash_docs,
    "langid_docs": golden_langid_docs,
    "fingerprint_docs": golden_fingerprint_docs,
    "minhash_dedup_docs": golden_minhash_dedup_docs,
    "embedding_dups_lsh": golden_embedding_dups_lsh,
    "knn_lsh": golden_knn_lsh,
    "knn_ivf": golden_knn_ivf,
    "knn_pq": golden_knn_pq,
    "knn_ivfpq": golden_knn_ivfpq,
    "jaccard_pairs_docs": golden_jaccard_pairs_docs,
    "corpus_clean": golden_corpus_clean,
    "augment_records": golden_augment_records,
    "eval_metrics": golden_eval_metrics,
    "media_features": golden_media_features,
    "media_frames": golden_media_frames,
    "tokenize_records": golden_tokenize_records,
    "chatml_records": golden_chatml_records,
    "kmeans_labels": golden_kmeans_labels,
    "pagerank_dups": golden_pagerank_dups,
    "kg_attendee_kcore": golden_kg_attendee_kcore,
    "kg_attendee_walks": golden_kg_attendee_walks,
    "kg_attendee_communities": golden_kg_attendee_communities,
    "knn_stored": golden_knn_stored,
    "knn_stored_pq": golden_knn_stored_pq,
    "media_resampled": golden_media_resampled,
}


def main() -> int:
    only = set(sys.argv[1:])
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name, fn in GOLDENS.items():
        if only and name not in only:
            continue
        t = fn()
        path = os.path.join(GOLDEN_DIR, f"{name}.parquet")
        pq.write_table(t, path)
        print(f"{name}: {t.num_rows} rows -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
