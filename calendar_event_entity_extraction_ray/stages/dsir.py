"""DSIR — Data Selection with Importance Resampling (Xie et al. 2023,
"Data Selection for Language Models via Importance Resampling"): pick raw
web documents whose hashed-n-gram distribution looks like a trusted target
corpus.

Reference anchor: the reference filters records by extraction quality
(src/evaluate_baseline.py); this is the corpus-scale selection step a
pretraining pipeline runs over raw web text, expressed Ray-Data-first:

  - FEATURES are unigram+bigram counts hashed into ``num_buckets`` buckets
    (the paper's hashed n-gram parameterization). Grams reuse the
    repo-wide tokenization (``text.split(' ')``, empties kept) and the
    process-stable 64-bit siphash (stages/lmfilter.py:hash_strs — NEVER
    Python's salted ``hash()``).
  - TRAINING fits two bucket multinomials — target p and raw q — as
    per-batch ``np.bincount`` partials reduced by grouped_sums with
    ``stream_reduce=True`` (bucket cardinality is a fixed few thousand:
    enum-sized, the documented stream-reduce regime). Each corpus pass
    ships |buckets| x |batches| partial rows no matter how many documents
    flow through.
  - The per-bucket log importance ratio is published as a SCALED INTEGER
    table ``lam_e6[b] = floor(1e6 * (ln(p_b+a) - ln(P+aB) - ln(q_b+a)
    + ln(Q+aB)) + 0.5)`` computed once driver-side on the kilobyte bucket
    vector and broadcast as one numpy array (plasma zero-copy). Per-doc
    scores are int64 SUMS of lam_e6 over gram occurrences — integer
    addition commutes, so distributed scores are bit-identical to the
    single-process golden mirror regardless of partitioning.
  - RESAMPLING is Gumbel top-k (sampling without replacement with
    probability proportional to the importance weight): key_i =
    logratio_i + Gumbel(u_i) with the deterministic md5-driven uniform of
    the A-ES weighted sampler (catalog/corpus.py:q_weighted_sample_docs).
    Distributed as a partial top-k per block + one tiny final fold — no
    global sort, nothing driver-side grows with the corpus.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, List, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from calendar_event_entity_extraction_ray.stages.lmfilter import (
    gram_counts,
    hash_strs,
)

# -- pure kernels (shared with the single-process golden mirror) -----------


def _flat_buckets(texts: Iterable[str], num_buckets: int):
    """One flattened bucket-id pass over a batch of docs (the
    stages/lmfilter.py scoring shape — cheap list extends per doc, ONE
    siphash pass per batch). Bigram buckets come from a golden-ratio
    multiply-add MIX of the two adjacent RAW unigram hashes instead of
    hashing constructed "a b" strings — string build + second hash pass
    measured 4x the whole kernel; the mix is equally uniform for a
    bucket assignment and bigrams never materialize. Doc-boundary pairs
    are masked out vectorized. Returns (kept_positions, uni_buckets,
    bi_buckets, uni_lens, bi_lens) — gram OCCURRENCES in doc order,
    multiplicity kept (DSIR features are counts, not presence)."""
    kept: List[int] = []
    uni: List[str] = []
    ulens_l: List[int] = []
    for j, txt in enumerate(texts):
        if not isinstance(txt, str):
            continue
        ws = txt.split(" ")
        uni.extend(ws)
        ulens_l.append(len(ws))
        kept.append(j)
    ulens = np.asarray(ulens_l, np.int64)
    nb = np.uint64(num_buckets)
    hraw = hash_strs(uni) if uni else np.zeros(0, np.uint64)
    hu = (hraw % nb).astype(np.int64)
    if len(hraw) > 1:
        with np.errstate(over="ignore"):  # uint64 wrap IS the mix
            mixed = (hraw[:-1] * np.uint64(0x9E3779B97F4A7C15)
                     + hraw[1:])
        pair_ok = np.ones(len(hraw) - 1, dtype=bool)
        ends = np.cumsum(ulens) - 1  # flat index of each doc's last token
        pair_ok[ends[:-1]] = False   # pairs straddling a doc boundary
        hb = (mixed[pair_ok] % nb).astype(np.int64)
    else:
        hb = np.zeros(0, np.int64)
    return kept, hu, hb, ulens, ulens - 1


def _segment_sums(vals: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Exact int64 per-segment sums (cumsum difference — safe for
    zero-length segments, unlike np.add.reduceat)."""
    ends = np.cumsum(lens)
    csum = np.concatenate([[0], np.cumsum(vals, dtype=np.int64)])
    return csum[ends] - csum[ends - lens]


def bucket_count_partial(texts: Iterable[str],
                         num_buckets: int) -> np.ndarray:
    """Length-``num_buckets`` int64 count vector over a batch of docs."""
    _, hu, hb, _, _ = _flat_buckets(texts, num_buckets)
    return np.bincount(np.concatenate([hu, hb]),
                       minlength=num_buckets).astype(np.int64)


def lam_e6_table(p: np.ndarray, q: np.ndarray,
                 alpha: float = 1.0) -> np.ndarray:
    """Per-bucket scaled-int log importance ratio. ONE numpy expression —
    the golden mirror runs this same line, so the float path is shared."""
    b = float(len(p))
    lam = (np.log(p + alpha) - np.log(float(p.sum()) + alpha * b)
           - np.log(q + alpha) + np.log(float(q.sum()) + alpha * b))
    return np.floor(lam * 1_000_000 + 0.5).astype(np.int64)


def dsir_doc_scores(ids, texts, lam_e6: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(kept_ids, score_e6, n_grams) for one batch: per doc the int64 sum
    of lam_e6 over its gram occurrences — fully vectorized (one hash
    pass, two np.take gathers, two segment sums; integer addition
    commutes so the flattened order cannot change a result). Every str
    doc is scorable (the empty string still has one unigram)."""
    nb = len(lam_e6)
    kept, hu, hb, ulens, blens = _flat_buckets(texts, nb)
    if not kept:
        z = np.zeros(0, dtype=np.int64)
        return z, z.copy(), z.copy()
    scores = (_segment_sums(np.take(lam_e6, hu), ulens)
              + _segment_sums(np.take(lam_e6, hb), blens))
    ids_a = np.asarray([ids[j] for j in kept], dtype=np.int64)
    return ids_a, scores, ulens + blens


def gumbel_keys(ids: np.ndarray, score_e6: np.ndarray) -> np.ndarray:
    """Deterministic Gumbel-top-k key: logratio + Gumbel(0,1) with the
    md5-driven uniform of the A-ES sampler (u = (md5_32(id)+1)/2^32+1 —
    never 0 or 1, so both logs are finite). Both mirrors run THIS
    function, so the float chain is identical by construction."""
    v = np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                  for i in ids], dtype="float64")
    u = (v + 1.0) / 4294967297.0
    return score_e6.astype("float64") / 1_000_000.0 - np.log(-np.log(u))


# -- distributed operator ---------------------------------------------------


def bucket_counts(ds: "ray.data.Dataset", text_col: str,
                  num_buckets: int) -> np.ndarray:
    """Distributed exact bucket counts: per-batch bincount partials emitted
    as (bucket, n) rows, reduced inside ONE streaming plan (stream_reduce
    — bucket cardinality is fixed and small), densified driver-side."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    def partial(b: pa.Table) -> pa.Table:
        vec = bucket_count_partial(b.column(text_col).to_pylist(),
                                   num_buckets)
        nz = np.nonzero(vec)[0]
        return pa.table({"bucket": pa.array(nz, pa.int64()),
                         "n": pa.array(vec[nz], pa.int64())})

    rows = grouped_sums(ds.map_batches(partial, batch_format="pyarrow"),
                        ["bucket"], ["n"], count_alias="_nb",
                        stream_reduce=True).to_pandas()
    out = np.zeros(num_buckets, dtype=np.int64)
    out[rows["bucket"].to_numpy()] = rows["n"].to_numpy()
    return out


def dsir_score(
    target: "ray.data.Dataset",
    raw: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 4096,
    alpha: float = 1.0,
) -> "ray.data.Dataset":
    """Fit p on ``target`` and q on ``raw``, score every raw doc: returns
    (id, dsir_logratio_e6, n_grams). The lam table broadcasts once;
    nothing about ``raw`` shuffles."""
    import ray as _ray

    p = bucket_counts(target, text_col, num_buckets)
    q = bucket_counts(raw, text_col, num_buckets)
    lam_ref = _ray.put(lam_e6_table(p, q, alpha))

    def score(b: pa.Table) -> pa.Table:
        lam = _ray.get(lam_ref)  # once per task; worker-cached
        ids, sc, ng = dsir_doc_scores(b.column(id_col).to_pylist(),
                                      b.column(text_col).to_pylist(), lam)
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "dsir_logratio_e6": pa.array(sc, pa.int64()),
                         "n_grams": pa.array(ng, pa.int64())})

    return raw.map_batches(score, batch_format="pyarrow")


def dsir_select(
    target: "ray.data.Dataset",
    raw: "ray.data.Dataset",
    k: int,
    text_col: str = "text",
    id_col: str = "doc_id",
    num_buckets: int = 4096,
    alpha: float = 1.0,
) -> "ray.data.Dataset":
    """Gumbel-top-k importance resample: the k raw docs with the largest
    logratio + Gumbel(md5) key — a without-replacement sample with
    probability proportional to the importance weight. Partial top-k per
    block, one kilobyte-scale final fold."""
    scored = dsir_score(target, raw, text_col, id_col, num_buckets, alpha)

    def topk(b: pa.Table) -> pa.Table:
        ids = b.column(id_col).to_numpy()
        sc = b.column("dsir_logratio_e6").to_numpy()
        key = gumbel_keys(ids, sc)
        df = pd.DataFrame({id_col: ids, "dsir_logratio_e6": sc,
                           "n_grams": b.column("n_grams").to_numpy(),
                           "_k": key})
        df = df.sort_values(["_k", id_col],
                            ascending=[False, True]).head(k)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (scored.map_batches(topk, batch_format="pyarrow")
            .repartition(1)
            .map_batches(topk, batch_format="pyarrow", batch_size=None)
            .drop_columns(["_k"]))
