"""Text family: tokenizer training, importance resampling, PII
redaction, dictionary tagging."""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray

from calendar_event_entity_extraction_ray.stages.bpetrain import (
    bpe_tokenize,
    train_bpe,
)
from calendar_event_entity_extraction_ray.stages.dicttag import tag_documents
from calendar_event_entity_extraction_ray.stages.dsir import dsir_select
from calendar_event_entity_extraction_ray.stages.redact import redact_pii
from calendar_event_entity_extraction_ray.stages.unigramtrain import (
    train_unigram,
    unigram_tokenize,
)

from . import batch_sums, md5_rng

# word surface forms: pseudo-morphology so merges have real structure
_STEMS = ["data", "event", "model", "train", "token", "graph", "node",
          "user", "click", "page", "text", "word", "count", "merge",
          "batch", "shard", "index", "query", "value", "score"]
_SUFFIX = ["", "s", "ing", "ed", "er", "ly", "ion", "ness"]


def _vocab(n: int) -> np.ndarray:
    per = len(_STEMS) * len(_SUFFIX)
    return np.array([_STEMS[i % len(_STEMS)]
                     + _SUFFIX[(i // len(_STEMS)) % len(_SUFFIX)]
                     + (str(i // per) if i >= per else "")
                     for i in range(n)])


def _zipf_docs(batch: pa.Table, vocab: np.ndarray,
               n_words: int = 60) -> pa.Table:
    """Docs of 60 Zipf(1.3) draws over the vocab (clipped to its range):
    a natural-text-shaped histogram."""
    ids = batch.column("id").to_numpy()
    texts = []
    for i in ids:
        idx = np.minimum(md5_rng(f"bpe-{int(i)}").zipf(1.3, n_words) - 1,
                         len(vocab) - 1)
        texts.append(" ".join(vocab[idx]))
    return pa.table({"doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                     "text": pa.array(texts, pa.string())})


def _zipf_corpus(docs: int, vocab: int):
    return ray.data.range(docs).map_batches(
        _zipf_docs, fn_kwargs={"vocab": _vocab(vocab)},
        batch_format="pyarrow").materialize()


def _encode(encode, col: str) -> tuple:
    """(total of ``col`` over the ``encode()`` output, encode wall)."""
    t0 = time.time()
    n = 0
    for b in encode().iter_batches(batch_format="pyarrow", batch_size=None):
        n += int(np.sum(b.column(col).to_numpy(zero_copy_only=False)))
    return n, time.time() - t0


def bpe(ctx, *, docs=2_000_000, vocab=50_000, merges=500,
        top_k=30_000) -> dict:
    """BPE tokenizer training at corpus scale.

    N docs over a Zipf-distributed pseudo-morphological word vocabulary
    (natural-text-shaped histogram, so the top-K cap and the merge loop
    behave as on web text): trains the merge table, encodes the corpus,
    reports walls and coverage. Nothing is gated (ok once the run
    completes).
    """
    ds = _zipf_corpus(docs, vocab)
    t0 = time.time()
    model = train_bpe(ds, n_merges=merges, top_k=top_k)
    t_train = time.time() - t0
    n_tokens, t_enc = _encode(lambda: bpe_tokenize(ds, model), "n_tokens")
    return {"docs": docs, "n_merges": len(model.merges),
            "vocab_size": len(model.vocab),
            "coverage": round(model.kept_tokens / max(model.total_tokens, 1),
                              4),
            "train_sec": round(t_train, 1), "encode_sec": round(t_enc, 1),
            "encode_tokens_per_sec": int(n_tokens / max(t_enc, 1e-9)),
            "docs_per_sec_encode": int(docs / max(t_enc, 1e-9)), "ok": True}


def unigram(ctx, *, docs=2_000_000, vocab=50_000, pieces=4_000,
            top_k=30_000) -> dict:
    """Unigram-LM tokenizer training at corpus scale on the bpe op's
    Zipf corpus, trained with the Viterbi-EM unigram kernels, then a
    full-corpus encode.

    The corpus-sized cost is ONE word-histogram exchange (shared with the
    BPE trainer); EM runs over the bounded capped type table driver-side,
    so train wall is flat in docs beyond the histogram; encode is the
    distinct-word-per-batch Viterbi path with the head vocabulary
    pre-encoded. Nothing is gated (ok once the run completes).
    """
    ds = _zipf_corpus(docs, vocab)
    t0 = time.time()
    model = train_unigram(ds, vocab_size=pieces, top_k=top_k)
    t_train = time.time() - t0
    n_pieces, t_enc = _encode(lambda: unigram_tokenize(ds, model),
                             "n_pieces")
    return {"docs": docs, "pieces": len(model.logp),
            "coverage": round(model.kept_tokens / max(model.total_tokens, 1),
                              4),
            "train_sec": round(t_train, 1), "encode_sec": round(t_enc, 1),
            "encode_pieces_per_sec": int(n_pieces / max(t_enc, 1e-9)),
            "docs_per_sec_encode": int(docs / max(t_enc, 1e-9)),
            "pieces_per_doc": round(n_pieces / max(docs, 1), 2), "ok": True}


def _topic_text(i: int, topic: str, n_words: int = 40) -> str:
    rng = md5_rng(f"dsir-{topic}-{i}")
    return " ".join(f"{topic}{w}" for w in rng.randint(0, 2000, n_words))


def _topic_docs(batch: pa.Table) -> pa.Table:
    ids = batch.column("id").to_numpy()
    return pa.table({
        "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
        "text": pa.array([_topic_text(int(i), "wiki" if i % 2 == 0
                                      else "spam") for i in ids],
                         pa.string())})


def _target_docs(batch: pa.Table) -> pa.Table:
    return pa.table({"text": pa.array(
        [_topic_text(int(i) + 10**9, "wiki")
         for i in batch.column("id").to_numpy()], pa.string())})


def dsir(ctx, *, docs=2_000_000, target_docs=50_000, select=10_000) -> dict:
    """DSIR importance resampling at corpus scale.

    N docs from two topic vocabularies (even ids target-like "wiki", odd
    ids off-topic "spam"; deterministic per-id seeds); the hashed-n-gram
    importance weights are fit against a smaller target-only sample from
    a disjoint id range, then Gumbel-top-k selects. Reports selection
    precision (fraction of selected docs that are target-topic) and wall.
    Nothing is gated (ok once the run completes).
    """
    # materialize: the md5-seeded generator is far more expensive than the
    # operator under test, and dsir_score legitimately scans raw twice
    # (q-counts + scoring): pin the input so the measurement is the operator
    raw = (ray.data.range(docs).repartition(ctx.num_cpus * 3)
           .map_batches(_topic_docs, batch_format="pyarrow").materialize())
    target = (ray.data.range(target_docs).repartition(ctx.num_cpus)
              .map_batches(_target_docs, batch_format="pyarrow"))
    t0 = time.time()
    out = dsir_select(target, raw, k=select).to_pandas()
    wall = time.time() - t0
    return {"docs": docs, "selected": len(out),
            "precision_target_topic": round(
                float((out["doc_id"] % 2 == 0).mean()), 4),
            "wall_sec": round(wall, 1), "docs_per_sec": round(docs / wall, 1),
            "ok": True}


def _pii_docs(batch: pa.Table) -> pa.Table:
    ids = batch.column("id").to_numpy()
    texts = []
    for i in map(int, ids):
        words = [f"w{(i * 31 + j) % 9973}" for j in range(60)]
        if i % 3 == 0:
            words[10] = f"user{i}@example-{i % 50}.org"
        if i % 5 == 0:
            words[25] = f"+1-{100 + i % 900}-555-{1000 + i % 9000}"
        if i % 7 == 0:
            words[40] = f"10.{i % 256}.{(i // 256) % 256}.{i % 200}"
        texts.append(" ".join(words))
    return pa.table({"doc_id": pa.array(ids.astype(np.int64)),
                     "text": pa.array(texts, pa.string())})


def _pii_counts(b: pa.Table) -> dict:
    out = {c: pc.sum(b.column(c)).as_py() or 0
           for c in ("n_email", "n_phone", "n_ipv4")}
    for t in ("EMAIL", "PHONE", "IP"):
        out[f"tok_{t}"] = pc.sum(pc.count_substring(
            b.column("clean_text"), f"<{t}>")).as_py() or 0
    return out


def redact(ctx, *, docs=5_000_000) -> dict:
    """PII-redaction throughput at planted scale.

    N ~60-word docs; every 3rd doc carries one e-mail, every 5th one
    phone number, every 7th one IPv4 (deterministic from doc id).
    Verifies exact per-category replacement totals and that no
    placeholder token is missing or doubled.
    """
    ds = ray.data.range(docs, override_num_blocks=ctx.blocks).map_batches(
        _pii_docs, batch_format="pyarrow").materialize()
    t0 = time.time()
    tot = batch_sums(redact_pii(ds), _pii_counts)
    wall = time.time() - t0
    expect = [(docs + m - 1) // m for m in (3, 5, 7)]
    return {"metric": "redact_scale", "docs": docs,
            "emails": tot["n_email"], "phones": tot["n_phone"],
            "ips": tot["n_ipv4"], "expect": expect,
            "ok": [tot["n_email"], tot["n_phone"], tot["n_ipv4"]] == expect
            == [tot["tok_EMAIL"], tot["tok_PHONE"], tot["tok_IP"]],
            "wall_sec": round(wall, 1), "docs_per_sec": round(docs / wall, 1)}


def _plant(texts: list, phrases: list, every: int = 10,
           seed: int = 11) -> set:
    """Insert one dictionary phrase into every ``every``-th doc at a word
    boundary; returns the exact truth set."""
    rng = np.random.RandomState(seed)
    truth = set()
    for i in range(0, len(texts), every):
        p = phrases[int(rng.randint(0, len(phrases)))]
        parts = texts[i].split(" ")
        pos = int(rng.randint(0, len(parts)))
        texts[i] = " ".join(parts[:pos] + [p] + parts[pos:])
        truth.add((i, p))
    return truth


def dicttag(ctx, *, docs=200_000) -> dict:
    """Dictionary tagging (stages/dicttag.py), automaton regime.

    Document text is lowercase words from vocab A; dictionary phrases are
    UPPERCASE two-word strings from a disjoint vocab B, so NO accidental
    matches are possible: the only hits are phrases planted verbatim into
    every 10th doc. Verifies the full result set exactly, then measures
    the automaton's dictionary-size independence: the per-byte scan cost
    must stay ~flat as the dictionary grows 50x (1k -> 50k phrases; an
    alternation regex or per-phrase pass grows linearly).
    """
    vocab = np.array([f"w{i:04d}" for i in range(500)], dtype=object)
    words = vocab[np.random.RandomState(7).randint(0, len(vocab),
                                                   size=(docs, 40))]
    corpus = [" ".join(row) for row in words]
    mb = sum(len(t) for t in corpus) / 1e6
    runs = []
    for k in (1_000, 50_000):
        phrases = [f"P{i:06d}A P{i:06d}B" for i in range(k)]
        texts = list(corpus)
        truth = _plant(texts, phrases)
        ds = ray.data.from_arrow(pa.table({
            "doc_id": pa.array(range(docs), pa.int64()),
            "text": pa.array(texts, pa.string()),
        })).repartition(64).materialize()
        t0 = time.time()
        out = tag_documents(ds, phrases, mode="automaton").to_pandas()
        wall = time.time() - t0
        got = set(map(tuple, out[["doc_id", "tag"]].itertuples(index=False)))
        assert got == truth, (len(got), len(truth))
        runs.append({"dict": k, "wall_sec": round(wall, 1),
                     "mb_per_sec": round(mb / wall, 1),
                     "tags_verified": len(got)})
    return {"docs": docs, "corpus_mb": round(mb, 1), "runs": runs, "ok": True}
