"""The document pipelines: corpus cleanup (with the fingerprint store of
incremental crawls) and training-data preparation."""

from __future__ import annotations

import os
import time

import numpy as np
import pyarrow as pa
import ray

from calendar_event_entity_extraction_ray.pipelines.corpus import (
    corpus_clean,
    write_corpus,
)
from calendar_event_entity_extraction_ray.pipelines.traindata import (
    training_sequences,
)
from calendar_event_entity_extraction_ray.stages import fpstore
from calendar_event_entity_extraction_ray.stages.redact import redact_pii
from calendar_event_entity_extraction_ray.state.metrics import write_metrics


def _swap_text(b: pa.Table) -> pa.Table:
    """Redacted rows: ``clean_text`` replaces ``text``, counters dropped."""
    b = b.select([c for c in b.column_names
                  if c not in ("text", "n_email", "n_phone", "n_ipv4")])
    return b.rename_columns(
        ["text" if c == "clean_text" else c for c in b.column_names])


def corpus(*, input, out, partitions=16, min_chars=50, lang="en",
           minhash_threshold=0.8, fingerprint="", redact=False,
           epoch="") -> dict:
    """Documents (doc_id, text) -> cleaned corpus: quality filter, langid
    filter, exact dedup, MinHash near-dup anti-join; written as
    hash-partitioned Parquet at --out with _MANIFEST.json and
    METRICS.json. Re-running with the same fingerprint skips completed
    partitions.

    --redact scrubs PII (email/phone/IPv4 -> typed tokens) after
    cleaning. --epoch E is incremental-crawl mode: drop docs already
    fingerprinted by prior epochs (<out>/_FPSTORE), record this epoch's
    survivors and write them under <out>/epoch=E/; idempotent per epoch.
    """
    t0 = time.time()
    cleaned = corpus_clean(
        ray.data.read_parquet(input, columns=["doc_id", "text"]),
        minhash_threshold=minhash_threshold, min_chars=min_chars,
        keep_lang=lang)
    if redact:
        cleaned = redact_pii(cleaned).map_batches(
            _swap_text, batch_format="pyarrow")
    out_dir = out
    if epoch:
        store = os.path.join(out, "_FPSTORE")
        surv = fpstore.filter_against_store(
            fpstore.with_fingerprints(cleaned, "text"), store,
            exclude_epoch=epoch).materialize()
        fpstore.append_epoch(surv, store, epoch)
        cleaned = surv.drop_columns(["_h1", "_h2"])
        out_dir = os.path.join(out, f"epoch={epoch}")
    fingerprint = fingerprint or (
        f"clean-{input}-{min_chars}-{lang}-{minhash_threshold}"
        + ("-redact" if redact else "")
        + (f"-epoch{epoch}" if epoch else ""))
    if epoch and cleaned.count() == 0:
        # a fully-duplicate epoch: nothing to write, epoch recorded above
        manifest = {"partitions": {}}
    else:
        manifest = write_corpus(cleaned, out_dir, fingerprint=fingerprint,
                                num_partitions=partitions)
    metrics = {
        "n_docs_out": sum(e["rows"] for e in manifest["partitions"].values()),
        "wall_sec": round(time.time() - t0, 2),
        "partitions": len(manifest["partitions"]),
        "fingerprint": fingerprint,
    }
    write_metrics(out, metrics)
    return metrics


def corpus_compact_store(*, out) -> dict:
    """Fold the fingerprint store's (<out>/_FPSTORE) epoch files into one
    file per partition; membership is unchanged and the manifest swap is
    atomic."""
    m = fpstore.compact_store(os.path.join(out, "_FPSTORE"))
    return {"compacted_epochs": m.get("compacted_epochs", []),
            "rows": sum(int(e["rows"]) for e in m["epochs"].values()),
            "partitions": len(next(iter(m["epochs"].values()))["parts"])
            if m["epochs"] else 0}


def _add_seq_id(b: pa.Table) -> pa.Table:
    # deterministic total order for the partition writer's sort
    sid = (b.column("bucket").to_numpy() * 1_000_000
           + b.column("bin").to_numpy()).astype(np.int64)
    return b.append_column("seq_id", pa.array(sid))


def traindata(*, input, out, partitions=16, capacity=256, bucket_size=32,
              n_gram=4, lm_quantile=0.0, fingerprint="") -> dict:
    """Documents (doc_id, text) -> packed training sequences: id-hash
    split, corpus_clean, n-gram decontamination against the raw eval
    side, first-fit packing; written as hash-partitioned Parquet at --out
    with _MANIFEST.json and METRICS.json. Re-running with the same
    fingerprint skips completed partitions.

    --lm-quantile q drops the fraction q of lowest bigram-LM-scoring docs
    after cleaning (0 = off).
    """
    t0 = time.time()
    seqs = training_sequences(
        ray.data.read_parquet(input, columns=["doc_id", "text"]),
        n_gram=n_gram, capacity=capacity, bucket_size=bucket_size,
        lm_quantile=lm_quantile).map_batches(
            _add_seq_id, batch_format="pyarrow")
    fingerprint = fingerprint or (
        f"traindata-{input}-{capacity}-{bucket_size}-{n_gram}"
        # appended only when set so pre-existing manifests keep resuming
        + (f"-lmq{lm_quantile}" if lm_quantile else ""))
    manifest = write_corpus(seqs, out, fingerprint=fingerprint,
                            id_col="seq_id", num_partitions=partitions)
    metrics = {
        "n_sequences": sum(e["rows"] for e in manifest["partitions"].values()),
        "wall_sec": round(time.time() - t0, 2),
        "partitions": len(manifest["partitions"]),
        "fingerprint": fingerprint,
    }
    write_metrics(out, metrics)
    return metrics
