"""Embedding near-dup detection at >= 1M vectors: LSH pairs and SemDeDup."""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import ray

from calendar_event_entity_extraction_ray.stages.knn import (
    embedding_dup_pairs_lsh,
)
from calendar_event_entity_extraction_ray.stages.semdedup import semdedup_drop

from . import batch_sums, md5_rng

DIM = 64


def _vectors(batch: pa.Table, n_base: int) -> pa.Table:
    """Unit vectors from per-id seeds; id >= n_base is base id % n_base
    plus N(0, 0.05) noise (cosine ~0.999)."""
    ids = batch.column("id").to_numpy()
    out = np.empty((len(ids), DIM), dtype=np.float32)
    for row, i in enumerate(ids):
        v = md5_rng(f"vec-{int(i) if i < n_base else int(i) % n_base}"
                    ).normal(size=DIM)
        if i >= n_base:
            v = v + md5_rng(f"noise-{int(i)}").normal(scale=0.05, size=DIM)
        out[row] = (v / np.linalg.norm(v)).astype(np.float32)
    return pa.table({
        "vec_id": pa.array(ids.astype(np.int64), pa.int64()),
        "embedding": pa.FixedSizeListArray.from_arrays(
            pa.array(out.reshape(-1), pa.float32()), DIM).cast(
                pa.list_(pa.float32())),
    })


def embdedup(ctx, *, vectors=1_000_000, dup_rate=0.2, threshold=0.9) -> dict:
    """Embedding near-dup LSH at >= 1M vectors.

    N unit vectors (dim 64, deterministic per-id seeds) with a planted
    near-dup rate (dup = base + small Gaussian noise, cosine ~0.999) run
    through ``stages/knn.py:embedding_dup_pairs_lsh`` (planes scale with
    log2(n) -> constant expected bucket size; per-bucket verify on the
    explicit exchange). Random base pairs are ~orthogonal at dim 64, so
    precision is enforced by the exact in-bucket verification and recall
    is measured against the planted pairs, counted distributedly (the
    pair list is never collected); ok when recall >= 0.9.
    """
    n_base = int(vectors * (1.0 - dup_rate))
    n_dups = vectors - n_base
    ds = ray.data.range(vectors, override_num_blocks=ctx.blocks).map_batches(
        _vectors, fn_kwargs={"n_base": n_base}, batch_format="pyarrow")
    t0 = time.time()
    pairs = embedding_dup_pairs_lsh(ds, threshold=threshold, n_vectors=vectors)

    def planted(b: pa.Table) -> dict:
        # planted pair = (base_id, dup_id >= n_base, dup % n_base == base)
        a = b.column("vec_id_a").to_numpy()
        c = b.column("vec_id_b").to_numpy()
        return {"planted": ((a < n_base) & (c >= n_base)
                            & (c % n_base == a)).sum(), "pairs": len(a)}

    s = batch_sums(pairs, planted)
    wall = time.time() - t0
    recall = s["planted"] / n_dups if n_dups else 1.0
    return {"metric": "embedding_dups_lsh_scale", "vectors": vectors,
            "dup_rate": dup_rate, "dim": DIM, "threshold": threshold,
            "planted": n_dups, "found_planted": s["planted"],
            "pairs_total": s["pairs"], "recall": round(recall, 5),
            "ok": recall >= 0.9, "wall_sec": round(wall, 1),
            "vecs_per_sec": round(vectors / wall, 1)}


def semdedup(ctx, *, vectors=1_000_000, dup_rate=0.2, tau=0.9,
             cluster_target=2_000) -> dict:
    """SemDeDup at >= 1M vectors.

    The embdedup op's vectors (planted twin = base + tiny noise, cosine
    ~0.999) run through ``stages/semdedup.py:semdedup_drop`` with k scaled
    to --cluster-target expected vectors per k-means cluster. Reports
    planted-twin recall (a twin is recovered iff its id is dropped; the
    base has the smaller id) and wall. Nothing is gated (ok once the run
    completes).
    """
    n_base = int(vectors * (1.0 - dup_rate))
    k = max(8, vectors // cluster_target)
    ds = (ray.data.range(vectors).repartition(ctx.num_cpus * 3)
          .map_batches(_vectors, fn_kwargs={"n_base": n_base},
                       batch_format="pyarrow"))
    t0 = time.time()
    dropped = semdedup_drop(ds, k=k, tau=tau, iters=3).to_pandas()
    wall = time.time() - t0
    twins = set(range(n_base, vectors))
    got = set(dropped["vec_id"].tolist())
    return {"vectors": vectors, "k": k, "dropped": len(got),
            "planted_twins": len(twins),
            "twin_recall": round(len(twins & got) / max(len(twins), 1), 4),
            "wall_sec": round(wall, 1),
            "vecs_per_sec": round(vectors / wall, 1), "ok": True}
