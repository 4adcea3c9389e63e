"""Embedding queries: exact and approximate k-NN (LSH, IVF, PQ),
near-duplicate pairs and clusters, k-means and SemDeDup.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import pyarrow as pa

import ray
import ray.data

from calendar_event_entity_extraction_ray.catalog import (
    _golden, _int64, _read, query,
)


@query("knn_topk", """
    SELECT vec_id FROM (
      SELECT vec_id,
             list_cosine_similarity(embedding,
               (SELECT embedding FROM embeddings WHERE vec_id = 0)) AS s
      FROM embeddings
    ) ORDER BY s DESC, vec_id LIMIT 10
""", bench=True)
def q_knn(sf_dir: str) -> Any:
    """Brute-force cosine top-10 around the vec_id=0 embedding."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_bruteforce

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = None
    for b in ds.iter_batches(batch_size=256, batch_format="pyarrow"):
        ids = b.column("vec_id").to_pylist()
        if 0 in ids:
            q = np.asarray(b.column("embedding")[ids.index(0)].as_py(), dtype=np.float64)
            break
    t = knn_bruteforce(ds, q, k=10)
    return t.select(["vec_id"])


@query("embedding_dups", """
    SELECT a.vec_id AS vec_id_a, b.vec_id AS vec_id_b
    FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3
""")
def q_embedding_dups(sf_dir: str) -> Any:
    """Embedding-cosine near-duplicate pairs (exact): every (a < b) pair
    with cosine >= 0.3. The comparison matrix is broadcast once
    (ray.put); each batch computes its rows against the full matrix —
    the brute-force baseline; the LSH-bucketed scale path is
    ``embedding_dups_lsh``."""
    return _embedding_pairs_ds(sf_dir)


def _embedding_pairs_ds(sf_dir: str) -> "ray.data.Dataset":
    from calendar_event_entity_extraction_ray.stages.knn import _batch_matrix

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    # The comparison matrix is assembled from STREAMED Arrow batches (never
    # ds.to_pandas() of the table) and broadcast once. Brute force is
    # inherently O(n^2) and the matrix must exist somewhere — the scale
    # path is embedding_dups_lsh; this is the exact baseline/oracle.
    id_chunks, mat_chunks = [], []
    for b in ds.iter_batches(batch_size=4096, batch_format="pyarrow"):
        m = _batch_matrix(b, "embedding")
        mat_chunks.append(m / np.linalg.norm(m, axis=1, keepdims=True))
        id_chunks.append(b.column("vec_id").to_numpy())
    ids_all = np.concatenate(id_chunks)
    mat_all = np.vstack(mat_chunks)
    ref = ray.put((ids_all, mat_all))

    def pairs(b: pa.Table) -> pa.Table:
        ids_a, mat_a = ray.get(ref)
        mat = _batch_matrix(b, "embedding")
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        ids = b.column("vec_id").to_numpy()
        sims = mat @ mat_a.T
        out_a, out_b = [], []
        ai, bj = np.where(sims >= 0.3)
        for i, j in zip(ai, bj):
            if ids[i] < ids_a[j]:
                out_a.append(int(ids[i]))
                out_b.append(int(ids_a[j]))
        return pa.table({"vec_id_a": pa.array(out_a, pa.int64()),
                         "vec_id_b": pa.array(out_b, pa.int64())})

    return ds.map_batches(pairs, batch_format="pyarrow", batch_size=1024)


@query("embedding_dups_lsh", f"SELECT * FROM {_golden('embedding_dups_lsh')}")
def q_embedding_dups_lsh(sf_dir: str) -> Any:
    """Scale path for embedding near-dup: banded SRP LSH with
    log2(n)-scaled planes per band (constant expected bucket size),
    OR-amplified recall across 16 bands, per-bucket verify on the explicit
    exchange, pair-hash dedupe (stages/knn.py:embedding_dup_pairs_lsh).
    Recall < 1 by design — the ``embedding_dups`` brute-force query is the
    exact baseline the recall tests compare against."""
    from calendar_event_entity_extraction_ray.stages.knn import (
        embedding_dup_pairs_lsh,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return embedding_dup_pairs_lsh(ds, threshold=0.3)


@query("dup_clusters", """
    WITH RECURSIVE pairs AS (
      SELECT a.vec_id AS a, b.vec_id AS b
      FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
      WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.3
    ),
    sym AS (
      SELECT a, b FROM pairs UNION SELECT b AS a, a AS b FROM pairs
    ),
    reach(node, peer) AS (
      SELECT a AS node, a AS peer FROM sym
      UNION
      SELECT r.node, s.b AS peer FROM reach r JOIN sym s ON r.peer = s.a
    )
    SELECT node AS vec_id, CAST(MIN(peer) AS BIGINT) AS cluster
    FROM reach GROUP BY node
""")
def q_dup_clusters(sf_dir: str) -> Any:
    """Near-dup canonicalization: connected components over the exact
    cosine>=0.3 pair graph — every member maps to its cluster's minimum
    vec_id (distributed min-label propagation, stages/graph.py). The
    oracle recomputes the same clusters independently in DuckDB with a
    recursive transitive-closure CTE."""
    from calendar_event_entity_extraction_ray.stages.graph import (
        connected_components,
    )

    pairs = _embedding_pairs_ds(sf_dir)
    out = connected_components(pairs, "vec_id_a", "vec_id_b")
    return out.map_batches(
        lambda b: pa.table({"vec_id": b.column("node"),
                            "cluster": b.column("cluster")}),
        batch_format="pyarrow")


@query("knn_lsh", f"SELECT * FROM {_golden('knn_lsh')}")
def q_knn_lsh(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.knn import knn_lsh

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    first = ds.take(1)[0]
    dim_probe = np.asarray(first["embedding"], dtype=np.float64)
    q = dim_probe  # query = first row's embedding
    return knn_lsh(ds, q, k=10, n_planes=6, probe_radius=1).select(["vec_id"])


@query("knn_ivf", f"SELECT * FROM {_golden('knn_ivf')}")
def q_knn_ivf(sf_dir: str) -> Any:
    """IVF coarse-quantizer ANN: driver-trained k-means codebook
    (broadcast), distributed cell assignment, brute force over the n_probe
    nearest cells only."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_ivf

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.asarray(ds.take(1)[0]["embedding"], dtype=np.float64)
    return knn_ivf(ds, q, k=10, n_cells=16, n_probe=4).select(["vec_id"])


@query("knn_pq", f"SELECT * FROM {_golden('knn_pq')}", bench=True)
def q_knn_pq(sf_dir: str) -> Any:
    """Product-quantization ANN (stages/knn.py:knn_pq): driver-trained
    per-subspace codebook (broadcast once), one distributed encode pass
    (vector -> 8 bytes, a 32x index shrink), lookup-table scan over the
    codes, exact cosine re-rank of the 40 candidates. Golden oracle =
    sequential mirror (scripts/make_goldens.py:golden_knn_pq)."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_pq

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.asarray(ds.take(1)[0]["embedding"], dtype=np.float64)
    return knn_pq(ds, q, k=10, m=8, n_codes=256, rerank=4).select(["vec_id"])


@query("knn_multi", """
    SELECT query_id, vec_id, rnk FROM (
      SELECT q.vec_id AS query_id, e.vec_id,
             ROW_NUMBER() OVER (
                 PARTITION BY q.vec_id
                 ORDER BY list_cosine_similarity(
                              e.embedding, q.embedding) DESC,
                          e.vec_id) AS rnk
      FROM embeddings e,
           (SELECT vec_id, embedding FROM embeddings
            WHERE vec_id IN (0, 1, 2)) q)
    WHERE rnk <= 5
""")
def q_knn_multi(sf_dir: str) -> Any:
    """Multi-query exact top-5: a broadcast QUERY MATRIX (vec_ids 0-2)
    scored against the corpus in one pass — one (n,d)@(d,q) matmul per
    batch, <= k rows per (query, batch) to the per-group top-k."""
    import pyarrow.parquet as pq

    from calendar_event_entity_extraction_ray.stages.knn import (
        knn_bruteforce_multi,
    )

    # tiny driver-side read for the query rows (broadcast_dict_local
    # pattern: a Ray plan costs ~0.5s flat for 3 rows)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    import pyarrow.compute as pc

    sel = t.filter(pc.is_in(t.column("vec_id"),
                            value_set=pa.array([0, 1, 2], pa.int64())))
    order = np.argsort(sel.column("vec_id").to_numpy())
    q_mat = np.asarray(sel.column("embedding").to_pylist(),
                       dtype=np.float64)[order]
    qids = sel.column("vec_id").to_numpy()[order]

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = knn_bruteforce_multi(ds, q_mat, k=5, query_ids=qids)
    return _int64(out.to_pandas()[["query_id", "vec_id", "rnk"]],
                  ["query_id", "vec_id", "rnk"])


@query("knn_ivfpq", f"SELECT * FROM {_golden('knn_ivfpq')}")
def q_knn_ivfpq(sf_dir: str) -> Any:
    """IVF-PQ residual ANN (stages/knn.py:knn_ivfpq): coarse cells prune
    the scan, residual PQ codes rank within probed cells, exact cosine
    re-ranks the finalists. Golden oracle = sequential mirror."""
    from calendar_event_entity_extraction_ray.stages.knn import knn_ivfpq

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    q = np.asarray(ds.take(1)[0]["embedding"], dtype=np.float64)
    return knn_ivfpq(ds, q, k=10, n_cells=16, n_probe=8, m=8,
                     rerank=4).select(["vec_id"])


@query("label_centroids", """
    SELECT label, dim,
           CAST(FLOOR(avg(x) * 10000 + 0.5) AS BIGINT) AS c_e4
    FROM (SELECT label, unnest(embedding) AS x,
                 generate_subscripts(embedding, 1) AS dim
          FROM embeddings)
    GROUP BY label, dim
""")
def q_label_centroids(sf_dir: str) -> Any:
    """Grouped vector mean (per-class prototype / mean pooling): per-batch
    numpy partial sums per label, kilobyte driver fold, one row per
    (label, dim) for SQL comparability (stages/ml.py)."""
    import math

    from calendar_event_entity_extraction_ray.stages.ml import (
        label_centroids,
    )

    ds = _read(sf_dir, "embeddings", columns=["embedding", "label"])
    out = label_centroids(ds, "embedding", "label")

    def scale(b: pa.Table) -> pa.Table:
        return pa.table({
            "label": b.column("label"),
            "dim": b.column("dim"),
            "c_e4": pa.array(
                [int(math.floor(v * 10_000 + 0.5))
                 for v in b.column("centroid").to_pylist()], pa.int64()),
        })

    return out.map_batches(scale, batch_format="pyarrow")


@query("kmeans_labels", f"SELECT * FROM {_golden('kmeans_labels')}")
def q_kmeans(sf_dir: str) -> Any:
    """Lloyd's k-means (k=8, 5 fixed iterations, deterministic init =
    vectors of the 8 smallest vec_ids): the iterative broadcast-assign +
    partial-update shape (stages/ml.py). Oracle = single-process numpy
    recompute of the identical algorithm (golden parquet)."""
    from calendar_event_entity_extraction_ray.stages.ml import kmeans

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    return kmeans(ds, "embedding", "vec_id", k=8, iters=5)


@query("pagerank_dups", f"SELECT * FROM {_golden('pagerank_dups')}", bench=True)
def q_pagerank(sf_dir: str) -> Any:
    """PageRank over the cosine>=0.3 dup-pair graph (stages/graph.py:
    pagerank — fixed 10 damped iterations; small graphs solve in one
    numpy task, the same code the golden mirror runs, so results are
    bit-identical at oracle scale; the iterative large path is covered
    by a tolerance unit test)."""
    from calendar_event_entity_extraction_ray.stages.graph import pagerank

    pairs = _embedding_pairs_ds(sf_dir)
    return pagerank(pairs, "vec_id_a", "vec_id_b")


@query("semdedup_embeddings", f"SELECT vec_id, cluster"
    f" FROM {_golden('semdedup_embeddings')}", bench=True)
def q_semdedup_embeddings(sf_dir: str) -> Any:
    """SemDeDup (Abbas et al. 2023): semantic near-dup removal with the
    quadratic pair search bounded by deterministic k-means clusters —
    one centroid fit, one assignment pass, one cluster-keyed exchange
    whose folds drop every row with an earlier same-cluster neighbor at
    cosine >= 0.3 (stages/semdedup.py). Golden oracle recomputes
    single-process through the same kernels."""
    from calendar_event_entity_extraction_ray.stages.semdedup import (
        semdedup_drop,
    )

    ds = _read(sf_dir, "embeddings", columns=["vec_id", "embedding"])
    out = semdedup_drop(ds, k=8, tau=0.3)
    return _int64(out.to_pandas(), ["vec_id", "cluster"])
