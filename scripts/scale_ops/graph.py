"""Graph analytics at scale with planted closed-form truth."""

from __future__ import annotations

import time

import numpy as np
import pyarrow as pa
import ray

from calendar_event_entity_extraction_ray.stages.graph import (
    bfs_distances,
    connected_components,
    k_core,
    pagerank,
    random_walks,
)

from . import batch_sums


def ring_edges(batch: pa.Table, n: int) -> pa.Table:
    i = batch.column("id").to_numpy()
    return pa.table({"a": pa.array(i.astype(np.int64)),
                     "b": pa.array(((i + 1) % n).astype(np.int64))})


def clique_edges(n_cliques: int, size: int, base: int) -> pa.Table:
    iu = np.triu_indices(size, k=1)
    offs = [base + c * size for c in range(n_cliques)]
    return pa.table({
        "a": pa.array(np.concatenate([iu[0] + o for o in offs]).astype(np.int64)),
        "b": pa.array(np.concatenate([iu[1] + o for o in offs]).astype(np.int64))})


def tree_edges(batch: pa.Table, arity: int) -> pa.Table:
    i = batch.column("id").to_numpy().astype(np.int64)
    i = i[i > 0]
    return pa.table({"a": pa.array(i), "b": pa.array((i - 1) // arity)})


def heap_depth(n: int, arity: int) -> np.ndarray:
    """Exact heap level per node: level L spans
    [(a^L - 1)/(a - 1), (a^(L+1) - 1)/(a - 1))."""
    d = np.zeros(n, dtype=np.int64)
    lo, depth = 1, 1
    while lo < n:
        hi = min(n, lo * arity + 1)
        d[lo:hi] = depth
        lo, depth = hi, depth + 1
    return d


def _edges(ctx, rows: int, fn, **kw):
    return ray.data.range(rows, override_num_blocks=ctx.blocks).map_batches(
        fn, fn_kwargs=kw, batch_format="pyarrow")


def _parts(n: int) -> int:
    return max(8, 2 * n // 500_000)


def _kcore(ctx, n: int, cliques: int) -> dict:
    edges = _edges(ctx, n, ring_edges, n=n).union(
        ray.data.from_arrow(clique_edges(cliques, 100, n)))
    n_edges = n + cliques * 4950
    t0 = time.time()
    s = batch_sums(k_core(edges, "a", "b", 3, num_partitions=ctx.blocks),
                   lambda b: {"n": b.num_rows, "deg_bad": int(
                       (b.column("deg").to_numpy() != 99).sum())})
    wall = time.time() - t0
    got, deg_ok = s["n"], s["deg_bad"] == 0
    expect = cliques * 100
    return {"metric": "kcore_scale", "ring": n, "n_edges": n_edges,
            "core_nodes": got, "expect": expect, "deg99_everywhere": deg_ok,
            "ok": got == expect and deg_ok, "wall_sec": round(wall, 1),
            "edges_per_sec": round(n_edges / wall, 1)}


def _kcore_cascade(ctx, depth: int) -> dict:
    n = (1 << (depth + 1)) - 1  # complete binary tree node count
    t0 = time.time()
    got = k_core(_edges(ctx, n, tree_edges, arity=2), "a", "b", 2,
                 num_partitions=ctx.blocks).count()
    wall = time.time() - t0
    return {"metric": "kcore_cascade_scale", "tree_depth": depth,
            "n_edges": n - 1, "core_nodes": got, "expect": 0,
            "ok": got == 0, "wall_sec": round(wall, 1),
            "peel_rounds": depth + 1}


def _pagerank(ctx, n: int) -> dict:
    expect = int(np.floor(1e9 / n + 0.5))
    t0 = time.time()
    out = pagerank(_edges(ctx, n, ring_edges, n=n), "a", "b", iters=10,
                   num_partitions=_parts(n))
    s = batch_sums(out, lambda b: {"n": b.num_rows, "bad": int(
        (b.column("rank_e9").to_numpy() != expect).sum())})
    wall = time.time() - t0
    return {"metric": "pagerank_scale", "ring": n, "n_edges": n,
            "iters": 10, "nodes_out": s["n"], "wrong_rank": s["bad"],
            "expect_e9": expect, "ok": s["n"] == n and s["bad"] == 0,
            "wall_sec": round(wall, 1),
            "edge_rounds_per_sec": round(10 * 2 * n / wall, 1)}


def _comp_edges(batch: pa.Table) -> pa.Table:
    i = batch.column("id").to_numpy().astype(np.int64)
    i = i[(i % 5) != 4]
    return pa.table({"a": pa.array(i), "b": pa.array(i + 1)})


def _cc(ctx, n: int, cascade: bool) -> dict:
    if cascade:
        edges, n_e = _edges(ctx, n, _comp_edges), n - n // 5

        def bad_of(b: pa.Table) -> int:
            nd = b.column("node").to_numpy()
            return int((b.column("cluster").to_numpy() != 5 * (nd // 5)).sum())
    else:
        edges, n_e = _edges(ctx, n, ring_edges, n=n), n

        def bad_of(b: pa.Table) -> int:
            return int((b.column("cluster").to_numpy() != 0).sum())

    t0 = time.time()
    s = batch_sums(connected_components(edges, "a", "b",
                                        num_partitions=_parts(n)),
                   lambda b: {"n": b.num_rows, "bad": bad_of(b)})
    wall = time.time() - t0
    return {"metric": ("cc_components_scale" if cascade
                       else "cc_ring_scale"),
            "nodes": n, "n_edges": n_e, "nodes_out": s["n"],
            "wrong_cluster": s["bad"], "ok": s["n"] == n and s["bad"] == 0,
            "wall_sec": round(wall, 1), "edges_per_sec": round(n_e / wall, 1)}


def _walks(ctx, n: int) -> dict:
    L = 8
    t0 = time.time()
    out = random_walks(_edges(ctx, n, ring_edges, n=n), "a", "b",
                       walk_len=L, seed=5, num_partitions=_parts(n))

    def chk(b: pa.Table) -> dict:
        w = b.column("walk_id").to_numpy()
        st = b.column("step").to_numpy()
        d = np.abs(b.column("node").to_numpy() - w)
        ring_d = np.minimum(d, n - d)
        bad = (ring_d > st) | (((ring_d ^ st) & 1) != 0)
        return {"n": len(w), "bad": int(bad.sum())}

    s = batch_sums(out, chk)
    wall = time.time() - t0
    return {"metric": "walks_scale", "ring": n, "walk_len": L,
            "rows_out": s["n"], "expect_rows": n * (L + 1),
            "invariant_violations": s["bad"],
            "ok": s["n"] == n * (L + 1) and s["bad"] == 0,
            "wall_sec": round(wall, 1), "hops_per_sec": round(n * L / wall, 1)}


def _bfs(ctx, n: int) -> dict:
    exp_hist = np.bincount(heap_depth(n, 10))
    t0 = time.time()
    out = bfs_distances(_edges(ctx, n, tree_edges, arity=10), "a", "b", [0],
                        max_depth=64, num_partitions=ctx.blocks)
    s = batch_sums(out, lambda b: {
        f"d{d}": c for d, c in enumerate(np.bincount(
            b.column("dist").to_numpy(), minlength=len(exp_hist)))})
    tot = np.array([s[f"d{d}"] for d in range(len(exp_hist))], np.int64)
    reached = sum(s.values())
    wall = time.time() - t0
    exact = bool((tot == exp_hist).all())
    return {"metric": "bfs_scale", "nodes": n, "n_edges": n - 1,
            "reached": reached, "per_level_exact": exact,
            "levels": int(len(exp_hist)), "ok": exact and reached == n,
            "wall_sec": round(wall, 1),
            "edges_per_sec": round((n - 1) / wall, 1)}


def graph(ctx, *, algo="kcore", ring=10_000_000, cliques=100, cascade=False,
          depth=18, nodes=5_000_000) -> dict:
    """Graph analytics (--algo kcore|bfs|pagerank|cc|walks) with planted
    closed-form truth on multi-million-edge graphs.

      kcore: a ring of --ring nodes (degree 2 everywhere) + --cliques
        disjoint 100-node cliques on a separate id range. At k=3 the whole
        ring peels in one round and exactly the 100*C clique nodes
        survive, each with deg 99. --cascade instead plants a complete
        binary tree of --depth levels (leaves peel first, each removal
        drags the parent below k=2 next round: one peel round PER LEVEL,
        the multi-round worst case); no 2-core survives.

      bfs: a perfect 10-ary heap tree of --nodes (node i's parent =
        (i-1)//10): dist(node i) = its heap depth, closed form; the
        frontier widens 10x per round (the wide-frontier regime, unlike a
        ring where BFS only ever touches 2 nodes per round).

      pagerank: the same ring, 2-regular, so the stationary distribution
        is EXACTLY uniform and every node must publish floor(1e9/n + 0.5).

      cc: the ring is ONE component of diameter n/2, the adversarial case
        for plain min-label propagation (needs pointer jumping to finish
        in O(log n) rounds): every node must map to cluster 0. --cascade
        instead plants n/5 disjoint 5-node paths (the realistic dedup
        shape): cluster(i) must equal 5*(i//5).

      walks: one 8-step walk per ring node; each hop moves exactly +-1,
        so ring_dist(node, start) <= step with matching parity.
    """
    if algo == "kcore":
        return _kcore_cascade(ctx, depth) if cascade else _kcore(ctx, ring, cliques)
    if algo == "bfs":
        return _bfs(ctx, nodes)
    if algo == "pagerank":
        return _pagerank(ctx, ring)
    if algo == "cc":
        return _cc(ctx, ring, cascade)
    if algo == "walks":
        return _walks(ctx, ring)
    raise ValueError(f"unknown --algo {algo!r}")
