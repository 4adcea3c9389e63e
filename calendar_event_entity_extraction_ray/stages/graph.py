"""Graph analytics over edge lists: distributed connected components.

The canonicalization step a near-dup pipeline needs after pair generation:
pairs (a, b) form clusters, every member maps to the cluster's minimum id
(the canonical representative — the same keep-smallest convention as the
dedup family).

Every iterative operator here (connected components, PageRank, BFS,
k-core, random walks) runs on one Pregel skeleton above the small-input
cutoffs: the symmetrized edge set is spilled into hash partitions ONCE
(_pin_edges, through the exchange's ``spill_partitions``, by the one
node assignment ``_part_of`` that also routes every message; CSR-sorted
and cached per worker process), per-partition
vertex state lives in the object store, and rounds exchange only
messages (labels / mass / frontiers / death notifications) as direct
plasma refs — the edge set never moves again. The earlier formulation
re-shuffled edges + state through disk exchanges every round; measured
replacements: BFS 5M nodes 121 s -> 18.8 s, k-core 17-round cascade
148 s -> 13.8 s.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

import pandas as pd
import pyarrow as pa

import ray.data

from calendar_event_entity_extraction_ray.stages.dedup import hash64_columns
from calendar_event_entity_extraction_ray.stages.exchange import (
    read_spill,
    release_spill_dir,
    spill_dir_for,
    spill_partitions,
)

# single-task union-find beats the iterative exchange up to ~2M edges
# (measured: 2M string edges 14.6s / 2M int edges 2.9s in one fold vs a
# per-round exchange tax that already costs 24s at 150k edges)
CC_SMALL_EDGES = 2_000_000


def _schema_col_type(esch, col: str):
    """Node type of ``col`` from a Ray Dataset schema (Ray's Schema wrapper
    exposes names/types, not pyarrow's .field)."""
    if esch is None or col not in getattr(esch, "names", []):
        return pa.string()
    return esch.types[esch.names.index(col)]


def _union_find_fold(t: pa.Table) -> pa.Table:
    """Single-task exact components over one (node, dst) edge table:
    union-find with path compression, then min node id per root as the
    cluster label (identical output contract to the iterative path).
    Node ids may be any orderable type — ints (doc/vec ids) or strings
    (entity surface forms, stages/resolve.py); MIN on strings is
    lexicographic, matching both pandas and DuckDB binary collation."""
    import numpy as np

    node_type = t.schema.field("node").type
    a = t.column("node").to_pandas().to_numpy()
    b = t.column("dst").to_pandas().to_numpy()
    parent: dict = {}

    def find(x):
        r = x
        while parent.get(r, r) != r:
            r = parent[r]
        while parent.get(x, x) != r:  # path compression
            parent[x], x = r, parent[x]
        return r

    for x, y in zip(a.tolist(), b.tolist()):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)  # min root wins -> min label
    nodes = np.unique(np.concatenate([a, b])).tolist()
    labels = [find(n) for n in nodes]
    return pa.table({"node": pa.array(nodes, type=node_type),
                     "cluster": pa.array(labels, type=node_type)})


def connected_components(
    edges: "ray.data.Dataset",
    a_col: str,
    b_col: str,
    max_iters: int = 50,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """(a, b) undirected edge list -> (node, cluster) with cluster = min
    node id of the component. Isolated nodes don't appear (no edges).
    Small edge lists fold in one union-find task; above the cutoff the
    Pregel loop (_cc_pregel: min-label propagation + message-based
    pointer jumping over pinned edge partitions) takes over."""

    def symmetrize(b: pa.Table) -> pa.Table:
        a = b.column(a_col)
        bb = b.column(b_col)
        return pa.table({
            "node": pa.chunked_array(list(a.chunks) + list(bb.chunks)),
            "dst": pa.chunked_array(list(bb.chunks) + list(a.chunks)),
        })

    # edges are re-joined every round — pin them once
    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()
    sch = sym.schema()
    n_edges = sym.count() if sch is not None else 0
    if sch is None or n_edges == 0:
        # empty edge list: no components (isolated nodes never appear).
        # Emit a TYPED empty table — a schema-less empty dataset breaks
        # downstream joins (all-singleton entity resolution hit this)
        if sch is not None:
            ntype = sch.types[0]
        else:
            ntype = _schema_col_type(edges.schema(), a_col)
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], ntype), "cluster": pa.array([], ntype)}))
    node_type = sch.types[0]

    # adaptive small path: the iterative algorithm costs ~4 plan
    # executions PER ROUND — on an edge list that fits one task, a single
    # union-find fold replaces 3+ rounds of exchanges (measured 6.4s ->
    # ~1s on the sf0.01 dup graph). The cutoff is far above the
    # exchange's SMALL_ROWS: union-find is O(E a(E)) and a single task
    # folds 2M string edges in ~15s / 2M int edges in ~3s (measured),
    # while the iterative path pays its per-round exchange tax on the
    # SAME data many times over at that size (150k edges measured 24s
    # iterative vs ~1s folded). The iterative path is the 10^9+-edge
    # multi-node shape.
    if num_partitions is None and n_edges <= CC_SMALL_EDGES:
        return (sym.repartition(1)
                .map_batches(_union_find_fold, batch_size=None,
                             batch_format="pyarrow"))

    return _cc_pregel(sym, node_type,
                      int(num_partitions) if num_partitions
                      else max(8, n_edges // 500_000), max_iters)


def _pagerank_single(t: pa.Table, d: float, iters: int) -> pa.Table:
    """Single-task exact PageRank over one symmetrized (node, dst) edge
    table — the small-graph shortcut AND the golden mirror (the
    distributed path must match it exactly: same float64 ops, same
    iteration order)."""
    import numpy as np

    a = t.column("node").to_pandas().to_numpy()
    b = t.column("dst").to_pandas().to_numpy()
    nodes, inv_a = np.unique(a, return_inverse=True)
    inv_b = np.searchsorted(nodes, b)
    n = len(nodes)
    deg = np.bincount(inv_a, minlength=n).astype(np.float64)
    rank = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = rank / deg                      # every node has edges
        incoming = np.zeros(n)
        np.add.at(incoming, inv_b, contrib[inv_a])
        rank = (1.0 - d) / n + d * incoming
    return pa.table({"node": pa.array(nodes, pa.int64()),
                     "rank_e9": pa.array(
                         np.floor(rank * 1e9 + 0.5).astype(np.int64),
                         pa.int64())})


def pagerank(
    edges: "ray.data.Dataset",
    a_col: str,
    b_col: str,
    damping: float = 0.85,
    iters: int = 10,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """PageRank over an UNDIRECTED edge list (edges symmetrized, so every
    node has degree >= 1 — no dangling-mass term). Fixed ``iters``
    rounds; output (node, rank_e9) with ranks floor-scaled to 1e-9 so
    results hash-compare against the single-process mirror (the
    distributed path agrees to the last e9 digit +/- 1 ulp-of-rounding —
    float sums associate differently across partitions).

    Small graphs (<= the exchange's small-input threshold) solve in ONE
    numpy task. The large path is the same Pregel loop as
    bfs_distances/k_core: edges pinned into CSR partitions once
    (dedup=False — mass flows once per edge INSTANCE), per-partition
    (nodes, deg, rank) state in the object store, and each round ships
    only per-destination mass contributions PRE-SUMMED by dst inside the
    sender (a partition emits at most one row per distinct dst it
    references, the combiner shape) — the edge set itself never moves
    after the pin, where the join-per-round formulation re-shuffled
    edges + ranks through disk every one of the ``iters`` rounds."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.exchange import (
        SMALL_ROWS,
    )

    def symmetrize(b: pa.Table) -> pa.Table:
        a = b.column(a_col)
        bb = b.column(b_col)
        return pa.table({
            "node": pa.chunked_array(list(a.chunks) + list(bb.chunks)),
            "dst": pa.chunked_array(list(bb.chunks) + list(a.chunks)),
        })

    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()
    n_edges = sym.count()

    if num_partitions is None and n_edges <= SMALL_ROWS:
        return (sym.repartition(1)
                .map_batches(lambda t: _pagerank_single(t, damping, iters),
                             batch_size=None, batch_format="pyarrow"))

    sch = sym.schema()
    node_type = sch.types[0]
    n_parts = (int(num_partitions) if num_partitions
               else max(8, n_edges // 500_000))

    edge_dir, files_of, eager_cleanup = _pin_edges(
        sym, n_parts, "cee_pr_edges_")
    parts = sorted(files_of)

    part_of = partial(_part_of, node_type=node_type, n_parts=n_parts)

    @ray.remote(num_cpus=1)
    def init(part_id: int):
        node_s, _ = _edge_csr(edge_dir, part_id, files_of[part_id],
                              dedup=False)
        nodes, counts = np.unique(node_s, return_counts=True)
        return (nodes, counts.astype(np.float64)), len(nodes)

    @ray.remote(num_cpus=1)
    def scatter(part_id: int, state, ranks):
        """per-node contribution rank/deg fanned across out-edges, summed
        by dst INSIDE the sender, split by dst partition."""
        node_s, dst_s = _edge_csr(edge_dir, part_id, files_of[part_id],
                                  dedup=False)
        nodes, deg = state
        contrib = ranks / deg
        # every source row in node_s is present in nodes (built from it)
        per_edge = contrib[np.searchsorted(nodes, node_s)]
        # combine by dst before shipping
        u_dst, inv = np.unique(dst_s, return_inverse=True)
        mass = np.zeros(len(u_dst))
        np.add.at(mass, inv, per_edge)
        dest = part_of(u_dst)
        out = []
        for q in range(n_parts):
            sel = dest == q
            out.append((u_dst[sel], mass[sel]))
        return tuple(out)

    @ray.remote(num_cpus=1)
    def gather(state, n_total, d, *msgs):
        nodes, _deg = state
        incoming = np.zeros(len(nodes))
        for ids, mass in msgs:
            if len(ids):
                incoming[np.searchsorted(nodes, ids)] += mass
        return (1.0 - d) / n_total + d * incoming

    @ray.remote(num_cpus=1)
    def finalize(state, ranks):
        nodes, _deg = state
        return pa.table({
            "node": pa.array(nodes.tolist(), type=node_type),
            "rank_e9": pa.array(
                np.floor(ranks * 1e9 + 0.5).astype(np.int64), pa.int64())})

    init_out = {p: init.options(num_returns=2).remote(p) for p in parts}
    state_ref = {p: init_out[p][0] for p in parts}
    n_total = int(sum(ray.get([init_out[p][1] for p in parts])))

    @ray.remote(num_cpus=1)
    def seed(state, n):
        nodes, _deg = state
        return np.full(len(nodes), 1.0 / n)

    ranks_ref = {p: seed.remote(state_ref[p], n_total) for p in parts}
    for _ in range(iters):
        scat = {p: scatter.options(num_returns=n_parts).remote(
            p, state_ref[p], ranks_ref[p]) for p in parts}
        ranks_ref = {p: gather.remote(
            state_ref[p], n_total, damping,
            *[scat[q][p] for q in parts]) for p in parts}
    out_refs = [finalize.remote(state_ref[p], ranks_ref[p]) for p in parts]
    ray.wait(out_refs, num_returns=len(out_refs))
    release_spill_dir(edge_dir, eager_cleanup)
    return ray.data.from_arrow_refs(out_refs)


def _sym_local_distinct(
    edges: "ray.data.Dataset", a_col: str, b_col: str,
) -> "ray.data.Dataset":
    """(a, b) pairs -> symmetrized (node, dst) edges with self-loops
    dropped and PER-BATCH dedup (cuts spill volume; global distinctness
    is finished downstream: the single-task path dedups in one frame,
    the Pregel path dedups per pinned partition inside _edge_csr —
    exact either way because both copies of a duplicate land in the
    same node-hash partition)."""

    def symmetrize(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        a = b.column(a_col)
        bb = b.column(b_col)
        t = pa.table({
            "node": pa.chunked_array(list(a.chunks) + list(bb.chunks)),
            "dst": pa.chunked_array(list(bb.chunks) + list(a.chunks)),
        })
        t = t.filter(pc.invert(pc.equal(t.column("node"), t.column("dst"))))
        df = t.to_pandas().drop_duplicates()
        return pa.Table.from_pandas(df, preserve_index=False)

    return edges.map_batches(symmetrize, batch_format="pyarrow")


def _kcore_single(t: pa.Table, k: int) -> pa.Table:
    """Single-task exact k-core peel over one DISTINCT symmetrized
    (node, dst) edge table — the small-graph shortcut (the distributed
    path must produce the identical (node, deg) set)."""
    import numpy as np

    node_type = t.schema.field("node").type
    a = t.column("node").to_pandas().to_numpy()
    b = t.column("dst").to_pandas().to_numpy()
    nodes, inv_a = np.unique(a, return_inverse=True)
    inv_b = np.searchsorted(nodes, b)
    alive_edge = np.ones(len(a), dtype=bool)
    while True:
        deg = np.bincount(inv_a[alive_edge], minlength=len(nodes))
        alive_node = deg >= k
        drop = alive_edge & (~alive_node[inv_a] | ~alive_node[inv_b])
        if not drop.any():
            break
        alive_edge &= ~drop
    deg = np.bincount(inv_a[alive_edge], minlength=len(nodes))
    keep = deg >= k
    return pa.table({
        "node": pa.array(nodes[keep].tolist(), type=node_type),
        "deg": pa.array(deg[keep].astype(np.int64), pa.int64())})


def k_core(
    edges: "ray.data.Dataset",
    a_col: str,
    b_col: str,
    k: int,
    max_iters: int = 100,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """k-core decomposition: (a, b) undirected edge list -> (node, deg)
    for every node of the maximal subgraph in which all degrees are >= k
    (deg = the node's degree WITHIN the core). Degree counts distinct
    neighbors; duplicate pairs and self-loops are ignored.

    Algorithm: iterative peeling. Each round computes degrees (one
    exchange fold over node-hash partitions), drops nodes with deg < k,
    and filters edges to surviving endpoints (two semi joins — one per
    endpoint). Rounds to fixpoint is the peel depth (web-ish graphs:
    a handful); per-round driver state is ONE count, never node lists.
    Small edge lists (<= CC_SMALL_EDGES) peel in a single numpy task."""
    sym = _sym_local_distinct(edges, a_col, b_col)
    sym = sym.materialize()
    sch = sym.schema()
    n_edges = sym.count() if sch is not None else 0
    if sch is None or n_edges == 0:
        ntype = _schema_col_type(edges.schema(), a_col)
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], ntype),
            "deg": pa.array([], pa.int64())}))
    node_type = sch.types[0]

    if num_partitions is None and n_edges <= CC_SMALL_EDGES:
        def dedup_peel(t: pa.Table) -> pa.Table:
            df = t.to_pandas().drop_duplicates()
            return _kcore_single(
                pa.Table.from_pandas(df, preserve_index=False), k)

        return (sym.repartition(1)
                .map_batches(dedup_peel,
                             batch_size=None, batch_format="pyarrow"))

    return _kcore_pregel(sym, node_type, k, max_iters,
                         int(num_partitions) if num_partitions
                         else max(8, n_edges // 500_000))


def _kcore_pregel(sym, node_type, k: int, max_iters: int, n_parts: int):
    """Distributed peeling as a Pregel loop over pinned edge partitions:
    the DISTINCT symmetrized edges spill into hash partitions once
    (CSR-cached per worker); per-partition state is (nodes, deg, alive)
    numpy arrays in the object store. Each round a partition applies
    incoming death notifications (one bincount decrement), peels local
    nodes that fell below k, and sends each victim's out-edge endpoints
    to their partitions — every edge carries at most one message per
    direction over the WHOLE run, so total traffic is O(E) regardless of
    peel depth (the exchange-per-round formulation paid ~3 shuffles of
    the full edge set PER ROUND — measured 148 s for a 17-round cascade
    that this loop finishes in a few seconds)."""
    import numpy as np

    edge_dir, files_of, eager_cleanup = _pin_edges(
        sym, n_parts, "cee_kcore_edges_")
    parts = sorted(files_of)

    part_of = partial(_part_of, node_type=node_type, n_parts=n_parts)

    @ray.remote(num_cpus=1)
    def step(part_id: int, state, *msgs):
        """Apply death notifications, peel, notify. Returns
        (state, per-dest counts, *per-dest notification arrays) — each
        destination's array is its own object, so receivers take refs
        straight from plasma and nothing routes through the driver."""
        node_s, dst_s = _edge_csr(edge_dir, part_id, files_of[part_id])
        if state is None:
            nodes, counts = np.unique(node_s, return_counts=True)
            deg = counts.astype(np.int64)
            alive = np.ones(len(nodes), dtype=bool)
        else:
            nodes, deg, alive = state
            deg = deg.copy()
            alive = alive.copy()
            if msgs:
                ids = np.concatenate([np.asarray(m) for m in msgs])
                if len(ids):
                    idx = np.searchsorted(nodes, ids)
                    deg -= np.bincount(idx, minlength=len(nodes))
        dying = alive & (deg < k)
        alive &= ~dying
        n_died = int(dying.sum())
        out = [np.empty(0, dtype=object)] * n_parts
        if n_died:
            victims = nodes[dying]
            lo = np.searchsorted(node_s, victims, side="left")
            hi = np.searchsorted(node_s, victims, side="right")
            cnt = hi - lo
            total = int(cnt.sum())
            if total:
                starts = np.repeat(lo, cnt)
                offs = np.arange(total) - np.repeat(
                    np.cumsum(cnt) - cnt, cnt)
                notify = dst_s[starts + offs]   # WITH multiplicity
                dest = part_of(notify)
                out = [notify[dest == q] for q in range(n_parts)]
        counts = np.array([len(o) for o in out], dtype=np.int64)
        return ((nodes, deg, alive), counts, *out)

    @ray.remote(num_cpus=1)
    def finalize(state):
        nodes, deg, alive = state
        return pa.table({
            "node": pa.array(nodes[alive].tolist(), type=node_type),
            "deg": pa.array(deg[alive], pa.int64())})

    state_ref = {p: None for p in parts}
    incoming: dict = {p: [] for p in parts}   # per-dest msg-array refs
    active = list(parts)                       # round 0: everyone peels
    for _ in range(max_iters + 1):
        if not active:
            break
        counts_ref, msg_refs = {}, {}
        for p in active:
            rets = step.options(num_returns=2 + n_parts).remote(
                p, state_ref[p], *incoming[p])
            state_ref[p], counts_ref[p] = rets[0], rets[1]
            msg_refs[p] = rets[2:]
            incoming[p] = []
        # only counts (tiny int arrays) come to the driver; message
        # payloads move receiver <- plasma directly
        for p in active:
            counts = ray.get(counts_ref[p])
            for q in np.nonzero(counts)[0]:
                incoming[int(q)].append(msg_refs[p][int(q)])
        active = [p for p in parts if incoming[p]]

    if active:
        # iteration-exhaustion exit with pending death notifications:
        # the survivors are a SUPERSET of the true k-core (the single-task
        # path peels to fixpoint). Loud, like the minhash band-cap skips.
        import logging

        logging.getLogger(__name__).warning(
            "_kcore_pregel: stopped after max_iters=%d rounds with %d "
            "partition(s) still holding undelivered death notifications "
            "— result is a superset of the true %d-core; raise max_iters",
            max_iters, len(active), k)

    out_refs = [finalize.remote(state_ref[p]) for p in parts
                if state_ref[p] is not None]
    release_spill_dir(edge_dir, eager_cleanup)
    if not out_refs:
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], node_type),
            "deg": pa.array([], pa.int64())}))
    return ray.data.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# BFS shortest-path distances
# ---------------------------------------------------------------------------

def _bfs_single(t: pa.Table, sources, max_depth: int) -> pa.Table:
    """Single-task exact BFS over one symmetrized (node, dst) edge table
    — the small-graph shortcut (the distributed path must match it)."""
    import numpy as np

    node_type = t.schema.field("node").type
    a = t.column("node").to_pandas().to_numpy()
    b = t.column("dst").to_pandas().to_numpy()
    nodes, inv_a = np.unique(a, return_inverse=True)
    inv_b = np.searchsorted(nodes, b)
    n = len(nodes)
    dist = np.full(n, -1, dtype=np.int64)
    # sources absent from the edge list are isolated — emitted at dist 0
    # below (the iterative path seeds them unconditionally; contract:
    # every source appears, unreachable non-sources don't)
    src_idx = np.asarray(
        [i for i, s in zip(np.searchsorted(nodes, sources), sources)
         if i < n and nodes[i] == s], dtype=np.int64)
    isolated = [s for i, s in zip(np.searchsorted(nodes, sources), sources)
                if not (i < n and nodes[i] == s)]
    dist[src_idx] = 0
    frontier = src_idx
    d = 0
    while len(frontier) and d < max_depth:
        d += 1
        on_frontier = np.zeros(n, dtype=bool)
        on_frontier[frontier] = True
        nxt = np.unique(inv_b[on_frontier[inv_a]])
        nxt = nxt[dist[nxt] < 0]
        dist[nxt] = d
        frontier = nxt
    keep = dist >= 0
    return pa.table({
        "node": pa.array(nodes[keep].tolist() + isolated, type=node_type),
        "dist": pa.array(list(dist[keep]) + [0] * len(isolated),
                         pa.int64())})


def bfs_distances(
    edges: "ray.data.Dataset",
    a_col: str,
    b_col: str,
    sources,
    max_depth: int = 25,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """Unweighted shortest-path distances from ``sources`` over an
    undirected edge list -> (node, dist), dist in [0, max_depth];
    unreachable nodes don't appear (sources always do, at dist 0).

    Distinct from connected_components: labels are DISTANCES, so pointer
    jumping does not apply — rounds = source eccentricity. A naive
    join-per-round re-ships the WHOLE edge set every round (measured
    121 s for 7 rounds on a 5M-node tree); instead this is a
    Pregel-style loop: the symmetrized edges are spilled into hash
    partitions ONCE (CSR-sorted and cached per worker process), label
    state lives per partition in the object store, and each round ships
    only frontier nodes out and candidate (dst, dist) messages back —
    per-round cost is O(frontier + its adjacency), not O(E + V). In BFS
    the first arrival is minimal, so the per-partition merge is a set
    difference (never a re-relaxation) and the loop ends when every
    frontier is empty. Small edge lists solve in a single numpy task.

    Multi-node note: the edge spill obeys CEE_SPILL_ROOT like the
    exchange (node-local tempdir otherwise — single-filesystem
    assumption); candidate messages move through the object store."""
    sources = list(sources)

    def symmetrize(b: pa.Table) -> pa.Table:
        a = b.column(a_col)
        bb = b.column(b_col)
        return pa.table({
            "node": pa.chunked_array(list(a.chunks) + list(bb.chunks)),
            "dst": pa.chunked_array(list(bb.chunks) + list(a.chunks)),
        })

    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()
    sch = sym.schema()
    n_edges = sym.count() if sch is not None else 0
    if sch is None or n_edges == 0:
        ntype = _schema_col_type(edges.schema(), a_col)
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], ntype), "dist": pa.array([], pa.int64())}))
    node_type = sch.types[0]

    if num_partitions is None and n_edges <= CC_SMALL_EDGES:
        return (sym.repartition(1)
                .map_batches(lambda t: _bfs_single(t, sources, max_depth),
                             batch_size=None, batch_format="pyarrow"))

    return _bfs_pregel(sym, node_type, sources, max_depth,
                       int(num_partitions) if num_partitions
                       else max(8, n_edges // 500_000))


# per-worker-process cache of one pinned edge spill's partitions in CSR
# form (node-sorted numpy arrays): read+sorted once per worker per
# partition, reused every BFS round. Keyed by spill dir; switching to a
# new BFS run drops the old run's tables.
_EDGE_CACHE: dict = {"dir": None, "parts": {}}


def _edge_csr(edge_dir: str, part_id: int, files: tuple,
              dedup: bool = True):
    import numpy as np

    if _EDGE_CACHE["dir"] != edge_dir:
        _EDGE_CACHE["dir"] = edge_dir
        _EDGE_CACHE["parts"] = {}
    key = (part_id, dedup)
    got = _EDGE_CACHE["parts"].get(key)
    if got is None:
        t = read_spill(edge_dir, part_id, files)
        # partition-local distinct == global distinct (all copies of an
        # edge share the source node, hence the partition); k-core
        # degree counting REQUIRES it, BFS is merely insensitive to it.
        # lexsort + consecutive-dup mask: ~2x pandas drop_duplicates +
        # mergesort, and CSR needs the sort anyway. PageRank passes
        # dedup=False: mass flows once per edge INSTANCE.
        node = t.column("node").to_pandas().to_numpy()
        dst = t.column("dst").to_pandas().to_numpy()
        order = np.lexsort((dst, node))
        n2, d2 = node[order], dst[order]
        if dedup and len(n2):
            keep = np.empty(len(n2), dtype=bool)
            keep[0] = True
            keep[1:] = (n2[1:] != n2[:-1]) | (d2[1:] != d2[:-1])
            n2, d2 = n2[keep], d2[keep]
        got = (n2, d2)
        _EDGE_CACHE["parts"][key] = got
    return got


def _part_of(nodes, node_type, n_parts: int) -> "np.ndarray":
    """Partition of each node: ``hash64_columns(node) % n_parts``. The one
    assignment ``_pin_edges`` spills edges by, so every Pregel message
    reaches the partition that holds its node's edges and state."""
    if not isinstance(nodes, pa.ChunkedArray):
        nodes = pa.array(nodes, type=node_type)
    return hash64_columns(pa.table({"node": nodes}), ["node"]) % n_parts


def _pin_edges(sym, n_parts: int, prefix: str):
    """Spill a symmetrized (node, dst) edge dataset into hash partitions
    ONCE through the exchange's phase 1 — the static build side of the
    Pregel loops. Returns (edge_dir, files_of, eager_cleanup); the caller
    hands the last two to ``release_spill_dir``. Obeys CEE_SPILL_ROOT."""
    edge_dir, eager_cleanup = spill_dir_for(prefix)
    listing = spill_partitions(
        sym, lambda b: _part_of(b.column("node"), None, n_parts), edge_dir)
    files_of = {int(p): tuple(sorted(fs)) for p, fs in
                listing.groupby("part_id")["file"].apply(list).items()}
    return edge_dir, files_of, eager_cleanup


def _bfs_pregel(sym, node_type, sources, max_depth: int, n_parts: int):
    import numpy as np

    edge_dir, files_of, eager_cleanup = _pin_edges(
        sym, n_parts, "cee_bfs_edges_")

    part_of = partial(_part_of, node_type=node_type, n_parts=n_parts)

    empty_labels = pa.table({"node": pa.array([], node_type),
                             "dist": pa.array([], pa.int64())})

    @ray.remote(num_cpus=1)
    def scatter(part_id: int, frontier: pa.Table):
        """frontier (node) -> candidate dsts split by dst partition."""
        if part_id not in files_of or frontier.num_rows == 0:
            return [pa.table({"node": pa.array([], node_type)})] * n_parts
        node_s, dst_s = _edge_csr(edge_dir, part_id, files_of[part_id])
        f = np.unique(frontier.column("node").to_pandas().to_numpy())
        lo = np.searchsorted(node_s, f, side="left")
        hi = np.searchsorted(node_s, f, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return [pa.table({"node": pa.array([], node_type)})] * n_parts
        starts = np.repeat(lo, counts)
        offs = np.arange(total) - np.repeat(
            np.cumsum(counts) - counts, counts)
        cand = np.unique(dst_s[starts + offs])
        part = part_of(cand)
        out = []
        for q in range(n_parts):
            sel = cand[part == q]
            out.append(pa.table({"node": pa.array(sel.tolist(),
                                                  type=node_type)}))
        return out

    @ray.remote(num_cpus=1, num_returns=3)
    def gather(labels: pa.Table, d: int, *cands: pa.Table):
        """merge round-d candidates into this partition's labels; BFS
        first-arrival is minimal, so the merge is a set difference."""
        import pandas as _pd

        cat = pa.concat_tables(list(cands))
        if cat.num_rows == 0:
            return labels, empty_labels, 0
        c = _pd.unique(cat.column("node").to_pandas())
        have = labels.column("node").to_pandas()
        new = c[~_pd.Series(c).isin(have).to_numpy()]
        if len(new) == 0:
            return labels, empty_labels, 0
        add = pa.table({"node": pa.array(list(new), type=node_type),
                        "dist": pa.array([d] * len(new), pa.int64())})
        return pa.concat_tables([labels, add]), add, len(new)

    # seed: sources at dist 0, split by partition
    src = list(dict.fromkeys(sources))
    spart = part_of(src)
    labels_ref, frontier_ref, fsize = {}, {}, {}
    for q in range(n_parts):
        mine = [s for s, p in zip(src, spart) if p == q]
        t = pa.table({"node": pa.array(mine, type=node_type),
                      "dist": pa.array([0] * len(mine), pa.int64())})
        labels_ref[q] = ray.put(t)
        frontier_ref[q] = ray.put(t)
        fsize[q] = len(mine)

    for d in range(1, max_depth + 1):
        active = [q for q in range(n_parts) if fsize[q] > 0]
        if not active:
            break
        scat = {q: scatter.options(num_returns=n_parts).remote(
            q, frontier_ref[q]) for q in active}
        for q in range(n_parts):
            cand_refs = [scat[p][q] for p in active]
            labels_ref[q], frontier_ref[q], nref = gather.remote(
                labels_ref[q], d, *cand_refs)
            fsize[q] = nref
        fsize = {q: ray.get(r) for q, r in fsize.items()}

    release_spill_dir(edge_dir, eager_cleanup)
    return ray.data.from_arrow_refs(
        [labels_ref[q] for q in range(n_parts)])


# ---------------------------------------------------------------------------
# Deterministic random walks (DeepWalk-style corpus generation)
# ---------------------------------------------------------------------------

def _walk_choice(walk_ids, step: int, seed: int) -> "np.ndarray":
    """uint64 choice stream for (walk, step): vectorized, process-stable
    (pandas fixed-key siphash — the repo-standard replacement for salted
    hash()/per-row md5). Both the distributed loop and the single-task
    mirror draw from THIS function, so paths are partitioning-invariant."""
    import numpy as np

    df = pd.DataFrame({"w": walk_ids, "s": np.full(len(walk_ids), step),
                       "g": np.full(len(walk_ids), seed)})
    return pd.util.hash_pandas_object(df, index=False).to_numpy()


def _walks_single(t: pa.Table, walk_len: int, seed: int) -> pa.Table:
    """Single-task mirror over one deduped symmetrized (node, dst) edge
    table: one walk per node, rows (walk_id, step, node)."""
    import numpy as np

    node_type = t.schema.field("node").type
    df = t.select(["node", "dst"]).to_pandas().drop_duplicates()
    df = df.sort_values(["node", "dst"], kind="mergesort")
    node_s = df["node"].to_numpy()
    dst_s = df["dst"].to_numpy()
    nodes = np.unique(node_s)
    lo = np.searchsorted(node_s, nodes, side="left")
    hi = np.searchsorted(node_s, nodes, side="right")
    walk_ids, cur = nodes.copy(), nodes.copy()
    out_w, out_s, out_n = [walk_ids], [np.zeros(len(nodes), np.int64)], [cur]
    for step in range(1, walk_len + 1):
        idx = np.searchsorted(nodes, cur)
        deg = hi[idx] - lo[idx]
        h = _walk_choice(walk_ids, step, seed)
        cur = dst_s[lo[idx] + (h % deg.astype(np.uint64)).astype(np.int64)]
        out_w.append(walk_ids)
        out_s.append(np.full(len(cur), step, np.int64))
        out_n.append(cur)
    return pa.table({
        "walk_id": pa.array(np.concatenate(out_w).tolist(), type=node_type),
        "step": pa.array(np.concatenate(out_s), pa.int64()),
        "node": pa.array(np.concatenate(out_n).tolist(), type=node_type)})


def random_walks(
    edges: "ray.data.Dataset",
    a_col: str,
    b_col: str,
    walk_len: int = 8,
    seed: int = 0,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """One deterministic random walk per node over the undirected graph
    (DeepWalk-style corpus generation — walk sequences feed embedding /
    LM training). Output rows (walk_id, step, node), step 0 = the start
    node; next hop = uniformly-hashed choice among the deduped neighbor
    list, drawn from a (walk, step, seed) siphash stream, so results are
    independent of partitioning AND re-runnable (same seed -> same
    corpus, the resume property every sampling stage here keeps).

    Large path = the Pregel skeleton: edges pinned once, walkers are
    (walk_id, cur) messages, each position row is recorded IN the
    partition where that node lives — total traffic O(walks x length),
    no assembly shuffle (the row form is already complete)."""
    import numpy as np

    sym = _sym_local_distinct(edges, a_col, b_col).materialize()
    sch = sym.schema()
    n_edges = sym.count() if sch is not None else 0
    if sch is None or n_edges == 0:
        ntype = _schema_col_type(edges.schema(), a_col)
        return ray.data.from_arrow(pa.table({
            "walk_id": pa.array([], ntype),
            "step": pa.array([], pa.int64()),
            "node": pa.array([], ntype)}))
    node_type = sch.types[0]

    if num_partitions is None and n_edges <= CC_SMALL_EDGES:
        return (sym.repartition(1)
                .map_batches(lambda t: _walks_single(t, walk_len, seed),
                             batch_size=None, batch_format="pyarrow"))

    n_parts = (int(num_partitions) if num_partitions
               else max(8, n_edges // 500_000))
    edge_dir, files_of, eager_cleanup = _pin_edges(
        sym, n_parts, "cee_walk_edges_")
    parts = sorted(files_of)

    part_of = partial(_part_of, node_type=node_type, n_parts=n_parts)

    @ray.remote(num_cpus=1)
    def step_task(part_id: int, trace, step: int, *walkers):
        """Record arriving walkers at this partition's nodes, hop them
        to a hashed neighbor, and ship (walk_id, next) onward."""
        node_s, dst_s = _edge_csr(edge_dir, part_id, files_of[part_id])
        if step == 0:
            nodes = np.unique(node_s)
            w, cur = nodes, nodes
        else:
            w = np.concatenate([m[0] for m in walkers])
            cur = np.concatenate([m[1] for m in walkers])
        tw, ts, tn = trace if trace is not None else ([], [], [])
        tw = list(tw) + [w]
        ts = list(ts) + [np.full(len(w), step, np.int64)]
        tn = list(tn) + [cur]
        out = [(w[:0], cur[:0])] * n_parts
        if step < walk_len and len(w):
            idx = np.searchsorted(node_s, cur, side="left")
            hi = np.searchsorted(node_s, cur, side="right")
            deg = (hi - idx).astype(np.uint64)
            h = _walk_choice(w, step + 1, seed)
            nxt = dst_s[idx + (h % deg).astype(np.int64)]
            dest = part_of(nxt)
            out = [(w[dest == q], nxt[dest == q]) for q in range(n_parts)]
        return ((tw, ts, tn), *out)

    @ray.remote(num_cpus=1)
    def finalize(trace):
        tw, ts, tn = trace
        return pa.table({
            "walk_id": pa.array(np.concatenate(tw).tolist(),
                                type=node_type),
            "step": pa.array(np.concatenate(ts), pa.int64()),
            "node": pa.array(np.concatenate(tn).tolist(), type=node_type)})

    trace_ref = {p: None for p in parts}
    walker_refs = {p: [] for p in parts}
    for step in range(walk_len + 1):
        rets = {}
        for p in parts:
            if step > 0 and not walker_refs[p]:
                continue
            rets[p] = step_task.options(num_returns=1 + n_parts).remote(
                p, trace_ref[p], step, *walker_refs[p])
            trace_ref[p] = rets[p][0]
        walker_refs = {p: [] for p in parts}
        for p, r in rets.items():
            for q in parts:
                walker_refs[q].append(r[1 + q])
    out_refs = [finalize.remote(trace_ref[p]) for p in parts
                if trace_ref[p] is not None]
    ray.wait(out_refs, num_returns=len(out_refs))
    release_spill_dir(edge_dir, eager_cleanup)
    return ray.data.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# Pregel connected components (min-label + message-based pointer jumping)
# ---------------------------------------------------------------------------

def _grouped_min_arrays(keys, vals):
    """(keys, grouped-min vals) via one sort + minimum.reduceat — the
    per-round combiner of the Pregel CC loop (pandas groupby.min
    measured ~2-3x slower at 20M rows/round on the ring worst case)."""
    import numpy as np

    order = np.argsort(keys, kind="stable")
    k, v = keys[order], vals[order]
    bounds = np.empty(len(k), dtype=bool)
    bounds[0] = True
    bounds[1:] = k[1:] != k[:-1]
    starts = np.nonzero(bounds)[0]
    try:
        best = np.minimum.reduceat(v, starts)
    except TypeError:   # object dtype without a reduceat fast path
        best = np.array([v[s0:s1].min() for s0, s1 in
                         zip(starts, list(starts[1:]) + [len(v)])],
                        dtype=object)
    return k[bounds], best


def _cc_pregel(sym, node_type, n_parts: int, max_iters: int):
    """Distributed connected components on the pinned-edge Pregel
    skeleton. Each round has two phases:

      propagate — frontier nodes (label changed last round) push their
        label across their edges; per-destination candidates are
        MIN-combined inside the sender before shipping.
      jump — pointer jumping as messages: every node with label != node
        asks partition(label) for label(label) (request), the owner
        replies, the asker takes the min. Chains collapse in
        O(log diameter) rounds — WITHOUT this, a path graph needs
        diameter rounds (a 10M-node ring would need 5M).

    Per-round traffic: O(frontier adjacency) for propagation +
    O(non-root nodes) for jumps; the edge set never moves after the
    pin. Terminates when a round changes no label."""
    import numpy as np

    edge_dir, files_of, eager_cleanup = _pin_edges(
        sym, n_parts, "cee_cc_edges_")
    parts = sorted(files_of)

    part_of = partial(_part_of, node_type=node_type, n_parts=n_parts)

    def _empty_pair():
        e = np.empty(0, dtype=object)
        return (e, e)

    @ray.remote(num_cpus=1)
    def init(part_id: int):
        node_s, _ = _edge_csr(edge_dir, part_id, files_of[part_id])
        nodes = np.unique(node_s)
        return (nodes, nodes.copy()), nodes

    @ray.remote(num_cpus=1)
    def propagate(part_id: int, state, frontier):
        """frontier labels -> (dst, label) candidates, min-combined per
        dst, split by dst partition."""
        nodes, label = state
        node_s, dst_s = _edge_csr(edge_dir, part_id, files_of[part_id])
        f = frontier
        lo = np.searchsorted(node_s, f, side="left")
        hi = np.searchsorted(node_s, f, side="right")
        cnt = hi - lo
        total = int(cnt.sum())
        if total == 0:
            return [_empty_pair()] * n_parts
        starts = np.repeat(lo, cnt)
        offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        dsts = dst_s[starts + offs]
        labs = label[np.searchsorted(nodes, f)]
        labs = np.repeat(labs, cnt)
        if len(dsts) == 0:
            return [_empty_pair()] * n_parts
        u, bl = _grouped_min_arrays(dsts, labs)
        dest = part_of(u)
        return [(u[dest == q], bl[dest == q]) for q in range(n_parts)]

    @ray.remote(num_cpus=1)
    def apply_and_request(part_id: int, state, *cands):
        """merge label candidates; emit jump requests for every node
        whose label is not itself."""
        nodes, label = state
        label = label.copy()
        changed = np.zeros(len(nodes), dtype=bool)
        for ids, labs in cands:
            if len(ids):
                idx = np.searchsorted(nodes, ids)
                better = labs < label[idx]
                if better.any():
                    label[idx[better]] = labs[better]
                    changed[idx[better]] = True
        non_root = label != nodes
        req_n, req_t = nodes[non_root], label[non_root]
        dest = part_of(req_t)
        out = [(req_n[dest == q], req_t[dest == q]) for q in range(n_parts)]
        return ((nodes, label), nodes[changed], *out)

    @ray.remote(num_cpus=1)
    def serve(part_id: int, state, *reqs):
        """answer label(target) for incoming (requester, target) pairs,
        replies split by the requester's partition."""
        nodes, label = state
        if not reqs:
            return [_empty_pair()] * n_parts
        rn = np.concatenate([r[0] for r in reqs])
        rt = np.concatenate([r[1] for r in reqs])
        if len(rn) == 0:
            return [_empty_pair()] * n_parts
        idx = np.searchsorted(nodes, rt)
        # a target is always a real node id (labels are node ids)
        ans = label[idx]
        dest = part_of(rn)
        return [(rn[dest == q], ans[dest == q]) for q in range(n_parts)]

    @ray.remote(num_cpus=1)
    def apply_replies(part_id: int, state, changed1, *replies):
        nodes, label = state
        label = label.copy()
        changed = np.zeros(len(nodes), dtype=bool)
        if len(changed1):
            changed[np.searchsorted(nodes, changed1)] = True
        for ids, labs in replies:
            if len(ids):
                idx = np.searchsorted(nodes, ids)
                better = labs < label[idx]
                if better.any():
                    label[idx[better]] = labs[better]
                    changed[idx[better]] = True
        return (nodes, label), nodes[changed], int(changed.sum())

    @ray.remote(num_cpus=1)
    def finalize(state):
        nodes, label = state
        return pa.table({
            "node": pa.array(nodes.tolist(), type=node_type),
            "cluster": pa.array(label.tolist(), type=node_type)})

    state_ref, frontier_ref, fsize = {}, {}, {}
    for p in parts:
        r = init.options(num_returns=2).remote(p)
        state_ref[p], frontier_ref[p] = r[0], r[1]
        fsize[p] = 1  # all nodes start as frontier

    for _ in range(max_iters):
        active = [p for p in parts if fsize[p]]
        if not active:
            break
        prop = {p: propagate.options(num_returns=n_parts).remote(
            p, state_ref[p], frontier_ref[p]) for p in active}
        ch1_ref, req_refs = {}, {}
        for p in parts:
            cands = [prop[q][p] for q in active]
            rets = apply_and_request.options(
                num_returns=2 + n_parts).remote(p, state_ref[p], *cands)
            state_ref[p], ch1_ref[p] = rets[0], rets[1]
            req_refs[p] = rets[2:]
        served = {p: serve.options(num_returns=n_parts).remote(
            p, state_ref[p], *[req_refs[q][p] for q in parts])
            for p in parts}
        n_changed = {}
        for p in parts:
            replies = [served[q][p] for q in parts]
            rets = apply_replies.options(num_returns=3).remote(
                p, state_ref[p], ch1_ref[p], *replies)
            state_ref[p], frontier_ref[p], n_changed[p] = rets
        fsize = {p: ray.get(r) for p, r in n_changed.items()}

    out_refs = [finalize.remote(state_ref[p]) for p in parts]
    ray.wait(out_refs, num_returns=len(out_refs))
    release_spill_dir(edge_dir, eager_cleanup)
    return ray.data.from_arrow_refs(out_refs)


# ---------------------------------------------------------------------------
# Label-propagation communities (synchronous, deterministic)
# ---------------------------------------------------------------------------

def _lpa_pick(node_arr, label_arr, count_arr):
    """per-node winner: highest neighbor-label count, ties -> MIN label.
    Inputs are (node, label, count) triples (already summed per pair);
    returns (nodes, winning labels), nodes ascending."""
    import numpy as np

    neg = count_arr.max() + 1 - count_arr  # ascending sort key for count
    order = np.lexsort((label_arr, neg, node_arr))
    n_s, l_s = node_arr[order], label_arr[order]
    first = np.empty(len(n_s), dtype=bool)
    first[0] = True
    first[1:] = n_s[1:] != n_s[:-1]
    return n_s[first], l_s[first]


def _lpa_single(t: pa.Table, iters: int) -> pa.Table:
    """Single-task mirror: synchronous LPA over one deduped symmetrized
    edge table, ``iters`` rounds, label(v) <- most frequent neighbor
    label with ties to the minimum. Deterministic by construction."""
    import numpy as np

    node_type = t.schema.field("node").type
    df = t.select(["node", "dst"]).to_pandas().drop_duplicates()
    df = df.sort_values(["node", "dst"], kind="mergesort")
    node_s = df["node"].to_numpy()
    dst_s = df["dst"].to_numpy()
    nodes = np.unique(node_s)
    src_idx = np.searchsorted(nodes, node_s)
    dst_idx = np.searchsorted(nodes, dst_s)
    label = nodes.copy()
    for _ in range(iters):
        # neighbor labels arriving at each node: (dst, label(src))
        lab = label[src_idx]
        key = pd.DataFrame({"n": dst_idx, "l": lab})
        cnt = key.groupby(["n", "l"], sort=False).size().reset_index(
            name="c")
        win_n, win_l = _lpa_pick(cnt["n"].to_numpy(),
                                 cnt["l"].to_numpy(),
                                 cnt["c"].to_numpy())
        new_label = label.copy()
        new_label[win_n] = win_l
        label = new_label
    return pa.table({
        "node": pa.array(nodes.tolist(), type=node_type),
        "community": pa.array(label.tolist(), type=node_type)})


def label_propagation(
    edges: "ray.data.Dataset",
    a_col: str,
    b_col: str,
    iters: int = 5,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """Community detection by synchronous label propagation: ``iters``
    fixed rounds of label(v) <- the most frequent label among v's
    DISTINCT neighbors, ties broken to the minimum label — fully
    deterministic and partitioning-invariant (classic async LPA is
    neither), so the result is oracle-replayable like every operator
    here. Output (node, community).

    Large path = the Pregel skeleton: pinned deduped CSR partitions;
    each round a partition ships (dst, label, count) triples pre-summed
    per (dst, label) inside the sender, and the receive side folds an
    argmax-with-min-tie per node."""
    import numpy as np

    sym = _sym_local_distinct(edges, a_col, b_col).materialize()
    sch = sym.schema()
    n_edges = sym.count() if sch is not None else 0
    if sch is None or n_edges == 0:
        ntype = _schema_col_type(edges.schema(), a_col)
        return ray.data.from_arrow(pa.table({
            "node": pa.array([], ntype), "community": pa.array([], ntype)}))
    node_type = sch.types[0]

    if num_partitions is None and n_edges <= CC_SMALL_EDGES:
        def dedup_lpa(t: pa.Table) -> pa.Table:
            df = t.to_pandas().drop_duplicates()
            return _lpa_single(
                pa.Table.from_pandas(df, preserve_index=False), iters)

        return (sym.repartition(1)
                .map_batches(dedup_lpa, batch_size=None,
                             batch_format="pyarrow"))

    n_parts = (int(num_partitions) if num_partitions
               else max(8, n_edges // 500_000))
    edge_dir, files_of, eager_cleanup = _pin_edges(
        sym, n_parts, "cee_lpa_edges_")
    parts = sorted(files_of)

    part_of = partial(_part_of, node_type=node_type, n_parts=n_parts)

    @ray.remote(num_cpus=1)
    def init(part_id: int):
        node_s, _ = _edge_csr(edge_dir, part_id, files_of[part_id])
        nodes = np.unique(node_s)
        return (nodes, nodes.copy())

    @ray.remote(num_cpus=1)
    def scatter(part_id: int, state):
        nodes, label = state
        node_s, dst_s = _edge_csr(edge_dir, part_id, files_of[part_id])
        lab = label[np.searchsorted(nodes, node_s)]
        cnt = (pd.DataFrame({"d": dst_s, "l": lab})
               .groupby(["d", "l"], sort=False).size().reset_index(
                   name="c"))
        d = cnt["d"].to_numpy()
        l_ = cnt["l"].to_numpy()
        c = cnt["c"].to_numpy().astype(np.int64)
        dest = part_of(d)
        return [(d[dest == q], l_[dest == q], c[dest == q])
                for q in range(n_parts)]

    @ray.remote(num_cpus=1)
    def gather(state, *msgs):
        nodes, label = state
        ds_ = np.concatenate([m[0] for m in msgs])
        ls = np.concatenate([m[1] for m in msgs])
        cs = np.concatenate([m[2] for m in msgs])
        if len(ds_) == 0:
            return (nodes, label)
        cnt = (pd.DataFrame({"n": ds_, "l": ls, "c": cs})
               .groupby(["n", "l"], sort=False)["c"].sum().reset_index())
        win_n, win_l = _lpa_pick(cnt["n"].to_numpy(),
                                 cnt["l"].to_numpy(),
                                 cnt["c"].to_numpy())
        new_label = label.copy()
        new_label[np.searchsorted(nodes, win_n)] = win_l
        return (nodes, new_label)

    @ray.remote(num_cpus=1)
    def finalize(state):
        nodes, label = state
        return pa.table({
            "node": pa.array(nodes.tolist(), type=node_type),
            "community": pa.array(label.tolist(), type=node_type)})

    state_ref = {p: init.remote(p) for p in parts}
    for _ in range(iters):
        scat = {p: scatter.options(num_returns=n_parts).remote(
            p, state_ref[p]) for p in parts}
        state_ref = {p: gather.remote(
            state_ref[p], *[scat[q][p] for q in parts]) for p in parts}
    out_refs = [finalize.remote(state_ref[p]) for p in parts]
    ray.wait(out_refs, num_returns=len(out_refs))
    release_spill_dir(edge_dir, eager_cleanup)
    return ray.data.from_arrow_refs(out_refs)
