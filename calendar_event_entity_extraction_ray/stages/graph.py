"""Graph analytics over undirected edge lists: connected components,
PageRank, k-core, BFS distances, random walks and label propagation.

Connected components is the canonicalization step a near-dup pipeline
needs after pair generation: pairs (a, b) form clusters, every member
maps to the cluster's minimum id (the canonical representative — the
same keep-smallest convention as the dedup family).

Every algorithm has a single-task mirror (``_*_single``) for edge lists
up to its small-input cutoff. Above it, one superstep core runs a
per-partition ``step`` and ``finish`` per algorithm: ``_prepare``
symmetrizes and counts the edges once, and ``_supersteps`` spills them
into hash partitions ONCE (``_pin_edges``, by the one node assignment
``_part_of`` that also routes every message; CSR-sorted once per run
into the object store). Vertex state lives per partition in the object store, and
rounds exchange only messages as direct plasma refs — the edge set never
moves again (re-shuffling edges + state every round measured BFS 5M
nodes 121 s vs 18.8 s, k-core 17-round cascade 148 s vs 13.8 s).
"""

from __future__ import annotations

import logging
from functools import partial
from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from calendar_event_entity_extraction_ray.functions.dedup import group_fold
from calendar_event_entity_extraction_ray.stages.dedup import hash64_columns
from calendar_event_entity_extraction_ray.stages.exchange import (
    SMALL_ROWS,
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


# ---------------------------------------------------------------------------
# The superstep core: one edge prep, one driver
# ---------------------------------------------------------------------------

def _prepare(edges: "ray.data.Dataset", a_col: str, b_col: str, *,
             distinct: bool, num_partitions: Optional[int],
             small_rows: int = CC_SMALL_EDGES):
    """Symmetrize (a, b) pairs into (node, dst) rows, materialize and count
    them once, and pick the path. ``distinct`` drops self-loops, and drops
    duplicates where all copies of an edge meet: in the one task of the
    small path (here, in Arrow), or per pinned partition in ``_edge_csr``
    (every copy shares its source node, hence its partition).

    Returns ``(sym, node_type, n_parts)``: ``sym`` is None on an empty
    edge list; ``n_parts`` is None when ``sym`` (then one block) is small
    enough for the single-task mirror, else the Pregel partition count."""

    def symmetrize(b: pa.Table) -> pa.Table:
        a = b.column(a_col)
        bb = b.column(b_col)
        t = pa.table({
            "node": pa.chunked_array(list(a.chunks) + list(bb.chunks)),
            "dst": pa.chunked_array(list(bb.chunks) + list(a.chunks)),
        })
        if distinct:
            t = t.filter(pc.not_equal(t.column("node"), t.column("dst")))
        return t

    sym = edges.map_batches(symmetrize, batch_format="pyarrow").materialize()
    sch = sym.schema()
    n_edges = sym.count() if sch is not None else 0
    if n_edges == 0:
        # a schema-less empty dataset breaks downstream joins (all-singleton
        # entity resolution hit this): callers emit a TYPED empty table
        return None, (sch.types[0] if sch is not None
                      else _schema_col_type(edges.schema(), a_col)), 0
    if num_partitions is None and n_edges <= small_rows:
        one = sym.repartition(1)
        if distinct:
            one = one.map_batches(
                lambda t: group_fold(t, ["node", "dst"]),
                batch_size=None, batch_format="pyarrow")
        return one, sch.types[0], None
    return sym, sch.types[0], (int(num_partitions) if num_partitions
                               else max(8, n_edges // 500_000))


def _empty(**types) -> "ray.data.Dataset":
    return ray.data.from_arrow(pa.table(
        {c: pa.array([], t) for c, t in types.items()}))


def _single(one: "ray.data.Dataset", fn) -> "ray.data.Dataset":
    return one.map_batches(fn, batch_size=None, batch_format="pyarrow")


def _edge_csr(edge_dir: str, part_id: int, files: tuple, dedup: bool,
              node_type) -> tuple:
    """One pinned partition's edges in CSR form: (node_s, dst_s), the
    node-sorted numpy arrays every round of the run reads. Built once
    per run by one task; the driver holds its ref for the run only, so
    the edge set is held once in total and freed when the run ends."""
    if files:
        t = read_spill(edge_dir, part_id, files)
    else:   # no edge hashed here: the partition still holds state
        t = pa.table({"node": pa.array([], node_type),
                      "dst": pa.array([], node_type)})
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
    return n2, d2


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
    superstep loop. Returns (edge_dir, files_of, eager_cleanup); the
    caller hands the last two to ``release_spill_dir``. Obeys
    CEE_SPILL_ROOT."""
    edge_dir, eager_cleanup = spill_dir_for(prefix)
    listing = spill_partitions(
        sym, lambda b: _part_of(b.column("node"), None, n_parts), edge_dir)
    files_of = {int(p): tuple(sorted(fs)) for p, fs in
                listing.groupby("part_id")["file"].apply(list).items()}
    return edge_dir, files_of, eager_cleanup


def _route(out, node_type, n_parts: int) -> list:
    """One outbox -> one message per destination partition (None = no
    message). ``out`` is None, or a tuple of equal-length columns whose
    first column holds destination node ids, split by ``_part_of``; a
    None first column sends the remaining columns to every partition."""
    if out is None:
        return [None] * n_parts
    key, *cols = out
    if key is None:
        return [tuple(cols)] * n_parts
    if not len(key):
        return [None] * n_parts
    dest = _part_of(key, node_type, n_parts)
    return [tuple(c[dest == q] for c in out) for q in range(n_parts)]


@ray.remote(num_cpus=1)
def _superstep(step, csr, node_type, n_parts: int, state, r: int, *inbox):
    """One partition, one round -> (state, per-destination message counts,
    *one message per destination). Each message is its own object, so
    receivers take refs straight from plasma; only counts reach the
    driver."""
    state, out = step(csr, state, list(inbox), r)
    msgs = _route(out, node_type, n_parts)
    counts = np.array([0 if m is None else len(m[0]) for m in msgs])
    return (state, counts, *msgs)


@ray.remote(num_cpus=1)
def _task(fn, *args):
    return fn(*args)


def _supersteps(sym, node_type, n_parts: int, step, finish, max_round: int,
                *, name: str, dedup: bool = True, seed=None):
    """The one Pregel loop. Each round r = 0..``max_round`` runs
    ``step(csr, state, inbox, r) -> (state, outbox)`` on every partition
    (``csr``: its pinned (node_s, dst_s); ``inbox``: the messages sent to
    it last round, in sender-partition order; outbox as in ``_route``).
    Round 0 builds the state, and its inbox holds the ``seed`` outbox.
    The loop ends after the first round that sends nothing; ending at
    ``max_round`` with messages pending warns, because the result is then
    not the fixpoint the single-task mirror computes. Returns the
    ``finish(state)`` rows of every partition."""
    edge_dir, files_of, eager_cleanup = _pin_edges(
        sym, n_parts, f"cee_{name}_edges_")
    csr = [_task.remote(_edge_csr, edge_dir, p, files_of.get(p, ()), dedup,
                        node_type) for p in range(n_parts)]
    state = [None] * n_parts
    inbox = [[ray.put(m)] if m is not None and len(m[0]) else []
             for m in _route(seed, node_type, n_parts)]
    for r in range(max_round + 1):
        rets = [_superstep.options(num_returns=2 + n_parts).remote(
            step, csr[p], node_type, n_parts, state[p], r, *inbox[p])
            for p in range(n_parts)]
        state = [rt[0] for rt in rets]
        counts = ray.get([rt[1] for rt in rets])
        inbox = [[rets[p][2 + q] for p in range(n_parts) if counts[p][q]]
                 for q in range(n_parts)]
        if not any(inbox):
            break
    else:
        logging.getLogger(__name__).warning(
            "%s: stopped after round %d with messages still pending — the "
            "result is not the fixpoint (a k-core superset, or split "
            "components); raise max_iters", name, max_round)
    out_refs = [_task.remote(finish, s) for s in state]
    ray.wait(out_refs, num_returns=len(out_refs))
    release_spill_dir(edge_dir, eager_cleanup)
    return ray.data.from_arrow_refs(out_refs)


def _out_edges(node_s, f):
    """CSR row indices of every out-edge of the nodes ``f`` (with
    multiplicity), and each f's out-degree."""
    lo = np.searchsorted(node_s, f, side="left")
    cnt = np.searchsorted(node_s, f, side="right") - lo
    total = int(cnt.sum())
    offs = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    return np.repeat(lo, cnt) + offs, cnt


def _cat(inbox: list, n_cols: int) -> tuple:
    """An inbox (list of message tuples) as one tuple of columns."""
    if not inbox:
        return tuple(np.empty(0, np.int64) for _ in range(n_cols))
    return tuple(np.concatenate([m[i] for m in inbox])
                 for i in range(n_cols))


def _label_rows(state, node_type, col: str) -> pa.Table:
    nodes, label = state[0], state[1]
    return pa.table({"node": pa.array(nodes.tolist(), type=node_type),
                     col: pa.array(label.tolist(), type=node_type)})


# ---------------------------------------------------------------------------
# Connected components (min-label propagation + message-based pointer
# jumping)
# ---------------------------------------------------------------------------

def _union_find_fold(t: pa.Table) -> pa.Table:
    """Single-task exact components over one (node, dst) edge table:
    union-find with path compression, then min node id per root as the
    cluster label (identical output contract to the iterative path).
    Node ids may be any orderable type — ints (doc/vec ids) or strings
    (entity surface forms, stages/resolve.py); MIN on strings is
    lexicographic, matching both pandas and DuckDB binary collation."""
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


def _grouped_min_arrays(keys, vals):
    """(keys, grouped-min vals) via one sort + minimum.reduceat — the
    sender-side combiner of the CC propagate phase (pandas groupby.min
    measured ~2-3x slower at 20M rows/round on the ring worst case)."""
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


def _cc_lower(nodes, label, changed, inbox) -> None:
    """Apply (node, label) offers in place: a label only ever decreases.
    Message by message — one node may hear from several senders."""
    for ids, labs in inbox:
        idx = np.searchsorted(nodes, ids)
        better = labs < label[idx]
        label[idx[better]] = labs[better]
        changed[idx[better]] = True


def _cc_step(csr, state, inbox, r):
    """One CC iteration is three rounds, state (nodes, label, changed):

      r % 3 == 0  apply jump replies (r > 0); nodes whose label changed
        this iteration push it across their edges, MIN-combined per dst
        inside the sender;
      r % 3 == 1  apply those candidates; every node with label != node
        asks partition(label) for label(label) (request);
      r % 3 == 2  the owner replies; the asker takes the min next round.

    Chains collapse in O(log diameter) iterations — WITHOUT the jumps, a
    path graph needs diameter rounds (a 10M-node ring would need 5M).
    The run ends at the first propagate round with nothing to send."""
    node_s, dst_s = csr
    if r == 0:
        nodes = np.unique(node_s)
        state = (nodes, nodes.copy(), np.ones(len(nodes), dtype=bool))
    nodes, label, changed = state
    phase = r % 3
    if phase == 2:
        targets, askers = _cat(inbox, 2)
        return state, (askers, label[np.searchsorted(nodes, targets)])
    if r:
        label = label.copy()
        changed = (np.zeros(len(nodes), dtype=bool) if phase == 1
                   else changed.copy())
        _cc_lower(nodes, label, changed, inbox)
    if phase == 1:
        non_root = label != nodes
        return (nodes, label, changed), (label[non_root], nodes[non_root])
    frontier = np.nonzero(changed)[0]
    idx, cnt = _out_edges(node_s, nodes[frontier])
    out = None
    if len(idx):
        out = _grouped_min_arrays(dst_s[idx],
                                  np.repeat(label[frontier], cnt))
    return (nodes, label, changed), out


def connected_components(
    edges: "ray.data.Dataset",
    a_col: str,
    b_col: str,
    max_iters: int = 50,
    num_partitions: Optional[int] = None,
) -> "ray.data.Dataset":
    """(a, b) undirected edge list -> (node, cluster) with cluster = min
    node id of the component. Isolated nodes don't appear (no edges).

    Adaptive small path: the iterative algorithm costs several rounds of
    tasks; on an edge list that fits one task (<= CC_SMALL_EDGES), a
    single union-find fold replaces them (measured 6.4s -> ~1s on the
    sf0.01 dup graph; union-find is O(E a(E)) and folds 2M string edges
    in ~15s / 2M int edges in ~3s). Above the cutoff, or with
    ``num_partitions`` set, ``_cc_step`` runs on the superstep core —
    the 10^9+-edge multi-node shape; stopping at ``max_iters`` before
    the fixpoint warns."""
    sym, ntype, n_parts = _prepare(edges, a_col, b_col, distinct=False,
                                   num_partitions=num_partitions)
    if sym is None:
        return _empty(node=ntype, cluster=ntype)
    if n_parts is None:
        return _single(sym, _union_find_fold)
    return _supersteps(sym, ntype, n_parts, _cc_step,
                       partial(_label_rows, node_type=ntype, col="cluster"),
                       3 * max_iters, name="cc")


# ---------------------------------------------------------------------------
# PageRank
# ---------------------------------------------------------------------------

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


def _pagerank_step(csr, state, inbox, r, *, d: float, iters: int):
    """Round 0 builds (nodes, deg) and broadcasts the local node count;
    round 1 seeds rank 1/n; rounds 2.. add the incoming mass in
    sender-partition order. Rounds 1..iters then send each node's
    rank/deg across its edge instances, summed per dst inside the sender
    (the combiner shape: at most one row per distinct dst)."""
    node_s, dst_s = csr
    if r == 0:
        nodes, counts = np.unique(node_s, return_counts=True)
        return (nodes, counts.astype(np.float64), None, 0), (
            None, np.array([len(nodes)]))
    nodes, deg, ranks, n = state
    if r == 1:
        n = int(sum(int(m[0][0]) for m in inbox))
        ranks = np.full(len(nodes), 1.0 / n)
    else:
        incoming = np.zeros(len(nodes))
        for ids, mass in inbox:
            incoming[np.searchsorted(nodes, ids)] += mass
        ranks = (1.0 - d) / n + d * incoming
    if r > iters:
        return (nodes, deg, ranks, n), None
    # every source row in node_s is present in nodes (built from it)
    per_edge = (ranks / deg)[np.searchsorted(nodes, node_s)]
    u_dst, inv = np.unique(dst_s, return_inverse=True)
    mass = np.zeros(len(u_dst))
    np.add.at(mass, inv, per_edge)
    return (nodes, deg, ranks, n), (u_dst, mass)


def _pagerank_rows(state, node_type) -> pa.Table:
    nodes, _deg, ranks, _n = state
    return pa.table({
        "node": pa.array(nodes.tolist(), type=node_type),
        "rank_e9": pa.array(np.floor(ranks * 1e9 + 0.5).astype(np.int64),
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

    Small graphs (<= the exchange's SMALL_ROWS) solve in ONE numpy task.
    The large path runs ``_pagerank_step`` on the superstep core with
    edges pinned by INSTANCE (dedup=False — mass flows once per edge,
    self-loops included): each round ships only per-destination mass
    contributions pre-summed by dst inside the sender."""
    sym, ntype, n_parts = _prepare(edges, a_col, b_col, distinct=False,
                                   num_partitions=num_partitions,
                                   small_rows=SMALL_ROWS)
    if sym is None:
        return _empty(node=ntype, rank_e9=pa.int64())
    if n_parts is None:
        return _single(sym, lambda t: _pagerank_single(t, damping, iters))
    return _supersteps(sym, ntype, n_parts,
                       partial(_pagerank_step, d=damping, iters=iters),
                       partial(_pagerank_rows, node_type=ntype), iters + 1,
                       name="pr", dedup=False)


# ---------------------------------------------------------------------------
# k-core
# ---------------------------------------------------------------------------

def _kcore_single(t: pa.Table, k: int) -> pa.Table:
    """Single-task exact k-core peel over one DISTINCT symmetrized
    (node, dst) edge table — the small-graph shortcut (the distributed
    path must produce the identical (node, deg) set)."""
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


def _kcore_step(csr, state, inbox, r, *, k: int):
    """State (nodes, deg, alive): apply incoming death notifications (one
    bincount decrement), peel local nodes that fell below k, and notify
    each victim's neighbors. Every edge carries at most one message per
    direction over the WHOLE run, so total traffic is O(E) regardless of
    peel depth."""
    node_s, dst_s = csr
    if r == 0:
        nodes, counts = np.unique(node_s, return_counts=True)
        deg = counts.astype(np.int64)
        alive = np.ones(len(nodes), dtype=bool)
    else:
        nodes, deg, alive = state
        (ids,) = _cat(inbox, 1)
        deg = deg - np.bincount(np.searchsorted(nodes, ids),
                                minlength=len(nodes))
    dying = alive & (deg < k)
    idx, _ = _out_edges(node_s, nodes[dying])
    return (nodes, deg, alive & ~dying), (dst_s[idx],)


def _kcore_rows(state, node_type) -> pa.Table:
    nodes, deg, alive = state
    return pa.table({"node": pa.array(nodes[alive].tolist(), type=node_type),
                     "deg": pa.array(deg[alive], pa.int64())})


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

    Algorithm: iterative peeling. Small edge lists (<= CC_SMALL_EDGES)
    peel in a single numpy task; above, ``_kcore_step`` runs on the
    superstep core, one peel level per round (web-ish graphs: a
    handful). Stopping after ``max_iters`` rounds with death
    notifications pending warns: the survivors are then a superset of
    the true k-core."""
    sym, ntype, n_parts = _prepare(edges, a_col, b_col, distinct=True,
                                   num_partitions=num_partitions)
    if sym is None:
        return _empty(node=ntype, deg=pa.int64())
    if n_parts is None:
        return _single(sym, lambda t: _kcore_single(t, k))
    return _supersteps(sym, ntype, n_parts, partial(_kcore_step, k=k),
                       partial(_kcore_rows, node_type=ntype), max_iters,
                       name="kcore")


# ---------------------------------------------------------------------------
# BFS shortest-path distances
# ---------------------------------------------------------------------------

def _bfs_single(t: pa.Table, sources, max_depth: int) -> pa.Table:
    """Single-task exact BFS over one symmetrized (node, dst) edge table
    — the small-graph shortcut (the distributed path must match it).
    ``sources`` must be distinct."""
    node_type = t.schema.field("node").type
    a = t.column("node").to_pandas().to_numpy()
    b = t.column("dst").to_pandas().to_numpy()
    nodes, inv_a = np.unique(a, return_inverse=True)
    inv_b = np.searchsorted(nodes, b)
    n = len(nodes)
    dist = np.full(n, -1, dtype=np.int64)
    # sources absent from the edge list are isolated — emitted at dist 0
    # below (contract: every source appears, unreachable non-sources
    # don't)
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


def _bfs_step(csr, state, inbox, r, *, max_depth: int):
    """State (nodes, dist): round r's inbox holds the candidates at
    distance r (round 0: the sources). BFS first arrival is minimal, so
    the merge is a set difference; the newly labeled nodes are the
    frontier, expanded while r < max_depth."""
    node_s, dst_s = csr
    (arrived,) = _cat(inbox, 1)
    have, dist = state if r else (arrived[:0], np.empty(0, np.int64))
    new = pd.unique(arrived)
    new = new[~pd.Series(new).isin(have).to_numpy()]
    state = (np.concatenate([have, new]),
             np.concatenate([dist, np.full(len(new), r, np.int64)]))
    if r == max_depth:
        return state, None
    idx, _ = _out_edges(node_s, new)
    return state, (np.unique(dst_s[idx]),)


def _bfs_rows(state, node_type) -> pa.Table:
    nodes, dist = state
    return pa.table({"node": pa.array(nodes.tolist(), type=node_type),
                     "dist": pa.array(dist, pa.int64())})


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
    unreachable nodes don't appear. Every distinct source appears once,
    at dist 0, also on an empty edge list.

    Distinct from connected_components: labels are DISTANCES, so pointer
    jumping does not apply — rounds = source eccentricity. A naive
    join-per-round re-ships the WHOLE edge set every round (measured
    121 s for 7 rounds on a 5M-node tree); above the small cutoff
    ``_bfs_step`` runs on the superstep core instead, and each round
    ships only candidate nodes — per-round cost is O(frontier + its
    adjacency), not O(E + V). Small edge lists solve in a single numpy
    task.

    Multi-node note: the edge spill obeys CEE_SPILL_ROOT like the
    exchange (node-local tempdir otherwise — single-filesystem
    assumption); candidate messages move through the object store."""
    sources = list(dict.fromkeys(sources))
    sym, ntype, n_parts = _prepare(edges, a_col, b_col, distinct=False,
                                   num_partitions=num_partitions)
    if sym is None:
        return ray.data.from_arrow(pa.table({
            "node": pa.array(sources, ntype),
            "dist": pa.array([0] * len(sources), pa.int64())}))
    if n_parts is None:
        return _single(sym, lambda t: _bfs_single(t, sources, max_depth))
    seed = (pa.array(sources, ntype).to_pandas().to_numpy(),)
    return _supersteps(sym, ntype, n_parts,
                       partial(_bfs_step, max_depth=max_depth),
                       partial(_bfs_rows, node_type=ntype), max_depth,
                       name="bfs", seed=seed)


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
    """Single-task mirror over one distinct symmetrized (node, dst) edge
    table: one walk per node, rows (walk_id, step, node)."""
    node_type = t.schema.field("node").type
    df = t.select(["node", "dst"]).to_pandas()
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


def _walk_step(csr, trace, inbox, r, *, walk_len: int, seed: int):
    """Walkers are (next node, walk_id) messages: record the arriving
    walkers at this partition's nodes (round 0: one walker per node),
    hop each to a hashed neighbor, and ship it onward. The trace of
    (walk_id, step, node) arrays is the state."""
    node_s, dst_s = csr
    if r == 0:
        cur = w = np.unique(node_s)
        trace = ()
    else:
        cur, w = _cat(inbox, 2)
    trace = trace + ((w, np.full(len(w), r, np.int64), cur),)
    if r == walk_len:
        return trace, None
    lo = np.searchsorted(node_s, cur, side="left")
    deg = (np.searchsorted(node_s, cur, side="right") - lo).astype(np.uint64)
    h = _walk_choice(w, r + 1, seed)
    return trace, (dst_s[lo + (h % deg).astype(np.int64)], w)


def _walk_rows(trace, node_type) -> pa.Table:
    w, s, n = (np.concatenate([t[i] for t in trace]) for i in range(3))
    return pa.table({"walk_id": pa.array(w.tolist(), type=node_type),
                     "step": pa.array(s, pa.int64()),
                     "node": pa.array(n.tolist(), type=node_type)})


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

    Large path = ``_walk_step`` on the superstep core: walkers are
    messages, each position row is recorded IN the partition where that
    node lives — total traffic O(walks x length), no assembly shuffle
    (the row form is already complete)."""
    sym, ntype, n_parts = _prepare(edges, a_col, b_col, distinct=True,
                                   num_partitions=num_partitions)
    if sym is None:
        return _empty(walk_id=ntype, step=pa.int64(), node=ntype)
    if n_parts is None:
        return _single(sym, lambda t: _walks_single(t, walk_len, seed))
    return _supersteps(sym, ntype, n_parts,
                       partial(_walk_step, walk_len=walk_len, seed=seed),
                       partial(_walk_rows, node_type=ntype), walk_len,
                       name="walk")


# ---------------------------------------------------------------------------
# Label-propagation communities (synchronous, deterministic)
# ---------------------------------------------------------------------------

def _lpa_pick(node_arr, label_arr, count_arr):
    """per-node winner: highest neighbor-label count, ties -> MIN label.
    Inputs are (node, label, count) triples (already summed per pair);
    returns (nodes, winning labels), nodes ascending."""
    neg = count_arr.max() + 1 - count_arr  # ascending sort key for count
    order = np.lexsort((label_arr, neg, node_arr))
    n_s, l_s = node_arr[order], label_arr[order]
    first = np.empty(len(n_s), dtype=bool)
    first[0] = True
    first[1:] = n_s[1:] != n_s[:-1]
    return n_s[first], l_s[first]


def _lpa_single(t: pa.Table, iters: int) -> pa.Table:
    """Single-task mirror: synchronous LPA over one distinct symmetrized
    edge table, ``iters`` rounds, label(v) <- most frequent neighbor
    label with ties to the minimum. Deterministic by construction."""
    node_type = t.schema.field("node").type
    df = t.select(["node", "dst"]).to_pandas()
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


def _lpa_step(csr, state, inbox, r, *, iters: int):
    """State (nodes, label): fold the (dst, label, count) triples that
    arrived into an argmax-with-min-tie per node, then (rounds
    0..iters-1) send each node's label to its distinct neighbors,
    pre-summed per (dst, label) inside the sender."""
    node_s, dst_s = csr
    if r == 0:
        nodes = np.unique(node_s)
        label = nodes.copy()
    else:
        nodes, label = state
        ds_, ls, cs = _cat(inbox, 3)
        if len(ds_):
            cnt = (pd.DataFrame({"n": ds_, "l": ls, "c": cs})
                   .groupby(["n", "l"], sort=False)["c"].sum()
                   .reset_index())
            win_n, win_l = _lpa_pick(cnt["n"].to_numpy(),
                                     cnt["l"].to_numpy(),
                                     cnt["c"].to_numpy())
            label = label.copy()
            label[np.searchsorted(nodes, win_n)] = win_l
    if r == iters:
        return (nodes, label), None
    lab = label[np.searchsorted(nodes, node_s)]
    cnt = (pd.DataFrame({"d": dst_s, "l": lab})
           .groupby(["d", "l"], sort=False).size().reset_index(name="c"))
    return (nodes, label), (cnt["d"].to_numpy(), cnt["l"].to_numpy(),
                            cnt["c"].to_numpy().astype(np.int64))


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
    here. Output (node, community). Large path = ``_lpa_step`` on the
    superstep core."""
    sym, ntype, n_parts = _prepare(edges, a_col, b_col, distinct=True,
                                   num_partitions=num_partitions)
    if sym is None:
        return _empty(node=ntype, community=ntype)
    if n_parts is None:
        return _single(sym, lambda t: _lpa_single(t, iters))
    return _supersteps(sym, ntype, n_parts, partial(_lpa_step, iters=iters),
                       partial(_label_rows, node_type=ntype,
                               col="community"), iters, name="lpa")
