"""stages/graph.py — the six graph algorithms: single-task mirrors vs the
superstep core, against independent references."""

import ast
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _union_find(edges, nodes):
    parent = {n: n for n in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {n: find(n) for n in nodes}


class TestConnectedComponents:
    @pytest.mark.parametrize("seed,n_nodes,n_edges", [(1, 60, 40)])
    def test_matches_union_find(self, ray_session, seed, n_nodes, n_edges):
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            connected_components,
        )

        rng = np.random.RandomState(seed)
        edges = [(int(a), int(b)) for a, b in
                 rng.randint(0, n_nodes, size=(n_edges, 2)) if a != b]
        nodes = sorted({x for e in edges for x in e})
        expect = _union_find(edges, nodes)

        ds = ray.data.from_arrow(pa.table({
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64()),
        })).repartition(4)
        got = connected_components(ds, "a", "b").to_pandas()
        assert len(got) == len(nodes)
        got_map = dict(zip(got["node"].astype(int), got["cluster"].astype(int)))
        assert got_map == expect

        # explicit num_partitions forces the ITERATIVE (100TB-shape) path —
        # the small-input union-find shortcut must agree with it exactly
        got_iter = connected_components(
            ds, "a", "b", num_partitions=2).to_pandas()
        iter_map = dict(zip(got_iter["node"].astype(int),
                            got_iter["cluster"].astype(int)))
        assert iter_map == expect

    def test_chain_needs_iterations(self, ray_session):
        """A path graph (worst-case diameter) must still converge to one
        component labeled by the minimum node."""
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            connected_components,
        )

        n = 17
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array(list(range(n - 1)), pa.int64()),
            "b": pa.array(list(range(1, n)), pa.int64()),
        })).repartition(3)
        # num_partitions forces the iterative path (the adaptive shortcut
        # would solve a 17-node chain in one union-find task)
        got = connected_components(ds, "a", "b", num_partitions=2).to_pandas()
        assert set(got["cluster"].astype(int)) == {0}
        assert len(got) == n


class TestPageRank:
    def test_iterative_matches_single_task(self, ray_session):
        """The partitioned superstep path must agree with the
        single-task kernel (±1 on the 1e-9-scaled ranks: float sums
        accumulate in different orders across partitions)."""
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import pagerank

        rng = np.random.RandomState(2)
        edges = [(int(a), int(b)) for a, b in
                 rng.randint(0, 80, size=(200, 2)) if a != b]
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array([e[0] for e in edges], pa.int64()),
            "b": pa.array([e[1] for e in edges], pa.int64()),
        })).repartition(4)
        small = pagerank(ds, "a", "b").to_pandas()
        iterative = pagerank(ds, "a", "b", num_partitions=2).to_pandas()
        m_s = dict(zip(small["node"], small["rank_e9"]))
        m_i = dict(zip(iterative["node"], iterative["rank_e9"]))
        assert m_s.keys() == m_i.keys()
        assert all(abs(m_s[n] - m_i[n]) <= 1 for n in m_s)
        # probability mass ~1 (floor-scaled)
        assert abs(sum(m_s.values()) - 10**9) < len(m_s) + 10


def _ref_kcore(edges, k):
    """Independent dict-adjacency peel (no shared code with the stage)."""
    import collections

    adj = collections.defaultdict(set)
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
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
    return {u: len(vs) for u, vs in alive.items()}


def _ref_bfs(edges, srcs, cap):
    import collections

    adj = collections.defaultdict(set)
    for a, b in edges:
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
    dist = {s: 0 for s in srcs}
    frontier = list(srcs)
    d = 0
    while frontier and d < cap:
        d += 1
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = d
                    nxt.append(v)
        frontier = nxt
    return dist


def _pairs(df, kcol, vcol):
    return (dict(zip(df[kcol], df[vcol])) if kcol in df else {})


class TestKCore:
    def _edges_ds(self):
        import ray

        rng = np.random.RandomState(11)
        raw = rng.randint(0, 300, size=(1200, 2))
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array(raw[:, 0], pa.int64()),
            "b": pa.array(raw[:, 1], pa.int64()),
        })).repartition(4)
        return ds, [(int(a), int(b)) for a, b in raw]

    @pytest.mark.parametrize("k", [2, 4, 7])
    def test_small_and_iterative_match_reference(self, k):
        from calendar_event_entity_extraction_ray.stages.graph import k_core

        ds, raw = self._edges_ds()
        ref = _ref_kcore(raw, k)
        small = k_core(ds, "a", "b", k).to_pandas()
        large = k_core(ds, "a", "b", k, num_partitions=3).to_pandas()
        assert _pairs(small, "node", "deg") == ref
        assert _pairs(large, "node", "deg") == ref

    def test_duplicate_pairs_and_self_loops_ignored(self):
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import k_core

        # triangle with every edge tripled + self loops: degrees must be 2
        t = pa.table({
            "a": pa.array([1, 1, 1, 2, 2, 2, 3, 3, 3, 1, 2], pa.int64()),
            "b": pa.array([2, 2, 2, 3, 3, 3, 1, 1, 1, 1, 2], pa.int64()),
        })
        out = k_core(ray.data.from_arrow(t), "a", "b", 2).to_pandas()
        assert _pairs(out, "node", "deg") == {1: 2, 2: 2, 3: 2}
        empty = k_core(ray.data.from_arrow(t), "a", "b", 3).to_pandas()
        assert _pairs(empty, "node", "deg") == {}

    def test_empty_edges_typed(self):
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import k_core

        t = pa.table({"a": pa.array([], pa.string()),
                      "b": pa.array([], pa.string())})
        out = k_core(ray.data.from_arrow(t), "a", "b", 2)
        assert out.schema().names == ["node", "deg"]


class TestBfsDistances:
    def test_small_and_iterative_match_reference(self):
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            bfs_distances,
        )

        rng = np.random.RandomState(5)
        raw = rng.randint(0, 250, size=(700, 2))
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array(raw[:, 0], pa.int64()),
            "b": pa.array(raw[:, 1], pa.int64()),
        })).repartition(4)
        edges = [(int(a), int(b)) for a, b in raw]
        for srcs, cap in ([[0], 25], [[0, 249], 25], [[7], 2]):
            ref = _ref_bfs(edges, srcs, cap)
            small = bfs_distances(ds, "a", "b", srcs,
                                  max_depth=cap).to_pandas()
            large = bfs_distances(ds, "a", "b", srcs, max_depth=cap,
                                  num_partitions=3).to_pandas()
            assert _pairs(small, "node", "dist") == ref
            assert _pairs(large, "node", "dist") == ref

    def test_isolated_source_emitted_at_zero(self):
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            bfs_distances,
        )

        t = pa.table({"a": ["x", "y"], "b": ["y", "z"]})
        for np_ in (None, 2):
            out = bfs_distances(ray.data.from_arrow(t), "a", "b",
                                ["x", "ghost"],
                                num_partitions=np_).to_pandas()
            assert _pairs(out, "node", "dist") == {
                "x": 0, "ghost": 0, "y": 1, "z": 2}


class TestRandomWalks:
    def _edges(self):
        import ray

        rng = np.random.RandomState(3)
        raw = rng.randint(0, 120, size=(500, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array(raw[:, 0], pa.int64()),
            "b": pa.array(raw[:, 1], pa.int64()),
        })).repartition(4)
        return ds

    def test_partitioning_invariant_and_deterministic(self):
        from calendar_event_entity_extraction_ray.stages.graph import (
            random_walks,
        )

        ds = self._edges()
        small = random_walks(ds, "a", "b", walk_len=6, seed=7).to_pandas()
        large = random_walks(ds, "a", "b", walk_len=6, seed=7,
                             num_partitions=3).to_pandas()
        again = random_walks(ds, "a", "b", walk_len=6, seed=7,
                             num_partitions=5).to_pandas()
        key = ["walk_id", "step"]
        for df in (small, large, again):
            df.sort_values(key, inplace=True)
            df.reset_index(drop=True, inplace=True)
        pd.testing.assert_frame_equal(small, large)
        pd.testing.assert_frame_equal(small, again)

    def test_walk_structure(self):
        import collections

        from calendar_event_entity_extraction_ray.stages.graph import (
            random_walks,
        )

        ds = self._edges()
        df = random_walks(ds, "a", "b", walk_len=4, seed=1).to_pandas()
        # adjacency for validity checking
        raw = ds.to_pandas()
        adj = collections.defaultdict(set)
        for a, b in zip(raw["a"], raw["b"]):
            adj[int(a)].add(int(b))
            adj[int(b)].add(int(a))
        # one walk per node, every walk has steps 0..4, consecutive
        # nodes are real neighbors, step0 == walk_id
        assert set(df["walk_id"]) == set(adj)
        g = df.sort_values("step").groupby("walk_id")
        for wid, grp in g:
            assert list(grp["step"]) == [0, 1, 2, 3, 4]
            path = list(grp["node"])
            assert path[0] == wid
            for u, v in zip(path, path[1:]):
                assert v in adj[int(u)]

    def test_seed_changes_paths(self):
        from calendar_event_entity_extraction_ray.stages.graph import (
            random_walks,
        )

        ds = self._edges()
        a = random_walks(ds, "a", "b", walk_len=6, seed=1).to_pandas()
        b = random_walks(ds, "a", "b", walk_len=6, seed=2).to_pandas()
        key = ["walk_id", "step"]
        a = a.sort_values(key).reset_index(drop=True)
        b = b.sort_values(key).reset_index(drop=True)
        assert not a["node"].equals(b["node"])


class TestLabelPropagation:
    def test_partitioning_invariant_and_communities(self):
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            label_propagation,
        )

        # two planted 12-cliques joined by one bridge edge + noise chain
        import itertools
        e = list(itertools.combinations(range(12), 2))
        e += [(a + 100, b + 100) for a, b in e]
        e += [(0, 100)]                       # bridge
        e += [(200 + i, 201 + i) for i in range(5)]
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array([x for x, _ in e], pa.int64()),
            "b": pa.array([y for _, y in e], pa.int64()),
        })).repartition(3)
        small = label_propagation(ds, "a", "b", iters=5).to_pandas()
        large = label_propagation(ds, "a", "b", iters=5,
                                  num_partitions=3).to_pandas()
        k = small.sort_values("node").reset_index(drop=True)
        g = large.sort_values("node").reset_index(drop=True)
        pd.testing.assert_frame_equal(k, g)
        lab = dict(zip(k["node"], k["community"]))
        # each planted clique is one community
        assert len({lab[i] for i in range(1, 12)}) == 1
        assert len({lab[i + 100] for i in range(1, 12)}) == 1
        assert lab[1] != lab[101]

    def test_matches_independent_replay(self):
        import collections

        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            label_propagation,
        )

        rng = np.random.RandomState(9)
        raw = rng.randint(0, 60, size=(150, 2))
        raw = raw[raw[:, 0] != raw[:, 1]]
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array(raw[:, 0], pa.int64()),
            "b": pa.array(raw[:, 1], pa.int64()),
        }))
        adj = collections.defaultdict(set)
        for x, y in raw.tolist():
            adj[x].add(y)
            adj[y].add(x)
        label = {u: u for u in adj}
        for _ in range(4):
            new = {}
            for u in adj:
                cnt = collections.Counter(label[v] for v in adj[u])
                top = max(cnt.values())
                new[u] = min(l for l, c in cnt.items() if c == top)
            label = new
        got = label_propagation(ds, "a", "b", iters=4).to_pandas()
        got2 = label_propagation(ds, "a", "b", iters=4,
                                 num_partitions=2).to_pandas()
        for df in (got, got2):
            assert dict(zip(df["node"], df["community"])) == label


# A triangle plus one separate edge: small enough that num_partitions=16
# leaves most partitions without an edge (they still hold state, and BFS
# sources can hash there).
_TINY = [(1, 2), (2, 3), (3, 1), (10, 11)]


def _walks_replay(edges, walk_len, seed):
    """Dict-adjacency walk replay over the shared choice stream."""
    import collections

    from calendar_event_entity_extraction_ray.stages.graph import (
        _walk_choice,
    )

    adj = collections.defaultdict(set)
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    neigh = {u: sorted(vs) for u, vs in adj.items()}
    walk_ids = np.array(sorted(neigh), dtype=np.int64)
    cur, rows = walk_ids.copy(), []
    rows += [(w, 0, w) for w in walk_ids]
    for step in range(1, walk_len + 1):
        h = _walk_choice(walk_ids, step, seed)
        cur = np.array([neigh[c][int(hv % np.uint64(len(neigh[c])))]
                        for c, hv in zip(cur, h)], dtype=np.int64)
        rows += [(w, step, c) for w, c in zip(walk_ids, cur)]
    return rows


# algorithm -> (call, expected rows; None = the independent walk replay)
_ALGOS = {
    "cc": (lambda G, ds, np_: G.connected_components(
        ds, "a", "b", num_partitions=np_),
        [(1, 1), (2, 1), (3, 1), (10, 10), (11, 10)]),
    "pagerank": (lambda G, ds, np_: G.pagerank(
        ds, "a", "b", num_partitions=np_),
        # each component keeps its teleport share: every rank stays 1/5
        [(n, 200_000_000) for n in (1, 2, 3, 10, 11)]),
    "k_core": (lambda G, ds, np_: G.k_core(
        ds, "a", "b", 2, num_partitions=np_),
        [(1, 2), (2, 2), (3, 2)]),
    "bfs": (lambda G, ds, np_: G.bfs_distances(
        ds, "a", "b", [1, 11, 99, 99], num_partitions=np_),
        [(1, 0), (2, 1), (3, 1), (10, 1), (11, 0), (99, 0)]),
    "walks": (lambda G, ds, np_: G.random_walks(
        ds, "a", "b", walk_len=3, seed=4, num_partitions=np_), None),
    "lpa": (lambda G, ds, np_: G.label_propagation(
        ds, "a", "b", iters=4, num_partitions=np_),
        [(1, 1), (2, 1), (3, 1), (10, 10), (11, 11)]),
}


class TestPathParity:
    @pytest.mark.parametrize("num_partitions", [None, 2, 16])
    @pytest.mark.parametrize("algo", sorted(_ALGOS))
    def test_paths_agree_on_tiny_graph(self, ray_session, algo,
                                       num_partitions):
        import ray

        from calendar_event_entity_extraction_ray.stages import graph as G

        run, expect = _ALGOS[algo]
        ds = ray.data.from_arrow(pa.table({
            "a": pa.array([a for a, _ in _TINY], pa.int64()),
            "b": pa.array([b for _, b in _TINY], pa.int64()),
        })).repartition(2)
        got = sorted(run(G, ds, num_partitions).to_pandas()
                     .itertuples(index=False, name=None))
        if expect is None:
            expect = _walks_replay(_TINY, 3, 4)
        expect = sorted(expect)
        if algo == "pagerank":   # float sums associate per partition
            assert [n for n, _ in got] == [n for n, _ in expect]
            assert all(abs(g - e) <= 1 for (_, g), (_, e) in
                       zip(got, expect))
        else:
            assert got == expect

    @pytest.mark.parametrize("num_partitions", [None, 2])
    @pytest.mark.parametrize("algo", sorted(_ALGOS))
    def test_empty_edge_list_is_typed(self, ray_session, algo,
                                      num_partitions):
        """Every algorithm returns a typed empty table on no edges; BFS
        returns its distinct sources at distance 0."""
        import ray

        from calendar_event_entity_extraction_ray.stages import graph as G

        ds = ray.data.from_arrow(pa.table({
            "a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())}))
        out = _ALGOS[algo][0](G, ds, num_partitions)
        sch = out.schema()
        assert sch is not None
        assert sch.types[sch.names.index("node")] == pa.int64()
        rows = out.to_pandas()
        if algo == "bfs":
            assert sorted(rows.itertuples(index=False, name=None)) == [
                (1, 0), (11, 0), (99, 0)]
        else:
            assert len(rows) == 0


def test_one_superstep_driver():
    """graph.py keeps ONE superstep loop: at most two remote functions,
    one spill release and one ray.wait."""
    import calendar_event_entity_extraction_ray.stages.graph as G

    tree = ast.parse(pathlib.Path(G.__file__).read_text())

    def name(f):
        while isinstance(f, ast.Call):
            f = f.func
        if isinstance(f, ast.Attribute):
            base = f.value.id if isinstance(f.value, ast.Name) else ""
            return f"{base}.{f.attr}"
        return getattr(f, "id", "")

    remote = [d for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)
              for d in n.decorator_list if name(d) == "ray.remote"]
    calls = [name(n) for n in ast.walk(tree) if isinstance(n, ast.Call)]
    assert len(remote) <= 2
    assert calls.count("release_spill_dir") == 1
    assert calls.count("ray.wait") == 1
