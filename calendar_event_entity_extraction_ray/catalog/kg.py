"""Knowledge-graph queries: the flagship pipeline, its derived views,
attendee-graph analytics and entity resolution.
"""

from __future__ import annotations

import json
from typing import Any

import pandas as pd
import pyarrow as pa

import ray
import ray.data

from calendar_event_entity_extraction_ray.catalog import (
    _golden, _int64, _n_pages, _read, query,
)


@query("entity_resolution", """
    WITH RECURSIVE w AS (
      SELECT DISTINCT p_name AS s FROM part WHERE p_name IS NOT NULL
    ),
    pairs AS (
      SELECT a.s AS sa, b.s AS sb
      FROM w a JOIN w b
        ON a.s < b.s
       AND abs(length(a.s) - length(b.s)) <= 1
       AND levenshtein(a.s, b.s) <= 1
    ),
    sym AS (
      SELECT sa AS a, sb AS b FROM pairs
      UNION SELECT sb AS a, sa AS b FROM pairs
    ),
    reach(node, peer) AS (
      SELECT a AS node, a AS peer FROM sym
      UNION
      SELECT r.node, s2.b AS peer
      FROM reach r JOIN sym s2 ON r.peer = s2.a
    ),
    cc AS (SELECT node, MIN(peer) AS canon FROM reach GROUP BY node)
    SELECT w.s AS surface, COALESCE(cc.canon, w.s) AS entity_id
    FROM w LEFT JOIN cc ON w.s = cc.node
""", bench=True)
def q_entity_resolution(sf_dir: str) -> Any:
    """Pool-free entity resolution over part surface forms: cluster every
    distinct p_name within edit distance 1 and canonicalize each form to
    its component's lexicographic minimum (stages/resolve.py — distinct
    exchange -> SymSpell deletion-neighborhood pair join -> min-label
    connected components -> LEFT join maps singletons to themselves).
    The oracle replays the identical clustering in DuckDB: levenshtein()
    brute pairs + a recursive transitive-closure CTE + MIN(peer)."""
    from calendar_event_entity_extraction_ray.stages.resolve import (
        resolve_surface_forms,
    )

    parts = _read(sf_dir, "part", columns=["p_name"])
    out = resolve_surface_forms(parts, col="p_name", max_d=1,
                                method="deletions")
    return out.map_batches(
        lambda b: pa.table({"surface": b.column("p_name"),
                            "entity_id": b.column("entity_id")}),
        batch_format="pyarrow")


@query("entity_resolution_freq", """
    WITH RECURSIVE w AS (
      SELECT p_name AS s, COUNT(*) AS n FROM part
      WHERE p_name IS NOT NULL GROUP BY p_name
    ),
    pairs AS (
      SELECT a.s AS sa, b.s AS sb
      FROM w a JOIN w b
        ON a.s < b.s
       AND abs(length(a.s) - length(b.s)) <= 1
       AND levenshtein(a.s, b.s) <= 1
    ),
    sym AS (
      SELECT sa AS a, sb AS b FROM pairs
      UNION SELECT sb AS a, sa AS b FROM pairs
    ),
    reach(node, peer) AS (
      SELECT a AS node, a AS peer FROM sym
      UNION
      SELECT r.node, s2.b AS peer
      FROM reach r JOIN sym s2 ON r.peer = s2.a
    ),
    cc AS (SELECT node, MIN(peer) AS cluster FROM reach
           GROUP BY node),
    memb AS (
      SELECT w.s, COALESCE(cc.cluster, w.s) AS cluster, w.n
      FROM w LEFT JOIN cc ON w.s = cc.node
    ),
    canon AS (
      SELECT cluster, s AS winner FROM (
        SELECT cluster, s,
               ROW_NUMBER() OVER (PARTITION BY cluster
                                  ORDER BY n DESC, s ASC) AS rn
        FROM memb) WHERE rn = 1
    )
    SELECT m.s AS surface, c.winner AS entity_id
    FROM memb m JOIN canon c ON m.cluster = c.cluster
""", bench=True)
def q_entity_resolution_freq(sf_dir: str) -> Any:
    """Entity resolution with the PRACTICAL canonical rule: the cluster
    member with the most input mentions wins (ties -> lexicographic
    min), so the common spelling beats the typo (stages/resolve.py
    canonical="frequent": grouped mention count + per-cluster ARGMAX
    exchange). Oracle: recursive-CTE components + ROW_NUMBER argmax."""
    from calendar_event_entity_extraction_ray.stages.resolve import (
        resolve_surface_forms,
    )

    parts = _read(sf_dir, "part", columns=["p_name"])
    out = resolve_surface_forms(parts, col="p_name", max_d=1,
                                method="deletions", canonical="frequent")
    return out.map_batches(
        lambda b: pa.table({"surface": b.column("p_name"),
                            "entity_id": b.column("entity_id")}),
        batch_format="pyarrow")


# --- golden-parquet oracles: independent SINGLE-PROCESS recompute
# (scripts/make_goldens.py); the KG goldens come from the
# reference-semantics emitter (functions/oracle.py) and the derived
# views are plain SQL over that one emitter output.
@query("kg_flagship", f"SELECT subj, pred, obj, url FROM {_golden('kg_flagship')}")
def q_kg_flagship(sf_dir: str) -> Any:
    """Flagship: synthetic pages (deterministic, sized by sf) -> triples."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    return kg_triples(pages).select_columns(["subj", "pred", "obj", "url"])


@query("kg_entity_degree", f"""
    SELECT obj, COUNT(*) AS degree FROM {_golden('kg_flagship')}
    WHERE pred IN ('hasAttendee', 'hasLocation') GROUP BY obj
""")
def q_kg_entity_degree(sf_dir: str) -> Any:
    """Hub-entity degree counts over the flagship triples (pre-aggregated)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import entity_degree

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    return entity_degree(kg_triples(pages))


@query("action_histogram", f"""
    SELECT obj AS action, COUNT(*) AS n FROM {_golden('kg_flagship')}
    WHERE pred = 'hasAction' GROUP BY obj
""")
def q_action_histogram(sf_dir: str) -> Any:
    """Per-action histogram over extracted events (the reference's
    analyze_dataset per-action histogram, prepare_assignment_data.py:64-102,
    over the flagship extraction output)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        extract_stage,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

    events = extract_stage(synth_pages_dataset(_n_pages(sf_dir), seed=42))
    out = grouped_count(events, "action", out_col="n")
    return _int64(out.sort(["n", "action"], descending=[True, False]), ["n"])


@query("kg_events_view", f"""
    SELECT subj AS event_id, MIN(url) AS url,
           MAX(CASE WHEN pred = 'hasAction' THEN obj END) AS action,
           MAX(CASE WHEN pred = 'hasDate' THEN obj END) AS date,
           MAX(CASE WHEN pred = 'hasTime' THEN obj END) AS time,
           MAX(CASE WHEN pred = 'hasLocation' THEN obj END) AS location,
           MAX(CASE WHEN pred = 'hasDuration' THEN obj END) AS duration,
           MAX(CASE WHEN pred = 'hasRecurrence' THEN obj END) AS recurrence,
           MAX(CASE WHEN pred = 'hasNote' THEN obj END) AS notes
    FROM {_golden('kg_flagship')} GROUP BY subj
""")
def q_kg_events_view(sf_dir: str) -> Any:
    """groupby(subj) canonicalization shuffle: linked triples folded back
    into one row per event (stages/reassemble.py; north-star S5)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.reassemble import (
        reassemble_events,
    )

    triples = kg_triples(synth_pages_dataset(_n_pages(sf_dir), seed=42))
    view = reassemble_events(triples)
    return view.select_columns(["event_id", "url", "action", "date", "time",
                                "location", "duration", "recurrence", "notes"])


@query("eval_metrics", f"SELECT * FROM {_golden('eval_metrics')}")
def q_eval_metrics(sf_dir: str) -> Any:
    """Evaluation pipeline self-check: golden-rendered predictions score 1.0
    and a poisoned tail scores 0 (fractions per evaluate_finetuned.py:48-99)."""
    from calendar_event_entity_extraction_ray import TARGET_KEYS
    from calendar_event_entity_extraction_ray.pipelines.evaluate import evaluate
    from calendar_event_entity_extraction_ray.sources.pages import synth_page

    rows = []
    for i in range(300):
        _, golden = synth_page(i, seed=42)
        for g in golden:
            slots = {k: g.get(k) for k in TARGET_KEYS}
            pred = json.dumps(slots) if i % 10 else "no json at all"
            rows.append({"prediction_text": pred, **slots})
    ds = ray.data.from_items(rows)
    return pd.DataFrame([evaluate(ds)])


@query("co_attendance", f"""
    SELECT a.obj AS a1, b.obj AS a2,
           CAST(COUNT(*) AS BIGINT) AS n_events
    FROM {_golden('kg_flagship')} a
    JOIN {_golden('kg_flagship')} b
      ON b.subj = a.subj
     AND a.pred = 'hasAttendee' AND b.pred = 'hasAttendee'
     AND a.obj < b.obj
    GROUP BY a.obj, b.obj
""", bench=True)
def q_co_attendance(sf_dir: str) -> Any:
    """KG co-occurrence graph: attendee pairs that share an event,
    weighted by how many events they co-attend — the entity-graph
    projection of the flagship triples. Triples exchange on subj (all
    of one event's hasAttendee rows co-locate), the fold emits pairs by
    a per-subject self-merge over (subj, obj) multiplicities (pair
    fan-out bounded by attendees-per-event², single digits), and a
    second exchange sums pair weights across subject partitions. The
    oracle is DuckDB's self-join over the SAME frozen golden triples —
    multiset semantics (duplicate attendee rows multiply) mirrored
    exactly via cnt_x * cnt_y."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    att = kg_triples(pages).map_batches(
        lambda b: add_hash_column(
            b.filter(pc.equal(b.column("pred"), "hasAttendee"))
            .select(["subj", "obj"]), ["subj"], out_col="_kh"),
        batch_format="pyarrow")

    def pair_fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        counts = (df.groupby(["subj", "obj"]).size()
                  .rename("cnt").reset_index())
        m = counts.merge(counts, on="subj", suffixes=("_x", "_y"))
        m = m[m["obj_x"] < m["obj_y"]]
        m["w"] = (m["cnt_x"] * m["cnt_y"]).astype("int64")
        out = (m.groupby(["obj_x", "obj_y"])["w"].sum().reset_index()
               .rename(columns={"obj_x": "a1", "obj_y": "a2",
                                "w": "n_events"}))
        return pa.Table.from_pandas(out, preserve_index=False)

    pairs = hash_partition_map(att, "_kh", pair_fold)
    out = grouped_sums(pairs, key_cols=["a1", "a2"],
                       sum_cols=["n_events"], count_alias="_n")
    df = _int64(out.to_pandas(), ["n_events"])
    return df[["a1", "a2", "n_events"]]


@query("triangle_count", f"""
    WITH e AS (
        SELECT DISTINCT a.obj AS a1, b.obj AS a2
        FROM {_golden('kg_flagship')} a
        JOIN {_golden('kg_flagship')} b
          ON b.subj = a.subj
         AND a.pred = 'hasAttendee' AND b.pred = 'hasAttendee'
         AND a.obj < b.obj)
    SELECT CAST(COUNT(*) AS BIGINT) AS n_triangles
    FROM e e1
    JOIN e e2 ON e2.a1 = e1.a2
    JOIN e e3 ON e3.a1 = e1.a1 AND e3.a2 = e2.a2
""")
def q_triangle_count(sf_dir: str) -> Any:
    """Graph triangle count over the co-attendance entity graph — the
    classic edge-iterator plan: ordered edges (a < b) self-join on the
    middle vertex (one exchange hash join -> wedges a < b < c, each
    candidate triangle enumerated exactly once), then a composite-key
    semi join closes wedges against the edge set ((a, c) membership;
    length-prefixed key — raw separator joins are injectable). Hub
    vertices make wedge fan-out O(d²); the standard degree-ordering
    mitigation slots into the same plan by replacing the lexicographic
    order with a degree rank. Oracle = DuckDB's 3-way self-join over
    the SAME frozen golden triples."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )
    from calendar_event_entity_extraction_ray.stages.joins import (
        hash_join,
        semi_join,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    att = kg_triples(pages).map_batches(
        lambda b: add_hash_column(
            b.filter(pc.equal(b.column("pred"), "hasAttendee"))
            .select(["subj", "obj"]), ["subj"], out_col="_kh"),
        batch_format="pyarrow")

    def pair_fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        u = df.drop_duplicates()
        m = u.merge(u, on="subj", suffixes=("_x", "_y"))
        m = m[m["obj_x"] < m["obj_y"]]
        out = (m[["obj_x", "obj_y"]].drop_duplicates()
               .rename(columns={"obj_x": "a1", "obj_y": "a2"}))
        return pa.Table.from_pandas(out, preserve_index=False)

    raw_pairs = hash_partition_map(att, "_kh", pair_fold)
    # distinct edges across subject partitions (same pair may arise from
    # events in different partitions)
    edges = grouped_sums(raw_pairs, key_cols=["a1", "a2"], sum_cols=[],
                         count_alias="_n").map_batches(
        lambda b: b.select(["a1", "a2"]),
        batch_format="pyarrow").materialize()

    wedges = hash_join(
        edges.map_batches(lambda b: b.rename_columns(["a", "b"]),
                          batch_format="pyarrow"),
        edges.map_batches(lambda b: b.rename_columns(["b", "c"]),
                          batch_format="pyarrow"),
        key="b", left_cols=["a", "b"], right_cols=["b", "c"])

    def _ckey(x: pd.Series, y: pd.Series) -> pd.Series:
        return (x.str.len().astype(str) + ":" + x + "|"
                + y.str.len().astype(str) + ":" + y)

    def wedge_key(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["_ac"] = _ckey(df["a"], df["c"])
        return pa.Table.from_pandas(df, preserve_index=False)

    def edge_key(b: pa.Table) -> pa.Table:
        df = b.to_pandas()
        df["_ac"] = _ckey(df["a1"], df["a2"])
        return pa.Table.from_pandas(df[["_ac"]], preserve_index=False)

    closed = semi_join(
        wedges.map_batches(wedge_key, batch_format="pyarrow"),
        edges.map_batches(edge_key, batch_format="pyarrow"),
        key="_ac", left_cols=["a", "b", "c"])
    return pd.DataFrame({"n_triangles": pd.Series([closed.count()],
                                                  dtype="int64")})


def _attendee_pair_edges(sf_dir: str) -> Any:
    """Ordered DISTINCT co-attendance pairs (a1 < a2) from the flagship
    triples — the shared edge list for the graph-analytics queries
    (same per-subject pair fold as q_triangle_count; global distinct is
    each consumer's job — k_core/bfs symmetrize + dedup internally)."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    pages = synth_pages_dataset(_n_pages(sf_dir), seed=42)
    att = kg_triples(pages).map_batches(
        lambda b: add_hash_column(
            b.filter(pc.equal(b.column("pred"), "hasAttendee"))
            .select(["subj", "obj"]), ["subj"], out_col="_kh"),
        batch_format="pyarrow")

    def pair_fold(t: pa.Table) -> pa.Table:
        df = t.drop_columns(["_kh"]).to_pandas()
        u = df.drop_duplicates()
        m = u.merge(u, on="subj", suffixes=("_x", "_y"))
        m = m[m["obj_x"] < m["obj_y"]]
        out = (m[["obj_x", "obj_y"]].drop_duplicates()
               .rename(columns={"obj_x": "a1", "obj_y": "a2"}))
        return pa.Table.from_pandas(out, preserve_index=False)

    return hash_partition_map(att, "_kh", pair_fold)


@query("kg_attendee_kcore", f"SELECT node, deg FROM {_golden('kg_attendee_kcore')}", bench=True)
def q_kg_attendee_kcore(sf_dir: str) -> Any:
    """k-core (k=3) of the co-attendance entity graph: the maximal
    subgraph where every attendee shares events with >= 3 distinct
    others — the dense social core a KG curation pass would keep.
    Iterative distributed peeling (stages/graph.py:k_core); oracle =
    an independent single-process dict peel over the frozen golden
    triples (tests/golden/oracle/kg_attendee_kcore.parquet)."""
    from calendar_event_entity_extraction_ray.stages.graph import k_core

    edges = _attendee_pair_edges(sf_dir)
    return k_core(edges, "a1", "a2", k=3)


@query("kg_bfs_hops", f"""
    WITH RECURSIVE e AS (
        SELECT DISTINCT a.obj AS a1, b.obj AS a2
        FROM {_golden('kg_flagship')} a
        JOIN {_golden('kg_flagship')} b ON b.subj = a.subj
        WHERE a.pred = 'hasAttendee' AND b.pred = 'hasAttendee'
          AND a.obj <> b.obj),
    seed AS (SELECT MIN(a1) AS s FROM e),
    r AS (
        SELECT s AS node, 0 AS dist FROM seed
        UNION
        SELECT e.a2, r.dist + 1
        FROM r JOIN e ON e.a1 = r.node WHERE r.dist < 25
    )
    SELECT node, CAST(MIN(dist) AS BIGINT) AS dist
    FROM r GROUP BY node
""", bench=True)
def q_kg_bfs_hops(sf_dir: str) -> Any:
    """Unweighted shortest-path hop counts from the lexicographically
    first attendee over the co-attendance graph (distributed BFS,
    stages/graph.py:bfs_distances — min-plus frontier relaxation on the
    exchange). Oracle = a DuckDB RECURSIVE CTE (UNION-distinct frontier,
    MIN(dist) per node) over the same frozen golden triples."""
    from ray.data.aggregate import Min

    from calendar_event_entity_extraction_ray.stages.graph import (
        bfs_distances,
    )

    edges = _attendee_pair_edges(sf_dir).materialize()
    seed = edges.aggregate(Min("a1", alias_name="s"))["s"]
    return bfs_distances(edges, "a1", "a2", [seed], max_depth=25)


@query("kg_attendee_walks", f"SELECT walk_id, step, node "
    f"FROM {_golden('kg_attendee_walks')}", bench=True)
def q_kg_attendee_walks(sf_dir: str) -> Any:
    """DeepWalk-style corpus generation: one deterministic 5-hop random
    walk per attendee over the co-attendance graph, rows
    (walk_id, step, node). Next hops draw from a (walk, step, seed)
    siphash stream, so the corpus is partitioning-invariant and
    re-runnable; oracle = an independent dict-adjacency replay of the
    same stream (tests/golden/oracle/kg_attendee_walks.parquet)."""
    from calendar_event_entity_extraction_ray.stages.graph import (
        random_walks,
    )

    edges = _attendee_pair_edges(sf_dir)
    return random_walks(edges, "a1", "a2", walk_len=5, seed=0)


@query("kg_attendee_communities", f"SELECT node, community "
    f"FROM {_golden('kg_attendee_communities')}", bench=True)
def q_kg_attendee_communities(sf_dir: str) -> Any:
    """Community detection over the co-attendance graph: synchronous
    label propagation, 4 fixed rounds, most-frequent-neighbor-label with
    ties to the minimum — deterministic and partitioning-invariant
    (classic async LPA is neither), so the oracle is an independent
    dict/Counter replay of the same rule."""
    from calendar_event_entity_extraction_ray.stages.graph import (
        label_propagation,
    )

    edges = _attendee_pair_edges(sf_dir)
    return label_propagation(edges, "a1", "a2", iters=4)
