"""Persistent entity registry — epoch-incremental entity resolution
with STABLE canonical ids across crawl epochs.

Batch resolution (stages/resolve.py) re-clusters the whole vocabulary
every run, so a canonical id can change when new data arrives — fatal
for a knowledge graph that must stay referentially stable across
crawls. This store gives the incremental contract:

  * a surface form, once registered, keeps its canonical id FOREVER;
  * a new surface within edit distance ``max_d`` of a registered one
    adopts the EXISTING canonical (the typo joins the old entity);
  * new surfaces clustering only among themselves mint a new canonical
    (the cluster's lexicographic minimum — deterministic,
    partitioning-independent);
  * when a new cluster touches SEVERAL old entities, it adopts the
    lexicographically smallest old canonical, and the old entities are
    NOT merged — incremental semantics never rewrite the past. (A
    full-batch re-resolution WOULD merge them; that divergence is the
    standard price of id stability, pinned by a test, not hidden.)

Layout mirrors stages/fpstore.py: rows presharded by ``vh % P`` where
``vh`` is a process-stable 64-bit siphash of each SymSpell deletion
variant (depth <= max_d, including the surface itself flagged
``self``), one directory per epoch, attempt-commit spill (folds return
file names; the driver is the only manifest writer), versioned-open-
table commit order (data files first, manifest ``os.replace`` last —
a crash between them leaves unreferenced files that readers ignore).
Epoch cost is O(delta x neighborhood + touched partitions); the stored
vocabulary never reshuffles.

    store_dir/_ENTMANIFEST.json   {"format_version", "params": {"max_d"},
                                   "num_partitions", "epoch_order",
                                   "epochs": {e: {"parts": {k: {files,
                                                                rows}},
                                                  "rows", "alias_rows",
                                                  "n_surfaces",
                                                  "n_members", "n_new"}},
                                   after compaction: "compaction_gen",
                                   "compacted_epochs"}
    store_dir/epoch=<e>/part=<k>/alias-<uuid>.parquet   (self rows)
    store_dir/epoch=<e>/part=<k>/var-<uuid>.parquet     (variant rows)

The first epoch pins ``params`` and records P; a later one with other
params, or a dir without ``format_version``, is rejected
(state/manifest.py).

Completeness relies on SymSpell deletion blocking: lev(a, b) <= d
implies a and b share a depth-d deletion variant
(functions/editdist.py:deletion_variants), so every qualifying
new-old and new-new pair meets in exactly the partition of the shared
variant's hash. Hash collisions only ADD candidate pairs, which the
exact Myers verify then keeps or kills — never lose one.
"""

from __future__ import annotations

import logging
import os
import uuid
from typing import List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import ray
import ray.data

from calendar_event_entity_extraction_ray.stages.storegc import (
    base_epoch,
    commit_compaction,
    prune_orphans,
)
from calendar_event_entity_extraction_ray.state.manifest import (
    StateFile,
    pin_params,
    write_parquet_atomic,
)

_MANIFEST = "_ENTMANIFEST.json"
STATE = StateFile(_MANIFEST, {"params": None, "num_partitions": None,
                              "epochs": {}})
_LOG = logging.getLogger(__name__)


def _hash64(strs) -> np.ndarray:
    s = pd.Series([x if isinstance(x, str) else "" for x in strs],
                  dtype=object)
    return pd.util.hash_pandas_object(s, index=False).to_numpy() \
        .view(np.int64)


def _epoch_order(m: dict) -> List[str]:
    return list(m.get("epoch_order") or sorted(m["epochs"]))


def _part_files(store_dir: str, m: dict,
                as_of: Optional[str] = None) -> dict:
    """{partition: files}; ``as_of`` restricts to epochs registered up
    to and including the named one (registration order — time travel).
    Asking for an epoch folded away by compaction errors by design."""
    order = _epoch_order(m)
    if as_of is not None:
        if as_of not in order:
            if as_of in m.get("compacted_epochs", []):
                raise ValueError(
                    f"as_of={as_of!r} was folded into the compacted base"
                    " — that historical view no longer exists")
            raise ValueError(f"unknown epoch {as_of!r}; have {order}")
        order = order[:order.index(as_of) + 1]
    out: dict = {}
    for e in order:
        ent = m["epochs"][e]
        for k, pent in sorted(ent["parts"].items()):
            out.setdefault(int(k), []).extend(
                os.path.join(store_dir, f"epoch={e}", f"part={k}", f)
                for f in pent["files"])
    return out


def registry_rows(store_dir: str) -> int:
    m = STATE.load(store_dir)
    return sum(int(ent["rows"]) for ent in m["epochs"].values())


def _explode_variants(b: pa.Table, col: str, max_d: int,
                      canon_col: Optional[str] = None) -> pa.Table:
    """(vh, surface[, canonical], self) rows for every depth<=max_d
    deletion variant of every surface (the surface itself included,
    flagged). The write path passes ``canon_col`` to carry canonicals."""
    from calendar_event_entity_extraction_ray.functions.editdist import (
        deletion_variants,
    )

    variants: List[str] = []
    surfaces: List[str] = []
    canons: List[str] = []
    selfs: List[bool] = []
    canon_vals = (b.column(canon_col).to_pylist()
                  if canon_col is not None else None)
    for i, s in enumerate(b.column(col).to_pylist()):
        if s is None:
            continue
        for v in deletion_variants(s, max_d):
            variants.append(v)
            surfaces.append(s)
            selfs.append(v == s)
            if canon_vals is not None:
                canons.append(canon_vals[i])
    cols = {"vh": pa.array(_hash64(variants)),
            "surface": pa.array(surfaces, pa.string()),
            "self": pa.array(selfs, pa.bool_())}
    if canon_col is not None:
        cols["canonical"] = pa.array(canons, pa.string())
    return pa.table(cols)


def _read_store_part(files: List[str]) -> pd.DataFrame:
    if not files:
        return pd.DataFrame({"vh": pd.Series(dtype="int64"),
                             "surface": pd.Series(dtype=object),
                             "canonical": pd.Series(dtype=object),
                             "self": pd.Series(dtype=bool)})
    t = pa.concat_tables(pq.read_table(f) for f in files)
    return t.to_pandas()


def _distinct_surfaces(ds: "ray.data.Dataset", col: str,
                       num_partitions: Optional[int]) -> "ray.data.Dataset":
    from calendar_event_entity_extraction_ray.stages.dedup import (
        exact_dedup,
    )

    def project(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        c = b.column(col)
        return pa.table({col: c.filter(pc.is_valid(c))})

    return exact_dedup(ds.map_batches(project, batch_format="pyarrow"),
                       key_cols=[col], order_col=col,
                       num_partitions=num_partitions)


def lookup_surfaces(
    ds: "ray.data.Dataset", store_dir: str, col: str = "surface",
    num_partitions: Optional[int] = None, as_of: Optional[str] = None,
    mode: str = "auto", broadcast_max_rows: int = 2_000_000,
) -> "ray.data.Dataset":
    """(surface, entity_id) for every distinct non-null surface in
    ``ds``; entity_id is NULL for unregistered surfaces. Two regimes
    (the fpstore split), identical results:

      * broadcast (registered surfaces <= ``broadcast_max_rows``): the
        alias table ships ONCE via ray.put as Arrow arrays and every
        batch resolves with one vectorized index_in/take — a single
        streaming plan, no exchange (the small-registry serving path);
      * exchange: storage-partitioned semi-join — only the query
        surfaces shuffle (on the self-variant hash), each fold reads
        its partition's alias files (never the ~13x variant files).

    ``as_of``: resolve against the registry as it stood after the named
    epoch (time travel; errors for epochs folded away by compaction)."""
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    m = STATE.load(store_dir)
    surfaces = _distinct_surfaces(ds, col, num_partitions)
    p_total = int(m["num_partitions"] or 0)
    if not m["epochs"] or p_total == 0:
        if as_of is not None:
            raise ValueError(f"unknown epoch {as_of!r}: empty registry")
        return surfaces.map_batches(
            lambda b: pa.table({
                col: b.column(col),
                "entity_id": pa.nulls(b.num_rows, pa.string())}),
            batch_format="pyarrow")
    parts = _part_files(store_dir, m, as_of=as_of)

    if mode == "auto":
        # alias-only counts: the broadcast ships only the alias files,
        # so routing on total rows (alias + ~13x variant rows) abandons
        # the broadcast regime far below the intended threshold. Legacy
        # manifests without alias_rows fall back to the conservative
        # total.
        n_alias = sum(int(e.get("alias_rows", e["rows"]))
                      for name, e in m["epochs"].items())
        mode = "broadcast" if n_alias <= broadcast_max_rows else "exchange"
    if mode == "broadcast":
        alias_files = [f for fs in parts.values() for f in fs
                       if os.path.basename(f).startswith("alias-")]
        if alias_files:
            at = pa.concat_tables(
                pq.read_table(f, columns=["surface", "canonical"])
                for f in alias_files)
        else:
            at = pa.table({"surface": pa.array([], pa.string()),
                           "canonical": pa.array([], pa.string())})
        ref = ray.put((at.column("surface").combine_chunks(),
                       at.column("canonical").combine_chunks()))

        def resolve(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            surfs, canons = ray.get(ref)
            idx = pc.index_in(b.column(col), value_set=surfs)
            return pa.table({col: b.column(col),
                             "entity_id": pc.take(canons, idx)})

        return surfaces.map_batches(resolve, batch_format="pyarrow")
    if mode != "exchange":
        raise ValueError(f"mode={mode!r}: broadcast | exchange | auto")

    def add_vh(b: pa.Table) -> pa.Table:
        return pa.table({
            "vh": pa.array(_hash64(b.column(col).to_pylist())),
            col: b.column(col)})

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        if df.empty:
            return pa.table({col: pa.array([], pa.string()),
                             "entity_id": pa.array([], pa.string())})
        k = int(df["vh"].iloc[0]) % p_total
        # serving path reads ONLY the self-alias files — the variant
        # files (~13x the rows) exist for epoch-ingest matching
        st = _read_store_part([f for f in parts.get(k, [])
                               if os.path.basename(f)
                               .startswith("alias-")])
        st = st[st["self"]][["surface", "canonical"]]
        out = df.merge(st, left_on=col, right_on="surface",
                       how="left", suffixes=("", "_s"))
        return pa.table({
            col: pa.array(out[col], pa.string()),
            "entity_id": pa.array(out["canonical"], pa.string())})

    return hash_partition_map(
        surfaces.map_batches(add_vh, batch_format="pyarrow"),
        "vh", fold, num_partitions=p_total)


def register_epoch(
    ds: "ray.data.Dataset",
    store_dir: str,
    epoch: str,
    col: str = "surface",
    max_d: int = 1,
    num_partitions: int = 64,
    max_bucket: int = 2000,
) -> dict:
    """Register one epoch's surfaces; returns stats. Idempotent: an
    epoch already in the manifest is a no-op. ``max_d`` and P are
    pinned by the store's first epoch (mixing geometries errors)."""
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )
    from calendar_event_entity_extraction_ray.stages.graph import (
        connected_components,
    )
    from calendar_event_entity_extraction_ray.stages.joins import (
        anti_join,
        hash_join,
    )

    m = STATE.load(store_dir)
    pin_params(m, store_dir, {"max_d": max_d}, num_partitions)
    if epoch in m["epochs"]:
        return {"epoch": epoch, "noop": True,
                **{k: m["epochs"][epoch].get(k) for k in
                   ("n_surfaces", "n_members", "n_new", "rows")}}
    if epoch in m.get("compacted_epochs", []):
        # folded into the compacted base: still recorded, still a no-op
        # (all of its surfaces are members of the base now)
        return {"epoch": epoch, "noop": True, "rows": 0}
    p_total = int(m["num_partitions"])
    parts = _part_files(store_dir, m)

    surfaces = _distinct_surfaces(ds, col, None).materialize()
    n_surfaces = surfaces.count()

    from calendar_event_entity_extraction_ray.functions.editdist import (
        myers_distance,
    )

    exploded = surfaces.map_batches(
        _explode_variants, batch_format="pyarrow",
        fn_kwargs={"col": col, "max_d": max_d})

    def match_fold(t: pa.Table) -> pa.Table:
        """Per variant-hash partition: exact membership + verified
        new-old and new-new candidate edges.
        kinds: 0 = member (a=surface, b=stored canonical);
               1 = new-old edge (a=new surface, b=OLD CANONICAL);
               2 = new-new edge (a < b, both new surfaces)."""
        df = t.to_pandas()
        out_k: List[int] = []
        out_a: List[str] = []
        out_b: List[str] = []
        if df.empty:
            return pa.table({"kind": pa.array([], pa.int8()),
                             "a": pa.array([], pa.string()),
                             "b": pa.array([], pa.string())})
        k = int(df["vh"].iloc[0]) % p_total
        st = _read_store_part(parts.get(k, []))
        if len(st):
            # the fold's work must be O(delta), not O(registry): only
            # store rows sharing a variant hash with THIS epoch's rows
            # can match anything (membership self-rows included — the
            # new surface's own self variant pins the same vh), so
            # filter the partition down to the delta's vh set before
            # any per-bucket grouping (measured: without this, a 50k
            # delta over a 500k registry cost as much as the base build)
            st = st[st["vh"].isin(df["vh"].unique())]

        # exact membership: self-variant rows vs stored self rows
        if len(st):
            st_self = st[st["self"]]
            mem = df[df["self"]].merge(
                st_self[["surface", "canonical"]], on="surface")
            for r in mem.itertuples():
                out_k.append(0)
                out_a.append(r.surface)
                out_b.append(r.canonical)

        # candidate buckets by vh
        new_by_vh = df.groupby("vh", sort=False)
        st_by_vh = (dict(list(st.groupby("vh", sort=False)))
                    if len(st) else {})
        n_skipped = 0
        for vh, grp in new_by_vh:
            news = sorted(set(grp["surface"]))
            olds = st_by_vh.get(vh)
            n_old = 0 if olds is None else len(olds)
            if len(news) + n_old > max_bucket:
                n_skipped += len(news)
                continue
            if olds is not None:
                opairs = sorted(set(zip(olds["surface"],
                                        olds["canonical"])))
                for a in news:
                    for s, c in opairs:
                        if a != s and \
                                myers_distance(a, s, max_d=max_d) <= max_d:
                            out_k.append(1)
                            out_a.append(a)
                            out_b.append(c)
            for i in range(len(news)):
                for j in range(i + 1, len(news)):
                    if myers_distance(news[i], news[j],
                                      max_d=max_d) <= max_d:
                        out_k.append(2)
                        out_a.append(news[i])
                        out_b.append(news[j])
        if n_skipped:
            _LOG.warning(
                "entityreg: skipped %d surfaces in oversized variant "
                "buckets (> %d)", n_skipped, max_bucket)
        return pa.table({"kind": pa.array(out_k, pa.int8()),
                         "a": pa.array(out_a, pa.string()),
                         "b": pa.array(out_b, pa.string())})

    res = hash_partition_map(exploded, "vh", match_fold,
                             num_partitions=p_total).materialize()

    def _k(kind: int) -> "ray.data.Dataset":
        import pyarrow.compute as pc

        return res.map_batches(
            lambda b, _kk=kind: b.filter(
                pc.equal(b.column("kind"), _kk)).select(["a", "b"]),
            batch_format="pyarrow")

    from calendar_event_entity_extraction_ray.stages.dedup import (
        exact_dedup,
    )

    # members: unique per surface (a surface registers exactly once)
    members = exact_dedup(_k(0), key_cols=["a"],
                          order_col="b").materialize()
    n_members = members.count()

    new_surfaces = anti_join(surfaces, members.map_batches(
        lambda b: pa.table({col: b.column("a")}), batch_format="pyarrow"),
        key=col, left_cols=[col]).materialize()
    n_new = new_surfaces.count()

    stats = {"epoch": epoch, "noop": False, "n_surfaces": int(n_surfaces),
             "n_members": int(n_members), "n_new": int(n_new)}

    if n_new == 0:
        ent = {"parts": {}, "rows": 0, **{k: stats[k] for k in
               ("n_surfaces", "n_members", "n_new")}}
        _commit_epoch(store_dir, m, epoch, ent)
        stats["rows"] = 0
        return stats

    # new-new edges whose endpoint is actually a MEMBER (the epoch
    # re-mentioned an old surface) become new-old edges to that
    # member's canonical; member-member edges drop (the past is fixed).
    nn = exact_dedup(_k(2), key_cols=["a", "b"], order_col="a")
    if n_members:
        mem_a = members.map_batches(
            lambda b: pa.table({"a": b.column("a"),
                                "_mc": b.column("b")}),
            batch_format="pyarrow").materialize()
        mem_b = mem_a.map_batches(
            lambda b: pa.table({"b": b.column("a"),
                                "_mc2": b.column("_mc")}),
            batch_format="pyarrow")
        joined = hash_join(nn, mem_a, key="a",
                           left_cols=["a", "b"], right_cols=["a", "_mc"],
                           how="left")
        joined = hash_join(joined, mem_b, key="b",
                           left_cols=["a", "b", "_mc"],
                           right_cols=["b", "_mc2"],
                           how="left").materialize()

        import pyarrow.compute as pc

        def split_edges(b: pa.Table) -> pa.Table:
            a_c = b.column("_mc")
            b_c = b.column("_mc2")
            a_mem = pc.is_valid(a_c)
            b_mem = pc.is_valid(b_c)
            keep = pc.and_(pc.invert(a_mem), pc.invert(b_mem))
            nn_part = b.filter(keep)
            # a member, b new -> edge_no(b, canon_a); b member, a new
            no1 = b.filter(pc.and_(a_mem, pc.invert(b_mem)))
            no2 = b.filter(pc.and_(b_mem, pc.invert(a_mem)))
            return pa.table({
                "kind": pa.array(
                    [2] * nn_part.num_rows + [1] * no1.num_rows
                    + [1] * no2.num_rows, pa.int8()),
                "a": pa.concat_arrays(
                    [nn_part.column("a").combine_chunks(),
                     no1.column("b").combine_chunks(),
                     no2.column("a").combine_chunks()]),
                "b": pa.concat_arrays(
                    [nn_part.column("b").combine_chunks(),
                     no1.column("_mc").combine_chunks().cast(pa.string()),
                     no2.column("_mc2").combine_chunks().cast(pa.string()),
                     ]),
            })

        edges_all = joined.map_batches(split_edges,
                                       batch_format="pyarrow").materialize()
        nn_clean = edges_all.map_batches(
            lambda b: b.filter(pc.equal(b.column("kind"), 2))
            .select(["a", "b"]), batch_format="pyarrow")
        extra_no = edges_all.map_batches(
            lambda b: b.filter(pc.equal(b.column("kind"), 1))
            .select(["a", "b"]), batch_format="pyarrow")
        edges_no = _k(1).union(extra_no)
    else:
        nn_clean = nn
        edges_no = _k(1)

    nn_clean = nn_clean.materialize()
    if nn_clean.count():
        comps = connected_components(nn_clean, "a", "b")
        comps = comps.map_batches(
            lambda b: pa.table({col: b.column("node"),
                                "_cluster": b.column("cluster")}),
            batch_format="pyarrow")
    else:
        comps = None

    # every new surface -> cluster label (component min, else itself)
    if comps is not None:
        assigned = hash_join(new_surfaces, comps, key=col,
                             left_cols=[col], right_cols=[col, "_cluster"],
                             how="left")

        def fill_cluster(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            cl = b.column("_cluster").cast(pa.string())
            return pa.table({
                col: b.column(col),
                "_cluster": pc.coalesce(cl, b.column(col))})

        assigned = assigned.map_batches(fill_cluster,
                                        batch_format="pyarrow")
    else:
        assigned = new_surfaces.map_batches(
            lambda b: pa.table({col: b.column(col),
                                "_cluster": b.column(col)}),
            batch_format="pyarrow")
    assigned = assigned.materialize()

    # per-cluster adoption: min OLD canonical adjacent to the cluster
    edges_no = exact_dedup(edges_no, key_cols=["a", "b"],
                           order_col="a").materialize()
    if edges_no.count():
        from calendar_event_entity_extraction_ray.stages.aggregate import (
            extreme_row_per_group,
        )

        linked = hash_join(
            edges_no.map_batches(
                lambda b: pa.table({col: b.column("a"),
                                    "_old": b.column("b")}),
                batch_format="pyarrow"),
            assigned, key=col,
            left_cols=[col, "_old"], right_cols=[col, "_cluster"])
        adopt = extreme_row_per_group(
            linked.select_columns(["_cluster", "_old"]),
            ["_cluster"], [("_old", "ascending")])
        final = hash_join(
            assigned, adopt, key="_cluster",
            left_cols=[col, "_cluster"], right_cols=["_cluster", "_old"],
            how="left")

        def pick(b: pa.Table) -> pa.Table:
            import pyarrow.compute as pc

            old = b.column("_old").cast(pa.string())
            return pa.table({
                col: b.column(col),
                "canonical": pc.coalesce(old, b.column("_cluster"))})

        mapping = final.map_batches(pick, batch_format="pyarrow")
    else:
        mapping = assigned.map_batches(
            lambda b: pa.table({col: b.column(col),
                                "canonical": b.column("_cluster")}),
            batch_format="pyarrow")

    # write phase: explode new aliases to variant rows, preshard, spill,
    # commit via the manifest (versioned-open-table order)
    alias_rows = mapping.map_batches(
        _explode_variants, batch_format="pyarrow",
        fn_kwargs={"col": col, "max_d": max_d, "canon_col": "canonical"})
    ed = os.path.join(store_dir, f"epoch={epoch}")

    def write_fold(t: pa.Table) -> pa.Table:
        written, k = [], 0
        if t.num_rows:
            k = int(t.column("vh")[0].as_py()) % p_total
            written = _write_split(
                os.path.join(ed, f"part={k}"),
                t.select(["vh", "surface", "canonical", "self"]))
        return pa.table({
            "part": pa.array([k] * len(written), pa.int64()),
            "file": pa.array([n for n, _ in written], pa.string()),
            "rows": pa.array([r for _, r in written], pa.int64())})

    wres = hash_partition_map(alias_rows, "vh", write_fold,
                              num_partitions=p_total).to_pandas()
    parts_ent: dict = {}
    total_rows = 0
    alias_rows_total = 0
    if "file" in wres.columns:
        for r in wres.itertuples():
            pent = parts_ent.setdefault(str(int(r.part)),
                                        {"files": [], "rows": 0})
            pent["files"].append(r.file)
            pent["rows"] += int(r.rows)
            total_rows += int(r.rows)
            if str(r.file).startswith("alias-"):
                alias_rows_total += int(r.rows)
        for pent in parts_ent.values():
            pent["files"].sort()
    ent = {"parts": parts_ent, "rows": total_rows,
           "alias_rows": alias_rows_total,
           **{k: stats[k] for k in ("n_surfaces", "n_members", "n_new")}}
    _commit_epoch(store_dir, m, epoch, ent)
    stats["rows"] = total_rows
    return stats


def _write_split(pdir: str, t: pa.Table) -> List[Tuple[str, int]]:
    """Write a partition's rows as two files: "alias-" (self rows only —
    what the lookup serving path reads) and "var-" (the deletion-variant
    rows, ~|surface| x larger — read only by epoch-ingest candidate
    matching). The split cuts lookup IO by the variant fan-out (~13x at
    typical surface lengths). Returns (name, rows) per file written."""
    import pyarrow.compute as pc

    out = []
    for prefix, flag in (("alias", True), ("var", False)):
        sub = t.filter(pc.equal(t.column("self"), flag))
        if sub.num_rows:
            name = f"{prefix}-{uuid.uuid4().hex}.parquet"
            write_parquet_atomic(sub, pdir, name)
            out.append((name, sub.num_rows))
    return out


def _listed_rels(epoch: str, ent: dict) -> set:
    return {os.path.join(f"epoch={epoch}", f"part={k}", f)
            for k, pent in ent["parts"].items() for f in pent["files"]}


def _commit_epoch(store_dir: str, m: dict, epoch: str, ent: dict) -> None:
    """Record ``epoch`` (the commit point), then delete the files a
    crashed earlier attempt left in its dir."""
    m["epoch_order"] = _epoch_order(m) + [epoch] if m["epochs"] \
        else [epoch]
    m["epochs"][epoch] = ent
    STATE.save(store_dir, m)
    prune_orphans(store_dir, f"epoch={epoch}", _listed_rels(epoch, ent))


def compact_registry(store_dir: str) -> dict:
    """LSM compaction: fold every partition's alias files across epochs
    into one file per partition under a new base epoch. Resolution is
    identical before and after (rows are a disjoint union — a surface
    registers exactly once). Commit order per the versioned-open-table
    rule: fold tasks only WRITE the new base files; the manifest
    ``os.replace`` is the commit, and the superseded epoch directories
    are deleted by the driver strictly AFTER it — a crash anywhere
    leaves a readable store (old manifest + old files, with
    unreferenced new-base files ignored). Compacted epoch names are
    retained: ``register_epoch`` stays a no-op for them, and ``as_of``
    views behind the fold error by design."""
    m = STATE.load(store_dir)
    if not m["epochs"]:
        return m
    parts = _part_files(store_dir, m)
    base = base_epoch(m)

    @ray.remote(num_cpus=1)
    def fold(k: int, files: List[str]) -> Tuple[int, list, int, int]:
        t = pa.concat_tables(pq.read_table(f) for f in files)
        written = _write_split(
            os.path.join(store_dir, f"epoch={base}", f"part={k}"), t)
        n_alias = sum(r for n, r in written if n.startswith("alias-"))
        return k, [n for n, _ in written], t.num_rows, n_alias

    refs = [fold.remote(k, files) for k, files in sorted(parts.items())]
    new_parts: dict = {}
    total = 0
    alias_total = 0
    for k, names, rows, n_alias in ray.get(refs):
        new_parts[str(k)] = {"files": sorted(names), "rows": rows}
        total += rows
        alias_total += n_alias
    entry = {"parts": new_parts, "rows": total, "alias_rows": alias_total}
    return commit_compaction(STATE, store_dir, m, entry,
                             _listed_rels(base, entry), epoch_order=[base])
