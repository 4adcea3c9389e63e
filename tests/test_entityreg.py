"""Persistent entity registry (stages/entityreg.py): id stability
across epochs, typo adoption into existing entities, deterministic
minting for new clusters, idempotent epoch re-runs, crash-safe commit
order, and partitioning independence."""

import os
import shutil

import pandas as pd
import pyarrow as pa
import pytest

from calendar_event_entity_extraction_ray.stages import entityreg as ER
from calendar_event_entity_extraction_ray.state import manifest


def _ds(surfs, blocks=2):
    import ray

    return ray.data.from_arrow(pa.table({
        "surface": pa.array(surfs, pa.string())})).repartition(blocks)


def _lookup(store, surfs):
    df = ER.lookup_surfaces(_ds(surfs), store).to_pandas()
    return dict(zip(df["surface"], df["entity_id"]))


@pytest.fixture
def store(tmp_path):
    return str(tmp_path / "entreg")


class TestRegistry:
    def test_epoch1_clusters_and_minting(self, ray_session, store):
        st = ER.register_epoch(
            _ds(["john smith", "johm smith", "berlin", "john smith"]),
            store, "e1", num_partitions=8)
        assert (st["n_surfaces"], st["n_members"], st["n_new"]) == (3, 0, 3)
        got = _lookup(store, ["john smith", "johm smith", "berlin"])
        # cluster canonical = lexicographic min member
        assert got == {"john smith": "johm smith",
                       "johm smith": "johm smith",
                       "berlin": "berlin"}

    def test_stability_and_typo_adoption(self, ray_session, store):
        ER.register_epoch(_ds(["john smith", "berlin"]), store, "e1",
                          num_partitions=8)
        before = _lookup(store, ["john smith", "berlin"])
        # e2: a typo of an old surface, a member re-mention, a new pair
        st = ER.register_epoch(
            _ds(["john smith", "john smitt", "paris", "pariz"]),
            store, "e2", num_partitions=8)
        assert st["n_members"] == 1 and st["n_new"] == 3
        after = _lookup(store, ["john smith", "berlin", "john smitt",
                                "paris", "pariz"])
        # old ids NEVER change
        assert {k: after[k] for k in before} == before
        # typo adopts the EXISTING canonical
        assert after["john smitt"] == "john smith"
        # new cluster mints its own min-member canonical
        assert after["paris"] == "paris" and after["pariz"] == "paris"

    def test_multi_old_adoption_is_min_and_never_merges_old(
            self, ray_session, store):
        """A new surface bridging TWO old entities adopts the
        lexicographic minimum old canonical; the old entities stay
        distinct (incremental semantics never rewrite the past — a
        batch re-resolution WOULD merge them; divergence pinned here)."""
        ER.register_epoch(_ds(["aab", "zzz"]), store, "e1",
                          num_partitions=8)
        # "azb"? need one surface within d=1 of both olds: "aab" and
        # "azb" differ by 1; "azz"/"zzz" differ by 1 — use two typos in
        # one new cluster chain: azb ~ aab (d1), azz ~ zzz (d1),
        # azb ~ azz (d1) chains them
        ER.register_epoch(_ds(["azb", "azz"]), store, "e2",
                          num_partitions=8)
        got = _lookup(store, ["aab", "zzz", "azb", "azz"])
        assert got["aab"] == "aab" and got["zzz"] == "zzz"  # unmerged
        assert got["azb"] == "aab" and got["azz"] == "aab"  # min old

    def test_unregistered_lookup_is_null(self, ray_session, store):
        ER.register_epoch(_ds(["alpha"]), store, "e1", num_partitions=8)
        df = ER.lookup_surfaces(_ds(["alpha", "never seen"]),
                                store).to_pandas()
        m = dict(zip(df["surface"], df["entity_id"]))
        assert m["alpha"] == "alpha"
        assert pd.isna(m["never seen"])

    def test_empty_store_lookup(self, ray_session, store):
        df = ER.lookup_surfaces(_ds(["a", "b"]), store).to_pandas()
        assert df["entity_id"].isna().all()

    def test_rerun_is_noop(self, ray_session, store):
        s1 = ER.register_epoch(_ds(["x1", "x2"]), store, "e1",
                               num_partitions=8)
        rows_before = ER.registry_rows(store)
        s2 = ER.register_epoch(_ds(["totally different"]), store, "e1",
                               num_partitions=8)
        assert not s1.get("noop") and s2["noop"]
        assert ER.registry_rows(store) == rows_before

    def test_mixed_max_d_rejected(self, ray_session, store):
        ER.register_epoch(_ds(["x"]), store, "e1", max_d=1,
                          num_partitions=8)
        with pytest.raises(ValueError):
            ER.register_epoch(_ds(["y"]), store, "e2", max_d=2,
                              num_partitions=8)

    def test_partitioning_independent(self, ray_session, tmp_path):
        surfs1 = [f"name{i:03d}" for i in range(40)] + ["name00x"]
        surfs2 = ["name00y", "name001", "fresh", "frash"]
        maps = []
        for p, blocks in ((4, 2), (16, 7)):
            sd = str(tmp_path / f"s{p}")
            ER.register_epoch(_ds(surfs1, blocks), sd, "e1",
                              num_partitions=p)
            ER.register_epoch(_ds(surfs2, blocks), sd, "e2",
                              num_partitions=p)
            maps.append(_lookup(sd, sorted(set(surfs1 + surfs2))))
        assert maps[0] == maps[1]

    def test_crash_between_files_and_manifest_recovers(
            self, ray_session, store, tmp_path, monkeypatch):
        """Versioned-open-table commit: epoch data files land before the
        manifest commit. A crash between the two leaves the store
        READABLE at the previous epoch (unreferenced files ignored), and
        the re-run converges to the no-crash control."""
        control = str(tmp_path / "control")
        ER.register_epoch(_ds(["aa", "bb"]), store, "e1", num_partitions=8)
        ER.register_epoch(_ds(["aa", "bb"]), control, "e1",
                          num_partitions=8)
        before = _lookup(store, ["aa", "bb", "ab"])

        orig = manifest.write_json

        def boom(out_dir, name, obj):
            raise RuntimeError("injected crash before manifest commit")

        monkeypatch.setattr(manifest, "write_json", boom)
        with pytest.raises(RuntimeError):
            ER.register_epoch(_ds(["ab", "new one"]), store, "e2",
                              num_partitions=8)
        monkeypatch.setattr(manifest, "write_json", orig)

        # crash window: store still serves the e1 view exactly
        assert _lookup(store, ["aa", "bb", "ab"]) == before

        ER.register_epoch(_ds(["ab", "new one"]), store, "e2",
                          num_partitions=8)
        ER.register_epoch(_ds(["ab", "new one"]), control, "e2",
                          num_partitions=8)
        keys = ["aa", "bb", "ab", "new one"]
        assert _lookup(store, keys) == _lookup(control, keys)


class TestStableGraphResolve:
    """resolve_graph_entities_stable: registry-backed canonicalization
    keeps ids stable across epochs where batch re-resolution would
    re-pick canonicals."""

    def _triples(self, rows):
        import datetime

        import ray.data

        ts = datetime.datetime(2025, 6, 1)
        return ray.data.from_items([
            {"subj": s, "pred": p, "obj": o, "kind": k,
             "url": "u", "warc_ts": ts} for s, p, o, k in rows])

    def test_ids_stable_where_batch_would_recluster(
            self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.resolve import (
            resolve_graph_entities,
            resolve_graph_entities_stable,
        )

        store = str(tmp_path / "entstore")
        e1 = self._triples([
            ("e1", "hasAttendee", "bb", "person"),
            ("e2", "hasAttendee", "bd", "person"),
        ])
        out1 = resolve_graph_entities_stable(e1, store, "e1").to_pandas()
        got1 = dict(zip(out1["subj"], out1["obj"]))
        assert got1 == {"e1": "bb", "e2": "bb"}   # cluster min minted

        # epoch 2 adds "ab" (dist 1 of "bb"): a batch re-resolution over
        # the union would move the WHOLE cluster to the new min "ab" —
        # the registry instead adopts the EXISTING canonical "bb"
        e2 = self._triples([
            ("e3", "hasAttendee", "ab", "person"),
            ("e4", "hasAttendee", "bb", "person"),
        ])
        out2 = resolve_graph_entities_stable(e2, store, "e2").to_pandas()
        got2 = dict(zip(out2["subj"], out2["obj"]))
        assert got2 == {"e3": "bb", "e4": "bb"}

        union = self._triples([
            ("e1", "hasAttendee", "bb", "person"),
            ("e2", "hasAttendee", "bd", "person"),
            ("e3", "hasAttendee", "ab", "person"),
        ])
        batch = resolve_graph_entities(union).to_pandas()
        assert dict(zip(batch["subj"], batch["obj"]))["e1"] == "ab"  # != stable

    def test_kinds_resolve_independently_and_idempotent(
            self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.resolve import (
            resolve_graph_entities_stable,
        )

        store = str(tmp_path / "entstore2")
        e1 = self._triples([
            ("e1", "hasAttendee", "rome", "person"),  # person named rome
            ("e2", "atLocation", "rome", "place"),
            ("e3", "atLocation", "roma", "place"),
        ])
        out = resolve_graph_entities_stable(e1, store, "e1").to_pandas()
        got = dict(zip(out["subj"], out["obj"]))
        # place cluster {rome, roma} -> "roma" min; person "rome" alone
        assert got == {"e1": "rome", "e2": "roma", "e3": "roma"}
        # re-running the same epoch is a registry no-op and same rewrite
        out_b = resolve_graph_entities_stable(e1, store, "e1").to_pandas()
        assert dict(zip(out_b["subj"], out_b["obj"])) == got


class TestAsOfAndCompaction:
    def test_as_of_views(self, ray_session, store):
        ER.register_epoch(_ds(["alpha"]), store, "e1", num_partitions=8)
        ER.register_epoch(_ds(["alphb", "beta"]), store, "e2",
                          num_partitions=8)
        # head view: typo resolved; as-of e1: typo not yet registered
        df = ER.lookup_surfaces(_ds(["alpha", "alphb", "beta"]),
                                store, as_of="e1").to_pandas()
        m1 = dict(zip(df["surface"], df["entity_id"]))
        assert m1["alpha"] == "alpha"
        assert pd.isna(m1["alphb"]) and pd.isna(m1["beta"])
        head = _lookup(store, ["alpha", "alphb", "beta"])
        assert head == {"alpha": "alpha", "alphb": "alpha",
                        "beta": "beta"}
        with pytest.raises(ValueError):
            ER.lookup_surfaces(_ds(["alpha"]), store,
                               as_of="never").to_pandas()

    def test_compaction_preserves_resolution(self, ray_session, store):
        ER.register_epoch(_ds(["alpha", "gamma"]), store, "e1",
                          num_partitions=8)
        ER.register_epoch(_ds(["alphb", "delta"]), store, "e2",
                          num_partitions=8)
        keys = ["alpha", "alphb", "gamma", "delta", "alphc"]
        before = _lookup(store, keys)
        rows_before = ER.registry_rows(store)
        m2 = ER.compact_registry(store)
        assert list(m2["epochs"]) == ["base0001"]
        assert ER.registry_rows(store) == rows_before
        assert _lookup(store, keys) == before
        # at most one alias- and one var- file per partition (the
        # serving/ingest file split survives compaction)
        for pent in m2["epochs"]["base0001"]["parts"].values():
            kinds = [f.split("-")[0] for f in pent["files"]]
            assert len(pent["files"]) <= 2
            assert sorted(set(kinds)) == sorted(kinds)  # one per kind
            assert set(kinds) <= {"alias", "var"}
        # compacted epoch re-run: hard no-op
        st = ER.register_epoch(_ds(["totally new"]), store, "e2",
                               num_partitions=8)
        assert st["noop"]
        # as-of a folded epoch errors by design
        with pytest.raises(ValueError):
            ER.lookup_surfaces(_ds(["alpha"]), store,
                               as_of="e1").to_pandas()
        # and the registry keeps growing after compaction
        ER.register_epoch(_ds(["alphc"]), store, "e3", num_partitions=8)
        after = _lookup(store, keys)
        assert after["alphc"] == before["alpha"]
        assert {k: after[k] for k in before if k != "alphc"} == \
            {k: before[k] for k in before if k != "alphc"}

    def test_compaction_crash_window_is_readable(self, ray_session,
                                                 store, monkeypatch):
        """Folds write base files but the manifest os.replace is the
        commit: a crash ON THE MANIFEST path leaves the pre-compaction
        view byte-identical (new base files unreferenced)."""
        ER.register_epoch(_ds(["aa", "cc"]), store, "e1", num_partitions=8)
        ER.register_epoch(_ds(["ac"]), store, "e2", num_partitions=8)
        keys = ["aa", "cc", "ac"]
        before = _lookup(store, keys)

        orig_replace = ER.os.replace

        def boom(src, dst):
            if ER._MANIFEST in str(dst):
                raise RuntimeError("injected crash at manifest commit")
            return orig_replace(src, dst)

        monkeypatch.setattr(ER.os, "replace", boom)
        with pytest.raises(RuntimeError):
            ER.compact_registry(store)
        monkeypatch.setattr(ER.os, "replace", orig_replace)

        assert _lookup(store, keys) == before      # old view authoritative
        m2 = ER.compact_registry(store)            # re-run converges
        assert list(m2["epochs"]) == ["base0001"]
        assert _lookup(store, keys) == before


class TestLookupRegimes:
    def test_broadcast_equals_exchange(self, ray_session, store):
        ER.register_epoch(_ds(["alpha", "alphb", "beta"]), store, "e1",
                          num_partitions=8)
        ER.register_epoch(_ds(["alphc", "gamma"]), store, "e2",
                          num_partitions=8)
        probe = ["alpha", "alphb", "alphc", "beta", "gamma", "missing"]

        def got(mode):
            df = ER.lookup_surfaces(_ds(probe), store,
                                    mode=mode).to_pandas()
            return {r.surface: (None if pd.isna(r.entity_id)
                                else r.entity_id)
                    for r in df.itertuples()}

        b, e = got("broadcast"), got("exchange")
        assert b == e
        assert b["missing"] is None and b["alphc"] == b["alpha"]

    def test_lookup_reads_only_alias_files(self, ray_session, store,
                                           monkeypatch):
        """The serving path must never open the ~13x variant files."""
        ER.register_epoch(_ds(["alpha", "beta"]), store, "e1",
                          num_partitions=8)
        opened = []
        orig = ER.pq.read_table

        def spy(f, *a, **k):
            opened.append(str(f))
            return orig(f, *a, **k)

        monkeypatch.setattr(ER.pq, "read_table", spy)
        ER.lookup_surfaces(_ds(["alpha"]), store,
                           mode="broadcast").to_pandas()
        assert opened and all("var-" not in os.path.basename(f)
                              for f in opened)


class TestEdges:
    def test_max_d2_adoption(self, ray_session, store):
        """Depth-2 deletion blocking: a 2-edit typo adopts the old
        canonical when the store was built with max_d=2."""
        ER.register_epoch(_ds(["constantinople"]), store, "e1", max_d=2,
                          num_partitions=8)
        ER.register_epoch(_ds(["constantinopXY"]),   # 2 substitutions
                          store, "e2", max_d=2, num_partitions=8)
        got = _lookup(store, ["constantinople", "constantinopXY"])
        assert got["constantinopXY"] == "constantinople"  # dist 2

    def test_empty_and_all_null_epochs(self, ray_session, store):
        import ray

        ER.register_epoch(_ds(["seed"]), store, "e1", num_partitions=8)
        # all-NULL epoch
        nulls = ray.data.from_arrow(pa.table({
            "surface": pa.array([None, None], pa.string())}))
        st = ER.register_epoch(nulls, store, "e2", num_partitions=8)
        assert st["n_surfaces"] == 0 and st["rows"] == 0
        # the epoch is still recorded (idempotence + as_of order)
        assert ER.register_epoch(nulls, store, "e2",
                                 num_partitions=8)["noop"]
        assert _lookup(store, ["seed"]) == {"seed": "seed"}


class TestBroadcastRouting:
    def test_auto_routing_uses_alias_only_rows(self, ray_session, store):
        """The manifest records alias-only row counts; auto mode routes
        on those (the broadcast ships only alias files — totals count
        the ~13x variant rows and would abandon the broadcast regime
        far below the intended threshold)."""
        ER.register_epoch(_ds(["alpha", "alphb", "beta"]), store, "e1",
                          num_partitions=8)
        m = ER.STATE.load(store)
        ent = m["epochs"]["e1"]
        assert 0 < ent["alias_rows"] < ent["rows"]
        n_alias = ent["alias_rows"]
        # threshold exactly at alias rows but far below total rows:
        # auto MUST pick broadcast (routing on totals would go
        # exchange). The probe-distinct step uses the exchange once in
        # EITHER regime; the exchange REGIME would use it twice — so
        # count calls.
        import calendar_event_entity_extraction_ray.stages.exchange as X

        real, calls = X.hash_partition_map, []

        def spy(*a, **k):
            calls.append(1)
            return real(*a, **k)

        X.hash_partition_map = spy
        try:
            df = ER.lookup_surfaces(
                _ds(["alpha", "missing"]), store, mode="auto",
                broadcast_max_rows=n_alias).to_pandas()
        finally:
            X.hash_partition_map = real
        assert len(calls) == 1, "auto routed to the exchange regime"
        got = dict(zip(df["surface"], df["entity_id"]))
        assert got["alpha"] is not None and pd.isna(got["missing"])
        # compaction preserves the alias-only count
        ER.compact_registry(store)
        m2 = ER.STATE.load(store)
        ent2 = list(m2["epochs"].values())[0]
        assert ent2["alias_rows"] == n_alias
