"""stages/vecstore.py — persisted IVF vector store: build, prune, query."""

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    import ray

    from calendar_event_entity_extraction_ray.stages.vecstore import (
        build_ivf_store,
    )

    rng = np.random.default_rng(4)
    centers = rng.normal(size=(8, 16)) * 5
    vecs = np.concatenate(
        [c + rng.normal(size=(400, 16)) * 0.1 for c in centers])
    ids = np.arange(len(vecs))
    ds = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(ids, pa.int64()),
        "embedding": pa.array(list(vecs.astype(np.float64)),
                              pa.list_(pa.float64())),
    })).repartition(6)
    out = str(tmp_path_factory.mktemp("vstore") / "ivf")
    manifest = build_ivf_store(ds, out, n_cells=8, sample_size=1600)
    return out, manifest, vecs, ds


class TestIvfStore:
    def test_build_layout(self, store):
        import os

        out, manifest, vecs, _ = store
        assert manifest["n_cells"] == 8
        assert sum(e["rows"] for e in manifest["cells"].values()) \
            == len(vecs)
        for e in manifest["cells"].values():
            assert os.path.exists(os.path.join(out, e["file"]))

    def test_query_prunes_and_recalls(self, store):
        from calendar_event_entity_extraction_ray.stages.knn import (
            knn_bruteforce,
        )
        from calendar_event_entity_extraction_ray.stages.vecstore import (
            query_ivf_store,
        )

        out, _, vecs, ds = store
        qidx = [3, 555, 1777, 3100]
        res = query_ivf_store(out, vecs[qidx], k=5, n_probe=2).to_pandas()
        assert query_ivf_store.last_files_read \
            < query_ivf_store.total_cells
        for qi, vid in enumerate(qidx):
            got = res[res.query_id == qi]
            # rank-1 hit is the query vector itself
            assert int(got[got["rank"] == 1]["vec_id"].iloc[0]) == vid
            brute = knn_bruteforce(ds, vecs[vid], k=5).to_pandas()
            overlap = set(got["vec_id"]) & set(brute["vec_id"])
            assert len(overlap) >= 4   # separated clusters: near-exact

    def test_rebuild_deterministic(self, store, tmp_path):
        import json
        import os

        from calendar_event_entity_extraction_ray.stages.vecstore import (
            build_ivf_store,
            query_ivf_store,
        )

        out, manifest, vecs, ds = store
        out2 = str(tmp_path / "ivf2")
        m2 = build_ivf_store(ds, out2, n_cells=8, sample_size=1600)
        assert m2["centroids"] == manifest["centroids"]
        r1 = query_ivf_store(out, vecs[:2], k=5, n_probe=2).to_pandas()
        r2 = query_ivf_store(out2, vecs[:2], k=5, n_probe=2).to_pandas()
        assert r1.equals(r2)


class TestIvfStoreAppend:
    def test_path_like_epoch_rejected_before_any_write(self, store):
        import os

        from calendar_event_entity_extraction_ray.stages.vecstore import (
            append_ivf_store,
        )

        out, _, _, ds = store
        before = sorted(os.listdir(out))
        with open(os.path.join(out, "_MANIFEST.json"), "rb") as f:
            manifest_before = f.read()
        for epoch in ["", "..", "input-/data/emb.parquet"]:
            with pytest.raises(ValueError, match="not a valid file name"):
                append_ivf_store(ds, out, epoch=epoch)
        assert sorted(os.listdir(out)) == before
        with open(os.path.join(out, "_MANIFEST.json"), "rb") as f:
            assert f.read() == manifest_before

    def test_append_query_compact_cycle(self, store, tmp_path):
        import json
        import os

        import ray

        from calendar_event_entity_extraction_ray.stages.vecstore import (
            append_ivf_store,
            build_ivf_store,
            compact_ivf_store,
            query_ivf_store,
        )

        _, _, vecs, ds = store
        out = str(tmp_path / "ivf_lsm")
        build_ivf_store(ds, out, n_cells=8, sample_size=1600)
        base_files = {k: e["file"] for k, e in json.load(
            open(os.path.join(out, "_MANIFEST.json")))["cells"].items()}

        # day-2 vectors: near cluster 0's center, ids offset by 10_000
        new_vecs = vecs[:50] + 0.01
        nds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(10_000, 10_050), pa.int64()),
            "embedding": pa.array(list(new_vecs.astype(np.float64)),
                                  pa.list_(pa.float64())),
        }))
        m = append_ivf_store(nds, out, epoch="day2")
        assert m["epochs"] == ["day2"]
        # base files untouched, delta side files exist
        man = json.load(open(os.path.join(out, "_MANIFEST.json")))
        n_deltas = 0
        for k, e in man["cells"].items():
            assert e["file"] == base_files[k]
            for d in e.get("deltas", []):
                n_deltas += 1
                assert "delta-day2" in d["file"]
                assert os.path.exists(os.path.join(out, d["file"]))
        assert n_deltas >= 1

        # querying near cluster 0 must now surface the appended ids
        res = query_ivf_store(out, vecs[:1], k=5, n_probe=2).to_pandas()
        assert (res["vec_id"] >= 10_000).any()

        # re-applying the same epoch is a no-op
        m2 = append_ivf_store(nds, out, epoch="day2")
        assert m2["epochs"] == ["day2"]

        # compaction folds deltas, result set unchanged
        before = res.copy()
        cm = compact_ivf_store(out)
        for e in cm["cells"].values():
            assert "deltas" not in e
        after = query_ivf_store(out, vecs[:1], k=5,
                                n_probe=2).to_pandas()
        import pandas as pd

        pd.testing.assert_frame_equal(
            before.reset_index(drop=True), after.reset_index(drop=True))

    def test_reingest_existing_id_last_epoch_wins(self, store, tmp_path):
        """Re-ingesting an EXISTING vec_id shadows the old version:
        top-k never returns the id twice, queries see the NEW vector
        (even when it moved to a different cell), and compact keeps
        exactly one row per id."""
        import json
        import os

        import pandas as pd
        import ray

        from calendar_event_entity_extraction_ray.stages.vecstore import (
            append_ivf_store,
            build_ivf_store,
            compact_ivf_store,
            query_ivf_store,
        )

        _, _, vecs, ds = store
        out = str(tmp_path / "ivf_upd")
        build_ivf_store(ds, out, n_cells=8, sample_size=1600)

        # id 3 stays near its cluster (same cell, nudged); id 555 moves
        # ACROSS clusters (cluster 1 -> cluster 7's center) — the
        # cross-cell shadow case
        upd = np.stack([vecs[3] + 0.01, vecs[2900]])
        nds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array([3, 555], pa.int64()),
            "embedding": pa.array(list(upd.astype(np.float64)),
                                  pa.list_(pa.float64())),
        }))
        append_ivf_store(nds, out, epoch="upd1")

        def check(tag):
            # query near id 3's home: id 3 once, scored vs the NEW vector
            r = query_ivf_store(out, vecs[3:4], k=5, n_probe=3).to_pandas()
            assert (r["vec_id"] == 3).sum() == 1, tag
            # query near id 555's OLD home: stale base row must be masked
            r_old = query_ivf_store(out, vecs[555:556], k=400,
                                    n_probe=2).to_pandas()
            assert (r_old["vec_id"] == 555).sum() == 0, tag
            # query near the NEW location: exactly one hit
            r_new = query_ivf_store(out, vecs[2900:2901], k=400,
                                    n_probe=2).to_pandas()
            assert (r_new["vec_id"] == 555).sum() == 1, tag

        check("pre-compact")
        cm = compact_ivf_store(out)
        check("post-compact")
        # one row per id store-wide after compaction
        assert sum(e["rows"] for e in cm["cells"].values()) == len(vecs)


class TestPqStore:
    """PQ-coded cells + exact re-rank (build_ivf_store(pq_m=...)).

    Own corpus: wider intra-cluster spread (sigma=1.0) so cosine gaps
    exceed quantization noise, and a FULL-coverage codebook sample —
    build_ivf_store samples via ds.limit(), so a clustered id-ordered
    corpus needs sample_size >= corpus for unbiased codebooks at test
    scale (at real scale the sample is a shuffled prefix by contract)."""

    @pytest.fixture(scope="class")
    def pq_store(self, ray_session, tmp_path_factory):
        import ray

        from calendar_event_entity_extraction_ray.stages.vecstore import (
            build_ivf_store,
        )

        rng = np.random.default_rng(4)
        centers = rng.normal(size=(8, 16)) * 5
        vecs = np.concatenate(
            [c + rng.normal(size=(400, 16)) * 1.0 for c in centers])
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(np.arange(len(vecs)), pa.int64()),
            "embedding": pa.array(list(vecs.astype(np.float64)),
                                  pa.list_(pa.float64())),
        })).repartition(6)
        root = tmp_path_factory.mktemp("vstore_pq")
        raw, pqd = str(root / "raw"), str(root / "ivfpq")
        build_ivf_store(ds, raw, n_cells=8, sample_size=3200)
        manifest = build_ivf_store(ds, pqd, n_cells=8, sample_size=3200,
                                   pq_m=8)
        return raw, pqd, manifest, vecs

    def test_layout_has_codes(self, pq_store):
        import os

        import pyarrow.parquet as pq

        _, out, manifest, vecs = pq_store
        assert manifest["pq"]["m"] == 8
        e = next(iter(manifest["cells"].values()))
        t = pq.read_table(os.path.join(out, e["file"]))
        assert "pq_code" in t.schema.names
        # the scan columns (id + codes) are a fraction of the raw bytes
        code_bytes = 8 * t.num_rows
        vec_bytes = 16 * 8 * t.num_rows
        assert code_bytes * 8 <= vec_bytes

    def test_matches_uncompressed_store(self, pq_store):
        """Exact re-rank: results equal the raw store's whenever the
        true top-k survives the shortlist — generous rerank pins it."""
        from calendar_event_entity_extraction_ray.stages.vecstore import (
            query_ivf_store,
        )

        raw_out, pq_out, _, vecs = pq_store
        q = vecs[[5, 700, 2100]]
        want = query_ivf_store(raw_out, q, k=5, n_probe=3).to_pandas()
        got = query_ivf_store(pq_out, q, k=5, n_probe=3,
                              rerank=8).to_pandas()
        assert want.values.tolist() == got.values.tolist()
        # exact scores: the query vector's own id at rank 1, score 1e6
        assert got[got["rank"] == 1]["score_e6"].tolist() == [10**6] * 3

    def test_raw_path_still_works_on_pq_store(self, pq_store):
        """use_pq=False scans raw vectors of a PQ store — same result."""
        from calendar_event_entity_extraction_ray.stages.vecstore import (
            query_ivf_store,
        )

        _, pq_out, _, vecs = pq_store
        q = vecs[[42]]
        a = query_ivf_store(pq_out, q, k=5, n_probe=3,
                            rerank=8).to_pandas()
        b = query_ivf_store(pq_out, q, k=5, n_probe=3,
                            use_pq=False).to_pandas()
        assert a.values.tolist() == b.values.tolist()

    def test_append_compact_cycle_keeps_codes(self, ray_session, pq_store,
                                              tmp_path):
        import os
        import shutil

        import pyarrow.parquet as pqt
        import ray

        from calendar_event_entity_extraction_ray.stages.vecstore import (
            append_ivf_store,
            compact_ivf_store,
            query_ivf_store,
        )

        _, src, manifest, vecs = pq_store
        out = str(tmp_path / "pqcycle")
        shutil.copytree(src, out)
        new = np.tile(vecs[7], (3, 1)) + 0.001
        delta = ray.data.from_arrow(pa.table({
            "vec_id": pa.array([90001, 90002, 90003], pa.int64()),
            "embedding": pa.array(list(new), pa.list_(pa.float64())),
        }))
        append_ivf_store(delta, out, epoch="day1")
        q = vecs[[7]]
        before = query_ivf_store(out, q, k=4, n_probe=3,
                                 rerank=8).to_pandas()
        assert {90001, 90002, 90003} <= set(before["vec_id"])
        compact_ivf_store(out)
        after = query_ivf_store(out, q, k=4, n_probe=3,
                                rerank=8).to_pandas()
        assert before.values.tolist() == after.values.tolist()
        # compacted cells keep the code column
        with open(os.path.join(out, "_MANIFEST.json")) as f:
            import json

            man = json.load(f)
        for e in man["cells"].values():
            t = pqt.read_table(os.path.join(out, e["file"]))
            assert "pq_code" in t.schema.names


class TestTimeTravel:
    """query_ivf_store(as_of=...) — the vecstore analog of the graph
    store's read_output(as_of=...)."""

    def _mk(self, vecs, ids):
        import ray

        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(list(vecs.astype(np.float64)),
                                  pa.list_(pa.float64())),
        }))

    @pytest.fixture(scope="class")
    def lsm_store(self, ray_session, tmp_path_factory, request):
        from calendar_event_entity_extraction_ray.stages.vecstore import (
            append_ivf_store,
            build_ivf_store,
            query_ivf_store,
        )

        rng = np.random.default_rng(4)
        centers = rng.normal(size=(8, 16)) * 5
        vecs = np.concatenate(
            [c + rng.normal(size=(400, 16)) * 0.1 for c in centers])
        out = str(tmp_path_factory.mktemp("vstore_tt") / "ivf")
        build_ivf_store(self._mk(vecs, np.arange(len(vecs))), out,
                        n_cells=8, sample_size=1600)
        q = vecs[:2]
        snap_base = query_ivf_store(out, q, k=5, n_probe=2).to_pandas()
        # day2: new ids near cluster 0; day3 RE-INGESTS id 0 moved far
        # away (shadowing must NOT apply in views before day3)
        append_ivf_store(self._mk(vecs[:30] + 0.01,
                                  np.arange(10_000, 10_030)),
                         out, epoch="day2")
        snap_d2 = query_ivf_store(out, q, k=5, n_probe=2).to_pandas()
        append_ivf_store(self._mk(vecs[-1:], np.array([0])),
                         out, epoch="day3")
        snap_d3 = query_ivf_store(out, q, k=5, n_probe=2).to_pandas()
        return out, q, snap_base, snap_d2, snap_d3

    def test_as_of_reconstructs_each_epoch(self, lsm_store):
        from calendar_event_entity_extraction_ray.stages.vecstore import (
            query_ivf_store,
        )

        out, q, snap_base, snap_d2, snap_d3 = lsm_store
        for as_of, want in (("base", snap_base), ("day2", snap_d2),
                            ("day3", snap_d3)):
            got = query_ivf_store(out, q, k=5, n_probe=2,
                                  as_of=as_of).to_pandas()
            assert got.values.tolist() == want.values.tolist(), as_of
        # the day3 re-ingest actually changed something (id 0 moved out
        # of the probed neighborhood), so the snapshots differ
        assert snap_d2.values.tolist() != snap_d3.values.tolist()
        assert (snap_d2["vec_id"] == 0).any()
        assert not (snap_d3["vec_id"] == 0).any()

    def test_unknown_epoch_raises(self, lsm_store):
        from calendar_event_entity_extraction_ray.stages.vecstore import (
            query_ivf_store,
        )

        out, q, *_ = lsm_store
        with pytest.raises(ValueError, match="unknown epoch"):
            query_ivf_store(out, q, k=5, n_probe=2, as_of="day9")

    def test_compacted_view_rejected(self, lsm_store, tmp_path):
        import shutil

        from calendar_event_entity_extraction_ray.stages.vecstore import (
            compact_ivf_store,
            query_ivf_store,
        )

        out, q, _, snap_d2, snap_d3 = lsm_store
        out2 = str(tmp_path / "ivf_c")
        shutil.copytree(out, out2)
        compact_ivf_store(out2)
        with pytest.raises(ValueError, match="compacted"):
            query_ivf_store(out2, q, k=5, n_probe=2, as_of="day2")
        # the current view still answers, identical to pre-compaction
        got = query_ivf_store(out2, q, k=5, n_probe=2).to_pandas()
        assert got.values.tolist() == snap_d3.values.tolist()


class TestCompactCrashInjection:
    """The compaction commit protocol: cell folds rewrite base files and
    the manifest write is the ONLY commit point; delta side files
    outlive it (deleted after). A crash between the folds and the
    commit must leave the store fully READABLE (folded base + still-
    listed deltas — the delta shadow counts each id once) and a re-run
    must converge to exactly the no-crash result."""

    def _mk(self, vecs, ids):
        import ray

        return ray.data.from_arrow(pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(list(vecs.astype(np.float64)),
                                  pa.list_(pa.float64())),
        }))

    def _build_with_delta(self, root):
        from calendar_event_entity_extraction_ray.stages.vecstore import (
            append_ivf_store,
            build_ivf_store,
        )

        rng = np.random.default_rng(9)
        centers = rng.normal(size=(4, 8)) * 5
        vecs = np.concatenate(
            [c + rng.normal(size=(200, 8)) * 0.1 for c in centers])
        build_ivf_store(self._mk(vecs, np.arange(len(vecs))), root,
                        n_cells=4, sample_size=800)
        # delta re-ingests ids 0..19 (shadowing engages) + new ids
        append_ivf_store(
            self._mk(np.concatenate([vecs[:20] + 0.01, vecs[:10] + 3.0]),
                     np.concatenate([np.arange(20),
                                     np.arange(5000, 5010)])),
            root, epoch="d1")
        return vecs

    def test_crash_before_manifest_commit(self, ray_session, tmp_path,
                                          monkeypatch):
        import json
        import os

        from calendar_event_entity_extraction_ray.stages import vecstore as vs

        crash_root = str(tmp_path / "crash")
        ctrl_root = str(tmp_path / "ctrl")
        vecs = self._build_with_delta(crash_root)
        self._build_with_delta(ctrl_root)
        q = vecs[:3]
        want_pre = vs.query_ivf_store(crash_root, q, k=5,
                                      n_probe=4).to_pandas()

        real_replace = os.replace

        def boom(src, dst, *a, **kw):
            if dst.endswith(os.path.basename(vs.MANIFEST)) \
                    and crash_root in dst:
                raise RuntimeError("injected crash before commit")
            return real_replace(src, dst, *a, **kw)

        monkeypatch.setattr(vs.os, "replace", boom)
        with pytest.raises(RuntimeError, match="injected"):
            vs.compact_ivf_store(crash_root)
        monkeypatch.setattr(vs.os, "replace", real_replace)

        # crash window: manifest unchanged (epoch NOT compacted), delta
        # files still on disk, and the store reads correctly
        m = json.load(open(os.path.join(crash_root, vs.MANIFEST)))
        assert any(e.get("deltas") for e in m["cells"].values())
        for e in m["cells"].values():
            for d in e.get("deltas", []):
                assert os.path.exists(os.path.join(crash_root, d["file"]))
        got_window = vs.query_ivf_store(crash_root, q, k=5,
                                        n_probe=4).to_pandas()
        assert got_window.equals(want_pre)
        # no duplicate ids per query despite base already holding the
        # folded delta rows
        for qi, g in got_window.groupby("query_id"):
            assert g["id" if "id" in g else "vec_id"].is_unique

        # recovery: re-run compacts to exactly the no-crash result
        vs.compact_ivf_store(crash_root)
        vs.compact_ivf_store(ctrl_root)
        got = vs.query_ivf_store(crash_root, q, k=5, n_probe=4).to_pandas()
        want = vs.query_ivf_store(ctrl_root, q, k=5, n_probe=4).to_pandas()
        assert got.equals(want)
        mc = json.load(open(os.path.join(crash_root, vs.MANIFEST)))
        assert all(not e.get("deltas") for e in mc["cells"].values())
        # superseded delta files are gone after the commit
        for e in m["cells"].values():
            for d in e.get("deltas", []):
                assert not os.path.exists(
                    os.path.join(crash_root, d["file"]))


def test_codebook_sample_ignores_block_timing(ray_session, tmp_path):
    """The first block of the input finishes last; the codebook must
    still train on the first ``sample_size`` rows in input order, not on
    whichever blocks finished first."""
    import time

    import ray

    from calendar_event_entity_extraction_ray.stages.knn import (
        train_ivf_codebook,
    )
    from calendar_event_entity_extraction_ray.stages.vecstore import (
        build_ivf_store,
    )

    def vectors(ids: np.ndarray) -> np.ndarray:
        return np.stack([np.sin(ids * (k + 1) / 997.0) + (ids // 1000)
                         for k in range(8)], axis=1)

    def embed(b: pa.Table) -> pa.Table:
        ids = b.column("id").to_numpy()
        if ids.min() == 0:
            time.sleep(2.0)
        return pa.table({
            "vec_id": pa.array(ids, pa.int64()),
            "embedding": pa.array(list(vectors(ids)),
                                  pa.list_(pa.float64())),
        })

    ds = ray.data.range(4000, override_num_blocks=4).map_batches(
        embed, batch_format="pyarrow")
    manifest = build_ivf_store(ds, str(tmp_path / "ivf"), n_cells=4,
                               sample_size=1000)
    want = train_ivf_codebook(vectors(np.arange(1000)), n_cells=4, seed=13)
    np.testing.assert_array_equal(np.asarray(manifest["centroids"]), want)
    assert ds.context.execution_options.preserve_order is False
