"""Epoch-incremental SemDeDup store (stages/embstore.py): multi-epoch
flow == the sequential mirror with frozen first-epoch centroids,
cross-epoch drops, idempotent re-runs, geometry pinning, crash-safe
commit, partitioning independence."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from calendar_event_entity_extraction_ray.stages import embstore as EB
from calendar_event_entity_extraction_ray.state import manifest


def _vecs(seed, n, d=8, n_clusters=4, spread=0.02):
    """Clustered vectors: cluster centers far apart, members nearly
    parallel within a cluster (cosine ~1) — near-dups by construction."""
    rng = np.random.RandomState(seed)
    centers = np.eye(max(n_clusters, d))[:n_clusters, :d] * 10.0
    base = centers[rng.randint(0, n_clusters, n)]
    return base + rng.randn(n, d) * spread


def _ds(ids, vecs, blocks=3):
    import ray

    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.asarray(ids, np.int64)),
        "embedding": pa.array([list(map(float, v)) for v in vecs],
                              pa.list_(pa.float64())),
    })).repartition(blocks)


def _surv(ds):
    df = ds.to_pandas()
    # an all-empty dataset drops its columns (CLAUDE.md round-2.5)
    return (sorted(df["vec_id"].tolist())
            if "vec_id" in df.columns else [])


class TestEmbStore:
    def test_two_epochs_match_sequential_mirror(self, ray_session,
                                                tmp_path):
        sd = str(tmp_path / "es")
        ids1 = np.arange(60, dtype=np.int64)
        v1 = _vecs(1, 60)
        ids2 = np.arange(100, 140, dtype=np.int64)
        v2 = _vecs(2, 40)

        s1 = _surv(EB.dedup_epoch(_ds(ids1, v1), sd, "e1",
                                  k=4, tau=0.95))
        s2 = _surv(EB.dedup_epoch(_ds(ids2, v2), sd, "e2",
                                  k=4, tau=0.95))
        want = EB.embstore_single_process(
            [(ids1, v1), (ids2, v2)], k=4, tau=0.95)
        assert s1 == want[0].tolist()
        assert s2 == want[1].tolist()
        # near-parallel clusters at tau=0.95: most of each epoch drops
        assert len(s2) < len(ids2)
        assert EB.store_rows(sd) == len(s1) + len(s2)

    def test_cross_epoch_dup_dropped_identical_vector(self, ray_session,
                                                      tmp_path):
        sd = str(tmp_path / "es2")
        v1 = _vecs(3, 20, spread=3.0)  # spread out: few within-epoch dups
        ids1 = np.arange(20, dtype=np.int64)
        s1 = _surv(EB.dedup_epoch(_ds(ids1, v1), sd, "e1",
                                  k=4, tau=0.999))
        # epoch 2 re-submits epoch-1 survivors verbatim -> all dropped
        keep_mask = np.isin(ids1, s1)
        s2 = _surv(EB.dedup_epoch(
            _ds(np.arange(100, 100 + keep_mask.sum()), v1[keep_mask]),
            sd, "e2", k=4, tau=0.999))
        assert s2 == []

    def test_rerun_is_noop_with_same_survivors(self, ray_session,
                                               tmp_path):
        sd = str(tmp_path / "es3")
        ids, v = np.arange(30, dtype=np.int64), _vecs(4, 30)
        s1 = _surv(EB.dedup_epoch(_ds(ids, v), sd, "e1", k=4, tau=0.95))
        rows_before = EB.store_rows(sd)
        s1b = _surv(EB.dedup_epoch(_ds(ids, v), sd, "e1",
                                   k=4, tau=0.95))
        assert s1b == s1 and EB.store_rows(sd) == rows_before

    def test_geometry_pinned(self, ray_session, tmp_path):
        sd = str(tmp_path / "es4")
        ids, v = np.arange(20, dtype=np.int64), _vecs(5, 20)
        EB.dedup_epoch(_ds(ids, v), sd, "e1", k=4, tau=0.95)
        with pytest.raises(ValueError, match="was built with"):
            EB.dedup_epoch(_ds(ids + 100, v), sd, "e2", k=8, tau=0.95)

    def test_partitioning_independent(self, ray_session, tmp_path):
        ids1, v1 = np.arange(50, dtype=np.int64), _vecs(6, 50)
        ids2, v2 = np.arange(200, 230, dtype=np.int64), _vecs(7, 30)
        got = []
        for blocks in (1, 7):
            sd = str(tmp_path / f"es5_{blocks}")
            a = _surv(EB.dedup_epoch(_ds(ids1, v1, blocks), sd, "e1",
                                     k=4, tau=0.95))
            b = _surv(EB.dedup_epoch(_ds(ids2, v2, blocks), sd, "e2",
                                     k=4, tau=0.95))
            got.append((a, b))
        assert got[0] == got[1]

    def test_crash_before_commit_recovers(self, ray_session, tmp_path,
                                          monkeypatch):
        def run(sd, crash):
            ids1, v1 = np.arange(40, dtype=np.int64), _vecs(8, 40)
            ids2, v2 = np.arange(90, 120, dtype=np.int64), _vecs(9, 30)
            EB.dedup_epoch(_ds(ids1, v1), sd, "e1", k=4, tau=0.95)
            if crash:
                real = manifest.write_json
                monkeypatch.setattr(
                    manifest, "write_json",
                    lambda d, n, o: (_ for _ in ()).throw(
                        RuntimeError("boom")))
                with pytest.raises(RuntimeError):
                    EB.dedup_epoch(_ds(ids2, v2), sd, "e2",
                                   k=4, tau=0.95)
                monkeypatch.setattr(manifest, "write_json", real)
            s2 = _surv(EB.dedup_epoch(_ds(ids2, v2), sd, "e2",
                                      k=4, tau=0.95))
            return s2, EB.store_rows(sd)

        ok = run(str(tmp_path / "ctl"), False)
        cr = run(str(tmp_path / "cr"), True)
        assert cr == ok

    def test_incremental_drop_mask_chunked_equals_unchunked(self):
        rng = np.random.RandomState(11)
        ids = np.arange(500, dtype=np.int64)
        mat = rng.randn(500, 8)
        stored = rng.randn(120, 8)
        a = EB.incremental_drop_mask(ids, mat, stored, 0.6, chunk=64)
        b = EB.incremental_drop_mask(ids, mat, stored, 0.6, chunk=10_000)
        assert (a == b).all()

    def test_cross_hit_mask_chunks_both_sides(self):
        """A block is at most chunk x chunk: with both inputs larger than
        the chunk the mask still equals the unchunked one."""
        rng = np.random.RandomState(12)
        stored = rng.randn(23, 4)
        mat = rng.randn(17, 4)
        stored /= np.linalg.norm(stored, axis=1, keepdims=True)
        mat /= np.linalg.norm(mat, axis=1, keepdims=True)
        a = EB.cross_hit_mask(stored, mat, 0.8, chunk=3)
        b = EB.cross_hit_mask(stored, mat, 0.8, chunk=10_000)
        assert 0 < a.sum() < len(mat)   # both outcomes exercised
        assert (a == b).all()

    def test_compaction_preserves_drop_decisions(self, ray_session,
                                                 tmp_path):
        """Folding epochs into one file per cell must not change any
        future epoch's drop set; a compacted epoch's re-run is an
        empty no-op."""
        sd = str(tmp_path / "es6")
        ids1, v1 = np.arange(40, dtype=np.int64), _vecs(10, 40)
        ids2, v2 = np.arange(100, 130, dtype=np.int64), _vecs(11, 30)
        ids3, v3 = np.arange(200, 230, dtype=np.int64), _vecs(12, 30)
        EB.dedup_epoch(_ds(ids1, v1), sd, "e1", k=4, tau=0.95)
        EB.dedup_epoch(_ds(ids2, v2), sd, "e2", k=4, tau=0.95)

        # control: epoch 3 against the UNCOMPACTED store
        sd_ctl = str(tmp_path / "es6ctl")
        EB.dedup_epoch(_ds(ids1, v1), sd_ctl, "e1", k=4, tau=0.95)
        EB.dedup_epoch(_ds(ids2, v2), sd_ctl, "e2", k=4, tau=0.95)
        want3 = _surv(EB.dedup_epoch(_ds(ids3, v3), sd_ctl, "e3",
                                     k=4, tau=0.95))

        rows_before = EB.store_rows(sd)
        m2 = EB.compact_store(sd)
        assert sorted(m2["epochs"]) == [
            f"base{int(m2['compaction_gen']):04d}"]
        assert EB.store_rows(sd) == rows_before
        for cent in m2["epochs"][sorted(m2["epochs"])[0]][
                "cells"].values():
            assert len(cent["files"]) == 1
        got3 = _surv(EB.dedup_epoch(_ds(ids3, v3), sd, "e3",
                                    k=4, tau=0.95))
        assert got3 == want3
        # compacted epoch re-run: empty no-op, store untouched
        rows = EB.store_rows(sd)
        assert _surv(EB.dedup_epoch(_ds(ids1, v1), sd, "e1",
                                    k=4, tau=0.95)) == []
        assert EB.store_rows(sd) == rows

    def test_compaction_crash_window_is_readable(self, ray_session,
                                                 tmp_path, monkeypatch):
        """A crash before the compaction's manifest commit leaves the
        OLD manifest authoritative (new-base orphans unreferenced)."""
        sd = str(tmp_path / "es7")
        ids1, v1 = np.arange(30, dtype=np.int64), _vecs(13, 30)
        EB.dedup_epoch(_ds(ids1, v1), sd, "e1", k=4, tau=0.95)
        before = EB.STATE.load(sd)
        real = manifest.write_json
        monkeypatch.setattr(
            manifest, "write_json",
            lambda d, n, o: (_ for _ in ()).throw(RuntimeError("boom")))
        with pytest.raises(RuntimeError):
            EB.compact_store(sd)
        monkeypatch.setattr(manifest, "write_json", real)
        assert EB.STATE.load(sd) == before
        m2 = EB.compact_store(sd)  # clean re-run converges
        assert EB.store_rows(sd) == before["epochs"]["e1"]["rows"]
        assert sorted(m2["compacted_epochs"]) == ["e1"]
