"""Incremental crawl dedup against the persistent fingerprint store
(stages/fpstore.py): epoch flow == union-clean mirror, idempotent
re-runs, regime equality, manifest-only reads."""

import json
import os

import numpy as np
import pandas as pd
import pytest


def _docs(ids, texts):
    return pd.DataFrame({
        "doc_id": pd.array(ids, dtype="int64"),
        "text": pd.array(texts, dtype=object),
    })


def _corpus(seed, n, dup_from=None, dup_frac=0.4):
    """n docs; dup_frac of them copy texts from ``dup_from`` (cross-epoch
    duplicates), the rest are fresh."""
    rng = np.random.RandomState(seed)
    texts = []
    for i in range(n):
        if dup_from is not None and rng.rand() < dup_frac:
            texts.append(dup_from[rng.randint(len(dup_from))])
        else:
            texts.append(" ".join(
                f"w{seed}x{rng.randint(10_000)}" for _ in range(12)))
    return texts


class TestMemberMask:
    def test_exact_membership_with_collisions(self):
        from calendar_event_entity_extraction_ray.stages.fpstore import (
            member_mask,
        )

        # store: h1 collision bucket {5: [10, 11]}, singleton {7: [20]}
        sh1 = np.array([5, 5, 7], dtype=np.int64)
        sh2 = np.array([10, 11, 20], dtype=np.int64)
        h1 = np.array([5, 5, 7, 7, 9], dtype=np.int64)
        h2 = np.array([11, 12, 20, 21, 20], dtype=np.int64)
        got = member_mask(h1, h2, sh1, sh2)
        assert got.tolist() == [True, False, True, False, False]

    def test_empty_store(self):
        from calendar_event_entity_extraction_ray.stages.fpstore import (
            member_mask,
        )

        z = np.zeros(0, dtype=np.int64)
        assert member_mask(np.array([1], dtype=np.int64),
                           np.array([2], dtype=np.int64),
                           z, z).tolist() == [False]


class TestIncrementalDedup:
    def _union_mirror(self, frames):
        """Re-clean the concatenated corpus: first-wins by (epoch order,
        doc_id) == drop_duplicates on text after stable sort."""
        allf = pd.concat(frames, ignore_index=True)
        return allf[~allf["text"].fillna("").duplicated()]

    def test_two_epochs_match_union_clean(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            dedup_incremental,
            store_epochs,
            store_rows,
        )

        store = str(tmp_path / "fpstore")
        t1 = _corpus(1, 300)
        e1 = _docs(range(300), t1)
        e2 = _docs(range(1000, 1300), _corpus(2, 300, dup_from=t1))

        s1 = dedup_incremental(
            ray.data.from_pandas(e1).repartition(4), store, "day1"
        ).to_pandas()
        s2 = dedup_incremental(
            ray.data.from_pandas(e2).repartition(4), store, "day2"
        ).to_pandas()

        got = set(pd.concat([s1, s2])["doc_id"])
        want = set(self._union_mirror([e1, e2])["doc_id"])
        assert got == want
        assert store_epochs(store) == ["day1", "day2"]
        assert store_rows(store) == len(want)
        # day2 really dropped cross-epoch dups
        assert len(s2) < len(e2)

    def test_rerun_same_epoch_is_noop(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            dedup_incremental,
        )

        store = str(tmp_path / "fpstore")
        e1 = _docs(range(200), _corpus(3, 200))
        a = dedup_incremental(ray.data.from_pandas(e1), store, "d1"
                              ).to_pandas()
        man_path = os.path.join(store, "_FPMANIFEST.json")
        before = json.load(open(man_path))
        b = dedup_incremental(ray.data.from_pandas(e1), store, "d1"
                              ).to_pandas()
        after = json.load(open(man_path))
        assert before == after  # no rewrite, no new files
        assert set(a["doc_id"]) == set(b["doc_id"])

    def test_regimes_identical(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            dedup_incremental,
            filter_against_store,
            with_fingerprints,
        )

        store = str(tmp_path / "fpstore")
        t1 = _corpus(4, 400)
        dedup_incremental(
            ray.data.from_pandas(_docs(range(400), t1)), store, "d1")
        e2 = _docs(range(5000, 5400), _corpus(5, 400, dup_from=t1))
        fp = with_fingerprints(
            ray.data.from_pandas(e2).repartition(3), "text")
        br = filter_against_store(fp, store, mode="broadcast"
                                  ).to_pandas()
        ex = filter_against_store(fp, store, mode="exchange").to_pandas()
        assert set(br["doc_id"]) == set(ex["doc_id"])
        assert len(br) < len(e2)

    def test_unlisted_files_are_invisible(self, ray_session, tmp_path):
        """Attempt-commit contract: a stray (retried/orphan) parquet in
        an epoch dir must not affect membership."""
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            content_hashes,
            dedup_incremental,
        )

        store = str(tmp_path / "fpstore")
        dedup_incremental(
            ray.data.from_pandas(_docs(range(50), _corpus(6, 50))),
            store, "d1")
        # plant an orphan fingerprint for a doc of epoch 2
        victim = "the planted orphan text"
        h1, h2 = content_hashes([victim])
        pq.write_table(
            pa.table({"h1": pa.array(h1), "h2": pa.array(h2)}),
            os.path.join(store, "epoch=d1", "fp-orphan.parquet"))
        e2 = _docs([99], [victim])
        out = dedup_incremental(ray.data.from_pandas(e2), store, "d2"
                                ).to_pandas()
        assert out["doc_id"].tolist() == [99]  # orphan ignored


class TestCompaction:
    def test_compact_preserves_membership_and_folds_files(
            self, ray_session, tmp_path):
        import glob

        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            compact_store,
            dedup_incremental,
            filter_against_store,
            store_rows,
            with_fingerprints,
        )

        store = str(tmp_path / "fps")
        t1 = _corpus(21, 250)
        dedup_incremental(
            ray.data.from_pandas(_docs(range(250), t1)), store, "d1")
        dedup_incremental(
            ray.data.from_pandas(
                _docs(range(1000, 1250), _corpus(22, 250, dup_from=t1))),
            store, "d2")
        rows_before = store_rows(store)

        probe = _docs(range(9000, 9200), _corpus(23, 200, dup_from=t1))
        fp = with_fingerprints(ray.data.from_pandas(probe), "text")
        before = set(filter_against_store(fp, store, mode="exchange")
                     .to_pandas()["doc_id"])

        m2 = compact_store(store)
        assert list(m2["epochs"]) == ["base0001"]
        assert sorted(m2["compacted_epochs"]) == ["d1", "d2"]
        assert store_rows(store) == rows_before  # distinct fold, no dups
        # one file per partition, old epoch dirs gone
        for pdir in glob.glob(store + "/epoch=base0001/part=*"):
            assert len(glob.glob(pdir + "/*.parquet")) == 1
        assert not glob.glob(store + "/epoch=d1") \
            and not glob.glob(store + "/epoch=d2")

        after_ex = set(filter_against_store(fp, store, mode="exchange")
                       .to_pandas()["doc_id"])
        after_bc = set(filter_against_store(fp, store, mode="broadcast")
                       .to_pandas()["doc_id"])
        assert after_ex == before and after_bc == before

    def test_old_epoch_rerun_after_compact_is_safe(
            self, ray_session, tmp_path):
        import json
        import os

        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            compact_store,
            dedup_incremental,
        )

        store = str(tmp_path / "fps")
        e1 = _docs(range(100), _corpus(31, 100))
        dedup_incremental(ray.data.from_pandas(e1), store, "d1")
        compact_store(store)
        out = dedup_incremental(ray.data.from_pandas(e1), store, "d1"
                                ).to_pandas()
        assert len(out) == 0  # nothing new; no double-write
        m = json.load(open(os.path.join(store, "_FPMANIFEST.json")))
        assert list(m["epochs"]) == ["base0001"]
        # new epoch after compaction still works
        e2 = _docs(range(500, 560), _corpus(32, 60))
        s2 = dedup_incremental(ray.data.from_pandas(e2), store, "d3"
                               ).to_pandas()
        assert len(s2) == 60


class TestNearDupIncremental:
    def _texts(self, seed, n, words=40):
        rng = np.random.RandomState(seed)
        return [" ".join(f"w{rng.randint(50_000)}" for _ in range(words))
                for _ in range(n)]

    def test_cross_epoch_near_dups_dropped(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            neardup_incremental,
        )

        store = str(tmp_path / "nd")
        base = self._texts(41, 150)
        s1 = neardup_incremental(
            ray.data.from_pandas(_docs(range(150), base)).repartition(4),
            store, "e1").to_pandas()
        assert len(s1) == 150  # empty store: everything survives

        # epoch 2: 50 exact copies, 50 near-variants (one word appended
        # to a 40-word doc -> jaccard ~0.95), 50 fresh
        variants = [t + " extraword" for t in base[50:100]]
        fresh = self._texts(42, 50)
        e2 = _docs(range(1000, 1150), base[:50] + variants + fresh)
        s2 = neardup_incremental(
            ray.data.from_pandas(e2).repartition(4), store, "e2"
        ).to_pandas()
        kept = set(s2["doc_id"])
        # every exact copy dropped
        assert not kept & set(range(1000, 1050))
        # near-variants: banding at 16 bands x 8 rows catches ~all at
        # jaccard ~0.95 — require >= 90% dropped
        n_var_dropped = 50 - len(kept & set(range(1050, 1100)))
        assert n_var_dropped >= 45
        # fresh docs: NO false drops
        assert kept >= set(range(1100, 1150))

    def test_rerun_epoch_idempotent_and_regimes_agree(
            self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.fpstore import (
            neardup_incremental,
            store_rows,
        )

        store = str(tmp_path / "nd")
        base = self._texts(7, 120)
        neardup_incremental(
            ray.data.from_pandas(_docs(range(120), base)), store, "e1")
        e2 = _docs(range(500, 560),
                   base[:30] + self._texts(8, 30))
        a = neardup_incremental(ray.data.from_pandas(e2), store, "e2",
                                mode="broadcast").to_pandas()
        rows_after = store_rows(store)
        b = neardup_incremental(ray.data.from_pandas(e2), store, "e2",
                                mode="exchange").to_pandas()
        assert set(a["doc_id"]) == set(b["doc_id"])
        assert store_rows(store) == rows_after  # re-run appends nothing
        assert set(a["doc_id"]) == set(range(530, 560))


class TestBloomSidecar:
    def test_prefilter_skips_files_membership_exact(self, ray_session,
                                                    tmp_path):
        """Every store file carries a Bloom sidecar; the exchange fold
        skips files no delta row can hit. Skips must actually happen at
        a low dup rate AND membership must equal the broadcast regime
        (the sidecar is a prefilter — zero false negatives)."""
        import ray

        from calendar_event_entity_extraction_ray.stages import fpstore as F

        sd = str(tmp_path / "store")
        base_texts = _corpus(1, 4000)
        e1 = ray.data.from_pandas(
            _docs(range(4000), base_texts)).repartition(4)
        F.dedup_incremental(e1, sd, "e1", num_partitions=16).materialize()
        m = F.STATE.load(sd)
        for pent in m["epochs"]["e1"]["parts"].values():
            assert set(pent["blooms"]) == set(pent["files"])

        # small delta, 5 planted dups
        delta_texts = _corpus(2, 100, dup_from=base_texts[:50],
                              dup_frac=0.05)
        e2 = ray.data.from_pandas(
            _docs(range(4000, 4100), delta_texts)).repartition(2)
        iolog = str(tmp_path / "iolog")
        fp = F.with_fingerprints(e2, "text")
        got_ex = sorted(
            F.filter_against_store(fp, sd, exclude_epoch="e2",
                                   mode="exchange", io_log_dir=iolog)
            .to_pandas()["doc_id"].tolist())
        got_bc = sorted(
            F.filter_against_store(fp, sd, exclude_epoch="e2",
                                   mode="broadcast")
            .to_pandas()["doc_id"].tolist())
        assert got_ex == got_bc
        n_dups = sum(t in set(base_texts) for t in delta_texts)
        assert len(got_ex) == 100 - n_dups and n_dups > 0

        recs = [json.load(open(os.path.join(iolog, f)))
                for f in os.listdir(iolog)]
        skipped = sum(r["files_skipped"] for r in recs)
        read = sum(r["files_read"] for r in recs)
        assert skipped > 0, "bloom prefilter never skipped a file"
        assert read > 0, "dup-holding partitions must still be read"

    def test_legacy_store_without_sidecars_still_reads(self, ray_session,
                                                       tmp_path):
        """Files written before the sidecar existed (no 'blooms' entry /
        missing file) are always read — never wrongly skipped."""
        import ray

        from calendar_event_entity_extraction_ray.stages import fpstore as F

        sd = str(tmp_path / "store")
        texts = _corpus(3, 500)
        e1 = ray.data.from_pandas(_docs(range(500), texts)).repartition(2)
        F.dedup_incremental(e1, sd, "e1", num_partitions=8).materialize()
        # simulate a legacy store: drop every sidecar file + manifest ref
        m = F.STATE.load(sd)
        for pent in m["epochs"]["e1"]["parts"].values():
            pent.pop("blooms", None)
        F.STATE.save(sd, m)
        dup = ray.data.from_pandas(_docs([900], [texts[0]]))
        fp = F.with_fingerprints(dup, "text")
        out = F.filter_against_store(fp, sd, exclude_epoch="e2",
                                     mode="exchange").to_pandas()
        assert len(out) == 0  # the dup is still caught
