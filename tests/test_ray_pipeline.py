"""Distributed pipeline tests (Ray session-scoped)."""

from __future__ import annotations

import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def kg_output(ray_session, fixture_pages, tmp_path_factory):
    """Run the flagship pipeline once over the 400-page fixture."""
    import ray

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        materialize_graph,
        synth_pages_dataset,
    )
    from calendar_event_entity_extraction_ray.state.manifest import read_output

    out_dir = str(tmp_path_factory.mktemp("kg") / "graph")
    pages = synth_pages_dataset(400, seed=42)
    triples = kg_triples(pages)
    manifest = materialize_graph(triples, out_dir, fingerprint="fx400", num_partitions=8)
    table = read_output(out_dir)
    return out_dir, manifest, table


class TestKgPipeline:
    def test_pr_vs_golden(self, kg_output, fixture_pages):
        from calendar_event_entity_extraction_ray.functions.metrics import triple_prf
        from calendar_event_entity_extraction_ray.functions.oracle import (
            golden_triples_from_slots,
        )

        _, _, table = kg_output
        _, golden = fixture_pages
        pred = list(zip(table.column("subj").to_pylist(),
                        table.column("pred").to_pylist(),
                        table.column("obj").to_pylist()))
        gold = [t[:3] for t in golden_triples_from_slots(golden)]
        prf = triple_prf(pred, gold)
        assert prf["precision"] >= 0.95
        assert prf["recall"] >= 0.95

    def test_matches_oracle_exactly(self, kg_output, fixture_pages):
        from calendar_event_entity_extraction_ray.functions.oracle import oracle_triples

        _, _, table = kg_output
        pages, _ = fixture_pages
        pred = set(zip(table.column("subj").to_pylist(),
                       table.column("pred").to_pylist(),
                       table.column("obj").to_pylist()))
        orc = {t[:3] for t in oracle_triples(pages)}
        assert pred == orc

    def test_no_duplicate_triples(self, kg_output):
        _, _, table = kg_output
        df = table.to_pandas()
        assert not df.duplicated(subset=["subj", "pred", "obj"]).any()

    def test_partitioning_is_by_subject_hash(self, kg_output):
        from calendar_event_entity_extraction_ray.state.manifest import load_manifest

        out_dir, manifest, _ = kg_output
        assert len(manifest["partitions"]) == 8
        import os

        import pyarrow.parquet as pq

        from calendar_event_entity_extraction_ray.functions.textsig import hash64

        from calendar_event_entity_extraction_ray.stages.dedup import (
            add_hash_column,
        )

        for pid, entry in manifest["partitions"].items():
            t = pq.read_table(os.path.join(out_dir, entry["file"]))
            # partition key must equal the engine's content hash % 8
            hashed = add_hash_column(t.select(["subj"]).slice(0, 5), ["subj"])
            for h in hashed.column("sig_hash").to_pylist():
                assert h % 8 == int(pid)

    def test_resume_skips_completed_partitions(self, ray_session, tmp_path):
        import time

        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
            materialize_graph,
            synth_pages_dataset,
        )
        from calendar_event_entity_extraction_ray.state.manifest import load_manifest

        out_dir = str(tmp_path / "resume")
        pages = synth_pages_dataset(60, seed=7)
        materialize_graph(kg_triples(pages), out_dir, fingerprint="fp1", num_partitions=4)
        m1 = load_manifest(out_dir)
        stamps1 = {p: e["written_at"] for p, e in m1["partitions"].items()}
        # second run, same fingerprint: all partitions skipped, files untouched
        materialize_graph(kg_triples(synth_pages_dataset(60, seed=7)), out_dir,
                          fingerprint="fp1", num_partitions=4)
        m2 = load_manifest(out_dir)
        stamps2 = {p: e["written_at"] for p, e in m2["partitions"].items()}
        assert stamps1 == stamps2
        # new fingerprint: rewritten
        materialize_graph(kg_triples(synth_pages_dataset(60, seed=7)), out_dir,
                          fingerprint="fp2", num_partitions=4)
        m3 = load_manifest(out_dir)
        assert m3["fingerprint"] == "fp2"


class TestCrashRecovery:
    """Per-partition checkpointing: materialize_graph records each
    partition the moment its merge lands, so a mid-run crash leaves a
    valid PARTIAL manifest. These tests plant both crash shapes and
    verify the re-run converges to the byte-identical clean result."""

    def _clean_run(self, tmp_path, name):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
            materialize_graph,
            synth_pages_dataset,
        )

        out_dir = str(tmp_path / name)
        pages = synth_pages_dataset(80, seed=11)
        materialize_graph(kg_triples(pages), out_dir,
                          fingerprint="crashfp", num_partitions=4)
        return out_dir

    @staticmethod
    def _snapshot(out_dir):
        from calendar_event_entity_extraction_ray.state.manifest import read_output

        t = read_output(out_dir)
        return t.sort_by([("subj", "ascending"), ("pred", "ascending"),
                          ("obj", "ascending"), ("url", "ascending")])

    def test_mid_run_crash_partial_manifest(self, ray_session, tmp_path):
        """Crash AFTER some partitions were recorded: manifest holds a
        strict subset (exactly what the incremental ray.wait recording
        leaves). Re-run completes only the missing partitions."""
        import json
        import os

        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
            materialize_graph,
            synth_pages_dataset,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            MANIFEST_NAME,
            load_manifest,
        )

        out_dir = self._clean_run(tmp_path, "crash_partial")
        clean = self._snapshot(out_dir)

        # plant the crash state: partitions 2,3 never became durable
        m = load_manifest(out_dir)
        assert set(m["partitions"]) == {"0", "1", "2", "3"}
        survivors = {"0", "1"}
        stamps_before = {p: m["partitions"][p]["written_at"]
                         for p in survivors}
        for p in ("2", "3"):
            del m["partitions"][p]
            shutil.rmtree(os.path.join(out_dir, f"part_key={p}"))
        with open(os.path.join(out_dir, MANIFEST_NAME), "w") as f:
            json.dump(m, f)

        pages = synth_pages_dataset(80, seed=11)
        materialize_graph(kg_triples(pages), out_dir,
                          fingerprint="crashfp", num_partitions=4)
        m2 = load_manifest(out_dir)
        assert set(m2["partitions"]) == {"0", "1", "2", "3"}
        # recorded partitions were skipped, not rewritten
        for p in survivors:
            assert m2["partitions"][p]["written_at"] == stamps_before[p]
        assert self._snapshot(out_dir).equals(clean)

    def test_crash_before_any_record(self, ray_session, tmp_path):
        """Crash BEFORE the first manifest record (data files may exist,
        manifest does not): re-run rebuilds everything idempotently."""
        import os

        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
            materialize_graph,
            synth_pages_dataset,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            MANIFEST_NAME,
        )

        out_dir = self._clean_run(tmp_path, "crash_norecord")
        clean = self._snapshot(out_dir)
        os.remove(os.path.join(out_dir, MANIFEST_NAME))
        # stale spill files from the crashed attempt must not duplicate
        os.makedirs(os.path.join(out_dir, "_spill", "part=0"), exist_ok=True)

        pages = synth_pages_dataset(80, seed=11)
        materialize_graph(kg_triples(pages), out_dir,
                          fingerprint="crashfp", num_partitions=4)
        assert self._snapshot(out_dir).equals(clean)


class TestExactDedup:
    def test_hash_bucket_collision_keeps_distinct_keys(self):
        """Two DIFFERENT keys landing in one hash bucket (certain at
        10^12-row scale) must each survive — dedup is on exact keys, not
        on the bucket hash."""
        from calendar_event_entity_extraction_ray.stages.dedup import (
            first_wins_in_bucket,
        )

        g = pa.table({
            "text": ["aaa", "bbb", "aaa"],   # simulated collision bucket
            "ord": [2, 1, 3],
            "sig_hash": [7, 7, 7],
        })
        out = first_wins_in_bucket(g, ["text"], "ord")
        got = sorted(zip(out.column("text").to_pylist(),
                         out.column("ord").to_pylist()))
        assert got == [("aaa", 2), ("bbb", 1)]

    def test_first_wins_by_order_col(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup

        ds = ray.data.from_items(
            [
                {"text": "a", "ord": 3, "tag": "late"},
                {"text": "a", "ord": 1, "tag": "first"},
                {"text": "b", "ord": 2, "tag": "only"},
                {"text": "a", "ord": 2, "tag": "mid"},
            ]
        )
        out = exact_dedup(ds, ["text"], "ord").to_pandas().sort_values("text")
        assert out["tag"].tolist() == ["first", "only"]

    def test_hot_key_combiner_keeps_global_first(self, ray_session):
        """One key dominating the corpus (the exchange skew case): the
        per-batch combiner must still yield the GLOBAL smallest order row,
        with block boundaries chosen so the winner sits in a late block."""
        import ray

        from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup

        rows = [{"text": "hot", "ord": 1000 - i} for i in range(900)]
        rows += [{"text": f"cold {i}", "ord": 10_000 + i} for i in range(100)]
        ds = ray.data.from_items(rows).repartition(16)
        out = exact_dedup(ds, ["text"], "ord").to_pandas()
        assert len(out) == 101
        assert int(out.loc[out["text"] == "hot", "ord"].iloc[0]) == 101


class TestGroupedCount:
    def test_matches_pandas(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

        rng = np.random.RandomState(0)
        keys = rng.choice(["x", "y", "z", "hub"], p=[0.1, 0.1, 0.1, 0.7], size=5000)
        df = pd.DataFrame({"k": keys})
        ds = ray.data.from_pandas(df).repartition(8)
        out = grouped_count(ds, "k", out_col="n").to_pandas()
        expect = df.groupby("k").size().reset_index(name="n")
        merged = out.sort_values("k").reset_index(drop=True)
        expect = expect.sort_values("k").reset_index(drop=True)
        pd.testing.assert_frame_equal(
            merged.astype({"n": "int64"}), expect.astype({"n": "int64"})
        )

    def test_corpus_stats(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.aggregate import corpus_stats

        ds = ray.data.from_items([{"text": "ab"}, {"text": "abcd"}])
        st = corpus_stats(ds)
        assert st["n_rows"].iloc[0] == 2
        assert st["avg_chars"].iloc[0] == 3.0
        assert st["min_chars"].iloc[0] == 2
        assert st["max_chars"].iloc[0] == 4


class TestSplit:
    def test_split_deterministic_and_leakage_free(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.functions.textsig import (
            event_text_signature,
        )
        from calendar_event_entity_extraction_ray.pipelines.augmentation import (
            split_records,
        )
        from calendar_event_entity_extraction_ray.stages.augment import records_to_table

        rows = [{"event_text": f"event number {i}", "row_id": i} for i in range(300)]
        # leakage bait: same normalized signature in every split candidate
        rows += [{"event_text": "DUP   text", "row_id": 1000},
                 {"event_text": "dup text", "row_id": 1001}]
        ds = ray.data.from_arrow(records_to_table(rows))
        splits = split_records(ds)
        dfs = {k: v.to_pandas() for k, v in splits.items()}
        n = sum(len(d) for d in dfs.values())
        assert len(dfs["train"]) > len(dfs["eval"])
        # precedence: a signature present in train never appears in eval/test
        train_sigs = set(dfs["train"]["event_text"].map(event_text_signature))
        for part in ("eval", "test"):
            sigs = set(dfs[part]["event_text"].map(event_text_signature))
            assert not (sigs & train_sigs)
        assert not (set(dfs["test"]["event_text"].map(event_text_signature))
                    & set(dfs["eval"]["event_text"].map(event_text_signature)))

    def test_partitioned_equals_broadcast_leakage(self, ray_session):
        """The scale path (sig-hash exchange, per-partition precedence) and
        the legacy broadcast path must keep exactly the same rows."""
        import ray

        from calendar_event_entity_extraction_ray.stages.split import (
            assign_split_batch,
            drop_split_leakage,
        )

        rows = [{"event_text": f"row {i % 80} text", "row_id": i}
                for i in range(400)]  # heavy cross-split sig duplication
        ds = ray.data.from_items(rows).map_batches(
            lambda b: assign_split_batch(b, text_col="event_text"),
            batch_format="pyarrow")

        def collect(mode):
            parts = drop_split_leakage(ds, text_col="event_text", mode=mode)
            return {
                k: sorted(v.to_pandas()["row_id"].tolist())
                for k, v in parts.items()
            }

        assert collect("partitioned") == collect("broadcast")


class TestKnn:
    def test_bruteforce_matches_numpy(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import knn_bruteforce

        rng = np.random.RandomState(3)
        mat = rng.standard_normal((500, 16))
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(500), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        }))
        q = rng.standard_normal(16)
        got = knn_bruteforce(ds, q, k=10).to_pandas()
        mat32 = mat.astype(np.float32).astype(np.float64)
        scores = (mat32 @ q) / (np.linalg.norm(mat32, axis=1) * np.linalg.norm(q))
        expect = np.argsort(-scores)[:10]
        assert got["vec_id"].tolist() == expect.tolist()

    def test_lsh_recall_reasonable(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import (
            knn_bruteforce,
            knn_lsh,
        )

        rng = np.random.RandomState(4)
        mat = rng.standard_normal((800, 16))
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(800), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        }))
        q = rng.standard_normal(16)
        exact = set(knn_bruteforce(ds, q, k=10).to_pandas()["vec_id"])
        approx = set(knn_lsh(ds, q, k=10, n_planes=4, probe_radius=1).to_pandas()["vec_id"])
        assert len(exact & approx) >= 3  # probing 5/16 buckets

    def test_ivf_recall_and_codebook_determinism(self, ray_session):
        """IVF coarse quantizer: deterministic codebook, candidates only
        from probed cells, decent recall vs the exact twin when probing
        4/8 cells of well-separated clusters."""
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import (
            knn_bruteforce,
            knn_ivf,
            train_ivf_codebook,
        )

        rng = np.random.RandomState(5)
        centers = 3.0 * rng.standard_normal((8, 16))
        mat = np.vstack([c + 0.3 * rng.standard_normal((60, 16))
                         for c in centers])
        cb1 = train_ivf_codebook(mat[:200], n_cells=8, seed=13)
        cb2 = train_ivf_codebook(mat[:200], n_cells=8, seed=13)
        assert (cb1 == cb2).all()

        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        }))
        q = mat[0]
        exact = set(knn_bruteforce(ds, q, k=10).to_pandas()["vec_id"])
        approx = set(knn_ivf(ds, q, k=10, n_cells=8, n_probe=4,
                             sample_size=200).to_pandas()["vec_id"])
        assert len(exact & approx) >= 8  # query's own cluster is probed

    def test_pq_recall_and_compression(self, ray_session):
        """PQ asymmetric-distance search: deterministic codebook, encoded
        index is m bytes/row, and with exact re-rank the top-10 recall vs
        brute force is high on clustered data."""
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import (
            _PqEncode,
            knn_bruteforce,
            knn_pq,
            train_pq_codebook,
        )

        rng = np.random.RandomState(6)
        centers = 3.0 * rng.standard_normal((8, 16))
        mat = np.vstack([c + 0.3 * rng.standard_normal((80, 16))
                         for c in centers])
        cb1 = train_pq_codebook(mat[:300], m=4, n_codes=32, seed=13)
        cb2 = train_pq_codebook(mat[:300], m=4, n_codes=32, seed=13)
        assert (cb1 == cb2).all() and cb1.shape == (4, 32, 4)

        t = pa.table({
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        })
        enc = _PqEncode(cb1)(t)
        assert enc.column("pq_code").type == pa.list_(pa.uint8(), 4)
        assert enc.num_rows == len(mat)

        ds = ray.data.from_arrow(t).repartition(4)
        q = mat[5]
        exact = knn_bruteforce(ds, q, k=10).to_pandas()["vec_id"].tolist()
        approx = knn_pq(ds, q, k=10, m=4, n_codes=32, sample_size=300,
                        rerank=12).to_pandas()["vec_id"].tolist()
        # re-rank is exact cosine, so overlap order matches brute force
        assert len(set(exact) & set(approx)) >= 8
        common = [v for v in exact if v in set(approx)]
        assert [v for v in approx if v in set(exact)] == common

    def test_ivfpq_recall_separated_neighbors(self, ray_session):
        """IVF-PQ residual ANN: with true neighbors separated from the
        background (the dedup/search regime), recall@10 is exact; and
        on a clustered corpus the residual scores rank the true
        neighbor far better than plain PQ (the reason the variant
        exists)."""
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import (
            knn_bruteforce,
            knn_ivfpq,
        )

        rng = np.random.RandomState(8)
        mat = rng.standard_normal((3000, 32))
        q = rng.standard_normal(32)
        for i in range(10):          # planted neighbors at cos ~0.95
            mat[100 + i] = q + 0.33 * rng.standard_normal(32)
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(len(mat)), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        })).repartition(4)
        exact = set(knn_bruteforce(ds, q, k=10).to_pandas()["vec_id"])
        approx = set(knn_ivfpq(ds, q, k=10, n_cells=16, n_probe=8, m=4,
                               n_codes=64, sample_size=1000,
                               rerank=4).to_pandas()["vec_id"])
        assert exact == set(range(100, 110))
        assert len(exact & approx) >= 9

    def test_embedding_lsh_pairs_subset_and_recall(self, ray_session):
        """The SRP-bucketed near-dup pairs are a SUBSET of the brute-force
        pairs (same threshold, no false positives by construction) and, at
        a genuine near-dup threshold, recall vs the exact twin is high:
        cos >= 0.95 means a ~18 degree angle, so each of the 4 hyperplanes
        separates a true pair with p ~ 0.1 — most pairs share a bucket."""
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import _SrpBucket

        rng = np.random.RandomState(7)
        centers = rng.standard_normal((40, 16))
        rows, vid = [], 0
        for c in centers:
            for _ in range(3):  # 3 near-copies per center
                v = c + 0.02 * rng.standard_normal(16)
                rows.append((vid, (v / np.linalg.norm(v)).tolist()))
                vid += 1
        ids = pa.array([r[0] for r in rows], pa.int64())
        embs = pa.array([r[1] for r in rows], pa.list_(pa.float32()))
        mat = np.asarray([r[1] for r in rows], dtype=np.float64)
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = mat @ mat.T
        ai, bj = np.where(sims >= 0.95)
        brute = {(int(i), int(j)) for i, j in zip(ai, bj) if i < j}

        ds = ray.data.from_arrow(pa.table({"vec_id": ids, "embedding": embs}))
        bucketed = ds.map_batches(
            _SrpBucket,
            fn_constructor_kwargs={"dim": 16, "n_planes": 4, "seed": 13},
            batch_format="pyarrow", concurrency=1)

        def pairs(g: pd.DataFrame) -> pd.DataFrame:
            m = np.asarray(g["embedding"].tolist(), dtype=np.float64)
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            gids = g["vec_id"].to_numpy()
            s = m @ m.T
            xi, xj = np.where(s >= 0.95)
            rows = [(int(gids[i]), int(gids[j]))
                    for i, j in zip(xi, xj) if gids[i] < gids[j]]
            return pd.DataFrame(rows, columns=["a", "b"]).astype("int64")

        lsh = {(int(r.a), int(r.b)) for r in
               bucketed.groupby("bucket").map_groups(
                   pairs, batch_format="pandas").to_pandas().itertuples()}
        assert lsh <= brute  # no false positives
        assert len(brute) > 0
        assert len(lsh) / len(brute) >= 0.5  # recall floor vs exact twin


class TestJaccardPrefixJoin:
    def test_exact_vs_bruteforce(self, ray_session):
        """Prefix filtering is a PRUNING, not an approximation: the join
        must return exactly the brute-force pair set."""
        import ray

        from calendar_event_entity_extraction_ray.functions.dedup import (
            char_ngrams,
            jaccard,
        )
        from calendar_event_entity_extraction_ray.stages.dedup import (
            ngram_jaccard_pairs,
        )

        base = "the quick brown fox jumps over the lazy dog near the river"
        docs = [{"doc_id": 0, "text": base},
                {"doc_id": 1, "text": base},
                {"doc_id": 2, "text": base.replace("dog", "cat")},
                {"doc_id": 3, "text": base.replace("quick", "slow")
                                          .replace("river", "road")},
                {"doc_id": 4, "text": "completely unrelated content about "
                                      "arrow batches and object stores"},
                {"doc_id": 5, "text": ""}]
        grams = {d["doc_id"]: char_ngrams(d["text"], 3) for d in docs}
        brute = {(a, b) for a in range(6) for b in range(a + 1, 6)
                 if jaccard(grams[a], grams[b]) >= 0.6}
        ds = ray.data.from_items(docs)
        # both regimes must return exactly the brute-force set: the small
        # fixture vocabulary routes to the bitset path by default; forcing
        # BITSET_VOCAB_MAX=0 exercises the prefix-filter path
        import calendar_event_entity_extraction_ray.stages.dedup as D

        for cap in (D.BITSET_VOCAB_MAX, 0):
            old = D.BITSET_VOCAB_MAX
            D.BITSET_VOCAB_MAX = cap
            try:
                got = ngram_jaccard_pairs(
                    ds, "text", "doc_id", threshold=0.6).to_pandas()
            finally:
                D.BITSET_VOCAB_MAX = old
            assert {(int(r.doc_id_a), int(r.doc_id_b))
                    for r in got.itertuples()} == brute, f"cap={cap}"
            assert (got["jacc_e4"] >= 6000).all()
        assert (0, 1) in brute  # sanity: exact dup pair present


class TestMinHashDedup:
    def test_finds_near_duplicates(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.dedup import minhash_lsh_dup_ids

        base = ("the quick brown fox jumps over the lazy dog while the cat "
                "watches from the warm windowsill in the afternoon sun")
        docs = [
            {"doc_id": 0, "text": base},
            {"doc_id": 1, "text": base},                     # exact dup
            {"doc_id": 2, "text": base.replace("dog", "pup")},  # near dup
            {"doc_id": 3, "text": "entirely different content about ray data "
                                   "pipelines and arrow batches at scale"},
        ]
        ds = ray.data.from_items(docs)
        dropped = set(minhash_lsh_dup_ids(ds, "text", "doc_id", threshold=0.7)
                      .to_pandas()["doc_id"])
        assert 1 in dropped
        assert 3 not in dropped
        assert 0 not in dropped  # smallest id is kept


class TestMultimodal:
    def test_stub_plumbing(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.multimodal import (
            DecodeFeatures,
            synth_media_table,
        )

        t = synth_media_table(30)
        ds = ray.data.from_arrow(t)
        out = ds.map_batches(
            DecodeFeatures,
            fn_constructor_kwargs={"feature_dim": 8},
            batch_format="pyarrow",
            batch_size=8,
            concurrency=2,
        ).to_pandas()
        assert len(out) == 30
        assert "payload" not in out.columns
        assert all(len(f) == 8 for f in out["feature"])

    def test_resize_plumbing(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.multimodal import (
            ResizeImages,
            synth_media_table,
        )

        ds = ray.data.from_arrow(synth_media_table(24))
        out = ds.map_batches(
            ResizeImages, fn_constructor_kwargs={"width": 32, "height": 16},
            batch_format="pyarrow", batch_size=8, concurrency=(1, 2),
        ).to_pandas()
        from calendar_event_entity_extraction_ray.functions.imagecodec import (
            decode_ppm,
        )

        imgs = out[out["kind"] == "image"]
        assert (imgs["width"] == 32).all() and (imgs["height"] == 16).all()
        # REAL resize: payloads are decodable PPMs of the new geometry
        assert all(decode_ppm(bytes(p)).shape == (16, 32, 3)
                   for p in imgs["payload"])
        # non-images untouched
        assert (out[out["kind"] != "image"]["width"].isna()).all()

    def test_frame_sampling(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.multimodal import (
            frame_sample_batch,
            synth_media_table,
        )

        ds = ray.data.from_arrow(synth_media_table(24))
        frames = ds.map_batches(frame_sample_batch, batch_format="pyarrow").to_pandas()
        assert len(frames) > 0
        assert set(frames.columns) == {"media_id", "frame_ix", "frame_ts_ms", "frame"}
        # only videos produce frames; bounded per row
        assert frames.groupby("media_id").size().max() <= 64

    def test_strict_raises(self):
        """Only the VIDEO kind lacks a real decoder now (PPM images and
        WAV audio both decode) — strict mode raises on it alone."""
        import pyarrow as pa_

        from calendar_event_entity_extraction_ray.stages.multimodal import (
            DecodeFeatures,
            synth_media_table,
        )

        t = synth_media_table(3)   # rows: image, audio, video
        dec = DecodeFeatures(strict=True)
        with pytest.raises(NotImplementedError):
            dec(t)
        no_video = t.filter(
            pa_.compute.not_equal(t.column("kind"), "video"))
        assert dec(no_video).num_rows == 2

    def test_wav_roundtrip_and_real_audio_stats(self):
        """The audio kernel is REAL: WAV round-trips exactly and the
        decode stage's stats match independent numpy over the samples."""
        from calendar_event_entity_extraction_ray.functions.audiocodec import (
            audio_stats,
            decode_wav,
            encode_wav,
        )
        from calendar_event_entity_extraction_ray.stages.multimodal import (
            DecodeFeatures,
            synth_media_table,
            synth_samples,
        )

        x = synth_samples(1, 250, seed=42)
        samples, rate = decode_wav(encode_wav(x))
        assert rate == 8000 and (samples == x).all()

        out = DecodeFeatures(feature_dim=8)(synth_media_table(6)).to_pandas()
        aud = out[out["kind"] == "audio"].iloc[0]
        mid = int(aud["media_id"])
        expect = audio_stats(synth_samples(mid, 1000 + mid * 37, 42), 8000)
        assert int(aud["rms_e4"]) == expect["rms_e4"]
        assert int(aud["zcr_e4"]) == expect["zcr_e4"]
        assert int(aud["dur_ms"]) == expect["dur_ms"]
        xf = synth_samples(mid, 1000 + mid * 37, 42).astype(
            np.float64) / 32768.0
        rms = float(np.sqrt((xf * xf).mean()))
        assert int(aud["rms_e4"]) == int(np.floor(rms * 10_000 + 0.5))
        # images keep the -1 sentinel on audio stats and vice versa
        assert (out[out["kind"] == "image"]["rms_e4"] == -1).all()
        assert (out[out["kind"] == "audio"]["mean_r_e4"] == -1).all()

    def test_deterministic_features(self):
        from calendar_event_entity_extraction_ray.stages.multimodal import (
            DecodeFeatures,
            synth_media_table,
        )

        a = DecodeFeatures(feature_dim=4)(synth_media_table(5))
        b = DecodeFeatures(feature_dim=4)(synth_media_table(5))
        assert a.column("feature").to_pylist() == b.column("feature").to_pylist()

    def test_ppm_roundtrip_and_real_stats(self):
        """The image kernel is REAL: PPM round-trips exactly and the decode
        stage's channel means match independent numpy over the pixels."""
        from calendar_event_entity_extraction_ray.functions.imagecodec import (
            decode_ppm,
            encode_ppm,
            resize_nearest,
        )
        from calendar_event_entity_extraction_ray.stages.multimodal import (
            DecodeFeatures,
            synth_media_table,
            synth_pixels,
        )

        px = synth_pixels(0, 16, 12, seed=42)
        assert (decode_ppm(encode_ppm(px)) == px).all()
        # comment + whitespace tolerant header
        with_comment = b"P6\n# a comment\n2 1\n255\n" + bytes(6)
        assert decode_ppm(with_comment).shape == (1, 2, 3)
        small = resize_nearest(px, 4, 3)
        assert small.shape == (3, 4, 3)
        assert set(np.unique(small)) <= set(np.unique(px))

        out = DecodeFeatures(feature_dim=8)(synth_media_table(6))
        df = out.to_pandas()
        img = df[df["kind"] == "image"].iloc[0]
        mid = int(img["media_id"])
        w, h = 16 + (mid % 8) * 4, 12 + (mid % 6) * 4
        expect = synth_pixels(mid, w, h, 42).reshape(-1, 3).mean(axis=0)
        assert img["mean_r_e4"] == int(np.floor(expect[0] * 10_000 + 0.5))
        assert img["px_width"] == w and img["px_height"] == h
        # stubbed kinds carry the -1 sentinel
        assert (df[df["kind"] != "image"]["mean_r_e4"] == -1).all()

    def test_strict_decodes_real_ppm(self):
        """strict=True raises only for kinds with no real decoder — PPM
        images pass through the real kernel."""
        import pyarrow as pa_

        from calendar_event_entity_extraction_ray.stages.multimodal import (
            DecodeFeatures,
            synth_media_table,
        )

        t = synth_media_table(6)
        imgs_only = t.filter(
            pa_.compute.equal(t.column("kind"), "image"))
        out = DecodeFeatures(strict=True)(imgs_only)
        assert out.num_rows == imgs_only.num_rows
        assert (out.to_pandas()["px_width"] > 0).all()


class TestAugmentation:
    def test_pipeline_counts_and_dedup(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.pipelines.augmentation import (
            augment_pipeline,
        )
        from calendar_event_entity_extraction_ray.stages.augment import records_to_table

        rows = []
        for i in range(40):
            rows.append({
                "event_text": f"Meet with Person{i} at Place{i} tomorrow",
                "action": "meeting", "date": "2025-01-10", "time": "4pm",
                "attendees": [f"Person{i}"], "location": f"Place{i}",
                "row_id": i,
            })
        # exact duplicate pair -> dedup must keep one
        rows.append(dict(rows[0], row_id=99))
        ds = ray.data.from_arrow(records_to_table(rows))
        out = augment_pipeline(ds, n_synth=20, seed=42).to_pandas()
        # originals(41 -> 40 unique) + ≤1 variant each + 20 synth, deduped
        assert 60 <= len(out) <= 101
        assert not out.duplicated(
            subset=["event_text", "action", "date", "time", "location"]
        ).any()
        # normalization applied to originals: dateutil dayfirst on the
        # ambiguous ISO "2025-01-10" -> day=01, month=10 (reference semantics)
        originals = out[out["event_text"].str.startswith("Meet with")]
        assert (originals["date"] == "01/10/2025").all()
        assert (originals["time"] == "4:00 PM").all()

    def test_augment_deterministic_across_partitioning(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.pipelines.augmentation import (
            augment_pipeline,
        )
        from calendar_event_entity_extraction_ray.stages.augment import records_to_table

        rows = [
            {"event_text": f"Sync with Dev{i} at Hub{i} on 2025-02-0{1 + i % 8}",
             "action": "sync", "attendees": [f"Dev{i}"], "location": f"Hub{i}",
             "row_id": i}
            for i in range(30)
        ]
        t = records_to_table(rows)
        a = augment_pipeline(ray.data.from_arrow(t), seed=1).to_pandas()
        b = augment_pipeline(ray.data.from_arrow(t).repartition(7), seed=1).to_pandas()
        key = ["event_text", "action", "date", "time", "location"]
        pd.testing.assert_frame_equal(
            a[key].sort_values(key).reset_index(drop=True),
            b[key].sort_values(key).reset_index(drop=True),
        )


class TestEvaluate:
    def test_fractions_with_parse_failures(self, ray_session):
        import json

        import ray

        from calendar_event_entity_extraction_ray import TARGET_KEYS
        from calendar_event_entity_extraction_ray.pipelines.evaluate import evaluate

        gold = {k: None for k in TARGET_KEYS}
        gold["action"] = "call"
        rows = [
            {"prediction_text": json.dumps(gold), **gold},          # exact
            {"prediction_text": "no json here", **gold},            # parse fail
        ]
        ds = ray.data.from_items(rows)
        m = evaluate(ds)
        assert m["exact_match"] == 0.5
        assert m["json_validity"] == 0.5
        assert m["action_accuracy"] == 0.5


class TestResampleAudio:
    def test_real_nearest_resample(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.functions.audiocodec import (
            decode_wav,
        )
        from calendar_event_entity_extraction_ray.stages.multimodal import (
            ResampleAudio,
            synth_media_table,
        )

        ds = ray.data.from_arrow(synth_media_table(9))
        out = ds.map_batches(
            ResampleAudio, fn_constructor_kwargs={"rate": 4000},
            batch_format="pyarrow", batch_size=4, concurrency=(1, 2),
        ).to_pandas()
        src = synth_media_table(9).to_pandas()
        for _, row in out[out["kind"] == "audio"].iterrows():
            samples, rate = decode_wav(bytes(row["payload"]))
            assert rate == 4000
            orig, orate = decode_wav(bytes(
                src[src["media_id"] == row["media_id"]].iloc[0]["payload"]))
            assert orate == 8000
            assert abs(len(samples) - len(orig) // 2) <= 1
            # nearest selection: every output sample exists in the input
            assert np.isin(samples, orig).all()
        # non-audio payloads byte-identical
        for _, row in out[out["kind"] != "audio"].iterrows():
            assert bytes(row["payload"]) == bytes(
                src[src["media_id"] == row["media_id"]].iloc[0]["payload"])


class TestKnnMulti:
    def test_matches_per_query_bruteforce(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import (
            knn_bruteforce,
            knn_bruteforce_multi,
        )

        rng = np.random.RandomState(12)
        mat = rng.standard_normal((600, 16))
        ds = ray.data.from_arrow(pa.table({
            "vec_id": pa.array(range(600), pa.int64()),
            "embedding": pa.array(mat.tolist(), pa.list_(pa.float32())),
        })).repartition(5)
        Q = rng.standard_normal((4, 16))
        got = knn_bruteforce_multi(ds, Q, k=7).to_pandas()
        assert len(got) == 28
        for qi in range(4):
            single = knn_bruteforce(ds, Q[qi], k=7).to_pandas()
            sub = (got[got["query_id"] == qi]
                   .sort_values("rnk")["vec_id"].tolist())
            assert sub == single["vec_id"].tolist()
            assert sorted(got[got["query_id"] == qi]["rnk"]) == list(
                range(1, 8))
