"""Round-3 correctness fixes (ADVICE.md items).

- hash64_columns dtype canonicalization: equal keys must hash equal
  regardless of whether THIS batch happened to contain a null (pandas
  converts int64 -> float64 only when nulls are present, and
  hash_pandas_object hashes int64 5 != float64 5.0).
- hash_join NULL keys: SQL equality never matches NULL = NULL.
- sessionize NULL-user group: gap rule, not one-session-per-event.
- profile_numeric_columns: all-NULL column must not overflow.
- exchange spill root: shared-root config + deferred cleanup.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from calendar_event_entity_extraction_ray.stages import exchange as X
from calendar_event_entity_extraction_ray.stages.dedup import hash64_columns


class TestHashDtypeStability:
    def test_numeric_and_bool_keys_stable_across_null_presence(self):
        a = pa.table({"k": pa.array([5, 7], pa.int64())})
        b = pa.table({"k": pa.array([5, None], pa.int64())})
        assert hash64_columns(a, ["k"])[0] == hash64_columns(b, ["k"])[0]

        c = pa.table({"k": pa.array([True, False])})
        d = pa.table({"k": pa.array([True, None])})
        assert hash64_columns(c, ["k"])[0] == hash64_columns(d, ["k"])[0]

        # int32 vs int64 carrying the same logical value also co-locate
        e = pa.table({"k": pa.array([5], pa.int32())})
        assert hash64_columns(e, ["k"])[0] == hash64_columns(a, ["k"])[0]

    def test_grouped_count_nullable_int_key_large_path(self, ray_session):
        """>SMALL_ROWS partials with an int key + scattered nulls: pre-fix,
        batches WITH nulls hashed key 5 differently than batches without,
        so one key produced duplicate output rows on the exchange."""
        import ray

        from calendar_event_entity_extraction_ray.stages.aggregate import (
            grouped_count,
        )

        n = 300_000
        n_keys = 150_000  # partial rows > SMALL_ROWS -> real disk exchange
        keys = (np.arange(n, dtype=np.int64) % n_keys).astype(object)
        keys[::977] = None  # nulls land in SOME blocks, not all
        ds = ray.data.from_arrow(pa.table({
            "k": pa.array(list(keys), pa.int64()),
        })).repartition(16)

        out = grouped_count(ds, "k").to_pandas()
        # one output row per distinct non-null key (NULLs dropped by
        # grouped_count's documented semantics)
        assert len(out) == n_keys
        assert not out["k"].duplicated().any()
        expect = pd.Series([k for k in keys if k is not None]).value_counts()
        got = out.set_index(out["k"].astype(np.int64))["n"]
        assert int(got.sum()) == int(expect.sum())
        sample = expect.sample(200, random_state=0)
        for k, v in sample.items():
            assert int(got.loc[int(k)]) == int(v)


class TestHashJoinNullKeys:
    def test_null_keys_never_match(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.joins import hash_join

        left = pd.DataFrame({"k": [1.0, None, 2.0, None], "lv": [1, 2, 3, 4]})
        right = pd.DataFrame({"k": [1.0, None, 3.0], "rv": [10, 20, 30]})
        out = hash_join(
            ray.data.from_pandas(left).repartition(2),
            ray.data.from_pandas(right).repartition(2),
            key="k", left_cols=["k", "lv"], right_cols=["k", "rv"],
            num_buckets=4,
        ).to_pandas()
        # SQL INNER JOIN: only k=1 matches; NULL = NULL is not a match
        assert len(out) == 1
        assert out["lv"].tolist() == [1] and out["rv"].tolist() == [10]


class TestSessionizeNullUser:
    def test_null_user_follows_gap_rule(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.windows import (
            sessionize,
        )

        ts = pd.to_datetime([
            "2024-01-01 10:00", "2024-01-01 10:05",  # same session
            "2024-01-01 12:00",                        # gap -> new session
        ])
        df = pd.DataFrame({"user_id": pd.array([None, None, None],
                                               dtype="object"),
                           "ts": ts})
        out = sessionize(ray.data.from_pandas(df), gap_minutes=30).to_pandas()
        assert len(out) == 1  # one NULL-user group
        assert int(out["n_events"].iloc[0]) == 3
        # pre-fix: every NULL row started a session (n_sessions == 3)
        assert int(out["n_sessions"].iloc[0]) == 2


class TestProfileAllNull:
    def test_all_null_column_reports_zero_minmax(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.aggregate import (
            profile_numeric_columns,
        )

        df = pd.DataFrame({"a": [1.0, 2.0, 3.0],
                           "b": [None, None, None]})
        out = profile_numeric_columns(
            ray.data.from_pandas(df), ["a", "b"])
        b = out[out["column"] == "b"].iloc[0]
        assert int(b["n"]) == 3 and int(b["n_nulls"]) == 3
        assert int(b["n_distinct"]) == 0
        assert int(b["min_e2"]) == 0 and int(b["max_e2"]) == 0


def _near_dup_chain_docs():
    """A ~ B ~ C chain where A !~ C: cluster-keeper must drop BOTH B and C
    (transitivity), which band-local greedy could miss when no band holds
    A and C together."""
    words = ("alpha bravo charlie delta echo foxtrot golf hotel india "
             "juliet kilo lima mike november oscar papa quebec romeo "
             "sierra tango uniform victor whiskey xray yankee zulu").split()
    a = " ".join(words)
    b_words = list(words)
    b_words[2] = "changed1"
    b = " ".join(b_words)
    c_words = list(b_words)
    c_words[22] = "changed2"
    c = " ".join(c_words)
    return a, b, c


class TestMinHashClusterKeeper:
    def test_transitive_chain_drops_whole_cluster(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.functions.dedup import (
            jaccard,
            word_shingles,
        )
        from calendar_event_entity_extraction_ray.stages.dedup import (
            minhash_lsh_dup_ids,
            minhash_lsh_pairs,
        )

        a, b, c = _near_dup_chain_docs()
        # preconditions: A~B and B~C above threshold, A~C below
        t = 0.7
        assert jaccard(word_shingles(a), word_shingles(b)) >= t
        assert jaccard(word_shingles(b), word_shingles(c)) >= t
        assert jaccard(word_shingles(a), word_shingles(c)) < t

        docs = [{"doc_id": 0, "text": a}, {"doc_id": 1, "text": b},
                {"doc_id": 2, "text": c},
                {"doc_id": 3, "text": "completely unrelated content about "
                                      "ray data exchanges and arrow"}]
        ds = ray.data.from_items(docs)
        pairs = minhash_lsh_pairs(ds, "text", "doc_id",
                                  threshold=t).to_pandas()
        got = {(int(r.id_a), int(r.id_b)) for r in pairs.itertuples()}
        assert (0, 1) in got and (1, 2) in got
        assert (0, 2) not in got  # below threshold — verification pruned it

        dropped = set(minhash_lsh_dup_ids(ds, "text", "doc_id", threshold=t)
                      .to_pandas()["doc_id"])
        # component {0,1,2}: keep min id 0, drop 1 AND (transitively) 2
        assert dropped == {1, 2}

    def test_text_modes_agree(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.dedup import (
            minhash_lsh_dup_ids,
        )

        a, b, c = _near_dup_chain_docs()
        docs = [{"doc_id": i, "text": t} for i, t in
                enumerate([a, b, c, a + " extra tail words here", b])]
        ds = ray.data.from_items(docs)
        got = {}
        for mode in ("broadcast", "exchange"):
            got[mode] = sorted(
                minhash_lsh_dup_ids(ds, "text", "doc_id", threshold=0.7,
                                    text_mode=mode).to_pandas()["doc_id"])
        assert got["broadcast"] == got["exchange"]
        assert 4 in got["broadcast"]  # exact dup of doc 1's text


class TestCorpusCleanAntiJoinRoute:
    def test_exchange_route_matches_broadcast(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.pipelines.corpus import (
            corpus_clean,
        )

        rows = []
        for i in range(40):
            rows.append({"doc_id": i,
                         "text": f"The quarterly planning meeting number {i} "
                                 f"will cover roadmap items and action "
                                 f"points for review cycle {i}."})
        rows.append({"doc_id": 950, "text": rows[0]["text"]})  # exact dup
        ds1 = ray.data.from_items(rows)
        ds2 = ray.data.from_items(rows)
        base = sorted(corpus_clean(ds1).to_pandas()["doc_id"])
        # broadcast_limit=0 forces BOTH the exchange text path in minhash
        # and the anti_join route for the drop set
        routed = sorted(corpus_clean(ds2, broadcast_limit=0)
                        .to_pandas()["doc_id"])
        assert base == routed


class TestEmbeddingDupLsh:
    def test_subset_of_exact_with_high_recall(self, ray_session):
        """LSH pairs must be a SUBSET of the exact cosine pairs (in-bucket
        verification is exact, so no false positives) and the recall
        indicator on the fixture must clear 0.9 — the honest-approximation
        gate (the brute-force ``embedding_dups`` query is the baseline)."""
        import ray

        from calendar_event_entity_extraction_ray.stages.knn import (
            embedding_dup_pairs_lsh,
        )

        rng = np.random.RandomState(5)
        n_base, dim = 150, 32
        base = rng.normal(size=(n_base, dim))
        base /= np.linalg.norm(base, axis=1, keepdims=True)
        vecs, ids = [], []
        for i in range(n_base):
            vecs.append(base[i]); ids.append(i)
            if i % 3 == 0:  # planted near-dup, cosine ~0.995
                vecs.append(base[i] + rng.normal(scale=0.03, size=dim))
                ids.append(1000 + i)
        mat = np.asarray(vecs)
        normed = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        sims = normed @ normed.T
        ids_np = np.asarray(ids)
        ai, bj = np.where(sims >= 0.8)
        exact = {(int(ids_np[i]), int(ids_np[j]))
                 for i, j in zip(ai, bj) if ids_np[i] < ids_np[j]}
        assert len(exact) >= n_base // 3  # the planted pairs are there

        ds = ray.data.from_items(
            [{"vec_id": int(v), "embedding": list(map(float, m))}
             for v, m in zip(ids, mat)]).repartition(4)
        got_df = embedding_dup_pairs_lsh(ds, threshold=0.8).to_pandas()
        got = {(int(r.vec_id_a), int(r.vec_id_b))
               for r in got_df.itertuples()}
        assert got <= exact  # no false positives, no duplicate rows
        assert len(got_df) == len(got)
        recall = len(got) / len(exact)
        assert recall >= 0.9, f"recall {recall:.3f}"


class TestSpillRoot:
    def test_env_shared_root_defers_cleanup(self, ray_session, tmp_path,
                                            monkeypatch):
        import pyarrow.compute as pc
        import ray

        root = str(tmp_path / "shared_spill")
        monkeypatch.setenv(X.SPILL_ROOT_ENV, root)
        X.cleanup_pending_spill()  # drain dirs deferred by earlier tests

        n = X.SMALL_ROWS + 1000
        ds = ray.data.from_arrow(pa.table({
            "h": pa.array(np.arange(n, dtype=np.int64) % 8),
            "v": pa.array(np.ones(n, dtype=np.int64)),
        })).repartition(4)

        def fold(t: pa.Table) -> pa.Table:
            s = int(pc.sum(t.column("v")).as_py())
            return pa.table({"sum_v": pa.array([s], pa.int64())})

        out = X.hash_partition_map(ds, "h", fold, num_partitions=4).to_pandas()
        assert int(out["sum_v"].sum()) == n
        # spill landed under the shared root and is RETAINED (deferred for
        # lineage reconstruction), then removed by the explicit cleanup
        kept = [d for d in os.listdir(root) if d.startswith("cee_exchange_")]
        assert kept
        assert X.cleanup_pending_spill() == 1
        assert not [d for d in os.listdir(root)
                    if d.startswith("cee_exchange_")]

    def test_pregel_edge_pin_defers_cleanup(self, ray_session, tmp_path,
                                            monkeypatch):
        """A Pregel loop with ``num_partitions`` set pins its edges
        through the exchange's phase 1 under the shared root and hands
        the edge dir to ``cleanup_pending_spill`` instead of deleting
        it."""
        import ray

        from calendar_event_entity_extraction_ray.stages.graph import (
            connected_components,
        )

        root = str(tmp_path / "shared_spill")
        monkeypatch.setenv(X.SPILL_ROOT_ENV, root)
        X.cleanup_pending_spill()  # drain dirs deferred by earlier tests

        ds = ray.data.from_items(
            [{"a": i, "b": i + 1} for i in range(0, 40, 2)])
        out = connected_components(ds, "a", "b",
                                   num_partitions=3).to_pandas()
        assert len(out) == 40
        kept = [d for d in os.listdir(root) if d.startswith("cee_cc_edges_")]
        assert len(kept) == 1
        assert os.listdir(os.path.join(root, kept[0]))  # part=K dirs
        assert X.cleanup_pending_spill() == 1
        assert not os.listdir(root)


class TestAsofHotKeySplit:
    def test_one_key_holds_all_rows_matches_pandas(self, ray_session):
        """VERDICT-r2 #4: the documented-unhandled case — a single ``by``
        key holding ~all rows of both sides, beyond the exchange's
        SMALL_ROWS single-fold path, joined with ``time_buckets`` so the
        hot key is range-split on the time column with carry-in
        replication. Result must be row-identical to pandas.merge_asof
        (right timestamps are unique per key: merge_asof's tie-break among
        equal right timestamps is physical row order, which no partitioned
        engine — or SQL — defines)."""
        import ray

        from calendar_event_entity_extraction_ray.stages.joins import (
            asof_join,
        )

        rng = np.random.RandomState(11)
        nl, nr = 70_000, 35_000  # union > SMALL_ROWS -> real disk exchange
        base = pd.Timestamp("2024-01-01")
        left = pd.DataFrame({
            "ts": base + pd.to_timedelta(
                rng.randint(0, 20_000_000, nl), unit="s"),
            "uid": np.where(rng.rand(nl) < 0.999, 1, 2).astype(np.int64),
            "eid": np.arange(nl, dtype=np.int64),
        })
        # unique right timestamps (tie-free: see docstring)
        r_ts = rng.choice(20_000_000, size=nr, replace=False)
        right = pd.DataFrame({
            "ts": base + pd.to_timedelta(r_ts, unit="s"),
            "uid": np.where(rng.rand(nr) < 0.999, 1, 2).astype(np.int64),
            "val": rng.randint(0, 1000, nr).astype(np.int64),
        })
        expect = pd.merge_asof(
            left.sort_values("ts", kind="stable"),
            right.sort_values("ts", kind="stable").rename(
                columns={"ts": "ts_right"}),
            left_on="ts", right_on="ts_right", by="uid",
            direction="backward",
        ).sort_values("eid").reset_index(drop=True)

        out = asof_join(
            ray.data.from_pandas(left).repartition(8),
            ray.data.from_pandas(right).repartition(8),
            on="ts", by="uid",
            left_cols=["ts", "uid", "eid"],
            right_cols=["ts", "uid", "val"],
            time_buckets=8,
        ).to_pandas().sort_values("eid").reset_index(drop=True)

        assert len(out) == nl
        for c in ("ts", "uid", "eid", "ts_right"):
            assert out[c].equals(expect[c]), c
        a = out["val"].astype("float64")
        b = expect["val"].astype("float64")
        assert ((a == b) | (a.isna() & b.isna())).all()


class TestModelStage:
    def test_pool_matches_single_process_and_edge_cases(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.model_stage import (
            DummyModelScorer,
            score_documents,
        )

        df = pd.DataFrame({
            "doc_id": [1, 2, 3, 4, 5],
            "text": ["hello world", "", None, "hello hello", "a b c d"],
        })
        # small weights for the unit test; the golden pins the full size
        scorer = DummyModelScorer(seed=7, vocab=1 << 12, dim=16)
        want = scorer(pa.Table.from_pandas(df, preserve_index=False))
        got = (score_documents(
            ray.data.from_pandas(df).repartition(3),
            seed=7, vocab=1 << 12, dim=16, concurrency=2)
            .to_pandas().sort_values("doc_id").reset_index(drop=True))
        w = want.to_pandas().sort_values("doc_id").reset_index(drop=True)
        assert got["score_e6"].tolist() == w["score_e6"].tolist()
        # empty/NULL text scores 0 (no tokens), never NaN/crash
        assert got.loc[got["doc_id"] == 2, "score_e6"].iloc[0] == 0
        assert got.loc[got["doc_id"] == 3, "score_e6"].iloc[0] == 0
        # repeated token == deterministic single-token score
        one = scorer(pa.table({"doc_id": [9], "text": ["hello"]}))
        assert (got.loc[got["doc_id"] == 4, "score_e6"].iloc[0]
                == one.column("score_e6")[0].as_py())
