"""stages/exchange.py — the generic two-phase hash exchange."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from calendar_event_entity_extraction_ray.stages import exchange as X


def _ident(t: pa.Table) -> pa.Table:
    return t


class TestHashPartitionMap:
    def test_partition_integrity_and_colocation(self, ray_session):
        """Every row lands in exactly one partition; equal hashes co-locate."""
        import ray

        n = X.SMALL_ROWS + 5000  # force the real (disk) exchange
        h = np.arange(n, dtype=np.int64) % 1000  # 1000 distinct keys
        ds = ray.data.from_arrow(pa.table({
            "h": pa.array(h), "v": pa.array(np.arange(n, dtype=np.int64)),
        })).repartition(20)

        seen_parts = {}

        def fold(t: pa.Table) -> pa.Table:
            # one fold call per partition: record which keys it saw
            ks = sorted(set(t.column("h").to_pylist()))
            return pa.table({
                "k": pa.array(ks, pa.int64()),
                "n": pa.array(
                    [t.filter(pa.compute.equal(t.column("h"), k)).num_rows
                     for k in ks], pa.int64()),
            })

        out = X.hash_partition_map(ds, "h", fold, num_partitions=16).to_pandas()
        # each key appears in exactly ONE partition's fold output
        assert len(out) == 1000
        assert int(out["n"].sum()) == n
        per_key = out.groupby("k")["n"].sum()
        assert (per_key == n // 1000).all()

    def test_small_path_single_fold(self, ray_session):
        """Below SMALL_ROWS the fold sees the WHOLE dataset once."""
        import ray

        ds = ray.data.from_items(
            [{"h": i % 7, "v": i} for i in range(500)]).repartition(8)
        calls = []

        def fold(t: pa.Table) -> pa.Table:
            calls.append(t.num_rows)
            return pa.table({"rows": pa.array([t.num_rows], pa.int64())})

        out = X.hash_partition_map(ds, "h", fold).to_pandas()
        assert out["rows"].tolist() == [500]

    def test_stale_attempt_files_are_ignored(self, ray_session, tmp_path,
                                             monkeypatch):
        """The attempt-commit protocol: phase 2 reads ONLY files listed by
        the surviving attempt — a stale duplicate file from a retried task
        (simulated by pre-planting one; the exchange's pre-clean rmtree is
        suppressed for the first call so the plant survives) must not
        duplicate rows."""
        import shutil

        import ray

        orig_rmtree = shutil.rmtree
        calls = {"n": 0}

        def fake_rmtree(path, ignore_errors=False):
            calls["n"] += 1
            if calls["n"] == 1:  # skip the pre-clean only
                return
            orig_rmtree(path, ignore_errors=ignore_errors)

        monkeypatch.setattr(X.shutil, "rmtree", fake_rmtree)

        spill_root = str(tmp_path / "spill")
        n = X.SMALL_ROWS + 1000
        ds = ray.data.from_arrow(pa.table({
            "h": pa.array(np.arange(n, dtype=np.int64) % 4),
            "v": pa.array(np.ones(n, dtype=np.int64)),
        })).repartition(4)

        os.makedirs(os.path.join(spill_root, "part=0"), exist_ok=True)
        # stale attempt: valid parquet, right shape, NOT in any summary
        pq.write_table(pa.table({"h": pa.array([0], pa.int64()),
                                 "v": pa.array([10_000], pa.int64())}),
                       os.path.join(spill_root, "part=0", "stale.parquet"))

        def fold(t: pa.Table) -> pa.Table:
            s = int(pa.compute.sum(t.column("v")).as_py())
            return pa.table({"sum_v": pa.array([s], pa.int64())})

        out = X.hash_partition_map(ds, "h", fold, num_partitions=4,
                                   spill_root=spill_root).to_pandas()
        assert int(out["sum_v"].sum()) == n  # stale file contributed nothing

    def test_empty_input_preserves_fold_schema(self, ray_session):
        import ray

        ds = ray.data.from_arrow(pa.table({
            "h": pa.array([], pa.int64()), "v": pa.array([], pa.string())}))

        def fold(t: pa.Table) -> pa.Table:
            return t.select(["v"])

        out = X.hash_partition_map(ds, "h", fold)
        # the fold ran on the schema-bearing empty table (no crash); Ray's
        # to_pandas() of an empty dataset drops column names (Ray quirk —
        # ray.data.from_arrow(empty).to_pandas() is column-less upstream
        # too), so only the row count is assertable here
        assert out.count() == 0
        refs = out.to_arrow_refs()
        import ray as _ray

        tables = _ray.get(refs)
        assert any(t.schema.names == ["v"] for t in tables)


class TestCrashInjection:
    def test_spill_task_worker_loss_is_exactly_once(self, ray_session,
                                                    tmp_path):
        """REAL retry, not a simulation: one spill task hard-kills its
        worker (os._exit) AFTER writing spill files, BEFORE returning its
        attempt commit. Ray retries the task; the retry's files are the
        only ones listed, so the dead attempt's orphans must contribute
        nothing — result identical to an uninjected control run."""
        import ray

        n = 40_000
        tbl = pa.table({
            "h": pa.array(np.arange(n, dtype=np.int64) % 97),
            "v": pa.array(np.ones(n, dtype=np.int64)),
        })

        def fold(t: pa.Table) -> pa.Table:
            ks = pa.TableGroupBy(t, "h").aggregate([("v", "sum")])
            return ks.rename_columns(["h", "sum_v"])

        control = X.hash_partition_map(
            ray.data.from_arrow(tbl).repartition(8), "h", fold,
            num_partitions=8).to_pandas().sort_values("h")

        sentinel = str(tmp_path / "crash_once")
        out = X.hash_partition_map(
            ray.data.from_arrow(tbl).repartition(8), "h", fold,
            num_partitions=8,
            _crash_sentinel=sentinel).to_pandas().sort_values("h")

        assert os.path.exists(sentinel), "injection never fired"
        pd.testing.assert_frame_equal(out.reset_index(drop=True),
                                      control.reset_index(drop=True))
        assert int(out["sum_v"].sum()) == n

    def test_spill_partitions_worker_loss_listing_matches_control(
            self, ray_session, tmp_path):
        """The same window, one level down: a spill task of
        ``spill_partitions`` dies after writing its files, before
        returning its listing. The retried listing must equal the
        uninjected control's (file names aside — they are unique per
        attempt) and the dead attempt's files must be unlisted orphans."""
        import ray

        n = 40_000
        tbl = pa.table({
            "h": pa.array(np.arange(n, dtype=np.int64) % 97),
            "v": pa.array(np.arange(n, dtype=np.int64)),
        })

        def part_of(b: pa.Table) -> np.ndarray:
            return b.column("h").to_numpy() % 8

        def run(spill_dir, sentinel=None):
            listing = X.spill_partitions(
                ray.data.from_arrow(tbl).repartition(8), part_of,
                spill_dir, sentinel)
            pairs = sorted(zip(listing["part_id"], listing["rows"]))
            content = {
                int(p): X.read_spill(spill_dir, int(p), files).to_pandas()
                .sort_values("v").reset_index(drop=True)
                for p, files in listing.groupby("part_id")["file"]
                .apply(list).items()}
            return listing, pairs, content

        _, control_pairs, control = run(str(tmp_path / "control"))
        sentinel = str(tmp_path / "crash_once")
        spill_dir = str(tmp_path / "injected")
        listing, pairs, content = run(spill_dir, sentinel)

        assert os.path.exists(sentinel), "injection never fired"
        assert pairs == control_pairs
        assert content.keys() == control.keys()
        for p in control:
            pd.testing.assert_frame_equal(content[p], control[p])
        on_disk = [f for d in os.listdir(spill_dir)
                   for f in os.listdir(os.path.join(spill_dir, d))]
        assert len(on_disk) > len(listing)  # the dead attempt's orphans


class TestSpillPartitions:
    """``spill_partitions`` — the one phase 1 behind every
    hash-partitioned writer (exchange, graph materialize/append, the
    Pregel edge pin)."""

    def test_files_hold_only_their_partition(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.dedup import (
            hash64_columns,
        )

        P = 5
        keys = [f"k{i % 211}" for i in range(6000)]
        ds = ray.data.from_arrow(pa.table({
            "key": pa.array(keys), "v": pa.array(np.arange(6000))}),
        ).repartition(6)
        spill_dir = str(tmp_path / "spill")
        listing = X.spill_partitions(
            ds, lambda b: hash64_columns(b, ["key"]) % P, spill_dir)
        assert len(listing) > P  # several blocks touch each partition
        for r in listing.itertuples():
            t = X.read_spill(spill_dir, r.part_id, [r.file])
            assert t.num_rows == r.rows
            got = hash64_columns(t, ["key"]) % P
            assert (got == r.part_id).all()

    @pytest.mark.parametrize("n", [0, 5000])
    def test_listing_rows_sum_to_input(self, ray_session, tmp_path, n):
        import ray

        ds = ray.data.from_arrow(pa.table({
            "h": pa.array(np.arange(n, dtype=np.int64)),
            "v": pa.array(np.ones(n, dtype=np.int64))}))
        if n:
            ds = ds.repartition(4)
        listing = X.spill_partitions(
            ds, lambda b: b.column("h").to_numpy() % 7,
            str(tmp_path / "spill"))
        assert list(listing.columns) == ["part_id", "rows", "file", "bytes"]
        assert int(listing["rows"].sum()) == n
        if n == 0:
            assert listing.empty

    def test_negative_id_drops_row(self, ray_session, tmp_path):
        import ray

        ds = ray.data.from_arrow(pa.table({
            "h": pa.array(np.arange(100, dtype=np.int64))}))
        listing = X.spill_partitions(
            ds, lambda b: np.where(b.column("h").to_numpy() < 30, -1, 1),
            str(tmp_path / "spill"))
        assert listing["part_id"].tolist() == [1]
        assert int(listing["rows"].sum()) == 70


class TestSpillFiles:
    """The spill format: LZ4-compressed Arrow IPC files, read back only
    by ``read_spill``."""

    def test_round_trip_keeps_every_type(self, ray_session, tmp_path):
        """Every type the exchange carries comes back ``.equals()`` its
        input: ``_tag_side``'s all-null pad columns, timestamps,
        list<string>, dictionary and large_string."""
        import ray

        n = 600
        tbl = pa.table({
            "i": pa.array(np.arange(n, dtype=np.int64)),
            "pad": pa.nulls(n),
            "ts": pa.array(np.arange(n, dtype=np.int64) * 1_000_003,
                           pa.timestamp("us")),
            "tags": pa.array([None if i % 7 == 0
                              else [f"a{i % 5}", "b"][: i % 3]
                              for i in range(n)], pa.list_(pa.string())),
            "kind": pa.array([["x", None, "y"][i % 3] for i in range(n)]
                             ).dictionary_encode(),
            "text": pa.array([f"t{i}" * (i % 4) for i in range(n)],
                             pa.large_string()),
        })
        spill_dir = str(tmp_path / "spill")
        part = tbl.column("i").to_numpy() % 3
        listing = X.spill_partitions(
            ray.data.from_arrow(tbl).repartition(4),
            lambda b: b.column("i").to_numpy() % 3, spill_dir)
        for p, files in listing.groupby("part_id")["file"].apply(list).items():
            got = X.read_spill(spill_dir, int(p), files).sort_by("i")
            assert got.equals(tbl.filter(pa.array(part == p))), p

    def test_chunks_with_differing_dictionaries_round_trip(self, tmp_path):
        """One IPC file holds one dictionary per column: a column whose
        chunks carry different dictionaries is unified on write, and
        reads back with the same values."""
        from calendar_event_entity_extraction_ray.state.manifest import (
            write_ipc_atomic,
        )

        kind = pa.chunked_array([pa.array(["x", "y"]).dictionary_encode(),
                                 pa.array(["z", None, "x"]).dictionary_encode()])
        write_ipc_atomic(pa.table({"kind": kind}), str(tmp_path / "part=0"),
                         "a.arrow")
        got = X.read_spill(str(tmp_path), 0, ["a.arrow"]).column("kind")
        assert pa.types.is_dictionary(got.type)
        assert got.to_pylist() == ["x", "y", "z", None, "x"]

    def test_split_keeps_block_order_and_lists_bytes(self, ray_session,
                                                     tmp_path):
        """One block split in one pass: each file holds exactly the rows
        a per-partition filter would give, in block order, and the
        listing's ``bytes`` is the file's size."""
        import ray

        rng = np.random.default_rng(3)
        ids = rng.integers(-1, 6, 5000)
        tbl = pa.table({"p": pa.array(ids), "v": pa.array(np.arange(5000))})
        spill_dir = str(tmp_path / "spill")
        listing = X.spill_partitions(
            ray.data.from_arrow(tbl), lambda b: b.column("p").to_numpy(),
            spill_dir)
        assert sorted(listing["part_id"]) == list(range(6))
        for r in listing.itertuples():
            want = tbl.filter(pa.array(ids == r.part_id))
            assert X.read_spill(spill_dir, r.part_id, [r.file]).equals(want)
            assert r.bytes == os.path.getsize(
                os.path.join(spill_dir, f"part={r.part_id}", r.file))

    def test_lz4_spill_near_uncompressed_parquet_size(self, ray_session,
                                                      tmp_path):
        """The graph exchange of 6,000 pages' triples (8 blocks, 16
        partitions, as a one-CPU ``kg_build`` step): its LZ4 IPC spill
        is at most 1.3x the uncompressed Parquet of the same files."""
        import ray

        from calendar_event_entity_extraction_ray.pipelines.kg import (
            _subj_part_of,
            kg_triples,
        )

        triples = kg_triples(ray.data.range(6000, override_num_blocks=8),
                             gen_seed=1)
        spill_dir = str(tmp_path / "spill")
        listing = X.spill_partitions(triples, _subj_part_of(16), spill_dir)
        parquet = 0
        for r in listing.itertuples():
            sink = pa.BufferOutputStream()
            pq.write_table(X.read_spill(spill_dir, r.part_id, [r.file]),
                           sink, compression="none")
            parquet += sink.getvalue().size
        assert int(listing["rows"].sum()) > 40_000
        assert int(listing["bytes"].sum()) <= 1.3 * parquet
