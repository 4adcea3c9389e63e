"""Delta-append graph ingest (pipelines/kg.py:append_graph).

The daily-crawl shape: a base graph is materialized once; each new crawl's
triples are distinct-unioned into the existing partitions (same subject-hash
routing), idempotently per epoch. Pins:

  - append(base, delta) == rebuild(base ∪ delta) as a triple SET;
  - re-running an applied epoch is a no-op (manifest byte-identical);
  - re-applying the same delta under a new epoch changes nothing
    (distinct-union idempotence — the crash-recovery guarantee);
  - untouched partitions are not rewritten;
  - manifest epoch + per-partition lineage bookkeeping.
"""

from __future__ import annotations

import json
import os

import pandas as pd
import pyarrow as pa
import pytest


def _pages_slice(lo: int, hi: int, seed: int = 42):
    """Synthetic pages for ids [lo, hi) — disjoint url ranges per slice."""
    import ray

    from calendar_event_entity_extraction_ray.sources.pages import pages_table

    ds = ray.data.range(hi - lo)
    return ds.map_batches(
        lambda b: pages_table([i + lo for i in b.column("id").to_pylist()],
                              seed=seed),
        batch_format="pyarrow")


def _distinct(table: pa.Table) -> pd.DataFrame:
    df = table.to_pandas().drop_duplicates()
    return df.sort_values(list(df.columns)).reset_index(drop=True)


@pytest.fixture(scope="module")
def appended(ray_session, tmp_path_factory):
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        append_graph,
        kg_triples,
        materialize_graph,
    )
    from calendar_event_entity_extraction_ray.state.manifest import (
        load_manifest,
        read_output,
    )

    root = tmp_path_factory.mktemp("append")
    out = str(root / "graph")
    materialize_graph(kg_triples(_pages_slice(0, 120)), out,
                      fingerprint="base", num_partitions=4)
    base_manifest = load_manifest(out)
    append_graph(kg_triples(_pages_slice(120, 200)), out, epoch="ep1")

    rebuilt = str(root / "rebuilt")
    materialize_graph(
        kg_triples(_pages_slice(0, 120).union(_pages_slice(120, 200))),
        rebuilt, fingerprint="full", num_partitions=4)
    return out, rebuilt, base_manifest, read_output(out)


class TestAppendGraph:
    def test_append_equals_rebuild_as_set(self, appended):
        from calendar_event_entity_extraction_ray.state.manifest import (
            read_output,
        )

        out, rebuilt, _, table = appended
        got = _distinct(table)
        want = _distinct(read_output(rebuilt))
        pd.testing.assert_frame_equal(got, want)

    def test_manifest_epoch_and_lineage(self, appended):
        from calendar_event_entity_extraction_ray.state.manifest import (
            load_manifest,
        )

        out, _, base_manifest, _ = appended
        m = load_manifest(out)
        assert m["epochs"] == ["ep1"]
        assert m["fingerprint"] == "base"  # base identity untouched
        assert m["num_partitions"] == 4
        ep_rows = [ln for ln in m["lineage"] if ln.get("epoch") == "ep1"]
        assert ep_rows and all("rows_in_delta" in ln for ln in ep_rows)
        # every touched partition is tagged with the epoch and grew (or
        # stayed) vs the base entry
        touched = {str(ln["part_id"]) for ln in ep_rows}
        for pid in touched:
            assert m["partitions"][pid]["epoch"] == "ep1"
            assert (m["partitions"][pid]["rows"]
                    >= base_manifest["partitions"][pid]["rows"])

    def test_reapplied_epoch_is_noop(self, appended):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            load_manifest,
        )

        out, _, _, _ = appended
        before = json.dumps(load_manifest(out), sort_keys=True)
        append_graph(kg_triples(_pages_slice(120, 200)), out, epoch="ep1")
        after = json.dumps(load_manifest(out), sort_keys=True)
        assert before == after

    def test_same_delta_new_epoch_changes_nothing(self, appended):
        """Crash-recovery guarantee: re-merging an already-ingested delta
        (fresh epoch id) cannot change the triple set."""
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            load_manifest,
            read_output,
        )

        out, _, _, table = appended
        before = _distinct(table)
        append_graph(kg_triples(_pages_slice(120, 200)), out, epoch="ep2")
        after = _distinct(read_output(out))
        pd.testing.assert_frame_equal(before, after)
        assert load_manifest(out)["epochs"] == ["ep1", "ep2"]

    def test_untouched_partition_not_rewritten(self, ray_session,
                                               tmp_path_factory):
        """A delta whose subjects all hash to a strict subset of
        partitions must leave the other partitions' files untouched."""
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
            materialize_graph,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            load_manifest,
        )

        out = str(tmp_path_factory.mktemp("append_small") / "g")
        materialize_graph(kg_triples(_pages_slice(0, 100)), out,
                          fingerprint="base", num_partitions=8)
        mtimes = {
            pid: os.path.getmtime(os.path.join(out, e["file"]))
            for pid, e in load_manifest(out)["partitions"].items()}
        # a 3-page delta touches few of 8 partitions
        append_graph(kg_triples(_pages_slice(100, 103)), out, epoch="d1")
        m = load_manifest(out)
        untouched = [pid for pid, e in m["partitions"].items()
                     if e.get("epoch") != "d1"]
        assert untouched, "delta unexpectedly touched every partition"
        for pid in untouched:
            assert os.path.getmtime(
                os.path.join(out, m["partitions"][pid]["file"])
            ) == mtimes[pid]

    def test_append_without_base_raises(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
        )

        with pytest.raises(ValueError, match="no existing graph"):
            append_graph(kg_triples(_pages_slice(0, 10)),
                         str(tmp_path / "missing"), epoch="e")


def _tree(root: str) -> list:
    """Every path under ``root`` (dirs and files), relative and sorted."""
    return sorted(os.path.relpath(os.path.join(d, n), root)
                  for d, dirs, files in os.walk(root) for n in dirs + files)


class TestEpochName:
    def test_path_like_epoch_rejected_before_any_write(self, ray_session,
                                                       tmp_path):
        """Epochs name files (``delta-{epoch}.parquet``, ``_spill_{epoch}``):
        an empty, dot or separator-bearing epoch raises ValueError in both
        modes and leaves the manifest bytes and the listing unchanged."""
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
            materialize_graph,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            MANIFEST_NAME,
        )

        out = str(tmp_path / "graph")
        materialize_graph(kg_triples(_pages_slice(0, 40)), out,
                          fingerprint="base", num_partitions=2)
        with open(os.path.join(out, MANIFEST_NAME), "rb") as f:
            manifest_before = f.read()
        tree_before = _tree(out)
        for epoch in ["", ".", "..", "input-/data/pages.parquet", "a/b"]:
            for mode in ("delta", "merge"):
                with pytest.raises(ValueError, match="not a valid file name"):
                    append_graph(kg_triples(_pages_slice(40, 60)), out,
                                 epoch=epoch, mode=mode)
                with open(os.path.join(out, MANIFEST_NAME), "rb") as f:
                    assert f.read() == manifest_before
                assert _tree(out) == tree_before


class TestDeltaModeAndCompaction:
    """LSM-style append (mode='delta'): O(delta) writes — the base
    Parquet is never read or rewritten; readers distinct-union base +
    side files; compact_graph folds them back."""

    @pytest.fixture(scope="class")
    def delta_graph(self, ray_session, tmp_path_factory):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
            materialize_graph,
        )

        root = tmp_path_factory.mktemp("lsm")
        out = str(root / "graph")
        materialize_graph(kg_triples(_pages_slice(0, 120)), out,
                          fingerprint="base", num_partitions=4)
        base_mtimes = {
            pid: os.path.getmtime(os.path.join(out, e["file"]))
            for pid, e in _manifest(out)["partitions"].items()}
        append_graph(kg_triples(_pages_slice(120, 200)), out,
                     epoch="d1", mode="delta")
        return out, root, base_mtimes

    def test_base_files_untouched(self, delta_graph):
        """THE O(delta) claim: a delta epoch never opens the base."""
        out, _, base_mtimes = delta_graph
        m = _manifest(out)
        for pid, e in m["partitions"].items():
            assert os.path.getmtime(
                os.path.join(out, e["file"])) == base_mtimes[pid]
            assert e["deltas"], f"partition {pid} got no delta"
            for d in e["deltas"]:
                assert d["epoch"] == "d1"
                assert os.path.exists(os.path.join(out, d["file"]))

    def test_read_path_equals_rebuild(self, delta_graph, ray_session,
                                      tmp_path_factory):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            kg_triples,
            materialize_graph,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            read_output,
        )

        out, root, _ = delta_graph
        rebuilt = str(root / "rebuilt")
        materialize_graph(
            kg_triples(_pages_slice(0, 120).union(_pages_slice(120, 200))),
            rebuilt, fingerprint="full", num_partitions=4)
        pd.testing.assert_frame_equal(_distinct(read_output(out)),
                                      _distinct(read_output(rebuilt)))

    def test_compaction_folds_and_preserves(self, delta_graph):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            compact_graph,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            read_output,
        )

        out, _, _ = delta_graph
        before = _distinct(read_output(out))
        m = compact_graph(out)
        after = _distinct(read_output(out))
        pd.testing.assert_frame_equal(before, after)
        for pid, e in m["partitions"].items():
            assert "deltas" not in e
            assert e["compacted_epochs"] == ["d1"]
            pdir = os.path.join(out, f"part_key={pid}")
            assert not [f for f in os.listdir(pdir)
                        if f.startswith("delta-")]
        # epoch idempotence survives compaction (side files gone)
        assert "d1" in m["epochs"]
        # compacting again is a no-op
        m2 = compact_graph(out)
        assert json.dumps(m, sort_keys=True) == json.dumps(
            m2, sort_keys=True)


def _manifest(out_dir: str) -> dict:
    from calendar_event_entity_extraction_ray.state.manifest import (
        load_manifest,
    )

    return load_manifest(out_dir)


class TestTimeTravelRead:
    def test_as_of_over_delta_epochs(self, ray_session, tmp_path_factory):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
            materialize_graph,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            read_output,
        )

        out = str(tmp_path_factory.mktemp("ttravel") / "graph")
        materialize_graph(kg_triples(_pages_slice(0, 60)), out,
                          fingerprint="base", num_partitions=4)
        base = _distinct(read_output(out))
        append_graph(kg_triples(_pages_slice(60, 100)), out, epoch="d1",
                     mode="delta")
        after_d1 = _distinct(read_output(out))
        append_graph(kg_triples(_pages_slice(100, 140)), out, epoch="d2",
                     mode="delta")

        # full read sees everything; as_of peels later epochs off
        full = _distinct(read_output(out))
        assert len(full) > len(after_d1) > len(base)
        pd.testing.assert_frame_equal(
            _distinct(read_output(out, as_of="d2")), full)
        pd.testing.assert_frame_equal(
            _distinct(read_output(out, as_of="d1")), after_d1)
        pd.testing.assert_frame_equal(
            _distinct(read_output(out, as_of="base")), base)

        with pytest.raises(ValueError, match="unknown epoch"):
            read_output(out, as_of="nope")

    def test_as_of_rejects_irreversible_epochs(self, ray_session,
                                               tmp_path_factory):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            compact_graph,
            kg_triples,
            materialize_graph,
        )
        from calendar_event_entity_extraction_ray.state.manifest import (
            read_output,
        )

        out = str(tmp_path_factory.mktemp("ttravel2") / "graph")
        materialize_graph(kg_triples(_pages_slice(0, 60)), out,
                          fingerprint="base", num_partitions=4)
        # merge-applied epoch rewrites the base: base is unreadable
        append_graph(kg_triples(_pages_slice(60, 100)), out, epoch="m1",
                     mode="merge")
        with pytest.raises(ValueError, match="merge-applied"):
            read_output(out, as_of="base")
        # a delta epoch after the merge IS readable as_of
        append_graph(kg_triples(_pages_slice(100, 140)), out, epoch="d1",
                     mode="delta")
        got = _distinct(read_output(out, as_of="m1"))
        append_less = _distinct(read_output(out))
        assert len(got) < len(append_less)
        # compaction folds d1 into the base -> m1 view gone too
        compact_graph(out)
        with pytest.raises(ValueError, match="compacted"):
            read_output(out, as_of="m1")
        pd.testing.assert_frame_equal(
            _distinct(read_output(out, as_of="d1")), append_less)


def _pandas_distinct_sorted(t: pa.Table) -> pa.Table:
    """The pandas set operation ``_distinct_sorted`` must equal."""
    df = t.to_pandas().drop_duplicates()
    t2 = pa.Table.from_pandas(df, preserve_index=False).cast(t.schema)
    return t2.sort_by([(c, "ascending") for c in t.schema.names])


def _partition_tables(out_dir: str) -> dict:
    """{part_id: [base, delta...]} as the manifest lists them."""
    import pyarrow.parquet as pq

    return {pid: [pq.read_table(os.path.join(out_dir, f))
                  for f in [e["file"]]
                  + [d["file"] for d in e.get("deltas", [])]]
            for pid, e in _manifest(out_dir)["partitions"].items()}


class TestArrowSetOps:
    """The graph store's distinct and sort run in Arrow and give the
    tables the pandas versions gave: same files, same read."""

    @pytest.fixture(scope="class")
    def daily_round(self, ray_session, tmp_path_factory):
        """A base graph plus two delta epochs, each half re-crawled
        pages and half new (the shape of a daily epoch)."""
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            append_graph,
            kg_triples,
            materialize_graph,
        )

        out = str(tmp_path_factory.mktemp("daily") / "graph")
        materialize_graph(kg_triples(_pages_slice(0, 200)), out,
                          fingerprint="base", num_partitions=4)
        for epoch, lo in (("d1", 100), ("d2", 200)):
            append_graph(kg_triples(_pages_slice(lo, lo + 200)), out,
                         epoch=epoch, mode="delta")
        return out

    def test_distinct_sorted_on_daily_partitions(self, daily_round):
        from calendar_event_entity_extraction_ray.pipelines.kg import (
            _distinct_sorted,
        )

        parts = _partition_tables(daily_round)
        assert len(parts) == 4
        for pid, tables in parts.items():
            t = pa.concat_tables(tables)
            got = _distinct_sorted(t)
            assert got.num_rows < t.num_rows, pid  # re-crawls collapse
            assert got.equals(_pandas_distinct_sorted(t)), pid

    def test_distinct_sorted_on_a_million_rows(self):
        """A 1M-row partition with repeated rows and NULL objects (a
        nullable string key beside the timestamp, the grouping shape
        pyarrow's ``group_by`` mis-groups)."""
        import numpy as np

        from calendar_event_entity_extraction_ray.pipelines.kg import (
            _distinct_sorted,
        )

        n = 1_000_000
        rng = np.random.default_rng(7)
        subj = rng.integers(0, 300_000, n)
        obj = rng.integers(0, 40, n).astype(object)
        obj[rng.random(n) < 0.05] = None
        t = pa.table({
            "subj": pa.array([f"http://p/{i}#ev0" for i in subj]),
            "pred": pa.array(np.array(["hasTitle", "hasDate", "hasPlace"])[
                subj % 3]),
            "obj": pa.array([None if o is None else f"o{o}" for o in obj],
                            pa.string()),
            "kind": pa.array(np.array(["title", "date", "place"])[subj % 3]),
            "url": pa.array([f"http://p/{i}" for i in subj]),
            "warc_ts": pa.array(subj % 5 * 1_000_000, pa.timestamp("us")),
        })
        got = _distinct_sorted(t)
        assert got.num_rows < n
        assert got.equals(_pandas_distinct_sorted(t))

    def test_read_output_equals_global_pandas_distinct(self, daily_round):
        """Per-partition distinct == the global distinct, row for row
        (first-occurrence order kept), and as of each epoch."""
        from calendar_event_entity_extraction_ray.state.manifest import (
            read_output,
        )

        m, parts = _manifest(daily_round), _partition_tables(daily_round)
        for as_of, allowed in (("base", set()), ("d1", {"d1"}),
                               (None, {"d1", "d2"})):
            tables = []
            for pid in sorted(parts, key=int):
                epochs = [None] + [d["epoch"] for d in
                                   m["partitions"][pid].get("deltas", [])]
                tables += [t for t, e in zip(parts[pid], epochs)
                           if e is None or e in allowed]
            want = pa.concat_tables(tables)
            if allowed:
                want = pa.Table.from_pandas(
                    want.to_pandas().drop_duplicates(),
                    preserve_index=False).cast(want.schema)
            assert read_output(daily_round, as_of=as_of).equals(want), as_of
