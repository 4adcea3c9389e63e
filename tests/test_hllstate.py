"""Epoch-incremental HLL distinct-count state (stages/hllstate.py):
multi-epoch state == single-shot batch REGISTERS bit-for-bit (max-merge
order independence), idempotent re-runs and double-fold immunity,
estimate accuracy, geometry pinning, crash-safe commit."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from calendar_event_entity_extraction_ray.stages import hllstate as H
from calendar_event_entity_extraction_ray.state import manifest


def _ds(keys, vals, blocks=3):
    import ray

    return ray.data.from_arrow(pa.table({
        "k": pa.array(keys, pa.string()),
        "v": pa.array(vals, pa.string())})).repartition(blocks)


def _mk(n, seed, n_keys=5):
    rng = np.random.RandomState(seed)
    keys = [f"key{i}" for i in rng.randint(0, n_keys, size=n)]
    vals = [f"u{i}" for i in rng.randint(0, 4000, size=n)]
    return keys, vals


@pytest.fixture
def sd(tmp_path):
    return str(tmp_path / "hll")


class TestHllState:
    def test_state_equals_batch_registers_exactly(self, ray_session, sd):
        k1, v1 = _mk(4000, 1)
        k2, v2 = _mk(4000, 2)
        H.hll_distinct_epoch(_ds(k1, v1), sd, "e1", "k", "v",
                             p=10, num_partitions=4)
        H.hll_distinct_epoch(_ds(k2, v2, blocks=7), sd, "e2", "k", "v",
                             p=10, num_partitions=4)
        state = H.read_hll_registers(sd)
        batch = H._register_rows(_ds(k1 + k2, v1 + v2, blocks=5),
                                 "k", "v", 10)
        batch = batch.sort_values(["k", "bucket"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(
            state[["k", "bucket", "rank"]].astype({"rank": "int64"}),
            batch[["k", "bucket", "rank"]].astype({"rank": "int64"}))

    def test_estimates_within_tolerance(self, ray_session, sd):
        k1, v1 = _mk(20_000, 3, n_keys=3)
        H.hll_distinct_epoch(_ds(k1, v1), sd, "e1", "k", "v",
                             p=12, num_partitions=4)
        est = dict(zip(*(c for _, c in
                         H.read_hll_distinct(sd).items())))
        truth = pd.DataFrame({"k": k1, "v": v1}).groupby("k")["v"].nunique()
        for k, n in truth.items():
            assert abs(est[k] - n) / n < 0.05, (k, est[k], n)

    def test_rerun_is_noop(self, ray_session, sd):
        k1, v1 = _mk(1000, 4)
        H.hll_distinct_epoch(_ds(k1, v1), sd, "e1", "k", "v",
                             p=10, num_partitions=4)
        before = H.read_hll_registers(sd)
        st = H.hll_distinct_epoch(_ds(["zzz"], ["q"]), sd, "e1", "k", "v",
                                  p=10, num_partitions=4)
        assert st["noop"]
        pd.testing.assert_frame_equal(before, H.read_hll_registers(sd))

    def test_geometry_pinned(self, ray_session, sd):
        H.hll_distinct_epoch(_ds(["a"], ["x"]), sd, "e1", "k", "v", p=10,
                             num_partitions=4)
        with pytest.raises(ValueError):
            H.hll_distinct_epoch(_ds(["a"], ["x"]), sd, "e2", "k", "v",
                                 p=12, num_partitions=4)

    def test_reingesting_same_values_is_absorbed(self, ray_session, sd):
        """MAX-merge idempotence: a new epoch carrying ALREADY-SEEN
        values changes nothing — registers and estimates identical."""
        k1, v1 = _mk(3000, 5)
        H.hll_distinct_epoch(_ds(k1, v1), sd, "e1", "k", "v",
                             p=10, num_partitions=4)
        before = H.read_hll_registers(sd)
        H.hll_distinct_epoch(_ds(k1, v1, blocks=2), sd, "e2", "k", "v",
                             p=10, num_partitions=4)
        pd.testing.assert_frame_equal(before, H.read_hll_registers(sd))

    def test_crash_before_commit_recovers(self, ray_session, sd,
                                           tmp_path, monkeypatch):
        control = str(tmp_path / "control")
        k1, v1 = _mk(2000, 6)
        k2, v2 = _mk(2000, 7)
        for d in (sd, control):
            H.hll_distinct_epoch(_ds(k1, v1), d, "e1", "k", "v",
                                 p=10, num_partitions=4)
        before = H.read_hll_registers(sd)

        orig = manifest.write_json

        def boom(out_dir, name, obj):
            raise RuntimeError("injected crash before state commit")

        monkeypatch.setattr(manifest, "write_json", boom)
        with pytest.raises(RuntimeError):
            H.hll_distinct_epoch(_ds(k2, v2), sd, "e2", "k", "v",
                                 p=10, num_partitions=4)
        monkeypatch.setattr(manifest, "write_json", orig)
        # crash window: previous state fully authoritative
        pd.testing.assert_frame_equal(before, H.read_hll_registers(sd))
        # re-run converges to the no-crash control
        H.hll_distinct_epoch(_ds(k2, v2), sd, "e2", "k", "v",
                             p=10, num_partitions=4)
        H.hll_distinct_epoch(_ds(k2, v2), control, "e2", "k", "v",
                             p=10, num_partitions=4)
        pd.testing.assert_frame_equal(H.read_hll_registers(sd),
                                      H.read_hll_registers(control))

    def test_null_values_skipped_empty_epoch_ok(self, ray_session, sd):
        import ray

        ds = ray.data.from_arrow(pa.table({
            "k": pa.array(["a", "a", "b"], pa.string()),
            "v": pa.array(["x", None, None], pa.string())}))
        H.hll_distinct_epoch(ds, sd, "e1", "k", "v", p=10,
                             num_partitions=4)
        regs = H.read_hll_registers(sd)
        assert set(regs["k"]) == {"a"}   # b had only NULLs

    def test_epoch_dirs_pruned_after_commit(self, ray_session, sd):
        """Superseded register files AND their emptied epoch
        directories disappear post-commit (disk hygiene — reads go
        through the state-JSON listing)."""
        import os

        k1, v1 = _mk(200, 1)
        k2, v2 = _mk(200, 2)
        H.hll_distinct_epoch(_ds(k1, v1), sd, "e1", "k", "v",
                             num_partitions=4)
        H.hll_distinct_epoch(_ds(k2, v2), sd, "e2", "k", "v",
                             num_partitions=4)
        assert not os.path.isdir(os.path.join(sd, "hll.epoch=e1"))
        assert os.path.isdir(os.path.join(sd, "hll.epoch=e2"))
