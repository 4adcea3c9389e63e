"""stages/featstate.py — epoch-incremental decayed counters: the
multi-epoch state must equal the single-shot batch operator over the
full history, epochs must be idempotent, and the commit must be
crash-safe."""

import numpy as np
import pandas as pd
import pytest


def _events(seed, n, t_lo, t_hi, users=8):
    rng = np.random.RandomState(seed)
    return pd.DataFrame({
        "user_id": rng.randint(0, users, n).astype(np.int64),
        "ts": pd.to_datetime(rng.randint(t_lo, t_hi, n), unit="s"),
    })


def _read_df(state_dir):
    from calendar_event_entity_extraction_ray.stages.featstate import (
        read_decayed_counters,
    )

    return (read_decayed_counters(state_dir).to_pandas()
            .sort_values("user_id").reset_index(drop=True)
            .astype({"user_id": "int64", "n_events": "int64",
                     "decayed_num": "int64"}))


class TestDecayedCounterState:
    HL = 1  # 1-hour half-life so the cap horizon engages in-test

    def _batch_expected(self, df):
        from calendar_event_entity_extraction_ray.stages.windows import (
            decayed_counts,
        )

        import ray

        ref_us = int(df["ts"].max().value // 1_000)
        out = (decayed_counts(ray.data.from_pandas(df), "user_id", "ts",
                              ref_us, half_life_hours=self.HL)
               .to_pandas()[["user_id", "n_events", "decayed_num"]]
               .sort_values("user_id").reset_index(drop=True)
               .astype({"user_id": "int64", "n_events": "int64",
                        "decayed_num": "int64"}))
        return out

    def test_multi_epoch_equals_single_shot(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.featstate import (
            decayed_counter_epoch,
        )

        # 3 epochs spanning 200 h (cap=30 one-hour half-lives -> the
        # horizon clamp engages between epochs)
        e1 = _events(1, 800, 0, 3600 * 60)
        e2 = _events(2, 600, 3600 * 50, 3600 * 130)
        e3 = _events(3, 700, 3600 * 120, 3600 * 200)
        sd = str(tmp_path / "dc")
        for name, df in (("d1", e1), ("d2", e2), ("d3", e3)):
            s = decayed_counter_epoch(
                ray.data.from_pandas(df).repartition(4), sd, name,
                half_life_hours=self.HL, num_partitions=4)
            assert not s["noop"]
        got = _read_df(sd)
        want = self._batch_expected(pd.concat([e1, e2, e3]))
        pd.testing.assert_frame_equal(got, want, check_dtype=False)

    def test_epoch_idempotent(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.featstate import (
            decayed_counter_epoch,
        )

        sd = str(tmp_path / "dc")
        e1 = _events(5, 300, 0, 3600 * 10)
        decayed_counter_epoch(ray.data.from_pandas(e1), sd, "d1",
                              half_life_hours=self.HL)
        before = _read_df(sd)
        s = decayed_counter_epoch(ray.data.from_pandas(e1), sd, "d1",
                                  half_life_hours=self.HL)
        assert s["noop"]
        pd.testing.assert_frame_equal(_read_df(sd), before)

    def test_geometry_pinned(self, ray_session, tmp_path):
        import ray

        from calendar_event_entity_extraction_ray.stages.featstate import (
            decayed_counter_epoch,
        )

        sd = str(tmp_path / "dc")
        e1 = _events(6, 100, 0, 3600 * 5)
        decayed_counter_epoch(ray.data.from_pandas(e1), sd, "d1",
                              half_life_hours=self.HL)
        with pytest.raises(ValueError, match="geometry"):
            decayed_counter_epoch(ray.data.from_pandas(e1), sd, "d2",
                                  half_life_hours=self.HL + 1)

    def test_state_rows_bounded_by_cap(self, ray_session, tmp_path):
        import json
        import os

        import pyarrow.parquet as pq_
        import ray

        from calendar_event_entity_extraction_ray.stages import featstate as fs

        # events spread over 400 h >> cap=30 buckets: per-key live
        # buckets must clamp to <= cap+1
        sd = str(tmp_path / "dc")
        df = _events(7, 4000, 0, 3600 * 400, users=5)
        fs.decayed_counter_epoch(ray.data.from_pandas(df), sd, "d1",
                                 half_life_hours=self.HL)
        state = json.load(open(os.path.join(sd, fs.DCSTATE)))
        rows = sum(pq_.read_table(os.path.join(sd, f)).num_rows
                   for f in state["files"])
        assert rows <= 5 * 32  # 5 keys x (cap+1) + slack
        # and the read still matches the batch operator exactly
        pd.testing.assert_frame_equal(_read_df(sd),
                                      self._batch_expected(df),
                                      check_dtype=False)

    def test_crash_before_commit_rerun_converges(self, ray_session,
                                                 tmp_path, monkeypatch):
        import ray

        from calendar_event_entity_extraction_ray.stages import featstate as fs
        from calendar_event_entity_extraction_ray.stages import keyedstate as ks
        from calendar_event_entity_extraction_ray.state import manifest

        e1 = _events(8, 500, 0, 3600 * 40)
        e2 = _events(9, 500, 3600 * 30, 3600 * 90)
        crash, ctrl = str(tmp_path / "crash"), str(tmp_path / "ctrl")
        for sd in (crash, ctrl):
            fs.decayed_counter_epoch(ray.data.from_pandas(e1), sd, "d1",
                                     half_life_hours=self.HL)
        real = manifest.write_json

        def boom(out_dir, name, obj):
            if out_dir == crash:
                raise RuntimeError("injected crash before commit")
            return real(out_dir, name, obj)

        monkeypatch.setattr(manifest, "write_json", boom)
        with pytest.raises(RuntimeError, match="injected"):
            fs.decayed_counter_epoch(ray.data.from_pandas(e2), crash,
                                     "d2", half_life_hours=self.HL)
        monkeypatch.setattr(manifest, "write_json", real)
        # crash window: the d1 view is intact (epoch not recorded)
        assert ks.load_state(fs.STORE, crash)["epochs"] == ["d1"]
        d1_view = _read_df(crash)
        pd.testing.assert_frame_equal(d1_view, _read_df(ctrl))
        # recovery: re-run d2 on both, results identical
        fs.decayed_counter_epoch(ray.data.from_pandas(e2), crash, "d2",
                                 half_life_hours=self.HL)
        fs.decayed_counter_epoch(ray.data.from_pandas(e2), ctrl, "d2",
                                 half_life_hours=self.HL)
        pd.testing.assert_frame_equal(_read_df(crash), _read_df(ctrl))

    def test_read_before_any_state_raises(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.featstate import (
            read_decayed_counters,
        )

        with pytest.raises(ValueError, match="no committed state"):
            read_decayed_counters(str(tmp_path / "nope"))
