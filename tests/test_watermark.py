"""stages/watermark.py — event-time watermark + late-data policy."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

WIN = 60  # minutes
LATE = 60


def _events(ts_minutes, types=None):
    import ray

    ts = pd.to_datetime(
        [pd.Timestamp("2025-01-01") + pd.Timedelta(minutes=m)
         for m in ts_minutes])
    return ray.data.from_arrow(pa.table({
        "event_type": types or ["a"] * len(ts_minutes),
        "ts": pa.array(ts, pa.timestamp("us")),
    }))


def _us(minutes):
    base = int(pd.Timestamp("2025-01-01").value // 1000)
    return base + minutes * 60_000_000


class TestWatermark:
    def test_finalize_and_late_side_output(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_late_rows,
            read_window_state,
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "wm")
        # epoch 0: events at minute 10, 20, 70, 200 -> max=200,
        # watermark = 200-60 = 140 -> window [0,60) finalizes (2 rows),
        # [60,120) finalizes (1), [180,240) stays open
        s0 = tumbling_window_epoch(
            _events([10, 20, 70, 200]), sd, "e0",
            window_minutes=WIN, allowed_lateness_minutes=LATE)
        assert s0["watermark_us"] == _us(140)
        assert s0["n_finalized"] == 2 and s0["n_late"] == 0

        # epoch 1: minute 30 targets the FINAL [0,60) window -> late;
        # minute 150 lands in open [120,180); minute 260 advances the
        # watermark to 200 -> [120,180) finalizes too
        s1 = tumbling_window_epoch(
            _events([30, 150, 260]), sd, "e1",
            window_minutes=WIN, allowed_lateness_minutes=LATE)
        assert s1["n_late"] == 1
        assert s1["watermark_us"] == _us(200)
        assert s1["n_finalized"] == 1  # [120,180)

        state = read_window_state(sd).to_pandas()
        got = {(r["window_start_us"], r["status"]): int(r["n"])
               for _, r in state.iterrows()}
        assert got == {
            (_us(0), "final"): 2,     # late row NOT added
            (_us(60), "final"): 1,
            (_us(120), "final"): 1,
            (_us(180), "open"): 1,
            (_us(240), "open"): 1,
        }
        late = read_late_rows(sd).to_pandas()
        assert late[["window_start_us", "n", "epoch"]].values.tolist() \
            == [[_us(0), 1, "e1"]]

    def test_epoch_idempotent(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_window_state,
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "wm2")
        tumbling_window_epoch(_events([10, 70]), sd, "e0",
                              window_minutes=WIN,
                              allowed_lateness_minutes=LATE)
        before = read_window_state(sd).to_pandas().values.tolist()
        again = tumbling_window_epoch(_events([10, 70]), sd, "e0",
                                      window_minutes=WIN,
                                      allowed_lateness_minutes=LATE)
        assert again["noop"] is True
        assert read_window_state(sd).to_pandas().values.tolist() == before

    def test_crash_mid_epoch_rerun_is_exact(self, ray_session, tmp_path,
                                            monkeypatch):
        """A crash AFTER the epoch's data files land but BEFORE the
        state-JSON commit must re-run cleanly: the open table is
        versioned per epoch, so the merge source is untouched and the
        re-run double-counts nothing."""
        from calendar_event_entity_extraction_ray.stages import watermark
        from calendar_event_entity_extraction_ray.state import manifest

        def run(sd, crash_on_e1):
            watermark.tumbling_window_epoch(
                _events([10, 20, 70, 200]), sd, "e0",
                window_minutes=WIN, allowed_lateness_minutes=LATE)
            if crash_on_e1:
                real = manifest.write_json

                def boom(out_dir, name, obj):
                    raise RuntimeError("injected crash before commit")

                monkeypatch.setattr(manifest, "write_json", boom)
                with pytest.raises(RuntimeError):
                    watermark.tumbling_window_epoch(
                        _events([30, 150, 260]), sd, "e1",
                        window_minutes=WIN,
                        allowed_lateness_minutes=LATE)
                monkeypatch.setattr(manifest, "write_json", real)
            s1 = watermark.tumbling_window_epoch(
                _events([30, 150, 260]), sd, "e1",
                window_minutes=WIN, allowed_lateness_minutes=LATE)
            return s1, watermark.read_window_state(sd).to_pandas()

        s_ok, state_ok = run(str(tmp_path / "ctl"), crash_on_e1=False)
        s_cr, state_cr = run(str(tmp_path / "crash"), crash_on_e1=True)
        assert s_cr == s_ok
        assert state_cr.values.tolist() == state_ok.values.tolist()
        late = watermark.read_late_rows(str(tmp_path / "crash"))
        assert late.num_rows == 1  # the epoch=e1 file overwritten, not doubled

    def test_read_final_windows_tags_sealing_epoch(self, ray_session,
                                                   tmp_path):
        """The serving read over sealed outputs: every finalized window
        across all epochs with the epoch that sealed it."""
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_final_windows,
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "wmf")
        tumbling_window_epoch(_events([10, 20, 70, 200]), sd, "e0",
                              window_minutes=WIN,
                              allowed_lateness_minutes=LATE)
        tumbling_window_epoch(_events([30, 150, 260]), sd, "e1",
                              window_minutes=WIN,
                              allowed_lateness_minutes=LATE)
        fin = read_final_windows(sd).to_pandas().sort_values(
            ["epoch", "window_start_us"], kind="stable")
        assert [(int(r["window_start_us"]), int(r["n"]), r["epoch"])
                for _, r in fin.iterrows()] == [
            (_us(0), 2, "e0"), (_us(60), 1, "e0"),
            (_us(120), 1, "e1")]

    def test_drop_policy_counts_but_writes_nothing(self, ray_session,
                                                   tmp_path):
        import os

        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_late_rows,
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "wm3")
        tumbling_window_epoch(_events([10, 200]), sd, "e0",
                              window_minutes=WIN,
                              allowed_lateness_minutes=LATE,
                              late_policy="drop")
        s1 = tumbling_window_epoch(_events([5]), sd, "e1",
                                   window_minutes=WIN,
                                   allowed_lateness_minutes=LATE,
                                   late_policy="drop")
        assert s1["n_late"] == 1
        assert not os.path.isdir(os.path.join(sd, "late"))
        assert read_late_rows(sd).num_rows == 0

    def test_watermark_never_regresses(self, ray_session, tmp_path):
        """An epoch whose max ts is OLDER than the current watermark
        must not move it backwards (late epochs happen)."""
        from calendar_event_entity_extraction_ray.stages.watermark import (
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "wm4")
        s0 = tumbling_window_epoch(_events([500]), sd, "e0",
                                   window_minutes=WIN,
                                   allowed_lateness_minutes=LATE)
        s1 = tumbling_window_epoch(_events([450]), sd, "e1",
                                   window_minutes=WIN,
                                   allowed_lateness_minutes=LATE)
        assert s1["watermark_us"] == s0["watermark_us"]

    def test_multi_key_windows(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_window_state,
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "wm5")
        tumbling_window_epoch(
            _events([10, 10, 200], types=["a", "b", "a"]), sd, "e0",
            window_minutes=WIN, allowed_lateness_minutes=LATE)
        state = read_window_state(sd).to_pandas()
        final = state[state["status"] == "final"]
        assert {(r["event_type"], int(r["n"]))
                for _, r in final.iterrows()} == {("a", 1), ("b", 1)}


class TestSessionWatermark:
    """session_window_epoch — gap sessions under the watermark protocol."""

    def _run(self, sd, ts, epoch, **kw):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            session_window_epoch,
        )

        kw.setdefault("gap_minutes", 30)
        kw.setdefault("allowed_lateness_minutes", 60)
        return session_window_epoch(_events(ts[0], types=ts[1]), sd,
                                    epoch, **kw)

    def test_seal_extend_and_late(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_late_rows,
            read_session_state,
        )

        sd = str(tmp_path / "sw")
        # e0: sessions [0,10] n2, [100] n1, [300] n1; wm=240;
        # [0,10] and [100] seal, [300] stays open
        s0 = self._run(sd, ([0, 10, 100, 300], None), "e0")
        assert s0["watermark_us"] == _us(240)
        assert s0["n_finalized"] == 2 and s0["n_late"] == 0

        # e1: 200 and 50 are late (<= wm); 320 extends the open [300]
        # session; wm advances to 260; [300,320] stays open
        s1 = self._run(sd, ([320, 200, 50], None), "e1")
        assert s1["n_late"] == 2
        assert s1["watermark_us"] == _us(260)
        assert s1["n_finalized"] == 0

        st = read_session_state(sd).to_pandas()
        got = [(int(r["start_us"]), int(r["end_us"]), int(r["n"]),
                r["status"]) for _, r in st.iterrows()]
        assert got == [
            (_us(0), _us(10), 2, "final"),
            (_us(100), _us(100), 1, "final"),
            (_us(300), _us(320), 2, "open"),
        ]
        late = read_late_rows(sd).to_pandas()
        assert sorted((int(r["ts_us"]), int(r["n"]), r["epoch"])
                      for _, r in late.iterrows()) == [
            (_us(50), 1, "e1"), (_us(200), 1, "e1")]

    def test_bridge_event_fuses_two_open_sessions(self, ray_session,
                                                  tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_session_state,
        )

        sd = str(tmp_path / "sw2")
        # e0: [100] and [160] both open (wm=100, neither end+30 <= wm)
        s0 = self._run(sd, ([100, 160], None), "e0")
        assert s0["n_finalized"] == 0
        # e1: 130 bridges them (30 <= gap on both sides) -> ONE session
        self._run(sd, ([130], None), "e1")
        st = read_session_state(sd).to_pandas()
        assert [(int(r["start_us"]), int(r["end_us"]), int(r["n"]),
                 r["status"]) for _, r in st.iterrows()] == [
            (_us(100), _us(160), 3, "open")]

    def test_multi_key_and_idempotent(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_session_state,
        )

        sd = str(tmp_path / "sw3")
        s0 = self._run(sd, ([10, 20, 10, 300],
                            ["a", "a", "b", "a"]), "e0")
        assert s0["n_finalized"] == 2  # a:[10,20] and b:[10]
        before = read_session_state(sd).to_pandas().values.tolist()
        again = self._run(sd, ([10, 20, 10, 300],
                               ["a", "a", "b", "a"]), "e0")
        assert again["noop"] is True
        assert read_session_state(sd).to_pandas().values.tolist() \
            == before

    def test_crash_mid_epoch_rerun_is_exact(self, ray_session, tmp_path,
                                            monkeypatch):
        from calendar_event_entity_extraction_ray.stages import watermark
        from calendar_event_entity_extraction_ray.state import manifest

        def run(sd, crash):
            self._run(sd, ([0, 10, 100, 300], None), "e0")
            if crash:
                real = manifest.write_json
                monkeypatch.setattr(
                    manifest, "write_json",
                    lambda d, n, o: (_ for _ in ()).throw(
                        RuntimeError("boom")))
                with pytest.raises(RuntimeError):
                    self._run(sd, ([320, 200, 50], None), "e1")
                monkeypatch.setattr(manifest, "write_json", real)
            s1 = self._run(sd, ([320, 200, 50], None), "e1")
            return s1, watermark.read_session_state(sd).to_pandas()

        s_ok, st_ok = run(str(tmp_path / "ctl"), False)
        s_cr, st_cr = run(str(tmp_path / "cr"), True)
        assert s_cr == s_ok
        assert st_cr.values.tolist() == st_ok.values.tolist()

    def test_kind_marker_rejects_mixing(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "sw4")
        self._run(sd, ([10, 300], None), "e0")
        with pytest.raises(ValueError, match="session"):
            tumbling_window_epoch(_events([10]), sd, "e1",
                                  window_minutes=60,
                                  allowed_lateness_minutes=60)

    def test_round4_state_dir_fails_loudly(self, ray_session, tmp_path):
        """A state JSON in the pre-sharded (round-4) layout — one
        ``open_file`` — is rejected with a clear error, not a KeyError."""
        import json
        import os

        from calendar_event_entity_extraction_ray.stages import watermark

        sd = str(tmp_path / "r4")
        os.makedirs(sd)
        with open(os.path.join(sd, watermark.WMSTATE), "w") as f:
            json.dump({"epochs": ["e0"], "watermark_us": _us(0),
                       "open_file": "open-e0.parquet",
                       "final_files": [], "late_files": []}, f)
        with pytest.raises(ValueError, match="older format") as ei:
            watermark.tumbling_window_epoch(
                _events([10]), sd, "e1", window_minutes=WIN,
                allowed_lateness_minutes=LATE)
        assert sd in str(ei.value)
        with pytest.raises(ValueError, match="older format"):
            watermark.read_window_state(sd)


class TestSlidingWatermark:
    """tumbling_window_epoch(slide_minutes=...) — overlapping windows
    under the same watermark/seal protocol; lateness is per target
    window, so one event's assignments can split late/on-time."""

    def test_multi_assign_seal_and_partial_late(self, ray_session,
                                                tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_late_rows,
            read_window_state,
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "sl")
        # e0: ev@10 -> windows -30 and 0; ev@200 -> 150 and 180;
        # wm = 140 -> -30 and 0 seal
        s0 = tumbling_window_epoch(
            _events([10, 200]), sd, "e0", window_minutes=60,
            slide_minutes=30, allowed_lateness_minutes=60)
        assert s0["watermark_us"] == _us(140)
        assert s0["n_finalized"] == 2 and s0["n_late"] == 0

        # e1: ev@115 -> windows 90 (on-time: 90+60 > 140) and 60
        # (LATE: 120 <= 140); ev@260 -> 210 and 240; wm -> 200 seals 90
        s1 = tumbling_window_epoch(
            _events([115, 260]), sd, "e1", window_minutes=60,
            slide_minutes=30, allowed_lateness_minutes=60)
        assert s1["n_late"] == 1
        assert s1["watermark_us"] == _us(200)
        assert s1["n_finalized"] == 1  # window 90

        st = read_window_state(sd).to_pandas()
        got = [(int(r["window_start_us"]), int(r["n"]), r["status"])
               for _, r in st.iterrows()]
        assert got == [
            (_us(-30), 1, "final"), (_us(0), 1, "final"),
            (_us(90), 1, "final"), (_us(150), 1, "open"),
            (_us(180), 1, "open"), (_us(210), 1, "open"),
            (_us(240), 1, "open")]
        late = read_late_rows(sd).to_pandas()
        assert late[["window_start_us", "n", "epoch"]].values.tolist() \
            == [[_us(60), 1, "e1"]]

    def test_geometry_pinned(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            tumbling_window_epoch,
        )

        sd = str(tmp_path / "sl2")
        tumbling_window_epoch(_events([10]), sd, "e0",
                              window_minutes=60, slide_minutes=30,
                              allowed_lateness_minutes=60)
        with pytest.raises(ValueError, match="was built with"):
            tumbling_window_epoch(_events([70]), sd, "e1",
                                  window_minutes=120, slide_minutes=30,
                                  allowed_lateness_minutes=60)
        with pytest.raises(ValueError, match="holds"):
            tumbling_window_epoch(_events([70]), sd, "e1",
                                  window_minutes=60,
                                  allowed_lateness_minutes=60)

    def test_slide_must_divide(self, ray_session, tmp_path):
        from calendar_event_entity_extraction_ray.stages.watermark import (
            tumbling_window_epoch,
        )

        with pytest.raises(ValueError, match="must divide"):
            tumbling_window_epoch(_events([10]),
                                  str(tmp_path / "sl3"), "e0",
                                  window_minutes=60, slide_minutes=45)


class TestSealTaskWorkerLoss:
    def test_seal_split_worker_kill_is_exact(self, ray_session, tmp_path):
        """REAL worker loss inside the seal-split task — AFTER its
        final/open shards land, BEFORE the names return. Ray retries;
        only the retry's shards are listed, the dead attempt's orphans
        are pruned post-commit; state identical to an uninjected run."""
        import os

        from calendar_event_entity_extraction_ray.stages.watermark import (
            read_window_state,
            tumbling_window_epoch,
        )

        def run(sd, sentinel=None):
            tumbling_window_epoch(
                _events([10, 20, 70, 200]), sd, "e0",
                window_minutes=WIN, allowed_lateness_minutes=LATE,
                _crash_sentinel=sentinel)
            s1 = tumbling_window_epoch(
                _events([30, 150, 260]), sd, "e1",
                window_minutes=WIN, allowed_lateness_minutes=LATE)
            return s1, read_window_state(sd).to_pandas()

        s_ok, st_ok = run(str(tmp_path / "ctl"))
        sentinel = str(tmp_path / "boom_seal")
        s_cr, st_cr = run(str(tmp_path / "cr"), sentinel)
        assert os.path.exists(sentinel), "injection never fired"
        assert s_cr == s_ok
        assert st_cr.values.tolist() == st_ok.values.tolist()
