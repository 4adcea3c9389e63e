"""Epoch-incremental per-key histogram state (stages/histstate.py):
multi-epoch state == single-shot batch histogram EXACTLY (sum-merge),
quantile serving read vs a rank-replay mirror, idempotent re-runs,
geometry pinning, crash-safe commit, epoch-dir hygiene."""

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from calendar_event_entity_extraction_ray.stages import histstate as H
from calendar_event_entity_extraction_ray.state import manifest

W = 500  # bucket width in cents


def _ds(keys, vals, blocks=3):
    import ray

    return ray.data.from_arrow(pa.table({
        "event_type": pa.array(keys, pa.string()),
        "value": pa.array(vals, pa.float64())})).repartition(blocks)


def _mk(n, seed, n_keys=4):
    rng = np.random.RandomState(seed)
    keys = [f"k{i}" for i in rng.randint(0, n_keys, n)]
    vals = np.round(rng.gamma(2.0, 25.0, n), 2)
    return keys, vals


def _batch_hist(frames):
    df = pd.concat(frames, ignore_index=True)
    cents = np.floor(df["value"].to_numpy() * 100.0 + 0.5).astype(np.int64)
    df = pd.DataFrame({"event_type": df["event_type"],
                       "bucket": cents // W})
    return (df.groupby(["event_type", "bucket"]).size()
            .rename("n").reset_index())


@pytest.fixture
def sd(tmp_path):
    return str(tmp_path / "hist")


class TestHistState:
    def test_state_equals_batch_histogram_exactly(self, ray_session, sd):
        k1, v1 = _mk(3000, 1)
        k2, v2 = _mk(2000, 2)
        H.hist_epoch(_ds(k1, v1), sd, "e1", width_cents=W,
                     num_partitions=4)
        H.hist_epoch(_ds(k2, v2, blocks=5), sd, "e2", width_cents=W,
                     num_partitions=4)
        got = (H.read_histograms(sd).to_pandas()
               .sort_values(["event_type", "bucket"])
               .reset_index(drop=True))
        want = (_batch_hist([pd.DataFrame({"event_type": k, "value": v})
                             for k, v in ((k1, v1), (k2, v2))])
                .sort_values(["event_type", "bucket"])
                .reset_index(drop=True))
        pd.testing.assert_frame_equal(
            got.astype({"bucket": "int64", "n": "int64"}),
            want.astype({"bucket": "int64", "n": "int64"}))

    def test_quantile_read_matches_rank_replay(self, ray_session, sd):
        k1, v1 = _mk(5000, 3)
        H.hist_epoch(_ds(k1, v1), sd, "e1", width_cents=W,
                     num_partitions=4)
        got = H.read_quantiles(sd, qs=[50, 90, 99])
        hist = _batch_hist([pd.DataFrame({"event_type": k1, "value": v1})])
        for _, r in got.iterrows():
            h = hist[hist["event_type"] == r["event_type"]].sort_values(
                "bucket")
            total = int(h["n"].sum())
            assert int(r["n_total"]) == total
            cum = h["n"].cumsum().to_numpy()
            for q in (50, 90, 99):
                rank = (q * total + 99) // 100
                want = int(h["bucket"].to_numpy()[
                    np.searchsorted(cum, rank)])
                assert int(r[f"q{q}_bucket"]) == want, (r["event_type"], q)

    def test_rerun_is_noop(self, ray_session, sd):
        k1, v1 = _mk(500, 4)
        H.hist_epoch(_ds(k1, v1), sd, "e1", width_cents=W)
        before = (H.read_histograms(sd).to_pandas()
                  .sort_values(["event_type", "bucket"])
                  .reset_index(drop=True))
        st = H.hist_epoch(_ds(k1, v1), sd, "e1", width_cents=W)
        assert st["noop"] is True
        after = (H.read_histograms(sd).to_pandas()
                 .sort_values(["event_type", "bucket"])
                 .reset_index(drop=True))
        pd.testing.assert_frame_equal(before, after)

    def test_geometry_pinned(self, ray_session, sd):
        k1, v1 = _mk(100, 5)
        H.hist_epoch(_ds(k1, v1), sd, "e1", width_cents=W)
        with pytest.raises(ValueError, match="geometry"):
            H.hist_epoch(_ds(k1, v1), sd, "e2", width_cents=W * 2)

    def test_crash_before_commit_recovers(self, ray_session, tmp_path,
                                          monkeypatch):
        def run(sd, crash):
            k1, v1 = _mk(800, 6)
            k2, v2 = _mk(700, 7)
            H.hist_epoch(_ds(k1, v1), sd, "e1", width_cents=W)
            if crash:
                real = manifest.write_json
                monkeypatch.setattr(
                    manifest, "write_json",
                    lambda d, n, o: (_ for _ in ()).throw(
                        RuntimeError("boom")))
                with pytest.raises(RuntimeError):
                    H.hist_epoch(_ds(k2, v2), sd, "e2", width_cents=W)
                monkeypatch.setattr(manifest, "write_json", real)
            H.hist_epoch(_ds(k2, v2), sd, "e2", width_cents=W)
            return (H.read_histograms(sd).to_pandas()
                    .sort_values(["event_type", "bucket"])
                    .reset_index(drop=True))

        ok = run(str(tmp_path / "ctl"), False)
        cr = run(str(tmp_path / "cr"), True)
        pd.testing.assert_frame_equal(ok, cr)

    def test_epoch_dirs_pruned_after_commit(self, ray_session, sd):
        k1, v1 = _mk(300, 8)
        k2, v2 = _mk(300, 9)
        H.hist_epoch(_ds(k1, v1), sd, "e1", width_cents=W)
        H.hist_epoch(_ds(k2, v2), sd, "e2", width_cents=W)
        assert not os.path.isdir(os.path.join(sd, "hist.epoch=e1"))
        assert os.path.isdir(os.path.join(sd, "hist.epoch=e2"))

    def test_null_values_follow_sql(self, ray_session, sd):
        """NULL values match the hist_state_quantiles oracle SQL run
        through DuckDB: a NULL bucket counts in n_total and sorts after
        every bucket, so a quantile whose rank only it reaches is NULL
        (key "b" is all NULL; key "a" reaches only NULL from q90 on)."""
        import duckdb
        import ray

        import __ray_entry__ as E

        rng = np.random.RandomState(10)
        keys, vals = _mk(400, 10)
        vals = [None if rng.rand() < 0.2 else v for v in vals]
        keys += ["a", "a", "a", "b", "b"]
        vals += [1.0, 2.0, None, None, None]
        t = pa.table({"event_type": pa.array(keys, pa.string()),
                      "value": pa.array(vals, pa.float64())})
        half = len(keys) // 2
        for epoch, part in (("e1", t.slice(0, half)),
                            ("e2", t.slice(half))):
            H.hist_epoch(ray.data.from_arrow(part).repartition(3), sd,
                         epoch, width_cents=W, num_partitions=4)
        got = H.read_quantiles(sd, qs=[50, 90, 99])

        con = duckdb.connect()
        con.register("events", t)
        want = (con.execute(E.oracle_sql()["hist_state_quantiles"]).df()
                .sort_values("event_type").reset_index(drop=True))
        cols = ["n_total", "q50_bucket", "q90_bucket", "q99_bucket"]
        assert want.loc[want["event_type"] == "b", cols[1:]].isna().all(
            axis=None)
        a = want[want["event_type"] == "a"].iloc[0]
        assert a["q50_bucket"] == 0 and pd.isna(a["q90_bucket"])
        pd.testing.assert_frame_equal(
            got[["event_type"] + cols].astype({c: "Int64" for c in cols}),
            want[["event_type"] + cols].astype({c: "Int64" for c in cols}),
            check_dtype=False)
