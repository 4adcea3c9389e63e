"""stages/keyedstate.py — the epoch protocol shared by the three feature
stores (featstate, hllstate, histstate): pinned parameters are checked
on every later epoch, and state dirs in an older format fail loudly."""

import json
import os

import pandas as pd
import pyarrow as pa
import pytest

from calendar_event_entity_extraction_ray.stages import featstate as fs
from calendar_event_entity_extraction_ray.stages import histstate as Hs
from calendar_event_entity_extraction_ray.stages import hllstate as hs


def _feat(sd, epoch, **kw):
    import ray

    df = pd.DataFrame({"user_id": [1, 2, 1, 3],
                       "ts": pd.to_datetime([0, 3600, 7200, 9000],
                                            unit="s")})
    args = {"half_life_hours": 1, "cap": 30, "num_partitions": 4, **kw}
    return fs.decayed_counter_epoch(ray.data.from_pandas(df), sd, epoch,
                                    **args)


def _hll(sd, epoch, **kw):
    import ray

    ds = ray.data.from_arrow(pa.table({"k": ["a", "b", "a", "c"],
                                       "v": ["x", "y", "z", "x"]}))
    args = {"p": 10, "num_partitions": 4, **kw}
    return hs.hll_distinct_epoch(ds, sd, epoch, "k", "v", **args)


def _hist(sd, epoch, **kw):
    import ray

    ds = ray.data.from_arrow(pa.table({
        "event_type": ["a", "b", "a", "c"],
        "value": pa.array([1.5, 20.0, 7.25, 3.0], pa.float64())}))
    args = {"width_cents": 500, "num_partitions": 4, **kw}
    return Hs.hist_epoch(ds, sd, epoch, **args)


STORES = {"featstate": (_feat, fs.STORE), "hllstate": (_hll, hs.STORE),
          "histstate": (_hist, Hs.STORE)}


def _snapshot(sd, store):
    """(state JSON bytes, {listed file: bytes}, every file in the dir)."""
    with open(os.path.join(sd, store.state_file), "rb") as f:
        raw = f.read()
    listed = {}
    for rel in json.loads(raw)["files"]:
        with open(os.path.join(sd, rel), "rb") as f:
            listed[rel] = f.read()
    every = sorted(os.path.relpath(os.path.join(d, n), sd)
                   for d, _, names in os.walk(sd) for n in names)
    return raw, listed, every


@pytest.mark.parametrize("kind,param,bad", [
    ("featstate", "half_life_us", {"half_life_hours": 2}),
    ("featstate", "cap", {"cap": 10}),
    ("featstate", "key_col", {"key_col": "session_id"}),
    ("hllstate", "p", {"p": 12}),
    ("histstate", "width_cents", {"width_cents": 1000}),
    ("histstate", "key_col", {"key_col": "other"}),
])
def test_mismatched_pinned_param_rejected(ray_session, tmp_path, kind,
                                          param, bad):
    run, store = STORES[kind]
    sd = str(tmp_path / kind)
    run(sd, "e1")
    before = _snapshot(sd, store)
    with pytest.raises(ValueError, match=param):
        run(sd, "e2", **bad)
    assert _snapshot(sd, store) == before


def test_num_partitions_recorded_once(ray_session, tmp_path):
    """num_partitions only names shards: the first epoch records it and
    a later epoch's value is ignored, not rejected."""
    sd = str(tmp_path / "hist")
    _hist(sd, "e1", num_partitions=4)
    assert not _hist(sd, "e2", num_partitions=8)["noop"]
    with open(os.path.join(sd, Hs.STORE.state_file)) as f:
        assert json.load(f)["num_partitions"] == 4


# state JSONs exactly as the stores wrote them before the shared core
OLD_STATES = {
    "featstate": {"epochs": ["e1"], "ref_us": 9_000_000_000,
                  "half_life_us": 3_600_000_000, "cap": 30,
                  "num_partitions": 4, "files": []},
    "hllstate": {"epochs": ["e1"], "files": [], "num_partitions": 4,
                 "p": 10},
    "histstate": {"epochs": ["e1"], "width_cents": 500,
                  "key_col": "event_type", "num_partitions": 4,
                  "files": []},
}
READS = {"featstate": fs.read_decayed_counters,
         "hllstate": hs.read_hll_distinct,
         "histstate": Hs.read_quantiles}


@pytest.mark.parametrize("kind", sorted(OLD_STATES))
def test_older_state_dir_fails_loudly(ray_session, tmp_path, kind):
    run, store = STORES[kind]
    sd = str(tmp_path / kind)
    os.makedirs(sd)
    with open(os.path.join(sd, store.state_file), "w") as f:
        json.dump(OLD_STATES[kind], f)
    with pytest.raises(ValueError, match="older format") as ei:
        run(sd, "e2")
    assert sd in str(ei.value)
    with pytest.raises(ValueError, match="older format"):
        READS[kind](sd)
