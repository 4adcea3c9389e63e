"""state/manifest.py — the one state-JSON commit every store shares.

- ``os.replace`` and ``json.dump`` appear only in state/manifest.py, so
  no store can hand-roll its own commit;
- a state JSON without ``format_version`` (a dir written before the
  format existed) is rejected by each store's ingest AND read path,
  naming the dir, with nothing written;
- a mismatched pinned param is rejected before any write, also when the
  epoch is already recorded;
- files a crashed attempt left in an epoch dir (or a compaction's new
  base dir) are deleted after the re-run's commit."""

import ast
import json
import os
import pathlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import calendar_event_entity_extraction_ray as pkg
from calendar_event_entity_extraction_ray.stages import embstore as EB
from calendar_event_entity_extraction_ray.stages import entityreg as ER
from calendar_event_entity_extraction_ray.stages import fpstore as F
from calendar_event_entity_extraction_ray.stages import vecstore as VS
from calendar_event_entity_extraction_ray.stages import watermark as WM
from calendar_event_entity_extraction_ray.state import manifest

PKG = pathlib.Path(pkg.__file__).parent
GUARDED = {"os.replace", "json.dump"}


def _guarded_calls(path: pathlib.Path) -> list:
    """(call, line) for every os.replace / json.dump call in a module,
    through ``import os as x`` and ``from json import dump`` too."""
    tree = ast.parse(path.read_text())
    mods, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                mods[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                names[a.asname or a.name] = f"{node.module}.{a.name}"
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            full = f"{mods.get(f.value.id, f.value.id)}.{f.attr}"
        elif isinstance(f, ast.Name):
            full = names.get(f.id)
        else:
            continue
        if full in GUARDED:
            out.append((full, node.lineno))
    return out


def test_one_module_commits_files():
    commit = PKG / "state" / "manifest.py"
    stray = {str(p.relative_to(PKG)): calls
             for p in sorted(PKG.rglob("*.py")) if p != commit
             for calls in [_guarded_calls(p)] if calls}
    assert stray == {}, f"hand-rolled file commits outside " \
                        f"state/manifest.py: {stray}"
    assert sorted(c for c, _ in _guarded_calls(commit)) == sorted(GUARDED)


def test_failed_write_leaves_no_temp_file(tmp_path, monkeypatch):
    manifest.write_json(str(tmp_path), "s.json", {"a": 1})
    real = os.replace

    def boom(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", boom)
    for _ in range(2):
        with pytest.raises(OSError, match="injected"):
            manifest.write_json(str(tmp_path), "s.json", {"a": 2})
    monkeypatch.setattr(os, "replace", real)
    assert os.listdir(tmp_path) == ["s.json"]
    assert manifest.read_json(str(tmp_path), "s.json") == {"a": 1}


# -- data -----------------------------------------------------------------

def _events(minutes):
    import ray

    ts = [pd.Timestamp("2025-01-01") + pd.Timedelta(minutes=m)
          for m in minutes]
    return ray.data.from_arrow(pa.table({
        "event_type": ["a"] * len(ts),
        "ts": pa.array(pd.to_datetime(ts), pa.timestamp("us"))}))


def _docs(texts, first_id=0):
    import ray

    return ray.data.from_pandas(pd.DataFrame({
        "doc_id": range(first_id, first_id + len(texts)),
        "text": texts})).repartition(2)


def _vecs(seed, n=24, d=4):
    import ray

    v = np.random.RandomState(seed).randn(n, d)
    return ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(seed * 1000, seed * 1000 + n)),
        "embedding": pa.array([list(map(float, r)) for r in v],
                              pa.list_(pa.float64()))})).repartition(2)


def _surfaces(surfs):
    import ray

    return ray.data.from_arrow(pa.table({
        "surface": pa.array(surfs, pa.string())})).repartition(2)


def _texts(seed, n=40):
    rng = np.random.RandomState(seed)
    return [" ".join(f"w{x}" for x in rng.randint(0, 500, 8))
            for _ in range(n)]


def _snapshot(sd, name):
    """(state JSON bytes, every file under the dir)."""
    with open(os.path.join(sd, name), "rb") as f:
        raw = f.read()
    return raw, sorted(os.path.relpath(os.path.join(d, n), sd)
                       for d, _, names in os.walk(sd) for n in names)


# -- format_version --------------------------------------------------------

# state JSONs exactly as each store wrote them before format_version
OLD = {
    "watermark": (WM.WMSTATE, {
        "epochs": ["e0"], "watermark_us": None, "num_partitions": 16,
        "kind": "tumbling",
        "params": {"window_minutes": 60, "slide_minutes": 60,
                   "allowed_lateness_minutes": 60,
                   "key_col": "event_type", "ts_col": "ts"},
        "open_files": [], "final_files": [], "late_files": []}),
    "fpstore": (F._MANIFEST, {
        "num_partitions": 8, "epochs": {"e0": {"parts": {}, "rows": 0}}}),
    "embstore": (EB._MANIFEST, {
        "params": {"k": 2, "tau": 0.9, "iters": 5, "id_col": "vec_id",
                   "vec_col": "embedding"},
        "centroids": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        "epochs": {"e0": {"cells": {}, "rows": 0}}}),
    "entityreg": (ER._MANIFEST, {
        "epochs": {"e0": {"parts": {}, "rows": 0}}, "num_partitions": 8,
        "max_d": 1}),
    "vecstore": (VS.MANIFEST, {
        "kind": "ivf_vector_store", "n_cells": 2, "id_col": "vec_id",
        "vec_col": "embedding", "seed": 13,
        "centroids": [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        "cells": {}}),
}
INGEST = {
    "watermark": lambda sd: WM.tumbling_window_epoch(_events([10]), sd, "e1"),
    "fpstore": lambda sd: F.dedup_incremental(_docs(["a b"]), sd, "e1"),
    "embstore": lambda sd: EB.dedup_epoch(_vecs(1), sd, "e1", k=2, tau=0.9),
    "entityreg": lambda sd: ER.register_epoch(_surfaces(["alpha"]), sd,
                                              "e1", num_partitions=8),
    "vecstore": lambda sd: VS.append_ivf_store(_vecs(1), sd, "e1"),
}
READ = {
    "watermark": WM.read_window_state,
    "fpstore": lambda sd: F.filter_against_store(
        F.with_fingerprints(_docs(["a b"]), "text"), sd),
    "embstore": EB.store_rows,
    "entityreg": lambda sd: ER.lookup_surfaces(_surfaces(["alpha"]), sd),
    "vecstore": lambda sd: VS.query_ivf_store(sd, np.eye(4)[:1], k=1),
}


@pytest.mark.parametrize("store", sorted(OLD))
def test_older_state_dir_rejected_unchanged(ray_session, tmp_path, store):
    name, old = OLD[store]
    sd = str(tmp_path / store)
    os.makedirs(sd)
    with open(os.path.join(sd, name), "w") as f:
        json.dump(old, f)
    before = _snapshot(sd, name)
    for path in (INGEST[store], READ[store]):
        with pytest.raises(ValueError, match="older format") as ei:
            path(sd)
        assert sd in str(ei.value)
    assert _snapshot(sd, name) == before


# -- pinned params ---------------------------------------------------------

PINNED = {
    "watermark": (WM.WMSTATE, "allowed_lateness_minutes",
                  lambda sd, e, bad: WM.tumbling_window_epoch(
                      _events([10, 200]), sd, e,
                      allowed_lateness_minutes=30 if bad else 60)),
    "embstore": (EB._MANIFEST, "tau",
                 lambda sd, e, bad: EB.dedup_epoch(
                     _vecs(1), sd, e, k=2, tau=0.5 if bad else 0.9)),
    "entityreg": (ER._MANIFEST, "max_d",
                  lambda sd, e, bad: ER.register_epoch(
                      _surfaces(["alpha", "alphb", "beta"]), sd, e,
                      max_d=2 if bad else 1, num_partitions=8)),
}


@pytest.mark.parametrize("store", sorted(PINNED))
@pytest.mark.parametrize("epoch", ["e2", "e1"], ids=["new", "recorded"])
def test_mismatched_pinned_param_rejected(ray_session, tmp_path, store,
                                          epoch):
    """Also for a recorded epoch: the pin check runs before the no-op,
    so a re-run with another geometry is never silently accepted."""
    name, param, run = PINNED[store]
    sd = str(tmp_path / store)
    run(sd, "e1", False)
    before = _snapshot(sd, name)
    with pytest.raises(ValueError, match=param) as ei:
        run(sd, epoch, True)
    assert sd in str(ei.value)
    assert _snapshot(sd, name) == before


# -- crashed-attempt orphans -------------------------------------------------

def _fp_listed(m, e):
    return {os.path.join(f"epoch={e}", f"part={k}", f)
            for k, p in m["epochs"][e]["parts"].items()
            for f in p["files"] + list(p["blooms"].values())}


def _er_listed(m, e):
    return {os.path.join(f"epoch={e}", f"part={k}", f)
            for k, p in m["epochs"][e]["parts"].items() for f in p["files"]}


def _eb_listed(m, e):
    return {os.path.join(f"epoch={e}", f"cell={c}", f)
            for c, p in m["epochs"][e]["cells"].items() for f in p["files"]}


def _fp_epoch(sd, e, seed):
    F.dedup_incremental(_docs(_texts(seed), seed * 100), sd, e,
                        num_partitions=4)


def _er_epoch(sd, e, seed):
    ER.register_epoch(_surfaces(_texts(seed, 12)), sd, e, num_partitions=4)


def _eb_epoch(sd, e, seed):
    EB.dedup_epoch(_vecs(seed), sd, e, k=2, tau=0.99)


# case: (state file, module, listing, setup epochs, crashed op, dir)
ORPHANS = {
    "fpstore-epoch": (F._MANIFEST, F, _fp_listed, [],
                      lambda sd: _fp_epoch(sd, "e1", 1), "e1"),
    "entityreg-epoch": (ER._MANIFEST, ER, _er_listed, [],
                        lambda sd: _er_epoch(sd, "e1", 1), "e1"),
    "fpstore-compact": (F._MANIFEST, F, _fp_listed, [_fp_epoch],
                        F.compact_store, "base0001"),
    "embstore-compact": (EB._MANIFEST, EB, _eb_listed, [_eb_epoch],
                         EB.compact_store, "base0001"),
    "entityreg-compact": (ER._MANIFEST, ER, _er_listed, [_er_epoch],
                          ER.compact_registry, "base0001"),
}


@pytest.mark.parametrize("case", sorted(ORPHANS))
def test_crashed_attempt_files_pruned_after_commit(ray_session, tmp_path,
                                                   monkeypatch, case):
    name, mod, listed, setup, op, e = ORPHANS[case]
    sd = str(tmp_path / case)
    for seed, run in enumerate(setup * 2, start=1):
        run(sd, f"s{seed}", seed)
    real = manifest.write_json

    def boom(out_dir, fname, obj):
        if fname == name:
            raise RuntimeError("injected crash before commit")
        return real(out_dir, fname, obj)

    monkeypatch.setattr(manifest, "write_json", boom)
    with pytest.raises(RuntimeError, match="injected"):
        op(sd)
    monkeypatch.setattr(manifest, "write_json", real)
    edir = os.path.join(sd, f"epoch={e}")

    def on_disk():
        return {os.path.relpath(os.path.join(d, n), sd)
                for d, _, names in os.walk(edir) for n in names}

    assert on_disk(), "the crashed attempt wrote no files"
    op(sd)
    assert on_disk() == listed(mod.STATE.load(sd), e)
