"""scripts/job.py: the op contract, the one JSON line, the exit rule, the
one Ray address and the in-process daily check."""

from __future__ import annotations

import functools
import inspect
import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

import job  # noqa: E402
from job_ops import stores  # noqa: E402

SF = "/root/testdata/sf0.001"


@pytest.mark.parametrize("name", sorted(job.OPS))
def test_op_params_are_keyword_defaults(name):
    for p in inspect.signature(job.OPS[name]).parameters.values():
        assert p.kind is p.KEYWORD_ONLY, (name, p.name)
        # no default = a required string flag
        assert p.default is p.empty or type(p.default) in (
            int, float, str, bool), (name, p.name)
    assert inspect.getdoc(job.OPS[name])


def test_tiny_op_prints_one_json_line_and_exits_0(tmp_path):
    state = str(tmp_path / "decay")
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "job.py"), "feature",
         "--state", state, "--epoch", "day1",
         "--input", f"{SF}/events.parquet", "--num-cpus", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1, proc.stdout
    rec = json.loads(lines[0])
    assert rec["epoch"] == "day1" and rec["noop"] is False
    assert rec["n_state_rows"] > 0


def test_ok_false_exits_1(ray_session, monkeypatch, capsys):
    def failing(*, rows=10):
        """A job whose own check fails."""
        return {"rows": rows, "ok": False}

    monkeypatch.setitem(job.OPS, "failing", failing)
    assert job.main(["failing", "--rows", "3"]) == 1
    assert json.loads(capsys.readouterr().out) == {"rows": 3, "ok": False}


def test_every_op_joins_the_cluster_address(monkeypatch, capsys):
    """One ray.init for every op, at $CEE_RAY_ADDRESS, without a CPU
    count (that belongs to a private session only)."""
    import ray

    inits = []
    monkeypatch.setenv("CEE_RAY_ADDRESS", "10.0.0.1:6379")
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    monkeypatch.setattr(ray, "init", lambda **kw: inits.append(kw))
    monkeypatch.setattr(ray, "shutdown", lambda: None)
    for name, fn in list(job.OPS.items()):
        stub = functools.wraps(fn)(lambda **kw: {})
        monkeypatch.setitem(job.OPS, name, stub)
        argv = [name, "--num-cpus", "2"]
        for p in inspect.signature(fn).parameters.values():
            if p.default is p.empty:
                argv += ["--" + p.name.replace("_", "-"), "x"]
        assert job.main(argv) == 0, name
    assert len(inits) == len(job.OPS)
    for kw in inits:
        assert kw["address"] == "10.0.0.1:6379" and "num_cpus" not in kw


def test_daily_reruns_are_noops(ray_session):
    """day1 and day2 ingest disjoint halves of the inputs (even and odd
    ids), so day2 adds rows to the corpus, window and feature stores,
    and its re-run still changes nothing."""
    rec = job.OPS["daily"](sf_dir=SF, pages=300)
    assert rec["ok"] is True, rec
    assert set(rec["day2_new"]) == {"corpus", "windows", "decay", "hist"}
    assert all(n > 0 for n in rec["day2_new"].values()), rec["day2_new"]
    assert sorted(rec["checks"]) == sorted(
        [f"{s}_noop" for s in ("corpus", "graph", "entities", "windows",
                               "decay", "hll", "hist", "embdedup",
                               "vectors")]
        + [f"{r}_read_same" for r in ("windows", "decay", "vectors")])
    assert rec["stores"] == sorted(
        ["corpus", "graph", "entities", "windows", "decay", "hll", "hist",
         "embdedup", "vectors"])


def test_daily_exits_1_when_a_rerun_writes(ray_session, monkeypatch,
                                           capsys):
    """Plant a window job whose third call (the day2 re-run) ingests
    under a new epoch name: the window state changes, and daily fails."""
    calls = []
    window = stores.window

    def rewriting(**kw):
        calls.append(kw["epoch"])
        if len(calls) == 3:
            kw["epoch"] += "-again"
        return window(**kw)

    monkeypatch.setattr(stores, "window", rewriting)
    assert job.main(["daily", "--sf-dir", SF, "--pages", "300"]) == 1
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert {c for c, ok in checks.items()
            if not ok and c.endswith("_noop")} == {"windows_noop"}


def test_runbook_vecstore_cycle_compacts_embstore_survivors(ray_session,
                                                            tmp_path):
    """RUNBOOK §6 step 4 plus the weekly compaction: embstore --out,
    vecstore-append of its survivors, then vecstore-compact. The
    survivors' vectors arrive as list<double> against a list<float>
    base; the delta is stored as the base's type, so the fold can
    concatenate the two."""
    import pyarrow.parquet as pq

    embs, vs = f"{SF}/embeddings.parquet", str(tmp_path / "vectors")
    stores.vecstore_build(store=vs, input=embs, cells=4, pq_m=4)
    clean = str(tmp_path / "emb_clean" / "epoch=day2")
    rec = stores.embstore(store=str(tmp_path / "embdedup"), epoch="day2",
                          input=embs, out=clean)
    assert rec["n_survivors"] > 0
    stores.vecstore_append(store=vs, input=clean, epoch="day2")
    rec = stores.vecstore_compact(store=vs)
    assert rec["compacted_epochs"] == ["day2"]
    base_type = pq.read_schema(embs).field("embedding").type
    cells = json.load(open(os.path.join(vs, "_MANIFEST.json")))["cells"]
    for e in cells.values():
        assert pq.read_schema(os.path.join(vs, e["file"])).field(
            "embedding").type == base_type
