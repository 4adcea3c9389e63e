"""scripts/scale.py: the op contract, the one JSON record and the
pass/fail rule."""

from __future__ import annotations

import inspect
import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "scripts")
sys.path.insert(0, SCRIPTS)

import scale  # noqa: E402


@pytest.mark.parametrize("name", sorted(scale.OPS))
def test_op_params_are_keyword_defaults(name):
    params = list(inspect.signature(scale.OPS[name]).parameters.values())
    assert params[0].name == "ctx"
    for p in params[1:]:
        assert p.kind is p.KEYWORD_ONLY, (name, p.name)
        assert type(p.default) in (int, float, str, bool), (name, p.name)
    assert inspect.getdoc(scale.OPS[name])


def test_tiny_op_prints_one_record_and_exits_0():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "scale.py"), "setop",
         "--rows", "2000", "--keys", "200", "--num-cpus", "1"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    assert len(lines) == 1, proc.stdout
    rec = json.loads(lines[0])
    assert rec["ok"] is True
    assert rec["rows_out"] == rec["expect"] == 100
    assert rec["num_cpus"] == 1
    for field in ("run_sec", "driver_maxrss_mb", "wall_sec"):
        assert isinstance(rec[field], (int, float)), field


def test_ok_false_exits_1(ray_session, monkeypatch, capsys):
    def failing(ctx, *, rows=10):
        """A check that misses its closed form."""
        return {"rows": rows, "ok": False}

    monkeypatch.setitem(scale.OPS, "failing", failing)
    assert scale.main(["failing", "--rows", "3"]) == 1
    rec = json.loads(capsys.readouterr().out)
    assert rec["ok"] is False and rec["params"] == {"rows": 3}
