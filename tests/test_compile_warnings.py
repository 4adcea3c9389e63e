"""Every Python source of the repo compiles with DeprecationWarning and
SyntaxWarning raised as errors: an invalid escape such as ``"\\S+"`` in a
non-raw string warns at every compile today and fails on newer Pythons."""

from __future__ import annotations

import pathlib
import warnings

ROOT = pathlib.Path(__file__).resolve().parent.parent
SOURCES = sorted([
    *(ROOT / "calendar_event_entity_extraction_ray").rglob("*.py"),
    *(ROOT / "scripts").rglob("*.py"),
    ROOT / "__ray_entry__.py",
    ROOT / "bench.py",
])


def test_sources_compile_without_warnings():
    assert len(SOURCES) > 100
    bad = {}
    for path in SOURCES:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            warnings.simplefilter("error", SyntaxWarning)
            try:
                compile(path.read_text(), str(path), "exec")
            except (DeprecationWarning, SyntaxWarning, SyntaxError) as e:
                bad[str(path.relative_to(ROOT))] = str(e)
    assert bad == {}
