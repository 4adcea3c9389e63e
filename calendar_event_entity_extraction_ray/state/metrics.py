"""Run-level metrics manifest (METRICS.json).

Captures per-run counters (rows in/out, docs/sec, stage wall breakdown from
``ds.stats()``) next to the output manifest — the engine's replacement for
the reference's print-statement telemetry (augmentation/main.py:122,166,191).
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, Optional

from calendar_event_entity_extraction_ray.state.manifest import write_json


def write_metrics(
    out_dir: str,
    counters: Dict[str, Any],
    stats_str: Optional[str] = None,
    name: str = "METRICS.json",
) -> str:
    payload = {
        "written_at": time.time(),
        "counters": counters,
        "stats": (stats_str or "")[-20000:],
    }
    return write_json(out_dir, name, payload)


def read_metrics(out_dir: str, name: str = "METRICS.json") -> Dict[str, Any]:
    with open(os.path.join(out_dir, name)) as f:
        return json.load(f)
