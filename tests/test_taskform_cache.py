"""The task-form instance cache is a bounded LRU: callers that pass a
fresh ``ray.put`` ref per call (``knn_ivf`` here) cannot grow it past
``_INSTANCE_MAX`` entries per worker."""

from __future__ import annotations

import json
import os
import subprocess
import sys

from calendar_event_entity_extraction_ray.stages import taskform

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one 1-CPU session, so every knn_ivf call runs in the same worker(s)
_SCRIPT = """
import json, os, sys
import numpy as np
import pyarrow as pa
import ray
from calendar_event_entity_extraction_ray.stages import taskform
from calendar_event_entity_extraction_ray.stages.knn import knn_ivf

ray.init(num_cpus=1, include_dashboard=False, logging_level="ERROR")
ray.data.DataContext.get_current().enable_progress_bars = False
mat = np.random.RandomState(3).standard_normal((400, 8))
ds = ray.data.from_arrow(pa.table({
    "vec_id": pa.array(range(len(mat)), pa.int64()),
    "embedding": pa.array(mat.tolist(), pa.list_(pa.float32()))}))
for i in range(int(sys.argv[1])):
    knn_ivf(ds, mat[i], k=3, n_cells=4, n_probe=2, sample_size=200)

@ray.remote(num_cpus=1)
def probe():
    from calendar_event_entity_extraction_ray.stages import taskform
    keys = list(taskform._INSTANCE_CACHE)
    return os.getpid(), len(keys), sum(k[1] == "_IvfAssign" for k in keys)

print(json.dumps(ray.get([probe.remote() for _ in range(4)])))
"""


def test_fresh_refs_leave_at_most_the_bound_per_worker():
    calls = taskform._INSTANCE_MAX + 2
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(calls)], cwd=ROOT,
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    probes = json.loads(proc.stdout.strip().splitlines()[-1])
    assert any(n_ivf for _, _, n_ivf in probes), probes
    for _, n_cached, n_ivf in probes:
        assert n_cached <= taskform._INSTANCE_MAX, probes
        assert n_ivf <= taskform._INSTANCE_MAX, probes


def test_lru_keeps_the_most_recent_stages():
    class Stage:
        built = 0

        def __init__(self, tag):
            Stage.built += 1

        def __call__(self, batch):
            return batch

    saved = dict(taskform._INSTANCE_CACHE)
    taskform._INSTANCE_CACHE.clear()
    try:
        bound = taskform._INSTANCE_MAX
        for tag in range(bound + 2):
            taskform.run_stage(None, _cls=Stage, tag=tag)
        assert len(taskform._INSTANCE_CACHE) == bound
        # the newest entries stay cached; the oldest were rebuilt
        taskform.run_stage(None, _cls=Stage, tag=bound + 1)
        assert Stage.built == bound + 2
        taskform.run_stage(None, _cls=Stage, tag=0)
        assert Stage.built == bound + 3
    finally:
        taskform._INSTANCE_CACHE.clear()
        taskform._INSTANCE_CACHE.update(saved)
