"""Task-form adapter for stateful batch stages.

``map_batches(Cls, fn_constructor_kwargs=...)`` actor pools pay a
spin-up (~2 s for a 31-actor pool on this host) and reserve CPUs away
from task stages. For stages whose setup is CHEAP (compile a grammar,
fetch a broadcast ObjectRef, build a rank table — microseconds to
milliseconds) the same amortization is available without either cost:
run the stage as a plain task function and cache the constructed
instance per WORKER PROCESS — Ray reuses its pre-started workers across
tasks, so setup still happens once per worker, exactly like actor
``__init__``. Measured on the flagship pipeline: 13.2 s -> 8.1 s at 32
CPUs, and the 4-CPU level (where pool-vs-task CPU contention bites
hardest) sped up 1.5x.

Actor pools remain the right tool when setup is genuinely heavy (model
weights), when the stage needs fractional/custom resources
(``num_cpus``, GPUs), or when instance state must NOT be shared across
concurrent tasks in one worker (the cache hands the same instance to
every task in the process, sequentially — fine for stateless-per-batch
stages, which all of this repo's are).

Usage::

    ds.map_batches(run_stage,
                   fn_kwargs={"_cls": ExtractEvents, **ctor_kwargs},
                   batch_format="pyarrow")

A broadcast kwarg should come from ``put_by_content``: the cache keys on
the ObjectRef, so a fresh ``ray.put`` per call builds a new instance per
worker on every call (the cache is a small LRU, so they do not pile up).
"""

from __future__ import annotations

import hashlib
import pickle
from collections import OrderedDict

import ray

# (stage class, kwargs) -> instance, a bounded LRU: knn, vecstore and
# augmentation pass a fresh ``ray.put`` ref (a new key) on every call.
_INSTANCE_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_INSTANCE_MAX = 4
# (node id, job id, content md5) -> ObjectRef. Bounded LRU: an unbounded
# memo would pin every broadcast a long-lived driver ever used in plasma;
# evicting the ref lets the object store release it. A new local cluster
# has a new node id and a new connection to a running one a new job id,
# so a ref from an earlier ``ray.init`` is never handed out again.
_BROADCASTS: "OrderedDict[tuple, ray.ObjectRef]" = OrderedDict()
_BROADCASTS_MAX = 4


def put_by_content(value) -> "ray.ObjectRef":
    """``ray.put(value)``, memoized by the content of ``value``."""
    ctx = ray.get_runtime_context()
    key = (ctx.get_node_id(), ctx.get_job_id(),
           hashlib.md5(pickle.dumps(value)).hexdigest())
    ref = _BROADCASTS.pop(key, None) or ray.put(value)
    _BROADCASTS[key] = ref
    while len(_BROADCASTS) > _BROADCASTS_MAX:
        _BROADCASTS.popitem(last=False)
    return ref


def _key_part(v):
    if hasattr(v, "hex"):           # ray.ObjectRef: stable across tasks
        return ("ref", v.hex())
    if isinstance(v, (str, int, float, bool, bytes, type(None))):
        return ("val", v)
    return ("repr", repr(v))        # small configs (lists/tuples/dicts)


def run_stage(batch, *, _cls, **kwargs):
    key = (_cls.__module__, _cls.__qualname__,
           tuple((k, _key_part(v)) for k, v in sorted(kwargs.items())))
    st = _INSTANCE_CACHE.pop(key, None)
    if st is None:
        st = _cls(**kwargs)
    _INSTANCE_CACHE[key] = st
    while len(_INSTANCE_CACHE) > _INSTANCE_MAX:
        _INSTANCE_CACHE.popitem(last=False)
    return st(batch)
