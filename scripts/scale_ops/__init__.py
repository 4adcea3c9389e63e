"""Op families of ``scripts/scale.py`` and the helpers they share.

An op is ``def <op>(ctx, *, <param>=<default>, ...) -> dict``: its
keyword defaults are its CLI, its docstring states the closed form it
checks, and the dict it returns carries ``ok``.
"""

from __future__ import annotations

import collections
import hashlib
import resource
from typing import Callable, NamedTuple

import numpy as np
import pyarrow as pa


class Ctx(NamedTuple):
    num_cpus: int   # CPUs of the Ray cluster the op runs on
    blocks: int     # default input blocks: max(num_cpus * 4, 8)
    work_dir: str   # fresh directory, removed after the op


def md5_rng(tag: str) -> np.random.RandomState:
    """RandomState seeded by the 128-bit md5 of ``tag`` (a 32-bit seed
    collides for ~n^2/2^33 pairs of millions of docs)."""
    return np.random.RandomState(
        np.frombuffer(hashlib.md5(tag.encode()).digest(), dtype=np.uint32))


def maxrss_mb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss // 1024


def batch_sums(ds, fn: Callable[[pa.Table], dict]) -> dict:
    """Sum ``fn(batch) -> {name: int}`` over every batch of ``ds``; only
    one row per batch reaches the driver. Missing names read 0."""
    df = ds.map_batches(
        lambda b: pa.table({k: [int(v)] for k, v in fn(b).items()}),
        batch_format="pyarrow").to_pandas()
    return collections.defaultdict(
        int, {c: int(df[c].sum()) for c in df.columns})
