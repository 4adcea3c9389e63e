"""Query catalog: every query of the driver contract registers here once.

Each family module decorates its query functions with
``@query(name, sql, bench=...)``; importing this package imports every
family, so ``REGISTRY`` then holds all of them. ``sql`` is the query's
oracle: DuckDB SQL over the pre-registered views, or ``_golden(name)``, a
frozen parquet recomputed single-process by ``scripts/make_goldens.py``.
``bench=True`` puts the query into ``bench.py``'s per-query timings.

Adding a query is one decorated function in its family module. Stage
imports stay inside the query bodies, so importing the catalog stays cheap.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from typing import Any, NamedTuple

import pandas as pd

import ray
import ray.data


class Query(NamedTuple):
    fn: Callable[[str], Any]
    sql: str
    bench: bool


REGISTRY: dict[str, Query] = {}


def query(name: str, sql: str, *, bench: bool = False):
    """Register the decorated function as query ``name`` with oracle
    ``sql``. A name registered twice raises ``ValueError`` (a dict literal
    would silently keep the last one)."""

    def register(fn: Callable[[str], Any]) -> Callable[[str], Any]:
        if name in REGISTRY:
            raise ValueError(f"query {name!r} is already registered")
        REGISTRY[name] = Query(fn, sql, bench)
        return fn

    return register


# ---------------------------------------------------------------------------
# helpers shared by the families
# ---------------------------------------------------------------------------

def _read(sf_dir: str, table: str, columns=None,
          predicate=None) -> "ray.data.Dataset":
    """Pruned read: only ``columns`` leave storage, and ``predicate`` (a
    ``pyarrow.dataset`` expression) pushes into the scan — row groups
    whose statistics exclude the predicate never get decoded, and the
    filter may reference columns outside the projection. At 100 TB this
    is the difference between scanning a week and scanning a year."""
    kwargs = {}
    if predicate is not None:
        kwargs["filter"] = predicate
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet",
                                 columns=columns, **kwargs)


def _sf_of(sf_dir: str) -> float:
    try:
        return float(sf_dir.rstrip("/").rsplit("sf", 1)[1])
    except Exception:
        return 0.01


def _n_pages(sf_dir: str) -> int:
    return max(500, int(50_000 * _sf_of(sf_dir)))


def _int64(res, cols=None) -> pd.DataFrame:
    """Small aggregate result -> pandas with int64 value columns (Ray's Sum
    can widen ints to float64; DuckDB SUM(BIGINT) widens to HUGEINT — both
    sides are pinned to int64 so value hashes are comparable)."""
    df = res.to_pandas() if not isinstance(res, pd.DataFrame) else res
    if len(df) == 0 and cols is not None:
        # Dataset.to_pandas() drops columns on an all-empty dataset;
        # rebuild the expected schema so downstream column
        # access and the driver's schema compare stay stable (hit live:
        # supplier_value_share's share threshold filters to 0 rows at
        # sf0.1 — a legitimately empty result, not an error)
        df = pd.DataFrame({c: df[c] if c in df.columns
                           else pd.Series(dtype="int64") for c in cols})
    for c in cols if cols is not None else df.columns:
        if df[c].dtype != object and str(df[c].dtype) != "string":
            df[c] = df[c].astype("int64")
    return df


_GOLDEN_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
    "tests", "golden", "oracle")


def _golden(name: str) -> str:
    """Frozen golden-oracle parquet recomputed SINGLE-PROCESS by
    scripts/make_goldens.py (reference-semantics emitter / sequential
    mirrors) — checks the distributed execution against an independent
    sequential run of the same semantics. The KG goldens come from the
    reference-semantics emitter (functions/oracle.py); the derived views
    are plain SQL over that one emitter output."""
    return f"read_parquet('{_GOLDEN_DIR}/{name}.parquet')"


# the families register on import; they need the names above
from calendar_event_entity_extraction_ray.catalog import (  # noqa: E402,F401
    corpus,
    events,
    kg,
    media,
    relational,
    stores,
    vectors,
)
