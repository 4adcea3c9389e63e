"""Driver contract for the graft builder (Ray Data target).

``entry()`` runs the flagship KG pipeline over a deterministic synthetic
page fixture; ``queries()`` exposes one callable per implemented operator /
pipeline from SURVEY.md §2 (plus the training-data-pipeline operators);
``oracle_sql()`` gives each query's oracle: DuckDB SQL over the
pre-registered views, or a frozen single-process golden parquet. Both
read the query catalog (``calendar_event_entity_extraction_ray/catalog/``),
where each query registers its function, oracle and bench membership once.

Ray is initialised by the driver BEFORE this module is imported — nothing
here calls ``ray.init`` / ``ray.shutdown``.

Numeric-parity convention: every value column an oracle compares is an
INTEGER (scaled cents / ppm via ``floor(x * scale + 0.5)``) or a string —
float aggregation order is engine-dependent and would flake value hashes;
per-row double arithmetic + floor is bit-identical between numpy and DuckDB.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from calendar_event_entity_extraction_ray.catalog import REGISTRY


def entry() -> Any:
    """Flagship pipeline at smoke scale (sf0.001-equivalent)."""
    from calendar_event_entity_extraction_ray.pipelines.kg import (
        kg_triples,
        synth_pages_dataset,
    )

    pages = synth_pages_dataset(500, seed=42)
    return kg_triples(pages).select_columns(["subj", "pred", "obj", "url"])


def queries() -> dict[str, Callable[[str], Any]]:
    return {n: q.fn for n, q in REGISTRY.items()}


def oracle_sql() -> dict[str, str]:
    return {n: q.sql for n, q in REGISTRY.items()}
