"""SQL set operators — UNION / INTERSECT / EXCEPT, DISTINCT and ALL.

Set operators differ from joins in one load-bearing way: NULLs compare
EQUAL for membership (two ``(NULL, 'a')`` rows are the same element), so
the fold groups with ``dropna=False`` instead of the joins' drop-null-key
rule (SQL join equality never matches NULL; SQL set ops always do).

Plan shape: project each side to the compared columns, collapse each
batch to per-element partial counts (one row per distinct element per
batch — the set-op analogue of partial pre-aggregation), union the two
datasets (zero-shuffle concatenation), ONE exchange on the full-row
content hash (``stages/dedup.py:hash64_columns`` — dtype-canonicalized,
process-stable), then a single vectorized groupby per partition sums the
per-side counts. Equal rows co-locate by construction, so the fold is
exact; DISTINCT ops emit one row per qualifying element, ALL ops emit
SQL's bag multiplicities (INTERSECT ALL = min(l, r) copies, EXCEPT ALL =
max(l - r, 0)). Nothing driver-side grows with the input. The reference
has no set operators (single-process pandas scripts); these are engine
additions for the SQL surface.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

_OPS = ("union", "intersect", "except",
        "union_all", "intersect_all", "except_all")


def set_op(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    cols: List[str],
    op: str,
    pre_distinct: bool = True,
) -> "ray.data.Dataset":
    """``left <OP> right`` over ``cols``.

    DISTINCT ops (``union`` / ``intersect`` / ``except``): one row per
    qualifying element — in either side / in both / in left only. ALL
    ops keep SQL's bag multiplicities: ``union_all`` is plain
    concatenation (returned directly — no exchange needed),
    ``intersect_all`` emits min(count_l, count_r) copies, ``except_all``
    max(count_l − count_r, 0). NULLs compare equal in all six, as SQL
    set-op semantics require.

    ``pre_distinct`` (default on) collapses each batch to per-element
    partial counts before the exchange: the shuffle ships at most
    |distinct in batch| rows per batch instead of the whole bag (counts
    ride along, so ALL semantics survive the collapse). Measured at
    20M x 20M rows / 32 cpus: 19% faster when batches hold ~150 copies
    per element (100k-key bags), noise-level when batches are already
    distinct (2M-key bags) — so the default stays on;
    ``scripts/scale.py setop --pre-distinct on|off`` reproduces both."""
    if op not in _OPS:
        raise ValueError(f"op={op!r}: one of {_OPS}")
    if op == "union_all":
        proj = lambda b: b.select(cols)  # noqa: E731
        return left.map_batches(proj, batch_format="pyarrow").union(
            right.map_batches(proj, batch_format="pyarrow"))
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def tag(side: int):
        def fn(b: pa.Table) -> pa.Table:
            t = b.select(cols)
            if pre_distinct:
                t = t.group_by(cols).aggregate([([], "count_all")])
                n = t.column("count_all")
                t = t.drop_columns(["count_all"])
            else:
                n = pa.array([1] * t.num_rows, pa.int64())
            zero = pa.array([0] * t.num_rows, pa.int64())
            t = t.append_column("_c0", n if side == 0 else zero)
            t = t.append_column("_c1", n if side == 1 else zero)
            return add_hash_column(t, cols, out_col="_rh")

        return fn

    both = left.map_batches(tag(0), batch_format="pyarrow").union(
        right.map_batches(tag(1), batch_format="pyarrow"))

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = (df.groupby(cols, sort=False, dropna=False)[["_c0", "_c1"]]
             .sum().reset_index())
        c0 = g["_c0"].to_numpy(np.int64)
        c1 = g["_c1"].to_numpy(np.int64)
        if op == "union":
            out = g[cols]
        elif op == "intersect":
            out = g.loc[(c0 > 0) & (c1 > 0), cols]
        elif op == "except":
            out = g.loc[(c0 > 0) & (c1 == 0), cols]
        else:
            reps = (np.minimum(c0, c1) if op == "intersect_all"
                    else np.maximum(c0 - c1, 0))
            out = g.loc[g.index.repeat(reps), cols]
        return pa.Table.from_pandas(out, preserve_index=False)

    return hash_partition_map(both, "_rh", fold)
