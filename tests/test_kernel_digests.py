"""Frozen digests of the fused KG kernel path.

The generator-derived goldens cannot catch a generator and an extractor
that change together, and perfbench's oracle runs the same kernels as the
pipeline. These sha256 digests were computed once, on the code before the
kernel fast paths (render-only page source, language filter before S1,
literal-gated grammar), and are stored in ``tests/golden_frozen.json``.
Every one of those paths must leave them unchanged:

  - ``pages_table(range(2000), seed)``, every column, in row order;
  - the ``FusedKgStage`` output over the same ids, in row order;
  - ``read_output`` after a 600-page build, one delta epoch and
    ``compact_graph``, order-insensitive.
"""

from __future__ import annotations

import hashlib
import json
import os

import pyarrow as pa
import pytest

from calendar_event_entity_extraction_ray.functions.linking import (
    default_alias_rows,
)
from calendar_event_entity_extraction_ray.pipelines.kg import FusedKgStage
from calendar_event_entity_extraction_ray.sources.pages import (
    pages_table,
    synth_page,
)

_GOLDEN = os.path.join(os.path.dirname(__file__), "golden_frozen.json")
N_PAGES = 2000
SEEDS = (1, 42)


def _frozen(key: str) -> str:
    with open(_GOLDEN, encoding="utf-8") as f:
        return json.load(f)["kernel_digests"][key]


def table_digest(t: pa.Table) -> str:
    """sha256 over every column's name, type and values, in row order."""
    h = hashlib.sha256()
    for name, col in zip(t.column_names, t.columns):
        h.update(f"{name}:{col.type}\n".encode())
        for v in col.to_pylist():
            h.update(repr(v).encode() + b"\n")
    return h.hexdigest()


def set_digest(t: pa.Table) -> str:
    """``table_digest`` of the rows sorted on every column."""
    return table_digest(t.sort_by([(c, "ascending") for c in t.column_names]))


def fused_output(seed: int) -> pa.Table:
    stage = FusedKgStage(alias_ref=default_alias_rows(), gen_seed=seed)
    return stage(pa.table({"id": pa.array(range(N_PAGES), pa.int64())}))


def graph_after_delta_and_compact(out_dir: str) -> pa.Table:
    """600-page build, a delta epoch re-crawling half of it plus 300 new
    pages, then compaction; the head graph as read back."""
    import ray.data

    from calendar_event_entity_extraction_ray.pipelines.kg import (
        append_graph,
        compact_graph,
        kg_triples,
        materialize_graph,
    )
    from calendar_event_entity_extraction_ray.state.manifest import (
        read_output,
    )

    def ids(lo, hi):
        t = pa.table({"id": pa.array(range(lo, hi), pa.int64())})
        return ray.data.from_arrow([t.slice(i, 150)
                                    for i in range(0, t.num_rows, 150)])

    materialize_graph(kg_triples(ids(0, 600), gen_seed=5), out_dir,
                      fingerprint="digest-base", num_partitions=4)
    append_graph(kg_triples(ids(300, 900), gen_seed=5), out_dir, "d1",
                 mode="delta")
    compact_graph(out_dir)
    return read_output(out_dir)


class TestKernelDigests:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_pages_table(self, seed):
        got = table_digest(pages_table(range(N_PAGES), seed=seed))
        assert got == _frozen(f"pages_table_seed{seed}")

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fused_kg_stage(self, seed):
        assert table_digest(fused_output(seed)) == _frozen(
            f"fused_kg_seed{seed}")

    def test_pages_table_rows_equal_synth_page(self):
        ids = list(range(N_PAGES))
        rows = pages_table(ids, seed=42).to_pylist()
        assert rows == [synth_page(i, seed=42)[0] for i in ids]

    def test_graph_after_delta_and_compact(self, ray_session, tmp_path):
        got = set_digest(graph_after_delta_and_compact(str(tmp_path / "g")))
        assert got == _frozen("graph_delta_compact")
