"""S4: entity linking against a broadcast alias dict, once per distinct
surface.

Analogue of the reference's entity-pool lookup (augmentation/augmentors.py:
16-39, entity_pools.py:7-20) generalized to canonical resolution: exact
case-insensitive dict hit, then MinHash-blocked n-gram-Jaccard fuzzy match
(functions/linking.py).

Broadcast pattern: the driver ``ray.put``s the alias rows ONCE; the stage
runs task-form behind the per-worker instance cache
(``stages/taskform.py``), so each worker fetches them once and builds the
lookup + LSH index locally. The alias table never ships per batch, and
linking never shuffles the triples.

Per batch, the objects of each non-empty ``kind`` are dictionary-encoded:
``_link`` runs once per distinct (kind, surface) and ``take`` maps the
results back to the rows. Rows with an empty or NULL kind and NULL
objects pass through. A per-worker memo short-circuits surfaces seen in
earlier batches (hub entities make surface distributions heavily skewed,
so the hit rate is high).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import pyarrow as pa
import pyarrow.compute as pc

from calendar_event_entity_extraction_ray.functions.linking import EntityLinker


class LinkEntities:
    """map_batches(run_stage, fn_kwargs={"_cls": LinkEntities,
    "alias_ref": put_by_content(alias_rows)})."""

    def __init__(self, alias_ref=None, canonicals=None) -> None:
        alias_rows = None
        if alias_ref is not None:
            import ray

            alias_rows = ray.get(alias_ref) if isinstance(alias_ref, ray.ObjectRef) else alias_ref
        self.linker = EntityLinker(alias_rows=alias_rows, canonicals=canonicals)
        self.memo: Dict[Tuple[str, str], Optional[str]] = {}

    _MEMO_CAP = 1_000_000  # per-worker; web-scale distinct surfaces are unbounded

    def _link(self, surface: Optional[str], kind: str) -> Optional[str]:
        if surface is None or not kind:
            return surface
        key = (kind, surface)
        hit = self.memo.get(key)
        if hit is None and key not in self.memo:
            hit = self.linker.link(surface, kind)
            if len(self.memo) >= self._MEMO_CAP:
                self.memo.clear()
            self.memo[key] = hit
        return hit

    def __call__(self, batch: pa.Table) -> pa.Table:
        obj = batch.column("obj").combine_chunks()
        kind = batch.column("kind").combine_chunks()
        for k in pc.unique(kind).to_pylist():
            if not k:
                continue
            mask = pc.fill_null(pc.equal(kind, k), False)
            enc = obj.filter(mask).dictionary_encode()
            linked = pa.array(
                [self._link(s, k) for s in enc.dictionary.to_pylist()],
                pa.string())
            obj = pc.replace_with_mask(obj, mask, linked.take(enc.indices))
        return batch.set_column(batch.column_names.index("obj"), "obj", obj)
