"""Entity linking: broadcast alias dictionary + fuzzy n-gram blocking (S4).

Analogue of the reference's entity pools (augmentation/entity_pools.py:7-20 —
the small lookup side built by a grouped count) and pool-based substitution
(augmentors.py:16-39), generalized into canonical entity resolution:

  1. exact, case-insensitive alias-dict hit  ->  canonical
  2. fuzzy: MinHash-LSH blocking over character 3-grams against the canonical
     vocabulary of the same kind; best candidate above a Jaccard threshold
  3. otherwise identity (the surface form is its own canonical)

``EntityLinker`` holds the dict + LSH index; in the pipeline it is built once
per worker process from a broadcast (``ray.put``) alias table — never
re-shipped per batch.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Optional, Tuple

from calendar_event_entity_extraction_ray.functions import grammar as G
from calendar_event_entity_extraction_ray.functions.dedup import (
    MinHasher,
    char_ngrams,
    jaccard,
)


def default_alias_rows() -> list[dict]:
    return G.alias_rows()


def default_canonicals() -> Dict[str, list]:
    return {
        "person": list(G.FIRST_NAMES),
        "place": list(G.MEDIUMS) + list(G.PLACES_TITLE) + list(G.PLACES_LOWER),
    }


class EntityLinker:
    def __init__(
        self,
        alias_rows: Iterable[dict] | None = None,
        canonicals: Dict[str, list] | None = None,
        jaccard_threshold: float = 0.5,
        num_perm: int = 32,
        num_bands: int = 8,
    ) -> None:
        alias_rows = list(alias_rows) if alias_rows is not None else default_alias_rows()
        canonicals = canonicals if canonicals is not None else default_canonicals()
        self.threshold = jaccard_threshold
        self.lookup: Dict[Tuple[str, str], str] = {}
        for r in alias_rows:
            self.lookup[(r["kind"], r["alias"].strip().lower())] = r["canonical"]
        for kind, vals in canonicals.items():
            for v in vals:
                self.lookup.setdefault((kind, v.strip().lower()), v)

        # LSH blocking index over canonical vocab (small side; per-worker build)
        self.hasher = MinHasher(num_perm=num_perm)
        self.num_bands = num_bands
        self.buckets: Dict[Tuple[str, str], list] = defaultdict(list)
        self.grams: Dict[Tuple[str, str], set] = {}
        for kind, vals in canonicals.items():
            for v in vals:
                g = char_ngrams(v)
                self.grams[(kind, v)] = g
                for key in self.hasher.band_keys(self.hasher.signature(g), num_bands):
                    self.buckets[(kind, key)].append(v)

    def link(self, surface: Optional[str], kind: str) -> Optional[str]:
        if surface is None:
            return None
        exact = self.lookup.get((kind, surface.strip().lower()))
        if exact is not None:
            return exact
        g = char_ngrams(surface)
        n_words = len(surface.split())
        cands = set()
        for key in self.hasher.band_keys(self.hasher.signature(g), self.num_bands):
            cands.update(self.buckets.get((kind, key), ()))
        best, best_j = None, self.threshold
        for c in sorted(cands):
            # word-count blocking: a typo'd surface keeps its word count, so a
            # shorter canonical ("Katherine" for "Katherine Lee") never wins.
            if len(c.split()) != n_words:
                continue
            j = jaccard(g, self.grams[(kind, c)])
            if j > best_j:
                best, best_j = c, j
        return best if best is not None else surface
