"""Edit-distance family: Myers bit-parallel kernel vs the classic DP,
and the length-banded pair stage vs a brute-force twin (including pairs
that straddle band boundaries)."""

import random

import numpy as np
import pandas as pd
import pyarrow as pa


class TestMyersDistance:
    def test_matches_dp_reference_fuzz(self):
        from calendar_event_entity_extraction_ray.functions.editdist import (
            dp_distance,
            myers_distance,
        )

        rng = random.Random(17)
        for _ in range(400):
            a = "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 60)))
            b = "".join(rng.choice("abcd ") for _ in range(rng.randint(0, 60)))
            want = dp_distance(a, b)
            assert myers_distance(a, b) == want
            for md in (0, 2, 5, 11):
                got = myers_distance(a, b, max_d=md)
                assert got == (want if want <= md else md + 1)

    def test_long_pattern_multilimb(self):
        # pattern > 64 chars exercises the bigint (multi-limb) masks
        from calendar_event_entity_extraction_ray.functions.editdist import (
            myers_distance,
        )

        a = "x" * 200
        b = "x" * 90 + "yyy" + "x" * 110
        assert myers_distance(a, b) == 3
        assert myers_distance(a, a) == 0
        assert myers_distance(a, "") == 200


class TestLevenshteinPairs:
    def _brute(self, ids, texts, d):
        from calendar_event_entity_extraction_ray.functions.editdist import (
            dp_distance,
        )

        out = set()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if abs(len(texts[i]) - len(texts[j])) <= d:
                    dist = dp_distance(texts[i], texts[j])
                    if dist <= d:
                        lo, hi = sorted((ids[i], ids[j]))
                        out.add((lo, hi, dist))
        return out

    def test_matches_bruteforce_with_boundary_pairs(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.editdist import (
            levenshtein_pairs,
        )

        rng = random.Random(31)
        texts, ids = [], []
        base_words = ["alpha", "bravo", "charlie", "delta", "echo"]
        for i in range(120):
            n = rng.randint(5, 40)
            texts.append(" ".join(rng.choice(base_words) for _ in range(n)))
            ids.append(i)
        # planted near-dups at varied lengths, incl. band-boundary
        # straddlers (band width = 4*(d+1) = 16 at d=3; lengths around
        # multiples of 16 differ by <= 3 across the boundary)
        for i in range(0, 100, 7):
            t = texts[i]
            cut = rng.randint(0, max(0, len(t) - 3))
            texts.append(t[:cut] + "zz" + t[cut:])   # dist <= 2
            ids.append(1000 + i)
        d = 3
        ds = ray.data.from_pandas(
            pd.DataFrame({"doc_id": ids, "text": texts})).repartition(6)
        got = levenshtein_pairs(ds, max_d=d, band_width=16).to_pandas()
        got_set = {(int(r["doc_id_a"]), int(r["doc_id_b"]), int(r["dist"]))
                   for _, r in got.iterrows()}
        assert got_set == self._brute(ids, texts, d)
        assert len(got) == len(got_set)          # each pair exactly once
        assert any(a != b - 1000 for a, b, _ in got_set) or got_set

    def test_empty_and_no_pairs(self, ray_session):
        import ray

        from calendar_event_entity_extraction_ray.stages.editdist import (
            levenshtein_pairs,
        )

        ds = ray.data.from_pandas(pd.DataFrame({
            "doc_id": [1, 2], "text": ["abcdefgh", "zzzzzzzzzzzzzzzzzzzz"]}))
        out = levenshtein_pairs(ds, max_d=2)
        assert out.count() == 0
        assert set(out.schema().names) == {"doc_id_a", "doc_id_b", "dist"}
