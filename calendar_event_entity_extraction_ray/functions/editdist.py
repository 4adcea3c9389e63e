"""Levenshtein edit distance — Myers' bit-parallel algorithm (Myers 1999 /
Hyyrö 2001 formulation). Python bigints ARE the bit-vectors, so one pass
over the text costs O(len(text)) bigint ops regardless of pattern length
(each op is a C-level operation over ceil(m/30)-limb ints) — orders of
magnitude faster than a Python DP over the m x n matrix.

Used by stages/editdist.py for edit-distance near-dup pairs; parity
target is DuckDB's ``levenshtein()`` (unit insert/delete/substitute),
pinned by tests against a classic DP reference.
"""

from __future__ import annotations

from typing import Dict, Optional


def myers_distance(a: str, b: str, max_d: Optional[int] = None) -> int:
    """Exact unit-cost edit distance between ``a`` and ``b``.

    ``max_d``: early-abandon bound — the score after consuming j text
    chars is the edit distance of the pattern vs that prefix, and each
    remaining char can lower the final distance by at most 1, so once
    ``score - remaining > max_d`` the true distance must exceed
    ``max_d`` and ``max_d + 1`` is returned as a "> d" sentinel.
    """
    if len(a) > len(b):          # pattern = shorter string (fewer limbs)
        a, b = b, a
    m = len(a)
    n = len(b)
    if max_d is not None and n - m > max_d:
        return max_d + 1
    if m == 0:
        return n

    peq: Dict[str, int] = {}
    for i, c in enumerate(a):
        peq[c] = peq.get(c, 0) | (1 << i)

    mask = (1 << m) - 1
    high = 1 << (m - 1)
    pv = mask                    # +1 vertical deltas (column all +1)
    mv = 0                       # -1 vertical deltas
    score = m
    for j in range(n):
        eq = peq.get(b[j], 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | (~(xh | pv) & mask)
        mh = pv & xh
        if ph & high:
            score += 1
        elif mh & high:
            score -= 1
        ph = ((ph << 1) | 1) & mask
        mh = (mh << 1) & mask
        pv = mh | (~(xv | ph) & mask)
        mv = ph & xv
        if max_d is not None and score - (n - j - 1) > max_d:
            return max_d + 1
    return score


def dp_distance(a: str, b: str) -> int:
    """Classic O(m*n) DP — the reference implementation the tests pin
    ``myers_distance`` against. Not for hot paths."""
    if len(a) < len(b):
        a, b = b, a
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        cur = [i] + [0] * len(b)
        for j, cb in enumerate(b, 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (ca != cb))
        prev = cur
    return prev[len(b)]


def deletion_variants(s: str, d: int) -> set:
    """The depth-``d`` deletion neighborhood of ``s``, INCLUDING ``s``
    itself (depth 0). SymSpell blocking invariant: if
    ``levenshtein(a, b) <= d`` then ``deletion_variants(a, d)`` and
    ``deletion_variants(b, d)`` intersect — take any <= d-op edit
    script and delete from ``a`` its deleted+substituted positions and
    from ``b`` its inserted+substituted positions; both sides reach the
    same string with <= d deletions each. Size ~ C(len, d)."""
    out = {s}
    frontier = {s}
    for _ in range(d):
        nxt = set()
        for v in frontier:
            for i in range(len(v)):
                nxt.add(v[:i] + v[i + 1:])
        out |= nxt
        frontier = nxt
    return out
