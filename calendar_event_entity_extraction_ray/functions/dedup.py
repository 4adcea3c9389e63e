"""Dedup primitives: the grouping kernel (``group_fold``/``first_rows``),
exact signatures, MinHash, SimHash, n-gram Jaccard.

The reference only does exact first-wins dedup (augmentation/utils.py:36-46)
and signature anti-joins (augmentors.py:64-78); the near-dup machinery here is
the standard training-data-pipeline toolbox (MinHash+LSH banding, SimHash,
n-gram Jaccard) implemented with numpy so it vectorizes inside
``map_batches``. All hashing is seed-stable across processes (no Python
``hash()``).
"""

from __future__ import annotations

import hashlib
import re
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_WORD_RE = re.compile(r"\w+", re.UNICODE)

# Mersenne prime used for universal hashing of 64-bit minhash.
_MERSENNE = (1 << 61) - 1
_MAXH = np.uint64((1 << 61) - 1)


def group_fold(t: pa.Table, keys: Sequence[str],
               aggs: Optional[Dict[str, Tuple[Optional[str], str]]] = None,
               ) -> pa.Table:
    """The package's one grouping kernel: one row per distinct ``keys``
    tuple of ``t`` (NULL equal to NULL, as SQL's GROUP BY), unsorted:
    the order is a deterministic function of ``t`` but not first
    appearance, so sort where a caller needs an order. The key columns
    keep the input's types (taken from each group's first row); ``aggs`` adds
    ``{out_name: (column, fn)}`` columns, ``fn`` one of ``count_all``
    (column ignored), ``sum``, ``min`` and ``max``. Arrow's ``sum``
    keeps int64 and gives NULL for a group whose values are all NULL.

    Every key that is not a NULL-free integer or temporal column groups
    on its dictionary codes, which hold no NULLs: on a nullable string
    key beside a fixed-width one, pyarrow 16's ``group_by`` splits equal
    keys into several groups. Partials folded again by ``group_fold``
    (sum of sums, max of maxes) give the one-pass answer."""
    aggs = aggs or {}
    g, names = _groups(t, keys, aggs, first=False)
    if "_i_min" in g.column_names:
        out = t.select(list(keys)).take(g.column("_i_min"))
    else:  # every key grouped as itself: the group keys are the values
        out = g.select([f"_k{j}" for j in range(len(keys))]
                       ).rename_columns(list(keys))
    for name, col in zip(aggs, names):
        out = out.append_column(name, g.column(col))
    return out


def first_rows(t: pa.Table, keys: Sequence[str]) -> np.ndarray:
    """Ascending indices of the first row of each distinct ``keys``
    tuple of ``t`` (``group_fold``'s groups, no aggregates): exact
    first-wins dedup is ``t.take(first_rows(t, keys))``."""
    return np.sort(_groups(t, keys, {}, first=True)[0]
                   .column("_i_min").to_numpy())


def _groups(t: pa.Table, keys: Sequence[str], aggs: dict, first: bool):
    """``group_fold``'s group_by: (its table, the aggregate column names).
    It holds ``_i_min``, each group's first row, when ``first`` is set or
    a key was encoded. The group_by runs single-threaded, so its group
    order is deterministic."""
    cols, spec = {}, []
    for j, c in enumerate(keys):
        col = t.column(c)
        if col.null_count or not (pa.types.is_integer(col.type)
                                  or pa.types.is_temporal(col.type)):
            enc = pc.dictionary_encode(col, null_encoding="encode")
            col = pa.chunked_array([ch.indices for ch in enc.chunks],
                                   pa.int32())
            first = True
        cols[f"_k{j}"] = col
    if first:
        cols["_i"] = pa.array(np.arange(t.num_rows, dtype=np.int64))
        spec.append(("_i", "min"))
    names = []
    for j, (c, fn) in enumerate(aggs.values()):
        if fn == "count_all":
            spec.append(([], fn))
            names.append(fn)
        else:
            cols[f"_a{j}"] = t.column(c)
            spec.append((f"_a{j}", fn))
            names.append(f"_a{j}_{fn}")
    g = pa.table(cols).group_by(
        [f"_k{j}" for j in range(len(keys))], use_threads=False,
    ).aggregate(spec)
    return g, names


def char_ngrams(s: str, n: int = 3) -> Set[str]:
    s = " ".join((s or "").lower().split())
    if len(s) < n:
        return {s} if s else set()
    return {s[i : i + n] for i in range(len(s) - n + 1)}


def word_shingles(s: str, k: int = 3) -> Set[str]:
    toks = _WORD_RE.findall((s or "").lower())
    if len(toks) < k:
        return {" ".join(toks)} if toks else set()
    return {" ".join(toks[i : i + k]) for i in range(len(toks) - k + 1)}


def jaccard(a: Set[str], b: Set[str]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    inter = len(a & b)
    return inter / (len(a) + len(b) - inter)


def _token_hashes(tokens: Sequence[str]) -> np.ndarray:
    return np.fromiter(
        (
            int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "little")
            & ((1 << 61) - 1)
            for t in tokens
        ),
        dtype=np.uint64,
        count=len(tokens),
    )


class MinHasher:
    """num_perm universal-hash minhash; construct once (per actor), reuse."""

    def __init__(self, num_perm: int = 128, seed: int = 7):
        rng = np.random.RandomState(seed)
        self.num_perm = num_perm
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)

    def signature(self, tokens: Set[str]) -> np.ndarray:
        """(num_perm,) uint64 minhash signature."""
        if not tokens:
            return np.full(self.num_perm, _MAXH, dtype=np.uint64)
        h = _token_hashes(sorted(tokens))  # (T,)
        # (a*h + b) mod p, vectorized over permutations x tokens
        vals = (self.a[:, None] * h[None, :] + self.b[:, None]) % np.uint64(_MERSENNE)
        return vals.min(axis=1)

    def band_keys(self, sig: np.ndarray, num_bands: int = 16) -> List[str]:
        """LSH banding: one stable string key per band. Two docs sharing any
        band key are candidate near-dups (groupby key in the LSH shuffle)."""
        rows = self.num_perm // num_bands
        keys = []
        for b in range(num_bands):
            band = sig[b * rows : (b + 1) * rows].tobytes()
            keys.append(f"{b}:{hashlib.md5(band).hexdigest()[:16]}")
        return keys


def simhash64(text: str) -> int:
    """64-bit SimHash over word unigram md5 hashes, counts as weights."""
    toks = _WORD_RE.findall((text or "").lower())
    if not toks:
        return 0
    acc = np.zeros(64, dtype=np.int64)
    for t in toks:
        h = int.from_bytes(hashlib.md5(t.encode("utf-8")).digest()[:8], "little")
        bits = (h >> np.arange(64, dtype=np.uint64)) & np.uint64(1)
        acc += np.where(bits.astype(bool), 1, -1)
    out = 0
    for i in range(64):
        if acc[i] > 0:
            out |= 1 << i
    return out


def hamming64(a: int, b: int) -> int:
    return bin(a ^ b).count("1")
