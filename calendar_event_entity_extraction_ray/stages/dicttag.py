"""Multi-pattern dictionary tagging (lexicon / blocklist matching).

Training-data curation tags documents against phrase dictionaries —
topic lexicons, quality blocklists, PII trigger phrases — where the
dictionary can run to millions of entries. The operator emits one row
per (doc, phrase) PRESENCE pair (a phrase occurring anywhere as a
substring of the text, matching DuckDB's ``contains()``), fully
streaming: a pure flat-map with no shuffle.

Two regimes, pinned identical by tests (the repo's routing idiom —
see stages/dedup.py's bitset-vs-prefix precedent):

- **vector** (``len(phrases) <= small_dict_max``): one
  ``pyarrow.compute.match_substring`` pass per phrase — an Arrow
  kernel over the whole batch, zero Python per-row work. Cost is
  O(dict x batch-bytes); right while the dictionary is enum-sized.
- **automaton**: a per-worker-cached Aho-Corasick automaton built
  from the broadcast phrase list (``ray.put`` once; workers fetch the
  ObjectRef and build in ``__init__`` via the task-form instance
  cache). One O(len(text) + matches) scan per doc regardless of
  dictionary size — the only shape that survives a 10^6-phrase
  blocklist. The scan is a Python char loop: slower per byte than the
  Arrow kernel, but dictionary-size-INDEPENDENT; the router's
  crossover reflects that trade.

For dictionaries of whole-word-aligned phrases at corpus scale, the
hashed-gram machinery in stages/decontam.py (broadcast hash set or
gram exchange) is the faster word-aligned path; this stage exists for
arbitrary-substring semantics, which gram hashing cannot express.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import pyarrow as pa

import ray


def _build_aho(phrases: Sequence[str]):
    """Standard Aho-Corasick: goto tries (dict per node), BFS failure
    links, output lists merged through fail links. Returns
    (goto, fail, out) with node 0 the root."""
    goto: List[dict] = [{}]
    out: List[List[int]] = [[]]
    for idx, p in enumerate(phrases):
        cur = 0
        for ch in p:
            nxt = goto[cur].get(ch)
            if nxt is None:
                goto.append({})
                out.append([])
                nxt = len(goto) - 1
                goto[cur][ch] = nxt
            cur = nxt
        out[cur].append(idx)
    fail = [0] * len(goto)
    from collections import deque

    q = deque()
    for ch, nxt in goto[0].items():
        q.append(nxt)                      # depth-1 fail -> root
    while q:
        node = q.popleft()
        for ch, nxt in goto[node].items():
            q.append(nxt)
            f = fail[node]
            while f and ch not in goto[f]:
                f = fail[f]
            fail[nxt] = goto[f].get(ch, 0)
            if fail[nxt] == nxt:           # self-loop guard at root
                fail[nxt] = 0
            out[nxt].extend(out[fail[nxt]])
    return goto, fail, out


class AcTagger:
    """Per-worker automaton holder (task-form cached — built once per
    worker process, like actor ``__init__``)."""

    def __init__(self, phrases_ref, text_col: str, id_col: str):
        phrases = (ray.get(phrases_ref)
                   if isinstance(phrases_ref, ray.ObjectRef)
                   else list(phrases_ref))
        self.phrases = phrases
        self.goto, self.fail, self.out = _build_aho(phrases)
        self.text_col = text_col
        self.id_col = id_col

    def _scan(self, text: str) -> List[int]:
        goto, fail, out = self.goto, self.fail, self.out
        seen: set = set()
        cur = 0
        for ch in text:
            while cur and ch not in goto[cur]:
                cur = fail[cur]
            cur = goto[cur].get(ch, 0)
            if out[cur]:
                seen.update(out[cur])
        return sorted(seen)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids_out, tags_out = [], []
        id_vals = batch.column(self.id_col).to_pylist()
        for i, text in enumerate(batch.column(self.text_col).to_pylist()):
            for pid in self._scan(text or ""):
                ids_out.append(id_vals[i])
                tags_out.append(self.phrases[pid])
        return pa.table({
            self.id_col: pa.array(ids_out,
                                  batch.schema.field(self.id_col).type),
            "tag": pa.array(tags_out, pa.string()),
        })


def _vector_tag_batch(batch: pa.Table, *, phrases: Sequence[str],
                      text_col: str, id_col: str) -> pa.Table:
    import numpy as np
    import pyarrow.compute as pc

    text = batch.column(text_col)
    ids = batch.column(id_col)
    id_np = ids.to_numpy(zero_copy_only=False)
    ids_out, tags_out = [], []
    for p in phrases:
        mask = pc.fill_null(pc.match_substring(text, p), False)
        hit = id_np[mask.to_numpy(zero_copy_only=False)]
        if len(hit):
            ids_out.append(hit)
            tags_out.extend([p] * len(hit))
    if ids_out:
        id_arr = pa.array(np.concatenate(ids_out),
                          batch.schema.field(id_col).type)
    else:
        id_arr = pa.array([], batch.schema.field(id_col).type)
    out = pa.table({id_col: id_arr, "tag": pa.array(tags_out, pa.string())})
    # deterministic within-batch order (tests and the oracle compare sorted)
    return out.sort_by([(id_col, "ascending"), ("tag", "ascending")])


def tag_documents(
    ds: "ray.data.Dataset",
    phrases: Iterable[str],
    *,
    text_col: str = "text",
    id_col: str = "doc_id",
    mode: str = "auto",
    small_dict_max: int = 64,
) -> "ray.data.Dataset":
    """Emit (id_col, tag) presence pairs for every dictionary phrase
    occurring as a substring of ``text_col``. Presence semantics match
    DuckDB ``contains(text, phrase)`` exactly (oracle-checked).

    ``mode``: 'vector' | 'automaton' | 'auto' (route by dict size).
    Duplicate phrases in the dictionary are collapsed (one row per
    distinct (id, phrase)).
    """
    # de-dup while preserving a deterministic (sorted) phrase order
    plist = sorted(set(str(p) for p in phrases if p))
    if not plist:
        raise ValueError("tag_documents: empty phrase dictionary")
    if mode == "auto":
        mode = "vector" if len(plist) <= small_dict_max else "automaton"
    if mode == "vector":
        return ds.map_batches(
            _vector_tag_batch, batch_format="pyarrow", batch_size=None,
            fn_kwargs={"phrases": plist, "text_col": text_col,
                       "id_col": id_col})
    if mode != "automaton":
        raise ValueError(f"mode={mode!r}")
    from .taskform import put_by_content, run_stage

    # memoized by content: repeated calls with the same dictionary reuse
    # the per-worker automaton (~1.5 s/worker at 50k phrases — the
    # dominant one-time cost, see scripts/scale.py dicttag)
    ref = put_by_content(plist)
    return ds.map_batches(
        run_stage, batch_format="pyarrow", batch_size=None,
        fn_kwargs={"_cls": AcTagger, "phrases_ref": ref,
                   "text_col": text_col, "id_col": id_col})
