"""Text-analysis operators over a documents table: token counting,
language-ID, fingerprinting, document frequency and term co-occurrence.

Arrow-native kernels inside ``map_batches`` (``batch_format="pyarrow"``,
zero-copy out of the object store). The token kernels use explicit
regex definitions evaluated by Arrow's RE2 — the same engine DuckDB uses —
so the oracle SQL in ``__ray_entry__.oracle_sql`` is bit-identical by
construction; names and formulas must stay in sync with those SQL strings.
langid/fingerprint/repetition wrap per-row Python functions (documented
cold-path loops); their wrappers still take/return Arrow so the non-text
columns never round-trip through pandas.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from calendar_event_entity_extraction_ray.functions.textstats import (
    detect_lang,
    rolling_fingerprint,
)

_BPE_PATTERN = r"[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]"


def _count_re(text: "pa.ChunkedArray | pa.Array", pattern: str) -> pa.Array:
    """count_substring_regex with nulls -> 0, widened to int64."""
    c = pc.count_substring_regex(text, pattern)
    return pc.cast(pc.fill_null(c, 0), pa.int64())


def token_count_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    r"""whitespace tokens + BPE-ish tokens per doc — two RE2 count kernels
    per batch; ``\S+`` match count == trim+split-on-whitespace length."""
    text = batch.column(text_col)
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "n_tokens_ws": _count_re(text, r"\S+"),
        "n_tokens_bpe": _count_re(text, _BPE_PATTERN),
    })


def langid_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "pred_lang": pa.array(
            [detect_lang(t) for t in batch.column(text_col).to_pylist()],
            pa.string()),
    })


def fingerprint_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    return pa.table({
        "doc_id": batch.column("doc_id"),
        "fingerprint": pa.array(
            [rolling_fingerprint(t)
             for t in batch.column(text_col).to_pylist()]),
    })


def repetition_batch(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id") -> pa.Table:
    """Gopher-style INTRA-document repetition signals per doc: the count of
    the most frequent word bigram, total bigrams, and distinct bigrams —
    exact integers (the fractions top/total and 1 - distinct/total are left
    to the reader, like grouped_regression's moments, so the oracle compare
    is bit-exact). Tokens are ``text.split(' ')`` with empties kept ==
    DuckDB ``string_split(text, ' ')``; docs with < 2 tokens emit no row
    (the SQL's ``len(ws) >= 2`` guard). Pure per-batch map — corpus-scale
    safe, nothing shuffles."""
    from collections import Counter

    ids, tops, tots, dists = [], [], [], []
    for i, txt in zip(batch.column(id_col).to_pylist(),
                      batch.column(text_col).to_pylist()):
        if not isinstance(txt, str):
            continue
        ws = txt.split(" ")
        if len(ws) < 2:
            continue
        c = Counter(zip(ws, ws[1:]))
        ids.append(i)
        tops.append(max(c.values()))
        tots.append(len(ws) - 1)
        dists.append(len(c))
    return pa.table({
        id_col: pa.array(ids, pa.int64()),
        "top_bigram_n": pa.array(tops, pa.int64()),
        "n_bigrams": pa.array(tots, pa.int64()),
        "n_distinct_bigrams": pa.array(dists, pa.int64()),
    })


def term_document_frequency(
    ds: "ray.data.Dataset", text_col: str = "text", top_n: int = 50
) -> "ray.data.Dataset":
    """Corpus vocabulary by document frequency (the df side of TF-IDF):
    per-doc DISTINCT space-split terms explode to rows, then the salted
    two-phase grouped count — the shuffle moves per-batch (term, partial)
    rows bounded by the batch vocabulary, not one row per occurrence.
    Returns the top ``top_n`` terms by (df DESC, term ASC). Tokenization
    is exactly ``str.split(' ')`` (empty tokens kept) so a DuckDB
    ``string_split`` oracle reproduces it byte-for-byte."""
    import pyarrow as pa

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    def explode_distinct(b: pa.Table) -> pa.Table:
        words: list = []
        for t in b.column(text_col).to_pylist():
            if t is None:
                continue
            words.extend(set(t.split(" ")))
        return pa.table({"term": pa.array(words, pa.string())})

    ex = ds.map_batches(explode_distinct, batch_format="pyarrow")
    counts = grouped_count(ex, "term", out_col="df")
    return counts.sort(["df", "term"], descending=[True, False]).limit(top_n)


def inverted_index(
    ds: "ray.data.Dataset",
    text_col: str = "text",
    id_col: str = "doc_id",
    max_postings: int = 1000,
) -> "ray.data.Dataset":
    """Build an inverted index: one row per term with its exact document
    frequency and the first ``max_postings`` doc ids ascending
    (comma-joined). Tokenization is exactly ``str.split(" ")`` (empty
    tokens kept, NULL text skipped) — the DuckDB ``string_split`` +
    ``list(doc_id ORDER BY doc_id)`` oracle reproduces it byte-for-byte.

    Scale shape: the per-batch partial groups (term, partial-df, the
    batch's ``max_postings`` SMALLEST ids) — a valid partial top-k, so
    the exchange moves at most batch-vocabulary x cap rows, never one
    row per posting occurrence; the term-keyed fold merges partials per
    term. The cap is the standard posting-list valve (uncapped stopword
    lists ARE the corpus at web scale); df stays exact regardless."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_hash_column,
    )
    from calendar_event_entity_extraction_ray.stages.exchange import (
        hash_partition_map,
    )

    def partial(b: pa.Table) -> pa.Table:
        ids: list = []
        terms: list = []
        for i, t in zip(b.column(id_col).to_pylist(),
                        b.column(text_col).to_pylist()):
            if t is None:
                continue
            for w in set(t.split(" ")):
                ids.append(i)
                terms.append(w)
        df = pd.DataFrame({"term": terms, "_id": ids})
        g = df.groupby("term", dropna=False)["_id"].agg(
            n="size", ids=lambda s: sorted(s)[:max_postings])
        out = pa.Table.from_pandas(g.reset_index(), preserve_index=False)
        return add_hash_column(out, ["term"], "part_key")

    def fold(t: pa.Table) -> pa.Table:
        df = t.to_pandas()
        g = df.groupby("term", dropna=False).agg(
            df=("n", "sum"),
            ids=("ids", lambda s: sorted(
                np.concatenate(list(s)).tolist())[:max_postings]))
        g = g.reset_index()
        postings = [",".join(str(i) for i in lst) for lst in g["ids"]]
        return pa.table({
            "term": pa.array(g["term"], pa.string()),
            "df": pa.array(g["df"].astype("int64")),
            "postings": pa.array(postings, pa.string()),
        })

    ex = ds.map_batches(partial, batch_format="pyarrow")
    return hash_partition_map(ex, "part_key", fold)


def pmi_term_pairs(
    ds: "ray.data.Dataset", text_col: str = "text", top_n: int = 30,
) -> pd.DataFrame:
    """Pointwise mutual information between top-df term pairs — the
    classic term-association miner (collocation / topic-pair discovery).

    pmi(a, b) = ln(P(a,b) / (P(a) P(b))) = ln(df_ab * n / (df_a * df_b))
    over per-doc DISTINCT terms (presence, not frequency). The pair space
    is bounded to the ``top_n`` highest-df terms, so the corpus-sized
    work is two bounded passes:

      1. ``term_document_frequency`` (salted grouped count) for the
         top-``top_n`` vocabulary — broadcast as a tiny index dict;
      2. one explode pass emitting per-batch PRE-AGGREGATED pair
         partials (a bincount over top_n^2 pair ids — at most
         C(top_n, 2) rows per batch regardless of batch size), stream-
         reduced (bounded cardinality; CLAUDE.md's stream_reduce rule).

    The final PMI arithmetic runs driver-side on <= C(top_n, 2) rows.
    Tokenization is ``str.split(' ')`` and pair order is lexicographic
    (term_a < term_b), matching the DuckDB string_split / ``<`` oracle
    byte-for-byte; pmi_e6 uses the oracle's association order
    ``ln(df_ab * n / (df_a * df_b))`` so the double chain is
    bit-identical (CLAUDE.md numeric-parity rules)."""
    import numpy as np

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )

    top = term_document_frequency(ds, text_col, top_n).to_pandas()
    terms = top["term"].tolist()
    dfs = top["df"].astype("int64").to_numpy()
    n_docs = ds.count()
    n_terms = len(terms)
    index = {t: i for i, t in enumerate(terms)}   # tiny: <= top_n entries

    def pair_partials(b: pa.Table, *, _index=index, _n=n_terms) -> pa.Table:
        counts = np.zeros(_n * _n, dtype=np.int64)
        for t in b.column(text_col).to_pylist():
            if t is None:
                continue
            present = sorted({_index[w] for w in set(t.split(" "))
                              if w in _index})
            m = len(present)
            if m < 2:
                continue
            arr = np.asarray(present, dtype=np.int64)
            ii, jj = np.triu_indices(m, k=1)
            np.add.at(counts, arr[ii] * _n + arr[jj], 1)
        nz = np.flatnonzero(counts)
        return pa.table({"pair_id": pa.array(nz, pa.int64()),
                         "n_pair": pa.array(counts[nz])})

    partials = ds.map_batches(pair_partials, batch_format="pyarrow",
                              batch_size=None)
    pairs = grouped_sums(partials, key_cols=["pair_id"],
                         sum_cols=["n_pair"],
                         stream_reduce=True).to_pandas()
    if pairs.empty:
        return pd.DataFrame({"term_a": pd.Series(dtype=object),
                             "term_b": pd.Series(dtype=object),
                             "df_ab": pd.Series(dtype="int64"),
                             "pmi_e6": pd.Series(dtype="int64")})
    pid = pairs["pair_id"].to_numpy()
    i, j = pid // n_terms, pid % n_terms
    df_ab = pairs["n_pair"].astype("int64").to_numpy()
    # oracle association order: (df_ab * n) / (df_a * df_b)
    pmi = np.log(df_ab.astype(np.float64) * float(n_docs)
                 / (dfs[i].astype(np.float64) * dfs[j].astype(np.float64)))
    pmi_e6 = np.floor(pmi * 1_000_000 + 0.5).astype(np.int64)
    name_i = np.asarray(terms, dtype=object)[i]
    name_j = np.asarray(terms, dtype=object)[j]
    # lexicographic pair order (index order is df-rank order)
    term_a = np.minimum(name_i, name_j)
    term_b = np.maximum(name_i, name_j)
    return pd.DataFrame({"term_a": term_a, "term_b": term_b,
                         "df_ab": df_ab, "pmi_e6": pmi_e6})
