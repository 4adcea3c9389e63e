"""Text-corpus queries over ``documents``: dedup, splits, tokenizers,
quality and LM scoring, decontamination, packing, sampling and retrieval.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data
from ray.data.aggregate import Count, Max, Min, Sum

from calendar_event_entity_extraction_ray.catalog import (
    _golden, _int64, _read, query,
)
from calendar_event_entity_extraction_ray.functions.inthash import (
    shuffle_key32_sql,
)

# oracle-SQL fragments: the md5 split bucket, the normalised-text
# signature and the shuffle key, bit-identical to the kernels
bucket = ("CAST(('0x' || substr(md5({col}), 1, 8)) AS BIGINT) % 10000")
split_case = (
    "CASE WHEN " + bucket.format(col="text") + " < 7500 THEN 'train' "
    "WHEN " + bucket.format(col="text") + " < 9000 THEN 'eval' "
    "ELSE 'test' END"
)
sig = "lower(trim(regexp_replace(text, '\\s+', ' ', 'g')))"
skey = shuffle_key32_sql("doc_id", 42)


@query("doc_stats", """
    SELECT COUNT(*) AS n_rows,
           CAST(SUM(length(text)) AS BIGINT) AS sum_chars,
           MIN(length(text)) AS min_chars,
           MAX(length(text)) AS max_chars,
           CAST((SUM(length(text)) * 100) // COUNT(*) AS BIGINT) AS avg_chars_x100
    FROM documents
""")
def q_doc_stats(sf_dir: str) -> Any:
    """analyze_dataset analogue (prepare_assignment_data.py:64-102)."""
    ds = _read(sf_dir, "documents", columns=["text"])

    def lens(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"len": pc.cast(pc.utf8_length(b.column("text")), pa.int64())})

    agg = ds.map_batches(lens, batch_format="pyarrow").aggregate(
        Count(alias_name="n_rows"), Sum("len", alias_name="sum_chars"),
        Min("len", alias_name="min_chars"), Max("len", alias_name="max_chars"),
    )
    n, s = int(agg["n_rows"]), int(agg["sum_chars"])
    return pd.DataFrame([{
        "n_rows": n, "sum_chars": s,
        "min_chars": int(agg["min_chars"]), "max_chars": int(agg["max_chars"]),
        "avg_chars_x100": (s * 100) // n,
    }])


@query("lang_histogram", "SELECT lang, COUNT(*) AS n FROM documents WHERE lang IS NOT NULL GROUP BY lang")
def q_lang_histogram(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count

    ds = _read(sf_dir, "documents", columns=["lang"])
    return _int64(grouped_count(ds, "lang", out_col="n"), ["n"])


@query("dedup_documents", """
    SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY text
""")
def q_dedup_documents(sf_dir: str) -> Any:
    """Exact first-wins dedup on text (utils.py:36-46 semantics; first =
    smallest doc_id). Returns surviving doc_ids."""
    from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return exact_dedup(ds, ["text"], "doc_id").select_columns(["doc_id"])


@query("dedup_signature", f"""
    SELECT MIN(doc_id) AS doc_id FROM documents GROUP BY {sig}
""", bench=True)
def q_dedup_signature(sf_dir: str) -> Any:
    """Dedup on the normalized text signature (augmentors.py:44-48)."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        event_text_signature,
    )
    from calendar_event_entity_extraction_ray.stages.dedup import exact_dedup

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def sig(b: pa.Table) -> pa.Table:
        return b.append_column(
            "sig", pa.array([event_text_signature(t) for t in
                             b.column("text").to_pylist()], pa.string()))

    sigged = ds.map_batches(sig, batch_format="pyarrow")
    return exact_dedup(sigged, ["sig"], "doc_id").select_columns(["doc_id"])


@query("split_counts", f"""
    SELECT {split_case} AS split, COUNT(*) AS n FROM documents GROUP BY 1
""")
def q_split_counts(sf_dir: str) -> Any:
    """Hash 75/15/10 split assignment counts (md5-bucket, SQL-checkable)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import grouped_count
    from calendar_event_entity_extraction_ray.stages.split import assign_split_batch

    ds = _read(sf_dir, "documents", columns=["text"])
    with_split = ds.map_batches(
        lambda b: assign_split_batch(b, text_col="text"), batch_format="pyarrow"
    )
    return _int64(grouped_count(with_split, "split", out_col="n"), ["n"])


@query("split_leakage", f"""
    WITH tagged AS (
      SELECT doc_id, text, {split_case} AS split, {sig} AS sig
      FROM documents
    ),
    train_sigs AS (SELECT DISTINCT sig FROM tagged WHERE split = 'train'),
    eval_kept AS (
      SELECT doc_id, split, sig FROM tagged
      WHERE split = 'eval' AND sig NOT IN (SELECT sig FROM train_sigs)
    ),
    test_kept AS (
      SELECT doc_id, split, sig FROM tagged
      WHERE split = 'test'
        AND sig NOT IN (SELECT sig FROM train_sigs)
        AND sig NOT IN (SELECT sig FROM eval_kept)
    )
    SELECT doc_id, split FROM eval_kept
    UNION ALL SELECT doc_id, split FROM test_kept
""")
def q_split_leakage(sf_dir: str) -> Any:
    """eval/test doc_ids surviving the leakage anti-join (augmentors.py:64-78
    precedence train > eval > test) under the hash split."""
    from calendar_event_entity_extraction_ray.stages.split import (
        assign_split_batch,
        drop_split_leakage,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    with_split = ds.map_batches(
        lambda b: assign_split_batch(b, text_col="text"), batch_format="pyarrow"
    )
    parts = drop_split_leakage(with_split, text_col="text")
    ev = parts["eval"].select_columns(["doc_id", "split"])
    te = parts["test"].select_columns(["doc_id", "split"])
    return ev.union(te)


@query("token_counts", r"""
    SELECT doc_id,
           CASE WHEN trim(text) = '' THEN 0
                ELSE array_length(regexp_split_to_array(trim(text), '\s+'))
           END AS n_tokens_ws,
           length(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^\sA-Za-z0-9]')) AS n_tokens_bpe
    FROM documents
""", bench=True)
def q_token_counts(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        token_count_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(token_count_batch, batch_format="pyarrow")


@query("quality_scores", r"""
    SELECT doc_id,
           length(text) AS n_chars,
           (length(regexp_replace(text, '[^A-Za-z]', '', 'g')) * 1000000)
               // greatest(length(text), 1) AS alpha_ppm,
           (length(regexp_replace(text, '[^0-9]', '', 'g')) * 1000000)
               // greatest(length(text), 1) AS digit_ppm,
           (length(regexp_extract_all(text, '[^A-Za-z0-9\s]')) * 1000000)
               // greatest(length(text), 1) AS punct_ppm
    FROM documents
""", bench=True)
def q_quality(sf_dir: str) -> Any:
    """Quality features as exact integer ppm ratios."""
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def prep(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        from calendar_event_entity_extraction_ray.stages.text_analysis import (
            _count_re,
        )

        text = b.column("text")
        n = pc.cast(pc.fill_null(pc.utf8_length(text), 0),
                    pa.int64()).to_numpy()
        alpha = _count_re(text, r"[A-Za-z]").to_numpy()
        digit = _count_re(text, r"[0-9]").to_numpy()
        punct = _count_re(text, r"[^A-Za-z0-9\s]").to_numpy()
        nz = np.maximum(n, 1)
        return pa.table({
            "doc_id": b.column("doc_id"),
            "n_chars": pa.array(n),
            "alpha_ppm": pa.array((alpha * 1_000_000) // nz),
            "digit_ppm": pa.array((digit * 1_000_000) // nz),
            "punct_ppm": pa.array((punct * 1_000_000) // nz),
        })

    return ds.map_batches(prep, batch_format="pyarrow")


@query("minhash_dedup_docs", f"SELECT * FROM {_golden('minhash_dedup_docs')}", bench=True)
def q_minhash_dedup(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.dedup import minhash_lsh_dup_ids

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return minhash_lsh_dup_ids(ds, "text", "doc_id", threshold=0.8)


@query("doc_sample", """
    SELECT doc_id FROM documents
    WHERE text IS NOT NULL
      AND CAST(('0x' || substr(md5(text), 1, 8)) AS BIGINT) % 100 < 5
""")
def q_doc_sample(sf_dir: str) -> Any:
    """Deterministic 5% sample by md5 text bucket — the scalable,
    re-runnable replacement for ``ds.random_sample`` (same rows on every
    run and every partitioning; SQL-checkable via the md5 parity)."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def sample(b: pa.Table) -> pa.Table:
        keep = [t is not None and stable_bucket(t, 100) < 5
                for t in b.column("text").to_pylist()]
        return b.filter(pa.array(keep, pa.bool_())).select(["doc_id"])

    return ds.map_batches(sample, batch_format="pyarrow")


@query("corpus_clean", f"SELECT * FROM {_golden('corpus_clean')}", bench=True)
def q_corpus_clean(sf_dir: str) -> Any:
    """Composed corpus-cleanup pipeline (quality filter -> langid filter ->
    exact dedup -> MinHash near-dup anti-join): surviving doc_ids."""
    from calendar_event_entity_extraction_ray.pipelines.corpus import (
        corpus_clean,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return corpus_clean(ds).select_columns(["doc_id"])


@query("jaccard_pairs_docs", f"SELECT * FROM {_golden('jaccard_pairs_docs')}", bench=True)
def q_jaccard_pairs(sf_dir: str) -> Any:
    """EXACT char-3-gram Jaccard >= 0.6 pairs via prefix filtering — the
    oracle is a brute-force all-pairs recompute, so this checks that the
    prefix-filter candidate generation misses nothing."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        ngram_jaccard_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ngram_jaccard_pairs(ds, "text", "doc_id", threshold=0.6, n=3)


@query("simhash_docs", f"SELECT * FROM {_golden('simhash_docs')}")
def q_simhash(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.dedup import add_simhash_column

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(
        lambda b: add_simhash_column(b, "text"), batch_format="pyarrow"
    ).select_columns(["doc_id", "simhash"])


@query("langid_docs", f"SELECT * FROM {_golden('langid_docs')}")
def q_langid(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.text_analysis import langid_batch

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(langid_batch, batch_format="pyarrow")


@query("fingerprint_docs", f"SELECT * FROM {_golden('fingerprint_docs')}")
def q_fingerprint(sf_dir: str) -> Any:
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        fingerprint_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


@query("levenshtein_pairs_docs", """
    SELECT a.doc_id AS doc_id_a, b.doc_id AS doc_id_b,
           CAST(levenshtein(a.text, b.text) AS BIGINT) AS dist
    FROM documents a, documents b
    WHERE a.doc_id < b.doc_id
      AND abs(length(a.text) - length(b.text)) <= 15
      AND levenshtein(a.text, b.text) <= 15
""", bench=True)
def q_levenshtein_pairs(sf_dir: str) -> Any:
    """Edit-distance near-dup pairs (stages/editdist.py): EXACT
    levenshtein <= 15 over all document pairs via lossless length
    banding + char-bag prune + Myers bit-parallel distance. Oracle is
    DuckDB's own levenshtein() over the length-filtered self-join."""
    from calendar_event_entity_extraction_ray.stages.editdist import (
        levenshtein_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = levenshtein_pairs(ds, max_d=15)
    return _int64(out.to_pandas(), ["doc_id_a", "doc_id_b", "dist"])


@query("split_lang_kl", f"""
    WITH tagged AS (SELECT lang, {split_case} AS split
                    FROM documents),
    c AS (SELECT lang,
                 COUNT(*) FILTER (split = 'train') AS n1,
                 COUNT(*) FILTER (split = 'eval') AS n2
          FROM tagged GROUP BY lang),
    t AS (SELECT CAST(SUM(n1) AS DOUBLE) AS t1,
                 CAST(SUM(n2) AS DOUBLE) AS t2 FROM c)
    SELECT lang,
           CAST(FLOOR((CAST(n1 AS DOUBLE) / t1)
                * ln((CAST(n1 AS DOUBLE) / t1)
                     / (CAST(n2 AS DOUBLE) / t2))
                * 1e9 + 0.5) AS BIGINT) AS kl_term_e9
    FROM c, t WHERE n1 > 0 AND n2 > 0
""")
def q_split_lang_kl(sf_dir: str) -> Any:
    """Distribution-shift diagnostic between hash splits: per-language
    KL(train || eval) contribution terms. One distributed (split, lang)
    count on the exchange (15 partial rows per batch), then the
    bounded driver fold computes p*ln(p/q) per language — the exact
    double op order is mirrored in the SQL oracle, so floor(x*1e9+0.5)
    is bit-stable on both sides (the tf*ln(N/df) parity recipe)."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.split import (
        assign_split_batch,
    )

    ds = _read(sf_dir, "documents", columns=["text", "lang"])
    tagged = ds.map_batches(
        lambda b: assign_split_batch(b, text_col="text").select(
            ["split", "lang"]),
        batch_format="pyarrow")
    counts = grouped_sums(tagged, key_cols=["split", "lang"],
                          sum_cols=[], count_alias="n").to_pandas()

    n1 = counts[counts["split"] == "train"].set_index("lang")["n"]
    n2 = counts[counts["split"] == "eval"].set_index("lang")["n"]
    t1, t2 = float(n1.sum()), float(n2.sum())
    rows = []
    for lang in sorted(set(n1.index) & set(n2.index)):
        p = float(n1[lang]) / t1
        q_ = float(n2[lang]) / t2
        term = p * math.log(p / q_)
        rows.append({"lang": lang,
                     "kl_term_e9": int(math.floor(term * 1e9 + 0.5))})
    return pd.DataFrame(rows)


@query("chunk_docs", """
    WITH toks AS (
        SELECT doc_id, string_split(text, ' ') AS t
        FROM documents
    )
    SELECT doc_id,
           CAST(s AS BIGINT) AS start,
           CAST(least(64, len(t) - s) AS BIGINT) AS n_tok,
           array_to_string(list_slice(t, s + 1, s + 64),
                           ' ') AS chunk
    FROM toks, unnest(generate_series(0, len(t) - 1, 48)) AS u(s)
""")
def q_chunk_docs(sf_dir: str) -> Any:
    """Training-window chunking: split each document into 64-token
    windows with stride 48 (the LLM-pretraining context-packing shape) —
    a pure flat-map, no shuffle. Token rule = split(' ') (empties kept),
    which DuckDB's string_split mirrors exactly, so the oracle slices
    lists in SQL."""
    W, S = 64, 48
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(b: pa.Table) -> pa.Table:
        ids, starts, ntoks, texts = [], [], [], []
        for did, txt in zip(b.column("doc_id").to_pylist(),
                            b.column("text").to_pylist()):
            toks = (txt or "").split(" ")
            for s in range(0, len(toks), S):
                w = toks[s:s + W]
                ids.append(did)
                starts.append(s)
                ntoks.append(len(w))
                texts.append(" ".join(w))
        return pa.table({
            "doc_id": pa.array(ids, pa.int64()),
            "start": pa.array(starts, pa.int64()),
            "n_tok": pa.array(ntoks, pa.int64()),
            "chunk": pa.array(texts, pa.string()),
        })

    return ds.map_batches(chunks, batch_format="pyarrow")


@query("shuffle_docs", f"""
    SELECT doc_id,
           CAST(ROW_NUMBER() OVER (
               ORDER BY {skey}, doc_id) AS BIGINT) AS shuffle_pos
    FROM documents
""", bench=True)
def q_shuffle_docs(sf_dir: str) -> Any:
    """Deterministic epoch shuffle (training-data reordering): every doc
    gets a seeded pseudo-random global position — the vectorized 32-bit
    avalanche key (functions/inthash.py, bit-identical in DuckDB BIGINT
    arithmetic, so the oracle needs no per-row md5) ranked by the
    range-partitioned sort (stages/sort.py), so the permutation is
    reproducible at ANY partitioning and resumable — unlike
    ``random_shuffle()``, which is neither. Output partition k holds
    positions (offset_k, offset_{k+1}]: exactly the layout a sharded
    training loader wants."""
    from calendar_event_entity_extraction_ray.functions.inthash import (
        shuffle_key32,
    )
    from calendar_event_entity_extraction_ray.stages.sort import (
        global_row_number,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id"])

    def key(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_numpy(zero_copy_only=False)
        return pa.table({"doc_id": b.column("doc_id"),
                         "skey": pa.array(shuffle_key32(ids, 42))})

    out = global_row_number(docs.map_batches(key, batch_format="pyarrow"),
                            "skey", tiebreak_cols=["doc_id"],
                            out_col="shuffle_pos")
    return out.map_batches(
        lambda b: b.select(["doc_id", "shuffle_pos"]),
        batch_format="pyarrow")


@query("top_docs_per_source", """
    SELECT source, doc_id, n_chars, rnk FROM (
      SELECT source, doc_id, n_chars,
             ROW_NUMBER() OVER (PARTITION BY source
                                ORDER BY n_chars DESC, doc_id) AS rnk
      FROM documents)
    WHERE rnk <= 3
""")
def q_top_docs_per_source(sf_dir: str) -> Any:
    """Per-group top-k (best-N-docs-per-source shape): local per-batch
    top-k prunes the exchange to <= k rows per group per batch."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        top_k_per_group,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])
    out = top_k_per_group(ds, "source", "n_chars", 3, "doc_id")
    return out.map_batches(
        lambda b: b.select(["source", "doc_id", "n_chars", "rnk"]),
        batch_format="pyarrow")


@query("stratified_sample_docs", "SELECT doc_id, lang FROM documents WHERE text IS NOT NULL AND "
    + bucket.format(col="text").replace("% 10000", "% 100")
    + " < CASE WHEN lang = 'en' THEN 5 ELSE 20 END")
def q_stratified_sample(sf_dir: str) -> Any:
    """Stratified deterministic sample: per-lang rates (en 5%, else 20%)
    over the md5 text bucket — re-runnable at any partitioning, no
    group-size pre-pass, SQL-reproducible."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "lang", "text"])

    def sample(b: pa.Table) -> pa.Table:
        keep = []
        for lang, t in zip(b.column("lang").to_pylist(),
                           b.column("text").to_pylist()):
            rate = 5 if lang == "en" else 20
            keep.append(t is not None and stable_bucket(t, 100) < rate)
        return b.filter(pa.array(keep, pa.bool_())).select(
            ["doc_id", "lang"])

    return ds.map_batches(sample, batch_format="pyarrow")


@query("term_df_top50", """
    SELECT term, CAST(COUNT(*) AS BIGINT) AS df FROM (
      SELECT DISTINCT doc_id,
             unnest(string_split(text, ' ')) AS term
      FROM documents WHERE text IS NOT NULL)
    GROUP BY term ORDER BY df DESC, term LIMIT 50
""")
def q_term_df(sf_dir: str) -> Any:
    """Corpus vocabulary: top-50 terms by document frequency (the df side
    of TF-IDF) — per-doc distinct explode + pre-aggregated grouped count."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        term_document_frequency,
    )

    ds = _read(sf_dir, "documents", columns=["text"])
    return _int64(term_document_frequency(ds, "text", top_n=50).to_pandas(),
                  ["df"])


@query("model_scored_docs", f"SELECT doc_id, score_e6 FROM {_golden('model_scored_docs')}", bench=True)
def q_model_scored_docs(sf_dir: str) -> Any:
    """Model-hosted inference demo: a 256 MB seed-generated weight matrix
    loaded ONCE per actor (stages/model_stage.py — the reference's
    src/infer.py:135-147 model.generate shape), batched vectorized
    scoring, pool bounded at 4 actors with memory= declared to the
    scheduler. Oracle = single-process run of the same class."""
    from calendar_event_entity_extraction_ray.stages.model_stage import (
        score_documents,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return score_documents(ds)


@query("docs_above_p90", """
    SELECT doc_id FROM documents
    WHERE n_chars > (SELECT quantile_disc(n_chars, 0.9)
                     FROM documents)
""")
def q_docs_above_p90(sf_dir: str) -> Any:
    """Quantile-filter composition: docs longer than the corpus's exact
    P90 length — exact_quantiles feeds a broadcast scalar into a
    streamed filter (the percentile-based quality-filter shape)."""
    from calendar_event_entity_extraction_ray.stages.quantiles import (
        exact_quantiles,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    (_, p90), = exact_quantiles(ds, "n_chars", [0.9], bins=512,
                                collect_cap=100_000)
    return ds.filter(expr=f"n_chars > {int(p90)}").select_columns(
        ["doc_id"])


@query("tfidf_top_terms", """
    WITH words AS (
      SELECT doc_id, unnest(string_split(text, ' ')) AS term
      FROM documents WHERE text IS NOT NULL),
    tf AS (SELECT doc_id, term, COUNT(*) AS tf
           FROM words GROUP BY doc_id, term),
    df AS (SELECT term, COUNT(DISTINCT doc_id) AS df
           FROM words GROUP BY term),
    n AS (SELECT COUNT(*) AS nn FROM documents),
    scored AS (
      SELECT tf.doc_id, tf.term,
             tf.tf * ln(CAST(nn AS DOUBLE) / df.df) AS score
      FROM tf JOIN df USING (term) CROSS JOIN n),
    ranked AS (
      SELECT doc_id, term,
             ROW_NUMBER() OVER (PARTITION BY doc_id
                                ORDER BY score DESC, term) AS rnk
      FROM scored)
    SELECT doc_id, term, rnk FROM ranked WHERE rnk <= 3
""")
def q_tfidf_top_terms(sf_dir: str) -> Any:
    """TF-IDF composition: per-doc top-3 terms by tf * ln(N/df). The df
    table (vocabulary-bounded) folds from per-batch distinct-term
    partials and broadcasts via ray.put; scoring + per-doc top-k run
    vectorized per batch. Score arithmetic (double tf * ln(N/df)) is
    bit-identical to the SQL oracle; exact ties break on term ASC."""
    import math as _math

    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.materialize()   # consumed 3x: count, df pass, scoring pass
    n_docs = ds.count()

    def explode_distinct(b: pa.Table) -> pa.Table:
        words: list = []
        for t in b.column("text").to_pylist():
            if t is not None:
                words.extend(set(t.split(" ")))
        return pa.table({"term": pa.array(words, pa.string())})

    df_map = {}
    for b in grouped_count(
            ds.map_batches(explode_distinct, batch_format="pyarrow"),
            "term", out_col="df").iter_batches(batch_format="pyarrow", batch_size=None):
        for term, df_ in zip(b.column("term").to_pylist(),
                             b.column("df").to_pylist()):
            df_map[term] = df_
    df_ref = _ray.put(df_map)

    def score(b: pa.Table) -> pa.Table:
        from collections import Counter

        dfm = _ray.get(df_ref)
        out_id, out_term, out_rnk = [], [], []
        for i, t in zip(b.column("doc_id").to_pylist(),
                        b.column("text").to_pylist()):
            if t is None:
                continue
            tf = Counter(t.split(" "))
            scored = sorted(
                ((-(cnt * _math.log(n_docs / dfm[w])), w)
                 for w, cnt in tf.items()),
            )[:3]
            for r, (_, w) in enumerate(scored, 1):
                out_id.append(i)
                out_term.append(w)
                out_rnk.append(r)
        return pa.table({"doc_id": pa.array(out_id, pa.int64()),
                         "term": pa.array(out_term, pa.string()),
                         "rnk": pa.array(out_rnk, pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow")


@query("doc_len_cume", """
    SELECT doc_id,
           CAST(FLOOR(CUME_DIST() OVER (ORDER BY n_chars)
                * 10000 + 0.5) AS BIGINT) AS cume_e4
    FROM documents
""")
def q_doc_len_cume(sf_dir: str) -> Any:
    """CUME_DIST over document lengths: the global value-rank transform.
    A value-count table (bounded by DISTINCT lengths, not rows) folds
    from per-batch partials, broadcasts via ray.put, and each batch
    assigns cume = count(v' <= v)/n with one vectorized searchsorted —
    a two-pass transform, no global sort. Exact rational k/n in double
    matches SQL CUME_DIST bit-for-bit."""
    import math

    import numpy as np
    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])
    ds = ds.materialize()   # consumed twice: value counts + assignment

    counts = grouped_count(ds, "n_chars", out_col="n").to_pandas()
    counts = counts.sort_values("n_chars")
    values = counts["n_chars"].to_numpy(dtype=np.int64)
    cum = counts["n"].to_numpy(dtype=np.int64).cumsum()
    total = int(cum[-1]) if len(cum) else 0
    table_ref = _ray.put((values, cum))

    def assign(b: pa.Table) -> pa.Table:
        vals, cums = _ray.get(table_ref)
        v = b.column("n_chars").to_numpy()
        k = cums[np.searchsorted(vals, v, side="left")]
        cume = k.astype(np.float64) / total
        return pa.table({
            "doc_id": b.column("doc_id"),
            "cume_e4": pa.array(
                [int(math.floor(c * 10_000 + 0.5)) for c in cume],
                pa.int64()),
        })

    return ds.map_batches(assign, batch_format="pyarrow")


@query("regex_extract_docs", """
    SELECT doc_id, regexp_extract(text, '[a-z]{8,}')
               AS first_long_word
    FROM documents
""")
def q_regex_extract(sf_dir: str) -> Any:
    """regexp_extract parity: first >=8-letter lowercase word per doc,
    compiled ONCE per worker (re.compile cached at module import), empty
    string on no match (DuckDB regexp_extract convention). Simple
    character-class patterns behave identically under Python re and
    DuckDB's RE2 — stick to that subset for oracle-checked extracts."""
    import re

    pat = re.compile(r"[a-z]{8,}")
    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def extract(b: pa.Table) -> pa.Table:
        out = []
        for t in b.column("text").to_pylist():
            m = pat.search(t or "")
            out.append(m.group(0) if m else "")
        return pa.table({"doc_id": b.column("doc_id"),
                         "first_long_word": pa.array(out, pa.string())})

    return ds.map_batches(extract, batch_format="pyarrow")


@query("mix_sources", """
    WITH k AS (
        SELECT doc_id, source,
               CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                    1, 8)) AS BIGINT) AS mix_key
        FROM documents WHERE source IS NOT NULL),
    r AS (
        SELECT doc_id, source,
               ROW_NUMBER() OVER (PARTITION BY source
                   ORDER BY mix_key DESC, doc_id) AS rnk,
               COUNT(*) OVER (PARTITION BY source) AS n_src
        FROM k)
    SELECT doc_id, source, CAST(rnk AS BIGINT) AS rnk
    FROM r WHERE rnk <= CAST(FLOOR(SQRT(n_src)) AS BIGINT)
""", bench=True)
def q_mix_sources(sf_dir: str) -> Any:
    """Temperature-scaled source mixing — the pretraining-mix
    downsampler (XLM-R/mT5-style alpha-temperature over sources, here
    alpha=0.5): per-source quota = floor(sqrt(n_source)) docs, selected
    by a deterministic md5 key so the sample is reproducible and
    oracle-checkable (per-row md5 is the documented DuckDB-parity
    exception). One tiny grouped count sizes the quotas driver-side
    (sources are enum-cardinality), then the skew-safe per-group top-k
    (per-batch local prune -> one exchange) takes each source's k_max
    best keys and a broadcast quota dict cuts ranks per source. Scales:
    no source ships more than k_max rows per batch."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
        top_k_per_group,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "source"])
    counts = grouped_count(docs, "source", out_col="n_src").to_pandas()
    quota = {s: int(math.floor(math.sqrt(int(n))))
             for s, n in zip(counts["source"], counts["n_src"])}
    if not quota:
        return pd.DataFrame({"doc_id": pd.Series(dtype="int64"),
                             "source": pd.Series(dtype=object),
                             "rnk": pd.Series(dtype="int64")})
    k_max = max(quota.values())

    def key(b: pa.Table) -> pa.Table:
        ks = [stable_bucket(str(d), 1 << 32)
              for d in b.column("doc_id").to_pylist()]
        return b.append_column("mix_key", pa.array(ks, pa.int64()))

    ranked = top_k_per_group(
        docs.map_batches(key, batch_format="pyarrow"),
        group_col="source", order_col="mix_key", k=k_max,
        tiebreak_col="doc_id", rank_col="rnk")

    import ray as _ray
    quota_ref = _ray.put(quota)

    def cut(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        q = ray.get(quota_ref)
        qs = pa.array([q.get(s, 0) for s in b.column("source").to_pylist()],
                      pa.int64())
        return b.filter(pc.less_equal(b.column("rnk"), qs))

    out = ranked.map_batches(cut, batch_format="pyarrow").to_pandas()
    return _int64(out[["doc_id", "source", "rnk"]], ["doc_id", "rnk"])


@query("decontaminate_docs", """
    WITH s AS (
        SELECT doc_id, text,
            CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                           AS BIGINT) % 10000 < 7500 THEN 'train'
                 WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                           AS BIGINT) % 10000 < 9000 THEN 'eval'
                 ELSE 'test' END AS split
        FROM documents),
    toks AS (
        SELECT doc_id, split, string_split(text, ' ') AS t
        FROM s WHERE text IS NOT NULL),
    grams AS (
        SELECT doc_id, split,
               array_to_string(list_slice(t, i + 1, i + 4), ' ') AS gram
        FROM toks, unnest(generate_series(0, len(t) - 4, 1)) AS u(i))
    SELECT DISTINCT doc_id FROM grams
    WHERE split = 'train'
      AND gram IN (SELECT gram FROM grams WHERE split = 'eval')
""", bench=True)
def q_decontaminate_docs(sf_dir: str, mode: str = "broadcast") -> Any:
    """Benchmark decontamination: train docs sharing any word 4-gram with
    the eval split (GPT-3-style contamination check; real pipelines use
    13-grams — the fixture's short template texts need n=4 for a
    non-trivial result). Split assignment hashes str(doc_id) so exact
    duplicate TEXTS can land on both sides (hashing the text itself would
    make cross-split duplication impossible by construction). Broadcast
    regime here (eval side is tiny); the exchange regime is pinned
    identical by tests (stages/decontam.py)."""
    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )
    from calendar_event_entity_extraction_ray.stages.decontam import (
        contaminated_doc_ids,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def assign(b: pa.Table) -> pa.Table:
        # md5 of str(doc_id): parity with the oracle's
        # md5(CAST(doc_id AS VARCHAR)) bucket rule; per-row md5 is the
        # documented DuckDB-parity exception (cold path, id-sized rows)
        splits = []
        for did in b.column("doc_id").to_pylist():
            bk = stable_bucket(str(did), 10000)
            splits.append("train" if bk < 7500
                          else ("eval" if bk < 9000 else "test"))
        return b.append_column("split", pa.array(splits, pa.string()))

    with_split = ds.map_batches(assign, batch_format="pyarrow")
    train = with_split.filter(expr="split == 'train'")
    ev = with_split.filter(expr="split == 'eval'")
    out = contaminated_doc_ids(train, ev, n=4, mode=mode)
    return _int64(out.to_pandas(), ["doc_id"])


# the Bloom regime is exact (no false negatives; positives are
# string-verified) — same oracle as the broadcast regime
@query("decontaminate_docs_bloom", """
    WITH s AS (
        SELECT doc_id, text,
            CASE WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                           AS BIGINT) % 10000 < 7500 THEN 'train'
                 WHEN CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                           AS BIGINT) % 10000 < 9000 THEN 'eval'
                 ELSE 'test' END AS split
        FROM documents),
    toks AS (
        SELECT doc_id, split, string_split(text, ' ') AS t
        FROM s WHERE text IS NOT NULL),
    grams AS (
        SELECT doc_id, split,
               array_to_string(list_slice(t, i + 1, i + 4), ' ') AS gram
        FROM toks, unnest(generate_series(0, len(t) - 4, 1)) AS u(i))
    SELECT DISTINCT doc_id FROM grams
    WHERE split = 'train'
      AND gram IN (SELECT gram FROM grams WHERE split = 'eval')
""", bench=True)
def q_decontaminate_docs_bloom(sf_dir: str) -> Any:
    """Same contamination check through the Bloom regime — the
    100-TB-both-sides path: eval grams fold into a fixed 1 MiB mergeable
    bitset (never a driver-side string set), train docs prefilter
    against the broadcast bitset, and only bloom-positive candidates
    take the exact-string exchange verify. No false negatives by
    construction, so the result (and the SQL oracle) is identical to
    decontaminate_docs. stages/decontam.py:eval_gram_bloom."""
    return q_decontaminate_docs(sf_dir, mode="bloom")


@query("pack_docs", """
    WITH RECURSIVE t AS (
        SELECT doc_id,
               CAST(len(string_split(text, ' ')) AS BIGINT) AS ntok,
               doc_id // 32 AS bucket,
               ROW_NUMBER() OVER (PARTITION BY doc_id // 32
                                  ORDER BY doc_id) AS rn
        FROM documents WHERE text IS NOT NULL),
    p AS (
        SELECT bucket, rn, doc_id, ntok,
               CAST(0 AS BIGINT) AS bin, ntok AS acc
        FROM t WHERE rn = 1
        UNION ALL
        SELECT t.bucket, t.rn, t.doc_id, t.ntok,
               CASE WHEN p.acc + t.ntok > 256
                    THEN p.bin + 1 ELSE p.bin END,
               CASE WHEN p.acc + t.ntok > 256
                    THEN t.ntok ELSE p.acc + t.ntok END
        FROM p JOIN t ON t.bucket = p.bucket AND t.rn = p.rn + 1)
    SELECT doc_id, CAST(bucket AS BIGINT) AS bucket, bin, ntok
    FROM p
""", bench=True)
def q_pack_docs(sf_dir: str) -> Any:
    """Greedy first-fit sequence packing into 256-token training bins,
    bucketed by doc_id range so packing parallelizes (bins never cross
    buckets; result independent of execution order). Oracle replays the
    identical walk as a recursive CTE. stages/pack.py."""
    from calendar_event_entity_extraction_ray.stages.pack import (
        pack_first_fit,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = pack_first_fit(ds, capacity=256, bucket_size=32)
    return _int64(out.to_pandas(), ["doc_id", "bucket", "bin", "ntok"])


@query("weighted_sample_docs", """
    SELECT doc_id, n_chars FROM (
        SELECT doc_id, n_chars,
               ln((CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                        AS BIGINT) + 1) / 4294967297.0)
               / n_chars AS k
        FROM documents WHERE n_chars > 0)
    ORDER BY k DESC, doc_id LIMIT 50
""")
def q_weighted_sample_docs(sf_dir: str) -> Any:
    """Weighted sampling without replacement (Efraimidis-Spirakis A-ES):
    each row gets key = ln(u)/w with a DETERMINISTIC uniform u from
    md5(doc_id) and weight w = n_chars; the global top-k by key IS a
    weighted sample. Distributed as a partial top-k per block + one tiny
    final fold — no global sort, no driver-side data. The double
    arithmetic (one divide, one ln, one divide) is bit-identical between
    numpy and DuckDB, so ordering on it is oracle-safe (md5-driven keys
    are collision-free at the boundary)."""
    import hashlib

    K = 50

    ds = _read(sf_dir, "documents", columns=["doc_id", "n_chars"])

    def keyed_topk(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").to_pylist()
        w = b.column("n_chars").to_numpy().astype("float64")
        v = np.array([int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16)
                      for i in ids], dtype="float64")
        key = np.log((v + 1.0) / 4294967297.0) / w
        df = pd.DataFrame({"doc_id": ids, "n_chars":
                           b.column("n_chars").to_numpy(), "k": key})
        df = df[w > 0].sort_values(["k", "doc_id"],
                                   ascending=[False, True]).head(K)
        return pa.Table.from_pandas(df, preserve_index=False)

    out = (ds.map_batches(keyed_topk, batch_format="pyarrow")
           .repartition(1)
           .map_batches(keyed_topk, batch_format="pyarrow", batch_size=None))
    return _int64(out.to_pandas()[["doc_id", "n_chars"]],
                  ["doc_id", "n_chars"])


@query("repeated_ngram_spans", """
    WITH toks AS (
        SELECT doc_id, string_split(text, ' ') AS t
        FROM documents WHERE text IS NOT NULL),
    grams AS (
        SELECT DISTINCT doc_id,
               array_to_string(list_slice(t, i + 1, i + 6), ' ') AS gram
        FROM toks, unnest(generate_series(0, len(t) - 6, 1)) AS u(i))
    SELECT gram, CAST(COUNT(*) AS BIGINT) AS n_docs
    FROM grams GROUP BY gram HAVING COUNT(*) >= 2
""")
def q_repeated_ngram_spans(sf_dir: str) -> Any:
    """Training-data repetition audit (the Lee-et-al "deduplicating
    training data" diagnostic): every word 6-gram appearing in >= 2
    DISTINCT documents, with its document frequency. Per-doc-distinct
    gram explode (stages/decontam.py) keeps a doc repeating a phrase
    from inflating its count; grouped_count reduces on the exchange
    (gram cardinality scales with the corpus — never Ray's sort
    shuffle); the >= 2 filter prunes the long unique tail before any
    driver collect."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_count,
    )
    from calendar_event_entity_extraction_ray.stages.decontam import (
        gram_explode_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    grams = ds.map_batches(
        lambda b: gram_explode_batch(b, "doc_id", "text", 6),
        batch_format="pyarrow")
    counts = grouped_count(grams, "gram", out_col="n_docs")
    out = counts.filter(expr="n_docs >= 2")
    return _int64(out.to_pandas()[["gram", "n_docs"]], ["n_docs"])


@query("training_sequences", f"SELECT * FROM {_golden('training_sequences')}", bench=True)
def q_training_sequences(sf_dir: str) -> Any:
    """End-to-end training-data preparation (pipelines/traindata.py):
    id-hash split -> corpus_clean -> 4-gram decontamination vs the raw
    eval side -> first-fit pack -> packed (bucket, bin) sequences.
    Golden-checked against a sequential single-process mirror of the
    whole chain."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        training_sequences,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = training_sequences(ds)
    return _int64(out.to_pandas(), ["bucket", "bin", "n_docs", "n_tok"])


@query("dedup_spans_docs", """
    WITH toks AS (
        SELECT doc_id, unnest(string_split(text, ' ')) AS w,
               generate_subscripts(string_split(text, ' '), 1) AS pos
        FROM documents WHERE text IS NOT NULL),
    lists AS (
        SELECT doc_id, string_split(text, ' ') AS t
        FROM documents WHERE text IS NOT NULL),
    grams AS (
        SELECT doc_id, i + 1 AS pos,
               array_to_string(list_slice(t, i + 1, i + 6), ' ') AS gram
        FROM lists, unnest(generate_series(0, len(t) - 6, 1)) AS u(i)),
    rep AS (
        SELECT gram FROM (SELECT DISTINCT doc_id, gram FROM grams)
        GROUP BY gram HAVING COUNT(*) >= 2),
    hits AS (
        SELECT doc_id, pos FROM grams
        WHERE gram IN (SELECT gram FROM rep)),
    covered AS (
        SELECT DISTINCT t.doc_id, t.pos FROM toks t
        JOIN hits h ON h.doc_id = t.doc_id
                   AND t.pos BETWEEN h.pos AND h.pos + 5)
    SELECT t.doc_id, string_agg(t.w, ' ' ORDER BY t.pos)
               AS clean_text
    FROM toks t LEFT JOIN covered c
      ON c.doc_id = t.doc_id AND c.pos = t.pos
    WHERE c.doc_id IS NULL
    GROUP BY t.doc_id
""", bench=True)
def q_dedup_spans_docs(sf_dir: str) -> Any:
    """Repeated-span removal (Lee-et-al remediation): strip every token
    window whose 6-gram appears in >= 2 distinct docs; fully-covered
    docs (exact duplicates of each other) drop entirely
    (stages/spandedup.py — two exchanges, nothing driver-side)."""
    from calendar_event_entity_extraction_ray.stages.spandedup import (
        remove_repeated_spans,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = remove_repeated_spans(ds, n=6)
    return _int64(out.to_pandas(), ["doc_id"])


@query("redact_pii", """
    WITH aug AS (
        SELECT doc_id,
               text || ' Contact u' || CAST(doc_id AS VARCHAR)
                    || '@ex.org or +1-202-555-0199, host 10.0.0.'
                    || CAST(doc_id % 200 AS VARCHAR) AS t
        FROM documents
    ), e AS (
        SELECT doc_id,
               len(regexp_extract_all(t,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}'))
                   AS n_email,
               regexp_replace(t,
                   '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}',
                   '<EMAIL>', 'g') AS t
        FROM aug
    ), p AS (
        SELECT doc_id, n_email,
               len(regexp_extract_all(t,
                   '\\+?[0-9]{1,3}-[0-9]{3}-[0-9]{3}-[0-9]{4}\\b'))
                   AS n_phone,
               regexp_replace(t,
                   '\\+?[0-9]{1,3}-[0-9]{3}-[0-9]{3}-[0-9]{4}\\b',
                   '<PHONE>', 'g') AS t
        FROM e
    ), i AS (
        SELECT doc_id, n_email, n_phone,
               len(regexp_extract_all(t,
                   '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b'))
                   AS n_ipv4,
               regexp_replace(t,
                   '\\b[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\.[0-9]{1,3}\\b',
                   '<IP>', 'g') AS t
        FROM p
    )
    SELECT doc_id, t AS clean_text,
           CAST(n_email AS BIGINT) AS n_email,
           CAST(n_phone AS BIGINT) AS n_phone,
           CAST(n_ipv4 AS BIGINT) AS n_ipv4
    FROM i
""")
def q_redact_pii(sf_dir: str) -> Any:
    """PII scrub (stages/redact.py): e-mail / phone / IPv4 replaced with
    typed tokens by RE2 inside the Arrow kernel, per-category counts per
    row. Synthetic PII is injected deterministically from doc_id (the
    corpus has none) with the SAME concatenation the oracle builds in
    SQL, so clean_text compares byte-for-byte — both engines run RE2,
    which is the parity point."""
    from calendar_event_entity_extraction_ray.stages.redact import (
        redact_pii,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def inject(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        suf = [(f" Contact u{i}@ex.org or +1-202-555-0199,"
                f" host 10.0.0.{i % 200}")
               for i in b.column("doc_id").to_pylist()]
        aug = pc.binary_join_element_wise(
            b.column("text"), pa.array(suf, pa.string()), "")
        return pa.table({"doc_id": b.column("doc_id"), "text": aug})

    out = redact_pii(ds.map_batches(inject, batch_format="pyarrow"))
    df = out.map_batches(
        lambda b: b.select(["doc_id", "clean_text",
                            "n_email", "n_phone", "n_ipv4"]),
        batch_format="pyarrow").to_pandas()
    return _int64(df, ["doc_id", "n_email", "n_phone", "n_ipv4"])


@query("term_postings", """
    WITH pairs AS (
      SELECT DISTINCT doc_id, u.term
      FROM documents, unnest(string_split(text, ' ')) AS u(term)
    )
    SELECT term, COUNT(*) AS df,
           array_to_string(list_slice(
               list(doc_id ORDER BY doc_id), 1, 16), ',')
               AS postings
    FROM pairs GROUP BY term
""")
def q_term_postings(sf_dir: str) -> Any:
    """Inverted index (stages/text_analysis.py:inverted_index): exact
    per-term document frequency + the first 16 doc ids ascending. The
    cap of 16 is far below the common-term df (~390 at sf0.01), so the
    partial-top-k merge path is what the oracle checks, not just tiny
    lists."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        inverted_index,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = inverted_index(ds, max_postings=16)
    return _int64(out.to_pandas(), ["df"])


@query("winsorized_chars", """
    WITH q AS (
        SELECT lang,
               CAST(quantile_disc(n_chars, 0.05) AS BIGINT) AS lo,
               CAST(quantile_disc(n_chars, 0.95) AS BIGINT) AS hi
        FROM documents GROUP BY lang)
    SELECT d.lang,
           CAST(SUM(CASE WHEN d.n_chars < q.lo THEN q.lo
                         WHEN d.n_chars > q.hi THEN q.hi
                         ELSE d.n_chars END) AS BIGINT)
               AS clipped_sum,
           COUNT(*) AS n_docs
    FROM documents d JOIN q ON q.lang = d.lang
    GROUP BY d.lang
""", bench=True)
def q_winsorized_chars(sf_dir: str) -> Any:
    """Per-group winsorization — the training-corpus outlier-clipping
    op: exact per-language p05/p95 (histogram-refine grouped quantiles,
    DuckDB quantile_disc rank parity, driver state |groups| x bins
    ints), clip bounds broadcast once via ray.put, vectorized np.clip
    inside map_batches, enum-cardinality clipped sums stream-reduced.
    Two passes over the column, nothing driver-side grows with rows."""
    import ray as _ray

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        grouped_sums,
    )
    from calendar_event_entity_extraction_ray.stages.quantiles import (
        grouped_quantiles,
    )

    docs = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    qres = grouped_quantiles(docs, "n_chars", "lang", [0.05, 0.95])
    bounds: dict = {}
    for lang, q, v in qres:
        lo, hi = bounds.get(lang, (None, None))
        if q == 0.05:
            bounds[lang] = (int(v), hi)
        else:
            bounds[lang] = (lo, int(v))
    b_ref = _ray.put(bounds)

    def clip(b: pa.Table) -> pa.Table:
        bmap = ray.get(b_ref)
        langs = b.column("lang").to_pylist()
        vals = b.column("n_chars").to_numpy()
        lo = np.array([bmap[l][0] for l in langs], dtype=np.int64)
        hi = np.array([bmap[l][1] for l in langs], dtype=np.int64)
        clipped = np.clip(vals, lo, hi).astype(np.int64)
        return pa.table({"lang": b.column("lang"),
                         "clipped": pa.array(clipped)})

    out = grouped_sums(
        docs.map_batches(clip, batch_format="pyarrow"),
        key_cols=["lang"], sum_cols=["clipped"],
        count_alias="n_docs", stream_reduce=True)
    return _int64(out.to_pandas().rename(
        columns={"clipped": "clipped_sum"}), ["clipped_sum", "n_docs"])


@query("compression_ratio_docs", f"""
    SELECT doc_id, c_bytes, ratio_e4
    FROM {_golden('compression_ratio_docs')}
""")
def q_compression_ratio(sf_dir: str) -> Any:
    """Gopher/CCNet-style repetitiveness signal: per-doc zlib compression
    ratio — templated/boilerplate text compresses far below natural
    prose, so a low ratio is a cheap junk filter at corpus scale. Pure
    per-batch map (embarrassingly parallel, no shuffle); zlib runs in C
    per document (compression is inherently per-sequence — this is the
    justified exception to the no-per-row-loop rule, like the md5 parity
    paths). Exact integer basis points (clen·1e4 // blen) so the golden
    compare is bit-stable. Oracle = single-process recompute
    (scripts/make_goldens.py:golden_compression_ratio)."""
    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])

    def ratio(b: pa.Table) -> pa.Table:
        import zlib

        ids, cbytes, ratios = [], [], []
        for doc_id, text in zip(b.column("doc_id").to_pylist(),
                                b.column("text").to_pylist()):
            raw = (text or "").encode("utf-8")
            clen = len(zlib.compress(raw, 6))
            ids.append(doc_id)
            cbytes.append(clen)
            ratios.append(clen * 10_000 // len(raw) if raw else 0)
        return pa.table({"doc_id": pa.array(ids, pa.int64()),
                         "c_bytes": pa.array(cbytes, pa.int64()),
                         "ratio_e4": pa.array(ratios, pa.int64())})

    return docs.map_batches(ratio, batch_format="pyarrow")


@query("doc_len_hist", """
    SELECT CAST(FLOOR(n_chars / 200.0) AS BIGINT) * 200 AS bin_lo,
           COUNT(*) AS n
    FROM documents WHERE n_chars IS NOT NULL
    GROUP BY 1
""", bench=True)
def q_doc_len_hist(sf_dir: str) -> Any:
    """Equi-width length histogram over the corpus (the analyze_dataset
    length profile, src/prepare_assignment_data.py:64-102, as a binned
    distribution): bin_lo = floor(n_chars/200)*200, count per bin. The
    exchange moves |bins| x |batches| partial rows — corpus-size
    independent."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        numeric_histogram,
    )

    ds = _read(sf_dir, "documents", columns=["n_chars"])
    return _int64(numeric_histogram(ds, "n_chars", width=200).to_pandas(),
                  ["bin_lo", "n"])


@query("lang_len_hist", """
    SELECT lang,
           CAST(FLOOR(n_chars / 500.0) AS BIGINT) * 500 AS bin_lo,
           COUNT(*) AS n
    FROM documents WHERE n_chars IS NOT NULL
    GROUP BY lang, 2
""")
def q_lang_len_hist(sf_dir: str) -> Any:
    """Grouped equi-width histogram: length distribution PER LANGUAGE
    (the per-split length profile a mixing/quality pass reads before
    choosing truncation budgets). Same one-pass partial-count shape."""
    from calendar_event_entity_extraction_ray.stages.aggregate import (
        numeric_histogram,
    )

    ds = _read(sf_dir, "documents", columns=["lang", "n_chars"])
    out = numeric_histogram(ds, "n_chars", width=500, by=["lang"])
    return _int64(out.to_pandas(), ["bin_lo", "n"])


@query("doc_repetition", """
    WITH toks AS (
        SELECT doc_id, string_split(text, ' ') AS ws
        FROM documents WHERE text IS NOT NULL
    ), bg AS (
        SELECT doc_id, ws[i] || ' ' || ws[i + 1] AS bigram
        FROM toks, unnest(generate_series(1, len(ws) - 1)) AS t(i)
        WHERE len(ws) >= 2
    ), c AS (
        SELECT doc_id, bigram, COUNT(*) AS n
        FROM bg GROUP BY doc_id, bigram
    )
    SELECT doc_id, MAX(n) AS top_bigram_n,
           CAST(SUM(n) AS BIGINT) AS n_bigrams,
           COUNT(*) AS n_distinct_bigrams
    FROM c GROUP BY doc_id
""", bench=True)
def q_doc_repetition(sf_dir: str) -> Any:
    """Gopher-style intra-document repetition audit: per doc, the most
    frequent word bigram's count, total bigrams, distinct bigrams — the
    exact-integer basis for the 'top-2-gram fraction' and 'duplicate
    2-gram fraction' quality filters. Per-batch map, nothing shuffles."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        repetition_batch,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return ds.map_batches(repetition_batch, batch_format="pyarrow")


@query("lm_scored_docs", f"SELECT doc_id, lm_logp_e6, n_bigrams"
    f" FROM {_golden('lm_scored_docs')}", bench=True)
def q_lm_scored_docs(sf_dir: str) -> Any:
    """CCNet-style bigram-LM quality score: train exact gram counts on the
    lang=='en' subset (one fused exchange), broadcast the tables once,
    score EVERY doc in one map pass — exact integers (lm_logp_e6,
    n_bigrams); golden-parquet oracle recomputes single-process through
    the same kernels."""
    import pyarrow.compute as pc

    from calendar_event_entity_extraction_ray.stages.lmfilter import (
        lm_score,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    train = docs.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en"))
        .select(["text"]), batch_format="pyarrow")
    return lm_score(train, docs)


def _dsir_inputs(sf_dir: str):
    import pyarrow.compute as pc

    docs = _read(sf_dir, "documents", columns=["doc_id", "text", "lang"])
    target = docs.map_batches(
        lambda b: b.filter(pc.equal(b.column("lang"), "en"))
        .select(["text"]), batch_format="pyarrow")
    return target, docs


@query("dsir_scored_docs", f"SELECT doc_id, dsir_logratio_e6, n_grams"
    f" FROM {_golden('dsir_scored_docs')}")
def q_dsir_scored_docs(sf_dir: str) -> Any:
    """DSIR importance scores (Xie et al. 2023): hashed unigram+bigram
    bucket multinomials fit on the lang=='en' target vs the full raw
    corpus (stream-reduced bincount partials — each pass ships
    |buckets| x |batches| rows), then every doc's log importance ratio
    as an exact int64 sum over a broadcast scaled-int table. Golden
    oracle recomputes single-process through the same kernels
    (stages/dsir.py)."""
    from calendar_event_entity_extraction_ray.stages.dsir import dsir_score

    target, docs = _dsir_inputs(sf_dir)
    return dsir_score(target, docs)


@query("dsir_selected_docs", f"SELECT doc_id, dsir_logratio_e6, n_grams"
    f" FROM {_golden('dsir_selected_docs')}", bench=True)
def q_dsir_selected_docs(sf_dir: str) -> Any:
    """DSIR selection: Gumbel-top-k importance resample (deterministic
    md5-driven Gumbel noise, the A-ES sampler convention) — the
    without-replacement sample of 100 raw docs with probability
    proportional to their importance weight, as a per-block partial
    top-k + one kilobyte fold."""
    from calendar_event_entity_extraction_ray.stages.dsir import dsir_select

    target, docs = _dsir_inputs(sf_dir)
    out = dsir_select(target, docs, k=100)
    return _int64(out.to_pandas(),
                  ["doc_id", "dsir_logratio_e6", "n_grams"])


@query("doc_len_drift", """
    WITH lab AS (
        SELECT n_chars AS v,
               CASE WHEN CAST(('0x' || substr(md5(text), 1, 8))
                         AS BIGINT) % 10000 < 7500 THEN 'a'
                    WHEN CAST(('0x' || substr(md5(text), 1, 8))
                         AS BIGINT) % 10000 < 9000 THEN 'b'
               END AS side
        FROM documents
        WHERE text IS NOT NULL AND n_chars IS NOT NULL),
    g AS (
        SELECT v,
               SUM(CASE WHEN side = 'a' THEN 1 ELSE 0 END) AS ca,
               SUM(CASE WHEN side = 'b' THEN 1 ELSE 0 END) AS cb
        FROM lab WHERE side IS NOT NULL GROUP BY v),
    c AS (
        SELECT v,
               SUM(ca) OVER (ORDER BY v) AS cuma,
               SUM(cb) OVER (ORDER BY v) AS cumb,
               (SELECT SUM(ca) FROM g) AS na,
               (SELECT SUM(cb) FROM g) AS nb
        FROM g)
    SELECT CAST(ABS(cuma * nb - cumb * na) AS BIGINT) AS ks_num,
           CAST(na AS BIGINT) AS n_a,
           CAST(nb AS BIGINT) AS n_b,
           v AS arg_value
    FROM c ORDER BY ABS(cuma * nb - cumb * na) DESC, v ASC
    LIMIT 1
""", bench=True)
def q_doc_len_drift(sf_dir: str) -> Any:
    """Exact two-sample KS drift (stages/drift.py) between the train and
    eval splits' doc-length distributions — the snapshot-drift monitor,
    published as cross-multiplied integers (ks_num, n_a, n_b) so the SQL
    window-CDF oracle matches bit-for-bit."""
    import pandas as pd

    from calendar_event_entity_extraction_ray.functions.textsig import (
        stable_bucket,
    )
    from calendar_event_entity_extraction_ray.stages.drift import ks_drift

    docs = _read(sf_dir, "documents", columns=["text", "n_chars"])

    def side_filter(lo: int, hi: int):
        def f(b: pa.Table) -> pa.Table:
            keep = []
            for t in b.column("text").to_pylist():
                keep.append(t is not None
                            and lo <= stable_bucket(t, 10_000) < hi)
            return b.filter(pa.array(keep, pa.bool_())).select(
                ["n_chars"])

        return f

    a = docs.map_batches(side_filter(0, 7_500), batch_format="pyarrow")
    b = docs.map_batches(side_filter(7_500, 9_000),
                         batch_format="pyarrow")
    ks_num, na, nb, arg = ks_drift(a, b, "n_chars")
    return pd.DataFrame({
        "ks_num": pd.array([ks_num], dtype="int64"),
        "n_a": pd.array([na], dtype="int64"),
        "n_b": pd.array([nb], dtype="int64"),
        "arg_value": pd.array([arg], dtype="int64"),
    })


@query("simhash_near_docs", f"SELECT id_a, id_b, dist"
    f" FROM {_golden('simhash_near_docs')}", bench=True)
def q_simhash_near_docs(sf_dir: str) -> Any:
    """Simhash near-dup pairs at hamming <= 3 (Manku et al. 2007):
    the same exact banded hamming join over the existing per-doc
    simhash. Golden oracle = brute-force all-pairs mirror."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_simhash_column,
    )
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sh = ds.map_batches(lambda b: add_simhash_column(b, "text"),
                        batch_format="pyarrow").select_columns(
        ["doc_id", "simhash"])
    pairs = hamming_near_pairs(sh, "simhash", "doc_id", max_dist=3)
    return _int64(pairs.to_pandas(), ["id_a", "id_b", "dist"])


@query("token_batches_seqs", f"SELECT bucket, bin, n_ids, n_pad, ids_fp"
    f" FROM {_golden('token_batches_seqs')}")
def q_token_batches_seqs(sf_dir: str) -> Any:
    """Training-tensor hand-off over the packed sequences
    (pipelines/traindata.py:token_batches): deterministic tokenizer ids
    padded to 256, published as exact-integer audit columns; golden
    recomputes through the same kernels over the frozen
    training_sequences mirror."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        token_batches,
        training_sequences,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    out = token_batches(training_sequences(docs))
    return _int64(out.to_pandas()[["bucket", "bin", "n_ids", "n_pad",
                                   "ids_fp"]],
                  ["bucket", "bin", "n_ids", "n_pad", "ids_fp"])


@query("bpe_token_batches_seqs", f"SELECT bucket, bin, n_ids, n_pad, ids_fp"
    f" FROM {_golden('bpe_token_batches_seqs')}")
def q_bpe_token_batches_seqs(sf_dir: str) -> Any:
    """The full tokenizer-training loop closed: train BPE on the raw
    corpus (q_bpe_merges' trainer), then hand the packed training
    sequences to token_batches with the TRAINED tokenizer (ids =
    vocab-index + special offset). Golden recomputes both chains
    single-process through the same kernels."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        token_batches,
        training_sequences,
    )

    docs, model = _bpe_model(sf_dir)
    out = token_batches(training_sequences(docs), bpe_model=model)
    return _int64(out.to_pandas()[["bucket", "bin", "n_ids", "n_pad",
                                   "ids_fp"]],
                  ["bucket", "bin", "n_ids", "n_pad", "ids_fp"])


@query("unigram_token_batches_seqs", f"SELECT bucket, bin, n_ids, n_pad, ids_fp"
    f" FROM {_golden('unigram_token_batches_seqs')}")
def q_unigram_token_batches_seqs(sf_dir: str) -> Any:
    """The unigram-LM tokenizer-training loop closed: train the unigram
    model on the raw corpus (q_unigram_vocab's trainer), then hand the
    packed training sequences to token_batches with the TRAINED
    tokenizer (piece ids = sorted-piece-index + special offset). Golden
    recomputes both chains single-process through the same kernels."""
    from calendar_event_entity_extraction_ray.pipelines.traindata import (
        token_batches,
        training_sequences,
    )

    docs, model = _unigram_model(sf_dir)
    out = token_batches(training_sequences(docs), unigram_model=model)
    return _int64(out.to_pandas()[["bucket", "bin", "n_ids", "n_pad",
                                   "ids_fp"]],
                  ["bucket", "bin", "n_ids", "n_pad", "ids_fp"])


@query("simhash_dedup_docs", f"SELECT doc_id FROM {_golden('simhash_dedup_docs')}")
def q_simhash_dedup_docs(sf_dir: str) -> Any:
    """Simhash near-dedup with the CLUSTER keeper rule (the corpus_clean
    canonicalization pattern applied to the hamming family): exact banded
    pairs at hamming <= 3 -> connected components (min-label) -> keep
    ONE doc per component (the smallest id), drop the rest via the
    exchange anti join. Golden oracle = independent brute-force pairs +
    union-find mirror."""
    from calendar_event_entity_extraction_ray.stages.dedup import (
        add_simhash_column,
    )
    from calendar_event_entity_extraction_ray.stages.graph import (
        connected_components,
    )
    from calendar_event_entity_extraction_ray.stages.hamming import (
        hamming_near_pairs,
    )
    from calendar_event_entity_extraction_ray.stages.joins import anti_join

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    sh = docs.map_batches(lambda b: add_simhash_column(b, "text"),
                          batch_format="pyarrow").select_columns(
        ["doc_id", "simhash"])
    pairs = hamming_near_pairs(sh, "simhash", "doc_id", max_dist=3)
    cc = connected_components(pairs, "id_a", "id_b")

    def losers(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.not_equal(b.column("node"), b.column("cluster"))
        return pa.table({"doc_id": b.filter(keep).column("node")})

    drop = cc.map_batches(losers, batch_format="pyarrow")
    kept = anti_join(docs.select_columns(["doc_id"]), drop,
                     "doc_id", ["doc_id"])
    return _int64(kept.to_pandas(), ["doc_id"])


def _bpe_model(sf_dir: str):
    """Shared trainer for the BPE queries: exact distributed word
    histogram -> top-K cap -> driver merge loop (stages/bpetrain.py).
    Fixed (n_merges, top_k) so both queries and both goldens agree."""
    from calendar_event_entity_extraction_ray.stages.bpetrain import (
        train_bpe,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs, train_bpe(docs, n_merges=200, top_k=20_000)


def _unigram_model(sf_dir: str):
    """Shared trainer for the unigram-LM queries: the SAME exact
    distributed word histogram the BPE trainer uses, then the
    driver-side Viterbi-EM loop (stages/unigramtrain.py). Fixed
    (vocab_size, top_k) so the queries and goldens agree."""
    from calendar_event_entity_extraction_ray.stages.unigramtrain import (
        train_unigram,
    )

    docs = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return docs, train_unigram(docs, vocab_size=800, top_k=20_000)


@query("unigram_vocab", f"SELECT piece, logp_e6 FROM {_golden('unigram_vocab')}")
def q_unigram_vocab(sf_dir: str) -> Any:
    """Unigram-LM tokenizer TRAINING (Kudo 2018 / SentencePiece, hard-EM
    form): corpus-sized work is the one exact word-type histogram
    exchange; seeding, Viterbi-EM and pruning run over the bounded
    word-TYPE table driver-side. Output = the trained vocabulary
    (piece, logp_e6); golden recomputes single-process through the same
    kernels (functions/unigram.py)."""
    from calendar_event_entity_extraction_ray.stages.unigramtrain import (
        vocab_table,
    )

    _, model = _unigram_model(sf_dir)
    return vocab_table(model)


@query("unigram_tokenized_docs", f"SELECT doc_id, n_pieces, pieces_fp"
    f" FROM {_golden('unigram_tokenized_docs')}", bench=True)
def q_unigram_tokenized_docs(sf_dir: str) -> Any:
    """Trained-unigram Viterbi encode of every doc: one broadcast of the
    piece table + pre-encoded head vocabulary, per-batch distinct-word
    decode, exact int64 outputs (piece count + siphash fingerprint of
    the piece stream)."""
    from calendar_event_entity_extraction_ray.stages.unigramtrain import (
        unigram_tokenize,
    )

    docs, model = _unigram_model(sf_dir)
    out = unigram_tokenize(docs, model)
    return _int64(out.to_pandas(), ["doc_id", "n_pieces", "pieces_fp"])


@query("bpe_merges", f"SELECT rank, lhs, rhs FROM {_golden('bpe_merges')}")
def q_bpe_merges(sf_dir: str) -> Any:
    """BPE tokenizer TRAINING (Sennrich 2016 / the HF-trainer shape):
    the corpus-sized work is one exact word-type histogram on the
    exchange; the merge loop runs over the bounded capped histogram
    driver-side — vocabulary-sized, never corpus-sized. Golden oracle
    recomputes single-process through the same kernels
    (functions/bpe.py)."""
    import pandas as pd

    _, model = _bpe_model(sf_dir)
    return pd.DataFrame({
        "rank": pd.array(range(len(model.merges)), dtype="int64"),
        "lhs": [a for a, _ in model.merges],
        "rhs": [b for _, b in model.merges],
    })


@query("bpe_tokenized_docs", f"SELECT doc_id, n_tokens, tokens_fp"
    f" FROM {_golden('bpe_tokenized_docs')}", bench=True)
def q_bpe_tokenized_docs(sf_dir: str) -> Any:
    """Trained-BPE encode of every doc: one broadcast of the merge-rank
    dict, per-batch word-type cache (encode_word runs once per distinct
    word per batch, not per token), exact int64 outputs (token count +
    siphash fingerprint of the token stream)."""
    from calendar_event_entity_extraction_ray.stages.bpetrain import (
        bpe_tokenize,
    )

    docs, model = _bpe_model(sf_dir)
    out = bpe_tokenize(docs, model)
    return _int64(out.to_pandas(), ["doc_id", "n_tokens", "tokens_fp"])


BM25_QUERY_TERMS = ("hash", "join", "vector")


BM25_K1, BM25_B, BM25_TOPK = 1.2, 0.75, 20


@query("bm25_topk_docs", """
    WITH src AS (
        SELECT doc_id, text, string_split(text, ' ') AS ws
        FROM documents WHERE text IS NOT NULL),
    params AS (
        SELECT CAST(COUNT(*) AS DOUBLE) AS n,
               CAST(SUM(len(ws)) AS DOUBLE)
                   / CAST(COUNT(*) AS DOUBLE) AS avgdl
        FROM src),
    dfs AS (
        SELECT
          CAST(COUNT(*) FILTER (
            WHERE list_contains(ws, 'hash')) AS DOUBLE) AS df1,
          CAST(COUNT(*) FILTER (
            WHERE list_contains(ws, 'join')) AS DOUBLE) AS df2,
          CAST(COUNT(*) FILTER (
            WHERE list_contains(ws, 'vector')) AS DOUBLE) AS df3
        FROM src),
    scored AS (
        SELECT doc_id,
          ln((n - df1 + 0.5) / (df1 + 0.5) + 1)
            * ((CAST(len(list_filter(ws, x -> x = 'hash'))
                     AS DOUBLE) * 2.2)
               / (CAST(len(list_filter(ws, x -> x = 'hash'))
                       AS DOUBLE)
                  + 1.2 * (0.25 + 0.75 * len(ws) / avgdl)))
          + ln((n - df2 + 0.5) / (df2 + 0.5) + 1)
            * ((CAST(len(list_filter(ws, x -> x = 'join'))
                     AS DOUBLE) * 2.2)
               / (CAST(len(list_filter(ws, x -> x = 'join'))
                       AS DOUBLE)
                  + 1.2 * (0.25 + 0.75 * len(ws) / avgdl)))
          + ln((n - df3 + 0.5) / (df3 + 0.5) + 1)
            * ((CAST(len(list_filter(ws, x -> x = 'vector'))
                     AS DOUBLE) * 2.2)
               / (CAST(len(list_filter(ws, x -> x = 'vector'))
                       AS DOUBLE)
                  + 1.2 * (0.25 + 0.75 * len(ws) / avgdl)))
          AS score
        FROM src, params, dfs),
    ranked AS (
        SELECT doc_id,
               CAST(FLOOR(score * 1e6 + 0.5) AS BIGINT) AS score_e6,
               ROW_NUMBER() OVER (
                 ORDER BY CAST(FLOOR(score * 1e6 + 0.5) AS BIGINT)
                     DESC, doc_id) AS rnk
        FROM scored)
    SELECT doc_id, score_e6, CAST(rnk AS BIGINT) AS rnk
    FROM ranked WHERE rnk <= 20
""", bench=True)
def q_bm25_topk_docs(sf_dir: str) -> Any:
    """BM25 top-k retrieval over the corpus for a fixed 3-term query —
    the ranked-retrieval op a decontamination / eval-similarity pass
    needs at corpus scale. Three streaming passes: (N, sum dl) aggregate,
    per-query-term df (per-batch presence partials, tiny fold), then one
    vectorized scoring pass with per-batch partial top-k folded once
    (only ~k rows per batch ever leave the scan tasks). The double chain
    (ln / * / /) is written in the SAME association order as the SQL
    oracle, term-by-term in fixed order, so floor(score*1e6+0.5) is
    bit-exact; ties pin on doc_id ASC."""
    import numpy as np

    from ray.data.aggregate import Count, Sum

    def drop_null_text(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return b.filter(pc.is_valid(b.column("text")))

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    ds = ds.map_batches(drop_null_text,
                        batch_format="pyarrow").materialize()  # consumed 3x

    def dl_batch(b: pa.Table) -> pa.Table:
        dls = [len(t.split(" ")) for t in b.column("text").to_pylist()]
        return pa.table({"dl": pa.array(dls, pa.int64())})

    agg = ds.map_batches(dl_batch, batch_format="pyarrow").aggregate(
        Count(alias_name="n"), Sum("dl", alias_name="sdl"))
    n_docs, sum_dl = int(agg["n"]), int(agg["sdl"])
    avgdl = float(sum_dl) / float(n_docs)

    def df_partial(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        dfs = [0] * len(BM25_QUERY_TERMS)
        for t in texts:
            ws = set(t.split(" "))
            for i, q in enumerate(BM25_QUERY_TERMS):
                if q in ws:
                    dfs[i] += 1
        return pa.table({"term": pa.array(list(BM25_QUERY_TERMS)),
                         "df": pa.array(dfs, pa.int64())})

    df_by_term = {q: 0 for q in BM25_QUERY_TERMS}
    for b in ds.map_batches(df_partial, batch_format="pyarrow").iter_batches(
            batch_format="pyarrow", batch_size=None):
        for term, df_ in zip(b.column("term").to_pylist(),
                             b.column("df").to_pylist()):
            df_by_term[term] += df_
    # idf exactly as the SQL writes it: ln((N - df + 0.5) / (df + 0.5) + 1)
    idf = [float(np.log((n_docs - df_by_term[q] + 0.5)
                        / (df_by_term[q] + 0.5) + 1.0))
           for q in BM25_QUERY_TERMS]

    def score_batch(b: pa.Table) -> pa.Table:
        texts = b.column("text").to_pylist()
        words = [t.split(" ") for t in texts]
        dl = np.array([len(w) for w in words], dtype=np.float64)
        score = np.zeros(len(words))
        # fixed term order; association mirrors the SQL expression:
        # idf * ((tf * 2.2) / (tf + 1.2 * (0.25 + 0.75 * dl / avgdl)))
        for i, q in enumerate(BM25_QUERY_TERMS):
            tf = np.array([w.count(q) for w in words], dtype=np.float64)
            score = score + idf[i] * (
                (tf * 2.2) / (tf + BM25_K1 * (0.25 + BM25_B * dl / avgdl)))
        df = pd.DataFrame({
            "doc_id": b.column("doc_id").to_pandas(),
            "score_e6": np.floor(score * 1e6 + 0.5).astype(np.int64)})
        df = df.sort_values(["score_e6", "doc_id"],
                            ascending=[False, True]).head(BM25_TOPK)
        return pa.Table.from_pandas(df, preserve_index=False)

    def final_fold(b: pa.Table) -> pa.Table:
        df = b.to_pandas().sort_values(
            ["score_e6", "doc_id"],
            ascending=[False, True]).head(BM25_TOPK).reset_index(drop=True)
        df["rnk"] = np.arange(1, len(df) + 1, dtype=np.int64)
        return pa.Table.from_pandas(df, preserve_index=False)

    return (ds.map_batches(score_batch, batch_format="pyarrow")
            .repartition(1)
            .map_batches(final_fold, batch_size=None,
                         batch_format="pyarrow"))


@query("grouped_sample_docs", """
    SELECT source, doc_id, rnk FROM (
        SELECT source, doc_id,
               ROW_NUMBER() OVER (
                   PARTITION BY source
                   ORDER BY CAST(('0x' || substr(md5(text), 1, 8))
                                 AS BIGINT) DESC, doc_id
               ) AS rnk
        FROM documents WHERE text IS NOT NULL
    ) WHERE rnk <= 10
""", bench=True)
def q_grouped_sample_docs(sf_dir: str) -> Any:
    """Per-group deterministic random sample (training-mix subsampling:
    k docs PER SOURCE, chosen by md5 order so the sample is re-runnable
    and partitioning-independent). The skew-safe top-k-per-group
    machinery does the work: per-batch local top-k means a hot source
    ships k rows per batch, never its population. Per-row md5 is the
    documented DuckDB-parity exception (cold/small path)."""
    import hashlib

    from calendar_event_entity_extraction_ray.stages.aggregate import (
        top_k_per_group,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text", "source"])

    def key(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        b = b.filter(pc.is_valid(b.column("text")))
        ks = [int(hashlib.md5(t.encode()).hexdigest()[:8], 16)
              for t in b.column("text").to_pylist()]
        return pa.table({"source": b.column("source"),
                         "doc_id": b.column("doc_id"),
                         "skey": pa.array(ks, pa.int64())})

    out = top_k_per_group(ds.map_batches(key, batch_format="pyarrow"),
                          group_col="source", order_col="skey", k=10,
                          tiebreak_col="doc_id")
    return out.select_columns(["source", "doc_id", "rnk"])


@query("pmi_term_pairs", """
    WITH terms AS (
        SELECT DISTINCT doc_id, t.term
        FROM documents, unnest(string_split(text, ' ')) AS t(term)
    ),
    df AS (SELECT term, COUNT(*) AS df FROM terms GROUP BY term),
    top AS (SELECT term, df FROM df
            ORDER BY df DESC, term LIMIT 30),
    nn AS (SELECT COUNT(*) AS n FROM documents),
    pairs AS (
        SELECT LEAST(a.term, b.term) AS term_a,
               GREATEST(a.term, b.term) AS term_b,
               COUNT(*) AS df_ab
        FROM terms a
        JOIN terms b ON b.doc_id = a.doc_id AND a.term < b.term
        JOIN top ta ON ta.term = a.term
        JOIN top tb ON tb.term = b.term
        GROUP BY 1, 2
    )
    SELECT p.term_a, p.term_b, CAST(p.df_ab AS BIGINT) AS df_ab,
           CAST(FLOOR(LN(CAST(p.df_ab AS DOUBLE) * nn.n
                         / (CAST(ta.df AS DOUBLE)
                            * CAST(tb.df AS DOUBLE)))
                      * 1000000 + 0.5) AS BIGINT) AS pmi_e6
    FROM pairs p
    JOIN top ta ON ta.term = p.term_a
    JOIN top tb ON tb.term = p.term_b
    CROSS JOIN nn
""", bench=True)
def q_pmi_term_pairs(sf_dir: str) -> Any:
    """Term-association mining: PMI between top-30-df term pairs over
    per-doc distinct terms (stages/text_analysis.py:pmi_term_pairs).
    Corpus work = one pre-aggregated df count + one pre-aggregated pair-partial
    pass (bincount over pair ids, <= C(30,2) rows per batch); PMI math
    driver-side on the bounded pair table."""
    from calendar_event_entity_extraction_ray.stages.text_analysis import (
        pmi_term_pairs,
    )

    ds = _read(sf_dir, "documents", columns=["text"])
    out = pmi_term_pairs(ds, top_n=30)
    return _int64(out, ["df_ab", "pmi_e6"])


@query("cdc_dedup_docs", f"SELECT doc_id, n_chunks, total_bytes, n_dup_chunks,"
    f" dup_bytes FROM {_golden('cdc_dedup_docs')}", bench=True)
def q_cdc_dedup_docs(sf_dir: str) -> Any:
    """Content-defined-chunking dedup (stages/cdcdedup.py): per-doc
    chunk-level redundancy via a vectorized gear-style rolling window —
    byte-level, alignment-free (insertions re-sync, unlike fixed-size or
    token-n-gram spans). One chunk exchange + one grouped reduce; golden
    oracle recomputes first-wins on raw chunk BYTES (hash-collision-proof
    mirror)."""
    from calendar_event_entity_extraction_ray.stages.cdcdedup import (
        cdc_dedup_docs,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return cdc_dedup_docs(ds)


_DICT_TAG_PHRASES = tuple(
    f"{a} {b}"
    for a in ("fast", "slow", "big", "small")
    for b in ("table", "query", "scan", "join")
) + ("spark", "stream key")


@query("dict_tag_docs", """
    WITH p(tag) AS (
        SELECT a.w || ' ' || b.w
        FROM (VALUES ('fast'), ('slow'), ('big'), ('small')) a(w)
        CROSS JOIN
             (VALUES ('table'), ('query'), ('scan'), ('join')) b(w)
        UNION ALL SELECT 'spark'
        UNION ALL SELECT 'stream key'
    )
    SELECT d.doc_id, p.tag
    FROM documents d JOIN p ON contains(d.text, p.tag)
""", bench=True)
def q_dict_tag_docs(sf_dir: str) -> Any:
    """Multi-pattern dictionary tagging (lexicon / blocklist matching,
    stages/dicttag.py): one (doc_id, tag) row per dictionary phrase
    occurring as a SUBSTRING of the text — DuckDB contains() semantics.
    Pure flat-map, no shuffle. This 18-phrase dictionary routes to the
    vectorized match_substring regime; the per-worker Aho-Corasick
    automaton regime (dictionary-size-independent scan for 10^6-phrase
    blocklists) is pinned row-identical by tests/test_dicttag.py."""
    from calendar_event_entity_extraction_ray.stages.dicttag import (
        tag_documents,
    )

    ds = _read(sf_dir, "documents", columns=["doc_id", "text"])
    return tag_documents(ds, _DICT_TAG_PHRASES)
