"""The epoch stores of the daily crawl: feature state (decayed counters,
HLL registers, value histograms), watermark windows, the embedding
near-dup store and the IVF vector store. Each ingest is idempotent per
epoch; parameters are pinned by a store's first epoch."""

from __future__ import annotations

import sys

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray

from calendar_event_entity_extraction_ray.stages import embstore as EB
from calendar_event_entity_extraction_ray.stages import featstate as fs
from calendar_event_entity_extraction_ray.stages import histstate as Hs
from calendar_event_entity_extraction_ray.stages import hllstate as hs
from calendar_event_entity_extraction_ray.stages import keyedstate as ks
from calendar_event_entity_extraction_ray.stages import vecstore as vs
from calendar_event_entity_extraction_ray.stages import watermark as wm


def _show(df, max_rows: int) -> None:
    print(df.to_string(index=False, max_rows=max_rows), file=sys.stderr)


def feature(*, state, input, epoch, kind="decay", key_col="user_id",
            ts_col="ts", value_col="event_type", hll_p=12, hist_width=500,
            hist_value_col="value", half_life=48, cap=30) -> dict:
    """Ingest one epoch of events into a feature state dir.

    --kind decay: decayed counters per --key-col over --ts-col
    (--half-life hours; --cap half-lives of decay at most). --kind hll:
    per-key HyperLogLog registers (--hll-p) over --value-col, the
    approximate-distinct state. --kind hist: per-key histograms of
    --hist-value-col in --hist-width cent buckets. Re-running a recorded
    epoch is a no-op; the commit is atomic.
    """
    if kind == "hll":
        ds = ray.data.read_parquet(input, columns=[key_col, value_col])
        ds = ds.map_batches(lambda b: pa.table({
            "k": b.column(key_col).cast(pa.string()),
            "v": b.column(value_col).cast(pa.string())}),
            batch_format="pyarrow")
        s = hs.hll_distinct_epoch(ds, state, epoch, "k", "v", p=hll_p)
    elif kind == "hist":
        ds = ray.data.read_parquet(input, columns=[key_col, hist_value_col])
        s = Hs.hist_epoch(ds, state, epoch, key_col=key_col,
                          value_col=hist_value_col, width_cents=hist_width)
    elif kind == "decay":
        ds = ray.data.read_parquet(input, columns=[key_col, ts_col])
        s = fs.decayed_counter_epoch(
            ds, state, epoch, key_col=key_col, ts_col=ts_col,
            half_life_hours=half_life, cap=cap)
    else:
        raise ValueError(f"--kind must be decay, hll or hist, not {kind!r}")
    return {"epoch": epoch, **s}


def decay_table(state: str):
    """The decayed-counter serving view (key, n_events, decayed_num),
    highest decayed count first."""
    t = fs.read_decayed_counters(state).to_pandas()
    return t.sort_values("decayed_num", ascending=False)


def feature_read(*, state, kind="decay") -> dict:
    """Show a feature state's serving view on stderr: decay (key,
    n_events, decayed_num), hll (key, est) or hist (per-key n_total and
    q50/q90/q99 buckets)."""
    if kind == "decay":
        t = decay_table(state)
        _show(t, 30)
        return {"keys": len(t),
                "ref_us": ks.load_state(fs.STORE, state).get("ref_us")}
    if kind == "hist":
        t, store = Hs.read_quantiles(state), Hs.STORE
    elif kind == "hll":
        t, store = hs.read_hll_distinct(state), hs.STORE
        t = t.sort_values("est", ascending=False)
    else:
        raise ValueError(f"--kind must be decay, hll or hist, not {kind!r}")
    _show(t, 30)
    return {"keys": len(t), "epochs": ks.load_state(store, state)["epochs"]}


def window(*, state, input, epoch, form="tumbling", key_col="event_type",
           ts_col="ts", window=60, slide=30, gap=30, lateness=60,
           late_policy="side_output") -> dict:
    """Ingest one epoch of events into a watermark window state dir.

    --form tumbling (--window minutes), sliding (--window, --slide) or
    session (--gap minutes); events later than --lateness minutes behind
    the watermark go to the late side output (--late-policy side_output)
    or are dropped (drop). Re-running a recorded epoch is a no-op; the
    form and geometry are pinned by the first epoch.
    """
    ds = ray.data.read_parquet(input, columns=[key_col, ts_col])
    kw = dict(key_col=key_col, ts_col=ts_col,
              allowed_lateness_minutes=lateness, late_policy=late_policy)
    if form == "session":
        s = wm.session_window_epoch(ds, state, epoch, gap_minutes=gap, **kw)
    elif form in ("tumbling", "sliding"):
        s = wm.tumbling_window_epoch(
            ds, state, epoch, window_minutes=window, **kw,
            slide_minutes=slide if form == "sliding" else None)
    else:
        raise ValueError(
            f"--form must be tumbling, sliding or session, not {form!r}")
    return {"epoch": epoch, "form": form, **s}


def window_table(state: str, key_col: str) -> tuple:
    """(kind, table): the current window or session state."""
    kind = wm.window_kind(wm.STATE.load(state))
    read = wm.read_session_state if kind == "session" else wm.read_window_state
    return kind, read(state, key_col=key_col)


def window_read(*, state, key_col="event_type") -> dict:
    """Show the current window or session state on stderr."""
    kind, t = window_table(state, key_col)
    _show(t.to_pandas(), 50)
    return {"rows": t.num_rows, "kind": kind}


def window_read_late(*, state, key_col="event_type") -> dict:
    """Show the late side-output stream on stderr."""
    t = wm.read_late_rows(state, key_col=key_col)
    _show(t.to_pandas(), 50)
    return {"late_rows": t.num_rows}


def window_read_final(*, state) -> dict:
    """Show the sealed windows or sessions of every epoch, with their
    sealing epoch (the serving read), on stderr."""
    t = wm.read_final_windows(state)
    _show(t.to_pandas(), 50)
    return {"final_rows": t.num_rows,
            "epochs": sorted(set(t.column("epoch").to_pylist()))}


def embstore(*, store, input, epoch, out="", id_col="vec_id",
             vec_col="embedding", cells=8, tau=0.3) -> dict:
    """Incremental SemDeDup: drop this epoch's embedding near-dups
    (cosine distance <= --tau within --cells centroid cells) against all
    prior epochs and within the epoch (smallest id wins), record the
    survivors in the store, and write them to --out as Parquet when set.
    Re-running a recorded epoch is a no-op returning its recorded
    survivors; the centroid geometry is pinned by the first epoch.
    """
    ds = ray.data.read_parquet(input, columns=[id_col, vec_col])
    n_in = ds.count()
    surv = EB.dedup_epoch(ds, store, epoch, id_col=id_col, vec_col=vec_col,
                          k=cells, tau=tau)
    n_out = surv.count()
    if out:
        surv.write_parquet(out)
    return {"epoch": epoch, "n_in": n_in, "n_survivors": n_out,
            "n_dropped": n_in - n_out, "store_rows": EB.store_rows(store)}


def embstore_stats(*, store) -> dict:
    """The embedding store's epochs, rows and pinned params."""
    m = EB.STATE.load(store)
    return {"epochs": sorted(m["epochs"]), "rows": EB.store_rows(store),
            "params": m.get("params")}


def embstore_compact(*, store) -> dict:
    """Fold the embedding store's epoch files into one per cell
    (membership unchanged)."""
    m = EB.compact_store(store)
    return {"compacted_epochs": m.get("compacted_epochs", []),
            "rows": EB.store_rows(store)}


def vecstore_build(*, store, input, id_col="vec_id", vec_col="embedding",
                   cells=16, pq_m=0) -> dict:
    """Build a persisted IVF vector store of --cells cells from (id,
    vector) rows; --pq-m sub-codebooks per cell file add PQ codes (0 =
    raw vectors only)."""
    m = vs.build_ivf_store(
        ray.data.read_parquet(input, columns=[id_col, vec_col]), store,
        n_cells=cells, id_col=id_col, vec_col=vec_col, pq_m=pq_m or None)
    return {"store": store, "cells": len(m["cells"]),
            "rows": sum(e["rows"] for e in m["cells"].values()),
            "pq": bool(m.get("pq"))}


def vecstore_append(*, store, input, epoch, id_col="vec_id",
                    vec_col="embedding") -> dict:
    """Append (id, vector) rows to the vector store as an LSM delta
    epoch; re-running an epoch already in the manifest is a no-op."""
    noop = epoch in vs.STATE.load(store).get("epochs", [])
    m = vs.append_ivf_store(
        ray.data.read_parquet(input, columns=[id_col, vec_col]), store, epoch)
    return {"store": store, "epochs": m.get("epochs", []), "noop": noop}


def vecstore_compact(*, store) -> dict:
    """Fold the vector store's delta side files into its cells."""
    m = vs.compact_ivf_store(store)
    return {"store": store,
            "compacted_epochs": sorted({e for c in m["cells"].values()
                                        for e in c.get("compacted_epochs", [])}),
            "epochs": m.get("epochs", [])}


def topk(store: str, input: str, ids: list, k: int, n_probe: int = 4,
         as_of=None, id_col: str = "vec_id", vec_col: str = "embedding"):
    """Top-k rows of the vector store for the vectors of ``ids`` in
    ``input`` (a bounded read of exactly those rows)."""
    t = pq.read_table(input, columns=[id_col, vec_col],
                      filters=[(id_col, "in", ids)])
    order = {int(v): i for i, v in enumerate(t.column(id_col).to_pylist())}
    missing = [i for i in ids if i not in order]
    if missing:
        raise ValueError(f"query ids not in input: {missing}")
    mat = np.asarray([t.column(vec_col)[order[i]].as_py() for i in ids],
                     dtype=np.float64)
    df = vs.query_ivf_store(store, mat, k=k, n_probe=n_probe,
                            as_of=as_of).to_pandas()
    df["query_vec_id"] = [ids[q] for q in df["query_id"]]
    return df


def vecstore_query(*, store, input, query_ids="0", k=5, n_probe=4, as_of="",
                   id_col="vec_id", vec_col="embedding") -> dict:
    """Show the vector store's top-k rows on stderr for the vectors whose
    id is in --query-ids (comma-separated) in --input, probing --n-probe
    cells. --as-of reads the store as of an epoch (or 'base', before any
    append); behind a merge-applied or compacted epoch it errors."""
    ids = [int(x) for x in query_ids.split(",") if x != ""]
    _show(topk(store, input, ids, k, n_probe, as_of or None, id_col,
               vec_col), 60)
    return {"queries": len(ids), "k": k, "as_of": as_of or None,
            "files_read": vs.query_ivf_store.last_files_read,
            "total_cells": vs.query_ivf_store.total_cells}
