"""The day-in-the-life check: RUNBOOK.md §6's daily crawl through every
persistent store, in one Ray session."""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time

import pyarrow.compute as pc
import pyarrow.parquet as pq

from calendar_event_entity_extraction_ray.stages import histstate

from . import corpus, kg, stores

# every persistent store under the shared root; "entities" is the
# registry the graph job writes
STORES = ("corpus", "graph", "entities", "windows", "decay", "hll", "hist",
          "embdedup", "vectors")


def _files(root: str) -> dict:
    """{path under root: md5 of its bytes} of every file but the run
    metrics (METRICS.json carries wall times)."""
    out = {}
    for d, _dirs, names in os.walk(root):
        for n in names:
            if n != "METRICS.json":
                p = os.path.join(d, n)
                with open(p, "rb") as f:
                    out[os.path.relpath(p, root)] = hashlib.md5(
                        f.read()).hexdigest()
    return out


def _of(files: dict, store: str) -> dict:
    return {p: h for p, h in files.items() if p.split(os.sep)[0] == store}


# the inputs of each epoch: the sf dir's tables split by id parity
INPUTS = {"documents": "doc_id", "events": "event_id",
          "embeddings": "vec_id"}


def _split_inputs(sf_dir: str, into: str) -> dict:
    """{(epoch, table): path} of the rows with even (day1) or odd (day2)
    ids, so every store sees new data on day2."""
    paths = {}
    for table, id_col in INPUTS.items():
        t = pq.read_table(os.path.join(sf_dir, f"{table}.parquet"))
        odd = pc.equal(pc.bit_wise_and(t.column(id_col), 1), 1)
        for name, keep in (("day1", pc.invert(odd)), ("day2", odd)):
            os.makedirs(os.path.join(into, name), exist_ok=True)
            paths[name, table] = os.path.join(into, name, f"{table}.parquet")
            pq.write_table(t.filter(keep), paths[name, table])
    return paths


def daily(*, sf_dir, pages=8000) -> dict:
    """Drive the daily crawl through every persistent store in one
    shared root for epochs day1 and day2, then re-run day2, and check
    that the re-run changes nothing.

    Inputs come from --sf-dir (documents, events and embeddings
    parquet), split by id parity: day1 ingests the even ids, day2 the
    odd ones. The graph renders --pages synthetic pages per epoch (seed
    42, then 99). Per epoch: corpus --epoch (fingerprint store), graph
    with a stable entity registry (day1 a build, day2 a delta append),
    session windows, decayed counters, HLL, value histograms, the
    embedding near-dup store and the vector store (day1 build, day2
    append). ok is true only when, for every store, the day2 re-run
    reports a no-op and leaves every file byte-identical, and the window
    state, the decayed counters and the vector top-k rows read the same
    tables before and after it. ``day2_new`` reports the rows day2
    added: corpus documents, late and sealed windows, and the events the
    decayed counters and value histograms absorbed.
    """
    root = tempfile.mkdtemp(prefix="cee_daily_")
    inputs = tempfile.mkdtemp(prefix="cee_daily_inputs_")
    embs = os.path.join(sf_dir, "embeddings.parquet")
    at = {s: os.path.join(root, s) for s in STORES}

    def epoch(name: str, seed: int) -> dict:
        docs, ev, emb = (paths[name, t] for t in INPUTS)
        append = dict(append=True, append_mode="delta") if name != "day1" else {}
        return {
            "corpus": corpus.corpus(input=docs, out=at["corpus"],
                                    partitions=8, epoch=name),
            "graph": kg.graph(pages=pages, seed=seed, out=at["graph"],
                              partitions=8, fingerprint=name,
                              resolve_entities=True,
                              entity_store=at["entities"], **append),
            "windows": stores.window(state=at["windows"], epoch=name,
                                     input=ev, form="session", gap=30),
            "decay": stores.feature(state=at["decay"], epoch=name, input=ev),
            "hll": stores.feature(state=at["hll"], kind="hll", epoch=name,
                                  input=ev, value_col="event_type"),
            "hist": stores.feature(state=at["hist"], kind="hist",
                                   key_col="event_type", epoch=name,
                                   input=ev),
            "embdedup": stores.embstore(store=at["embdedup"], epoch=name,
                                        input=emb),
            "vectors": (stores.vecstore_build(store=at["vectors"],
                                              input=emb, cells=16, pq_m=4)
                        if name == "day1" else
                        stores.vecstore_append(store=at["vectors"],
                                               input=emb, epoch=name)),
        }

    def reads() -> dict:
        return {"windows": stores.window_table(at["windows"],
                                               "event_type")[1].to_pandas(),
                "decay": stores.decay_table(at["decay"]),
                "vectors": stores.topk(at["vectors"], embs, [0, 7], k=3)}

    def absorbed() -> dict:
        """Events the decayed counters and value histograms hold."""
        return {"decay": int(stores.decay_table(at["decay"])
                             ["n_events"].sum()),
                "hist": int(histstate.read_quantiles(at["hist"])
                            ["n_total"].sum())}

    try:
        paths = _split_inputs(sf_dir, inputs)
        t0 = time.time()
        epoch("day1", 42)
        held = absorbed()
        day2 = epoch("day2", 99)
        gained = {s: n - held[s] for s, n in absorbed().items()}
        files, before = _files(root), reads()
        t1 = time.time()
        rerun = epoch("day2", 99)
        t2 = time.time()
        after_files, after = _files(root), reads()
        noop = {s: r.get("noop") is True for s, r in rerun.items()}
        noop.update(
            # a recorded corpus or embedding epoch returns its recorded
            # survivors
            corpus=rerun["corpus"]["n_docs_out"]
            == day2["corpus"]["n_docs_out"],
            embdedup=rerun["embdedup"] == day2["embdedup"],
            # the graph job's registry reports nothing of its own
            entities=True)
        checks = {f"{s}_noop": noop[s] and _of(files, s) == _of(after_files, s)
                  for s in STORES}
        checks.update({f"{r}_read_same": before[r].equals(after[r])
                       for r in before})
        day2_new = {
            "corpus": day2["corpus"]["n_docs_out"],
            "windows": day2["windows"]["n_late"]
            + day2["windows"]["n_finalized"], **gained}
        return {"stores": sorted(os.listdir(root)), "checks": checks,
                "ok": all(checks.values()), "day2_new": day2_new,
                "epochs_sec": round(t1 - t0, 1), "rerun_sec": round(t2 - t1, 1)}
    finally:
        shutil.rmtree(root, ignore_errors=True)
        shutil.rmtree(inputs, ignore_errors=True)
