"""The day-in-the-life check: RUNBOOK.md §6's daily crawl through every
persistent store, in one Ray session."""

from __future__ import annotations

import hashlib
import os
import shutil
import tempfile
import time

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


def daily(*, sf_dir, pages=8000) -> dict:
    """Drive the daily crawl through every persistent store in one
    shared root for epochs day1 and day2, then re-run day2, and check
    that the re-run changes nothing.

    Inputs come from --sf-dir (documents, events and embeddings
    parquet); the graph renders --pages synthetic pages per epoch (seed
    42, then 99). Per epoch: corpus --epoch (fingerprint store), graph
    with a stable entity registry (day1 a build, day2 a delta append),
    session windows, decayed counters, HLL, value histograms, the
    embedding near-dup store and the vector store (day1 build, day2
    append). ok is true only when, for every store, the day2 re-run
    reports a no-op and leaves every file byte-identical, and the window
    state, the decayed counters and the vector top-k rows read the same
    tables before and after it.
    """
    root = tempfile.mkdtemp(prefix="cee_daily_")
    docs, ev, embs = (os.path.join(sf_dir, f"{t}.parquet")
                      for t in ("documents", "events", "embeddings"))
    at = {s: os.path.join(root, s) for s in STORES}

    def epoch(name: str, seed: int) -> dict:
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
                                        input=embs),
            "vectors": (stores.vecstore_build(store=at["vectors"],
                                              input=embs, cells=16, pq_m=4)
                        if name == "day1" else
                        stores.vecstore_append(store=at["vectors"],
                                               input=embs, epoch=name)),
        }

    def reads() -> dict:
        return {"windows": stores.window_table(at["windows"],
                                               "event_type")[1].to_pandas(),
                "decay": stores.decay_table(at["decay"]),
                "vectors": stores.topk(at["vectors"], embs, [0, 7], k=3)}

    try:
        t0 = time.time()
        epoch("day1", 42)
        day2 = epoch("day2", 99)
        files, before = _files(root), reads()
        t1 = time.time()
        rerun = epoch("day2", 99)
        t2 = time.time()
        after_files, after = _files(root), reads()
        noop = {s: r.get("noop") is True for s, r in rerun.items()}
        noop.update(
            # a recorded corpus epoch keeps nothing new
            corpus=rerun["corpus"]["n_docs_out"] == 0,
            # the embedding store returns the recorded survivors
            embdedup=rerun["embdedup"] == day2["embdedup"],
            # the graph job's registry reports nothing of its own
            entities=True)
        checks = {f"{s}_noop": noop[s] and _of(files, s) == _of(after_files, s)
                  for s in STORES}
        checks.update({f"{r}_read_same": before[r].equals(after[r])
                       for r in before})
        return {"stores": sorted(os.listdir(root)), "checks": checks,
                "ok": all(checks.values()),
                "epochs_sec": round(t1 - t0, 1), "rerun_sec": round(t2 - t1, 1)}
    finally:
        shutil.rmtree(root, ignore_errors=True)
