"""The two knowledge-graph workloads and their single-process oracle.

``kg_build`` times a cold full-graph build in synthetic-source mode:
``ray.data.range(n)`` -> ``kg_triples(gen_seed=seed)`` ->
``materialize_graph``. ``kg_daily`` builds a base graph during set-up and
times rounds of ``append_graph(mode="delta")`` epochs, each followed by a
head ``read_output``, ending with ``compact_graph`` and a final read.

Both are checked against ``kernel_triples``: the same stage kernels run in
one process, without Ray. Triple dedup is exact per batch (``subj`` embeds
the page url, see ``stages/dedup.py``), so the graph over a set of page ids
is the concatenation of the per-page kernel output, and the comparison is
on row count plus an order-insensitive content hash.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import statistics
import time
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from calendar_event_entity_extraction_ray.functions.linking import default_alias_rows
from calendar_event_entity_extraction_ray.pipelines.kg import (
    append_graph,
    compact_graph,
    kg_triples,
    materialize_graph,
)
from calendar_event_entity_extraction_ray.sources.pages import pages_table
from calendar_event_entity_extraction_ray.stages.dedup import (
    add_hash_column,
    dedup_triples_batch,
)
from calendar_event_entity_extraction_ray.stages.emit_triples import emit_triples_batch
from calendar_event_entity_extraction_ray.stages.extract_events import ExtractEvents
from calendar_event_entity_extraction_ray.stages.html_to_text import (
    filter_lang,
    html_to_text_batch,
)
from calendar_event_entity_extraction_ray.stages.exchange import hash_partition_map
from calendar_event_entity_extraction_ray.stages.link_entities import LinkEntities
from calendar_event_entity_extraction_ray.state.manifest import (
    load_manifest,
    read_output,
)

from spans import Tracer

NUM_PARTITIONS = 16    # bench.py's partition count at its headline size
ORACLE_CHUNK = 1000    # pages per single-process kernel call
KERNELS = ["sources.pages_table", "stages.html_to_text", "stages.filter_lang",
           "stages.extract_events", "stages.emit_triples",
           "stages.link_entities", "stages.dedup_triples"]


def kernel_triples(ids: Iterable[int], seed: int, tracer: Tracer,
                   counts: Dict[str, int]) -> pa.Table:
    """Single-process recompute of the fused KG stage over ``ids``.

    Each kernel call is a span named as in ``KERNELS``, all under one
    ``kernels`` span; ``counts`` accumulates the rows each kernel emits."""
    ids = list(ids)
    with tracer.span("kernels"):
        with tracer.span("stages.extract_events"):
            extract = ExtractEvents()
        with tracer.span("stages.link_entities"):
            link = LinkEntities(alias_ref=default_alias_rows())
        out = []
        for lo in range(0, len(ids), ORACLE_CHUNK):
            chunk = ids[lo:lo + ORACLE_CHUNK]
            fns = [lambda _: pages_table(chunk, seed=seed), html_to_text_batch,
                   filter_lang, extract, emit_triples_batch, link,
                   dedup_triples_batch]
            t = None
            for name, fn in zip(KERNELS, fns):
                with tracer.span(name):
                    t = fn(t)
                counts[name] = counts.get(name, 0) + t.num_rows
            out.append(t)
    return pa.concat_tables(out)


def kernel_metrics(tracer: Tracer, counts: Dict[str, int]) -> Dict[str, float]:
    """The ``stages.*``, ``sources.*`` and ``kernels.*`` metrics of the
    ``kernel_triples`` calls a tracer recorded."""
    total = lambda name: sum(tracer.durations(name))  # noqa: E731
    m = {f"{name}_s": total(name) for name in KERNELS
         if name != "stages.filter_lang"}
    m["stages.html_to_text_s"] += total("stages.filter_lang")
    pages, kept = counts["sources.pages_table"], counts["stages.filter_lang"]
    m["stages.lang_keep_ratio"] = kept / pages
    m["stages.events_per_page"] = counts["stages.extract_events"] / kept
    m["stages.triples_per_event"] = (counts["stages.emit_triples"]
                                     / counts["stages.extract_events"])
    m["stages.dedup_keep_ratio"] = (counts["stages.dedup_triples"]
                                    / counts["stages.link_entities"])
    m["kernels.docs_per_s"] = pages / total("kernels")
    return m


def digest(t: pa.Table) -> Tuple[int, Tuple[str, ...], str]:
    """(rows, column names, order-insensitive content hash)."""
    cols = tuple(sorted(t.column_names))
    h = pd.util.hash_pandas_object(t.select(list(cols)).to_pandas(),
                                   index=False).to_numpy()
    return t.num_rows, cols, hashlib.md5(np.sort(h).tobytes()).hexdigest()


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def id_blocks(ids: List[int], cpus: int) -> "ray.data.Dataset":
    """An ``id`` dataset (the synthetic-source input) in a few blocks."""
    t = pa.table({"id": pa.array(ids, pa.int64())})
    n = max(cpus * 4, 4)
    step = -(-len(ids) // n)
    return ray.data.from_arrow([t.slice(i, step)
                                for i in range(0, len(ids), step)])


def build_graph(n_pages: int, seed: int, out_dir: str, cpus: int,
                tracer: Optional[Tracer] = None
                ) -> Tuple[dict, "ray.data.Dataset"]:
    """The bench.py build path at ``cpus`` CPUs, into a fresh ``out_dir``.

    Returns the manifest and the triples. With a tracer the triples are
    materialized before ``materialize_graph``, so ``kg_triples`` and
    ``materialize_graph`` get a span each."""
    shutil.rmtree(out_dir, ignore_errors=True)
    ids = ray.data.range(n_pages, override_num_blocks=max(cpus * 4, 8))
    triples = kg_triples(ids, gen_seed=seed)
    if tracer is not None:
        with tracer.span("pipelines.kg_triples"):
            triples = triples.materialize()
    with (tracer or Tracer()).span("pipelines.materialize_graph"):
        manifest = materialize_graph(
            triples, out_dir, fingerprint=f"perfbench-{n_pages}-{seed}",
            num_partitions=NUM_PARTITIONS)
    return manifest, triples


def max_share(rows: List[int]) -> float:
    return max(rows) / sum(rows)


def _hash_subj(b: pa.Table) -> pa.Table:
    return add_hash_column(b, ["subj"], out_col="_kh")


def _count_rows(t: pa.Table) -> pa.Table:
    return pa.table({"rows": pa.array([t.num_rows], pa.int64())})


class KgBuild:
    """Cold full-graph builds of ``PAGES`` pages, each checked."""

    name = "kg_build"
    PAGES = 6000
    WARM_PAGES = 1000
    min_steps = 3

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, self.name)
        self.out = os.path.join(self.dir, "graph")
        self.walls: List[float] = []

    def setup(self) -> None:
        build_graph(self.WARM_PAGES, self.ctx.seed,
                    os.path.join(self.dir, "warm"), self.ctx.cpus)

    def warm(self) -> None:
        pass

    def oracle(self, tracer: Tracer) -> Tuple[tuple, Dict[str, int]]:
        """The graph's digest, and the kernel row counts."""
        counts: Dict[str, int] = {}
        return digest(kernel_triples(range(self.PAGES), self.ctx.seed,
                                     tracer, counts)), counts

    def prepare(self, oracle) -> None:
        self.expected, self.counts = oracle

    def step_s(self) -> float:
        """Median wall of one build."""
        return statistics.median(self.walls)

    def details(self) -> Dict[str, float]:
        return {"build_docs_per_s": self.PAGES / self.step_s()}

    def step(self, tracer: Tracer) -> Tuple[float, int]:
        t0 = time.perf_counter()
        self.manifest, _ = build_graph(self.PAGES, self.ctx.seed, self.out,
                                       self.ctx.cpus)
        wall = time.perf_counter() - t0
        self.walls.append(wall)
        self.check("build")
        return wall, self.PAGES

    def check(self, what: str) -> None:
        self.ctx.ops.check(digest(read_output(self.out)) == self.expected,
                           f"kg_build {what} != single-process recompute")

    def trace_layers(self, tracer: Tracer) -> Dict[str, float]:
        """Kernel metrics from the oracle's spans; build metrics from the
        steps; then one more build of the same pages with the triples
        materialized first, for the ``kg_triples``/``materialize_graph``
        split, and the subject-keyed exchange over those triples."""
        m = kernel_metrics(tracer, self.counts)
        m["pipelines.ray_efficiency"] = (self.details()["build_docs_per_s"]
                                         / m["kernels.docs_per_s"])
        m["pipelines.partition_max_share"] = max_share(
            [e["rows"] for e in self.manifest["partitions"].values()])
        _, triples = build_graph(self.PAGES, self.ctx.seed, self.out,
                                 self.ctx.cpus, tracer)
        self.check("split build")
        keyed = triples.map_batches(_hash_subj, batch_format="pyarrow")
        with tracer.span("stages.hash_partition_map"):
            parts = hash_partition_map(keyed, "_kh", _count_rows,
                                       num_partitions=NUM_PARTITIONS
                                       ).to_pandas()
        for name in ("pipelines.kg_triples", "pipelines.materialize_graph",
                     "stages.hash_partition_map"):
            m[f"{name}_s"] = tracer.durations(name)[-1]
        m["stages.exchange_max_share"] = max_share(parts["rows"].tolist())
        return m


class KgDaily:
    """Rounds of delta epochs over a copy of a base graph.

    Each epoch ingests ``OVERLAP`` re-crawled ids (already in the graph, so
    their triples must collapse) and ``NEW`` unseen ids. Every round
    replays the same epochs on a fresh copy of the base, so every round
    does the same work and is checked against the same oracle."""

    name = "kg_daily"
    BASE_PAGES = 3000
    EPOCHS = 4
    OVERLAP = 1000
    NEW = 1000
    min_steps = 2

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.dir = os.path.join(ctx.work, self.name)
        self.base = os.path.join(self.dir, "base")
        self.graph = os.path.join(self.dir, "graph")
        rng = random.Random(f"kg_daily:{ctx.seed}")
        self.epochs = []
        for k in range(self.EPOCHS):
            seen = self.BASE_PAGES + k * self.NEW
            self.epochs.append(sorted(rng.sample(range(seen), self.OVERLAP))
                               + list(range(seen, seen + self.NEW)))
        self.samples: Dict[str, List[float]] = {
            "day_s": [], "epoch_s": [], "read_s": [], "compact_s": [],
            "bytes_per_triple": [], "graph_bytes": [], "delta_files": [],
            "read_amplification": []}

    def setup(self) -> None:
        build_graph(self.BASE_PAGES, self.ctx.seed, self.base, self.ctx.cpus)

    def warm(self) -> None:
        pass

    def oracle(self, tracer: Tracer) -> Tuple[List[tuple], Dict[str, int]]:
        """Digests of the graph after k epochs, pages [0, BASE + k*NEW),
        for k = 0..EPOCHS; and the kernel row counts."""
        counts: Dict[str, int] = {}
        parts, expected, lo = [], [], 0
        for k in range(self.EPOCHS + 1):
            hi = self.BASE_PAGES + k * self.NEW
            parts.append(kernel_triples(range(lo, hi), self.ctx.seed, tracer,
                                        counts))
            expected.append(digest(pa.concat_tables(parts)))
            lo = hi
        return expected, counts

    def prepare(self, oracle) -> None:
        self.expected, self.counts = oracle
        self.ctx.ops.check(digest(read_output(self.base)) == self.expected[0],
                           "kg_daily base graph != single-process recompute")

    def step_s(self) -> float:
        """Median wall of one epoch: its append plus the head read."""
        return statistics.median(self.samples["day_s"])

    def details(self) -> Dict[str, float]:
        return {k: statistics.median(v) for k, v in self.samples.items() if v}

    def step(self, tracer: Tracer) -> Tuple[float, int]:
        shutil.rmtree(self.graph, ignore_errors=True)
        shutil.copytree(self.base, self.graph)
        timed = 0.0
        for k, ids in enumerate(self.epochs):
            t0 = time.perf_counter()
            with tracer.span("kg_daily.epoch"):
                with tracer.span("pipelines.append_graph"):
                    append_graph(kg_triples(id_blocks(ids, self.ctx.cpus),
                                            gen_seed=self.ctx.seed),
                                 self.graph, epoch=f"day{k}", mode="delta")
                t1 = time.perf_counter()
                with tracer.span("state.read_output"):
                    head = read_output(self.graph)
            t2 = time.perf_counter()
            timed += t2 - t0
            self.samples["day_s"].append(t2 - t0)
            self.samples["epoch_s"].append(t1 - t0)
            self.samples["read_s"].append(t2 - t1)
            self.ctx.ops.check(digest(head) == self.expected[k + 1],
                               f"kg_daily read after day{k} != recompute")
        self.sample_layout(head.num_rows)
        t0 = time.perf_counter()
        with tracer.span("kg_daily.compact"):
            with tracer.span("pipelines.compact_graph"):
                compact_graph(self.graph)
            t1 = time.perf_counter()
            with tracer.span("state.read_output"):
                head = read_output(self.graph)
        self.samples["compact_s"].append(t1 - t0)
        timed += time.perf_counter() - t0
        self.ctx.ops.check(digest(head) == self.expected[-1],
                           "kg_daily read after compaction != recompute")
        return timed, self.EPOCHS * (self.OVERLAP + self.NEW)

    def sample_layout(self, distinct: int) -> None:
        """On-disk size and manifest layout of the graph before compaction
        (untimed)."""
        parts = load_manifest(self.graph)["partitions"].values()
        listed = sum(e["rows"] + sum(d["rows"] for d in e.get("deltas", []))
                     for e in parts)
        s = self.samples
        s["graph_bytes"].append(dir_bytes(self.graph))
        s["bytes_per_triple"].append(s["graph_bytes"][-1] / distinct)
        s["delta_files"].append(sum(len(e.get("deltas", [])) for e in parts))
        s["read_amplification"].append(listed / distinct)

    def trace_layers(self, tracer: Tracer) -> Dict[str, float]:
        """Kernel metrics from the oracle's spans; write, read, compaction
        and layout metrics as medians over the traced rounds."""
        m = kernel_metrics(tracer, self.counts)
        med = statistics.median
        m["pipelines.append_graph_s"] = med(
            tracer.durations("pipelines.append_graph"))
        m["pipelines.compact_graph_s"] = med(
            tracer.durations("pipelines.compact_graph"))
        m["state.read_output_s"] = med(
            tracer.durations("state.read_output", parent="kg_daily.epoch"))
        for k in ("delta_files", "read_amplification", "graph_bytes",
                  "bytes_per_triple"):
            m[f"state.{k}"] = med(self.samples[k])
        return m
