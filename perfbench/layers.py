"""Per-layer metrics of a traced run.

The workload the run measures gives the metrics of the layers it runs,
from its own spans: the single-process kernel calls of its oracle (on its
own page ids) and its traced steps (see each workload's ``trace_layers``).
The layers it does not run are probed afterwards by running each other
workload once, with its own code: set-up, oracle (in the driver: a traced
run reports no memory), one checked traced step.
The Ray plan floor is probed in every traced run, as no workload times a
trivial plan.
"""

from __future__ import annotations

import statistics
from typing import Callable, Dict, List, Tuple

import pyarrow as pa

import ray
import ray.data

from spans import Tracer

FLOOR_PLANS = 5


def _identity(b: pa.Table) -> pa.Table:
    return b


def plan_floor_s(tracer: Tracer) -> float:
    """Median wall of ``FLOOR_PLANS`` trivial one-block plans."""
    for _ in range(FLOOR_PLANS):
        with tracer.span("ray.plan_floor"):
            ray.data.range(1, override_num_blocks=1).map_batches(
                _identity, batch_format="pyarrow").materialize()
    return statistics.median(tracer.durations("ray.plan_floor"))


def layer_metrics(main, tracer: Tracer, others: List[str],
                  make_workload: Callable) -> Tuple[Dict[str, float], Dict]:
    """(per-layer metrics, spans by source) of a traced run of ``main``,
    whose oracle and traced steps ``tracer`` recorded. A metric comes from
    ``main`` when it runs that layer, else from the first of ``others``
    that does."""
    ops = main.ctx.ops
    m: Dict[str, float] = {}
    spans = {"run": tracer}
    tracer.enabled = True
    with ops.guard(f"{main.name} layer metrics"):
        m.update(main.trace_layers(tracer))
    for name in others:
        w = make_workload(name, main.ctx)
        t = spans[f"probe:{name}"] = Tracer(enabled=True)
        with ops.guard(f"probe {name}"), t.span(f"probe.{name}"):
            w.setup()
            w.prepare(w.oracle(t))
            with t.span(f"{name}.step"):
                w.step(t)
            for k, v in w.trace_layers(t).items():
                m.setdefault(k, v)
    t = spans["probe:ray"] = Tracer(enabled=True)
    with ops.guard("probe ray"):
        m["ray.plan_floor_s"] = plan_floor_s(t)
    return m, {k: v.records() for k, v in spans.items()}
