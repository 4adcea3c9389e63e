"""Computes one workload's oracle answers in a process of its own.

    python3 perfbench/oracle.py '<json: workload, seed, work, cpus, trace, t0>' OUT

Writes ``(answers, spans)`` to ``OUT`` as a pickle. ``run.py`` starts it
before the measured steps, so that the driver's memory does not hold what
the oracle needed.
"""

from __future__ import annotations

import json
import os
import pickle
import sys

import run
from spans import Tracer


def main() -> int:
    a = json.loads(sys.argv[1])
    sys.path[:0] = [run.ROOT, os.path.join(run.ROOT, "scripts")]
    tracer = Tracer(enabled=a["trace"])
    tracer.t0 = a["t0"]
    w = run.make_workload(a["workload"],
                          run.RunContext(a["seed"], a["work"], a["cpus"]))
    answers = w.oracle(tracer)
    with open(sys.argv[2], "wb") as f:
        pickle.dump((answers, tracer.spans), f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
