"""Benchmark of the KG engine on a local Ray cluster sized to the host.

    python3 perfbench/run.py --workload kg_build|kg_daily|query_mix \
        --seed N --seconds S --trace 0|1

Runs one workload for about ``--seconds`` seconds of measurement, checks
every output against an independent oracle, and prints one JSON line on
stdout: ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
steps alternate between traced and untraced, the per-layer probe runs, and
the metrics are the per-layer ones. Ray and library logs go to stderr.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REQUIRED = ["calendar_event_entity_extraction_ray", "__ray_entry__.py",
            os.path.join("scripts", "check_correctness.py")]
WORKLOADS = ["kg_build", "kg_daily", "query_mix"]
SETUP_REPS = 3
MARKER = "PERFBENCH_RUN"      # env var every process of a run inherits
GRACE_S = 20.0                # wait for the run's processes to exit
KILL_WAIT_S = 5.0             # then kill them and wait this long
BURN_ITERS = 3_000_000


def declared_units(trace: bool) -> Dict[str, str]:
    """Metric name -> unit, from BENCHMARK.json at the repository root."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


class Ops:
    """Counts checked operations; a failure is logged and counted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what}", file=sys.stderr)

    def error(self, what: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: FAILED {what}: {exc!r}", file=sys.stderr)
        traceback.print_exception(exc, file=sys.stderr)

    @contextlib.contextmanager
    def guard(self, what: str):
        try:
            yield
        except Exception as exc:  # the run goes on and reports the failure
            self.error(what, exc)


class RunContext:
    def __init__(self, seed: int, work: str, cpus: int) -> None:
        self.seed = seed
        self.work = work
        self.cpus = cpus
        self.ops = Ops()


BURN = ("import sys, time\nt0 = time.perf_counter()\nx = 0\n"
        "for i in range(int(sys.argv[1])):\n    x += i * i\n"
        "print(time.perf_counter() - t0)")


def host_meta() -> Dict:
    """nproc, the affinity mask and an ALU-burn effective-core reading:
    ``nproc`` processes run the same loop at once; effective cores is
    nproc x (the loop's time alone) / (the slowest loop's time)."""
    try:
        nproc = int(subprocess.run(["nproc"], capture_output=True,
                                   text=True, check=True).stdout)
    except (OSError, ValueError, subprocess.CalledProcessError):
        nproc = os.cpu_count() or 1

    def burn(k: int) -> List[float]:
        procs = [subprocess.Popen([sys.executable, "-c", BURN,
                                   str(BURN_ITERS)], stdout=subprocess.PIPE)
                 for _ in range(k)]
        return [float(p.communicate()[0]) for p in procs]

    single = burn(1)[0]
    return {"nproc": nproc, "affinity_cpus": len(os.sched_getaffinity(0)),
            "alu_eff_cores": nproc * single / max(burn(nproc))}


def _marked_pids(token: str) -> List[int]:
    """Processes other than this one whose environment carries the run's
    marker: everything the run started, Ray's daemons and workers too."""
    needle = f"{MARKER}={token}".encode() + b"\0"
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit() or int(d) == os.getpid():
            continue
        try:
            with open(f"/proc/{d}/environ", "rb") as f:
                if needle in f.read():
                    pids.append(int(d))
        except OSError:
            continue
    return pids


def reap(token: str) -> None:
    """Wait for the run's processes to exit; kill what outlives the grace."""
    for sig in (None, signal.SIGKILL):
        deadline = time.monotonic() + (GRACE_S if sig is None else KILL_WAIT_S)
        while time.monotonic() < deadline:
            pids = _marked_pids(token)
            if not pids:
                return
            if sig is not None:
                for pid in pids:
                    with contextlib.suppress(OSError):
                        os.kill(pid, sig)
            time.sleep(0.2)
    print(f"perfbench: processes still alive: {_marked_pids(token)}",
          file=sys.stderr)


def reset_peak_rss() -> None:
    """Restart this process's peak resident set count (``VmHWM``)."""
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def rss_mb(field: str = "VmHWM") -> float:
    """This process's peak resident set since the last reset (``VmHWM``)
    or its current one (``VmRSS``), in MB."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no {field} in /proc/self/status")


def run_oracle(args, ctx: RunContext, t0: float) -> Tuple[object, List[Dict]]:
    """The workload's oracle answers and the spans they recorded (times
    from ``t0``), computed by ``perfbench/oracle.py`` in a child process."""
    out = os.path.join(ctx.work, "oracle.pkl")
    spec = {"workload": args.workload, "seed": args.seed, "work": ctx.work,
            "cpus": ctx.cpus, "trace": bool(args.trace), "t0": t0}
    subprocess.run([sys.executable, os.path.join(HERE, "oracle.py"),
                    json.dumps(spec), out], check=True)
    with open(out, "rb") as f:
        return pickle.load(f)


def make_workload(name: str, ctx: RunContext):
    if name == "query_mix":
        from query_mix import QueryMix
        return QueryMix(ctx)
    from kg import KgBuild, KgDaily
    return {"kg_build": KgBuild, "kg_daily": KgDaily}[name](ctx)


def measure(w, ctx: RunContext, seconds: float, trace: bool, tracer):
    """Steps until the next one would end after ``seconds``, at least
    ``min_steps`` (2 or more, so a traced run has traced and untraced
    steps). With ``trace`` every other step is traced."""
    walls: Dict[bool, List[float]] = {True: [], False: []}
    items, n, last = 0, 0, 0.0
    t0 = time.perf_counter()
    while n < w.min_steps or time.perf_counter() - t0 + last <= seconds:
        tracer.enabled = trace and n % 2 == 0
        s0 = time.perf_counter()
        with ctx.ops.guard(f"{w.name} step {n}"), \
                tracer.span(f"{w.name}.step"):
            wall, step_items = w.step(tracer)
            walls[tracer.enabled].append(wall)
            items += step_items
        last = time.perf_counter() - s0
        n += 1
    tracer.enabled = False
    return walls, items, n


def run(args) -> Dict:
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".pbwork"))
    os.environ[MARKER] = work
    ray_tmp = os.path.join(ROOT, ".pbray")
    # scratch files of the program (exchange spills, epoch stores) and of
    # Ray workers stay inside the run's own directory
    tmp = os.path.join(work, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tempfile.tempdir = tmp
    # workers import the package and these modules whatever the caller's cwd
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT, HERE] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    os.chdir(ROOT)
    sys.path[:0] = [ROOT, os.path.join(ROOT, "scripts")]
    ray = None
    try:
        t0 = time.perf_counter()
        meta = {"workload": args.workload, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace, **host_meta()}
        meta["host_meta_s"] = time.perf_counter() - t0
        t_start = time.perf_counter()
        import ray
        import ray.data

        from spans import Tracer

        ctx = RunContext(args.seed, work, meta["nproc"])
        ray.init(address="local", num_cpus=ctx.cpus, include_dashboard=False,
                 logging_level="ERROR", _temp_dir=ray_tmp,
                 object_store_memory=512 * 1024 ** 2)
        dctx = ray.data.DataContext.get_current()
        dctx.enable_progress_bars = False
        dctx.execution_options.verbose_progress = False
        ray.data.range(1, override_num_blocks=1).materialize()
        w = make_workload(args.workload, ctx)
        ready_s = time.perf_counter() - t_start
        meta["ray_cpus"] = ray.cluster_resources().get("CPU")

        reps = []
        for _ in range(SETUP_REPS):
            t0 = time.perf_counter()
            w.setup()
            reps.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        w.warm()
        warm_s = time.perf_counter() - t0
        setup_s = ready_s + statistics.median(reps) + warm_s
        meta["setup"] = {"ready_s": ready_s, "reps_s": reps, "warm_s": warm_s}

        # the oracle runs in a child process, so driver_peak_rss_mb counts
        # none of its memory; the peak it reports starts here. Its spans
        # are the first the run's tracer holds.
        tracer = Tracer(enabled=bool(args.trace))
        t0 = time.perf_counter()
        answers, tracer.spans = run_oracle(args, ctx, tracer.t0)
        w.prepare(answers)
        meta["setup"]["oracle_s"] = time.perf_counter() - t0
        meta["rss_before_steps_mb"] = rss_mb("VmRSS")
        reset_peak_rss()
        t0 = time.perf_counter()
        walls, items, n = measure(w, ctx, args.seconds, bool(args.trace),
                                  tracer)
        peak_mb = rss_mb()
        meta["measure_s"] = time.perf_counter() - t0
        step_walls = walls[True] + walls[False]
        meta.update(steps=n, step_walls_s=step_walls,
                    details=w.details() if step_walls else {})
        ops = ctx.ops
        if args.trace:
            import layers

            t0 = time.perf_counter()
            metrics, spans = layers.layer_metrics(
                w, tracer, [o for o in WORKLOADS if o != w.name],
                make_workload)
            meta["layers_s"] = time.perf_counter() - t0
            if walls[True] and walls[False]:
                metrics["trace.overhead_ratio"] = (
                    statistics.median(walls[True])
                    / statistics.median(walls[False]))
            out = os.path.join(ROOT, ".perfbench_out")
            os.makedirs(out, exist_ok=True)
            path = os.path.join(
                out, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as f:
                json.dump({"meta": meta, "metrics": metrics, "spans": spans},
                          f, indent=1)
            meta["trace_file"] = os.path.relpath(path, ROOT)
        else:
            metrics = {
                "setup_s": setup_s,
                # if every step raised, the wall spent per attempt
                "step_s": w.step_s() if step_walls else meta["measure_s"] / n,
                "items_per_s": items / sum(step_walls) if step_walls else 0.0,
                "ok_ratio": (ops.attempted - ops.failed) / max(ops.attempted, 1),
                "driver_peak_rss_mb": peak_mb,
            }
        units = declared_units(bool(args.trace))
        # own line even when a worker log line is left unterminated
        print("\nperfbench: " + json.dumps(meta), file=sys.stderr)
        return {"correct": ops.attempted > 0 and ops.failed == 0,
                "attempted": ops.attempted, "failed": ops.failed,
                "metrics": {k: {"value": v, "unit": units[k]}
                            for k, v in metrics.items()}}
    finally:
        t0 = time.perf_counter()
        if ray is not None and ray.is_initialized():
            ray.shutdown()
        reap(work)
        shutil.rmtree(work, ignore_errors=True)
        shutil.rmtree(ray_tmp, ignore_errors=True)
        print(f"perfbench: shutdown took {time.perf_counter() - t0:.1f} s",
              file=sys.stderr)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    missing = [r for r in REQUIRED if not os.path.exists(os.path.join(ROOT, r))]
    if missing:
        print(f"perfbench: not a checkout of the engine, missing {missing}",
              file=sys.stderr)
        return 2
    os.makedirs(os.path.join(ROOT, ".pbwork"), exist_ok=True)
    # stdout carries only the result line: until then fd 1 is stderr, for
    # this process and every process it starts
    stdout_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        result = run(args)
    finally:
        sys.stdout.flush()
        os.dup2(stdout_fd, 1)
        os.close(stdout_fd)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
