"""Run one workload for a fixed time, check every output, and print the metrics.

Single process, single thread. The last line of standard output is the result
object (`correct`, `attempted`, `failed`, `metrics`); the line before it is a
report with sample counts, the input fingerprint and the environment.

With ``--trace 0`` the metrics are the end-to-end ones, measured untraced.
Timings are CPU time of this process (of the probe processes, for
`setup_s`), so time the core is given to other processes does not count.
Each item starts after a full garbage collection, so the garbage one item
leaves is not collected inside the next one's timing.

`items_per_s` is the items of one round over the CPU time of one round: for
each kind of item (a shape, a verify suite), the median of its CPU times in
the run, summed over the kinds of one round. A shared host changes the speed
of the core by tens of percent from one second to the next, and medians keep
a few slow seconds from moving the result.

With ``--trace 1`` the run first measures a third of its time untraced, then
replays exactly the same rounds with the tracing wrappers installed; the
per-layer metrics come from that traced replay, the per-call latencies from
the untraced part, and `trace.overhead_ratio` compares the two walls.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

from perfbench import tracing, workloads

ROOT = Path(__file__).resolve().parent.parent
TRACE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 9
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run
PROBLEMS_SHOWN = 5
OPS = ("build", "factorize", "peel", "hg", "hg_inv", "series")
TAILED_OPS = ("build", "factorize", "peel")
P90_MIN_SAMPLES = 100  # a p90 needs ten samples beyond it

_PROBE = (
    "import sys; sys.path[:0] = {path!r}; from perfbench import workloads as w; "
    "w.generate(w.WORKLOADS[{name!r}], {seed})"
)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    wall: float = 0.0
    #: kind of item -> CPU seconds of each item of that kind, checks included
    item_cpu: dict = field(default_factory=lambda: defaultdict(list))
    shown: int = 0


def round_s(tally: Tally) -> float:
    """CPU seconds of one round: the median of each kind of item, summed."""
    return sum(statistics.median(values) for values in tally.item_cpu.values())


def measure(workload, pool, record, *, seconds: float | None = None, rounds: int | None = None) -> Tally:
    """Run whole rounds of `pool`: exactly `rounds` of them, or while the next fits in `seconds`.

    At least one round always runs. A wrong output or an exception fails the
    item and the run goes on.
    """
    tally = Tally()
    start = perf_counter()
    while True:
        round_start = perf_counter()
        for item in pool[tally.rounds % len(pool)]:
            items = workload.items(item)
            tally.attempted += items
            gc.collect()
            cpu_start = process_time()
            try:
                failed, problems = workload.run(item, record)
            except Exception:  # the gate counts it and keeps going
                failed, problems = items, [traceback.format_exc(limit=-8)]
            tally.item_cpu[workload.kind(item)].append(process_time() - cpu_start)
            tally.failed += failed
            for problem in problems[: max(PROBLEMS_SHOWN - tally.shown, 0)]:
                print(f"perfbench: {workload.name}: {problem}", file=sys.stderr)
                tally.shown += 1
        tally.rounds += 1
        now = perf_counter()
        if rounds is not None:
            if tally.rounds >= rounds:
                break
        elif (now - start) + (now - round_start) > seconds:
            break
    tally.wall = perf_counter() - start
    return tally


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def setup_times(name: str, seed: int) -> list[float]:
    """CPU times of fresh interpreters that import rimhooks and generate the inputs."""
    code = _PROBE.format(path=[str(ROOT / "src"), str(ROOT)], name=name, seed=seed)
    times = []
    for _ in range(SETUP_PROBES):
        t0 = _children_cpu()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(_children_cpu() - t0)
    return times


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": _commit(),
        "recursion_limit": sys.getrecursionlimit(),
    }


def _p50_ms(values: list[float]) -> float:
    return 1000 * statistics.median(values)


def _p90_ms(values: list[float]) -> float:
    return 1000 * statistics.quantiles(values, n=10)[-1]


def op_latencies(timings: dict[str, list[float]]) -> dict[str, tuple[float, str, int]]:
    """`<op>_p50_ms` for every op the workload timed, and `<op>_p90_ms` given enough samples."""
    out = {}
    for op in OPS:
        values = timings.get(op, [])
        if values:
            out[f"{op}_p50_ms"] = (_p50_ms(values), "ms", len(values))
        if len(values) >= P90_MIN_SAMPLES and op in TAILED_OPS:
            out[f"{op}_p90_ms"] = (_p90_ms(values), "ms", len(values))
    return out


def plain_run(workload, pool, args) -> tuple[Tally, dict, dict]:
    setup = setup_times(workload.name, args.seed)
    timings: dict[str, list[float]] = defaultdict(list)
    tally = measure(workload, pool, lambda op, dt: timings[op].append(dt), seconds=args.seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # every round holds the same items, so attempted / rounds is the items of one round
    items_per_round = tally.attempted / tally.rounds
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "items_per_s": (items_per_round / round_s(tally), "1/s", tally.attempted),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }
    detail = dict(metrics)
    detail["call_p50_ms"] = (_p50_ms(timings["call"]), "ms", len(timings["call"]))
    detail["failed_frac"] = (tally.failed / tally.attempted, "ratio", tally.attempted)
    detail.update(op_latencies(timings))
    return tally, metrics, detail


def traced_run(workload, pool, args) -> tuple[Tally, dict, dict]:
    timings: dict[str, list[float]] = defaultdict(list)
    plain = measure(
        workload, pool, lambda op, dt: timings[op].append(dt), seconds=args.seconds * UNTRACED_SHARE
    )
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = measure(workload, pool, lambda op, dt: None, rounds=plain.rounds)
    finally:
        uninstall()
    metrics = {
        name: (value, unit, None)
        for name, (value, unit) in tracing.layer_metrics(tracer, traced.wall / plain.wall).items()
    }
    for op in OPS:
        values = timings.get(op, [])
        metrics[f"{op}_p50_ms"] = (_p50_ms(values) if values else 0.0, "ms", len(values))
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "spans": len(tracer.name_of),
                "counts": dict(tracer.counts),
                "paths": tracing.call_paths(tracer),
            },
            indent=1,
        )
    )
    detail = dict(metrics)
    detail["untraced_wall_s"] = (plain.wall, "s", plain.rounds)
    detail["traced_wall_s"] = (traced.wall, "s", traced.rounds)
    tally = Tally(plain.attempted + traced.attempted, plain.failed + traced.failed)
    return tally, metrics, detail


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    pool = workloads.generate(workload, args.seed)
    tally, metrics, detail = (traced_run if args.trace else plain_run)(workload, pool, args)
    report = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_fingerprint": workloads.fingerprint(pool),
        "environment": environment(),
        "metrics": {
            name: {"value": value, "unit": unit, "samples": samples}
            for name, (value, unit, samples) in detail.items()
        },
    }
    print(json.dumps({"report": report}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0
