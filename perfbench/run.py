"""Benchmark of the catspire engine: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from its
src/ directory.  With --trace 0 the run times whole rounds of ops until S
seconds have passed and prints the end-to-end metrics; with --trace 1 it
runs the workload's fixed number of rounds, each op once untraced and once
traced, and prints the per-layer metrics.  Every op's output is checked
apart from the package.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  A full record,
with the machine it ran on, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"


def import_package() -> None:
    """Import catspire from this checkout's src/, and from nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import catspire
    except ImportError as ex:
        sys.exit(f"perfbench: cannot import catspire from {src}: {ex}")
    if Path(catspire.__file__).resolve().parent.parent != src.resolve():
        sys.exit(f"perfbench: catspire came from {catspire.__file__}, not {src}")


def commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "commit": commit(),
        "loadavg_at_start": os.getloadavg(),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def timed_op(op):
    """(output, seconds, error) for one op, after a full collection."""
    gc.collect()
    start = time.perf_counter()
    try:
        out = op.run()
    except Exception:
        return None, time.perf_counter() - start, traceback.format_exc(limit=4)
    return out, time.perf_counter() - start, None


def judge(op, out, error) -> List[str]:
    if error is not None:
        return [f"raised: {error}"]
    try:
        return op.check(out)
    except Exception:
        return [f"check raised: {traceback.format_exc(limit=4)}"]


def percentiles(xs: List[float]) -> dict:
    """The median, and p90 / p99 where at least ten samples lie beyond them."""
    out = {"n": len(xs), "p50": statistics.median(xs) if xs else None}
    if len(xs) >= 100:
        cuts = statistics.quantiles(xs, n=100, method="inclusive")
        out["p90"] = cuts[89]
        if len(xs) >= 1000:
            out["p99"] = cuts[98]
    return out


def run_round(wl, seed: int, kinds: dict, failures: list) -> tuple:
    """Build one round and run its ops; (ops attempted, set-up seconds).

    A function of its own so that the round's inputs are freed on return,
    before the next round builds its own."""
    gc.collect()
    start = time.perf_counter()
    ops = wl.build(seed)
    setup = time.perf_counter() - start
    for op in ops:
        out, took, error = timed_op(op)
        problems = judge(op, out, error)
        if problems:
            failures.append({"seed": seed, "kind": op.kind, "problems": problems[:5]})
        else:
            kinds.setdefault(op.kind, []).append(took)
    return len(ops), setup


def measure(wl, order, seconds: float, record: dict) -> tuple:
    """Whole rounds until `seconds` have passed; the end-to-end metrics."""
    kinds: dict = {}
    failures: list = []
    setup_s: List[float] = []
    attempted = 0
    rounds = 0
    begun = time.perf_counter()
    while True:
        n_ops, setup = run_round(wl, order[rounds % len(order)], kinds, failures)
        attempted += n_ops
        setup_s.append(setup)
        rounds += 1
        if time.perf_counter() - begun >= seconds:
            break
    op_s = [t for ts in kinds.values() for t in ts]
    record.update(
        rounds=rounds,
        wall_s=time.perf_counter() - begun,
        op_seconds=percentiles(op_s),
        op_seconds_by_kind={k: percentiles(v) for k, v in sorted(kinds.items())},
        setup_seconds=percentiles(setup_s),
        samples={"op_s_by_kind": kinds, "setup_s": setup_s},
        failures=failures,
    )
    metrics = {
        "op_p50_s": (statistics.median(op_s) if op_s else 0.0, "s"),
        "ops_per_s": (len(op_s) / sum(op_s) if op_s else 0.0, "1/s"),
        "setup_s": (statistics.median(setup_s), "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }
    return attempted, len(failures), metrics


def traced_round(wl, seed: int, tracer, plain: list, traced: list, failures: list) -> int:
    """Build one round under the tracer and run each op twice, untraced and
    traced, alternating which goes first; both outputs are checked.
    Returns the ops attempted."""
    gc.collect()
    with tracer:
        ops = wl.build(seed)

    def untraced_run(op) -> List[str]:
        out, took, error = timed_op(op)
        plain.append(took)
        return judge(op, out, error)

    def traced_run(op) -> List[str]:
        gc.collect()
        with tracer:
            tracer.begin_op(op.graph)
            start = time.perf_counter()
            try:
                out, error = op.run(), None
            except Exception:
                out, error = None, traceback.format_exc(limit=4)
            traced.append(time.perf_counter() - start)
            tracer.end_op()
        return judge(op, out, error)

    for op in ops:
        first, second = (untraced_run, traced_run) if len(plain) % 2 else (traced_run, untraced_run)
        problems = first(op) + second(op)
        if problems:
            failures.append({"seed": seed, "kind": op.kind, "problems": problems[:5]})
    return len(ops)


def measure_traced(wl, order, record: dict) -> tuple:
    """The workload's fixed number of traced rounds; the per-layer metrics."""
    from tracing import Tracer

    tracer = Tracer()
    plain: List[float] = []
    traced: List[float] = []
    failures: list = []
    attempted = 0
    for rounds in range(wl.traced_rounds):
        attempted += traced_round(wl, order[rounds % len(order)], tracer, plain, traced, failures)
    # each op ran back to back in both modes, so the per-op ratio cancels
    # both the instance and slow spells of the machine
    overhead = statistics.median(t / p for p, t in zip(plain, traced)) - 1
    record.update(
        rounds=wl.traced_rounds,
        untraced_op_p50_s=statistics.median(plain),
        traced_op_p50_s=statistics.median(traced),
        trace_overhead=overhead,
        failures=failures,
    )
    print(
        f"trace overhead: traced op p50 {statistics.median(traced):.4f} s against "
        f"untraced {statistics.median(plain):.4f} s; median paired overhead {overhead:+.1%}"
    )
    return attempted, len(failures), tracer.per_layer(attempted), tracer


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    record = {"machine": machine(), "args": vars(args)}
    import_package()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    order = list(wl.pool)
    random.Random(args.seed).shuffle(order)
    record["instance_order"] = order

    RESULTS.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        attempted, failed, metrics, tracer = measure_traced(wl, order, record)
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(tracer.document()))
    else:
        attempted, failed, metrics = measure(wl, order, args.seconds, record)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for f in record["failures"][:3]:
        print(f"failed op: {json.dumps(f)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
