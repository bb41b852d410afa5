"""Run one workload of the cremona-lab benchmark and print its metrics.

    python3 bench/run.py --workload corpus-linear --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; cremonalab is imported from its
`src/`.  With `--trace 0` the run sets up several times, then runs whole
passes over the workload's items until `--seconds` is used up (and at least
enough passes for the tail percentile), checking every output.  With
`--trace 1` it runs one untraced pass and then one set-up and pass with
spans around cremonalab's public functions, writes the spans under
bench/out/ and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

from tracer import Tracer
from workloads import WORKLOADS, cache_clearers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

SETUP_REPEATS = 5
# workload -> percentile reported as item_s.tail.  A run takes at least
# 10 / (1 - p/100) item samples, so that ten or more lie beyond it.
TAIL = {"corpus-linear": 90, "corpus-birational": 75, "jonq": 80, "tables": 75}
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "item_s.p50": "s",
    "item_s.tail": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = [
    "corpus.row.s",
    "expr.parse.calls", "expr.parse.s",
    "maps.new.s",
    "maps.compose.calls", "maps.compose.s",
    "maps.canonical.s",
    "maps.order.calls", "maps.order.self_s",
    "maps.structure.s",
    "maps.closure.s", "maps.closure.elements",
    "multipoly.gcd.calls", "multipoly.gcd.self_s", "multipoly.gcd.useful_ratio",
    "multipoly.subs.self_s", "multipoly.mul.self_s",
    "cyclo.new.calls", "cyclo.mul.calls", "cyclo.mul.self_s", "cyclo.inverse.calls",
    "poly.gcd.calls", "poly.gcd.self_s", "poly.divmod.self_s",
    "poly.ratfunc.new.calls", "poly.squarefree.s",
    "jonq.compose.calls", "jonq.compose.s", "jonq.order.s", "jonq.det_class.s",
    "lattice.arcond.s", "lattice.enumerate.s", "weyl.s",
    "trace.spans", "trace.overhead_s",
]


def unit_of(metric: str) -> str:
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith((".calls", ".elements", ".spans")):
        return "count"
    return "s"


def sample_floor(pct: int) -> int:
    """Fewest item samples with at least ten beyond the pct-th percentile."""
    return round(10 / (1 - pct / 100))


def one_pass(workload, items, clearers):
    """One pass with the package's lru caches cold, as in a fresh process."""
    for clear in clearers:
        clear()
    gc.collect()
    t0 = time.perf_counter()
    samples = workload.run_pass(items)
    return samples, time.perf_counter() - t0


def verdict(samples, problem: str) -> dict:
    wrong = [s.wrong for s in samples if s.wrong and not s.failed]
    failed = [s.wrong for s in samples if s.failed]
    for msg in ([problem] if problem else []) + wrong[:5] + failed[:5]:
        print(f"check: {msg}", file=sys.stderr)
    return {
        "correct": not problem and not wrong,
        "attempted": len(samples),
        "failed": len(failed),
    }


def timed_run(name: str, workload, seed: int, seconds: float) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t0 = time.perf_counter()
        workload.load()
        items = workload.inputs(seed)
        setups.append(time.perf_counter() - t0)
    problem = workload.setup_check(ROOT, items)
    clearers = cache_clearers()
    pct = TAIL[name]
    floor = sample_floor(pct)
    samples, pass_seconds = [], []
    start = time.perf_counter()
    while True:
        got, spent = one_pass(workload, items, clearers)
        samples += got
        pass_seconds.append(spent)
        left = seconds - (time.perf_counter() - start)
        if len(samples) >= floor and statistics.median(pass_seconds) > left:
            break
    by_key = defaultdict(list)
    for s in samples:
        by_key[s.key].append(s.seconds)
    item_s = {key: statistics.median(v) for key, v in by_key.items()}
    # Each sample stands for its item's median over the run's passes, so a
    # percentile reads one item's steady latency, not one noisy sample of it.
    latencies = sorted(item_s[s.key] for s in samples)
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": sum(item_s.values()),
        "item_s.p50": statistics.median(latencies),
        "item_s.tail": statistics.quantiles(latencies, n=100, method="inclusive")[pct - 1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    out = verdict(samples, problem)
    out["metrics"] = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    return out


def traced_run(name: str, workload, seed: int) -> dict:
    workload.load()
    items = workload.inputs(seed)
    problem = workload.setup_check(ROOT, items)
    clearers = cache_clearers()
    untraced, plain_s = one_pass(workload, items, clearers)
    tracer = Tracer()
    tracer.install()
    try:
        items = workload.inputs(seed)
        traced, traced_s = one_pass(workload, items, clearers)
    finally:
        tracer.uninstall()
    totals = tracer.layer_totals()
    calls = totals["multipoly.gcd.calls"]
    totals["multipoly.gcd.useful_ratio"] = totals["multipoly.gcd.useful"] / calls if calls else 0.0
    totals["trace.spans"] = len(tracer.start)
    totals["trace.overhead_s"] = traced_s - plain_s
    tracer.write(
        BENCH / "out" / f"trace-{name}-seed{seed}",
        {"workload": name, "seed": seed, "untraced_pass_s": plain_s, "traced_pass_s": traced_s},
    )
    out = verdict(untraced + traced, problem)
    out["metrics"] = {k: {"value": totals[k], "unit": unit_of(k)} for k in PER_LAYER}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = ROOT / "src"
    if not (src / "cremonalab" / "__init__.py").is_file():
        print(f"no cremonalab sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = WORKLOADS[args.workload]()
    if args.trace:
        result = traced_run(args.workload, workload, args.seed)
    else:
        result = timed_run(args.workload, workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
