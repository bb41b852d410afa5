"""Smoke test of the benchmark: every workload, untraced and traced, at
minimal length (one set-up, the first items of one pass; verify-tables is
one call), checking that each run is correct and prints exactly the metrics
BENCHMARK.json names, with their units.

    python3 bench/smoke.py

Exits 0 when every run passes, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run
import workloads

SMOKE_ITEMS = 3


def shortened(factory):
    def make():
        workload = factory()
        full = workload.run_pass
        if not isinstance(workload, workloads.Tables):  # one call covers every table item
            workload.run_pass = lambda items: full(items[:SMOKE_ITEMS])
        return workload

    return make


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    run.SETUP_REPEATS = 1
    run.sample_floor = lambda pct: 1
    for name in list(workloads.WORKLOADS):
        workloads.WORKLOADS[name] = shortened(workloads.WORKLOADS[name])
    bad = 0
    for name in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(
                    ["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
                )
            result = json.loads(out.getvalue().strip().splitlines()[-1])
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            numeric = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            ok = (
                code == 0
                and result["correct"] is True
                and result["attempted"] > 0
                and result["failed"] == 0
                and units == declared[trace]
                and numeric
            )
            bad += not ok
            status = "ok  " if ok else "FAIL"
            print(f"{status} {name} trace={trace} attempted={result['attempted']}")
            if units != declared[trace]:
                print(f"     printed {sorted(units)}\n     declared {sorted(declared[trace])}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
