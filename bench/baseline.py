#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarise each metric.

    python3 bench/baseline.py [--seeds 1-10] [--workloads a,b] [--out PATH]

Run from the root of a checkout.  For every workload and seed it runs
``bench/run.py`` untraced for ``run_seconds`` from ``BENCHMARK.json`` and
reports, per end-to-end metric, the median, the quartiles of
``statistics.quantiles(values, n=4)`` and the spread (quartile distance
over the median) against the metric's bound.  With ``--out`` the summary
is written as JSON together with the machine it was measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args()

    spec = json.loads(Path("BENCHMARK.json").read_text())
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    ok = True
    for name in names:
        values: dict[str, list[float]] = {m: [] for m in bounds}
        failed = 0
        for seed in args.seeds:
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload",
                 name, "--seed", str(seed), "--seconds",
                 str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, check=True).stdout
            result = json.loads(out.splitlines()[-1])
            failed += result["failed"] + (not result["correct"])
            for metric, entry in result["metrics"].items():
                values[metric].append(entry["value"])
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v[-1]:.4g}" for m, v in values.items()), flush=True)
        summary[name] = {}
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            summary[name][metric] = {"median": med, "q1": q1, "q3": q3,
                                     "spread": spread, "values": vals}
            print(f"  {name} {metric}: median {med:.4g}, quartiles "
                  f"{q1:.4g}..{q3:.4g}, spread {spread:.3f} "
                  f"(bound {bounds[metric]})")
            ok &= metric == "setup_s" or spread <= bounds[metric]
        ok &= failed == 0
    if args.out:
        args.out.write_text(json.dumps(
            {"machine": machine(), "run_seconds": spec["run_seconds"],
             "seeds": args.seeds, "workloads": summary}, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
