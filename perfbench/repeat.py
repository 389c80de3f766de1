"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/repeat.py [--workloads diagonal cli] [--seeds 1-10]
        [--trace 0] [--json FILE]

Runs the command of ``BENCHMARK.json`` once per workload and seed, one run at
a time, for its ``run_seconds``.  For every metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, the distance
between the quartiles as a share of the median, beside the metric's bound.
A bound is met when the spread is within it and comfortable when within a
third of it; ``setup_s`` is compared by its median only.  ``--json`` writes
the summary and every run's result, as for ``baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    """The hardware and interpreter the summary was measured on."""
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                model,
            )
    except OSError:
        pass
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "system": platform.platform(),
    }


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / abs(med) if med else float("inf"),
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", default="1-10", type=seed_range)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    summary = {"machine": machine(), "seeds": args.seeds,
               "run_seconds": bench["run_seconds"], "workloads": {}}
    for workload in workloads:
        results = [run_once(bench, workload, seed, args.trace) for seed in args.seeds]
        names = list(results[0]["metrics"])
        metrics = {
            name: summarise([r["metrics"][name]["value"] for r in results]) for name in names
        }
        summary["workloads"][workload] = {
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics,
        }
        print(f"{workload}: correct={summary['workloads'][workload]['correct']}")
        for name, s in metrics.items():
            bound = bounds.get(name)
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("ok" if s["spread"] <= bound / 3
                           else "within bound" if s["spread"] <= bound else "TOO WIDE")
            print(f"  {name:<40} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f}"
                  + (f"  bound {bound}  {verdict}" if bound is not None else ""))
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
