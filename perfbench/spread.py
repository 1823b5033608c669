"""Run the benchmark once per seed and summarise each metric's spread.

    python3 perfbench/spread.py --workloads census-337,decide-tight \
        --seeds 1..10 [--trace 0|1] [--out perfbench/baseline.json]

Runs are sequential, one process at a time. For each workload and metric it
prints the median, the quartiles from statistics.quantiles(values, n=4) and
the spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
With --out it also writes every run, the environment and the corpus shapes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("..")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    run_wall_s = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines if " " in line}
    result = json.loads(lines[-1])
    result["seed"] = seed
    result["run_wall_s"] = run_wall_s
    result["env"] = json.loads(tagged["env"])
    result["shape"] = json.loads(tagged["shape"])
    return result


def summarise(runs: list[dict], bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": runs[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0,
                     "bound": bounds.get(name)}
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1..10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seed_range(args.seeds):
            run = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(run)
            print(f"{workload} seed {seed}: {run['run_wall_s']:.1f} s, "
                  f"correct={run['correct']} failed={run['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in run["metrics"].items()
                             if k in bounds), flush=True)
        summary = summarise(runs, bounds)
        report["workloads"][workload] = {"env": runs[0]["env"], "summary": summary, "runs": runs}
        for name, row in summary.items():
            flag = ""
            if row["bound"] is not None:
                flag = "ok" if row["spread"] < row["bound"] / 3 else "WIDE"
            print(f"  {workload:13s} {name:40s} median {row['median']:<14.6g} "
                  f"q1 {row['q1']:<14.6g} q3 {row['q3']:<14.6g} spread {row['spread']:.4f} "
                  f"bound {row['bound']} {flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
