"""Run every workload and print each metric by name, with its unit.

Usage (from the repository root):

    python3 perfbench/report.py [--seeds 1,2,3] [--trace 0|1]

Each workload runs once per seed through ``perfbench/run.py`` for the
``run_seconds`` in ``BENCHMARK.json``.  With one seed the table shows
the values; with several it shows the median and the spread (distance
between the first and third quartile as a share of the median).  The
error rate, MLE optimality gap and oracle error come with every run.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int, trace: int):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                 f"{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seeds = [int(s) for s in args.seeds.split(",")]
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units = {}
        for seed in seeds:
            detail, result = run(workload, seed, spec["run_seconds"],
                                 args.trace)
            rows = {name: (m["value"], m["unit"])
                    for name, m in result["metrics"].items()}
            rows["error_rate"] = (result["failed"] / result["attempted"],
                                  "1")
            rows["mle_gap_max"] = (detail["mle_gap_max"], "1")
            rows["oracle_err_max"] = (detail["oracle_err_max"], "1")
            for name, (value, unit) in rows.items():
                values.setdefault(name, []).append(value)
                units[name] = unit
            print(f"# {workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"passes={detail['raw_wall_s']['samples']}")
            for problem in detail["problems"]:
                print(f"#   {problem}")
        for name, vals in values.items():
            median = statistics.median(vals)
            line = f"{workload:16s} {name:46s} {median:14.6g} {units[name]}"
            if len(vals) > 1 and median:
                q = statistics.quantiles(vals, n=4)
                line += f"  spread {(q[2] - q[0]) / median:.4f}"
            print(line)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
