"""Print every end-to-end and per-layer metric of every workload, with units.

    python3 benchmark/report.py --seed 0

Runs benchmark/run.py once per workload untraced and once traced, each in a
fresh interpreter and for BENCHMARK.json's run_seconds, and prints one
table: a row per metric, a column per workload.  Exits 1 if any run reported an incorrect result.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]

    rows: dict[str, dict[str, float]] = {}
    units: dict[str, str] = {}
    correct = True
    for workload in workloads:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True, check=True,
            )
            result = json.loads(done.stdout.splitlines()[-1])
            correct &= result["correct"]
            rows.setdefault("fail_frac", {})[workload] = result["failed"] / result["attempted"]
            units["fail_frac"] = "fraction"
            for name, metric in result["metrics"].items():
                rows.setdefault(name, {})[workload] = metric["value"]
                units[name] = metric["unit"]

    print(f"{'metric':45s} {'unit':9s}" + "".join(f"{w:>17s}" for w in workloads))
    for name, values in rows.items():
        print(f"{name:45s} {units[name]:9s}" + "".join(f"{values[w]:17.6g}" for w in workloads))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
