"""Run every workload untraced, one process each, and print its end-to-end
metrics and checks_failed_frac by name and unit.

    python3 bench/report.py [--seed 0] [--seconds N]

--seconds defaults to run_seconds of BENCHMARK.json.  Exits 1 if a run
fails or a check fails.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    status = 0
    for workload in spec["workloads"]:
        name = workload["name"]
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}:")
        for metric, m in result["metrics"].items():
            print(f"  {metric:20s} {m['value']:.6g} {m['unit']}")
        frac = result["failed"] / result["attempted"]
        print(f"  {'checks_failed_frac':20s} {frac:.6g} 1 "
              f"({result['failed']} of {result['attempted']} checks)")
        if not result["correct"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
