"""Self-test of the benchmark: every workload end to end at a tiny size.

    python3 bench/selftest.py

Runs each workload untraced and traced, and fails unless every end-to-end
and per-layer metric is emitted with its unit as a number, every kind of
check ran and passed, and BENCHMARK.json names the same workloads and
metrics as the code.
"""

import json
import numbers
import sys

import run  # first: caps the BLAS pools before numpy is imported
from workloads import END_TO_END, PER_LAYER, WORKLOADS

CHECK_KINDS = {
    "particle": ("stationarity residual", "drift replica", "cascade replica",
                 "drift rate vs finite-eps speed"),
    "sde-ensemble": ("small field covariance", "large field covariance", "akpz sde exit code",
                     "akpz sde CSV header", "akpz sde CSV row count",
                     "akpz sde CSV values finite"),
    "covariance": ("cor1 slope", "cor2 characteristic", "cor2 off-characteristic",
                   "quadrature vs finite", "GFF lattice vs continuum", "fourier vs direct",
                   "cor3-she error decreasing", "cor3-she final", "qpoch-asymptotics error",
                   "qpoch-asymptotics final"),
}


def spec_problems():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for key, metrics in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != list(metrics):
            problems.append(f"BENCHMARK.json {key} differs from workloads.py")
    return problems


def run_problems(name, trace):
    expected = dict(PER_LAYER if trace else END_TO_END)
    result, checks, _ = run.run(name, seed=0, seconds=0.1, trace=trace, size="tiny")
    problems = []
    got = {m: v["unit"] for m, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{name} trace {trace}: metrics {sorted(set(got) ^ set(expected))} "
                        "missing or unexpected, or a unit differs")
    problems += [f"{name} trace {trace}: {m} is not a number"
                 for m, v in result["metrics"].items()
                 if not isinstance(v["value"], numbers.Real) or isinstance(v["value"], bool)]
    kinds = CHECK_KINDS[name] + ("pass outputs identical to the first pass",)
    problems += [f"{name} trace {trace}: no check '{k}...' ran"
                 for k in kinds if not any(c[0].startswith(k) for c in checks)]
    problems += [f"{name} trace {trace}: check failed: {c[0]} ({c[2]})"
                 for c in checks if not c[1]]
    print(f"{name} trace {trace}: {len(result['metrics'])} metrics, "
          f"{result['attempted']} checks, {result['failed']} failed")
    return problems


def main():
    problems = spec_problems()
    for name in WORKLOADS:
        for trace in (0, 1):
            problems += run_problems(name, trace)
    for p in problems:
        print("PROBLEM", p)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
