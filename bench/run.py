"""Benchmark of akpz: one workload per call, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload particle --seed 0 --seconds 35 --trace 0

The workloads (particle, sde-ensemble, covariance) are defined in
workloads.py.  A run imports akpz afresh from the checkout's src/ and
generates the workload's inputs from the seed (three times, then once more
after every pass; setup_s is the median), makes one untimed warm-up pass,
then repeats passes over the workload's fixed task list until --seconds
have elapsed.  Every pass checks its outputs.

--trace 0 reports the end-to-end metrics: wall_ref, setup_s and
peak_rss_mb.  wall_ref is the median over passes of the pass time divided
by the mean time of a fixed reference kernel run at the start of each task
of that pass (and left out of the pass time).  --trace 1 alternates traced
passes, which record spans instead of reference samples, with untraced
ones, and reports the per-layer metrics from the spans plus
trace.overhead_frac, wall_s (median untraced pass time) and reference_s.
The spans are written to .bench_out/trace-<workload>-seed<seed>.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed (counted in checks) and metrics.  The lines
before it name each metric with its unit, wall_s, checks_failed_frac, the
failed checks, the raw samples and the environment.
"""

import os

# BLAS pools are capped before numpy is first imported; the benchmark runs
# single-threaded, which is also the plain baseline for thread_map recipes.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"
os.environ["AKPZ_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import uuid  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402

from tracing import LAYERS, SpanView, Tracer, median  # noqa: E402
from workloads import END_TO_END, PER_LAYER, WORKLOADS, layer_metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUPS = 3


class MissingProgram(RuntimeError):
    pass


def import_akpz():
    """Fresh import of every akpz module from the checkout's src/."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "akpz" or n.startswith("akpz.")]:
        del sys.modules[name]
    ak = SimpleNamespace(**{m: importlib.import_module(f"akpz.{m}") for m in LAYERS})
    if Path(ak.cli.__file__).resolve().parent != (SRC / "akpz").resolve():
        raise MissingProgram(f"akpz imported from {ak.cli.__file__}, not from {SRC}")
    return ak


def git_rev():
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


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "git_rev": git_rev(),
    }


REF_SMALL = np.linspace(0.0, 1.0, 16)
REF_MID = np.linspace(0.0, 1.0, 1 << 16)
REF_BIG = np.ones(1 << 22)  # 32 MB, larger than the caches


def reference_seconds():
    """Wall time of a fixed mix of interpreter, small-array, transcendental
    and memory-bound work, about 6 ms each.

    On a shared VM the machine's speed drifts by up to 1.6x over seconds to
    minutes, and raw pass times spread by 18-26% between runs; dividing a
    pass time by the mean of these samples taken during the pass cancels
    most of that drift.  The kernel is the benchmark's own code, so a change
    to akpz cannot move it."""
    t0 = perf_counter()
    counts = {}
    for i in range(25000):
        key = (i % 97, i % 89)
        counts[key] = counts.get(key, 0) + 1
    x = REF_SMALL
    for _ in range(4000):
        x = x + 1e-3 * x[::-1]
    for _ in range(2):
        np.exp(1j * np.cos(REF_MID))
        np.multiply(REF_BIG, 1.0, out=REF_BIG)
    return perf_counter() - t0


class ReferenceProbe:
    """Stands in for the tracer in an untraced pass: at the start of every
    task it times the reference kernel, so each pass carries reference
    samples taken while it runs."""

    def __init__(self):
        self.samples = []

    def span(self, name):
        self.samples.append(reference_seconds())
        return contextlib.nullcontext()


def one_pass(workload, ak, inputs, tracer, traced):
    """(wall seconds net of reference samples, reference samples, summary, checks)."""
    gc.collect()
    probe = ReferenceProbe()
    t0 = perf_counter()
    if traced:
        with tracer.instrumented(ak, workload.targets), tracer.span("pass"):
            summary, checks = workload.run_pass(ak, inputs, tracer)
    else:
        summary, checks = workload.run_pass(ak, inputs, probe)
    wall = perf_counter() - t0 - sum(probe.samples)
    return wall, probe.samples, summary, checks


def run(name, seed, seconds, trace, size="full"):
    """One benchmark run; returns (result, checks, report lines)."""
    workload = WORKLOADS[name]
    if not (SRC / "akpz" / "__init__.py").is_file():
        raise MissingProgram(f"no akpz package under {SRC}")
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    setup_times = []

    def setup():
        t0 = perf_counter()
        ak = import_akpz()
        inputs = workload.make_inputs(ak, seed, size, workdir)
        setup_times.append(perf_counter() - t0)
        return ak, inputs

    try:
        for _ in range(SETUPS):
            ak, inputs = setup()
        tracer = Tracer(run_id=uuid.uuid4().hex)
        _, _, first, checks = one_pass(workload, ak, inputs, tracer, traced=False)
        walls = {True: [], False: []}
        ratios = []
        references = []
        summaries = []
        deadline = perf_counter() + seconds
        while True:
            traced = bool(trace) and len(walls[True]) <= len(walls[False])
            wall, samples, summary, pass_checks = one_pass(workload, ak, inputs, tracer, traced)
            setup()  # spreads the set-up samples over the run; the passes keep `ak`
            walls[traced].append(wall)
            if not traced:
                ratios.append(wall / statistics.fmean(samples))
                references += samples
            else:
                summaries.append(summary)
            checks += pass_checks
            checks.append(("pass outputs identical to the first pass",
                           summary["digest"] == first["digest"], ""))
            done = walls[False] and (walls[True] or not trace)
            if done and perf_counter() >= deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    wall_s = median(walls[False])
    if trace:
        values = layer_metrics(SpanView(tracer.spans), summaries[0])
        values["trace.overhead_frac"] = median(walls[True]) / wall_s - 1.0
        values["wall_s"] = wall_s
        values["reference_s"] = median(references)
        units = dict(PER_LAYER)
        tracer.dump(OUT / f"trace-{name}-seed{seed}.json",
                    {"workload": name, "seed": seed, "size": size, "env": env})
    else:
        values = {"wall_ref": median(ratios), "setup_s": median(setup_times),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = dict(END_TO_END)

    failed = [c for c in checks if not c[1]]
    lines = [f"workload {name}, seed {seed}, trace {trace}: {len(walls[False])} untraced "
             f"and {len(walls[True])} traced passes, {len(setup_times)} set-ups"]
    lines += [f"  {metric} = {values[metric]!r} {units[metric]}" for metric in units]
    if not trace:
        lines.append(f"  wall_s = {wall_s!r} s (median untraced pass)")
    lines.append(f"  checks_failed_frac = {len(failed) / len(checks)!r} 1 "
                 f"({len(failed)} of {len(checks)} checks failed)")
    for traced, label in ((False, "untraced"), (True, "traced")):
        if walls[traced]:
            lines.append(f"  {label} pass s: " + " ".join(f"{w:.4f}" for w in walls[traced]))
    lines.append("  pass / reference: " + " ".join(f"{w:.2f}" for w in ratios))
    lines.append("  reference s: " + " ".join(f"{t:.4f}" for t in references))
    lines.append("  setup s: " + " ".join(f"{t:.4f}" for t in setup_times))
    lines += [f"  FAILED {n}: {detail}" for n, _, detail in failed]
    lines.append("env " + json.dumps(env))
    result = {"correct": not failed, "attempted": len(checks), "failed": len(failed),
              "metrics": {m: {"value": values[m], "unit": units[m]} for m in units}}
    return result, checks, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        result, _, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except MissingProgram as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
