"""The benchmark traces library entry points by module attribute name; a
renamed or deleted entry point must fail here, not only in a traced run."""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _workloads():
    # read-only import: no bytecode is written into bench/
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(BENCH))
    sys.dont_write_bytecode = True
    try:
        return importlib.import_module("workloads").WORKLOADS
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag


def test_bench_trace_targets_resolve():
    missing = []
    for workload in _workloads().values():
        for module, attr, *_ in workload.targets:
            owner = importlib.import_module(f"akpz.{module}")
            try:
                for part in attr.split("."):
                    owner = getattr(owner, part)
            except AttributeError:
                missing.append(f"{workload.name}: akpz.{module}.{attr}")
                continue
            if not callable(owner):
                missing.append(f"{workload.name}: akpz.{module}.{attr} is not callable")
    assert not missing, missing
