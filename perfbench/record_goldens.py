"""Record the golden outputs the benchmark gates compare against.

Usage (from the repository root): python3 perfbench/record_goldens.py

Writes perfbench/goldens.json: the expansion digest of `expand --prove` at
the prove degrees, and the stdout (and CSV) digest of every CLI op the
query and numeric generators can produce.  Run it only on a commit whose
outputs are known to be right; the benchmark then holds later commits to
them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import run
import workloads


def record(job: dict, cache_src=None) -> list:
    pass_dir = run.WORK / f"record-{os.getpid()}-{time.monotonic_ns()}"
    try:
        result = run.run_pass(job, pass_dir, traced=False, goldens=None, cache_src=cache_src)
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
    errors = [e for e in result["errors"] if e is not None]
    if errors:
        raise run.BenchError(f"recording failed: {errors[0]}")
    return result["record"]


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    goldens = {"prove": {}, "cli": {}}
    for degree in (workloads.SMOKE_PROVE_DEGREE, workloads.PROVE_DEGREE):
        job = workloads.make_job("prove", 0, smoke=degree == workloads.SMOKE_PROVE_DEGREE)
        goldens["prove"][str(degree)] = record(job)[0]
    cli_ops = [{"op": "cli", "check": "golden", "argv": argv} for argv in workloads.query_menu()]
    cache_src = run.query_cache(list(workloads.QUERY_CACHE_DEGREES))
    numeric = [op for op in workloads.make_job("numeric", 0)["ops"] if op["op"] == "cli"]
    for ops, src in ((cli_ops, cache_src), (numeric, None)):
        digests = record({"workload": "record", "ops": ops}, src)
        goldens["cli"].update({workloads.golden_key(op["argv"]): d for op, d in zip(ops, digests)})
    run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDENS}: {len(goldens['cli'])} CLI goldens,"
          f" prove degrees {sorted(goldens['prove'])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
