"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json RESULT.json

The job names the source root, the ops to run, whether to trace, and (for
query) a directory of proven expansions to copy into the pass's cache.
NFSASY_CACHE_DIR is set by the caller.  The timed part ends after the last
op; output checks run afterwards and are not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path


def main(job_path: str, result_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    root = Path(job["root"])
    sys.path.insert(0, str(root / "src"))

    import nfsasym.cli as cli
    from nfsasym import dickman, exact
    import tracer
    import workloads

    tmp = Path(job["tmp"])
    cache_dir = Path(os.environ["NFSASY_CACHE_DIR"])
    if job.get("cache_src"):
        shutil.copytree(job["cache_src"], cache_dir)
    recorder = None
    if job["trace"]:
        recorder = tracer.Recorder()
        recorder.install()
    cli_main = {}

    def run_cli(argv):
        fn = cli_main.get(argv[0])
        if fn is None:
            fn = cli.main if recorder is None else recorder.span(f"cli.main.{argv[0]}", cli.main)
            cli_main[argv[0]] = fn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = fn(argv)
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    # each op writes its files into its own directory, so checks made after
    # the timed loop see every op's output
    op_dirs = [tmp / f"op{k}" for k in range(len(job["ops"]))]
    for d in op_dirs:
        d.mkdir()

    ready = time.monotonic()
    latencies, results, errors = [], [], []
    for op, op_dir in zip(job["ops"], op_dirs):
        res, err = None, None
        t0 = time.perf_counter()
        try:
            if op["op"] == "cli":
                res = run_cli([a.replace(workloads.TMP, str(op_dir)) for a in op["argv"]])
            elif op["op"] == "rho":
                res = {"log_rho": dickman.rho_numeric(op["u"]).log_rho}
            elif op["op"] == "debruijn":
                value = dickman.log_rho_debruijn(op["u"], op["order"])
                res = {"series": value.log_rho_series, "integral": value.log_rho_integral}
            elif op["op"] == "radius":
                res = {"radius": dickman.radius_constant()}
            else:
                raise ValueError(f"unknown op {op['op']!r}")
        except Exception as exc:  # an op that raises counts as failed
            err = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if err is None and res.get("rc", 0) != 0:
            err = f"exit code {res['rc']}: {res['stderr'].strip()}"
        results.append(res)
        errors.append(err)
    done = time.monotonic()
    cpu_s = time.process_time()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder is not None:  # before the checks, which do exact arithmetic too
        trace = {"stats": recorder.summary(), "spans": list(recorder.spans),
                 "missing": recorder.missing}

    goldens = json.loads(Path(job["goldens"]).read_text()) if job["goldens"] else None
    proof_steps, record = 0, []
    for k, (op, res) in enumerate(zip(job["ops"], results)):
        digest = None
        if res is not None and errors[k] is None and op["op"] == "cli":
            try:
                digest, errors[k], steps = check_cli(op, res, op_dirs[k], cache_dir, goldens)
            except (OSError, ValueError, KeyError) as exc:  # unreadable or malformed output
                errors[k] = f"{type(exc).__name__}: {exc}"
            else:
                proof_steps = max(proof_steps, steps)
        record.append(digest)
    if goldens is not None and job["workload"] == "numeric":
        numeric_errors = workloads.check_numeric(job["ops"], results)
        errors = [e if e is not None else n for e, n in zip(errors, numeric_errors)]

    errors = [e if e is None else f"{describe(op)}: {e}" for op, e in zip(job["ops"], errors)]
    result = {
        "ready": ready,
        "done": done,
        "cpu_s": cpu_s,
        "rss_mb": rss_mb,
        "latencies": latencies,
        "errors": errors,
        "record": record,
        "proof_steps": proof_steps,
        "backend": getattr(getattr(exact, "_Q", None), "__name__", "unknown"),
    }
    if recorder is not None:
        result["trace"] = trace
    Path(result_path).write_text(json.dumps(result))
    return 0


def describe(op: dict) -> str:
    if op["op"] == "cli":
        return "nfsasym " + " ".join(op["argv"])
    return f"{op['op']}({', '.join(f'{k}={op[k]}' for k in ('u', 'order') if k in op)})"


def check_cli(op, res, op_dir, cache_dir, goldens):
    """(digest, error, proof-log steps) of one CLI op; without goldens only
    the digest is computed, for recording."""
    import workloads

    if op["check"] == "none":
        return None, None, 0
    stdout = res["stdout"].replace(str(op_dir), workloads.TMP)
    if op["check"] == "prove":
        if goldens is None:
            payload = json.loads((cache_dir / f"expansion_deg{op['degree'] + 1}.json").read_text())
            return workloads.expansion_digest(payload), None, 0
        error, steps = workloads.check_prove(op, stdout, cache_dir, goldens)
        return None, error, steps
    files = {"fig.csv": (op_dir / "fig.csv").read_text()} if op["argv"][0] == "figure" else {}
    digest = workloads.output_digest(stdout, files)
    if goldens is None:
        return digest, None, 0
    return digest, workloads.check_golden(op["argv"], digest, goldens), 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
