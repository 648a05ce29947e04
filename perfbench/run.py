"""Benchmark of the nfsasym package: prove, query and numeric workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload prove --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --smoke

A run repeats passes of the workload, one at a time, until --seconds have
elapsed.  Every pass is a fresh interpreter (perfbench/worker.py), so the
process-level caches of the package start cold, as they do for a
command-line user.  Before each pass this process times a fixed stdlib
reference, and the end-to-end times are scaled by it (see end_to_end).
With --trace 0 all passes are untraced and the run reports the end-to-end
metrics; with --trace 1 untraced and traced passes alternate and the run
reports the per-layer metrics (see layers.py), including the tracing
overhead.  The last line of stdout is one JSON object.

--smoke runs every workload at a tiny size, checks outputs, wrapper
coverage and that traced counts repeat, and exits non-zero on any failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
GOLDENS = HERE / "goldens.json"
PASS_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))
import layers  # noqa: E402
import workloads  # noqa: E402


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------

def run_pass(job: dict, pass_dir: Path, traced: bool, goldens: Path | None,
             cache_src: Path | None = None) -> dict:
    """Run one pass in a fresh interpreter and return its result."""
    (pass_dir / "tmp").mkdir(parents=True)
    spec = dict(job, root=str(ROOT), tmp=str(pass_dir / "tmp"), trace=traced,
                goldens=str(goldens) if goldens else None,
                cache_src=str(cache_src) if cache_src else None)
    job_file, result_file = pass_dir / "job.json", pass_dir / "result.json"
    job_file.write_text(json.dumps(spec))
    stderr = pass_dir / "stderr.txt"
    env = dict(os.environ, NFSASY_CACHE_DIR=str(pass_dir / "cache"))
    spawn = time.monotonic()
    with open(stderr, "w") as err:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(job_file), str(result_file)],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
    try:
        proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass timed out after {PASS_TIMEOUT_S} s") from exc
    finally:  # also on a timeout or a terminated run
        proc.kill()
        proc.wait()
    if proc.returncode != 0 or not result_file.exists():
        raise BenchError(f"pass exited with code {proc.returncode}:\n"
                         f"{stderr.read_text()[-2000:]}")
    result = json.loads(result_file.read_text())
    result.update(spawn=spawn, ended=time.monotonic(), traced=traced)
    return result


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def query_cache(degrees: list[int]) -> Path:
    """Directory of proven expansions for the query workload.

    Built once per source tree with `expand --prove` through the CLI and
    reused by later runs; each query pass copies it into its own cache.
    """
    target = WORK / f"query-cache-{source_hash()}-{'-'.join(map(str, degrees))}"
    if target.is_dir():
        return target
    build = WORK / f"build-{os.getpid()}-{time.monotonic_ns()}"
    try:
        job = {"workload": "build", "ops": [
            {"op": "cli", "check": "none",
             "argv": ["expand", "--degree", str(d), "--prove", "--format", "json"]}
            for d in degrees]}
        result = run_pass(job, build, traced=False, goldens=None)
        errors = [e for e in result["errors"] if e is not None]
        if errors:
            raise BenchError(f"building the query cache failed: {errors[0]}")
        os.replace(build / "cache", target)
    finally:
        shutil.rmtree(build, ignore_errors=True)
    return target


# The reference: a fixed piece of stdlib exact arithmetic (a sparse
# bivariate polynomial product over Fraction, the kind of work the exact
# engine does), timed in this process before each pass.  It shares no code
# with nfsasym, so a change to the package cannot move it; only the
# machine's speed does.
_REF_A = {(i, j): Fraction(i + 1, j + 2) for i in range(8) for j in range(8)}
_REF_B = {(i, j): Fraction(j - 3, 2 * i + 3) for i in range(8) for j in range(8)}
REFERENCE_CHUNKS = 48
# Mean time of one reference chunk on the 2-vCPU Xeon VM the benchmark was
# sized on, in a quiet period; end-to-end times are scaled to it.
REFERENCE_S = 0.014


def reference_reading() -> list[float]:
    """Times of REFERENCE_CHUNKS runs of the reference chunk."""
    times = []
    for _ in range(REFERENCE_CHUNKS):
        t0 = time.perf_counter()
        out: dict = {}
        for (i, j), a in _REF_A.items():
            for (k, m), b in _REF_B.items():
                out[i + k, j + m] = out.get((i + k, j + m), 0) + a * b
        times.append(time.perf_counter() - t0)
    return times


def run_passes(job: dict, seconds: float, trace: bool, run_dir: Path,
               cache_src: Path | None, min_traced: int = 1) -> list[dict]:
    """Passes, one at a time, for about `seconds`.

    A new pass starts only while it is expected to end less than half a pass
    past the deadline.  With tracing, untraced and traced passes alternate;
    at least one untraced pass and `min_traced` traced passes run.  Each
    pass carries the reference reading taken just before it.
    """
    results = []
    start = time.monotonic()
    while True:
        n_traced = sum(r["traced"] for r in results)
        required = len(results) == n_traced or (trace and n_traced < min_traced)
        if results and not required:
            pass_s = statistics.median(r["ended"] - r["spawn"] for r in results)
            if time.monotonic() - start + pass_s / 2 >= seconds:
                return results
        traced = trace and len(results) % 2 == 1
        reading = reference_reading()
        result = run_pass(job, run_dir / f"pass{len(results)}", traced, GOLDENS, cache_src)
        result["ref_times"] = reading
        results.append(result)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def wall(result: dict) -> float:
    return result["done"] - result["spawn"]


def end_to_end(results: list[dict]) -> tuple[dict, list[str]]:
    """End-to-end metrics over the untraced passes, at the reference speed.

    Per pass: wall and CPU time, the median and the slowest of its op
    latencies, set-up time and peak memory.  The machine is shared, and for
    minutes at a time it runs the same code up to 1.8x slower; the
    reference slows with it.  A slow spell adds to the mean time of a pass
    as it adds to the mean time of a reference chunk, so each time metric is
    the mean over the passes scaled by REFERENCE_S over the mean reference
    chunk of the run: the seconds the pass takes on a machine whose
    reference chunk takes REFERENCE_S.  setup_s is the median over the
    passes, scaled alike; peak_rss_mb the median, unscaled.
    """
    plain = [r for r in results if not r["traced"]]
    ref_s = statistics.fmean(t for r in results for t in r["ref_times"])
    scale = REFERENCE_S / ref_s
    per_pass = {
        "wall_s": ([wall(r) for r in plain], "s"),
        "cpu_s": ([r["cpu_s"] for r in plain], "s"),
        "op_ms.p50": ([statistics.median(r["latencies"]) * 1e3 for r in plain], "ms"),
        "op_ms.tail": ([max(r["latencies"]) * 1e3 for r in plain], "ms"),
    }
    values = {name: (statistics.fmean(v) * scale, unit) for name, (v, unit) in per_pass.items()}
    setup = [r["ready"] - r["spawn"] for r in plain]
    values["setup_s"] = (statistics.median(setup) * scale, "s")
    values["peak_rss_mb"] = (statistics.median(r["rss_mb"] for r in plain), "MB")
    lines = [f"{name} {value:.6g} {unit}" for name, (value, unit) in values.items()]
    for k, (v, unit) in enumerate(per_pass.values()):
        lines[k] += f"  (as timed: mean {statistics.fmean(v):.6g} {unit})"
    lines[4] += f"  (as timed: median {statistics.median(setup):.6g} s)"
    lines.append(f"reference chunk {ref_s * 1e3:.4g} ms, scale {scale:.4g}; {len(plain)} "
                 f"untraced passes of {len(plain[0]['latencies'])} ops, wall times "
                 + " ".join(f"{wall(r):.3f}" for r in plain))
    return {name: {"value": v, "unit": u} for name, (v, u) in values.items()}, lines


def per_layer(workload: str, job: dict, results: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metrics: medians over the traced passes; the overhead
    compares the median traced and untraced pass times."""
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    per_pass = [layers.layer_metrics(workload, job, r) for r in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_ratio"] = (statistics.median(map(wall, traced))
                                      / statistics.median(map(wall, plain)) - 1.0)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _better, _moves in layers.METRICS}
    lines = [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"coverage: {msg}" for msg in layers.coverage_failures(workload, traced[0]["trace"])]
    return metrics, lines


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def write_trace(workload: str, seed: int, env: dict, results: list[dict]) -> Path:
    """Write the spans and aggregates of the traced passes once the run ends."""
    path = WORK / f"trace-{workload}-seed{seed}.json"
    passes = [{"stats": r["trace"]["stats"], "spans": r["trace"]["spans"]}
              for r in results if r["traced"]]
    path.write_text(json.dumps({"env": env, "passes": passes}))
    return path


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def check_layout() -> None:
    if not (ROOT / "src" / "nfsasym" / "__init__.py").is_file():
        raise BenchError(f"no nfsasym sources under {ROOT / 'src'}")
    if not GOLDENS.is_file():
        raise BenchError(f"missing {GOLDENS}")


def bench(workload: str, seed: int, seconds: float, trace: bool) -> int:
    check_layout()
    job = workloads.make_job(workload, seed)
    WORK.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    cache_src = query_cache(job["cache_degrees"]) if workload == "query" else None
    run_dir = WORK / f"run-{os.getpid()}-{time.monotonic_ns()}"
    try:
        results = run_passes(job, seconds, trace, run_dir, cache_src)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    env = {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "rational_backend": results[0]["backend"],
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "loadavg_before": load_before, "loadavg_after": os.getloadavg(),
    }
    attempted = sum(len(r["errors"]) for r in results)
    errors = [e for r in results for e in r["errors"] if e is not None]
    print(f"env: {json.dumps(env)}")
    for err in errors[:10]:
        print(f"failed op: {err}")
    metrics, lines = end_to_end(results)
    if trace:
        metrics, layer_lines = per_layer(workload, job, results)
        lines += layer_lines
        lines.append(f"trace written: {write_trace(workload, seed, env, results)}")
    for line in lines:
        print(f"{workload} {line}")
    print(f"{workload} fail_ratio {len(errors) / attempted:.6g}  ({len(errors)} of {attempted} ops)")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": len(errors),
                      "metrics": metrics}))
    return 0


def smoke() -> int:
    """Tiny run of every workload: gates, coverage and repeatable counts."""
    check_layout()
    WORK.mkdir(exist_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in spec["per_layer"]] != [m[0] for m in layers.METRICS]:
        problems.append("BENCHMARK.json per_layer differs from layers.METRICS")
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    for workload in workloads.WORKLOADS:
        job = workloads.make_job(workload, seed=1, smoke=True)
        cache_src = query_cache(job["cache_degrees"]) if workload == "query" else None
        run_dir = WORK / f"smoke-{os.getpid()}-{time.monotonic_ns()}"
        start = time.monotonic()
        try:
            results = run_passes(job, 0, True, run_dir, cache_src, min_traced=2)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        errors = [e for r in results for e in r["errors"] if e is not None]
        problems += [f"{workload}: failed op: {e}" for e in errors]
        e2e, _ = end_to_end(results)
        missing = {m["name"] for m in spec["end_to_end"]} - set(e2e)
        problems += [f"{workload}: end-to-end metric {name} not reported" for name in missing]
        traced = [r for r in results if r["traced"]]
        problems += [f"{workload}: {msg}"
                     for msg in layers.coverage_failures(workload, traced[0]["trace"])]
        counts = [{k: v["calls"] for k, v in r["trace"]["stats"].items()} for r in traced]
        if counts[0] != counts[1]:
            problems.append(f"{workload}: call counts differ between traced passes")
        print(f"smoke {workload}: {len(results)} passes, {sum(map(len, (r['errors'] for r in results)))}"
              f" ops, {len(errors)} failed, {time.monotonic() - start:.1f} s")
    for msg in problems:
        print(f"smoke FAIL {msg}")
    print("smoke OK" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    # a terminated run still kills and reaps its passes (the finally blocks)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    # The run and its passes (which inherit this) share one CPU, so the
    # reference times the CPU the passes run on: on a shared host the two
    # vCPUs slow down partly apart.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required unless --smoke is given")
        return bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
