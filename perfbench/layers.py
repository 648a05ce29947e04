"""Per-layer metrics of the traced run, which end-to-end metric each should
move, and which spans must fire or stay silent on each workload.

``layer_metrics`` turns one traced pass into the named metrics; the list in
``METRICS`` is the same as the ``per_layer`` list of BENCHMARK.json.
"""

from __future__ import annotations

# name, unit, better, end-to-end metrics it should move
METRICS = (
    ("nfsopt.guess_s", "s", "lower", "prove.wall_s"),
    ("nfsopt.existence_s", "s", "lower", "prove.wall_s"),
    ("nfsopt.minimality_s", "s", "lower", "prove.wall_s"),
    ("nfsopt.build_constraint.calls", "count", "lower", "prove.wall_s"),
    ("nfsopt.useful_step_ratio", "ratio", "higher", "prove.wall_s"),
    ("nfsopt.unknownpoly_mul.calls", "count", "lower", "prove.wall_s"),
    ("nfsopt.unknownpoly_mul.self_s", "s", "lower", "prove.wall_s"),
    ("exact.logconst_mul.calls", "count", "lower", "prove.wall_s query.op_ms.p50"),
    ("exact.logconst_mul.self_s", "s", "lower", "prove.wall_s query.op_ms.p50"),
    ("exact.logconst_add.calls", "count", "lower", "prove.wall_s query.op_ms.p50"),
    ("exact.logconst_add.self_s", "s", "lower", "prove.wall_s query.op_ms.p50"),
    *((f"pseries.{op}.{field}", unit, "lower", "prove.wall_s query.op_ms.p50")
      for op in ("mul", "inverse", "log", "compose")
      for field, unit in (("calls", "count"), ("total_s", "s"), ("self_s", "s"))),
    ("asym.p_of.calls", "count", "lower", "prove.wall_s query.op_ms.p50"),
    ("asym.p_of.total_s", "s", "lower", "prove.wall_s query.op_ms.p50"),
    ("cache.verify_expansion.calls", "count", "lower", "query.op_ms.p50 query.op_ms.tail"),
    ("cache.verify_expansion.total_s", "s", "lower", "query.op_ms.p50 query.op_ms.tail"),
    ("cache.load_expansion.calls", "count", "lower", "query.op_ms.p50"),
    ("cache.save_expansion.total_s", "s", "lower", "prove.wall_s"),
    ("cache.verify_useful_ratio", "ratio", "higher", "query.op_ms.p50 query.op_ms.tail"),
    ("evalkit.figure_data.total_s", "s", "lower", "query.op_ms.tail numeric.wall_s"),
    ("evalkit.xi_eval.calls", "count", "lower", "query.op_ms.tail"),
    ("evalkit.xi_eval.total_s", "s", "lower", "query.op_ms.tail"),
    ("evalkit.complexity_log.calls", "count", "lower", "query.op_ms.tail"),
    ("dickman.rho_numeric.calls", "count", "lower", "numeric.wall_s"),
    ("dickman.rho_numeric.total_s", "s", "lower", "numeric.wall_s numeric.op_ms.tail"),
    ("dickman.rho_table_build_s", "s", "lower", "numeric.wall_s numeric.op_ms.tail"),
    ("dickman.log_rho_debruijn.total_s", "s", "lower", "numeric.wall_s numeric.op_ms.p50"),
    ("dickman.q_series.calls", "count", "lower", "numeric.wall_s"),
    *((f"cli.main.{cmd}.total_s", "s", "lower", f"the {cmd} ops")
      for cmd in ("expand", "xi", "keysize", "figure", "radius")),
    ("trace.overhead_ratio", "ratio", "lower", "none (cost of the wrappers)"),
    ("trace.coverage_failures", "count", "lower", "none (wrapper health)"),
)

# Spans that must fire (True) or stay silent (False) on each workload.
# A name absent from a row is not checked there.
EXPECT = {
    "prove": {
        "nfsopt.compute_proven_expansion": True, "nfsopt.guess_terms": True,
        "nfsopt.prove_existence": True, "nfsopt.prove_minimality": True,
        "nfsopt.build_constraint": True, "nfsopt.unknownpoly_mul": True,
        "asym.p_of": True, "asym.asym_div": True, "asym.asym_mul": True,
        "pseries.mul": True, "pseries.inverse": True, "pseries.log": True,
        "pseries.compose": True, "exact.logconst_mul": True, "exact.logconst_add": True,
        "dickman.q_series": True, "cache.save_expansion": True, "cli.main.expand": True,
        "dickman.rho_numeric": False, "dickman.log_rho_debruijn": False,
        "dickman.radius_constant": False, "evalkit.figure_data": False,
        "evalkit.xi_eval": False, "evalkit.xi_eval_loglog": False,
        "evalkit.complexity_log": False, "cache.load_expansion": False,
        "cache.verify_expansion": False,
    },
    "query": {
        "cache.load_expansion": True, "cache.verify_expansion": True,
        "nfsopt.build_constraint": True, "asym.p_of": True, "pseries.mul": True,
        "pseries.compose": True, "exact.logconst_mul": True, "exact.logconst_add": True,
        "evalkit.xi_eval": True, "evalkit.figure_data": True,
        "nfsopt.compute_proven_expansion": False, "nfsopt.guess_terms": False,
        "nfsopt.prove_existence": False, "nfsopt.prove_minimality": False,
        "nfsopt.unknownpoly_mul": False, "cache.save_expansion": False,
        "dickman.rho_numeric": False, "dickman.log_rho_debruijn": False,
        "dickman.radius_constant": False, "cli.main.expand": False,
        "cli.main.radius": False,
    },
    "numeric": {
        "dickman.rho_numeric": True, "dickman.log_rho_debruijn": True,
        "dickman.radius_constant": True, "dickman.q_series": True,
        "evalkit.figure_data": True, "cli.main.figure": True, "cli.main.radius": True,
        "nfsopt.compute_proven_expansion": False, "nfsopt.guess_terms": False,
        "nfsopt.prove_existence": False, "nfsopt.prove_minimality": False,
        "nfsopt.build_constraint": False, "nfsopt.unknownpoly_mul": False,
        "asym.p_of": False, "pseries.compose": False, "pseries.log": False,
        "cache.save_expansion": False, "cache.load_expansion": False,
        "cache.verify_expansion": False, "evalkit.xi_eval": False,
        "evalkit.complexity_log": False, "cli.main.expand": False,
        "cli.main.xi": False, "cli.main.keysize": False,
    },
}

_STAGES = ("nfsopt.guess_terms", "nfsopt.prove_existence", "nfsopt.prove_minimality")


def uses_cache(argv: list[str]) -> bool:
    """Whether a CLI op reads one proven expansion from the cache."""
    if argv[0] in ("xi", "keysize"):
        return int(argv[argv.index("--degree") + 1]) > 0
    return argv[0] == "figure" and argv[argv.index("--id") + 1] in ("zonecrypto", "convergence")


def coverage_failures(workload: str, trace: dict) -> list[str]:
    stats = trace["stats"]
    out = [f"{name}: wrapper target not found" for name in trace["missing"]]
    for name, fires in EXPECT[workload].items():
        calls = stats.get(name, {}).get("calls", 0)
        if fires and not calls:
            out.append(f"{name}: expected to fire on {workload}, recorded nothing")
        elif not fires and calls:
            out.append(f"{name}: expected silent on {workload}, recorded {calls} calls")
    return out


def layer_metrics(workload: str, job: dict, result: dict) -> dict[str, float]:
    """The METRICS values of one traced pass."""
    trace = result["trace"]
    stats, spans = trace["stats"], trace["spans"]

    def get(name, field):
        return stats.get(name, {}).get(field, 0)

    # schedule steps: build_constraint calls made inside guess or minimality
    steps = 0
    for name, _t0, _t1, parent in spans:
        if name != "nfsopt.build_constraint":
            continue
        while parent >= 0 and spans[parent][0] not in _STAGES:
            parent = spans[parent][3]
        if parent >= 0 and spans[parent][0] != "nfsopt.prove_existence":
            steps += 1
    rho = [t1 - t0 for name, t0, t1, _ in spans if name == "dickman.rho_numeric"]
    cache_ops = sum(1 for op in job["ops"] if op["op"] == "cli" and uses_cache(op["argv"]))
    verified = get("cache.verify_expansion", "calls")

    values = {
        "nfsopt.guess_s": get("nfsopt.guess_terms", "total_s"),
        "nfsopt.existence_s": get("nfsopt.prove_existence", "total_s"),
        "nfsopt.minimality_s": get("nfsopt.prove_minimality", "total_s"),
        "nfsopt.useful_step_ratio": result["proof_steps"] / steps if steps else 0.0,
        "cache.verify_useful_ratio": cache_ops / verified if verified else 0.0,
        "dickman.rho_table_build_s": rho[0] if rho else 0.0,
        "trace.coverage_failures": len(coverage_failures(workload, trace)),
    }
    for name, _unit, _better, _moves in METRICS:
        if name in values or name == "trace.overhead_ratio":
            continue
        layer, field = name.rsplit(".", 1)
        values[name] = get(layer, field)
    return values
