"""Seeded inputs and output gates of the three benchmark workloads.

``make_job`` runs in the parent process (run.py) and turns (workload, seed)
into the list of operations one pass executes; the pass receives only that
list.
The ``check_*`` functions run inside the pass, after its timed part, and
decide which operations produced wrong output.

Why these workloads:
  prove    the headline computation and the cache write path: the exact
           engine (exact / pseries / asym / nfsopt) over the unknown ring.
  query    the read path after a proof: CLI commands against a cache of
           proven degrees 2, 3 and 4; the cache layer and the exact engine
           over LOG_RING, with no unknowns and no schedule.
  numeric  the float layer (collocation, quadrature, Q evaluation) that the
           other two never touch; exact arithmetic only via q_series.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("prove", "query", "numeric")

# Degree 3 has all three patterns P1/P2/P3 and 14 proven steps in 3.4-6 s,
# so a 40 s run makes 5-9 passes; degree 4 takes 9-19 s and leaves 2-3.
PROVE_DEGREE = 3
SMOKE_PROVE_DEGREE = 2
QUERY_CACHE_DEGREES = (2, 3, 4)
SMOKE_QUERY_CACHE_DEGREES = (2,)

# The query menu: every op a seed can draw.  Goldens exist for each one.
XI_DEGREES = (1, 2, 3, 4, 5)
XI_BITS = (512, 768, 1024, 1536, 2048, 3072, 4096, 7680, 15360)
XI_NU = (100, 300, 1000, 3000, 10000, 100000)
XI_LOGLOG = (2, 3, 5, 8, 13, 20, 30, 40)
KEYSIZE_DEGREES = (1, 2, 3)
KEYSIZE_PAIRS = ((512, 1024), (768, 1536), (1024, 2048), (1024, 3072),
                 (2048, 4096), (3072, 15360))
FIGURE_IDS = ("zonecrypto", "convergence")
FIGURE_IMAX = (1, 2, 3, 4, 5)
# Every query pass draws the same two figure ops, its slowest, so the tail
# op of a pass costs the same for every seed.
QUERY_FIGURE_IMAX = 5

# Ops of one query pass by kind.  The mix is fixed so that a pass costs the
# same for every seed; the seed picks the arguments and the order.
QUERY_MIX = (("xi_bits", 2), ("xi_nu", 1), ("xi_loglog", 1), ("keysize", 2),
             ("zonecrypto", 1), ("convergence", 1))
SMOKE_QUERY_MIX = (("xi_bits", 1), ("keysize", 1), ("zonecrypto", 1))

TMP = "{tmp}"  # replaced by the op's own temporary directory


def query_op(kind: str, rng: random.Random, max_degree: int) -> list[str]:
    degrees = [d for d in XI_DEGREES if d <= max_degree]
    if kind == "xi_bits":
        return ["xi", "--degree", str(rng.choice(degrees)), "--bits", str(rng.choice(XI_BITS))]
    if kind == "xi_nu":
        return ["xi", "--degree", str(rng.choice(degrees)), "--nu", str(rng.choice(XI_NU))]
    if kind == "xi_loglog":
        return ["xi", "--degree", str(rng.choice(degrees)), "--loglogN",
                str(rng.choice(XI_LOGLOG))]
    if kind == "keysize":
        lo, hi = rng.choice(KEYSIZE_PAIRS)
        degree = rng.choice([d for d in KEYSIZE_DEGREES if d <= max_degree])
        return ["keysize", "--from-bits", str(lo), "--to-bits", str(hi), "--degree", str(degree)]
    i_max = min(QUERY_FIGURE_IMAX, max_degree)
    return ["figure", "--id", kind, "--i-max", str(i_max), "--out", f"{TMP}/fig.csv"]


def query_menu() -> list[list[str]]:
    """Every argv the query generator can produce."""
    menu = []
    for d in XI_DEGREES:
        menu += [["xi", "--degree", str(d), "--bits", str(b)] for b in XI_BITS]
        menu += [["xi", "--degree", str(d), "--nu", str(v)] for v in XI_NU]
        menu += [["xi", "--degree", str(d), "--loglogN", str(t)] for t in XI_LOGLOG]
    for d in KEYSIZE_DEGREES:
        menu += [["keysize", "--from-bits", str(lo), "--to-bits", str(hi), "--degree", str(d)]
                 for lo, hi in KEYSIZE_PAIRS]
    for fid in FIGURE_IDS:
        menu += [["figure", "--id", fid, "--i-max", str(i), "--out", f"{TMP}/fig.csv"]
                 for i in FIGURE_IMAX]
    return menu


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n seeded points in (lo, hi], one in each of n equal bins, in seeded
    order: every seed spreads its points alike over the range, so the ops'
    costs, and with them the median op, are the same for every seed."""
    points = [lo + (k + 1 - rng.random()) * (hi - lo) / n for k in range(n)]
    rng.shuffle(points)
    return points


def make_job(workload: str, seed: int, smoke: bool = False) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "prove":
        degree = SMOKE_PROVE_DEGREE if smoke else PROVE_DEGREE
        ops = [{"op": "cli", "check": "prove", "degree": degree,
                "argv": ["expand", "--degree", str(degree), "--prove", "--format", "json"]}]
        return {"workload": workload, "ops": ops}
    if workload == "query":
        cache_degrees = SMOKE_QUERY_CACHE_DEGREES if smoke else QUERY_CACHE_DEGREES
        max_degree = max(cache_degrees) + 1
        kinds = [kind for kind, count in (SMOKE_QUERY_MIX if smoke else QUERY_MIX)
                 for _ in range(count)]
        rng.shuffle(kinds)
        ops = [{"op": "cli", "check": "golden", "argv": query_op(kind, rng, max_degree)}
               for kind in kinds]
        return {"workload": workload, "ops": ops, "cache_degrees": list(cache_degrees)}
    if workload == "numeric":
        u_max = 10.0 if smoke else 500.0
        n_rho, n_db = (5, 2) if smoke else (54, 15)
        ops = [
            # the first call builds the collocation table up to u_max
            {"op": "rho", "u": u_max, "check": "range"},
            {"op": "rho", "u": 2.0, "check": "rho2"},
            {"op": "rho", "u": rng.uniform(2.0, 3.0), "check": "dilog"},
        ]
        ops += [{"op": "rho", "u": u, "check": "range"}
                for u in stratified(rng, 1.0, u_max, n_rho)]
        for u in stratified(rng, math.e, u_max, n_db):
            ops += [{"op": "debruijn", "u": u, "order": order, "check": "range"}
                    for order in range(1, 7)]
        ops += [
            {"op": "cli", "check": "golden",
             "argv": ["figure", "--id", "logrho", "--i-max", "6", "--out", f"{TMP}/fig.csv"]},
            {"op": "cli", "check": "golden", "argv": ["radius"]},
            {"op": "radius", "check": "radius"},
        ]
        return {"workload": workload, "ops": ops}
    raise ValueError(f"unknown workload {workload!r}")


def golden_key(argv: list[str]) -> str:
    return " ".join(argv)


def output_digest(stdout: str, files: dict[str, str]) -> str:
    h = hashlib.sha256(stdout.encode())
    for name in sorted(files):
        h.update(b"\0" + name.encode() + b"\0" + files[name].encode())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Gates (run inside a pass, after timing)
# ---------------------------------------------------------------------------

def reference_table() -> dict:
    """The ten closed-form coefficients of A through total degree 3."""
    from nfsasym.exact import LogConstant

    F = Fraction
    L2, L3 = LogConstant.gen(2), LogConstant.gen(3)
    return {
        (0, 0): LogConstant.one(),
        (1, 0): LogConstant.from_fraction(F(4, 3)),
        (0, 1): L2 * (-2) + L3 * F(1, 6) - 2,
        (2, 0): LogConstant.from_fraction(F(-4, 9)),
        (1, 1): L2 * F(4, 3) - L3 * F(1, 9) + 4,
        (0, 2): -(L2 * L2) + L2 * L3 * F(1, 6) - L3 * L3 * F(7, 36) - L2 * 6 + L3 * F(1, 2) - 5,
        (3, 0): LogConstant.from_fraction(F(32, 81)),
        (2, 1): L2 * F(-16, 9) + L3 * F(4, 27) - F(56, 9),
        (1, 2): (L2 * L2 * F(8, 3) - L2 * L3 * F(4, 9) + L2 * F(56, 3)
                 + L3 * L3 * F(14, 27) - L3 * F(14, 9) + F(64, 3)),
        (0, 3): (L2 * L2 * L2 * F(-4, 3) + L2 * L2 * L3 * F(1, 3) - L2 * L2 * 14
                 - L2 * L3 * L3 * F(7, 9) + L2 * L3 * F(7, 3) - L2 * 32
                 + L3 * L3 * L3 * F(41, 648) - L3 * L3 * F(49, 18) + L3 * F(8, 3) - F(85, 3)),
    }


def expansion_digest(payload: dict) -> str:
    """sha256 of the canonical to_string of A, B, D and the proof-log summary."""
    from nfsasym.exact import LogConstant

    def canon(text):
        return None if text is None else LogConstant.parse(text).to_string()

    lines = [f"degree={payload['degree']} deg_b={payload['deg_b']} deg_d={payload['deg_d']}"
             f" status={payload['status']}"]
    for key in ("A", "B", "D"):
        series = payload[key]
        lines.append(f"{key} order2={series['order2']}")
        for exp, text in sorted(series["terms"].items(),
                                key=lambda kv: tuple(int(p) for p in kv[0].split(","))):
            lines.append(f"{exp}={canon(text)}")
    for step in payload["proof_log"]:
        lines.append(json.dumps([step["target"], step["pattern"], canon(step["kappa_b"]),
                                 canon(step["kappa_d"]), canon(step["kappa_a"]),
                                 step["pinned_by"]]))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_prove(op: dict, stdout: str, cache_dir: Path, goldens: dict) -> tuple[str | None, int]:
    """Returns (error or None, proof-log step count)."""
    from nfsasym.exact import LogConstant

    degree = op["degree"]
    table = json.loads(stdout)
    if table.get("status") != "minimality-proven" or table.get("degree") != degree + 1:
        return f"stdout reports status={table.get('status')} degree={table.get('degree')}", 0
    payload = json.loads((cache_dir / f"expansion_deg{degree + 1}.json").read_text())
    terms = payload["A"]["terms"]
    for (i, j), want in reference_table().items():
        text = terms.get(f"{2 * i},{2 * j}")
        if text is None or LogConstant.parse(text) != want:
            return f"a{i}{j} = {text}, expected {want}", len(payload["proof_log"])
    digest = expansion_digest(payload)
    want = goldens["prove"].get(str(degree))
    if digest != want:
        return f"expansion digest {digest} != golden {want}", len(payload["proof_log"])
    return None, len(payload["proof_log"])


def check_golden(argv: list[str], digest: str, goldens: dict) -> str | None:
    want = goldens["cli"].get(golden_key(argv))
    if want is None:
        raise KeyError(f"no golden output for {golden_key(argv)!r}")
    return None if digest == want else f"output digest {digest} != golden {want}"


def rho_dilog_oracle(u: float) -> float:
    """rho(u) = 1 - (1 - log(u-1)) log u + Li2(1-u) + pi^2/12 on [2, 3]."""
    import mpmath

    mpmath.mp.dps = 30
    u = mpmath.mpf(u)
    value = (1 - (1 - mpmath.log(u - 1)) * mpmath.log(u)
             + mpmath.polylog(2, 1 - u) + mpmath.pi ** 2 / 12)
    return float(value)


def check_numeric(ops: list[dict], results: list[dict]) -> list[str | None]:
    """Per-op errors for the numeric workload (None where the op is right)."""
    errors: list[str | None] = []
    for op, res in zip(ops, results):
        err = None
        if res is None:
            pass  # the op raised; the pass already counts it as failed
        elif op["check"] == "rho2":
            value = math.exp(res["log_rho"])
            if abs(value - (1.0 - math.log(2.0))) > 1e-12:
                err = f"rho(2) = {value!r}, expected 1 - log 2"
        elif op["check"] == "dilog":
            value, want = math.exp(res["log_rho"]), rho_dilog_oracle(op["u"])
            if abs(value - want) > 1e-10 * want:
                err = f"rho({op['u']}) = {value!r}, dilog closed form {want!r}"
        elif op["check"] == "radius":
            from scipy.special import lambertw

            want = -1.0 / lambertw(-math.exp(-2.0), -1).real
            if abs(res["radius"] - want) > 1e-12 * want:
                err = f"radius_constant() = {res['radius']!r}, Lambert-W oracle {want!r}"
        elif op["op"] == "rho":
            if not (math.isfinite(res["log_rho"]) and res["log_rho"] <= 0.0):
                err = f"log rho({op['u']}) = {res['log_rho']!r} is not finite and <= 0"
        elif op["op"] == "debruijn":
            if not all(math.isfinite(res[k]) for k in ("series", "integral")):
                err = f"log_rho_debruijn({op['u']}, {op['order']}) is not finite"
        errors.append(err)
    # rho is non-increasing in u: compare every rho op in u order
    rho = sorted((op["u"], res["log_rho"], k) for k, (op, res) in enumerate(zip(ops, results))
                 if op["op"] == "rho" and res is not None and "log_rho" in res)
    for (u0, v0, _), (u1, v1, k1) in zip(rho, rho[1:]):
        if v1 > v0 + 1e-12 * max(1.0, abs(v0)) and errors[k1] is None:
            errors[k1] = f"log rho increases from u={u0} to u={u1}"
    return errors
