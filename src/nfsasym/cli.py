"""Command-line surface.

Commands: expand, rho, radius, xi, figure, keysize.  Exit codes: 0 success,
2 algorithm failure (the partial result is still written), 1 usage, input,
write or internal error.  The expansion cache lives under NFSASY_CACHE_DIR (or
~/.cache/nfsasym); xi, keysize and figure read the smallest cached degree
they can use, re-verify that file, and skip any file that fails.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

from . import cache as cachemod
from . import evalkit
from .dickman import log_rho_debruijn, radius_constant, radius_threshold_check, rho_numeric
from .nfsopt import CandidateExpansion, ExpansionResult, compute_proven_expansion, guess_terms
from .pseries import TruncatedBiSeries

DIVERGENCE_CAVEAT = (
    "caveat: truncated expansions of the complexity exponent diverge at"
    " cryptographic sizes (convergence only sets in near exp(exp(25)));"
    " these projections are not keysize advice"
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="nfsasym", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("expand", help="compute the coefficient table")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--prove", action="store_true",
                   help="prove the table: one schedule pass plus existence certificates")
    p.add_argument("--out", type=Path, default=None)
    p.add_argument("--format", choices=("json", "csv", "latex"), default="csv")
    p.add_argument("--no-cache", action="store_true")

    p = sub.add_parser("rho", help="Dickman rho evaluation")
    p.add_argument("--u", type=float, required=True)
    p.add_argument("--method", choices=("dde", "series"), default="dde")
    p.add_argument("--order", type=int, default=6)

    sub.add_parser("radius", help="convergence radius and threshold check")

    p = sub.add_parser("xi", help="evaluate a truncation of the exponent correction")
    p.add_argument("--degree", type=int, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--nu", type=float)
    group.add_argument("--bits", type=float)
    group.add_argument("--loglogN", type=float, dest="loglogn")

    p = sub.add_parser("figure", help="emit figure data as CSV (and SVG)")
    p.add_argument("--id", choices=evalkit.FIGURE_IDS, required=True)
    p.add_argument("--i-max", type=int, default=5)
    p.add_argument("--points", type=int, default=512)
    p.add_argument("--out", type=Path, required=True)
    p.add_argument("--svg", type=Path, default=None)

    p = sub.add_parser("keysize", help="projected work ratio between two sizes")
    p.add_argument("--from-bits", type=float, required=True, dest="from_bits")
    p.add_argument("--to-bits", type=float, required=True, dest="to_bits")
    p.add_argument("--degree", type=int, default=0)
    return parser


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------

def _table_rows(cand: CandidateExpansion) -> list[dict]:
    rows = []
    for (dx, dy) in cand.A.sorted_exponents():
        coeff = cand.A.terms[(dx, dy)]
        i, j = Fraction(dx, 2), Fraction(dy, 2)
        rows.append({
            "name": f"a{i}{j}" if i.denominator == 1 and j.denominator == 1 else f"a[{i},{j}]",
            "i": str(i),
            "j": str(j),
            "exact": coeff.to_compact_string(),
            "float": coeff.eval_f64(),
        })
    return rows


def _render_table(cand: CandidateExpansion, result: ExpansionResult | None, fmt: str) -> str:
    rows = _table_rows(cand)
    if fmt == "json":
        payload = {
            "degree": cand.degA,
            "status": cand.status,
            "rows": rows,
        }
        if result is not None and result.failure is not None:
            rec = result.failure
            payload["failure"] = {
                "stage": rec.stage, "degree": str(rec.degree), "message": rec.message,
            }
        return json.dumps(payload, indent=1) + "\n"
    if fmt == "csv":
        lines = ["name,i,j,exact,float"]
        for r in rows:
            lines.append(f"{r['name']},{r['i']},{r['j']},\"{r['exact']}\",{r['float']!r}")
        return "\n".join(lines) + "\n"
    # latex: mirrors the coefficient-table layout for visual diffing
    lines = [r"\begin{array}{c|l}"]
    for r in rows:
        lines.append(f"  a_{{{r['i']}{r['j']}}} & {r['exact']}\\\\")
    lines.append(r"\end{array}")
    return "\n".join(lines) + "\n"


def _cmd_expand(args) -> int:
    if args.degree < 1:
        raise UsageError("--degree must be >= 1")
    if args.prove:
        if args.degree < 2:
            raise UsageError("--prove needs --degree >= 2")
        result = compute_proven_expansion(args.degree)
        cand = result.candidate
    else:
        cand = guess_terms(args.degree)
        result = None
    text = _render_table(cand, result, args.format)
    if args.out is not None:
        args.out.write_text(text)
    else:
        sys.stdout.write(text)
    if args.prove and not args.no_cache and result is not None and result.ok:
        path = cachemod.save_expansion(result)
        print(f"cache written: {path}", file=sys.stderr)
    if result is not None and result.failure is not None:
        rec = result.failure
        print(f"FAILURE in {rec.stage} at degree {rec.degree}: {rec.message}",
              file=sys.stderr)
        return 2
    return 0


# ---------------------------------------------------------------------------
# numeric commands
# ---------------------------------------------------------------------------

def _rho_text(log_rho: float) -> str:
    """rho as printed: the float exp(log_rho) while that is a normal float;
    below that range, where exp loses digits and then gives 0.0, a mantissa
    and a power of 10 computed from the log, to 17 digits."""
    rho = math.exp(log_rho)
    if rho >= sys.float_info.min:
        return repr(rho)
    return f"{Decimal(log_rho).exp():.16e}"


def _cmd_rho(args) -> int:
    if args.method == "dde":
        value = rho_numeric(args.u)
        print(f"rho({args.u}) = {_rho_text(value.log_rho)}   log = {value.log_rho!r}")
    else:
        db = log_rho_debruijn(args.u, args.order)
        print(f"log rho({args.u}) series(order {args.order}) = {db.log_rho_series!r}")
        print(f"log rho({args.u}) integral form          = {db.log_rho_integral!r}")
    return 0


def _cmd_radius(args) -> int:
    r = radius_constant()
    ok = radius_threshold_check(176.0)
    print(f"{r:.6f}, threshold eta >= 176: {'OK' if ok else 'FAIL'}")
    return 0


def _load_proven(min_degree: int) -> CandidateExpansion:
    cand = cachemod.load_proven(min_degree)
    if cand is None:
        raise UsageError(
            f"no cached proven expansion of degree >= {min_degree};"
            f" run `nfsasym expand --degree {max(min_degree, 2)} --prove` first"
        )
    return cand


def _cmd_xi(args) -> int:
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    cand = _load_proven(args.degree) if args.degree > 0 else _degree_zero_candidate()
    if args.loglogn is not None:
        value = evalkit.xi_eval_loglog(cand, args.degree, args.loglogn)
        print(f"xi_{args.degree}(loglog nu={args.loglogn!r}) = {value!r}")
    else:
        nu = args.nu if args.nu is not None else args.bits * math.log(2.0)
        value = evalkit.xi_eval(cand, args.degree, nu)
        print(f"xi_{args.degree}(nu={nu!r}) = {value!r}")
    return 0


def _degree_zero_candidate() -> CandidateExpansion:
    one = TruncatedBiSeries.one(0)
    return CandidateExpansion(A=one, B=one, D=one, degA=0, degB=0,
                              degD=Fraction(0), status="exact")


def _cmd_figure(args) -> int:
    cand = None
    if args.id in ("zonecrypto", "convergence"):
        cand = _load_proven(args.i_max)
    series = evalkit.figure_data(cand, args.id, args.i_max, points=args.points)
    args.out.write_text(evalkit.rows_to_csv(series))
    if args.svg is not None:
        args.svg.write_text(evalkit.rows_to_svg(series))
    print(f"wrote {len(series.rows)} rows to {args.out}")
    return 0


def _cmd_keysize(args) -> int:
    if not (math.inf > args.to_bits > args.from_bits > 1):
        raise UsageError("need finite to-bits > from-bits > 1")
    if not args.from_bits * math.log(2.0) > math.exp(math.e):
        raise UsageError(f"need from-bits > e^e / log 2 = {math.exp(math.e) / math.log(2.0):.2f},"
                         f" got {args.from_bits:g}")
    if args.degree < 0:
        raise UsageError("--degree must be >= 0")
    if args.degree > 0:
        cand = _load_proven(args.degree)
    else:
        cand = _degree_zero_candidate()
    nu1 = args.from_bits * math.log(2.0)
    nu2 = args.to_bits * math.log(2.0)
    print(f"projected work ratio log2 C(2^{args.to_bits:g}) - log2 C(2^{args.from_bits:g}):")
    for i in range(args.degree + 1):
        c1 = evalkit.complexity_log(cand, nu1, i) / math.log(2.0)
        c2 = evalkit.complexity_log(cand, nu2, i) / math.log(2.0)
        print(f"  degree {i}: 2^{c2 - c1:.2f}   (log2 C: {c1:.2f} -> {c2:.2f})")
    g1, g2 = evalkit.g_demo(args.from_bits), evalkit.g_demo(args.to_bits)
    print(f"  prefactor-free class ratio (g0 style): 2^{g2.g0_log2 - g1.g0_log2:.2f}")
    print(DIVERGENCE_CAVEAT)
    return 0


_COMMANDS = {
    "expand": _cmd_expand,
    "rho": _cmd_rho,
    "radius": _cmd_radius,
    "xi": _cmd_xi,
    "figure": _cmd_figure,
    "keysize": _cmd_keysize,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (cachemod.CacheError, evalkit.EvalError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
